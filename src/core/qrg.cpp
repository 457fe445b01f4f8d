#include "core/qrg.hpp"

#include "util/assert.hpp"

namespace qres {

QrgSkeleton::QrgSkeleton(const ServiceDefinition& service) {
  node_index.resize(service.component_count());

  // Create nodes: components in topological order, inputs before outputs,
  // so sequential labels match the paper's figures.
  for (ComponentIndex c : service.topological_order()) {
    const std::size_t in_count = service.in_level_count(c);
    const std::size_t out_count = service.component(c).out_level_count();
    node_index[c].first = static_cast<std::uint32_t>(nodes.size());
    for (LevelIndex i = 0; i < in_count; ++i)
      nodes.push_back(QrgNode{c, QrgNodeKind::kIn, i});
    node_index[c].second = static_cast<std::uint32_t>(nodes.size());
    for (LevelIndex o = 0; o < out_count; ++o)
      nodes.push_back(QrgNode{c, QrgNodeKind::kOut, o});
  }
  source_node = node_index[service.source()].first;

  // Equivalence edges: one per (input node, predecessor) pair.
  for (ComponentIndex c : service.topological_order()) {
    const auto& preds = service.predecessors(c);
    if (preds.empty()) continue;
    const std::size_t in_count = service.in_level_count(c);
    for (LevelIndex flat = 0; flat < in_count; ++flat) {
      const std::vector<LevelIndex> combo = service.in_level_combo(c, flat);
      for (std::size_t p = 0; p < preds.size(); ++p)
        equivalence_edges.push_back({node_index[preds[p]].second + combo[p],
                                     node_index[c].first + flat});
    }
  }

  // Operating points: every realizable (input, output) pair, whether or
  // not a given snapshot can afford it.
  for (ComponentIndex c : service.topological_order()) {
    const ServiceComponent& component = service.component(c);
    const std::size_t in_count = service.in_level_count(c);
    for (LevelIndex in = 0; in < in_count; ++in) {
      for (LevelIndex out = 0; out < component.out_level_count(); ++out) {
        const auto base = component.requirement(in, out);
        if (!base) continue;  // operating point not realizable
        OperatingPoint point;
        point.from = node_index[c].first + in;
        point.to = node_index[c].second + out;
        point.begin = static_cast<std::uint32_t>(amounts.size());
        amounts.insert(amounts.end(), base->begin(), base->end());
        point.end = static_cast<std::uint32_t>(amounts.size());
        operating_points.push_back(point);
      }
    }
  }
}

Qrg::Qrg(const ServiceDefinition& service, const AvailabilityView& availability,
         PsiKind psi_kind, double scale)
    : service_(&service), psi_kind_(psi_kind), scale_(scale) {
  QRES_REQUIRE(scale > 0.0, "Qrg: requirement scale must be positive");
  skeleton_ = &service.qrg_skeleton();
  const QrgSkeleton& skeleton = *skeleton_;

  edges_.reserve(skeleton.equivalence_edges.size() +
                 skeleton.operating_points.size());
  edge_points_.reserve(skeleton.operating_points.size());
  for (const auto& [from, to] : skeleton.equivalence_edges) {
    QrgEdge& edge = edges_.emplace_back();
    edge.from = from;
    edge.to = to;
  }

  // Translation edges: the feasible operating points. The requirement is
  // base * scale, the multiplication ResourceVector::scaled performs.
  for (std::uint32_t p = 0; p < skeleton.operating_points.size(); ++p) {
    const QrgSkeleton::OperatingPoint& point = skeleton.operating_points[p];
    double psi = 0.0;
    double alpha = 1.0;
    ResourceId bottleneck;
    bool feasible = true;
    for (std::uint32_t i = point.begin; i < point.end; ++i) {
      const auto& [rid, base] = skeleton.amounts[i];
      const double amount = base * scale;
      const ResourceObservation* obs = availability.find(rid);
      QRES_REQUIRE(obs != nullptr,
                   "Qrg: availability snapshot is missing a resource "
                   "referenced by component '" +
                       service.component(skeleton.nodes[point.from].component)
                           .name() +
                       "'");
      if (amount > obs->available || obs->available <= 0.0) {
        feasible = false;
        break;
      }
      const double index = contention_index(psi_kind_, amount, obs->available);
      if (!bottleneck.valid() || index > psi) {
        psi = index;
        alpha = obs->alpha;
        bottleneck = rid;
      }
    }
    if (!feasible) continue;
    QrgEdge& edge = edges_.emplace_back();
    edge.from = point.from;
    edge.to = point.to;
    edge.psi = psi;
    edge.alpha = alpha;
    edge.bottleneck = bottleneck;
    edge.is_translation = true;
    edge_points_.push_back(p);
  }

  // CSR adjacency by counting sort. Filling in edge order keeps every
  // node's list ascending; the fill advances each node's offset to the
  // next node's, so shifting the offsets back by one restores them.
  const std::size_t n = skeleton.nodes.size();
  in_offsets_.assign(n + 1, 0);
  out_offsets_.assign(n + 1, 0);
  for (const QrgEdge& edge : edges_) {
    ++in_offsets_[edge.to + 1];
    ++out_offsets_[edge.from + 1];
  }
  for (std::size_t v = 0; v < n; ++v) {
    in_offsets_[v + 1] += in_offsets_[v];
    out_offsets_[v + 1] += out_offsets_[v];
  }
  in_edges_.resize(edges_.size());
  out_edges_.resize(edges_.size());
  for (std::uint32_t e = 0; e < edges_.size(); ++e) {
    in_edges_[in_offsets_[edges_[e].to]++] = e;
    out_edges_[out_offsets_[edges_[e].from]++] = e;
  }
  for (std::size_t v = n; v > 0; --v) {
    in_offsets_[v] = in_offsets_[v - 1];
    out_offsets_[v] = out_offsets_[v - 1];
  }
  in_offsets_[0] = 0;
  out_offsets_[0] = 0;

  // Sinks, best rank first.
  ranked_sinks_.reserve(service.end_to_end_ranking().size());
  for (LevelIndex level : service.end_to_end_ranking())
    ranked_sinks_.push_back(node_of(service.sink(), QrgNodeKind::kOut, level));
}

const QrgNode& Qrg::node(std::uint32_t index) const {
  QRES_REQUIRE(index < node_count(), "Qrg::node: index out of range");
  return skeleton_->nodes[index];
}

const QrgEdge& Qrg::edge(std::uint32_t index) const {
  QRES_REQUIRE(index < edges_.size(), "Qrg::edge: index out of range");
  return edges_[index];
}

ResourceVector Qrg::requirement(std::uint32_t edge) const {
  QRES_REQUIRE(edge < edges_.size(), "Qrg::requirement: index out of range");
  ResourceVector result;
  const std::size_t equivalence = skeleton_->equivalence_edges.size();
  if (edge < equivalence) return result;
  const QrgSkeleton::OperatingPoint& point =
      skeleton_->operating_points[edge_points_[edge - equivalence]];
  for (std::uint32_t i = point.begin; i < point.end; ++i)
    result.set(skeleton_->amounts[i].first,
               skeleton_->amounts[i].second * scale_);
  return result;
}

std::uint32_t Qrg::node_of(ComponentIndex component, QrgNodeKind kind,
                           LevelIndex level) const {
  QRES_REQUIRE(component < skeleton_->node_index.size(),
               "Qrg::node_of: component out of range");
  const auto [in_base, out_base] = skeleton_->node_index[component];
  if (kind == QrgNodeKind::kIn) {
    QRES_REQUIRE(level < out_base - in_base,
                 "Qrg::node_of: input level out of range");
    return in_base + level;
  }
  QRES_REQUIRE(level < service_->component(component).out_level_count(),
               "Qrg::node_of: output level out of range");
  return out_base + level;
}

std::span<const std::uint32_t> Qrg::in_edges(std::uint32_t node) const {
  QRES_REQUIRE(node < node_count(), "Qrg::in_edges: node out of range");
  return {in_edges_.data() + in_offsets_[node],
          in_edges_.data() + in_offsets_[node + 1]};
}

std::span<const std::uint32_t> Qrg::out_edges(std::uint32_t node) const {
  QRES_REQUIRE(node < node_count(), "Qrg::out_edges: node out of range");
  return {out_edges_.data() + out_offsets_[node],
          out_edges_.data() + out_offsets_[node + 1]};
}

std::string Qrg::node_name(std::uint32_t index) const {
  QRES_REQUIRE(index < node_count(), "Qrg::node_name: index out of range");
  return label(index);
}

std::string Qrg::label(std::uint32_t index) {
  // Spreadsheet-style base-26 suffix: a..z, aa, ab, ...
  std::string suffix;
  std::uint32_t n = index;
  for (;;) {
    suffix.insert(suffix.begin(), static_cast<char>('a' + n % 26));
    if (n < 26) break;
    n = n / 26 - 1;
  }
  return "Q" + suffix;
}

std::uint32_t Qrg::find_edge(std::uint32_t from,
                             std::uint32_t to) const noexcept {
  if (from >= node_count() || to >= node_count()) return QrgEdge::kNone;
  for (std::uint32_t e : out_edges(from))
    if (edges_[e].to == to) return e;
  return QrgEdge::kNone;
}

}  // namespace qres
