// The QoS-Resource Graph (paper §4.1.1).
//
// A QRG is a snapshot structure built per service session from (a) the
// service's QoS-Resource Model and (b) the current end-to-end resource
// availability. Its nodes are the input/output QoS levels of every
// participating component; its edges are
//   * translation edges (input level -> output level within a component),
//     present iff the translated requirement fits within the current
//     availability, weighted by the contention index of their most
//     contended resource (eq. 2-3); and
//   * equivalence edges (output level of a component -> the matching input
//     level of a downstream component), weight zero.
//
// Input nodes of a fan-in component receive one equivalence edge per
// predecessor and have AND semantics: the node is realized only when every
// constituent upstream output is realized (paper §4.3.2). Input nodes of
// chain components have exactly one incoming equivalence edge, so the
// basic (chain) and DAG cases share one representation.
//
// Nodes are created components-in-topological-order, input levels before
// output levels, and named "Qa", "Qb", ... in creation order — matching
// the labeling of the paper's figures 4/5 and tables 1/2.
//
// Only the translation edges' weights and feasibility depend on the
// snapshot. Everything else — the nodes, the equivalence edges and the
// translated requirement of every realizable operating point — depends
// only on the service and lives in its QrgSkeleton, built once per
// ServiceDefinition. Constructing a Qrg is then one linear weight pass
// over the skeleton's operating points (DESIGN.md §3).
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/availability.hpp"
#include "core/psi.hpp"
#include "core/service.hpp"

namespace qres {

enum class QrgNodeKind : std::uint8_t { kIn, kOut };

struct QrgNode {
  ComponentIndex component = 0;
  QrgNodeKind kind = QrgNodeKind::kIn;
  /// Output-level index for kOut nodes; flat input-level index for kIn
  /// nodes (see ServiceDefinition's input-level convention).
  LevelIndex level = 0;
};

struct QrgEdge {
  static constexpr std::uint32_t kNone = 0xffffffffu;

  std::uint32_t from = kNone;
  std::uint32_t to = kNone;
  /// Contention-index weight Psi (eq. 3); zero for equivalence edges.
  double psi = 0.0;
  /// Availability change index of the edge's bottleneck resource; 1.0 for
  /// equivalence edges.
  double alpha = 1.0;
  /// Resource attaining the max in eq. 3; invalid for equivalence edges.
  ResourceId bottleneck;
  /// True for translation (in->out) edges, false for equivalence edges.
  bool is_translation = false;
};

/// The availability-independent part of a service's QRG. Built once per
/// ServiceDefinition (see ServiceDefinition::qrg_skeleton) and read by
/// every Qrg of that service; immutable after construction.
struct QrgSkeleton {
  /// One realizable (input level, output level) operating point: the
  /// candidate translation edge and its base (unscaled) requirement,
  /// amounts[begin, end) in ascending resource order.
  struct OperatingPoint {
    std::uint32_t from = 0;
    std::uint32_t to = 0;
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
  };

  /// Evaluates every translation function of `service` once.
  explicit QrgSkeleton(const ServiceDefinition& service);

  std::vector<QrgNode> nodes;
  /// node_index[component] -> {first input-node index, first output-node
  /// index}; nodes of one component are contiguous, inputs first.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> node_index;
  std::uint32_t source_node = 0;
  /// (from, to) of every equivalence edge, in edge-index order.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> equivalence_edges;
  /// Components in topological order, then input level, then output level.
  std::vector<OperatingPoint> operating_points;
  std::vector<std::pair<ResourceId, double>> amounts;
};

class Qrg {
 public:
  /// Builds the QRG for one session of `service` under `availability`.
  ///
  /// `scale` multiplies every translated requirement before the
  /// feasibility test (the paper's "fat" sessions reserve N times the base
  /// requirement). Requires every resource referenced by any translation
  /// to be present in `availability` with availability > 0 or the edge is
  /// simply infeasible (availability 0 admits nothing).
  ///
  /// Edges are numbered equivalence edges first, then the feasible
  /// translation edges in skeleton operating-point order.
  Qrg(const ServiceDefinition& service, const AvailabilityView& availability,
      PsiKind psi_kind = PsiKind::kRatio, double scale = 1.0);

  const ServiceDefinition& service() const noexcept { return *service_; }
  PsiKind psi_kind() const noexcept { return psi_kind_; }

  std::size_t node_count() const noexcept { return skeleton_->nodes.size(); }
  std::size_t edge_count() const noexcept { return edges_.size(); }

  const QrgNode& node(std::uint32_t index) const;
  const QrgEdge& edge(std::uint32_t index) const;

  /// The translated requirement R^req of an edge (the base requirement
  /// times the session scale); empty for equivalence edges. Built on each
  /// call, so only plan steps ask for it.
  ResourceVector requirement(std::uint32_t edge) const;

  /// Index of the single source node (the source component's input level).
  std::uint32_t source_node() const noexcept { return skeleton_->source_node; }

  /// Node index for a component's input (flat) or output level.
  std::uint32_t node_of(ComponentIndex component, QrgNodeKind kind,
                        LevelIndex level) const;

  /// Sink nodes (the sink component's output levels) in end-to-end QoS
  /// rank order, best first.
  const std::vector<std::uint32_t>& ranked_sink_nodes() const noexcept {
    return ranked_sinks_;
  }

  /// Edge indices entering / leaving a node, ascending.
  std::span<const std::uint32_t> in_edges(std::uint32_t node) const;
  std::span<const std::uint32_t> out_edges(std::uint32_t node) const;

  /// Paper-style node label: "Qa", "Qb", ..., "Qz", "Qaa", ...
  std::string node_name(std::uint32_t index) const;

  /// The pure labeling function behind node_name (index -> "Qa"-style
  /// label, spreadsheet base-26).
  static std::string label(std::uint32_t index);

  /// Index of the translation edge between two nodes, or QrgEdge::kNone.
  std::uint32_t find_edge(std::uint32_t from, std::uint32_t to) const noexcept;

 private:
  const ServiceDefinition* service_;
  const QrgSkeleton* skeleton_;
  PsiKind psi_kind_;
  double scale_;
  std::vector<QrgEdge> edges_;
  /// Skeleton operating point of each translation edge, indexed by
  /// edge index minus the equivalence-edge count.
  std::vector<std::uint32_t> edge_points_;
  /// CSR adjacency: the edges entering node v are
  /// in_edges_[in_offsets_[v], in_offsets_[v + 1]); likewise for out.
  std::vector<std::uint32_t> in_offsets_;
  std::vector<std::uint32_t> in_edges_;
  std::vector<std::uint32_t> out_offsets_;
  std::vector<std::uint32_t> out_edges_;
  std::vector<std::uint32_t> ranked_sinks_;
};

}  // namespace qres
