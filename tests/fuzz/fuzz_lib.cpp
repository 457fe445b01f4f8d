#include "fuzz_lib.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <map>
#include <span>
#include <utility>

#include "broker/resource_broker.hpp"
#include "core/exhaustive.hpp"

namespace qres::fuzz {

namespace {

std::string str(double x) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

std::string str(std::uint64_t x) { return std::to_string(x); }

QoSVector q(double value) {
  static const QoSSchema schema({"level"});
  return QoSVector(schema, {value});
}

/// `count` levels with descending values (index 0 = best), matching the
/// library's default ranking convention.
std::vector<QoSVector> levels(int count) {
  std::vector<QoSVector> result;
  for (int i = 0; i < count; ++i)
    result.push_back(q(static_cast<double>(count - i)));
  return result;
}

}  // namespace

World make_world(Rng& rng, const GenOptions& opt) {
  // Resources and their availability snapshot. A mix of roomy and tight
  // resources so some operating points are infeasible.
  const int resource_count =
      rng.uniform_int(opt.min_resources, opt.max_resources);
  std::vector<ResourceId> resources;
  AvailabilityView view;
  for (int r = 0; r < resource_count; ++r) {
    resources.push_back(ResourceId{static_cast<std::uint32_t>(r)});
    const double avail = rng.bernoulli(0.25) ? rng.uniform(5.0, 40.0)
                                             : rng.uniform(30.0, 120.0);
    view.set(resources.back(), avail, rng.uniform(0.5, 1.5));
  }

  // Dependency graph on components 0..n-1 with edges i < j only, so 0 is
  // the unique source and n-1 the unique sink.
  const int n = opt.dag ? rng.uniform_int(std::max(opt.min_components, 3),
                                          opt.max_components)
                        : rng.uniform_int(opt.min_components,
                                          opt.max_components);
  std::vector<std::pair<ComponentIndex, ComponentIndex>> edges;
  std::vector<std::vector<ComponentIndex>> preds(n);
  auto add_dep = [&](int i, int j) {
    edges.push_back({static_cast<ComponentIndex>(i),
                     static_cast<ComponentIndex>(j)});
    preds[j].push_back(static_cast<ComponentIndex>(i));
  };
  if (!opt.dag) {
    for (int j = 1; j < n; ++j) add_dep(j - 1, j);
  } else {
    // Every non-source component gets one mandatory predecessor, then
    // extra edges (fan-in capped at 2 to bound the derived input-level
    // cross product), then dangling components are wired into the sink.
    for (int j = 1; j < n; ++j) add_dep(rng.uniform_int(0, j - 1), j);
    for (int j = 2; j < n; ++j)
      for (int i = 0; i < j && preds[j].size() < 2; ++i)
        if (rng.bernoulli(opt.extra_edge_prob) &&
            std::find(preds[j].begin(), preds[j].end(),
                      static_cast<ComponentIndex>(i)) == preds[j].end())
          add_dep(i, j);
    std::vector<bool> has_succ(n, false);
    for (const auto& [from, to] : edges) has_succ[from] = true;
    for (int i = 1; i + 1 < n; ++i)
      if (!has_succ[i]) add_dep(i, n - 1);
  }

  // Per-component output level counts and random table-backed translation
  // functions over the derived flat input levels.
  std::vector<int> out_count(n);
  for (int c = 0; c < n; ++c)
    out_count[c] = rng.uniform_int(opt.min_levels, opt.max_levels);
  std::vector<ServiceComponent> components;
  for (int c = 0; c < n; ++c) {
    std::size_t in_count = 1;
    // Predecessors in ascending component index, matching the
    // ServiceDefinition fan-in convention.
    std::sort(preds[c].begin(), preds[c].end());
    for (ComponentIndex p : preds[c])
      in_count *= static_cast<std::size_t>(out_count[p]);
    TranslationTable table;
    for (std::size_t in = 0; in < in_count; ++in)
      for (int out = 0; out < out_count[c]; ++out)
        if (rng.bernoulli(opt.entry_density)) {
          ResourceVector req;
          const int uses = rng.uniform_int(1, 2);
          for (int u = 0; u < uses; ++u) {
            const ResourceId rid = resources[static_cast<std::size_t>(
                rng.uniform_int(0, resource_count - 1))];
            // Half the requirements sit on a coarse grid of the resource's
            // availability, so distinct edges frequently have *exactly*
            // equal psi — the regime where tie-break divergence between
            // relax_qrg and dijkstra_qrg hides. Continuous draws alone
            // almost never produce exact ties.
            const double amount =
                rng.bernoulli(0.5)
                    ? view.get(rid).available * rng.uniform_int(1, 8) / 8.0
                    : rng.uniform(1.0, 80.0);
            req.set(rid, amount);
          }
          table.set(static_cast<LevelIndex>(in),
                    static_cast<LevelIndex>(out), req);
        }
    if (table.size() == 0) {
      // Keep at least one operating point so components are not trivially
      // dead ends; feasibility still depends on the snapshot.
      ResourceVector req;
      req.set(resources[0], rng.uniform(1.0, 30.0));
      table.set(0, static_cast<LevelIndex>(rng.uniform_int(
                       0, out_count[c] - 1)),
                req);
    }
    components.emplace_back("c" + std::to_string(c), levels(out_count[c]),
                            table.as_function());
  }
  return World{ServiceDefinition(opt.dag ? "fuzz_dag" : "fuzz_chain",
                                 std::move(components), std::move(edges),
                                 q(10)),
               std::move(view), std::move(resources)};
}

ReferenceQrg reference_qrg(const ServiceDefinition& service,
                           const AvailabilityView& availability,
                           PsiKind psi_kind, double scale) {
  ReferenceQrg qrg;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> node_index(
      service.component_count(), {QrgEdge::kNone, QrgEdge::kNone});
  const auto add_node = [&](ComponentIndex c, QrgNodeKind kind,
                            LevelIndex level) {
    qrg.nodes.push_back(QrgNode{c, kind, level});
    qrg.in_edges.emplace_back();
    qrg.out_edges.emplace_back();
  };
  const auto node_of = [&](ComponentIndex c, QrgNodeKind kind,
                           LevelIndex level) {
    return (kind == QrgNodeKind::kIn ? node_index[c].first
                                     : node_index[c].second) +
           level;
  };
  const auto add_edge = [&](ReferenceEdge edge) {
    const auto index = static_cast<std::uint32_t>(qrg.edges.size());
    qrg.in_edges[edge.to].push_back(index);
    qrg.out_edges[edge.from].push_back(index);
    qrg.edges.push_back(std::move(edge));
  };

  for (ComponentIndex c : service.topological_order()) {
    const std::size_t in_count = service.in_level_count(c);
    node_index[c].first = static_cast<std::uint32_t>(qrg.nodes.size());
    for (LevelIndex i = 0; i < in_count; ++i) add_node(c, QrgNodeKind::kIn, i);
    node_index[c].second = static_cast<std::uint32_t>(qrg.nodes.size());
    const std::size_t out_count = service.component(c).out_level_count();
    for (LevelIndex o = 0; o < out_count; ++o)
      add_node(c, QrgNodeKind::kOut, o);
  }
  qrg.source_node = node_of(service.source(), QrgNodeKind::kIn, 0);

  for (ComponentIndex c : service.topological_order()) {
    const auto& preds = service.predecessors(c);
    if (preds.empty()) continue;
    const std::size_t in_count = service.in_level_count(c);
    for (LevelIndex flat = 0; flat < in_count; ++flat) {
      const std::vector<LevelIndex> combo = service.in_level_combo(c, flat);
      for (std::size_t p = 0; p < preds.size(); ++p) {
        ReferenceEdge edge;
        edge.from = node_of(preds[p], QrgNodeKind::kOut, combo[p]);
        edge.to = node_of(c, QrgNodeKind::kIn, flat);
        edge.is_translation = false;
        add_edge(edge);
      }
    }
  }

  for (ComponentIndex c : service.topological_order()) {
    const ServiceComponent& component = service.component(c);
    const std::size_t in_count = service.in_level_count(c);
    for (LevelIndex in = 0; in < in_count; ++in) {
      for (LevelIndex out = 0; out < component.out_level_count(); ++out) {
        const auto base = component.requirement(in, out);
        if (!base) continue;
        const ResourceVector req = base->scaled(scale);
        double psi = 0.0;
        double alpha = 1.0;
        ResourceId bottleneck;
        bool feasible = true;
        for (const auto& [rid, amount] : req) {
          QRES_REQUIRE(availability.contains(rid),
                       "reference_qrg: availability snapshot is missing a "
                       "resource referenced by component '" +
                           component.name() + "'");
          const ResourceObservation& obs = availability.get(rid);
          if (amount > obs.available || obs.available <= 0.0) {
            feasible = false;
            break;
          }
          const double index =
              contention_index(psi_kind, amount, obs.available);
          if (!bottleneck.valid() || index > psi) {
            psi = index;
            alpha = obs.alpha;
            bottleneck = rid;
          }
        }
        if (!feasible) continue;
        ReferenceEdge edge;
        edge.from = node_of(c, QrgNodeKind::kIn, in);
        edge.to = node_of(c, QrgNodeKind::kOut, out);
        edge.psi = psi;
        edge.alpha = alpha;
        edge.bottleneck = bottleneck;
        edge.requirement = req;
        edge.is_translation = true;
        add_edge(edge);
      }
    }
  }

  for (LevelIndex level : service.end_to_end_ranking())
    qrg.ranked_sinks.push_back(
        node_of(service.sink(), QrgNodeKind::kOut, level));
  return qrg;
}

std::string check_reference_qrg(const Qrg& qrg, const ReferenceQrg& expected) {
  if (qrg.node_count() != expected.nodes.size())
    return "node count " + std::to_string(qrg.node_count()) +
           " != reference " + std::to_string(expected.nodes.size());
  if (qrg.edge_count() != expected.edges.size())
    return "edge count " + std::to_string(qrg.edge_count()) +
           " != reference " + std::to_string(expected.edges.size());
  if (qrg.source_node() != expected.source_node)
    return "source node differs from the reference";
  const auto same_list = [](std::span<const std::uint32_t> a,
                            const std::vector<std::uint32_t>& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  };
  for (std::uint32_t v = 0; v < expected.nodes.size(); ++v) {
    const std::string where = "node " + std::to_string(v) + ": ";
    const QrgNode& got = qrg.node(v);
    const QrgNode& want = expected.nodes[v];
    if (got.component != want.component || got.kind != want.kind ||
        got.level != want.level)
      return where + "(component, kind, level) differs from the reference";
    if (!same_list(qrg.in_edges(v), expected.in_edges[v]))
      return where + "in-edge list differs from the reference";
    if (!same_list(qrg.out_edges(v), expected.out_edges[v]))
      return where + "out-edge list differs from the reference";
  }
  for (std::uint32_t e = 0; e < expected.edges.size(); ++e) {
    const std::string where = "edge " + std::to_string(e) + ": ";
    const QrgEdge& got = qrg.edge(e);
    const ReferenceEdge& want = expected.edges[e];
    if (got.from != want.from || got.to != want.to)
      return where + "endpoints differ from the reference";
    if (got.is_translation != want.is_translation)
      return where + "is_translation differs from the reference";
    if (got.psi != want.psi)
      return where + "psi " + str(got.psi) + " != reference " + str(want.psi);
    if (got.alpha != want.alpha)
      return where + "alpha " + str(got.alpha) + " != reference " +
             str(want.alpha);
    if (got.bottleneck != want.bottleneck)
      return where + "bottleneck differs from the reference";
    if (!(qrg.requirement(e) == want.requirement))
      return where + "requirement differs from the reference";
  }
  if (qrg.ranked_sink_nodes() != expected.ranked_sinks)
    return "ranked sink nodes differ from the reference";
  return {};
}

std::string check_differential(const Qrg& qrg) {
  for (const bool tie_break : {true, false}) {
    PlannerOptions options;
    options.use_tie_break = tie_break;
    const auto a = relax_qrg(qrg, options);
    const auto b = dijkstra_qrg(qrg, options);
    if (a.size() != b.size()) return "label vector sizes differ";
    for (std::uint32_t v = 0; v < a.size(); ++v) {
      const std::string where = "node " + std::to_string(v) + " (" +
                                qrg.node_name(v) + "), tie_break=" +
                                (tie_break ? "on" : "off") + ": ";
      if (a[v].reachable != b[v].reachable)
        return where + "relax reachable=" + str(std::uint64_t(a[v].reachable)) +
               " dijkstra=" + str(std::uint64_t(b[v].reachable));
      if (!a[v].reachable) continue;
      if (a[v].value != b[v].value)
        return where + "relax value=" + str(a[v].value) +
               " dijkstra=" + str(b[v].value);
      if (a[v].pred_edge != b[v].pred_edge)
        return where + "relax pred_edge=" + std::to_string(a[v].pred_edge) +
               " dijkstra=" + std::to_string(b[v].pred_edge);
      if (a[v].bottleneck != b[v].bottleneck)
        return where + "bottleneck resources differ (relax=" +
               std::to_string(a[v].bottleneck.value()) + " dijkstra=" +
               std::to_string(b[v].bottleneck.value()) + ")";
      if (a[v].alpha != b[v].alpha)
        return where + "relax alpha=" + str(a[v].alpha) +
               " dijkstra=" + str(b[v].alpha);
    }
  }
  return {};
}

std::string check_plan_wellformed(const Qrg& qrg,
                                  const ReservationPlan& plan) {
  const ServiceDefinition& service = qrg.service();
  const std::size_t n = service.component_count();
  if (plan.steps.size() != n)
    return "plan has " + std::to_string(plan.steps.size()) + " steps for " +
           std::to_string(n) + " components";
  const auto& topo = service.topological_order();
  std::vector<LevelIndex> chosen_out(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    if (plan.steps[i].component != topo[i])
      return "step " + std::to_string(i) + " is component " +
             std::to_string(plan.steps[i].component) +
             ", expected topological order";
    chosen_out[plan.steps[i].component] = plan.steps[i].out_level;
  }
  double max_psi = -1.0;
  bool bottleneck_matches = false;
  for (const PlanStep& step : plan.steps) {
    const ComponentIndex c = step.component;
    const std::string where = "step of component " + std::to_string(c) + ": ";
    if (step.in_level >= service.in_level_count(c))
      return where + "input level out of range";
    if (step.out_level >= service.component(c).out_level_count())
      return where + "output level out of range";
    const std::uint32_t e =
        qrg.find_edge(qrg.node_of(c, QrgNodeKind::kIn, step.in_level),
                      qrg.node_of(c, QrgNodeKind::kOut, step.out_level));
    if (e == QrgEdge::kNone)
      return where + "translation edge (" + std::to_string(step.in_level) +
             " -> " + std::to_string(step.out_level) +
             ") does not exist in the QRG";
    const QrgEdge& edge = qrg.edge(e);
    if (step.psi != edge.psi)
      return where + "recorded psi " + str(step.psi) +
             " != edge psi " + str(edge.psi);
    if (!(step.requirement == qrg.requirement(e)))
      return where + "recorded requirement differs from the edge's";
    // Input combo consistency: the step consumes exactly the output
    // levels its predecessors chose.
    const auto& preds = service.predecessors(c);
    if (preds.empty()) {
      if (step.in_level != 0) return where + "source input level != 0";
    } else {
      const auto combo = service.in_level_combo(c, step.in_level);
      for (std::size_t j = 0; j < preds.size(); ++j)
        if (combo[j] != chosen_out[preds[j]])
          return where + "input combo slot " + std::to_string(j) +
                 " is level " + std::to_string(combo[j]) +
                 " but predecessor " + std::to_string(preds[j]) +
                 " chose " + std::to_string(chosen_out[preds[j]]);
    }
    if (step.psi > max_psi) max_psi = step.psi;
  }
  if (max_psi < 0.0) max_psi = 0.0;
  if (plan.bottleneck_psi != max_psi)
    return "bottleneck_psi " + str(plan.bottleneck_psi) +
           " != max step psi " + str(max_psi);
  for (const PlanStep& step : plan.steps) {
    if (step.psi != max_psi) continue;
    const std::uint32_t e =
        qrg.find_edge(qrg.node_of(step.component, QrgNodeKind::kIn,
                                  step.in_level),
                      qrg.node_of(step.component, QrgNodeKind::kOut,
                                  step.out_level));
    const QrgEdge& edge = qrg.edge(e);
    if (edge.bottleneck == plan.bottleneck_resource &&
        edge.alpha == plan.bottleneck_alpha)
      bottleneck_matches = true;
  }
  if (max_psi > 0.0 && !bottleneck_matches)
    return "bottleneck resource/alpha matches no max-psi step";
  if (plan.steps.back().out_level != plan.end_to_end_level)
    return "end_to_end_level is not the sink step's output level";
  if (plan.end_to_end_rank != service.rank_of(plan.end_to_end_level))
    return "end_to_end_rank " + std::to_string(plan.end_to_end_rank) +
           " != rank_of(level) " +
           std::to_string(service.rank_of(plan.end_to_end_level));
  return {};
}

std::string check_planners(const Qrg& qrg) {
  Rng unused(0);
  const PlanResult basic = BasicPlanner().plan(qrg, unused);
  const PlanResult exhaustive = ExhaustivePlanner().plan(qrg, unused);

  for (std::size_t r = 0; r < basic.sinks.size(); ++r)
    if (basic.sinks[r].rank != r)
      return "basic sink info " + std::to_string(r) + " has rank " +
             std::to_string(basic.sinks[r].rank);
  if (basic.sinks.size() != exhaustive.sinks.size())
    return "sink info sizes differ between basic and exhaustive";

  if (basic.plan) {
    if (auto err = check_plan_wellformed(qrg, *basic.plan); !err.empty())
      return "basic plan: " + err;
    if (!basic.sinks[basic.plan->end_to_end_rank].reachable)
      return "basic plan targets a sink its own sink-infos call unreachable";
  }
  if (exhaustive.plan)
    if (auto err = check_plan_wellformed(qrg, *exhaustive.plan); !err.empty())
      return "exhaustive plan: " + err;

  if (qrg.service().is_chain()) {
    // On chains the basic planner is exact: full agreement with the
    // exhaustive reference, per sink and for the chosen plan.
    for (std::size_t r = 0; r < basic.sinks.size(); ++r) {
      if (basic.sinks[r].reachable != exhaustive.sinks[r].reachable)
        return "chain: sink rank " + std::to_string(r) +
               " reachability differs (basic=" +
               str(std::uint64_t(basic.sinks[r].reachable)) + ")";
      if (basic.sinks[r].reachable &&
          basic.sinks[r].psi != exhaustive.sinks[r].psi)
        return "chain: sink rank " + std::to_string(r) + " psi basic=" +
               str(basic.sinks[r].psi) + " exhaustive=" +
               str(exhaustive.sinks[r].psi);
    }
    if (basic.plan.has_value() != exhaustive.plan.has_value())
      return "chain: plan presence differs (basic=" +
             str(std::uint64_t(basic.plan.has_value())) + ")";
    if (basic.plan) {
      if (basic.plan->end_to_end_rank != exhaustive.plan->end_to_end_rank)
        return "chain: rank basic=" +
               std::to_string(basic.plan->end_to_end_rank) + " exhaustive=" +
               std::to_string(exhaustive.plan->end_to_end_rank);
      if (basic.plan->bottleneck_psi != exhaustive.plan->bottleneck_psi)
        return "chain: bottleneck psi basic=" +
               str(basic.plan->bottleneck_psi) + " exhaustive=" +
               str(exhaustive.plan->bottleneck_psi);
      // No better-ranked sink is reachable.
      for (std::size_t r = 0; r < basic.plan->end_to_end_rank; ++r)
        if (basic.sinks[r].reachable)
          return "chain: plan skipped reachable rank " + std::to_string(r);
    }
  } else {
    // DAG heuristic: any extracted plan is a feasible assignment, so the
    // exhaustive optimum must exist and be at least as good
    // (lexicographically by rank, then bottleneck psi).
    if (basic.plan) {
      if (!exhaustive.plan)
        return "dag: basic found a plan but exhaustive found none";
      if (exhaustive.plan->end_to_end_rank > basic.plan->end_to_end_rank)
        return "dag: heuristic rank " +
               std::to_string(basic.plan->end_to_end_rank) +
               " beats exhaustive rank " +
               std::to_string(exhaustive.plan->end_to_end_rank);
      if (exhaustive.plan->end_to_end_rank == basic.plan->end_to_end_rank &&
          basic.plan->bottleneck_psi <
              exhaustive.plan->bottleneck_psi - 1e-12)
        return "dag: heuristic psi " + str(basic.plan->bottleneck_psi) +
               " beats exhaustive psi " +
               str(exhaustive.plan->bottleneck_psi);
    }
  }
  return {};
}

namespace {

/// Reference reimplementation of the broker's clamped windowed average
/// over an unpruned (time, availability) trace.
double reference_windowed_average(
    const std::vector<std::pair<double, double>>& trace, double t,
    double window) {
  double start = t - window;
  if (start < trace.front().first) start = std::min(trace.front().first, t);
  auto value_at = [&](double when) {
    double value = trace.front().second;
    for (const auto& [time, v] : trace) {
      if (time <= when)
        value = v;
      else
        break;
    }
    return value;
  };
  double integral = 0.0;
  double covered = 0.0;
  double prev_time = start;
  double prev_value = value_at(start);
  for (const auto& [time, value] : trace) {
    if (time <= start) continue;
    if (time > t) break;
    integral += prev_value * (time - prev_time);
    covered += time - prev_time;
    prev_time = time;
    prev_value = value;
  }
  integral += prev_value * (t - prev_time);
  covered += t - prev_time;
  if (covered <= 0.0) return prev_value;
  return integral / covered;
}

}  // namespace

std::string check_broker(Rng& rng, int steps) {
  const double capacity = rng.uniform(50.0, 300.0);
  const double window = rng.uniform(1.0, 10.0);
  const double keep = window + rng.uniform(0.0, 50.0);
  const ResourceId rid{0};
  ResourceBroker broker(rid, "fuzz", capacity, window, keep);
  ResourceBroker report_broker(rid, "fuzz_rb", capacity, window, keep,
                               AlphaMode::kReportBased);
  std::map<std::uint32_t, double> model;  // session -> held amount
  std::vector<std::pair<double, double>> trace{{0.0, capacity}};
  std::deque<std::pair<double, double>> report_model;
  double now = 0.0;
  auto record_trace = [&](double t) {
    const double avail = broker.available();
    if (trace.back().first == t)
      trace.back().second = avail;
    else
      trace.push_back({t, avail});
  };
  for (int step = 0; step < steps; ++step) {
    if (!rng.bernoulli(0.15)) now += rng.uniform(0.0, 2.0);
    const std::uint32_t session =
        1 + static_cast<std::uint32_t>(rng.uniform_int(0, 9));
    const int op = rng.uniform_int(0, 3);
    if (op == 0) {
      const double amount = rng.uniform(0.0, capacity / 3.0);
      double held = 0.0;
      for (const auto& [s, a] : model) held += a;
      const bool accepted = broker.reserve(now, SessionId{session}, amount);
      (void)report_broker.reserve(now, SessionId{session}, amount);
      if (accepted != (amount <= capacity - held + 1e-9))
        return "broker: admission decision diverged from the model at t=" +
               str(now);
      if (accepted) model[session] += amount;
    } else if (op == 1) {
      broker.release(now, SessionId{session});
      report_broker.release(now, SessionId{session});
      model.erase(session);
    } else if (op == 2) {
      const double amount = rng.uniform(0.0, capacity / 4.0);
      broker.release_amount(now, SessionId{session}, amount);
      report_broker.release_amount(now, SessionId{session}, amount);
      auto it = model.find(session);
      if (it != model.end()) {
        it->second -= std::min(amount, it->second);
        if (it->second <= 1e-12) model.erase(it);
      }
    } else {
      // Time-weighted alpha at a random (possibly stale) time within the
      // faithfully kept part of the history, against the reference.
      const double latest = trace.back().first;
      const double lo = std::max(0.0, latest - std::max(keep - window, 0.0));
      const double t = rng.uniform(std::min(lo, now), now);
      const ResourceObservation obs = broker.observe(t);
      if (obs.alpha < 0.0) return "broker: negative alpha at t=" + str(t);
      const double expected_avg = reference_windowed_average(trace, t, window);
      double expected_avail = trace.front().second;
      for (const auto& [time, v] : trace) {
        if (time <= t)
          expected_avail = v;
        else
          break;
      }
      const double expected_alpha =
          expected_avg > 0.0 ? expected_avail / expected_avg : 1.0;
      if (std::abs(obs.alpha - expected_alpha) > 1e-9)
        return "broker: time-weighted alpha " + str(obs.alpha) +
               " != reference " + str(expected_alpha) + " at t=" + str(t) +
               " (window=" + str(window) + ")";
      // Report-based alpha (eq. 5) against its own model, observed at the
      // protocol's non-decreasing times.
      const ResourceObservation rb = report_broker.observe(now);
      while (!report_model.empty() &&
             report_model.front().first < now - window)
        report_model.pop_front();
      double rb_expected = 1.0;
      if (!report_model.empty()) {
        double sum = 0.0;
        for (const auto& [time, v] : report_model) sum += v;
        const double avg = sum / static_cast<double>(report_model.size());
        rb_expected = avg > 0.0 ? rb.available / avg : 1.0;
      }
      if (std::abs(rb.alpha - rb_expected) > 1e-9)
        return "broker: report-based alpha " + str(rb.alpha) +
               " != reference " + str(rb_expected) + " at t=" + str(now);
      report_model.push_back({now, rb.available});
    }
    record_trace(now);
    // Accounting invariants after every step.
    double model_total = 0.0;
    for (const auto& [s, a] : model) model_total += a;
    if (broker.reserved() < -1e-9 ||
        broker.reserved() > capacity + 1e-9)
      return "broker: reserved " + str(broker.reserved()) +
             " outside [0, capacity] at t=" + str(now);
    if (std::abs(broker.reserved() - model_total) > 1e-6)
      return "broker: reserved " + str(broker.reserved()) +
             " != model total " + str(model_total);
    if (broker.active_sessions() != model.size())
      return "broker: session count diverged from the model";
    // History invariants: monotone timestamps, current value at the tail,
    // at most one baseline entry older than the keep horizon.
    const auto& history = broker.history();
    for (std::size_t i = 1; i < history.size(); ++i)
      if (history[i].first < history[i - 1].first)
        return "broker: history timestamps are not monotone";
    if (std::abs(history.back().second - broker.available()) > 1e-9)
      return "broker: history tail does not match current availability";
    std::size_t older = 0;
    for (const auto& [time, v] : history)
      if (time < history.back().first - keep) ++older;
    if (older > 1)
      return "broker: " + std::to_string(older) +
             " history entries older than the keep horizon";
  }
  return {};
}

std::string run_iteration(std::uint64_t seed, FuzzStats* stats) {
  Rng rng(seed);
  const auto tag = [seed](const std::string& what, const std::string& err) {
    return "seed " + std::to_string(seed) + ": " + what + ": " + err;
  };
  // Rotate psi kinds and requirement scales across iterations so the
  // differential also covers the ablation configurations.
  const PsiKind psi_kind = static_cast<PsiKind>(seed % 3);
  const double scale = rng.bernoulli(0.2) ? 2.0 : 1.0;

  for (const bool dag : {false, true}) {
    GenOptions opt;
    opt.dag = dag;
    if (dag) opt.max_components = 6;
    World world = make_world(rng, opt);
    const std::string kind = dag ? "dag" : "chain";
    // Two snapshots of one service: the second Qrg reuses the skeleton the
    // first one built. The second snapshot draws from its own stream so the
    // main stream (and with it every later world) stays as it was.
    Rng snapshot_rng(seed ^ (dag ? 0x5eed0002u : 0x5eed0001u));
    AvailabilityView second;
    for (const auto& [rid, obs] : world.view)
      second.set(rid, obs.available * snapshot_rng.uniform(0.3, 1.5),
                 snapshot_rng.uniform(0.5, 1.5));
    for (const AvailabilityView* view : {&world.view, &second}) {
      const Qrg built(world.service, *view, psi_kind, scale);
      if (auto err = check_reference_qrg(
              built, reference_qrg(world.service, *view, psi_kind, scale));
          !err.empty())
        return tag(kind + " reference builder", err);
    }
    const Qrg qrg(world.service, world.view, psi_kind, scale);
    if (stats) {
      ++stats->qrgs;
      stats->nodes += qrg.node_count();
    }
    if (auto err = check_differential(qrg); !err.empty())
      return tag(kind + " differential", err);
    if (auto err = check_planners(qrg); !err.empty())
      return tag(kind + " planners", err);
    if (stats) ++stats->plans;
  }
  const int broker_steps = 150;
  if (auto err = check_broker(rng, broker_steps); !err.empty())
    return tag("broker", err);
  if (stats) stats->broker_steps += broker_steps;
  return {};
}

}  // namespace qres::fuzz
