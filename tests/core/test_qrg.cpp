#include "core/qrg.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <tuple>

#include "../test_helpers.hpp"
#include "core/planner.hpp"
#include "util/thread_pool.hpp"

namespace qres {
namespace {

using test::avail;
using test::make_chain;
using test::rv;

const ResourceId cpu{0}, bw{1};

// A two-component chain: source quality -> c0 (2 outs) -> c1 (2 outs).
ServiceDefinition two_chain() {
  TranslationTable t0;
  t0.set(0, 0, rv({{cpu, 8.0}}));
  t0.set(0, 1, rv({{cpu, 4.0}}));
  TranslationTable t1;
  t1.set(0, 0, rv({{bw, 10.0}}));
  t1.set(0, 1, rv({{bw, 5.0}}));
  t1.set(1, 1, rv({{bw, 6.0}}));
  return make_chain({{2, t0}, {2, t1}});
}

TEST(Qrg, NodeLayoutAndNaming) {
  const ServiceDefinition service = two_chain();
  const Qrg qrg(service, avail({{cpu, 100}, {bw, 100}}));
  // Nodes: source in (Qa), c0 outs (Qb, Qc), c1 ins (Qd, Qe),
  // c1 outs (Qf, Qg).
  EXPECT_EQ(qrg.node_count(), 7u);
  EXPECT_EQ(qrg.node_name(qrg.source_node()), "Qa");
  EXPECT_EQ(qrg.node_name(qrg.node_of(0, QrgNodeKind::kOut, 0)), "Qb");
  EXPECT_EQ(qrg.node_name(qrg.node_of(0, QrgNodeKind::kOut, 1)), "Qc");
  EXPECT_EQ(qrg.node_name(qrg.node_of(1, QrgNodeKind::kIn, 0)), "Qd");
  EXPECT_EQ(qrg.node_name(qrg.node_of(1, QrgNodeKind::kOut, 0)), "Qf");
  EXPECT_EQ(qrg.node_name(qrg.node_of(1, QrgNodeKind::kOut, 1)), "Qg");
}

TEST(Qrg, LabelsBeyondZ) {
  EXPECT_EQ(Qrg::label(0), "Qa");
  EXPECT_EQ(Qrg::label(25), "Qz");
  EXPECT_EQ(Qrg::label(26), "Qaa");
  EXPECT_EQ(Qrg::label(27), "Qab");
  EXPECT_EQ(Qrg::label(51), "Qaz");
  EXPECT_EQ(Qrg::label(52), "Qba");
}

TEST(Qrg, NodeNameValidatesIndex) {
  const ServiceDefinition service = two_chain();
  const Qrg qrg(service, avail({{cpu, 100}, {bw, 100}}));
  EXPECT_THROW(qrg.node_name(1000), ContractViolation);
}

TEST(Qrg, TranslationEdgeWeightsFollowEq2And3) {
  const ServiceDefinition service = two_chain();
  const Qrg qrg(service, avail({{cpu, 40}, {bw, 100}}));
  // c0: 0->out0 requires cpu 8 of 40 -> psi 0.2.
  const std::uint32_t e =
      qrg.find_edge(qrg.source_node(), qrg.node_of(0, QrgNodeKind::kOut, 0));
  ASSERT_NE(e, QrgEdge::kNone);
  EXPECT_DOUBLE_EQ(qrg.edge(e).psi, 0.2);
  EXPECT_EQ(qrg.edge(e).bottleneck, cpu);
  EXPECT_TRUE(qrg.edge(e).is_translation);
}

TEST(Qrg, MultiResourceEdgeTakesMaxPsi) {
  TranslationTable t0;
  t0.set(0, 0, rv({{cpu, 10.0}, {bw, 30.0}}));
  const ServiceDefinition service = make_chain({{1, t0}});
  const Qrg qrg(service, avail({{cpu, 100}, {bw, 60}}));
  const std::uint32_t e =
      qrg.find_edge(qrg.source_node(), qrg.node_of(0, QrgNodeKind::kOut, 0));
  ASSERT_NE(e, QrgEdge::kNone);
  EXPECT_DOUBLE_EQ(qrg.edge(e).psi, 0.5);  // max(0.1, 0.5)
  EXPECT_EQ(qrg.edge(e).bottleneck, bw);
}

TEST(Qrg, InfeasibleOperatingPointsHaveNoEdge) {
  const ServiceDefinition service = two_chain();
  // cpu availability 5 admits only the cpu-4 operating point of c0.
  const Qrg qrg(service, avail({{cpu, 5}, {bw, 100}}));
  EXPECT_EQ(qrg.find_edge(qrg.source_node(),
                          qrg.node_of(0, QrgNodeKind::kOut, 0)),
            QrgEdge::kNone);
  EXPECT_NE(qrg.find_edge(qrg.source_node(),
                          qrg.node_of(0, QrgNodeKind::kOut, 1)),
            QrgEdge::kNone);
}

TEST(Qrg, ZeroAvailabilityAdmitsNothing) {
  const ServiceDefinition service = two_chain();
  const Qrg qrg(service, avail({{cpu, 0}, {bw, 100}}));
  EXPECT_EQ(qrg.find_edge(qrg.source_node(),
                          qrg.node_of(0, QrgNodeKind::kOut, 1)),
            QrgEdge::kNone);
}

TEST(Qrg, SessionScaleMultipliesRequirements) {
  const ServiceDefinition service = two_chain();
  // With scale 10, c0's cheaper operating point needs cpu 40 > 30.
  const Qrg qrg(service, avail({{cpu, 30}, {bw, 1000}}),
                PsiKind::kRatio, 10.0);
  EXPECT_EQ(qrg.find_edge(qrg.source_node(),
                          qrg.node_of(0, QrgNodeKind::kOut, 1)),
            QrgEdge::kNone);
  const Qrg unscaled(service, avail({{cpu, 30}, {bw, 1000}}));
  const std::uint32_t e = unscaled.find_edge(
      unscaled.source_node(), unscaled.node_of(0, QrgNodeKind::kOut, 1));
  ASSERT_NE(e, QrgEdge::kNone);
  // And scaled requirements carry the scaled amount on the edge.
  const Qrg scaled2(service, avail({{cpu, 30}, {bw, 1000}}),
                    PsiKind::kRatio, 2.0);
  const std::uint32_t e2 = scaled2.find_edge(
      scaled2.source_node(), scaled2.node_of(0, QrgNodeKind::kOut, 1));
  ASSERT_NE(e2, QrgEdge::kNone);
  EXPECT_DOUBLE_EQ(scaled2.requirement(e2).get(cpu), 8.0);
}

TEST(Qrg, EquivalenceEdgesAreZeroWeight) {
  const ServiceDefinition service = two_chain();
  const Qrg qrg(service, avail({{cpu, 100}, {bw, 100}}));
  const std::uint32_t e =
      qrg.find_edge(qrg.node_of(0, QrgNodeKind::kOut, 0),
                    qrg.node_of(1, QrgNodeKind::kIn, 0));
  ASSERT_NE(e, QrgEdge::kNone);
  EXPECT_EQ(qrg.edge(e).psi, 0.0);
  EXPECT_FALSE(qrg.edge(e).is_translation);
  EXPECT_TRUE(qrg.requirement(e).empty());
}

TEST(Qrg, AlphaPropagatesFromObservation) {
  const ServiceDefinition service = two_chain();
  AvailabilityView view;
  view.set(cpu, 100.0, 0.8);
  view.set(bw, 100.0, 1.2);
  const Qrg qrg(service, view);
  const std::uint32_t e =
      qrg.find_edge(qrg.source_node(), qrg.node_of(0, QrgNodeKind::kOut, 0));
  ASSERT_NE(e, QrgEdge::kNone);
  EXPECT_DOUBLE_EQ(qrg.edge(e).alpha, 0.8);
}

TEST(Qrg, MissingResourceInSnapshotThrows) {
  const ServiceDefinition service = two_chain();
  EXPECT_THROW(Qrg(service, avail({{cpu, 100}})), ContractViolation);
}

TEST(Qrg, RankedSinksFollowServiceRanking) {
  ServiceDefinition service = two_chain();
  service.set_end_to_end_ranking({1, 0});
  const Qrg qrg(service, avail({{cpu, 100}, {bw, 100}}));
  ASSERT_EQ(qrg.ranked_sink_nodes().size(), 2u);
  EXPECT_EQ(qrg.node(qrg.ranked_sink_nodes()[0]).level, 1u);
  EXPECT_EQ(qrg.node(qrg.ranked_sink_nodes()[1]).level, 0u);
}

TEST(Qrg, FanInComboNodesGetOneEdgePerPredecessor) {
  // Diamond: 0 -> {1, 2} -> 3 with small tables.
  TranslationTable src, up, down, join;
  src.set(0, 0, rv({{cpu, 1.0}}));
  up.set(0, 0, rv({{cpu, 1.0}}));
  up.set(0, 1, rv({{cpu, 2.0}}));
  down.set(0, 0, rv({{bw, 1.0}}));
  for (LevelIndex flat = 0; flat < 2; ++flat)
    join.set(flat, 0, rv({{bw, 1.0}}));
  std::vector<ServiceComponent> comps;
  comps.emplace_back("src", test::levels(1), src.as_function());
  comps.emplace_back("up", test::levels(2), up.as_function());
  comps.emplace_back("down", test::levels(1), down.as_function());
  comps.emplace_back("join", test::levels(1), join.as_function());
  ServiceDefinition service("diamond", std::move(comps),
                            {{0, 1}, {0, 2}, {1, 3}, {2, 3}}, test::q(1));
  const Qrg qrg(service, avail({{cpu, 10}, {bw, 10}}));
  // join has 2*1 = 2 input combos; each combo node has exactly 2 incoming
  // equivalence edges (one per predecessor).
  for (LevelIndex flat = 0; flat < 2; ++flat) {
    const std::uint32_t node = qrg.node_of(3, QrgNodeKind::kIn, flat);
    std::size_t equivalence = 0;
    for (std::uint32_t e : qrg.in_edges(node))
      if (!qrg.edge(e).is_translation) ++equivalence;
    EXPECT_EQ(equivalence, 2u);
  }
}

TEST(Qrg, EdgeAndNodeAccessorsValidate) {
  const ServiceDefinition service = two_chain();
  const Qrg qrg(service, avail({{cpu, 100}, {bw, 100}}));
  EXPECT_THROW(qrg.node(1000), ContractViolation);
  EXPECT_THROW(qrg.edge(1000), ContractViolation);
  EXPECT_THROW(qrg.node_of(0, QrgNodeKind::kOut, 9), ContractViolation);
  EXPECT_EQ(qrg.find_edge(5000, 0), QrgEdge::kNone);
}

TEST(Qrg, RankingSetAfterTheFirstBuildReachesTheNextQrg) {
  // The ranking is not part of the cached skeleton.
  ServiceDefinition service = two_chain();
  const AvailabilityView view = avail({{cpu, 100}, {bw, 100}});
  const Qrg first(service, view);
  EXPECT_EQ(first.node(first.ranked_sink_nodes()[0]).level, 0u);
  service.set_end_to_end_ranking({1, 0});
  const Qrg second(service, view);
  ASSERT_EQ(second.ranked_sink_nodes().size(), 2u);
  EXPECT_EQ(second.node(second.ranked_sink_nodes()[0]).level, 1u);
  EXPECT_EQ(second.node(second.ranked_sink_nodes()[1]).level, 0u);
}

TEST(Qrg, CopiedServicePlansIdentically) {
  const ServiceDefinition original = two_chain();
  const AvailabilityView view = avail({{cpu, 40}, {bw, 12}});
  const ServiceDefinition early = original;  // copied before first use
  const Qrg built(original, view);
  const ServiceDefinition late = original;  // copied after first use
  EXPECT_EQ(&early.qrg_skeleton(), &original.qrg_skeleton());
  EXPECT_EQ(&late.qrg_skeleton(), &original.qrg_skeleton());
  Rng rng(1);
  const PlanResult want = BasicPlanner().plan(built, rng);
  ASSERT_TRUE(want.plan.has_value());
  for (const ServiceDefinition* copy : {&early, &late}) {
    const PlanResult got = BasicPlanner().plan(Qrg(*copy, view), rng);
    ASSERT_TRUE(got.plan.has_value());
    EXPECT_EQ(got.plan->end_to_end_level, want.plan->end_to_end_level);
    EXPECT_EQ(got.plan->bottleneck_psi, want.plan->bottleneck_psi);
    EXPECT_EQ(got.plan->bottleneck_resource, want.plan->bottleneck_resource);
    ASSERT_EQ(got.plan->steps.size(), want.plan->steps.size());
    for (std::size_t i = 0; i < want.plan->steps.size(); ++i) {
      EXPECT_EQ(got.plan->steps[i].in_level, want.plan->steps[i].in_level);
      EXPECT_EQ(got.plan->steps[i].out_level, want.plan->steps[i].out_level);
      EXPECT_EQ(got.plan->steps[i].psi, want.plan->steps[i].psi);
      EXPECT_TRUE(got.plan->steps[i].requirement ==
                  want.plan->steps[i].requirement);
    }
  }
}

TEST(Qrg, MissingResourceBehindAnInfeasibleOneDoesNotThrow) {
  // Resources are checked in ascending id order and the first infeasible
  // one drops the edge, so a missing resource after it is never looked up.
  TranslationTable t0;
  t0.set(0, 0, rv({{cpu, 8.0}, {bw, 5.0}}));
  const ServiceDefinition service = make_chain({{1, t0}});
  const Qrg qrg(service, avail({{cpu, 4}}));
  EXPECT_EQ(qrg.find_edge(qrg.source_node(),
                          qrg.node_of(0, QrgNodeKind::kOut, 0)),
            QrgEdge::kNone);
  // Once cpu fits, the missing bw is a contract violation again.
  EXPECT_THROW(Qrg(service, avail({{cpu, 100}})), ContractViolation);
}

/// Everything a Qrg exposes per edge, for whole-graph equality.
using EdgeImage = std::tuple<std::uint32_t, std::uint32_t, double, double,
                             std::uint32_t, bool, ResourceVector>;

std::vector<EdgeImage> image(const Qrg& qrg) {
  std::vector<EdgeImage> edges;
  for (std::uint32_t e = 0; e < qrg.edge_count(); ++e) {
    const QrgEdge& edge = qrg.edge(e);
    edges.emplace_back(edge.from, edge.to, edge.psi, edge.alpha,
                       edge.bottleneck.value(), edge.is_translation,
                       qrg.requirement(e));
  }
  return edges;
}

TEST(QrgSkeleton, ConcurrentFirstUse) {
  // Four workers construct QRGs of a service whose skeleton does not exist
  // yet, released together so the lazy build races.
  const ServiceDefinition service = two_chain();
  const AvailabilityView view = avail({{cpu, 40}, {bw, 12}});
  constexpr std::size_t kWorkers = 4;
  std::vector<std::vector<EdgeImage>> results(kWorkers);
  std::atomic<std::size_t> ready{0};
  ThreadPool pool(kWorkers);
  for (std::size_t i = 0; i < kWorkers; ++i)
    pool.submit([&, i] {
      ready.fetch_add(1);
      while (ready.load() < kWorkers) std::this_thread::yield();
      results[i] = image(Qrg(service, view, PsiKind::kRatio, 2.0));
    });
  pool.wait();
  EXPECT_FALSE(results[0].empty());
  for (std::size_t i = 1; i < kWorkers; ++i) EXPECT_EQ(results[i], results[0]);
  EXPECT_EQ(results[0], image(Qrg(service, view, PsiKind::kRatio, 2.0)));
}

}  // namespace
}  // namespace qres
