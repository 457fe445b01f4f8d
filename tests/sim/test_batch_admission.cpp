// Batch planning of concurrent arrivals (DESIGN.md §11): establish_batch
// must produce bit-identical results and broker accounting whether the
// planning phase runs inline or on a pool of any size, conflicts between
// batch members must resolve through the replan path, and
// BatchAdmissionQueue must drain same-tick submissions as one batch with
// completions firing in arrival order. qres_fuzz --mode parallel runs
// the randomized version of the same differential at scale.
#include "sim/batch_admission.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "../test_helpers.hpp"

namespace qres {
namespace {

using test::rv;

// The two-component chain from test_coordinator.cpp: cpu capacity 100,
// bw capacity 50; the best plan takes cpu 20 + bw 30, the degraded
// level-1 plan cpu 10 + bw 10.
struct Fixture {
  BrokerRegistry registry;
  ResourceId cpu =
      registry.add_resource("cpu", ResourceKind::kCpu, HostId{0}, 100.0);
  ResourceId bw = registry.add_resource(
      "bw", ResourceKind::kNetworkBandwidth, HostId{}, 50.0);
  ServiceDefinition service = make_service();
  SessionCoordinator coordinator{&service, {cpu, bw}, &registry};
  BasicPlanner planner;

  ServiceDefinition make_service() {
    TranslationTable t0, t1;
    t0.set(0, 0, rv({{cpu, 20.0}}));
    t0.set(0, 1, rv({{cpu, 10.0}}));
    t1.set(0, 0, rv({{bw, 30.0}}));
    t1.set(1, 0, rv({{bw, 40.0}}));
    t1.set(1, 1, rv({{bw, 10.0}}));
    return test::make_chain({{2, t0}, {2, t1}});
  }

  std::vector<BatchRequest> requests(std::uint32_t count, double scale = 1.0) {
    std::vector<BatchRequest> out;
    for (std::uint32_t i = 0; i < count; ++i)
      out.push_back({&coordinator, SessionId{i + 1}, scale, nullptr});
    return out;
  }
};

std::string summarize(const std::vector<EstablishResult>& results) {
  std::string out;
  for (const auto& r : results) {
    out += to_string(r.outcome);
    out += r.plan ? " rank=" + std::to_string(r.plan->end_to_end_rank) : "";
    for (const auto& [id, amount] : r.holdings)
      out += " h" + std::to_string(id.value()) + "=" + std::to_string(amount);
    out += " replans=" + std::to_string(r.stats.replans);
    out += ";";
  }
  return out;
}

TEST(EstablishBatch, AdmitsIndependentRequestsLikeSequentialEstablish) {
  // Two sessions fit side by side (cpu 40, bw 60 > 50 -> second degrades);
  // capacity accounting must match running establish() twice.
  Fixture batch_world, seq_world;
  Rng batch_rng(3), seq_rng(3);
  const auto results =
      establish_batch(batch_world.requests(2), 1.0, batch_world.planner,
                      batch_rng);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].success);
  EXPECT_TRUE(results[1].success);
  for (std::uint32_t i = 0; i < 2; ++i)
    seq_world.coordinator.establish(SessionId{i + 1}, 1.0, seq_world.planner,
                                    seq_rng);
  EXPECT_EQ(batch_world.registry.broker(batch_world.cpu).available(),
            seq_world.registry.broker(seq_world.cpu).available());
  EXPECT_EQ(batch_world.registry.broker(batch_world.bw).available(),
            seq_world.registry.broker(seq_world.bw).available());
}

TEST(EstablishBatch, ResultsAreIdenticalForEveryWorkerCount) {
  ThreadPool one(1), four(4);
  BatchOptions inline_opts;                      // pool == nullptr
  BatchOptions one_opts{&one, true};
  BatchOptions four_opts{&four, true};
  std::string reference;
  double cpu_left = -1.0, bw_left = -1.0;
  for (const BatchOptions* opts : {&inline_opts, &one_opts, &four_opts}) {
    Fixture world;
    Rng rng(42);
    // Three sessions: together they overflow bw, so the batch exercises
    // degradation and (depending on snapshots) the conflict path too.
    const auto results =
        establish_batch(world.requests(3), 1.0, world.planner, rng, *opts);
    const std::string summary = summarize(results);
    const double cpu_now = world.registry.broker(world.cpu).available();
    const double bw_now = world.registry.broker(world.bw).available();
    if (reference.empty()) {
      reference = summary;
      cpu_left = cpu_now;
      bw_left = bw_now;
    } else {
      EXPECT_EQ(summary, reference);
      EXPECT_EQ(cpu_now, cpu_left);
      EXPECT_EQ(bw_now, bw_left);
    }
  }
}

TEST(EstablishBatch, ConflictBetweenBatchMembersReplansSequentially) {
  // Both sessions plan against the same pre-batch snapshot (bw 50) and
  // pick the level-0 plan (bw 36 at scale 1.2). The first commit leaves
  // bw 14, the second collides and must retry against fresh state,
  // landing on the level-1 plan (bw 12).
  Fixture world;
  Rng rng(1);
  const auto results =
      establish_batch(world.requests(2, /*scale=*/1.2), 1.0, world.planner,
                      rng);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].success);
  EXPECT_EQ(results[0].plan->end_to_end_rank, 0u);
  EXPECT_TRUE(results[1].success);
  EXPECT_EQ(results[1].plan->end_to_end_rank, 1u);
  EXPECT_GT(results[1].stats.replans, 0u);
  EXPECT_DOUBLE_EQ(world.registry.broker(world.cpu).available(), 64.0);
  EXPECT_DOUBLE_EQ(world.registry.broker(world.bw).available(), 2.0);
}

TEST(EstablishBatch, ConflictWithoutReplanFailsWithAdmission) {
  Fixture world;
  Rng rng(1);
  BatchOptions opts;
  opts.replan_on_conflict = false;
  const auto results =
      establish_batch(world.requests(2, /*scale=*/1.6), 1.0, world.planner,
                      rng, opts);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].success);
  EXPECT_FALSE(results[1].success);
  EXPECT_EQ(results[1].outcome, EstablishOutcome::kAdmission);
  // The failed commit rolled back: only the first session's reservations
  // remain (cpu 32, bw 48).
  EXPECT_DOUBLE_EQ(world.registry.broker(world.cpu).available(), 68.0);
  EXPECT_DOUBLE_EQ(world.registry.broker(world.bw).available(), 2.0);
}

TEST(EstablishBatch, EmptyBatchIsANoOp) {
  Fixture world;
  Rng rng(1);
  EXPECT_TRUE(establish_batch({}, 1.0, world.planner, rng).empty());
  EXPECT_DOUBLE_EQ(world.registry.broker(world.cpu).available(), 100.0);
}

TEST(BatchAdmissionQueue, DrainsSameTickSubmissionsAsOneBatch) {
  Fixture world;
  EventQueue events;
  Rng rng(9);
  BatchAdmissionQueue admissions(&events, &world.planner, &rng);
  std::vector<std::uint32_t> completion_order;
  for (std::uint32_t i = 0; i < 3; ++i)
    admissions.submit(5.0, {&world.coordinator, SessionId{i + 1}, 1.0, nullptr},
                      [i, &completion_order](const EstablishResult& result) {
                        EXPECT_TRUE(result.success);
                        completion_order.push_back(i);
                      });
  bool late_done = false;
  admissions.submit(7.0, {&world.coordinator, SessionId{9}, 1.0, nullptr},
                    [&late_done](const EstablishResult& result) {
                      // The t=5 batch drained bw to zero (30 + 10 + 10),
                      // so the singleton is rejected, not lost.
                      EXPECT_FALSE(result.success);
                      late_done = true;
                    });
  events.run_all();
  // One batch of three at t=5, one singleton at t=7; completions fired in
  // arrival order via the lane tie-break.
  EXPECT_EQ(admissions.batches(), 2u);
  EXPECT_EQ(admissions.max_batch(), 3u);
  EXPECT_EQ(admissions.admitted(), 3u);
  EXPECT_TRUE(late_done);
  EXPECT_EQ(completion_order, (std::vector<std::uint32_t>{0, 1, 2}));
}

TEST(BatchAdmissionQueue, MatchesDirectEstablishBatch) {
  // The event-loop path must be a faithful wrapper: same results as
  // calling establish_batch directly with the same seed.
  Fixture direct_world;
  Rng direct_rng(21);
  const auto direct = establish_batch(direct_world.requests(3), 4.0,
                                      direct_world.planner, direct_rng);

  Fixture queued_world;
  EventQueue events;
  Rng queued_rng(21);
  BatchAdmissionQueue admissions(&events, &queued_world.planner, &queued_rng);
  std::vector<EstablishResult> queued;
  for (std::uint32_t i = 0; i < 3; ++i)
    admissions.submit(
        4.0, {&queued_world.coordinator, SessionId{i + 1}, 1.0, nullptr},
        [&queued](const EstablishResult& result) { queued.push_back(result); });
  events.run_all();
  ASSERT_EQ(queued.size(), direct.size());
  EXPECT_EQ(summarize(queued), summarize(direct));
  EXPECT_EQ(queued_world.registry.broker(queued_world.bw).available(),
            direct_world.registry.broker(direct_world.bw).available());
}

}  // namespace
}  // namespace qres
