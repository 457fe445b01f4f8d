#include "broker/resource_broker.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace qres {
namespace {

const ResourceId rid{0};
const SessionId s1{1}, s2{2};

ResourceBroker make(double capacity = 100.0, double window = 3.0) {
  return ResourceBroker(rid, "cpu", capacity, window);
}

TEST(ResourceBroker, ConstructionContracts) {
  EXPECT_THROW(ResourceBroker(ResourceId{}, "x", 10.0), ContractViolation);
  EXPECT_THROW(ResourceBroker(rid, "", 10.0), ContractViolation);
  EXPECT_THROW(ResourceBroker(rid, "x", 0.0), ContractViolation);
  EXPECT_THROW(ResourceBroker(rid, "x", 10.0, 0.0), ContractViolation);
  // history_keep must cover the alpha window.
  EXPECT_THROW(ResourceBroker(rid, "x", 10.0, 5.0, 2.0), ContractViolation);
}

TEST(ResourceBroker, ReserveAndRelease) {
  ResourceBroker broker = make();
  EXPECT_EQ(broker.available(), 100.0);
  EXPECT_TRUE(broker.reserve(1.0, s1, 30.0));
  EXPECT_EQ(broker.available(), 70.0);
  EXPECT_EQ(broker.reserved(), 30.0);
  EXPECT_EQ(broker.active_sessions(), 1u);
  broker.release(2.0, s1);
  EXPECT_EQ(broker.available(), 100.0);
  EXPECT_EQ(broker.active_sessions(), 0u);
}

TEST(ResourceBroker, RejectsOverCommit) {
  ResourceBroker broker = make();
  EXPECT_TRUE(broker.reserve(1.0, s1, 80.0));
  EXPECT_FALSE(broker.reserve(1.0, s2, 30.0));
  // A failed reserve changes nothing.
  EXPECT_EQ(broker.available(), 20.0);
  EXPECT_EQ(broker.active_sessions(), 1u);
  EXPECT_TRUE(broker.reserve(1.0, s2, 20.0));
}

TEST(ResourceBroker, AccumulatesPerSession) {
  ResourceBroker broker = make();
  EXPECT_TRUE(broker.reserve(1.0, s1, 10.0));
  EXPECT_TRUE(broker.reserve(2.0, s1, 15.0));
  EXPECT_EQ(broker.active_sessions(), 1u);
  EXPECT_EQ(broker.available(), 75.0);
  broker.release(3.0, s1);  // releases the whole accumulated holding
  EXPECT_EQ(broker.available(), 100.0);
}

TEST(ResourceBroker, ReleaseAmountIsPartial) {
  ResourceBroker broker = make();
  EXPECT_TRUE(broker.reserve(1.0, s1, 30.0));
  broker.release_amount(2.0, s1, 10.0);
  EXPECT_EQ(broker.available(), 80.0);
  EXPECT_EQ(broker.active_sessions(), 1u);
  // Releasing more than held is capped.
  broker.release_amount(3.0, s1, 1000.0);
  EXPECT_EQ(broker.available(), 100.0);
  EXPECT_EQ(broker.active_sessions(), 0u);
}

TEST(ResourceBroker, ReleaseOfUnknownSessionIsNoOp) {
  ResourceBroker broker = make();
  broker.release(1.0, s1);
  broker.release_amount(1.0, s1, 5.0);
  EXPECT_EQ(broker.available(), 100.0);
}

TEST(ResourceBroker, ReserveContracts) {
  ResourceBroker broker = make();
  EXPECT_THROW(broker.reserve(1.0, SessionId{}, 5.0), ContractViolation);
  EXPECT_THROW(broker.reserve(1.0, s1, -5.0), ContractViolation);
  EXPECT_THROW(broker.release_amount(1.0, s1, -1.0), ContractViolation);
}

TEST(ResourceBroker, TimeMustNotGoBackwards) {
  ResourceBroker broker = make();
  EXPECT_TRUE(broker.reserve(5.0, s1, 10.0));
  EXPECT_THROW(broker.reserve(4.0, s2, 10.0), ContractViolation);
}

TEST(ResourceBroker, AvailableAtReadsHistory) {
  ResourceBroker broker = make();
  EXPECT_TRUE(broker.reserve(10.0, s1, 40.0));
  EXPECT_TRUE(broker.reserve(20.0, s2, 20.0));
  broker.release(30.0, s1);
  EXPECT_EQ(broker.available_at(5.0), 100.0);   // before anything
  EXPECT_EQ(broker.available_at(10.0), 60.0);   // at the change
  EXPECT_EQ(broker.available_at(15.0), 60.0);   // between changes
  EXPECT_EQ(broker.available_at(25.0), 40.0);
  EXPECT_EQ(broker.available_at(35.0), 80.0);   // current
}

TEST(ResourceBroker, ObserveAlphaReflectsTrend) {
  ResourceBroker broker = make(100.0, /*window=*/10.0);
  // Steady at 100 until t=10, then a big reservation: availability drops
  // to 20. Shortly after, the windowed average is still high, so alpha
  // must be well below 1 (downward trend).
  EXPECT_TRUE(broker.reserve(10.0, s1, 80.0));
  const ResourceObservation after_drop = broker.observe(11.0);
  EXPECT_EQ(after_drop.available, 20.0);
  EXPECT_LT(after_drop.alpha, 0.5);
  // Conversely a release makes alpha > 1.
  broker.release(12.0, s1);
  const ResourceObservation after_rise = broker.observe(13.0);
  EXPECT_EQ(after_rise.available, 100.0);
  EXPECT_GT(after_rise.alpha, 1.0);
}

TEST(ResourceBroker, EarlyObservationClampsWindowToHistory) {
  // Regression: observing at t < alpha_window used to integrate over
  // [t - T, 0), weighting a fictitious pre-simulation period at full
  // capacity and biasing early alpha downward.
  ResourceBroker broker = make(100.0, /*window=*/3.0);
  EXPECT_TRUE(broker.reserve(1.0, s1, 50.0));
  // Clamped window [0, 2): average = (1*100 + 1*50)/2 = 75, so
  // alpha = 50/75. The unclamped integral over [-1, 2) would give
  // 250/3 and alpha = 0.6 instead.
  EXPECT_NEAR(broker.observe(2.0).alpha, 50.0 / 75.0, 1e-12);
  // Degenerate zero-length window at the first history timestamp.
  ResourceBroker fresh = make(100.0, 3.0);
  EXPECT_DOUBLE_EQ(fresh.observe(0.0).alpha, 1.0);
}

TEST(ResourceBroker, PruneKeepsExactlyOneBaselineEntry) {
  ResourceBroker broker(rid, "cpu", 100.0, 3.0, /*history_keep=*/16.0);
  EXPECT_TRUE(broker.reserve(1.0, s1, 10.0));
  EXPECT_TRUE(broker.reserve(5.0, s2, 5.0));
  for (int t = 100; t < 120; ++t)
    EXPECT_TRUE(broker.reserve(static_cast<double>(t), SessionId{200u + t},
                               1.0));
  const auto& history = broker.history();
  ASSERT_FALSE(history.empty());
  const double horizon = history.back().first - 16.0;
  std::size_t older = 0;
  for (const auto& [time, value] : history)
    if (time < horizon) ++older;
  // Exactly one entry older than the keep horizon survives as the
  // baseline for available_at() queries before the kept window.
  EXPECT_EQ(older, 1u);
  EXPECT_EQ(broker.available_at(50.0), history.front().second);
  // History timestamps stay strictly increasing and the tail mirrors the
  // live availability.
  for (std::size_t i = 1; i < history.size(); ++i)
    EXPECT_LT(history[i - 1].first, history[i].first);
  EXPECT_EQ(history.back().second, broker.available());
}

TEST(ResourceBroker, ObserveAlphaIsOneWhenSteady) {
  ResourceBroker broker = make();
  const ResourceObservation obs = broker.observe(50.0);
  EXPECT_EQ(obs.available, 100.0);
  EXPECT_DOUBLE_EQ(obs.alpha, 1.0);
}

TEST(ResourceBroker, ReportBasedAlphaFollowsEq5) {
  // r_avg = mean of past reported values within T; alpha = avail / r_avg,
  // with the current report appended afterwards.
  ResourceBroker broker(rid, "cpu", 100.0, /*T=*/10.0, 64.0,
                        AlphaMode::kReportBased);
  // First report: no history -> alpha 1.
  EXPECT_DOUBLE_EQ(broker.observe(1.0).alpha, 1.0);  // reports: [100]
  ASSERT_TRUE(broker.reserve(2.0, s1, 50.0));
  // Second report: r_avg = 100, avail = 50 -> alpha 0.5.
  EXPECT_DOUBLE_EQ(broker.observe(3.0).alpha, 0.5);  // reports: [100, 50]
  // Third report: r_avg = (100 + 50)/2 = 75, avail = 50 -> 2/3.
  EXPECT_NEAR(broker.observe(4.0).alpha, 50.0 / 75.0, 1e-12);
  // Reports older than T drop out: at t = 12, the t=1 report is gone,
  // r_avg = (50 + 50)/2 = 50 -> alpha 1.
  EXPECT_DOUBLE_EQ(broker.observe(12.0).alpha, 1.0);
}

TEST(ResourceBroker, ReportBasedAlphaRejectsStaleQueries) {
  ResourceBroker broker(rid, "cpu", 100.0, 10.0, 64.0,
                        AlphaMode::kReportBased);
  (void)broker.observe(5.0);
  EXPECT_THROW(broker.observe(4.0), ContractViolation);
}

TEST(ResourceBroker, AlphaModesAgreeOnTrendDirection) {
  for (AlphaMode mode :
       {AlphaMode::kTimeWeighted, AlphaMode::kReportBased}) {
    ResourceBroker broker(rid, "cpu", 100.0, 10.0, 64.0, mode);
    (void)broker.observe(1.0);
    ASSERT_TRUE(broker.reserve(5.0, s1, 80.0));
    EXPECT_LT(broker.observe(6.0).alpha, 1.0);  // down-trend
    broker.release(7.0, s1);
    EXPECT_GT(broker.observe(8.0).alpha, 1.0);  // up-trend
  }
}

TEST(ResourceBroker, StaleObservationDiffersFromCurrent) {
  ResourceBroker broker = make();
  EXPECT_TRUE(broker.reserve(10.0, s1, 50.0));
  // Observing "as of t=9" must not see the t=10 reservation.
  EXPECT_EQ(broker.observe(9.0).available, 100.0);
  EXPECT_EQ(broker.observe(10.0).available, 50.0);
}

TEST(ResourceBroker, HistoryPruningKeepsBaseline) {
  ResourceBroker broker(rid, "cpu", 100.0, 3.0, /*history_keep=*/16.0);
  EXPECT_TRUE(broker.reserve(1.0, s1, 10.0));
  // Many changes far in the future prune the old entries...
  for (int t = 100; t < 120; ++t)
    EXPECT_TRUE(broker.reserve(static_cast<double>(t), SessionId{100u + t},
                               1.0));
  // ...but queries before the kept window still get a sane baseline (the
  // newest pruned value).
  EXPECT_GT(broker.available_at(50.0), 0.0);
}

// The time-weighted average as it was computed before observe started the
// integral at the window: a linear walk from the head of the history. Kept
// verbatim as the oracle the windowed walk must match bit for bit.
double linear_walk_average(
    const std::vector<std::pair<double, double>>& history_,
    double alpha_window_, double t) {
  auto available_at = [&](double when) {
    auto it = std::upper_bound(
        history_.begin(), history_.end(), when,
        [](double time, const std::pair<double, double>& e) {
          return time < e.first;
        });
    if (it == history_.begin()) return history_.front().second;
    return std::prev(it)->second;
  };
  double start = t - alpha_window_;
  const double first_time = history_.front().first;
  if (start < first_time) start = std::min(first_time, t);
  double integral = 0.0;
  double covered = 0.0;
  double prev_time = start;
  double prev_value = available_at(start);
  for (const auto& [time, value] : history_) {
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

TEST(ResourceBroker, WindowedAlphaMatchesLinearWalkBitForBit) {
  // Seeded random histories. Half of them live on a quarter-TU grid with a
  // window that is a whole number of quarters, so t - window lands exactly
  // on recorded samples. A short keep horizon prunes after most mutations.
  int exact_start = 0, exact_t = 0, before_head = 0, stale = 0;
  int overwrites = 0, after_prune = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed);
    const bool grid = seed % 2 == 0;
    const double quantum = grid ? 0.25 : 0.0;
    auto snap = [&](double x) {
      return grid ? std::floor(x / quantum) * quantum : x;
    };
    const double window = grid ? 0.25 * static_cast<double>(
                                            rng.uniform_int(1, 16))
                               : rng.uniform(0.5, 4.0);
    const double keep = window + snap(rng.uniform(0.0, 6.0));
    ResourceBroker broker(rid, "cpu", 100.0, window, keep);
    double now = 0.0;
    auto check = [&](double t) {
      const auto& history = broker.history();
      const double avail = broker.available_at(t);
      const double avg = linear_walk_average(history, window, t);
      const double expected = avg > 0.0 ? avail / avg : 1.0;
      const ResourceObservation obs = broker.observe(t);
      ASSERT_EQ(obs.available, avail);
      ASSERT_EQ(obs.alpha, expected)
          << "seed " << seed << " t=" << t << " window=" << window;
      for (const auto& entry : history) {
        if (entry.first == t - window) ++exact_start;
        if (entry.first == t) ++exact_t;
      }
      if (t < history.front().first) ++before_head;
      if (t < history.back().first) ++stale;
    };
    for (int step = 0; step < 120; ++step) {
      const bool same_time = rng.bernoulli(0.2);
      if (!same_time) now += grid ? quantum * static_cast<double>(
                                                  rng.uniform_int(1, 6))
                                  : rng.uniform(0.0, 1.5);
      const double avail_before = broker.available();
      const double head_before = broker.history().front().first;
      const double tail_before = broker.history().back().first;
      const SessionId session{
          1 + static_cast<std::uint32_t>(rng.uniform_int(0, 7))};
      const int op = rng.uniform_int(0, 2);
      if (op == 0)
        (void)broker.reserve(now, session, rng.uniform(0.0, 40.0));
      else if (op == 1)
        broker.release(now, session);
      else
        broker.release_amount(now, session, rng.uniform(0.0, 20.0));
      const auto& history = broker.history();
      if (tail_before == now && broker.available() != avail_before)
        ++overwrites;
      if (history.front().first != head_before) ++after_prune;
      // The latest time, every recorded sample, one window past each
      // sample, a time before the kept head and a random stale time.
      ASSERT_NO_FATAL_FAILURE(check(now));
      for (const auto& [time, value] : history) {
        ASSERT_NO_FATAL_FAILURE(check(time));
        ASSERT_NO_FATAL_FAILURE(check(time + window));
      }
      ASSERT_NO_FATAL_FAILURE(check(history.front().first - 1.0));
      ASSERT_NO_FATAL_FAILURE(
          check(snap(rng.uniform(history.front().first, now + 1.0))));
    }
  }
  // Every edge the bit-identity argument rests on was exercised.
  EXPECT_GT(exact_start, 0);
  EXPECT_GT(exact_t, 0);
  EXPECT_GT(before_head, 0);
  EXPECT_GT(stale, 0);
  EXPECT_GT(overwrites, 0);
  EXPECT_GT(after_prune, 0);
}

TEST(ResourceBroker, FractionalAmountsBalanceOut) {
  ResourceBroker broker = make(1.0);
  for (int i = 0; i < 10; ++i)
    EXPECT_TRUE(broker.reserve(static_cast<double>(i), SessionId{10u + i},
                               0.1));
  // Full to capacity within tolerance; one more fails.
  EXPECT_FALSE(broker.reserve(20.0, s1, 0.2));
  for (int i = 0; i < 10; ++i)
    broker.release(30.0, SessionId{10u + i});
  EXPECT_NEAR(broker.available(), 1.0, 1e-9);
}

}  // namespace
}  // namespace qres
