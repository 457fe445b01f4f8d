// Workloads and the episode driver of the qres benchmark.
//
// An episode is one deployment of the paper scenario (figure 9): build it
// (set-up), feed it one seeded arrival stream through the public API
// until the event queue drains (session time), then check it
// (conservation; journal recovery on `durable`). A workload is a fixed
// round of episodes; a run repeats rounds with fresh arrival seeds.
//
// The capacity draw of each episode's environment is fixed per round
// position and only the arrivals derive from --seed, so every round does
// the same mix of work and rounds differ only in sampling noise.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "histogram.hpp"
#include "sim/stats.hpp"
#include "trace.hpp"

namespace qres::perfbench {

enum class WorkloadKind : std::uint8_t { kPaper, kDurable, kFlash };

struct EpisodeConfig {
  std::string planner;  ///< basic | tradeoff | random
  double rate = 2.0;    ///< session arrivals per time unit
  double run_length = 1800.0;  ///< arrivals are generated for [0, run_length]
  /// Index of the capacity draw (PaperScenarioConfig::setup_seed) and of
  /// the arrival stream within a round; episodes sharing it see the same
  /// environment and arrivals (common random numbers across planners).
  std::size_t environment = 0;
};

struct Workload {
  WorkloadKind kind = WorkloadKind::kPaper;
  std::string name;
  std::size_t workers = 0;  ///< planning pool size (flash); 0 = no pool
  std::vector<EpisodeConfig> round;
};

/// The named workload, or nullptr for an unknown name.
const Workload* find_workload(const std::string& name);

struct Episode {
  EpisodeConfig config;
  std::size_t round = 0;
  std::uint64_t arrival_seed = 0;  ///< SimulationConfig::seed
};

/// The outcome digest Simulation::run() also yields: per-class attempts,
/// admitted counts and mean QoS, plus the bottleneck histogram.
struct Digest {
  std::array<std::uint64_t, kSessionClassCount> attempts{};
  std::array<std::uint64_t, kSessionClassCount> admitted{};
  std::array<double, kSessionClassCount> mean_qos{};
  std::map<std::uint32_t, std::uint64_t> bottlenecks;

  bool operator==(const Digest&) const = default;
};

Digest digest_of(const SimulationStats& stats);

struct EpisodeResult {
  SimulationStats stats;
  std::uint64_t arrivals = 0;
  double setup_s = 0.0;    ///< scenario build, journal open, pool start
  double session_s = 0.0;  ///< wall time of the arrival loop
  std::string error;       ///< first failed check; empty when clean
};

/// Runs one episode; `durable` writes its FileJournals under
/// `journal_dir`. `trace` null runs the public API untraced;
/// otherwise the phase-split driver records spans into it and folds them
/// into `totals` at the end. `latencies` (optional) receives one
/// establish latency per arrival. `use_pool` false plans flash batches
/// inline (the reference order).
EpisodeResult run_episode(const Workload& workload, const Episode& episode,
                          const std::string& journal_dir, Trace* trace,
                          LayerTotals* totals,
                          LatencyHistogram* latencies,
                          bool use_pool = true);

/// The digest the episode must reproduce: Simulation::run() on a fresh
/// in-memory scenario (paper, durable) or the inline batch driver
/// (flash).
Digest reference_digest(const Workload& workload, const Episode& episode,
                        const std::string& journal_dir);

}  // namespace qres::perfbench
