// qres end-to-end benchmark: one command for every workload.
//
//   qres_perfbench --workload paper|durable|flash --seed N --seconds S
//                  --trace 0|1 [--journal-dir DIR]
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// runs every episode untraced and then traced, and reports the per-layer
// metrics of the traced twins plus the tracing overhead. Either way the
// episodes are checked (outcome digest against the reference run,
// conservation, journal recovery on `durable`); the last stdout line is
// one JSON object, and the exit code is non-zero when any check failed.
// See README.md for the workloads and metric definitions.
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "driver.hpp"
#include "histogram.hpp"
#include "speed_probe.hpp"
#include "trace.hpp"
#include "util/rng.hpp"

namespace qres::perfbench {
namespace {

/// Rounds every run completes whatever --seconds says. Their episodes are
/// checked against the reference run, and admit_rate / mean_qos_level are
/// computed over them, so those two are a function of the seed alone.
constexpr std::size_t kCheckedRounds = 8;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string journal_dir = ".bench_build/perfbench/journals";
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload paper|durable|flash --seed N "
               "--seconds S --trace 0|1 [--journal-dir DIR]\n",
               argv0);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(argv[0]);
    const char* value = argv[++i];
    if (flag == "--workload")
      options.workload = value;
    else if (flag == "--seed")
      options.seed = std::strtoull(value, nullptr, 10);
    else if (flag == "--seconds")
      options.seconds = std::atof(value);
    else if (flag == "--trace")
      options.trace = std::atoi(value);
    else if (flag == "--journal-dir")
      options.journal_dir = value;
    else
      usage(argv[0]);
  }
  if (options.workload.empty() || !(options.seconds > 0.0) ||
      (options.trace != 0 && options.trace != 1))
    usage(argv[0]);
  return options;
}

std::uint64_t arrival_seed(std::uint64_t seed, std::size_t round,
                           std::size_t environment) {
  std::uint64_t state = seed;
  state = splitmix64(state) ^ (static_cast<std::uint64_t>(round) << 20) ^
          environment;
  return splitmix64(state);
}

double ratio(double numerator, double denominator) {
  return denominator == 0.0 ? 0.0 : numerator / denominator;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

/// Failed checks: reported on stderr, counted per session.
struct Failures {
  std::string workload;
  std::uint64_t sessions = 0;
  bool any = false;

  void add(const Episode& episode, std::uint64_t episode_sessions,
           const std::string& what) {
    std::fprintf(stderr, "FAILED %s episode (round %zu, %s, rate %g): %s\n",
                 workload.c_str(), episode.round,
                 episode.config.planner.c_str(), episode.config.rate,
                 what.c_str());
    sessions += episode_sessions;
    any = true;
  }
};

/// One timed round, at the speed probe's reference speed: throughput and
/// the establish latency percentiles over all of the round's samples.
struct RoundStats {
  double sessions_per_s = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

/// What a run keeps: aggregates, plus the episodes of the checked rounds
/// (a fixed number, so memory does not grow with the machine's speed).
/// `rounds` and `reference_setup_s` are at the probe's reference speed;
/// `session_s` is wall time as measured.
struct Run {
  std::vector<Episode> checked;
  std::vector<EpisodeResult> checked_results;
  std::vector<RoundStats> rounds;
  std::uint64_t latency_samples = 0;
  std::vector<double> reference_setup_s;
  std::uint64_t warmup_arrivals = 0;
  std::uint64_t arrivals = 0;
  double session_s = 0.0;
  double reference_session_s = 0.0;
  std::uint64_t traced_arrivals = 0;
  double traced_session_s = 0.0;
};

/// One untimed warm-up round, then whole rounds of the workload until
/// --seconds of wall time are spent, and at least kCheckedRounds. The
/// warm-up lets the heap, the caches and the branch predictors settle
/// before anything is timed; its episodes are checked like the others
/// (conservation, recovery) and count as attempted. The speed probe runs
/// between episodes; an episode's timings are divided by the mean of the
/// slowdowns probed on either side of it. With a trace, each episode's
/// traced twin runs right after it, so drift in machine speed hits both
/// alike, and must reproduce its digest: the phase-split driver changes
/// nothing.
Run run_rounds(const Workload& workload, const Options& options, Trace* trace,
               LayerTotals* totals, Failures* failures) {
  Run run;
  for (const EpisodeConfig& config : workload.round) {
    const Episode episode{config, 0,
                          arrival_seed(options.seed, 0, config.environment)};
    const EpisodeResult result = run_episode(
        workload, episode, options.journal_dir, nullptr, nullptr, nullptr);
    run.warmup_arrivals += result.arrivals;
    if (!result.error.empty())
      failures->add(episode, result.arrivals, "warm-up: " + result.error);
  }
  SpeedProbe probe;
  LatencyHistogram latencies;
  LatencyHistogram round_latencies;
  double slowdown_before = probe.slowdown();
  const std::int64_t start = now_ns();
  for (std::size_t round = 0;; ++round) {
    std::uint64_t round_arrivals = 0;
    double round_reference_s = 0.0;
    round_latencies.clear();
    for (const EpisodeConfig& config : workload.round) {
      const Episode episode{
          config, round, arrival_seed(options.seed, round, config.environment)};
      EpisodeResult result = run_episode(
          workload, episode, options.journal_dir, nullptr, nullptr, &latencies);
      const double slowdown_after = probe.slowdown();
      const double slowdown = 0.5 * (slowdown_before + slowdown_after);
      slowdown_before = slowdown_after;
      run.arrivals += result.arrivals;
      run.session_s += result.session_s;
      run.reference_setup_s.push_back(result.setup_s / slowdown);
      round_arrivals += result.arrivals;
      round_reference_s += result.session_s / slowdown;
      round_latencies.add_scaled(latencies, 1.0 / slowdown);
      latencies.clear();
      if (!result.error.empty())
        failures->add(episode, result.arrivals, result.error);
      if (trace != nullptr) {
        const EpisodeResult twin = run_episode(
            workload, episode, options.journal_dir, trace, totals, nullptr);
        run.traced_arrivals += twin.arrivals;
        run.traced_session_s += twin.session_s;
        if (!twin.error.empty())
          failures->add(episode, twin.arrivals, "traced: " + twin.error);
        else if (digest_of(twin.stats) != digest_of(result.stats))
          failures->add(episode, twin.arrivals,
                        "traced outcome digest differs from the untraced run");
        slowdown_before = probe.slowdown();
      }
      if (round < kCheckedRounds) {
        run.checked.push_back(episode);
        run.checked_results.push_back(std::move(result));
      }
    }
    run.rounds.push_back(
        {ratio(static_cast<double>(round_arrivals), round_reference_s),
         round_latencies.quantile_us(0.50), round_latencies.quantile_us(0.99)});
    run.latency_samples += round_latencies.count();
    run.reference_session_s += round_reference_s;
    if (round + 1 >= kCheckedRounds &&
        static_cast<double>(now_ns() - start) * 1e-9 >= options.seconds)
      break;
  }
  return run;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  void add(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }

  void print(bool correct, std::uint64_t attempted,
             std::uint64_t failed) const {
    for (const Metric& m : metrics_)
      std::printf("%-36s %18.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics_.size(); ++i)
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                  metrics_[i].value, metrics_[i].unit.c_str());
    std::printf("}}\n");
  }

 private:
  std::vector<Metric> metrics_;
};

/// Peak resident set of this process image (VmHWM). Unlike getrusage's
/// ru_maxrss it starts afresh at exec, so the launcher's footprint is
/// not reported as ours.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

/// Restricts the process to the CPU it runs on; threads started later
/// (the flash planning pool) inherit the mask.
void pin_to_current_cpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) throw std::runtime_error("sched_getcpu failed");
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  if (sched_setaffinity(0, sizeof set, &set) != 0)
    throw std::runtime_error("sched_setaffinity failed");
}

/// Figure 11: tradeoff >= basic >= random in success rate.
bool check_planner_ordering(const Run& run) {
  const char* names[3] = {"basic", "tradeoff", "random"};
  double admitted[3] = {};
  double attempts[3] = {};
  for (std::size_t i = 0; i < run.checked.size(); ++i) {
    for (int p = 0; p < 3; ++p) {
      if (run.checked[i].config.planner != names[p]) continue;
      const Ratio& success = run.checked_results[i].stats.overall_success();
      admitted[p] += static_cast<double>(success.successes());
      attempts[p] += static_cast<double>(success.attempts());
    }
  }
  const double basic = ratio(admitted[0], attempts[0]);
  const double tradeoff = ratio(admitted[1], attempts[1]);
  const double random = ratio(admitted[2], attempts[2]);
  std::printf("figure-11 success rate: tradeoff %.4f, basic %.4f, "
              "random %.4f\n",
              tradeoff, basic, random);
  return tradeoff >= basic && basic >= random;
}

void add_layer_metrics(const LayerTotals& totals, const Run& run,
                       Report* report, bool* correct) {
  const double session_ns = run.traced_session_s * 1e9;
  auto at = [](Layer layer) { return static_cast<std::size_t>(layer); };
  auto calls = [&](Layer layer) {
    return static_cast<double>(totals.calls[at(layer)]);
  };
  auto share = [&](Layer layer) {
    return ratio(totals.wall_ns[at(layer)], session_ns);
  };
  auto self_us = [&](Layer layer) {
    return ratio(totals.self_ns[at(layer)], calls(layer)) * 1e-3;
  };

  const double batch_share = share(Layer::kBatch) + share(Layer::kFanout);
  const double layers_share = share(Layer::kSnapshot) + share(Layer::kQrg) +
                              share(Layer::kPlan) + share(Layer::kCommit) +
                              share(Layer::kTeardown) +
                              share(Layer::kJournal) + batch_share;
  if (!(layers_share <= 1.0 + 1e-9)) {
    std::fprintf(stderr, "FAILED layer self times (%.6f of the session time) "
                 "exceed the session time\n", layers_share);
    *correct = false;
  }

  report->add("proxy.snapshot.us", self_us(Layer::kSnapshot), "us");
  report->add("proxy.snapshot.share", share(Layer::kSnapshot), "ratio");
  report->add("core.qrg.us", self_us(Layer::kQrg), "us");
  report->add("core.qrg.edges",
              ratio(static_cast<double>(totals.qrg_edges), calls(Layer::kQrg)),
              "count");
  report->add("core.qrg.share", share(Layer::kQrg), "ratio");
  report->add("core.plan.us", self_us(Layer::kPlan), "us");
  report->add("core.plan.share", share(Layer::kPlan), "ratio");
  report->add("core.plan.feasible_ratio",
              ratio(static_cast<double>(totals.plans_feasible),
                    calls(Layer::kPlan)),
              "ratio");
  report->add("proxy.commit.us", self_us(Layer::kCommit), "us");
  report->add("proxy.commit.share", share(Layer::kCommit), "ratio");
  report->add("proxy.commit.rollback_ratio",
              ratio(static_cast<double>(totals.commits_rolled_back),
                    static_cast<double>(totals.commits)),
              "ratio");
  report->add("proxy.teardown.us", self_us(Layer::kTeardown), "us");
  report->add("proxy.teardown.share", share(Layer::kTeardown), "ratio");
  report->add("broker.journal.append_us", self_us(Layer::kJournal), "us");
  report->add("broker.journal.append_p99_us",
              totals.journal_appends.quantile_us(0.99), "us");
  report->add("broker.journal.records_per_session",
              ratio(calls(Layer::kJournal),
                    static_cast<double>(run.traced_arrivals)),
              "count");
  report->add("broker.journal.share", share(Layer::kJournal), "ratio");
  report->add("sim.batch.us",
              ratio(totals.total_ns[at(Layer::kBatch)], calls(Layer::kBatch)) *
                  1e-3,
              "us");
  report->add("sim.batch.size",
              ratio(static_cast<double>(totals.batch_requests),
                    calls(Layer::kBatch)),
              "count");
  report->add("sim.batch.replan_ratio",
              ratio(static_cast<double>(totals.batch_replans),
                    static_cast<double>(totals.batch_requests)),
              "ratio");
  report->add("sim.batch.share", batch_share, "ratio");
  report->add("sim.loop.share", 1.0 - layers_share, "ratio");
  // Untraced over traced sessions/s; the twins process the same sessions.
  report->add("trace_overhead", ratio(run.traced_session_s, run.session_s),
              "ratio");
  report->add("trace.sessions", static_cast<double>(run.traced_arrivals),
              "count");
}

int run_main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  const Workload* workload = find_workload(options.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }
  if (workload->kind == WorkloadKind::kDurable)
    std::filesystem::create_directories(options.journal_dir);
  // The pool's workers sleep between batches, and on a virtual machine
  // waking a worker on an idle vCPU waits for the host to run that vCPU:
  // with the host busy, that wait varied from microseconds to
  // milliseconds per batch and moved flash's throughput by up to 2x and
  // its p99 by up to 7x between runs of the same code. On one CPU the
  // hand-offs stay inside the guest.
  if (workload->workers > 0) pin_to_current_cpu();

  Failures failures{workload->name};
  Trace trace;
  LayerTotals totals;
  const Run run =
      run_rounds(*workload, options, options.trace == 1 ? &trace : nullptr,
                 &totals, &failures);

  // The checked rounds against the reference run of the same environment,
  // configuration and arrivals.
  for (std::size_t i = 0; i < run.checked.size(); ++i) {
    const EpisodeResult& result = run.checked_results[i];
    if (!result.error.empty()) continue;  // already failed
    try {
      if (reference_digest(*workload, run.checked[i], options.journal_dir) !=
          digest_of(result.stats))
        failures.add(run.checked[i], result.arrivals,
                     "outcome digest differs from the reference run");
    } catch (const std::exception& error) {
      failures.add(run.checked[i], result.arrivals,
                   std::string("reference run: ") + error.what());
    }
  }
  bool correct = !failures.any;
  if (workload->kind == WorkloadKind::kPaper && !check_planner_ordering(run)) {
    std::fprintf(stderr,
                 "FAILED figure-11 ordering tradeoff >= basic >= random\n");
    correct = false;
  }
  const std::uint64_t attempted =
      run.warmup_arrivals + run.arrivals + run.traced_arrivals;

  std::vector<double> sessions_per_s;
  std::vector<double> p50s;
  std::vector<double> p99s;
  for (const RoundStats& round : run.rounds) {
    sessions_per_s.push_back(round.sessions_per_s);
    p50s.push_back(round.p50_us);
    p99s.push_back(round.p99_us);
  }
  std::printf("workload %s, seed %llu, %zu thread(s): %zu timed rounds, "
              "%llu sessions in %.3f s of session time, %llu establish "
              "latency samples\n",
              workload->name.c_str(),
              static_cast<unsigned long long>(options.seed),
              1 + workload->workers, run.rounds.size(),
              static_cast<unsigned long long>(run.arrivals), run.session_s,
              static_cast<unsigned long long>(run.latency_samples));
  std::printf("as measured: %.0f sessions/s; mean machine slowdown %.4f "
              "(speed probe)\n",
              ratio(static_cast<double>(run.arrivals), run.session_s),
              ratio(run.session_s, run.reference_session_s));
  auto print_range = [](const char* what, const std::vector<double>& v) {
    std::printf("%s per round: min %.6g, median %.6g, max %.6g\n", what,
                *std::min_element(v.begin(), v.end()), median(v),
                *std::max_element(v.begin(), v.end()));
  };
  print_range("sessions/s", sessions_per_s);
  print_range("establish p99 us", p99s);
  std::printf("error_rate %.6f (%llu of %llu sessions)\n",
              ratio(static_cast<double>(failures.sessions),
                    static_cast<double>(attempted)),
              static_cast<unsigned long long>(failures.sessions),
              static_cast<unsigned long long>(attempted));

  Report report;
  if (options.trace == 1) {
    add_layer_metrics(totals, run, &report, &correct);
    report.print(correct, attempted, failures.sessions);
    return correct ? 0 : 1;
  }

  std::uint64_t checked_arrivals = 0;
  std::uint64_t checked_admitted = 0;
  double qos_sum = 0.0;
  for (const EpisodeResult& result : run.checked_results) {
    const SimulationStats& stats = result.stats;
    checked_arrivals += stats.overall_success().attempts();
    checked_admitted += stats.overall_success().successes();
    if (!stats.overall_qos().empty())
      qos_sum += stats.overall_qos().mean() *
                 static_cast<double>(stats.overall_qos().count());
  }
  // Timings at the speed probe's reference speed: the median round.
  report.add("sessions_per_s", median(sessions_per_s), "1/s");
  report.add("establish_p50_us", median(p50s), "us");
  report.add("establish_p99_us", median(p99s), "us");
  report.add("admit_rate",
             ratio(static_cast<double>(checked_admitted),
                   static_cast<double>(checked_arrivals)),
             "ratio");
  report.add("mean_qos_level",
             ratio(qos_sum, static_cast<double>(checked_admitted)), "level");
  report.add("setup_s", median(run.reference_setup_s), "s");
  report.add("peak_rss_mb", peak_rss_mb(), "MB");
  report.print(correct, attempted, failures.sessions);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace qres::perfbench

int main(int argc, char** argv) {
  try {
    return qres::perfbench::run_main(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "qres_perfbench: %s\n", error.what());
    return 1;
  }
}
