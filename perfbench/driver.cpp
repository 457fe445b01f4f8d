#include "driver.hpp"

#include <cmath>
#include <filesystem>
#include <functional>
#include <memory>
#include <stdexcept>
#include <utility>

#include "broker/journal.hpp"
#include "broker/resource_broker.hpp"
#include "core/event_queue.hpp"
#include "core/planner.hpp"
#include "core/qrg.hpp"
#include "core/random_planner.hpp"
#include "scenario/paper_scenario.hpp"
#include "sim/batch_admission.hpp"
#include "sim/simulation.hpp"
#include "util/thread_pool.hpp"

namespace qres::perfbench {

namespace {

constexpr std::uint64_t kEnvironmentSeed = 42;  // PaperScenarioConfig default
constexpr std::uint64_t kPlanSeedMix = 0xba7c4ULL;

PaperScenarioConfig scenario_config(const Episode& episode) {
  PaperScenarioConfig config;
  config.setup_seed = kEnvironmentSeed + episode.config.environment;
  return config;
}

std::vector<Workload> make_workloads() {
  std::vector<Workload> workloads;

  // Figure 11: 60..240 sessions per 60 TU x {basic, tradeoff, random}.
  // The three planners of one rate share environment and arrivals
  // (common random numbers), as the fig11 harness does per replica.
  Workload paper{WorkloadKind::kPaper, "paper", 0, {}};
  const double rates_per_60[] = {60, 90, 120, 150, 180, 210, 240};
  for (std::size_t r = 0; r < std::size(rates_per_60); ++r)
    for (const char* planner : {"basic", "tradeoff", "random"})
      paper.round.push_back({planner, rates_per_60[r] / 60.0, 1200.0, r});
  workloads.push_back(std::move(paper));

  // Every leaf broker journaled to a FileJournal: writes beside reads.
  Workload durable{WorkloadKind::kDurable, "durable", 0, {}};
  for (std::size_t e = 0; e < 3; ++e)
    durable.round.push_back({"basic", 120.0 / 60.0, 1800.0, e});
  workloads.push_back(std::move(durable));

  // Flash crowd: 30x the paper's 120/60 TU rate, same-tick bursts
  // planned on 2 pool workers (the run pins them and the main thread to
  // one CPU; see main.cpp).
  Workload flash{WorkloadKind::kFlash, "flash", 2, {}};
  for (std::size_t e = 0; e < 8; ++e)
    flash.round.push_back({"basic", 30.0 * 120.0 / 60.0, 120.0, e});
  workloads.push_back(std::move(flash));
  return workloads;
}

std::unique_ptr<IPlanner> make_planner(const std::string& name) {
  if (name == "basic") return std::make_unique<BasicPlanner>();
  if (name == "tradeoff") return std::make_unique<TradeoffPlanner>();
  if (name == "random") return std::make_unique<RandomPlanner>();
  throw std::invalid_argument("unknown planner " + name);
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

/// Accumulates wall time over the timed segments of an episode.
class Stopwatch {
 public:
  void start() { started_ = now_ns(); }
  void stop() { total_ns_ += now_ns() - started_; }
  double seconds() const { return static_cast<double>(total_ns_) * 1e-9; }

 private:
  std::int64_t started_ = 0;
  std::int64_t total_ns_ = 0;
};

/// Records one establishment exactly as Simulation::run() does (paths
/// excluded: they are not part of the digest).
void record_outcome(SimulationStats* stats, const SessionSpec& spec,
                    const EstablishResult& result) {
  const std::size_t level_count =
      spec.coordinator->service().end_to_end_ranking().size();
  const double qos_level =
      result.plan ? static_cast<double>(level_count -
                                        result.plan->end_to_end_rank)
                  : 0.0;
  stats->record_session(spec.traits.session_class(), result.success,
                        qos_level, !result.plan.has_value());
  if (result.plan && result.plan->bottleneck_resource.valid())
    stats->record_bottleneck(result.plan->bottleneck_resource);
}

/// Holds an admitted session's reservations until its departure.
void schedule_teardown(EventQueue& queue, const SessionSpec& spec,
                       SessionId session,
                       std::vector<std::pair<ResourceId, double>> holdings,
                       Trace* trace) {
  SessionCoordinator* coordinator = spec.coordinator;
  queue.schedule_in(
      spec.traits.duration,
      [&queue, coordinator, session, trace, holdings = std::move(holdings)] {
        std::int32_t span = -1;
        if (trace != nullptr)
          span = trace->open(Layer::kTeardown, session.value());
        coordinator->teardown(holdings, session, queue.now());
        if (trace != nullptr) trace->close(span);
      });
}

/// establish() split into its public phases, each under a span:
/// snapshot_for_planning -> Qrg + IPlanner::plan (= plan_on_snapshot) ->
/// commit_planned.
EstablishResult traced_establish(SessionCoordinator& coordinator,
                                 SessionId session, double now,
                                 const IPlanner& planner, Rng& rng,
                                 double scale, PsiKind psi_kind,
                                 Trace& trace, LayerTotals& totals) {
  const std::uint32_t id = session.value();
  std::int32_t span = trace.open(Layer::kSnapshot, id);
  SessionCoordinator::PlanningSnapshot snapshot =
      coordinator.snapshot_for_planning(now);
  trace.close(span);
  if (snapshot.overloaded)
    return coordinator.commit_planned(session, now, snapshot, PlanResult{});

  span = trace.open(Layer::kQrg, id);
  const Qrg qrg(coordinator.service(), snapshot.view, psi_kind, scale);
  trace.close(span);
  totals.qrg_edges += qrg.edge_count();

  span = trace.open(Layer::kPlan, id);
  PlanResult planned = planner.plan(qrg, rng);
  trace.close(span);
  if (planned.plan) ++totals.plans_feasible;

  span = trace.open(Layer::kCommit, id);
  EstablishResult result =
      coordinator.commit_planned(session, now, snapshot, std::move(planned));
  trace.close(span);
  if (result.plan) {
    ++totals.commits;
    if (!result.success) ++totals.commits_rolled_back;
  }
  return result;
}

/// establish_batch() split into the same public phases: sequential
/// snapshots and seed draws, planning fanned across the pool, sequential
/// commits with one replan per commit conflict.
std::vector<EstablishResult> traced_batch(
    const std::vector<BatchRequest>& requests, double now,
    const IPlanner& planner, Rng& rng, ThreadPool* pool, PsiKind psi_kind,
    Trace& trace, LayerTotals& totals) {
  const std::size_t n = requests.size();
  const std::int32_t batch =
      trace.open(Layer::kBatch, requests.front().session.value());
  std::vector<SessionCoordinator::PlanningSnapshot> snapshots;
  snapshots.reserve(n);
  std::vector<std::uint64_t> seeds(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::int32_t span =
        trace.open(Layer::kSnapshot, requests[i].session.value());
    snapshots.push_back(requests[i].coordinator->snapshot_for_planning(now));
    trace.close(span);
    seeds[i] = rng();
  }

  struct SlotTiming {
    std::int64_t qrg_start = 0;
    std::int64_t plan_start = 0;
    std::int64_t plan_end = 0;
    std::size_t edges = 0;
  };
  std::vector<PlanResult> planned(n);
  std::vector<SlotTiming> timing(n);
  auto plan_one = [&](std::size_t i) {
    if (snapshots[i].overloaded) return;
    Rng slot_rng(seeds[i]);
    SlotTiming& t = timing[i];
    t.qrg_start = now_ns();
    const Qrg qrg(requests[i].coordinator->service(), snapshots[i].view,
                  psi_kind, requests[i].scale);
    t.plan_start = now_ns();
    planned[i] = planner.plan(qrg, slot_rng);
    t.plan_end = now_ns();
    t.edges = qrg.edge_count();
  };
  const std::int32_t fanout =
      trace.open(Layer::kFanout, requests.front().session.value());
  if (pool != nullptr)
    pool->parallel_for(n, plan_one, 1);
  else
    for (std::size_t i = 0; i < n; ++i) plan_one(i);
  trace.close(fanout);
  for (std::size_t i = 0; i < n; ++i) {
    if (snapshots[i].overloaded) continue;
    const std::uint32_t id = requests[i].session.value();
    trace.add({id, Layer::kQrg, fanout, timing[i].qrg_start,
               timing[i].plan_start});
    trace.add({id, Layer::kPlan, fanout, timing[i].plan_start,
               timing[i].plan_end});
    totals.qrg_edges += timing[i].edges;
    if (planned[i].plan) ++totals.plans_feasible;
  }

  std::vector<EstablishResult> results(n);
  for (std::size_t i = 0; i < n; ++i) {
    const BatchRequest& request = requests[i];
    const std::int32_t span =
        trace.open(Layer::kCommit, request.session.value());
    results[i] = request.coordinator->commit_planned(
        request.session, now, snapshots[i], std::move(planned[i]));
    trace.close(span);
    if (results[i].plan) {
      ++totals.commits;
      if (!results[i].success) ++totals.commits_rolled_back;
    }
    if (results[i].outcome == EstablishOutcome::kAdmission) {
      // The retry stream derivation of establish_batch.
      std::uint64_t mix = seeds[i] ^ 0x9e3779b97f4a7c15ULL;
      Rng retry_rng(splitmix64(mix));
      results[i] = traced_establish(*request.coordinator, request.session,
                                    now, planner, retry_rng, request.scale,
                                    psi_kind, trace, totals);
      ++totals.batch_replans;
    }
  }
  trace.close(batch);
  totals.batch_requests += n;
  return results;
}

/// One deployment of the paper scenario, with FileJournals behind every
/// leaf broker on `durable`.
struct Deployment {
  explicit Deployment(const Episode& episode)
      : scenario(scenario_config(episode)) {}

  PaperScenario scenario;
  std::vector<ResourceBroker*> leaves;
  std::vector<std::unique_ptr<FileJournal>> files;
  std::vector<std::unique_ptr<TimingSink>> sinks;
  std::unique_ptr<ThreadPool> pool;
};

std::string journal_path(const std::string& journal_dir, std::size_t index) {
  return journal_dir + "/broker-" + std::to_string(index) + ".log";
}

/// Conservation: every holding released and nothing left reserved.
void check_drained(const Deployment& deployment, std::string* error) {
  for (const ResourceBroker* leaf : deployment.leaves) {
    if (leaf->active_sessions() != 0 ||
        std::abs(leaf->reserved()) > 1e-9 * leaf->capacity()) {
      if (error->empty())
        *error = "conservation: broker " + leaf->name() + " still holds " +
                 std::to_string(leaf->reserved()) + " after the queue drained";
    }
  }
}

/// Recovery: each journal re-read from disk must rebuild its live
/// broker's reserved total and holdings.
void check_recovery(const Deployment& deployment,
                    const std::string& journal_dir, double now,
                    std::string* error) {
  for (std::size_t i = 0; i < deployment.leaves.size(); ++i) {
    const ResourceBroker& live = *deployment.leaves[i];
    const ResourceBroker recovered =
        ResourceBroker::recover(
            FileJournal::read_file(journal_path(journal_dir, i)));
    const JournalRecord want = live.snapshot(now);
    const JournalRecord got = recovered.snapshot(now);
    if ((got.reserved != want.reserved || got.holdings != want.holdings) &&
        error->empty())
      *error = "recovery: journal of broker " + live.name() +
               " rebuilds reserved " + std::to_string(got.reserved) +
               " with " + std::to_string(got.holdings.size()) +
               " holdings, live broker has " + std::to_string(want.reserved) +
               " with " + std::to_string(want.holdings.size());
  }
}

/// The paper's Simulation::run() arrival loop, driven from outside:
/// Poisson arrivals, establish, hold until departure, teardown.
void drive_sequential(Deployment& deployment, const Episode& episode,
                      const IPlanner& planner, Trace* trace,
                      LayerTotals* totals, LatencyHistogram* latencies,
                      Stopwatch& clock, EpisodeResult* result,
                      const std::function<void()>& at_last_arrival) {
  PaperScenario& scenario = deployment.scenario;
  const PsiKind psi_kind = scenario.config().psi_kind;
  const double rate = episode.config.rate;
  const double run_length = episode.config.run_length;
  SessionSource source = scenario.make_source();
  EventQueue queue;
  Rng rng(episode.arrival_seed);
  std::uint32_t next_session = 0;

  std::function<void()> arrival = [&] {
    const double now = queue.now();
    const SessionSpec spec = source(rng, now);
    const SessionId session{next_session++};
    const std::int64_t start = now_ns();
    EstablishResult outcome =
        trace != nullptr
            ? traced_establish(*spec.coordinator, session, now, planner, rng,
                               spec.traits.scale, psi_kind, *trace, *totals)
            : spec.coordinator->establish(session, now, planner, rng,
                                          spec.traits.scale);
    if (latencies != nullptr) latencies->add(now_ns() - start);
    record_outcome(&result->stats, spec, outcome);
    ++result->arrivals;

    if (outcome.success)
      schedule_teardown(queue, spec, session, std::move(outcome.holdings),
                        trace);

    const double next_time = now + rng.exponential(rate);
    if (next_time <= run_length) queue.schedule(next_time, arrival);
  };

  queue.schedule(rng.exponential(rate), arrival);
  clock.start();
  queue.run_until(run_length);
  clock.stop();
  at_last_arrival();
  clock.start();
  queue.run_all();
  clock.stop();
}

/// Flash crowd: the Poisson stream is served in whole time units, so
/// every arrival of (k-1, k] is admitted as one same-tick batch at k.
/// Untraced, the batch goes through BatchAdmissionQueue; traced, through
/// traced_batch. A request's latency is its batch's establish time.
void drive_flash(Deployment& deployment, const Episode& episode,
                 const IPlanner& planner, ThreadPool* pool, Trace* trace,
                 LayerTotals* totals, LatencyHistogram* latencies,
                 Stopwatch& clock, EpisodeResult* result) {
  PaperScenario& scenario = deployment.scenario;
  const PsiKind psi_kind = scenario.config().psi_kind;
  const double rate = episode.config.rate;
  const double run_length = episode.config.run_length;
  SessionSource source = scenario.make_source();
  EventQueue queue;
  Rng rng(episode.arrival_seed);
  Rng plan_rng(episode.arrival_seed ^ kPlanSeedMix);
  BatchOptions batch_options;
  batch_options.pool = pool;
  BatchAdmissionQueue admissions(&queue, &planner, &plan_rng, batch_options);
  std::uint32_t next_session = 0;
  double next_arrival = rng.exponential(rate);
  std::int64_t batch_start = 0;

  auto complete = [&queue, result, trace](const SessionSpec& spec,
                                          SessionId session,
                                          EstablishResult outcome) {
    record_outcome(&result->stats, spec, outcome);
    if (outcome.success)
      schedule_teardown(queue, spec, session, std::move(outcome.holdings),
                        trace);
  };

  std::function<void()> tick = [&] {
    const double now = queue.now();
    std::vector<SessionSpec> specs;
    std::vector<BatchRequest> requests;
    while (next_arrival <= now) {
      specs.push_back(source(rng, now));
      requests.push_back(
          {specs.back().coordinator, SessionId{next_session++},
           specs.back().traits.scale, nullptr});
      next_arrival += rng.exponential(rate);
    }
    const std::size_t n = requests.size();
    result->arrivals += n;
    if (n > 0 && trace != nullptr) {
      const std::int64_t start = now_ns();
      std::vector<EstablishResult> outcomes = traced_batch(
          requests, now, planner, plan_rng, pool, psi_kind, *trace, *totals);
      if (latencies != nullptr) latencies->add(now_ns() - start, n);
      for (std::size_t i = 0; i < n; ++i)
        complete(specs[i], requests[i].session, std::move(outcomes[i]));
    } else if (n > 0) {
      for (std::size_t i = 0; i < n; ++i) {
        admissions.submit(
            now, requests[i],
            [&, i, n, spec = specs[i], session = requests[i].session](
                const EstablishResult& outcome) {
              // Slot 0 completes first, right after the batch's drain.
              if (i == 0 && latencies != nullptr)
                latencies->add(now_ns() - batch_start, n);
              complete(spec, session, outcome);
            });
      }
      batch_start = now_ns();  // the drain event runs next
    }
    if (now + 1.0 <= run_length) queue.schedule(now + 1.0, tick);
  };

  queue.schedule(1.0, tick);
  clock.start();
  queue.run_all();
  clock.stop();
}

}  // namespace

const Workload* find_workload(const std::string& name) {
  static const std::vector<Workload> workloads = make_workloads();
  for (const Workload& workload : workloads)
    if (workload.name == name) return &workload;
  return nullptr;
}

Digest digest_of(const SimulationStats& stats) {
  Digest digest;
  for (std::size_t c = 0; c < kSessionClassCount; ++c) {
    const auto session_class = static_cast<SessionClass>(c);
    const Ratio& ratio = stats.class_success(session_class);
    digest.attempts[c] = ratio.attempts();
    digest.admitted[c] = ratio.successes();
    const Summary& qos = stats.class_qos(session_class);
    digest.mean_qos[c] = qos.empty() ? 0.0 : qos.mean();
  }
  digest.bottlenecks = stats.bottleneck_counts();
  return digest;
}

EpisodeResult run_episode(const Workload& workload, const Episode& episode,
                          const std::string& journal_dir, Trace* trace,
                          LayerTotals* totals,
                          LatencyHistogram* latencies, bool use_pool) {
  EpisodeResult result;
  try {
    const std::unique_ptr<IPlanner> planner =
        make_planner(episode.config.planner);

    const std::int64_t setup_start = now_ns();
    Deployment deployment(episode);
    for (ResourceId id : deployment.scenario.all_physical_resources())
      deployment.leaves.push_back(deployment.scenario.registry().leaf(id));
    if (workload.kind == WorkloadKind::kDurable) {
      for (std::size_t i = 0; i < deployment.leaves.size(); ++i) {
        deployment.files.push_back(
            std::make_unique<FileJournal>(journal_path(journal_dir, i)));
        deployment.sinks.push_back(std::make_unique<TimingSink>(
            deployment.files.back().get(), nullptr));
        deployment.leaves[i]->attach_journal(deployment.sinks.back().get());
      }
    }
    if (workload.workers > 0 && use_pool)
      deployment.pool = std::make_unique<ThreadPool>(workload.workers);
    result.setup_s = seconds_since(setup_start);
    for (auto& sink : deployment.sinks) sink->set_trace(trace);

    Stopwatch clock;
    if (workload.kind == WorkloadKind::kFlash) {
      drive_flash(deployment, episode, *planner, deployment.pool.get(), trace,
                  totals, latencies, clock, &result);
    } else {
      drive_sequential(deployment, episode, *planner, trace, totals,
                       latencies, clock, &result, [&] {
                         if (workload.kind == WorkloadKind::kDurable)
                           check_recovery(deployment, journal_dir,
                                          episode.config.run_length,
                                          &result.error);
                       });
    }
    result.session_s = clock.seconds();
    if (trace != nullptr) {
      for (auto& sink : deployment.sinks) sink->set_trace(nullptr);
      trace->fold(totals);
    }

    check_drained(deployment, &result.error);
    if (workload.kind == WorkloadKind::kDurable) {
      check_recovery(deployment, journal_dir, episode.config.run_length,
                     &result.error);
      for (std::size_t i = 0; i < deployment.leaves.size(); ++i)
        std::filesystem::remove(journal_path(journal_dir, i));
    }
  } catch (const std::exception& error) {
    result.error = std::string("exception: ") + error.what();
  }
  return result;
}

Digest reference_digest(const Workload& workload, const Episode& episode,
                        const std::string& journal_dir) {
  if (workload.kind == WorkloadKind::kFlash) {
    const EpisodeResult inline_run =
        run_episode(workload, episode, journal_dir, nullptr, nullptr, nullptr,
                    /*use_pool=*/false);
    if (!inline_run.error.empty()) throw std::runtime_error(inline_run.error);
    return digest_of(inline_run.stats);
  }
  PaperScenario scenario(scenario_config(episode));
  const std::unique_ptr<IPlanner> planner =
      make_planner(episode.config.planner);
  SimulationConfig config;
  config.arrival_rate = episode.config.rate;
  config.run_length = episode.config.run_length;
  config.seed = episode.arrival_seed;
  config.record_paths = false;
  Simulation simulation(scenario.make_source(), planner.get(), config);
  return digest_of(simulation.run());
}

}  // namespace qres::perfbench
