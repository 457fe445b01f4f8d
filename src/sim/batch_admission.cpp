#include "sim/batch_admission.hpp"

#include <algorithm>
#include <utility>

#include "util/assert.hpp"

namespace qres {

namespace {

void accumulate(CoordinationStats* into, const CoordinationStats& from) {
  into->participating_proxies += from.participating_proxies;
  into->availability_messages += from.availability_messages;
  into->dispatch_messages += from.dispatch_messages;
  into->reservations_attempted += from.reservations_attempted;
  into->reservations_rolled_back += from.reservations_rolled_back;
  into->retransmissions += from.retransmissions;
  into->unreachable_proxies += from.unreachable_proxies;
  into->replans += from.replans;
}

}  // namespace

std::vector<EstablishResult> establish_batch(
    const std::vector<BatchRequest>& requests, double now,
    const IPlanner& planner, Rng& rng, const BatchOptions& options) {
  std::vector<EstablishResult> results(requests.size());
  if (requests.empty()) return results;

  // Phase 1 (sequential, arrival order): snapshots mutate world state —
  // broker observations advance alpha history and polling spends RPC
  // rounds — so their order is part of the determinism contract. The
  // per-request seeds are drawn here, in arrival order, for the same
  // reason.
  std::vector<SessionCoordinator::PlanningSnapshot> snapshots;
  snapshots.reserve(requests.size());
  std::vector<std::uint64_t> seeds(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const BatchRequest& request = requests[i];
    QRES_REQUIRE(request.coordinator != nullptr,
                 "establish_batch: null coordinator");
    QRES_REQUIRE(request.session.valid(), "establish_batch: invalid session");
    snapshots.push_back(
        request.coordinator->snapshot_for_planning(now, request.staleness));
    seeds[i] = rng();
  }

  // Phase 2 (parallel): pure planning into slots indexed by arrival
  // position, each slot on its own derived RNG stream — the sim-replica
  // determinism idiom, so the merge is independent of worker count and
  // scheduling order.
  std::vector<PlanResult> planned(requests.size());
  auto plan_one = [&](std::size_t i) {
    if (snapshots[i].overloaded) return;
    Rng slot_rng(seeds[i]);
    planned[i] = requests[i].coordinator->plan_on_snapshot(
        snapshots[i], planner, slot_rng, requests[i].scale);
  };
  if (options.pool)
    options.pool->parallel_for(requests.size(), plan_one, /*grain=*/1);
  else
    for (std::size_t i = 0; i < requests.size(); ++i) plan_one(i);

  // Phase 3 (sequential, arrival order): commits mutate broker state.
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const BatchRequest& request = requests[i];
    results[i] = request.coordinator->commit_planned(
        request.session, now, snapshots[i], std::move(planned[i]));
    if (results[i].outcome == EstablishOutcome::kAdmission &&
        options.replan_on_conflict) {
      // An earlier batch member consumed the capacity this plan assumed
      // (plans were made against pre-batch snapshots). One sequential
      // retry against fresh state; the retry seed derives from the
      // request's own stream, not from worker scheduling.
      const CoordinationStats first_attempt = results[i].stats;
      std::uint64_t mix = seeds[i] ^ 0x9e3779b97f4a7c15ULL;
      Rng retry_rng(splitmix64(mix));
      results[i] =
          request.coordinator->establish(request.session, now, planner,
                                         retry_rng, request.scale,
                                         request.staleness);
      accumulate(&results[i].stats, first_attempt);
      ++results[i].stats.replans;
    }
  }
  return results;
}

BatchAdmissionQueue::BatchAdmissionQueue(EventQueue* queue,
                                         const IPlanner* planner, Rng* rng,
                                         BatchOptions options)
    : queue_(queue),
      planner_(planner),
      rng_(rng),
      options_(options) {
  QRES_REQUIRE(queue != nullptr, "BatchAdmissionQueue: null event queue");
  QRES_REQUIRE(planner != nullptr, "BatchAdmissionQueue: null planner");
  QRES_REQUIRE(rng != nullptr, "BatchAdmissionQueue: null rng");
}

void BatchAdmissionQueue::submit(double time, BatchRequest request,
                                 Completion done) {
  QRES_REQUIRE(request.coordinator != nullptr,
               "BatchAdmissionQueue::submit: null coordinator");
  auto& bucket = pending_[time];
  const bool first_at_time = bucket.empty();
  bucket.push_back(Pending{std::move(request), std::move(done)});
  // One drain event per distinct timestamp, scheduled when the first
  // request for that time arrives (lane 0: the drain runs before any
  // completion events it will post on lanes >= 1).
  if (first_at_time)
    queue_->schedule(time, [this, time] { drain(time); });
}

void BatchAdmissionQueue::drain(double time) {
  auto it = pending_.find(time);
  QRES_ENSURE(it != pending_.end(),
              "BatchAdmissionQueue: drain for an unknown timestamp");
  std::vector<Pending> batch = std::move(it->second);
  pending_.erase(it);

  std::vector<BatchRequest> requests;
  requests.reserve(batch.size());
  for (const Pending& pending : batch) requests.push_back(pending.request);
  std::vector<EstablishResult> results =
      establish_batch(requests, time, *planner_, *rng_, options_);

  ++batches_;
  max_batch_ = std::max(max_batch_, batch.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (results[i].success) ++admitted_;
    if (!batch[i].done) continue;
    // Completions are events of their own, on lane 1 + arrival slot:
    // the EventQueue's (time, lane, seq) tie-break pins their pop order
    // to arrival order no matter which thread scheduled what first.
    queue_->schedule_lane(
        static_cast<std::uint32_t>(1 + i), time,
        [done = std::move(batch[i].done),
         result = std::move(results[i])] { done(result); });
  }
}

}  // namespace qres
