// Batch planning of concurrent session arrivals (DESIGN.md §11).
//
// Under flash-crowd rates many establishment requests carry the same
// simulation timestamp, and the expensive part of each — building the
// QRG and running the minimax-Dijkstra planner — is a pure function of
// its phase-1 snapshot (SessionCoordinator::plan_on_snapshot). A batch
// therefore runs in three phases:
//   1. snapshots are captured sequentially in arrival order (observing
//      brokers advances alpha history and spends RPC rounds — ordering
//      is part of the determinism contract),
//   2. planning fans across the ThreadPool into result slots indexed by
//      arrival position, each request on its own pre-derived RNG stream
//      (the sim-replica determinism idiom),
//   3. commits run sequentially in arrival order (they mutate broker
//      state).
// Results are bit-identical for every worker count, including no pool at
// all — qres_fuzz --mode parallel enforces this differentially.
//
// Because every plan in a batch was made against a pre-batch snapshot,
// an earlier batch member can consume the capacity a later plan assumed;
// the later commit then fails with kAdmission exactly like a stale
// observation would, and (by default) retries once sequentially against
// fresh state.
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <vector>

#include "core/event_queue.hpp"
#include "proxy/qos_proxy.hpp"
#include "util/thread_pool.hpp"

namespace qres {

/// One admission request in a batch.
struct BatchRequest {
  SessionCoordinator* coordinator = nullptr;
  SessionId session;
  double scale = 1.0;  ///< requirement multiplier (fat sessions)
  std::function<double(ResourceId)> staleness;  ///< null = accurate
};

struct BatchOptions {
  /// Pool the planning phase fans across; null plans inline (the
  /// reference order the differential fuzz compares against).
  ThreadPool* pool = nullptr;
  /// On a kAdmission commit conflict (an earlier batch member took the
  /// capacity this plan assumed), retry once sequentially against a
  /// fresh snapshot, like a staleness replan. The retry consumes a
  /// deterministically derived RNG stream and counts in stats.replans.
  bool replan_on_conflict = true;
};

/// Establishes every request at time `now`, merging results in arrival
/// order. `rng` seeds one derived stream per request (drawn in arrival
/// order), so results do not depend on worker count or scheduling.
std::vector<EstablishResult> establish_batch(
    const std::vector<BatchRequest>& requests, double now,
    const IPlanner& planner, Rng& rng, const BatchOptions& options = {});

/// Drains same-tick admission requests from the event loop as batches.
/// submit() buckets requests by timestamp; when the EventQueue reaches a
/// bucket's time, the whole bucket establishes via establish_batch and
/// each completion callback fires as its own event at the same time, in
/// arrival order — the driver thread posts them on lane 1 + arrival slot
/// after the batch returns, so the EventQueue's lane tie-break fixes the
/// pop order whichever worker planned which request.
class BatchAdmissionQueue {
 public:
  using Completion = std::function<void(const EstablishResult&)>;

  BatchAdmissionQueue(EventQueue* queue, const IPlanner* planner, Rng* rng,
                      BatchOptions options = {});

  /// Enqueues an admission request arriving at absolute `time`
  /// (>= queue->now()); `done` (optional) receives the result.
  void submit(double time, BatchRequest request, Completion done = nullptr);

  std::size_t batches() const noexcept { return batches_; }
  std::size_t admitted() const noexcept { return admitted_; }
  std::size_t max_batch() const noexcept { return max_batch_; }

 private:
  struct Pending {
    BatchRequest request;
    Completion done;
  };

  void drain(double time);

  EventQueue* queue_;
  const IPlanner* planner_;
  Rng* rng_;
  BatchOptions options_;
  std::map<double, std::vector<Pending>> pending_;
  std::size_t batches_ = 0;
  std::size_t admitted_ = 0;
  std::size_t max_batch_ = 0;
};

}  // namespace qres
