// In-memory span tracing for the traced benchmark run.
//
// The traced driver opens one span around each call it makes into a
// layer (snapshot, QRG build, plan, commit, teardown, batch) and the
// TimingSink decorator opens one around every journal append. Spans carry
// the session id and the index of the span that was open when they began,
// so a layer's self time is its span minus the spans nested in it (for
// example commit self time = commit - the journal appends it caused).
// Spans stay in memory and are folded into per-layer totals after each
// episode; the untraced run records none of this.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <vector>

#include "broker/journal.hpp"
#include "histogram.hpp"

namespace qres::perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class Layer : std::uint8_t {
  kSnapshot,  ///< proxy: SessionCoordinator::snapshot_for_planning
  kQrg,       ///< core: Qrg construction
  kPlan,      ///< core: IPlanner::plan
  kCommit,    ///< proxy: SessionCoordinator::commit_planned
  kTeardown,  ///< proxy: SessionCoordinator::teardown
  kJournal,   ///< broker: IJournalSink::append
  kBatch,     ///< sim: one batch of same-tick admissions
  kFanout,    ///< sim: the batch's planning phase across the pool
};
inline constexpr std::size_t kLayerCount = 8;

struct Span {
  std::uint32_t session = 0;
  Layer layer = Layer::kSnapshot;
  std::int32_t parent = -1;  ///< index of the enclosing span, -1 = none
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Per-layer sums folded from spans, plus the counts the driver records
/// at the same boundaries.
struct LayerTotals {
  std::array<std::uint64_t, kLayerCount> calls{};
  std::array<double, kLayerCount> total_ns{};  ///< span durations
  /// Span time minus nested spans (per call; worker time for QRG/plan).
  std::array<double, kLayerCount> self_ns{};
  /// Share of the session wall time each layer accounts for. Equal to
  /// self time except under a fan-out, whose wall time is split across
  /// the worker spans by their busy time.
  std::array<double, kLayerCount> wall_ns{};
  LatencyHistogram journal_appends;

  std::uint64_t qrg_edges = 0;
  std::uint64_t plans_feasible = 0;
  std::uint64_t commits = 0;  ///< commits of a found plan
  std::uint64_t commits_rolled_back = 0;
  std::uint64_t batch_requests = 0;
  std::uint64_t batch_replans = 0;
};

class Trace {
 public:
  /// Opens a span on the driver thread; spans opened before it closes
  /// become its children.
  std::int32_t open(Layer layer, std::uint32_t session);
  void close(std::int32_t span);

  /// Records a span measured on another thread under `parent`.
  void add(const Span& span);

  /// Folds every recorded span into `totals` and forgets them.
  void fold(LayerTotals* totals);

 private:
  std::vector<Span> spans_;
  std::int32_t open_ = -1;
};

/// IJournalSink decorator timing every append as a kJournal span of the
/// trace (when one is set) and forwarding everything to `inner`.
class TimingSink final : public IJournalSink {
 public:
  TimingSink(IJournalSink* inner, Trace* trace)
      : inner_(inner), trace_(trace) {}

  /// Set after the broker's attach-time snapshot, so set-up appends stay
  /// out of the session spans.
  void set_trace(Trace* trace) noexcept { trace_ = trace; }

  JournalStatus append(const JournalRecord& record) override;
  std::vector<JournalRecord> load() const override { return inner_->load(); }
  std::uint64_t appended() const override { return inner_->appended(); }

 private:
  IJournalSink* inner_;
  Trace* trace_;
};

}  // namespace qres::perfbench
