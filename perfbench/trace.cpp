#include "trace.hpp"

namespace qres::perfbench {

std::int32_t Trace::open(Layer layer, std::uint32_t session) {
  const auto index = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(Span{session, layer, open_, now_ns(), 0});
  open_ = index;
  return index;
}

void Trace::close(std::int32_t span) {
  Span& s = spans_[static_cast<std::size_t>(span)];
  s.end_ns = now_ns();
  open_ = s.parent;
}

void Trace::add(const Span& span) { spans_.push_back(span); }

void Trace::fold(LayerTotals* totals) {
  const std::size_t n = spans_.size();
  auto duration = [](const Span& s) {
    return static_cast<double>(s.end_ns - s.start_ns);
  };
  std::vector<double> nested(n, 0.0);
  for (const Span& s : spans_)
    if (s.parent >= 0)
      nested[static_cast<std::size_t>(s.parent)] += duration(s);

  // Worker spans under a fan-out overlap in wall time: each is charged
  // its busy time scaled by wall / total busy, so the fan-out's wall time
  // is split between QRG and plan by how much of it each kept the
  // workers busy, and only the rest (pool hand-off, imbalance) stays with
  // the fan-out itself.
  std::vector<double> scale(n, 1.0);
  for (std::size_t i = 0; i < n; ++i)
    if (spans_[i].layer == Layer::kFanout && nested[i] > duration(spans_[i]))
      scale[i] = duration(spans_[i]) / nested[i];

  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    const auto layer = static_cast<std::size_t>(s.layer);
    const double self = duration(s) - nested[i];
    double wall = self;
    if (s.layer == Layer::kFanout) wall = duration(s) - nested[i] * scale[i];
    if (s.parent >= 0 &&
        spans_[static_cast<std::size_t>(s.parent)].layer == Layer::kFanout)
      wall = self * scale[static_cast<std::size_t>(s.parent)];
    ++totals->calls[layer];
    totals->total_ns[layer] += duration(s);
    totals->self_ns[layer] += self;
    totals->wall_ns[layer] += wall;
    if (s.layer == Layer::kJournal)
      totals->journal_appends.add(s.end_ns - s.start_ns);
  }
  spans_.clear();
  open_ = -1;
}

JournalStatus TimingSink::append(const JournalRecord& record) {
  if (trace_ == nullptr) return inner_->append(record);
  const std::int32_t span =
      trace_->open(Layer::kJournal, record.session.value());
  const JournalStatus status = inner_->append(record);
  trace_->close(span);
  return status;
}

}  // namespace qres::perfbench
