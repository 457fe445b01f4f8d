#include "broker/resource_broker.hpp"

#include <algorithm>
#include <limits>

#include "util/assert.hpp"

namespace qres {

ResourceBroker::ResourceBroker(ResourceId id, std::string name,
                               double capacity, double alpha_window,
                               double history_keep, AlphaMode alpha_mode)
    : id_(id),
      name_(std::move(name)),
      capacity_(capacity),
      alpha_window_(alpha_window),
      history_keep_(history_keep),
      alpha_mode_(alpha_mode) {
  QRES_REQUIRE(id_.valid(), "ResourceBroker: invalid resource id");
  QRES_REQUIRE(!name_.empty(), "ResourceBroker: name must be non-empty");
  QRES_REQUIRE(capacity_ > 0.0, "ResourceBroker: capacity must be positive");
  QRES_REQUIRE(alpha_window_ > 0.0,
               "ResourceBroker: alpha window must be positive");
  QRES_REQUIRE(history_keep_ >= alpha_window_,
               "ResourceBroker: history must cover the alpha window");
  history_.push_back({0.0, capacity_});
}

double ResourceBroker::available_at(double t) const {
  // Last recorded availability at or before t; history_ is sorted by time.
  auto it = std::upper_bound(
      history_.begin(), history_.end(), t,
      [](double time, const std::pair<double, double>& e) {
        return time < e.first;
      });
  if (it == history_.begin()) return history_.front().second;
  return std::prev(it)->second;
}

double ResourceBroker::windowed_average(double t) const {
  // Clamp the window to recorded history: integrating over [t - T, 0)
  // before the first sample would weight a fictitious pre-simulation
  // period at full capacity, biasing early-simulation alpha.
  double start = t - alpha_window_;
  const double first_time = history_.front().first;
  if (start < first_time) start = std::min(first_time, t);
  // Integrate the piecewise-constant availability over [start, t]. The
  // walk begins at the first sample after `start` (its predecessor is the
  // value at `start`), so an observe costs O(log H + W), not O(H).
  auto it = std::upper_bound(
      history_.begin(), history_.end(), start,
      [](double time, const std::pair<double, double>& e) {
        return time < e.first;
      });
  double integral = 0.0;
  double covered = 0.0;
  double prev_time = start;
  double prev_value =
      it == history_.begin() ? history_.front().second : std::prev(it)->second;
  for (; it != history_.end() && it->first <= t; ++it) {
    const auto& [time, value] = *it;
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

ResourceObservation ResourceBroker::observe(double t) const {
  QRES_REQUIRE(up_,
               "ResourceBroker::observe: broker is down — callers must "
               "check up() and treat the broker as unavailable, not empty");
  const double avail = available_at(t);
  ResourceObservation obs;
  obs.available = avail;
  if (alpha_mode_ == AlphaMode::kTimeWeighted) {
    const double avg = windowed_average(t);
    obs.alpha = avg > 0.0 ? avail / avg : 1.0;
    return obs;
  }
  // kReportBased (the paper's eq. 5): r_avg is the mean of the values
  // reported during the past T; updated after each report.
  QRES_REQUIRE(reports_.empty() || t >= reports_.back().first,
               "ResourceBroker: report-based alpha requires "
               "non-decreasing observation times (no staleness)");
  while (!reports_.empty() && reports_.front().first < t - alpha_window_)
    reports_.pop_front();
  if (reports_.empty()) {
    obs.alpha = 1.0;
  } else {
    double sum = 0.0;
    for (const auto& [time, value] : reports_) sum += value;
    const double avg = sum / static_cast<double>(reports_.size());
    obs.alpha = avg > 0.0 ? avail / avg : 1.0;
  }
  reports_.push_back({t, avail});
  return obs;
}

bool ResourceBroker::reserve(double now, SessionId session, double amount) {
  return reserve_impl(now, session, amount, JournalOp::kReserve, 0.0);
}

bool ResourceBroker::reserve_impl(double now, SessionId session,
                                  double amount, JournalOp op, double lease) {
  QRES_REQUIRE(session.valid(), "ResourceBroker::reserve: invalid session");
  QRES_REQUIRE(amount >= 0.0, "ResourceBroker::reserve: negative amount");
  if (!up_) return false;
  // Lazy lease sweep: capacity abandoned by a crashed holder whose lease
  // ran out is reclaimable by the very admission decision that needs it.
  // A no-op (and no history record) when no leases are outstanding. The
  // sweep journals its kExpire records *before* this grant's record, so
  // replaying the grant finds nothing due — replay stays deterministic.
  expire_due(now, nullptr);
  if (amount > available() + 1e-9) return false;
  // Write-ahead order: the grant record must be durable before the grant
  // exists. A refused append fails the admission — the caller sees an
  // ordinary rejection and state still equals journal truth.
  if (!journal_append(op, now, session, amount, lease)) return false;
  holdings_[session] += amount;
  reserved_ += amount;
  if (reserved_ > capacity_) reserved_ = capacity_;  // clamp fp drift
  if (op == JournalOp::kReserveLeased)
    // The whole holding of the session shares one deadline; reserving
    // again is itself a sign of life, so the deadline moves forward.
    lease_deadlines_.insert_or_assign(session, now + lease);
  record(now);
  journal_snapshot_tick(now);
  return true;
}

void ResourceBroker::release(double now, SessionId session) {
  auto it = holdings_.find(session);
  if (it == holdings_.end()) return;
  const double freed = it->second;
  if (!journal_append(JournalOp::kRelease, now, session, freed, 0.0))
    return;  // journal refused: the holding stays (state == journal)
  reserved_ -= freed;
  if (reserved_ < 0.0) reserved_ = 0.0;  // clamp fp drift
  holdings_.erase(session);
  lease_deadlines_.erase(session);
  record(now);
  journal_snapshot_tick(now);
}

void ResourceBroker::release_amount(double now, SessionId session,
                                    double amount) {
  QRES_REQUIRE(amount >= 0.0,
               "ResourceBroker::release_amount: negative amount");
  auto it = holdings_.find(session);
  if (it == holdings_.end()) return;
  const double freed = std::min(amount, it->second);
  // Journaled amount is what will actually be freed, so replay never
  // over-releases a holding the journal shows smaller.
  if (!journal_append(JournalOp::kReleaseAmount, now, session, freed, 0.0))
    return;
  it->second -= freed;
  reserved_ -= freed;
  if (reserved_ < 0.0) reserved_ = 0.0;  // clamp fp drift
  if (it->second <= 1e-12) {
    holdings_.erase(session);
    lease_deadlines_.erase(session);
  }
  record(now);
  journal_snapshot_tick(now);
}

double ResourceBroker::held_by(SessionId session) const {
  auto it = holdings_.find(session);
  return it == holdings_.end() ? 0.0 : it->second;
}

bool ResourceBroker::reserve_leased(double now, SessionId session,
                                    double amount, double lease) {
  QRES_REQUIRE(lease > 0.0,
               "ResourceBroker::reserve_leased: lease must be positive");
  return reserve_impl(now, session, amount, JournalOp::kReserveLeased, lease);
}

bool ResourceBroker::renew_lease(double now, SessionId session,
                                 double lease) {
  QRES_REQUIRE(lease > 0.0,
               "ResourceBroker::renew_lease: lease must be positive");
  expire_due(now, nullptr);  // a renewal that arrives too late must fail
  auto it = lease_deadlines_.find(session);
  if (it == lease_deadlines_.end()) return false;
  if (!journal_append(JournalOp::kRenewLease, now, session, 0.0, lease))
    return false;  // unrecorded renewal would be lost by recovery
  it->second = std::max(it->second, now + lease);
  journal_snapshot_tick(now);
  return true;
}

double ResourceBroker::expire_due(double now,
                                  std::vector<SessionId>* expired) {
  if (lease_deadlines_.empty()) return 0.0;
  std::vector<SessionId> due;
  for (const auto& [session, deadline] : lease_deadlines_)
    if (deadline <= now) due.push_back(session);
  double freed = 0.0;
  for (SessionId session : due) {
    const double held = held_by(session);
    // Write-ahead: an unrecorded reclaim would resurrect the holding on
    // recovery. A refused append leaves the lease due — it stays
    // reclaimable by the next sweep once the sink recovers.
    if (!journal_append(JournalOp::kExpire, now, session, held, 0.0))
      continue;
    freed += held;
    {
      // The reclaim is journaled as kExpire, not as the kRelease the
      // nested release() would emit — one logical mutation, one record.
      const bool was_muted = journal_mute_;
      journal_mute_ = true;
      release(now, session);  // also erases the lease entry
      journal_mute_ = was_muted;
    }
    journal_snapshot_tick(now);
    if (expired) expired->push_back(session);
    if (expiry_log_enabled_) {
      expiry_log_.push_back(session);
      if (expiry_log_.size() > expiry_log_capacity_) {
        expiry_log_.erase(expiry_log_.begin());
        ++expiry_log_dropped_;
      }
    }
  }
  return freed;
}

void ResourceBroker::enable_expiry_log(std::size_t capacity) {
  QRES_REQUIRE(capacity > 0,
               "ResourceBroker::enable_expiry_log: capacity must be positive");
  expiry_log_enabled_ = true;
  expiry_log_capacity_ = capacity;
}

void ResourceBroker::take_expired(std::vector<SessionId>* into) {
  QRES_REQUIRE(into != nullptr, "ResourceBroker::take_expired: null list");
  into->insert(into->end(), expiry_log_.begin(), expiry_log_.end());
  expiry_log_.clear();
}

double ResourceBroker::lease_deadline(SessionId session) const {
  auto it = lease_deadlines_.find(session);
  if (it == lease_deadlines_.end())
    return std::numeric_limits<double>::infinity();
  return it->second;
}

void ResourceBroker::record(double now) {
  QRES_REQUIRE(history_.empty() || now >= history_.back().first,
               "ResourceBroker: time went backwards");
  if (!history_.empty() && history_.back().first == now) {
    history_.back().second = available();
  } else {
    history_.push_back({now, available()});
  }
  prune(now);
}

// ---------------------------------------------------------------------------
// Durability: write-ahead journal + crash–restart. See journal.hpp for the
// record format and DESIGN.md §9 for the recovery invariants.

void ResourceBroker::attach_journal(IJournalSink* sink,
                                    std::size_t snapshot_every, double now) {
  QRES_REQUIRE(sink != nullptr, "ResourceBroker::attach_journal: null sink");
  QRES_REQUIRE(snapshot_every > 0,
               "ResourceBroker::attach_journal: snapshot_every must be > 0");
  QRES_REQUIRE(journal_ == nullptr,
               "ResourceBroker::attach_journal: journal already attached");
  journal_ = sink;
  snapshot_every_ = snapshot_every;
  mutations_since_snapshot_ = 0;
  // The journal always starts (and after compaction, ends) with a
  // self-contained snapshot: recovery needs no out-of-band configuration.
  // Attach-time failure is fatal — a broker that cannot write its very
  // first snapshot has no durability story to degrade to.
  QRES_REQUIRE(journal_->append(snapshot(now)) == JournalStatus::kOk,
               "ResourceBroker::attach_journal: initial snapshot append "
               "failed");
}

void ResourceBroker::rebind_journal(IJournalSink* sink) {
  // Cloning seam for the model checker (src/mc): a copied broker still
  // points at the original's sink; the clone's owner swaps in its own
  // copy (or detaches with nullptr) so explored branches never write
  // into each other's journals.
  journal_ = sink;
}

bool ResourceBroker::journal_append(JournalOp op, double now,
                                    SessionId session, double amount,
                                    double lease) {
  if (journal_ == nullptr || journal_mute_) return true;
  JournalRecord rec;
  rec.op = op;
  rec.time = now;
  rec.resource = id_;
  rec.session = session;
  rec.amount = amount;
  rec.lease = lease;
  if (journal_->append(rec) != JournalStatus::kOk) {
    ++journal_failures_;
    return false;
  }
  ++journaled_mutations_;
  ++mutations_since_snapshot_;
  return true;
}

void ResourceBroker::journal_snapshot_tick(double now) {
  if (journal_ == nullptr || journal_mute_) return;
  if (mutations_since_snapshot_ < snapshot_every_) return;
  // Compaction snapshots are an optimization, not a correctness barrier:
  // a refused append just leaves a longer replay tail (and keeps the
  // counter high, so the next mutation retries the snapshot).
  if (journal_->append(snapshot(now)) == JournalStatus::kOk)
    mutations_since_snapshot_ = 0;
  else
    ++journal_failures_;
}

JournalRecord ResourceBroker::snapshot(double now) const {
  JournalRecord snap;
  snap.op = JournalOp::kSnapshot;
  snap.time = now;
  snap.resource = id_;
  snap.name = name_;
  snap.capacity = capacity_;
  snap.alpha_window = alpha_window_;
  snap.history_keep = history_keep_;
  snap.alpha_mode = alpha_mode_;
  snap.expiry_log_enabled = expiry_log_enabled_;
  snap.expiry_log_capacity = expiry_log_capacity_;
  snap.reserved = reserved_;
  for (const auto& [session, amount] : holdings_)
    snap.holdings.push_back({session.value(), amount});
  for (const auto& [session, deadline] : lease_deadlines_)
    snap.lease_deadlines.push_back({session.value(), deadline});
  snap.history = history_;
  return snap;
}

void ResourceBroker::restore_from(const JournalRecord& snap) {
  QRES_REQUIRE(snap.op == JournalOp::kSnapshot,
               "ResourceBroker::restore_from: not a snapshot record");
  QRES_REQUIRE(snap.resource == id_ && snap.name == name_ &&
                   snap.capacity == capacity_,
               "ResourceBroker::restore_from: snapshot is for a "
               "different broker");
  reserved_ = snap.reserved;
  holdings_.clear();
  for (const auto& [session, amount] : snap.holdings)
    holdings_.insert_or_assign(SessionId{session}, amount);
  lease_deadlines_.clear();
  for (const auto& [session, deadline] : snap.lease_deadlines)
    lease_deadlines_.insert_or_assign(SessionId{session}, deadline);
  expiry_log_enabled_ = snap.expiry_log_enabled;
  expiry_log_capacity_ = static_cast<std::size_t>(snap.expiry_log_capacity);
  history_ = snap.history;
  QRES_REQUIRE(!history_.empty(),
               "ResourceBroker::restore_from: snapshot has no history");
  // Transient notification state describes deliveries to observers, not
  // reservations: recovery resets it empty (see journal.hpp).
  expiry_log_.clear();
  expiry_log_dropped_ = 0;
  reports_.clear();
}

void ResourceBroker::apply(const JournalRecord& rec) {
  switch (rec.op) {
    case JournalOp::kSnapshot:
      restore_from(rec);
      return;
    case JournalOp::kReserve:
      QRES_REQUIRE(reserve(rec.time, rec.session, rec.amount),
                   "journal replay: reserve refused — journal corrupt "
                   "or out of order");
      return;
    case JournalOp::kReserveLeased:
      QRES_REQUIRE(
          reserve_leased(rec.time, rec.session, rec.amount, rec.lease),
          "journal replay: leased reserve refused — journal corrupt "
          "or out of order");
      return;
    case JournalOp::kRelease:
      release(rec.time, rec.session);
      return;
    case JournalOp::kReleaseAmount:
      release_amount(rec.time, rec.session, rec.amount);
      return;
    case JournalOp::kRenewLease:
      QRES_REQUIRE(renew_lease(rec.time, rec.session, rec.lease),
                   "journal replay: renewal refused — journal corrupt "
                   "or out of order");
      return;
    case JournalOp::kExpire:
      // Exactly the session the original sweep reclaimed, applied as a
      // direct release: replay never re-derives "what was due" — the
      // original broker already decided that and journaled it.
      release(rec.time, rec.session);
      return;
    case JournalOp::kRestart:
      // Lease grace from a previous restart: every deadline moves to at
      // least time + grace, applied directly (a renewal sweep here would
      // reclaim overdue leases before the grace could save them).
      if (rec.lease > 0.0)
        for (auto& [session, deadline] : lease_deadlines_)
          deadline = std::max(deadline, rec.time + rec.lease);
      return;
    case JournalOp::kReplyCache:
      // Dedup-cache durability records belong to the broker *service*
      // (BrokerService::rebuild_dedup reads them); they are not broker
      // mutations and replay skips them.
      return;
  }
  QRES_REQUIRE(false, "journal replay: unknown record op");
}

void ResourceBroker::apply_replicated(const JournalRecord& rec) {
  QRES_REQUIRE(up_, "ResourceBroker::apply_replicated: broker is down");
  journal_mute_ = true;
  apply(rec);
  journal_mute_ = false;
}

ResourceBroker ResourceBroker::recover(
    const std::vector<JournalRecord>& records) {
  // Recovery = latest snapshot + replay of the tail. The snapshot is
  // self-contained, so nothing before it is ever needed. For sinks shared
  // by several brokers, filter_journal() first.
  std::size_t snap_index = records.size();
  for (std::size_t i = records.size(); i-- > 0;) {
    if (records[i].op == JournalOp::kSnapshot) {
      snap_index = i;
      break;
    }
  }
  QRES_REQUIRE(snap_index < records.size(),
               "ResourceBroker::recover: journal has no snapshot");
  const JournalRecord& snap = records[snap_index];
  ResourceBroker broker(snap.resource, snap.name, snap.capacity,
                        snap.alpha_window, snap.history_keep,
                        snap.alpha_mode);
  broker.journal_mute_ = true;
  broker.restore_from(snap);
  for (std::size_t i = snap_index + 1; i < records.size(); ++i)
    if (records[i].resource == broker.id_) broker.apply(records[i]);
  broker.journal_mute_ = false;
  return broker;
}

void ResourceBroker::crash(double now) {
  QRES_REQUIRE(up_, "ResourceBroker::crash: broker is already down");
  (void)now;  // the journal, not the broker, remembers when
  up_ = false;
  // Process memory is gone: reservations, leases, history, notification
  // state. Only an attached journal (owned outside the broker) survives.
  reserved_ = 0.0;
  holdings_.clear();
  lease_deadlines_.clear();
  expiry_log_.clear();
  expiry_log_dropped_ = 0;
  reports_.clear();
  history_.clear();
  history_.push_back({0.0, capacity_});
  mutations_since_snapshot_ = 0;
}

void ResourceBroker::restart(double now, double lease_grace) {
  QRES_REQUIRE(!up_, "ResourceBroker::restart: broker is already up");
  QRES_REQUIRE(lease_grace >= 0.0,
               "ResourceBroker::restart: negative lease grace");
  up_ = true;
  if (journal_ == nullptr) return;  // lose-everything restart: stays blank
  const std::vector<JournalRecord> records =
      filter_journal(journal_->load(), id_);
  std::size_t snap_index = records.size();
  for (std::size_t i = records.size(); i-- > 0;) {
    if (records[i].op == JournalOp::kSnapshot) {
      snap_index = i;
      break;
    }
  }
  QRES_REQUIRE(snap_index < records.size(),
               "ResourceBroker::restart: journal has no snapshot");
  journal_mute_ = true;
  restore_from(records[snap_index]);
  for (std::size_t i = snap_index + 1; i < records.size(); ++i)
    apply(records[i]);
  journal_mute_ = false;
  // Grace period: restored lease holders get until now + grace to
  // re-assert themselves (reconciliation), even if their deadline passed
  // during the outage. Journaled (write-ahead: marker first, grace only
  // if the marker is durable) so a crash *during* reconciliation replays
  // identically; then a fresh snapshot lets compacting sinks drop the
  // pre-crash tail.
  JournalRecord marker;
  marker.op = JournalOp::kRestart;
  marker.time = now;
  marker.resource = id_;
  marker.lease = lease_grace;
  if (journal_->append(marker) == JournalStatus::kOk) {
    if (lease_grace > 0.0)
      for (auto& [session, deadline] : lease_deadlines_)
        deadline = std::max(deadline, now + lease_grace);
  } else {
    ++journal_failures_;
  }
  // The post-restart snapshot only speeds compaction; losing it is safe.
  if (journal_->append(snapshot(now)) == JournalStatus::kOk)
    mutations_since_snapshot_ = 0;
  else
    ++journal_failures_;
}

void ResourceBroker::prune(double now) {
  const double horizon = now - history_keep_;
  // Keep the newest entry older than the horizon as the baseline value.
  std::size_t first_kept = 0;
  for (std::size_t i = 0; i < history_.size(); ++i) {
    if (history_[i].first < horizon)
      first_kept = i;
    else
      break;
  }
  if (first_kept > 0)
    history_.erase(history_.begin(),
                   history_.begin() + static_cast<std::ptrdiff_t>(first_kept));
}

}  // namespace qres
