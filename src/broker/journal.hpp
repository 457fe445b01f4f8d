// Write-ahead journal for Resource Brokers (durability layer).
//
// PR 2 made the runtime survive crashed *proxies* (leases expire orphaned
// holdings); this subsystem makes it survive crashed *brokers*. Every
// state mutation of a journaled ResourceBroker — reserve, leased reserve,
// release, partial release, lease renewal, lease expiry — is appended to
// an IJournalSink before the call returns, so a broker process that dies
// can be rebuilt exactly from its journal:
//
//   * `ResourceBroker::recover(records)` replays a journal into a fresh
//     broker whose reserved total, per-session holdings, lease deadlines
//     and availability history window are bit-identical to the pre-crash
//     broker (property-fuzzed by `qres_fuzz --mode crash`);
//   * periodic snapshot compaction bounds replay cost: every
//     `snapshot_every` mutations the broker appends a self-contained
//     kSnapshot record, and a compacting sink may drop everything before
//     it — recovery only ever needs the last snapshot plus the tail;
//   * the journal is the durable truth after a crash. Transient
//     notification state (the expiry log consumed by take_expired, the
//     report-based alpha cache) is deliberately *not* journaled: it
//     describes deliveries to observers, not reservations, and recovery
//     resets it empty.
//
// Two sinks are provided: MemoryJournal (a record vector, used by the
// simulation and the fuzz harnesses, with an optional "lost unsynced
// tail" crash model) and FileJournal (an append-only text file, one
// record per line, used by `qresctl --journal` / `qresctl journal`).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "core/ids.hpp"
#include "util/annotations.hpp"

namespace qres {

enum class AlphaMode : std::uint8_t;

/// The journaled mutation kinds. kSnapshot is self-contained: it carries
/// the broker's full configuration and mutable state, so recovery never
/// needs records older than the last snapshot.
enum class JournalOp : std::uint8_t {
  kSnapshot,       ///< full broker state (also the journal's first record)
  kReserve,        ///< permanent reservation granted
  kReserveLeased,  ///< leased reservation granted (amount + lease)
  kRelease,        ///< full release of one session's holding
  kReleaseAmount,  ///< partial release (amount = what was actually freed)
  kRenewLease,     ///< lease deadline pushed to max(deadline, time + lease)
  kExpire,         ///< one session reclaimed by lease expiry
  kRestart,        ///< crash-restart marker; lease = the grace granted
  kReplyCache,     ///< executed RPC reply (at-least-once dedup durability)
};

const char* to_string(JournalOp op) noexcept;

/// How an append ended. Sinks report I/O failures as typed statuses so
/// the broker can fail the affected operation instead of silently
/// diverging from its journal (a broker whose journal is missing a
/// mutation it applied would recover into a different state than it
/// died in — the one corruption recovery cannot detect).
enum class QRES_NODISCARD JournalStatus : std::uint8_t {
  kOk = 0,
  kWriteFailed,  ///< the record was not written (failed or short write)
};

const char* to_string(JournalStatus status) noexcept;

/// One journal entry. Plain mutation records use the scalar fields; the
/// snapshot payload (config + state vectors) is only populated for
/// kSnapshot. `resource` is set on every record so several brokers can
/// share one sink (the qresctl file journal does).
struct JournalRecord {
  JournalOp op = JournalOp::kSnapshot;
  double time = 0.0;
  ResourceId resource;
  SessionId session;
  double amount = 0.0;
  double lease = 0.0;

  // --- kReplyCache payload: the dedup cache's durable half. The broker
  // service journals every executed reply next to the mutation records it
  // produced, so a restarted broker can rebuild its request-id replay
  // cache from the same journal that rebuilds its holdings — a retried
  // request that already executed replays the original reply instead of
  // executing twice (the double-grant the model checker found; DESIGN.md
  // §13). `grouped` marks a reply whose execution journaled mutation
  // records immediately before it: the pair is one atomic append with
  // respect to tail loss (see MemoryJournal::drop_tail).
  std::uint64_t request_id = 0;
  bool grouped = false;
  std::vector<std::uint8_t> reply;

  // --- kSnapshot payload: broker identity + configuration...
  std::string name;
  double capacity = 0.0;
  double alpha_window = 0.0;
  double history_keep = 0.0;
  AlphaMode alpha_mode{};
  bool expiry_log_enabled = false;
  std::uint64_t expiry_log_capacity = 0;
  // --- ...and complete mutable state.
  double reserved = 0.0;
  std::vector<std::pair<std::uint32_t, double>> holdings;
  std::vector<std::pair<std::uint32_t, double>> lease_deadlines;
  std::vector<std::pair<double, double>> history;
};

/// Where a broker's journal records go. The sink is durable storage: it
/// must survive the broker's crash (in the simulation this simply means
/// it is owned outside the broker object).
class IJournalSink {
 public:
  virtual ~IJournalSink() = default;

  /// Appends one record; called by the broker *before* it applies the
  /// mutation (write-ahead order). A non-kOk status means the record is
  /// not durable: the broker must not apply the mutation it describes.
  virtual JournalStatus append(const JournalRecord& record) = 0;

  /// Returns every retained record, oldest first. Recovery requires the
  /// result to contain at least one kSnapshot record.
  virtual std::vector<JournalRecord> load() const = 0;

  /// Total records ever appended through this sink (monotone; survives
  /// compaction). The broker service compares it across an execution to
  /// decide whether a reply record is grouped with mutation records.
  virtual std::uint64_t appended() const = 0;
};

/// In-memory journal. With compaction enabled (the default), appending a
/// snapshot drops every earlier record — replay cost stays bounded by the
/// mutation count between snapshots.
class MemoryJournal final : public IJournalSink {
 public:
  /// `reply_cache_keep` bounds how many kReplyCache records survive each
  /// compaction (newest first) — sized to BrokerService's dedup capacity,
  /// since entries beyond it are evicted from the live cache anyway.
  explicit MemoryJournal(bool compact_on_snapshot = true,
                         std::size_t reply_cache_keep = 1024)
      : compact_(compact_on_snapshot), reply_cache_keep_(reply_cache_keep) {}

  JournalStatus append(const JournalRecord& record) override;
  std::vector<JournalRecord> load() const override { return records_; }

  const std::vector<JournalRecord>& records() const noexcept {
    return records_;
  }

  /// Crash model for the un-fsynced tail: drops up to `count` trailing
  /// records, stopping (inclusive-keep) at the newest snapshot — the
  /// snapshot is the fsync barrier, so it can never be lost. Returns how
  /// many records were actually dropped.
  ///
  /// Grouped kReplyCache records are atomic with the mutation record(s)
  /// of the execution that produced them: the tail never loses a reply
  /// while keeping its mutation (that split is exactly the state where a
  /// retried request re-executes against surviving holdings — a double
  /// grant). When the budget or the snapshot barrier would split a group,
  /// the whole group is kept — keeping more of the tail is always a legal
  /// crash outcome.
  std::size_t drop_tail(std::size_t count);

  std::uint64_t appended() const noexcept override { return appended_; }
  std::uint64_t snapshots() const noexcept { return snapshots_; }
  std::uint64_t compacted_away() const noexcept { return compacted_away_; }

 private:
  bool compact_;
  std::size_t reply_cache_keep_;
  std::vector<JournalRecord> records_;
  std::uint64_t appended_ = 0;
  std::uint64_t snapshots_ = 0;
  std::uint64_t compacted_away_ = 0;
};

/// Append-only file journal: one record per line, human-readable and
/// exactly round-trippable (doubles are printed with 17 significant
/// digits). The file is never compacted — `qresctl journal` uses the full
/// history for its replay-and-compare verification.
///
/// The journal holds one descriptor for its lifetime and writes at an
/// explicit cursor, the end of its last whole record. Mutation records
/// are copied into a MAP_SHARED window of the file, so an append costs no
/// syscall until the window fills; the window then rolls (munmap, mmap)
/// to the cursor. The file space under a window is reserved with
/// posix_fallocate before it is mapped, so a full disk or a file-size
/// limit fails the append before any byte is stored, never as a SIGBUS.
/// Snapshot records (rare and large) and records longer than a window go
/// through one pwrite(2) at the cursor instead. Every record is stored
/// newline last, so the bytes after the last newline, the torn record and
/// the reserved NUL padding, are never a record. Nothing is buffered
/// across appends and nothing is fsynced: a record is in the page cache
/// before append returns, so a killed process loses nothing. Closing the
/// journal trims the file to its last record. The journal assumes it is
/// the file's only writer.
///
/// Thread-safe: append() and load() serialize on an internal mutex, so
/// several brokers running on a ThreadPool may share one sink. The
/// locking discipline is checked by clang's thread-safety analysis in
/// the static CI lane (DESIGN.md §10.2).
class FileJournal final : public IJournalSink {
 public:
  /// Opens `path` for appending (`truncate` starts a fresh journal).
  /// Reopening an existing journal (`truncate` false) first cuts a torn
  /// final record and any reserved padding, the bytes after the last
  /// newline, so the next append starts on a line of its own. Maps
  /// nothing. Throws std::runtime_error when the file cannot be opened or
  /// cut.
  explicit FileJournal(std::string path, bool truncate = true);
  ~FileJournal() override;

  FileJournal(const FileJournal&) = delete;
  FileJournal& operator=(const FileJournal&) = delete;

  JournalStatus append(const JournalRecord& record) override
      QRES_EXCLUDES(mutex_);
  std::vector<JournalRecord> load() const override QRES_EXCLUDES(mutex_);
  std::uint64_t appended() const override QRES_EXCLUDES(mutex_);

  const std::string& path() const noexcept { return path_; }

  /// Parses a journal file; throws std::runtime_error (with a line
  /// number) on a malformed newline-terminated line, a NUL byte in one
  /// included. The bytes after the last newline (a torn append, or the
  /// NUL padding a live or killed journal has reserved) are dropped;
  /// memory stays bounded by the longest record, whatever the padding.
  static std::vector<JournalRecord> read_file(const std::string& path);

 private:
  /// Stores line_ at the cursor through the mapped window, rolling it
  /// first when the line does not fit.
  bool store_in_window() QRES_REQUIRES(mutex_);
  /// Writes line_ at the cursor with pwrite(2).
  bool write_at_cursor() QRES_REQUIRES(mutex_);

  // Immutable after construction; no guard needed.
  std::string path_;
  int fd_;
  // Guards the file's tail: interleaved appends from two threads would
  // corrupt records, and a load() racing an append() could read a torn
  // line. `mutable` so the logically-const load() can take it.
  mutable Mutex mutex_;
  std::string line_ QRES_GUARDED_BY(mutex_);  // reused serialization buffer
  // End of the last whole record: the next record goes here. Bytes past
  // it (a refused write's torn prefix, reserved padding) are overwritten
  // by the next record and trimmed on close.
  std::uint64_t cursor_ QRES_GUARDED_BY(mutex_) = 0;
  // End of the file space known to be allocated (fallocated or written);
  // a window is mapped only below it. Never behind cursor_.
  std::uint64_t reserved_ QRES_GUARDED_BY(mutex_) = 0;
  // The mapped window [window_offset_, window_offset_ + kWindowBytes),
  // nullptr before the first mutation record or after a failed mmap.
  char* window_ QRES_GUARDED_BY(mutex_) = nullptr;
  std::uint64_t window_offset_ QRES_GUARDED_BY(mutex_) = 0;
  std::uint64_t appended_ QRES_GUARDED_BY(mutex_) = 0;
};

/// Serializes one record as a single line (no trailing newline).
std::string to_line(const JournalRecord& record);

/// Parses one line produced by to_line(); throws std::runtime_error on
/// malformed input.
JournalRecord parse_line(const std::string& line);

/// The subsequence of `records` belonging to `resource` — several brokers
/// may share one sink (see JournalRecord::resource).
std::vector<JournalRecord> filter_journal(
    const std::vector<JournalRecord>& records, ResourceId resource);

}  // namespace qres
