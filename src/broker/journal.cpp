#include "broker/journal.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <charconv>
#include <concepts>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "broker/resource_broker.hpp"  // AlphaMode enumerators
#include "util/assert.hpp"

namespace qres {

const char* to_string(JournalOp op) noexcept {
  switch (op) {
    case JournalOp::kSnapshot: return "snapshot";
    case JournalOp::kReserve: return "reserve";
    case JournalOp::kReserveLeased: return "reserve-leased";
    case JournalOp::kRelease: return "release";
    case JournalOp::kReleaseAmount: return "release-amount";
    case JournalOp::kRenewLease: return "renew-lease";
    case JournalOp::kExpire: return "expire";
    case JournalOp::kRestart: return "restart";
    case JournalOp::kReplyCache: return "reply-cache";
  }
  return "?";
}

const char* to_string(JournalStatus status) noexcept {
  switch (status) {
    case JournalStatus::kOk: return "ok";
    case JournalStatus::kWriteFailed: return "write-failed";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// MemoryJournal

JournalStatus MemoryJournal::append(const JournalRecord& record) {
  ++appended_;
  if (record.op == JournalOp::kSnapshot) {
    ++snapshots_;
    if (compact_) {
      // Compaction must not lose the exactly-once replay cache: the
      // snapshot captures broker state but not the dedup cache, which is
      // rebuilt from kReplyCache records after a restart
      // (BrokerService::rebuild_dedup). Dropping them with the prefix
      // means a retried request re-executes against restored holdings — a
      // double grant (found by qres_mc on the `crashy` topology). Retain
      // the newest reply_cache_keep_ of them ahead of the snapshot
      // barrier.
      std::vector<JournalRecord> retained;
      for (const JournalRecord& kept : records_)
        if (kept.op == JournalOp::kReplyCache) retained.push_back(kept);
      if (retained.size() > reply_cache_keep_)
        retained.erase(retained.begin(),
                       retained.end() -
                           static_cast<std::ptrdiff_t>(reply_cache_keep_));
      // Behind the snapshot barrier the replies are fsynced state;
      // grouping with their (now compacted) mutation records no longer
      // applies.
      for (JournalRecord& kept : retained) kept.grouped = false;
      compacted_away_ += records_.size() - retained.size();
      records_ = std::move(retained);
    }
  }
  records_.push_back(record);
  return JournalStatus::kOk;
}

std::size_t MemoryJournal::drop_tail(std::size_t count) {
  std::size_t dropped = 0;
  while (dropped < count && !records_.empty() &&
         records_.back().op != JournalOp::kSnapshot) {
    if (records_.back().grouped) {
      // A grouped reply is fsynced together with the mutation record(s)
      // of its execution: drop the whole pair or keep it. Stopping early
      // (keeping more) is always a legal crash outcome; splitting the
      // pair is not — a kept mutation with a lost reply is the state
      // where a retried request re-executes and double-grants.
      if (count - dropped < 2 || records_.size() < 2 ||
          records_[records_.size() - 2].op == JournalOp::kSnapshot)
        break;
      records_.pop_back();
      records_.pop_back();
      dropped += 2;
      continue;
    }
    records_.pop_back();
    ++dropped;
  }
  return dropped;
}

// ---------------------------------------------------------------------------
// Text serialization. Format, one record per line:
//
//   <op> t=<time> r=<resource> [s=<session>] [a=<amount>] [l=<lease>]
//
// and for snapshots, the full payload appended as counted lists. Doubles
// are printed like printf's %.17g (std::to_chars, general format, 17
// significant digits), so parsing reproduces them bit-exactly.

namespace {

/// Each field is appended as ' ' and its text; doubles as %.17g prints
/// them.
void put_field(std::string& out, double x) {
  char buf[40];
  const std::to_chars_result end = std::to_chars(
      buf, buf + sizeof buf, x, std::chars_format::general, 17);
  out += ' ';
  out.insert(out.end(), buf, end.ptr);
}

template <std::integral Int>
void put_field(std::string& out, Int x) {
  char buf[24];
  const std::to_chars_result end = std::to_chars(buf, buf + sizeof buf, x);
  out += ' ';
  out.insert(out.end(), buf, end.ptr);
}

void put_field(std::string& out, const std::string& text) {
  out += ' ';
  out += text;
}

template <typename... Fields>
void put(std::string& out, const Fields&... fields) {
  (put_field(out, fields), ...);
}

double parse_double(std::istringstream& in, const char* what) {
  double x = 0.0;
  if (!(in >> x))
    throw std::runtime_error(std::string("journal: bad ") + what);
  return x;
}

std::uint64_t parse_u64(std::istringstream& in, const char* what) {
  std::uint64_t x = 0;
  if (!(in >> x))
    throw std::runtime_error(std::string("journal: bad ") + what);
  return x;
}

/// Appends one record's line (no trailing newline) to `out`.
void append_line(std::string& out, const JournalRecord& record) {
  out += to_string(record.op);
  put(out, record.time, record.resource.value());
  if (record.op == JournalOp::kSnapshot) {
    QRES_REQUIRE(!record.name.empty() &&
                     record.name.find_first_of(" \t\n") == std::string::npos,
                 "journal: snapshot name must be non-empty, no whitespace");
    put(out, record.name, record.capacity, record.alpha_window,
        record.history_keep, static_cast<unsigned>(record.alpha_mode),
        record.expiry_log_enabled ? 1 : 0, record.expiry_log_capacity,
        record.reserved);
    put(out, record.holdings.size());
    for (const auto& [session, amount] : record.holdings)
      put(out, session, amount);
    put(out, record.lease_deadlines.size());
    for (const auto& [session, deadline] : record.lease_deadlines)
      put(out, session, deadline);
    put(out, record.history.size());
    for (const auto& [time, value] : record.history) put(out, time, value);
    return;
  }
  if (record.op == JournalOp::kReplyCache) {
    static const char* digits = "0123456789abcdef";
    put(out, record.request_id, record.grouped ? 1 : 0, record.reply.size());
    out += ' ';
    for (const std::uint8_t byte : record.reply) {
      out += digits[byte >> 4];
      out += digits[byte & 0xf];
    }
    return;
  }
  put(out, record.session.value(), record.amount, record.lease);
}

}  // namespace

std::string to_line(const JournalRecord& record) {
  std::string line;
  append_line(line, record);
  return line;
}

JournalRecord parse_line(const std::string& line) {
  std::istringstream in(line);
  std::string op_name;
  if (!(in >> op_name)) throw std::runtime_error("journal: empty record");
  JournalRecord record;
  bool known = false;
  for (const JournalOp op :
       {JournalOp::kSnapshot, JournalOp::kReserve, JournalOp::kReserveLeased,
        JournalOp::kRelease, JournalOp::kReleaseAmount,
        JournalOp::kRenewLease, JournalOp::kExpire, JournalOp::kRestart,
        JournalOp::kReplyCache}) {
    if (op_name == to_string(op)) {
      record.op = op;
      known = true;
      break;
    }
  }
  if (!known) throw std::runtime_error("journal: unknown op '" + op_name + "'");
  record.time = parse_double(in, "time");
  record.resource =
      ResourceId{static_cast<std::uint32_t>(parse_u64(in, "resource"))};
  if (record.op == JournalOp::kSnapshot) {
    if (!(in >> record.name))
      throw std::runtime_error("journal: bad snapshot name");
    record.capacity = parse_double(in, "capacity");
    record.alpha_window = parse_double(in, "alpha_window");
    record.history_keep = parse_double(in, "history_keep");
    record.alpha_mode =
        static_cast<AlphaMode>(parse_u64(in, "alpha_mode"));
    record.expiry_log_enabled = parse_u64(in, "expiry_log_enabled") != 0;
    record.expiry_log_capacity = parse_u64(in, "expiry_log_capacity");
    record.reserved = parse_double(in, "reserved");
    const std::uint64_t holdings = parse_u64(in, "holdings count");
    for (std::uint64_t i = 0; i < holdings; ++i) {
      const auto session =
          static_cast<std::uint32_t>(parse_u64(in, "holding session"));
      record.holdings.push_back(
          {session, parse_double(in, "holding amount")});
    }
    const std::uint64_t leases = parse_u64(in, "lease count");
    for (std::uint64_t i = 0; i < leases; ++i) {
      const auto session =
          static_cast<std::uint32_t>(parse_u64(in, "lease session"));
      record.lease_deadlines.push_back(
          {session, parse_double(in, "lease deadline")});
    }
    const std::uint64_t history = parse_u64(in, "history count");
    for (std::uint64_t i = 0; i < history; ++i) {
      const double time = parse_double(in, "history time");
      record.history.push_back({time, parse_double(in, "history value")});
    }
    return record;
  }
  if (record.op == JournalOp::kReplyCache) {
    record.request_id = parse_u64(in, "request id");
    record.grouped = parse_u64(in, "grouped flag") != 0;
    const std::uint64_t bytes = parse_u64(in, "reply byte count");
    std::string hex;
    if (bytes > 0 && !(in >> hex))
      throw std::runtime_error("journal: bad reply bytes");
    if (hex.size() != bytes * 2)
      throw std::runtime_error("journal: reply hex length mismatch");
    record.reply.reserve(bytes);
    const auto nibble = [](char c) -> int {
      if (c >= '0' && c <= '9') return c - '0';
      if (c >= 'a' && c <= 'f') return c - 'a' + 10;
      throw std::runtime_error("journal: bad reply hex digit");
    };
    for (std::uint64_t i = 0; i < bytes; ++i)
      record.reply.push_back(static_cast<std::uint8_t>(
          (nibble(hex[2 * i]) << 4) | nibble(hex[2 * i + 1])));
    return record;
  }
  record.session =
      SessionId{static_cast<std::uint32_t>(parse_u64(in, "session"))};
  record.amount = parse_double(in, "amount");
  record.lease = parse_double(in, "lease");
  return record;
}

// ---------------------------------------------------------------------------
// FileJournal

namespace {

/// Size of the mapped window mutation records are copied into, several
/// hundred records. A roll costs a posix_fallocate, an munmap and an
/// mmap; every page of the window a record touched stays resident until
/// the roll. On `durable` (18 journals) 64 KiB windows added 11% to peak
/// RSS against 5-7% at 32 KiB, for a few % more throughput.
constexpr std::uint64_t kWindowBytes = std::uint64_t{32} << 10;

/// Cuts the file back to `size` bytes.
bool cut_to(int fd, std::uint64_t size) {
  while (::ftruncate(fd, static_cast<off_t>(size)) != 0)
    if (errno != EINTR) return false;
  return true;
}

/// Cuts the bytes after the file's last newline and returns the size
/// left; -1 on an I/O error. append() stores the newline last, so those
/// bytes are a torn record that never became durable, or padding
/// reserved by a journal that was never closed.
off_t cut_torn_tail(int fd) {
  struct stat info {};
  if (::fstat(fd, &info) != 0) return -1;
  char buf[4096];
  off_t end = info.st_size;
  off_t keep = 0;
  while (end > 0 && keep == 0) {
    const off_t begin = std::max<off_t>(0, end - off_t{sizeof buf});
    const ssize_t got =
        ::pread(fd, buf, static_cast<std::size_t>(end - begin), begin);
    if (got < 0 && errno == EINTR) continue;
    if (got != end - begin) return -1;
    for (off_t i = got; i > 0 && keep == 0; --i)
      if (buf[i - 1] == '\n') keep = begin + i;
    end = begin;
  }
  if (keep != info.st_size &&
      !cut_to(fd, static_cast<std::uint64_t>(keep)))
    return -1;
  return keep;
}

}  // namespace

FileJournal::FileJournal(std::string path, bool truncate)
    : path_(std::move(path)),
      fd_(::open(path_.c_str(),
                 O_RDWR | O_CREAT | O_CLOEXEC | (truncate ? O_TRUNC : 0),
                 0644)) {
  if (fd_ < 0) throw std::runtime_error("FileJournal: cannot open " + path_);
  // Reopening after a crash mid-append: cut the torn final record so the
  // next append starts on a line of its own instead of gluing onto it.
  const off_t size = cut_torn_tail(fd_);
  if (size < 0) {
    ::close(fd_);
    throw std::runtime_error("FileJournal: cannot cut torn tail of " + path_);
  }
  MutexLock lock(mutex_);
  cursor_ = reserved_ = static_cast<std::uint64_t>(size);
}

FileJournal::~FileJournal() {
  MutexLock lock(mutex_);
  if (window_ != nullptr) ::munmap(window_, kWindowBytes);
  // Trim the reserved padding. A failed trim leaves NUL bytes after the
  // last newline, which read_file and a reopen already treat as a torn
  // tail, so no record is lost either way.
  (void)cut_to(fd_, cursor_);
  ::close(fd_);
}

JournalStatus FileJournal::append(const JournalRecord& record) {
  MutexLock lock(mutex_);
  line_.clear();
  append_line(line_, record);
  line_ += '\n';
  // Snapshots stay off the mapping: they are rare and large, and the
  // attach-time snapshot would otherwise map a window for every journal
  // at set-up.
  const bool stored = record.op == JournalOp::kSnapshot ? write_at_cursor()
                                                        : store_in_window();
  // A refused record is not durable and the counter must not claim it
  // is; the caller (ResourceBroker::journal_append) fails the operation.
  if (!stored) return JournalStatus::kWriteFailed;
  cursor_ += line_.size();
  reserved_ = std::max(reserved_, cursor_);
  ++appended_;
  return JournalStatus::kOk;
}

bool FileJournal::store_in_window() {
  const std::uint64_t bytes = line_.size();
  if (window_ == nullptr || cursor_ + bytes > window_offset_ + kWindowBytes) {
    const auto page = static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
    const std::uint64_t offset = cursor_ & ~(page - 1);
    if (cursor_ + bytes > offset + kWindowBytes) return write_at_cursor();
    // Reserve before mapping: a store into a page past the end of the
    // file, or into a hole the disk cannot fill, raises SIGBUS.
    const std::uint64_t end = offset + kWindowBytes;
    if (end > reserved_) {
      int error = 0;
      do {
        error = ::posix_fallocate(fd_, static_cast<off_t>(reserved_),
                                  static_cast<off_t>(end - reserved_));
      } while (error == EINTR);
      if (error != 0) return false;
      reserved_ = end;
    }
    if (window_ != nullptr) ::munmap(window_, kWindowBytes);
    void* window = ::mmap(nullptr, kWindowBytes, PROT_READ | PROT_WRITE,
                          MAP_SHARED, fd_, static_cast<off_t>(offset));
    window_ = window == MAP_FAILED ? nullptr : static_cast<char*>(window);
    if (window_ == nullptr) return false;
    window_offset_ = offset;
  }
  // The newline is the record's commit mark: store it only after every
  // other byte, so a process killed mid-copy leaves a torn tail, never a
  // whole line holding part of a record.
  char* at = window_ + (cursor_ - window_offset_);
  std::memcpy(at, line_.data(), bytes - 1);
  std::atomic_signal_fence(std::memory_order_release);
  at[bytes - 1] = '\n';
  return true;
}

bool FileJournal::write_at_cursor() {
  // A partial write is continued and EINTR retried. A refused write may
  // leave part of the line past the cursor, without its newline; the
  // cursor does not move, so the next record overwrites it.
  const char* data = line_.data();
  std::size_t left = line_.size();
  auto at = static_cast<off_t>(cursor_);
  while (left > 0) {
    const ssize_t written = ::pwrite(fd_, data, left, at);
    if (written < 0 && errno == EINTR) continue;
    if (written <= 0) return false;
    data += written;
    left -= static_cast<std::size_t>(written);
    at += written;
  }
  return true;
}

std::uint64_t FileJournal::appended() const {
  MutexLock lock(mutex_);
  return appended_;
}

std::vector<JournalRecord> FileJournal::load() const {
  MutexLock lock(mutex_);
  return read_file(path_);
}

std::vector<JournalRecord> FileJournal::read_file(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file)
    throw std::runtime_error("FileJournal: cannot open " + path);
  std::vector<JournalRecord> records;
  std::string line;
  std::size_t line_number = 1;
  // The line holding the first NUL byte, 0 while none was seen. A NUL
  // starts the reserved padding unless a newline follows it; the line's
  // bytes are not kept past it, so the padding is scanned, not stored.
  std::size_t nul_line = 0;
  char buf[1 << 16];
  while (file.read(buf, sizeof buf) || file.gcount() > 0) {
    const char* at = buf;
    const char* const end = buf + file.gcount();
    while (at != end) {
      const auto* newline = static_cast<const char*>(
          std::memchr(at, '\n', static_cast<std::size_t>(end - at)));
      const char* const stop = newline != nullptr ? newline : end;
      if (nul_line == 0) {
        if (std::memchr(at, '\0', static_cast<std::size_t>(stop - at)) !=
            nullptr)
          nul_line = line_number;
        else
          line.insert(line.end(), at, stop);
      }
      if (newline == nullptr) break;
      at = newline + 1;
      if (nul_line != 0)
        throw std::runtime_error(path + ":" + std::to_string(nul_line) +
                                 ": journal: NUL byte in record");
      // append() stores the newline last, so it is the record's commit
      // mark: bytes after the last one are a torn append that never
      // became durable (the same legal loss MemoryJournal::drop_tail
      // models), and they are never parsed.
      if (!line.empty() && line[0] != '#') {
        try {
          records.push_back(parse_line(line));
        } catch (const std::exception& error) {
          throw std::runtime_error(path + ":" + std::to_string(line_number) +
                                   ": " + error.what());
        }
      }
      line.clear();
      ++line_number;
    }
  }
  return records;
}

std::vector<JournalRecord> filter_journal(
    const std::vector<JournalRecord>& records, ResourceId resource) {
  std::vector<JournalRecord> filtered;
  for (const JournalRecord& record : records)
    if (record.resource == resource) filtered.push_back(record);
  return filtered;
}

}  // namespace qres
