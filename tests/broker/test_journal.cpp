// Write-ahead journal and crash–restart durability of ResourceBroker
// (DESIGN.md §9): serialization round trips and pinned text, snapshot
// compaction, FileJournal's torn-write cut-back and concurrent appends,
// lost-tail crash model, bit-identical recovery, restart lease grace,
// the bounded expiry log, and the lease boundary convention
// (deadline <= now expires — expiry wins the exact-deadline tie, and
// renew_lease sweeps due leases first, so a renewal racing expiry at the
// same tick fails).
#include "broker/journal.hpp"

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "broker/resource_broker.hpp"
#include "util/assert.hpp"

namespace qres {
namespace {

const ResourceId rid{0};
const SessionId s1{1}, s2{2}, s3{3}, s4{4};

ResourceBroker make(double capacity = 100.0) {
  return ResourceBroker(rid, "cpu", capacity);
}

// --- Record serialization -------------------------------------------------

TEST(Journal, ToLineParseLineRoundTripsMutations) {
  JournalRecord rec;
  rec.op = JournalOp::kReserveLeased;
  rec.time = 1.0 / 3.0;  // 17-digit round trip must be exact
  rec.resource = ResourceId{7};
  rec.session = SessionId{42};
  rec.amount = 12.345678901234567;
  rec.lease = 6.25;
  const JournalRecord parsed = parse_line(to_line(rec));
  EXPECT_EQ(to_line(parsed), to_line(rec));
  EXPECT_EQ(parsed.op, JournalOp::kReserveLeased);
  EXPECT_EQ(parsed.time, rec.time);
  EXPECT_EQ(parsed.session, rec.session);
  EXPECT_EQ(parsed.amount, rec.amount);
  EXPECT_EQ(parsed.lease, rec.lease);
}

TEST(Journal, ToLineParseLineRoundTripsSnapshots) {
  ResourceBroker broker = make();
  ASSERT_TRUE(broker.reserve(0.5, s1, 10.0 / 3.0));
  ASSERT_TRUE(broker.reserve_leased(1.0, s2, 20.0, 5.0));
  const JournalRecord snap = broker.snapshot(2.0);
  const JournalRecord parsed = parse_line(to_line(snap));
  EXPECT_EQ(to_line(parsed), to_line(snap));
  EXPECT_EQ(parsed.holdings, snap.holdings);
  EXPECT_EQ(parsed.lease_deadlines, snap.lease_deadlines);
  EXPECT_EQ(parsed.history, snap.history);
  EXPECT_EQ(parsed.capacity, snap.capacity);
}

JournalRecord mutation(JournalOp op, double time, ResourceId resource,
                       SessionId session, double amount, double lease) {
  JournalRecord record;
  record.op = op;
  record.time = time;
  record.resource = resource;
  record.session = session;
  record.amount = amount;
  record.lease = lease;
  return record;
}

JournalRecord pinned_snapshot() {
  JournalRecord record;
  record.op = JournalOp::kSnapshot;
  record.time = -0.0;
  record.resource = ResourceId{3};
  record.name = "cpu";
  record.capacity = 100.0;
  record.alpha_window = 0.1;
  record.history_keep = 1e300;
  record.alpha_mode = AlphaMode::kReportBased;
  record.expiry_log_enabled = true;
  record.expiry_log_capacity = 64;
  record.reserved = 1.0 / 3;
  record.holdings = {{1, 10.0}, {2, 0.1}};
  record.lease_deadlines = {{2, 25.5}};
  record.history = {{0.0, 100.0}, {1.5, 5e-324}};
  return record;
}

JournalRecord reply_record(std::uint64_t request_id, bool grouped,
                           std::vector<std::uint8_t> bytes) {
  JournalRecord record;
  record.op = JournalOp::kReplyCache;
  record.time = 2.0;
  record.resource = ResourceId{5};
  record.request_id = request_id;
  record.grouped = grouped;
  record.reply = std::move(bytes);
  return record;
}

TEST(Journal, LineTextIsPinned) {
  // The journal text is a persistent and wire format: replication ships
  // it (JournalShip) and recovery compares snapshots by it. These lines
  // are literal, so any change to the serializer's output shows here.
  const ResourceId invalid;  // prints as 4294967295
  EXPECT_EQ(to_line(pinned_snapshot()),
            "snapshot -0 3 cpu 100 0.10000000000000001 "
            "1.0000000000000001e+300 1 1 64 0.33333333333333331 2 1 10 2 "
            "0.10000000000000001 1 2 25.5 2 0 100 1.5 "
            "4.9406564584124654e-324");
  EXPECT_EQ(to_line(mutation(JournalOp::kReserve, 0.1, invalid, SessionId{7},
                             1.0 / 3, 0.0)),
            "reserve 0.10000000000000001 4294967295 7 0.33333333333333331 0");
  EXPECT_EQ(to_line(mutation(JournalOp::kReserveLeased, 1e300, ResourceId{0},
                             SessionId{8}, 5e-324, -0.0)),
            "reserve-leased 1.0000000000000001e+300 0 8 "
            "4.9406564584124654e-324 -0");
  EXPECT_EQ(to_line(mutation(JournalOp::kRelease, 12.0, ResourceId{1},
                             SessionId{7}, 0.0, 0.0)),
            "release 12 1 7 0 0");
  EXPECT_EQ(to_line(mutation(JournalOp::kReleaseAmount, 12.5, ResourceId{1},
                             SessionId{8}, 2.5, 0.0)),
            "release-amount 12.5 1 8 2.5 0");
  EXPECT_EQ(to_line(mutation(JournalOp::kRenewLease, 13.0, ResourceId{2},
                             SessionId{9}, 0.0, 6.25)),
            "renew-lease 13 2 9 0 6.25");
  EXPECT_EQ(to_line(mutation(JournalOp::kExpire, 1e-7, ResourceId{2},
                             SessionId{9}, 40.0, 0.0)),
            "expire 9.9999999999999995e-08 2 9 40 0");
  EXPECT_EQ(to_line(mutation(JournalOp::kRestart, 123456789.125,
                             ResourceId{2}, SessionId{}, 0.0, 4.0)),
            "restart 123456789.125 2 4294967295 0 4");
  EXPECT_EQ(to_line(reply_record(std::numeric_limits<std::uint64_t>::max(),
                                 true, {0x00, 0x7f, 0xde, 0xad, 0xff})),
            "reply-cache 2 5 18446744073709551615 1 5 007fdeadff");
  EXPECT_EQ(to_line(reply_record(1, false, {})), "reply-cache 2 5 1 0 0 ");
}

/// Bit-exact equality, so -0.0 and 0.0 differ.
testing::AssertionResult same_bits(double a, double b) {
  if (std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b))
    return testing::AssertionSuccess();
  return testing::AssertionFailure()
         << std::bit_cast<std::uint64_t>(a) << " became "
         << std::bit_cast<std::uint64_t>(b);
}

TEST(Journal, LineRoundTripsBitExact) {
  // Every finite double, subnormals and signed zero included, must come
  // back bit for bit: recovery compares brokers by exact equality.
  std::vector<double> values = {
      0.0, -0.0, 0.1, 1.0 / 3, 1e300, -1e300,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::nextafter(std::numeric_limits<double>::min(), 0.0),
      std::numeric_limits<double>::min(), std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest()};
  std::mt19937_64 rng(14);
  while (values.size() < 60000) {
    std::uint64_t bits = rng();
    switch (values.size() % 4) {
      case 0: bits &= ~(std::uint64_t{0x7ff} << 52); break;  // subnormal
      case 1: bits = (bits >> 40) << 40; break;  // short mantissa
      default: break;
    }
    const double x = std::bit_cast<double>(bits);
    if (std::isfinite(x)) values.push_back(x);
  }
  for (std::size_t i = 0; i + 2 < values.size(); i += 3) {
    const JournalRecord record =
        mutation(JournalOp::kReserveLeased, values[i], ResourceId{1},
                 SessionId{2}, values[i + 1], values[i + 2]);
    const std::string line = to_line(record);
    const JournalRecord parsed = parse_line(line);
    ASSERT_TRUE(same_bits(record.time, parsed.time)) << line;
    ASSERT_TRUE(same_bits(record.amount, parsed.amount)) << line;
    ASSERT_TRUE(same_bits(record.lease, parsed.lease)) << line;
  }
  for (std::size_t i = 0; i + 9 < values.size(); i += 10) {
    JournalRecord record = pinned_snapshot();
    record.time = values[i];
    record.capacity = values[i + 1];
    record.alpha_window = values[i + 2];
    record.history_keep = values[i + 3];
    record.reserved = values[i + 4];
    record.holdings = {{1, values[i + 5]}};
    record.lease_deadlines = {{1, values[i + 6]}};
    record.history = {{values[i + 7], values[i + 8]}, {1.0, values[i + 9]}};
    const std::string line = to_line(record);
    const JournalRecord parsed = parse_line(line);
    ASSERT_TRUE(same_bits(record.time, parsed.time)) << line;
    ASSERT_TRUE(same_bits(record.capacity, parsed.capacity)) << line;
    ASSERT_TRUE(same_bits(record.alpha_window, parsed.alpha_window)) << line;
    ASSERT_TRUE(same_bits(record.history_keep, parsed.history_keep)) << line;
    ASSERT_TRUE(same_bits(record.reserved, parsed.reserved)) << line;
    ASSERT_EQ(parsed.holdings.size(), 1u) << line;
    ASSERT_TRUE(same_bits(record.holdings[0].second,
                          parsed.holdings[0].second)) << line;
    ASSERT_EQ(parsed.lease_deadlines.size(), 1u) << line;
    ASSERT_TRUE(same_bits(record.lease_deadlines[0].second,
                          parsed.lease_deadlines[0].second)) << line;
    ASSERT_EQ(parsed.history.size(), 2u) << line;
    ASSERT_TRUE(same_bits(record.history[0].first, parsed.history[0].first))
        << line;
    ASSERT_TRUE(same_bits(record.history[0].second,
                          parsed.history[0].second)) << line;
    ASSERT_TRUE(same_bits(record.history[1].second,
                          parsed.history[1].second)) << line;
  }
}

TEST(Journal, ParseLineRejectsMalformedInput) {
  EXPECT_THROW(parse_line("not a journal record"), std::runtime_error);
  EXPECT_THROW(parse_line(""), std::runtime_error);
}

// --- Sinks ----------------------------------------------------------------

TEST(Journal, AttachAppendsInitialSnapshot) {
  MemoryJournal journal;
  ResourceBroker broker = make();
  ASSERT_TRUE(broker.reserve(0.5, s1, 25.0));
  broker.attach_journal(&journal, 64, 1.0);
  ASSERT_EQ(journal.records().size(), 1u);
  EXPECT_EQ(journal.records()[0].op, JournalOp::kSnapshot);
  // The initial snapshot alone must already be enough to recover.
  const ResourceBroker recovered = ResourceBroker::recover(journal.records());
  EXPECT_EQ(to_line(recovered.snapshot(1.0)), to_line(broker.snapshot(1.0)));
}

TEST(Journal, SnapshotCompactionEverySnapshotEveryMutations) {
  MemoryJournal journal;  // compacting (the default)
  ResourceBroker broker = make();
  broker.attach_journal(&journal, 4, 0.0);
  for (int i = 1; i <= 8; ++i)
    ASSERT_TRUE(broker.reserve(static_cast<double>(i),
                               SessionId{static_cast<std::uint32_t>(i)}, 2.0));
  // attach snapshot + 8 mutations + a compacting snapshot after every 4th.
  EXPECT_EQ(journal.appended(), 11u);
  EXPECT_EQ(journal.snapshots(), 3u);
  // Each compaction drops everything before the new snapshot; the 8th
  // mutation triggered one, so exactly the last snapshot is retained.
  EXPECT_EQ(journal.compacted_away(), 10u);
  ASSERT_EQ(journal.records().size(), 1u);
  EXPECT_EQ(journal.records()[0].op, JournalOp::kSnapshot);
  const ResourceBroker recovered = ResourceBroker::recover(journal.records());
  EXPECT_EQ(to_line(recovered.snapshot(8.0)), to_line(broker.snapshot(8.0)));
}

TEST(Journal, CompactionRetainsReplyCacheRecords) {
  // Regression for the double grant qres_mc found on `crashy`: restart()
  // appends a snapshot, and compaction used to wipe the kReplyCache
  // records before BrokerService::rebuild_dedup could read them — a
  // retried request then re-executed on top of the restored holding.
  // Compaction must carry the newest reply records across the barrier
  // (ungrouped: behind a snapshot they are fsynced state).
  MemoryJournal journal;  // compacting (the default)
  ResourceBroker broker = make();
  broker.attach_journal(&journal, 64, 0.0);
  ASSERT_TRUE(broker.reserve(1.0, s1, 10.0));
  JournalRecord reply;
  reply.op = JournalOp::kReplyCache;
  reply.resource = rid;
  reply.request_id = 77;
  reply.grouped = true;
  reply.reply = {0xde, 0xad};
  EXPECT_EQ(journal.append(reply), JournalStatus::kOk);
  // The compaction barrier.
  EXPECT_EQ(journal.append(broker.snapshot(2.0)), JournalStatus::kOk);

  int reply_records = 0;
  for (const JournalRecord& record : journal.records())
    if (record.op == JournalOp::kReplyCache) {
      ++reply_records;
      EXPECT_EQ(record.request_id, 77u);
      EXPECT_EQ(record.reply, (std::vector<std::uint8_t>{0xde, 0xad}));
      EXPECT_FALSE(record.grouped);  // no longer tied to a compacted mutation
    }
  EXPECT_EQ(reply_records, 1);
  EXPECT_EQ(journal.records().back().op, JournalOp::kSnapshot);
  // Retained replies sit ahead of the snapshot, and recovery (which only
  // reads broker state) is undisturbed by them.
  const ResourceBroker recovered = ResourceBroker::recover(journal.records());
  EXPECT_EQ(recovered.held_by(s1), 10.0);
}

TEST(Journal, CompactionBoundsRetainedReplyRecords) {
  MemoryJournal journal(/*compact_on_snapshot=*/true, /*reply_cache_keep=*/2);
  ResourceBroker broker = make();
  broker.attach_journal(&journal, 64, 0.0);
  for (std::uint64_t id = 1; id <= 5; ++id) {
    JournalRecord reply;
    reply.op = JournalOp::kReplyCache;
    reply.resource = rid;
    reply.request_id = id;
    EXPECT_EQ(journal.append(reply), JournalStatus::kOk);
  }
  EXPECT_EQ(journal.append(broker.snapshot(1.0)), JournalStatus::kOk);
  // Only the newest two reply records survive the compaction.
  std::vector<std::uint64_t> kept;
  for (const JournalRecord& record : journal.records())
    if (record.op == JournalOp::kReplyCache)
      kept.push_back(record.request_id);
  EXPECT_EQ(kept, (std::vector<std::uint64_t>{4, 5}));
}

TEST(Journal, DropTailKeepsGroupedReplyAtomicWithItsMutation) {
  MemoryJournal journal(/*compact_on_snapshot=*/false);
  ResourceBroker broker = make();
  broker.attach_journal(&journal, 64, 0.0);
  ASSERT_TRUE(broker.reserve(1.0, s1, 10.0));
  JournalRecord reply;
  reply.op = JournalOp::kReplyCache;
  reply.resource = rid;
  reply.request_id = 5;
  reply.grouped = true;
  // Journal now: snapshot, kReserve, grouped kReplyCache.
  EXPECT_EQ(journal.append(reply), JournalStatus::kOk);

  // A tail budget of 1 would split the group: the whole pair is kept
  // (keeping more of the tail is always a legal crash outcome).
  EXPECT_EQ(journal.drop_tail(1), 0u);
  ASSERT_EQ(journal.records().size(), 3u);
  // A budget of 2 drops the pair atomically.
  EXPECT_EQ(journal.drop_tail(2), 2u);
  ASSERT_EQ(journal.records().size(), 1u);
  EXPECT_EQ(journal.records()[0].op, JournalOp::kSnapshot);
}

TEST(Journal, DropTailStopsAtNewestSnapshot) {
  MemoryJournal journal(/*compact_on_snapshot=*/false);
  ResourceBroker broker = make();
  broker.attach_journal(&journal, 64, 0.0);
  ASSERT_TRUE(broker.reserve(1.0, s1, 10.0));
  ASSERT_TRUE(broker.reserve(2.0, s2, 20.0));
  ASSERT_TRUE(broker.reserve(3.0, s3, 30.0));
  ASSERT_EQ(journal.records().size(), 4u);  // snapshot + 3 mutations
  // Asking for more than the un-fsynced tail drops only the mutations:
  // the snapshot is the fsync barrier and can never be lost.
  EXPECT_EQ(journal.drop_tail(100), 3u);
  ASSERT_EQ(journal.records().size(), 1u);
  EXPECT_EQ(journal.records()[0].op, JournalOp::kSnapshot);
  EXPECT_EQ(journal.drop_tail(1), 0u);
}

TEST(Journal, DropTailDropsExactlyTheRequestedCount) {
  MemoryJournal journal(/*compact_on_snapshot=*/false);
  ResourceBroker broker = make();
  broker.attach_journal(&journal, 64, 0.0);
  ASSERT_TRUE(broker.reserve(1.0, s1, 10.0));
  ASSERT_TRUE(broker.reserve(2.0, s2, 20.0));
  EXPECT_EQ(journal.drop_tail(1), 1u);
  // The surviving prefix replays to the state before the lost record.
  const ResourceBroker recovered = ResourceBroker::recover(journal.records());
  EXPECT_EQ(recovered.held_by(s1), 10.0);
  EXPECT_EQ(recovered.held_by(s2), 0.0);
}

TEST(Journal, FileJournalRoundTripsThroughDisk) {
  const std::string path = "test_journal_file_roundtrip.wal";
  ResourceBroker broker = make();
  {
    FileJournal journal(path);  // truncate
    broker.attach_journal(&journal, 64, 0.0);
    ASSERT_TRUE(broker.reserve(1.0, s1, 10.0));
    ASSERT_TRUE(broker.reserve_leased(2.0, s2, 20.0, 5.0));
    broker.release_amount(3.0, s1, 4.0);
  }
  const std::vector<JournalRecord> records = FileJournal::read_file(path);
  ASSERT_GE(records.size(), 4u);
  const ResourceBroker recovered = ResourceBroker::recover(records);
  EXPECT_EQ(to_line(recovered.snapshot(3.0)), to_line(broker.snapshot(3.0)));
  std::remove(path.c_str());
}

TEST(Journal, ReadFileRejectsMalformedLines) {
  const std::string path = "test_journal_malformed.wal";
  {
    std::ofstream file(path);
    file << "this is not a journal record\n";
  }
  EXPECT_THROW(FileJournal::read_file(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Journal, ReadFileDropsATornFinalRecord) {
  // A crash mid-append leaves the last record without its newline. Every
  // such cut must recover exactly the records before it — never throw,
  // never parse a truncated value (a lease of 10.5 read as 10).
  const std::string path = "test_journal_torn_tail.wal";
  {
    FileJournal journal(path);
    ResourceBroker broker = make();
    broker.attach_journal(&journal, 64, 0.0);
    ASSERT_TRUE(broker.reserve(1.0, s1, 10.0));
    ASSERT_TRUE(broker.reserve_leased(2.0, s2, 20.0, 10.5));
  }
  std::string content;
  {
    std::ifstream file(path);
    content.assign(std::istreambuf_iterator<char>(file),
                   std::istreambuf_iterator<char>());
  }
  const std::vector<JournalRecord> all = FileJournal::read_file(path);
  ASSERT_EQ(all.size(), 3u);
  ASSERT_EQ(content.back(), '\n');
  const std::size_t last_length =
      content.size() - 1 - content.rfind('\n', content.size() - 2);
  const auto write = [&path](const std::string& text) {
    std::ofstream file(path, std::ios::trunc);
    file << text;
  };
  for (std::size_t cut = 1; cut <= last_length; ++cut) {
    write(content.substr(0, content.size() - cut));
    std::vector<JournalRecord> records;
    ASSERT_NO_THROW(records = FileJournal::read_file(path)) << "cut " << cut;
    ASSERT_EQ(records.size(), 2u) << "cut " << cut;
    for (std::size_t i = 0; i < records.size(); ++i)
      EXPECT_EQ(to_line(records[i]), to_line(all[i])) << "cut " << cut;
    const ResourceBroker recovered = ResourceBroker::recover(records);
    EXPECT_EQ(recovered.held_by(s1), 10.0) << "cut " << cut;
    EXPECT_EQ(recovered.held_by(s2), 0.0) << "cut " << cut;
  }
  // A live or killed journal ends in reserved NUL padding, after a torn
  // record or right after the last newline: never a record.
  for (const std::size_t cut : {std::size_t{0}, last_length / 2}) {
    write(content.substr(0, content.size() - cut) +
          std::string(std::size_t{3} << 20, '\0'));
    std::vector<JournalRecord> records;
    ASSERT_NO_THROW(records = FileJournal::read_file(path)) << "cut " << cut;
    EXPECT_EQ(records.size(), cut == 0 ? 3u : 2u) << "cut " << cut;
  }
  // Corruption anywhere before the final newline is not a torn append: a
  // garbage line or a NUL byte throws, naming its line.
  const std::string head = content.substr(0, content.size() - last_length);
  const std::string tail = content.substr(content.size() - last_length);
  for (const std::string& bad :
       {std::string("garbage\n"), std::string("\0\n", 2),
        std::string("reserve\0 1 0 1 1 0\n", 20),
        std::string(100000, '\0') + "\n"}) {
    write(head + bad + tail);
    try {
      (void)FileJournal::read_file(path);
      ADD_FAILURE() << "no throw for " << bad.size() << " corrupt bytes";
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find(path + ":3: "),
                std::string::npos)
          << error.what();
    }
  }
  std::remove(path.c_str());
}

TEST(Journal, ReadFileOfALiveJournalReturnsExactlyTheAppendedRecords) {
  // An open journal's file runs past its last record into reserved
  // padding; reading it (perfbench's recovery check, `qresctl journal`)
  // must see exactly the records appended so far, before and after the
  // mapped window rolls.
  const std::string path = "test_journal_live_read.wal";
  std::vector<std::string> appended;
  FileJournal journal(path);
  const auto append_and_read = [&](std::uint32_t count) {
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::uint32_t n = static_cast<std::uint32_t>(appended.size());
      JournalRecord record =
          n % 50 == 0 ? pinned_snapshot()
                      : mutation(JournalOp::kReserveLeased, n / 4.0, rid,
                                 SessionId{n}, 1.0 + n / 9.0, 5.0);
      ASSERT_EQ(journal.append(record), JournalStatus::kOk);
      appended.push_back(to_line(record));
    }
    std::vector<JournalRecord> records;
    ASSERT_NO_THROW(records = FileJournal::read_file(path));
    ASSERT_EQ(records.size(), appended.size());
    for (std::size_t i = 0; i < records.size(); ++i)
      ASSERT_EQ(to_line(records[i]), appended[i]) << "record " << i;
    ASSERT_EQ(journal.load().size(), appended.size());
  };
  append_and_read(1);  // the snapshot only: nothing mapped yet
  append_and_read(20);
  struct stat info {};
  ASSERT_EQ(::stat(path.c_str(), &info), 0);
  const auto reserved = static_cast<std::uint64_t>(info.st_size);
  std::uint64_t written = 0;
  for (const std::string& line : appended) written += line.size() + 1;
  ASSERT_GT(reserved, written);  // the padding is there
  // Well past the first reservation: several window rolls.
  append_and_read(static_cast<std::uint32_t>(3 * reserved / 40));
  written = 0;
  for (const std::string& line : appended) written += line.size() + 1;
  ASSERT_GT(written, 3 * reserved);
  std::remove(path.c_str());
}

TEST(Journal, ReopenCutsATornTailBeforeAppending) {
  // A journal reopened for appending after a crash mid-append must not
  // glue its next record onto the torn line: the torn record is dropped
  // (a legal loss) and everything else stays recoverable.
  const std::string path = "test_journal_reopen_torn.wal";
  {
    FileJournal journal(path);
    ResourceBroker broker = make();
    broker.attach_journal(&journal, 64, 0.0);
    ASSERT_TRUE(broker.reserve(1.0, s1, 10.0));
    ASSERT_TRUE(broker.reserve(2.0, s2, 20.0));
  }
  std::string content;
  {
    std::ifstream file(path);
    content.assign(std::istreambuf_iterator<char>(file),
                   std::istreambuf_iterator<char>());
  }
  ASSERT_EQ(FileJournal::read_file(path).size(), 3u);
  {
    std::ofstream file(path, std::ios::trunc);
    file << content.substr(0, content.size() - 3);
  }
  JournalRecord extra;
  extra.op = JournalOp::kRelease;
  extra.time = 3.0;
  extra.resource = rid;
  extra.session = s1;
  {
    FileJournal journal(path, /*truncate=*/false);
    ASSERT_EQ(journal.append(extra), JournalStatus::kOk);
  }
  std::vector<JournalRecord> records;
  ASSERT_NO_THROW(records = FileJournal::read_file(path));
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(to_line(records.back()), to_line(extra));
  const ResourceBroker recovered = ResourceBroker::recover(records);
  EXPECT_EQ(recovered.held_by(s1), 0.0);
  EXPECT_EQ(recovered.held_by(s2), 0.0);
  std::remove(path.c_str());
}

TEST(Journal, ShortWriteLeavesNoTornBytes) {
  // A write the kernel refuses or cuts short (here: a file-size limit)
  // must leave no partial line behind, or the next append is glued onto
  // it and the whole journal stops parsing. The journal reserves file
  // space ahead of its cursor, so the limit is set at the end of that
  // reservation and records are appended until one is refused: a mutation
  // that needs a new window (refused at the reservation, before any byte
  // is stored) or a snapshot written across the limit (cut short). The
  // limit and the SIGXFSZ disposition are process-wide, so the appends
  // run in a forked child, which reports how many of them landed through
  // a pipe.
  const std::string path = "test_journal_short_write.wal";
  const JournalRecord last = mutation(JournalOp::kReserve, 1e6, rid, s2,
                                      20.0, 0.0);
  constexpr std::uint32_t kMaxAppends = 1u << 20;
  for (const bool snapshots : {false, true}) {
    SCOPED_TRACE(snapshots ? "snapshots" : "mutations");
    // The first record is a mutation either way: it maps the first
    // window, which reserves the space the limit is set at.
    const auto record = [snapshots](std::uint32_t i) {
      if (!snapshots || i == 0)
        return mutation(i % 2 == 0 ? JournalOp::kReserve : JournalOp::kRelease,
                        1.0 + i / 8.0, rid, SessionId{i}, 10.0 + i / 3.0, 0.0);
      JournalRecord snapshot = pinned_snapshot();
      snapshot.time = i;
      for (std::uint32_t k = 0; k < 100; ++k)
        snapshot.history.push_back({i + k / 7.0, 100.0 - k / 3.0});
      return snapshot;
    };
    int report[2];
    ASSERT_EQ(::pipe(report), 0);
    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
      ::close(report[0]);
      int code = 0;
      std::uint32_t accepted = 0;
      {
        FileJournal journal(path);
        struct stat info {};
        rlimit saved {};
        if (journal.append(record(accepted)) != JournalStatus::kOk) code = 1;
        ++accepted;
        if (code == 0 && (::stat(path.c_str(), &info) != 0 ||
                          ::getrlimit(RLIMIT_FSIZE, &saved) != 0))
          code = 2;
        if (code == 0) {
          ::signal(SIGXFSZ, SIG_IGN);
          rlimit low = saved;
          low.rlim_cur = static_cast<rlim_t>(info.st_size);
          if (::setrlimit(RLIMIT_FSIZE, &low) != 0) code = 3;
        }
        while (code == 0 &&
               journal.append(record(accepted)) == JournalStatus::kOk)
          if (++accepted == kMaxAppends) code = 4;  // nothing was refused
        if (code == 0 && ::setrlimit(RLIMIT_FSIZE, &saved) != 0) code = 5;
        if (code == 0 && journal.append(last) != JournalStatus::kOk)
          code = 6;
        if (code == 0 && journal.appended() != accepted + 1u) code = 7;
      }
      if (::write(report[1], &accepted, sizeof accepted) != sizeof accepted)
        code = 8;
      ::_exit(code);
    }
    ::close(report[1]);
    std::uint32_t accepted = 0;
    ASSERT_EQ(::read(report[0], &accepted, sizeof accepted),
              static_cast<ssize_t>(sizeof accepted));
    ::close(report[0]);
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFEXITED(status));
    ASSERT_EQ(WEXITSTATUS(status), 0);
    ASSERT_GT(accepted, 1u);
    std::string expected;
    for (std::uint32_t i = 0; i < accepted; ++i)
      expected += to_line(record(i)) + "\n";
    expected += to_line(last) + "\n";
    std::string content;
    {
      std::ifstream file(path);
      content.assign(std::istreambuf_iterator<char>(file),
                     std::istreambuf_iterator<char>());
    }
    EXPECT_EQ(content, expected);
    std::vector<JournalRecord> records;
    ASSERT_NO_THROW(records = FileJournal::read_file(path));
    ASSERT_EQ(records.size(), accepted + 1u);
    EXPECT_EQ(to_line(records.front()), to_line(record(0)));
    EXPECT_EQ(to_line(records.back()), to_line(last));
  }
  std::remove(path.c_str());
}

TEST(Journal, KilledAppenderLeavesAWholePrefix) {
  // A forked child journals a seeded broker workload (mutations and a
  // snapshot every 40 of them, several windows' worth) and is
  // SIGKILLed at seeded delays. Whatever instruction the kill lands on,
  // the file must hold exactly the first k records, and a reopened
  // journal must cut the torn tail and padding and append record k+1
  // cleanly. SIGKILL keeps the page cache, mapped pages included, so
  // this checks record order and framing, not power loss, which cannot
  // be simulated in a test.
  const std::string path = "test_journal_killed.wal";
  constexpr std::uint32_t kOps = 8000;
  constexpr std::size_t kSnapshotEvery = 40;
  const auto drive = [](ResourceBroker& broker) {
    std::mt19937_64 rng(17);
    std::vector<SessionId> held;
    for (std::uint32_t i = 1; i <= kOps; ++i) {
      if (held.size() < 8 && rng() % 3 != 0) {
        held.push_back(SessionId{i});
        QRES_REQUIRE(broker.reserve(i, held.back(), 1.0 + rng() % 10),
                     "reserve refused");
      } else if (!held.empty()) {
        broker.release(i, held.front());
        held.erase(held.begin());
      }
    }
  };
  std::vector<std::string> expected;
  {
    MemoryJournal memory(/*compact_on_snapshot=*/false);
    ResourceBroker broker = make();
    broker.attach_journal(&memory, kSnapshotEvery, 0.0);
    drive(broker);
    for (const JournalRecord& record : memory.records())
      expected.push_back(to_line(record));
  }
  std::uint64_t total_bytes = 0;
  for (const std::string& line : expected) total_bytes += line.size() + 1;
  ASSERT_GT(total_bytes, std::uint64_t{256} << 10);  // 8+ 32 KiB windows

  // Runs the child; kills it `delay` after it attached its journal, or
  // lets it finish when `delay` is negative. Returns how long it ran.
  const auto run_child = [&](std::chrono::microseconds delay) {
    int ready[2];
    EXPECT_EQ(::pipe(ready), 0);
    const pid_t child = ::fork();
    if (child == 0) {
      ::close(ready[0]);
      FileJournal journal(path);
      ResourceBroker broker = make();
      broker.attach_journal(&journal, kSnapshotEvery, 0.0);
      const char byte = 1;
      if (::write(ready[1], &byte, 1) != 1) ::_exit(1);
      drive(broker);
      ::_exit(0);  // the journal is never closed: padding stays
    }
    EXPECT_GT(child, 0);
    ::close(ready[1]);
    char byte = 0;
    EXPECT_EQ(::read(ready[0], &byte, 1), 1);
    ::close(ready[0]);
    const auto start = std::chrono::steady_clock::now();
    if (delay.count() >= 0) {
      std::this_thread::sleep_for(delay);
      ::kill(child, SIGKILL);
    }
    int status = 0;
    EXPECT_EQ(::waitpid(child, &status, 0), child);
    // Killed, or done before the kill landed; never SIGBUS or an abort.
    EXPECT_TRUE((WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL &&
                 delay.count() >= 0) ||
                (WIFEXITED(status) && WEXITSTATUS(status) == 0))
        << "status " << status;
    return std::chrono::duration_cast<std::chrono::microseconds>(
        std::chrono::steady_clock::now() - start);
  };

  // One uninterrupted run sizes the kill delays to this build's speed.
  const std::chrono::microseconds full =
      run_child(std::chrono::microseconds(-1));
  ASSERT_EQ(FileJournal::read_file(path).size(), expected.size());
  std::mt19937_64 rng(3);
  std::uint32_t mid_run = 0;
  for (int kill = 0; kill < 20; ++kill) {
    const auto delay = std::chrono::microseconds(
        static_cast<std::int64_t>(rng() % (full.count() + 1)));
    SCOPED_TRACE("kill " + std::to_string(kill) + " after " +
                 std::to_string(delay.count()) + " us");
    run_child(delay);
    std::vector<JournalRecord> records;
    ASSERT_NO_THROW(records = FileJournal::read_file(path));
    const std::size_t k = records.size();
    ASSERT_GE(k, 1u);  // the attach-time snapshot precedes the ready byte
    ASSERT_LE(k, expected.size());
    for (std::size_t i = 0; i < k; ++i)
      ASSERT_EQ(to_line(records[i]), expected[i]) << "record " << i;
    std::uint64_t kept_bytes = 0;
    for (std::size_t i = 0; i < k; ++i) kept_bytes += expected[i].size() + 1;
    if (k < expected.size() && kept_bytes > (std::uint64_t{64} << 10))
      ++mid_run;

    const ResourceBroker before = ResourceBroker::recover(records);
    const JournalRecord extra =
        mutation(JournalOp::kReserve, kOps + 1.0, rid, SessionId{kOps + 1},
                 before.available() / 2, 0.0);
    {
      FileJournal reopened(path, /*truncate=*/false);
      ASSERT_EQ(reopened.append(extra), JournalStatus::kOk);
    }
    std::string content;
    {
      std::ifstream file(path);
      content.assign(std::istreambuf_iterator<char>(file),
                     std::istreambuf_iterator<char>());
    }
    std::string want;
    for (std::size_t i = 0; i < k; ++i) want += expected[i] + "\n";
    want += to_line(extra) + "\n";
    ASSERT_EQ(content, want);  // so read_file gives records + extra
    records.push_back(extra);
    const ResourceBroker after = ResourceBroker::recover(records);
    EXPECT_EQ(after.held_by(extra.session), extra.amount);
    EXPECT_EQ(after.reserved(), before.reserved() + extra.amount);
  }
  // Kills spread over the whole run; at least one must land before the
  // end and past the first 64 KiB of records (a window roll), or the
  // test checked little.
  EXPECT_GE(mid_run, 1u);
  std::remove(path.c_str());
}

TEST(Journal, FileJournalConcurrentAppendsStayWholeLines) {
  // Several brokers on a ThreadPool may share one FileJournal: appends
  // racing on it must land as whole, distinct lines.
  const std::string path = "test_journal_concurrent.wal";
  constexpr std::uint32_t kWorkers = 4;
  constexpr std::uint32_t kRecordsPerWorker = 500;
  std::vector<std::string> expected;
  for (std::uint32_t w = 0; w < kWorkers; ++w)
    for (std::uint32_t i = 0; i < kRecordsPerWorker; ++i)
      expected.push_back(to_line(mutation(
          JournalOp::kReserveLeased, i / 3.0, ResourceId{w}, SessionId{i},
          1.0 + i / 7.0, 5.0)));
  {
    FileJournal journal(path);
    std::vector<std::thread> workers;
    for (std::uint32_t w = 0; w < kWorkers; ++w)
      workers.emplace_back([&journal, w] {
        for (std::uint32_t i = 0; i < kRecordsPerWorker; ++i)
          EXPECT_EQ(journal.append(mutation(JournalOp::kReserveLeased,
                                            i / 3.0, ResourceId{w},
                                            SessionId{i}, 1.0 + i / 7.0,
                                            5.0)),
                    JournalStatus::kOk);
      });
    for (std::thread& worker : workers) worker.join();
    EXPECT_EQ(journal.appended(), kWorkers * kRecordsPerWorker);
  }
  const std::vector<JournalRecord> records = FileJournal::read_file(path);
  ASSERT_EQ(records.size(), kWorkers * kRecordsPerWorker);
  std::vector<std::string> lines;
  for (const JournalRecord& record : records)
    lines.push_back(to_line(record));
  std::sort(lines.begin(), lines.end());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(lines, expected);
  std::remove(path.c_str());
}

// --- Sink I/O failure injection --------------------------------------------

/// Sink that refuses appends on command: delegates to a MemoryJournal
/// until `fail_after` records have landed, then answers `status` for
/// every further append until `healed` — a disk that filled up (or a
/// file that vanished) partway through a broker's life.
struct FaultySink final : IJournalSink {
  MemoryJournal inner;
  std::uint64_t fail_after = 0;  ///< appends that land before failing
  JournalStatus status = JournalStatus::kWriteFailed;
  bool healed = false;
  std::uint64_t refused = 0;

  JournalStatus append(const JournalRecord& record) override {
    if (!healed && inner.appended() >= fail_after) {
      ++refused;
      return status;
    }
    return inner.append(record);
  }
  std::vector<JournalRecord> load() const override { return inner.load(); }
  std::uint64_t appended() const override { return inner.appended(); }
};

TEST(Journal, FileJournalOpenFailureThrows) {
  // The constructor's contract: a path that cannot be opened is fatal at
  // attach time, never a silent no-durability broker.
  EXPECT_THROW(FileJournal("no_such_dir/sub/journal.wal"),
               std::runtime_error);
  EXPECT_THROW(FileJournal::read_file("no_such_file.wal"),
               std::runtime_error);
}

TEST(Journal, AttachTimeSnapshotFailureIsFatal) {
  // A broker that cannot write its very first snapshot has no durability
  // story to degrade to: attach_journal refuses to start.
  FaultySink sink;  // fail_after 0: every append refused
  ResourceBroker broker = make();
  EXPECT_THROW(broker.attach_journal(&sink), ContractViolation);
}

TEST(Journal, RefusedAppendFailsTheMutationAndNeverDiverges) {
  FaultySink sink;
  sink.fail_after = 2;  // attach snapshot + one reserve land, then fail
  ResourceBroker broker = make();
  broker.attach_journal(&sink, 64, 0.0);
  ASSERT_TRUE(broker.reserve(1.0, s1, 10.0));

  // The sink now refuses: the mutation must fail WITHOUT applying — a
  // broker whose journal is missing an applied mutation would recover
  // into a different state than it died in.
  EXPECT_FALSE(broker.reserve(2.0, s2, 20.0));
  EXPECT_EQ(broker.held_by(s2), 0.0);
  EXPECT_EQ(broker.available(), 90.0);
  EXPECT_EQ(broker.journal_failures(), 1u);
  EXPECT_EQ(sink.refused, 1u);

  // Releases go through the same gate.
  broker.release_amount(3.0, s1, 4.0);
  EXPECT_EQ(broker.held_by(s1), 10.0);
  EXPECT_EQ(broker.journal_failures(), 2u);

  // After the sink heals, mutations land again and recovery from the
  // journal is bit-identical: the refused operations left no trace on
  // either side.
  sink.healed = true;
  ASSERT_TRUE(broker.reserve(4.0, s2, 20.0));
  const ResourceBroker recovered = ResourceBroker::recover(sink.load());
  EXPECT_EQ(to_line(recovered.snapshot(4.0)), to_line(broker.snapshot(4.0)));
}

TEST(Journal, RefusedCompactionSnapshotRetriesOnTheNextMutation) {
  FaultySink sink;
  sink.fail_after = 3;  // attach snapshot + two reserves land
  ResourceBroker broker = make();
  broker.attach_journal(&sink, /*snapshot_every=*/2, 0.0);
  ASSERT_TRUE(broker.reserve(1.0, s1, 10.0));
  ASSERT_TRUE(broker.reserve(2.0, s2, 20.0));

  // The second mutation crossed snapshot_every, so a compaction snapshot
  // was attempted and refused. That is an optimization loss, not a
  // correctness failure: the mutations themselves are durable.
  EXPECT_EQ(broker.journal_failures(), 1u);
  EXPECT_EQ(sink.refused, 1u);
  EXPECT_EQ(broker.journaled_mutations(), 2u);

  // Once the sink heals, the next mutation retries the snapshot: the
  // journal ends with a fresh self-contained snapshot again.
  sink.healed = true;
  ASSERT_TRUE(broker.reserve(3.0, s3, 5.0));
  const std::vector<JournalRecord> records = sink.load();
  ASSERT_FALSE(records.empty());
  EXPECT_EQ(records.back().op, JournalOp::kSnapshot);
  EXPECT_EQ(broker.journal_failures(), 1u);  // no new failures
  const ResourceBroker recovered = ResourceBroker::recover(records);
  EXPECT_EQ(to_line(recovered.snapshot(3.0)), to_line(broker.snapshot(3.0)));
}

TEST(Journal, JournalStatusNamesAreStable) {
  EXPECT_STREQ(to_string(JournalStatus::kOk), "ok");
  EXPECT_STREQ(to_string(JournalStatus::kWriteFailed), "write-failed");
}

// --- Recovery and crash–restart -------------------------------------------

TEST(Journal, RecoveryIsBitIdenticalAfterMixedOperations) {
  MemoryJournal journal;
  ResourceBroker broker = make();
  broker.attach_journal(&journal, 5, 0.0);
  ASSERT_TRUE(broker.reserve(1.0, s1, 10.0));
  ASSERT_TRUE(broker.reserve_leased(2.0, s2, 20.0, 4.0));
  ASSERT_TRUE(broker.reserve_leased(2.5, s3, 5.0, 1.0));
  ASSERT_TRUE(broker.renew_lease(3.0, s2, 4.0));
  broker.release_amount(3.5, s1, 2.5);
  EXPECT_GT(broker.expire_due(4.0, nullptr), 0.0);  // s3 reclaimed
  broker.release(5.0, s1);
  const ResourceBroker recovered = ResourceBroker::recover(journal.records());
  EXPECT_EQ(to_line(recovered.snapshot(6.0)), to_line(broker.snapshot(6.0)));
  EXPECT_EQ(recovered.reserved(), broker.reserved());
  EXPECT_EQ(recovered.held_by(s2), 20.0);
  EXPECT_EQ(recovered.lease_deadline(s2), broker.lease_deadline(s2));
  EXPECT_EQ(recovered.history().size(), broker.history().size());
}

TEST(Journal, CrashLosesStateAndRefusesService) {
  MemoryJournal journal;
  ResourceBroker broker = make();
  broker.attach_journal(&journal, 64, 0.0);
  ASSERT_TRUE(broker.reserve(1.0, s1, 30.0));
  broker.crash(2.0);
  EXPECT_FALSE(broker.up());
  // A down broker refuses reservations — unavailable, not empty.
  EXPECT_FALSE(broker.reserve(2.5, s2, 1.0));
  EXPECT_EQ(broker.held_by(s1), 0.0);  // in-memory state is gone
}

TEST(Journal, RestartRecoversFromJournal) {
  MemoryJournal journal;
  ResourceBroker broker = make();
  broker.attach_journal(&journal, 64, 0.0);
  ASSERT_TRUE(broker.reserve(1.0, s1, 30.0));
  ASSERT_TRUE(broker.reserve_leased(1.5, s2, 10.0, 5.0));
  const std::string before = to_line(broker.snapshot(2.0));
  broker.crash(2.0);
  broker.restart(3.0, /*lease_grace=*/0.0);
  EXPECT_TRUE(broker.up());
  EXPECT_EQ(broker.held_by(s1), 30.0);
  EXPECT_EQ(broker.held_by(s2), 10.0);
  EXPECT_EQ(to_line(broker.snapshot(2.0)), before);
}

TEST(Journal, RestartGrantsLeaseGraceFromTheRestartInstant) {
  MemoryJournal journal;
  ResourceBroker broker = make();
  broker.attach_journal(&journal, 64, 0.0);
  ASSERT_TRUE(broker.reserve_leased(0.0, s1, 10.0, 2.0));  // deadline 2.0
  broker.crash(1.0);
  // The outage outlives the lease; grace is measured from the restart, so
  // the holder still gets a full reconciliation window.
  broker.restart(10.0, /*lease_grace=*/4.0);
  EXPECT_EQ(broker.lease_deadline(s1), 14.0);
  EXPECT_EQ(broker.expire_due(10.0, nullptr), 0.0);
  EXPECT_EQ(broker.held_by(s1), 10.0);
  // A lease already past the grace horizon keeps its own (later) deadline.
  ASSERT_TRUE(broker.renew_lease(10.0, s1, 20.0));  // deadline 30.0
  broker.crash(11.0);
  broker.restart(12.0, 4.0);
  EXPECT_EQ(broker.lease_deadline(s1), 30.0);
}

TEST(Journal, RestartWithoutJournalIsBlank) {
  ResourceBroker broker = make();
  ASSERT_TRUE(broker.reserve(1.0, s1, 30.0));
  broker.crash(2.0);
  broker.restart(3.0, 4.0);  // lose-everything baseline
  EXPECT_TRUE(broker.up());
  EXPECT_EQ(broker.held_by(s1), 0.0);
  EXPECT_EQ(broker.available(), 100.0);
}

TEST(Journal, RestartAfterLostTailRecoversTheSurvivingPrefix) {
  MemoryJournal journal;
  ResourceBroker broker = make();
  broker.attach_journal(&journal, 64, 0.0);
  ASSERT_TRUE(broker.reserve(1.0, s1, 10.0));
  ASSERT_TRUE(broker.reserve(2.0, s2, 20.0));
  ASSERT_EQ(journal.drop_tail(1), 1u);  // the un-fsynced s2 grant is lost
  broker.crash(3.0);
  broker.restart(4.0);
  EXPECT_EQ(broker.held_by(s1), 10.0);
  EXPECT_EQ(broker.held_by(s2), 0.0);  // divergence reconciliation heals
  EXPECT_EQ(broker.reserved(), 10.0);
}

TEST(Journal, RecoverIgnoresOtherResourcesRecords) {
  // Several brokers share one sink; recovery filters by resource id.
  MemoryJournal journal(/*compact_on_snapshot=*/false);
  ResourceBroker a(ResourceId{0}, "cpu", 100.0);
  ResourceBroker b(ResourceId{1}, "bw", 50.0);
  a.attach_journal(&journal, 64, 0.0);
  b.attach_journal(&journal, 64, 0.0);
  ASSERT_TRUE(a.reserve(1.0, s1, 10.0));
  ASSERT_TRUE(b.reserve(1.5, s1, 20.0));
  const ResourceBroker ra =
      ResourceBroker::recover(filter_journal(journal.records(), ResourceId{0}));
  const ResourceBroker rb =
      ResourceBroker::recover(filter_journal(journal.records(), ResourceId{1}));
  EXPECT_EQ(to_line(ra.snapshot(2.0)), to_line(a.snapshot(2.0)));
  EXPECT_EQ(to_line(rb.snapshot(2.0)), to_line(b.snapshot(2.0)));
  EXPECT_EQ(ra.held_by(s1), 10.0);
  EXPECT_EQ(rb.held_by(s1), 20.0);
}

// --- Bounded expiry log (the take_expired notification channel) -----------

TEST(JournalExpiryLog, CapDropsOldestAndCountsDrops) {
  ResourceBroker broker = make();
  broker.enable_expiry_log(/*capacity=*/2);
  ASSERT_TRUE(broker.reserve_leased(0.0, s1, 5.0, 1.0));
  ASSERT_TRUE(broker.reserve_leased(0.0, s2, 5.0, 1.0));
  ASSERT_TRUE(broker.reserve_leased(0.0, s3, 5.0, 1.0));
  ASSERT_TRUE(broker.reserve_leased(0.0, s4, 5.0, 1.0));
  std::vector<SessionId> expired_now;
  EXPECT_EQ(broker.expire_due(2.0, &expired_now), 20.0);
  EXPECT_EQ(expired_now.size(), 4u);
  // Nobody drained the log between expiries: the cap keeps only the two
  // newest entries and counts what it had to drop.
  std::vector<SessionId> delivered;
  broker.take_expired(&delivered);
  EXPECT_EQ(delivered.size(), 2u);
  EXPECT_EQ(broker.expiry_log_dropped(), 2u);
  // Draining resets the window; the next expiry is delivered again.
  ASSERT_TRUE(broker.reserve_leased(3.0, s1, 5.0, 1.0));
  EXPECT_GT(broker.expire_due(10.0, nullptr), 0.0);
  delivered.clear();
  broker.take_expired(&delivered);
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0], s1);
  EXPECT_EQ(broker.expiry_log_dropped(), 2u);  // no new drops
}

// --- Lease boundary semantics (the exact-deadline convention) -------------

TEST(LeaseBoundary, ExpiryWinsTheExactDeadlineTie) {
  ResourceBroker broker = make();
  ASSERT_TRUE(broker.reserve_leased(0.0, s1, 10.0, 5.0));  // deadline 5.0
  EXPECT_EQ(broker.expire_due(4.0, nullptr), 0.0);  // strictly before: keeps
  EXPECT_EQ(broker.held_by(s1), 10.0);
  // deadline <= now reclaims: at exactly t = 5.0 the lease is gone.
  std::vector<SessionId> expired;
  EXPECT_EQ(broker.expire_due(5.0, &expired), 10.0);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0], s1);
  EXPECT_EQ(broker.held_by(s1), 0.0);
}

TEST(LeaseBoundary, RenewRacingExpiryAtTheSameTickFails) {
  ResourceBroker broker = make();
  ASSERT_TRUE(broker.reserve_leased(0.0, s1, 10.0, 5.0));  // deadline 5.0
  // renew_lease sweeps due leases first, so a renewal arriving exactly at
  // the deadline finds the holding already reclaimed.
  EXPECT_FALSE(broker.renew_lease(5.0, s1, 5.0));
  EXPECT_EQ(broker.held_by(s1), 0.0);
  // One tick earlier the renewal wins and pushes the deadline out.
  ASSERT_TRUE(broker.reserve_leased(6.0, s2, 10.0, 5.0));  // deadline 11.0
  EXPECT_TRUE(broker.renew_lease(10.0, s2, 5.0));
  EXPECT_EQ(broker.lease_deadline(s2), 15.0);
  EXPECT_EQ(broker.expire_due(11.0, nullptr), 0.0);
  EXPECT_EQ(broker.held_by(s2), 10.0);
}

TEST(LeaseBoundary, RenewNeverShortensTheDeadline) {
  ResourceBroker broker = make();
  ASSERT_TRUE(broker.reserve_leased(0.0, s1, 10.0, 20.0));  // deadline 20.0
  EXPECT_TRUE(broker.renew_lease(1.0, s1, 2.0));  // 3.0 < 20.0: keeps 20.0
  EXPECT_EQ(broker.lease_deadline(s1), 20.0);
}

}  // namespace
}  // namespace qres
