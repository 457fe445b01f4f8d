#include "mc/failover.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <sstream>
#include <utility>

#include "util/assert.hpp"

namespace qres::mc {

const char* to_string(FailoverActionKind kind) noexcept {
  switch (kind) {
    case FailoverActionKind::kGrant: return "grant";
    case FailoverActionKind::kCrash: return "crash";
    case FailoverActionKind::kRestart: return "restart";
    case FailoverActionKind::kPromote: return "promote";
    case FailoverActionKind::kPartition: return "partition";
    case FailoverActionKind::kHeal: return "heal";
  }
  return "?";
}

std::string to_string(const FailoverAction& action) {
  char buf[64];
  switch (action.kind) {
    case FailoverActionKind::kGrant:
      std::snprintf(buf, sizeof buf, "grant s%d r%d", action.session,
                    action.replica);
      break;
    case FailoverActionKind::kCrash:
    case FailoverActionKind::kRestart:
    case FailoverActionKind::kPromote:
      std::snprintf(buf, sizeof buf, "%s r%d", to_string(action.kind),
                    action.replica);
      break;
    case FailoverActionKind::kPartition:
    case FailoverActionKind::kHeal:
      std::snprintf(buf, sizeof buf, "%s", to_string(action.kind));
      break;
  }
  return buf;
}

namespace {

bool parse_index(const std::string& token, char prefix, std::int32_t* out) {
  if (token.size() < 2 || token[0] != prefix) return false;
  std::int32_t value = 0;
  for (std::size_t i = 1; i < token.size(); ++i) {
    if (token[i] < '0' || token[i] > '9') return false;
    value = value * 10 + (token[i] - '0');
  }
  *out = value;
  return true;
}

}  // namespace

bool parse_failover_action(const std::string& line, FailoverAction* out) {
  std::istringstream in(line);
  std::string verb;
  if (!(in >> verb)) return false;
  FailoverAction action;
  std::string a, b, extra;
  if (verb == "grant") {
    action.kind = FailoverActionKind::kGrant;
    if (!(in >> a >> b) || (in >> extra)) return false;
    if (!parse_index(a, 's', &action.session) ||
        !parse_index(b, 'r', &action.replica))
      return false;
  } else if (verb == "crash" || verb == "restart" || verb == "promote") {
    action.kind = verb == "crash"     ? FailoverActionKind::kCrash
                  : verb == "restart" ? FailoverActionKind::kRestart
                                      : FailoverActionKind::kPromote;
    if (!(in >> a) || (in >> extra)) return false;
    if (!parse_index(a, 'r', &action.replica)) return false;
  } else if (verb == "partition" || verb == "heal") {
    action.kind = verb == "partition" ? FailoverActionKind::kPartition
                                      : FailoverActionKind::kHeal;
    if (in >> extra) return false;
  } else {
    return false;
  }
  *out = action;
  return true;
}

// --- World ----------------------------------------------------------------

/// In-process shipping with a partition switch: offline drops every batch
/// (and its ack) on the floor, exactly what a severed replication link
/// looks like to the primary.
class FailoverWorld::DropTransport final : public IShipTransport {
 public:
  explicit DropTransport(ReplicatedBroker* group) : group_(group) {}

  std::optional<ShipAckInfo> ship(HostId to, const ShipBatch& batch,
                                  double now) override {
    if (!online) return std::nullopt;
    return group_->apply_ship(to, batch, now);
  }

  bool online = true;

 private:
  ReplicatedBroker* group_;
};

namespace {

constexpr std::uint32_t kSessionBase = 100;  ///< model session ids

HostId replica_host(std::int32_t index) {
  return HostId{static_cast<std::uint32_t>(index)};
}

SessionId model_session(std::int32_t index) {
  return SessionId{kSessionBase + static_cast<std::uint32_t>(index)};
}

std::uint64_t quantize(double x) {
  return static_cast<std::uint64_t>(std::llround(x * 1e6));
}

}  // namespace

FailoverWorld::FailoverWorld(const FailoverTopology& topology)
    : topo_(&topology) {
  QRES_REQUIRE(topology.replicas >= 2, "FailoverWorld: need >= 2 replicas");
  QRES_REQUIRE(topology.sessions >= 1 && topology.attempts_per_session >= 1,
               "FailoverWorld: need granting sessions");
  std::vector<HostId> hosts;
  hosts.reserve(topology.replicas);
  for (std::size_t i = 0; i < topology.replicas; ++i)
    hosts.push_back(replica_host(static_cast<std::int32_t>(i)));
  ReplicationConfig config;
  config.mode = topology.mode;
  config.quorum = topology.quorum;
  config.fencing = topology.fencing;
  config.max_async_lag = topology.async_lag;
  group_ = std::make_unique<ReplicatedBroker>(
      ResourceId{0}, "mc-failover", topology.capacity, hosts, config);
  transport_ = std::make_unique<DropTransport>(group_.get());
  group_->set_transport(transport_.get());
  attempts_left_.assign(static_cast<std::size_t>(topology.sessions),
                        topology.attempts_per_session);
  granted_.assign(static_cast<std::size_t>(topology.sessions), false);
  crashes_left_ = topology.max_crashes;
  restarts_left_ = topology.max_restarts;
  promotions_left_ = topology.max_promotions;
  partitions_left_ = topology.max_partitions;
  check_invariants();
}

FailoverWorld::~FailoverWorld() = default;

std::vector<FailoverAction> FailoverWorld::enabled() const {
  std::vector<FailoverAction> out;
  if (!violation_.empty()) return out;  // violating states are terminal
  const std::int32_t replicas = static_cast<std::int32_t>(topo_->replicas);
  for (std::int32_t s = 0; s < topo_->sessions; ++s) {
    if (granted_[static_cast<std::size_t>(s)] ||
        attempts_left_[static_cast<std::size_t>(s)] <= 0)
      continue;
    for (std::int32_t r = 0; r < replicas; ++r)
      if (group_->replica_up(replica_host(r)))
        out.push_back({FailoverActionKind::kGrant, r, s});
  }
  for (std::int32_t r = 0; r < replicas; ++r) {
    const HostId host = replica_host(r);
    if (crashes_left_ > 0 && group_->replica_up(host))
      out.push_back({FailoverActionKind::kCrash, r, -1});
    if (restarts_left_ > 0 && !group_->replica_up(host))
      out.push_back({FailoverActionKind::kRestart, r, -1});
  }
  // The coordinator promotes only once it believes the primary is gone:
  // the group is headless, or the partition hides a primary that is in
  // fact alive — the false-suspicion race fencing exists for.
  if (promotions_left_ > 0 &&
      (!group_->primary_host().valid() || partitioned_)) {
    for (std::int32_t r = 0; r < replicas; ++r) {
      const HostId host = replica_host(r);
      if (group_->replica_up(host) &&
          group_->role_of(host) == ReplicaRole::kStandby)
        out.push_back({FailoverActionKind::kPromote, r, -1});
    }
  }
  if (topo_->allow_partition) {
    if (!partitioned_ && partitions_left_ > 0)
      out.push_back({FailoverActionKind::kPartition, -1, -1});
    if (partitioned_) out.push_back({FailoverActionKind::kHeal, -1, -1});
  }
  return out;
}

void FailoverWorld::apply(const FailoverAction& action) {
  const std::vector<FailoverAction> legal = enabled();
  QRES_REQUIRE(std::find(legal.begin(), legal.end(), action) != legal.end(),
               "FailoverWorld::apply: action not enabled");
  switch (action.kind) {
    case FailoverActionKind::kGrant: {
      --attempts_left_[static_cast<std::size_t>(action.session)];
      const bool confirmed =
          group_->reserve_at(replica_host(action.replica), now_,
                             model_session(action.session), topo_->amount);
      if (confirmed) {
        granted_[static_cast<std::size_t>(action.session)] = true;
        confirmed_ += topo_->amount;
      }
      break;
    }
    case FailoverActionKind::kCrash:
      --crashes_left_;
      group_->crash_replica(replica_host(action.replica), now_);
      break;
    case FailoverActionKind::kRestart:
      --restarts_left_;
      group_->restart_replica(replica_host(action.replica), now_);
      break;
    case FailoverActionKind::kPromote:
      --promotions_left_;
      // Refusal (raced epoch) only burns the budget, like a real
      // coordinator's promote_refused.
      // qres-lint: allow(unchecked-status): the model deliberately explores
      // refused promotions too; the checker's invariants judge the outcome
      (void)group_->promote(replica_host(action.replica),
                            group_->next_epoch(), now_);
      break;
    case FailoverActionKind::kPartition:
      --partitions_left_;
      partitioned_ = true;
      transport_->online = false;
      break;
    case FailoverActionKind::kHeal:
      partitioned_ = false;
      transport_->online = true;
      // Anti-entropy on reconnect: the primary re-ships its pending tail.
      // qres-lint: allow(unchecked-status): convergence is asserted by
      // check_invariants below, not by this ship's aggregate verdict
      if (group_->up()) (void)group_->flush(now_);
      break;
  }
  now_ += 1.0;
  check_invariants();
}

void FailoverWorld::check_invariants() {
  int live_primaries = 0;
  for (std::size_t r = 0; r < topo_->replicas; ++r) {
    const HostId host = replica_host(static_cast<std::int32_t>(r));
    if (group_->role_of(host) == ReplicaRole::kPrimary &&
        group_->replica_up(host))
      ++live_primaries;
  }
  if (live_primaries >= 2) {
    violation_ = "split-brain";
    return;
  }
  if (confirmed_ > topo_->capacity + 1e-9)
    violation_ = "confirmed-exceeds-capacity";
}

std::pair<std::uint64_t, std::uint64_t> FailoverWorld::canonical_key() const {
  struct Fnv {
    std::uint64_t h;
    void mix(std::uint64_t v) {
      for (int i = 0; i < 8; ++i) {
        h ^= (v >> (i * 8)) & 0xffu;
        h *= 1099511628211ull;
      }
    }
  };
  Fnv a{14695981039346656037ull};
  Fnv b{0x9e3779b97f4a7c15ull};
  const auto mix = [&](std::uint64_t v) {
    a.mix(v);
    b.mix(v);
  };
  for (std::size_t r = 0; r < topo_->replicas; ++r) {
    const HostId host = replica_host(static_cast<std::int32_t>(r));
    mix(static_cast<std::uint64_t>(group_->role_of(host)));
    mix(group_->epoch_of(host));
    mix(group_->replica_up(host) ? 1 : 0);
    mix(group_->watermark_of(host));
    const ResourceBroker& broker = group_->replica_broker(host);
    mix(quantize(broker.available()));
    for (std::int32_t s = 0; s < topo_->sessions; ++s)
      mix(quantize(broker.held_by(model_session(s))));
  }
  mix(partitioned_ ? 1 : 0);
  mix(static_cast<std::uint64_t>(crashes_left_));
  mix(static_cast<std::uint64_t>(restarts_left_));
  mix(static_cast<std::uint64_t>(promotions_left_));
  mix(static_cast<std::uint64_t>(partitions_left_));
  for (std::int32_t s = 0; s < topo_->sessions; ++s) {
    mix(static_cast<std::uint64_t>(
        attempts_left_[static_cast<std::size_t>(s)]));
    mix(granted_[static_cast<std::size_t>(s)] ? 1 : 0);
  }
  mix(quantize(confirmed_));
  mix(violation_.empty() ? 0 : 1);
  return {a.h, b.h};
}

// --- Checker --------------------------------------------------------------

namespace {

std::unique_ptr<FailoverWorld> rebuild(const FailoverTopology& topology,
                                       const std::vector<FailoverAction>& t) {
  auto world = std::make_unique<FailoverWorld>(topology);
  for (const FailoverAction& action : t) world->apply(action);
  return world;
}

struct Dfs {
  const FailoverTopology* topo;
  FailoverCheckLimits limits;
  FailoverCheckResult* result;
  std::set<std::pair<std::uint64_t, std::uint64_t>> seen;
  std::vector<FailoverAction> prefix;

  // ReplicatedBroker is not clonable (it owns journals and capture
  // sinks), so each child is rebuilt by replaying the prefix — cheap at
  // model depths, and it exercises the exact production objects.
  bool run(FailoverWorld& world, std::size_t depth) {
    if (!world.violation().empty()) {
      result->violation_found = true;
      result->invariant = world.violation();
      result->trace = prefix;
      return true;
    }
    if (depth >= limits.max_depth) return false;
    for (const FailoverAction& action : world.enabled()) {
      if (result->distinct_states >= limits.max_states) {
        result->budget_exhausted = true;
        return false;
      }
      prefix.push_back(action);
      ++result->transitions;
      const std::unique_ptr<FailoverWorld> child = rebuild(*topo, prefix);
      if (!child->violation().empty()) {
        result->violation_found = true;
        result->invariant = child->violation();
        result->trace = prefix;
        return true;
      }
      if (seen.insert(child->canonical_key()).second) {
        ++result->distinct_states;
        result->deepest = std::max(result->deepest, depth + 1);
        if (run(*child, depth + 1)) return true;
        if (result->budget_exhausted) return false;
      } else {
        ++result->revisits;
      }
      prefix.pop_back();
    }
    return false;
  }
};

}  // namespace

FailoverCheckResult check_failover(const FailoverTopology& topology,
                                   const FailoverCheckLimits& limits) {
  FailoverCheckResult result;
  FailoverWorld initial(topology);
  Dfs dfs{&topology, limits, &result, {}, {}};
  dfs.seen.insert(initial.canonical_key());
  result.distinct_states = 1;
  dfs.run(initial, 0);
  if (result.violation_found)
    result.trace =
        minimize_failover(topology, std::move(result.trace), result.invariant);
  return result;
}

bool replay_failover(const FailoverTopology& topology,
                     const std::vector<FailoverAction>& trace,
                     std::string* violated) {
  FailoverWorld world(topology);
  for (const FailoverAction& action : trace) {
    if (!world.violation().empty()) break;  // terminal; ignore the tail
    const std::vector<FailoverAction> legal = world.enabled();
    if (std::find(legal.begin(), legal.end(), action) == legal.end())
      return false;
    world.apply(action);
  }
  if (violated != nullptr) *violated = world.violation();
  return true;
}

std::vector<FailoverAction> minimize_failover(
    const FailoverTopology& topology, std::vector<FailoverAction> trace,
    const std::string& invariant) {
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < trace.size(); ++i) {
      std::vector<FailoverAction> candidate = trace;
      candidate.erase(candidate.begin() + static_cast<std::ptrdiff_t>(i));
      std::string violated;
      if (replay_failover(topology, candidate, &violated) &&
          violated == invariant) {
        trace = std::move(candidate);
        changed = true;
        break;
      }
    }
  }
  return trace;
}

// --- Topologies -----------------------------------------------------------

const std::vector<FailoverTopology>& all_failover_topologies() {
  static const std::vector<FailoverTopology> topologies = [] {
    std::vector<FailoverTopology> out;

    FailoverTopology sync;
    sync.name = "failover-sync-fenced";
    sync.summary =
        "3-replica sync group, fencing on: one crash/restart/promotion "
        "cycle can neither split-brain nor over-confirm";
    out.push_back(sync);

    FailoverTopology partition = sync;
    partition.name = "failover-sync-partition";
    partition.summary =
        "sync group with a partitionable ship link: promotion under "
        "false suspicion fences the live-but-unreachable primary";
    partition.allow_partition = true;
    out.push_back(partition);

    FailoverTopology async_tight = sync;
    async_tight.name = "failover-async-tight";
    async_tight.summary =
        "async group, lag bound 2: every grant ships before the next "
        "action, so one failover cycle loses nothing";
    async_tight.mode = ReplicationMode::kAsync;
    out.push_back(async_tight);

    FailoverTopology async_window = sync;
    async_window.name = "failover-async-losswindow";
    async_window.summary =
        "DEMO async, lag bound 8: a grant confirms before it ships — a "
        "primary kill inside the window loses it and the successor "
        "re-grants (the loss bench/ext_failover measures; sync refuses "
        "this by construction)";
    async_window.mode = ReplicationMode::kAsync;
    async_window.async_lag = 8;
    async_window.expect_violation = true;
    async_window.expected_invariant = "confirmed-exceeds-capacity";
    out.push_back(async_window);

    FailoverTopology demo = sync;
    demo.name = "failover-nofence-splitbrain";
    demo.summary =
        "DEMO fencing off: a deposed primary restarts still believing it "
        "serves — two live primaries (the bug epoch fencing fixes)";
    demo.fencing = false;
    demo.expect_violation = true;
    demo.expected_invariant = "split-brain";
    out.push_back(demo);

    return out;
  }();
  return topologies;
}

const FailoverTopology* find_failover_topology(const std::string& name) {
  for (const FailoverTopology& t : all_failover_topologies())
    if (t.name == name) return &t;
  return nullptr;
}

// --- Trace files ----------------------------------------------------------

namespace {
constexpr const char* kFailoverTraceHeader = "# qres_mc failover-trace v1";
}  // namespace

bool is_failover_trace(const std::string& text) {
  return text.rfind(kFailoverTraceHeader, 0) == 0;
}

std::string format_failover_trace(const FailoverTraceFile& trace) {
  std::ostringstream out;
  out << kFailoverTraceHeader << "\n";
  out << "topology: " << trace.topology << "\n";
  if (trace.expect_violation)
    out << "expect: violation " << trace.expected_invariant << "\n";
  else
    out << "expect: ok\n";
  for (const FailoverAction& action : trace.actions)
    out << "action: " << to_string(action) << "\n";
  return out.str();
}

bool parse_failover_trace(const std::string& text, FailoverTraceFile* out,
                          std::string* error) {
  FailoverTraceFile trace;
  std::istringstream in(text);
  std::string line;
  bool saw_header = false;
  std::size_t lineno = 0;
  const auto fail = [&](const std::string& what) {
    if (error != nullptr)
      *error = "line " + std::to_string(lineno) + ": " + what;
    return false;
  };
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    if (line[0] == '#') {
      if (!saw_header) {
        if (line != kFailoverTraceHeader) return fail("bad header");
        saw_header = true;
      }
      continue;
    }
    if (!saw_header) return fail("missing header");
    const std::size_t colon = line.find(": ");
    if (colon == std::string::npos) return fail("expected 'key: value'");
    const std::string key = line.substr(0, colon);
    const std::string value = line.substr(colon + 2);
    if (key == "topology") {
      trace.topology = value;
    } else if (key == "expect") {
      if (value == "ok") {
        trace.expect_violation = false;
      } else if (value.rfind("violation ", 0) == 0) {
        trace.expect_violation = true;
        trace.expected_invariant = value.substr(10);
      } else {
        return fail("expect must be 'ok' or 'violation <invariant>'");
      }
    } else if (key == "action") {
      FailoverAction action;
      if (!parse_failover_action(value, &action))
        return fail("unparseable action '" + value + "'");
      trace.actions.push_back(action);
    } else {
      return fail("unknown key '" + key + "'");
    }
  }
  if (!saw_header) return fail("empty trace");
  if (trace.topology.empty()) return fail("missing topology");
  *out = std::move(trace);
  return true;
}

bool run_failover_trace(const FailoverTraceFile& trace, std::string* error) {
  const FailoverTopology* topo = find_failover_topology(trace.topology);
  if (topo == nullptr) {
    if (error != nullptr)
      *error = "unknown failover topology: " + trace.topology;
    return false;
  }
  std::string violated;
  if (!replay_failover(*topo, trace.actions, &violated)) {
    if (error != nullptr) *error = "trace action not enabled when replayed";
    return false;
  }
  if (trace.expect_violation) {
    if (violated != trace.expected_invariant) {
      if (error != nullptr)
        *error = "expected violation '" + trace.expected_invariant +
                 "', got " + (violated.empty() ? "'ok'" : "'" + violated + "'");
      return false;
    }
    return true;
  }
  if (!violated.empty()) {
    if (error != nullptr) *error = "unexpected violation '" + violated + "'";
    return false;
  }
  return true;
}

}  // namespace qres::mc
