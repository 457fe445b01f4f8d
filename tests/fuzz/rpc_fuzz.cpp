#include "rpc_fuzz.hpp"

#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "broker/registry.hpp"
#include "core/event_queue.hpp"
#include "core/planner.hpp"
#include "proxy/qos_proxy.hpp"
#include "rpc/broker_service.hpp"
#include "rpc/channel.hpp"
#include "rpc/wire.hpp"
#include "signal/fault_plane.hpp"
#include "util/flat_map.hpp"
#include "util/rng.hpp"

namespace qres::fuzz {

namespace {

std::string str(double x) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

// ---------------------------------------------------------------------------
// Random wire messages. Field values mix mundane magnitudes with the
// extremes the codec must round-trip bit-exactly (±inf, denormal-ish
// tiny, huge); NaN is excluded only because NaN != NaN breaks the
// equality oracle, not because the codec cares.

double random_field(Rng& rng) {
  const int shape = rng.uniform_int(0, 5);
  switch (shape) {
    case 0: return 0.0;
    case 1: return rng.uniform(-1e-9, 1e-9);
    case 2: return rng.uniform(-1e12, 1e12);
    case 3: return std::numeric_limits<double>::infinity();
    case 4: return -std::numeric_limits<double>::infinity();
    default: return rng.uniform(-100.0, 100.0);
  }
}

constexpr int kLastType = static_cast<int>(rpc::MessageType::kRedirectReply);

rpc::RequestHeader random_header(Rng& rng) {
  rpc::RequestHeader header;
  header.request_id = rng();
  header.session = static_cast<std::uint32_t>(rng());
  header.deadline = random_field(rng);
  return header;
}

rpc::RpcCode random_code(Rng& rng) {
  return static_cast<rpc::RpcCode>(
      rng.uniform_int(0, static_cast<int>(rpc::RpcCode::kNotPrimary)));
}

std::vector<std::uint32_t> random_route(Rng& rng) {
  std::vector<std::uint32_t> route(
      static_cast<std::size_t>(rng.uniform_int(0, 5)));
  for (auto& hop : route) hop = static_cast<std::uint32_t>(rng());
  return route;
}

/// Arbitrary bytes standing in for serialized journal records: the codec
/// ships them opaquely, so embedded NULs and high bytes must survive.
std::vector<std::string> random_records(Rng& rng) {
  std::vector<std::string> records(
      static_cast<std::size_t>(rng.uniform_int(0, 4)));
  for (auto& record : records) {
    record.resize(static_cast<std::size_t>(rng.uniform_int(0, 40)));
    for (char& c : record) c = static_cast<char>(rng.uniform_int(0, 255));
  }
  return records;
}

/// One random message of the given wire type (1..kLastType).
rpc::AnyMessage random_message(Rng& rng, int type) {
  using namespace rpc;
  switch (static_cast<MessageType>(type)) {
    case MessageType::kReserveRequest:
      return ReserveRequest{random_header(rng),
                            static_cast<std::uint32_t>(rng()),
                            random_field(rng), random_field(rng)};
    case MessageType::kReserveReply:
      return ReserveReply{rng(), random_code(rng), random_field(rng)};
    case MessageType::kReleaseRequest:
      return ReleaseRequest{random_header(rng),
                            static_cast<std::uint32_t>(rng()),
                            static_cast<std::uint8_t>(rng.uniform_int(0, 1)),
                            random_field(rng)};
    case MessageType::kReleaseReply:
      return ReleaseReply{rng(), random_code(rng), random_field(rng)};
    case MessageType::kRenewRequest:
      return RenewRequest{random_header(rng),
                          static_cast<std::uint32_t>(rng()),
                          random_field(rng)};
    case MessageType::kRenewReply:
      return RenewReply{rng(), random_code(rng),
                        static_cast<std::uint8_t>(rng.uniform_int(0, 1))};
    case MessageType::kReconcileRequest:
      return ReconcileRequest{random_header(rng),
                              static_cast<std::uint32_t>(rng()),
                              random_field(rng)};
    case MessageType::kReconcileReply:
      return ReconcileReply{rng(), random_code(rng), random_field(rng)};
    case MessageType::kQueryRequest: {
      QueryRequest request{random_header(rng), {}};
      const int entries = rng.uniform_int(0, 5);
      for (int e = 0; e < entries; ++e)
        request.entries.push_back(
            {static_cast<std::uint32_t>(rng()), random_field(rng)});
      return request;
    }
    case MessageType::kQueryReply: {
      QueryReply reply{rng(), random_code(rng), {}};
      const int samples = rng.uniform_int(0, 5);
      for (int s = 0; s < samples; ++s)
        reply.samples.push_back(
            {static_cast<std::uint32_t>(rng()), random_field(rng),
             random_field(rng),
             static_cast<std::uint8_t>(rng.uniform_int(0, 1))});
      return reply;
    }
    case MessageType::kPathMsg:
      return PathMsg{rng(),
                     rng(),
                     static_cast<std::uint32_t>(rng()),
                     static_cast<std::uint32_t>(rng()),
                     random_field(rng),
                     random_route(rng)};
    case MessageType::kResvMsg:
      return ResvMsg{rng(), rng(), random_field(rng), random_route(rng)};
    case MessageType::kTearMsg:
      return TearMsg{rng(), rng(), random_route(rng)};
    case MessageType::kJournalShip:
      return JournalShip{random_header(rng),
                         static_cast<std::uint32_t>(rng()), rng(), rng(),
                         random_records(rng)};
    case MessageType::kShipAck:
      return ShipAck{rng(), random_code(rng), rng(), rng()};
    case MessageType::kPromoteRequest:
      return PromoteRequest{random_header(rng),
                            static_cast<std::uint32_t>(rng()), rng()};
    case MessageType::kPromoteReply:
      return PromoteReply{rng(), random_code(rng), rng(), rng()};
    case MessageType::kRedirectReply:
      return RedirectReply{rng(), random_code(rng), rng(),
                           static_cast<std::uint32_t>(rng())};
  }
  return rpc::TearMsg{};
}

/// Round-trips every message type, then proves every single-byte flip and
/// every truncation/extension of one frame per type is rejected.
std::string codec_roundtrip(Rng& rng, RpcFuzzStats* stats) {
  for (int type = 1; type <= kLastType; ++type) {
    const rpc::AnyMessage original = random_message(rng, type);
    const std::vector<std::uint8_t> frame = rpc::encode(original);
    const rpc::Decoded decoded = rpc::decode_frame(frame);
    const std::string what =
        "codec: " + std::string(rpc::to_string(
                        static_cast<rpc::MessageType>(type)));
    if (!decoded.ok())
      return what + " failed to decode its own encoding: " +
             rpc::to_string(decoded.status);
    if (!(decoded.message == original))
      return what + " round-trip is not equal to the original";
    if (rpc::encode(decoded.message) != frame)
      return what + " re-encoding is not bit-identical";
    ++stats->messages_roundtripped;

    // Strict rejection: ANY single-byte change breaks the frame (the
    // checksum covers header prefix + payload; the checksum field itself
    // then mismatches the recomputation).
    for (std::size_t i = 0; i < frame.size(); ++i) {
      std::vector<std::uint8_t> mutant = frame;
      mutant[i] ^= static_cast<std::uint8_t>(rng.uniform_int(1, 255));
      if (rpc::decode_frame(mutant).ok())
        return what + " accepted a flipped byte at offset " +
               std::to_string(i);
      ++stats->flips_rejected;
    }
    // Every strict prefix is kTruncated territory; one trailing byte is
    // kTrailingBytes. Either way: typed rejection, no partial message.
    for (std::size_t len = 0; len < frame.size(); ++len) {
      const std::vector<std::uint8_t> prefix(frame.begin(),
                                             frame.begin() + len);
      if (rpc::decode_frame(prefix).ok())
        return what + " accepted a truncation to " + std::to_string(len) +
               " bytes";
      ++stats->truncations_rejected;
    }
    std::vector<std::uint8_t> extended = frame;
    extended.push_back(0);
    const rpc::Decoded trailing = rpc::decode_frame(extended);
    if (trailing.status != rpc::DecodeStatus::kTrailingBytes)
      return what + " trailing byte not rejected as kTrailingBytes (got " +
             rpc::to_string(trailing.status) + ")";
    ++stats->truncations_rejected;
  }
  return "";
}

// ---------------------------------------------------------------------------
// Random coordinator worlds (the same shape fault_fuzz uses): a hosted
// chain service over one leaf resource per component.

QoSVector q(double value) {
  static const QoSSchema schema({"level"});
  return QoSVector(schema, {value});
}

std::vector<QoSVector> levels(int count) {
  std::vector<QoSVector> result;
  for (int i = 0; i < count; ++i)
    result.push_back(q(static_cast<double>(count - i)));
  return result;
}

struct RpcWorld {
  BrokerRegistry registry;
  std::vector<ResourceId> resources;  // one per component, same index
  std::unique_ptr<ServiceDefinition> service;
  HostId main_host;
};

void make_rpc_world(Rng& rng, RpcWorld& world) {
  const int k = rng.uniform_int(2, 4);
  std::vector<int> out_count(static_cast<std::size_t>(k));
  for (int c = 0; c < k; ++c)
    out_count[static_cast<std::size_t>(c)] = rng.uniform_int(2, 3);

  std::vector<ServiceComponent> components;
  std::vector<std::pair<ComponentIndex, ComponentIndex>> edges;
  for (int c = 0; c < k; ++c) {
    const HostId host{static_cast<std::uint32_t>(c)};
    world.resources.push_back(world.registry.add_resource(
        "r" + std::to_string(c), ResourceKind::kCpu, host,
        rng.uniform(80.0, 160.0)));
    const std::size_t in_count =
        c == 0 ? 1
               : static_cast<std::size_t>(
                     out_count[static_cast<std::size_t>(c - 1)]);
    TranslationTable table;
    for (std::size_t in = 0; in < in_count; ++in)
      for (int out = 0; out < out_count[static_cast<std::size_t>(c)]; ++out) {
        const double amount = rng.bernoulli(0.15) ? rng.uniform(60.0, 140.0)
                                                  : rng.uniform(8.0, 45.0);
        ResourceVector req;
        req.set(world.resources.back(), amount);
        table.set(static_cast<LevelIndex>(in), static_cast<LevelIndex>(out),
                  req);
      }
    components.emplace_back("c" + std::to_string(c),
                            levels(out_count[static_cast<std::size_t>(c)]),
                            table.as_function(), host);
    if (c > 0)
      edges.push_back({static_cast<ComponentIndex>(c - 1),
                       static_cast<ComponentIndex>(c)});
  }
  world.service = std::make_unique<ServiceDefinition>(
      "rpc_chain", std::move(components), std::move(edges), q(10));
  world.main_host = HostId{0};
}

/// Zero-fault differential: the typed control plane (RpcChannel +
/// BrokerService over an inert FaultPlane) must be bit-identical to the
/// legacy implicit exchange — outcomes, plans, holdings, availability,
/// RPC accounting, teardown effects.
std::string typed_vs_implicit(Rng& rng, RpcFuzzStats* stats) {
  const std::uint64_t world_seed = rng();
  const std::uint64_t plane_seed = rng();
  const std::uint64_t planner_seed = rng();
  RpcWorld world_a, world_b;
  {
    Rng gen(world_seed);
    make_rpc_world(gen, world_a);
  }
  {
    Rng gen(world_seed);
    make_rpc_world(gen, world_b);
  }

  EventQueue queue_a, queue_b;
  FaultPlane plane_a(&queue_a, plane_seed, FaultConfig{});
  FaultPlane plane_b(&queue_b, plane_seed, FaultConfig{});

  SessionCoordinator implicit(world_a.service.get(), world_a.resources,
                              &world_a.registry);
  implicit.attach_faults(&plane_a, world_a.main_host);

  rpc::BrokerService service(&world_b.registry);
  SessionCoordinator typed(world_b.service.get(), world_b.resources,
                           &world_b.registry);
  typed.attach_rpc_service(&service, world_b.main_host, &plane_b, &plane_b);

  BasicPlanner planner;
  Rng rng_a(planner_seed), rng_b(planner_seed);
  std::vector<std::pair<SessionId,
                        std::vector<std::pair<ResourceId, double>>>>
      held_a, held_b;
  for (std::uint32_t s = 1; s <= 6; ++s) {
    const double now = static_cast<double>(s);
    const double scale = 0.8 + 0.2 * static_cast<double>(s % 3);
    const EstablishResult a =
        implicit.establish(SessionId{s}, now, planner, rng_a, scale);
    const EstablishResult b =
        typed.establish(SessionId{s}, now, planner, rng_b, scale);
    ++stats->differential_sessions;
    const std::string where =
        "typed differential: session " + std::to_string(s);
    if (a.success != b.success || a.outcome != b.outcome)
      return where + " outcome " + std::string(to_string(a.outcome)) +
             " vs " + to_string(b.outcome);
    if (a.plan.has_value() != b.plan.has_value())
      return where + " plan presence diverged";
    if (a.plan &&
        (a.plan->bottleneck_psi != b.plan->bottleneck_psi ||
         a.plan->end_to_end_rank != b.plan->end_to_end_rank))
      return where + " plan diverged (psi " + str(a.plan->bottleneck_psi) +
             " vs " + str(b.plan->bottleneck_psi) + ")";
    if (a.holdings != b.holdings) return where + " holdings diverged";
    if (a.stats.participating_proxies != b.stats.participating_proxies ||
        a.stats.availability_messages != b.stats.availability_messages ||
        a.stats.dispatch_messages != b.stats.dispatch_messages ||
        a.stats.reservations_attempted != b.stats.reservations_attempted ||
        a.stats.unreachable_proxies != b.stats.unreachable_proxies ||
        a.stats.retransmissions != b.stats.retransmissions)
      return where + " rpc accounting diverged";
    if (a.success) {
      held_a.push_back({SessionId{s}, a.holdings});
      held_b.push_back({SessionId{s}, b.holdings});
    }
  }
  // Tear half of the established sessions down in both modes; the typed
  // path goes through ReleaseRequests, the implicit one releases locally —
  // broker state must end identical either way.
  for (std::size_t i = 0; i < held_a.size(); i += 2) {
    implicit.teardown(held_a[i].second, held_a[i].first, 10.0);
    typed.teardown(held_b[i].second, held_b[i].first, 10.0);
  }
  for (std::size_t r = 0; r < world_a.resources.size(); ++r) {
    const double avail_a =
        world_a.registry.broker(world_a.resources[r]).available();
    const double avail_b =
        world_b.registry.broker(world_b.resources[r]).available();
    if (avail_a != avail_b)
      return "typed differential: resource " + std::to_string(r) +
             " availability " + str(avail_a) + " vs " + str(avail_b);
  }
  if (plane_b.frame_totals().corrupted != 0 ||
      plane_b.frame_totals().duplicated != 0 ||
      plane_b.frame_totals().held_back != 0)
    return "typed differential: inert plane faulted a frame";
  return "";
}

// ---------------------------------------------------------------------------
// Frame-fault storms with a client-side ledger as the conservation
// oracle.

/// Re-calls under the SAME request id until a usable reply arrives. After
/// `max_tries` faulted attempts the storm is lifted for one clean call
/// (at-least-once delivery eventually succeeds; the dedup cache keeps the
/// effect exactly-once either way).
rpc::CallResult call_until_ok(rpc::RpcChannel& channel, FaultPlane& plane,
                              const rpc::FrameFaultConfig& storm,
                              rpc::AnyMessage request, double now,
                              RpcFuzzStats* stats) {
  constexpr int kMaxTries = 32;
  for (int attempt = 0;; ++attempt) {
    ++stats->storm_calls;
    rpc::CallResult result =
        channel.call(HostId{0}, HostId{1}, request, now);
    if (result.ok()) return result;
    ++stats->storm_retries;
    if (attempt >= kMaxTries) {
      // Lift the storm: flush any held-back frame, deliver cleanly, then
      // restore the weather.
      plane.set_frame_config(rpc::FrameFaultConfig{});
      std::vector<std::vector<std::uint8_t>> flushed;
      plane.flush_frames(&flushed);
      result = channel.call(HostId{0}, HostId{1}, request, now);
      plane.set_frame_config(storm);
      return result;
    }
  }
}

std::string frame_storm(Rng& rng, RpcFuzzStats* stats) {
  BrokerRegistry registry;
  std::vector<ResourceId> resources;
  std::vector<double> capacities;
  const int broker_count = rng.uniform_int(2, 4);
  for (int r = 0; r < broker_count; ++r) {
    capacities.push_back(rng.uniform(60.0, 150.0));
    resources.push_back(registry.add_resource(
        "s" + std::to_string(r), ResourceKind::kCpu,
        HostId{1}, capacities.back()));
  }
  rpc::BrokerService service(&registry);

  EventQueue queue;
  FaultPlane plane(&queue, rng(), FaultConfig{});
  rpc::FrameFaultConfig storm;
  storm.corrupt_prob = rng.uniform(0.0, 0.4);
  storm.duplicate_prob = rng.uniform(0.0, 0.4);
  storm.reorder_prob = rng.uniform(0.0, 0.4);
  plane.set_frame_config(storm);

  // No transport: the storm rages at the frame level only, so every
  // failed call is a lost/corrupted frame round, never a transport drop.
  rpc::RpcChannel channel(nullptr, &service, &plane);

  // ledger[session][resource] = what the client believes it holds.
  constexpr std::uint32_t kSessions = 4;
  FlatMap<SessionId, FlatMap<ResourceId, double>> ledger;
  constexpr double kEps = 1e-9;

  const int ops = rng.uniform_int(20, 50);
  for (int op = 0; op < ops; ++op) {
    const double now = 1.0 + 0.1 * static_cast<double>(op);
    const SessionId session{
        1u + static_cast<std::uint32_t>(rng.uniform_int(0, kSessions - 1))};
    const ResourceId resource =
        resources[static_cast<std::size_t>(
            rng.uniform_int(0, broker_count - 1))];
    const std::string where = "frame storm: op " + std::to_string(op);
    const int kind = rng.uniform_int(0, 3);
    if (kind == 0 || kind == 1) {  // reserve (weighted: most common)
      const double amount = rng.uniform(5.0, 40.0);
      rpc::ReserveRequest request;
      request.header.request_id = 1'000'000u + static_cast<std::uint64_t>(op);
      request.header.session = session.value();
      request.resource = resource.value();
      request.amount = amount;
      const rpc::CallResult result = call_until_ok(
          channel, plane, storm, request, now, stats);
      if (!result.ok())
        return where + " reserve never delivered (" +
               std::string(to_string(result.status)) + ")";
      const auto& reply = std::get<rpc::ReserveReply>(result.reply);
      if (reply.code == rpc::RpcCode::kOk)
        ledger[session][resource] += amount;
      else if (reply.code != rpc::RpcCode::kAdmissionReject)
        return where + " reserve replied " + rpc::to_string(reply.code);
    } else if (kind == 2) {  // release
      const double amount = rng.uniform(5.0, 40.0);
      rpc::ReleaseRequest request;
      request.header.request_id = 2'000'000u + static_cast<std::uint64_t>(op);
      request.header.session = session.value();
      request.resource = resource.value();
      request.amount = amount;
      const rpc::CallResult result = call_until_ok(
          channel, plane, storm, request, now, stats);
      if (!result.ok())
        return where + " release never delivered (" +
               std::string(to_string(result.status)) + ")";
      const auto& reply = std::get<rpc::ReleaseReply>(result.reply);
      if (reply.code != rpc::RpcCode::kOk)
        return where + " release replied " + rpc::to_string(reply.code);
      double& held = ledger[session][resource];
      const double expect = std::min(held, amount);
      if (std::abs(reply.released - expect) > kEps)
        return where + " released " + str(reply.released) + ", ledger says " +
               str(expect);
      held -= expect;
    } else {  // reconcile: the service tells us what it holds — must match
      rpc::ReconcileRequest request;
      request.header.request_id = 3'000'000u + static_cast<std::uint64_t>(op);
      request.header.session = session.value();
      request.resource = resource.value();
      request.claimed = ledger[session][resource];
      const rpc::CallResult result = call_until_ok(
          channel, plane, storm, request, now, stats);
      if (!result.ok())
        return where + " reconcile never delivered (" +
               std::string(to_string(result.status)) + ")";
      const auto& reply = std::get<rpc::ReconcileReply>(result.reply);
      if (reply.code != rpc::RpcCode::kOk)
        return where + " reconcile replied " + rpc::to_string(reply.code);
      if (std::abs(reply.held - ledger[session][resource]) > kEps)
        return where + " reconcile held " + str(reply.held) +
               ", ledger says " + str(ledger[session][resource]);
      ++stats->conservation_checks;
    }
  }

  // Conservation: despite corruption, duplication and reordering, every
  // operation executed exactly once — the broker books equal the ledger.
  for (int r = 0; r < broker_count; ++r) {
    double total = 0.0;
    for (std::uint32_t s = 1; s <= kSessions; ++s) {
      const double client = ledger[SessionId{s}][resources[
          static_cast<std::size_t>(r)]];
      const double broker = registry.broker(resources[
          static_cast<std::size_t>(r)]).held_by(SessionId{s});
      if (std::abs(client - broker) > kEps)
        return "frame storm: session " + std::to_string(s) + " resource " +
               std::to_string(r) + " ledger " + str(client) + " != broker " +
               str(broker);
      ++stats->conservation_checks;
      total += broker;
    }
    const double available =
        registry.broker(resources[static_cast<std::size_t>(r)]).available();
    if (std::abs((capacities[static_cast<std::size_t>(r)] - total) -
                 available) > 1e-6)
      return "frame storm: resource " + std::to_string(r) +
             " capacity leak (held " + str(total) + ", available " +
             str(available) + ")";
  }
  stats->frames_corrupted += plane.frame_totals().corrupted;
  stats->frames_duplicated += plane.frame_totals().duplicated;
  stats->frames_reordered += plane.frame_totals().held_back;
  stats->dedup_replays += service.stats().duplicates;
  return "";
}

// ---------------------------------------------------------------------------
// Backpressure: tiny queue, auto_drain off — overflow must fast-reject
// with typed kBackpressure and drain_all must execute exactly the queued
// prefix.

std::string backpressure_arm(Rng& rng, RpcFuzzStats* stats) {
  BrokerRegistry registry;
  const double capacity = 1000.0;
  const ResourceId resource = registry.add_resource(
      "bp", ResourceKind::kCpu, HostId{1}, capacity);

  rpc::BrokerService::Config config;
  config.queue_capacity = static_cast<std::size_t>(rng.uniform_int(1, 3));
  config.auto_drain = false;
  rpc::BrokerService service(&registry, config);

  rpc::RpcChannel::Config channel_config;
  channel_config.policy.max_attempts = 1;  // one frame round per call
  rpc::RpcChannel channel(nullptr, &service, nullptr, channel_config);

  const int posts =
      static_cast<int>(config.queue_capacity) + rng.uniform_int(2, 5);
  int queued = 0, rejected = 0;
  for (int p = 0; p < posts; ++p) {
    rpc::ReserveRequest request;
    request.header.session = 7;
    request.resource = resource.value();
    request.amount = 10.0;
    const rpc::CallResult result =
        channel.call(HostId{0}, HostId{1}, request, 1.0);
    if (!result.ok()) {
      // Queued without a reply: the post landed, execution is deferred.
      ++queued;
      continue;
    }
    const auto& reply = std::get<rpc::ReserveReply>(result.reply);
    if (reply.code != rpc::RpcCode::kBackpressure)
      return "backpressure: overflow post " + std::to_string(p) +
             " replied " + rpc::to_string(reply.code);
    ++rejected;
    ++stats->backpressure_rejects;
  }
  if (queued != static_cast<int>(config.queue_capacity))
    return "backpressure: queued " + std::to_string(queued) + " of " +
           std::to_string(config.queue_capacity) + " capacity";
  if (rejected != posts - queued)
    return "backpressure: " + std::to_string(rejected) +
           " rejects for " + std::to_string(posts - queued) + " overflows";
  if (service.stats().backpressure != static_cast<std::uint64_t>(rejected))
    return "backpressure: service counted " +
           std::to_string(service.stats().backpressure) + " rejects";
  if (service.max_queue_high_water() != config.queue_capacity)
    return "backpressure: high water " +
           std::to_string(service.max_queue_high_water());

  std::vector<std::vector<std::uint8_t>> replies;
  service.drain_all(2.0, &replies);
  if (replies.size() != static_cast<std::size_t>(queued))
    return "backpressure: drained " + std::to_string(replies.size()) +
           " replies for " + std::to_string(queued) + " queued posts";
  for (const auto& frame : replies) {
    const rpc::Decoded decoded = rpc::decode_frame(frame);
    if (!decoded.ok() ||
        std::get<rpc::ReserveReply>(decoded.message).code !=
            rpc::RpcCode::kOk)
      return "backpressure: a drained reserve did not execute kOk";
  }
  const double held = registry.broker(resource).held_by(SessionId{7});
  if (held != 10.0 * queued)
    return "backpressure: broker holds " + str(held) + ", expected " +
           str(10.0 * queued);
  return "";
}

}  // namespace

std::string run_rpc_iteration(std::uint64_t seed, RpcFuzzStats* stats) {
  Rng rng(seed);
  const auto tag = [seed](std::string message) {
    return message.empty()
               ? message
               : "seed " + std::to_string(seed) + ": " + message;
  };
  std::string failure = codec_roundtrip(rng, stats);
  if (failure.empty()) failure = typed_vs_implicit(rng, stats);
  if (failure.empty()) failure = frame_storm(rng, stats);
  if (failure.empty()) failure = backpressure_arm(rng, stats);
  return tag(std::move(failure));
}

}  // namespace qres::fuzz
