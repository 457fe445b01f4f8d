// Machine-speed probe for the wall-time metrics.
//
// The benchmark runs on shared virtual machines whose speed for this kind
// of code changes by up to 1.8x, holding each state for seconds to
// minutes (the host's other tenants), so raw wall times of two runs of
// the same code can differ by more than any useful regression bound. The
// probe times a fixed kernel between episodes; the ratio of its time to
// its reference time is the machine's slowdown at that moment, and the
// wall-time metrics are divided by it: they read as if measured at the
// reference speed.
//
// The kernel is the kind of work the program does: inserts into and
// erases from an ordered map (node allocation, pointer chasing,
// unpredictable branches). It runs no qres code and allocates from a
// buffer of its own, so nothing the program does to the heap or to its
// code moves it. A pointer chase through an L2-sized table was tried
// first and followed the slowdowns the program saw less well (its
// correlation with round throughput was -0.02 to 0.47 across the
// workloads, against 0.42 to 0.95 for this kernel). Each sample is the
// fastest of three runs, so a preemption during one run does not pass
// for a slow machine.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory_resource>
#include <vector>

#include "trace.hpp"

namespace qres::perfbench {

class SpeedProbe {
 public:
  /// Kernel time at the reference speed: about what it took on a vCPU of
  /// the shared 4-vCPU, 2.1 GHz Xeon VM the bounds were set on.
  static constexpr double kReferenceNs = 350'000.0;

  /// The machine's slowdown now: kernel time over kReferenceNs.
  double slowdown() {
    std::int64_t best = 0;
    for (int run = 0; run < 3; ++run) {
      const std::int64_t start = now_ns();
      sink_ = sink_ + kernel();
      const std::int64_t took = now_ns() - start;
      if (run == 0 || took < best) best = took;
    }
    return static_cast<double>(best) / kReferenceNs;
  }

 private:
  static constexpr int kOperations = 1500;
  static constexpr std::uint64_t kKeys = 2048;

  static std::uint64_t mix(std::uint64_t& state) {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  std::size_t kernel() {
    std::pmr::monotonic_buffer_resource buffer(
        arena_.data(), arena_.size(), std::pmr::null_memory_resource());
    std::pmr::unsynchronized_pool_resource nodes(&buffer);
    std::pmr::map<std::uint64_t, std::uint64_t> map(&nodes);
    std::uint64_t state = 1;
    for (int i = 0; i < kOperations; ++i)
      map[mix(state) % kKeys] += static_cast<std::uint64_t>(i);
    for (int i = 0; i < kOperations; ++i) map.erase(mix(state) % kKeys);
    return map.size();
  }

  std::vector<std::byte> arena_ = std::vector<std::byte>(1 << 20);
  volatile std::size_t sink_ = 0;
};

}  // namespace qres::perfbench
