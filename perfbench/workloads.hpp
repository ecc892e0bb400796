/// \file workloads.hpp
/// \brief The benchmark's four workloads, driven through the library's
/// public calls only.
///
/// A workload is a cold setup followed by passes over a fixed batch of
/// simulation runs.  The batch is a pure function of the workload seed,
/// so every pass of one process simulates exactly the same thing and
/// must produce the same digest of simulated outputs.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "sim/network.hpp"
#include "sim/routing.hpp"
#include "spans.hpp"
#include "topology/topology.hpp"
#include "util/json.hpp"

namespace perfbench {

/// Sanity-gate cap on any node's intermediate buffer high-water mark
/// (packets).  The steady multihop point (rho = 0.02) peaks between 43
/// and 73; the unstable rho = 0.3 point of `bench-perf` reaches 44,882.
inline constexpr std::uint64_t kMaxNodeBufferCap = 1000;

/// Empty when a run's load was sane; otherwise the reason it was not:
/// the buffer high-water mark exceeded kMaxNodeBufferCap, or the hottest
/// link's realized utilization reached 1.  `link_util` holds the run's
/// `net.link_utilization` samples and may be empty (not measured).
[[nodiscard]] std::string sanity_violation(
    std::uint64_t max_node_buffer, const std::vector<double>& link_util);

/// 64-bit FNV-1a hash (digest fingerprints).
[[nodiscard]] std::uint64_t fnv1a(std::string_view bytes);

/// Simulated outputs of one pass, summed over its runs.
struct SimTotals {
  std::uint64_t events = 0;
  std::uint64_t bg_packets = 0;
  std::uint64_t cut_throughs = 0;
  std::uint64_t buffered_relays = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t max_node_buffer = 0;
  double finish_us_sum = 0.0;
  std::uint64_t finishes = 0;  ///< runs contributing to finish_us_sum
  /// `net.link_utilization` samples; filled only when a registry is
  /// attached (traced and gate passes, and always for campaigns).
  std::vector<double> link_util;
  std::uint64_t sessions = 0;
  std::uint64_t rejected = 0;
  std::uint64_t merged = 0;
  double latency_p99_us = 0.0;  ///< worst run's

  void add(const ihc::NetStats& s);
};

struct PassResult {
  std::vector<double> run_ms;  ///< host ms per run (per trial: campaigns)
  std::uint64_t attempted = 0;
  std::vector<std::string> failures;  ///< one line per failed run
  ihc::Json digest = ihc::Json::array();
  SimTotals sim;
};

struct PassContext {
  /// Attach a MetricsRegistry to every run (per-link utilization for the
  /// gate and the per-layer metrics).
  bool metrics = false;
  unsigned jobs = 2;  ///< campaign workers
  SpanLog* spans = nullptr;
  int parent = -1;
  int run = -1;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Cold setup: topology, decomposition, shared tables, planners.
  virtual void setup(SpanLog& spans, int parent) = 0;

  /// One pass over the fixed batch.
  [[nodiscard]] virtual PassResult pass(const PassContext& ctx) = 0;

  /// The topology the workload runs on (valid after setup).
  [[nodiscard]] virtual const ihc::Topology& topology() const = 0;

  /// The shared routing table, when setup builds one.
  [[nodiscard]] virtual const ihc::RoutingTable* routes() const {
    return nullptr;
  }

  /// Campaign workers (1 for the single-client workloads).
  [[nodiscard]] virtual unsigned jobs() const { return 1; }
};

/// Throws ihc::ConfigError on an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(std::string_view name,
                                                      std::uint64_t seed);

/// Runs the sanity gate on a stable and on a known-unstable multi-hop
/// fixture (Q_4).  Returns an empty string when the gate passes the
/// stable one and fires on the unstable one; otherwise what went wrong.
[[nodiscard]] std::string gate_self_test();

}  // namespace perfbench
