#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <exception>
#include <map>

#include "core/analysis.hpp"
#include "core/ihc.hpp"
#include "core/session.hpp"
#include "exp/campaigns.hpp"
#include "exp/runner.hpp"
#include "obs/metrics.hpp"
#include "topology/hypercube.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "workload/engine.hpp"

namespace perfbench {

namespace {

using ihc::Json;

double ms_since(std::uint64_t t0) {
  return static_cast<double>(now_ns() - t0) / 1e6;
}

/// The paper's Section VI timing point shared by every workload:
/// alpha = 20 ns, tau_S = 200 ns, mu = 2.
ihc::NetworkParams base_params() {
  ihc::NetworkParams p;
  p.alpha = ihc::sim_ns(20);
  p.tau_s = ihc::sim_ns(200);
  p.mu = 2;
  return p;
}

std::vector<std::uint64_t> derive_seeds(std::uint64_t seed, std::size_t n) {
  ihc::SplitMix64 rng(seed);
  std::vector<std::uint64_t> out(n);
  for (auto& s : out) s = rng();
  return out;
}

Json net_digest(const ihc::NetStats& s) {
  Json d = Json::object();
  d.set("finish_ps", s.finish_time);
  d.set("injections", s.injections);
  d.set("cut_throughs", s.cut_throughs);
  d.set("buffered_relays", s.buffered_relays);
  d.set("redirects", s.redirects);
  d.set("background_packets", s.background_packets);
  d.set("deliveries", s.deliveries);
  d.set("events", s.events_processed);
  d.set("queue_wait_ps", s.total_queue_wait);
  d.set("link_busy_ps", s.link_busy_time);
  d.set("max_node_buffer", std::uint64_t{s.max_node_buffer_occupancy});
  return d;
}

/// Builds Q_dim and its directed Hamiltonian cycles under two spans.
std::shared_ptr<const ihc::Hypercube> build_cube(unsigned dim, SpanLog& spans,
                                                 int parent) {
  std::shared_ptr<ihc::Hypercube> cube;
  {
    const SpanLog::Scope s(spans, "topology.build", parent, -1);
    cube = std::make_shared<ihc::Hypercube>(dim);
  }
  {
    const SpanLog::Scope s(spans, "graph.cycles", parent, -1);
    (void)cube->directed_cycles();
  }
  return cube;
}

// --- IHC runs (multihop, scale) -----------------------------------------

/// One run_ihc per seed with multi-hop background; checks that every
/// participating (origin, dest) pair received gamma copies of each packet
/// and that the run passed the sanity gate.
class IhcRuns : public Workload {
 public:
  IhcRuns(unsigned dim, ihc::IhcOptions ihc, double rho,
          std::vector<std::uint64_t> seeds)
      : dim_(dim), ihc_(ihc), seeds_(std::move(seeds)) {
    params_ = base_params();
    params_.rho = rho;
    params_.background_mode = ihc::BackgroundMode::kMultiHopFlows;
  }

  void setup(SpanLog& spans, int parent) override {
    cube_ = build_cube(dim_, spans, parent);
    const SpanLog::Scope s(spans, "routing.build", parent, -1);
    routes_ = std::make_unique<ihc::RoutingTable>(cube_->graph());
  }

  PassResult pass(const PassContext& ctx) override {
    PassResult out;
    const ihc::NodeId n = cube_->node_count();
    const ihc::NodeId origins = ihc_.origin_limit ? ihc_.origin_limit : n;
    const std::uint32_t expected =
        cube_->gamma() * ihc::ihc_packet_count(ihc_.message_units, params_.mu);
    for (const std::uint64_t seed : seeds_) {
      ++out.attempted;
      ihc::obs::MetricsRegistry reg;
      ihc::AtaOptions opt;
      opt.net = params_;
      opt.net.seed = seed;
      opt.routes = routes_.get();
      if (ctx.metrics) opt.metrics = &reg;
      try {
        const std::uint64_t t0 = now_ns();
        ihc::AtaResult r;
        {
          const SpanLog::Scope s(*ctx.spans, "run_ihc", ctx.parent, ctx.run);
          r = ihc::run_ihc(*cube_, ihc_, opt);
        }
        out.run_ms.push_back(ms_since(t0));

        const SpanLog::Scope s(*ctx.spans, "check", ctx.parent, ctx.run);
        std::string why;
        for (ihc::NodeId o = 0; o < origins && why.empty(); ++o)
          for (ihc::NodeId d = 0; d < n; ++d)
            if (d != o && r.ledger.copies(o, d) != expected) {
              why = "pair (" + std::to_string(o) + "," + std::to_string(d) +
                    ") holds " + std::to_string(r.ledger.copies(o, d)) +
                    " copies, expected " + std::to_string(expected);
              break;
            }
        const std::vector<double> util = reg.samples("net.link_utilization");
        if (why.empty())
          why = sanity_violation(r.stats.max_node_buffer_occupancy, util);
        if (!why.empty())
          out.failures.push_back("seed " + std::to_string(seed) + ": " + why);

        out.sim.add(r.stats);
        out.sim.link_util.insert(out.sim.link_util.end(), util.begin(),
                                 util.end());
        Json d = net_digest(r.stats);
        d.set("seed", seed);
        out.digest.push(std::move(d));
      } catch (const std::exception& e) {
        out.failures.push_back("seed " + std::to_string(seed) + ": " +
                               e.what());
      }
    }
    return out;
  }

  const ihc::Topology& topology() const override { return *cube_; }
  const ihc::RoutingTable* routes() const override { return routes_.get(); }

 private:
  unsigned dim_;
  ihc::IhcOptions ihc_;
  ihc::NetworkParams params_;
  std::vector<std::uint64_t> seeds_;
  std::shared_ptr<const ihc::Hypercube> cube_;
  std::unique_ptr<ihc::RoutingTable> routes_;
};

// --- campaigns ----------------------------------------------------------

class Campaigns : public Workload {
 public:
  void setup(SpanLog& spans, int parent) override {
    // Built first so its decomposition is the cold one; the campaign
    // factories then reuse the library's per-dimension memo.
    cube_ = build_cube(6, spans, parent);
    for (const char* name : {"rho_sweep", "fault_tolerance"}) {
      const SpanLog::Scope s(spans, "campaign.make", parent, -1);
      campaigns_.push_back(ihc::exp::make_builtin_campaign(name));
    }
  }

  PassResult pass(const PassContext& ctx) override {
    PassResult out;
    ihc::exp::RunOptions ro;
    ro.jobs = ctx.jobs;
    ro.collect_metrics = true;
    for (const ihc::exp::Campaign& base : campaigns_) {
      const std::string& name = base.spec.name;
      ihc::exp::CampaignResult res;
      try {
        const SpanLog::Scope s(*ctx.spans, "run_campaign", ctx.parent,
                               ctx.run);
        if (ctx.spans->enabled()) {
          // One span per trial, parented to this run_campaign call.
          ihc::exp::Campaign traced = base;
          traced.run = [&base, &ctx, parent = s.id()](
                           const ihc::exp::Trial& t,
                           ihc::exp::TrialContext& tc) {
            const SpanLog::Scope ts(*ctx.spans, "trial", parent, ctx.run);
            return base.run(t, tc);
          };
          res = ihc::exp::run_campaign(traced, ro);
        } else {
          res = ihc::exp::run_campaign(base, ro);
        }
      } catch (const std::exception& e) {
        ++out.attempted;
        out.failures.push_back(name + ": " + e.what());
        continue;
      }
      const SpanLog::Scope s(*ctx.spans, "check", ctx.parent, ctx.run);
      check_and_digest(name, res, out);
    }
    return out;
  }

  const ihc::Topology& topology() const override { return *cube_; }
  unsigned jobs() const override { return 2; }

 private:
  std::shared_ptr<const ihc::Hypercube> cube_;
  std::vector<ihc::exp::Campaign> campaigns_;

  void check_and_digest(const std::string& name,
                        const ihc::exp::CampaignResult& res,
                        PassResult& out) const {
    // The dedicated-network closed form of Table II for the rho_sweep
    // point (Q_6, eta = 2): 2 * (tau_S + mu alpha + (N-2) alpha).
    const double closed_form =
        ihc::model::ihc_dedicated(cube_->node_count(), 2, base_params());
    Json finish = Json::array();
    std::map<std::string, double> sums;
    std::string all_metrics;  // every trial's id, metric names and values
    for (const ihc::exp::TrialResult& t : res.trials) {
      ++out.attempted;
      out.run_ms.push_back(t.wall_ms);
      if (!t.ok) {
        out.failures.push_back(name + " " + t.trial.id + ": " + t.error);
        continue;
      }
      all_metrics += t.trial.id;
      for (const ihc::exp::Metric& m : t.metrics) {
        sums[m.name] += m.value;
        all_metrics += m.name + Json(m.value).dump(0);
      }
      if (const ihc::exp::Metric* f = t.find_metric("finish_ps")) {
        finish.push(f->value);
        out.sim.finish_us_sum += f->value / 1e6;
        ++out.sim.finishes;
        if (t.trial.get_double("rho") == 0.0 && f->value != closed_form)
          out.failures.push_back(
              name + " " + t.trial.id + ": finish " +
              Json(f->value).dump(0) + " ps, closed form " +
              Json(closed_form).dump(0) + " ps");
      }
    }

    const ihc::obs::MetricsRegistry& m = res.metrics;
    auto counter = [&m](const char* key) {
      return static_cast<std::uint64_t>(m.counter(key));
    };
    SimTotals& sim = out.sim;
    sim.events += counter("net.events_processed");
    sim.bg_packets += counter("net.background_packets");
    sim.cut_throughs += counter("net.cut_throughs");
    sim.buffered_relays += counter("net.buffered_relays");
    sim.deliveries += counter("net.deliveries");
    const auto max_buf =
        static_cast<std::uint64_t>(m.max_value("net.max_node_buffer_occupancy"));
    sim.max_node_buffer = std::max(sim.max_node_buffer, max_buf);
    const std::vector<double> util = m.samples("net.link_utilization");
    sim.link_util.insert(sim.link_util.end(), util.begin(), util.end());
    // Buffer cap only: rho_sweep's grid deliberately runs single-link
    // background up to rho = 0.8, where background plus the broadcast
    // exceed a link's capacity by design (Section VI-B's overload tail).
    if (const std::string why = sanity_violation(max_buf, {}); !why.empty())
      out.failures.push_back(name + ": " + why);

    Json aggregates = Json::object();
    for (const auto& [metric, sum] : sums)
      aggregates.set(metric, sum / static_cast<double>(res.trials.size()));
    Json d = Json::object();
    d.set("campaign", name);
    d.set("trials", static_cast<std::uint64_t>(res.trials.size()));
    d.set("failed", static_cast<std::uint64_t>(res.failed_count()));
    d.set("events", counter("net.events_processed"));
    d.set("deliveries", counter("net.deliveries"));
    d.set("cut_throughs", counter("net.cut_throughs"));
    d.set("buffered_relays", counter("net.buffered_relays"));
    d.set("background_packets", counter("net.background_packets"));
    d.set("max_node_buffer", max_buf);
    if (!finish.items().empty()) d.set("finish_ps", std::move(finish));
    d.set("mean", std::move(aggregates));
    d.set("metrics_fnv1a", fnv1a(all_metrics));
    out.digest.push(std::move(d));
  }
};

// --- service ------------------------------------------------------------

class Service : public Workload {
 public:

  void setup(SpanLog& spans, int parent) override {
    cube_ = build_cube(6, spans, parent);
    for (const char* algo : {"ihc", "vrs"}) {
      const SpanLog::Scope s(spans, "planner.build", parent, -1);
      planners_.push_back(ihc::SessionPlanner::build(algo, cube_));
    }
  }

  PassResult pass(const PassContext& ctx) override {
    PassResult out;
    std::uint64_t stream_index = 0;
    for (const double rate : kStreamRatesPerUs) {
      // Shared by both planners: they serve the same arrival stream.
      const std::uint64_t stream = ihc::derive_seed(
          "perfbench.service", std::to_string(stream_index));
      for (const ihc::SessionPlanner& planner : planners_) {
        ++out.attempted;
        ihc::obs::MetricsRegistry reg;
        ihc::workload::WorkloadOptions opt;
        opt.net = base_params();
        opt.arrivals.mean_gap_ps = static_cast<ihc::SimTime>(
            static_cast<double>(ihc::sim_us(1)) / rate + 0.5);
        opt.arrivals.sessions_per_origin = kSessionsPerOrigin;
        opt.seed = stream;
        opt.warmup.mode = ihc::workload::WarmupMode::kFixedFraction;
        if (ctx.metrics) opt.metrics = &reg;
        const std::string label = planner.algorithm() + "@" +
                                  Json(rate).dump(0) + "#" +
                                  std::to_string(stream_index);
        try {
          const std::uint64_t t0 = now_ns();
          ihc::workload::WorkloadResult r;
          {
            const SpanLog::Scope s(*ctx.spans, "run_workload", ctx.parent,
                                   ctx.run);
            r = ihc::workload::run_workload(planner, opt);
          }
          out.run_ms.push_back(ms_since(t0));

          const SpanLog::Scope s(*ctx.spans, "check", ctx.parent, ctx.run);
          const std::uint64_t expect_offered =
              std::uint64_t{cube_->node_count()} * kSessionsPerOrigin;
          std::string why;
          if (r.offered != expect_offered)
            why = "offered " + std::to_string(r.offered) + ", expected " +
                  std::to_string(expect_offered);
          else if (r.offered != r.completed + r.rejected + r.inflight_at_drain)
            why = "offered " + std::to_string(r.offered) + " != completed " +
                  std::to_string(r.completed) + " + rejected " +
                  std::to_string(r.rejected) + " + in-flight " +
                  std::to_string(r.inflight_at_drain);
          const std::vector<double> util =
              reg.samples("net.link_utilization");
          if (why.empty())
            why = sanity_violation(r.stats.max_node_buffer_occupancy, util);
          if (!why.empty()) out.failures.push_back(label + ": " + why);

          out.sim.add(r.stats);
          out.sim.link_util.insert(out.sim.link_util.end(), util.begin(),
                                   util.end());
          out.sim.sessions += r.offered;
          out.sim.rejected += r.rejected;
          out.sim.merged += r.merged_sessions;
          const double p99_us = r.measurement.latency_ps.p99 / 1e6;
          out.sim.latency_p99_us = std::max(out.sim.latency_p99_us, p99_us);

          Json d = net_digest(r.stats);
          d.set("run", label);
          d.set("offered", r.offered);
          d.set("admitted", r.admitted);
          d.set("rejected", r.rejected);
          d.set("completed", r.completed);
          d.set("inflight_at_drain", r.inflight_at_drain);
          d.set("batches", r.batches);
          d.set("merged", r.merged_sessions);
          d.set("horizon_ps", r.horizon);
          d.set("latency_p50_ps", r.measurement.latency_ps.p50);
          d.set("latency_p99_ps", r.measurement.latency_ps.p99);
          out.digest.push(std::move(d));
        } catch (const std::exception& e) {
          out.failures.push_back(label + ": " + e.what());
        }
      }
      ++stream_index;
    }
    return out;
  }

  const ihc::Topology& topology() const override { return *cube_; }

 private:
  /// One arrival stream per entry (sessions/us per origin); the 0.2 rate
  /// gets two so that a pass has 6 runs and p90 has enough samples.  The
  /// streams do not depend on the workload seed: a VRS run at 0.2 takes
  /// 90 to 330 host ms depending on its stream, with the same simulated
  /// event, batch and merge counts, so seeded streams would make the run
  /// times move with the seed rather than with the code.
  static constexpr std::array<double, 3> kStreamRatesPerUs = {0.05, 0.2, 0.2};
  static constexpr std::size_t kSessionsPerOrigin = 64;
  std::shared_ptr<const ihc::Hypercube> cube_;
  std::vector<ihc::SessionPlanner> planners_;
};

}  // namespace

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

void SimTotals::add(const ihc::NetStats& s) {
  events += s.events_processed;
  bg_packets += s.background_packets;
  cut_throughs += s.cut_throughs;
  buffered_relays += s.buffered_relays;
  deliveries += s.deliveries;
  max_node_buffer = std::max<std::uint64_t>(max_node_buffer,
                                            s.max_node_buffer_occupancy);
  finish_us_sum += static_cast<double>(s.finish_time) / 1e6;
  ++finishes;
}

std::string sanity_violation(std::uint64_t max_node_buffer,
                             const std::vector<double>& link_util) {
  if (max_node_buffer > kMaxNodeBufferCap)
    return "node buffer high-water " + std::to_string(max_node_buffer) +
           " exceeds cap " + std::to_string(kMaxNodeBufferCap);
  if (!link_util.empty()) {
    const double hot = *std::max_element(link_util.begin(), link_util.end());
    if (hot >= 1.0)
      return "hottest link realized utilization " + Json(hot).dump(0) +
             " >= 1";
  }
  return {};
}

std::unique_ptr<Workload> make_workload(std::string_view name,
                                        std::uint64_t seed) {
  if (name == "campaigns") return std::make_unique<Campaigns>();
  if (name == "multihop")
    return std::make_unique<IhcRuns>(
        6, ihc::IhcOptions{.eta = 2, .message_units = 64}, 0.02,
        derive_seeds(seed, 8));
  if (name == "service") return std::make_unique<Service>();
  if (name == "scale")
    return std::make_unique<IhcRuns>(
        12, ihc::IhcOptions{.eta = 2, .origin_limit = 16}, 0.005,
        derive_seeds(seed, 4));
  throw ihc::ConfigError("unknown workload '" + std::string(name) +
                         "' (campaigns, multihop, service, scale)");
}

std::string gate_self_test() {
  // Q_4's e-cube hot link carries about 3.4x the mean background load:
  // at rho = 0.4 its realized utilization exceeds 2 within 1 ms of host
  // time, while at rho = 0.05 it stays below 0.8.
  auto fixture = [](double rho) {
    IhcRuns w(4, ihc::IhcOptions{.eta = 2}, rho, derive_seeds(7, 1));
    SpanLog off(false);
    w.setup(off, -1);
    PassContext ctx;
    ctx.metrics = true;
    ctx.spans = &off;
    return w.pass(ctx);
  };
  const PassResult stable = fixture(0.05);
  if (!stable.failures.empty())
    return "gate fired on the stable fixture: " + stable.failures.front();
  const PassResult unstable = fixture(0.4);
  if (sanity_violation(unstable.sim.max_node_buffer, unstable.sim.link_util)
          .empty())
    return "gate did not fire on the unstable fixture (max node buffer " +
           std::to_string(unstable.sim.max_node_buffer) + ")";
  return {};
}

}  // namespace perfbench
