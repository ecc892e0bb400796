/// \file bench.cpp
/// \brief Benchmark driver: one workload, closed loop, one process.
///
///   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///             [--probe] [--commit <id>] [--source-digest <hex>]
///             [--spans-out <file>]
///
/// --trace 0 measures the end-to-end metrics on untraced passes;
/// --trace 1 measures the per-layer metrics (spans around every public
/// call, a MetricsRegistry on every run, the library's wall profiler).
/// --probe runs one cold setup and one pass, prints their setup_s and
/// peak_rss_mb, and exits.  run.py reports both metrics as medians over
/// several probe processes: the library memoizes decompositions per
/// process, so a second setup in one process is not cold, and the peak
/// RSS of a long loop drifts with glibc's per-thread arenas.
///
/// Lines starting with "# " carry the stamp, the sample counts, the
/// simulated-output digest and (traced) the span totals; the last line
/// is the result object.  Failed checks are listed on stderr.
#include <sys/resource.h>

#include <algorithm>
#include <fstream>
#include <iostream>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "obs/prof/profiler.hpp"
#include "spans.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace {

using ihc::Json;
using perfbench::now_ns;
using perfbench::PassContext;
using perfbench::PassResult;
using perfbench::SpanLog;

/// Seed kept out of every tuning run, for checking later claims
/// (README.md, "Held-out seed").
constexpr std::uint64_t kHeldOutSeed = 7777;

/// Uniform (src, dst) pairs timed through RoutingTable::path_into.
constexpr std::size_t kPathProbeCalls = 200'000;

/// Share of a traced run's --seconds spent on untraced passes (the
/// baseline of obs.trace_overhead).
constexpr double kUntracedShare = 0.4;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool probe = false;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
  std::string spans_out;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--probe") {
      a.probe = true;
      continue;
    }
    ihc::require(i + 1 < argc, "missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") a.workload = v;
    else if (flag == "--seed") a.seed = std::stoull(v);
    else if (flag == "--seconds") a.seconds = std::stod(v);
    else if (flag == "--trace") a.trace = (std::stoi(v) != 0);
    else if (flag == "--commit") a.commit = v;
    else if (flag == "--source-digest") a.source_digest = v;
    else if (flag == "--spans-out") a.spans_out = v;
    else throw ihc::ConfigError("unknown flag " + flag);
  }
  ihc::require(!a.workload.empty(), "--workload is required");
  ihc::require(a.seconds > 0.0, "--seconds must be positive");
  return a;
}

/// Linear-interpolation quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

double seconds_since(std::uint64_t t0) {
  return static_cast<double>(now_ns() - t0) / 1e9;
}

/// Peak resident memory of this process image.  VmHWM, not getrusage's
/// ru_maxrss: Linux carries ru_maxrss across execve, so it would report
/// at least the launching Python process's footprint.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) * 1024.0 / 1e6;  // kB -> MB
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;
}

Json metric(double value, const char* unit) {
  Json m = Json::object();
  m.set("value", value);
  m.set("unit", unit);
  return m;
}

/// Pass wall times, per-run host times and pass results of one loop.
struct Loop {
  std::vector<double> pass_s;
  std::vector<double> run_ms;
  std::vector<PassResult> passes;
};

class Driver {
 public:
  explicit Driver(const Args& args)
      : args_(args),
        spans_(args.trace),
        off_(false),
        workload_(perfbench::make_workload(args.workload, args.seed)) {}

  int run() {
    const std::uint64_t t0 = now_ns();
    {
      const SpanLog::Scope s(spans_, "setup", -1, -1);
      workload_->setup(spans_, s.id());
    }
    const double setup_s = seconds_since(t0);
    if (args_.probe) {
      PassContext ctx = context(/*metrics=*/true, off_, -1, -1);
      (void)workload_->pass(ctx);
      Json out = Json::object();
      out.set("setup_s", setup_s);
      out.set("peak_rss_mb", peak_rss_mb());
      std::cout << out.dump(0) << "\n";
      return 0;
    }

    ++attempted_;
    if (const std::string why = perfbench::gate_self_test(); !why.empty())
      fail("gate self-test: " + why);

    // Warm-up pass: fills caches and lazy state, runs the full sanity
    // gate (registry attached), and fixes the reference digest.
    PassContext warm = context(/*metrics=*/true, off_, -1, -1);
    PassResult ref = workload_->pass(warm);
    absorb(ref);
    reference_ = ref.digest.dump(0);

    Json metrics = args_.trace ? traced_metrics() : end_to_end(setup_s);

    print_stamp();
    std::cout << "# digest " << digest_line() << "\n";
    for (const std::string& f : failures_) std::cerr << "FAILED " << f << "\n";

    Json result = Json::object();
    result.set("correct", failures_.empty());
    result.set("attempted", attempted_);
    result.set("failed", std::min<std::uint64_t>(failures_.size(), attempted_));
    result.set("metrics", std::move(metrics));
    std::cout << result.dump(0) << "\n";
    return 0;
  }

 private:
  Args args_;
  SpanLog spans_;
  SpanLog off_;
  std::unique_ptr<perfbench::Workload> workload_;
  std::uint64_t attempted_ = 0;
  std::vector<std::string> failures_;
  std::string reference_;
  std::size_t passes_ = 0;
  std::size_t samples_ = 0;

  void fail(std::string why) { failures_.push_back(std::move(why)); }

  PassContext context(bool metrics, SpanLog& spans, int parent, int run,
                      unsigned jobs = 0) const {
    PassContext ctx;
    ctx.metrics = metrics;
    ctx.jobs = jobs ? jobs : workload_->jobs();
    ctx.spans = &spans;
    ctx.parent = parent;
    ctx.run = run;
    return ctx;
  }

  void absorb(const PassResult& p) {
    attempted_ += p.attempted;
    for (const std::string& f : p.failures) fail(f);
  }

  /// Runs passes until `seconds` have elapsed (at least one).  Every
  /// pass must reproduce the warm-up pass's digest.
  Loop loop(double seconds, bool traced, unsigned jobs = 0) {
    Loop out;
    const std::uint64_t start = now_ns();
    do {
      const int run = static_cast<int>(passes_++);
      const std::uint64_t t0 = now_ns();
      PassResult p;
      {
        SpanLog& log = traced ? spans_ : off_;
        const SpanLog::Scope s(log, "pass", -1, run);
        p = workload_->pass(context(traced, log, s.id(), run, jobs));
      }
      out.pass_s.push_back(seconds_since(t0));
      out.run_ms.insert(out.run_ms.end(), p.run_ms.begin(), p.run_ms.end());
      absorb(p);
      if (p.digest.dump(0) != reference_)
        fail("pass " + std::to_string(run) +
             ": simulated outputs differ from the warm-up pass");
      out.passes.push_back(std::move(p));
    } while (seconds_since(start) < seconds);
    return out;
  }

  /// Host time of each run of the batch: its fastest repetition over the
  /// loop's passes.  Passes with a failed run (fewer timings) are skipped.
  static std::vector<double> fastest_per_run(const Loop& l) {
    std::vector<double> best = l.passes.front().run_ms;
    for (const PassResult& p : l.passes)
      if (p.run_ms.size() == best.size())
        for (std::size_t k = 0; k < best.size(); ++k)
          best[k] = std::min(best[k], p.run_ms[k]);
    return best;
  }

  Json end_to_end(double setup_s) {
    const Loop l = loop(args_.seconds, false);
    samples_ = l.run_ms.size();
    const std::vector<double> runs = fastest_per_run(l);
    Json m = Json::object();
    m.set("wall_s",
          metric(*std::min_element(l.pass_s.begin(), l.pass_s.end()), "s"));
    m.set("run_ms_p50", metric(quantile(runs, 0.5), "ms"));
    m.set("run_ms_p90", metric(quantile(runs, 0.9), "ms"));
    m.set("setup_s", metric(setup_s, "s"));
    m.set("peak_rss_mb", metric(peak_rss_mb(), "MB"));
    const double failed = static_cast<double>(failures_.size());
    m.set("pass_ratio",
          metric(1.0 - std::min(1.0, failed / static_cast<double>(attempted_)),
                 "ratio"));
    return m;
  }

  /// path_into over uniform pairs; builds a table first when the
  /// workload's setup does not.  Returns mean ns per call.
  double path_probe() {
    const SpanLog::Scope probe(spans_, "probe", -1, -1);
    std::unique_ptr<ihc::RoutingTable> own;
    const ihc::RoutingTable* routes = workload_->routes();
    if (routes == nullptr) {
      const SpanLog::Scope s(spans_, "routing.build", probe.id(), -1);
      own = std::make_unique<ihc::RoutingTable>(workload_->topology().graph());
      routes = own.get();
    }
    const ihc::NodeId n = workload_->topology().node_count();
    ihc::SplitMix64 rng(args_.seed);
    std::vector<std::pair<ihc::NodeId, ihc::NodeId>> pairs(kPathProbeCalls);
    for (auto& [a, b] : pairs) {
      a = static_cast<ihc::NodeId>(rng.below(n));
      b = static_cast<ihc::NodeId>(rng.below(n));
    }
    std::vector<ihc::NodeId> path;
    std::size_t hops = 0;
    const std::uint64_t t0 = now_ns();
    {
      const SpanLog::Scope s(spans_, "routing.path_into", probe.id(), -1);
      for (const auto& [a, b] : pairs) {
        path.clear();
        routes->path_into(a, b, path);
        hops += path.size();
      }
    }
    const double ns = static_cast<double>(now_ns() - t0);
    if (hops < pairs.size()) fail("path_into returned empty paths");
    return ns / static_cast<double>(pairs.size());
  }

  Json traced_metrics() {
    const double path_ns = path_probe();
    const Loop plain = loop(args_.seconds * kUntracedShare, false);

    // Trial inflation: mean trial time at the workload's worker count
    // over mean trial time on a single worker.
    double inflation = 0.0;
    if (workload_->jobs() > 1) {
      const Loop single = loop(0.0, false, 1);
      inflation = mean(plain.run_ms) / mean(single.run_ms);
    }

    ihc::obs::prof::WallProfiler prof;
    prof.set_heartbeat_interval_ms(3'600'000);  // no progress lines
    ihc::obs::prof::set_global_profiler(&prof);
    const Loop traced = loop(args_.seconds * (1.0 - kUntracedShare), true);
    ihc::obs::prof::set_global_profiler(nullptr);
    samples_ = traced.run_ms.size();

    double event_loop_ms = 0.0;
    const Json profile = prof.to_json();
    if (const Json* phases = profile.find("phases"))
      for (const Json& p : phases->items())
        if (p.find("name")->as_string() == "event_loop")
          event_loop_ms = p.find("wall_ms")->as_double();

    const perfbench::SimTotals& sim = traced.passes.back().sim;
    const double run_ms_sum =
        std::accumulate(traced.run_ms.begin(), traced.run_ms.end(), 0.0);
    double events = 0.0;
    double sessions = 0.0;
    for (const PassResult& p : traced.passes) {
      events += static_cast<double>(p.sim.events);
      sessions += static_cast<double>(p.sim.sessions);
    }
    const double pass_s_sum =
        std::accumulate(traced.pass_s.begin(), traced.pass_s.end(), 0.0);
    const double n = workload_->topology().node_count();
    const double relays =
        static_cast<double>(sim.cut_throughs + sim.buffered_relays);
    const double util_mean = mean(sim.link_util);
    const double util_max =
        sim.link_util.empty()
            ? 0.0
            : *std::max_element(sim.link_util.begin(), sim.link_util.end());
    auto first_ms = [this](const char* name) {
      const std::vector<double> d = spans_.durations_ms(name);
      return d.empty() ? 0.0 : d.front();
    };

    Json m = Json::object();
    m.set("topology.build_ms", metric(first_ms("topology.build"), "ms"));
    m.set("graph.cycles_ms", metric(first_ms("graph.cycles"), "ms"));
    m.set("routing.build_ms", metric(first_ms("routing.build"), "ms"));
    m.set("routing.table_mb", metric(n * n * 10.0 / 1e6, "MB"));
    m.set("routing.path_ns", metric(path_ns, "ns"));
    m.set("sim.events", metric(static_cast<double>(sim.events), "count"));
    m.set("sim.ns_per_event",
          metric(events > 0 ? run_ms_sum * 1e6 / events : 0.0, "ns"));
    m.set("sim.bg_packets",
          metric(static_cast<double>(sim.bg_packets), "count"));
    m.set("sim.buffered_relays",
          metric(static_cast<double>(sim.buffered_relays), "count"));
    m.set("sim.ct_ratio",
          metric(relays > 0 ? static_cast<double>(sim.cut_throughs) / relays
                            : 0.0,
                 "ratio"));
    m.set("sim.max_node_buffer",
          metric(static_cast<double>(sim.max_node_buffer), "count"));
    m.set("sim.hot_link_ratio",
          metric(util_mean > 0 ? util_max / util_mean : 0.0, "ratio"));
    m.set("sim.deliveries",
          metric(static_cast<double>(sim.deliveries), "count"));
    m.set("sim.finish_us",
          metric(sim.finishes ? sim.finish_us_sum /
                                    static_cast<double>(sim.finishes)
                              : 0.0,
                 "us"));
    m.set("core.run_ms", metric(mean(traced.run_ms), "ms"));
    m.set("prof.event_loop_share",
          metric(run_ms_sum > 0 ? event_loop_ms / run_ms_sum : 0.0, "ratio"));
    m.set("exp.parallel_eff",
          metric(run_ms_sum / 1e3 / (workload_->jobs() * pass_s_sum), "ratio"));
    m.set("exp.trial_inflation", metric(inflation, "ratio"));
    m.set("workload.host_us_per_session",
          metric(sessions > 0 ? run_ms_sum * 1e3 / sessions : 0.0, "us"));
    m.set("workload.sessions",
          metric(static_cast<double>(sim.sessions), "count"));
    m.set("workload.rejected",
          metric(static_cast<double>(sim.rejected), "count"));
    m.set("workload.merged", metric(static_cast<double>(sim.merged), "count"));
    m.set("workload.latency_p99_us", metric(sim.latency_p99_us, "us"));
    m.set("obs.trace_overhead",
          metric(mean(traced.pass_s) / mean(plain.pass_s), "ratio"));

    std::cout << "# spans " << perfbench::totals_json(spans_.totals()).dump(0)
              << "\n";
    if (!args_.spans_out.empty()) {
      std::ofstream f(args_.spans_out);
      f << spans_.to_json().dump(0) << "\n";
      if (!f) fail("cannot write spans to " + args_.spans_out);
    }
    return m;
  }

  std::string digest_line() const {
    Json d = Json::object();
    d.set("workload", args_.workload);
    d.set("seed", args_.seed);
    d.set("fnv1a", perfbench::fnv1a(reference_));
    d.set("runs", *Json::parse(reference_));
    return d.dump(0);
  }

  void print_stamp() const {
    Json s = Json::object();
    s.set("workload", args_.workload);
    s.set("seed", args_.seed);
    s.set("held_out_seed", kHeldOutSeed);
    s.set("trace", args_.trace);
    s.set("seconds", args_.seconds);
    s.set("hw_threads",
          static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
    s.set("jobs", static_cast<std::uint64_t>(workload_->jobs()));
    s.set("build_type", PERFBENCH_BUILD_TYPE);
    s.set("cxx_flags", PERFBENCH_CXX_FLAGS);
    s.set("compiler", PERFBENCH_COMPILER);
    s.set("commit", args_.commit);
    s.set("source_digest", args_.source_digest);
    s.set("passes", static_cast<std::uint64_t>(passes_));
    s.set("run_samples", static_cast<std::uint64_t>(samples_));
    std::cout << "# stamp " << s.dump(0) << "\n";
  }
};

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    Driver driver(args);
    return driver.run();
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
