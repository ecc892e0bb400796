/// \file spans.hpp
/// \brief In-memory host-time spans recorded around the library's public
/// calls.
///
/// A span is (name, start, end, parent span, run id).  The log is
/// disabled in end-to-end runs - opening a span is then one branch and
/// no clock read - and enabled in the traced run, where spans are kept
/// in memory and written out once at exit.  Self time is a span's
/// duration minus the union of its children's intervals, so overlapping
/// children (campaign trials on two workers) are not counted twice.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace perfbench {

/// Monotonic host time in nanoseconds.
[[nodiscard]] std::uint64_t now_ns();

struct SpanRecord {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  int id = 0;
  int parent = -1;  ///< -1 for a root span
  int run = -1;     ///< run id shared by one pass's spans; -1 outside passes
};

struct SpanTotals {
  std::uint64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// An open span; closes (and is recorded) when destroyed.  Inert when
  /// the log is disabled.  Safe to open from worker threads.
  class Scope {
   public:
    Scope(SpanLog& log, std::string name, int parent, int run);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Id to pass as `parent` to child spans (-1 when disabled).
    [[nodiscard]] int id() const { return id_; }

   private:
    SpanLog& log_;
    std::string name_;
    int id_ = -1;
    int parent_;
    int run_;
    std::uint64_t start_ = 0;
  };

  /// Durations (ms) of every span with this name.
  [[nodiscard]] std::vector<double> durations_ms(const std::string& name) const;

  /// Per-name count, total and self time.
  [[nodiscard]] std::map<std::string, SpanTotals> totals() const;

  /// {"spans": [...], "totals": {...}} for writing out at exit.
  [[nodiscard]] ihc::Json to_json() const;

 private:
  bool enabled_;
  mutable std::mutex mu_;  ///< guards next_id_ and records_
  int next_id_ = 0;
  std::vector<SpanRecord> records_;

  int reserve_id();
  void record(SpanRecord rec);
  /// Recorded spans, in closing order.
  [[nodiscard]] std::vector<SpanRecord> spans() const;
};

/// {name: {"count", "total_ms", "self_ms"}}.
[[nodiscard]] ihc::Json totals_json(
    const std::map<std::string, SpanTotals>& totals);

}  // namespace perfbench
