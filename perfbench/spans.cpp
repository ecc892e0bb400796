#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

namespace perfbench {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

SpanLog::Scope::Scope(SpanLog& log, std::string name, int parent, int run)
    : log_(log), parent_(parent), run_(run) {
  if (!log_.enabled_) return;
  name_ = std::move(name);
  id_ = log_.reserve_id();
  start_ = now_ns();
}

SpanLog::Scope::~Scope() {
  if (id_ < 0) return;
  log_.record({std::move(name_), start_, now_ns(), id_, parent_, run_});
}

int SpanLog::reserve_id() {
  const std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void SpanLog::record(SpanRecord rec) {
  const std::lock_guard<std::mutex> lock(mu_);
  records_.push_back(std::move(rec));
}

std::vector<SpanRecord> SpanLog::spans() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return records_;
}

std::vector<double> SpanLog::durations_ms(const std::string& name) const {
  std::vector<double> out;
  for (const SpanRecord& s : spans())
    if (s.name == name)
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
  return out;
}

std::map<std::string, SpanTotals> SpanLog::totals() const {
  const std::vector<SpanRecord> all = spans();
  std::map<int, std::vector<std::pair<std::uint64_t, std::uint64_t>>> kids;
  for (const SpanRecord& s : all)
    if (s.parent >= 0) kids[s.parent].emplace_back(s.start_ns, s.end_ns);

  std::map<std::string, SpanTotals> out;
  for (const SpanRecord& s : all) {
    // Union of the children's intervals, clipped to this span.
    std::uint64_t covered = 0;
    if (auto it = kids.find(s.id); it != kids.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      std::uint64_t lo = 0;
      std::uint64_t hi = 0;
      for (const auto& [a0, b0] : iv) {
        const std::uint64_t a = std::max(a0, s.start_ns);
        const std::uint64_t b = std::min(b0, s.end_ns);
        if (b <= a) continue;
        if (a > hi) {
          covered += hi - lo;
          lo = a;
          hi = b;
        } else {
          hi = std::max(hi, b);
        }
      }
      covered += hi - lo;
    }
    const std::uint64_t dur = s.end_ns - s.start_ns;
    SpanTotals& t = out[s.name];
    ++t.count;
    t.total_ms += static_cast<double>(dur) / 1e6;
    t.self_ms += static_cast<double>(dur - std::min(dur, covered)) / 1e6;
  }
  return out;
}

ihc::Json SpanLog::to_json() const {
  ihc::Json list = ihc::Json::array();
  for (const SpanRecord& s : spans()) {
    ihc::Json row = ihc::Json::object();
    row.set("name", s.name);
    row.set("id", s.id);
    row.set("parent", s.parent);
    row.set("run", s.run);
    row.set("start_ns", s.start_ns);
    row.set("end_ns", s.end_ns);
    list.push(std::move(row));
  }
  ihc::Json doc = ihc::Json::object();
  doc.set("schema", "perfbench-spans-v1");
  doc.set("spans", std::move(list));
  doc.set("totals", totals_json(totals()));
  return doc;
}

ihc::Json totals_json(const std::map<std::string, SpanTotals>& totals) {
  ihc::Json out = ihc::Json::object();
  for (const auto& [name, t] : totals) {
    ihc::Json row = ihc::Json::object();
    row.set("count", t.count);
    row.set("total_ms", t.total_ms);
    row.set("self_ms", t.self_ms);
    out.set(name, std::move(row));
  }
  return out;
}

}  // namespace perfbench
