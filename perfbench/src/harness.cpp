#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <utility>

namespace perfbench {

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double seconds_since(Clock::time_point start) noexcept {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

std::size_t samples_beyond(std::size_t samples, double percentile) noexcept {
  const double beyond =
      static_cast<double>(samples) * (1.0 - percentile / 100.0);
  // The epsilon keeps 1000 * (1 - 0.99) == 10, not 9.999...
  return static_cast<std::size_t>(std::floor(beyond + 1e-9));
}

std::size_t samples_needed(double percentile, std::size_t min_beyond) {
  // Start just below the estimate: 1 - p/100 carries rounding error.
  const double estimate =
      static_cast<double>(min_beyond) / (1.0 - percentile / 100.0);
  auto n = static_cast<std::size_t>(std::max(0.0, std::floor(estimate) - 1));
  while (samples_beyond(n, percentile) < min_beyond) ++n;
  return n;
}

std::vector<double> self_seconds(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0 || static_cast<std::size_t>(s.parent) >= spans.size())
      continue;
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    const std::int64_t lo = std::max(s.start_ns, p.start_ns);
    const std::int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo)
      children[static_cast<std::size_t>(s.parent)].emplace_back(lo, hi);
  }
  std::vector<double> self(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    std::int64_t covered = 0;
    std::int64_t run_lo = 0;
    std::int64_t run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : intervals) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    const std::int64_t duration =
        std::max<std::int64_t>(0, spans[i].end_ns - spans[i].start_ns);
    self[i] = static_cast<double>(duration - covered) * 1e-9;
  }
  return self;
}

std::string layer_of(std::string_view span_name) {
  return std::string(span_name.substr(0, span_name.find('.')));
}

std::map<std::string, double> attribute(const std::vector<Span>& spans) {
  const std::vector<double> self = self_seconds(spans);
  std::map<std::string, double> by_layer;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::string layer =
        spans[i].parent < 0 ? "unattributed" : layer_of(spans[i].name);
    by_layer[layer] += self[i];
  }
  return by_layer;
}

std::int64_t Recorder::add(std::string_view name, std::int64_t start_ns,
                           std::int64_t end_ns, std::int64_t parent,
                           std::uint64_t op) {
  if (!enabled_) return -1;
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{std::string(name), start_ns, end_ns, parent, op});
  return static_cast<std::int64_t>(spans_.size() - 1);
}

std::int64_t Recorder::open(std::string_view name, std::int64_t parent,
                            std::uint64_t op) {
  if (!enabled_) return -1;
  const std::int64_t start = now_ns();
  return add(name, start, start, parent, op);
}

void Recorder::close(std::int64_t index) {
  if (!enabled_ || index < 0) return;
  const std::int64_t end = now_ns();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(index)].end_ns = end;
}

std::vector<Span> Recorder::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

void Recorder::write_csv(const std::string& path) const {
  std::ofstream out(path);
  out << "name,start_ns,end_ns,parent,op\n";
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const Span& s : spans_)
    out << s.name << ',' << s.start_ns << ',' << s.end_ns << ',' << s.parent
        << ',' << s.op << '\n';
}

long status_field(std::string_view status_text, std::string_view key) {
  std::size_t pos = 0;
  while (pos < status_text.size()) {
    const std::size_t eol = status_text.find('\n', pos);
    const std::string_view line = status_text.substr(
        pos, eol == std::string_view::npos ? std::string_view::npos
                                           : eol - pos);
    if (line.size() > key.size() && line.substr(0, key.size()) == key &&
        line[key.size()] == ':') {
      long value = 0;
      bool digits = false;
      for (char c : line.substr(key.size() + 1)) {
        if (c >= '0' && c <= '9') {
          value = value * 10 + (c - '0');
          digits = true;
        } else if (digits) {
          break;
        }
      }
      return digits ? value : -1;
    }
    if (eol == std::string_view::npos) break;
    pos = eol + 1;
  }
  return -1;
}

long self_status_field(std::string_view key) {
  std::ifstream in("/proc/self/status");
  std::stringstream text;
  text << in.rdbuf();
  return status_field(text.str(), key);
}

double peak_rss_mb() {
  return static_cast<double>(self_status_field("VmHWM")) / 1024.0;
}

void ThreadPeak::sample() {
  const long threads = self_status_field("Threads");
  const std::lock_guard<std::mutex> lock(mutex_);
  peak_ = std::max(peak_, threads);
}

std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

void Result::fail(const std::string& why, std::size_t operations) {
  failed += operations;
  if (failures.size() < 8) failures.push_back(why);
}

void Result::set(const std::string& name, double value, std::string unit,
                 std::string note) {
  if (!std::isfinite(value)) {
    fail("metric " + name + " is not finite");
    value = 0.0;
  }
  metrics[name] = Metric{value, std::move(unit), std::move(note)};
}

void Result::info(const std::string& name, const std::string& value) {
  infos.emplace_back(name, value);
}

void Result::print(std::string_view workload, bool traced) const {
  std::printf("perfbench %s (%s)\n", std::string(workload).c_str(),
              traced ? "traced" : "untraced");
  for (const auto& [name, m] : metrics)
    std::printf("  %-34s %16.6g %-8s %s\n", name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  for (const auto& [name, value] : infos)
    std::printf("  %-34s %s\n", name.c_str(), value.c_str());
  std::printf("  operations attempted %zu, failed %zu\n", attempted, failed);
  for (const std::string& why : failures)
    std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              failed == 0 && failures.empty() && attempted > 0 ? "true"
                                                               : "false",
              attempted,
              failed);
  bool first = true;
  for (const auto& [name, m] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), m.value, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace perfbench
