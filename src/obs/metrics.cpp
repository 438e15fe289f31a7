#include "obs/metrics.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "util/format.h"
#include "util/json.h"

namespace dras::obs {

namespace detail {
#if DRAS_OBS_COMPILED
std::atomic<bool> g_enabled{false};
#endif
thread_local MetricShard* t_shard = nullptr;
}  // namespace detail

void set_enabled(bool on) noexcept {
#if DRAS_OBS_COMPILED
  detail::g_enabled.store(on, std::memory_order_relaxed);
#else
  (void)on;
#endif
}

// ---------------------------------------------------------------------------
// MetricShard
// ---------------------------------------------------------------------------

void MetricShard::counter_add(Counter* counter, std::uint64_t n) {
  for (CounterCell& cell : counters_) {
    if (cell.counter == counter) {
      cell.value += n;
      return;
    }
  }
  counters_.push_back(CounterCell{counter, n});
}

void MetricShard::gauge_set(Gauge* gauge, double v) {
  for (GaugeCell& cell : gauges_) {
    if (cell.gauge == gauge) {
      cell.has_set = true;
      cell.set_value = v;
      cell.delta = 0.0;
      return;
    }
  }
  gauges_.push_back(GaugeCell{gauge, true, v, 0.0});
}

void MetricShard::gauge_add(Gauge* gauge, double delta) {
  for (GaugeCell& cell : gauges_) {
    if (cell.gauge == gauge) {
      cell.delta += delta;
      return;
    }
  }
  gauges_.push_back(GaugeCell{gauge, false, 0.0, delta});
}

void MetricShard::hdr_observe(HdrHistogram* hdr, double v) {
  for (HdrCell& cell : hdrs_) {
    if (cell.target == hdr) {
      cell.local->record(v);
      return;
    }
  }
  hdrs_.push_back(
      HdrCell{hdr, std::make_unique<HdrHistogram>(hdr->config())});
  hdrs_.back().local->record(v);
}

namespace {
/// Shard-merge visibility (satellite: obs.shard.merge counters).  The
/// instruments live in the global registry like every other built-in;
/// merge_us only reads the clock when telemetry is enabled.
struct ShardMergeMetrics {
  Counter& merges;
  Counter& merged_writes;
  HdrHistogram& merge_us;

  static ShardMergeMetrics& get() {
    static ShardMergeMetrics m = [] {
      auto& reg = Registry::global();
      return ShardMergeMetrics{reg.counter("obs.shard.merges"),
                               reg.counter("obs.shard.merged_writes"),
                               reg.hdr("obs.shard.merge_us")};
    }();
    return m;
  }
};
}  // namespace

void MetricShard::merge() {
  if (empty()) return;
  const bool timed = enabled();
  const auto start = timed ? std::chrono::steady_clock::now()
                           : std::chrono::steady_clock::time_point{};
  std::uint64_t writes = counters_.size() + gauges_.size() + hdrs_.size();
  for (const CounterCell& cell : counters_) cell.counter->absorb(cell.value);
  for (const GaugeCell& cell : gauges_) {
    if (cell.has_set)
      cell.gauge->absorb_set(cell.set_value + cell.delta);
    else
      cell.gauge->absorb_add(cell.delta);
  }
  for (const HdrCell& cell : hdrs_) cell.target->merge(*cell.local);
  counters_.clear();
  gauges_.clear();
  hdrs_.clear();
  // Count the merge itself after folding, through the unconditional
  // absorb path, so a mid-round enable/disable toggle cannot lose it —
  // same discipline as the cells above.
  ShardMergeMetrics& m = ShardMergeMetrics::get();
  m.merges.absorb(1);
  m.merged_writes.absorb(writes);
  if (timed) {
    const auto elapsed = std::chrono::steady_clock::now() - start;
    m.merge_us.record(
        std::chrono::duration<double, std::micro>(elapsed).count());
  }
}

// ---------------------------------------------------------------------------
// Gauge
// ---------------------------------------------------------------------------

void Gauge::add(double delta) noexcept {
  if (!enabled()) return;
  if (detail::t_shard != nullptr) {
    detail::t_shard->gauge_add(this, delta);
    return;
  }
  double current = value_.load(std::memory_order_relaxed);
  while (!value_.compare_exchange_weak(current, current + delta,
                                       std::memory_order_relaxed)) {
  }
}

void Gauge::absorb_add(double delta) noexcept {
  double current = value_.load(std::memory_order_relaxed);
  while (!value_.compare_exchange_weak(current, current + delta,
                                       std::memory_order_relaxed)) {
  }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

Registry& Registry::global() {
  static Registry registry;
  return registry;
}

Registry::Entry* Registry::find_locked(std::string_view name) {
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), name,
      [](const auto& entry, std::string_view key) {
        return entry.first < key;
      });
  if (it == entries_.end() || it->first != name) return nullptr;
  return &it->second;
}

Registry::Entry& Registry::emplace_locked(std::string_view name,
                                          MetricKind kind) {
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), name,
      [](const auto& entry, std::string_view key) {
        return entry.first < key;
      });
  Entry entry;
  entry.kind = kind;
  return entries_.emplace(it, std::string(name), std::move(entry))->second;
}

namespace {
[[noreturn]] void kind_clash(std::string_view name) {
  throw std::invalid_argument(util::format(
      "metric '{}' already registered with a different kind", name));
}
}  // namespace

Counter& Registry::counter(std::string_view name) {
  const std::scoped_lock lock(mutex_);
  if (Entry* existing = find_locked(name)) {
    if (existing->kind != MetricKind::Counter) kind_clash(name);
    return *existing->counter;
  }
  Entry& entry = emplace_locked(name, MetricKind::Counter);
  entry.counter = std::make_unique<Counter>();
  return *entry.counter;
}

Gauge& Registry::gauge(std::string_view name) {
  const std::scoped_lock lock(mutex_);
  if (Entry* existing = find_locked(name)) {
    if (existing->kind != MetricKind::Gauge) kind_clash(name);
    return *existing->gauge;
  }
  Entry& entry = emplace_locked(name, MetricKind::Gauge);
  entry.gauge = std::make_unique<Gauge>();
  return *entry.gauge;
}

HdrHistogram& Registry::hdr(std::string_view name, HdrConfig config) {
  const std::scoped_lock lock(mutex_);
  if (Entry* existing = find_locked(name)) {
    if (existing->kind != MetricKind::Hdr) kind_clash(name);
    return *existing->hdr;
  }
  Entry& entry = emplace_locked(name, MetricKind::Hdr);
  entry.hdr = std::make_unique<HdrHistogram>(config);
  return *entry.hdr;
}

std::vector<std::string> Registry::hdr_names() const {
  const std::scoped_lock lock(mutex_);
  std::vector<std::string> names;
  for (const auto& [name, entry] : entries_)
    if (entry.kind == MetricKind::Hdr) names.push_back(name);
  return names;
}

bool Registry::contains(std::string_view name) const {
  const std::scoped_lock lock(mutex_);
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), name,
      [](const auto& entry, std::string_view key) {
        return entry.first < key;
      });
  return it != entries_.end() && it->first == name;
}

std::size_t Registry::size() const {
  const std::scoped_lock lock(mutex_);
  return entries_.size();
}

void Registry::reset_values() {
  const std::scoped_lock lock(mutex_);
  for (auto& [name, entry] : entries_) {
    switch (entry.kind) {
      case MetricKind::Counter: entry.counter->reset(); break;
      case MetricKind::Gauge: entry.gauge->reset(); break;
      case MetricKind::Hdr: entry.hdr->reset(); break;
    }
  }
}

void Registry::clear() {
  const std::scoped_lock lock(mutex_);
  entries_.clear();
}

std::vector<MetricSnapshot> Registry::snapshot() const {
  const std::scoped_lock lock(mutex_);
  std::vector<MetricSnapshot> out;
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) {
    MetricSnapshot snap;
    snap.name = name;
    snap.kind = entry.kind;
    switch (entry.kind) {
      case MetricKind::Counter:
        snap.value = static_cast<double>(entry.counter->value());
        break;
      case MetricKind::Gauge:
        snap.value = entry.gauge->value();
        break;
      case MetricKind::Hdr: {
        const HdrHistogram& h = *entry.hdr;
        snap.value = h.sum();
        snap.count = h.count();
        snap.min = h.count() > 0 ? h.min() : 0.0;
        snap.max = h.count() > 0 ? h.max() : 0.0;
        snap.mean = h.mean();
        snap.p50 = h.percentile(50.0);
        snap.p90 = h.percentile(90.0);
        snap.p99 = h.percentile(99.0);
        snap.p999 = h.percentile(99.9);
        break;
      }
    }
    out.push_back(std::move(snap));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Dumps
// ---------------------------------------------------------------------------

namespace {

std::string_view kind_name(MetricKind kind) noexcept {
  switch (kind) {
    case MetricKind::Counter: return "counter";
    case MetricKind::Gauge: return "gauge";
    case MetricKind::Hdr: return "hdr";
  }
  return "?";
}

}  // namespace

std::string metrics_to_json(const Registry& registry) {
  std::ostringstream out;
  out << "{\"metrics\":[";
  bool first = true;
  for (const MetricSnapshot& m : registry.snapshot()) {
    if (!first) out << ',';
    first = false;
    out << "{\"name\":" << util::json::quote(m.name)
        << ",\"kind\":\"" << kind_name(m.kind) << '"';
    if (m.kind == MetricKind::Hdr) {
      out << util::format(
          ",\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{},"
          "\"p50\":{},\"p90\":{},\"p99\":{},\"p999\":{}",
          m.count, m.value, m.min, m.max, m.mean, m.p50, m.p90, m.p99,
          m.p999);
    } else {
      out << util::format(",\"value\":{}", m.value);
    }
    out << '}';
  }
  out << "]}\n";
  return out.str();
}

std::string metrics_to_csv(const Registry& registry) {
  std::ostringstream out;
  out << "name,kind,value,count,min,max,mean,p50,p90,p99,p999\n";
  for (const MetricSnapshot& m : registry.snapshot()) {
    out << util::format("{},{},{},{},{},{},{},{},{},{},{}\n", m.name,
                        kind_name(m.kind), m.value, m.count, m.min, m.max,
                        m.mean, m.p50, m.p90, m.p99, m.p999);
  }
  return out.str();
}

std::string metrics_to_text(const Registry& registry) {
  std::ostringstream out;
  for (const MetricSnapshot& m : registry.snapshot()) {
    std::string name = m.name;
    if (name.size() < 32) name.append(32 - name.size(), ' ');
    if (m.kind == MetricKind::Hdr) {
      out << util::format(
          "{} n={} mean={:.2f} p50={:.2f} p90={:.2f} p99={:.2f} "
          "p999={:.2f} max={:.2f}\n",
          name, m.count, m.mean, m.p50, m.p90, m.p99, m.p999, m.max);
    } else {
      out << util::format("{} {}\n", name, m.value);
    }
  }
  return out.str();
}

}  // namespace dras::obs
