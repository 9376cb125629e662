#include "obs/metrics.h"

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>

#include "obs/json.h"

namespace cdc::obs {

double HistogramValue::quantile(double p) const noexcept {
  if (count == 0) return 0.0;
  p = std::clamp(p, 0.0, 1.0);
  const double target = p * static_cast<double>(count);
  double seen = 0.0;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    const double in_bucket = static_cast<double>(buckets[b]);
    if (in_bucket == 0.0) continue;
    if (seen + in_bucket >= target) {
      const double lo =
          std::max(static_cast<double>(Histogram::bucket_lo(b)),
                   static_cast<double>(min));
      const double hi =
          std::min(static_cast<double>(Histogram::bucket_hi(b)),
                   static_cast<double>(max));
      const double frac =
          in_bucket > 0.0 ? (target - seen) / in_bucket : 0.0;
      return lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
    }
    seen += in_bucket;
  }
  return static_cast<double>(max);
}

HistogramValue Histogram::merged() const {
  HistogramValue out;
  out.name = name_;
  out.min = ~std::uint64_t{0};
  for (const auto& shard : shards_) {
    out.count += shard.count.load(std::memory_order_relaxed);
    out.sum += shard.sum.load(std::memory_order_relaxed);
    out.min = std::min(out.min, shard.min.load(std::memory_order_relaxed));
    out.max = std::max(out.max, shard.max.load(std::memory_order_relaxed));
    for (std::size_t b = 0; b < out.buckets.size(); ++b)
      out.buckets[b] += shard.buckets[b].load(std::memory_order_relaxed);
  }
  if (out.count == 0) out.min = 0;
  return out;
}

// --- Snapshot lookups -----------------------------------------------------

namespace {

template <typename T>
const T* find_by_name(const std::vector<T>& values, std::string_view name) {
  for (const T& v : values)
    if (v.name == name) return &v;
  return nullptr;
}

}  // namespace

const CounterValue* MetricsSnapshot::find_counter(std::string_view n) const {
  return find_by_name(counters, n);
}
const GaugeValue* MetricsSnapshot::find_gauge(std::string_view n) const {
  return find_by_name(gauges, n);
}
const HistogramValue* MetricsSnapshot::find_histogram(
    std::string_view n) const {
  return find_by_name(histograms, n);
}
std::uint64_t MetricsSnapshot::counter_or(std::string_view n,
                                          std::uint64_t fallback) const {
  const CounterValue* c = find_counter(n);
  return c != nullptr ? c->value : fallback;
}

void MetricsSnapshot::write_json(JsonWriter& w) const {
  w.begin_object();
  w.key("counters").begin_object();
  for (const CounterValue& c : counters) w.field(c.name, c.value);
  w.end_object();
  w.key("gauges").begin_object();
  for (const GaugeValue& g : gauges)
    w.field(g.name, static_cast<std::int64_t>(g.value));
  w.end_object();
  w.key("histograms").begin_object();
  for (const HistogramValue& h : histograms) {
    w.key(h.name).begin_object();
    w.field("count", h.count);
    w.field("sum", h.sum);
    w.field("min", h.min);
    w.field("max", h.max);
    w.field("mean", h.mean());
    w.field("p50", h.quantile(0.50));
    w.field("p95", h.quantile(0.95));
    w.field("p99", h.quantile(0.99));
    w.end_object();
  }
  w.end_object();
  w.end_object();
}

// --- Registry -------------------------------------------------------------

struct Registry::Impl {
  mutable std::mutex mutex;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms;
};

Registry::Impl& Registry::impl() const {
  // Leaked singleton: metric handles must stay valid through static
  // destruction (worker threads may still be recording).
  static Impl* instance = new Impl();
  return *instance;
}

Registry& Registry::global() {
  static Registry registry;
  return registry;
}

Counter& Registry::counter(std::string_view name) {
  Impl& i = impl();
  std::lock_guard lock(i.mutex);
  auto it = i.counters.find(name);
  if (it == i.counters.end())
    it = i.counters
             .emplace(std::string(name),
                      std::make_unique<Counter>(std::string(name)))
             .first;
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  Impl& i = impl();
  std::lock_guard lock(i.mutex);
  auto it = i.gauges.find(name);
  if (it == i.gauges.end())
    it = i.gauges
             .emplace(std::string(name),
                      std::make_unique<Gauge>(std::string(name)))
             .first;
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name) {
  Impl& i = impl();
  std::lock_guard lock(i.mutex);
  auto it = i.histograms.find(name);
  if (it == i.histograms.end())
    it = i.histograms
             .emplace(std::string(name),
                      std::make_unique<Histogram>(std::string(name)))
             .first;
  return *it->second;
}

MetricsSnapshot Registry::snapshot() const {
  Impl& i = impl();
  std::lock_guard lock(i.mutex);
  MetricsSnapshot snap;
  snap.counters.reserve(i.counters.size());
  for (const auto& [name, c] : i.counters)
    snap.counters.push_back(CounterValue{name, c->value()});
  snap.gauges.reserve(i.gauges.size());
  for (const auto& [name, g] : i.gauges)
    snap.gauges.push_back(GaugeValue{name, g->value()});
  snap.histograms.reserve(i.histograms.size());
  for (const auto& [name, h] : i.histograms)
    snap.histograms.push_back(h->merged());
  return snap;
}

void Registry::reset_values() {
  Impl& i = impl();
  std::lock_guard lock(i.mutex);
  for (auto& [name, c] : i.counters) c->reset();
  for (auto& [name, g] : i.gauges) g->reset();
  for (auto& [name, h] : i.histograms) h->reset();
}

Counter& counter(std::string_view name) {
  return Registry::global().counter(name);
}
Gauge& gauge(std::string_view name) {
  return Registry::global().gauge(name);
}
Histogram& histogram(std::string_view name) {
  return Registry::global().histogram(name);
}

}  // namespace cdc::obs
