#include "telemetry/metric_registry.h"

#include <algorithm>

#include "telemetry/json_util.h"

namespace reo {
namespace {

/// RFC 4180 field quoting: names containing a comma, quote, or newline
/// are wrapped in double quotes with embedded quotes doubled, so a
/// snapshot always loads as one row per metric.
std::string CsvField(std::string_view s) {
  if (s.find_first_of(",\"\r\n") == std::string_view::npos) {
    return std::string(s);
  }
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (char c : s) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

}  // namespace

void ShardedHistogram::Merge(const Histogram& other) {
  for (int b = 0; b < Histogram::kBuckets; ++b) {
    if (uint64_t n = other.bucket_count(b)) {
      buckets_[static_cast<size_t>(b)].fetch_add(n, std::memory_order_relaxed);
    }
  }
  count_.fetch_add(other.count(), std::memory_order_relaxed);
  sum_.fetch_add(other.sum(), std::memory_order_relaxed);
  RaiseMax(other.max());
}

Histogram ShardedHistogram::Merged() const {
  uint64_t counts[Histogram::kBuckets];
  uint64_t total = 0;
  for (int b = 0; b < Histogram::kBuckets; ++b) {
    counts[b] =
        buckets_[static_cast<size_t>(b)].load(std::memory_order_relaxed);
    total += counts[b];
  }
  Histogram out;
  out.MergeBuckets(counts, total, sum(), max());
  return out;
}

double ShardedHistogram::mean() const {
  uint64_t n = count();
  return n ? sum() / static_cast<double>(n) : 0.0;
}

void ShardedHistogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  max_.store(0.0, std::memory_order_relaxed);
}

const MetricSnapshot::Entry* MetricSnapshot::Find(std::string_view name) const {
  auto it = std::lower_bound(
      entries.begin(), entries.end(), name,
      [](const Entry& e, std::string_view n) { return e.name < n; });
  if (it == entries.end() || it->name != name) return nullptr;
  return &*it;
}

std::string MetricSnapshot::ToJson() const {
  std::string out = "{";
  auto emit_section = [&](const char* title, Kind kind, auto render) {
    out += "\"";
    out += title;
    out += "\":{";
    bool first = true;
    for (const Entry& e : entries) {
      if (e.kind != kind) continue;
      if (!first) out.push_back(',');
      first = false;
      AppendJsonString(out, e.name);
      out.push_back(':');
      render(e);
    }
    out += "}";
  };
  emit_section("counters", Kind::kCounter,
               [&](const Entry& e) { out += JsonNum(e.value); });
  out.push_back(',');
  emit_section("gauges", Kind::kGauge,
               [&](const Entry& e) { out += JsonNum(e.value); });
  out.push_back(',');
  emit_section("histograms", Kind::kHistogram, [&](const Entry& e) {
    out += "{\"count\":" + JsonNum(static_cast<double>(e.count)) +
           ",\"mean\":" + JsonNum(e.mean) + ",\"p50\":" + JsonNum(e.p50) +
           ",\"p99\":" + JsonNum(e.p99) + ",\"p999\":" + JsonNum(e.p999) +
           ",\"max\":" + JsonNum(e.max) + ",\"sum\":" + JsonNum(e.sum) + "}";
  });
  out.push_back('}');
  return out;
}

std::string MetricSnapshot::ToCsv() const {
  std::string out = "kind,name,value,count,mean,p50,p99,p999,max,sum\n";
  for (const Entry& e : entries) {
    switch (e.kind) {
      case Kind::kCounter:
        out += "counter," + CsvField(e.name) + "," + JsonNum(e.value) +
               ",,,,,,,\n";
        break;
      case Kind::kGauge:
        out += "gauge," + CsvField(e.name) + "," + JsonNum(e.value) +
               ",,,,,,,\n";
        break;
      case Kind::kHistogram:
        out += "histogram," + CsvField(e.name) + ",," +
               JsonNum(static_cast<double>(e.count)) + "," + JsonNum(e.mean) +
               "," + JsonNum(e.p50) + "," + JsonNum(e.p99) + "," +
               JsonNum(e.p999) + "," + JsonNum(e.max) + "," + JsonNum(e.sum) +
               "\n";
        break;
    }
  }
  return out;
}

bool MetricRegistry::ClaimName(const std::string& name, Kind kind) {
  auto [it, inserted] = kinds_.emplace(name, kind);
  if (inserted || it->second == kind) return true;
  name_collisions_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

Counter& MetricRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!ClaimName(name, Kind::kCounter)) {
    orphan_counters_.push_back(std::make_unique<Counter>());
    return *orphan_counters_.back();
  }
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!ClaimName(name, Kind::kGauge)) {
    orphan_gauges_.push_back(std::make_unique<Gauge>());
    return *orphan_gauges_.back();
  }
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

ShardedHistogram& MetricRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!ClaimName(name, Kind::kHistogram)) {
    orphan_histograms_.push_back(std::make_unique<ShardedHistogram>());
    return *orphan_histograms_.back();
  }
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<ShardedHistogram>();
  return *slot;
}

size_t MetricRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_.size() + gauges_.size() + histograms_.size();
}

void MetricRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
}

MetricSnapshot MetricRegistry::Snapshot() const {
  const MetricRegistry* self = this;
  return Merged({&self, 1});
}

MetricSnapshot MetricRegistry::Merged(
    std::span<const MetricRegistry* const> regs) {
  // Accumulate per name across registries, locking one registry at a
  // time (no lock nesting; concurrent metric updates stay relaxed-atomic
  // and never block on this).
  std::map<std::string, double> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, Histogram> histograms;
  for (const MetricRegistry* reg : regs) {
    if (reg == nullptr) continue;
    std::lock_guard<std::mutex> lock(reg->mu_);
    for (const auto& [name, c] : reg->counters_) {
      counters[name] += static_cast<double>(c->value());
    }
    for (const auto& [name, g] : reg->gauges_) {
      // The first registry's value is taken as is, so a one-registry
      // merge reproduces even a -0.0 gauge exactly.
      auto [it, fresh] = gauges.try_emplace(name, g->value());
      if (!fresh) it->second += g->value();
    }
    for (const auto& [name, h] : reg->histograms_) {
      histograms[name].Merge(h->Merged());
    }
  }
  MetricSnapshot snap;
  snap.entries.reserve(counters.size() + gauges.size() + histograms.size());
  for (const auto& [name, v] : counters) {
    MetricSnapshot::Entry e;
    e.name = name;
    e.kind = MetricSnapshot::Kind::kCounter;
    e.value = v;
    snap.entries.push_back(std::move(e));
  }
  for (const auto& [name, v] : gauges) {
    MetricSnapshot::Entry e;
    e.name = name;
    e.kind = MetricSnapshot::Kind::kGauge;
    e.value = v;
    snap.entries.push_back(std::move(e));
  }
  for (const auto& [name, merged] : histograms) {
    MetricSnapshot::Entry e;
    e.name = name;
    e.kind = MetricSnapshot::Kind::kHistogram;
    e.count = merged.count();
    e.mean = merged.mean();
    e.p50 = merged.Percentile(0.50);
    e.p99 = merged.Percentile(0.99);
    e.p999 = merged.Percentile(0.999);
    e.max = merged.max();
    e.sum = merged.sum();
    snap.entries.push_back(std::move(e));
  }
  std::sort(snap.entries.begin(), snap.entries.end(),
            [](const MetricSnapshot::Entry& a, const MetricSnapshot::Entry& b) {
              return a.name < b.name;
            });
  return snap;
}

}  // namespace reo
