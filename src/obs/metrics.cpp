#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.hpp"

namespace affinity::obs {

namespace {

void atomicAdd(std::atomic<double>& a, double d) noexcept {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + d, std::memory_order_relaxed)) {
  }
}

void atomicMin(std::atomic<double>& a, double x) noexcept {
  double cur = a.load(std::memory_order_relaxed);
  while (x < cur && !a.compare_exchange_weak(cur, x, std::memory_order_relaxed)) {
  }
}

void atomicMax(std::atomic<double>& a, double x) noexcept {
  double cur = a.load(std::memory_order_relaxed);
  while (x > cur && !a.compare_exchange_weak(cur, x, std::memory_order_relaxed)) {
  }
}

}  // namespace

// ---------------------------------------------------------------- MeanStat

void MeanStat::merge(std::uint64_t count, double sum, double min, double max) noexcept {
  if (count == 0) return;
  // Extrema start at +/-inf, so racing first samples need no seeding step.
  // The count is published last (release): a reader that sees it nonzero
  // (acquire) also sees finite extrema.
  atomicMin(min_, min);
  atomicMax(max_, max);
  atomicAdd(sum_, sum);
  count_.fetch_add(count, std::memory_order_release);
}

double MeanStat::mean() const noexcept {
  const auto n = count_.load(std::memory_order_relaxed);
  return n == 0 ? 0.0 : sum_.load(std::memory_order_relaxed) / static_cast<double>(n);
}

double MeanStat::min() const noexcept {
  return count_.load(std::memory_order_acquire) == 0 ? 0.0 : min_.load(std::memory_order_relaxed);
}
double MeanStat::max() const noexcept {
  return count_.load(std::memory_order_acquire) == 0 ? 0.0 : max_.load(std::memory_order_relaxed);
}

// -------------------------------------------------------- TimeWeightedStat

void TimeWeightedStat::set(double t, double level) noexcept {
  if (!started_) {
    started_ = true;
    start_t_ = last_t_ = t;
  } else if (t > last_t_) {
    area_ += level_ * (t - last_t_);
    last_t_ = t;
  }
  level_ = level;
  if (level > max_level_) max_level_ = level;
}

double TimeWeightedStat::average() const noexcept {
  const double span = last_t_ - start_t_;
  return span > 0.0 ? area_ / span : 0.0;
}

// ------------------------------------------------------------ LatencyHisto

LatencyHisto::LatencyHisto(double min_value, int decades, int buckets_per_decade)
    : min_value_(min_value),
      log_min_(std::log10(min_value)),
      inv_log_step_(buckets_per_decade),
      log_step_(1.0 / buckets_per_decade),
      buckets_(static_cast<std::size_t>(decades) * buckets_per_decade) {
  AFF_CHECK(min_value > 0.0 && decades > 0 && buckets_per_decade > 0);
}

void LatencyHisto::add(double x) noexcept {
  total_.fetch_add(1, std::memory_order_relaxed);
  atomicAdd(sum_, x);
  if (!(x >= min_value_)) {  // also catches NaN
    underflow_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const auto idx = static_cast<std::size_t>((std::log10(x) - log_min_) * inv_log_step_);
  if (idx >= buckets_.size()) {
    overflow_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
}

void LatencyHisto::merge(const Histogram& h) {
  AFF_CHECK(buckets_.size() == h.buckets().size());
  AFF_CHECK(min_value_ == h.minValue() && log_step_ == h.logStep());
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    if (h.buckets()[i] != 0) buckets_[i].fetch_add(h.buckets()[i], std::memory_order_relaxed);
  }
  underflow_.fetch_add(h.underflow(), std::memory_order_relaxed);
  overflow_.fetch_add(h.overflow(), std::memory_order_relaxed);
  total_.fetch_add(h.count(), std::memory_order_relaxed);
  atomicAdd(sum_, h.sum());
}

double LatencyHisto::bucketLow(std::size_t i) const noexcept {
  return std::pow(10.0, log_min_ + static_cast<double>(i) * log_step_);
}

LatencyHisto::Snapshot LatencyHisto::snapshot() const {
  Snapshot s;
  std::vector<std::uint64_t> counts(buckets_.size());
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  const std::uint64_t under = underflow_.load(std::memory_order_relaxed);
  s.overflow = overflow_.load(std::memory_order_relaxed);
  std::uint64_t in_buckets = 0;
  for (auto c : counts) in_buckets += c;
  s.count = in_buckets + under + s.overflow;
  if (s.count == 0) return s;
  s.mean = sum_.load(std::memory_order_relaxed) / static_cast<double>(s.count);

  // Percentiles over the ranked [underflow | buckets | overflow] sequence;
  // a percentile landing in a bucket reports the bucket's geometric midpoint.
  const auto quantile = [&](double q) {
    const auto rank = static_cast<std::uint64_t>(q * static_cast<double>(s.count - 1));
    if (rank < under) return min_value_;
    std::uint64_t seen = under;
    for (std::size_t i = 0; i < counts.size(); ++i) {
      seen += counts[i];
      if (rank < seen) return bucketLow(i) * std::pow(10.0, 0.5 * log_step_);
    }
    return bucketLow(counts.size());  // overflow: report the histogram ceiling
  };
  s.p50 = quantile(0.50);
  s.p95 = quantile(0.95);
  s.p99 = quantile(0.99);
  return s;
}

// --------------------------------------------------------- MetricSample

const char* MetricSample::kindName() const noexcept {
  switch (kind) {
    case Kind::kCounter: return "counter";
    case Kind::kGauge: return "gauge";
    case Kind::kMean: return "mean";
    case Kind::kTimeWeighted: return "time_weighted";
    case Kind::kHistogram: return "histogram";
  }
  return "unknown";
}

// ------------------------------------------------------- MetricsRegistry

MetricsRegistry::Entry& MetricsRegistry::find_or_create_locked(const std::string& name,
                                                               MetricSample::Kind kind) {
  auto [it, inserted] = entries_.try_emplace(name);
  if (inserted) {
    it->second.kind = kind;
  } else if (it->second.kind != kind) {
    std::fprintf(stderr, "metric '%s' re-registered with a different kind (%d vs %d)\n",
                 name.c_str(), static_cast<int>(it->second.kind), static_cast<int>(kind));
    AFF_CHECK(it->second.kind == kind);
  }
  return it->second;
}

// The instrument is created while mu_ is still held: two threads racing to
// register the same name must agree on one instrument (annotating this path
// surfaced a create-after-unlock race in the original code).

Counter& MetricsRegistry::counter(const std::string& name) {
  MutexLock lock(mu_);
  Entry& e = find_or_create_locked(name, MetricSample::Kind::kCounter);
  if (!e.counter) e.counter = std::make_unique<Counter>();
  return *e.counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  MutexLock lock(mu_);
  Entry& e = find_or_create_locked(name, MetricSample::Kind::kGauge);
  if (!e.gauge) e.gauge = std::make_unique<Gauge>();
  return *e.gauge;
}

MeanStat& MetricsRegistry::meanStat(const std::string& name) {
  MutexLock lock(mu_);
  Entry& e = find_or_create_locked(name, MetricSample::Kind::kMean);
  if (!e.mean) e.mean = std::make_unique<MeanStat>();
  return *e.mean;
}

TimeWeightedStat& MetricsRegistry::timeWeighted(const std::string& name) {
  MutexLock lock(mu_);
  Entry& e = find_or_create_locked(name, MetricSample::Kind::kTimeWeighted);
  if (!e.time_weighted) e.time_weighted = std::make_unique<TimeWeightedStat>();
  return *e.time_weighted;
}

LatencyHisto& MetricsRegistry::histogram(const std::string& name, double min_value, int decades,
                                         int buckets_per_decade) {
  MutexLock lock(mu_);
  Entry& e = find_or_create_locked(name, MetricSample::Kind::kHistogram);
  if (!e.histogram) {
    e.histogram = std::make_unique<LatencyHisto>(min_value, decades, buckets_per_decade);
  }
  return *e.histogram;
}

std::size_t MetricsRegistry::size() const {
  MutexLock lock(mu_);
  return entries_.size();
}

std::vector<MetricSample> MetricsRegistry::snapshot() const {
  MutexLock lock(mu_);
  std::vector<MetricSample> out;
  out.reserve(entries_.size());
  for (const auto& [name, e] : entries_) {
    MetricSample s;
    s.name = name;
    s.kind = e.kind;
    switch (e.kind) {
      case MetricSample::Kind::kCounter:
        s.count = e.counter->value();
        s.value = static_cast<double>(s.count);
        break;
      case MetricSample::Kind::kGauge:
        s.value = e.gauge->value();
        break;
      case MetricSample::Kind::kMean:
        s.count = e.mean->count();
        s.value = e.mean->mean();
        s.min = e.mean->min();
        s.max = e.mean->max();
        break;
      case MetricSample::Kind::kTimeWeighted:
        s.value = e.time_weighted->average();
        s.last = e.time_weighted->level();
        s.max = e.time_weighted->maxLevel();
        break;
      case MetricSample::Kind::kHistogram: {
        const auto h = e.histogram->snapshot();
        s.count = h.count;
        s.value = h.mean;
        s.p50 = h.p50;
        s.p95 = h.p95;
        s.p99 = h.p99;
        s.overflow = h.overflow;
        break;
      }
    }
    out.push_back(std::move(s));
  }
  return out;
}

void MetricsRegistry::writeJson(std::FILE* out) const {
  const auto samples = snapshot();
  std::fprintf(out, "{\n  \"metrics\": [\n");
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const auto& s = samples[i];
    std::fprintf(out, "    {\"name\": \"%s\", \"type\": \"%s\"", jsonEscape(s.name).c_str(),
                 s.kindName());
    switch (s.kind) {
      case MetricSample::Kind::kCounter:
        std::fprintf(out, ", \"value\": %llu", static_cast<unsigned long long>(s.count));
        break;
      case MetricSample::Kind::kGauge:
        std::fprintf(out, ", \"value\": %.17g", s.value);
        break;
      case MetricSample::Kind::kMean:
        std::fprintf(out, ", \"count\": %llu, \"mean\": %.17g, \"min\": %.17g, \"max\": %.17g",
                     static_cast<unsigned long long>(s.count), s.value, s.min, s.max);
        break;
      case MetricSample::Kind::kTimeWeighted:
        std::fprintf(out, ", \"avg\": %.17g, \"last\": %.17g, \"max\": %.17g", s.value, s.last,
                     s.max);
        break;
      case MetricSample::Kind::kHistogram:
        std::fprintf(out,
                     ", \"count\": %llu, \"mean\": %.17g, \"p50\": %.17g, \"p95\": %.17g, "
                     "\"p99\": %.17g, \"overflow\": %llu",
                     static_cast<unsigned long long>(s.count), s.value, s.p50, s.p95, s.p99,
                     static_cast<unsigned long long>(s.overflow));
        break;
    }
    std::fprintf(out, "}%s\n", i + 1 < samples.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
}

bool MetricsRegistry::writeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  writeJson(f);
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

// ---------------------------------------------------------------- helpers

std::string jsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace affinity::obs
