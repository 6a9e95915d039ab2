// metrics.hpp — lock-free metrics registry (docs/OBSERVABILITY.md).
//
// A MetricsRegistry is a name -> instrument map that the simulator, the
// sweep runner, the scheduling layer and the real-thread engines register
// into. Instruments are built for the two usage patterns in this repo:
//
//   * hot-path updates from concurrent threads (engine workers, parallel
//     sweep points): Counter / Gauge / MeanStat / LatencyHisto update with
//     relaxed atomics (MeanStat publishes its count with release) — no
//     locks, no allocation, wait-free except for the bounded CAS loops on
//     double accumulators. Single writers such as the simulator publish a
//     whole run at once through MeanStat::merge / LatencyHisto::merge;
//   * single-writer simulated-time integrals (queue depths, busy
//     processors): TimeWeightedStat, plain fields, owned by one simulation.
//
// Registration (find-or-create by name) takes a mutex — it happens once per
// metric, never per sample. References returned by the registry are stable
// for the registry's lifetime, so hot paths hold instrument pointers and
// never touch the map again. snapshot() / writeJson() are read-side and may
// run while writers are active (counters are then merely approximately
// consistent with each other, exactly consistent per instrument).
//
// Naming scheme: dotted lowercase paths, "<domain>.<subsystem>.<metric>",
// e.g. "sim.affinity.l2_warm_fraction", "engine.ips.worker.3.processed".
// Per-entity instruments embed the entity index as a path segment.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "stats/histogram.hpp"
#include "util/mutex.hpp"

namespace affinity::obs {

/// Monotonically increasing event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept { v_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-write-wins instantaneous level.
class Gauge {
 public:
  void set(double v) noexcept { v_.store(v, std::memory_order_relaxed); }
  void add(double d) noexcept {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + d, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] double value() const noexcept { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Streaming mean/min/max over added samples (no per-sample storage).
class MeanStat {
 public:
  void add(double x) noexcept { merge(1, x, x, x); }
  /// Folds in `count` samples summarised elsewhere (their sum and
  /// extrema), e.g. a single-writer accumulator published once at the end
  /// of a run. Safe against concurrent add()/merge(); count 0 is a no-op.
  void merge(std::uint64_t count, double sum, double min, double max) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double mean() const noexcept;
  [[nodiscard]] double min() const noexcept;
  [[nodiscard]] double max() const noexcept;

 private:
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

/// Time average of a piecewise-constant signal (queue depth, busy workers).
/// SINGLE WRITER: owned by one simulation/thread; snapshot after finalize().
class TimeWeightedStat {
 public:
  /// Signal changed to `level` at time `t` (nondecreasing).
  void set(double t, double level) noexcept;
  void adjust(double t, double delta) noexcept { set(t, level_ + delta); }
  /// Closes the integral at `t` (typically the end of the run).
  void finalize(double t) noexcept { set(t, level_); }

  [[nodiscard]] double level() const noexcept { return level_; }
  /// Time average over the observed span (0 before two set() calls).
  [[nodiscard]] double average() const noexcept;
  [[nodiscard]] double maxLevel() const noexcept { return max_level_; }

 private:
  double level_ = 0.0;
  double last_t_ = 0.0;
  double start_t_ = 0.0;
  double area_ = 0.0;
  double max_level_ = 0.0;
  bool started_ = false;
};

/// Fixed-bucket log-linear latency histogram with lock-free adds:
/// `buckets_per_decade` buckets per factor of 10 covering
/// [min_value, min_value * 10^decades); under/overflow buckets catch the
/// rest. Same bucket geometry as stats::Histogram, but every bucket is a
/// relaxed atomic so engine workers can add concurrently.
class LatencyHisto {
 public:
  LatencyHisto(double min_value, int decades, int buckets_per_decade);

  void add(double x) noexcept;
  /// Adds every sample of a single-writer histogram of identical geometry
  /// (aborts on a mismatch). Safe against concurrent add()/merge(), so
  /// parallel sweep points can publish into one shared instrument.
  void merge(const Histogram& h);

  struct Snapshot {
    std::uint64_t count = 0;
    std::uint64_t overflow = 0;
    double mean = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
  };
  /// Consistent-enough view under concurrent adds (exact once writers stop).
  [[nodiscard]] Snapshot snapshot() const;

 private:
  [[nodiscard]] double bucketLow(std::size_t i) const noexcept;

  double min_value_;
  double log_min_;
  double inv_log_step_;
  double log_step_;
  std::vector<std::atomic<std::uint64_t>> buckets_;
  std::atomic<std::uint64_t> underflow_{0};
  std::atomic<std::uint64_t> overflow_{0};
  std::atomic<std::uint64_t> total_{0};
  std::atomic<double> sum_{0.0};
};

/// One exported sample of any instrument (see MetricsRegistry::snapshot).
struct MetricSample {
  enum class Kind : std::uint8_t { kCounter, kGauge, kMean, kTimeWeighted, kHistogram };
  std::string name;
  Kind kind = Kind::kCounter;
  // Populated per kind; unused fields stay zero.
  std::uint64_t count = 0;   ///< counter value / sample count
  double value = 0.0;        ///< gauge value / mean / time-weighted average
  double min = 0.0, max = 0.0;
  double p50 = 0.0, p95 = 0.0, p99 = 0.0;
  std::uint64_t overflow = 0;
  double last = 0.0;  ///< time-weighted final level

  [[nodiscard]] const char* kindName() const noexcept;
};

/// The registry. Instruments are created on first use and live as long as
/// the registry; lookups of an existing name with a different kind abort
/// (two subsystems disagreeing about a name is a bug worth dying for).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(const std::string& name) AFF_EXCLUDES(mu_);
  Gauge& gauge(const std::string& name) AFF_EXCLUDES(mu_);
  MeanStat& meanStat(const std::string& name) AFF_EXCLUDES(mu_);
  TimeWeightedStat& timeWeighted(const std::string& name) AFF_EXCLUDES(mu_);
  LatencyHisto& histogram(const std::string& name, double min_value = 0.05, int decades = 9,
                          int buckets_per_decade = 32) AFF_EXCLUDES(mu_);

  [[nodiscard]] std::size_t size() const AFF_EXCLUDES(mu_);

  /// All instruments, sorted by name (deterministic export order).
  [[nodiscard]] std::vector<MetricSample> snapshot() const AFF_EXCLUDES(mu_);

  /// Writes the snapshot as a JSON document. The file form returns false on
  /// I/O failure.
  void writeJson(std::FILE* out) const;
  [[nodiscard]] bool writeJson(const std::string& path) const;

 private:
  struct Entry {
    MetricSample::Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<MeanStat> mean;
    std::unique_ptr<TimeWeightedStat> time_weighted;
    std::unique_ptr<LatencyHisto> histogram;
  };

  // Returns a reference that outlives the lock: entries are pointer-stable
  // (std::map nodes) and, once the instrument exists, immutable-in-shape —
  // so hot paths hold instrument pointers without ever re-entering mu_.
  // Callers must finish creating the instrument before releasing mu_
  // (creation after unlock would race a concurrent registration).
  Entry& find_or_create_locked(const std::string& name,
                               MetricSample::Kind kind) AFF_REQUIRES(mu_);

  // Innermost-tier lock: registration/snapshot may run under an engine
  // stack mutex; nothing is acquired while it is held.
  mutable Mutex mu_{"MetricsRegistry::mu_"};
  // std::map keeps names sorted for snapshot(); entries are pointer-stable.
  std::map<std::string, Entry> entries_ AFF_GUARDED_BY(mu_);
};

/// Escapes a string for embedding in a JSON document (shared by the metrics
/// and trace exporters).
std::string jsonEscape(const std::string& s);

}  // namespace affinity::obs
