// perfbench.hpp — shared pieces of the benchmark program: seeded inputs,
// one repetition of each workload, the layer probes, and the small
// statistics the report needs. DESIGN.md says why each workload exists and
// which layer metric should move which end-to-end metric.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/metrics.hpp"
#include "core/parallel_sim.hpp"
#include "core/protocol_sim.hpp"
#include "spans.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Keeps `value` alive through the optimizer (the result of a timed call).
template <class T>
inline void keep(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

/// Linear-interpolated quantile (q in [0, 1]) of `v`; 0 for an empty set.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// One printed metric of the final JSON line.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Outcome accounting shared by every run: operations attempted and
/// failed, plus the first reason a check failed.
struct Ledger {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::string first_error;

  void fail(const std::string& why) {
    if (correct) first_error = why;
    correct = false;
  }
  /// Records a check; false marks the run incorrect.
  bool check(bool ok, const std::string& why) {
    if (!ok) fail(why);
    return ok;
  }
};

// ---------------------------------------------------------------------------
// Simulator workloads

enum class SimKind { kLockingMru, kBurstySteal, kParallelWired };

/// Everything one simulator repetition is built from. The seed drives every
/// stream's arrival sequence through SimConfig::seed.
struct SimInputs {
  affinity::SimConfig config;
  affinity::ExecTimeModel model;
  affinity::StreamSet streams;
};

/// Builds the workload's cache model, stream set and configuration.
SimInputs makeSimInputs(SimKind kind, std::uint64_t seed);

struct SimRep {
  double setup_s = 0.0;
  double run_s = 0.0;
  affinity::RunMetrics metrics;
  affinity::ParallelRunInfo info;  ///< filled for kParallelWired only
  /// arrived − backlog − flow_shed: every packet the run finished.
  std::uint64_t completed_total = 0;
  [[nodiscard]] double pktsPerSecond() const {
    return static_cast<double>(completed_total) / run_s;
  }
};

/// One repetition: setup (model, streams, ProtocolSim construction), the
/// run, and the correctness checks into `ledger`.
SimRep runSimRep(SimKind kind, std::uint64_t seed, SpanLog& spans, Ledger& ledger);

/// True when every scalar field of the two results is identical.
bool sameRunMetrics(const affinity::RunMetrics& a, const affinity::RunMetrics& b);

// ---------------------------------------------------------------------------
// Layer probes (traced run only)

/// Times each layer's public calls on seed-generated inputs, runs the
/// engines, and appends every per-layer metric to `out`.
void runLayerProbes(std::uint64_t seed, SpanLog& spans, Ledger& ledger, std::vector<Metric>& out);

}  // namespace perfbench
