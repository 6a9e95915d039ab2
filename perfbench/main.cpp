// main.cpp — the benchmark program. One invocation runs one workload for
// --seconds, repeating it and reporting medians, checks every repetition's
// outputs, and prints one JSON line last:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics with span recording off;
// --trace 1 reports the per-layer metrics (layer probes, span self times,
// and the tracing overhead against untraced repetitions of the workload).
//
//   perfbench --workload sim_locking_mru --seed 1 --seconds 30 --trace 0 [--out DIR]
#include <malloc.h>
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/kernel_workloads.hpp"
#include "bench/legacy_simulator.hpp"
#include "perfbench.hpp"

namespace perfbench {
namespace {

struct Workload {
  const char* name;
  SimKind kind;
};

// The gated workloads are serial simulator runs. The engines and the
// parallel sim run in the traced run's layer probes only: their rates
// moved by up to 30 % with the host's speed phases, and the single-thread
// reference below does not track multi-threaded runs (DESIGN.md).
constexpr Workload kWorkloads[] = {
    {"sim_locking_mru", SimKind::kLockingMru},
    {"sim_bursty_steal", SimKind::kBurstySteal},
};

constexpr int kMinReps = 3;

// Host-speed reference. On a shared VM the host's speed moves in phases of
// tens of seconds, by up to 1.9x, and a phase slows the frozen seed event
// kernel (bench/legacy_simulator.hpp) much as it slows the simulator.
// Before each repetition the program runs that kernel on the measuring
// thread and scales the repetition's times to a host on which it runs
// kReferenceRate events/s (DESIGN.md).
constexpr double kReferenceRate = 5e6;
double referenceRate() {
  return affinity::bench::benchHold<affinity::legacy::Simulator>(200'000, 64, 1);
}

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string out_dir;
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr, "perfbench: %s\nusage: perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]\nworkloads:",
               msg);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

bool parseUnsigned(const char* text, std::uint64_t* out) {
  char* end = nullptr;
  if (text[0] == '\0' || text[0] == '-') return false;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (*end != '\0') return false;
  *out = v;
  return true;
}

Args parseArgs(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    std::uint64_t n = 0;
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads)
        if (std::strcmp(w.name, value) == 0) a.workload = &w;
      if (a.workload == nullptr) usage("unknown workload");
    } else if (flag == "--seed") {
      if (!parseUnsigned(value, &a.seed)) usage("--seed takes a whole number");
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!parseUnsigned(value, &n) || n < 1 || n > 600) usage("--seconds takes 1..600");
      a.seconds = static_cast<double>(n);
    } else if (flag == "--trace") {
      if (!parseUnsigned(value, &n) || n > 1) usage("--trace takes 0 or 1");
      a.trace = n == 1;
      have_trace = true;
    } else if (flag == "--out") {
      a.out_dir = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload == nullptr || !have_seed || a.seconds == 0.0 || !have_trace)
    usage("--workload, --seed, --seconds and --trace are required");
  return a;
}

// Returns freed heap memory to the OS before each repetition, so every
// repetition's set-up pays the same first-touch page faults and the peak
// RSS does not depend on which allocator arena an earlier thread left
// freed memory in.
void releaseFreedMemory() { malloc_trim(0); }

double peakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

/// One repetition; every repetition of one seed must agree exactly with
/// the first, `first` (empty until then).
SimRep runRep(const Workload& w, std::uint64_t seed, SpanLog& spans, Ledger& ledger,
              affinity::RunMetrics* first) {
  const SimRep s = runSimRep(w.kind, seed, spans, ledger);
  if (first->arrived == 0) *first = s.metrics;
  else if (!ledger.check(sameRunMetrics(*first, s.metrics), "repetitions of one seed differ"))
    ledger.failed += s.metrics.arrived;
  std::printf("  rep: setup_s=%.6f run_s=%.4f pkts_per_s=%.0f delay_us=%.3f p99_us=%.3f "
              "packets=%llu\n",
              s.setup_s, s.run_s, s.pktsPerSecond(), s.metrics.mean_delay_us,
              s.metrics.p99_delay_us, static_cast<unsigned long long>(s.completed_total));
  return s;
}

void printResult(const Ledger& ledger, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              ledger.correct ? "true" : "false", static_cast<unsigned long long>(ledger.attempted),
              static_cast<unsigned long long>(ledger.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  std::printf("}}\n");
}

int runUntraced(const Args& a) {
  const Workload& w = *a.workload;
  SpanLog spans(false);
  Ledger ledger;
  affinity::RunMetrics first;
  std::vector<double> setup, rate, ref;
  double delay_us = 0.0;
  double p99_us = 0.0;
  const auto t0 = Clock::now();
  while (setup.size() < kMinReps || secondsSince(t0) < a.seconds) {
    releaseFreedMemory();
    ref.push_back(referenceRate());
    const SimRep r = runRep(w, a.seed, spans, ledger, &first);
    setup.push_back(r.setup_s);
    rate.push_back(r.pktsPerSecond());
    delay_us = r.metrics.mean_delay_us;
    p99_us = r.metrics.p99_delay_us;
  }
  // h > 1 when the host ran slower than the reference host.
  const double h = kReferenceRate / median(ref);
  std::printf("reps=%zu host_factor=%.4f (reference kernel %.0f events/s); measured medians: "
              "setup_s=%.6g pkts_per_s=%.0f (q1 %.0f, q3 %.0f); diagnostic (not gated): "
              "p99 modelled delay %.3f us\n",
              rate.size(), h, median(ref), median(setup), median(rate), quantile(rate, 0.25),
              quantile(rate, 0.75), p99_us);
  if (!ledger.correct) std::printf("CHECK FAILED: %s\n", ledger.first_error.c_str());
  printResult(ledger, {{"setup_s", median(setup) / h, "s"},
                       {"peak_rss_mb", peakRssMiB(), "MiB"},
                       {"pkts_per_s", median(rate) * h, "1/s"},
                       // Simulated delay does not depend on the host.
                       {"delay_us", delay_us, "us"}});
  return 0;
}

// Unmeasured layer quantities: named so their absence is explicit.
constexpr const char* kUnmeasured[][2] = {
    {"runtime.stage.{dispatch,queue_wait,parse,flow,deliver}_us",
     "the engines export one submit-to-deliver latency; per-stage stamps live inside "
     "src/runtime and cannot be taken from outside"},
    {"core.parallel.{shard_compute,barrier_wait,replay}_us",
     "ParallelRunInfo reports epochs and fallback only, not phase timings"},
};

int runTraced(const Args& a) {
  const Workload& w = *a.workload;
  SpanLog spans(true);
  Ledger ledger;
  affinity::RunMetrics first;
  std::vector<double> traced_rate, plain_rate;
  const auto t0 = Clock::now();
  // Alternate traced and untraced repetitions for half the run: the
  // difference is the tracing overhead.
  for (int i = 0; traced_rate.size() < 2 || plain_rate.size() < 2 || secondsSince(t0) < a.seconds / 2;
       ++i) {
    const bool traced = i % 2 == 0;
    spans.setEnabled(traced);
    releaseFreedMemory();
    const SimRep r = runRep(w, a.seed, spans, ledger, &first);
    (traced ? traced_rate : plain_rate).push_back(r.pktsPerSecond());
  }
  spans.setEnabled(true);
  std::vector<Metric> metrics;
  runLayerProbes(a.seed, spans, ledger, metrics);
  metrics.push_back({"trace.overhead_pct",
                     100.0 * (median(plain_rate) - median(traced_rate)) / median(plain_rate), "%"});

  std::printf("span self times (ms):\n");
  for (const auto& [name, t] : spans.totals())
    std::printf("  %-28s n=%-5zu total=%10.3f self=%10.3f\n", name.c_str(), t.count, t.total_ms,
                t.self_ms);
  for (const auto& u : kUnmeasured) std::printf("unmeasured: %s: %s\n", u[0], u[1]);
  if (!a.out_dir.empty()) {
    const std::string path = a.out_dir + "/spans_" + w.name + "_seed" + std::to_string(a.seed) + ".json";
    if (spans.writeJson(path)) std::printf("spans written to %s\n", path.c_str());
    else ledger.fail("could not write " + path);
  }
  if (!ledger.correct) std::printf("CHECK FAILED: %s\n", ledger.first_error.c_str());
  printResult(ledger, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parseArgs(argc, argv);
  std::printf("perfbench: workload=%s seed=%llu seconds=%.0f trace=%d\n", args.workload->name,
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
  return args.trace ? perfbench::runTraced(args) : perfbench::runUntraced(args);
}
