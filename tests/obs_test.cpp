// obs_test — the observability layer: instrument semantics, registry
// find-or-create, JSON export validity, Chrome-trace structural guarantees
// (sorted timestamps, matched B/E pairs — what Perfetto requires), the
// process-global session guard, the perf ledger, and a ProtocolSim run
// exporting both metrics and a virtual-time trace.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.hpp"
#include "core/sweep_runner.hpp"
#include "obs/ledger.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace affinity::obs {
namespace {

namespace fs = std::filesystem;

std::string tempPath(const char* name) {
  return (fs::temp_directory_path() / name).string();
}

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// ---- a minimal JSON validity checker -------------------------------------
// Enough JSON to verify our exporters emit well-formed documents: objects,
// arrays, strings with escapes, numbers, true/false/null. Returns false on
// the first syntax error.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool valid() {
    skipWs();
    if (!value()) return false;
    skipWs();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skipWs();
    if (peek() == '}') { ++pos_; return true; }
    for (;;) {
      skipWs();
      if (!string()) return false;
      skipWs();
      if (peek() != ':') return false;
      ++pos_;
      skipWs();
      if (!value()) return false;
      skipWs();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skipWs();
    if (peek() == ']') { ++pos_; return true; }
    for (;;) {
      skipWs();
      if (!value()) return false;
      skipWs();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '"') { ++pos_; return true; }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= s_.size() || std::isxdigit(static_cast<unsigned char>(s_[pos_])) == 0)
              return false;
          }
        } else if (std::string("\"\\/bfnrt").find(e) == std::string::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '+' || s_[pos_] == '-'))
      ++pos_;
    return pos_ > start;
  }
  bool literal(const char* lit) {
    const std::string_view sv(lit);
    if (s_.compare(pos_, sv.size(), sv) != 0) return false;
    pos_ += sv.size();
    return true;
  }
  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skipWs() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' || s_[pos_] == '\r'))
      ++pos_;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

// ---- instruments ----------------------------------------------------------

TEST(Metrics, CounterAndGauge) {
  Counter c;
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);

  Gauge g;
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
}

TEST(Metrics, MeanStatTracksMinMeanMax) {
  MeanStat m;
  EXPECT_EQ(m.count(), 0u);
  EXPECT_DOUBLE_EQ(m.mean(), 0.0);
  for (double x : {4.0, 2.0, 6.0}) m.add(x);
  EXPECT_EQ(m.count(), 3u);
  EXPECT_DOUBLE_EQ(m.mean(), 4.0);
  EXPECT_DOUBLE_EQ(m.min(), 2.0);
  EXPECT_DOUBLE_EQ(m.max(), 6.0);
}

TEST(Metrics, MeanStatConcurrentAdds) {
  MeanStat m;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10'000;
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    pool.emplace_back([&m] {
      for (int i = 1; i <= kPerThread; ++i) m.add(static_cast<double>(i));
    });
  for (auto& t : pool) t.join();
  EXPECT_EQ(m.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_DOUBLE_EQ(m.mean(), (kPerThread + 1) / 2.0);
  EXPECT_DOUBLE_EQ(m.min(), 1.0);
  EXPECT_DOUBLE_EQ(m.max(), kPerThread);
}

TEST(Metrics, TimeWeightedAverage) {
  TimeWeightedStat tw;
  tw.set(0.0, 0.0);
  tw.set(10.0, 4.0);  // level 0 for [0,10)
  tw.set(30.0, 1.0);  // level 4 for [10,30)
  tw.finalize(40.0);  // level 1 for [30,40)
  // (0*10 + 4*20 + 1*10) / 40 = 2.25
  EXPECT_DOUBLE_EQ(tw.average(), 2.25);
  EXPECT_DOUBLE_EQ(tw.maxLevel(), 4.0);
  EXPECT_DOUBLE_EQ(tw.level(), 1.0);
}

TEST(Metrics, TimeWeightedIgnoresBackwardsTime) {
  TimeWeightedStat tw;
  tw.set(0.0, 2.0);
  tw.set(10.0, 4.0);
  tw.set(5.0, 8.0);  // time regression: level updates, no negative area
  tw.finalize(20.0);
  // area = 2*10 + 8*10 = 100 over [0,20]
  EXPECT_DOUBLE_EQ(tw.average(), 5.0);
}

TEST(Metrics, LatencyHistoQuantiles) {
  LatencyHisto h(0.05, 9, 32);
  for (int i = 1; i <= 100; ++i) h.add(static_cast<double>(i));
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 100u);
  EXPECT_EQ(s.overflow, 0u);
  EXPECT_NEAR(s.mean, 50.5, 1e-9);
  // Bucketed quantiles land within one log-bucket (~7.5 %) of the truth.
  EXPECT_NEAR(s.p50, 50.0, 50.0 * 0.08);
  EXPECT_NEAR(s.p95, 95.0, 95.0 * 0.08);
  EXPECT_NEAR(s.p99, 99.0, 99.0 * 0.08);
}

TEST(Metrics, LatencyHistoOverflowAndUnderflow) {
  LatencyHisto h(1.0, 2, 8);  // covers [1, 100)
  h.add(0.5);     // underflow
  h.add(1e9);     // overflow
  h.add(10.0);
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 3u);
  EXPECT_EQ(s.overflow, 1u);
}

TEST(Metrics, MeanStatMergeMatchesTheSameAdds) {
  MeanStat added;
  for (double x : {4.0, 2.0, 6.0, 3.0}) added.add(x);
  MeanStat merged;
  merged.merge(0, 0.0, 0.0, 0.0);  // an empty publish is a no-op
  EXPECT_EQ(merged.count(), 0u);
  EXPECT_DOUBLE_EQ(merged.min(), 0.0);
  merged.merge(2, 6.0, 2.0, 4.0);  // {4, 2}
  merged.merge(2, 9.0, 3.0, 6.0);  // {6, 3}
  EXPECT_EQ(merged.count(), added.count());
  EXPECT_DOUBLE_EQ(merged.mean(), added.mean());
  EXPECT_DOUBLE_EQ(merged.min(), added.min());
  EXPECT_DOUBLE_EQ(merged.max(), added.max());
}

TEST(Metrics, MeanStatConcurrentMerges) {
  MeanStat m;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 1'000;
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    pool.emplace_back([&m, t] {
      // Thread t publishes {t*10 + 1, t*10 + 3} (sum t*20 + 4), repeatedly.
      for (int i = 0; i < kPerThread; ++i) m.merge(2, t * 20.0 + 4.0, t * 10.0 + 1.0, t * 10.0 + 3.0);
    });
  for (auto& t : pool) t.join();
  EXPECT_EQ(m.count(), 2u * kThreads * kPerThread);
  EXPECT_DOUBLE_EQ(m.mean(), 17.0);  // mean of t*10 + 2 over t = 0..3
  EXPECT_DOUBLE_EQ(m.min(), 1.0);
  EXPECT_DOUBLE_EQ(m.max(), 33.0);
}

TEST(Metrics, LatencyHistoMergeFromHistogramMatchesTheSameAdds) {
  Histogram single_writer(0.1, 8, 32);
  LatencyHisto added(0.1, 8, 32);
  for (double x : {0.01, 0.5, 3.0, 42.0, 42.5, 900.0, 1e9}) {  // under, in range, over
    single_writer.add(x);
    added.add(x);
  }
  LatencyHisto merged(0.1, 8, 32);
  merged.merge(single_writer);
  const auto a = added.snapshot();
  const auto m = merged.snapshot();
  EXPECT_EQ(m.count, a.count);
  EXPECT_EQ(m.overflow, a.overflow);
  EXPECT_DOUBLE_EQ(m.mean, a.mean);
  EXPECT_EQ(m.p50, a.p50);
  EXPECT_EQ(m.p95, a.p95);
  EXPECT_EQ(m.p99, a.p99);
}

TEST(MetricsDeathTest, LatencyHistoMergeRejectsOtherGeometry) {
  const Histogram other_decades(0.1, 9, 32);
  const Histogram other_floor(0.05, 8, 32);
  LatencyHisto h(0.1, 8, 32);
  EXPECT_DEATH(h.merge(other_decades), "CHECK failed");
  EXPECT_DEATH(h.merge(other_floor), "CHECK failed");
}

// ---- registry -------------------------------------------------------------

TEST(Registry, FindOrCreateReturnsStableInstrument) {
  MetricsRegistry reg;
  Counter& a = reg.counter("x.count");
  a.inc(5);
  Counter& b = reg.counter("x.count");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.value(), 5u);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(RegistryDeathTest, KindMismatchAborts) {
  MetricsRegistry reg;
  reg.counter("x.conflicted");
  EXPECT_DEATH(reg.gauge("x.conflicted"), "CHECK failed");
}

TEST(Registry, SnapshotSortedByName) {
  MetricsRegistry reg;
  reg.counter("z.last").inc();
  reg.gauge("a.first").set(1.0);
  reg.meanStat("m.middle").add(3.0);
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].name, "a.first");
  EXPECT_EQ(snap[1].name, "m.middle");
  EXPECT_EQ(snap[2].name, "z.last");
  EXPECT_EQ(snap[1].count, 1u);
  EXPECT_DOUBLE_EQ(snap[1].value, 3.0);
}

TEST(Registry, WriteJsonIsValidJson) {
  MetricsRegistry reg;
  reg.counter("sim.packets.arrived").inc(7);
  reg.gauge("engine.locking.delivered").set(123.0);
  reg.meanStat("sim.run.mean_delay_us").add(251.5);
  reg.timeWeighted("sim.queue.global_depth").set(0.0, 1.0);
  reg.timeWeighted("sim.queue.global_depth").finalize(10.0);
  reg.histogram("sim.delay_us").add(100.0);
  // A name that needs escaping must not break the document.
  reg.counter("weird\"name\\with\tescapes").inc();

  const std::string path = tempPath("obs_test_metrics.json");
  ASSERT_TRUE(reg.writeJson(path));
  const std::string text = readFile(path);
  EXPECT_TRUE(JsonChecker(text).valid()) << text;
  EXPECT_NE(text.find("sim.packets.arrived"), std::string::npos);
  EXPECT_NE(text.find("histogram"), std::string::npos);
  fs::remove(path);
}

TEST(Registry, JsonEscape) {
  EXPECT_EQ(jsonEscape("plain"), "plain");
  EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(jsonEscape("a\nb"), "a\\nb");
  EXPECT_EQ(jsonEscape(std::string("a\x01") + "b"), "a\\u0001b");
}

// ---- trace sessions -------------------------------------------------------

// Parses the "traceEvents" array of our own exporter output well enough to
// check the structural guarantees: we rely on the exporter's one-event-per-
// line layout rather than a full JSON parser.
struct ParsedEvent {
  char phase = '?';
  double ts = 0.0;
  int tid = -1;
};

std::vector<ParsedEvent> parseEvents(const std::string& text) {
  std::vector<ParsedEvent> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    const auto ph = line.find("\"ph\": \"");
    if (ph == std::string::npos) continue;
    ParsedEvent e;
    e.phase = line[ph + 7];
    if (const auto ts = line.find("\"ts\": "); ts != std::string::npos)
      e.ts = std::stod(line.substr(ts + 6));
    if (const auto tid = line.find("\"tid\": "); tid != std::string::npos)
      e.tid = std::stoi(line.substr(tid + 7));
    out.push_back(e);
  }
  return out;
}

void expectStructurallyValidTrace(const std::string& text) {
  ASSERT_TRUE(JsonChecker(text).valid()) << "trace is not valid JSON";
  const auto events = parseEvents(text);
  ASSERT_FALSE(events.empty());

  // Non-metadata events must be globally sorted by timestamp.
  double last_ts = -1.0;
  std::map<int, int> depth;  // tid -> open span depth
  for (const auto& e : events) {
    if (e.phase == 'M') continue;
    EXPECT_GE(e.ts, last_ts) << "timestamps must be nondecreasing";
    last_ts = e.ts;
    if (e.phase == 'B') ++depth[e.tid];
    if (e.phase == 'E') {
      --depth[e.tid];
      EXPECT_GE(depth[e.tid], 0) << "E without matching B on tid " << e.tid;
    }
  }
  for (const auto& [tid, d] : depth) EXPECT_EQ(d, 0) << "unclosed span on tid " << tid;
}

TEST(Trace, SpansAndInstantsExportStructurallyValid) {
  TraceSession session(64);
  const std::uint32_t t0 = session.track("worker 0");
  const std::uint32_t t1 = session.track("worker 1");
  session.span(t0, "frame", 10.0, 15.0, 7, 0);
  session.instant(t1, "fault", 12.0, 3);
  session.span(t1, "frame", 12.5, 14.0, 8, 1);
  session.span(t0, "frame", 16.0, 16.0, 9, 0);  // zero-length span is legal
  EXPECT_EQ(session.trackCount(), 2u);
  EXPECT_EQ(session.recordedCount(), 4u);
  EXPECT_EQ(session.droppedCount(), 0u);

  const std::string path = tempPath("obs_test_trace.json");
  ASSERT_TRUE(session.writeChromeTrace(path));
  const std::string text = readFile(path);
  expectStructurallyValidTrace(text);
  EXPECT_NE(text.find("\"worker 1\""), std::string::npos) << "track names exported as metadata";
  EXPECT_NE(text.find("displayTimeUnit"), std::string::npos);
  fs::remove(path);
}

TEST(Trace, RingOverflowKeepsPairsMatched) {
  TraceSession session(8);  // tiny ring: most spans get overwritten
  const std::uint32_t t = session.track("hot worker");
  for (int i = 0; i < 100; ++i) {
    const double b = 10.0 * i;
    session.span(t, "frame", b, b + 5.0, static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(session.recordedCount(), 100u);
  EXPECT_EQ(session.droppedCount(), 92u);

  const std::string path = tempPath("obs_test_trace_wrap.json");
  ASSERT_TRUE(session.writeChromeTrace(path));
  const std::string text = readFile(path);
  expectStructurallyValidTrace(text);
  // Exactly the 8 newest spans survive: 8 B + 8 E + metadata.
  const auto events = parseEvents(text);
  int begins = 0;
  for (const auto& e : events) begins += e.phase == 'B' ? 1 : 0;
  EXPECT_EQ(begins, 8);
  fs::remove(path);
}

TEST(Trace, ActiveGuardLifecycle) {
  EXPECT_EQ(TraceSession::active(), nullptr) << "tracing must be off by default";
  {
    TraceSession session;
    EXPECT_EQ(TraceSession::active(), nullptr) << "constructing must not activate";
    session.activate();
    EXPECT_EQ(TraceSession::active(), &session);
  }
  // Destruction of the active session must clear the global slot.
  EXPECT_EQ(TraceSession::active(), nullptr);

  TraceSession a;
  a.activate();
  TraceSession::deactivate();
  EXPECT_EQ(TraceSession::active(), nullptr);
}

TEST(Trace, SteadyNowIsMonotonic) {
  TraceSession session;
  const double t0 = session.steadyNowUs();
  const double t1 = session.steadyNowUs();
  EXPECT_GE(t0, 0.0);
  EXPECT_GE(t1, t0);
}

// ---- the simulator's own trace + metrics ----------------------------------

TEST(Trace, ProtocolSimExportsValidTraceAndMetrics) {
  SimConfig c = defaultSimConfig();
  c.num_procs = 4;
  c.seed = 7;
  c.warmup_us = 10'000.0;
  c.measure_us = 100'000.0;
  c.policy.paradigm = Paradigm::kLocking;
  c.policy.locking = LockingPolicy::kMru;

  MetricsRegistry reg;
  TraceSession trace;
  c.metrics = &reg;
  c.metrics_exclusive = true;
  c.trace = &trace;

  const auto model = ExecTimeModel::standard();
  const auto streams = makePoissonStreams(8, 0.02);
  const RunMetrics m = runOnce(c, model, streams);
  EXPECT_GT(m.completed, 0u);

  // Metrics: the headline instruments exist and agree with RunMetrics.
  const auto snap = reg.snapshot();
  EXPECT_GT(snap.size(), 10u);
  bool found_delay = false;
  for (const auto& s : snap) {
    if (s.name == "sim.run.mean_delay_us") {
      found_delay = true;
      EXPECT_NEAR(s.value, m.mean_delay_us, 1e-9);
    }
  }
  EXPECT_TRUE(found_delay);
  EXPECT_EQ(reg.counter("sim.packets.completed").value(), m.completed);

  // Trace: per-processor virtual-time spans, structurally valid.
  EXPECT_GE(trace.trackCount(), 4u);
  EXPECT_GT(trace.recordedCount(), 0u);
  const std::string path = tempPath("obs_test_sim_trace.json");
  ASSERT_TRUE(trace.writeChromeTrace(path));
  const std::string text = readFile(path);
  expectStructurallyValidTrace(text);
  EXPECT_NE(text.find("service"), std::string::npos) << "sim spans must be named";
  fs::remove(path);
}

// The simulator publishes its registry instruments once, from its own
// single-writer accumulators, when the run ends. These pin that publish to
// the run's RunMetrics: exactly for counts, to within one bucket for the
// delay quantiles (the registry reports a bucket midpoint, RunMetrics an
// in-bucket interpolation).

const MetricSample& sampleNamed(const std::vector<MetricSample>& snap, const std::string& name) {
  static const MetricSample kMissing;
  for (const auto& s : snap) {
    if (s.name == name) return s;
  }
  ADD_FAILURE() << "no metric named " << name;
  return kMissing;
}

// Bucket of `v` in the simulator's delay geometry (0.1 µs, 32 per decade).
int delayBucket(double v) {
  return static_cast<int>(std::floor((std::log10(v) - std::log10(0.1)) * 32.0));
}

SimConfig publishConfig(bool steal, std::uint64_t seed) {
  SimConfig c = defaultSimConfig();  // 8 processors, Locking/MRU
  c.seed = seed;
  if (steal) {
    c.policy.locking = LockingPolicy::kStealAffinity;
    c.dispatch = net::NicDispatchMode::kTransportFriendly;
  }
  setAutoWindow(c, 0.03, 12'000);
  return c;
}

StreamSet publishStreams(bool steal) {
  return steal ? makeBatchStreams(16, 0.03, 8.0) : makePoissonStreams(16, 0.03);
}

// Sees the registry from inside the run: nothing of it is published yet.
class MidRunRegistryProbe final : public SimObserver {
 public:
  explicit MidRunRegistryProbe(MetricsRegistry& reg)
      : arrived_(reg.counter("sim.packets.arrived")),
        completed_(reg.counter("sim.packets.completed")) {}
  void onServiceStart(unsigned, std::uint32_t, std::uint32_t, double, double, double) override {}
  void onServiceEnd(unsigned, std::uint32_t, std::uint32_t, double) override {
    ++calls;
    seen += arrived_.value() + completed_.value();
  }
  std::uint64_t calls = 0;
  std::uint64_t seen = 0;

 private:
  Counter& arrived_;
  Counter& completed_;
};

void expectRegistryMatches(const MetricsRegistry& reg, const RunMetrics& m, const char* what) {
  SCOPED_TRACE(what);
  const auto snap = reg.snapshot();
  EXPECT_EQ(sampleNamed(snap, "sim.packets.arrived").count, m.arrived);
  EXPECT_EQ(sampleNamed(snap, "sim.packets.completed").count, m.completed);
  EXPECT_EQ(sampleNamed(snap, "sim.sched.steal.count").count, m.steals);
  EXPECT_EQ(sampleNamed(snap, "sim.sched.steal.jobs").count, m.stolen_jobs);
  const MetricSample& service = sampleNamed(snap, "sim.service_us");
  EXPECT_EQ(service.count, m.completed);
  EXPECT_NEAR(service.value, m.mean_service_us, 1e-9 * m.mean_service_us);
  const MetricSample& delay = sampleNamed(snap, "sim.delay_us");
  EXPECT_EQ(delay.count, m.completed);
  EXPECT_EQ(delay.overflow, 0u);
  EXPECT_NEAR(delayBucket(delay.p50), delayBucket(m.p50_delay_us), 1);
  EXPECT_NEAR(delayBucket(delay.p95), delayBucket(m.p95_delay_us), 1);
  EXPECT_NEAR(delayBucket(delay.p99), delayBucket(m.p99_delay_us), 1);
}

TEST(SimPublish, LockingMruRegistryEqualsRunMetrics) {
  MetricsRegistry reg;
  MidRunRegistryProbe probe(reg);
  SimConfig c = publishConfig(/*steal=*/false, 3);
  c.metrics = &reg;
  c.observer = &probe;
  const RunMetrics m = runOnce(c, ExecTimeModel::standard(), publishStreams(false));
  ASSERT_GT(m.completed, 10'000u);
  EXPECT_GT(probe.calls, m.completed);
  EXPECT_EQ(probe.seen, 0u) << "sim.* must not be written before the run ends";
  expectRegistryMatches(reg, m, "locking/mru");
  const auto snap = reg.snapshot();
  EXPECT_GT(sampleNamed(snap, "sim.affinity.l2_warm_fraction").count, m.completed);
}

TEST(SimPublish, StealAffinityTfnRegistryEqualsRunMetrics) {
  MetricsRegistry reg;
  SimConfig c = publishConfig(/*steal=*/true, 5);
  c.metrics = &reg;
  c.metrics_exclusive = true;
  const RunMetrics m = runOnce(c, ExecTimeModel::standard(), publishStreams(true));
  ASSERT_GT(m.completed, 10'000u);
  ASSERT_GT(m.steals, 0u);
  expectRegistryMatches(reg, m, "steal-affinity/tfn");
  // The exclusive-mode queue integrals are published whole, once.
  const auto snap = reg.snapshot();
  EXPECT_GT(sampleNamed(snap, "sim.proc.0.queue_depth").max, 0.0);
  EXPECT_NEAR(sampleNamed(snap, "sim.proc.0.queue_depth").value,
              sampleNamed(snap, "sim.proc.0.queue_depth_avg").value, 1e-12);
}

TEST(SimPublish, SharedRegistrySweepSumsEveryPoint) {
  constexpr std::size_t kPoints = 8;
  MetricsRegistry reg;
  std::vector<SweepPoint> points;
  for (std::size_t i = 0; i < kPoints; ++i) {
    const bool steal = i % 2 == 1;
    SweepPoint p{publishConfig(steal, derivePointSeed(11, i)), publishStreams(steal)};
    p.config.metrics = &reg;
    points.push_back(std::move(p));
  }
  const auto results = SweepRunner(4).run(ExecTimeModel::standard(), points);
  ASSERT_EQ(results.size(), kPoints);
  std::uint64_t arrived = 0, completed = 0, steals = 0, stolen = 0;
  for (const auto& m : results) {
    arrived += m.arrived;
    completed += m.completed;
    steals += m.steals;
    stolen += m.stolen_jobs;
  }
  const auto snap = reg.snapshot();
  EXPECT_EQ(sampleNamed(snap, "sim.run.count").count, kPoints);
  EXPECT_EQ(sampleNamed(snap, "sim.packets.arrived").count, arrived);
  EXPECT_EQ(sampleNamed(snap, "sim.packets.completed").count, completed);
  EXPECT_EQ(sampleNamed(snap, "sim.sched.steal.count").count, steals);
  EXPECT_EQ(sampleNamed(snap, "sim.sched.steal.jobs").count, stolen);
  EXPECT_EQ(sampleNamed(snap, "sim.service_us").count, completed);
  EXPECT_EQ(sampleNamed(snap, "sim.lock_wait_us").count, completed);
  EXPECT_EQ(sampleNamed(snap, "sim.delay_us").count, completed);
  EXPECT_GT(steals, 0u);
}

// ---- perf ledger ----------------------------------------------------------

TEST(Ledger, AppendCreatesAndGrowsValidJsonArray) {
  const std::string path = tempPath("obs_test_ledger.json");
  fs::remove(path);
  EXPECT_EQ(ledgerRowCount(path), 0u);

  ASSERT_TRUE(appendLedgerRow(path, R"({"date": "2026-08-06", "eps": 1000})"));
  EXPECT_EQ(ledgerRowCount(path), 1u);
  ASSERT_TRUE(appendLedgerRow(path, R"({"date": "2026-08-07", "eps": 1100})"));
  EXPECT_EQ(ledgerRowCount(path), 2u);

  const std::string text = readFile(path);
  EXPECT_TRUE(JsonChecker(text).valid()) << text;
  EXPECT_LT(text.find("2026-08-06"), text.find("2026-08-07")) << "rows append in order";
  fs::remove(path);
}

TEST(Ledger, CorruptFilePreservedAndRestarted) {
  const std::string path = tempPath("obs_test_ledger_corrupt.json");
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not json";
  }
  ASSERT_TRUE(appendLedgerRow(path, R"({"fresh": 1})"));
  EXPECT_EQ(ledgerRowCount(path), 1u);
  EXPECT_TRUE(JsonChecker(readFile(path)).valid());
  EXPECT_EQ(readFile(path + ".corrupt"), "this is not json");
  fs::remove(path);
  fs::remove(path + ".corrupt");
}

TEST(Ledger, RowsReadBackAsWritten) {
  const std::string path = tempPath("obs_test_ledger_read.json");
  fs::remove(path);
  ASSERT_TRUE(appendLedgerRow(
      path, R"({"date": "2026-08-06", "mode": "fast", "host_cores": 4, "eps": 1.5e6, "on": true})"));
  ASSERT_TRUE(appendLedgerRow(path, R"({"date": "2026-08-07", "eps": -2})"));
  const std::vector<LedgerRow> rows = readLedgerRows(path);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].strings.at("mode"), "fast");
  EXPECT_EQ(rows[0].numbers.at("host_cores"), 4.0);
  EXPECT_EQ(rows[0].numbers.at("eps"), 1.5e6);
  EXPECT_EQ(rows[0].numbers.at("on"), 1.0);
  EXPECT_EQ(rows[1].strings.at("date"), "2026-08-07");
  EXPECT_EQ(rows[1].numbers.at("eps"), -2.0);
  EXPECT_TRUE(readLedgerRows(tempPath("obs_test_no_such_ledger.json")).empty());
  fs::remove(path);
}

TEST(Ledger, CommittedRowsFlagTheKernelRestructureDrop) {
  // The committed trajectory: kernel_churn_speedup read 4.42 / 4.32 on
  // 2026-08-06 and 1.77 on the first 2026-08-08 row, after the event
  // kernel's SoA/staged-admission restructure. The check must name it.
  const std::string root = AFF_SOURCE_ROOT;
  const std::vector<LedgerRow> before = readLedgerRows(root + "/BENCH_2026-08-06.json");
  const std::vector<LedgerRow> after = readLedgerRows(root + "/BENCH_2026-08-08.json");
  ASSERT_EQ(before.size(), 2u);
  ASSERT_FALSE(after.empty());
  const std::vector<Regression> found = findRegressions(before, after.front());
  const auto churn = std::find_if(found.begin(), found.end(), [](const Regression& r) {
    return r.key == "kernel_churn_speedup";
  });
  ASSERT_NE(churn, found.end());
  EXPECT_DOUBLE_EQ(churn->value, 1.771);
  EXPECT_NEAR(churn->baseline, (4.416 + 4.323) / 2.0, 1e-9);
  EXPECT_EQ(formatRegression(*churn).rfind("REGRESSION: kernel_churn_speedup 1.771 vs 4.3", 0),
            0u)
      << formatRegression(*churn);
}

TEST(Ledger, NoiseSizedWiggleIsNotFlagged) {
  const auto row = [](double speedup, double pkts, const char* mode, int cores) {
    LedgerRow r;
    r.strings["mode"] = mode;
    r.numbers["host_cores"] = cores;
    r.numbers["kernel_churn_speedup"] = speedup;
    r.numbers["sim_pkts_per_wall_s"] = pkts;
    r.numbers["capacity_ips_pkts_per_s"] = pkts;  // not a watched key
    return r;
  };
  const std::vector<LedgerRow> history = {row(4.0, 1e6, "fast", 4), row(4.1, 1.02e6, "fast", 4),
                                          row(3.9, 0.98e6, "fast", 4)};
  // ±20 % around the baseline: run-to-run noise on the ledger host.
  EXPECT_TRUE(findRegressions(history, row(4.0 * 0.8, 0.8e6, "fast", 4)).empty());
  EXPECT_TRUE(findRegressions(history, row(4.0 * 1.2, 1.2e6, "fast", 4)).empty());
  // A drop past the band is flagged, per key.
  const std::vector<Regression> found = findRegressions(history, row(2.0, 0.5e6, "fast", 4));
  ASSERT_EQ(found.size(), 2u);
  EXPECT_EQ(found[0].key, "kernel_churn_speedup");
  EXPECT_DOUBLE_EQ(found[0].baseline, 4.0);
  EXPECT_EQ(found[1].key, "sim_pkts_per_wall_s");
  // Rows from another mode or host size are not a baseline.
  EXPECT_TRUE(findRegressions(history, row(2.0, 0.5e6, "full", 4)).empty());
  EXPECT_TRUE(findRegressions(history, row(2.0, 0.5e6, "fast", 1)).empty());
  // A noisy history widens the band: 3 × its ~33 % relative MAD.
  const std::vector<LedgerRow> noisy = {row(2.0, 1e6, "fast", 4), row(6.0, 1e6, "fast", 4),
                                        row(3.0, 1e6, "fast", 4)};
  EXPECT_TRUE(findRegressions(noisy, row(1.5, 1e6, "fast", 4)).empty());
}

}  // namespace
}  // namespace affinity::obs
