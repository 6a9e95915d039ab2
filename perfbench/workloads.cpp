// workloads.cpp — one repetition of each workload: seeded inputs, set-up,
// the timed run, and the checks that make a repetition count as correct.
#include <algorithm>

#include "core/experiment.hpp"
#include "perfbench.hpp"
#include "util/rng.hpp"
#include "workload/stream_set.hpp"

namespace perfbench {

using namespace affinity;

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

// ---------------------------------------------------------------------------
// Simulator

namespace {

// Aggregate offered load of every sim workload: 30 k packets/s, the
// moderate-load point of the paper's Fig. 6 regime (no workload saturates).
constexpr double kRatePerUs = 0.03;

// Packets completed in the measurement window of one repetition; the
// warm-up adds 15 % (setAutoWindow). Sized so one repetition takes about a
// second of host time, long enough that a repetition's rate is not set by
// a single scheduling hiccup.
constexpr std::uint64_t kLockingMruWindowPackets = 870'000;  // ~1 M packets
constexpr std::uint64_t kBurstyWindowPackets = 700'000;
constexpr std::uint64_t kParallelWindowPackets = 600'000;

// Counts every completion, so the external ledger check is exact:
// arrived == completed_total + backlog + flow_shed.
class CompletionCounter final : public SimObserver {
 public:
  void onServiceStart(unsigned, std::uint32_t, std::uint32_t, double, double, double) override {}
  void onServiceEnd(unsigned, std::uint32_t, std::uint32_t, double) override { ++completed; }
  std::uint64_t completed = 0;
};

}  // namespace

SimInputs makeSimInputs(SimKind kind, std::uint64_t seed) {
  SimConfig c = defaultSimConfig();  // 8 processors, Locking/MRU
  c.seed = seed;
  switch (kind) {
    case SimKind::kLockingMru:
      setAutoWindow(c, kRatePerUs, kLockingMruWindowPackets);
      return SimInputs{c, ExecTimeModel::standard(), makePoissonStreams(16, kRatePerUs)};
    case SimKind::kBurstySteal:
      c.policy.locking = LockingPolicy::kStealAffinity;
      c.dispatch = net::NicDispatchMode::kTransportFriendly;
      setAutoWindow(c, kRatePerUs, kBurstyWindowPackets);
      return SimInputs{c, ExecTimeModel::standard(), makeBatchStreams(16, kRatePerUs, 8.0)};
    case SimKind::kParallelWired:
      c.policy.paradigm = Paradigm::kIps;
      c.policy.ips = IpsPolicy::kWired;
      c.parallel_procs = 3;
      setAutoWindow(c, kRatePerUs, kParallelWindowPackets);
      return SimInputs{c, ExecTimeModel::standard(), makePoissonStreams(32, kRatePerUs)};
  }
  AFF_CHECK(false);
  return SimInputs{c, ExecTimeModel::standard(), StreamSet{}};
}

bool sameRunMetrics(const RunMetrics& a, const RunMetrics& b) {
  return a.mean_delay_us == b.mean_delay_us && a.p50_delay_us == b.p50_delay_us &&
         a.p95_delay_us == b.p95_delay_us && a.p99_delay_us == b.p99_delay_us &&
         a.ci95_delay_us == b.ci95_delay_us && a.mean_service_us == b.mean_service_us &&
         a.mean_lock_wait_us == b.mean_lock_wait_us &&
         a.offered_rate_per_us == b.offered_rate_per_us &&
         a.throughput_per_us == b.throughput_per_us && a.utilization == b.utilization &&
         a.mean_queue_len == b.mean_queue_len && a.arrived == b.arrived &&
         a.completed == b.completed && a.backlog_end == b.backlog_end &&
         a.saturated == b.saturated && a.reclassifications == b.reclassifications &&
         a.steals == b.steals && a.stolen_jobs == b.stolen_jobs &&
         a.steal_reload_us == b.steal_reload_us && a.flow_migrations == b.flow_migrations &&
         a.tfn_feedback == b.tfn_feedback && a.tfn_deferred == b.tfn_deferred &&
         a.tfn_applied == b.tfn_applied && a.tfn_stale == b.tfn_stale &&
         a.flow_inserts == b.flow_inserts && a.flow_hits == b.flow_hits &&
         a.flow_evictions == b.flow_evictions && a.flow_shed == b.flow_shed &&
         a.flow_occupancy == b.flow_occupancy && a.flow_capacity == b.flow_capacity;
}

SimRep runSimRep(SimKind kind, std::uint64_t seed, SpanLog& spans, Ledger& ledger) {
  SimRep rep;
  SpanLog::Scope rep_span(spans, "sim.rep");
  const auto t_setup = Clock::now();
  CompletionCounter counter;
  std::unique_ptr<obs::MetricsRegistry> registry;
  std::unique_ptr<ProtocolSim> sim;
  SimInputs in = [&] {
    SpanLog::Scope s(spans, "sim.setup");
    SimInputs built = makeSimInputs(kind, seed);
    if (kind == SimKind::kBurstySteal) {
      // The metrics registry stays attached so the obs instruments are hot.
      registry = std::make_unique<obs::MetricsRegistry>();
      built.config.metrics = registry.get();
      built.config.metrics_exclusive = true;
    }
    if (kind != SimKind::kParallelWired) {
      // An observer makes a configuration ineligible for parallel runs, so
      // only the serial workloads count completions this way.
      built.config.observer = &counter;
      sim = std::make_unique<ProtocolSim>(built.config, built.model, built.streams);
    }
    return built;
  }();
  rep.setup_s = secondsSince(t_setup);

  const auto t_run = Clock::now();
  {
    SpanLog::Scope s(spans, "sim.run");
    rep.metrics = sim != nullptr ? sim->run() : runParallel(in.config, in.model, in.streams, &rep.info);
  }
  rep.run_s = secondsSince(t_run);

  const RunMetrics& m = rep.metrics;
  const std::uint64_t finished = m.backlog_end + m.flow_shed;
  rep.completed_total = m.arrived >= finished ? m.arrived - finished : 0;
  ledger.attempted += m.arrived;
  bool ok = ledger.check(!m.saturated, "simulation saturated");
  ok &= ledger.check(m.arrived >= finished && m.completed <= rep.completed_total,
                     "arrivals do not cover completions + backlog + shed");
  ok &= ledger.check(m.flow_shed == 0, "flow table shed packets");
  if (sim != nullptr) {
    ok &= ledger.check(m.arrived == counter.completed + m.backlog_end + m.flow_shed,
                       "ledger broken: arrived != completed_total + backlog + flow_shed");
  } else {
    ok &= ledger.check(rep.info.parallel, "parallel sim ran serially");
    ok &= ledger.check(!rep.info.replay_fallback, "parallel sim fell back to a serial replay");
  }
  if (!ok) ledger.failed += m.arrived;
  return rep;
}

}  // namespace perfbench
