// steal_bound_test — the Gu et al. steal-cache-complexity envelope.
//
// Two halves, deliberately independent:
//
//  1. Unit tests of the envelope arithmetic itself (cache/steal_bound.hpp):
//     per-level min(footprint, capacity) clamping, LLC inclusion, and the
//     cycles → microseconds conversion.
//  2. A regression on the Figure 12 burst workload under kStealAffinity:
//     the simulator's measured migrated-footprint reload cost
//     (RunMetrics::steal_reload_us, accumulated per stolen job inside the
//     measurement window) must stay under the theoretical envelope computed
//     from cache geometry and the ProtocolLayout-derived footprint line
//     counts. The footprint is derived here, in the test, from the layout —
//     cache/ cannot see cachesim/, so the envelope check is a genuine
//     cross-layer invariant rather than the simulator grading its own work.
#include <gtest/gtest.h>

#include "cache/steal_bound.hpp"
#include "cachesim/trace.hpp"
#include "core/experiment.hpp"
#include "core/sweep_runner.hpp"

namespace affinity {
namespace {

// ------------------------------------------------- envelope arithmetic ---

TEST(StealBound, PerLevelCyclesAddUp) {
  const MachineParams m = MachineParams::sgiChallenge();
  const StealFootprintLines fp{100.0, 50.0, 0.0};
  // 100 L1 fills at 12 cycles + 50 L2 fills at 85 cycles; no LLC in 1995.
  EXPECT_DOUBLE_EQ(stealColdMissCyclesBound(m, fp), 100.0 * 12.0 + 50.0 * 85.0);
}

TEST(StealBound, FootprintClampedByCapacity) {
  const MachineParams m = MachineParams::sgiChallenge();
  // 16 KB / 32 B = 512 lines per L1, 1024 for I+D; 1 MB / 128 B = 8192 L2.
  const StealFootprintLines huge{1e9, 1e9, 1e9};
  const double l1_cap = static_cast<double>(m.l1i.lines() + m.l1d.lines());
  const double l2_cap = static_cast<double>(m.l2.lines());
  EXPECT_DOUBLE_EQ(stealColdMissCyclesBound(m, huge),
                   l1_cap * m.l1_miss_cycles + l2_cap * m.l2_miss_cycles);
  // Monotone: a bigger footprint never shrinks the bound.
  const StealFootprintLines small{10.0, 10.0, 10.0};
  EXPECT_LE(stealColdMissCyclesBound(m, small), stealColdMissCyclesBound(m, huge));
}

TEST(StealBound, SharedLlcLevelIncludedWhenPresent) {
  const MachineParams modern = MachineParams::modern2020();
  const StealFootprintLines fp{100.0, 100.0, 100.0};
  const double without_llc = 100.0 * modern.l1_miss_cycles + 100.0 * modern.l2_miss_cycles;
  EXPECT_DOUBLE_EQ(stealColdMissCyclesBound(modern, fp),
                   without_llc + 100.0 * modern.llc_miss_cycles);
  // The 1995 machine has llc.size_bytes == 0: the llc term must vanish even
  // with a nonzero llc footprint.
  EXPECT_DOUBLE_EQ(stealColdMissCyclesBound(MachineParams::sgiChallenge(), fp),
                   100.0 * 12.0 + 100.0 * 85.0);
}

TEST(StealBound, EnvelopeMicrosecondsAndPenalty) {
  const MachineParams m = MachineParams::sgiChallenge();
  const StealFootprintLines fp{100.0, 0.0, 0.0};
  // 3 stolen jobs at 1200 cycles each on a 100 MHz clock = 36 us, plus 2
  // steal operations at 5 us.
  EXPECT_DOUBLE_EQ(stealCacheComplexityEnvelopeUs(m, fp, 2, 3, 5.0),
                   3.0 * (100.0 * 12.0) / m.clock_hz * 1e6 + 2.0 * 5.0);
  // No steals: no envelope.
  EXPECT_DOUBLE_EQ(stealCacheComplexityEnvelopeUs(m, fp, 0, 0, 5.0), 0.0);
}

// ------------------------------------------ Figure 12 burst regression ---

// Per-level footprint line counts of one packet execution, derived from the
// ProtocolLayout the trace generator (and the measured reload parameters)
// model: code + shared structures + one stream's state + one packet buffer.
StealFootprintLines protocolFootprint(const MachineParams& m) {
  const ProtocolLayout lay = ProtocolLayout::standard();
  const double bytes = static_cast<double>(lay.code_bytes + lay.shared_bytes +
                                           lay.stream_bytes_each + lay.pkt_bytes_each);
  StealFootprintLines fp;
  fp.l1 = bytes / m.l1d.line_bytes;
  fp.l2 = bytes / m.l2.line_bytes;
  fp.llc = m.llc.size_bytes != 0 ? bytes / m.llc.line_bytes : 0.0;
  return fp;
}

TEST(StealBound, Fig12BurstStealsStayUnderEnvelope) {
  // The Figure 12 batch-8 burst point is the steal-heavy regime: bursts
  // pile onto one processor's queue and kStealAffinity migrates the
  // overflow. Every migrated job's measured reload (plus the flat steal
  // penalties) must stay under the theoretical envelope.
  const auto model = ExecTimeModel::standard();
  const auto streams = makeBatchStreams(16, 0.012, 8.0, false);
  SimConfig c = defaultSimConfig();
  c.num_procs = 8;
  c.lock_overhead_us = 20.0;
  c.critical_section_us = 8.0;
  c.seed = derivePointSeed(1, 3);  // fig12 batch-8 sweep point
  c.warmup_us = 100'000.0;
  c.measure_us = 600'000.0;
  c.policy.paradigm = Paradigm::kLocking;
  c.policy.locking = LockingPolicy::kStealAffinity;
  const RunMetrics m = runOnce(c, model, streams);

  ASSERT_GT(m.steals, 0u) << "burst workload must trigger steals";
  ASSERT_GE(m.stolen_jobs, m.steals);
  ASSERT_GT(m.steal_reload_us, 0.0);

  const double envelope = stealCacheComplexityEnvelopeUs(
      model.machineParams(), protocolFootprint(model.machineParams()), m.steals, m.stolen_jobs,
      c.steal_penalty_us);
  EXPECT_LE(m.steal_reload_us, envelope)
      << "measured migrated-footprint reload cost exceeds the steal-cache-complexity bound ("
      << m.stolen_jobs << " stolen jobs)";
  // The envelope is an upper bound, not a tautology: it must be finite and
  // within a small constant factor of the worst-case per-job reload, or the
  // check has degenerated into comparing against infinity.
  const double per_job_cold =
      model.reloadParams().dl1_us + model.reloadParams().dl2_us + model.reloadParams().dl3_us;
  EXPECT_LT(envelope, static_cast<double>(m.stolen_jobs) * 20.0 * per_job_cold +
                          static_cast<double>(m.steals) * c.steal_penalty_us);
}

// A thief keeps the jobs of its batch beyond the first in its own queue,
// where another idle processor can steal them again, so stolen_jobs counts
// job migrations, not distinct jobs. On the bursty transport-friendly
// workload it exceeds every packet that ever arrived, which only repeat
// thefts of the same jobs can produce. The envelope above takes this count:
// each migration is one more chance to pay a cold reload.
TEST(StealBound, StolenJobsCountsMigrationsNotDistinctJobs) {
  SimConfig c = defaultSimConfig();
  c.seed = 1;
  c.policy.locking = LockingPolicy::kStealAffinity;
  c.dispatch = net::NicDispatchMode::kTransportFriendly;
  setAutoWindow(c, 0.03, 40'000);
  const RunMetrics m = runOnce(c, ExecTimeModel::standard(), makeBatchStreams(16, 0.03, 8.0));
  ASSERT_GT(m.steals, 0u);
  EXPECT_GT(m.stolen_jobs, m.arrived) << m.steals << " steals";
}

}  // namespace
}  // namespace affinity
