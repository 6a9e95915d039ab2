// perf_ledger — run the perf smoke suite and append one row to the
// BENCH_<date>.json trajectory ledger (docs/OBSERVABILITY.md).
//
//   $ ./perf_ledger                      # appends to BENCH_<today>.json
//   $ ./perf_ledger --out results/BENCH_ci.json --full
//
// The row records event-kernel throughput vs the frozen seed kernel
// (bench/kernel_workloads.hpp), simulated packets per wall-second through
// the full protocol model, the fast Figure-9 capacity smoke (Locking vs
// IPS), and the disabled trace-guard overhead. The ledger stays a valid
// JSON array after every append (src/obs/ledger.hpp), so the perf
// trajectory across PRs is one file per day of runs.
//
// Before appending, the new row's throughput keys are checked against the
// earlier rows of every BENCH_*.json beside the output file (same mode and
// host_cores); each key that fell past the noise band prints a
// `REGRESSION: <key> <new> vs <baseline>` line (obs::findRegressions).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench/kernel_workloads.hpp"
#include "bench/legacy_simulator.hpp"
#include "core/capacity.hpp"
#include "core/experiment.hpp"
#include "core/parallel_sim.hpp"
#include "obs/ledger.hpp"
#include "proto/stack.hpp"
#include "runtime/engine.hpp"
#include "sim/simulator.hpp"
#include "util/arena.hpp"
#include "util/cli.hpp"

using namespace affinity;
using namespace affinity::bench;

namespace {

std::string todayIso() {
  // Ledger rows are wall-stamped by design.  afflint: allow(nondeterminism)
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  localtime_r(&now, &tm);
  char buf[16];
  std::strftime(buf, sizeof buf, "%Y-%m-%d", &tm);
  return buf;
}

// Earlier ledger rows, oldest first: every BENCH_<date>.json beside
// `out_path` (ISO dates sort chronologically by name), then `out_path`
// itself, the file this run appends to.
std::vector<obs::LedgerRow> loadHistory(const std::string& out_path) {
  namespace fs = std::filesystem;
  const fs::path out(out_path);
  const fs::path dir = out.has_parent_path() ? out.parent_path() : fs::path(".");
  const std::string out_name = out.filename().string();
  std::vector<std::string> names;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.starts_with("BENCH_") && name.ends_with(".json") && name != out_name)
      names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  names.push_back(out_name);
  std::vector<obs::LedgerRow> rows;
  for (const std::string& name : names) {
    std::vector<obs::LedgerRow> file_rows = obs::readLedgerRows((dir / name).string());
    rows.insert(rows.end(), file_rows.begin(), file_rows.end());
  }
  return rows;
}

double wallSecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli("perf_ledger", "run the perf smoke and append a BENCH_<date>.json trajectory row");
  const std::string& out = cli.flag<std::string>(
      "out", "", "ledger file (default BENCH_<date>.json in the current directory)");
  const std::string& date = cli.flag<std::string>("date", "", "row date (default today)");
  const bool& full = cli.flag<bool>("full", false, "full event counts (slower, steadier numbers)");
  const int& reps = cli.flag<int>("reps", 3, "repetitions per kernel workload (best kept)");
  const bool& parallel_only = cli.flag<bool>(
      "parallel-only", false,
      "run only the parallel-sim section (the multi-core CI datapoint; reduced row)");
  cli.parse(argc, argv);

  const std::string day = date.empty() ? todayIso() : date;
  const std::string path = out.empty() ? "BENCH_" + day + ".json" : out;
  const std::uint64_t n = full ? 3'000'000 : 300'000;
  const auto model = ExecTimeModel::standard();
  const auto streams = makePoissonStreams(16, 0.03);

  // 1) Event-kernel hot path, current vs frozen seed kernel.
  KernelResult hold, hold_sentinel, churn, chain, batch;
  double guard_pct = 0.0;
  double sim_pkts_per_wall_s = 0.0;
  if (!parallel_only) {
    std::printf("perf_ledger: kernel workloads (%llu events, best of %d)...\n",
                static_cast<unsigned long long>(n), reps);
    hold = measureKernelPair(
        "hold64", reps, [&](std::uint64_t s) { return benchHold<Simulator>(n, 64, s); },
        [&](std::uint64_t s) { return benchHold<legacy::Simulator>(n, 64, s); });
    hold_sentinel = measureKernelPair(
        "hold64_sentinel", reps,
        [&](std::uint64_t s) { return benchHoldSentinel<Simulator>(n, 64, s); },
        [&](std::uint64_t s) { return benchHoldSentinel<legacy::Simulator>(n, 64, s); });
    churn = measureKernelPair(
        "churn", reps, [&](std::uint64_t s) { return benchChurn<Simulator>(n, 256, s); },
        [&](std::uint64_t s) { return benchChurn<legacy::Simulator>(n, 256, s); });
    chain = measureKernelPair(
        "chain", reps, [&](std::uint64_t s) { return benchChain<Simulator>(n, s); },
        [&](std::uint64_t s) { return benchChain<legacy::Simulator>(n, s); });
    batch = measureKernelPair(
        "batch_admit", reps,
        [&](std::uint64_t s) { return benchBatchAdmit<Simulator>(n, 64, s); },
        [&](std::uint64_t s) { return benchBatchAdmit<legacy::Simulator>(n, 64, s); });
    guard_pct = benchGuardOverheadPct<Simulator>(n, 64, reps);

    // 2) Full protocol model: simulated packets per wall-second (Locking/MRU
    // at moderate load — the simulator's own speed, not the modeled system's).
    std::printf("perf_ledger: protocol-model throughput...\n");
    SimConfig sim_cfg = defaultSimConfig();
    sim_cfg.num_procs = 8;
    sim_cfg.policy.paradigm = Paradigm::kLocking;
    sim_cfg.policy.locking = LockingPolicy::kMru;
    sim_cfg.seed = 1;
    setAutoWindow(sim_cfg, 0.03, full ? 80'000 : 15'000);
    const auto sim_t0 = std::chrono::steady_clock::now();
    const RunMetrics sim_m = runOnce(sim_cfg, model, streams);
    sim_pkts_per_wall_s = static_cast<double>(sim_m.completed) / wallSecondsSince(sim_t0);
  }

  // 2b) Parallel sim: the exactly-decomposable IPS/Wired configuration,
  // serial vs sharded, same seed and window. host_cores rides along because
  // wall-clock speedup is bounded by *real* cores — on a 1-core host the
  // parallel row honestly measures barrier/replay overhead, not a
  // multiplier; the ≥3x target is a multi-core reading of the same row.
  std::printf("perf_ledger: parallel sim throughput...\n");
  const unsigned host_cores = std::max(1u, std::thread::hardware_concurrency());
  SimConfig par_cfg = defaultSimConfig();
  par_cfg.num_procs = 8;
  par_cfg.policy.paradigm = Paradigm::kIps;
  par_cfg.policy.ips = IpsPolicy::kWired;
  par_cfg.seed = 1;
  setAutoWindow(par_cfg, 0.03, full ? 80'000 : 15'000);
  const auto ser_t0 = std::chrono::steady_clock::now();
  const RunMetrics ser_m = runOnce(par_cfg, model, streams);
  const double sim_serial_ips_pkts_per_wall_s =
      static_cast<double>(ser_m.completed) / wallSecondsSince(ser_t0);
  par_cfg.parallel_procs = 4;
  ParallelRunInfo pinfo;
  const auto par_t0 = std::chrono::steady_clock::now();
  const RunMetrics par_m = runParallel(par_cfg, model, streams, &pinfo);
  const double sim_parallel_pkts_per_wall_s =
      static_cast<double>(par_m.completed) / wallSecondsSince(par_t0);
  if (par_m.completed != ser_m.completed)
    std::fprintf(stderr, "perf_ledger: parallel/serial completed-count mismatch!\n");

  // 2d) Figure-12 solved-pair datapoint: the bursty steal-affinity workload
  // that makes Flow Director migrate pins, run A-B against the
  // transport-friendly dispatcher (same seed, same window). The ratio tracks
  // the delay cost/saving of closing the reordering pathology over time;
  // ordering correctness itself is pinned by tests/ordering_test.cpp.
  std::printf("perf_ledger: fig12 tfn vs fdir burst point...\n");
  SimConfig ab_cfg = defaultSimConfig();
  ab_cfg.num_procs = 8;
  ab_cfg.policy.locking = LockingPolicy::kStealAffinity;
  ab_cfg.seed = 1;
  ab_cfg.warmup_us = 20'000.0;
  ab_cfg.measure_us = full ? 400'000.0 : 120'000.0;
  const auto ab_streams = makeBatchStreams(16, 0.03, 8.0);
  ab_cfg.dispatch = net::NicDispatchMode::kFlowDirector;
  const RunMetrics fdir_m = runOnce(ab_cfg, model, ab_streams);
  ab_cfg.dispatch = net::NicDispatchMode::kTransportFriendly;
  const RunMetrics tfn_m = runOnce(ab_cfg, model, ab_streams);
  const double fig12_tfn_vs_fdir_delay_ratio =
      fdir_m.mean_delay_us > 0.0 ? tfn_m.mean_delay_us / fdir_m.mean_delay_us : 0.0;

  // 2c) Runtime frame path: arena allocations per frame through a
  // steady-state LockingEngine window. The counting-allocator test
  // (arena_test) pins the *global*-allocator count at zero; this row tracks
  // the arena-side cost — ~1.0 means one pool hit per submitted frame.
  double arena_alloc_calls_per_frame = 0.0;
  if (!parallel_only) {
    std::printf("perf_ledger: arena frame path...\n");
    EngineOptions eopts;
    eopts.queue_capacity = 256;
    LockingEngine eng(/*workers=*/1, HostConfig{}, eopts);
    eng.openPort(7000, /*session_queue=*/64);
    eng.start();
    const std::vector<std::uint8_t> payload(64, 0x5A);
    std::vector<std::vector<std::uint8_t>> frames;
    for (std::uint32_t s = 0; s < 8; ++s) {
      FrameSpec spec;
      spec.src_port = static_cast<std::uint16_t>(3000 + s);
      frames.push_back(buildUdpFrame(spec, payload));
    }
    const auto pump = [&](std::uint64_t count, std::uint64_t base) {
      for (std::uint64_t i = 0; i < count; ++i)
        while (!eng.submit(WorkItem{frames[i % frames.size()],
                                    static_cast<std::uint32_t>(i % 8), {}, base + i}))
          std::this_thread::yield();
      while (eng.processedCount() < base + count)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    };
    pump(4096, 0);  // warm: slabs, ring slots, scratch Packet, session ring
    const ArenaStats arena_before = FrameArena::totalStats();
    const std::uint64_t window = full ? 65'536 : 16'384;
    pump(window, 4096);
    const ArenaStats arena_after = FrameArena::totalStats();
    eng.stop();
    arena_alloc_calls_per_frame =
        static_cast<double>(arena_after.allocs - arena_before.allocs) /
        static_cast<double>(window);
  }

  // 3) Fast Figure-9 capacity smoke: Locking vs IPS max sustainable rate.
  CapacityResult cap_locking, cap_ips;
  if (!parallel_only) {
    std::printf("perf_ledger: fig9 capacity smoke...\n");
    SimConfig cap_cfg = defaultSimConfig();
    cap_cfg.num_procs = 8;
    cap_cfg.seed = 1;
    cap_cfg.warmup_us = 50'000.0;
    cap_cfg.measure_us = full ? 800'000.0 : 200'000.0;
    const auto factory = [](double rate) { return makePoissonStreams(16, rate); };
    cap_cfg.policy.paradigm = Paradigm::kLocking;
    cap_cfg.policy.locking = LockingPolicy::kMru;
    cap_locking = findMaxRate(cap_cfg, model, factory, 0.002, 0.08, 1000.0, full ? 10 : 7);
    cap_cfg.policy.paradigm = Paradigm::kIps;
    cap_cfg.policy.ips = IpsPolicy::kMru;
    cap_ips = findMaxRate(cap_cfg, model, factory, 0.002, 0.08, 1000.0, full ? 10 : 7);
  }

  char row[2048];
  if (parallel_only) {
    // Reduced row: just the parallel-sim datapoint ROADMAP item 2 wants
    // from a multi-core host (CI job perf-ledger-multicore). Same keys as
    // the full row where they overlap, so trajectory queries compose.
    std::snprintf(
        row, sizeof row,
        "{\"date\": \"%s\", \"mode\": \"parallel-only\", \"host_cores\": %u, "
        "\"sim_serial_ips_pkts_per_wall_s\": %.0f, "
        "\"sim_parallel_pkts_per_wall_s\": %.0f, "
        "\"sim_parallel_threads\": %u, \"sim_parallel_engaged\": %s, "
        "\"sim_parallel_speedup\": %.3f, "
        "\"fig12_tfn_vs_fdir_delay_ratio\": %.3f}",
        day.c_str(), host_cores, sim_serial_ips_pkts_per_wall_s,
        sim_parallel_pkts_per_wall_s, pinfo.shards, pinfo.parallel ? "true" : "false",
        sim_serial_ips_pkts_per_wall_s > 0.0
            ? sim_parallel_pkts_per_wall_s / sim_serial_ips_pkts_per_wall_s
            : 0.0,
        fig12_tfn_vs_fdir_delay_ratio);
  } else {
    std::snprintf(
        row, sizeof row,
        "{\"date\": \"%s\", \"mode\": \"%s\", \"host_cores\": %u, "
        "\"kernel_hold64_eps\": %.0f, \"kernel_hold64_speedup\": %.3f, "
        "\"kernel_hold64_sentinel_eps\": %.0f, \"kernel_hold64_sentinel_speedup\": %.3f, "
        "\"kernel_churn_ops\": %.0f, \"kernel_churn_speedup\": %.3f, "
        "\"kernel_chain_eps\": %.0f, \"kernel_chain_speedup\": %.3f, "
        "\"kernel_batch_admit_eps\": %.0f, \"kernel_batch_admit_speedup\": %.3f, "
        "\"trace_guard_overhead_pct\": %.3f, "
        "\"sim_pkts_per_wall_s\": %.0f, "
        "\"sim_serial_ips_pkts_per_wall_s\": %.0f, "
        "\"sim_parallel_pkts_per_wall_s\": %.0f, "
        "\"sim_parallel_threads\": %u, \"sim_parallel_engaged\": %s, "
        "\"arena_alloc_calls_per_frame\": %.3f, "
        "\"capacity_locking_pkts_per_s\": %.0f, \"capacity_ips_pkts_per_s\": %.0f, "
        "\"fig12_tfn_vs_fdir_delay_ratio\": %.3f}",
        day.c_str(), full ? "full" : "fast", host_cores, hold.new_eps, hold.speedup(),
        hold_sentinel.new_eps, hold_sentinel.speedup(), churn.new_eps, churn.speedup(),
        chain.new_eps, chain.speedup(), batch.new_eps, batch.speedup(), guard_pct,
        sim_pkts_per_wall_s, sim_serial_ips_pkts_per_wall_s, sim_parallel_pkts_per_wall_s,
        pinfo.shards, pinfo.parallel ? "true" : "false",
        arena_alloc_calls_per_frame, cap_locking.max_rate_per_us * 1e6,
        cap_ips.max_rate_per_us * 1e6, fig12_tfn_vs_fdir_delay_ratio);
  }

  const std::vector<obs::Regression> regressions =
      obs::findRegressions(loadHistory(path), obs::parseLedgerRow(row));
  if (!obs::appendLedgerRow(path, row)) {
    std::fprintf(stderr, "perf_ledger: could not write %s\n", path.c_str());
    return 1;
  }
  if (!parallel_only) {
    std::printf("kernel hold64 %.2f Mev/s (%.2fx seed)  hold64_sentinel %.2f Mev/s (%.2fx)  "
                "churn %.2f Mops/s (%.2fx)  chain %.2f Mev/s (%.2fx)  "
                "batch_admit %.2f Mev/s (%.2fx)\n",
                hold.new_eps / 1e6, hold.speedup(), hold_sentinel.new_eps / 1e6,
                hold_sentinel.speedup(), churn.new_eps / 1e6, churn.speedup(),
                chain.new_eps / 1e6, chain.speedup(), batch.new_eps / 1e6, batch.speedup());
    std::printf("trace guard %.3f%%  sim %.0f pkts/wall-s  capacity locking %.0f / ips %.0f pkts/s\n",
                guard_pct, sim_pkts_per_wall_s, cap_locking.max_rate_per_us * 1e6,
                cap_ips.max_rate_per_us * 1e6);
  }
  std::printf("ips serial %.0f pkts/wall-s  parallel %.0f pkts/wall-s "
              "(%u shards, engaged=%s, %u host cores)  arena %.3f allocs/frame\n",
              sim_serial_ips_pkts_per_wall_s, sim_parallel_pkts_per_wall_s, pinfo.shards,
              pinfo.parallel ? "true" : "false", host_cores, arena_alloc_calls_per_frame);
  std::printf("fig12 tfn/fdir delay ratio %.3f (tfn %.1f us, fdir %.1f us, "
              "fdir migrations %llu, tfn applied %llu)\n",
              fig12_tfn_vs_fdir_delay_ratio, tfn_m.mean_delay_us, fdir_m.mean_delay_us,
              static_cast<unsigned long long>(fdir_m.flow_migrations),
              static_cast<unsigned long long>(tfn_m.tfn_applied));
  for (const obs::Regression& r : regressions)
    std::printf("%s\n", obs::formatRegression(r).c_str());
  std::printf("appended row %zu to %s\n", obs::ledgerRowCount(path), path.c_str());
  return 0;
}
