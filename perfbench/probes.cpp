// probes.cpp — the traced run's layer probes. Each probe times calls into
// one layer's public functions on inputs generated from the run's seed, or
// reads an exact count from a public result struct. The input family of
// each probe (which workload it stands for) is recorded in DESIGN.md. The
// engines run here too: a closed loop and a paced open loop on prebuilt
// UDP frames.
#include <algorithm>
#include <cstdio>
#include <functional>

#include "bench/kernel_workloads.hpp"
#include "bench/legacy_simulator.hpp"
#include "cache/exec_time.hpp"
#include "flow/flow_table.hpp"
#include "net/dispatch.hpp"
#include "obs/metrics.hpp"
#include "perfbench.hpp"
#include "proto/stack.hpp"
#include "runtime/engine.hpp"
#include "sched/affinity_state.hpp"
#include "sim/simulator.hpp"
#include "stats/histogram.hpp"
#include "stats/online.hpp"
#include "util/arena.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace affinity;

namespace {

// ---------------------------------------------------------------------------
// Engine runs

enum class EngineKind { kIps, kLocking };

constexpr std::uint16_t kRxPort = 7000;
constexpr std::size_t kFlows = 256;
constexpr std::size_t kPayloadBytes = 64;
constexpr double kPacedFramesPerSecond = 50'000.0;

/// Prebuilt UDP/IPv4/FDDI frames, one per seed-generated flow, plus the
/// seeded order in which flows send.
struct FrameSet {
  std::vector<std::vector<std::uint8_t>> flow_frames;
  std::vector<std::uint8_t> order;  ///< flow index of frame i (kFlows <= 256)
};

/// Closed loop: one submitter with blocking submit(), timed after a warm-up.
struct ClosedLoop {
  double fps = 0.0;
  affinity::EngineStats stats;
  std::uint64_t arena_allocs = 0;  ///< FrameArena allocations in the timed part
};

/// Open loop at a fixed rate; latency runs from each frame's due time to its
/// delivered_observer call.
struct Paced {
  std::vector<double> latency_us;          ///< due time -> delivered
  std::vector<double> submit_to_deliver_us;  ///< submit() stamp -> delivered
  double submit_ns_mean = 0.0;             ///< time inside submit()
  double late_max_us = 0.0;                ///< how late the generator ran
  double late_p99_us = 0.0;
};

const char* engineName(EngineKind kind) { return kind == EngineKind::kIps ? "ips" : "locking"; }

FrameSet makeFrameSet(std::uint64_t seed, std::size_t frames) {
  static_assert(kFlows <= 256, "FrameSet::order stores flow indices in a byte");
  Rng rng(seed ^ 0x66726d73ULL);
  FrameSet set;
  set.flow_frames.reserve(kFlows);
  std::vector<std::uint8_t> payload(kPayloadBytes);
  for (std::size_t f = 0; f < kFlows; ++f) {
    FrameSpec spec;
    spec.src_ip = 0x0a000000u | static_cast<std::uint32_t>(rng.uniform_u64(1u << 24));
    spec.src_port = static_cast<std::uint16_t>(1024 + rng.uniform_u64(64'000));
    spec.dst_port = kRxPort;
    spec.ip_id = static_cast<std::uint16_t>(rng.uniform_u64(1u << 16));
    for (auto& b : payload) b = static_cast<std::uint8_t>(rng.uniform_u64(256));
    set.flow_frames.push_back(buildUdpFrame(spec, payload));
  }
  set.order.resize(frames);
  for (auto& o : set.order) o = static_cast<std::uint8_t>(rng.uniform_u64(kFlows));
  return set;
}

WorkItem itemFor(const FrameSet& frames, std::size_t i) {
  const std::uint8_t flow = frames.order[i % frames.order.size()];
  return WorkItem{frames.flow_frames[flow], flow, {}, i};
}

/// Every submitted frame reached the session: nothing rejected, dropped by
/// the stack, evicted or lost.
bool engineDelivered(const EngineStats& s, std::uint64_t offered, Ledger& ledger,
                     const char* what) {
  const std::string tag = std::string(what) + ": ";
  bool ok = ledger.check(s.conserved(), tag + "conservation broken");
  ok &= ledger.check(s.submitted == offered, tag + "submitted != offered");
  ok &= ledger.check(s.rejected == 0, tag + "frames rejected");
  ok &= ledger.check(s.droppedByStack() == 0, tag + "frames dropped by the stack");
  ok &= ledger.check(s.dropped_oldest == 0 && s.evicted_inflight == 0, tag + "frames evicted");
  ok &= ledger.check(s.delivered == offered, tag + "delivered != submitted");
  ledger.attempted += offered;
  ledger.failed += offered - std::min<std::uint64_t>(offered, s.delivered);
  return ok;
}

template <class Engine>
ClosedLoop closedLoopOn(unsigned workers, const FrameSet& frames, std::size_t warm,
                        std::size_t timed, SpanLog& spans, Ledger& ledger) {
  ClosedLoop out;
  std::unique_ptr<Engine> eng;
  {
    SpanLog::Scope s(spans, "engine.setup");
    eng = std::make_unique<Engine>(workers, HostConfig{}, EngineOptions{});
    // No session reader exists, so the socket buffer holds the whole run.
    eng->openPort(kRxPort, warm + timed);
  }
  eng->start();
  {
    SpanLog::Scope s(spans, "engine.warmup");
    for (std::size_t i = 0; i < warm; ++i) eng->submit(itemFor(frames, i));
  }
  const ArenaStats arena0 = FrameArena::totalStats();
  const auto t0 = Clock::now();
  {
    SpanLog::Scope s(spans, "engine.closed_loop");
    {
      SpanLog::Scope sub(spans, "engine.submit");
      for (std::size_t i = warm; i < warm + timed; ++i) eng->submit(itemFor(frames, i));
    }
    SpanLog::Scope drain(spans, "engine.drain");
    eng->stop();
  }
  out.fps = static_cast<double>(timed) / secondsSince(t0);
  out.arena_allocs = FrameArena::totalStats().allocs - arena0.allocs;
  out.stats = eng->stats();
  engineDelivered(out.stats, warm + timed, ledger, "closed loop");
  {
    SpanLog::Scope s(spans, "engine.teardown");
    eng.reset();
  }
  return out;
}

template <class Engine>
Paced pacedOn(unsigned workers, const FrameSet& frames, std::size_t count, double fps,
              SpanLog& spans, Ledger& ledger) {
  Paced out;
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / fps));
  // Each frame is delivered exactly once and its slot is written by the
  // delivering worker alone; stop() joins the workers before the reads.
  std::vector<double> latency(count, -1.0);
  std::vector<double> s2d(count, -1.0);
  Clock::time_point start{};
  std::unique_ptr<Engine> eng;
  {
    SpanLog::Scope s(spans, "engine.setup");
    EngineOptions opts;
    opts.delivered_observer = [&](const WorkItem& item) {
      const auto now = Clock::now();
      const auto due = start + period * static_cast<std::int64_t>(item.seq);
      latency[item.seq] = std::chrono::duration<double, std::micro>(now - due).count();
      s2d[item.seq] = std::chrono::duration<double, std::micro>(now - item.enqueue_tp).count();
    };
    eng = std::make_unique<Engine>(workers, HostConfig{}, opts);
    eng->openPort(kRxPort, count);
  }
  eng->start();
  std::vector<double> late(count);
  double submit_s = 0.0;
  {
    SpanLog::Scope s(spans, "engine.paced");
    start = Clock::now() + std::chrono::milliseconds(1);
    for (std::size_t i = 0; i < count; ++i) {
      WorkItem item = itemFor(frames, i);
      const auto due = start + period * static_cast<std::int64_t>(i);
      auto now = Clock::now();
      while (now < due) now = Clock::now();
      late[i] = std::chrono::duration<double, std::micro>(now - due).count();
      eng->submit(std::move(item));
      submit_s += secondsSince(now);
    }
    SpanLog::Scope drain(spans, "engine.drain");
    eng->stop();
  }
  out.submit_ns_mean = 1e9 * submit_s / static_cast<double>(count);
  out.late_max_us = *std::max_element(late.begin(), late.end());
  out.late_p99_us = quantile(std::move(late), 0.99);
  const EngineStats st = eng->stats();
  if (engineDelivered(st, count, ledger, "paced")) {
    ledger.check(std::none_of(latency.begin(), latency.end(), [](double v) { return v < 0.0; }),
                 "paced: a delivered frame was not observed");
  }
  out.latency_us = std::move(latency);
  out.submit_to_deliver_us = std::move(s2d);
  eng.reset();
  return out;
}

ClosedLoop runClosedLoop(EngineKind kind, unsigned workers, const FrameSet& frames,
                         std::size_t warm, std::size_t timed, SpanLog& spans, Ledger& ledger) {
  return kind == EngineKind::kIps
             ? closedLoopOn<IpsEngine>(workers, frames, warm, timed, spans, ledger)
             : closedLoopOn<LockingEngine>(workers, frames, warm, timed, spans, ledger);
}

Paced runPaced(EngineKind kind, unsigned workers, const FrameSet& frames, std::size_t count,
               double frames_per_second, SpanLog& spans, Ledger& ledger) {
  return kind == EngineKind::kIps
             ? pacedOn<IpsEngine>(workers, frames, count, frames_per_second, spans, ledger)
             : pacedOn<LockingEngine>(workers, frames, count, frames_per_second, spans, ledger);
}

// ---------------------------------------------------------------------------
// Probes

constexpr int kBatches = 5;
constexpr std::size_t kCalls = 400'000;

/// Median over kBatches of ns per call; `body(batch)` returns its call count.
double nsPerCall(const std::function<double(int)>& body) {
  std::vector<double> ns;
  for (int b = 0; b < kBatches; ++b) {
    const auto t0 = Clock::now();
    const double calls = body(b);
    ns.push_back(1e9 * secondsSince(t0) / calls);
  }
  return median(ns);
}

// Event kernel: hold (64 pending) and same-timestamp cohorts of 64, each
// interleaved with the frozen seed kernel so both see the same host load.
void probeKernel(std::uint64_t seed, std::vector<Metric>& out) {
  constexpr std::uint64_t kEvents = 300'000;
  std::vector<double> hold_eps, hold_ratio, batch_eps, batch_ratio;
  for (int r = 0; r < kBatches; ++r) {
    const std::uint64_t s = seed + static_cast<std::uint64_t>(r);
    const double h_new = bench::benchHold<Simulator>(kEvents, 64, s);
    const double h_old = bench::benchHold<legacy::Simulator>(kEvents, 64, s);
    const double b_new = bench::benchBatchAdmit<Simulator>(kEvents, 64, s);
    const double b_old = bench::benchBatchAdmit<legacy::Simulator>(kEvents, 64, s);
    hold_eps.push_back(h_new);
    hold_ratio.push_back(h_new / h_old);
    batch_eps.push_back(b_new);
    batch_ratio.push_back(b_new / b_old);
  }
  out.push_back({"sim.kernel.hold64_ns_per_event", 1e9 / median(hold_eps), "ns"});
  out.push_back({"sim.kernel.batch64_ns_per_event", 1e9 / median(batch_eps), "ns"});
  out.push_back({"sim.kernel.hold64_vs_seed", median(hold_ratio), "x"});
  out.push_back({"sim.kernel.batch64_vs_seed", median(batch_ratio), "x"});
}

// Affinity state and cache model on the sim_locking_mru shape: 8
// processors, 16 streams, arrivals at 30 k packets/s. The ages the affinity
// probe records are the cache probe's input.
void probeAffinityAndCache(std::uint64_t seed, std::vector<Metric>& out) {
  constexpr unsigned kProcs = 8;
  constexpr std::uint32_t kStreams = 16;
  Rng rng(seed ^ 0x61666673ULL);
  std::vector<std::uint32_t> stream(kCalls);
  std::vector<unsigned> proc(kCalls);
  std::vector<double> at(kCalls);
  double now = 0.0;
  for (std::size_t i = 0; i < kCalls; ++i) {
    now += rng.exponential(0.03);
    at[i] = now;
    stream[i] = static_cast<std::uint32_t>(rng.uniform_u64(kStreams));
    proc[i] = static_cast<unsigned>(rng.uniform_u64(kProcs));
  }
  std::vector<CacheStateAges> ages(kCalls);
  out.push_back({"sched.affinity_ns_per_pkt", nsPerCall([&](int) {
                   AffinityState aff(kProcs, kStreams, kProcs);
                   for (std::size_t i = 0; i < kCalls; ++i) {
                     CacheStateAges& a = ages[i];
                     a.code = aff.codeAge(proc[i], at[i]);
                     a.shared = aff.sharedAge(proc[i], at[i]);
                     a.stream = aff.streamAge(proc[i], stream[i], at[i]);
                     aff.onComplete(proc[i], stream[i], AffinityState::kNoStack, at[i] + 30.0);
                   }
                   keep(ages.back());
                   return static_cast<double>(kCalls);
                 }),
                 "ns"});
  const ExecTimeModel model = ExecTimeModel::standard();
  out.push_back({"cache.service_ns_per_call", nsPerCall([&](int) {
                   double sum = 0.0;
                   for (const CacheStateAges& a : ages) sum += model.serviceTime(a);
                   keep(sum);
                   return static_cast<double>(kCalls);
                 }),
                 "ns"});

  // Statistics primitives on the same stream of service times.
  std::vector<double> service(kCalls);
  for (std::size_t i = 0; i < kCalls; ++i) service[i] = model.serviceTime(ages[i]);
  out.push_back({"stats.online_ns_per_add", nsPerCall([&](int) {
                   OnlineStats s;
                   for (const double x : service) s.add(x);
                   keep(s.mean());
                   return static_cast<double>(kCalls);
                 }),
                 "ns"});
  out.push_back({"stats.histogram_ns_per_add", nsPerCall([&](int) {
                   Histogram h(0.1, 8, 32);
                   for (const double x : service) h.add(x);
                   keep(h.count());
                   return static_cast<double>(kCalls);
                 }),
                 "ns"});

  // Registry instruments, resolved once as the sim's hot paths do.
  obs::MetricsRegistry reg;
  obs::Counter& counter = reg.counter("perfbench.probe.counter");
  obs::LatencyHisto& histo = reg.histogram("perfbench.probe.latency");
  out.push_back({"obs.counter_ns_per_inc", nsPerCall([&](int) {
                   for (std::size_t i = 0; i < kCalls; ++i) counter.inc();
                   keep(counter.value());
                   return static_cast<double>(kCalls);
                 }),
                 "ns"});
  out.push_back({"obs.latency_histo_ns_per_add", nsPerCall([&](int) {
                   for (const double x : service) histo.add(x);
                   return static_cast<double>(kCalls);
                 }),
                 "ns"});
}

// NIC dispatch in transport-friendly mode on the sim_bursty_steal shape
// (16 streams over 8 queues): route, open an in-flight slot, consumer
// feedback (5 % from another queue, as after a steal), and a cancelled
// push every 64th frame.
void probeDispatch(std::uint64_t seed, std::vector<Metric>& out) {
  constexpr unsigned kQueues = 8;
  Rng rng(seed ^ 0x6e6963ULL);
  std::vector<std::uint32_t> stream(kCalls);
  std::vector<std::uint8_t> moved(kCalls);
  for (std::size_t i = 0; i < kCalls; ++i) {
    stream[i] = static_cast<std::uint32_t>(rng.uniform_u64(16));
    moved[i] = rng.bernoulli(0.05) ? 1 : 0;
  }
  out.push_back({"net.dispatch_ns_per_call", nsPerCall([&](int) {
                   net::NicDispatcher nic(net::NicDispatchMode::kTransportFriendly, kQueues);
                   double calls = 0.0;
                   for (std::size_t i = 0; i < kCalls; ++i) {
                     const std::uint32_t s = stream[i];
                     const unsigned q = nic.queueOf(s);
                     nic.noteDispatched(s);
                     nic.noteRun(s, moved[i] != 0 ? (q + 1) % kQueues : q);
                     calls += 3.0;
                     if ((i & 63) == 0) {
                       nic.noteDispatched(s);
                       nic.noteDrained(s);
                       calls += 2.0;
                     }
                   }
                   keep(nic.stats().routed);
                   return calls;
                 }),
                 "ns"});
}

// Flow table admit/release at the engines' flow count.
void probeFlowTable(std::uint64_t seed, std::vector<Metric>& out) {
  Rng rng(seed ^ 0x666c6f77ULL);
  std::vector<std::uint32_t> key(kCalls);
  for (auto& k : key) k = static_cast<std::uint32_t>(rng.uniform_u64(kFlows));
  out.push_back({"flow.admit_ns_per_call", nsPerCall([&](int) {
                   flow::FlowTable table{flow::FlowTableConfig{}};
                   for (const std::uint32_t k : key) {
                     const flow::AdmitResult r = table.admit(k);
                     table.release(k, r.gen);
                   }
                   keep(table.stats().hits);
                   return 2.0 * static_cast<double>(kCalls);
                 }),
                 "ns"});
}

// Bare receive path on the engines' frames; the socket buffer holds a
// whole batch so every frame is delivered.
void probeProto(std::uint64_t seed, Ledger& ledger, std::vector<Metric>& out) {
  constexpr std::size_t kFrames = 200'000;
  const FrameSet frames = makeFrameSet(seed, kFrames);
  std::vector<std::unique_ptr<ProtocolStack>> stacks;
  for (int b = 0; b < kBatches; ++b) {
    stacks.push_back(std::make_unique<ProtocolStack>());
    stacks.back()->open(kRxPort, kFrames);
  }
  out.push_back({"proto.receive_ns_per_frame", nsPerCall([&](int b) {
                   ProtocolStack& stack = *stacks[static_cast<std::size_t>(b)];
                   for (const std::uint8_t f : frames.order) keep(stack.receiveFrame(frames.flow_frames[f]));
                   return static_cast<double>(kFrames);
                 }),
                 "ns"});
  for (const auto& s : stacks) {
    ledger.attempted += kFrames;
    if (!ledger.check(s->framesDelivered() == kFrames, "proto: a frame was not delivered"))
      ledger.failed += kFrames - s->framesDelivered();
  }
}

// Both engines on the benchmark's 64-byte UDP frames over 256 flows: a
// closed loop at 1 worker for the per-frame cost, one at 2 workers for the
// throughput, the per-worker balance, the arena and the flow table, then
// the paced phase at 2 workers for the latency from each frame's due time,
// the time inside submit() and the hand-off latency.
void probeRuntime(std::uint64_t seed, SpanLog& spans, Ledger& ledger, std::vector<Metric>& out) {
  constexpr std::size_t kWarm = 10'000;
  constexpr std::size_t kTimed = 100'000;
  constexpr std::size_t kPaced = 20'000;
  const FrameSet frames = makeFrameSet(seed, kWarm + kTimed);
  double imbalance = 0.0;
  std::uint64_t arena_allocs = 0;
  std::uint64_t flow_hits = 0;
  std::uint64_t flow_inserts = 0;
  for (const EngineKind kind : {EngineKind::kIps, EngineKind::kLocking}) {
    const std::string prefix = std::string("runtime.") + engineName(kind);
    const ClosedLoop c1 = runClosedLoop(kind, 1, frames, kWarm, kTimed, spans, ledger);
    out.push_back({prefix + ".fps_w1", c1.fps, "1/s"});
    const ClosedLoop c = runClosedLoop(kind, 2, frames, kWarm, kTimed, spans, ledger);
    out.push_back({prefix + ".fps_w2", c.fps, "1/s"});
    const auto& per = c.stats.per_worker_processed;
    double sum = 0.0;
    double max = 0.0;
    for (const auto v : per) {
      sum += static_cast<double>(v);
      max = std::max(max, static_cast<double>(v));
    }
    if (sum > 0.0) imbalance = std::max(imbalance, max / (sum / static_cast<double>(per.size())));
    arena_allocs += c.arena_allocs;
    flow_hits += c.stats.flow_hits;
    flow_inserts += c.stats.flow_inserts;

    const Paced p = runPaced(kind, 2, frames, kPaced, kPacedFramesPerSecond, spans, ledger);
    out.push_back({prefix + ".paced_p50_us", median(p.latency_us), "us"});
    std::printf("%s paced at %.0f frames/s: p99 %.2f us over %zu frames; generator late "
                "p99 %.2f us, max %.1f us (diagnostics, not metrics)\n",
                engineName(kind), kPacedFramesPerSecond, quantile(p.latency_us, 0.99),
                p.latency_us.size(), p.late_p99_us, p.late_max_us);
    out.push_back({prefix + ".submit_ns", p.submit_ns_mean, "ns"});
    out.push_back({prefix + ".submit_to_deliver_us_p50", median(p.submit_to_deliver_us), "us"});
  }
  out.push_back({"runtime.worker_imbalance", imbalance, "ratio"});
  out.push_back({"util.arena.allocs_per_frame",
                 static_cast<double>(arena_allocs) / (2.0 * static_cast<double>(kTimed)), "count"});
  out.push_back({"flow.hit_ratio",
                 static_cast<double>(flow_hits) / static_cast<double>(flow_hits + flow_inserts),
                 "ratio"});
}

// Steal and NIC counts from one sim_bursty_steal repetition (deterministic
// for the seed: on that workload these are the workload's own counts).
void probeSteal(std::uint64_t seed, SpanLog& spans, Ledger& ledger, std::vector<Metric>& out) {
  const SimRep rep = runSimRep(SimKind::kBurstySteal, seed, spans, ledger);
  const RunMetrics& m = rep.metrics;
  out.push_back({"sched.steal.stolen_jobs", static_cast<double>(m.stolen_jobs), "count"});
  out.push_back({"sched.steal.reload_us_per_job",
                 m.stolen_jobs > 0 ? m.steal_reload_us / static_cast<double>(m.stolen_jobs) : 0.0,
                 "us"});
  out.push_back({"net.flow_migrations", static_cast<double>(m.flow_migrations), "count"});
  out.push_back({"net.tfn_applied", static_cast<double>(m.tfn_applied), "count"});
}

// sim_parallel_wired's configuration serially and on its 3 shards; the two
// results must agree field for field.
void probeParallel(std::uint64_t seed, SpanLog& spans, Ledger& ledger, std::vector<Metric>& out) {
  const SimRep par = runSimRep(SimKind::kParallelWired, seed, spans, ledger);
  SimInputs in = makeSimInputs(SimKind::kParallelWired, seed);
  in.config.parallel_procs = 0;
  RunMetrics serial;
  const auto t0 = Clock::now();
  {
    SpanLog::Scope s(spans, "sim.serial_reference");
    ProtocolSim sim(in.config, in.model, in.streams);
    serial = sim.run();
  }
  const double serial_s = secondsSince(t0);
  ledger.attempted += 1;
  if (!ledger.check(sameRunMetrics(serial, par.metrics),
                    "parallel RunMetrics differ from the serial run"))
    ledger.failed += 1;
  const double epochs = static_cast<double>(par.info.epochs);
  out.push_back({"core.parallel.speedup", serial_s / par.run_s, "x"});
  out.push_back({"core.parallel.us_per_epoch", epochs > 0 ? 1e6 * par.run_s / epochs : 0.0, "us"});
  out.push_back({"core.parallel.epochs", epochs, "count"});
}

}  // namespace

void runLayerProbes(std::uint64_t seed, SpanLog& spans, Ledger& ledger, std::vector<Metric>& out) {
  SpanLog::Scope all(spans, "probes");
  {
    SpanLog::Scope s(spans, "probe.sim_kernel");
    probeKernel(seed, out);
  }
  {
    SpanLog::Scope s(spans, "probe.sched_cache_stats_obs");
    probeAffinityAndCache(seed, out);
  }
  {
    SpanLog::Scope s(spans, "probe.net");
    probeDispatch(seed, out);
  }
  {
    SpanLog::Scope s(spans, "probe.flow");
    probeFlowTable(seed, out);
  }
  {
    SpanLog::Scope s(spans, "probe.proto");
    probeProto(seed, ledger, out);
  }
  {
    SpanLog::Scope s(spans, "probe.runtime");
    probeRuntime(seed, spans, ledger, out);
  }
  {
    SpanLog::Scope s(spans, "probe.steal");
    probeSteal(seed, spans, ledger, out);
  }
  {
    SpanLog::Scope s(spans, "probe.parallel");
    probeParallel(seed, spans, ledger, out);
  }
}

}  // namespace perfbench
