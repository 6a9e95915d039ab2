// arena_test.cpp — FrameArena / FrameBuf: size-class reuse, slab refill
// under exhaustion, cross-thread frees, oversize fallback — and the PR's
// headline claim, pinned with a counting global allocator: once warm, the
// runtime frame path (WorkItem submit → queue hop → stack parse → session
// deliver) performs ZERO global-allocator calls.
#include "util/arena.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <new>
#include <thread>
#include <vector>

#include "proto/stack.hpp"
#include "proto/udp.hpp"
#include "runtime/engine.hpp"
#include "util/lockdep.hpp"

// ------------------------------------------------- counting global new --
//
// Replacing global operator new/delete is the one watertight way to count
// allocator traffic: every std::vector grow, deque node, or std::function
// heap capture lands here. The counter only discriminates; the tests
// measure deltas across a steady-state window after an explicit warm-up.

namespace {
std::atomic<std::uint64_t> g_global_news{0};
}  // namespace

// Out of line, all of them: inlined into a std::allocator call site, a
// malloc'd block reaching operator delete (or a `new` block reaching free)
// reads to gcc as a mismatched pair (-Wmismatched-new-delete), though
// malloc/free is exactly the pairing here.
[[gnu::noinline]] void* operator new(std::size_t n) {
  g_global_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t n) { return ::operator new(n); }
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace affinity {
namespace {

std::uint64_t globalNews() { return g_global_news.load(std::memory_order_relaxed); }

TEST(FrameBuf, VectorRoundTripAndCompare) {
  const std::vector<std::uint8_t> bytes{1, 2, 3, 4, 5};
  FrameBuf a = bytes;  // implicit: the WorkItem construction path
  ASSERT_EQ(a.size(), bytes.size());
  for (std::size_t i = 0; i < bytes.size(); ++i) EXPECT_EQ(a[i], bytes[i]);

  FrameBuf b = a;  // copy allocates its own block
  EXPECT_EQ(a, b);
  b[0] = 99;
  EXPECT_FALSE(a == b);

  FrameBuf c = std::move(a);  // move transfers the block
  EXPECT_EQ(c.size(), bytes.size());
  EXPECT_EQ(a.size(), 0u);  // NOLINT(bugprone-use-after-move) — pinned contract

  const std::span<const std::uint8_t> view = c;  // the receiveFrame conversion
  EXPECT_EQ(view.size(), bytes.size());
  EXPECT_EQ(view[1], 2);
}

TEST(FrameBuf, ResizeAndFillAssign) {
  FrameBuf f;
  f.assign(100, 7);
  ASSERT_EQ(f.size(), 100u);
  EXPECT_EQ(f[99], 7);
  f.resize(10);  // shrink keeps bytes
  ASSERT_EQ(f.size(), 10u);
  EXPECT_EQ(f[9], 7);
  f.resize(50);  // grow zero-fills the tail (fault-injector truncate/regrow)
  ASSERT_EQ(f.size(), 50u);
  EXPECT_EQ(f[9], 7);
  EXPECT_EQ(f[49], 0);
}

TEST(FrameArena, SteadyStateAllocFreeIsGlobalAllocFree) {
  // Warm the 1500-byte size class.
  for (int i = 0; i < 64; ++i) FrameBuf f(std::vector<std::uint8_t>(1500, 1));
  const ArenaStats warm = FrameArena::local().stats();
  const std::uint64_t baseline = globalNews();
  for (int i = 0; i < 10'000; ++i) {
    std::uint8_t* p = FrameArena::local().allocate(1500);
    ASSERT_GE(FrameArena::capacityOf(p), 1500u);
    FrameArena::deallocate(p);
  }
  EXPECT_EQ(globalNews() - baseline, 0u);
  const ArenaStats after = FrameArena::local().stats();
  EXPECT_EQ(after.slab_refills, warm.slab_refills);
  EXPECT_EQ(after.allocs - warm.allocs, 10'000u);
  EXPECT_EQ(after.frees - warm.frees, 10'000u);
}

TEST(FrameArena, ExhaustionRefillsBySlab) {
  const ArenaStats before = FrameArena::local().stats();
  // Hold far more 1 KiB blocks live than one slab carves (128 KiB target /
  // ~1 KiB stride ≈ 126 blocks), forcing repeated refills.
  std::vector<FrameBuf> live;
  live.reserve(1000);
  for (int i = 0; i < 1000; ++i) live.emplace_back(std::vector<std::uint8_t>(1024, 3));
  const ArenaStats grown = FrameArena::local().stats();
  EXPECT_GE(grown.slab_refills - before.slab_refills, 7u);
  EXPECT_GT(grown.bytes_reserved, before.bytes_reserved);
  live.clear();  // all 1000 return to the freelists...
  const std::vector<std::uint8_t> source(1024, 4);
  const std::uint64_t baseline = globalNews();
  for (int i = 0; i < 1000; ++i) live.emplace_back(source);
  // ...so the second wave is served entirely from them. (live was reserved
  // above, and the source vector is hoisted, so the only allocator in the
  // loop is the arena.)
  EXPECT_EQ(FrameArena::local().stats().slab_refills, grown.slab_refills);
  EXPECT_EQ(globalNews() - baseline, 0u);
}

TEST(FrameArena, CrossThreadFreeReturnsToOwner) {
  FrameArena& owner = FrameArena::local();
  const ArenaStats before = owner.stats();
  // Allocate here, free on another thread — the engine pattern (submitter
  // allocates the frame, a worker destroys the WorkItem).
  std::vector<FrameBuf> frames;
  for (int i = 0; i < 100; ++i) frames.emplace_back(std::vector<std::uint8_t>(512, 9));
  std::thread reaper([moved = std::move(frames)]() mutable { moved.clear(); });
  reaper.join();
  const ArenaStats returned = owner.stats();
  EXPECT_EQ(returned.cross_thread_returns - before.cross_thread_returns, 100u);
  EXPECT_EQ(returned.frees - before.frees, 100u);
  // The owner's next allocations drain the return stack: no new slabs.
  for (int i = 0; i < 100; ++i) frames.emplace_back(std::vector<std::uint8_t>(512, 8));
  EXPECT_EQ(owner.stats().slab_refills, returned.slab_refills);
}

TEST(FrameArena, OversizeFallsThroughToGlobalAllocator) {
  const ArenaStats before = FrameArena::local().stats();
  std::vector<std::uint8_t> big(256 * 1024);
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = static_cast<std::uint8_t>(i);
  FrameBuf f = big;
  ASSERT_EQ(f.size(), big.size());
  EXPECT_EQ(f[70'000], static_cast<std::uint8_t>(70'000));
  const ArenaStats after = FrameArena::local().stats();
  EXPECT_EQ(after.oversize_allocs - before.oversize_allocs, 1u);
}

TEST(FrameArena, SessionRingSteadyStateIsAllocFree) {
  UdpSession session(7000, /*queue_capacity=*/32);
  const std::vector<std::uint8_t> payload(200, 0xAB);
  std::vector<std::uint8_t> out;
  out.reserve(256);
  // One full lap warms every ring slot and the read buffer.
  for (int i = 0; i < 32; ++i) ASSERT_TRUE(session.deliver(payload));
  for (int i = 0; i < 32; ++i) ASSERT_TRUE(session.read(out));
  const std::uint64_t baseline = globalNews();
  for (int lap = 0; lap < 100; ++lap) {
    for (int i = 0; i < 32; ++i) ASSERT_TRUE(session.deliver(payload));
    for (int i = 0; i < 32; ++i) ASSERT_TRUE(session.read(out));
  }
  EXPECT_EQ(globalNews() - baseline, 0u);
  EXPECT_EQ(session.deliveredCount(), 32u * 101u);
}

TEST(FrameArena, EngineSteadyStateFramePathIsGlobalAllocFree) {
  // The lockdep tree instruments every Mutex acquisition (site strings,
  // held-set growth) — heap traffic by design, so the zero-allocation claim
  // only holds for trees without the diagnostic.
  if (affinity::lockdep::enabled())
    GTEST_SKIP() << "AFF_LOCKDEP hooks allocate on the lock path";
  // End-to-end: submit → MpmcQueue ring hop → worker pops → shared-stack
  // parse (FDDI/IP/UDP on the scratch Packet) → session → WorkItem freed
  // cross-thread. After warm-up, a window of 4096 frames must hit the
  // global allocator exactly zero times.
  EngineOptions opts;
  opts.queue_capacity = 256;
  LockingEngine engine(/*workers=*/1, HostConfig{}, opts);
  engine.openPort(7000, /*session_queue=*/64);
  engine.start();

  const std::vector<std::uint8_t> payload(64, 0x5A);
  std::vector<std::vector<std::uint8_t>> frames;
  for (std::uint32_t s = 0; s < 8; ++s) {
    FrameSpec spec;
    spec.src_port = static_cast<std::uint16_t>(3000 + s);
    frames.push_back(buildUdpFrame(spec, payload));
  }
  // Warm-up lap: arena slabs, queue ring slots, the scratch Packet, and
  // the session ring all reach their steady capacity here.
  for (std::uint64_t i = 0; i < 4096; ++i)
    ASSERT_TRUE(engine.submit(WorkItem{frames[i % frames.size()],
                                       static_cast<std::uint32_t>(i % 8), {}, i}));
  while (engine.processedCount() < 4096)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  // Measured window. stats() builds vectors, so inside the window the only
  // quiesce signal is time: the sleep just gives the worker room — the
  // zero-delta claim holds at any point because every in-flight path
  // (submit, ring hop, parse, free) is allocation-free.
  const std::uint64_t baseline = globalNews();
  for (std::uint64_t i = 0; i < 4096; ++i)
    ASSERT_TRUE(engine.submit(WorkItem{frames[i % frames.size()],
                                       static_cast<std::uint32_t>(i % 8), {}, i}));
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const std::uint64_t frame_path_allocs = globalNews() - baseline;
  EXPECT_EQ(frame_path_allocs, 0u) << "steady-state frame path hit the global allocator";

  while (engine.processedCount() < 8192)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  engine.stop();
  const EngineStats s = engine.stats();
  EXPECT_EQ(s.submitted, 8192u);
  EXPECT_TRUE(s.conserved());
}

TEST(FrameArena, ExhaustionWithWorkerKillStaysGlobalAllocFreeAndConserves) {
  if (affinity::lockdep::enabled())
    GTEST_SKIP() << "AFF_LOCKDEP hooks allocate on the lock path";
  // The robustness composition: a deliberately tiny flow table (so flow
  // eviction runs continuously), kDropOldest queue overload, and a worker
  // killed in the middle of the measured window. The degraded path — shed
  // victim accounting, queue eviction, orphaned-frame consumption, the
  // survivor absorbing the dead worker's share — must stay exactly as
  // allocation-free as the happy path, and the ledger must still balance.
  EngineOptions opts;
  opts.queue_capacity = 64;
  opts.overload = OverloadPolicy::kDropOldest;
  opts.flow.budget_bytes = 32 * 24;  // 32 entries for 64 streams: churn
  opts.flow.shards = 1;
  LockingEngine engine(/*workers=*/2, HostConfig{}, opts);
  engine.openPort(7000, /*session_queue=*/64);
  engine.start();

  const std::vector<std::uint8_t> payload(64, 0xA5);
  std::vector<std::vector<std::uint8_t>> frames;
  for (std::uint32_t s = 0; s < 64; ++s) {
    FrameSpec spec;
    spec.src_port = static_cast<std::uint16_t>(3000 + s);
    frames.push_back(buildUdpFrame(spec, payload));
  }
  std::uint64_t submitted = 0;
  const auto burst = [&](std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) {
      const auto k = submitted++;
      if (engine.submit(
              WorkItem{frames[k % frames.size()], static_cast<std::uint32_t>(k % 64), {}, k}))
        continue;  // kDropOldest never rejects here, but stay robust
    }
  };
  // kDropOldest sheds most of a fast burst at the submit side, so there is
  // no fixed processed-count target to wait for — wait for quiescence.
  const auto drain = [&] {
    std::uint64_t last = ~0ull;
    for (std::uint64_t now = engine.processedCount(); now != last;
         now = engine.processedCount()) {
      last = now;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  };
  // Paced warm-up first: one frame at a time, each popped before the next
  // goes in. A fast burst alone cannot warm the session ring — flow churn
  // orphans most queued frames before a worker reaches them, so fewer than
  // ring-size frames may actually deliver, leaving cold slots whose
  // first-touch assign() would then allocate inside the measured window.
  for (int i = 0; i < 256; ++i) {
    const std::uint64_t before = engine.processedCount();
    burst(1);
    while (engine.processedCount() == before)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  burst(4096);  // then the fast burst: drop-oldest + eviction paths settle
  drain();

  const std::uint64_t baseline = globalNews();
  burst(2048);
  engine.injectWorkerKill(1);  // mid-window: the survivor takes over
  burst(4096);
  drain();
  const std::uint64_t degraded_path_allocs = globalNews() - baseline;
  EXPECT_EQ(degraded_path_allocs, 0u)
      << "kill/evict/drop-oldest path hit the global allocator";

  engine.stop();
  const EngineStats s = engine.stats();
  EXPECT_EQ(s.submitted + s.rejected, 256u + 4096u + 2048u + 4096u);
  EXPECT_TRUE(s.conserved()) << "ledger must balance under kill + flow churn";
  EXPECT_GT(s.evictions(), 0u);  // the tiny table actually churned
}

}  // namespace
}  // namespace affinity
