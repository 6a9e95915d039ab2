// Tests for src/sim: event ordering, FIFO tie-breaks, cancellation,
// horizons, and re-entrant scheduling.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <functional>
#include <vector>

#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace affinity {
namespace {

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(30.0, [&] { order.push_back(3); });
  sim.schedule(10.0, [&] { order.push_back(1); });
  sim.schedule(20.0, [&] { order.push_back(2); });
  EXPECT_EQ(sim.runAll(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 30.0);
}

TEST(Simulator, FifoTieBreakAtEqualTimes) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) sim.schedule(5.0, [&order, i] { order.push_back(i); });
  sim.runAll();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, ClockAdvancesDuringExecution) {
  Simulator sim;
  double seen = -1.0;
  sim.schedule(42.0, [&] { seen = sim.now(); });
  sim.runAll();
  EXPECT_DOUBLE_EQ(seen, 42.0);
}

TEST(Simulator, ReentrantSchedulingFromCallback) {
  Simulator sim;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 5) sim.scheduleAfter(1.0, chain);
  };
  sim.schedule(0.0, chain);
  sim.runAll();
  EXPECT_EQ(count, 5);
  EXPECT_DOUBLE_EQ(sim.now(), 4.0);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  EventHandle h = sim.schedule(10.0, [&] { ran = true; });
  EXPECT_TRUE(sim.cancel(h));
  EXPECT_FALSE(sim.cancel(h));  // second cancel fails
  sim.runAll();
  EXPECT_FALSE(ran);
  EXPECT_EQ(sim.executedCount(), 0u);
}

TEST(Simulator, CancelAfterRunFails) {
  Simulator sim;
  EventHandle h = sim.schedule(1.0, [] {});
  sim.runAll();
  EXPECT_FALSE(sim.cancel(h));
}

TEST(Simulator, CancelInertHandleFails) {
  Simulator sim;
  EventHandle h;
  EXPECT_FALSE(h.valid());
  EXPECT_FALSE(sim.cancel(h));
}

TEST(Simulator, RunUntilRespectsHorizon) {
  Simulator sim;
  std::vector<double> times;
  for (double t : {1.0, 2.0, 3.0, 4.0, 5.0})
    sim.schedule(t, [&times, &sim] { times.push_back(sim.now()); });
  EXPECT_EQ(sim.runUntil(3.0), 3u);
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
  EXPECT_EQ(sim.pendingCount(), 2u);
  EXPECT_EQ(sim.runUntil(10.0), 2u);
  EXPECT_DOUBLE_EQ(sim.now(), 10.0);  // clock reaches the horizon
}

TEST(Simulator, RunUntilOnEmptyQueueAdvancesClock) {
  Simulator sim;
  sim.runUntil(100.0);
  EXPECT_DOUBLE_EQ(sim.now(), 100.0);
}

TEST(Simulator, EventAtExactHorizonRuns) {
  Simulator sim;
  bool ran = false;
  sim.schedule(5.0, [&] { ran = true; });
  sim.runUntil(5.0);
  EXPECT_TRUE(ran);
}

TEST(Simulator, PendingCountTracksCancellations) {
  Simulator sim;
  auto h1 = sim.schedule(1.0, [] {});
  sim.schedule(2.0, [] {});
  EXPECT_EQ(sim.pendingCount(), 2u);
  sim.cancel(h1);
  EXPECT_EQ(sim.pendingCount(), 1u);
  sim.runAll();
  EXPECT_EQ(sim.pendingCount(), 0u);
  EXPECT_EQ(sim.executedCount(), 1u);
}

TEST(Simulator, SchedulingInPastAborts) {
  Simulator sim;
  sim.schedule(10.0, [] {});
  sim.runAll();
  EXPECT_DEATH(sim.schedule(5.0, [] {}), "CHECK failed");
}

TEST(Simulator, StaleHandleAfterSlotReuseFails) {
  // h1's slot is recycled by h2; the generation stamp must keep the stale
  // handle from cancelling the new occupant.
  Simulator sim;
  bool a = false;
  bool b = false;
  EventHandle h1 = sim.schedule(5.0, [&] { a = true; });
  EXPECT_TRUE(sim.cancel(h1));
  EventHandle h2 = sim.schedule(6.0, [&] { b = true; });
  EXPECT_FALSE(sim.cancel(h1));  // stale generation
  sim.runAll();
  EXPECT_FALSE(a);
  EXPECT_TRUE(b);
  EXPECT_FALSE(sim.cancel(h2));  // already ran
}

TEST(Simulator, CancelSelfFromOwnCallbackFails) {
  // By the time a callback runs, its event is no longer pending.
  Simulator sim;
  EventHandle h;
  bool self_cancel = true;
  h = sim.schedule(1.0, [&] { self_cancel = sim.cancel(h); });
  sim.runAll();
  EXPECT_FALSE(self_cancel);
}

TEST(Simulator, CancelOtherEventFromCallback) {
  Simulator sim;
  bool victim_ran = false;
  EventHandle victim = sim.schedule(10.0, [&] { victim_ran = true; });
  bool cancel_ok = false;
  sim.schedule(5.0, [&] { cancel_ok = sim.cancel(victim); });
  sim.runAll();
  EXPECT_TRUE(cancel_ok);
  EXPECT_FALSE(victim_ran);
  EXPECT_EQ(sim.executedCount(), 1u);
}

TEST(Simulator, SparseFarApartEventsStayOrdered) {
  // Events many calendar "years" apart exercise the empty-rotation path
  // (cursor jump / retune) without scanning every intermediate window.
  Simulator sim;
  std::vector<double> seen;
  for (double t : {2.0e6, 1.0, 3.0e9, 1.0e6, 7.5})
    sim.schedule(t, [&seen, &sim] { seen.push_back(sim.now()); });
  EXPECT_EQ(sim.runAll(), 5u);
  EXPECT_EQ(seen, (std::vector<double>{1.0, 7.5, 1.0e6, 2.0e6, 3.0e9}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0e9);
}

TEST(Simulator, OversizedCaptureRunsAndCancels) {
  // A capture too big for EventCallback's inline buffer takes the pooled
  // heap path; both the invoke and the cancel (destroy) sides must work.
  Simulator sim;
  std::array<double, 16> big{};
  big.fill(1.0);
  double sum = 0.0;
  sim.schedule(1.0, [big, &sum] {
    for (double v : big) sum += v;
  });
  EventHandle doomed = sim.schedule(2.0, [big, &sum] {
    for (double v : big) sum += 100.0 * v;
  });
  EXPECT_TRUE(sim.cancel(doomed));
  sim.runAll();
  EXPECT_DOUBLE_EQ(sum, 16.0);
}

TEST(Simulator, CancellationChurnStress) {
  // Retransmit-timer style churn: interleaved schedule / cancel / runUntil
  // with random victims (some already ran, some already cancelled). Every
  // event must either run or be cancelled, exactly once.
  Simulator sim;
  Rng rng(77);
  struct Rec {
    EventHandle h;
    std::size_t id;
    bool cancelled = false;
  };
  std::vector<Rec> recs;
  std::vector<char> ran;
  for (int round = 0; round < 200; ++round) {
    for (int k = 0; k < 20; ++k) {
      const std::size_t id = ran.size();
      ran.push_back(0);
      recs.push_back({sim.scheduleAfter(rng.uniform(0.0, 50.0), [&ran, id] { ran[id] = 1; }),
                      id, false});
    }
    for (int k = 0; k < 8; ++k) {
      Rec& r = recs[rng.uniform_u64(recs.size())];
      if (sim.cancel(r.h)) {
        EXPECT_FALSE(r.cancelled);         // a pending event can't be cancelled twice
        EXPECT_EQ(ran[r.id], 0);           // a cancelled event hasn't run
        r.cancelled = true;
      }
    }
    sim.runUntil(sim.now() + rng.uniform(0.0, 30.0));
  }
  sim.runAll();
  EXPECT_EQ(sim.pendingCount(), 0u);
  std::size_t cancelled = 0;
  for (const Rec& r : recs) {
    EXPECT_NE(ran[r.id] != 0, r.cancelled);  // ran XOR cancelled
    EXPECT_FALSE(sim.cancel(r.h));           // every handle is now dead
    cancelled += r.cancelled ? 1 : 0;
  }
  EXPECT_EQ(sim.executedCount(), recs.size() - cancelled);
  EXPECT_GT(cancelled, 0u);
  EXPECT_LT(cancelled, recs.size());
}

// --- same-timestamp cohorts -----------------------------------------------
//
// Bursts of events scheduled together, often at one timestamp, as the
// dispatcher and the run() setup loop produce them: long FIFO tie cohorts,
// cohorts extended from inside a callback, cancels inside a cohort (each
// swap-removes a key, so bucket position stops matching schedule order),
// and calendar-year rollover with whole cohorts scheduled far ahead.

TEST(Simulator, SameTimestampOrderStableAcrossAdmissionBatches) {
  // 200 events at one timestamp, enough to outgrow the initial bucket ring
  // and force a calendar rebuild mid-cohort; FIFO order must still be
  // exactly schedule order.
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 200; ++i) sim.schedule(5.0, [&order, i] { order.push_back(i); });
  sim.runAll();
  ASSERT_EQ(order.size(), 200u);
  for (int i = 0; i < 200; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, SameTimestampInterleavedWithEarlierEventStaysStable) {
  // An earlier event runs while a same-time cohort is only half scheduled;
  // the rest of the cohort, scheduled from inside that callback, must
  // still run after the earlier half.
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) sim.schedule(20.0, [&order, i] { order.push_back(i); });
  sim.schedule(1.0, [&] {
    for (int i = 10; i < 20; ++i) sim.schedule(20.0, [&order, i] { order.push_back(i); });
  });
  sim.runAll();
  ASSERT_EQ(order.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, CancelStagedEventBeforeAdmission) {
  // Cancel the middle of a three-event same-time cohort before anything
  // has run; the handle then stays dead and its neighbours still run.
  Simulator sim;
  bool ran_a = false;
  bool ran_b = false;
  bool ran_c = false;
  sim.schedule(10.0, [&] { ran_a = true; });
  EventHandle staged = sim.schedule(10.0, [&] { ran_b = true; });
  sim.schedule(10.0, [&] { ran_c = true; });
  EXPECT_TRUE(sim.cancel(staged));
  EXPECT_FALSE(sim.cancel(staged));  // second cancel: already gone
  EXPECT_EQ(sim.pendingCount(), 2u);
  EXPECT_EQ(sim.runAll(), 2u);
  EXPECT_TRUE(ran_a);
  EXPECT_FALSE(ran_b);
  EXPECT_TRUE(ran_c);
}

TEST(Simulator, CancelStagedMiddleOfBatchKeepsCohortOrder) {
  // Each cancel swap-removes its key, moving the bucket's *last* entry into
  // the hole; execution order must still follow seq, not bucket position.
  Simulator sim;
  std::vector<int> order;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 32; ++i)
    handles.push_back(sim.schedule(5.0, [&order, i] { order.push_back(i); }));
  for (int i = 1; i < 32; i += 2) EXPECT_TRUE(sim.cancel(handles[i]));
  sim.runAll();
  ASSERT_EQ(order.size(), 16u);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[i], 2 * i);
}

TEST(Simulator, EpochRolloverWithStagedCohort) {
  // Events far enough apart that the calendar's year (bucket ring ×
  // width) must roll over repeatedly, scheduled in bursts so whole cohorts
  // land many years ahead of the cursor.
  Simulator sim;
  double last = -1.0;
  bool monotone = true;
  std::uint64_t executed_in_order = 0;
  const auto probe = [&] {
    if (sim.now() < last) monotone = false;
    last = sim.now();
    ++executed_in_order;
  };
  // Burst 1: a dense cluster near t=0 (fills the initial 16-bucket ring).
  for (int i = 0; i < 48; ++i) sim.schedule(0.5 * i, probe);
  // Burst 2: same-size cohort many "years" out.
  for (int i = 0; i < 48; ++i) sim.schedule(100'000.0 + 0.25 * i, probe);
  // Burst 3: between the two, scheduled after — admission order ≠ time order.
  for (int i = 0; i < 48; ++i) sim.schedule(5'000.0 + 1.0 * i, probe);
  sim.runAll();
  EXPECT_TRUE(monotone);
  EXPECT_EQ(executed_in_order, 144u);
  EXPECT_DOUBLE_EQ(sim.now(), 100'000.0 + 0.25 * 47);
}

// --- runUntil horizon boundary ---------------------------------------------
//
// runUntil() finds the earliest event once and either runs it (time <=
// horizon) or stops with it still pending; these pin both sides of that
// decision across consecutive calls.

TEST(Simulator, CallbackSchedulingAtHorizonRunsInSameCall) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(2.0, [&] {
    order.push_back(1);
    sim.schedule(5.0, [&] { order.push_back(2); });  // exactly the horizon
  });
  EXPECT_EQ(sim.runUntil(5.0), 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim.pendingCount(), 0u);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

TEST(Simulator, EventJustPastHorizonStaysPendingThenRunsFirst) {
  Simulator sim;
  std::vector<int> order;
  const double past = std::nextafter(5.0, 6.0);
  sim.schedule(past, [&] { order.push_back(1); });
  sim.schedule(4.0, [&] { order.push_back(0); });
  EXPECT_EQ(sim.runUntil(5.0), 1u);
  EXPECT_EQ(order, (std::vector<int>{0}));
  EXPECT_EQ(sim.pendingCount(), 1u);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
  sim.schedule(7.0, [&] { order.push_back(2); });
  EXPECT_EQ(sim.runUntil(10.0), 2u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Simulator, SameTimeTiesStraddlingRunUntilCallsKeepFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) sim.schedule(8.0, [&order, i] { order.push_back(i); });
  EXPECT_EQ(sim.runUntil(7.5), 0u);  // stops on the cohort, runs none of it
  for (int i = 3; i < 6; ++i) sim.schedule(8.0, [&order, i] { order.push_back(i); });
  EXPECT_EQ(sim.runUntil(8.0), 6u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(Simulator, CancelBoundaryEventBetweenRunUntilCalls) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(1.0, [&] { order.push_back(0); });
  const EventHandle boundary = sim.schedule(3.0, [&] { order.push_back(1); });
  sim.schedule(3.0, [&] { order.push_back(2); });
  EXPECT_EQ(sim.runUntil(2.0), 1u);  // stopped with `boundary` the earliest
  EXPECT_TRUE(sim.cancel(boundary));
  EXPECT_FALSE(sim.cancel(boundary));
  EXPECT_EQ(sim.pendingCount(), 1u);
  EXPECT_EQ(sim.runUntil(3.0), 1u);
  EXPECT_EQ(order, (std::vector<int>{0, 2}));
}

TEST(Simulator, ManyEventsStressOrdering) {
  Simulator sim;
  Rng rng(21);
  double last = -1.0;
  bool monotone = true;
  for (int i = 0; i < 10000; ++i) {
    sim.schedule(rng.uniform(0.0, 1000.0), [&] {
      if (sim.now() < last) monotone = false;
      last = sim.now();
    });
  }
  sim.runAll();
  EXPECT_TRUE(monotone);
  EXPECT_EQ(sim.executedCount(), 10000u);
}

}  // namespace
}  // namespace affinity
