// simulator.hpp — discrete-event simulation kernel.
//
// A single-threaded event calendar: events are (time, callback) pairs,
// executed in nondecreasing time order with FIFO tie-breaking (events
// scheduled earlier at the same timestamp run first — this makes simulation
// runs fully deterministic for a given seed).
//
// Hot-path design (the whole repo's figure reproductions funnel millions of
// events through here; the seed kernel paid a std::function heap allocation,
// an unordered_set insert/erase, and O(log n) binary-heap sifts per event):
//   * Callbacks live in EventCallback — small-buffer-optimized type erasure,
//     no per-event heap allocation for the simulation's capture sizes
//     (oversized captures fall back to pooled storage).
//   * Every pending event owns a generation-stamped slot, recycled through
//     a free list, that holds its callback and its calendar position. An
//     EventHandle is (slot, seq) and is valid iff the slot still carries
//     that seq. cancel() is O(1) and eager: the event is unlinked
//     immediately, leaving no tombstones.
//   * The calendar is a Brown-style calendar queue: a power-of-two ring of
//     unsorted buckets, each covering a `width_`-µs window of the current
//     "year". A bucket is one dense array of 32-byte keys (time, seq,
//     assigned window, slot) and nothing else, so the dequeue scan reads
//     keys only and a swap-remove moves one key. A callback is written
//     once, into its slot, at schedule() and moved once, out of it, when
//     its event is popped.
//   * Enqueue appends to the target bucket (O(1)). Dequeue scans the cursor
//     bucket once for the (time, seq)-minimum among entries whose assigned
//     window has arrived; runUntil() pops that minimum if it is within the
//     horizon and stops otherwise, so each event costs one scan. Bucket
//     count and width retune from the live event population (on growth and
//     on empty-year rotations), so both operations are O(1) amortized. The
//     width comes from the spacing of the nearer half of the pending
//     events, so a few far-future control events cannot stretch it.
//     Structure-of-arrays buckets and a staged, batched admission buffer
//     were both measured slower than this layout (README, "Performance
//     harness").
// Bucketing affects only performance, never order: the dequeue minimum is
// computed exactly on (time, seq), so runs are bit-for-bit identical to the
// seed kernel (locked in by tests/determinism_test.cpp).
//
// Time is a double in *microseconds* throughout this codebase: the paper's
// packet service times are hundreds of microseconds, so µs keeps the
// magnitudes readable and well within double precision for runs of many
// simulated seconds.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/event_callback.hpp"
#include "util/check.hpp"

namespace affinity {

/// Simulated time in microseconds.
using SimTime = double;

/// Handle for cancelling a scheduled event. Default-constructed handles are
/// inert (cancel() on them is a no-op).
class EventHandle {
 public:
  EventHandle() = default;

  [[nodiscard]] bool valid() const noexcept { return seq_ != 0; }

 private:
  friend class Simulator;
  EventHandle(std::uint32_t slot, std::uint64_t seq) noexcept : slot_(slot), seq_(seq) {}
  std::uint32_t slot_ = 0;
  std::uint64_t seq_ = 0;  // generation stamp: matches the slot iff still pending
};

/// The event calendar. Not thread-safe (the paper's model is a sequential
/// simulation of a parallel machine; real parallelism lives in src/runtime,
/// in core/sweep_runner, and in core/parallel_sim — all of which run
/// independent calendars per thread).
class Simulator {
 public:
  Simulator() { initBuckets(kMinBuckets, 1.0); }
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Schedules `fn` (any void() callable) to run at absolute time `at`
  /// (>= now()). Returns a handle usable with cancel().
  template <typename F>
  EventHandle schedule(SimTime at, F&& fn) {
    AFF_CHECK(at >= now_);
    std::uint64_t assigned = windowOf(at);
    if (assigned < cursor_) assigned = cursor_;  // competes in the current window
    const auto bucket = static_cast<std::uint32_t>(assigned & mask_);
    Bucket& b = buckets_[bucket];
    if (b.size() == b.capacity()) b.reserve(std::max<std::size_t>(4, b.capacity() * 2));
    const std::uint32_t slot = allocSlot();
    Slot& s = slots_[slot];
    try {
      s.fn.emplace(std::forward<F>(fn));  // constructed in place, in its slot
    } catch (...) {
      freeSlot(slot);
      throw;
    }
    const std::uint64_t seq = next_seq_++;
    b.push_back(Key{at, seq, assigned, slot});  // nothrow: capacity reserved
    s.seq = seq;
    s.bucket = bucket;
    s.index = static_cast<std::uint32_t>(b.size() - 1);
    ++live_;
    if (live_ > 4 * (mask_ + 1)) rebuild();
    return EventHandle(slot, seq);
  }

  /// Schedules `fn` to run `delay` (>= 0) after now().
  template <typename F>
  EventHandle scheduleAfter(SimTime delay, F&& fn) {
    return schedule(now_ + delay, std::forward<F>(fn));
  }

  /// Cancels a pending event. Returns true if the event was pending (and is
  /// now guaranteed not to run), false if it already ran, was already
  /// cancelled, or the handle is inert.
  bool cancel(EventHandle h) noexcept;

  /// Runs events with timestamp <= `until`; afterwards the clock reads
  /// exactly `until` (even if the queue drained early). Returns the number
  /// of events executed.
  std::uint64_t runUntil(SimTime until);

  /// Runs all events to quiescence.
  std::uint64_t runAll();

  /// Executes at most one event. Returns false if none pending.
  bool step();

  /// Number of pending (non-cancelled) events.
  [[nodiscard]] std::size_t pendingCount() const noexcept { return live_; }

  /// Total events executed so far.
  [[nodiscard]] std::uint64_t executedCount() const noexcept { return executed_; }

 private:
  static constexpr std::size_t kMinBuckets = 16;

  struct Key {
    SimTime at;
    std::uint64_t seq;       // FIFO tie-break
    std::uint64_t assigned;  // global (un-masked) window index this entry waits in
    std::uint32_t slot;
  };
  using Bucket = std::vector<Key>;
  // Handle table entry: seq stamps the generation, (bucket, index) locates
  // the key for O(1) eager cancellation (maintained on every key move), and
  // fn holds the event's callback until it is popped or cancelled.
  struct Slot {
    std::uint64_t seq = 0;  // 0 = free
    std::uint32_t bucket = 0;
    std::uint32_t index = 0;
    EventCallback fn;
  };

  [[nodiscard]] std::uint64_t windowOf(SimTime at) const noexcept {
    return static_cast<std::uint64_t>(at * inv_width_);
  }

  // Free slots form an intrusive list threaded through Slot::index.
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  std::uint32_t allocSlot() {
    if (free_head_ != kNoSlot) {
      const std::uint32_t slot = free_head_;
      free_head_ = slots_[slot].index;
      return slot;
    }
    slots_.emplace_back();
    return static_cast<std::uint32_t>(slots_.size() - 1);
  }

  /// Releases a slot whose callback has already been moved out.
  void freeSlot(std::uint32_t slot) noexcept {
    slots_[slot].seq = 0;
    slots_[slot].index = free_head_;
    free_head_ = slot;
  }

  /// Swap-removes key `index` of bucket `bucket`, fixing the moved key's slot.
  void removeKey(std::uint32_t bucket, std::uint32_t index) noexcept {
    Bucket& b = buckets_[bucket];
    if (index + 1 != b.size()) {
      b[index] = b.back();
      slots_[b[index].slot].index = index;
    }
    b.pop_back();
  }

  /// Index of the (at, seq)-minimum entry of `b` whose window has arrived
  /// (assigned == cursor_); -1 if none.
  [[nodiscard]] int minQualifying(const Bucket& b) const noexcept;

  /// Smallest assigned window over all pending events (live_ must be > 0).
  [[nodiscard]] std::uint64_t minAssigned() const noexcept;

  /// Reacts to a full empty pass of the ring: jumps the cursor to the next
  /// populated window, or retunes the calendar if this keeps happening.
  void onEmptyRotation();

  /// Pops the earliest event into (at, fn) if its time is <= `until`;
  /// false if there is none (the event, if any, stays pending). The event's
  /// slot is released before returning, so from the callback's point of
  /// view the event is no longer pending (cancel on it fails).
  bool popNext(SimTime until, SimTime& at, EventCallback& fn);
  /// Runs the earliest event if its time is <= `until`; false if none ran.
  bool runNext(SimTime until);

  void initBuckets(std::size_t nbuckets, double width);
  /// Re-buckets every pending key with a bucket count sized to the live
  /// population and a width retuned to the spacing of its nearer half
  /// (its full span if that half is one timestamp). Called on growth and
  /// on empty-year rotations (cheap and rare; amortized O(1) per event).
  void rebuild();

  std::vector<Bucket> buckets_;
  std::size_t mask_ = 0;        // bucket count - 1 (power of two)
  double width_ = 1.0;          // µs covered by one bucket window
  double inv_width_ = 1.0;
  std::uint64_t cursor_ = 0;    // global window index the dequeue scan is at
  std::uint32_t rotations_ = 0; // empty-year rotations since the last rebuild
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;
  std::size_t live_ = 0;
  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
};

}  // namespace affinity
