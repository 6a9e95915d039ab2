// flow_table.hpp — bounded, sharded per-flow state table with pluggable
// eviction and adaptive new-flow shedding.
//
// A production receive path cannot keep per-stream state for every flow it
// has ever seen: the table itself becomes a cache footprint the scheduler
// must manage and a resource an adversary can exhaust. This table gives the
// runtime engines and the simulator one bounded answer:
//
//   * fixed memory budget, set once at construction (engines size it at
//     openPort) — never grows, never allocates on the admit path;
//   * open-addressing storage split across cache-line-aligned shards, each
//     with its own annotated Mutex, so submit-side admission does not
//     serialize across RSS buckets;
//   * four victim-selection policies within a fixed probe window, after
//     Jain's flow-cache comparison (DEC-TR-592, cs/9809092): LRU, FIFO,
//     random (seeded), and direct-mapped (window of one);
//   * generation-stamped entries: a frame carries the generation of the
//     flow entry that admitted it, so a frame whose flow was evicted while
//     the frame sat in a queue is recognized at process time and accounted
//     once (as evicted in-flight), never twice;
//   * adaptive load shedding: when table occupancy crosses a high-water
//     mark (with hysteresis at a low-water mark, and an optional external
//     pressure signal such as queue depth), admissions for flows not
//     already in the table are shed with a deterministic seeded tiebreak.
//     Established flows are never shed.
//
// Determinism doctrine: every mutation that victim selection or shedding
// can observe (insert, evict, recency stamp, occupancy) happens on the
// admit path only. release() touches nothing but the in-flight counter,
// which no victim choice reads — so a single submit thread yields
// bit-identical eviction/shed ledgers regardless of worker count. For the
// same reason admitState() (admit without frame custody) leaves every
// ledger exactly as admit()+release() would.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/mutex.hpp"
#include "util/rng.hpp"
#include "util/thread_annotations.hpp"

namespace affinity::flow {

/// Victim-selection policy within a probe window (Jain, DEC-TR-592).
enum class EvictPolicy : std::uint8_t {
  kLru,     ///< evict the least recently *admitted* flow in the window
  kFifo,    ///< evict the oldest insertion in the window
  kRandom,  ///< evict a seeded-uniform pick from the window
  kDirect,  ///< direct-mapped: window of one, occupant is always the victim
};

const char* evictPolicyName(EvictPolicy p);
bool parseEvictPolicy(const std::string& s, EvictPolicy* out);

/// Why an entry was evicted (per-cause ledger, mirrors DropReason style).
enum class EvictReason : std::uint8_t {
  kCapacity,   ///< probe window full, policy chose a victim
  kCollision,  ///< direct-mapped displacement (the only slot was taken)
};
inline constexpr std::size_t kNumEvictReasons = 2;

const char* evictReasonName(EvictReason r);

/// Fixed-at-construction shape of a FlowTable.
struct FlowTableConfig {
  bool enabled = true;              ///< disabled => admit everything, track nothing
  std::size_t budget_bytes = 1u << 20;  ///< total entry storage budget (1 MiB default)
  unsigned shards = 8;              ///< rounded down to a power of two, >= 1
  EvictPolicy policy = EvictPolicy::kLru;
  bool shed_enabled = false;        ///< arm the load-shedding layer
  double shed_high_water = 0.90;    ///< occupancy fraction that engages shedding
  double shed_low_water = 0.75;     ///< occupancy fraction that disengages it
  double shed_admit_fraction = 0.125;  ///< tiebreak: fraction of new flows still admitted
  std::uint64_t seed = 0x5eedf10eULL;  ///< seeds random eviction + shed tiebreak
};

/// Outcome of admit().
struct AdmitResult {
  enum class Status : std::uint8_t {
    kAdmitted,  ///< flow present (existing or freshly inserted); frame may proceed
    kShed,      ///< new flow rejected by the shedding layer; frame must not enter
  };
  Status status = Status::kAdmitted;
  bool inserted = false;   ///< admission created the entry
  bool evicted = false;    ///< creating the entry displaced a victim
  std::uint64_t gen = 0;   ///< generation stamp the frame must carry to release()
  /// Key of the displaced flow when `evicted` (kNoVictim otherwise). The
  /// simulator uses it to cold-reset the victim's affinity state — losing
  /// the table entry means losing the warm per-flow footprint too.
  std::uint32_t victim_key = kNoVictim;
  static constexpr std::uint32_t kNoVictim = 0xffffffffu;
};

/// Monotonic counters snapshot (all exact; see determinism doctrine above).
struct FlowTableStats {
  std::uint64_t inserts = 0;          ///< new-flow entries created
  std::uint64_t hits = 0;             ///< admissions to flows already present
  std::array<std::uint64_t, kNumEvictReasons> evicted_by_reason{};
  std::uint64_t evicted_inflight = 0; ///< frames orphaned by evictions (pre-counted)
  std::uint64_t shed = 0;             ///< new-flow admissions shed
  std::uint64_t stale_releases = 0;   ///< release() calls that missed (orphaned frames)
  std::uint64_t occupancy = 0;        ///< live entries right now
  std::uint64_t capacity = 0;         ///< fixed entry capacity (from the byte budget)
  std::uint64_t shed_engaged = 0;     ///< times the hysteresis latch switched on

  [[nodiscard]] std::uint64_t evictions() const {
    std::uint64_t total = 0;
    for (const auto v : evicted_by_reason) total += v;
    return total;
  }
};

/// Reusable high/low-water hysteresis latch for auxiliary shed-pressure
/// signals (e.g. queue depth in the engines). Relaxed atomics: pressure
/// signals other than table occupancy are timing-dependent by nature and
/// are kept out of the determinism-pinned configurations.
class ShedLatch {
 public:
  /// Feeds the current level; returns whether the latch is engaged.
  bool update(std::uint64_t level, std::uint64_t high, std::uint64_t low) noexcept {
    bool engaged = on_.load(std::memory_order_relaxed);
    if (!engaged) {
      if (high > 0 && level >= high) {
        on_.store(true, std::memory_order_relaxed);
        engaged = true;
      }
    } else if (level <= low) {
      on_.store(false, std::memory_order_relaxed);
      engaged = false;
    }
    return engaged;
  }
  [[nodiscard]] bool on() const noexcept { return on_.load(std::memory_order_relaxed); }

 private:
  std::atomic<bool> on_{false};
};

/// Bounded sharded flow table. Thread-safe; see class comment for which
/// paths preserve determinism.
class FlowTable {
 public:
  explicit FlowTable(const FlowTableConfig& config);

  /// Admits one frame for `key` (stream id). Looks the flow up; creates it
  /// (possibly evicting) when absent; sheds instead when the shedding layer
  /// is armed, pressure is high (internal occupancy latch or
  /// `shed_pressure`), the flow is NOT already established, and the seeded
  /// tiebreak selects it. On kAdmitted the per-flow in-flight count is
  /// incremented and `gen` must travel with the frame.
  AdmitResult admit(std::uint32_t key, bool shed_pressure = false) {
    return admitFrames(key, shed_pressure, 1);
  }

  /// Admits `key`'s flow state without taking custody of a frame: the same
  /// probe, insert, evict, shed and recency stamp as admit(), in one
  /// critical section, but no in-flight reference is taken, so there is
  /// nothing to release(). Equivalent to admit() followed at once by
  /// release() on the returned generation; the simulator uses it because
  /// it consumes each packet's flow state synchronously.
  AdmitResult admitState(std::uint32_t key, bool shed_pressure = false) {
    return admitFrames(key, shed_pressure, 0);
  }

  /// Releases one in-flight frame for `key` at generation `gen`. Returns
  /// true when the entry still exists at that generation (count
  /// decremented); false when the flow was evicted in the meantime — the
  /// frame was already accounted under evicted_inflight and the caller must
  /// not count it anywhere else.
  bool release(std::uint32_t key, std::uint64_t gen);

  /// True when the occupancy-driven shedding latch is currently engaged.
  [[nodiscard]] bool shedActive() const {
    return shedding_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] FlowTableStats stats() const;

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] unsigned shardCount() const { return num_shards_; }
  [[nodiscard]] const FlowTableConfig& config() const { return config_; }

 private:
  struct Entry {
    std::uint32_t key = kEmptyKey;
    std::uint32_t inflight = 0;
    std::uint64_t gen = 0;         ///< insertion sequence; unique per insert
    std::uint64_t last_admit = 0;  ///< admission-order recency (LRU policy)
  };
  static constexpr std::uint32_t kEmptyKey = 0xffffffffu;

  struct alignas(64) Shard {
    // One lockdep node for every shard: the discipline is per-class (shards
    // are locked one at a time, inside any engine stack mutex), so two
    // shards nested would surface as a self-edge — exactly the report we
    // want for that bug.
    Mutex mu{"FlowTable::Shard::mu"};
    std::vector<Entry> slots AFF_GUARDED_BY(mu);
    std::uint64_t tick AFF_GUARDED_BY(mu) = 0;      ///< admission clock
    std::uint64_t next_gen AFF_GUARDED_BY(mu) = 1;  ///< insertion sequence
    Rng rng AFF_GUARDED_BY(mu){0};                  ///< random-policy picks
    std::uint64_t inserts AFF_GUARDED_BY(mu) = 0;
    std::uint64_t hits AFF_GUARDED_BY(mu) = 0;
    std::array<std::uint64_t, kNumEvictReasons> evicted_by_reason AFF_GUARDED_BY(mu){};
    std::uint64_t evicted_inflight AFF_GUARDED_BY(mu) = 0;
    std::uint64_t stale_releases AFF_GUARDED_BY(mu) = 0;
  };

  [[nodiscard]] std::uint32_t shardOf(std::uint64_t h) const {
    return static_cast<std::uint32_t>(h & (num_shards_ - 1));
  }
  /// admit()'s body: `frames` (0 or 1) is the in-flight reference the
  /// admitted entry gains, the only difference between the two callers.
  AdmitResult admitFrames(std::uint32_t key, bool shed_pressure, std::uint32_t frames);
  /// True when this new-flow admission should be shed (tiebreak applied).
  [[nodiscard]] bool shedSelects(std::uint32_t key) const;
  /// Updates the occupancy hysteresis latch after occupancy changed.
  void updateShedLatch();

  FlowTableConfig config_;
  unsigned num_shards_ = 1;
  std::size_t slots_per_shard_ = 0;
  std::size_t capacity_ = 0;
  unsigned probe_window_ = 8;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::uint64_t> occupancy_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> shed_engaged_{0};
  std::atomic<bool> shedding_{false};
  std::uint64_t shed_high_entries_ = 0;
  std::uint64_t shed_low_entries_ = 0;
  /// Sentinel cut meaning "admit fraction 1.0: never shed".
  static constexpr std::uint64_t kNeverShed = 0xffffffffffffffffULL;
  std::uint64_t shed_admit_cut_ = 0;  ///< tiebreak threshold in 64-bit hash space
};

}  // namespace affinity::flow
