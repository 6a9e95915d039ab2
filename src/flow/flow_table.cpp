#include "flow/flow_table.hpp"

#include <algorithm>
#include <cmath>

namespace affinity::flow {
namespace {

// splitmix64 finalizer over the key: the same cheap avalanche used for rng
// seeding, here spreading adjacent stream ids across shards and slots.
std::uint64_t mixKey(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::size_t floorPow2(std::size_t n) noexcept {
  std::size_t p = 1;
  while (p * 2 <= n) p *= 2;
  return p;
}

}  // namespace

const char* evictPolicyName(EvictPolicy p) {
  switch (p) {
    case EvictPolicy::kLru: return "lru";
    case EvictPolicy::kFifo: return "fifo";
    case EvictPolicy::kRandom: return "random";
    case EvictPolicy::kDirect: return "direct";
  }
  return "?";
}

bool parseEvictPolicy(const std::string& s, EvictPolicy* out) {
  if (s == "lru") *out = EvictPolicy::kLru;
  else if (s == "fifo") *out = EvictPolicy::kFifo;
  else if (s == "random") *out = EvictPolicy::kRandom;
  else if (s == "direct") *out = EvictPolicy::kDirect;
  else return false;
  return true;
}

const char* evictReasonName(EvictReason r) {
  switch (r) {
    case EvictReason::kCapacity: return "capacity";
    case EvictReason::kCollision: return "collision";
  }
  return "?";
}

FlowTable::FlowTable(const FlowTableConfig& config) : config_(config) {
  num_shards_ = static_cast<unsigned>(floorPow2(std::max(1u, config.shards)));
  probe_window_ = config.policy == EvictPolicy::kDirect ? 1 : 8;

  const std::size_t total_entries =
      std::max<std::size_t>(config.budget_bytes / sizeof(Entry),
                            static_cast<std::size_t>(num_shards_) * probe_window_);
  slots_per_shard_ = floorPow2(std::max<std::size_t>(total_entries / num_shards_,
                                                     probe_window_));
  capacity_ = slots_per_shard_ * num_shards_;

  shards_.reserve(num_shards_);
  for (unsigned i = 0; i < num_shards_; ++i) {
    auto sh = std::make_unique<Shard>();
    MutexLock lock(sh->mu);
    sh->slots.assign(slots_per_shard_, Entry{});
    sh->rng = Rng(config.seed).split(i + 1);
    lock.unlock();
    shards_.push_back(std::move(sh));
  }

  const auto mark = [&](double frac) {
    const double clamped = std::clamp(frac, 0.0, 1.0);
    return static_cast<std::uint64_t>(
        std::llround(clamped * static_cast<double>(capacity_)));
  };
  shed_high_entries_ = mark(config.shed_high_water);
  shed_low_entries_ = mark(config.shed_low_water);
  if (shed_low_entries_ > shed_high_entries_) shed_low_entries_ = shed_high_entries_;

  const double admit = std::clamp(config.shed_admit_fraction, 0.0, 1.0);
  // Threshold in 64-bit hash space: hashes below it are still admitted.
  // admit < 1 keeps admit * 2^64 below 2^64, so the cast is exact; 1.0
  // maps to the kNeverShed sentinel (casting 2^64 itself would overflow).
  shed_admit_cut_ = admit >= 1.0
                        ? kNeverShed
                        : static_cast<std::uint64_t>(std::ldexp(admit, 64));
}

bool FlowTable::shedSelects(std::uint32_t key) const {
  // Pure function of (key, seed): the same flow is either shed or spared on
  // every attempt, independent of arrival order or worker count.
  if (shed_admit_cut_ == kNeverShed) return false;
  return mixKey(static_cast<std::uint64_t>(key) ^ config_.seed) >= shed_admit_cut_;
}

void FlowTable::updateShedLatch() {
  const std::uint64_t occ = occupancy_.load(std::memory_order_relaxed);
  if (!shedding_.load(std::memory_order_relaxed)) {
    if (occ >= shed_high_entries_ && shed_high_entries_ > 0) {
      shedding_.store(true, std::memory_order_relaxed);
      shed_engaged_.fetch_add(1, std::memory_order_relaxed);
    }
  } else if (occ <= shed_low_entries_) {
    shedding_.store(false, std::memory_order_relaxed);
  }
}

AdmitResult FlowTable::admitFrames(std::uint32_t key, bool shed_pressure,
                                    std::uint32_t frames) {
  AdmitResult result;
  if (!config_.enabled) return result;

  const std::uint64_t h = mixKey(key);
  Shard& sh = *shards_[shardOf(h)];
  const std::size_t mask = slots_per_shard_ - 1;
  const auto base = static_cast<std::size_t>((h >> 16) & mask);

  MutexLock lock(sh.mu);
  ++sh.tick;

  // Probe for the key and remember the emptiest/victim candidates as we go.
  int empty_at = -1;
  std::size_t window[8] = {};
  for (unsigned i = 0; i < probe_window_; ++i) {
    const std::size_t idx = (base + i) & mask;
    window[i] = idx;
    Entry& e = sh.slots[idx];
    if (e.key == key) {
      // Established flow: never shed, just stamp recency and count the frame.
      e.last_admit = sh.tick;
      e.inflight += frames;
      ++sh.hits;
      result.gen = e.gen;
      return result;
    }
    if (e.key == kEmptyKey && empty_at < 0) empty_at = static_cast<int>(i);
  }

  // New flow. The shedding layer may refuse it before any state is touched.
  if (config_.shed_enabled &&
      (shedding_.load(std::memory_order_relaxed) || shed_pressure) &&
      shedSelects(key)) {
    result.status = AdmitResult::Status::kShed;
    shed_.fetch_add(1, std::memory_order_relaxed);
    return result;
  }

  std::size_t slot;
  if (empty_at >= 0) {
    slot = window[empty_at];
    occupancy_.fetch_add(1, std::memory_order_relaxed);
  } else {
    // Window full: the policy picks which flow's state survives.
    std::size_t victim = window[0];
    switch (config_.policy) {
      case EvictPolicy::kLru:
        for (unsigned i = 1; i < probe_window_; ++i) {
          if (sh.slots[window[i]].last_admit < sh.slots[victim].last_admit)
            victim = window[i];
        }
        break;
      case EvictPolicy::kFifo:
        for (unsigned i = 1; i < probe_window_; ++i) {
          if (sh.slots[window[i]].gen < sh.slots[victim].gen) victim = window[i];
        }
        break;
      case EvictPolicy::kRandom:
        victim = window[sh.rng.uniform_u64(probe_window_)];
        break;
      case EvictPolicy::kDirect:
        break;  // window of one
    }
    Entry& v = sh.slots[victim];
    const auto reason = config_.policy == EvictPolicy::kDirect
                            ? EvictReason::kCollision
                            : EvictReason::kCapacity;
    ++sh.evicted_by_reason[static_cast<std::size_t>(reason)];
    // Pre-count the victim's queued frames: when they surface at process
    // time their generation will miss and they are dropped silently there.
    sh.evicted_inflight += v.inflight;
    slot = victim;
    result.evicted = true;
    result.victim_key = v.key;
  }

  Entry& e = sh.slots[slot];
  e.key = key;
  e.inflight = frames;
  e.gen = sh.next_gen++;
  e.last_admit = sh.tick;
  ++sh.inserts;
  result.inserted = true;
  result.gen = e.gen;
  lock.unlock();

  if (empty_at >= 0) updateShedLatch();
  return result;
}

bool FlowTable::release(std::uint32_t key, std::uint64_t gen) {
  if (!config_.enabled) return true;

  const std::uint64_t h = mixKey(key);
  Shard& sh = *shards_[shardOf(h)];
  const std::size_t mask = slots_per_shard_ - 1;
  const auto base = static_cast<std::size_t>((h >> 16) & mask);

  MutexLock lock(sh.mu);
  for (unsigned i = 0; i < probe_window_; ++i) {
    Entry& e = sh.slots[(base + i) & mask];
    if (e.key == key) {
      if (e.gen != gen) break;  // evicted and re-inserted since admission
      if (e.inflight > 0) --e.inflight;
      return true;
    }
  }
  ++sh.stale_releases;
  return false;
}

FlowTableStats FlowTable::stats() const {
  FlowTableStats out;
  out.capacity = capacity_;
  out.occupancy = occupancy_.load(std::memory_order_relaxed);
  out.shed = shed_.load(std::memory_order_relaxed);
  out.shed_engaged = shed_engaged_.load(std::memory_order_relaxed);
  for (const auto& sh_ptr : shards_) {
    Shard& sh = *sh_ptr;
    MutexLock lock(sh.mu);
    out.inserts += sh.inserts;
    out.hits += sh.hits;
    for (std::size_t r = 0; r < kNumEvictReasons; ++r)
      out.evicted_by_reason[r] += sh.evicted_by_reason[r];
    out.evicted_inflight += sh.evicted_inflight;
    out.stale_releases += sh.stale_releases;
  }
  return out;
}

}  // namespace affinity::flow
