#include "sim/simulator.hpp"

#include <algorithm>
#include <bit>
#include <limits>

namespace affinity {

int Simulator::minQualifying(const Bucket& b) const noexcept {
  int best = -1;
  double best_at = std::numeric_limits<double>::infinity();
  std::uint64_t best_seq = ~std::uint64_t{0};
  const Key* keys = b.data();
  const std::size_t n = b.size();
  for (std::size_t i = 0; i < n; ++i) {
    const Key& e = keys[i];
    if (e.assigned != cursor_) continue;  // parked for a later pass of the ring
    // Branchless best-update: which of two random timestamps is smaller is
    // a coin flip, so a branch here mispredicts ~half the time.
    const bool better =
        (e.at < best_at) | ((e.at == best_at) & (e.seq < best_seq));
    best = better ? static_cast<int>(i) : best;
    best_at = better ? e.at : best_at;
    best_seq = better ? e.seq : best_seq;
  }
  return best;
}

std::uint64_t Simulator::minAssigned() const noexcept {
  std::uint64_t mn = ~std::uint64_t{0};
  for (const Bucket& b : buckets_)
    for (const Key& e : b) mn = std::min(mn, e.assigned);
  return mn;
}

bool Simulator::cancel(EventHandle h) noexcept {
  if (!h.valid()) return false;
  if (h.slot_ >= slots_.size()) return false;
  Slot& s = slots_[h.slot_];
  if (s.seq != h.seq_) return false;  // already ran, cancelled, or slot reused
  // Destroyed on return, once the calendar is consistent again.
  const EventCallback dead = std::move(s.fn);
  removeKey(s.bucket, s.index);
  freeSlot(h.slot_);
  --live_;
  return true;
}

// A full pass of the ring found no event in the current year, i.e. the next
// event is more than nbuckets windows ahead. Jump the cursor straight to its
// window (O(nbuckets + live)). If that keeps happening — or the ring is badly
// oversized for the population — the width/size are mistuned, so pay for a
// full retune.
void Simulator::onEmptyRotation() {
  if ((live_ < (mask_ + 1) / 4 && mask_ + 1 > kMinBuckets) || ++rotations_ >= 4) {
    rebuild();
  } else {
    cursor_ = minAssigned();
  }
}

bool Simulator::popNext(SimTime until, SimTime& at, EventCallback& fn) {
  if (live_ == 0) return false;
  std::size_t scanned = 0;
  for (;;) {
    const auto bucket = static_cast<std::uint32_t>(cursor_ & mask_);
    const int best = minQualifying(buckets_[bucket]);
    if (best >= 0) {
      const Key e = buckets_[bucket][static_cast<std::size_t>(best)];
      if (e.at > until) return false;
      at = e.at;
      fn = std::move(slots_[e.slot].fn);
      freeSlot(e.slot);
      removeKey(bucket, static_cast<std::uint32_t>(best));
      --live_;
      return true;
    }
    ++cursor_;
    if (++scanned > mask_) {
      onEmptyRotation();
      scanned = 0;
    }
  }
}

bool Simulator::runNext(SimTime until) {
  // One callback per call: it is destroyed right after it runs.
  SimTime at;
  EventCallback fn;
  if (!popNext(until, at, fn)) return false;
  AFF_DCHECK(at >= now_);
  now_ = at;
  ++executed_;
  fn();
  return true;
}

bool Simulator::step() { return runNext(std::numeric_limits<SimTime>::infinity()); }

std::uint64_t Simulator::runUntil(SimTime until) {
  std::uint64_t ran = 0;
  while (runNext(until)) ++ran;
  if (now_ < until) now_ = until;
  return ran;
}

std::uint64_t Simulator::runAll() {
  std::uint64_t ran = 0;
  while (step()) ++ran;
  return ran;
}

void Simulator::initBuckets(std::size_t nbuckets, double width) {
  buckets_.clear();
  buckets_.resize(nbuckets);
  mask_ = nbuckets - 1;
  width_ = width;
  inv_width_ = 1.0 / width;
  cursor_ = 0;
  rotations_ = 0;
}

void Simulator::rebuild() {
  std::vector<Key> keys;
  keys.reserve(live_);
  for (const Bucket& b : buckets_) keys.insert(keys.end(), b.begin(), b.end());
  // Width: ~2 events per window on average, so a dequeue scans O(1) entries
  // and an empty-window rotation is rare. Any value is *correct* (ordering
  // is exact on (at, seq)); this only tunes scan lengths.
  double w = width_;
  if (keys.size() > 1) {
    const auto [lo, hi] = std::minmax_element(
        keys.begin(), keys.end(), [](const Key& a, const Key& b) { return a.at < b.at; });
    if (hi->at > lo->at) w = (hi->at - lo->at) * 2.0 / static_cast<double>(keys.size());
  }
  if (!(w > 1e-9)) w = 1e-9;  // all-simultaneous events: keep windows finite
  // ~2 events per bucket: two 32-byte keys share a cache line, and half the
  // bucket headers means half the header-array footprint on large calendars.
  const std::size_t nb = std::bit_ceil(std::max(keys.size() / 2, kMinBuckets));
  initBuckets(nb, w);
  if (keys.empty()) {
    cursor_ = windowOf(now_);
    return;
  }
  cursor_ = ~std::uint64_t{0};
  for (Key& e : keys) {
    e.assigned = windowOf(e.at);
    cursor_ = std::min(cursor_, e.assigned);
    Bucket& b = buckets_[e.assigned & mask_];
    b.push_back(e);
    Slot& s = slots_[e.slot];
    s.bucket = static_cast<std::uint32_t>(e.assigned & mask_);
    s.index = static_cast<std::uint32_t>(b.size() - 1);
  }
}

}  // namespace affinity
