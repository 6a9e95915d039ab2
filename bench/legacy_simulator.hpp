// legacy_simulator.hpp — the seed repo's event kernel, frozen as a baseline.
//
// This is the pre-optimization Simulator (std::function callbacks heap-
// allocated per event, std::unordered_set lazy cancellation, binary
// std::priority_queue), kept verbatim under namespace legacy so
// sim_kernel_bench can report the current kernel's speedup against it on
// the same machine and workload, and so tests/sim_test can check the
// current kernel's event order against it.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_set>
#include <vector>

#include "util/check.hpp"

namespace affinity::legacy {

using SimTime = double;

class EventHandle {
 public:
  EventHandle() = default;

  [[nodiscard]] bool valid() const noexcept { return id_ != 0; }

 private:
  friend class Simulator;
  explicit EventHandle(std::uint64_t id) noexcept : id_(id) {}
  std::uint64_t id_ = 0;
};

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] SimTime now() const noexcept { return now_; }

  EventHandle schedule(SimTime at, std::function<void()> fn) {
    AFF_CHECK(at >= now_);
    const std::uint64_t seq = next_seq_++;
    heap_.push(Entry{at, seq, std::move(fn)});
    pending_.insert(seq);
    return EventHandle(seq);
  }

  EventHandle scheduleAfter(SimTime delay, std::function<void()> fn) {
    return schedule(now_ + delay, std::move(fn));
  }

  bool cancel(EventHandle h) noexcept {
    if (!h.valid()) return false;
    return pending_.erase(h.id_) == 1;
  }

  std::uint64_t runUntil(SimTime until) {
    std::uint64_t ran = 0;
    SimTime at;
    while (peekTime(at) && at <= until) {
      step();
      ++ran;
    }
    if (now_ < until) now_ = until;
    return ran;
  }

  std::uint64_t runAll() {
    std::uint64_t ran = 0;
    while (step()) ++ran;
    return ran;
  }

  bool step() {
    Entry e;
    if (!popNext(e)) return false;
    now_ = e.at;
    ++executed_;
    e.fn();
    return true;
  }

  [[nodiscard]] std::size_t pendingCount() const noexcept { return pending_.size(); }
  [[nodiscard]] std::uint64_t executedCount() const noexcept { return executed_; }

 private:
  struct Entry {
    SimTime at;
    std::uint64_t seq;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  bool popNext(Entry& out) {
    while (!heap_.empty()) {
      Entry& top = const_cast<Entry&>(heap_.top());
      if (pending_.erase(top.seq) == 0) {
        heap_.pop();
        continue;
      }
      out = std::move(top);
      heap_.pop();
      return true;
    }
    return false;
  }

  bool peekTime(SimTime& at) {
    while (!heap_.empty()) {
      const Entry& top = heap_.top();
      if (pending_.count(top.seq) == 0) {
        heap_.pop();
        continue;
      }
      at = top.at;
      return true;
    }
    return false;
  }

  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  std::unordered_set<std::uint64_t> pending_;
  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
};

}  // namespace affinity::legacy
