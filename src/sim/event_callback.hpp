// event_callback.hpp — small-buffer-optimized event callback.
//
// The simulator's previous hot path paid one heap allocation per scheduled
// event (std::function's type erasure spills even modest lambda captures).
// EventCallback stores the capture inline in a fixed 48-byte buffer — large
// enough for every callback the protocol simulation schedules (a `this`
// pointer plus a handful of scalars) and for a std::function<void()> — and
// type-erases invoke/relocate/destroy through a single static ops table per
// callable type. Oversized captures fall back to heap storage recycled
// through per-thread size-bucketed free lists, so even the slow path
// allocates from the system at most once per bucket high-water mark.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <type_traits>
#include <utility>

namespace affinity {

namespace cb_detail {

// Per-thread free lists of recycled heap blocks for oversized captures,
// bucketed by power-of-two size from 64 B to 4 KiB (larger blocks go
// straight to the system allocator). Thread-local keeps the pool lock-free:
// a Simulator is single-threaded, and SweepRunner gives each worker thread
// its own simulators.
inline constexpr std::size_t kMinBlock = 64;
inline constexpr std::size_t kMaxBlock = 4096;
inline constexpr std::size_t kBuckets = 7;  // 64,128,256,512,1024,2048,4096

struct FreeBlock {
  FreeBlock* next;
};

struct Pool {
  FreeBlock* buckets[kBuckets] = {};
  ~Pool() {
    for (FreeBlock* head : buckets) {
      while (head != nullptr) {
        FreeBlock* next = head->next;
        ::operator delete(head);
        head = next;
      }
    }
  }
};

inline Pool& pool() noexcept {
  thread_local Pool p;
  return p;
}

constexpr int bucketOf(std::size_t bytes) noexcept {
  std::size_t b = kMinBlock;
  for (int i = 0; i < static_cast<int>(kBuckets); ++i, b <<= 1)
    if (bytes <= b) return i;
  return -1;  // oversize: system allocator
}

inline void* poolAlloc(std::size_t bytes) {
  const int bucket = bucketOf(bytes);
  if (bucket < 0) return ::operator new(bytes);
  Pool& p = pool();
  if (FreeBlock* head = p.buckets[bucket]) {
    p.buckets[bucket] = head->next;
    return head;
  }
  return ::operator new(kMinBlock << bucket);
}

inline void poolFree(void* ptr, std::size_t bytes) noexcept {
  const int bucket = bucketOf(bytes);
  if (bucket < 0) {
    ::operator delete(ptr);
    return;
  }
  auto* block = static_cast<FreeBlock*>(ptr);
  Pool& p = pool();
  block->next = p.buckets[bucket];
  p.buckets[bucket] = block;
}

}  // namespace cb_detail

/// Move-only type-erased `void()` callable with inline small-buffer storage.
class EventCallback {
 public:
  /// Inline capture capacity. Sized so the whole object is one cache line.
  static constexpr std::size_t kInlineSize = 48;

  EventCallback() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventCallback> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  EventCallback(F&& f) {  // NOLINT(google-explicit-constructor): callable sink
    construct(std::forward<F>(f));
  }

  /// Replaces the held callable with `f`, constructed in place. If that
  /// construction throws, *this is left empty.
  template <typename F>
  void emplace(F&& f) {
    reset();
    construct(std::forward<F>(f));
  }

  EventCallback(EventCallback&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      stealFrom(other);
    }
  }

  EventCallback& operator=(EventCallback&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        stealFrom(other);
      }
    }
    return *this;
  }

  EventCallback(const EventCallback&) = delete;
  EventCallback& operator=(const EventCallback&) = delete;

  ~EventCallback() { reset(); }

  /// Destroys the held callable (releasing pooled storage), leaving empty.
  void reset() noexcept {
    if (ops_ != nullptr) {
      if (!ops_->trivial_destroy) ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  [[nodiscard]] explicit operator bool() const noexcept { return ops_ != nullptr; }

  void operator()() { ops_->invoke(buf_); }

  /// True when F's capture is stored inline (no allocation). For tests.
  template <typename F>
  [[nodiscard]] static constexpr bool fitsInline() noexcept {
    using Fn = std::decay_t<F>;
    return sizeof(Fn) <= kInlineSize && alignof(Fn) <= alignof(std::max_align_t);
  }

 private:
  struct Ops {
    void (*invoke)(unsigned char* buf);
    // Move-constructs into `to` and destroys the source representation.
    void (*relocate)(unsigned char* from, unsigned char* to) noexcept;
    void (*destroy)(unsigned char* buf) noexcept;
    // Fast-path flags, checked with a (well-predicted) branch so the common
    // trivially-copyable captures skip the indirect relocate/destroy calls
    // entirely. The simulator moves every callback out of its slot when the
    // event is popped, so this is hot.
    bool trivial_relocate;  // relocate == memcpy of the inline buffer
    bool trivial_destroy;   // destroy is a no-op
  };

  // Constructs `f` into an empty *this; ops_ is set only once it succeeded.
  template <typename F>
  void construct(F&& f) {
    using Fn = std::decay_t<F>;
    static_assert(std::is_move_constructible_v<Fn>,
                  "event callbacks must be move-constructible");
    if constexpr (fitsInline<Fn>()) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = &inlineOps<Fn>;
    } else {
      void* mem = cb_detail::poolAlloc(sizeof(Fn));
      ::new (mem) Fn(std::forward<F>(f));
      *reinterpret_cast<void**>(buf_) = mem;
      ops_ = &heapOps<Fn>;
    }
  }

  // Relocates `other`'s callable into *this (ops_ already copied).
  void stealFrom(EventCallback& other) noexcept {
    if (ops_->trivial_relocate) {
      __builtin_memcpy(buf_, other.buf_, kInlineSize);
    } else {
      ops_->relocate(other.buf_, buf_);
    }
    other.ops_ = nullptr;
  }

  template <typename Fn>
  static constexpr Ops inlineOps = {
      [](unsigned char* buf) { (*std::launder(reinterpret_cast<Fn*>(buf)))(); },
      [](unsigned char* from, unsigned char* to) noexcept {
        Fn* src = std::launder(reinterpret_cast<Fn*>(from));
        ::new (static_cast<void*>(to)) Fn(std::move(*src));
        src->~Fn();
      },
      [](unsigned char* buf) noexcept { std::launder(reinterpret_cast<Fn*>(buf))->~Fn(); },
      std::is_trivially_copyable_v<Fn>,
      std::is_trivially_destructible_v<Fn>,
  };

  template <typename Fn>
  static constexpr Ops heapOps = {
      [](unsigned char* buf) { (*static_cast<Fn*>(*reinterpret_cast<void**>(buf)))(); },
      [](unsigned char* from, unsigned char* to) noexcept {
        *reinterpret_cast<void**>(to) = *reinterpret_cast<void**>(from);  // steal
      },
      [](unsigned char* buf) noexcept {
        void* mem = *reinterpret_cast<void**>(buf);
        static_cast<Fn*>(mem)->~Fn();
        cb_detail::poolFree(mem, sizeof(Fn));
      },
      true,  // the owning pointer itself is memcpy-safe to steal
      false,
  };

  const Ops* ops_ = nullptr;
  alignas(std::max_align_t) unsigned char buf_[kInlineSize];
};

static_assert(sizeof(EventCallback) == 64,
              "EventCallback should occupy exactly one cache line");
static_assert(EventCallback::kInlineSize >= sizeof(void*) &&
                  EventCallback::kInlineSize % alignof(std::max_align_t) == 0,
              "inline buffer must hold a heap pointer and keep max alignment");

}  // namespace affinity
