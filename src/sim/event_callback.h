// Small-buffer-optimized move-only callable for simulator events.
//
// std::function heap-allocates once captures exceed its (typically 16-byte)
// inline buffer, and simulator callbacks routinely capture two or three
// pointers plus a small value — just over that line. EventCallback keeps a
// 48-byte inline buffer so the steady-state event loop performs zero
// allocations; oversized callables still work via a counted heap fallback
// (PerfCounters::callback_heap_allocs, perfbench's sim.callback_heap_allocs).
#ifndef SRC_SIM_EVENT_CALLBACK_H_
#define SRC_SIM_EVENT_CALLBACK_H_

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

#include "src/base/perf_counters.h"

namespace vsched {

class EventCallback {
 public:
  // Large enough for several captured pointers plus a value or two, which
  // covers the simulator's scheduling callbacks.
  static constexpr size_t kInlineSize = 48;

  EventCallback() = default;

  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, EventCallback> &&
                                        std::is_invocable_r_v<void, std::decay_t<F>&>>>
  EventCallback(F&& f) {  // NOLINT(google-explicit-constructor): mirrors std::function
    Construct(std::forward<F>(f));
  }

  // Destroys the current target (if any) and constructs `f` in place —
  // the zero-copy path EventQueue uses to build callbacks directly inside
  // pool nodes.
  template <typename F>
  void Emplace(F&& f) {
    Reset();
    Construct(std::forward<F>(f));
  }

  EventCallback(EventCallback&& other) noexcept { MoveFrom(other); }

  EventCallback& operator=(EventCallback&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }

  EventCallback(const EventCallback&) = delete;
  EventCallback& operator=(const EventCallback&) = delete;

  ~EventCallback() { Reset(); }

  explicit operator bool() const { return ops_ != nullptr; }

  void operator()() { ops_->invoke(storage_); }

 private:
  struct OpsTable {
    void (*invoke)(void* storage);
    // Move-constructs dst's storage from src's and destroys src's.
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void* storage);
  };

  template <typename Fn>
  static Fn* Inline(void* storage) {
    return std::launder(reinterpret_cast<Fn*>(storage));
  }
  template <typename Fn>
  static Fn* Heap(void* storage) {
    return *std::launder(reinterpret_cast<Fn**>(storage));
  }

  template <typename Fn>
  static const OpsTable& InlineOps() {
    static constexpr OpsTable kOps = {
        [](void* s) { (*Inline<Fn>(s))(); },
        [](void* dst, void* src) {
          Fn* f = Inline<Fn>(src);
          new (dst) Fn(std::move(*f));
          f->~Fn();
        },
        [](void* s) { Inline<Fn>(s)->~Fn(); },
    };
    return kOps;
  }

  template <typename Fn>
  static const OpsTable& HeapOps() {
    static constexpr OpsTable kOps = {
        [](void* s) { (*Heap<Fn>(s))(); },
        [](void* dst, void* src) {
          *reinterpret_cast<Fn**>(dst) = Heap<Fn>(src);
        },
        [](void* s) { delete Heap<Fn>(s); },
    };
    return kOps;
  }

  template <typename F>
  void Construct(F&& f) {
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineSize && alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      new (storage_) Fn(std::forward<F>(f));
      ops_ = &InlineOps<Fn>();
    } else {
      *reinterpret_cast<Fn**>(static_cast<void*>(storage_)) = new Fn(std::forward<F>(f));
      ++PerfCounters::Current()->callback_heap_allocs;
      ops_ = &HeapOps<Fn>();
    }
  }

  void MoveFrom(EventCallback& other) noexcept {
    if (other.ops_ != nullptr) {
      ops_ = other.ops_;
      ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  void Reset() {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineSize];
  const OpsTable* ops_ = nullptr;
};

}  // namespace vsched

#endif  // SRC_SIM_EVENT_CALLBACK_H_
