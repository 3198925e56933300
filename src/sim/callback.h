// Small-buffer-optimized callback storage for the event kernel and the
// per-packet delivery seams.
//
// The event loop's dominant churn is scheduling closures that capture one or
// two pointers (every link transmission, every RTO restart). std::function
// heap-allocates once captures outgrow its tiny internal buffer (16 bytes on
// libstdc++) and requires copyability; BasicCallback instead keeps up to
// kInlineBytes of capture state inline, accepts move-only callables, and
// only falls back to the heap for oversized ones. The signature is a
// template parameter so the same storage serves the event queue
// (Callback = void()) and the per-packet link delivery hook
// (Link::DeliverFn = void(const Packet&)) without a type-erasure allocation
// on either path.
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace mps {

// InlineBytes is the inline capture capacity. The default (48) is sized so a
// captured std::function (32 bytes on libstdc++) plus a pointer still fits;
// the event kernel's Callback alias narrows it to 24 because its closures
// capture at most a pointer and two 8-byte scalars, and the queue stores one
// callback per pending event — at 100k flows the slot array is a measurable
// share of resident memory. The buffer is pointer-aligned: no closure the
// stack schedules needs more, and 16-byte alignment would pad the 48-byte
// variant to 64 bytes. A Callback is 32 bytes, half a queue slot.
//
// Moves are the queue's hot path (schedule moves a closure in, pop moves it
// out). A trivially copyable inline closure — the common [this] or
// {this, scalar} capture — and the heap fallback's owning pointer are
// relocated with a fixed-size memcpy and have no destroy step; only
// closures with non-trivial captures pay an indirect relocate/destroy call.
template <typename Signature, std::size_t InlineBytes = 48>
class BasicCallback;

template <typename R, typename... Args, std::size_t InlineBytes>
class BasicCallback<R(Args...), InlineBytes> {
 public:
  static constexpr std::size_t kInlineBytes = InlineBytes;
  static constexpr std::size_t kAlign = alignof(void*);

  BasicCallback() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, BasicCallback> &&
                std::is_invocable_r_v<R, std::remove_cvref_t<F>&, Args...>>>
  BasicCallback(F&& f) {  // NOLINT(google-explicit-constructor): drop-in for std::function
    using Fn = std::remove_cvref_t<F>;
    if constexpr (fits_inline<Fn>()) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = &kInlineOps<Fn>;
    } else {
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = &kHeapOps<Fn>;
    }
  }

  BasicCallback(BasicCallback&& other) noexcept { move_from(other); }

  BasicCallback& operator=(BasicCallback&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  BasicCallback(const BasicCallback&) = delete;
  BasicCallback& operator=(const BasicCallback&) = delete;

  ~BasicCallback() { reset(); }

  R operator()(Args... args) {
    return ops_->invoke(buf_, std::forward<Args>(args)...);
  }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  void reset() noexcept {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    R (*invoke)(void* storage, Args... args);
    // Move-constructs dst from src and destroys src's residue; null when a
    // memcpy of the buffer does both.
    void (*relocate)(void* dst, void* src) noexcept;
    // Null when the stored object is trivially destructible.
    void (*destroy)(void* storage) noexcept;
  };

  template <typename Fn>
  static constexpr bool fits_inline() {
    return sizeof(Fn) <= kInlineBytes && alignof(Fn) <= kAlign &&
           std::is_nothrow_move_constructible_v<Fn>;
  }
  template <typename Fn>
  static constexpr bool kTrivial = std::is_trivially_copyable_v<Fn>;

  template <typename Fn>
  static constexpr Ops kInlineOps = {
      [](void* s, Args... args) -> R {
        return (*std::launder(reinterpret_cast<Fn*>(s)))(std::forward<Args>(args)...);
      },
      kTrivial<Fn> ? nullptr
                   : +[](void* dst, void* src) noexcept {
                       Fn* from = std::launder(reinterpret_cast<Fn*>(src));
                       ::new (dst) Fn(std::move(*from));
                       from->~Fn();
                     },
      kTrivial<Fn> ? nullptr
                   : +[](void* s) noexcept { std::launder(reinterpret_cast<Fn*>(s))->~Fn(); },
  };

  template <typename Fn>
  static constexpr Ops kHeapOps = {
      [](void* s, Args... args) -> R {
        return (**std::launder(reinterpret_cast<Fn**>(s)))(std::forward<Args>(args)...);
      },
      nullptr,  // the owning pointer relocates by memcpy
      [](void* s) noexcept { delete *std::launder(reinterpret_cast<Fn**>(s)); },
  };

  void move_from(BasicCallback& other) noexcept {
    if (other.ops_ != nullptr) {
      if (other.ops_->relocate != nullptr) {
        other.ops_->relocate(buf_, other.buf_);
      } else {
        std::memcpy(buf_, other.buf_, kInlineBytes);
      }
      ops_ = other.ops_;
      other.ops_ = nullptr;
    }
  }

  alignas(kAlign) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

// The event kernel's closure type; kept as the short name because it is by
// far the most common instantiation. 24 inline bytes cover every closure the
// kernel schedules today ([this] timers, {this, slot} link deliveries, the
// engine's [this, at, end] tick); anything bigger spills to the heap rather
// than failing, so the bound is a size/perf knob, not a correctness limit.
using Callback = BasicCallback<void(), 24>;
static_assert(sizeof(Callback) == 32, "Callback must stay half a cache line");

}  // namespace mps
