/**
 * @file
 * SmallFn — a move-only callable with small-buffer optimization.
 *
 * The simulator's hot path creates and destroys one sim::Event per
 * scheduled callback; with std::function payloads every capture larger
 * than libstdc++'s 16-byte SBO window costs a heap allocation both at
 * construction and again when the event moves through the heap's swap
 * chain. SmallFn widens the inline window to kSmallFnCapacity bytes —
 * enough for every closure the engine schedules ([this, die, col,
 * shared_ptr<op>] and friends) — so the steady-state event loop
 * allocates nothing (asserted by the event-queue alloc-count test).
 *
 * Semantics relative to std::function:
 *  - move-only (events are moved, never copied; this also admits
 *    move-only captures like std::unique_ptr);
 *  - captures larger than the inline window or over-aligned fall back
 *    to the heap transparently;
 *  - invoking an empty SmallFn is a fatal error in debug builds and
 *    undefined otherwise (callers gate on operator bool, as the event
 *    loop does for Event::work).
 */

#ifndef FCOS_UTIL_SMALL_FN_H
#define FCOS_UTIL_SMALL_FN_H

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace fcos {

/** Inline capture window. 56 bytes of storage + the 8-byte dispatch
 *  pointer keep sizeof(SmallFn) at one cache line. */
inline constexpr std::size_t kSmallFnCapacity = 56;

template <typename Sig> class SmallFn;

template <typename R, typename... Args> class SmallFn<R(Args...)>
{
  public:
    SmallFn() = default;
    SmallFn(std::nullptr_t) {}

    template <typename F, typename D = std::decay_t<F>,
              typename = std::enable_if_t<
                  !std::is_same_v<D, SmallFn> &&
                  std::is_invocable_r_v<R, D &, Args...>>>
    SmallFn(F &&f)
    {
        construct<D>(std::forward<F>(f));
    }

    SmallFn(SmallFn &&o) noexcept { moveFrom(o); }

    SmallFn &operator=(SmallFn &&o) noexcept
    {
        if (this != &o) {
            reset();
            moveFrom(o);
        }
        return *this;
    }

    template <typename F, typename D = std::decay_t<F>,
              typename = std::enable_if_t<
                  !std::is_same_v<D, SmallFn> &&
                  std::is_invocable_r_v<R, D &, Args...>>>
    SmallFn &operator=(F &&f)
    {
        reset();
        construct<D>(std::forward<F>(f));
        return *this;
    }

    SmallFn &operator=(std::nullptr_t)
    {
        reset();
        return *this;
    }

    SmallFn(const SmallFn &) = delete;
    SmallFn &operator=(const SmallFn &) = delete;

    ~SmallFn() { reset(); }

    explicit operator bool() const { return ops_ != nullptr; }
    friend bool operator==(const SmallFn &f, std::nullptr_t)
    {
        return !f;
    }
    friend bool operator!=(const SmallFn &f, std::nullptr_t)
    {
        return static_cast<bool>(f);
    }

    /** Invoke. The target may mutate its captures (mutable lambdas),
     *  matching std::function's const-invocation semantics. */
    R operator()(Args... args) const
    {
        return ops_->invoke(storage(), std::forward<Args>(args)...);
    }

    /** True when the current target lives in the inline buffer (no
     *  heap allocation); empty SmallFns report true. */
    bool isInline() const { return !ops_ || ops_->inlineStored; }

  private:
    struct Ops
    {
        R (*invoke)(void *, Args &&...);
        /** Move-construct into @p dst from @p src, then destroy the
         *  source — the single primitive an event move needs. */
        void (*relocate)(void *dst, void *src) noexcept;
        void (*destroy)(void *) noexcept;
        bool inlineStored;
    };

    template <typename D> static constexpr bool fitsInline()
    {
        return sizeof(D) <= kSmallFnCapacity &&
               alignof(D) <= alignof(std::max_align_t) &&
               std::is_nothrow_move_constructible_v<D>;
    }

    template <typename D> struct InlineOps
    {
        static R invoke(void *p, Args &&...args)
        {
            return (*static_cast<D *>(p))(std::forward<Args>(args)...);
        }
        static void relocate(void *dst, void *src) noexcept
        {
            ::new (dst) D(std::move(*static_cast<D *>(src)));
            static_cast<D *>(src)->~D();
        }
        static void destroy(void *p) noexcept
        {
            static_cast<D *>(p)->~D();
        }
        static constexpr Ops ops{&invoke, &relocate, &destroy, true};
    };

    template <typename D> struct HeapOps
    {
        static D *&slot(void *p) { return *static_cast<D **>(p); }
        static R invoke(void *p, Args &&...args)
        {
            return (*slot(p))(std::forward<Args>(args)...);
        }
        static void relocate(void *dst, void *src) noexcept
        {
            // Pointer hand-off: the heap target itself never moves.
            ::new (dst) (D *)(slot(src));
        }
        static void destroy(void *p) noexcept { delete slot(p); }
        static constexpr Ops ops{&invoke, &relocate, &destroy, false};
    };

    template <typename D, typename F> void construct(F &&f)
    {
        if constexpr (fitsInline<D>()) {
            ::new (storage()) D(std::forward<F>(f));
            ops_ = &InlineOps<D>::ops;
        } else {
            ::new (storage()) (D *)(new D(std::forward<F>(f)));
            ops_ = &HeapOps<D>::ops;
        }
    }

    void moveFrom(SmallFn &o) noexcept
    {
        ops_ = o.ops_;
        if (ops_) {
            ops_->relocate(storage(), o.storage());
            o.ops_ = nullptr;
        }
    }

    void reset()
    {
        if (ops_) {
            ops_->destroy(storage());
            ops_ = nullptr;
        }
    }

    void *storage() const { return const_cast<std::byte *>(buf_); }

    const Ops *ops_ = nullptr;
    alignas(std::max_align_t) std::byte buf_[kSmallFnCapacity];
};

} // namespace fcos

#endif // FCOS_UTIL_SMALL_FN_H
