#include "util/rng.h"

#include <algorithm>
#include <limits>

#include "util/log.h"

namespace fcos {

namespace {

// MT19937-64 parameters ([rand.predef] mt19937_64).
constexpr std::size_t kN = Mt19937_64::kStateWords;
constexpr std::size_t kM = Mt19937_64::kShiftSize;
constexpr std::uint64_t kMatrixA = 0xB5026F5AA96619E9ULL;
constexpr std::uint64_t kUpperMask = ~0ULL << 31;
constexpr std::uint64_t kLowerMask = ~kUpperMask;
constexpr std::uint64_t kInitMultiplier = 6364136223846793005ULL;

/** One twisted state word (or L lanes of them); the conditional xor by
 *  kMatrixA is a mask, so the twist carries no branch. */
template <typename T>
FCOS_KERNEL_BODY T
twistWord(T cur, T next, T far)
{
    const T y = (cur & kUpperMask) | (next & kLowerMask);
    return far ^ (y >> 1) ^ ((0 - (y & 1)) & kMatrixA);
}

// ---------------------------------------------------------------------
// Block kernels, written once over L-lane vectors (util/isa.h) and
// instantiated per ISA level below. A state block is kN words; `next`
// is the engine's next unread word, kN meaning "twist first".
// ---------------------------------------------------------------------

/** Twist x[0, n), where x[k] reads x[k + 1] and far[k]. */
template <unsigned L>
FCOS_KERNEL_BODY void
twistRange(std::uint64_t *x, std::size_t n, const std::uint64_t *far)
{
    using V = isa::Lanes<L>;
    const std::size_t whole = n - n % L;
    for (std::size_t k = 0; k < whole; k += L)
        V::store(x + k, twistWord(V::load(x + k), V::load(x + k + 1),
                                  V::load(far + k)));
    for (std::size_t k = whole; k < n; ++k)
        x[k] = twistWord(x[k], x[k + 1], far[k]);
}

template <unsigned L>
FCOS_KERNEL_BODY void
twistBody(std::uint64_t *x)
{
    // Word k reads the untwisted x[k + 1] and x[k + kM], or, from
    // k = kN - kM on, the already twisted x[k + kM - kN]. No lane reads
    // a word that another lane of the same step writes, so each range
    // vectorizes as it stands.
    twistRange<L>(x, kN - kM, x + kM);
    twistRange<L>(x + (kN - kM), kM - 1, x);
    x[kN - 1] = twistWord(x[kN - 1], x[0], x[kM - 1]);
}

template <unsigned L>
FCOS_KERNEL_BODY std::size_t
fillBody(std::uint64_t *state, std::size_t next, std::uint64_t *out,
         std::size_t n)
{
    using V = isa::Lanes<L>;
    while (n > 0) {
        if (next >= kN) {
            twistBody<L>(state);
            next = 0;
        }
        const std::size_t k = std::min(n, kN - next);
        const std::uint64_t *s = state + next;
        const std::size_t whole = k - k % L;
        for (std::size_t i = 0; i < whole; i += L)
            V::store(out + i, detail::mtTemper(V::load(s + i)));
        for (std::size_t i = whole; i < k; ++i)
            out[i] = detail::mtTemper(s[i]);
        next += k;
        out += k;
        n -= k;
    }
    return next;
}

/** Bit t of the result is draws[t] < threshold, for t < 64. */
template <unsigned L>
FCOS_KERNEL_BODY std::uint64_t
packLess(const std::uint64_t *draws, std::uint64_t threshold)
{
    using V = isa::Lanes<L>;
    const typename V::U t = V::splat(threshold);
    // Lane i gathers draws i, i + L, i + 2L, ... at bits 0, L, 2L, ...;
    // four accumulators keep the or-chain off the critical path.
    typename V::U acc[4] = {V::splat(0), V::splat(0), V::splat(0),
                            V::splat(0)};
    // Unrolled, every shift is by a constant.
#pragma GCC unroll 16
    for (unsigned g = 0; g < 64; g += 4 * L) {
#pragma GCC unroll 4
        for (unsigned j = 0; j < 4; ++j) {
            const unsigned at = g + j * L;
            acc[j] |= (V::less(V::load(draws + at), t) & 1) << at;
        }
    }
    acc[0] |= acc[1] | acc[2] | acc[3];
    std::uint64_t w = 0;
    for (unsigned i = 0; i < L; ++i)
        w |= V::lane(acc[0], i) << i;
    return w;
}

template <unsigned L>
FCOS_KERNEL_BODY std::size_t
lessThanBitsBody(std::uint64_t *state, std::size_t next,
                 std::uint64_t *out, std::size_t nbits,
                 std::uint64_t threshold)
{
    for (; nbits > 0; ++out) {
        // Draws for one word, padded past nbits with outputs that never
        // pass (threshold <= max()), so the pack always runs 64 lanes.
        const std::size_t m = std::min<std::size_t>(nbits, 64);
        std::uint64_t draws[64];
        next = fillBody<L>(state, next, draws, m);
        std::fill(draws + m, draws + 64, ~0ULL);
        *out = packLess<L>(draws, threshold);
        nbits -= m;
    }
    return next;
}

/** A generator whose only output is @p u: lets the library's own
 *  distribution map a given engine output to its double. */
struct OneShot
{
    using result_type = std::uint64_t;
    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }
    result_type operator()()
    {
        ++calls;
        return u;
    }
    std::uint64_t u;
    unsigned calls = 0;
};

} // namespace

namespace detail {

/** The block kernels at one ISA level. */
struct MtKernels
{
    void (*twist)(std::uint64_t *state);
    std::size_t (*fill)(std::uint64_t *state, std::size_t next,
                        std::uint64_t *out, std::size_t n);
    std::size_t (*lessThanBits)(std::uint64_t *state, std::size_t next,
                                std::uint64_t *out, std::size_t nbits,
                                std::uint64_t threshold);
};

} // namespace detail

namespace {

// The bodies compiled for one level: TARGET selects its instructions,
// LANES its vector width in words.
#define FCOS_MT_KERNELS(NAME, TARGET, LANES)                               \
    TARGET void NAME##Twist(std::uint64_t *x) { twistBody<LANES>(x); }     \
    TARGET std::size_t NAME##Fill(std::uint64_t *state, std::size_t next,  \
                                  std::uint64_t *out, std::size_t n)       \
    {                                                                      \
        return fillBody<LANES>(state, next, out, n);                       \
    }                                                                      \
    TARGET std::size_t NAME##LessThanBits(                                 \
        std::uint64_t *state, std::size_t next, std::uint64_t *out,        \
        std::size_t nbits, std::uint64_t threshold)                        \
    {                                                                      \
        return lessThanBitsBody<LANES>(state, next, out, nbits,            \
                                       threshold);                         \
    }                                                                      \
    constexpr detail::MtKernels NAME{NAME##Twist, NAME##Fill,              \
                                     NAME##LessThanBits};

FCOS_MT_KERNELS(kBaselineKernels, , 1)
#if FCOS_ISA_DISPATCH
FCOS_MT_KERNELS(kV3Kernels, FCOS_TARGET_V3, 4)
FCOS_MT_KERNELS(kV4Kernels, FCOS_TARGET_V4, 8)
#endif
#undef FCOS_MT_KERNELS

const detail::MtKernels &
kernelsAt(IsaLevel level)
{
    fcos_assert(isaLevelSupported(level), "ISA level %s not supported here",
                isaLevelName(level));
    switch (level) {
#if FCOS_ISA_DISPATCH
    case IsaLevel::X86_64_V4:
        return kV4Kernels;
    case IsaLevel::X86_64_V3:
        return kV3Kernels;
#endif
    default:
        return kBaselineKernels;
    }
}

const detail::MtKernels &
activeKernels()
{
    static const detail::MtKernels &active = kernelsAt(activeIsaLevel());
    return active;
}

/** Seed words 0 .. n - 1 of an engine seeded with @p seed. */
void
seedWords(std::uint64_t seed, std::uint64_t *s, std::size_t n)
{
    s[0] = seed;
    for (std::size_t i = 1; i < n; ++i)
        s[i] = kInitMultiplier * (s[i - 1] ^ (s[i - 1] >> 62)) + i;
}

} // namespace

Mt19937_64::Mt19937_64(result_type seed) : kernels_(&activeKernels())
{
    seedWords(seed, state_.data(), kN);
}

Mt19937_64::Mt19937_64(result_type seed, IsaLevel level)
    : kernels_(&kernelsAt(level))
{
    seedWords(seed, state_.data(), kN);
}

void
Mt19937_64::firstOutputs(result_type seed, std::uint64_t *out,
                         std::size_t n)
{
    fcos_assert(n <= kMaxFirstOutputs,
                "firstOutputs covers %zu outputs, asked for %zu",
                kMaxFirstOutputs, n);
    if (n == 0)
        return;
    std::uint64_t s[kN];
    seedWords(seed, s, kM + n);
    for (std::size_t k = 0; k < n; ++k)
        out[k] = detail::mtTemper(twistWord(s[k], s[k + 1], s[k + kM]));
}

void
Mt19937_64::twist()
{
    kernels_->twist(state_.data());
    next_ = 0;
}

void
Mt19937_64::fill(std::uint64_t *out, std::size_t n)
{
    next_ = kernels_->fill(state_.data(), next_, out, n);
}

void
Mt19937_64::lessThanBits(std::uint64_t *out, std::size_t nbits,
                         std::uint64_t threshold)
{
    next_ = kernels_->lessThanBits(state_.data(), next_, out, nbits,
                                   threshold);
}

std::uint64_t
Rng::bernoulliThreshold(double p)
{
    // uniform_real_distribution<double> takes one draw from a 64-bit
    // engine and maps it monotonically (generate_canonical<double, 53>),
    // so {u : canonical(u) < p} is a prefix [0, T) of the outputs. Find
    // T by binary search over the library's own mapping, which keeps it
    // exact for whichever standard library builds this. The predicate
    // is `canonical(u) < p`, false for every u when p is NaN, so NaN
    // gives T = 0: every draw fails, as in bernoulli().
    auto below = [p](std::uint64_t u) {
        OneShot g{u};
        const bool r = std::uniform_real_distribution<double>(0.0, 1.0)(g) < p;
        fcos_assert(g.calls == 1, "uniform_real_distribution took %u draws",
                    g.calls);
        return r;
    };
    fcos_assert(!below(std::numeric_limits<std::uint64_t>::max()),
                "bernoulli threshold needs p < 1, got %.17g", p);
    std::uint64_t lo = 0, hi = std::numeric_limits<std::uint64_t>::max();
    while (lo < hi) {
        const std::uint64_t mid = lo + (hi - lo) / 2;
        if (below(mid))
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

void
Rng::fillBernoulli(std::uint64_t *out, std::size_t nbits, double p)
{
    const std::size_t words = (nbits + 63) / 64;
    // bernoulli() draws nothing outside (0, 1); a NaN p falls through
    // both tests there and draws, so it does here too.
    if (p <= 0.0 || p >= 1.0) {
        std::fill(out, out + words, p <= 0.0 ? 0ULL : ~0ULL);
        if (p >= 1.0 && (nbits & 63))
            out[words - 1] = (1ULL << (nbits & 63)) - 1;
        return;
    }
    engine_.lessThanBits(out, nbits, bernoulliThreshold(p));
}

} // namespace fcos
