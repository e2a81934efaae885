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

/** One twisted state word; the conditional xor by kMatrixA is a mask,
 *  so the twist loops carry no branch and vectorize. */
inline std::uint64_t
twistWord(std::uint64_t cur, std::uint64_t next, std::uint64_t far)
{
    const std::uint64_t y = (cur & kUpperMask) | (next & kLowerMask);
    return far ^ (y >> 1) ^ ((0 - (y & 1)) & kMatrixA);
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

/** Seed words 0 .. n - 1 of an engine seeded with @p seed. */
void
seedWords(std::uint64_t seed, std::uint64_t *s, std::size_t n)
{
    s[0] = seed;
    for (std::size_t i = 1; i < n; ++i)
        s[i] = kInitMultiplier * (s[i - 1] ^ (s[i - 1] >> 62)) + i;
}

} // namespace

Mt19937_64::Mt19937_64(result_type seed)
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
        out[k] = temper(twistWord(s[k], s[k + 1], s[k + kM]));
}

void
Mt19937_64::twist()
{
    std::uint64_t *x = state_.data();
    for (std::size_t k = 0; k < kN - kM; ++k)
        x[k] = twistWord(x[k], x[k + 1], x[k + kM]);
    for (std::size_t k = kN - kM; k < kN - 1; ++k)
        x[k] = twistWord(x[k], x[k + 1], x[k + kM - kN]);
    x[kN - 1] = twistWord(x[kN - 1], x[0], x[kM - 1]);
    next_ = 0;
}

void
Mt19937_64::fill(std::uint64_t *out, std::size_t n)
{
    while (n > 0) {
        if (next_ >= kN)
            twist();
        const std::size_t k = std::min(n, kN - next_);
        const std::uint64_t *s = state_.data() + next_;
        for (std::size_t i = 0; i < k; ++i)
            out[i] = temper(s[i]);
        next_ += k;
        out += k;
        n -= k;
    }
}

void
Mt19937_64::lessThanBits(std::uint64_t *out, std::size_t nbits,
                         std::uint64_t threshold)
{
    for (; nbits > 0; ++out) {
        // Draws for one word, padded past nbits with outputs that never
        // pass (threshold <= max()), so the pack always runs 64 lanes
        // with constant shifts.
        const std::size_t m = std::min<std::size_t>(nbits, 64);
        std::uint64_t draws[64];
        fill(draws, m);
        std::fill(draws + m, draws + 64, max());
        // Four accumulators keep the or-chain off the critical path.
        std::uint64_t w0 = 0, w1 = 0, w2 = 0, w3 = 0;
        for (unsigned t = 0; t < 64; t += 4) {
            w0 |= std::uint64_t{draws[t] < threshold} << t;
            w1 |= std::uint64_t{draws[t + 1] < threshold} << (t + 1);
            w2 |= std::uint64_t{draws[t + 2] < threshold} << (t + 2);
            w3 |= std::uint64_t{draws[t + 3] < threshold} << (t + 3);
        }
        *out = w0 | w1 | w2 | w3;
        nbits -= m;
    }
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
