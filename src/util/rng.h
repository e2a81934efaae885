/**
 * @file
 * Deterministic random number generation for simulation and Monte Carlo.
 *
 * All randomness in the library flows through Rng so that every
 * experiment is reproducible from a single seed. Child generators can be
 * forked deterministically per component (per chip, per block, ...).
 *
 * The draw stream is part of the reproducibility contract: goldens and
 * digests seed pages through it. Rng's engine is an in-repo MT19937-64
 * that yields exactly the sequence of std::mt19937_64 (the C++ standard
 * fixes it), and scalar draws go through the standard <random>
 * distributions. What the in-repo engine adds is block-at-a-time
 * generation: fillU64() and fillBernoulli() produce the same words and
 * bits as the matching run of nextU64() / bernoulli() calls, and leave
 * the engine in the same state, but twist and temper the 312-word state
 * in tight branchless loops instead of one call per draw. A Bernoulli
 * bit is an integer compare of the draw against bernoulliThreshold(p),
 * never a conversion to double.
 *
 * Those block loops are the ISA-dispatched kernels of util/isa.h: the
 * twist of the state, the temper-and-copy of fill(), and the whole
 * draw/compare/pack loop of lessThanBits(). Each is written once over
 * lane vectors and compiled for the baseline target (one word per
 * step), x86-64-v3 (AVX2, 4 words) and x86-64-v4 (AVX-512, 8 words);
 * an engine runs the highest level the host supports unless a level
 * is named at construction. They are integer code, so every level
 * yields the std::mt19937_64 sequence bit for bit
 * (tests/util/isa_dispatch_test.cc runs each level against it).
 *
 * Mt19937_64::firstOutputs() is the prefix path for small pages: the
 * first n <= kStateWords - kShiftSize = 156 outputs of a freshly seeded
 * engine depend only on seed words 0 .. kShiftSize + n - 1, so a
 * 256-bit page seeds 160 words and twists 4 instead of seeding and
 * twisting all 312. It and the seeding loop stay serial baseline code:
 * each seed word depends on the one before.
 */

#ifndef FCOS_UTIL_RNG_H
#define FCOS_UTIL_RNG_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <random>

#include "util/isa.h"

namespace fcos {

namespace detail {

/** MT19937-64 tempering of one word, or of each lane of an
 *  isa::Lanes vector. */
template <typename T>
FCOS_KERNEL_BODY T
mtTemper(T y)
{
    y ^= (y >> 29) & 0x5555555555555555ULL;
    y ^= (y << 17) & 0x71D67FFFEDA60000ULL;
    y ^= (y << 37) & 0xFFF7EEE000000000ULL;
    return y ^ (y >> 43);
}

/** Block kernels at one ISA level (defined in rng.cc). */
struct MtKernels;

} // namespace detail

/**
 * MT19937-64, the generator the C++ standard names std::mt19937_64:
 * same seeding, twist and tempering, so the same outputs (the
 * standard's check value, the 10000th output of a default-seeded
 * engine, is 9981545732273789042). It is a UniformRandomBitGenerator,
 * so <random> distributions draw from it exactly as from the standard
 * engine; the bulk entry points below are what it adds.
 */
class Mt19937_64
{
  public:
    using result_type = std::uint64_t;

    static constexpr std::size_t kStateWords = 312;
    /** The twist's far-word offset (the standard's shift_size m). */
    static constexpr std::size_t kShiftSize = 156;
    /** Outputs firstOutputs() can produce: the first twist reads only
     *  untwisted words up to here. */
    static constexpr std::size_t kMaxFirstOutputs = kStateWords - kShiftSize;
    static constexpr result_type kDefaultSeed = 5489u;

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }

    /** Block kernels at activeIsaLevel(). */
    explicit Mt19937_64(result_type seed = kDefaultSeed);

    /** Block kernels at @p level, which must be supported: the
     *  dispatch test and bench_micro_engine's *AtLevel rows compare
     *  levels with it. The outputs are the same. */
    Mt19937_64(result_type seed, IsaLevel level);

    result_type operator()()
    {
        if (next_ >= kStateWords)
            twist();
        return detail::mtTemper(state_[next_++]);
    }

    /** The next @p n outputs, in order, into @p out. */
    void fill(std::uint64_t *out, std::size_t n);

    /**
     * The first @p n <= kMaxFirstOutputs outputs of Mt19937_64(@p seed),
     * into @p out. Output k < kMaxFirstOutputs is
     * temper(twist(s[k], s[k + 1], s[k + kShiftSize])) of the seeded
     * state s, so only the seed words those read are computed.
     */
    static void firstOutputs(result_type seed, std::uint64_t *out,
                             std::size_t n);

    /**
     * Draw @p nbits outputs and pack `output < threshold` into @p out,
     * bit i of the run at bit (i % 64) of word i / 64. Bits past
     * @p nbits in the last word are zero.
     */
    void lessThanBits(std::uint64_t *out, std::size_t nbits,
                      std::uint64_t threshold);

  private:
    /** Regenerate all kStateWords state words and rewind next_. */
    void twist();

    std::array<std::uint64_t, kStateWords> state_; ///< set by the ctor
    std::size_t next_ = kStateWords;              ///< next unread word
    /// The level's kernels, set by the ctor. Per engine only so tests
    /// and benches can pin a level; one indirect call per block.
    const detail::MtKernels *kernels_;
};

class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 1) : engine_(seed) {}

    /** Uniform 64-bit word. */
    std::uint64_t nextU64() { return engine_(); }

    /** Same as @p n nextU64() calls, stored in order into @p out. */
    void fillU64(std::uint64_t *out, std::size_t n) { engine_.fill(out, n); }

    /** Uniform integer in [0, bound). @p bound must be > 0. */
    std::uint64_t nextBounded(std::uint64_t bound)
    {
        return std::uniform_int_distribution<std::uint64_t>(
            0, bound - 1)(engine_);
    }

    /** Uniform double in [0, 1). */
    double nextDouble()
    {
        return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
    }

    /** Bernoulli trial. */
    bool bernoulli(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return nextDouble() < p;
    }

    /**
     * Same draws and outcomes as @p nbits bernoulli(@p p) calls, packed
     * bit i at bit (i % 64) of word i / 64 of @p out; bits past @p nbits
     * in the last word are zero.
     */
    void fillBernoulli(std::uint64_t *out, std::size_t nbits, double p);

    /**
     * The number of engine outputs u for which bernoulli(p) succeeds,
     * for p < 1: bernoulli(p) == (u < bernoulliThreshold(p)) when
     * 0 < p < 1, and a NaN p gives 0 (no draw succeeds, as in
     * bernoulli()).
     */
    static std::uint64_t bernoulliThreshold(double p);

    /** Normal sample. */
    double gaussian(double mean, double sigma)
    {
        return std::normal_distribution<double>(mean, sigma)(engine_);
    }

    /** Lognormal sample (parameters of the underlying normal). */
    double lognormal(double mu, double sigma)
    {
        return std::lognormal_distribution<double>(mu, sigma)(engine_);
    }

    /**
     * Poisson sample. Used to draw per-wordline raw bit-error *counts*
     * from an analytic error rate without materializing individual
     * cells.
     */
    std::uint64_t poisson(double mean)
    {
        if (mean <= 0.0)
            return 0;
        return std::poisson_distribution<std::uint64_t>(mean)(engine_);
    }

    /** Binomial sample: number of successes among n Bernoulli(p) trials. */
    std::uint64_t binomial(std::uint64_t n, double p)
    {
        if (n == 0 || p <= 0.0)
            return 0;
        if (p >= 1.0)
            return n;
        return std::binomial_distribution<std::uint64_t>(
            static_cast<long long>(n), p)(engine_);
    }

    /**
     * Splitmix64 mixing of (seed, stream): the scalar seed a fork()ed
     * child is constructed from. Exposed so descriptors that carry a
     * single seed word (nand::PageImage) can reproduce the same
     * decorrelated per-stream sequences.
     */
    static std::uint64_t mix(std::uint64_t seed, std::uint64_t stream_id)
    {
        std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream_id + 1);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
        return z ^ (z >> 31);
    }

    /**
     * Deterministically derive a child generator. Mixes the stream id via
     * splitmix64 so children with adjacent ids are decorrelated.
     */
    Rng fork(std::uint64_t stream_id) const
    {
        return Rng(mix(seed_mix_, stream_id));
    }

    /** Remember the construction seed for fork() mixing. */
    static Rng seeded(std::uint64_t seed)
    {
        Rng r(seed);
        r.seed_mix_ = seed;
        return r;
    }

  private:
    Mt19937_64 engine_;
    std::uint64_t seed_mix_ = 0x6A09E667F3BCC908ULL;
};

} // namespace fcos

#endif // FCOS_UTIL_RNG_H
