/**
 * @file
 * Run-time choice of the instruction-set level for the hot integer
 * kernels.
 *
 * The library is compiled for the compiler's default target, which on
 * x86-64 is the baseline ISA: SSE2 and no popcnt. A few kernels carry
 * most of the host time of page-heavy runs: the MT19937-64 twist,
 * temper and threshold pack (util/rng.cc) and popcountWords
 * (util/bitvector.cc). Each is written once as an always-inline body,
 * the MT19937-64 ones over the lane vectors below, then instantiated
 * with __attribute__((target(...))) for each level that pays (popcount
 * stops at v3; v4 runs the v3 build). The result digest (util/fnv.h) is
 * a plain loop with no levels. The levels:
 *
 *   - Baseline: the default target, one word at a time;
 *   - X86_64_V3: AVX2 with BMI1/2, FMA and POPCNT (the x86-64-v3
 *     features the kernels use), 4 lanes;
 *   - X86_64_V4: AVX-512 F/BW/CD/DQ/VL on top (x86-64-v4), 8 lanes.
 *
 * Callers go through a table resolved once, on first use, from
 * __builtin_cpu_supports, which checks both the CPU and the OS's
 * register-state support. The kernels are integer code on the same
 * inputs, so every level returns the same bits; the level changes only
 * speed. Where the compiler is not GCC/Clang or the target is not
 * x86-64 only the baseline is compiled.
 *
 * The dispatch is a plain function-pointer table on purpose. GCC's
 * target_clones/ifunc resolvers run during relocation, before
 * ThreadSanitizer's runtime initializes: with GCC 12 a target_clones
 * function crashes a -fsanitize=thread binary at start-up.
 */

#ifndef FCOS_UTIL_ISA_H
#define FCOS_UTIL_ISA_H

#include <cstdint>

namespace fcos {

enum class IsaLevel : std::uint8_t
{
    Baseline,
    X86_64_V3,
    X86_64_V4,
};

inline constexpr IsaLevel kIsaLevels[] = {
    IsaLevel::Baseline, IsaLevel::X86_64_V3, IsaLevel::X86_64_V4};

/** "baseline", "x86-64-v3" or "x86-64-v4". */
const char *isaLevelName(IsaLevel level);

/** This build carries kernels for @p level and the host runs them. */
bool isaLevelSupported(IsaLevel level);

/** The highest supported level: the one the dispatched kernels run at.
 *  Resolved once. */
IsaLevel activeIsaLevel();

} // namespace fcos

#if (defined(__GNUC__) || defined(__clang__)) && defined(__x86_64__)
#define FCOS_ISA_DISPATCH 1
// isaLevelSupported() checks these same features at run time.
#define FCOS_ISA_V3_FEATURES "avx2,bmi,bmi2,fma,popcnt"
#define FCOS_ISA_V4_FEATURES                                               \
    FCOS_ISA_V3_FEATURES ",avx512f,avx512bw,avx512cd,avx512dq,avx512vl"
#define FCOS_TARGET_V3 __attribute__((target(FCOS_ISA_V3_FEATURES)))
#define FCOS_TARGET_V4 __attribute__((target(FCOS_ISA_V4_FEATURES)))
#else
#define FCOS_ISA_DISPATCH 0
#endif

#if defined(__GNUC__) || defined(__clang__)
/** A kernel body: inlined into each per-level instantiation, so it is
 *  compiled for that level's target. */
#define FCOS_KERNEL_BODY inline __attribute__((always_inline))
#else
#define FCOS_KERNEL_BODY inline
#endif

namespace fcos::isa {

/**
 * Lane vectors for kernel bodies: U holds L unsigned 64-bit lanes.
 * L = 1 is a plain word (the baseline). The wider ones are GCC/Clang
 * vector extensions, whose operators work lane-wise and broadcast a
 * scalar operand; a level whose registers are narrower than the vector
 * splits it into several registers. splat() copies a word into every lane,
 * lane() reads one, less() is all-ones in the lanes where a < b
 * (unsigned) and zero elsewhere, load()/store() move L words at any
 * alignment.
 */
template <unsigned L> struct Lanes;

template <> struct Lanes<1>
{
    using U = std::uint64_t;
    static FCOS_KERNEL_BODY U splat(std::uint64_t x) { return x; }
    static FCOS_KERNEL_BODY std::uint64_t lane(U v, unsigned) { return v; }
    static FCOS_KERNEL_BODY U less(U a, U b) { return 0 - U{a < b}; }
    static FCOS_KERNEL_BODY U load(const std::uint64_t *p) { return *p; }
    static FCOS_KERNEL_BODY void store(std::uint64_t *p, U v) { *p = v; }
};

#if FCOS_ISA_DISPATCH
// GCC drops a vector_size that depends on a template parameter, so each
// width is a plain typedef that the lane template takes as arguments.
typedef std::uint64_t U64x4 __attribute__((vector_size(32)));
typedef std::int64_t I64x4 __attribute__((vector_size(32)));
typedef std::uint64_t U64x8 __attribute__((vector_size(64)));
typedef std::int64_t I64x8 __attribute__((vector_size(64)));

template <typename UV, typename SV> struct VectorLanes
{
    using U = UV;

    static FCOS_KERNEL_BODY U splat(std::uint64_t x) { return U{} + x; }
    static FCOS_KERNEL_BODY std::uint64_t lane(U v, unsigned i)
    {
        return v[i];
    }
    static FCOS_KERNEL_BODY U less(U a, U b)
    {
        // Unsigned order is signed order with the sign bits flipped;
        // AVX2 has only the signed 64-bit compare.
        constexpr std::uint64_t kSign = 1ULL << 63;
        return (U)((SV)(a ^ kSign) < (SV)(b ^ kSign));
    }
    static FCOS_KERNEL_BODY U load(const std::uint64_t *p)
    {
        U v;
        __builtin_memcpy(&v, p, sizeof(v));
        return v;
    }
    static FCOS_KERNEL_BODY void store(std::uint64_t *p, U v)
    {
        __builtin_memcpy(p, &v, sizeof(v));
    }
};
template <> struct Lanes<4> : VectorLanes<U64x4, I64x4>
{
};
template <> struct Lanes<8> : VectorLanes<U64x8, I64x8>
{
};
#endif

} // namespace fcos::isa


#endif // FCOS_UTIL_ISA_H
