/**
 * @file
 * Dense, word-packed bit vector with bulk bitwise operations.
 *
 * BitVector is the fundamental data type of this library: NAND flash
 * pages, wordline contents, latch arrays, and application bit vectors
 * (bitmap-index columns, adjacency rows, segmentation masks) are all
 * BitVectors. All bulk operators work 64 bits at a time.
 *
 * Bit i of the vector models the cell on bitline i. Following the NAND
 * sensing convention used throughout the paper, a '1' bit is an *erased*
 * (conducting) cell and a '0' bit a *programmed* (blocking) cell.
 */

#ifndef FCOS_UTIL_BITVECTOR_H
#define FCOS_UTIL_BITVECTOR_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/isa.h"

namespace fcos {

class Rng;

/**
 * Number of '1' bits in @p words[0, @p n): the library's one popcount
 * kernel, run at activeIsaLevel() (util/isa.h).
 */
std::size_t popcountWords(const std::uint64_t *words, std::size_t n);

/** The same kernel at @p level, which must be supported (tests). */
std::size_t popcountWords(const std::uint64_t *words, std::size_t n,
                          IsaLevel level);

class BitVector
{
  public:
    /** Construct an empty vector. */
    BitVector() = default;

    /** Construct @p n bits, all set to @p value. */
    explicit BitVector(std::size_t n, bool value = false);

    /** Construct from a string of '0'/'1' characters (bit 0 first). */
    static BitVector fromString(const std::string &bits);

    /** Number of bits. */
    std::size_t size() const { return nbits_; }

    bool empty() const { return nbits_ == 0; }

    /** Read bit @p i. */
    bool get(std::size_t i) const;

    /** Write bit @p i. */
    void set(std::size_t i, bool value);

    /** Set all bits to @p value. */
    void fill(bool value);

    /** Resize to @p n bits; new bits take @p value. */
    void resize(std::size_t n, bool value = false);

    /** Number of '1' bits. */
    std::size_t popcount() const;

    /** True if every bit is '1'. */
    bool allOnes() const;

    /** True if every bit is '0'. */
    bool allZeros() const { return popcount() == 0; }

    /** In-place bitwise ops. Sizes must match. */
    BitVector &operator&=(const BitVector &o);
    BitVector &operator|=(const BitVector &o);
    BitVector &operator^=(const BitVector &o);

    /** Flip every bit in place. */
    void invert();

    /** Out-of-place bitwise NOT. */
    BitVector operator~() const;

    friend BitVector operator&(BitVector a, const BitVector &b)
    {
        a &= b;
        return a;
    }
    friend BitVector operator|(BitVector a, const BitVector &b)
    {
        a |= b;
        return a;
    }
    friend BitVector operator^(BitVector a, const BitVector &b)
    {
        a ^= b;
        return a;
    }

    bool operator==(const BitVector &o) const;
    bool operator!=(const BitVector &o) const { return !(*this == o); }

    /** Number of positions where this and @p o differ (sizes must match). */
    std::size_t hammingDistance(const BitVector &o) const;

    /**
     * Fill with independent Bernoulli(p) bits.
     * @param rng    random source
     * @param p_one  probability that a bit is '1'
     */
    void randomize(Rng &rng, double p_one = 0.5);

    /**
     * Program the "checkered" worst-case pattern from Section 5.1: any
     * two adjacent cells alternate between the highest and lowest V_TH
     * state, i.e. bits alternate 1,0,1,0,... starting with @p first.
     */
    void fillCheckered(bool first = true);

    /** Extract bits [begin, begin+len) into a new vector. */
    BitVector slice(std::size_t begin, std::size_t len) const;

    /** Copy @p src into this vector starting at @p begin. */
    void paste(std::size_t begin, const BitVector &src);

    /** Render as a '0'/'1' string (bit 0 first); for tests/debugging. */
    std::string toString() const;

    /** Raw word access (low word first; trailing bits are kept zero). */
    const std::vector<std::uint64_t> &words() const { return words_; }
    std::vector<std::uint64_t> &words() { return words_; }

    /** Words required for @p n bits. */
    static std::size_t wordsFor(std::size_t n) { return (n + 63) / 64; }

  private:
    /** Zero any bits beyond nbits_ in the last word. */
    void clearTail();

    std::size_t nbits_ = 0;
    std::vector<std::uint64_t> words_;
};

} // namespace fcos

#endif // FCOS_UTIL_BITVECTOR_H
