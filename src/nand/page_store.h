/**
 * @file
 * Page content descriptors for the functional cell array.
 *
 * CellArray keeps one StoredPage per programmed page. Its PageImage is
 * either a procedural generator (seeded random pattern, constant fill,
 * the Section 5.1 checkered worst case), a shared dense payload
 * (copy-on-write: broadcast copies reference one buffer), or the
 * page's own bits inline. A page of at most PageImage::kInlineBits
 * (the 256-bit Geometry::tiny() serving page) is stored as its bits:
 * CellArray generates it once at program time, so sensing it copies
 * four words and it holds no heap bytes. A wider page keeps its
 * descriptor and is materialized only when a sense touches it, so a
 * Table-1 chip (2048 blocks x 16-KiB pages) with a few thousand
 * programmed pages costs kilobytes, not gigabytes.
 *
 * Materialization is a pure function of the descriptor: a page senses
 * the same bits, conduction and injected-error seeds whether it was
 * programmed as a descriptor or as that descriptor's materialized
 * payload (certified by tests/nand/page_store_test.cc).
 */

#ifndef FCOS_NAND_PAGE_STORE_H
#define FCOS_NAND_PAGE_STORE_H

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>

#include "nand/config.h"
#include "util/bitvector.h"

namespace fcos::nand {

/** Programming context of one page, consumed by the error model. */
struct PageMeta
{
    ProgramMode mode = ProgramMode::SlcRegular;
    /** tESP / tPROG(SLC) in [1, 2]; meaningful only for SlcEsp. */
    double espFactor = 1.0;
    /** Whether the stored pattern went through the data randomizer. */
    bool randomized = false;
    /** Block P/E cycle count when the page was programmed. */
    std::uint32_t pecAtProgram = 0;
};

/** There is one page store; NandChip still takes this argument
 *  because the fcbench probes name it, and ignores it. */
enum class PageStoreKind : std::uint8_t
{
    Sparse,
};

/**
 * The content of one page: a procedural generator descriptor, a
 * (possibly shared) dense payload, or the page's own bits inline when
 * they fit in the descriptor's kInlineWords words. Descriptors may
 * additionally be stored with inverted polarity — the §6.1 De Morgan
 * storage — without materializing the complement.
 */
class PageImage
{
  public:
    enum class Kind : std::uint8_t
    {
        Fill,      ///< every bit == fill value
        Random,    ///< seeded Bernoulli(pOne) pattern
        Checkered, ///< alternating 1,0,1,0,... (Section 5.1 worst case)
        Dense,     ///< explicit payload (shared, copy-on-write)
        Inline,    ///< the page's bits, stored in the descriptor itself
    };

    /** Widest page stored inline: the 32 bytes a generator and a
     *  payload pointer take anyway, one Geometry::tiny() page. */
    static constexpr std::size_t kInlineWords = 4;
    static constexpr std::size_t kInlineBits = kInlineWords * 64;

    /** Default: an all-ones (erased-looking) fill. */
    PageImage() : gen_() {}
    PageImage(const PageImage &other) { adopt(other); }
    PageImage(PageImage &&other) noexcept { adopt(std::move(other)); }
    PageImage &operator=(const PageImage &other)
    {
        if (this != &other) {
            release();
            adopt(other);
        }
        return *this;
    }
    PageImage &operator=(PageImage &&other) noexcept
    {
        if (this != &other) {
            release();
            adopt(std::move(other));
        }
        return *this;
    }
    ~PageImage() { release(); }

    static PageImage fill(bool ones);
    static PageImage random(std::uint64_t seed, double p_one = 0.5);
    static PageImage checkered(bool first = true);
    /** Takes ownership of @p bits (one dense payload for this page). */
    static PageImage dense(BitVector bits);
    /** References @p bits without copying (broadcast fan-out shares
     *  one payload across every destination page). */
    static PageImage shared(std::shared_ptr<const BitVector> bits);

    Kind kind() const { return kind_; }
    bool isDense() const { return kind_ == Kind::Dense; }

    /** This image with flipped polarity (descriptor-level NOT). */
    PageImage inverted() const;

    /** This image stored as its bits at @p bits <= kInlineBits page
     *  width: same content and polarity, no generator, no heap. */
    PageImage inlined(std::size_t bits) const;

    /** Generate the page content at @p bits page width. */
    BitVector materialize(std::size_t bits) const;

    /** Heap bytes held by this image (0 unless Dense). */
    std::size_t heapBytes() const;

    /** Identity of the shared payload (dedup in footprint accounting);
     *  nullptr unless Dense. */
    const BitVector *payloadId() const
    {
        return kind_ == Kind::Dense ? payload_.get() : nullptr;
    }

  private:
    struct Generator
    {
        std::uint64_t seed = 0;
        double pOne = 0.5;
    };

    /** Write the uninverted page at @p bits width into @p out, one
     *  word per 64 bits, the tail bits past @p bits zero: the one
     *  generator path behind materialize() and inlined(). */
    void generate(std::span<std::uint64_t> out, std::size_t bits) const;

    /** Take @p other's kind, flags and payload (copied or moved),
     *  starting the lifetime of the union member kind_ names. */
    template <typename Other>
    void adopt(Other &&other)
    {
        kind_ = other.kind_;
        inverted_ = other.inverted_;
        flag_ = other.flag_;
        bits_ = other.bits_;
        switch (kind_) {
          case Kind::Dense:
            std::construct_at(&payload_,
                              std::forward<Other>(other).payload_);
            break;
          case Kind::Inline:
            std::construct_at(&words_, other.words_);
            break;
          default:
            std::construct_at(&gen_, other.gen_);
            break;
        }
    }
    /** End the payload's lifetime if this image holds one. */
    void release() noexcept
    {
        if (kind_ == Kind::Dense)
            payload_.~shared_ptr();
    }

    Kind kind_ = Kind::Fill;
    bool inverted_ = false;
    bool flag_ = true;         ///< Fill: value; Checkered: first bit
    std::uint16_t bits_ = 0;   ///< Inline: page width
    union {                    ///< which member is live follows kind_
        Generator gen_;        ///< Random
        std::shared_ptr<const BitVector> payload_;       ///< Dense
        std::array<std::uint64_t, kInlineWords> words_;  ///< Inline
    };
};

/** One programmed page: content plus programming context. */
struct StoredPage
{
    PageImage image;
    PageMeta meta;
};

} // namespace fcos::nand

#endif // FCOS_NAND_PAGE_STORE_H
