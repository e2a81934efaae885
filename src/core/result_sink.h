/**
 * @file
 * Streamed result delivery for bulk bitwise reads.
 *
 * The drive's original read path materialized every result as one
 * dense util::BitVector — O(capacity) memory, which caps full-drive
 * (multi-GB-result) workloads even after the sparse page store removed
 * the page-*payload* ceiling. ResultSink inverts the contract: result
 * pages stream to a consumer one chunk at a time, in page-index order,
 * and only the consumer decides how much state to keep.
 *
 * Backends:
 *  - DenseCollectSink  — assembles the dense vector (bit-for-bit the
 *    legacy return value; the BitVector-returning APIs wrap it);
 *  - ChunkCallbackSink — forwards each chunk to a user callback;
 *  - DigestSink        — running FNV-1a fold over the valid bits;
 *  - PopcountSink      — running population count;
 *  - SparseCompareSink — verifies each page against a procedural
 *    expectation (e.g. a nand::PageImage fold) as it arrives, never
 *    holding more than the one chunk being checked;
 *  - TeeSink           — fans one stream out to several sinks.
 *
 * Chunks always arrive with strictly increasing page indices (the
 * engine's OrderedChunkStream re-orders out-of-order completions), so
 * streaming consumers need no reassembly logic of their own.
 */

#ifndef FCOS_CORE_RESULT_SINK_H
#define FCOS_CORE_RESULT_SINK_H

#include <cstdint>
#include <functional>
#include <vector>

#include "nand/page_store.h"
#include "util/bitvector.h"
#include "util/fnv.h"

namespace fcos::core {

/** Geometry of one result stream, announced before the first chunk. */
struct StreamShape
{
    std::uint64_t pages = 0;    ///< chunks the stream will deliver
    std::uint64_t pageBits = 0; ///< bits per full page chunk
    std::uint64_t totalBits = 0; ///< logical result size
};

/** One result page in flight. @p page holds a full page; only the
 *  first @p bits are part of the logical result (the tail of the last
 *  page is padding). The payload reference is valid ONLY for the
 *  duration of consume() — a sink that needs the bits later must copy
 *  them (storing a ResultChunk stores a dangling reference). */
struct ResultChunk
{
    std::uint64_t index = 0;     ///< page index within the result
    std::uint64_t bitOffset = 0; ///< == index * pageBits
    std::uint64_t bits = 0;      ///< valid bits of this chunk
    const BitVector &page;
};

class ResultSink
{
  public:
    virtual ~ResultSink() = default;

    /** Announces the stream shape; called once, before any chunk. */
    virtual void begin(const StreamShape &shape) { (void)shape; }

    /** One result page, indices strictly increasing. */
    virtual void consume(const ResultChunk &chunk) = 0;

    /** Stream complete; every page was delivered exactly once. */
    virtual void end() {}
};

/** Collects the stream into the legacy dense result vector. */
class DenseCollectSink final : public ResultSink
{
  public:
    void begin(const StreamShape &shape) override;
    void consume(const ResultChunk &chunk) override;

    const BitVector &result() const { return result_; }
    BitVector take() { return std::move(result_); }

  private:
    BitVector result_;
};

/** Forwards every chunk to @p fn (no state of its own). */
class ChunkCallbackSink final : public ResultSink
{
  public:
    using Fn = std::function<void(const ResultChunk &)>;
    explicit ChunkCallbackSink(Fn fn) : fn_(std::move(fn)) {}

    void consume(const ResultChunk &chunk) override { fn_(chunk); }

  private:
    Fn fn_;
};

/**
 * Order-sensitive running digest (64-bit FNV-1a over the valid words
 * of every chunk, with each chunk's index folded in). Two streams have
 * equal digests iff they delivered identical payloads in identical
 * chunk order — the determinism suite's cross-farm-shape certificate.
 * A chunk's whole words go through fnvBytes() (util/fnv.h), which runs
 * at the host's vector width and gives the byte loop's bits.
 */
class DigestSink final : public ResultSink
{
  public:
    void consume(const ResultChunk &chunk) override;

    std::uint64_t digest() const { return digest_; }

    /** Digest of @p v streamed as @p page_bits-sized chunks (what a
     *  streamed read of a vector holding @p v must produce). */
    static std::uint64_t digestOf(const BitVector &v,
                                  std::uint64_t page_bits);

  private:
    std::uint64_t digest_ = kFnvOffset;
};

/** Running population count over the valid bits of every chunk. */
class PopcountSink final : public ResultSink
{
  public:
    void consume(const ResultChunk &chunk) override;

    std::uint64_t ones() const { return ones_; }
    std::uint64_t bits() const { return bits_; }

  private:
    std::uint64_t ones_ = 0;
    std::uint64_t bits_ = 0;
};

/**
 * Streaming comparator: checks each arriving page against a
 * procedurally generated expectation, so a beyond-DRAM result can be
 * verified bit-exactly while peak memory stays at one page. The
 * expectation is a pure function of the page index — typically a fold
 * of the nand::PageImage descriptors the operands were written with.
 */
class SparseCompareSink final : public ResultSink
{
  public:
    /** @p expect maps (page index, page width) to the expected bits. */
    using PageFn =
        std::function<BitVector(std::uint64_t, std::uint64_t)>;
    explicit SparseCompareSink(PageFn expect) : expect_(std::move(expect))
    {}

    /** Comparator against a single procedural image per page. */
    static SparseCompareSink
    fromImages(std::function<nand::PageImage(std::uint64_t)> gen);

    void begin(const StreamShape &shape) override { shape_ = shape; }
    void consume(const ResultChunk &chunk) override;

    std::uint64_t pagesChecked() const { return checked_; }
    std::uint64_t mismatchedPages() const { return mismatched_; }
    /** Index of the first mismatching page (or ~0 if none). */
    std::uint64_t firstMismatch() const { return first_mismatch_; }
    bool allMatched() const { return checked_ > 0 && mismatched_ == 0; }

  private:
    PageFn expect_;
    StreamShape shape_;
    std::uint64_t checked_ = 0;
    std::uint64_t mismatched_ = 0;
    std::uint64_t first_mismatch_ = ~std::uint64_t{0};
};

/** Fans one stream out to several sinks (none owned). */
class TeeSink final : public ResultSink
{
  public:
    explicit TeeSink(std::vector<ResultSink *> sinks)
        : sinks_(std::move(sinks))
    {}

    void begin(const StreamShape &shape) override;
    void consume(const ResultChunk &chunk) override;
    void end() override;

  private:
    std::vector<ResultSink *> sinks_;
};

} // namespace fcos::core

#endif // FCOS_CORE_RESULT_SINK_H
