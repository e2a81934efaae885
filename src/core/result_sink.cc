#include "core/result_sink.h"

#include "util/log.h"

namespace fcos::core {

void
DenseCollectSink::begin(const StreamShape &shape)
{
    result_ = BitVector(shape.totalBits);
}

void
DenseCollectSink::consume(const ResultChunk &chunk)
{
    fcos_assert(chunk.bitOffset + chunk.bits <= result_.size(),
                "chunk beyond the announced result size");
    if (chunk.bits == chunk.page.size()) {
        result_.paste(chunk.bitOffset, chunk.page);
    } else {
        result_.paste(chunk.bitOffset, chunk.page.slice(0, chunk.bits));
    }
}

void
DigestSink::consume(const ResultChunk &chunk)
{
    digest_ = fnvStep(digest_, chunk.summary.digest);
}

std::uint64_t
DigestSink::digestOf(const BitVector &v, std::uint64_t page_bits)
{
    fcos_assert(page_bits > 0, "digestOf needs a page width");
    DigestSink sink;
    std::uint64_t pages = (v.size() + page_bits - 1) / page_bits;
    for (std::uint64_t j = 0; j < pages; ++j) {
        std::uint64_t begin = j * page_bits;
        std::uint64_t len =
            std::min<std::uint64_t>(page_bits, v.size() - begin);
        const BitVector page = v.slice(begin, len);
        sink.consume(
            ResultChunk{j, begin, len, page, PageSummary::of(page, len)});
    }
    return sink.digest();
}

void
PopcountSink::consume(const ResultChunk &chunk)
{
    ones_ += chunk.summary.ones;
    bits_ += chunk.bits;
}

SparseCompareSink
SparseCompareSink::fromImages(
    std::function<nand::PageImage(std::uint64_t)> gen)
{
    return SparseCompareSink(
        [gen = std::move(gen)](std::uint64_t index,
                               std::uint64_t page_bits) -> BitVector {
            return gen(index).materialize(page_bits);
        });
}

void
SparseCompareSink::consume(const ResultChunk &chunk)
{
    BitVector expected = expect_(chunk.index, chunk.page.size());
    fcos_assert(expected.size() >= chunk.bits,
                "expectation narrower than the chunk");
    bool match = true;
    if (expected.size() == chunk.page.size() &&
        chunk.bits == chunk.page.size()) {
        match = (expected == chunk.page);
    } else {
        match = (expected.slice(0, chunk.bits) ==
                 chunk.page.slice(0, chunk.bits));
    }
    ++checked_;
    if (!match) {
        ++mismatched_;
        if (first_mismatch_ == ~std::uint64_t{0})
            first_mismatch_ = chunk.index;
    }
}

void
TeeSink::begin(const StreamShape &shape)
{
    for (ResultSink *s : sinks_)
        s->begin(shape);
}

void
TeeSink::consume(const ResultChunk &chunk)
{
    for (ResultSink *s : sinks_)
        s->consume(chunk);
}

bool
TeeSink::wantsPages() const
{
    for (const ResultSink *s : sinks_) {
        if (s->wantsPages())
            return true;
    }
    return false;
}

void
TeeSink::end()
{
    for (ResultSink *s : sinks_)
        s->end();
}

} // namespace fcos::core
