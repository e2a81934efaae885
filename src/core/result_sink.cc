#include "core/result_sink.h"

#include "util/log.h"

namespace fcos::core {

namespace {

/** Fold the valid prefix of @p chunk into @p h: whole words plus a
 *  masked tail word, with the chunk index mixed in first so chunk
 *  order is part of the digest. */
std::uint64_t
foldChunk(std::uint64_t h, const ResultChunk &chunk)
{
    h = fnvWord(h, chunk.index);
    const std::vector<std::uint64_t> &words = chunk.page.words();
    std::uint64_t full = chunk.bits / 64;
    fcos_assert(BitVector::wordsFor(chunk.bits) <= words.size(),
                "chunk shorter than its declared bit count");
    for (std::uint64_t w = 0; w < full; ++w)
        h = fnvWord(h, words[w]);
    std::uint64_t tail = chunk.bits % 64;
    if (tail)
        h = fnvWord(h, words[full] & ((1ULL << tail) - 1));
    return h;
}

} // namespace

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
    digest_ = foldChunk(digest_, chunk);
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
        BitVector page(page_bits, false);
        page.paste(0, v.slice(begin, len));
        sink.consume(ResultChunk{j, begin, len, page});
    }
    return sink.digest();
}

void
PopcountSink::consume(const ResultChunk &chunk)
{
    const std::vector<std::uint64_t> &words = chunk.page.words();
    std::uint64_t full = chunk.bits / 64;
    std::uint64_t ones = popcountWords(words.data(), full);
    std::uint64_t tail = chunk.bits % 64;
    if (tail) {
        const std::uint64_t last = words[full] & ((1ULL << tail) - 1);
        ones += popcountWords(&last, 1);
    }
    ones_ += ones;
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

void
TeeSink::end()
{
    for (ResultSink *s : sinks_)
        s->end();
}

} // namespace fcos::core
