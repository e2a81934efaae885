#include "nand/page_store.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "util/log.h"
#include "util/rng.h"

namespace fcos::nand {

const char *
pageStoreName(PageStoreKind kind)
{
    switch (kind) {
      case PageStoreKind::Dense:
        return "dense";
      case PageStoreKind::Sparse:
        return "sparse";
    }
    return "?";
}

static_assert(sizeof(PageImage) == 8 + PageImage::kInlineWords * 8,
              "the inline payload shares the generator's and the "
              "payload pointer's bytes");

PageImage
PageImage::fill(bool ones)
{
    PageImage img;
    img.kind_ = Kind::Fill;
    img.flag_ = ones;
    return img;
}

PageImage
PageImage::random(std::uint64_t seed, double p_one)
{
    PageImage img;
    img.kind_ = Kind::Random;
    img.gen_ = {seed, p_one};
    return img;
}

PageImage
PageImage::checkered(bool first)
{
    PageImage img;
    img.kind_ = Kind::Checkered;
    img.flag_ = first;
    return img;
}

PageImage
PageImage::dense(BitVector bits)
{
    return shared(std::make_shared<const BitVector>(std::move(bits)));
}

PageImage
PageImage::shared(std::shared_ptr<const BitVector> bits)
{
    fcos_assert(bits != nullptr, "dense page image without payload");
    PageImage img;
    img.kind_ = Kind::Dense;
    std::construct_at(&img.payload_, std::move(bits));
    return img;
}

PageImage
PageImage::inverted() const
{
    PageImage img = *this;
    img.inverted_ = !img.inverted_;
    return img;
}

PageImage
PageImage::inlined(std::size_t bits) const
{
    fcos_assert(bits <= kInlineBits,
                "a %zu-bit page does not fit an inline image", bits);
    if (kind_ == Kind::Inline)
        return *this;
    PageImage img;
    img.kind_ = Kind::Inline;
    img.inverted_ = inverted_;
    img.bits_ = static_cast<std::uint16_t>(bits);
    std::construct_at(&img.words_);
    // The stored bits are the uninverted payload: materialize() applies
    // inverted_ to every kind alike.
    generate(std::span(img.words_).first((bits + 63) / 64), bits);
    return img;
}

BitVector
PageImage::materialize(std::size_t bits) const
{
    BitVector out(bits);
    generate(out.words(), bits);
    if (inverted_)
        out.invert();
    return out;
}

void
PageImage::generate(std::span<std::uint64_t> out, std::size_t bits) const
{
    switch (kind_) {
      case Kind::Inline:
        fcos_assert(bits == bits_,
                    "inline page image is %u bits, page is %zu bits",
                    unsigned{bits_}, bits);
        std::copy_n(words_.begin(), out.size(), out.begin());
        break;
      case Kind::Fill:
        std::ranges::fill(out, flag_ ? ~std::uint64_t{0} : 0);
        break;
      case Kind::Random:
        if (gen_.pOne == 0.5 && out.size() <= Mt19937_64::kMaxFirstOutputs) {
            // At p = 0.5 BitVector::randomize() takes one output of a
            // fresh engine per word, so a small page needs only a
            // prefix of the stream, not the full 312-word seed and
            // twist.
            Mt19937_64::firstOutputs(gen_.seed, out.data(), out.size());
        } else {
            Rng rng = Rng::seeded(gen_.seed);
            if (gen_.pOne == 0.5)
                rng.fillU64(out.data(), out.size());
            else
                rng.fillBernoulli(out.data(), bits, gen_.pOne);
        }
        break;
      case Kind::Checkered: {
        // 0101.. pattern, as BitVector::fillCheckered: even bits take
        // the first value.
        constexpr std::uint64_t even = 0x5555555555555555ULL;
        std::ranges::fill(out, flag_ ? even : ~even);
        break;
      }
      case Kind::Dense:
        fcos_assert(payload_->size() == bits,
                    "dense page image is %zu bits, page is %zu bits",
                    payload_->size(), bits);
        std::ranges::copy(payload_->words(), out.begin());
        break;
    }
    if (bits % 64 != 0)
        out.back() &= (std::uint64_t{1} << (bits % 64)) - 1;
}

std::size_t
PageImage::heapBytes() const
{
    return kind_ == Kind::Dense && payload_
               ? payload_->words().capacity() * sizeof(std::uint64_t)
               : 0;
}

namespace {

/** Per-entry bookkeeping estimate: stored page + key + hash node. */
constexpr std::size_t kEntryBytes =
    sizeof(StoredPage) + sizeof(std::uint64_t) + 4 * sizeof(void *);

/** Map-based store; the backends differ only in how program() treats
 *  procedural images. */
class MapPageStore : public PageStore
{
  public:
    void erase(std::uint64_t key) override { pages_.erase(key); }

    const StoredPage *find(std::uint64_t key) const override
    {
        auto it = pages_.find(key);
        return it == pages_.end() ? nullptr : &it->second;
    }

    std::size_t pageCount() const override { return pages_.size(); }

    std::size_t contentBytes() const override
    {
        std::size_t bytes = pages_.size() * kEntryBytes;
        std::unordered_set<const BitVector *> counted;
        for (const auto &[key, page] : pages_) {
            (void)key;
            const BitVector *id = page.image.payloadId();
            if (id && counted.insert(id).second)
                bytes += page.image.heapBytes();
        }
        return bytes;
    }

  protected:
    std::unordered_map<std::uint64_t, StoredPage> pages_;
};

class DensePageStore final : public MapPageStore
{
  public:
    explicit DensePageStore(std::size_t page_bits) : page_bits_(page_bits)
    {}

    PageStoreKind kind() const override { return PageStoreKind::Dense; }

    void program(std::uint64_t key, PageImage image,
                 const PageMeta &meta) override
    {
        // Materialize eagerly: every page owns a dense payload (the
        // pre-abstraction behaviour, kept as the equivalence baseline).
        if (!image.isDense() || image.payloadId()->size() != page_bits_)
            image = PageImage::dense(image.materialize(page_bits_));
        pages_.emplace(key, StoredPage{std::move(image), meta});
    }

  private:
    std::size_t page_bits_;
};

class SparsePageStore final : public MapPageStore
{
  public:
    explicit SparsePageStore(std::size_t page_bits) : page_bits_(page_bits)
    {}

    PageStoreKind kind() const override { return PageStoreKind::Sparse; }

    void program(std::uint64_t key, PageImage image,
                 const PageMeta &meta) override
    {
        // A page that fits the descriptor is stored as its bits, so a
        // sense copies them; a wider one keeps its descriptor and is
        // materialized per sense.
        if (page_bits_ <= PageImage::kInlineBits)
            image = image.inlined(page_bits_);
        pages_.emplace(key, StoredPage{std::move(image), meta});
    }

  private:
    std::size_t page_bits_;
};

} // namespace

std::unique_ptr<PageStore>
PageStore::make(PageStoreKind kind, std::size_t page_bits)
{
    if (kind == PageStoreKind::Dense)
        return std::make_unique<DensePageStore>(page_bits);
    return std::make_unique<SparsePageStore>(page_bits);
}

} // namespace fcos::nand
