#include "nand/page_store.h"

#include <algorithm>

#include "util/log.h"
#include "util/rng.h"

namespace fcos::nand {

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

} // namespace fcos::nand
