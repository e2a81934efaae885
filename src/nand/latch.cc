#include "nand/latch.h"

#include "util/log.h"

namespace fcos::nand {

LatchArray::LatchArray(std::size_t bitlines)
    : sense_(bitlines, false), cache_(bitlines, false)
{
}

void
LatchArray::initSense()
{
    sense_initialized_ = true;
}

void
LatchArray::initCache()
{
    cache_.fill(false);
}

void
LatchArray::evaluate(const BitVector &conduction, bool inverse,
                     bool initialized)
{
    fcos_assert(conduction.size() == sense_.size(),
                "conduction width %zu != %zu bitlines", conduction.size(),
                sense_.size());
    if (inverse) {
        // Figure 4: inverse evaluation only works from an initialized
        // latch (the activation order of M1/M2 is swapped during init).
        fcos_assert(initialized && sense_initialized_,
                    "inverse read requires S-latch initialization");
        sense_ = ~conduction;
    } else if (sense_initialized_) {
        // A precharged S is all-'1', so it latches the conduction.
        sense_ = conduction;
    } else {
        fcos_assert(!initialized,
                    "evaluate(initialized) without initSense()");
        // ParaBit AND accumulation: evaluation can only discharge OUT_S.
        sense_ &= conduction;
    }
    sense_initialized_ = false;
}

void
LatchArray::dumpOrMerge()
{
    cache_ |= sense_;
}

void
LatchArray::dumpAndMerge()
{
    cache_ &= sense_;
}

void
LatchArray::dumpCopy()
{
    cache_ = sense_;
}

void
LatchArray::xorSenseIntoCache()
{
    cache_ ^= sense_;
}

} // namespace fcos::nand
