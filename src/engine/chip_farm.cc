#include "engine/chip_farm.h"

#include "util/log.h"

namespace fcos::engine {

ChipFarm::ChipFarm(const ssd::SsdConfig &cfg) : cfg_(cfg)
{
    fcos_assert(cfg.channels > 0, "farm needs at least one channel");
    fcos_assert(cfg.dies > 0, "farm needs at least one die per channel");
    chips_.reserve(cfg.dieCount());
    for (std::uint32_t d = 0; d < cfg.dieCount(); ++d)
        chips_.push_back(std::make_unique<nand::NandChip>(
            cfg.geometry, cfg.timings, nullptr));
}

std::uint32_t
ChipFarm::channelOfDie(std::uint32_t die) const
{
    fcos_assert(die < dieCount(), "die %u out of range", die);
    return die / cfg_.dies;
}

nand::NandChip &
ChipFarm::chip(std::uint32_t die)
{
    fcos_assert(die < dieCount(), "die %u out of range", die);
    return *chips_[die];
}

const nand::NandChip &
ChipFarm::chip(std::uint32_t die) const
{
    fcos_assert(die < dieCount(), "die %u out of range", die);
    return *chips_[die];
}

void
ChipFarm::setErrorInjector(nand::ErrorInjector *injector)
{
    for (auto &c : chips_)
        c->setErrorInjector(injector);
}

} // namespace fcos::engine
