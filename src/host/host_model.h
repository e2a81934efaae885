/**
 * @file
 * Host system model (paper Table 1: i7-11700K, 8 cores, 3.6 GHz,
 * 64 GB DDR4-3600 x4).
 *
 * The paper measures host behaviour on real hardware (with Ramulator
 * for DRAM timing detail); for this reproduction a calibrated
 * throughput/energy model suffices because, in every evaluated
 * scenario, host compute is *not* the bottleneck — Section 8.1 notes
 * that bitwise computation is completely hidden behind operand
 * delivery. What matters is (i) the streaming rate at which the host
 * can fold operands (bounded by DRAM bandwidth) and (ii) the energy
 * cost of keeping the package active, which RAPL attributes for the
 * whole busy interval.
 */

#ifndef FCOS_HOST_HOST_MODEL_H
#define FCOS_HOST_HOST_MODEL_H

#include <cstdint>
#include <functional>

#include "sim/event_queue.h"
#include "ssd/energy.h"
#include "util/units.h"

namespace fcos::host {

struct HostConfig
{
    /** Sustained streaming rate for bulk bitwise ops / bit-count on
     *  8 cores (memory-bandwidth-bound, AVX2 kernels). */
    double streamGBps = 24.0;
    /** DDR4-3600 x4 channels peak bandwidth (GB/s). */
    double dramGBps = 115.2;
    /** Package power while streaming (RAPL-style attribution). */
    double cpuActiveWatts = 65.0;
    /** DRAM access energy per bit moved. */
    double dramPjPerBit = 20.0;
};

class HostModel
{
  public:
    HostModel(EventQueue &queue, ssd::EnergyMeter &energy,
              HostConfig cfg = HostConfig{})
        : queue_(queue), energy_(energy), cfg_(cfg), cpu_("host-cpu")
    {}

    const HostConfig &config() const { return cfg_; }

    /**
     * Stream @p bytes through the CPU (bitwise fold or bit-count).
     * Serializes on the host compute facility; books CPU-active and
     * DRAM energy; @p done fires at completion.
     */
    void compute(std::uint64_t bytes, std::function<void()> done);

    /** Pure query: how long @p bytes of streaming compute takes. */
    Time computeTime(std::uint64_t bytes) const
    {
        return transferTime(bytes, cfg_.streamGBps);
    }

    /**
     * One chunk of a streamed result fold: the same facility, rate,
     * and energy accounting as compute(), without a completion
     * callback. Chunked pipelines (the platform drivers, the streamed
     * functional runs) charge each chunk as it arrives, so the dense
     * and streamed result paths book identical time and joules.
     */
    void computeChunk(std::uint64_t bytes)
    {
        compute(bytes, [] {});
    }

    /**
     * Result lands in host DRAM without CPU post-processing (books
     * DRAM energy only; takes no host compute time).
     */
    void receive(std::uint64_t bytes)
    {
        energy_.add(ssd::EnergyComponent::HostDram,
                    cfg_.dramPjPerBit * 1e-12 *
                        static_cast<double>(bytes) * 8.0);
    }

    /** Total busy time of the host compute facility. */
    Time busyTime() const { return cpu_.busyTime(); }

  private:
    EventQueue &queue_;
    ssd::EnergyMeter &energy_;
    HostConfig cfg_;
    Facility cpu_;
};

} // namespace fcos::host

#endif // FCOS_HOST_HOST_MODEL_H
