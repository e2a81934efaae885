#include "engine/scheduler.h"

#include <algorithm>

#include "util/log.h"

namespace fcos::engine {

ssd::EnergyComponent
energyComponentFor(StepKind kind)
{
    switch (kind) {
      case StepKind::Sense:
      case StepKind::LatchXor:
        return ssd::EnergyComponent::NandMws;
      case StepKind::PageRead:
        return ssd::EnergyComponent::NandRead;
      case StepKind::Program:
      case StepKind::Copyback:
        return ssd::EnergyComponent::NandProgram;
      case StepKind::Erase:
        return ssd::EnergyComponent::NandErase;
    }
    return ssd::EnergyComponent::NandRead;
}

void
OpStats::tally(StepKind kind, const nand::OpResult &op)
{
    nandTime += op.latency;
    nandEnergyJ += op.energyJ;
    switch (kind) {
      case StepKind::Sense:
        ++mwsCommands;
        ++senses;
        break;
      case StepKind::PageRead:
        ++senses;
        ++pageReads;
        break;
      case StepKind::LatchXor:
        ++latchXors;
        break;
      case StepKind::Program:
        ++programs;
        break;
      case StepKind::Copyback:
        ++copybacks;
        break;
      case StepKind::Erase:
        ++erases;
        break;
    }
}

namespace {

/** Span label of a step, keyed by its energy component. */
const char *
spanName(ssd::EnergyComponent comp)
{
    switch (comp) {
    case ssd::EnergyComponent::NandMws:
        return "mws";
    case ssd::EnergyComponent::NandRead:
        return "read";
    case ssd::EnergyComponent::NandProgram:
        return "program";
    case ssd::EnergyComponent::NandErase:
        return "erase";
    default:
        return ssd::energyComponentName(comp);
    }
}

} // namespace

CommandScheduler::CommandScheduler(ChipFarm &farm)
    : farm_(farm),
      workers_(WorkerPool::resolveCount(farm.config().workers)),
      planes_per_die_(farm.geometry().planesPerDie),
      page_bits_(farm.geometry().pageBits()), external_("external"),
      states_(farm.columnCount())
{
    if (workers_ > 1 &&
        (page_bits_ >= kLaneMinPageBits || WorkerPool::forceThreads()))
        pool_ = std::make_unique<WorkerPool>(workers_);
    planes_.reserve(farm.columnCount());
    for (std::uint32_t d = 0; d < farm.dieCount(); ++d)
        for (std::uint32_t p = 0; p < planes_per_die_; ++p)
            planes_.emplace_back("die" + std::to_string(d) + ".plane" +
                                 std::to_string(p));
    channels_.reserve(farm.channelCount());
    accel_ports_.reserve(farm.channelCount());
    for (std::uint32_t c = 0; c < farm.channelCount(); ++c) {
        channels_.emplace_back("channel" + std::to_string(c));
        accel_ports_.emplace_back("accel" + std::to_string(c));
    }
    channel_tracks_.assign(farm.channelCount(), 0);
    accel_tracks_.assign(farm.channelCount(), 0);

    // Register the trace topology once: one process per channel (its
    // bus, accelerator port, and plane tracks), one for the drive
    // (external link; the owning drive adds its request track). Hooks
    // elsewhere cost one epoch branch when tracing is off.
    if (obs::traceOn()) {
        trace_epoch_ = obs::traceEpoch();
        obs::Tracer &tr = obs::trace();
        std::vector<std::uint32_t> chan_pids;
        chan_pids.reserve(farm.channelCount());
        for (std::uint32_t c = 0; c < farm.channelCount(); ++c) {
            std::uint32_t pid =
                tr.newProcess("channel" + std::to_string(c));
            chan_pids.push_back(pid);
            channel_tracks_[c] = tr.newTrack(pid, "bus");
            accel_tracks_[c] = tr.newTrack(pid, "accel");
        }
        plane_tracks_.reserve(farm.columnCount());
        wait_tracks_.reserve(farm.columnCount());
        for (std::uint32_t d = 0; d < farm.dieCount(); ++d) {
            const std::uint32_t pid = chan_pids[farm.channelOfDie(d)];
            for (std::uint32_t p = 0; p < planes_per_die_; ++p) {
                const std::string name = "die" + std::to_string(d) +
                                         ".plane" + std::to_string(p);
                plane_tracks_.push_back(tr.newTrack(pid, name));
                wait_tracks_.push_back(tr.newTrack(pid, name + ".wait"));
            }
        }
        drive_pid_ = tr.newProcess("drive");
        external_track_ = tr.newTrack(drive_pid_, "external");
    }
    if (obs::metricsOn())
        m_epoch_ = obs::metricsEpoch();
}

CommandScheduler::~CommandScheduler()
{
    // Lane items point into the FIFOs destroyed below.
    fenceAll();
}

void
CommandScheduler::fence(std::uint32_t die)
{
    if (pool_)
        pool_->fence(die);
}

void
CommandScheduler::fenceAll()
{
    if (pool_)
        pool_->fenceAll();
}

bool
CommandScheduler::launchable(const ColumnProgram &prog)
{
    for (const ColumnStep &step : prog.steps) {
        if (!step.cost)
            return false;
    }
    // Nothing reads the latch of a program whose result is not read
    // out, or read out to no one, or read only as its summary.
    return !prog.readOutResult || !prog.onResult || prog.summaryOnly;
}

bool
CommandScheduler::hasDieWork(const ColumnProgram &prog, std::size_t step)
{
    return prog.steps[step].run ||
           (step + 1 == prog.steps.size() && prog.readOutResult &&
            prog.onResult);
}

void
CommandScheduler::submit(ColumnProgram program, OpStats *stats)
{
    fcos_assert(!program.steps.empty(), "empty column program");
    fcos_assert(program.die < farm_.dieCount(),
                "program targets die %u beyond the farm", program.die);
    fcos_assert(program.plane < planes_per_die_,
                "program targets plane %u beyond the die", program.plane);
    const std::uint32_t die = program.die;
    const std::uint32_t col = columnOf(die, program.plane);
    PlaneState &st = states_[col];
    Queued q;
    q.job = std::make_unique<Job>();
    Job &job = *q.job;
    job.program = std::move(program);
    job.stats = stats;
    if (pool_ && st.unlaunched == 0 && launchable(job.program)) {
        // The whole program runs on the lane from now on: its steps
        // reach the die in plane order behind everything posted before.
        job.launched = true;
        bool work = false;
        for (std::size_t i = 0; i < job.program.steps.size(); ++i)
            work = work || hasDieWork(job.program, i);
        if (work) {
            job.ticket = pool_->post(die, [this, die, j = &job] {
                for (std::size_t i = 0; i < j->program.steps.size(); ++i)
                    runStep(die, *j, i);
            });
        }
    } else {
        ++st.unlaunched;
    }
    q.submitted = queue_.now();
    st.pending.push_back(std::move(q));
    prefetchDataIn(die, col);
    pump(die, col);
}

void
CommandScheduler::prefetchDataIn(std::uint32_t die, std::uint32_t col)
{
    // The head step's program data streams into the plane's cache
    // latch while the previous step still occupies the array; the
    // latch is the one-deep buffer that makes this pipelining legal.
    PlaneState &st = states_[col];
    if (st.pending.empty())
        return;
    Queued &head = st.pending.front();
    const std::uint64_t bytes = head.current().dmaBeforeBytes;
    if (bytes == 0 || head.dmaIssued)
        return;
    head.dmaIssued = true;
    const std::uint32_t ch = farm_.channelOfDie(die);
    const ssd::IoParams &io = farm_.config().io;
    ++dma_ops_;
    bookTransfer(channels_[ch], channel_tracks_[ch], "data-in",
                 ssd::EnergyComponent::ChannelDma, io.channelEnergyJ(bytes),
                 io.channelTime(bytes), [this, die, col] {
                     // A step never starts before its data lands, so
                     // the head is still the step this transfer was
                     // issued for.
                     states_[col].pending.front().dmaDone = true;
                     pump(die, col);
                 });
}

void
CommandScheduler::bookTransfer(Facility &fac, std::uint32_t track,
                               const char *name, ssd::EnergyComponent comp,
                               double joules, Time dur, Callback done)
{
    energy_.add(comp, joules);
    const Time finish = fac.acquire(queue_.now(), dur);
    if (obs::traceLive(trace_epoch_))
        obs::trace().span(track, name, finish - dur, finish);
    if (done)
        queue_.schedule(finish, std::move(done));
    else
        queue_.schedule(finish, [] {});
}

void
CommandScheduler::pump(std::uint32_t die, std::uint32_t col)
{
    PlaneState &st = states_[col];
    if (st.running || st.pending.empty())
        return;
    const Queued &head = st.pending.front();
    if (head.current().dmaBeforeBytes != 0 && !head.dmaDone)
        return; // the data-in completion will pump again
    st.running = true;
    // Defer to the event queue even for an idle plane so that execution
    // order is decided purely by simulated time + FIFO tie-breaking,
    // never by the C++ call stack.
    queue_.schedule(queue_.now(),
                    [this, die, col] { startStep(die, col); });
}

nand::OpResult
CommandScheduler::runStep(std::uint32_t die, Job &job, std::size_t step)
{
    const ColumnProgram &prog = job.program;
    const ColumnStep &s = prog.steps[step];
    nand::NandChip &chip = farm_.chip(die);
    fcos_assert(s.run || s.cost, "a step without run() needs a cost");
    const nand::OpResult r = s.run ? s.run(chip) : *s.cost;
    fcos_assert(!s.cost || r == *s.cost,
                "step returned latency %llu / %g J, not its declared "
                "cost %llu / %g J",
                (unsigned long long)r.latency, r.energyJ,
                (unsigned long long)s.cost->latency, s.cost->energyJ);
    // A program's last step also summarizes the page it hands out,
    // before any later work on the die can change the latch.
    if (step + 1 == prog.steps.size() && prog.readOutResult &&
        prog.onResult)
        job.summary =
            PageSummary::of(chip.dataOut(prog.plane), resultBitsOf(prog));
    return r;
}

void
CommandScheduler::startStep(std::uint32_t die, std::uint32_t col)
{
    PlaneState &st = states_[col];
    fcos_assert(!st.pending.empty(), "plane woke without work");
    Queued &q = st.pending.front();
    Job &job = *q.job;
    const ColumnStep &step = q.current();
    nand::OpResult result;
    if (!pool_) {
        result = runStep(die, job, q.step);
    } else if (job.launched) {
        result = *step.cost;
    } else if (step.cost) {
        result = *step.cost;
        if (hasDieWork(job.program, q.step)) {
            job.ticket =
                pool_->post(die, [this, die, j = &job, i = q.step] {
                    runStep(die, *j, i);
                });
        }
    } else {
        // Its cost reads die state: run it now, once the die's lane
        // has caught up.
        pool_->fence(die);
        result = runStep(die, job, q.step);
    }
    const StepKind kind = step.kind;
    const std::uint64_t dma_after = step.dmaAfterBytes;
    const Time submitted = q.submitted;
    OpStats *const stats = job.stats;
    // A program leaves the FIFO with its last step; the completion
    // then owns it.
    std::unique_ptr<Job> done;
    if (++q.step == job.program.steps.size()) {
        done = std::move(q.job);
        st.pending.pop_front();
    } else {
        q.dmaIssued = false;
        q.dmaDone = false;
    }

    // The plane just freed its cache latch for the *next* step's
    // data-in; start that transfer so it overlaps this step's array
    // time.
    prefetchDataIn(die, col);

    if (stats)
        stats->tally(kind, result);
    const ssd::EnergyComponent comp = energyComponentFor(kind);
    energy_.add(comp, result.energyJ);
    Time finish = planes_[col].acquire(queue_.now(), result.latency);
    ++die_ops_;
    const Time start = finish - result.latency;
    if (obs::traceLive(trace_epoch_)) {
        obs::trace().span(plane_tracks_[col], spanName(comp), start,
                          finish);
        // Queue-wait windows of steps stacked behind one plane overlap,
        // so they live on the plane's ".wait" track as X overlays.
        if (start > submitted)
            obs::trace().overlay(wait_tracks_[col], "wait", submitted,
                                 start);
    }
    if (obs::metricsLive(m_epoch_)) {
        obs::Histogram *&h = op_hist_[static_cast<std::size_t>(comp)];
        if (!h)
            h = &obs::metrics().histogram(
                std::string("engine.op_latency.") +
                ssd::energyComponentName(comp));
        h->record(result.latency);
        if (!wait_hist_)
            wait_hist_ = &obs::metrics().histogram("engine.queue_wait");
        wait_hist_->record(start - submitted);
    }
    queue_.schedule(finish, [this, die, col, dma_after,
                             done = std::move(done)]() mutable {
        completeStep(die, col, dma_after, std::move(done));
    });
}

void
CommandScheduler::completeStep(std::uint32_t die, std::uint32_t col,
                               std::uint64_t dma_after,
                               std::unique_ptr<Job> done)
{
    if (done) {
        // The program's callbacks may read what its work wrote.
        if (pool_)
            pool_->wait(die, done->ticket);
        if (!done->launched)
            --states_[col].unlaunched;
    }
    // This runs before any later step on the plane starts, so a
    // readout observes the latches this step left.
    if (!done || !done->program.readOutResult) {
        // With no readout phase, a trailing transfer is the program's
        // final timeline event: completion rides it, so per-request
        // accounting sees the instant the data actually lands.
        if (dma_after > 0)
            submitDma(die, dma_after,
                      done ? std::move(done->program.onComplete)
                           : Callback{});
        else if (done && done->program.onComplete)
            done->program.onComplete();
    } else {
        ColumnProgram &prog = done->program;
        if (dma_after > 0)
            submitDma(die, dma_after);
        if (done->stats)
            ++done->stats->resultPages;
        if (prog.onResult) {
            // Capture the cache latch now — at the plane's completion
            // instant — before any later program on this plane can
            // overwrite it (none is launched while this one is
            // pending). Handing the payload over now keeps it out of
            // the DMA closure; the transfer still occupies the channel
            // and books its time and energy.
            BitVector page;
            if (!prog.summaryOnly) {
                page = farm_.chip(die).dataOut(prog.plane);
#ifndef NDEBUG
                fcos_assert(PageSummary::of(page, resultBitsOf(prog)) ==
                                done->summary,
                            "result latch changed after its summary");
#endif
            }
            prog.onResult(std::move(page), done->summary);
        }
        submitDma(die, farm_.geometry().pageBytes,
                  std::move(prog.onComplete));
    }
    states_[col].running = false;
    pump(die, col);
}

void
CommandScheduler::submitDma(std::uint32_t die, std::uint64_t bytes,
                            Callback done)
{
    const std::uint32_t ch = farm_.channelOfDie(die);
    const ssd::IoParams &io = farm_.config().io;
    ++dma_ops_;
    bookTransfer(channels_[ch], channel_tracks_[ch], "dma",
                 ssd::EnergyComponent::ChannelDma, io.channelEnergyJ(bytes),
                 io.channelTime(bytes), std::move(done));
}

void
CommandScheduler::submitExternal(std::uint64_t bytes, Callback done)
{
    const ssd::IoParams &io = farm_.config().io;
    bookTransfer(external_, external_track_, "ext",
                 ssd::EnergyComponent::ExternalLink,
                 io.externalEnergyJ(bytes), io.externalTime(bytes),
                 std::move(done));
}

void
CommandScheduler::submitAccel(std::uint32_t channel, std::uint64_t bytes,
                              Callback done)
{
    fcos_assert(channel < accel_ports_.size(), "channel %u out of range",
                channel);
    const ssd::IoParams &io = farm_.config().io;
    // The accelerator streams at channel rate; its port is per channel,
    // so accelerator work never outruns its input.
    bookTransfer(accel_ports_[channel], accel_tracks_[channel], "accel",
                 ssd::EnergyComponent::IspAccel, io.accelEnergyJ(bytes),
                 io.channelTime(bytes), std::move(done));
}

Time
CommandScheduler::runUntil(Time deadline)
{
    const Time now = queue_.runUntil(deadline);
    fenceAll();
    return now;
}

Time
CommandScheduler::drain()
{
    queue_.run();
    fenceAll();
    makespan_ = std::max(makespan_, queue_.now());

    queue_.publishMetrics();
    if (pool_)
        pool_->publishMetrics();
    if (obs::metricsLive(m_epoch_)) {
        obs::Registry &m = obs::metrics();
        m.counter("engine.die_ops").add(die_ops_ - pub_die_ops_);
        pub_die_ops_ = die_ops_;
        m.counter("engine.dma_transfers").add(dma_ops_ - pub_dma_ops_);
        pub_dma_ops_ = dma_ops_;
        // Facility utilization is cumulative, so overwriting per drain
        // leaves the registry with the end-of-run totals.
        for (const Facility &f : planes_)
            m.recordFacility(f.name(), f.busyTime(), f.grants(),
                             makespan_);
        for (const Facility &f : channels_)
            m.recordFacility(f.name(), f.busyTime(), f.grants(),
                             makespan_);
        for (const Facility &f : accel_ports_) {
            if (f.grants() > 0)
                m.recordFacility(f.name(), f.busyTime(), f.grants(),
                                 makespan_);
        }
        if (external_.grants() > 0)
            m.recordFacility(external_.name(), external_.busyTime(),
                             external_.grants(), makespan_);
    }
    return makespan_;
}

Time
CommandScheduler::planeBusyTime(std::uint32_t die, std::uint32_t plane) const
{
    fcos_assert(die < farm_.dieCount() && plane < planes_per_die_,
                "plane (%u, %u) out of range", die, plane);
    return planes_[die * planes_per_die_ + plane].busyTime();
}

Time
CommandScheduler::dieBusyTime(std::uint32_t die) const
{
    fcos_assert(die < farm_.dieCount(), "die %u out of range", die);
    Time m = 0;
    for (std::uint32_t p = 0; p < planes_per_die_; ++p)
        m = std::max(m, planes_[die * planes_per_die_ + p].busyTime());
    return m;
}

Time
CommandScheduler::channelBusyTime(std::uint32_t channel) const
{
    fcos_assert(channel < channels_.size(), "channel %u out of range",
                channel);
    return channels_[channel].busyTime();
}

Time
CommandScheduler::maxPlaneBusyTime() const
{
    Time m = 0;
    for (const auto &p : planes_)
        m = std::max(m, p.busyTime());
    return m;
}

} // namespace fcos::engine
