/**
 * @file
 * RequestQueue unit tests: bounded admission depth, conflict-grained
 * serialization in arrival order, WFQ class weights, staged arrivals,
 * and the per-request completion protocol.
 */

#include <gtest/gtest.h>

#include <vector>

#include "engine/admission.h"
#include "engine/chip_farm.h"
#include "engine/scheduler.h"

namespace fcos::engine {
namespace {

ssd::SsdConfig
smallFarm(std::uint32_t channels, std::uint32_t dies)
{
    ssd::SsdConfig fc;
    fc.channels = channels;
    fc.dies = dies;
    fc.geometry = nand::Geometry::tiny();
    return fc;
}

/** A one-step program occupying (@p die, plane 0) for @p latency;
 *  @p done fires at its completion. */
ColumnProgram
timedRead(std::uint32_t die, Time latency, CommandScheduler::Callback done)
{
    ColumnProgram prog = stepProgram(
        die, 0,
        {StepKind::PageRead,
         [latency](nand::NandChip &) { return nand::OpResult{latency, 0.0}; },
         0, 0});
    prog.onComplete = std::move(done);
    return prog;
}

/** Harness: scheduler over a farm plus an event log of request
 *  lifecycles (admission order, timestamps). */
struct Rig
{
    explicit Rig(std::uint32_t dies, RequestQueue::Config cfg = {})
        : farm(smallFarm(1, dies)), sched(farm), rq(sched, cfg)
    {}

    /** Submit a request whose work is one fixed-latency op on
     *  (die, plane 0); logs "<tag>@<admit us>" at admission. */
    RequestId oneOpRequest(RequestClass cls, std::uint32_t die,
                           std::string tag, double us,
                           std::vector<std::uint64_t> reads = {},
                           std::vector<std::uint64_t> writes = {},
                           Time arrival = 0)
    {
        return rq.submit(
            cls, arrival, std::move(reads), std::move(writes),
            [this, die, tag, us](RequestId id) {
                admitted.push_back(tag);
                admit_time.push_back(sched.queue().now());
                rq.addWork(id);
                sched.submit(timedRead(die, usToTime(us),
                                       [this, id] { rq.workDone(id); }));
            },
            [this, tag](const RequestQueue::Outcome &oc) {
                completed.push_back(tag);
                outcomes.push_back(oc);
            });
    }

    ChipFarm farm;
    CommandScheduler sched;
    RequestQueue rq;
    std::vector<std::string> admitted;
    std::vector<Time> admit_time;
    std::vector<std::string> completed;
    std::vector<RequestQueue::Outcome> outcomes;
};

TEST(AdmissionTest, IndependentRequestsAdmitImmediatelyAndOverlap)
{
    Rig rig(/*dies=*/4);
    for (int i = 0; i < 4; ++i)
        rig.oneOpRequest(RequestClass::Read, i, "r" + std::to_string(i),
                         10.0);
    // Depth 8 window: all four admitted synchronously at submit.
    EXPECT_EQ(rig.admitted.size(), 4u);
    EXPECT_EQ(rig.rq.inFlightCount(), 4u);
    rig.sched.drain();
    EXPECT_TRUE(rig.rq.idle());
    // Four dies, one 10 us op each, all admitted at t=0: they overlap
    // perfectly, so every completion lands at 10 us.
    ASSERT_EQ(rig.outcomes.size(), 4u);
    for (const RequestQueue::Outcome &oc : rig.outcomes) {
        EXPECT_EQ(oc.admitted, 0u);
        EXPECT_EQ(oc.completed, usToTime(10.0));
    }
}

TEST(AdmissionTest, DepthWindowDefersExcessRequests)
{
    RequestQueue::Config cfg;
    cfg.depth = 2;
    Rig rig(/*dies=*/4, cfg);
    for (int i = 0; i < 4; ++i)
        rig.oneOpRequest(RequestClass::Read, i, "r" + std::to_string(i),
                         10.0);
    // Only the window fits; the rest wait despite touching idle dies.
    EXPECT_EQ(rig.admitted.size(), 2u);
    EXPECT_EQ(rig.rq.pendingCount(), 2u);
    rig.sched.drain();
    ASSERT_EQ(rig.admitted.size(), 4u);
    // r2/r3 entered only when r0/r1 finished at 10 us.
    EXPECT_EQ(rig.admit_time[2], usToTime(10.0));
    EXPECT_EQ(rig.admit_time[3], usToTime(10.0));
    EXPECT_TRUE(rig.rq.idle());
}

TEST(AdmissionTest, WriterSerializesAgainstEveryKeyToucher)
{
    Rig rig(/*dies=*/4);
    // w0 writes key 7; r1 reads key 7; w2 writes key 7. All target
    // *different* dies, so only the keys can serialize them.
    rig.oneOpRequest(RequestClass::Write, 0, "w0", 10.0, {}, {7});
    rig.oneOpRequest(RequestClass::Read, 1, "r1", 10.0, {7}, {});
    rig.oneOpRequest(RequestClass::Write, 2, "w2", 10.0, {}, {7});
    EXPECT_EQ(rig.rq.inFlightCount(), 1u);
    rig.sched.drain();
    // Strict arrival order, back to back on the timeline.
    EXPECT_EQ(rig.admitted,
              (std::vector<std::string>{"w0", "r1", "w2"}));
    EXPECT_EQ(rig.admit_time[1], usToTime(10.0));
    EXPECT_EQ(rig.admit_time[2], usToTime(20.0));
}

TEST(AdmissionTest, ReadersOfOneKeyOverlap)
{
    Rig rig(/*dies=*/4);
    rig.oneOpRequest(RequestClass::Read, 0, "r0", 10.0, {7}, {});
    rig.oneOpRequest(RequestClass::Read, 1, "r1", 10.0, {7}, {});
    // Shared readers: both admitted at once.
    EXPECT_EQ(rig.rq.inFlightCount(), 2u);
    rig.sched.drain();
    EXPECT_EQ(rig.outcomes[0].completed, usToTime(10.0));
    EXPECT_EQ(rig.outcomes[1].completed, usToTime(10.0));
}

TEST(AdmissionTest, LaterIndependentRequestOvertakesBlockedOne)
{
    Rig rig(/*dies=*/4);
    rig.oneOpRequest(RequestClass::Write, 0, "w0", 10.0, {}, {7});
    rig.oneOpRequest(RequestClass::Write, 1, "w1", 10.0, {}, {7});
    rig.oneOpRequest(RequestClass::Read, 2, "r2", 10.0, {9}, {});
    // w1 waits on w0's key, but r2 is independent and overtakes it.
    EXPECT_EQ(rig.admitted,
              (std::vector<std::string>{"w0", "r2"}));
    rig.sched.drain();
    EXPECT_EQ(rig.admitted,
              (std::vector<std::string>{"w0", "r2", "w1"}));
}

TEST(AdmissionTest, QosWeightsProportionAdmissionsUnderContention)
{
    RequestQueue::Config cfg;
    cfg.depth = 1;
    cfg.weights[static_cast<std::size_t>(RequestClass::Read)] = 2;
    cfg.weights[static_cast<std::size_t>(RequestClass::Compute)] = 1;
    Rig rig(/*dies=*/2, cfg);
    // Occupy the window so everything below queues behind it.
    rig.oneOpRequest(RequestClass::Write, 0, "seed", 1.0);
    for (int i = 0; i < 6; ++i)
        rig.oneOpRequest(RequestClass::Compute, 0,
                         "c" + std::to_string(i), 1.0);
    for (int i = 0; i < 6; ++i)
        rig.oneOpRequest(RequestClass::Read, 1,
                         "r" + std::to_string(i), 1.0);
    rig.sched.drain();
    // Integer WFQ at 2:1 admits two reads per compute (the read class
    // reaches each virtual finish tag twice as often; ties break
    // toward the lower class index). Expected pattern after the seed:
    // r r c r r c ... until the reads run dry.
    EXPECT_EQ(rig.admitted,
              (std::vector<std::string>{"seed", "r0", "r1", "c0", "r2",
                                        "r3", "c1", "r4", "r5", "c2",
                                        "c3", "c4", "c5"}));
}

TEST(AdmissionTest, FutureArrivalIsStagedOnTheClock)
{
    Rig rig(/*dies=*/1);
    rig.oneOpRequest(RequestClass::Read, 0, "late", 5.0, {}, {},
                     usToTime(100.0));
    // Not yet arrived: no admission, but the queue is not idle.
    EXPECT_EQ(rig.admitted.size(), 0u);
    EXPECT_EQ(rig.rq.pendingCount(), 0u);
    EXPECT_FALSE(rig.rq.idle());
    rig.sched.drain();
    ASSERT_EQ(rig.admit_time.size(), 1u);
    EXPECT_EQ(rig.admit_time[0], usToTime(100.0));
    EXPECT_EQ(rig.outcomes[0].arrival, usToTime(100.0));
    EXPECT_EQ(rig.outcomes[0].completed, usToTime(105.0));
}

TEST(AdmissionTest, MultiUnitRequestCompletesAtItsLastUnit)
{
    Rig rig(/*dies=*/2);
    RequestId id = rig.rq.submit(
        RequestClass::Compute, 0, {}, {},
        [&rig](RequestId rid) {
            for (std::uint32_t die = 0; die < 2; ++die) {
                rig.rq.addWork(rid);
                rig.sched.submit(
                    timedRead(die, usToTime(die ? 30.0 : 10.0),
                              [&rig, rid] { rig.rq.workDone(rid); }));
            }
        },
        [&rig](const RequestQueue::Outcome &oc) {
            rig.outcomes.push_back(oc);
        });
    (void)id;
    rig.sched.drain();
    ASSERT_EQ(rig.outcomes.size(), 1u);
    EXPECT_EQ(rig.outcomes[0].completed, usToTime(30.0));
    EXPECT_EQ(rig.rq.completedCount(), 1u);
}

TEST(AdmissionTest, ClassCountersTrackAdmissions)
{
    Rig rig(/*dies=*/4);
    rig.oneOpRequest(RequestClass::Read, 0, "r", 1.0);
    rig.oneOpRequest(RequestClass::Write, 1, "w", 1.0);
    rig.oneOpRequest(RequestClass::Compute, 2, "c", 1.0);
    rig.sched.drain();
    EXPECT_EQ(rig.rq.admittedCount(RequestClass::Read), 1u);
    EXPECT_EQ(rig.rq.admittedCount(RequestClass::Write), 1u);
    EXPECT_EQ(rig.rq.admittedCount(RequestClass::Compute), 1u);
    EXPECT_EQ(rig.rq.completedCount(), 3u);
}

} // namespace
} // namespace fcos::engine
