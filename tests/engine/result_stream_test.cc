/**
 * @file
 * OrderedChunkStream: out-of-order column completions must reach the
 * consumer in strictly increasing page order, with the peak number of
 * buffered pages equal to the arrival skew — the invariant that makes
 * streamed (ResultSink) reads O(window) instead of O(result).
 */

#include <gtest/gtest.h>

#include <vector>

#include "engine/result_stream.h"

namespace fcos::engine {
namespace {

BitVector
pageOf(std::uint64_t tag)
{
    BitVector v(64, false);
    v.words()[0] = tag;
    return v;
}

/** Pushes page @p j with its summary. */
void
pushPage(OrderedChunkStream &s, std::uint64_t j)
{
    s.push(j, pageOf(j), PageSummary::of(pageOf(j), 64));
}

TEST(OrderedChunkStreamTest, InOrderArrivalsEmitImmediately)
{
    std::vector<std::uint64_t> seen;
    OrderedChunkStream s(
        4, [&](std::uint64_t j, BitVector page, PageSummary summary) {
            EXPECT_EQ(page.words()[0], j);
            EXPECT_EQ(summary, PageSummary::of(page, 64));
            seen.push_back(j);
        });
    for (std::uint64_t j = 0; j < 4; ++j)
        pushPage(s, j);
    EXPECT_TRUE(s.complete());
    EXPECT_EQ(seen, (std::vector<std::uint64_t>{0, 1, 2, 3}));
    EXPECT_EQ(s.peakBufferedPages(), 0u);
}

TEST(OrderedChunkStreamTest, OutOfOrderArrivalsReorder)
{
    std::vector<std::uint64_t> seen;
    OrderedChunkStream s(
        5, [&](std::uint64_t j, BitVector page, PageSummary summary) {
            // A buffered page keeps its own summary.
            EXPECT_EQ(page.words()[0], j);
            EXPECT_EQ(summary, PageSummary::of(page, 64));
            seen.push_back(j);
        });
    // Reverse arrival of a full window, then the unblocking page.
    pushPage(s, 4);
    pushPage(s, 2);
    pushPage(s, 3);
    pushPage(s, 1);
    EXPECT_TRUE(seen.empty());
    EXPECT_EQ(s.peakBufferedPages(), 4u);
    pushPage(s, 0);
    EXPECT_TRUE(s.complete());
    EXPECT_EQ(seen, (std::vector<std::uint64_t>{0, 1, 2, 3, 4}));
}

TEST(OrderedChunkStreamTest, HandlerAdaptersBindIndices)
{
    std::vector<std::uint64_t> seen;
    OrderedChunkStream s(3, [&](std::uint64_t j, BitVector, PageSummary) {
        seen.push_back(j);
    });
    auto h2 = s.handler(2);
    auto h0 = s.handler(0);
    auto h1 = s.handler(1);
    h2(pageOf(2), PageSummary{});
    h0(pageOf(0), PageSummary{});
    h1(pageOf(1), PageSummary{});
    EXPECT_TRUE(s.complete());
    EXPECT_EQ(s.emitted(), 3u);
    EXPECT_EQ(seen, (std::vector<std::uint64_t>{0, 1, 2}));
    EXPECT_EQ(s.peakBufferedPages(), 1u);
}

TEST(OrderedChunkStreamTest, PeakTracksWorstSkewNotTotal)
{
    // Interleaved skew of one page: peak must stay 1 regardless of
    // stream length.
    OrderedChunkStream s(100,
                         [](std::uint64_t, BitVector, PageSummary) {});
    for (std::uint64_t j = 0; j + 1 < 100; j += 2) {
        pushPage(s, j + 1);
        pushPage(s, j);
    }
    EXPECT_TRUE(s.complete());
    EXPECT_EQ(s.peakBufferedPages(), 1u);
}

} // namespace
} // namespace fcos::engine
