#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "ledger.hh"

namespace gnnmark {
namespace hostbench {
namespace {

std::vector<double>
oneToN(int n)
{
    std::vector<double> v;
    for (int i = n; i >= 1; --i) // reversed: nearestRank must sort
        v.push_back(i);
    return v;
}

TEST(Percentile, NearestRankIsCeilOfQTimesN)
{
    EXPECT_EQ(nearestRankIndex(20, 0.5), 10);
    EXPECT_EQ(nearestRankIndex(21, 0.5), 11);
    EXPECT_EQ(nearestRankIndex(100, 0.9), 90);
    EXPECT_EQ(nearestRankIndex(101, 0.9), 91);
    EXPECT_EQ(nearestRankIndex(5, 0.0), 1);
    EXPECT_EQ(nearestRankIndex(5, 1.0), 5);
    EXPECT_EQ(*nearestRank(oneToN(20), 0.5), 10.0);
    EXPECT_EQ(*nearestRank(oneToN(1000), 0.99), 990.0);
    EXPECT_EQ(*nearestRank(oneToN(101), 0.9), 91.0);
}

TEST(Percentile, NeedsTenSamplesBeyondTheRank)
{
    EXPECT_FALSE(percentileSupported(0, 0.5));
    EXPECT_FALSE(percentileSupported(19, 0.5));
    EXPECT_TRUE(percentileSupported(20, 0.5));
    EXPECT_FALSE(percentileSupported(99, 0.9));
    EXPECT_TRUE(percentileSupported(100, 0.9));
    EXPECT_FALSE(percentileSupported(999, 0.99));
    EXPECT_TRUE(percentileSupported(1000, 0.99));
    EXPECT_FALSE(nearestRank(oneToN(99), 0.9).has_value());
    EXPECT_TRUE(nearestRank(oneToN(100), 0.9).has_value());
}

TEST(Percentile, MedianHasNoSupportRule)
{
    EXPECT_EQ(median({}), 0.0);
    EXPECT_EQ(median({3.0}), 3.0);
    EXPECT_EQ(median({4.0, 1.0, 3.0}), 3.0);
    EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.0);
}

TEST(Percentile, GeomeanWeighsEverySampleAlike)
{
    EXPECT_EQ(geomean({}), 0.0);
    EXPECT_DOUBLE_EQ(geomean({5.0}), 5.0);
    EXPECT_DOUBLE_EQ(geomean({2.0, 8.0}), 4.0);
    // Doubling one of four samples moves the mean by 2^(1/4).
    EXPECT_DOUBLE_EQ(geomean({1.0, 2.0, 4.0, 16.0}) * std::pow(2.0, 0.25),
                     geomean({1.0, 2.0, 4.0, 32.0}));
}

obs::ThreadSpans
thread(std::vector<obs::SpanEvent> spans)
{
    obs::ThreadSpans t;
    t.spans = std::move(spans);
    return t;
}

double
selfOf(const std::vector<SelfSpan> &spans, const std::string &name)
{
    double total = 0;
    for (const SelfSpan &s : spans)
        if (name == s.name)
            total += s.selfUs;
    return total;
}

TEST(SelfTime, NestedChildrenAreSubtractedOnce)
{
    // outer [0,100) holds mid [10,60) and a sibling leaf [70,80);
    // mid holds leaf [20,30) and [40,55). Recorded in end order, as
    // the tracer records them.
    const auto spans = selfTimes({thread({
        {"leaf", 20, 10},
        {"leaf", 40, 15},
        {"mid", 10, 50},
        {"leaf", 70, 10},
        {"outer", 0, 100},
    })});
    ASSERT_EQ(spans.size(), 5u);
    EXPECT_DOUBLE_EQ(selfOf(spans, "outer"), 100 - 50 - 10);
    EXPECT_DOUBLE_EQ(selfOf(spans, "mid"), 50 - 10 - 15);
    EXPECT_DOUBLE_EQ(selfOf(spans, "leaf"), 10 + 15 + 10);
    double total = 0;
    for (const SelfSpan &s : spans)
        total += s.selfUs;
    EXPECT_DOUBLE_EQ(total, 100); // self times tile the root
}

TEST(SelfTime, ChildStartingWithParentAndTouchingSiblings)
{
    const auto spans = selfTimes({thread({
        {"a", 0, 10},  // starts with its parent
        {"b", 10, 10}, // starts where a ends: a sibling, not a child
        {"p", 0, 30},
        {"q", 30, 5}, // starts where p ends: not p's child
    })});
    EXPECT_DOUBLE_EQ(selfOf(spans, "p"), 10);
    EXPECT_DOUBLE_EQ(selfOf(spans, "a"), 10);
    EXPECT_DOUBLE_EQ(selfOf(spans, "b"), 10);
    EXPECT_DOUBLE_EQ(selfOf(spans, "q"), 5);
}

TEST(SelfTime, ThreadsAreIndependent)
{
    // The op on the host waits [0,100) while a worker runs a chunk
    // over [10,90). The worker's chunk overlaps the op in time but is
    // on another thread, so it is not the op's child.
    const auto spans = selfTimes({
        thread({{"op.gemm.chunk", 5, 20}, {"op.gemm", 0, 100}}),
        thread({{"op.gemm.chunk", 10, 80}}),
        thread({{"idle", 0, 3}}),
    });
    ASSERT_EQ(spans.size(), 4u);
    EXPECT_DOUBLE_EQ(selfOf(spans, "op.gemm"), 80);
    EXPECT_DOUBLE_EQ(selfOf(spans, "op.gemm.chunk"), 20 + 80);
    EXPECT_DOUBLE_EQ(selfOf(spans, "idle"), 3);
}

TEST(Digest, IsStableFnv1a)
{
    EXPECT_EQ(digest(""), "cbf29ce484222325");
    EXPECT_EQ(digest("a"), "af63dc4c8601ec8c");
    EXPECT_NE(digest("figures"), digest("figures "));
}

TEST(Reference, ParsesKeysCommentsAndRejectsJunk)
{
    const ReferenceTable t = parseReference(
        "# comment\n\ntrain-dense/GW/figures 0123456789abcdef\n"
        "train-dense/GW/losses fedcba9876543210  # trailing\n");
    ASSERT_EQ(t.size(), 2u);
    EXPECT_EQ(t.at("train-dense/GW/figures"), "0123456789abcdef");
    EXPECT_THROW(parseReference("lonely-key\n"), std::runtime_error);
    EXPECT_THROW(parseReference("k v extra\n"), std::runtime_error);
    EXPECT_THROW(parseReference("k a\nk b\n"), std::runtime_error);
}

TEST(Accounting, WrongDigestFailsTheItem)
{
    const ReferenceTable ref = {{"w/m/figures", digest("expected")}};
    Tally tally;

    ItemCheck good;
    good.matchReference(ref, "w/m/figures", digest("expected"));
    tally.add(good);
    EXPECT_TRUE(good.ok());

    ItemCheck wrong;
    wrong.matchReference(ref, "w/m/figures", digest("something else"));
    tally.add(wrong);
    EXPECT_FALSE(wrong.ok());
    ASSERT_EQ(wrong.failures().size(), 1u);

    EXPECT_EQ(tally.attempted, 2);
    EXPECT_EQ(tally.failed, 1);
}

TEST(Accounting, MissingReferenceFailsTheItem)
{
    ItemCheck check;
    check.matchReference({}, "w/m/losses", digest("x"));
    EXPECT_FALSE(check.ok());
}

TEST(Accounting, AnyFailedCheckFailsTheItemOnce)
{
    ItemCheck check;
    check.require(true, "fine");
    check.require(false, "loss not finite");
    check.require(false, "replay differs");
    Tally tally;
    tally.add(check);
    EXPECT_EQ(tally.attempted, 1);
    EXPECT_EQ(tally.failed, 1);
    EXPECT_EQ(check.failures().size(), 2u);
}

} // namespace
} // namespace hostbench
} // namespace gnnmark
