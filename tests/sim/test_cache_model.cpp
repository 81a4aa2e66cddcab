/** @file Tests for the set-associative LRU cache model. */

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "base/rng.hh"
#include "sim/cache_model.hh"

using namespace gnnmark;

TEST(CacheModel, ColdMissThenHit)
{
    CacheModel c(1024, 2, 64);
    EXPECT_FALSE(c.access(0));
    EXPECT_TRUE(c.access(0));
    EXPECT_TRUE(c.access(63));  // same line
    EXPECT_FALSE(c.access(64)); // next line
    EXPECT_EQ(c.hits(), 2u);
    EXPECT_EQ(c.misses(), 2u);
}

TEST(CacheModel, LruEvictsOldest)
{
    // 2-way, 1 set: capacity 2 lines.
    CacheModel c(128, 2, 64);
    c.access(0);   // A
    c.access(64);  // B
    c.access(0);   // touch A; B is now LRU
    c.access(128); // C evicts B
    EXPECT_TRUE(c.access(0));
    EXPECT_FALSE(c.access(64)); // B was evicted
}

TEST(CacheModel, SetIndexingSeparatesSets)
{
    // 2 sets, direct-mapped: lines 0 and 1 land in different sets.
    CacheModel c(128, 1, 64);
    c.access(0);
    c.access(64);
    EXPECT_TRUE(c.access(0));
    EXPECT_TRUE(c.access(64));
    // Conflicting line in set 0 evicts line 0 only.
    c.access(128);
    EXPECT_FALSE(c.access(0));
    EXPECT_TRUE(c.access(64));
}

TEST(CacheModel, FlushDropsEverything)
{
    CacheModel c(1024, 4, 64);
    c.access(0);
    c.flush();
    EXPECT_FALSE(c.access(0));
}

TEST(CacheModel, ProbeDoesNotFill)
{
    CacheModel c(1024, 4, 64);
    EXPECT_FALSE(c.probe(0));
    EXPECT_FALSE(c.access(0)); // still a miss: probe didn't fill
    EXPECT_TRUE(c.probe(0));
}

TEST(CacheModel, ResetStatsKeepsContents)
{
    CacheModel c(1024, 4, 64);
    c.access(0);
    c.resetStats();
    EXPECT_EQ(c.accesses(), 0u);
    EXPECT_TRUE(c.access(0)); // line survived the stats reset
}

TEST(CacheModel, HitRate)
{
    CacheModel c(1024, 4, 64);
    EXPECT_EQ(c.hitRate(), 0.0);
    c.access(0);
    c.access(0);
    c.access(0);
    c.access(0);
    EXPECT_NEAR(c.hitRate(), 0.75, 1e-9);
}

TEST(CacheModelDeath, BadGeometryPanics)
{
    EXPECT_DEATH(CacheModel(100, 2, 64), "multiple");
    EXPECT_DEATH(CacheModel(1024, 2, 63), "power of two");
}

/**
 * Property: a working set no larger than the capacity never misses
 * after the first (cold) pass, for any associativity.
 */
class CacheResidency : public ::testing::TestWithParam<int>
{
};

TEST_P(CacheResidency, WorkingSetFitsAfterWarmup)
{
    const int assoc = GetParam();
    CacheModel c(64 * 64, assoc, 64); // 64 lines capacity
    for (int round = 0; round < 3; ++round) {
        for (uint64_t line = 0; line < 64; ++line)
            c.access(line * 64);
    }
    EXPECT_EQ(c.misses(), 64u);
    EXPECT_EQ(c.hits(), 128u);
}

TEST_P(CacheResidency, ThrashingWorkingSetMissesEveryTime)
{
    const int assoc = GetParam();
    CacheModel c(64 * 64, assoc, 64);
    // Working set = 2x capacity, streamed cyclically: true LRU evicts
    // the line just before it would be reused.
    uint64_t miss_before = 0;
    for (int round = 0; round < 4; ++round) {
        for (uint64_t line = 0; line < 128; ++line)
            c.access(line * 64);
    }
    miss_before = c.misses();
    EXPECT_EQ(miss_before, 4u * 128u); // everything misses
}

INSTANTIATE_TEST_SUITE_P(Assoc, CacheResidency,
                         ::testing::Values(1, 2, 4, 8, 16));

namespace {

constexpr int kLine = 64;

/**
 * Naive true-LRU reference: each set keeps its way indices in recency
 * order (most recent first), and a miss fills the lowest-indexed
 * invalid way before it evicts the least recently used one.
 */
class ReferenceLru
{
  public:
    ReferenceLru(uint64_t sets, int assoc)
        : ways_(sets, std::vector<uint64_t>(assoc, kEmpty)), order_(sets)
    {
    }

    bool
    access(uint64_t addr)
    {
        const uint64_t line = addr / kLine;
        std::vector<uint64_t> &ways = ways_[line % ways_.size()];
        std::vector<int> &order = order_[line % ways_.size()];
        for (size_t i = 0; i < order.size(); ++i) {
            const int w = order[i];
            if (ways[w] == line) {
                order.erase(order.begin() + i);
                order.insert(order.begin(), w);
                ++hits_;
                return true;
            }
        }
        int w;
        if (order.size() < ways.size()) {
            w = static_cast<int>(
                std::find(ways.begin(), ways.end(), kEmpty) - ways.begin());
        } else {
            w = order.back();
            order.pop_back();
        }
        ways[w] = line;
        order.insert(order.begin(), w);
        ++misses_;
        return false;
    }

    /** The per-line access() loop that CacheModel::accessLines names. */
    int64_t
    accessLines(uint64_t addr, uint64_t bytes, int64_t max_lines)
    {
        const int64_t count = std::min<int64_t>(
            static_cast<int64_t>((bytes + kLine - 1) / kLine), max_lines);
        for (int64_t i = 0; i < count; ++i)
            access((addr / kLine + i) * kLine);
        return count;
    }

    void
    flush()
    {
        for (size_t s = 0; s < ways_.size(); ++s) {
            std::fill(ways_[s].begin(), ways_[s].end(), kEmpty);
            order_[s].clear();
        }
    }

    uint64_t hits() const { return hits_; }
    uint64_t misses() const { return misses_; }

  private:
    static constexpr uint64_t kEmpty = ~0ULL;
    std::vector<std::vector<uint64_t>> ways_;
    std::vector<std::vector<int>> order_;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
};

/** What one call of the mix returned, and the counters after it. */
struct Step
{
    int64_t ret;
    uint64_t hits;
    uint64_t misses;

    bool operator==(const Step &) const = default;
};

/**
 * A seeded mix of access() (90%, half of them in a hot region of a
 * quarter of the capacity), accessLines() (9%, unaligned starts, up
 * to a capacity of lines, sometimes cut by max_lines) and flush()
 * (1%) over an address range twice the capacity. Records every step;
 * `lines` counts the lines the calls touched.
 */
template <class Model>
std::vector<Step>
driveMix(Model &m, uint64_t sets, int assoc, uint64_t seed, int calls,
         uint64_t *lines = nullptr)
{
    const uint64_t cap = sets * static_cast<uint64_t>(assoc) * kLine;
    Rng rng(seed);
    std::vector<Step> steps;
    steps.reserve(calls);
    uint64_t touched = 0;
    for (int i = 0; i < calls; ++i) {
        const uint64_t pick = rng.randint(100);
        int64_t ret;
        if (pick == 0) {
            m.flush();
            ret = -1;
        } else if (pick < 10) {
            const uint64_t addr = rng.randint(2 * cap);
            const uint64_t bytes = rng.randint(cap + 1);
            const int64_t max_lines =
                rng.randint(int64_t{1}, static_cast<int64_t>(cap / kLine));
            ret = m.accessLines(addr, bytes, max_lines);
            touched += static_cast<uint64_t>(ret);
        } else {
            const uint64_t range = rng.bernoulli(0.5) ? cap / 4 : 2 * cap;
            ret = m.access(rng.randint(range)) ? 1 : 0;
            ++touched;
        }
        steps.push_back({ret, m.hits(), m.misses()});
    }
    if (lines != nullptr)
        *lines = touched;
    return steps;
}

/** Index of the first differing step, or -1. */
int64_t
firstMismatch(const std::vector<Step> &a, const std::vector<Step> &b)
{
    for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
        if (!(a[i] == b[i]))
            return static_cast<int64_t>(i);
    }
    return a.size() == b.size() ? -1 : static_cast<int64_t>(a.size());
}

} // namespace

/**
 * CacheModel against the reference on seeded mixes, over (assoc,
 * sets). Associativities that are a multiple of four take the AVX2
 * scan on AVX2 hosts; the rest always take the scalar scan. Set counts
 * cover the power-of-two mask and the general modulo reduction.
 */
class CacheModelVsReference
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>>
{
};

TEST_P(CacheModelVsReference, MatchesOnSeededMix)
{
    const auto [assoc, sets] = GetParam();
    for (uint64_t seed = 1; seed <= 3; ++seed) {
        CacheModel c(sets * assoc * kLine, assoc, kLine);
        ReferenceLru ref(sets, assoc);
        const int calls = 3000;
        const auto got = driveMix(c, sets, assoc, seed, calls);
        const auto want = driveMix(ref, sets, assoc, seed, calls);
        ASSERT_EQ(firstMismatch(got, want), -1) << "seed " << seed;
        // The mix must exercise hits, misses and evictions.
        EXPECT_GT(c.hits(), 0u);
        EXPECT_GT(c.misses(), sets * assoc);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometry, CacheModelVsReference,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 8, 12, 16, 32, 64),
                       ::testing::Values(uint64_t{1}, uint64_t{16},
                                         uint64_t{24})));

TEST(CacheModel, AccessLinesEqualsPerLineAccessLoop)
{
    // Two models of the same geometry: one takes each range as one
    // accessLines() call, the other as the per-line access() loop.
    // Counters and contents (probed line by line) must agree.
    for (const int assoc : {3, 4, 16}) {
        const uint64_t sets = 24;
        const uint64_t cap = sets * assoc * kLine;
        CacheModel bulk(cap, assoc, kLine);
        CacheModel loop(cap, assoc, kLine);
        Rng rng(static_cast<uint64_t>(assoc));
        for (int i = 0; i < 400; ++i) {
            const uint64_t addr = rng.randint(2 * cap);
            const uint64_t bytes = rng.randint(cap + 1);
            const int64_t max_lines = rng.randint(
                int64_t{1}, static_cast<int64_t>(2 * cap / kLine));
            const int64_t want = std::min<int64_t>(
                static_cast<int64_t>((bytes + kLine - 1) / kLine),
                max_lines);
            ASSERT_EQ(bulk.accessLines(addr, bytes, max_lines), want);
            for (int64_t l = 0; l < want; ++l)
                loop.access((addr / kLine + l) * kLine);
            ASSERT_EQ(bulk.hits(), loop.hits()) << "call " << i;
            ASSERT_EQ(bulk.misses(), loop.misses()) << "call " << i;
        }
        for (uint64_t a = 0; a < 3 * cap; a += kLine)
            ASSERT_EQ(bulk.probe(a), loop.probe(a)) << "addr " << a;
    }
}

TEST(CacheModelInvariants, HitsPlusMissesCountEveryLine)
{
    for (const int assoc : {1, 3, 4, 16, 64}) {
        CacheModel c(24 * assoc * kLine, assoc, kLine);
        uint64_t lines = 0;
        driveMix(c, 24, assoc, 7, 3000, &lines);
        EXPECT_EQ(c.hits() + c.misses(), lines) << "assoc " << assoc;
        EXPECT_EQ(c.accesses(), lines) << "assoc " << assoc;
    }
}

TEST(CacheModelInvariants, MoreWaysNeverLowerHits)
{
    // LRU is a stack algorithm: at a fixed set count, the lines an
    // a-way set holds are always a subset of what an (a+1)-way set
    // holds, so adding ways can only turn misses into hits. Every
    // assoc sees the same stream; its address range is sized for 16
    // ways, so small caches thrash and large ones fit.
    for (const uint64_t sets : {uint64_t{16}, uint64_t{24}}) {
        uint64_t prev_hits = 0;
        for (const int assoc : {1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 16, 17,
                                24, 32, 48, 64}) {
            CacheModel c(sets * assoc * kLine, assoc, kLine);
            Rng rng(sets);
            const uint64_t range = 2 * sets * 16 * kLine;
            for (int i = 0; i < 20000; ++i) {
                if (i % 4000 == 3999)
                    c.flush();
                else if (i % 50 == 0)
                    c.accessLines(rng.randint(range), rng.randint(4096),
                                  1 << 20);
                else
                    c.access(rng.randint(rng.bernoulli(0.5) ? range / 8
                                                            : range));
            }
            EXPECT_GE(c.hits(), prev_hits)
                << "sets " << sets << " assoc " << assoc;
            prev_hits = c.hits();
        }
    }
}
