/** @file KernelCounters arithmetic: the field list, the field-wise
 *  operators, the ratios, and OpClassStats::add built on them. */

#include <gtest/gtest.h>

#include <vector>

#include "profiler/profiler.hh"
#include "sim/kernel_record.hh"

using namespace gnnmark;

namespace {

/** Every counter of `c` by name: the 13 scalars, then the stalls. */
std::vector<double>
named(const KernelCounters &c)
{
    std::vector<double> v = {
        c.fp32Instrs, c.int32Instrs,    c.memInstrs,  c.miscInstrs,
        c.flops,      c.intOps,         c.loads,      c.divergentLoads,
        c.l1Accesses, c.l1Hits,         c.l2Accesses, c.l2Hits,
        c.dramBytes,
    };
    v.insert(v.end(), c.stallCycles.begin(), c.stallCycles.end());
    return v;
}

/** Distinct values in every field: base + 1 ... base + 19. */
KernelCounters
filled(double base)
{
    KernelCounters c;
    c.fp32Instrs = base + 1;
    c.int32Instrs = base + 2;
    c.memInstrs = base + 3;
    c.miscInstrs = base + 4;
    c.flops = base + 5;
    c.intOps = base + 6;
    c.loads = base + 7;
    c.divergentLoads = base + 8;
    c.l1Accesses = base + 9;
    c.l1Hits = base + 10;
    c.l2Accesses = base + 11;
    c.l2Hits = base + 12;
    c.dramBytes = base + 13;
    for (size_t r = 0; r < kNumStallReasons; ++r)
        c.stallCycles[r] = base + 14 + static_cast<double>(r);
    return c;
}

KernelRecord
launch(double base, double time_sec, double cycles)
{
    KernelRecord r;
    static_cast<KernelCounters &>(r) = filled(base);
    r.timeSec = time_sec;
    r.cycles = cycles;
    return r;
}

} // namespace

TEST(KernelCounters, FieldListNamesEveryScalarInOrder)
{
    const KernelCounters c = filled(0);
    const std::vector<double> want = named(c);
    ASSERT_EQ(want.size(), kKernelCounterFields.size() + kNumStallReasons);
    for (size_t i = 0; i < kKernelCounterFields.size(); ++i)
        EXPECT_EQ(c.*kKernelCounterFields[i], want[i]) << "field " << i;
}

TEST(KernelCounters, PlusEqualsAddsEachField)
{
    const std::vector<double> a = named(filled(0.25));
    const std::vector<double> b = named(filled(100));
    KernelCounters sum = filled(0.25);
    sum += filled(100);
    const std::vector<double> got = named(sum);
    for (size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], a[i] + b[i]) << "field " << i;
}

TEST(KernelCounters, TimesEqualsScalesEachField)
{
    const std::vector<double> a = named(filled(0.25));
    KernelCounters c = filled(0.25);
    c *= 2.5;
    const std::vector<double> got = named(c);
    for (size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], a[i] * 2.5) << "field " << i;
}

TEST(KernelCounters, DivideEqualsDividesEachField)
{
    const std::vector<double> a = named(filled(0.25));
    KernelCounters c = filled(0.25);
    c /= 3.0;
    const std::vector<double> got = named(c);
    for (size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], a[i] / 3.0) << "field " << i;
}

TEST(KernelCounters, RatiosAndTotal)
{
    const KernelCounters c = filled(0);
    EXPECT_EQ(c.totalInstrs(), 1.0 + 2.0 + 3.0 + 4.0);
    EXPECT_EQ(c.l1HitRate(), 10.0 / 9.0);
    EXPECT_EQ(c.l2HitRate(), 12.0 / 11.0);
    EXPECT_EQ(c.divergentLoadFraction(), 8.0 / 7.0);
}

TEST(KernelCounters, RatiosAreZeroOnZeroDenominator)
{
    KernelCounters c;
    c.l1Hits = 5;
    c.l2Hits = 6;
    c.divergentLoads = 7;
    EXPECT_EQ(c.l1HitRate(), 0.0);
    EXPECT_EQ(c.l2HitRate(), 0.0);
    EXPECT_EQ(c.divergentLoadFraction(), 0.0);
    EXPECT_EQ(KernelCounters().totalInstrs(), 0.0);
}

TEST(OpClassStats, AddSumsRecordsInOrder)
{
    // Magnitudes far apart, so a different summation order would round
    // differently.
    const std::vector<KernelRecord> records = {
        launch(0.1, 1e-3, 1e6), launch(1e16, 2e-3, 3e6),
        launch(-1e16, 4e-3, 5e6)};
    OpClassStats stats;
    KernelCounters sum;
    for (const KernelRecord &r : records) {
        stats.add(r);
        sum += r;
    }
    EXPECT_EQ(named(stats), named(sum));
    EXPECT_EQ(stats.launches, 3);
    EXPECT_EQ(stats.timeSec, (1e-3 + 2e-3) + 4e-3);
    EXPECT_EQ(stats.cycles, (1e6 + 3e6) + 5e6);
}
