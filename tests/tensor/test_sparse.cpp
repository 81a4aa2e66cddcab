/** @file Sparse-format storage, conversion and wrapper tests. */

#include <gtest/gtest.h>

#include "base/rng.hh"
#include "common/random_csr.hh"
#include "tensor/sparse.hh"

using namespace gnnmark;
using test::randomCsr;

namespace {

bool
sameCsr(const CsrMatrix &a, const CsrMatrix &b)
{
    return a.rows == b.rows && a.cols == b.cols &&
           a.rowPtr == b.rowPtr && a.colIdx == b.colIdx &&
           a.vals == b.vals;
}

} // namespace

TEST(SparseFormat, NamesRoundTrip)
{
    for (SparseFormat f : {SparseFormat::Csr, SparseFormat::Coo,
                           SparseFormat::BlockedEll}) {
        SparseFormat parsed;
        ASSERT_TRUE(parseSparseFormat(sparseFormatName(f), &parsed));
        EXPECT_EQ(parsed, f);
    }
    SparseFormat parsed;
    EXPECT_TRUE(parseSparseFormat("blocked-ell", &parsed));
    EXPECT_EQ(parsed, SparseFormat::BlockedEll);
    EXPECT_FALSE(parseSparseFormat("csc", &parsed));
}

TEST(SparseConvert, CooRoundTripPreservesEntryOrder)
{
    Rng rng(11);
    const CsrMatrix csr = randomCsr(rng, 37, 29, 0.15);
    const CooMatrix coo = cooFromCsr(csr);
    coo.validate();
    EXPECT_EQ(coo.nnz(), csr.nnz());
    // Entry streams are identical, not merely equivalent.
    EXPECT_EQ(coo.colIdx, csr.colIdx);
    EXPECT_EQ(coo.vals, csr.vals);
    EXPECT_TRUE(sameCsr(csrFromCoo(coo), csr));
}

TEST(SparseConvert, BellRoundTripPreservesEntryOrder)
{
    Rng rng(12);
    const CsrMatrix csr = randomCsr(rng, 41, 33, 0.2);
    const BlockedEllMatrix bell = bellFromCsr(csr);
    bell.validate();
    EXPECT_EQ(bell.nnz(), csr.nnz());
    EXPECT_GE(bell.paddedNnz(), bell.nnz());
    EXPECT_TRUE(sameCsr(csrFromBell(bell), csr));
}

TEST(SparseConvert, BellPadsToBlockMaxDegree)
{
    // One 8-row block with degrees 3 and 1: width is 3, rows 2..7
    // are all padding.
    CsrMatrix csr = csrFromTriples(
        8, 8,
        {{0, 1, 1.0f}, {0, 3, 2.0f}, {0, 5, 3.0f}, {1, 2, 4.0f}});
    const BlockedEllMatrix bell = bellFromCsr(csr);
    EXPECT_EQ(bell.blockCount(), 1);
    EXPECT_EQ(bell.width(0), 3);
    EXPECT_EQ(bell.paddedNnz(), 8 * 3);
    EXPECT_EQ(bell.rowNnz[0], 3);
    EXPECT_EQ(bell.rowNnz[1], 1);
    EXPECT_EQ(bell.rowNnz[2], 0);
}

TEST(SparseConvert, EmptyMatrixAllFormats)
{
    const CsrMatrix csr = csrFromTriples(5, 7, {});
    const CooMatrix coo = cooFromCsr(csr);
    const BlockedEllMatrix bell = bellFromCsr(csr);
    EXPECT_EQ(coo.nnz(), 0);
    EXPECT_EQ(bell.nnz(), 0);
    EXPECT_TRUE(sameCsr(csrFromCoo(coo), csr));
    EXPECT_TRUE(sameCsr(csrFromBell(bell), csr));
}

TEST(SparseMatrixWrap, FormatAndShapeSurface)
{
    Rng rng(13);
    SparseMatrix m(randomCsr(rng, 24, 18, 0.3));
    EXPECT_EQ(m.format(), SparseFormat::Csr);
    EXPECT_EQ(m.rows(), 24);
    EXPECT_EQ(m.cols(), 18);
    EXPECT_GT(m.nnz(), 0);
    EXPECT_NEAR(m.density(),
                static_cast<double>(m.nnz()) / (24.0 * 18.0), 1e-12);
    EXPECT_GT(m.footprintBytes(), 0);
}

TEST(SparseMatrixWrap, ToFormatRoundTripsAndShares)
{
    Rng rng(14);
    SparseMatrix csr(randomCsr(rng, 30, 30, 0.2));
    SparseMatrix bell = csr.toFormat(SparseFormat::BlockedEll);
    EXPECT_EQ(bell.format(), SparseFormat::BlockedEll);
    EXPECT_EQ(bell.nnz(), csr.nnz());
    EXPECT_TRUE(sameCsr(bell.toCsr(), csr.csr()));
    // Same-format conversion shares storage (same underlying CSR).
    SparseMatrix same = csr.toFormat(SparseFormat::Csr);
    EXPECT_EQ(&same.csr(), &csr.csr());
    // Blocked-ELL pads, so its footprint is never smaller than COO's
    // value+index payload for the same entries.
    EXPECT_GE(bell.footprintBytes(), bell.nnz() * 8);
}

TEST(SparseMatrixWrapDeath, WrongAccessorPanics)
{
    SparseMatrix m(csrFromTriples(4, 4, {{0, 1, 1.0f}}));
    EXPECT_DEATH(m.coo(), "not coo");
    EXPECT_DEATH(m.bell(), "not bell");
}

TEST(SparseCooDeath, UnsortedEntriesPanic)
{
    CooMatrix coo;
    coo.rows = 2;
    coo.cols = 2;
    coo.rowIdx = {1, 0};
    coo.colIdx = {0, 1};
    coo.vals = {1.0f, 2.0f};
    EXPECT_DEATH(coo.validate(), "sorted");
}
