/** @file SpMM correctness and emission tests. */

#include <gtest/gtest.h>

#include "base/rng.hh"
#include "common/random_csr.hh"
#include "ops/exec_context.hh"
#include "ops/gemm.hh"
#include "ops/spmm.hh"
#include "profiler/profiler.hh"

using namespace gnnmark;
using test::randomCsr;

namespace {

/** Densify a CSR for a GEMM cross-check. */
Tensor
densify(const CsrMatrix &m)
{
    Tensor d = Tensor::zeros({m.rows, m.cols});
    for (int64_t r = 0; r < m.rows; ++r) {
        for (int32_t e = m.rowPtr[r]; e < m.rowPtr[r + 1]; ++e)
            d(r, m.colIdx[e]) += m.vals[e];
    }
    return d;
}

} // namespace

class SpmmSweep : public ::testing::TestWithParam<
                      std::tuple<int64_t, int64_t, int64_t, double>>
{
};

TEST_P(SpmmSweep, MatchesDenseGemm)
{
    auto [rows, cols, feats, density] = GetParam();
    Rng rng(rows * 131 + cols + feats);
    SparseMatrix a(randomCsr(rng, rows, cols, density));
    Tensor b = Tensor::randn({cols, feats}, rng);
    Tensor sparse_result = ops::spmm(a, b);
    Tensor dense_result = ops::gemm(densify(a.csr()), b);
    EXPECT_TRUE(allClose(sparse_result, dense_result, 1e-3f, 1e-4f));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SpmmSweep,
    ::testing::Combine(::testing::Values(1, 13, 50),
                       ::testing::Values(5, 40),
                       ::testing::Values(1, 16, 33),
                       ::testing::Values(0.0, 0.1, 0.5)));

TEST(Spmm, EmptyMatrixGivesZeros)
{
    Rng rng(9);
    SparseMatrix a(csrFromTriples(4, 4, {}));
    Tensor b = Tensor::randn({4, 8}, rng);
    Tensor c = ops::spmm(a, b);
    EXPECT_FLOAT_EQ(maxAbsDiff(c, Tensor::zeros({4, 8})), 0.0f);
}

TEST(Spmm, IdentityPreservesInput)
{
    Rng rng(10);
    std::vector<std::tuple<int32_t, int32_t, float>> eye;
    for (int32_t i = 0; i < 12; ++i)
        eye.emplace_back(i, i, 1.0f);
    SparseMatrix a(csrFromTriples(12, 12, std::move(eye)));
    Tensor b = Tensor::randn({12, 7}, rng);
    EXPECT_TRUE(allClose(ops::spmm(a, b), b));
}

TEST(SpmmDeath, DimensionMismatchPanics)
{
    SparseMatrix a(csrFromTriples(3, 5, {{0, 1, 1.0f}}));
    Tensor b = Tensor::zeros({4, 2});
    EXPECT_DEATH(ops::spmm(a, b), "spmm");
}

TEST(Spmm, EmitsSpMMClassKernel)
{
    GpuDevice dev;
    Profiler prof;
    dev.addObserver(&prof);
    Rng rng(11);
    SparseMatrix a(randomCsr(rng, 64, 64, 0.1));
    Tensor b = Tensor::randn({64, 32}, rng);
    {
        ContextGuard guard(&dev);
        ops::spmm(a, b);
    }
    const OpClassStats &s = prof.classStats(OpClass::SpMM);
    EXPECT_EQ(s.launches, 1);
    EXPECT_GT(s.flops, 0);
    EXPECT_GT(s.intOps, 0);
}
