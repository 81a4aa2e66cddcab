/**
 * @file
 * Shared random sparse operand for the sparse-kernel tests: each cell
 * is kept with probability `density` and drawn from rng.normal().
 */

#ifndef GNNMARK_TESTS_COMMON_RANDOM_CSR_HH
#define GNNMARK_TESTS_COMMON_RANDOM_CSR_HH

#include <cstdint>
#include <tuple>
#include <utility>
#include <vector>

#include "base/rng.hh"
#include "tensor/sparse.hh"

namespace gnnmark {
namespace test {

inline CsrMatrix
randomCsr(Rng &rng, int64_t rows, int64_t cols, double density)
{
    std::vector<std::tuple<int32_t, int32_t, float>> triples;
    for (int64_t r = 0; r < rows; ++r) {
        for (int64_t c = 0; c < cols; ++c) {
            if (rng.bernoulli(density)) {
                triples.emplace_back(
                    static_cast<int32_t>(r), static_cast<int32_t>(c),
                    static_cast<float>(rng.normal()));
            }
        }
    }
    return csrFromTriples(rows, cols, std::move(triples));
}

} // namespace test
} // namespace gnnmark

#endif // GNNMARK_TESTS_COMMON_RANDOM_CSR_HH
