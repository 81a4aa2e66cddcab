#include "sim/cache_model.hh"

#include <algorithm>
#include <bit>

#include "base/cpu_features.hh"
#include "base/logging.hh"

#if GNNMARK_AVX2
#include <immintrin.h>
#endif

namespace gnnmark {

CacheModel::CacheModel(uint64_t size_bytes, int assoc, int line_bytes)
    : assoc_(assoc), lineBytes_(line_bytes)
{
    GNN_ASSERT(assoc > 0 && assoc <= 64,
               "cache associativity must be in [1, 64]");
    GNN_ASSERT(line_bytes > 0 && std::has_single_bit(
                   static_cast<uint64_t>(line_bytes)),
               "line size must be a power of two");
    GNN_ASSERT(size_bytes % (static_cast<uint64_t>(line_bytes) * assoc) == 0,
               "cache size must be a multiple of line*assoc");
    lineShift_ = std::countr_zero(static_cast<uint64_t>(line_bytes));
    numSets_ = size_bytes / (static_cast<uint64_t>(line_bytes) * assoc);
    GNN_ASSERT(numSets_ > 0, "cache must have at least one set");
    if (std::has_single_bit(numSets_))
        setMask_ = numSets_ - 1;
    // The vector scan covers four ways per instruction, so it needs a
    // multiple of four. Below kMinVectorAssoc (the 4-way L1 and L1I)
    // it measured no faster end to end; see DESIGN.md §2.
    vectorScan_ = hostHasAvx2() && assoc_ % 4 == 0 &&
                  assoc_ >= kMinVectorAssoc;
    tags_.assign(numSets_ * assoc_, kInvalidTag);
    lastUse_.assign(numSets_ * assoc_, 0);
}

#if GNNMARK_AVX2
__attribute__((target("avx2"))) inline int
CacheModel::scanSetAvx2(uint64_t line, size_t base) const
{
    const auto *tags =
        reinterpret_cast<const __m256i *>(tags_.data() + base);
    const __m256i key = _mm256_set1_epi64x(static_cast<long long>(line));
    uint64_t match = 0;
    for (int g = 0; g < assoc_ / 4; ++g) {
        const __m256i eq =
            _mm256_cmpeq_epi64(_mm256_loadu_si256(tags + g), key);
        match |= static_cast<uint64_t>(_mm256_movemask_pd(
                     _mm256_castsi256_pd(eq)))
                 << (4 * g);
    }
    // A line appears at most once per set, so any match is the match.
    if (match != 0)
        return std::countr_zero(match);

    // Min over the same lruKey() packing as lruWay(). Keys stay below
    // 2^63, so the signed 64-bit compare orders them exactly, and the
    // way bits make every key distinct.
    const auto *use =
        reinterpret_cast<const __m256i *>(lastUse_.data() + base);
    __m256i way = _mm256_setr_epi64x(0, 1, 2, 3);
    const __m256i four = _mm256_set1_epi64x(4);
    __m256i best = _mm256_set1_epi64x(~0ULL >> 1);
    for (int g = 0; g < assoc_ / 4; ++g) {
        const __m256i k = _mm256_or_si256(
            _mm256_slli_epi64(_mm256_loadu_si256(use + g), 6), way);
        best = _mm256_blendv_epi8(best, k, _mm256_cmpgt_epi64(best, k));
        way = _mm256_add_epi64(way, four);
    }
    __m128i m = _mm256_castsi256_si128(best);
    __m128i hi = _mm256_extracti128_si256(best, 1);
    m = _mm_blendv_epi8(m, hi, _mm_cmpgt_epi64(m, hi));
    hi = _mm_unpackhi_epi64(m, m);
    m = _mm_blendv_epi8(m, hi, _mm_cmpgt_epi64(m, hi));
    return ~static_cast<int>(_mm_cvtsi128_si64(m) & 63);
}
#endif

template <bool kAvx2>
[[gnu::always_inline]] inline int64_t
CacheModel::walkLines(uint64_t addr, uint64_t bytes, int64_t max_lines)
{
    uint64_t line = addr >> lineShift_;
    const int64_t span = static_cast<int64_t>(
        (bytes + static_cast<uint64_t>(lineBytes_) - 1) >> lineShift_);
    const int64_t count = std::min<int64_t>(span, max_lines);
    // Consecutive lines map to consecutive sets, so one reduction
    // seeds an increment-and-wrap walk; each step is exactly access().
    // Adjacent sets tend to hold a range's tags at the same way index
    // (they were filled during the same pass), so the previous line's
    // way is probed first — a pure scan-order shortcut (see scanFill).
    uint64_t set = setIndex(line);
    int hint = 0;
    for (int64_t i = 0; i < count; ++i) {
        const size_t base = static_cast<size_t>(set) * assoc_;
        ++clock_;
        if (tags_[base + hint] == line) {
            hitAt(base, hint);
        } else {
            int r;
            if constexpr (kAvx2)
                r = settle(line, base, scanSetAvx2(line, base));
            else
                r = scanFill(line, base);
            hint = r >= 0 ? r : ~r;
        }
        ++line;
        if (++set == numSets_)
            set = 0;
    }
    return count;
}

#if GNNMARK_AVX2
__attribute__((target("avx2"))) int
CacheModel::scanFillAvx2(uint64_t line, size_t base)
{
    return settle(line, base, scanSetAvx2(line, base));
}

// The walk inlined around scanSetAvx2(), so a bulk install pays no
// call per missed line.
__attribute__((target("avx2"))) int64_t
CacheModel::accessLinesAvx2(uint64_t addr, uint64_t bytes,
                            int64_t max_lines)
{
    return walkLines<true>(addr, bytes, max_lines);
}
#else
int
CacheModel::scanFillAvx2(uint64_t, size_t)
{
    GNN_PANIC("AVX2 cache scan is not compiled in");
}

int64_t
CacheModel::accessLinesAvx2(uint64_t, uint64_t, int64_t)
{
    GNN_PANIC("AVX2 cache scan is not compiled in");
}
#endif

int64_t
CacheModel::accessLines(uint64_t addr, uint64_t bytes, int64_t max_lines)
{
    return vectorScan_ ? accessLinesAvx2(addr, bytes, max_lines)
                       : walkLines<false>(addr, bytes, max_lines);
}

bool
CacheModel::probe(uint64_t addr) const
{
    const uint64_t line = addr >> lineShift_;
    const size_t base = static_cast<size_t>(setIndex(line)) * assoc_;
    for (int w = 0; w < assoc_; ++w) {
        if (tags_[base + w] == line)
            return true;
    }
    return false;
}

void
CacheModel::flush()
{
    tags_.assign(tags_.size(), kInvalidTag);
    lastUse_.assign(lastUse_.size(), 0);
}

void
CacheModel::resetStats()
{
    hits_ = 0;
    misses_ = 0;
}

double
CacheModel::hitRate() const
{
    uint64_t total = hits_ + misses_;
    return total == 0 ? 0.0 : static_cast<double>(hits_) / total;
}

} // namespace gnnmark
