#include "sim/cache_model.hh"

#include <algorithm>
#include <array>
#include <bit>

#include "base/cpu_features.hh"
#include "base/logging.hh"
#include "base/thread_pool.hh"

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
namespace {

/**
 * CacheModel::scanSetAvx2() over one set's `assoc` tags and lastUse
 * stamps. Inline here so the AVX2 copy of the walk pays no call per
 * missed line.
 */
__attribute__((target("avx2"))) inline int
scanAvx2(const uint64_t *set_tags, const uint64_t *set_use, int assoc,
         uint64_t line)
{
    const auto *tags = reinterpret_cast<const __m256i *>(set_tags);
    const __m256i key = _mm256_set1_epi64x(static_cast<long long>(line));
    uint64_t match = 0;
    for (int g = 0; g < assoc / 4; ++g) {
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
    const auto *use = reinterpret_cast<const __m256i *>(set_use);
    __m256i way = _mm256_setr_epi64x(0, 1, 2, 3);
    const __m256i four = _mm256_set1_epi64x(4);
    __m256i best = _mm256_set1_epi64x(~0ULL >> 1);
    for (int g = 0; g < assoc / 4; ++g) {
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

} // namespace
#endif

template <bool kAvx2>
[[gnu::always_inline]] inline uint64_t
CacheModel::walkSets(std::span<const LineSpan> spans, uint64_t set_lo,
                     uint64_t set_hi, uint64_t clock)
{
    const auto sets = static_cast<int64_t>(numSets_);
    const auto width = static_cast<int64_t>(set_hi - set_lo);
    uint64_t *tags = tags_.data();
    uint64_t *use = lastUse_.data();
    uint64_t hits = 0;
    // Adjacent sets tend to hold a range's tags at the same way index
    // (they were filled during the same pass), so the previous line's
    // way is probed first — a pure scan-order shortcut (see scanSet).
    int hint = 0;
    for (const LineSpan &span : spans) {
        // Line i of the span sits in set (s0 + i) mod sets. With
        // d = (s0 - set_lo) mod sets, the lines in [set_lo, set_hi)
        // are one run per wrap of the span: lines [r, r + width) for
        // r = -d, -d + sets, ..., clipped to the span, in sets set_lo,
        // set_lo + 1, ...
        const auto d = static_cast<int64_t>(
            (setIndex(span.first) + numSets_ - set_lo) % numSets_);
        for (int64_t r = -d; r < span.count; r += sets) {
            const int64_t begin = std::max<int64_t>(r, 0);
            const int64_t end = std::min(r + width, span.count);
            uint64_t line = span.first + static_cast<uint64_t>(begin);
            size_t base = static_cast<size_t>(
                              set_lo + static_cast<uint64_t>(begin - r)) *
                          assoc_;
            uint64_t now = clock + static_cast<uint64_t>(begin);
            for (int64_t i = begin; i < end; ++i) {
                ++now;
                if (tags[base + hint] == line) {
                    use[base + hint] = now;
                    ++hits;
                } else {
#if GNNMARK_AVX2
                    const int w =
                        kAvx2 ? scanAvx2(tags + base, use + base, assoc_, line)
                              : scanSet(line, base);
#else
                    const int w = scanSet(line, base);
#endif
                    hits += w >= 0;
                    hint = w >= 0 ? w : ~w;
                    tags[base + hint] = line;
                    use[base + hint] = now;
                }
                ++line;
                base += assoc_;
            }
        }
        clock += static_cast<uint64_t>(span.count);
    }
    return hits;
}

#if GNNMARK_AVX2
__attribute__((target("avx2"))) int
CacheModel::scanSetAvx2(uint64_t line, size_t base) const
{
    return scanAvx2(tags_.data() + base, lastUse_.data() + base, assoc_,
                    line);
}

__attribute__((target("avx2"))) uint64_t
CacheModel::walkSetsAvx2(std::span<const LineSpan> spans, uint64_t set_lo,
                         uint64_t set_hi, uint64_t clock)
{
    return walkSets<true>(spans, set_lo, set_hi, clock);
}
#else
int
CacheModel::scanSetAvx2(uint64_t, size_t) const
{
    GNN_PANIC("AVX2 cache scan is not compiled in");
}

uint64_t
CacheModel::walkSetsAvx2(std::span<const LineSpan>, uint64_t, uint64_t,
                         uint64_t)
{
    GNN_PANIC("AVX2 cache scan is not compiled in");
}
#endif

int64_t
CacheModel::installSpans(std::span<const LineSpan> spans)
{
    int64_t lines = 0;
    for (const LineSpan &span : spans)
        lines += span.count;
    const auto walk = [&](uint64_t set_lo, uint64_t set_hi) {
        return vectorScan_ ? walkSetsAvx2(spans, set_lo, set_hi, clock_)
                           : walkSets<false>(spans, set_lo, set_hi, clock_);
    };
    ThreadPool &pool = ThreadPool::instance();
    uint64_t hits = 0;
    if (lines < kParallelLines || pool.runsInline()) {
        hits = walk(0, numSets_);
    } else {
        // Each part owns the ways of its set range, so the parts write
        // disjoint state; their hit counts are summed in part order.
        const auto parts = static_cast<int64_t>(
            std::min<uint64_t>(kSetParts, numSets_));
        std::array<uint64_t, kSetParts> part_hits{};
        pool.parallelFor(0, parts, 1, [&](int64_t begin, int64_t end) {
            for (int64_t p = begin; p < end; ++p) {
                const auto q = static_cast<uint64_t>(p);
                part_hits[q] =
                    walk(numSets_ * q / parts, numSets_ * (q + 1) / parts);
            }
        });
        for (const uint64_t h : part_hits)
            hits += h;
    }
    clock_ += static_cast<uint64_t>(lines);
    hits_ += hits;
    misses_ += static_cast<uint64_t>(lines) - hits;
    return lines;
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
