/**
 * @file
 * Set-associative LRU cache model used for the GPU's L1 data caches,
 * the shared L2, and (with small geometry) the per-SM L0 I-caches.
 */

#ifndef GNNMARK_SIM_CACHE_MODEL_HH
#define GNNMARK_SIM_CACHE_MODEL_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace gnnmark {

/** `count` consecutive lines starting at line index `first`. */
struct LineSpan
{
    uint64_t first;
    int64_t count;
};

/**
 * A classic set-associative cache with true-LRU replacement.
 *
 * Addresses are byte addresses; the model tracks tags only (no data).
 * Statistics accumulate until resetStats().
 */
class CacheModel
{
  public:
    /**
     * @param size_bytes Total capacity; must be a multiple of
     *                   line_bytes * assoc.
     * @param assoc      Ways per set.
     * @param line_bytes Line size (power of two).
     */
    CacheModel(uint64_t size_bytes, int assoc, int line_bytes);

    /**
     * Look up (and on miss, fill) the line containing addr.
     * @return true on hit.
     */
    bool access(uint64_t addr)
    {
        const uint64_t line = addr >> lineShift_;
        const size_t base = static_cast<size_t>(setIndex(line)) * assoc_;
        const int r = scanSet(line, base);
        const size_t at = base + static_cast<size_t>(r >= 0 ? r : ~r);
        tags_[at] = line;
        lastUse_[at] = ++clock_;
        ++(r >= 0 ? hits_ : misses_);
        return r >= 0;
    }

    /**
     * The span of ceil(bytes / line_bytes) consecutive lines starting
     * at the one holding addr, cut to at most max_lines (>= 0) of them.
     */
    LineSpan lineSpan(uint64_t addr, uint64_t bytes,
                      int64_t max_lines) const
    {
        const auto lines = static_cast<int64_t>(
            (bytes + static_cast<uint64_t>(lineBytes_) - 1) >> lineShift_);
        return {addr >> lineShift_,
                std::max<int64_t>(0, std::min(lines, max_lines))};
    }

    /**
     * access() every line of every span, span by span and line by
     * line in order: the bulk footprint-install path. State and
     * statistics end up identical to the equivalent per-line access()
     * loop for any pool size.
     *
     * Consecutive lines map to consecutive sets, and a set's LRU
     * choices depend only on the order of its own accesses. So an
     * install of at least kParallelLines lines splits [0, numSets())
     * into kSetParts contiguous set ranges run on the thread pool,
     * each walking only its own sets' lines; line k of the install is
     * stamped with the clock the serial walk would give it. Smaller
     * installs, and calls from inside a pool job or with a one-thread
     * pool, walk the whole set range on the calling thread.
     * @return lines touched.
     */
    int64_t installSpans(std::span<const LineSpan> spans);

    /** installSpans() of lineSpan(addr, bytes, max_lines). */
    int64_t accessLines(uint64_t addr, uint64_t bytes, int64_t max_lines)
    {
        const LineSpan span = lineSpan(addr, bytes, max_lines);
        return installSpans({&span, 1});
    }

    /** Look up without filling on miss (used for bypass modelling). */
    bool probe(uint64_t addr) const;

    /** Drop all lines (e.g., between unrelated kernels for I-caches). */
    void flush();

    /** Zero the hit/miss counters (contents are kept). */
    void resetStats();

    uint64_t hits() const { return hits_; }
    uint64_t misses() const { return misses_; }
    uint64_t accesses() const { return hits_ + misses_; }

    /** Hit rate in [0,1]; 0 if no accesses yet. */
    double hitRate() const;

    int lineBytes() const { return lineBytes_; }
    uint64_t numSets() const { return numSets_; }
    int assoc() const { return assoc_; }

  private:
    /** installSpans() at or above this many lines runs on the pool. */
    static constexpr int64_t kParallelLines = 4096;
    /** Contiguous set ranges a pooled installSpans() is split into. */
    static constexpr int kSetParts = 8;

    /**
     * Reduce a line index to its set. Power-of-two set counts (every
     * L1/L0I/L1I geometry, most L2 points) take the mask path; the
     * general modulo produces the same index when they coincide, so
     * the choice never changes behaviour — only the cost of the
     * per-access hardware divide.
     */
    uint64_t setIndex(uint64_t line) const
    {
        return setMask_ != 0 ? (line & setMask_) : (line % numSets_);
    }

    /**
     * The installSpans() walk over the lines whose set lies in
     * [set_lo, set_hi), with `clock` the clock before the install's
     * first line. Writes only those sets' ways and no member counter.
     * kAvx2 inlines the vector scan; walkSetsAvx2() is that copy,
     * compiled for AVX2.
     * @return hits among the lines walked.
     */
    template <bool kAvx2>
    uint64_t walkSets(std::span<const LineSpan> spans, uint64_t set_lo,
                      uint64_t set_hi, uint64_t clock);
    uint64_t walkSetsAvx2(std::span<const LineSpan> spans, uint64_t set_lo,
                          uint64_t set_hi, uint64_t clock);

    /**
     * The tag match and the LRU choice for line in the set at base,
     * with no state change: returns the way hit (>= 0) or ~the victim
     * (< 0). Every lookup goes through here. The scan order over ways
     * is unobservable — a line appears in a set at most once — so
     * callers may probe a likely way first without changing results.
     */
    int scanSet(uint64_t line, size_t base) const
    {
        if (vectorScan_)
            return scanSetAvx2(line, base);
        const int hit_w = findWay(line, base);
        return hit_w >= 0 ? hit_w : ~lruWay(base);
    }

    /**
     * scanSet() four ways per AVX2 instruction, when vectorScan_ is
     * set. It picks the same way as findWay()/lruWay(), so state stays
     * bit-identical to the scalar scan.
     */
    int scanSetAvx2(uint64_t line, size_t base) const;

    /** The way holding line, or -1. */
    int findWay(uint64_t line, size_t base) const
    {
        const uint64_t *tags = tags_.data() + base;

        // Branchless tag scan (a line appears at most once per set, so
        // scanning past a match is harmless). Two select chains keep
        // the cmov dependency half as deep as one; at most one chain
        // ever holds a real way, so max() merges them.
        int h0 = -1;
        int h1 = -1;
        int w = 0;
        for (; w + 1 < assoc_; w += 2) {
            h0 = tags[w] == line ? w : h0;
            h1 = tags[w + 1] == line ? w + 1 : h1;
        }
        if (w < assoc_)
            h0 = tags[w] == line ? w : h0;
        return h0 > h1 ? h0 : h1;
    }

    /**
     * The victim: the lowest-indexed way with the smallest lastUse.
     * Packing the way index into the low bits turns the LRU scan into
     * a pure u64 min reduction over lruKey() (ties resolve to the
     * lower way, exactly like a first-strictly-smaller scan), and two
     * independent chains halve its latency. Invalid ways carry
     * lastUse 0, so they win exactly as a valid bit would.
     */
    int lruWay(size_t base) const
    {
        const uint64_t *use = lastUse_.data() + base;
        uint64_t m0 = ~0ULL;
        uint64_t m1 = ~0ULL;
        int w = 0;
        for (; w + 1 < assoc_; w += 2) {
            const uint64_t k0 = lruKey(use[w], w);
            const uint64_t k1 = lruKey(use[w + 1], w + 1);
            m0 = k0 < m0 ? k0 : m0;
            m1 = k1 < m1 ? k1 : m1;
        }
        if (w < assoc_) {
            const uint64_t k0 = lruKey(use[w], w);
            m0 = k0 < m0 ? k0 : m0;
        }
        return static_cast<int>((m0 < m1 ? m0 : m1) & 63U);
    }

    /**
     * (lastUse << 6) | way. The shift cannot overflow (the ctor caps
     * assoc at 64 and a clock of 2^57 accesses is unreachable), so
     * keys also stay below 2^63 and compare the same signed.
     */
    static uint64_t lruKey(uint64_t last_use, int way)
    {
        return (last_use << 6) | static_cast<uint64_t>(way);
    }

    // Structure-of-arrays way storage (set-major): the tag scan is the
    // hottest loop in the simulator and contiguous u64 tags keep it in
    // as few host cache lines as possible. A line index never equals
    // kInvalidTag (addresses are shifted right by lineShift_), and
    // valid ways always carry lastUse >= 1, so the sentinel tag plus a
    // zero lastUse reproduce a valid bit exactly.
    static constexpr uint64_t kInvalidTag = ~0ULL;
    static constexpr int kMinVectorAssoc = 8;

    int assoc_;
    int lineBytes_;
    int lineShift_;
    uint64_t numSets_;
    uint64_t setMask_ = 0; ///< numSets_ - 1 when pow2, else 0 (modulo)
    bool vectorScan_ = false; ///< scanSetAvx2() serves scanSet()
    std::vector<uint64_t> tags_;    // numSets_ * assoc_
    std::vector<uint64_t> lastUse_; // numSets_ * assoc_
    uint64_t clock_ = 0;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
};

} // namespace gnnmark

#endif // GNNMARK_SIM_CACHE_MODEL_HH
