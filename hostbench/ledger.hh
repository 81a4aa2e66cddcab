/**
 * @file
 * The host-time benchmark's own arithmetic, kept apart from main.cc
 * so it can be tested without training anything: nearest-rank
 * percentiles with a support rule, per-thread span self time, digests
 * of report documents, and item failure accounting against stored
 * reference digests.
 */

#ifndef GNNMARK_HOSTBENCH_LEDGER_HH
#define GNNMARK_HOSTBENCH_LEDGER_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "obs/span.hh"

namespace gnnmark {
namespace hostbench {

/** Samples a percentile needs beyond its rank before it is reported. */
constexpr int64_t kSamplesBeyond = 10;

/** 1-based nearest rank of quantile `q` in `n` samples: ceil(q * n). */
int64_t nearestRankIndex(int64_t n, double q);

/**
 * True when the `q` quantile of `n` samples has at least
 * kSamplesBeyond samples ranked above it (n >= 20 for the median,
 * n >= 100 for p90, n >= 1000 for p99).
 */
bool percentileSupported(int64_t n, double q);

/**
 * Nearest-rank `q` quantile of `samples`, or nullopt when the sample
 * count does not support it (see percentileSupported).
 */
std::optional<double> nearestRank(std::vector<double> samples, double q);

/** Median (nearest rank, no support rule); 0 for no samples. */
double median(std::vector<double> samples);

/** Geometric mean of positive `samples`; 0 for no samples. */
double geomean(const std::vector<double> &samples);

/** One span with its exclusive (self) time. */
struct SelfSpan
{
    const char *name = nullptr;
    double startUs = 0;
    double endUs = 0;
    double selfUs = 0; ///< duration minus the part child spans cover
};

/**
 * Self time of every recorded span. Spans nest only within a thread
 * (GNN_SPAN is scoped), so each thread's spans are walked on their own:
 * a span's children are the spans of the same thread that start inside
 * it, and its self time is its duration minus the part of its interval
 * they cover. Work a span hands to pool workers stays in its self time
 * as waiting; the workers' own spans carry the work.
 */
std::vector<SelfSpan>
selfTimes(const std::vector<obs::ThreadSpans> &threads);

/** 64-bit FNV-1a digest of `size` bytes, as 16 hex digits. */
std::string digest(const void *data, size_t size);
std::string digest(const std::string &text);

/**
 * Reference digests stored with the benchmark, one "key digest" pair
 * per line ('#' starts a comment). Keys name an item and a document,
 * e.g. "train-dense/GW/figures".
 */
using ReferenceTable = std::map<std::string, std::string>;

/** Parse a reference file's text; throws std::runtime_error. */
ReferenceTable parseReference(const std::string &text);

/** The checks one item (one model trained, one recording replayed) ran. */
class ItemCheck
{
  public:
    /** Record one check; a false `ok` fails the item with `what`. */
    void require(bool ok, const std::string &what);

    /**
     * Compare `actual` with the reference digest under `key`. A
     * missing reference fails the item too: a check that cannot run
     * must not pass.
     */
    void matchReference(const ReferenceTable &reference,
                        const std::string &key, const std::string &actual);

    bool ok() const { return failures_.empty(); }
    const std::vector<std::string> &failures() const { return failures_; }

  private:
    std::vector<std::string> failures_;
};

/** Items attempted and failed over one benchmark run. */
struct Tally
{
    int64_t attempted = 0;
    int64_t failed = 0;

    void add(const ItemCheck &item);
};

} // namespace hostbench
} // namespace gnnmark

#endif // GNNMARK_HOSTBENCH_LEDGER_HH
