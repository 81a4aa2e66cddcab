#include "ledger.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace gnnmark {
namespace hostbench {

int64_t
nearestRankIndex(int64_t n, double q)
{
    const auto rank = static_cast<int64_t>(std::ceil(q * n));
    return std::clamp<int64_t>(rank, 1, std::max<int64_t>(n, 1));
}

bool
percentileSupported(int64_t n, double q)
{
    return n > 0 && n - nearestRankIndex(n, q) >= kSamplesBeyond;
}

std::optional<double>
nearestRank(std::vector<double> samples, double q)
{
    const auto n = static_cast<int64_t>(samples.size());
    if (!percentileSupported(n, q))
        return std::nullopt;
    const int64_t k = nearestRankIndex(n, q) - 1;
    std::nth_element(samples.begin(), samples.begin() + k, samples.end());
    return samples[k];
}

double
median(std::vector<double> samples)
{
    if (samples.empty())
        return 0.0;
    const int64_t k =
        nearestRankIndex(static_cast<int64_t>(samples.size()), 0.5) - 1;
    std::nth_element(samples.begin(), samples.begin() + k, samples.end());
    return samples[k];
}

double
geomean(const std::vector<double> &samples)
{
    if (samples.empty())
        return 0.0;
    double log_sum = 0;
    for (double x : samples)
        log_sum += std::log(x);
    return std::exp(log_sum / static_cast<double>(samples.size()));
}

std::vector<SelfSpan>
selfTimes(const std::vector<obs::ThreadSpans> &threads)
{
    std::vector<SelfSpan> out;
    for (const obs::ThreadSpans &thread : threads) {
        const size_t first = out.size();
        for (const obs::SpanEvent &e : thread.spans)
            out.push_back({e.name, e.startUs, e.startUs + e.durUs, e.durUs});
        // Parents before their children: earlier start first, and the
        // longer span first when two start together.
        std::sort(out.begin() + first, out.end(),
                  [](const SelfSpan &a, const SelfSpan &b) {
                      return a.startUs != b.startUs ? a.startUs < b.startUs
                                                    : a.endUs > b.endUs;
                  });
        std::vector<size_t> open;
        for (size_t i = first; i < out.size(); ++i) {
            while (!open.empty() && out[open.back()].endUs <= out[i].startUs)
                open.pop_back();
            if (!open.empty()) {
                SelfSpan &parent = out[open.back()];
                parent.selfUs -=
                    std::min(out[i].endUs, parent.endUs) - out[i].startUs;
            }
            open.push_back(i);
        }
    }
    for (SelfSpan &s : out)
        s.selfUs = std::max(0.0, s.selfUs);
    return out;
}

std::string
digest(const void *data, size_t size)
{
    uint64_t h = 14695981039346656037ULL;
    const auto *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < size; ++i) {
        h ^= p[i];
        h *= 1099511628211ULL;
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

std::string
digest(const std::string &text)
{
    return digest(text.data(), text.size());
}

ReferenceTable
parseReference(const std::string &text)
{
    ReferenceTable table;
    std::istringstream in(text);
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        const size_t hash = line.find('#');
        if (hash != std::string::npos)
            line.resize(hash);
        std::istringstream fields(line);
        std::string key, value, extra;
        if (!(fields >> key))
            continue;
        if (!(fields >> value) || (fields >> extra))
            throw std::runtime_error("reference line " +
                                     std::to_string(lineno) +
                                     ": expected 'key digest'");
        if (!table.emplace(key, value).second)
            throw std::runtime_error("reference line " +
                                     std::to_string(lineno) +
                                     ": duplicate key " + key);
    }
    return table;
}

void
ItemCheck::require(bool ok, const std::string &what)
{
    if (!ok)
        failures_.push_back(what);
}

void
ItemCheck::matchReference(const ReferenceTable &reference,
                          const std::string &key, const std::string &actual)
{
    const auto it = reference.find(key);
    if (it == reference.end())
        failures_.push_back("no reference digest for " + key +
                            " (actual " + actual + ")");
    else if (it->second != actual)
        failures_.push_back(key + " digest " + actual + " != reference " +
                            it->second);
}

void
Tally::add(const ItemCheck &item)
{
    ++attempted;
    if (!item.ok())
        ++failed;
}

} // namespace hostbench
} // namespace gnnmark
