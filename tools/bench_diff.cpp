/**
 * @file
 * The perf-regression gate: compare two telemetry/report files and
 * fail loudly when the candidate drifted past tolerance. The options
 * are documented once, in usage() below (printed on a bad command line).
 *
 * Inputs are either JSONL telemetry files (gnnmark --telemetry) or
 * single-document JSON reports (gnnmark --json); both flatten to
 * dotted-path metric maps (see obs/bench_compare.hh). Exit codes:
 * 0 within tolerance, 1 regression/missing/extra keys, 2 usage or
 * unreadable/unparseable input — so CI can distinguish "perf broke"
 * from "the harness broke".
 */

#include <cstdlib>
#include <iostream>
#include <map>
#include <string>

#include "base/io.hh"
#include "base/string_utils.hh"
#include "obs/bench_compare.hh"
#include "obs/json.hh"

using namespace gnnmark;

namespace {

[[noreturn]] void
usage()
{
    std::cerr <<
        "usage: bench_diff <baseline> <candidate> [options]\n"
        "\n"
        "options:\n"
        "  --tol F             default relative tolerance (default 0)\n"
        "  --abs F             absolute-difference floor below which a\n"
        "                      pair always passes (default 0)\n"
        "  --tol-prefix P=F    tolerance F for keys starting with P\n"
        "                      (longest matching prefix wins; repeat\n"
        "                      for several prefixes)\n"
        "  --ignore SUBSTR     skip keys containing SUBSTR (repeatable;\n"
        "                      wall_time / host_ are always skipped)\n"
        "  --hist-pct          compare histograms via derived\n"
        "                      count/p50/p95/p99 keys instead of raw\n"
        "                      bucket-by-bucket counts\n"
        "  --hist-tol F        relative tolerance for the derived\n"
        "                      percentile keys (default 0.5 = one log2\n"
        "                      bucket of drift)\n"
        "  --allow-missing     keys present on one side only are not\n"
        "                      failures\n"
        "  --quiet             print nothing on success\n"
        "\n"
        "exit status: 0 ok, 1 regression, 2 usage/input error\n";
    std::exit(2);
}

/** A tolerance argument: a whole, finite, non-negative number. */
double
tolerance(const std::string &text)
{
    double value = 0;
    if (!parseNumber(text, value) || value < 0) {
        std::cerr << "bad tolerance: '" << text << "'\n";
        usage();
    }
    return value;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string baseline_path;
    std::string candidate_path;
    obs::CompareOptions opts;
    bool quiet = false;

    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                usage();
            return argv[++i];
        };
        if (a == "--tol") {
            opts.defaultTolerance = tolerance(next());
        } else if (a == "--abs") {
            opts.absoluteFloor = tolerance(next());
        } else if (a == "--tol-prefix") {
            const std::string spec = next();
            const size_t eq = spec.find('=');
            if (eq == std::string::npos || eq == 0)
                usage();
            opts.tolerances[spec.substr(0, eq)] =
                tolerance(spec.substr(eq + 1));
        } else if (a == "--ignore") {
            opts.ignoreSubstrings.push_back(next());
        } else if (a == "--hist-pct") {
            opts.histogramPercentiles = true;
        } else if (a == "--hist-tol") {
            opts.histogramTolerance = tolerance(next());
        } else if (a == "--allow-missing") {
            opts.allowMissing = true;
        } else if (a == "--quiet") {
            quiet = true;
        } else if (a.rfind("--", 0) == 0) {
            std::cerr << "unknown option: " << a << "\n";
            usage();
        } else if (baseline_path.empty()) {
            baseline_path = a;
        } else if (candidate_path.empty()) {
            candidate_path = a;
        } else {
            usage();
        }
    }
    if (baseline_path.empty() || candidate_path.empty())
        usage();

    std::map<std::string, double> baseline;
    std::map<std::string, double> candidate;
    try {
        baseline = obs::flattenTelemetryFile(baseline_path);
        candidate = obs::flattenTelemetryFile(candidate_path);
    } catch (const IoError &e) {
        std::cerr << "bench_diff: " << e.what() << "\n";
        return 2;
    } catch (const obs::JsonError &e) {
        std::cerr << "bench_diff: " << e.what() << "\n";
        return 2;
    }

    const obs::CompareResult result =
        compareMetricMaps(baseline, candidate, opts);

    if (!result.ok()) {
        for (const obs::CompareFailure &f : result.failures)
            std::cerr << describeFailure(f) << "\n";
        std::cerr << "bench_diff: FAIL — " << result.failures.size()
                  << " of " << result.comparedKeys
                  << " compared keys out of tolerance (" << baseline_path
                  << " vs " << candidate_path << ")\n";
        return 1;
    }
    if (!quiet) {
        std::cout << "bench_diff: OK — " << result.comparedKeys
                  << " keys within tolerance, " << result.ignoredKeys
                  << " wall-clock/ignored keys skipped\n";
    }
    return 0;
}
