/**
 * @file
 * Host-time benchmark for gnnmark. One command runs one named workload
 * as a closed loop of passes for a fixed number of seconds and prints
 * its end-to-end metrics (--trace 0) or its per-layer metrics
 * (--trace 1), each by name and unit, then one JSON result line.
 *
 * Everything is timed from outside the library: around calls into
 * CharacterizationRunner::run, recordWorkloadTrace, the trace
 * serialize/parse/replay/sweep entry points and the report renderers,
 * plus a benchmark-owned KernelObserver that timestamps kernel
 * completions and phase marks. See README.md for the metric table.
 *
 *   hostbench --workload train-dense --seed 2021 --seconds 20 --trace 0
 *             --reference hostbench/reference_seed2021.txt
 */

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "base/allocator.hh"
#include "base/units.hh"
#include "core/characterization.hh"
#include "core/reports.hh"
#include "core/reports_json.hh"
#include "core/trace_capture.hh"
#include "ledger.hh"
#include "obs/json.hh"
#include "obs/span.hh"
#include "ops/dispatch.hh"
#include "trace/reader.hh"
#include "trace/replayer.hh"
#include "trace/writer.hh"

using namespace gnnmark;
namespace hb = gnnmark::hostbench;

namespace {

/** The workload seed the stored reference digests were made with. */
constexpr uint64_t kDefaultSeed = 2021;

/** L2 sizes of the replay sweep (MiB), as in bench_ext_trace_replay. */
const std::vector<double> kSweepL2MiB = {2, 4, 6, 12};

/**
 * Upper bound on the measuring loop. A traced run keeps going past
 * --seconds until the iteration and launch percentiles have support,
 * but never this long, so every run ends well inside three minutes.
 */
constexpr double kCapSec = 120.0;

struct WorkloadSpec
{
    const char *name;
    std::vector<std::string> models;
    int iterations; ///< measured iterations per model
    bool replay;    ///< time replays of recordings, not live training
};

// Why these three: README.md, "Workloads".
const std::vector<WorkloadSpec> kWorkloads = {
    {"train-dense", {"GW", "DGCN", "STGCN"}, 4, false},
    {"train-small",
     {"TLSTM", "KGNNH", "KGNNL", "ARGA", "PSAGE-NWP", "PSAGE-MVL"},
     16,
     false},
    {"replay-sweep", {"GW", "DGCN", "STGCN"}, 4, true},
};

double
nowUs()
{
    return obs::SpanTracer::instance().nowUs();
}

double
sinceSec(double start_us)
{
    return (nowUs() - start_us) * 1e-6;
}

/**
 * Benchmark-owned observer: timestamps kernel completions and phase
 * marks on the host clock. Everything before the first IterationBegin
 * is set-up. After it, each iteration splits into forward (from
 * IterationBegin), backward (from BackwardBegin) and step (from
 * BackwardEnd), each running until the next mark or the end of the run.
 */
class PhaseClock : public KernelObserver
{
  public:
    enum Phase { Forward, Backward, Step, kPhases };

    void
    onKernel(const KernelRecord &record) override
    {
        const double now = nowUs();
        if (firstKernelUs < 0)
            firstKernelUs = now;
        if (!measuring())
            return;
        ++launches;
        if (record.detailed)
            ++detailed;
        if (lastKernelUs_ >= 0)
            launchGapsUs.push_back(now - lastKernelUs_);
        lastKernelUs_ = now;
    }

    void onTransfer(const TransferRecord &) override {}

    void
    onPhase(PhaseMark mark) override
    {
        const double now = nowUs();
        if (mark == PhaseMark::IterationBegin) {
            if (measuring()) {
                endIteration(now);
            } else {
                firstIterUs = now;
                allocBefore = defaultAllocator().stats();
                dispatchBefore = ops::Dispatch::instance().stats();
            }
            iterStartUs_ = now;
            phaseStartUs_ = now;
            phase_ = Forward;
            return;
        }
        if (!measuring())
            return;
        closePhase(now);
        phase_ = mark == PhaseMark::BackwardBegin ? Backward : Step;
    }

    /** The run returned at `end_us`: close its last iteration. */
    void
    finish(double end_us)
    {
        endUs = end_us;
        if (!measuring())
            return;
        endIteration(end_us);
        allocAfter = defaultAllocator().stats();
        dispatchAfter = ops::Dispatch::instance().stats();
    }

    bool measuring() const { return firstIterUs >= 0; }
    double timedSec() const { return (endUs - firstIterUs) * 1e-6; }

    double firstKernelUs = -1;
    double firstIterUs = -1;
    double endUs = -1;
    int64_t launches = 0; ///< completed after the first iteration began
    int64_t detailed = 0;
    double phaseUs[kPhases] = {};
    std::vector<double> launchGapsUs;
    std::vector<double> iterMs;
    AllocStats allocBefore, allocAfter;
    ops::DispatchStats dispatchBefore, dispatchAfter;

  private:
    void
    closePhase(double now)
    {
        phaseUs[phase_] += now - phaseStartUs_;
        phaseStartUs_ = now;
    }

    void
    endIteration(double now)
    {
        closePhase(now);
        iterMs.push_back((now - iterStartUs_) * 1e-3);
    }

    Phase phase_ = Forward;
    double phaseStartUs_ = 0;
    double iterStartUs_ = 0;
    double lastKernelUs_ = -1;
};

/** One model trained live, optionally recorded through the trace hook. */
struct LiveRun
{
    WorkloadProfile profile;
    trace::RecordedTrace trace; ///< empty unless recorded
    PhaseClock clock;
    double callUs = 0;
    double setupSec() const { return (clock.firstIterUs - callUs) * 1e-6; }
};

/** A recording kept for replay-sweep: serialized bytes + its live run. */
struct Recording
{
    std::string model;
    std::vector<uint8_t> bytes;
    WorkloadProfile live;
    int64_t launches = 0; ///< launch events in the stream (warm-up too)
};

using Window = std::pair<double, double>; ///< [begin, end) in host us

/**
 * Per-layer sums over the items of one traced pass (README.md,
 * "Per-layer metrics"). Counts are doubles so that one field table
 * carries, adds and reads back every field.
 */
struct LayerTotals
{
    // Live layers: from the timed runs (train-*) or the recordings.
    double modelsSetupS = 0, warmupS = 0;
    double forwardS = 0, backwardS = 0, stepS = 0, liveTimedS = 0;
    double iterations = 0, launches = 0, detailed = 0;
    double gemmS = 0, spmmS = 0, conv2dS = 0, otherOpsS = 0, opCalls = 0;
    double gemmTiled = 0, gemmCalls = 0;
    double allocRequests = 0, heapCalls = 0, cacheHits = 0;
    double allocPeakMib = 0; ///< the largest item's, not a sum
    // Trace and sim layers.
    double recordS = 0, serializeS = 0, parseS = 0, traceBytes = 0;
    double replayS = 0, replaySingleS = 0, sweepS = 0;
    double renderS = 0;
    // Launch cadence of the timed work (live or serial replay).
    std::vector<double> launchGapsUs, iterMs;

    void
    addLive(const LiveRun &run)
    {
        const PhaseClock &c = run.clock;
        modelsSetupS += (c.firstKernelUs - run.callUs) * 1e-6;
        warmupS += (c.firstIterUs - c.firstKernelUs) * 1e-6;
        forwardS += c.phaseUs[PhaseClock::Forward] * 1e-6;
        backwardS += c.phaseUs[PhaseClock::Backward] * 1e-6;
        stepS += c.phaseUs[PhaseClock::Step] * 1e-6;
        liveTimedS += c.timedSec();
        iterations += static_cast<double>(c.iterMs.size());
        launches += static_cast<double>(c.launches);
        detailed += static_cast<double>(c.detailed);
        const auto &d0 = c.dispatchBefore, &d1 = c.dispatchAfter;
        gemmTiled += static_cast<double>(d1.gemmTiled - d0.gemmTiled);
        gemmCalls += static_cast<double>(d1.gemmTiled + d1.gemmNaive -
                                         d0.gemmTiled - d0.gemmNaive);
        const AllocStats &a0 = c.allocBefore, &a1 = c.allocAfter;
        allocRequests += static_cast<double>(a1.requests - a0.requests);
        heapCalls += static_cast<double>(a1.heapCalls - a0.heapCalls);
        cacheHits += static_cast<double>(a1.cacheHits - a0.cacheHits);
        allocPeakMib = std::max(allocPeakMib,
                                static_cast<double>(a1.bytesPeak) /
                                    static_cast<double>(MiB));
    }

    void
    addCadence(const PhaseClock &c)
    {
        launchGapsUs.insert(launchGapsUs.end(), c.launchGapsUs.begin(),
                            c.launchGapsUs.end());
        iterMs.insert(iterMs.end(), c.iterMs.begin(), c.iterMs.end());
    }

    /**
     * Self time of the existing op.* spans that start inside one of the
     * live runs' timed windows, by op family. Chunk spans are pieces of
     * an op run on pool workers, so they add time but not calls.
     */
    void
    addOpSpans(const std::vector<obs::ThreadSpans> &threads,
               const std::vector<Window> &windows)
    {
        for (const hb::SelfSpan &s : hb::selfTimes(threads)) {
            const std::string name = s.name;
            if (name.rfind("op.", 0) != 0)
                continue;
            bool inside = false;
            for (const auto &[begin, end] : windows)
                inside = inside || (s.startUs >= begin && s.startUs < end);
            if (!inside)
                continue;
            double &family = name.rfind("op.gemm", 0) == 0     ? gemmS
                             : name.rfind("op.spmm", 0) == 0   ? spmmS
                             : name.rfind("op.conv2d", 0) == 0 ? conv2dS
                                                               : otherOpsS;
            family += s.selfUs * 1e-6;
            if (name.find(".chunk") == std::string::npos)
                opCalls += 1;
        }
    }

    void add(const LayerTotals &other);
};

using TotalsField = double LayerTotals::*;

/** Every scalar field, under the name the pass protocol carries it. */
const std::vector<std::pair<const char *, TotalsField>> kTotalsFields = {
    {"models_setup_s", &LayerTotals::modelsSetupS},
    {"warmup_s", &LayerTotals::warmupS},
    {"forward_s", &LayerTotals::forwardS},
    {"backward_s", &LayerTotals::backwardS},
    {"step_s", &LayerTotals::stepS},
    {"live_timed_s", &LayerTotals::liveTimedS},
    {"iterations", &LayerTotals::iterations},
    {"launches", &LayerTotals::launches},
    {"detailed", &LayerTotals::detailed},
    {"gemm_s", &LayerTotals::gemmS},
    {"spmm_s", &LayerTotals::spmmS},
    {"conv2d_s", &LayerTotals::conv2dS},
    {"other_ops_s", &LayerTotals::otherOpsS},
    {"op_calls", &LayerTotals::opCalls},
    {"gemm_tiled", &LayerTotals::gemmTiled},
    {"gemm_calls", &LayerTotals::gemmCalls},
    {"alloc_requests", &LayerTotals::allocRequests},
    {"heap_calls", &LayerTotals::heapCalls},
    {"cache_hits", &LayerTotals::cacheHits},
    {"alloc_peak_mib", &LayerTotals::allocPeakMib},
    {"record_s", &LayerTotals::recordS},
    {"serialize_s", &LayerTotals::serializeS},
    {"parse_s", &LayerTotals::parseS},
    {"trace_bytes", &LayerTotals::traceBytes},
    {"replay_s", &LayerTotals::replayS},
    {"replay_single_s", &LayerTotals::replaySingleS},
    {"sweep_s", &LayerTotals::sweepS},
    {"render_s", &LayerTotals::renderS},
};

void
LayerTotals::add(const LayerTotals &other)
{
    for (const auto &[name, field] : kTotalsFields)
        this->*field = field == &LayerTotals::allocPeakMib
                           ? std::max(this->*field, other.*field)
                           : this->*field + other.*field;
    launchGapsUs.insert(launchGapsUs.end(), other.launchGapsUs.begin(),
                        other.launchGapsUs.end());
    iterMs.insert(iterMs.end(), other.iterMs.begin(), other.iterMs.end());
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/** One reported metric: name as in BENCHMARK.json, value, unit. */
struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

/** Per-layer metrics of one traced pass. */
std::vector<Metric>
layerMetrics(const LayerTotals &t)
{
    return {
        {"models.setup_s", t.modelsSetupS, "s"},
        {"core.warmup_s", t.warmupS, "s"},
        {"nn.forward_s", t.forwardS, "s"},
        {"autograd.backward_s", t.backwardS, "s"},
        {"nn.step_s", t.stepS, "s"},
        {"ops.gemm_s", t.gemmS, "s"},
        {"ops.spmm_s", t.spmmS, "s"},
        {"ops.conv2d_s", t.conv2dS, "s"},
        {"ops.other_s", t.otherOpsS, "s"},
        {"ops.calls", t.opCalls, "count"},
        {"ops.gemm_tiled_frac", ratio(t.gemmTiled, t.gemmCalls), "ratio"},
        {"alloc.requests_per_iter", ratio(t.allocRequests, t.iterations),
         "count/iter"},
        {"alloc.heap_calls_per_iter", ratio(t.heapCalls, t.iterations),
         "count/iter"},
        {"alloc.hit_rate", ratio(t.cacheHits, t.allocRequests), "ratio"},
        {"alloc.peak_mib", t.allocPeakMib, "MiB"},
        {"sim.launches", t.launches, "count"},
        {"sim.detailed_frac", ratio(t.detailed, t.launches), "ratio"},
        {"sim.replay_s", t.replayS, "s"},
        {"sim.share", ratio(t.replayS, t.liveTimedS), "ratio"},
        {"sim.replay_single_s", t.replaySingleS, "s"},
        {"sim.sweep_s", t.sweepS, "s"},
        {"sim.sweep_speedup",
         ratio(static_cast<double>(kSweepL2MiB.size()) * t.replaySingleS,
               t.sweepS),
         "ratio"},
        {"trace.record_s", t.recordS, "s"},
        {"trace.serialize_s", t.serializeS, "s"},
        {"trace.parse_s", t.parseS, "s"},
        {"trace.bytes", t.traceBytes, "bytes"},
        {"report.render_s", t.renderS, "s"},
    };
}

/** What one item or one pass measured; a pass adds up its items. */
struct Record
{
    double setupS = 0;
    double wallS = 0;
    double launches = 0;
    hb::Tally items;
    std::vector<double> rssMib; ///< peak resident MiB of each process
    LayerTotals layers;         ///< traced items and passes only

    void
    add(const Record &other)
    {
        setupS += other.setupS;
        wallS += other.wallS;
        launches += other.launches;
        items.attempted += other.items.attempted;
        items.failed += other.items.failed;
        rssMib.insert(rssMib.end(), other.rssMib.begin(),
                      other.rssMib.end());
        layers.add(other.layers);
    }
};

/** Everything one run needs besides the pass it is in. */
struct Context
{
    const WorkloadSpec *spec = nullptr;
    RunOptions options;
    hb::ReferenceTable reference;
    bool checkReference = false;
};

/** The aggregates a replay must reproduce bitwise on its own config. */
bool
replayMatchesLive(const WorkloadProfile &live,
                  const WorkloadProfile &replayed)
{
    return live.profiler.totalLaunches() ==
               replayed.profiler.totalLaunches() &&
           live.profiler.totalKernelTimeSec() ==
               replayed.profiler.totalKernelTimeSec() &&
           live.profiler.l1HitRate() == replayed.profiler.l1HitRate() &&
           live.profiler.l2HitRate() == replayed.profiler.l2HitRate() &&
           live.profiler.avgIpc() == replayed.profiler.avgIpc() &&
           live.wallTimeSec == replayed.wallTimeSec;
}

/**
 * The checks every item's simulated output gets: finite losses, a
 * non-empty kernel stream and, on the default seed, the stored digests
 * of its figures document and its exact loss sequence.
 */
void
checkProfile(const Context &ctx, hb::ItemCheck &check,
             const std::string &key, const WorkloadProfile &p)
{
    check.require(!p.losses.empty(), key + ": no losses");
    bool finite = true;
    for (float loss : p.losses)
        finite = finite && std::isfinite(loss);
    check.require(finite, key + ": non-finite loss");
    check.require(p.profiler.totalLaunches() > 0, key + ": no launches");
    if (!ctx.checkReference)
        return;
    check.matchReference(ctx.reference, key + "/figures",
                         hb::digest(reports::figuresJson({p})));
    check.matchReference(
        ctx.reference, key + "/losses",
        hb::digest(p.losses.data(), p.losses.size() * sizeof(float)));
}

/** Run `body` as one item of `rec`: a throw fails the item, not the run. */
template <typename Body>
void
runItem(Record &rec, const std::string &key, Body &&body)
{
    hb::ItemCheck check;
    try {
        body(check);
    } catch (const std::exception &e) {
        check.require(false, key + ": threw: " + e.what());
    }
    for (const std::string &why : check.failures())
        std::cout << "  FAILED " << why << "\n";
    rec.items.add(check);
}

std::vector<GpuConfig>
sweepConfigs(const trace::RecordedTrace &t)
{
    std::vector<GpuConfig> configs;
    for (double mib : kSweepL2MiB) {
        GpuConfig cfg = t.header.config;
        cfg.l2SizeBytes = static_cast<uint64_t>(mib * MiB);
        configs.push_back(cfg);
    }
    return configs;
}

/** A sweep passes when every point returned a usable result. */
void
checkSweep(hb::ItemCheck &check, const std::string &key,
           const std::vector<trace::ReplayResult> &points)
{
    check.require(points.size() == kSweepL2MiB.size(),
                  key + ": sweep returned " +
                      std::to_string(points.size()) + " points");
    for (const trace::ReplayResult &r : points)
        check.require(r.kernelLaunches > 0 && std::isfinite(r.wallTimeSec) &&
                          r.wallTimeSec > 0,
                      key + ": empty sweep point");
}

/**
 * Serialize, parse, replay and sweep one live recording, adding the
 * trace and sim layers to `t`. Traced train-* items do this after
 * their timed work.
 */
void
replayLayers(hb::ItemCheck &check, const std::string &key,
             const trace::RecordedTrace &recorded,
             const WorkloadProfile &live, LayerTotals &t)
{
    double start = nowUs();
    const std::vector<uint8_t> bytes = trace::serializeTrace(recorded);
    t.serializeS += sinceSec(start);
    t.traceBytes += static_cast<double>(bytes.size());

    start = nowUs();
    const trace::RecordedTrace parsed = trace::parseTrace(bytes, key);
    t.parseS += sinceSec(start);

    PhaseClock clock;
    start = nowUs();
    const trace::ReplayResult single =
        trace::replayTrace(parsed, parsed.header.config, {&clock});
    clock.finish(nowUs());
    t.replaySingleS += sinceSec(start);
    t.replayS += clock.timedSec();
    check.require(replayMatchesLive(live, toWorkloadProfile(single)),
                  key + ": replay differs from its recording run");

    start = nowUs();
    const auto points = trace::sweepTrace(parsed, sweepConfigs(parsed));
    t.sweepS += sinceSec(start);
    checkSweep(check, key, points);
}

LiveRun
runLive(const Context &ctx, const std::string &model, bool record)
{
    LiveRun run;
    RunOptions opt = ctx.options;
    opt.extraObserver = &run.clock;
    run.callUs = nowUs();
    if (record)
        run.trace = recordWorkloadTrace(model, opt, &run.profile);
    else
        run.profile = CharacterizationRunner(opt).run(model);
    run.clock.finish(nowUs());
    if (!run.clock.measuring())
        throw std::runtime_error(model + ": no measured iteration");
    return run;
}

/** Fig. 2-8 tables and the figures document, rendered to memory. */
double
renderReports(const std::vector<WorkloadProfile> &profiles)
{
    const double start = nowUs();
    std::ostringstream os;
    os << reports::figuresJson(profiles);
    reports::printFig2OpBreakdown(profiles, os);
    reports::printFig3InstructionMix(profiles, os);
    reports::printFig4Throughput(profiles, os);
    reports::printFig5Stalls(profiles, os);
    reports::printFig6Cache(profiles, os);
    reports::printFig7Sparsity(profiles, os);
    reports::printFig8SparsityTimeline(profiles, os);
    const double sec = sinceSec(start);
    if (os.str().empty())
        throw std::runtime_error("reports rendered nothing");
    return sec;
}

std::string
itemKey(const Context &ctx, const std::string &model)
{
    return std::string(ctx.spec->name) + "/" + model;
}

double
peakRssMib()
{
    struct rusage usage
    {
    };
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

/**
 * One train-* item: one model trained live in this process. Set-up is
 * the run() call up to its first measured IterationBegin; timed work
 * is the rest of the call plus rendering its reports. A traced item
 * records the run through the trace hook and, after the timed work,
 * replays the recording for the sim layer.
 */
Record
trainItem(const Context &ctx, const std::string &model, bool traced)
{
    obs::SpanTracer &tracer = obs::SpanTracer::instance();
    tracer.setEnabled(traced);
    Record rec;
    Window window;
    const std::string key = itemKey(ctx, model);
    runItem(rec, key, [&](hb::ItemCheck &check) {
        const double start = nowUs();
        const LiveRun run = runLive(ctx, model, traced);
        const double live_s = sinceSec(start);
        checkProfile(ctx, check, key, run.profile);
        rec.layers.renderS = renderReports({run.profile});
        rec.setupS = run.setupSec();
        rec.wallS = run.clock.timedSec() + rec.layers.renderS;
        rec.launches = static_cast<double>(run.clock.launches);
        std::printf("  %-22s setup %.4f s, timed %.4f s, %lld launches\n",
                    key.c_str(), rec.setupS, rec.wallS,
                    static_cast<long long>(run.clock.launches));
        if (traced) {
            window = {run.clock.firstIterUs, run.clock.endUs};
            rec.layers.recordS = live_s;
            rec.layers.addLive(run);
            rec.layers.addCadence(run.clock);
            replayLayers(check, key, run.trace, run.profile, rec.layers);
        }
    });
    tracer.setEnabled(false);
    if (traced)
        rec.layers.addOpSpans(tracer.collect(), {window});
    rec.rssMib = {peakRssMib()};
    return rec;
}

/**
 * One pass of replay-sweep, in this process. Set-up parses every
 * recording from its in-memory bytes; each item replays one recording
 * serially on its recording config, runs it through the L2 sweep and
 * renders the replayed reports. The live layers of a traced pass are
 * those of the recording runs, `live_layers`.
 */
Record
replayPass(const Context &ctx, const std::vector<Recording> &recordings,
           const LayerTotals &live_layers, bool traced)
{
    obs::SpanTracer::instance().setEnabled(traced);
    Record pass;
    LayerTotals &layers = pass.layers;
    layers = live_layers;
    std::vector<trace::RecordedTrace> parsed;
    for (const Recording &r : recordings) {
        const double start = nowUs();
        parsed.push_back(trace::parseTrace(r.bytes, r.model));
        pass.setupS += sinceSec(start);
    }
    layers.parseS = pass.setupS;

    for (size_t i = 0; i < recordings.size(); ++i) {
        const Recording &r = recordings[i];
        const trace::RecordedTrace &t = parsed[i];
        const std::string key = itemKey(ctx, r.model);
        runItem(pass, key, [&](hb::ItemCheck &check) {
            PhaseClock clock;
            const double start = nowUs();
            const trace::ReplayResult single =
                trace::replayTrace(t, t.header.config, {&clock});
            clock.finish(nowUs());
            const double single_s = sinceSec(start);
            const auto points = trace::sweepTrace(t, sweepConfigs(t));
            const double sweep_s = sinceSec(start) - single_s;
            const WorkloadProfile replayed = toWorkloadProfile(single);
            const double render_s = renderReports({replayed});
            pass.wallS += single_s + sweep_s + render_s;
            pass.launches += static_cast<double>(
                r.launches * static_cast<int64_t>(1 + points.size()));

            check.require(replayMatchesLive(r.live, replayed),
                          key + ": replay differs from its recording run");
            checkSweep(check, key, points);
            checkProfile(ctx, check, key, replayed);
            layers.replaySingleS += single_s;
            layers.sweepS += sweep_s;
            layers.replayS += clock.timedSec();
            layers.renderS += render_s;
            layers.addCadence(clock);
        });
    }
    obs::SpanTracer::instance().setEnabled(false);
    pass.rssMib = {peakRssMib()};
    return pass;
}

/**
 * replay-sweep preparation, untimed: record every model once and keep
 * its serialized bytes. The recordings are where the live layers run,
 * so their per-layer sums come back in `live_layers`.
 */
std::vector<Recording>
prepareRecordings(const Context &ctx, bool traced, LayerTotals &live_layers)
{
    obs::SpanTracer &tracer = obs::SpanTracer::instance();
    tracer.setEnabled(traced);
    std::vector<Recording> out;
    std::vector<Window> windows;
    for (const std::string &model : ctx.spec->models) {
        const double start = nowUs();
        const LiveRun run = runLive(ctx, model, true);
        live_layers.recordS += sinceSec(start);
        live_layers.addLive(run);
        windows.emplace_back(run.clock.firstIterUs, run.clock.endUs);

        Recording rec;
        rec.model = model;
        const double ser = nowUs();
        rec.bytes = trace::serializeTrace(run.trace);
        live_layers.serializeS += sinceSec(ser);
        live_layers.traceBytes += static_cast<double>(rec.bytes.size());
        for (const trace::TraceEvent &e : run.trace.events)
            rec.launches += std::holds_alternative<trace::LaunchEvent>(e);
        rec.live = run.profile;
        out.push_back(std::move(rec));
    }
    tracer.setEnabled(false);
    if (traced)
        live_layers.addOpSpans(tracer.collect(), windows);
    tracer.clear();
    return out;
}

// --- the protocol between the parent and a train-* item process ---

void
writeRecord(std::ostream &os, const Record &r)
{
    os.precision(17);
    os << "@ record " << r.setupS << " " << r.wallS << " " << r.launches
       << " " << r.items.attempted << " " << r.items.failed << " "
       << r.rssMib.at(0) << "\n";
    for (const auto &[name, field] : kTotalsFields)
        os << "@ field " << name << " " << r.layers.*field << "\n";
    for (const auto &[name, series] :
         {std::pair{"gaps", &r.layers.launchGapsUs},
          std::pair{"iters", &r.layers.iterMs}}) {
        os << "@ " << name;
        for (double x : *series)
            os << " " << x;
        os << "\n";
    }
}

/** Parse the "@ ..." lines of an item process; echo every other line. */
Record
readRecord(const std::string &output)
{
    Record r;
    bool seen = false;
    std::istringstream in(output);
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("@ ", 0) != 0) {
            std::cout << line << "\n";
            continue;
        }
        std::istringstream f(line.substr(2));
        std::string kind;
        f >> kind;
        if (kind == "record") {
            double rss = 0;
            f >> r.setupS >> r.wallS >> r.launches >> r.items.attempted >>
                r.items.failed >> rss;
            r.rssMib = {rss};
            seen = !f.fail();
        } else if (kind == "field") {
            std::string name;
            double value = 0;
            f >> name >> value;
            for (const auto &[n, field] : kTotalsFields)
                if (name == n)
                    r.layers.*field = value;
        } else {
            auto &series =
                kind == "gaps" ? r.layers.launchGapsUs : r.layers.iterMs;
            for (double x = 0; f >> x;)
                series.push_back(x);
        }
    }
    if (!seen)
        throw std::runtime_error("item process sent no record");
    return r;
}

/**
 * Run one train-* item in a fresh process of this binary. Each model
 * trains in a process of its own because a run's simulated figures
 * depend on what ran before it in the same process: the device address
 * arena is process-global, so an earlier run changes the addresses, and
 * hence the cache behaviour, that the next one sees. A fresh process is
 * what every `gnnmark run` starts from, one-shot dispatch calibration
 * included. A process that fails to report counts as a failed item.
 */
Record
spawnItem(const std::vector<std::string> &child_args)
{
    int fds[2];
    if (pipe(fds) != 0)
        throw std::runtime_error("pipe failed");
    const pid_t pid = fork();
    if (pid < 0)
        throw std::runtime_error("fork failed");
    if (pid == 0) {
        dup2(fds[1], STDOUT_FILENO);
        close(fds[0]);
        close(fds[1]);
        std::vector<char *> argv;
        for (const std::string &a : child_args)
            argv.push_back(const_cast<char *>(a.c_str()));
        argv.push_back(nullptr);
        execv("/proc/self/exe", argv.data());
        _exit(127);
    }
    close(fds[1]);
    std::string output;
    char buf[65536];
    ssize_t n = 0;
    while ((n = read(fds[0], buf, sizeof(buf))) > 0)
        output.append(buf, static_cast<size_t>(n));
    close(fds[0]);
    int status = 0;
    waitpid(pid, &status, 0);
    try {
        if (n < 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0)
            throw std::runtime_error("item process failed");
        return readRecord(output);
    } catch (const std::exception &e) {
        std::cout << output << "  FAILED " << child_args.back() << ": "
                  << e.what() << "\n";
        Record failed;
        failed.items = {1, 1};
        return failed;
    }
}

// --- command line and the measuring loop ---

struct Args
{
    std::string workload;
    uint64_t seed = kDefaultSeed;
    double seconds = 10;
    bool trace = false;
    std::string reference;
    std::string item; ///< internal: train this one model here and report
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "hostbench: " << why
              << "\nusage: hostbench --workload train-dense|train-small|"
                 "replay-sweep [--seed N] [--seconds S] [--trace 0|1] "
                 "[--reference FILE]\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (flag == "--seconds") {
            args.seconds = std::strtod(value.c_str(), &end);
            if (!(args.seconds > 0))
                usage("--seconds must be positive");
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace takes 0 or 1");
            args.trace = value == "1";
        } else if (flag == "--reference") {
            args.reference = value;
        } else if (flag == "--item") {
            args.item = value;
        } else {
            usage("unknown flag " + flag);
        }
        if (end != nullptr && *end != '\0')
            usage("bad number for " + flag + ": " + value);
    }
    if (args.workload.empty())
        usage("--workload is required");
    return args;
}

Context
makeContext(const Args &args)
{
    Context ctx;
    for (const WorkloadSpec &spec : kWorkloads)
        if (args.workload == spec.name)
            ctx.spec = &spec;
    if (ctx.spec == nullptr)
        usage("unknown workload " + args.workload);
    ctx.options.seed = args.seed;
    ctx.options.scale = 1.0;
    ctx.options.iterations = ctx.spec->iterations;
    ctx.options.warmupIterations = 1;
    ctx.checkReference = args.seed == kDefaultSeed;
    if (ctx.checkReference) {
        std::ifstream in(args.reference);
        if (!in)
            throw std::runtime_error("cannot read reference file '" +
                                     args.reference + "'");
        std::stringstream text;
        text << in.rdbuf();
        ctx.reference = hb::parseReference(text.str());
    }
    return ctx;
}

void
metricJson(obs::JsonWriter &w, const std::string &name, double value,
           const char *unit)
{
    if (!std::isfinite(value))
        throw std::runtime_error("metric " + name + " is not finite");
    w.key(name).beginObject();
    w.key("value").value(value);
    w.key("unit").value(unit);
    w.endObject();
    std::printf("%-26s %14.6g %s\n", name.c_str(), value, unit);
}

/**
 * Peak resident memory of a pass: the geometric mean over its
 * processes of each one's peak, so every model weighs the same. Not
 * the largest: single models' peaks jump with the workload seed (KGNNH
 * between about 100 and 150 MiB, GW between 249 and 273 MiB), and runs
 * are compared across seeds.
 */
double
itemRss(const Record &pass)
{
    return hb::geomean(pass.rssMib);
}

template <typename F>
double
medianOf(const std::vector<Record> &passes, F field)
{
    std::vector<double> v;
    for (const Record &p : passes)
        v.push_back(field(p));
    return hb::median(v);
}

std::vector<double>
pooled(const std::vector<Record> &passes,
       std::vector<double> LayerTotals::*series)
{
    std::vector<double> out;
    for (const Record &p : passes)
        out.insert(out.end(), (p.layers.*series).begin(),
                   (p.layers.*series).end());
    return out;
}

/** Traced passes have given every cadence percentile its support. */
bool
cadenceSupported(const std::vector<Record> &traced)
{
    const auto n = [&](std::vector<double> LayerTotals::*series) {
        return static_cast<int64_t>(pooled(traced, series).size());
    };
    return hb::percentileSupported(n(&LayerTotals::launchGapsUs), 0.99) &&
           hb::percentileSupported(n(&LayerTotals::iterMs), 0.90);
}

/**
 * Nearest-rank percentile. Support can only be missing when the time
 * cap cut a traced run short; the value is then the nearest rank
 * anyway, and the run says so.
 */
double
percentile(std::vector<double> samples, double q, const char *what)
{
    if (const auto v = hb::nearestRank(samples, q))
        return *v;
    std::cout << "note: " << samples.size() << " " << what
              << " samples do not support percentile " << q << "\n";
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    return samples[hb::nearestRankIndex(
                       static_cast<int64_t>(samples.size()), q) -
                   1];
}

void
printResult(const Args &args, const std::vector<Record> &plain,
            const std::vector<Record> &traced)
{
    Record all;
    for (const auto *set : {&plain, &traced})
        for (const Record &p : *set)
            all.add(p);
    const int64_t attempted = all.items.attempted;
    const int64_t failed = all.items.failed;
    std::printf("failed/attempted: %lld/%lld\n",
                static_cast<long long>(failed),
                static_cast<long long>(attempted));

    obs::JsonWriter w;
    w.beginObject();
    w.key("correct").value(failed == 0 && attempted > 0);
    w.key("attempted").value(attempted);
    w.key("failed").value(failed);
    w.key("metrics").beginObject();
    const auto wall = [](const Record &p) { return p.wallS; };
    if (!args.trace) {
        metricJson(w, "wall_s", medianOf(plain, wall), "s");
        metricJson(w, "kernels_per_s", medianOf(plain, [](const Record &p) {
                       return ratio(p.launches, p.wallS);
                   }),
                   "1/s");
        metricJson(w, "setup_s",
                   medianOf(plain, [](const Record &p) { return p.setupS; }),
                   "s");
        metricJson(w, "peak_rss_mib", medianOf(plain, itemRss), "MiB");
    } else {
        std::vector<std::vector<Metric>> per_pass;
        for (const Record &p : traced)
            per_pass.push_back(layerMetrics(p.layers));
        for (size_t k = 0; k < per_pass.front().size(); ++k) {
            std::vector<double> values;
            for (const std::vector<Metric> &m : per_pass)
                values.push_back(m[k].value);
            const Metric &first = per_pass.front()[k];
            metricJson(w, first.name, hb::median(values), first.unit);
        }
        const auto gaps = pooled(traced, &LayerTotals::launchGapsUs);
        const auto iters = pooled(traced, &LayerTotals::iterMs);
        metricJson(w, "core.launch_us_p50", percentile(gaps, 0.5, "launch"),
                   "us");
        metricJson(w, "core.launch_us_p99", percentile(gaps, 0.99, "launch"),
                   "us");
        metricJson(w, "core.launch_samples",
                   static_cast<double>(gaps.size()), "count");
        metricJson(w, "core.iter_ms_p50", percentile(iters, 0.5, "iteration"),
                   "ms");
        metricJson(w, "core.iter_ms_p90", percentile(iters, 0.9, "iteration"),
                   "ms");
        metricJson(w, "core.iter_samples", static_cast<double>(iters.size()),
                   "count");
        const double untraced = medianOf(plain, wall);
        metricJson(w, "trace_overhead_frac",
                   ratio(medianOf(traced, wall) - untraced, untraced),
                   "ratio");
    }
    w.endObject();
    w.endObject();
    std::cout << w.str() << std::endl;
}

int
run(const Args &args, const char *argv0)
{
    const Context ctx = makeContext(args);
    if (!args.item.empty()) {
        writeRecord(std::cout, trainItem(ctx, args.item, args.trace));
        return 0;
    }

    const char *threads = std::getenv("GNNMARK_THREADS");
    std::cout << "hostbench: workload " << ctx.spec->name << ", seed "
              << args.seed << ", " << args.seconds << " s, trace "
              << args.trace << ", GNNMARK_THREADS "
              << (threads != nullptr ? threads : "unset") << "\n";

    LayerTotals live_layers;
    std::vector<Recording> recordings;
    if (ctx.spec->replay) {
        const double start = nowUs();
        recordings = prepareRecordings(ctx, args.trace, live_layers);
        std::printf("prep: recorded %zu models in %.3f s (untimed)\n",
                    recordings.size(), sinceSec(start));
    }

    // Closed loop: one pass after another until the time is spent.
    // Traced runs alternate untraced and traced passes, so the tracing
    // overhead compares neighbours under the same machine load.
    std::vector<Record> plain, traced;
    const double start = nowUs();
    for (int i = 0;; ++i) {
        const bool trace_pass = args.trace && i % 2 == 1;
        Record pass;
        if (ctx.spec->replay) {
            pass = replayPass(ctx, recordings, live_layers, trace_pass);
        } else {
            for (const std::string &model : ctx.spec->models)
                pass.add(spawnItem(
                    {argv0, "--workload", args.workload, "--seed",
                     std::to_string(args.seed), "--reference",
                     args.reference, "--trace", trace_pass ? "1" : "0",
                     "--item", model}));
        }
        std::printf("pass %d%s: setup %.4f s, wall %.4f s, %.0f launches, "
                    "%.1f MiB\n",
                    i + 1, trace_pass ? " (traced)" : "", pass.setupS,
                    pass.wallS, pass.launches, itemRss(pass));
        (trace_pass ? traced : plain).push_back(std::move(pass));

        const double elapsed = sinceSec(start);
        if (elapsed >= kCapSec && (!args.trace || !traced.empty()))
            break;
        if (elapsed >= args.seconds &&
            (!args.trace || (!traced.empty() && cadenceSupported(traced))))
            break;
    }
    printResult(args, plain, traced);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    try {
        return run(args, argv[0]);
    } catch (const std::exception &e) {
        std::cerr << "hostbench: " << e.what() << "\n";
        return 1;
    }
}
