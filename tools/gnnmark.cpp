/**
 * @file
 * The `gnnmark` command-line driver — the front door a downstream user
 * runs, mirroring the run scripts of the original suite. Each verb is
 * one row of kVerbs and each flag one row of kFlags (bottom of this
 * file): parsing, per-verb acceptance, range checks and the usage text
 * all come from those rows. `gnnmark` with no arguments prints them.
 */

#include <algorithm>
#include <chrono>
#include <iostream>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "base/io.hh"
#include "base/rng.hh"
#include "base/logging.hh"
#include "base/string_utils.hh"
#include "base/table.hh"
#include "base/thread_pool.hh"
#include "base/units.hh"
#include "core/characterization.hh"
#include "core/report_model.hh"
#include "core/reports.hh"
#include "core/reports_json.hh"
#include "core/suite.hh"
#include "core/time_to_train.hh"
#include "core/trace_capture.hh"
#include "gen/degree_stats.hh"
#include "gen/edge_stream.hh"
#include "gen/report.hh"
#include "gen/stream_train.hh"
#include "models/ego_net.hh"
#include "multigpu/ddp.hh"
#include "obs/json.hh"
#include "obs/span.hh"
#include "obs/telemetry.hh"
#include "ops/dispatch.hh"
#include "ops/exec_context.hh"
#include "ops/gemm.hh"
#include "ops/spmm.hh"
#include "profiler/chrome_trace.hh"
#include "profiler/profiler.hh"
#include "tensor/sparse.hh"
#include "serve/cost_model.hh"
#include "serve/server.hh"
#include "sim/fault_plan_io.hh"
#include "sim/gpu_device.hh"
#include "trace/reader.hh"
#include "trace/toolkit.hh"

using namespace gnnmark;

namespace {

struct Verb;

/** The parsed command line; each kFlags row binds one option member. */
struct Args
{
    const Verb *verb = nullptr;
    std::vector<std::string> operands; ///< workload or trace paths
    double scale = 1.0, target = 0.85;
    int iterations = 0; ///< 0 = the verb's default
    int interval = 12;
    bool inference = false, weak = false, memstats = false, opstats = false;
    bool json = false;
    std::string out, tracePath, chromePath, telemetryPath;
    std::string overlap = "on", param = "l2";
    std::vector<double> points;  ///< empty = the parameter's defaults
    double l2Mib = 0, l1Kib = 0; ///< replay overrides, 0 = as recorded
    int sms = 0;                 ///< replay override, 0 = as recorded

    // Serving and fault plans.
    std::string arrival = "poisson";
    double rps = 0, sloMs = 0; ///< 0 = sized from the batch cost
    double durationSec = 2.0;
    int replicas = 3, batchMax = 8;
    std::string faultsScenario = "none", planPath, savePlanPath;
    std::string hedge = "on", shed = "on", fallback = "on";
    uint64_t seed = 42;
    double windowMs = 0, sloTarget = 0.99;
    int64_t traceSampleEvery = 0; ///< 0 = request tracing off

    // Generation; the defaults mirror GeneratorConfig.
    std::string family;
    int64_t genN = 1 << 16, genM = 0; ///< genM 0 = derive from degree
    double degree = 8.0, gamma = 2.8;
    int chunks = 8, lookahead = 4;
    int64_t gridRows = 0, gridCols = 0, trainWindow = 0;
    bool gridWrap = false, stream = false, stats = false;
};

/** A command-line mistake: main() prints it with the usage, exit 2. */
struct UsageError : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/** Throw a UsageError when `name` is not a suite workload. */
void
requireWorkload(const std::string &name)
{
    const std::vector<std::string> names =
        BenchmarkSuite::workloadNames();
    if (std::find(names.begin(), names.end(), name) == names.end()) {
        throw UsageError("unknown workload: " + name +
                         "\nknown workloads: " + join(names, " "));
    }
}

RunOptions
runOptions(const Args &args)
{
    RunOptions opt;
    opt.scale = args.scale;
    opt.iterations = args.iterations > 0 ? args.iterations : 6;
    opt.inferenceOnly = args.inference;
    return opt;
}

/**
 * Progress chatter goes to stderr in --json mode so stdout stays a
 * single parseable document.
 */
std::ostream &
progressStream(const Args &args)
{
    return args.json ? std::cerr : std::cout;
}

/** Open the --telemetry sink, or null when the flag wasn't given. */
std::unique_ptr<obs::TelemetrySink>
openTelemetry(const Args &args)
{
    if (args.telemetryPath.empty())
        return nullptr;
    return std::make_unique<obs::TelemetrySink>(args.telemetryPath);
}

/** Merge the recorded host spans into `chrome` and write it out. */
void
finishChromeTrace(ChromeTraceWriter &chrome, const std::string &path,
                  std::ostream &os)
{
    chrome.addHostSpans(obs::SpanTracer::instance().collect());
    chrome.write(path);
    os << "\nchrome trace (" << chrome.eventCount()
       << " events) written to " << path
       << " — load it in chrome://tracing or Perfetto\n";
}

int
cmdList(const Args &)
{
    reports::printTableOne(std::cout);
    return 0;
}

int
cmdRun(const Args &args)
{
    const std::string &workload = args.operands.front();
    requireWorkload(workload);
    RunOptions opt = runOptions(args);
    ChromeTraceWriter chrome;
    if (!args.chromePath.empty())
        opt.extraObserver = &chrome;
    std::unique_ptr<obs::TelemetrySink> telemetry = openTelemetry(args);
    opt.telemetry = telemetry.get();
    if (args.opstats)
        ops::Dispatch::instance().setMetricsEnabled(true);
    CharacterizationRunner runner(opt);
    std::ostream &progress = progressStream(args);
    progress << (args.inference ? "Profiling (inference mode) "
                                : "Training ")
             << workload << " on the simulated V100...\n\n";

    const double host_begin = obs::SpanTracer::instance().nowUs();
    const WorkloadProfile profile = runner.run(workload);
    const double host_wall_us =
        obs::SpanTracer::instance().nowUs() - host_begin;

    if (args.json) {
        std::cout << reports::figuresJson({profile}) << "\n";
        if (args.memstats)
            std::cout << reports::memstatsJson({profile}) << "\n";
        if (args.opstats)
            std::cout << reports::opstatsJson() << "\n";
    } else {
        reports::printRunSummary(profile, std::cout);
        if (args.memstats)
            reports::printMemstats({profile}, std::cout);
        if (args.opstats)
            reports::printOpstats(std::cout);
    }
    if (telemetry != nullptr) {
        telemetry->writeRecord(reports::runManifestJson(
            profile, opt, ThreadPool::instance().threadCount(),
            host_wall_us));
        progress << "\ntelemetry (" << telemetry->recordCount()
                 << " records) written to " << telemetry->path() << "\n";
    }
    if (!args.chromePath.empty())
        finishChromeTrace(chrome, args.chromePath, progress);
    return 0;
}

/**
 * Apply one l2, l1 or sms sweep point to a config; returns a printable
 * label. (World sweeps go through cmdSweepWorld.)
 */
std::string
applySweepPoint(GpuConfig &cfg, const std::string &param, double value)
{
    if (param == "l2") {
        cfg.l2SizeBytes = static_cast<uint64_t>(value * MiB);
        return strfmt("L2 %g MiB", value);
    }
    if (param == "l1") {
        cfg.l1SizeBytes = static_cast<uint64_t>(value * KiB);
        return strfmt("L1 %g KiB", value);
    }
    cfg.numSms = static_cast<int>(value);
    return strfmt("%d SMs", cfg.numSms);
}

/** The workload a live sweep re-trains (sweeps without a trace). */
std::string
liveSweepWorkload(const Args &args)
{
    if (args.operands.empty())
        throw UsageError("sweep needs a <workload> or a trace to replay");
    requireWorkload(args.operands.front());
    return args.operands.front();
}

void
printSweepRow(TablePrinter &table, const std::string &label,
              const WorkloadProfile &p)
{
    table.addRow({label, strfmt("%.3f", p.epochTimeSec * 1e3),
                  strfmt("%.1f%%", p.profiler.l1HitRate() * 100),
                  strfmt("%.1f%%", p.profiler.l2HitRate() * 100),
                  strfmt("%.2f", p.profiler.avgIpc())});
}

/**
 * `sweep --param world`: price a DDP scaling curve over GPU counts.
 * Live runs use the full DdpTrainer measurement; with --trace the
 * recorded kernel stream is replayed once and its per-iteration
 * backward windows feed the overlap model offline (weak-scaling
 * semantics — the recorded stream is the fixed per-GPU work).
 */
int
cmdSweepWorld(const Args &args)
{
    std::vector<int> worlds;
    for (double v :
         args.points.empty() ? std::vector<double>{1, 2, 4} : args.points)
        worlds.push_back(static_cast<int>(v));
    DdpOptions ddp_options;
    ddp_options.overlapComm = args.overlap == "on";

    std::vector<ScalingResult> curve;
    if (!args.tracePath.empty()) {
        const trace::RecordedTrace trace =
            trace::readTraceFile(args.tracePath);
        std::cout << "Sweeping world over the recorded "
                  << trace.header.workload << " stream (overlap "
                  << args.overlap << ")...\n\n";
        const trace::ReplayResult replay = trace::replayTrace(trace);
        // The sampler-compatibility flag is a property of the model,
        // not of the recorded stream; recover it from the suite.
        bool compatible = true;
        const std::vector<std::string> names =
            BenchmarkSuite::workloadNames();
        if (std::find(names.begin(), names.end(),
                      trace.header.workload) != names.end()) {
            compatible = BenchmarkSuite::create(trace.header.workload)
                             ->samplerDdpCompatible();
        } else {
            warn("trace workload '%s' is not in the suite; assuming "
                 "a DDP-compatible sampler (no replication penalty)",
                 trace.header.workload.c_str());
        }
        curve = ddp::scalingFromTimelines(
            Interconnect{InterconnectConfig{}}, replay.iterations,
            replay.epochTimeSec,
            static_cast<double>(replay.iterationsPerEpoch),
            replay.parameterBytes, compatible, worlds, ddp_options);
    } else {
        const std::string workload = liveSweepWorkload(args);
        std::cout << "Sweeping world with live " << workload
                  << " runs (overlap " << args.overlap << ")...\n\n";
        auto wl = BenchmarkSuite::create(workload);
        WorkloadConfig base;
        base.scale = args.scale;
        DdpTrainer trainer(GpuConfig::v100(), InterconnectConfig{},
                           ddp_options);
        curve = trainer.scalingCurve(
            *wl, base, worlds, args.iterations > 0 ? args.iterations : 4);
    }

    TablePrinter table(
        strfmt("world sensitivity (overlap %s)", args.overlap.c_str()));
    table.setHeader({"GPUs", "epoch (ms)", "compute (ms)", "comm (ms)",
                     "exposed (ms)", "overlap %", "speedup"});
    for (const ScalingResult &r : curve) {
        table.addRow({strfmt("%d", r.worldSize),
                      strfmt("%.3f", r.epochTimeSec * 1e3),
                      strfmt("%.3f", r.computeTimeSec * 1e3),
                      strfmt("%.3f", r.commTimeSec * 1e3),
                      strfmt("%.3f", r.commExposedSec * 1e3),
                      strfmt("%.1f", r.overlapFrac * 100.0),
                      strfmt("%.2f", r.speedup)});
    }
    table.print(std::cout);
    return 0;
}

int
cmdSweep(const Args &args)
{
    // SM and GPU counts truncate to whole numbers, so a point below one
    // would leave none; which points are counts depends on the param.
    if ((args.param == "sms" || args.param == "world") &&
        std::any_of(args.points.begin(), args.points.end(),
                    [](double v) { return v < 1; }))
        throw UsageError(args.param + " sweep points must be >= 1");
    if (args.param == "world")
        return cmdSweepWorld(args);
    std::vector<double> points = args.points;
    if (points.empty()) {
        points = args.param == "l1"    ? std::vector<double>{64, 128, 192, 256}
                 : args.param == "sms" ? std::vector<double>{40, 60, 80, 108}
                                       : std::vector<double>{2, 4, 6, 12};
    }

    TablePrinter table(strfmt("%s sensitivity", args.param.c_str()));
    table.setHeader({"config", "epoch (ms)", "L1 hit", "L2 hit", "IPC"});

    if (!args.tracePath.empty()) {
        // Trace-driven: one recorded run, N cache-model replays.
        const trace::RecordedTrace trace =
            trace::readTraceFile(args.tracePath);
        std::cout << "Sweeping " << args.param << " over the recorded "
                  << trace.header.workload << " trace...\n\n";
        for (double value : points) {
            GpuConfig cfg = trace.header.config;
            const std::string label =
                applySweepPoint(cfg, args.param, value);
            printSweepRow(table, label,
                          toWorkloadProfile(trace::replayTrace(trace, cfg)));
        }
    } else {
        // Live: re-train the workload once per point.
        const std::string workload = liveSweepWorkload(args);
        std::cout << "Sweeping " << args.param << " with live "
                  << workload << " runs...\n\n";
        for (double value : points) {
            RunOptions opt = runOptions(args);
            const std::string label =
                applySweepPoint(opt.deviceConfig, args.param, value);
            CharacterizationRunner runner(opt);
            printSweepRow(table, label, runner.run(workload));
        }
    }
    table.print(std::cout);
    return 0;
}

int
cmdTraceRecord(const Args &args)
{
    const std::string &workload = args.operands.front();
    requireWorkload(workload);
    const std::string out =
        args.out.empty() ? workload + ".gnntrace" : args.out;
    std::cout << "Recording " << workload << "...\n";
    const trace::RecordedTrace trace =
        recordWorkloadTrace(workload, runOptions(args));
    trace::writeTraceFile(out, trace);
    const uint64_t encoded = trace::serializeTrace(trace).size();
    const uint64_t naive = trace::naiveSizeBytes(trace);
    std::cout << strfmt(
        "%zu events -> %s (%s, %.1fx smaller than raw structs)\n",
        trace.events.size(), out.c_str(),
        formatBytes(static_cast<double>(encoded)).c_str(),
        static_cast<double>(naive) / static_cast<double>(encoded));
    return 0;
}

int
cmdTraceInfo(const Args &args)
{
    const std::string &path = args.operands.front();
    const std::vector<uint8_t> bytes = readFileBytes(path);
    trace::printTraceInfo(
        trace::parseTrace(bytes, "trace file '" + path + "'"), bytes.size(),
        std::cout);
    return 0;
}

int
cmdTraceReplay(const Args &args)
{
    const trace::RecordedTrace trace =
        trace::readTraceFile(args.operands.front());
    GpuConfig cfg = trace.header.config;
    if (args.l2Mib > 0)
        cfg.l2SizeBytes = static_cast<uint64_t>(args.l2Mib * MiB);
    if (args.l1Kib > 0)
        cfg.l1SizeBytes = static_cast<uint64_t>(args.l1Kib * KiB);
    if (args.sms > 0)
        cfg.numSms = args.sms;
    ChromeTraceWriter chrome;
    std::vector<KernelObserver *> observers;
    if (!args.chromePath.empty())
        observers.push_back(&chrome);
    std::cout << "Replaying the recorded " << trace.header.workload
              << " stream...\n\n";
    reports::printRunSummary(
        toWorkloadProfile(trace::replayTrace(trace, cfg, observers)),
        std::cout);
    if (!args.chromePath.empty())
        finishChromeTrace(chrome, args.chromePath, std::cout);
    return 0;
}

int
cmdTraceDiff(const Args &args)
{
    const trace::RecordedTrace a = trace::readTraceFile(args.operands[0]);
    const trace::RecordedTrace b = trace::readTraceFile(args.operands[1]);
    trace::printTraceDiff(a, b, std::cout);
    return 0;
}

int
cmdCharacterize(const Args &args)
{
    if (args.opstats)
        ops::Dispatch::instance().setMetricsEnabled(true);
    RunOptions opt = runOptions(args);
    std::unique_ptr<obs::TelemetrySink> telemetry = openTelemetry(args);
    opt.telemetry = telemetry.get();
    CharacterizationRunner runner(opt);
    std::ostream &progress = progressStream(args);
    std::vector<WorkloadProfile> profiles;
    for (const std::string &name : BenchmarkSuite::workloadNames()) {
        progress << "  " << name << "..." << std::flush;
        const double host_begin = obs::SpanTracer::instance().nowUs();
        profiles.push_back(runner.run(name));
        if (telemetry != nullptr) {
            telemetry->writeRecord(reports::runManifestJson(
                profiles.back(), opt,
                ThreadPool::instance().threadCount(),
                obs::SpanTracer::instance().nowUs() - host_begin));
        }
        progress << " done\n";
    }
    progress << "\n";
    if (telemetry != nullptr) {
        progress << "telemetry (" << telemetry->recordCount()
                 << " records) written to " << telemetry->path()
                 << "\n\n";
    }
    if (args.json) {
        std::cout << reports::figuresJson(profiles) << "\n";
        if (args.memstats)
            std::cout << reports::memstatsJson(profiles) << "\n";
        if (args.opstats)
            std::cout << reports::opstatsJson() << "\n";
        return 0;
    }
    reports::printFig2OpBreakdown(profiles, std::cout);
    reports::printFig3InstructionMix(profiles, std::cout);
    reports::printFig4Throughput(profiles, std::cout);
    reports::printFig5Stalls(profiles, std::cout);
    reports::printFig6Cache(profiles, std::cout);
    reports::printFig7Sparsity(profiles, std::cout);
    if (args.memstats)
        reports::printMemstats(profiles, std::cout);
    if (args.opstats)
        reports::printOpstats(std::cout);
    return 0;
}

int
cmdScaling(const Args &args)
{
    WorkloadConfig base;
    base.scale = args.scale;
    DdpOptions ddp_options;
    ddp_options.overlapComm = args.overlap == "on";
    DdpTrainer trainer(GpuConfig::v100(), InterconnectConfig{},
                       ddp_options);
    const int iters = args.iterations > 0 ? args.iterations : 4;
    std::unique_ptr<obs::TelemetrySink> telemetry = openTelemetry(args);
    std::ostream &progress = progressStream(args);
    std::vector<std::pair<std::string, std::vector<ScalingResult>>>
        curves;
    for (const std::string &name : BenchmarkSuite::workloadNames()) {
        auto wl = BenchmarkSuite::create(name);
        if (!wl->supportsMultiGpu())
            continue;
        progress << "  " << name << "..." << std::flush;
        curves.emplace_back(
            name,
            args.weak
                ? trainer.weakScalingCurve(*wl, base, {1, 2, 4}, iters)
                : trainer.scalingCurve(*wl, base, {1, 2, 4}, iters));
        if (telemetry != nullptr) {
            telemetry->writeRecord(reports::scalingRecordJson(
                name, args.weak, ddp_options.overlapComm,
                curves.back().second));
        }
        progress << " done\n";
    }
    progress << "\n";
    if (telemetry != nullptr) {
        progress << "telemetry (" << telemetry->recordCount()
                 << " records) written to " << telemetry->path()
                 << "\n\n";
    }
    if (args.json)
        std::cout << reports::scalingJson(curves) << "\n";
    else
        reports::printFig9Scaling(curves, std::cout);
    return 0;
}

int
cmdTimeToTrain(const Args &args)
{
    TimeToTrainOptions opt;
    opt.scale = args.scale;
    opt.lossFraction = args.target;
    TablePrinter table("Time-to-train");
    table.setHeader({"Workload", "Converged", "Steps", "Sim time (ms)"});
    for (const std::string &name : BenchmarkSuite::workloadNames()) {
        auto wl = BenchmarkSuite::create(name);
        TimeToTrainResult r = measureTimeToTrain(*wl, opt);
        table.addRow({r.name, r.converged ? "yes" : "no",
                      strfmt("%d", r.iterations),
                      strfmt("%.1f", r.simulatedTimeSec * 1e3)});
    }
    table.print(std::cout);
    return 0;
}

/**
 * Built-in serving fault scenarios, scaled to the arrival horizon.
 * "straggler" slows one replica 6x for most of the run, "crash" kills
 * the last replica at 30%, "mixed" layers both plus a second, shorter
 * straggler window — the overload story the robustness ablations are
 * judged against.
 */
FaultPlan
serveScenarioPlan(const std::string &scenario, int replicas,
                  double duration)
{
    if (scenario == "none")
        return FaultPlan{};
    // FaultEvent fields: kind, time, replica, duration, magnitude.
    std::vector<FaultEvent> events;
    if (scenario == "straggler" || scenario == "mixed") {
        events.push_back({FaultKind::Straggler, 0.15 * duration,
                          replicas > 1 ? 1 : 0, 0.70 * duration, 6.0});
    }
    if (scenario == "crash" || scenario == "mixed") {
        events.push_back({FaultKind::ReplicaCrash, 0.30 * duration,
                          replicas - 1});
    }
    if (scenario == "mixed" && replicas > 2) {
        events.push_back({FaultKind::Straggler, 0.55 * duration, 0,
                          0.20 * duration, 3.0});
    }
    return FaultPlan(std::move(events));
}

int
cmdServe(const Args &args)
{
    serve::ServeOptions opt;
    if (!serve::parseArrivalProcess(args.arrival, opt.traffic.process))
        throw UsageError("unknown arrival process: " + args.arrival);
    std::ostream &progress = progressStream(args);

    // Price the batch cost table through the real inference path on
    // the simulated device; everything downstream (SLO defaults,
    // offered-load sizing, the serving event loop) runs off it.
    progress << "Pricing ego-net inference batches on the simulated "
                "V100...\n";
    EgoNetBatchModel model(args.scale, args.seed);
    GpuDevice device(GpuConfig::v100(), args.seed);
    const serve::BatchCostTable table =
        serve::priceBatchCosts(model, device, args.batchMax, args.seed);
    const double batch_cost = table.costSec(args.batchMax);

    opt.replicas = args.replicas;
    opt.maxBatch = args.batchMax;
    opt.traffic.seed = args.seed;
    opt.traffic.durationSec = args.durationSec;
    opt.traffic.catalogItems = model.numItems();
    // Default load: 70% of the healthy pool's max-batch throughput;
    // default SLO: 5x the max-batch cost — tight enough that a 6x
    // straggler blows it, loose enough for healthy batching.
    opt.traffic.ratePerSec =
        args.rps > 0 ? args.rps
                     : 0.7 * args.replicas * args.batchMax / batch_cost;
    opt.traffic.sloSec =
        args.sloMs > 0 ? args.sloMs * 1e-3 : 5.0 * batch_cost;
    opt.hedgeEnabled = args.hedge == "on";
    opt.shedEnabled = args.shed == "on";
    opt.fallbackEnabled = args.fallback == "on";
    opt.windowSec = args.windowMs * 1e-3;
    opt.sloTarget = args.sloTarget;
    opt.traceSampleEvery = args.traceSampleEvery;

    if (!args.planPath.empty()) {
        opt.faults = loadFaultPlan(args.planPath);
        opt.faultScenario = "plan";
    } else {
        opt.faults = serveScenarioPlan(args.faultsScenario,
                                       args.replicas, args.durationSec);
        opt.faultScenario = args.faultsScenario;
    }
    if (!args.savePlanPath.empty()) {
        saveFaultPlan(args.savePlanPath, opt.faults);
        progress << "fault plan written to " << args.savePlanPath
                 << "\n";
    }

    progress << strfmt(
        "Serving %s arrivals @ %.0f req/s for %.1f s (SLO %.2f ms, "
        "%d replicas, batch <= %d, faults=%s)...\n\n",
        args.arrival.c_str(), opt.traffic.ratePerSec, args.durationSec,
        opt.traffic.sloSec * 1e3, args.replicas, args.batchMax,
        opt.faultScenario.c_str());

    serve::ServingSimulator sim(table, opt);
    const serve::ServingReport report = sim.run();

    if (args.json)
        std::cout << reports::servingJson(report) << "\n";
    else
        reports::printServing(report, std::cout);
    if (std::unique_ptr<obs::TelemetrySink> telemetry =
            openTelemetry(args)) {
        telemetry->writeRecord(
            reports::servingRecordJson("serve", report));
        // One record per coalesced burn-rate alert, so downstream
        // tooling can correlate alerts against the fault plan without
        // re-deriving the windows.
        for (const serve::ServingAlert &alert : report.alerts)
            telemetry->writeRecord(
                reports::sloAlertRecordJson("serve", report, alert));
        progress << "telemetry written to " << telemetry->path()
                 << "\n";
    }
    if (!args.chromePath.empty()) {
        ChromeTraceWriter chrome;
        chrome.addRequestLanes(sim.drainRequestTraces());
        finishChromeTrace(chrome, args.chromePath, progress);
    }
    return 0;
}

int
cmdFaults(const Args &args)
{
    const std::string &workload = args.operands.front();
    requireWorkload(workload);
    auto wl = BenchmarkSuite::create(workload);

    WorkloadConfig base;
    base.scale = args.scale;
    DdpTrainer trainer;
    const int world = wl->supportsMultiGpu() ? 4 : 1;

    std::ostream &progress = progressStream(args);

    // Probe the healthy per-iteration time so the injected faults land
    // at fixed fractions of the run regardless of workload or scale.
    // The chrome observer attaches only after the probe so the trace
    // shows the fault-injected run alone.
    ScalingResult probe = trainer.measure(*wl, base, world, 2);
    const double iter_sec =
        probe.epochTimeSec /
        static_cast<double>(wl->iterationsPerEpoch());

    FaultRecoveryOptions opt;
    opt.iterations = args.iterations > 0 ? args.iterations : 48;
    opt.checkpointInterval = args.interval;
    const double horizon = iter_sec * opt.iterations;

    // FaultEvent fields: kind, time, replica, duration, magnitude.
    std::vector<FaultEvent> events = {
        {FaultKind::Straggler, 0.20 * horizon, world > 1 ? 1 : 0,
         0.12 * horizon, 2.5},
        {FaultKind::TransientKernel, 0.50 * horizon},
    };
    if (world > 1) {
        events.push_back({FaultKind::DegradedLink, 0.40 * horizon, 0,
                          0.12 * horizon, 0.25});
        events.push_back({FaultKind::ReplicaCrash, 0.65 * horizon,
                          world - 1});
    }

    // An explicit --plan overrides the built-in schedule; --save-plan
    // writes whichever plan the run used, so save + load round-trips
    // reproduce the exact same fault sequence.
    FaultPlan plan = !args.planPath.empty()
                         ? loadFaultPlan(args.planPath)
                         : FaultPlan(std::move(events));
    if (!args.savePlanPath.empty()) {
        saveFaultPlan(args.savePlanPath, plan);
        progress << "fault plan written to " << args.savePlanPath
                 << "\n";
    }

    ChromeTraceWriter chrome;
    if (!args.chromePath.empty())
        trainer.setExtraObserver(&chrome);

    progress << "Fault-injected training of " << workload
             << " on " << world << " simulated GPU(s)...\n\n";
    FaultToleranceResult result =
        trainer.runWithFaults(*wl, base, world, plan, opt);
    if (args.json)
        std::cout << reports::faultJson(result) << "\n";
    else
        reports::printFaultTolerance(result, std::cout);
    if (std::unique_ptr<obs::TelemetrySink> telemetry =
            openTelemetry(args)) {
        telemetry->writeRecord(reports::faultJson(result));
        progress << "\ntelemetry written to " << telemetry->path()
                 << "\n";
    }
    if (!args.chromePath.empty()) {
        // The DDP model replays rank 0's stream on every replica, so
        // the mirrored lanes are the honest per-rank visualisation.
        chrome.mirrorDeviceLanes(world);
        finishChromeTrace(chrome, args.chromePath, progress);
    }
    return 0;
}


/** One row of the `gnnmark ops` roofline sweep. */
struct OpsRow
{
    std::string op;      ///< "gemm" | "spmm"
    std::string shape;   ///< printable MxNxK / RxCxF
    double density = 1;  ///< nnz fraction of the sparse operand
    std::string format;  ///< "dense" | sparseFormatName()
    std::string variant; ///< dispatcher's pick
    int64_t flops = 0;
    int64_t minBytes = 0; ///< compulsory traffic (operands + result)
    double simSec = 0;
    double hostMs = 0;    ///< human table only, never serialized
    double intensity = 0; ///< flops per compulsory byte
    double gflops = 0;    ///< achieved on the simulated device
    double roofGflops = 0; ///< roofline bound at this intensity
};

/** Peak fp32 rate of `cfg` in FLOP/s (FMA counts as two). */
double
peakFlops(const GpuConfig &cfg)
{
    return static_cast<double>(cfg.numSms) * cfg.fp32PortsPerCycle *
           cfg.warpSize * 2.0 * cfg.clockGhz * 1e9;
}

/**
 * Run `fn` on a fresh simulated device and record in `row` its sim
 * time, host time, roofline placement (flops and minBytes must be set)
 * and the variant behind the single dispatch counter it increments.
 */
template <typename Fn>
void
measureOp(OpsRow &row, const GpuConfig &cfg, Fn &&fn)
{
    GpuDevice device(cfg);
    Profiler profiler;
    device.addObserver(&profiler);
    ops::Dispatch &dispatch = ops::Dispatch::instance();
    ops::DispatchStats s;
    {
        ContextGuard guard(&device);
        dispatch.resetStats();
        const auto t0 = std::chrono::steady_clock::now();
        fn();
        row.hostMs = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
        s = dispatch.stats();
    }
    row.simSec = profiler.totalKernelTimeSec();
    row.intensity = static_cast<double>(row.flops) /
                    static_cast<double>(std::max<int64_t>(row.minBytes, 1));
    row.gflops = row.simSec > 0 ? row.flops / row.simSec / 1e9 : 0.0;
    row.roofGflops =
        std::min(peakFlops(cfg), cfg.dramBandwidth * row.intensity) / 1e9;
    row.variant = "?";
    if (s.gemmNaive > 0)
        row.variant = ops::gemmVariantName(ops::GemmVariant::Naive);
    else if (s.gemmTiled > 0)
        row.variant = ops::gemmVariantName(ops::GemmVariant::Tiled);
    else if (s.spmmCsrScalar > 0)
        row.variant = ops::spmmVariantName(ops::SpmmVariant::CsrScalar);
    else if (s.spmmCsrVector > 0)
        row.variant = ops::spmmVariantName(ops::SpmmVariant::CsrVector);
    else if (s.spmmCoo > 0)
        row.variant = ops::spmmVariantName(ops::SpmmVariant::Coo);
    else if (s.spmmBell > 0)
        row.variant = ops::spmmVariantName(ops::SpmmVariant::Bell);
}

/** Deterministic dense operand with a given zero fraction. */
Tensor
opsDense(Rng &rng, int64_t rows, int64_t cols, double zero_frac)
{
    Tensor t = Tensor::zeros({rows, cols});
    for (int64_t i = 0; i < t.numel(); ++i) {
        if (!rng.bernoulli(zero_frac))
            t.data()[i] = rng.uniform(-1.0f, 1.0f);
    }
    return t;
}

/**
 * The sweep row's fields: --json and --telemetry carry the
 * deterministic ones; host time is in the table alone.
 */
const reports::Fields<OpsRow> kOpsFields = {
    {"op", "Op", {}, &OpsRow::op},
    {"shape", "Shape", {}, &OpsRow::shape},
    {"density", "Density", {reports::Cell::General, 3}, &OpsRow::density},
    {"format", "Format", {}, &OpsRow::format},
    {"variant", "Variant", {}, &OpsRow::variant},
    {"flops", "", {}, &OpsRow::flops},
    {"min_bytes", "", {}, &OpsRow::minBytes},
    {"intensity", "AI (F/B)", {reports::Cell::Fixed, 2}, &OpsRow::intensity},
    {"sim_us", "Sim us", {reports::Cell::Fixed, 2},
     [](const OpsRow &r) { return r.simSec * 1e6; }},
    {"gflops", "GFLOP/s", {reports::Cell::Fixed, 1}, &OpsRow::gflops},
    {"roofline_gflops", "Roof", {reports::Cell::Fixed, 1},
     &OpsRow::roofGflops},
    {"roof_frac", "%roof", {reports::Cell::Percent, 1},
     [](const OpsRow &r) {
         return r.roofGflops > 0 ? r.gflops / r.roofGflops : 0.0;
     }},
    {"", "Host ms", {reports::Cell::Fixed, 3}, &OpsRow::hostMs},
};

/** One sweep row as a telemetry / --json line. */
std::string
opsRowJson(const OpsRow &row)
{
    obs::JsonWriter w;
    w.beginObject();
    w.key("type").value("ops");
    reports::writeMembers(w, kOpsFields, row);
    w.endObject();
    return w.str();
}

/**
 * `gnnmark ops`: sweep the operator variants over shapes, sparsities
 * and storage formats, reporting a roofline placement per config. The
 * numbers in --json / --telemetry derive only from operand shapes and
 * the deterministic simulator, so two invocations emit byte-identical
 * documents; host wall time appears in the human table alone.
 */
int
cmdOps(const Args &args)
{
    const GpuConfig cfg = GpuConfig::v100();
    ops::Dispatch &dispatch = ops::Dispatch::instance();
    dispatch.setMetricsEnabled(true);
    std::ostream &progress = progressStream(args);
    progress << "Sweeping operator variants on the simulated V100 "
                "(seed " << args.seed << ")...\n\n";

    std::vector<OpsRow> rows;

    // Dense GEMM: square ladders plus a half-zero A that flips the
    // dispatcher back to the skip-friendly naive kernel.
    struct GemmCase { int64_t m, n, k; double zeroFrac; };
    const std::vector<GemmCase> gemm_cases = {
        {64, 64, 64, 0.0},    {128, 128, 128, 0.0},
        {256, 256, 256, 0.0}, {33, 65, 47, 0.0},
        {192, 96, 64, 0.6},
    };
    for (const GemmCase &gc : gemm_cases) {
        Rng rng(args.seed ^ static_cast<uint64_t>(
                                gc.m * 1315423911 + gc.n * 2654435761 +
                                gc.k));
        const Tensor a = opsDense(rng, gc.m, gc.k, gc.zeroFrac);
        const Tensor b = opsDense(rng, gc.k, gc.n, 0.0);
        OpsRow row;
        row.op = "gemm";
        row.shape = strfmt("%lldx%lldx%lld", (long long)gc.m,
                           (long long)gc.n, (long long)gc.k);
        row.density = 1.0 - gc.zeroFrac;
        row.format = "dense";
        row.flops = 2 * gc.m * gc.n * gc.k;
        row.minBytes =
            (gc.m * gc.k + gc.k * gc.n + gc.m * gc.n) *
            static_cast<int64_t>(sizeof(float));
        measureOp(row, cfg, [&] { ops::gemm(a, b); });
        rows.push_back(row);
    }

    // SpMM: every storage format over a density ladder.
    struct SpmmCase { int64_t rows, cols, f; double density; };
    const std::vector<SpmmCase> spmm_cases = {
        {512, 512, 32, 0.05},
        {1024, 1024, 64, 0.01},
        {2048, 2048, 128, 0.002},
    };
    const SparseFormat formats[] = {SparseFormat::Csr,
                                    SparseFormat::Coo,
                                    SparseFormat::BlockedEll};
    for (const SpmmCase &sc : spmm_cases) {
        Rng rng(args.seed ^ static_cast<uint64_t>(
                                sc.rows * 40503 + sc.f));
        const CsrMatrix csr =
            uniformRandomCsr(rng, sc.rows, sc.cols, sc.density);
        const Tensor b = opsDense(rng, sc.cols, sc.f, 0.0);
        for (SparseFormat format : formats) {
            const SparseMatrix a =
                SparseMatrix::fromCsr(csr, format);
            OpsRow row;
            row.op = "spmm";
            row.shape = strfmt("%lldx%lldx%lld", (long long)sc.rows,
                               (long long)sc.cols, (long long)sc.f);
            row.density = sc.density;
            row.format = sparseFormatName(format);
            row.flops = 2 * a.nnz() * sc.f;
            row.minBytes =
                a.footprintBytes() +
                (sc.cols * sc.f + sc.rows * sc.f) *
                    static_cast<int64_t>(sizeof(float));
            measureOp(row, cfg, [&] { ops::spmm(a, b); });
            rows.push_back(row);
        }
    }

    if (args.json) {
        obs::JsonWriter w;
        w.beginObject();
        w.key("type").value("ops_report");
        w.key("seed").value(static_cast<int64_t>(args.seed));
        w.key("peak_gflops").value(peakFlops(cfg) / 1e9);
        w.key("dram_gbps").value(cfg.dramBandwidth / 1e9);
        w.endObject();
        std::cout << w.str() << "\n";
        for (const OpsRow &row : rows)
            std::cout << opsRowJson(row) << "\n";
    } else {
        reports::printTable(std::cout, "Operator roofline (simulated V100)",
                            kOpsFields, rows);
    }
    if (std::unique_ptr<obs::TelemetrySink> telemetry =
            openTelemetry(args)) {
        for (const OpsRow &row : rows)
            telemetry->writeRecord(opsRowJson(row));
        progress << "telemetry written to " << telemetry->path()
                 << "\n";
    }
    return 0;
}

int
cmdGen(const Args &args)
{
    if (args.family.empty())
        throw UsageError("gen requires --family");
    gen::GeneratorConfig cfg;
    if (!gen::parseFamily(args.family, cfg.family)) {
        throw UsageError("unknown family: " + args.family +
                         " (expected rmat|rgg2d|hyperbolic|grid2d)");
    }
    cfg.n = args.genN;
    cfg.m = args.genM;
    cfg.avgDegree = args.degree;
    cfg.seed = args.seed;
    cfg.chunks = args.chunks;
    cfg.lookahead = args.lookahead;
    cfg.gamma = args.gamma;
    cfg.gridRows = args.gridRows;
    cfg.gridCols = args.gridCols;
    cfg.gridWrap = args.gridWrap;
    const std::string err = gen::validateConfig(cfg);
    if (!err.empty())
        throw UsageError("invalid generator config: " + err);

    std::ostream &progress = progressStream(args);
    progress << "Generating a " << args.family << " graph ("
             << gen::resolvedVertices(cfg) << " vertices, ~"
             << gen::resolvedTargetEdges(cfg) << " edges, "
             << cfg.chunks << " chunks"
             << (args.stream ? ", streamed training" : "") << ")...\n\n";

    gen::ChunkedEdgeStream stream(cfg);
    std::unique_ptr<gen::DegreeAccumulator> degrees;
    if (args.stats) {
        degrees = std::make_unique<gen::DegreeAccumulator>(
            gen::resolvedVertices(cfg));
    }

    gen::StreamTrainResult trained;
    if (args.stream) {
        gen::StreamTrainOptions topt;
        topt.seed = cfg.seed;
        topt.windowChunks = args.trainWindow;
        trained = gen::streamTrain(stream, topt, degrees.get());
    } else {
        gen::EdgeBlock block;
        while (stream.next(block))
            if (degrees)
                degrees->accumulate(block);
    }

    gen::GenReport rep;
    rep.family = gen::familyName(cfg.family);
    rep.requestedVertices = cfg.n;
    rep.vertices = gen::resolvedVertices(cfg);
    rep.targetEdges = gen::resolvedTargetEdges(cfg);
    rep.chunks = stream.chunkCount();
    rep.lookahead = cfg.lookahead;
    rep.seed = cfg.seed;
    rep.threads = ThreadPool::instance().threadCount();
    rep.edges = stream.edgesEmitted();
    rep.chunksEmitted = stream.chunksEmitted();
    rep.checksum = stream.checksum();
    rep.peakResidentBytes = stream.peakResidentBytes();
    rep.residentBudgetBytes = gen::residentBudgetBytes(cfg);
    rep.wallSec = stream.generateSec();
    rep.edgesPerSec = stream.edgesPerSec();
    if (degrees) {
        const gen::DegreeStats stats = degrees->finalize();
        rep.hasDegrees = true;
        rep.degreeVertices = stats.vertices;
        rep.degreeSampleStride = stats.sampleStride;
        rep.minDegree = stats.minDegree;
        rep.maxDegree = stats.maxDegree;
        rep.meanDegree = stats.meanDegree;
        rep.powerLawSlope = stats.powerLawSlope;
        rep.slopeValid = stats.slopeValid;
        rep.modalFraction = stats.modalFraction;
        rep.modalDegree = stats.modalDegree;
        rep.distinctDegrees = stats.distinctDegrees;
    }
    if (args.stream) {
        rep.trained = true;
        rep.trainBatches = trained.batches;
        rep.trainEdgesConsumed = trained.edgesConsumed;
        rep.trainFirstLoss = trained.firstLoss;
        rep.trainLastLoss = trained.lastLoss;
        rep.trainPeakResidentBytes = trained.peakResidentBytes;
        if (args.trainWindow > 0) {
            rep.trainWindowChunks = args.trainWindow;
            // Edge and loss series share the same tumbling windows
            // (chunk ordinal is the clock), so zip them row by row.
            const size_t rows = std::min(trained.edgeWindows.size(),
                                         trained.lossWindows.size());
            for (size_t w = 0; w < rows; ++w) {
                const obs::WindowStats &ew = trained.edgeWindows[w];
                const obs::WindowStats &lw = trained.lossWindows[w];
                gen::GenTrainWindow row;
                row.index = ew.index;
                row.firstChunk = static_cast<int64_t>(ew.startSec);
                row.lastChunk = std::min(
                    static_cast<int64_t>(ew.endSec),
                    static_cast<int64_t>(trained.chunks)) - 1;
                row.chunks = ew.count;
                row.edges = static_cast<int64_t>(ew.sum);
                row.meanLoss = lw.mean();
                row.minLoss = lw.minValue;
                row.maxLoss = lw.maxValue;
                rep.trainWindows.push_back(row);
            }
        }
    }

    if (args.json)
        std::cout << reports::genJson(rep) << "\n";
    else
        reports::printGen(rep, std::cout);
    if (std::unique_ptr<obs::TelemetrySink> telemetry =
            openTelemetry(args)) {
        telemetry->writeRecord(reports::genRecordJson("gen", rep));
        progress << "telemetry written to " << telemetry->path()
                 << "\n";
    }
    return 0;
}

/** One bit per verb; each flag row names the verbs that read it. */
enum : unsigned {
    kList = 1 << 0, kRun = 1 << 1, kCharacterize = 1 << 2, kScaling = 1 << 3,
    kTtt = 1 << 4, kFaults = 1 << 5, kServe = 1 << 6, kRecord = 1 << 7,
    kReplay = 1 << 8, kInfo = 1 << 9, kDiff = 1 << 10, kSweep = 1 << 11,
    kOps = 1 << 12, kGen = 1 << 13,
    // Groups: the RunOptions builders; the JSON and telemetry writers.
    kRunOptions = kRun | kCharacterize | kRecord | kSweep,
    kReports = kRun | kCharacterize | kScaling | kFaults | kServe | kOps | kGen,
};

struct Verb
{
    const char *name;     ///< "trace <sub>" for the trace subcommands
    unsigned bit;
    const char *operands; ///< "<x>" is required, "[<x>]" optional
    int (*run)(const Args &);
    const char *help;
};

const Verb kVerbs[] = {
    {"list", kList, "", cmdList, "print the suite inventory"},
    {"run", kRun, "<workload>", cmdRun, "train + profile one workload"},
    {"characterize", kCharacterize, "", cmdCharacterize, "profile the suite"},
    {"scaling", kScaling, "", cmdScaling, "DDP scaling over 1/2/4 GPUs"},
    {"ttt", kTtt, "", cmdTimeToTrain, "MLPerf-style time-to-train"},
    {"faults", kFaults, "<workload>", cmdFaults,
     "fault-injected DDP run with checkpoint/resume + elastic recovery"},
    {"serve", kServe, "", cmdServe,
     "SLO-aware inference serving: admission, batching, hedging"},
    {"trace record", kRecord, "<workload>", cmdTraceRecord,
     "capture a run into a trace file"},
    {"trace replay", kReplay, "<file>", cmdTraceReplay,
     "re-characterize from a trace"},
    {"trace info", kInfo, "<file>", cmdTraceInfo, "per-op-class statistics"},
    {"trace diff", kDiff, "<a> <b>", cmdTraceDiff, "compare two traces"},
    {"sweep", kSweep, "[<workload>]", cmdSweep,
     "L2/L1/SM/GPU-count sensitivity, live or from a recorded trace"},
    {"ops", kOps, "", cmdOps, "operator roofline sweep of GEMM/SpMM variants"},
    {"gen", kGen, "", cmdGen,
     "chunked graph generation, optionally streamed through training"},
};

constexpr double kInf = std::numeric_limits<double>::infinity();

/** The values a numeric flag accepts: lo..hi, either end open. */
struct Range
{
    double lo = -kInf, hi = kInf;
    bool loOpen = false, hiOpen = false;
};

constexpr Range kNonNeg{0, kInf};
constexpr Range kPositive{0, kInf, true};
constexpr Range kFraction{0, 1, true, true};

/**
 * The Args member a flag sets. Its type is the flag's kind: a switch,
 * an integer, a real, a comma-separated list of reals, or text — a
 * choice when the placeholder lists the words ("on|off").
 */
using Member =
    std::variant<bool Args::*, int Args::*, int64_t Args::*,
                 uint64_t Args::*, double Args::*, std::string Args::*,
                 std::vector<double> Args::*>;

struct Flag
{
    const char *name;
    unsigned verbs;    ///< the verbs that read it
    Member member;
    const char *value; ///< placeholder; nullptr for a switch
    const char *help;  ///< "\n" continues it on the next line
    Range range = {};  ///< numbers (each, for a list) must lie inside
    /** An optional count: its value when no number follows the flag. */
    const char *bare = nullptr;
};

const Flag kFlags[] = {
    {"--scale", kRunOptions | kScaling | kTtt | kFaults | kServe,
     &Args::scale, "S", "dataset scale factor (default 1.0)", kPositive},
    {"--iters", kRunOptions | kScaling | kFaults, &Args::iterations, "N",
     "measured iterations (default 6; scaling and world\n"
     "sweeps 4; faults 48)", kPositive},
    {"--inference", kRunOptions, &Args::inference, nullptr, "forward only"},
    {"--memstats", kRun | kCharacterize, &Args::memstats, nullptr,
     "append the host-allocator report (GNNMARK_ALLOC=caching\n"
     "|system picks the allocator)"},
    {"--opstats", kRun | kCharacterize, &Args::opstats, nullptr,
     "append the operator-dispatch report and record ops.*\n"
     "counters into telemetry (GNNMARK_OP_VARIANT pins them)"},
    {"--chrome-trace", kRun | kFaults | kServe | kReplay, &Args::chromePath,
     "PATH", "write a chrome://tracing timeline"},
    {"--telemetry", kReports, &Args::telemetryPath, "PATH",
     "append JSONL telemetry records"},
    {"--json", kReports, &Args::json, nullptr,
     "print the report as JSON; progress moves to stderr"},
    {"--weak", kScaling, &Args::weak, nullptr, "weak, not strong scaling"},
    {"--overlap", kScaling | kSweep, &Args::overlap, "on|off",
     "overlap gradient all-reduce with backward (default on)"},
    {"--target", kTtt, &Args::target, "F",
     "time-to-train loss fraction (default 0.85)", kFraction},
    {"--interval", kFaults, &Args::interval, "K",
     "iterations between checkpoints (default 12; 0 = none)", kNonNeg},
    {"--plan", kFaults | kServe, &Args::planPath, "FILE",
     "load an explicit fault plan (overrides the scenario)"},
    {"--save-plan", kFaults | kServe, &Args::savePlanPath, "FILE",
     "write the fault plan used"},
    {"--seed", kServe | kOps | kGen, &Args::seed, "N",
     "traffic/model/generator seed (default 42)", kNonNeg},
    {"--out", kRecord, &Args::out, "PATH", "default <workload>.gnntrace"},
    {"--l2", kReplay, &Args::l2Mib, "MIB", "L2 size (0 = as recorded)",
     kNonNeg},
    {"--l1", kReplay, &Args::l1Kib, "KIB", "L1 size (0 = as recorded)",
     kNonNeg},
    {"--sms", kReplay, &Args::sms, "N", "SM count (0 = as recorded)",
     kNonNeg},
    {"--trace", kSweep, &Args::tracePath, "FILE", "sweep a recorded trace"},
    {"--param", kSweep, &Args::param, "l2|l1|sms|world",
     "L2 MiB (default), L1 KiB, SMs or DDP GPUs; trace-driven\n"
     "world sweeps price comm as weak scaling"},
    {"--points", kSweep, &Args::points, "V,V,...",
     "sweep points (default l2 2,4,6,12; l1 64,128,192,256;\n"
     "sms 40,60,80,108; world 1,2,4)", kPositive},

    {"--arrival", kServe, &Args::arrival, "P",
     "poisson (default), bursty or diurnal arrivals"},
    {"--rps", kServe, &Args::rps, "R",
     "offered load per simulated second (0 = 70% of capacity)", kNonNeg},
    {"--duration", kServe, &Args::durationSec, "S",
     "arrival horizon in simulated seconds (default 2.0)", kPositive},
    {"--slo-ms", kServe, &Args::sloMs, "MS",
     "per-request SLO (0 = 5x the max-batch cost)", kNonNeg},
    {"--replicas", kServe, &Args::replicas, "N", "replicas (default 3)",
     kPositive},
    {"--batch-max", kServe, &Args::batchMax, "K",
     "dynamic batching cap (default 8)", kPositive},
    {"--faults", kServe, &Args::faultsScenario, "none|straggler|crash|mixed",
     "fault scenario scaled to the duration (default none)"},
    {"--hedge", kServe, &Args::hedge, "on|off",
     "hedged duplicates of slow batches (default on)"},
    {"--shed", kServe, &Args::shed, "on|off",
     "shed requests past their deadline (default on)"},
    {"--fallback", kServe, &Args::fallback, "on|off",
     "degraded answers from the embedding cache (default on)"},
    {"--window", kServe, &Args::windowMs, "MS",
     "windows of simulated ms: latency percentiles, goodput,\n"
     "queue depth, SLO burn-rate alerts (0 = off)", kNonNeg},
    {"--slo-target", kServe, &Args::sloTarget, "F",
     "burn-rate monitor's attainment target (default 0.99)", kFraction},
    {"--trace-requests", kServe, &Args::traceSampleEvery, "[N]",
     "trace every N-th request (default 32) plus the shed,\n"
     "timed-out and hedge-won ones", kPositive, "32"},

    {"--family", kGen, &Args::family, "F",
     "rmat, rgg2d, hyperbolic or grid2d (required)"},
    {"--n", kGen, &Args::genN, "N",
     "vertex count (default 65536; rmat rounds up to 2^k)", {1, kInf, true}},
    {"--m", kGen, &Args::genM, "M",
     "target edge count (0 = degree * n / 2)", kNonNeg},
    {"--degree", kGen, &Args::degree, "D",
     "target average degree when the edge count is 0 (8)", kPositive},
    {"--chunks", kGen, &Args::chunks, "C",
     "streaming chunks, same edges either way (default 8)", kPositive},
    {"--lookahead", kGen, &Args::lookahead, "L",
     "chunks generated ahead in parallel (default 4)", kPositive},
    {"--gamma", kGen, &Args::gamma, "G",
     "hyperbolic degree exponent (default 2.8)", {2, 10, true}},
    {"--grid-rows", kGen, &Args::gridRows, "R", "grid2d rows (0 = from n)",
     kNonNeg},
    {"--grid-cols", kGen, &Args::gridCols, "C", "grid2d columns (0 = from n)",
     kNonNeg},
    {"--wrap", kGen, &Args::gridWrap, nullptr, "grid2d torus wrap-around"},
    {"--stream", kGen, &Args::stream, nullptr,
     "train on the stream with neighbour-sampled minibatches"},
    {"--stats", kGen, &Args::stats, nullptr, "degree-distribution shape"},
    {"--train-window", kGen, &Args::trainWindow, "N",
     "N-chunk windows of streamed-training throughput and\n"
     "loss (0 = off)", kNonNeg},
};

/** `text` as a T inside the flag's range, else a UsageError. */
template <typename T>
T
flagNumber(const Flag &flag, const std::string &text)
{
    constexpr bool kReal = std::is_floating_point_v<T>;
    std::conditional_t<kReal, double, int64_t> value = 0;
    const Range &r = flag.range;
    bool ok = parseNumber(text, value) &&
              (r.loOpen ? value > r.lo : value >= r.lo) &&
              (r.hiOpen ? value < r.hi : value <= r.hi);
    if constexpr (!kReal)
        ok = ok && std::in_range<T>(value);
    if (!ok) {
        const std::string range =
            r.hi == kInf ? strfmt("%s %g", r.loOpen ? ">" : ">=", r.lo)
                         : strfmt("in %c%g, %g%c", r.loOpen ? '(' : '[',
                                  r.lo, r.hi, r.hiOpen ? ')' : ']');
        throw UsageError(strfmt("%s expects %s %s, got '%s'", flag.name,
                                kReal ? "a number" : "an integer",
                                range.c_str(), text.c_str()));
    }
    return static_cast<T>(value);
}

/** Store a flag's value text into its Args member. */
void
assign(Args &args, const Flag &flag, const std::string &text)
{
    std::visit(
        [&](auto member) {
            auto &field = args.*member;
            using T = std::decay_t<decltype(field)>;
            if constexpr (std::is_same_v<T, bool>) {
                field = true;
            } else if constexpr (std::is_same_v<T, std::string>) {
                const std::vector<std::string> words =
                    split(flag.value, '|');
                if (words.size() > 1 &&
                    std::find(words.begin(), words.end(), text) ==
                        words.end()) {
                    throw UsageError(strfmt("%s expects %s, got '%s'",
                                            flag.name, flag.value,
                                            text.c_str()));
                }
                field = text;
            } else if constexpr (std::is_same_v<T, std::vector<double>>) {
                field.clear();
                for (const std::string &item : split(text, ','))
                    if (!item.empty())
                        field.push_back(flagNumber<double>(flag, item));
                if (field.empty())
                    throw UsageError(std::string(flag.name) +
                                     " needs at least one value");
            } else {
                field = flagNumber<T>(flag, text);
            }
        },
        flag.member);
}

/** Fill `args` from argv, or throw a UsageError. */
void
parse(int argc, char **argv, Args &args)
{
    if (argc < 2)
        throw UsageError("missing command");
    std::string name = argv[1];
    int i = 2;
    if (name == "trace" && argc > 2)
        name += std::string(" ") + argv[i++];
    for (const Verb &v : kVerbs)
        if (name == v.name)
            args.verb = &v;
    if (args.verb == nullptr)
        throw UsageError("unknown command: " + name);
    const Verb &verb = *args.verb;

    for (; i < argc; ++i) {
        const std::string a = argv[i];
        if (a.rfind("--", 0) != 0) {
            args.operands.push_back(a);
            continue;
        }
        const Flag *flag =
            std::find_if(std::begin(kFlags), std::end(kFlags),
                         [&](const Flag &f) { return a == f.name; });
        if (flag == std::end(kFlags))
            throw UsageError("unknown option: " + a);
        if ((flag->verbs & verb.bit) == 0)
            throw UsageError(a + " is not an option of " + name);
        std::string text;
        if (flag->bare != nullptr) {
            // An optional count takes the next token only if it is one.
            const std::string next = i + 1 < argc ? argv[i + 1] : "";
            const bool given =
                !next.empty() &&
                next.find_first_not_of("0123456789") == std::string::npos;
            text = given ? argv[++i] : flag->bare;
        } else if (flag->value != nullptr) {
            if (i + 1 >= argc)
                throw UsageError(a + " needs a value");
            text = argv[++i];
        }
        assign(args, *flag, text);
    }

    // Each "<" in the operand synopsis is one operand, "[" an optional.
    const std::string ops = verb.operands;
    const size_t most = std::count(ops.begin(), ops.end(), '<');
    const size_t least = most - std::count(ops.begin(), ops.end(), '[');
    if (args.operands.size() < least)
        throw UsageError(name + " needs " + ops);
    if (args.operands.size() > most)
        throw UsageError("unexpected argument: " + args.operands[most]);
}

/** A flag as the usage shows it: its name, then any placeholder. */
std::string
synopsis(const Flag &f)
{
    return f.value == nullptr ? f.name : f.name + std::string(" ") + f.value;
}

/** Usage of `only`, or of every verb when null, on stderr. */
void
printUsage(const Verb *only)
{
    constexpr size_t kWidth = 78;
    const std::string help_indent(24, ' ');
    unsigned verbs = 0;
    std::cerr << "usage:\n";
    for (const Verb &v : kVerbs) {
        if (only != nullptr && &v != only)
            continue;
        verbs |= v.bit;
        std::string line = std::string("  gnnmark ") + v.name;
        const std::string indent(line.size(), ' ');
        if (*v.operands != '\0')
            line += std::string(" ") + v.operands;
        for (const Flag &f : kFlags) {
            if ((f.verbs & v.bit) == 0)
                continue;
            const std::string word = " [" + synopsis(f) + "]";
            if (line.size() + word.size() > kWidth) {
                std::cerr << line << "\n";
                line = indent;
            }
            line += word;
        }
        std::cerr << line << "\n      " << v.help << "\n";
    }
    const char *heading = "\noptions:\n";
    for (const Flag &f : kFlags) {
        if ((f.verbs & verbs) == 0)
            continue;
        const std::string label = "  " + synopsis(f);
        std::cerr << heading
                  << (label.size() < help_indent.size()
                          ? padRight(label, help_indent.size())
                          : label + "\n" + help_indent)
                  << join(split(f.help, '\n'), "\n" + help_indent) << "\n";
        heading = "";
    }
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    try {
        parse(argc, argv, args);
        // Any tracing/telemetry export arms host-span recording for
        // the whole process; without either flag GNN_SPAN stays a
        // single relaxed load and the run is bit-identical to an
        // uninstrumented build.
        if (!args.chromePath.empty() || !args.telemetryPath.empty())
            obs::SpanTracer::instance().setEnabled(true);
        const int rc = args.verb->run(args);
        // Emit the rate-limiter's "suppressed N duplicates" summary on
        // every exit path that ran a command.
        flushSuppressedWarnings();
        return rc;
    } catch (const UsageError &e) {
        std::cerr << "gnnmark: " << e.what() << "\n\n";
        printUsage(args.verb);
        return 2;
    } catch (const IoError &e) {
        std::cerr << "gnnmark: fatal: " << e.what() << "\n";
        flushSuppressedWarnings();
        return 1;
    }
}
