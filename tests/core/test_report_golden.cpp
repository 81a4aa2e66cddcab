/**
 * @file
 * Golden tests for every report rendering: each table printer and each
 * JSON twin runs on fixed synthetic inputs (hand-built kernel and
 * transfer records fed straight into a Profiler, hand-filled scaling,
 * fault, serving, generation and allocator results) and must match the
 * committed text under tests/core/golden/ byte for byte. No workload
 * or simulator runs, so the expected text moves only when a report's
 * layout or formatting does.
 *
 * On a mismatch the actual rendering is written next to the test's
 * temp dir (the failure message names the file); after an intended
 * format change, review it and copy it over the golden file.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/reports.hh"
#include "core/reports_json.hh"
#include "obs/json.hh"
#include "sim/fault_injector.hh"

using namespace gnnmark;

namespace {

/** A launch whose mix, cache and stall profile vary with its class. */
KernelRecord
kernel(const std::string &name, OpClass cls, double time_sec,
       double scale)
{
    const double c = static_cast<double>(cls);
    KernelRecord k;
    k.name = name;
    k.opClass = cls;
    k.timeSec = time_sec;
    k.cycles = time_sec * 1.53e9;
    k.activeSms = 80;
    k.ipc = 0.35 + 0.1 * scale + 0.02 * c;
    k.fp32Instrs = (4100 + 900 * c) * scale;
    k.int32Instrs = (9300 - 450 * c) * scale;
    k.memInstrs = (2100 + 170 * c) * scale;
    k.miscInstrs = (640 + 55 * c) * scale;
    k.flops = 1.31e7 * scale * (1 + c);
    k.intOps = 2.9e7 * scale + 1e5 * c;
    k.loads = 1100 * scale;
    k.divergentLoads = (310 + 45 * c) * scale;
    k.l1Accesses = 3300 * scale;
    k.l1Hits = (410 + 130 * c) * scale;
    k.l2Accesses = 2900 * scale;
    k.l2Hits = (2030 - 95 * c) * scale;
    k.stallCycles = {(3100 - 120 * c) * scale, (2700 + 80 * c) * scale,
                     (1900 - 60 * c) * scale,  (420 + 35 * c) * scale,
                     (260 + 90 * c) * scale,   (510 + 20 * c) * scale};
    return k;
}

TransferRecord
transfer(const std::string &tag, double bytes, double zero_frac)
{
    return TransferRecord{tag, bytes, zero_frac, bytes / 12e9};
}

/** Two iterations of a GEMM/SpMM/scatter/element-wise workload. */
WorkloadProfile
profileAlpha()
{
    WorkloadProfile p;
    p.name = "ALPHA";
    for (int it = 0; it < 2; ++it) {
        p.profiler.onPhase(PhaseMark::IterationBegin);
        p.profiler.onTransfer(
            transfer("features", 1.5e6 + 3e5 * it, 0.41 + 0.07 * it));
        p.profiler.onTransfer(transfer("labels", 6100, 0.0));
        p.profiler.onKernel(
            kernel("sgemm_128x64", OpClass::Gemm, 41.3e-6, 1.0));
        p.profiler.onPhase(PhaseMark::BackwardBegin);
        p.profiler.onKernel(
            kernel("spmm_csr_vector", OpClass::SpMM, 27.9e-6, 0.7));
        p.profiler.onKernel(
            kernel("scatter_add", OpClass::Scatter, 12.2e-6, 0.45));
        p.profiler.onKernel(
            kernel("relu_fw", OpClass::ElementWise, 3.7e-6, 0.12));
        p.profiler.onKernel(
            kernel("spmm_csr_vector", OpClass::SpMM, 26.1e-6, 0.66));
        p.profiler.onPhase(PhaseMark::BackwardEnd);
    }
    p.losses = {2.3125f, 1.90625f};
    p.wallTimeSec = 0.000223;
    p.epochTimeSec = 0.01171;
    p.iterationsPerEpoch = 52;
    p.parameterBytes = 183296;
    p.memStats = AllocSummary{"caching", 7340032, 3, 1204, 9, 0.9925,
                              0, 301};
    return p;
}

/** Three iterations of a conv/sort/gather/index workload. */
WorkloadProfile
profileBeta()
{
    WorkloadProfile p;
    p.name = "BETA";
    for (int it = 0; it < 3; ++it) {
        p.profiler.onPhase(PhaseMark::IterationBegin);
        if (it != 1) {
            p.profiler.onTransfer(
                transfer("adjacency", 9.6e5 - 1e5 * it, 0.83 - 0.05 * it));
        }
        p.profiler.onKernel(
            kernel("implicit_conv2d", OpClass::Conv, 88.4e-6, 2.2));
        p.profiler.onKernel(
            kernel("radix_sort", OpClass::Sort, 19.5e-6, 0.31));
        p.profiler.onKernel(
            kernel("gather_rows", OpClass::Gather, 8.8e-6, 0.2));
        p.profiler.onKernel(
            kernel("index_select", OpClass::IndexSelect, 6.1e-6, 0.15));
        p.profiler.onKernel(
            kernel("segment_sum", OpClass::Reduction, 4.4e-6, 0.09));
    }
    p.losses = {0.6931f, 0.6412f, 0.5987f};
    p.wallTimeSec = 0.000381;
    p.epochTimeSec = 0.2047;
    p.iterationsPerEpoch = 537;
    p.parameterBytes = 2.4e6;
    p.memStats = AllocSummary{"system", 1288490188, 0, 2210, 2210, 0.0,
                              736, 736};
    return p;
}

std::vector<WorkloadProfile>
profiles()
{
    return {profileAlpha(), profileBeta()};
}

ScalingResult
point(int world, double epoch, double compute, double comm,
      double exposed, double base)
{
    ScalingResult r;
    r.worldSize = world;
    r.epochTimeSec = epoch;
    r.computeTimeSec = compute;
    r.commTimeSec = comm;
    r.commExposedSec = exposed;
    r.overlapFrac = comm > 0 ? 1.0 - exposed / comm : 0.0;
    r.speedup = base / epoch;
    return r;
}

std::vector<std::pair<std::string, std::vector<ScalingResult>>>
curves()
{
    return {{"ALPHA",
             {point(1, 0.01171, 0.01171, 0, 0, 0.01171),
              point(2, 0.006912, 0.005855, 0.001733, 0.001057, 0.01171),
              point(4, 0.004406, 0.0029275, 0.002195, 0.0014785,
                    0.01171)}},
            {"BETA",
             {point(1, 0.2047, 0.2047, 0, 0, 0.2047),
              point(2, 0.1131, 0.10235, 0.0183, 0.01075, 0.2047)}}};
}

FaultToleranceResult
faultRun()
{
    FaultToleranceResult r;
    r.workload = "ALPHA";
    r.worldStart = 4;
    r.worldEnd = 3;
    r.targetIterations = 48;
    r.executedIterations = 53;
    r.replayedIterations = 5;
    r.idealTimeSec = 0.2113;
    r.totalTimeSec = 0.2689;
    r.checkpointTimeSec = 0.01342;
    r.recoveryTimeSec = 0.03771;
    r.goodput = r.idealTimeSec / r.totalTimeSec;
    FaultRecord crash;
    crash.kind = FaultKind::ReplicaCrash;
    crash.simTimeSec = 0.0912;
    crash.replica = 2;
    crash.detectionSec = 0.0105;
    crash.rollbackSec = 0.02213;
    crash.reshardSec = 0.00508;
    crash.lostIterations = 5;
    crash.worldBefore = 4;
    crash.worldAfter = 3;
    FaultRecord slow;
    slow.kind = FaultKind::Straggler;
    slow.simTimeSec = 0.1577;
    slow.replica = 0;
    slow.slowdownSec = 0.006044;
    slow.worldBefore = 3;
    slow.worldAfter = 3;
    r.events = {crash, slow};
    return r;
}

/** Everything off: no windows, alerts or tracing. */
serve::ServingReport
servingBare()
{
    serve::ServingReport rep;
    rep.arrival = "poisson";
    rep.faultScenario = "none";
    rep.ratePerSec = 2500;
    rep.durationSec = 0.5;
    rep.sloMs = 10;
    rep.replicas = 2;
    rep.maxBatch = 8;
    rep.seed = 7;
    rep.offered = 1262;
    rep.full = 1251;
    rep.fallback = 0;
    rep.shed = 11;
    rep.lost = 0;
    rep.sloMet = 1238;
    rep.goodputPerSec = 2476;
    rep.p50Ms = 2.0412;
    rep.p95Ms = 6.5531;
    rep.p99Ms = 9.0017;
    rep.meanMs = 2.8843;
    rep.maxMs = 14.125;
    rep.retries = 3;
    rep.cacheHitRate = 0.2139;
    rep.cacheHits = 270;
    rep.cacheMisses = 992;
    rep.batches = 418;
    rep.meanBatchSize = 2.99282;
    rep.busySec = 0.61731;
    rep.cancelledSec = 0.0;
    rep.utilization = 0.6098;
    rep.horizonSec = 0.50614;
    serve::ReplicaReport r0;
    r0.replica = 0;
    r0.batchesCompleted = 210;
    r0.busySec = 0.31002;
    serve::ReplicaReport r1;
    r1.replica = 1;
    r1.batchesCompleted = 208;
    r1.busySec = 0.30729;
    rep.perReplica = {r0, r1};
    return rep;
}

/** Robustness on, a straggler fault, windows with alerts, tracing. */
serve::ServingReport
servingFull()
{
    serve::ServingReport rep = servingBare();
    rep.arrival = "bursty";
    rep.faultScenario = "straggler";
    rep.hedgeEnabled = true;
    rep.shedEnabled = true;
    rep.fallbackEnabled = true;
    rep.fallback = 23;
    rep.lost = 2;
    rep.full = 1226;
    rep.sloMet = 1190;
    rep.goodputPerSec = 2380;
    rep.hedgesLaunched = 41;
    rep.hedgeWins = 17;
    rep.timeouts = 6;
    rep.breakerOpens = 1;
    rep.cancelledSec = 0.0413;
    rep.perReplica[0].batchesCancelled = 9;
    rep.perReplica[0].timeouts = 6;
    rep.perReplica[0].breakerOpens = 1;
    rep.perReplica[0].breakerFinal = "half_open";
    rep.perReplica[0].cancelledSec = 0.0413;
    rep.windowSec = 0.25;
    rep.sloTarget = 0.995;
    rep.budgetConsumed = 4.3127;
    serve::ServingWindow w0;
    w0.index = 0;
    w0.startSec = 0;
    w0.endSec = 0.25;
    w0.offered = 640;
    w0.full = 631;
    w0.fallback = 4;
    w0.shed = 5;
    w0.sloMet = 626;
    w0.resolved = 633;
    w0.p50Ms = 1.9981;
    w0.p95Ms = 5.4172;
    w0.p99Ms = 8.8003;
    w0.goodputPerSec = 2504;
    w0.queueDepthMean = 1.734;
    w0.queueDepthMax = 9;
    w0.burnRate = 2.1875;
    w0.budgetConsumed = 1.0938;
    serve::ServingWindow w1 = w0;
    w1.index = 1;
    w1.startSec = 0.25;
    w1.endSec = 0.5;
    w1.offered = 622;
    w1.full = 595;
    w1.fallback = 19;
    w1.shed = 6;
    w1.lost = 2;
    w1.sloMet = 564;
    w1.resolved = 610;
    w1.p99Ms = 12.6604;
    w1.goodputPerSec = 2256;
    w1.queueDepthMean = 4.0811;
    w1.queueDepthMax = 17;
    w1.burnRate = 6.4309;
    w1.budgetConsumed = 4.3127;
    rep.windows = {w0, w1};
    serve::ServingAlert page;
    page.rule = "fast_burn";
    page.severity = "page";
    page.startWindow = 1;
    page.endWindow = 1;
    page.startSec = 0.25;
    page.endSec = 0.5;
    page.peakBurn = 6.4309;
    page.errorFraction = 0.032154;
    rep.alerts = {page};
    rep.traceSampleEvery = 32;
    rep.tracedRequests = 61;
    return rep;
}

/** Windows on but quiet (no alerts), tracing off. */
serve::ServingReport
servingQuiet()
{
    serve::ServingReport rep = servingFull();
    rep.alerts.clear();
    rep.traceSampleEvery = 0;
    rep.tracedRequests = 0;
    return rep;
}

/** Stream only: no degree stats, no training. */
gen::GenReport
genBare()
{
    gen::GenReport rep;
    rep.family = "rmat";
    rep.requestedVertices = 3000;
    rep.vertices = 4096;
    rep.targetEdges = 32768;
    rep.chunks = 8;
    rep.lookahead = 2;
    rep.seed = 11;
    rep.threads = 4;
    rep.edges = 32768;
    rep.chunksEmitted = 8;
    rep.checksum = 0x0f3e22a19c4b7d05ULL;
    rep.peakResidentBytes = 98304;
    rep.residentBudgetBytes = 786432;
    rep.wallSec = 0.0123;
    rep.edgesPerSec = 32768 / 0.0123;
    return rep;
}

/** Degree stats and streamed training with a windowed timeline. */
gen::GenReport
genFull()
{
    gen::GenReport rep = genBare();
    rep.family = "hyperbolic";
    rep.hasDegrees = true;
    rep.degreeVertices = 1024;
    rep.degreeSampleStride = 4;
    rep.minDegree = 1;
    rep.maxDegree = 377;
    rep.meanDegree = 16.0039;
    rep.powerLawSlope = -1.8312;
    rep.slopeValid = true;
    rep.modalFraction = 0.1357;
    rep.modalDegree = 3;
    rep.distinctDegrees = 88;
    rep.trained = true;
    rep.trainBatches = 8;
    rep.trainEdgesConsumed = 32768;
    rep.trainFirstLoss = 1.38629;
    rep.trainLastLoss = 0.97214;
    rep.trainPeakResidentBytes = 1572864;
    rep.trainWindowChunks = 3;
    gen::GenTrainWindow w0{0, 0, 3, 3, 12288, 1.2771, 1.1503, 1.38629};
    gen::GenTrainWindow w1{1, 3, 6, 3, 12288, 1.0412, 1.0017, 1.0933};
    gen::GenTrainWindow w2{2, 6, 9, 2, 8192, 0.98851, 0.97214, 1.00488};
    rep.trainWindows = {w0, w1, w2};
    return rep;
}

/** Degree stats without a valid slope; training without windows. */
gen::GenReport
genPartial()
{
    gen::GenReport rep = genFull();
    rep.family = "grid";
    rep.slopeValid = false;
    rep.powerLawSlope = 0;
    rep.trainWindowChunks = 0;
    rep.trainWindows.clear();
    return rep;
}

template <typename Print>
std::string
text(Print &&print)
{
    std::ostringstream os;
    print(os);
    return os.str();
}

/** Every rendering under test, by golden-file name. */
const std::map<std::string, std::function<std::string()>> &
renderings()
{
    using Os = std::ostream;
    static const std::map<std::string, std::function<std::string()>> all = {
        {"fig2_text", [] { return text([](Os &os) {
             reports::printFig2OpBreakdown(profiles(), os); }); }},
        {"fig3_text", [] { return text([](Os &os) {
             reports::printFig3InstructionMix(profiles(), os); }); }},
        {"fig4_text", [] { return text([](Os &os) {
             reports::printFig4Throughput(profiles(), os); }); }},
        {"fig5_text", [] { return text([](Os &os) {
             reports::printFig5Stalls(profiles(), os); }); }},
        {"fig6_text", [] { return text([](Os &os) {
             reports::printFig6Cache(profiles(), os); }); }},
        {"fig7_text", [] { return text([](Os &os) {
             reports::printFig7Sparsity(profiles(), os); }); }},
        {"fig8_text", [] { return text([](Os &os) {
             reports::printFig8SparsityTimeline(profiles(), os, 4); }); }},
        {"kernel_table_text", [] { return text([](Os &os) {
             reports::printKernelTable(profileAlpha(), os, 3); }); }},
        {"figures_json", [] { return reports::figuresJson(profiles()); }},
        {"manifest_json", [] {
             RunOptions opt;
             opt.seed = 2021;
             opt.scale = 0.25;
             opt.iterations = 2;
             return reports::runManifestJson(profileBeta(), opt, 4,
                                             1234.5);
         }},
        {"fig9_text", [] { return text([](Os &os) {
             reports::printFig9Scaling(curves(), os); }); }},
        {"scaling_json", [] { return reports::scalingJson(curves()); }},
        {"scaling_record_json", [] {
             return reports::scalingRecordJson("ALPHA", false, true,
                                               curves().front().second);
         }},
        {"fault_text", [] { return text([](Os &os) {
             reports::printFaultTolerance(faultRun(), os); }); }},
        {"fault_json", [] { return reports::faultJson(faultRun()); }},
        {"checkpoint_sweep_text", [] { return text([](Os &os) {
             FaultToleranceResult off = faultRun();
             off.checkpointTimeSec = 0;
             off.replayedIterations = 11;
             reports::printCheckpointSweep({{0, off}, {8, faultRun()}},
                                           os);
         }); }},
        {"serving_bare_text", [] { return text([](Os &os) {
             reports::printServing(servingBare(), os); }); }},
        {"serving_bare_json",
         [] { return reports::servingJson(servingBare()); }},
        {"serving_full_text", [] { return text([](Os &os) {
             reports::printServing(servingFull(), os); }); }},
        {"serving_full_json",
         [] { return reports::servingJson(servingFull()); }},
        {"serving_quiet_text", [] { return text([](Os &os) {
             reports::printServing(servingQuiet(), os); }); }},
        {"serving_quiet_json",
         [] { return reports::servingJson(servingQuiet()); }},
        {"serving_record_json", [] {
             return reports::servingRecordJson("load-2500",
                                               servingFull());
         }},
        {"slo_alert_record_json", [] {
             const serve::ServingReport rep = servingFull();
             return reports::sloAlertRecordJson("serve", rep,
                                                rep.alerts.front());
         }},
        {"gen_bare_text", [] { return text([](Os &os) {
             reports::printGen(genBare(), os); }); }},
        {"gen_bare_json", [] { return reports::genJson(genBare()); }},
        {"gen_full_text", [] { return text([](Os &os) {
             reports::printGen(genFull(), os); }); }},
        {"gen_full_json", [] { return reports::genJson(genFull()); }},
        {"gen_partial_text", [] { return text([](Os &os) {
             reports::printGen(genPartial(), os); }); }},
        {"gen_partial_json",
         [] { return reports::genJson(genPartial()); }},
        {"gen_record_json",
         [] { return reports::genRecordJson("gen", genFull()); }},
        {"memstats_text", [] { return text([](Os &os) {
             reports::printMemstats(profiles(), os); }); }},
        {"memstats_json", [] { return reports::memstatsJson(profiles()); }},
    };
    return all;
}

std::vector<std::string>
renderingNames()
{
    std::vector<std::string> names;
    for (const auto &[name, render] : renderings())
        names.push_back(name);
    return names;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

class ReportGolden : public ::testing::TestWithParam<std::string>
{
};

} // namespace

TEST_P(ReportGolden, MatchesCommittedText)
{
    const std::string name = GetParam();
    const std::string golden =
        std::string(GNNMARK_GOLDEN_DIR) + "/" + name + ".txt";
    const std::string actual = renderings().at(name)();
    const std::string expected = readFile(golden);
    if (actual != expected) {
        const std::string out = ::testing::TempDir() + name + ".txt";
        std::ofstream(out, std::ios::binary) << actual;
        ADD_FAILURE() << name << " differs from " << golden
                      << "; actual rendering written to " << out;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Reports, ReportGolden, ::testing::ValuesIn(renderingNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

// The dispatch counters and the avx2/scalar label depend on the host
// and on what ran before, so --opstats is checked by shape only.
TEST(ReportGoldenOpstats, TextAndJsonCarryEveryCounter)
{
    const std::string table =
        text([](std::ostream &os) { reports::printOpstats(os); });
    EXPECT_EQ(table.rfind("Operator dispatch (--opstats)\n", 0), 0u);
    for (const char *row : {"gemm  naive", "gemm  tiled",
                            "spmm  csr_scalar", "spmm  csr_vector",
                            "spmm  coo", "spmm  bell"}) {
        EXPECT_NE(table.find(row), std::string::npos) << row;
    }
    EXPECT_NE(table.find("  simd: "), std::string::npos);
    EXPECT_NE(table.find("   calibration: "), std::string::npos);
    EXPECT_EQ(table.substr(table.size() - 5), " ms\n\n");

    const obs::JsonValue doc = obs::parseJson(reports::opstatsJson());
    const obs::JsonValue *stats = doc.find("opstats");
    ASSERT_NE(stats, nullptr);
    std::vector<std::string> keys;
    for (const auto &[key, value] : stats->object)
        keys.push_back(key);
    EXPECT_EQ(keys, (std::vector<std::string>{
                        "simd", "calibrated", "calib_ms", "gemm_naive",
                        "gemm_tiled", "spmm_csr_scalar", "spmm_csr_vector",
                        "spmm_coo", "spmm_bell"}));
}
