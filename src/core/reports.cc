#include "core/reports.hh"

#include <algorithm>

#include "base/string_utils.hh"
#include "base/table.hh"
#include "base/units.hh"
#include "core/report_model.hh"
#include "core/reports_json.hh"
#include "core/suite.hh"
#include "ops/dispatch.hh"
#include "sim/fault_injector.hh"

namespace gnnmark {
namespace reports {

namespace {

double
number(const Value &v)
{
    return std::visit(
        [](const auto &x) -> double {
            if constexpr (std::is_arithmetic_v<std::decay_t<decltype(x)>>)
                return static_cast<double>(x);
            return 0.0;
        },
        v);
}

} // namespace

std::string
formatCell(const Cell &cell, const Value &v)
{
    switch (cell.kind) {
      case Cell::Fixed:
        return fixed(number(v) * cell.scale, cell.digits);
      case Cell::Percent:
        return percent(number(v), cell.digits);
      case Cell::General:
        return strfmt("%.*g", cell.digits, number(v));
      case Cell::Bytes:
        return formatBytes(number(v));
      case Cell::Hex:
        return strfmt("%016llx",
                      static_cast<unsigned long long>(std::get<uint64_t>(v)));
      case Cell::Flag:
        return std::get<bool>(v) ? cell.yes : cell.no;
      case Cell::Name:
        return cell.name(std::get<int64_t>(v));
      case Cell::Plain:
        break;
    }
    if (const auto *text = std::get_if<std::string>(&v))
        return *text;
    if (const auto *u = std::get_if<uint64_t>(&v))
        return strfmt("%llu", static_cast<unsigned long long>(*u));
    return strfmt("%lld", static_cast<long long>(std::get<int64_t>(v)));
}

void
writeValue(obs::JsonWriter &w, const std::string &key, const Cell &cell,
           const Value &v)
{
    if (cell.kind == Cell::Hex) {
        // 64-bit values as 32-bit halves: JSON numbers are doubles and
        // lose bits past 2^53.
        const uint64_t u = std::get<uint64_t>(v);
        w.key(key + "_hi").value(static_cast<int64_t>(u >> 32));
        w.key(key + "_lo").value(static_cast<int64_t>(u & 0xffffffffULL));
        return;
    }
    w.key(key);
    std::visit(
        [&w](const auto &x) {
            if constexpr (std::is_same_v<std::decay_t<decltype(x)>, uint64_t>)
                w.value(static_cast<int64_t>(x));
            else
                w.value(x);
        },
        v);
}

namespace {

// Text formats shared by many fields; `{}` is Cell::Plain.
const Cell kFix1{Cell::Fixed, 1};
const Cell kFix2{Cell::Fixed, 2};
const Cell kPct{Cell::Fixed, 1, 100.0}; ///< a fraction as 0-100
const Cell kPercent{Cell::Percent, 1};  ///< the same with a '%'
const Cell kMs{Cell::Fixed, 2, 1e3};    ///< seconds as ms
const Cell kMs0{Cell::Fixed, 0, 1e3};
const Cell kMiB{Cell::Fixed, 2, 1.0 / (1024.0 * 1024.0)};
const Cell kLoss{Cell::General, 4};
const Cell kOnOff{.kind = Cell::Flag, .yes = "on", .no = "off"};

/** A whole JSON document: one object that `body` fills in. */
template <typename Body>
std::string
document(Body &&body)
{
    obs::JsonWriter w;
    w.beginObject();
    body(w);
    w.endObject();
    return w.str();
}

/** `fields` of `r` as the object member `key`. */
template <typename R>
void
writeObject(obs::JsonWriter &w, const std::string &key,
            const Fields<R> &fields, const R &r)
{
    w.key(key).beginObject();
    writeMembers(w, fields, r);
    w.endObject();
}

/** One object of `fields` per record, as the array member `key`. */
template <typename R>
void
writeArray(obs::JsonWriter &w, const std::string &key,
           const Fields<R> &fields, const std::vector<R> &records)
{
    w.key(key).beginArray();
    for (const R &r : records) {
        w.beginObject();
        writeMembers(w, fields, r);
        w.endObject();
    }
    w.endArray();
}

// ---------------------------------------------------------------------
// Figs. 2-7: one column per field, one row per workload.

using Pr = Profiler;

/** Profile totals ahead of the figures (JSON and the run summary). */
const Fields<Pr> kProfilerTotals = {
    {"total_kernel_time_sec", "", {Cell::Fixed, 3, 1e3},
     &Pr::totalKernelTimeSec},
    {"total_launches", "", {}, &Pr::totalLaunches},
};
const Fields<WorkloadProfile> kRunTotals = {
    {"wall_sim_time_sec", "", {}, &WorkloadProfile::wallTimeSec},
    {"epoch_time_sec", "", {Cell::Fixed, 3, 1e3},
     &WorkloadProfile::epochTimeSec},
    {"iterations_per_epoch", "", {}, &WorkloadProfile::iterationsPerEpoch},
    {"parameter_bytes", "", {}, &WorkloadProfile::parameterBytes},
};

/** One paper figure: its JSON member, table title and fields. */
struct Figure
{
    std::string key;
    std::string title;
    Fields<Pr> fields;
};

Fields<Pr>
opTimeFields()
{
    Fields<Pr> fields;
    for (OpClass c : allOpClasses()) {
        const auto i = static_cast<size_t>(c);
        fields.push_back({opClassName(c), opClassName(c), kPct,
                          [i](const Pr &p) { return p.opTimeBreakdown()[i]; }});
    }
    return fields;
}

Fields<Pr>
stallFields()
{
    Fields<Pr> fields;
    for (size_t r = 0; r < kNumStallReasons; ++r) {
        const std::string &name = stallReasonName(static_cast<StallReason>(r));
        fields.push_back({name, name, kPct,
                          [r](const Pr &p) { return p.stallBreakdown()[r]; }});
    }
    return fields;
}

const std::vector<Figure> kFigures = {
    {"fig2_op_time_breakdown",
     "Fig. 2: execution-time breakdown by operation (percent of kernel "
     "time)",
     opTimeFields()},
    {"fig3_instruction_mix",
     "Fig. 3: dynamic instruction mix (percent of instructions)",
     {{"int32", "int32", kPct,
       [](const Pr &p) { return p.instructionMix().int32Frac; }},
      {"fp32", "fp32", kPct,
       [](const Pr &p) { return p.instructionMix().fp32Frac; }},
      {"other", "other", kPct,
       [](const Pr &p) { return p.instructionMix().otherFrac; }}}},
    {"fig4_throughput", "Fig. 4: arithmetic throughput per workload",
     {{"gflops", "GFLOPS", kFix1, &Pr::gflops},
      {"giops", "GIOPS", kFix1, &Pr::giops},
      {"avg_ipc", "IPC", kFix2, &Pr::avgIpc}}},
    {"fig5_stall_breakdown",
     "Fig. 5: warp issue-stall breakdown (percent of stall cycles)",
     stallFields()},
    {"fig6_cache", "Fig. 6: cache hit rates and load divergence (percent)",
     {{"l1_hit_rate", "L1 hit", kPct, &Pr::l1HitRate},
      {"l2_hit_rate", "L2 hit", kPct, &Pr::l2HitRate},
      {"divergent_load_fraction", "Divergent loads", kPct,
       &Pr::divergentLoadFraction}}},
    {"fig7_sparsity", "Fig. 7: average sparsity of CPU-to-GPU transfers",
     {{"avg_transfer_sparsity", "Sparsity", kPct, &Pr::avgTransferSparsity},
      {"total_transfer_bytes", "Transferred", {Cell::Bytes},
       &Pr::totalTransferBytes},
      {"total_transfer_time_sec", "", {}, &Pr::totalTransferTimeSec}}},
};

/** Per-column means, summed as value / count in workload order. */
std::vector<double>
columnMeans(const Figure &fig, const std::vector<WorkloadProfile> &profiles)
{
    std::vector<double> mean;
    for (const Field<Pr> &f : fig.fields) {
        if (f.header.empty())
            continue;
        double m = 0;
        for (const WorkloadProfile &p : profiles)
            m += number(f.get(p.profiler)) / profiles.size();
        mean.push_back(m);
    }
    return mean;
}

/** The figure table: a row per workload, then the MEAN row. */
void
printFigure(std::ostream &os, const Figure &fig,
            const std::vector<WorkloadProfile> &profiles,
            const std::vector<double> &mean, bool mean_last_column = true)
{
    TablePrinter table(fig.title);
    table.setHeader(header(fig.fields, {"Workload"}));
    for (const WorkloadProfile &p : profiles)
        table.addRow(row(fig.fields, p.profiler, {p.name}));
    std::vector<std::string> avg = {"MEAN"};
    for (const Field<Pr> &f : fig.fields) {
        if (!f.header.empty())
            avg.push_back(formatCell(f.cell, mean[avg.size() - 1]));
    }
    if (!mean_last_column)
        avg.back().clear();
    table.addRow(avg);
    table.print(os);
}

// ---------------------------------------------------------------------
// Fig. 9, fault tolerance, allocator.

using SC = ScalingResult;

const Fields<SC> kScaling = {
    {"world_size", "GPUs", {}, &SC::worldSize},
    {"epoch_time_sec", "Epoch (ms)", kMs, &SC::epochTimeSec},
    {"compute_time_sec", "Compute (ms)", kMs, &SC::computeTimeSec},
    {"comm_time_sec", "Comm (ms)", kMs, &SC::commTimeSec},
    {"comm_exposed_sec", "Exposed (ms)", kMs, &SC::commExposedSec},
    {"overlap_frac", "Overlap %", kPct, &SC::overlapFrac},
    {"speedup", "Speedup vs 1 GPU", kFix2, &SC::speedup},
};

using FT = FaultToleranceResult;

const Fields<FT> kFault = {
    {"workload", "", {}, &FT::workload},
    {"world_start", "", {}, &FT::worldStart},
    {"world_end", "", {}, &FT::worldEnd},
    {"target_iterations", "", {}, &FT::targetIterations},
    {"executed_iterations", "", {}, &FT::executedIterations},
    {"replayed_iterations", "", {}, &FT::replayedIterations},
    {"ideal_time_sec", "", kMs, &FT::idealTimeSec},
    {"total_time_sec", "", kMs, &FT::totalTimeSec},
    {"checkpoint_time_sec", "", kMs, &FT::checkpointTimeSec},
    {"recovery_time_sec", "", kMs, &FT::recoveryTimeSec},
    {"goodput", "", kPercent, &FT::goodput},
};

using FR = FaultRecord;

const Fields<FR> kFaultEvents = {
    {"kind", "Fault",
     {.kind = Cell::Name,
      .name = [](int64_t k) {
          return faultKindName(static_cast<FaultKind>(k));
      }},
     [](const FR &e) { return static_cast<int64_t>(e.kind); }},
    {"sim_time_sec", "At (ms)", kMs, &FR::simTimeSec},
    {"replica", "Replica", {}, &FR::replica},
    {"detection_sec", "Detect (ms)", kMs, &FR::detectionSec},
    {"rollback_sec", "Rollback (ms)", kMs, &FR::rollbackSec},
    {"reshard_sec", "Re-shard (ms)", kMs, &FR::reshardSec},
    {"slowdown_sec", "Drag (ms)", kMs, &FR::slowdownSec},
    {"lost_iterations", "Lost iters", {}, &FR::lostIterations},
    {"world_before", "World", {}, &FR::worldBefore},
    {"world_after", "", {.join = "->"}, &FR::worldAfter},
};

using AS = AllocSummary;

const Fields<AS> kMemstats = {
    {"mode", "Mode", {}, &AS::mode},
    {"bytes_peak", "Peak bytes", {Cell::Bytes}, &AS::bytesPeak},
    {"slabs_mapped", "Slabs", {}, &AS::slabsMapped},
    {"requests_total", "Requests", {}, &AS::requestsTotal},
    {"heap_calls_total", "Heap calls", {}, &AS::heapCallsTotal},
    {"cache_hit_rate", "Hit rate", kPercent, &AS::cacheHitRate},
    {"steady_alloc_calls_per_iter", "Steady allocs/iter", {},
     &AS::steadyAllocCallsPerIter},
    {"steady_requests_per_iter", "", {}, &AS::steadyRequestsPerIter},
};

// ---------------------------------------------------------------------
// Serving.

using SR = serve::ServingReport;

const Fields<SR> kServingConfig = {
    {"arrival", "", {}, &SR::arrival},
    {"faults", "", {}, &SR::faultScenario},
    {"rate_per_sec", "", {Cell::Fixed, 0}, &SR::ratePerSec},
    {"duration_sec", "", kFix1, &SR::durationSec},
    {"slo_ms", "", kFix1, &SR::sloMs},
    {"replicas", "", {}, &SR::replicas},
    {"max_batch", "", {}, &SR::maxBatch},
    {"seed", "", {}, &SR::seed},
    {"hedge", "", kOnOff, &SR::hedgeEnabled},
    {"shed", "", kOnOff, &SR::shedEnabled},
    {"fallback", "", kOnOff, &SR::fallbackEnabled},
};

const Fields<SR> kOutcomes = {
    {"offered", "Offered", {}, &SR::offered},
    {"full", "Full", {}, &SR::full},
    {"fallback", "Fallback", {}, &SR::fallback},
    {"shed", "Shed", {}, &SR::shed},
    {"lost", "Lost", {}, &SR::lost},
    {"slo_met", "SLO met", {}, &SR::sloMet},
    {"goodput_per_sec", "Goodput/s", kFix1, &SR::goodputPerSec},
};

const Fields<SR> kLatency = {
    {"p50", "p50", kFix2, &SR::p50Ms},   {"p95", "p95", kFix2, &SR::p95Ms},
    {"p99", "p99", kFix2, &SR::p99Ms},   {"mean", "mean", kFix2, &SR::meanMs},
    {"max", "max", kFix2, &SR::maxMs},
};

const Fields<SR> kRobustness = {
    {"retries", "", {}, &SR::retries},
    {"hedges", "", {}, &SR::hedgesLaunched},
    {"hedge_wins", "", {}, &SR::hedgeWins},
    {"timeouts", "", {}, &SR::timeouts},
    {"breaker_opens", "", {}, &SR::breakerOpens},
    {"cache_hit_rate", "", kPercent, &SR::cacheHitRate},
    {"cache_hits", "", {}, &SR::cacheHits},
    {"cache_misses", "", {}, &SR::cacheMisses},
};

const Fields<SR> kBatching = {
    {"batches", "", {}, &SR::batches},
    {"mean_size", "", kFix2, &SR::meanBatchSize},
    {"busy_sec", "", kMs, &SR::busySec},
    {"cancelled_sec", "", kMs, &SR::cancelledSec},
    {"utilization", "", kPercent, &SR::utilization},
    {"horizon_sec", "", {Cell::Fixed, 1, 1e3}, &SR::horizonSec},
};

using RR = serve::ReplicaReport;

const Fields<RR> kReplicas = {
    {"replica", "Replica", {}, &RR::replica},
    {"batches_completed", "Done", {}, &RR::batchesCompleted},
    {"batches_cancelled", "Cancelled", {}, &RR::batchesCancelled},
    {"timeouts", "Timeouts", {}, &RR::timeouts},
    {"breaker_opens", "Opens", {}, &RR::breakerOpens},
    {"breaker", "Breaker", {}, &RR::breakerFinal},
    {"busy_sec", "Busy (ms)", kMs, &RR::busySec},
    {"cancelled_sec", "Waste (ms)", kMs, &RR::cancelledSec},
};

const Fields<SR> kTimeline = {
    {"window_sec", "", kMs0, &SR::windowSec},
    {"slo_target", "", {Cell::Fixed, 2, 100.0}, &SR::sloTarget},
    {"budget_consumed", "", kPercent, &SR::budgetConsumed},
};

using SW = serve::ServingWindow;

/** In JSON order; the table picks its columns in its own order. */
const Fields<SW> kWindows = {
    {"index", "Win", {}, &SW::index},
    {"start_sec", "t (ms)", kMs0, &SW::startSec},
    {"end_sec", "", {}, &SW::endSec},
    {"offered", "Offered", {}, &SW::offered},
    {"full", "", {}, &SW::full},
    {"fallback", "", {}, &SW::fallback},
    {"shed", "Shed", {}, &SW::shed},
    {"lost", "Lost", {}, &SW::lost},
    {"slo_met", "OK", {}, &SW::sloMet},
    {"goodput_per_sec", "Goodput/s", {Cell::Fixed, 0}, &SW::goodputPerSec},
    {"resolved", "", {}, &SW::resolved},
    {"p50_ms", "p50", kFix2, &SW::p50Ms},
    {"p95_ms", "p95", kFix2, &SW::p95Ms},
    {"p99_ms", "p99", kFix2, &SW::p99Ms},
    {"queue_depth_mean", "Queue", kFix1, &SW::queueDepthMean},
    {"queue_depth_max", "", {}, &SW::queueDepthMax},
    {"burn_rate", "Burn", kFix1, &SW::burnRate},
    {"budget_consumed", "", {}, &SW::budgetConsumed},
};

using SA = serve::ServingAlert;

const Fields<SA> kAlerts = {
    {"rule", "Rule", {}, &SA::rule},
    {"severity", "Severity", {}, &SA::severity},
    {"start_window", "", {}, &SA::startWindow},
    {"end_window", "", {}, &SA::endWindow},
    {"start_sec", "From (ms)", kMs0, &SA::startSec},
    {"end_sec", "To (ms)", kMs0, &SA::endSec},
    {"peak_burn", "Peak burn", kFix1, &SA::peakBurn},
    {"error_fraction", "Err %", kPct, &SA::errorFraction},
};

const Fields<SR> kTracing = {
    {"sample_every", "", {}, &SR::traceSampleEvery},
    {"traced_requests", "", {}, &SR::tracedRequests},
};

/** Shared body of servingJson / servingRecordJson. */
void
servingBody(obs::JsonWriter &w, const SR &rep)
{
    writeObject(w, "config", kServingConfig, rep);
    writeObject(w, "outcomes", kOutcomes, rep);
    writeObject(w, "latency_ms", kLatency, rep);
    writeObject(w, "robustness", kRobustness, rep);
    writeObject(w, "batching", kBatching, rep);
    writeArray(w, "replicas", kReplicas, rep.perReplica);
    // Timeline / tracing sections appear only when the run enabled
    // them, so pre-windowing outputs stay byte-identical.
    if (rep.windowSec > 0) {
        w.key("timeline").beginObject();
        writeMembers(w, kTimeline, rep);
        writeArray(w, "windows", kWindows, rep.windows);
        writeArray(w, "alerts", kAlerts, rep.alerts);
        w.endObject();
    }
    if (rep.traceSampleEvery > 0)
        writeObject(w, "tracing", kTracing, rep);
}

// ---------------------------------------------------------------------
// Generation.

using GR = gen::GenReport;

const Fields<GR> kGenConfig = {
    {"family", "", {}, &GR::family},
    {"requested_n", "", {}, &GR::requestedVertices},
    {"n", "", {}, &GR::vertices},
    {"target_edges", "", {}, &GR::targetEdges},
    {"chunks", "", {}, &GR::chunks},
    {"lookahead", "", {}, &GR::lookahead},
    {"seed", "", {}, &GR::seed},
};

const Fields<GR> kGenStream = {
    {"edges", "Edges", {}, &GR::edges},
    {"chunks_emitted", "Chunks", {}, &GR::chunksEmitted},
    {"checksum", "Checksum", {Cell::Hex}, &GR::checksum},
    {"peak_resident_bytes", "Peak res (MiB)", kMiB, &GR::peakResidentBytes},
    {"resident_budget_bytes", "Budget (MiB)", kMiB,
     &GR::residentBudgetBytes},
};

/** Wall clock: in the table and the telemetry record, never in --json. */
const Fields<GR> kGenWallClock = {
    {"threads", "", {}, &GR::threads},
    {"host_wall_sec", "Wall (s)", {Cell::Fixed, 3}, &GR::wallSec},
    {"host_edges_per_sec", "Edges/s", {Cell::General, 3},
     &GR::edgesPerSec},
};

const Fields<GR> kGenDegrees = {
    {"tracked", "Tracked", {}, &GR::degreeVertices},
    {"stride", "Stride", {}, &GR::degreeSampleStride},
    {"min", "Min", {}, &GR::minDegree},
    {"max", "Max", {}, &GR::maxDegree},
    {"mean", "Mean", kFix2, &GR::meanDegree},
    {"modal_degree", "Modal", {}, &GR::modalDegree},
    {"modal_fraction", "Modal %", kPct, &GR::modalFraction},
    {"distinct", "Distinct", {}, &GR::distinctDegrees},
    {"slope_valid", "", {}, &GR::slopeValid},
    {"loglog_slope", "LogLog slope",
     {.kind = Cell::Fixed, .digits = 3, .gate = "slope_valid"},
     &GR::powerLawSlope},
};

const Fields<GR> kGenTraining = {
    {"batches", "Batches", {}, &GR::trainBatches},
    {"edges_consumed", "Edges consumed", {}, &GR::trainEdgesConsumed},
    {"first_loss", "First loss", kLoss, &GR::trainFirstLoss},
    {"last_loss", "Last loss", kLoss, &GR::trainLastLoss},
    {"peak_resident_bytes", "Peak res (MiB)", kMiB,
     &GR::trainPeakResidentBytes},
};

const Fields<GR> kGenWindowing = {
    {"window_chunks", "", {}, &GR::trainWindowChunks},
};

using GW = gen::GenTrainWindow;

const Fields<GW> kGenWindows = {
    {"index", "Win", {}, &GW::index},
    {"first_chunk", "", {}, &GW::firstChunk},
    {"last_chunk", "", {}, &GW::lastChunk},
    {"chunks", "Chunks", {}, &GW::chunks},
    {"edges", "Edges", {}, &GW::edges},
    {"mean_loss", "Mean loss", kLoss, &GW::meanLoss},
    {"min_loss", "Min loss", kLoss, &GW::minLoss},
    {"max_loss", "Max loss", kLoss, &GW::maxLoss},
};

/** Shared deterministic body of genJson / genRecordJson. */
void
genBody(obs::JsonWriter &w, const GR &rep)
{
    writeObject(w, "config", kGenConfig, rep);
    writeObject(w, "stream", kGenStream, rep);
    if (rep.hasDegrees)
        writeObject(w, "degrees", kGenDegrees, rep);
    if (rep.trained) {
        w.key("training").beginObject();
        writeMembers(w, kGenTraining, rep);
        if (rep.trainWindowChunks > 0) {
            writeMembers(w, kGenWindowing, rep);
            writeArray(w, "windows", kGenWindows, rep.trainWindows);
        }
        w.endObject();
    }
}

// ---------------------------------------------------------------------
// Operator dispatch. The table is transposed: one row per counter, its
// header split into the Op and Variant cells.

using DS = ops::DispatchStats;

const Fields<DS> kOpstats = {
    {"simd", "", {.kind = Cell::Flag, .yes = "avx2", .no = "scalar"},
     &DS::simd},
    {"calibrated", "", {.kind = Cell::Flag, .yes = "ran", .no = "not run"},
     &DS::calibrated},
    {"calib_ms", "", {Cell::Fixed, 3}, &DS::calibMs},
    {"gemm_naive", "gemm naive", {}, &DS::gemmNaive},
    {"gemm_tiled", "gemm tiled", {}, &DS::gemmTiled},
    {"spmm_csr_scalar", "spmm csr_scalar", {}, &DS::spmmCsrScalar},
    {"spmm_csr_vector", "spmm csr_vector", {}, &DS::spmmCsrVector},
    {"spmm_coo", "spmm coo", {}, &DS::spmmCoo},
    {"spmm_bell", "spmm bell", {}, &DS::spmmBell},
};

} // namespace

// ---------------------------------------------------------------------
// Text renderings.

void
printTableOne(std::ostream &os)
{
    TablePrinter table(
        "Table I: GNNMark workloads (synthetic-dataset reproduction)");
    table.setHeader({"Workload", "Model", "Framework", "Domain",
                     "Dataset", "Graph type"});
    for (const auto &wl : BenchmarkSuite::createAll()) {
        table.addRow({wl->name(), wl->modelName(), wl->framework(),
                      wl->domain(), wl->datasetName(), wl->graphType()});
    }
    table.print(os);
}

void
printFig2OpBreakdown(const std::vector<WorkloadProfile> &profiles,
                     std::ostream &os)
{
    const Figure &fig = kFigures[0];
    const std::vector<double> mean = columnMeans(fig, profiles);
    printFigure(os, fig, profiles, mean);

    const double gemm_spmm =
        (mean[static_cast<size_t>(OpClass::Gemm)] +
         mean[static_cast<size_t>(OpClass::Gemv)] +
         mean[static_cast<size_t>(OpClass::SpMM)]) * 100.0;
    const double agg_ops =
        (mean[static_cast<size_t>(OpClass::Sort)] +
         mean[static_cast<size_t>(OpClass::IndexSelect)] +
         mean[static_cast<size_t>(OpClass::Reduction)] +
         mean[static_cast<size_t>(OpClass::Scatter)] +
         mean[static_cast<size_t>(OpClass::Gather)]) * 100.0;
    os << strfmt("Suite mean GEMM+SpMM share: %.1f%% "
                 "(paper: ~25%%)\n", gemm_spmm);
    os << strfmt("Suite mean sort+index+reduce+scatter+gather share: "
                 "%.1f%% (paper: ~20.8%%)\n\n", agg_ops);
}

void
printFig3InstructionMix(const std::vector<WorkloadProfile> &profiles,
                        std::ostream &os)
{
    const Figure &fig = kFigures[1];
    std::vector<double> mean = columnMeans(fig, profiles);
    mean[2] = 1.0 - mean[0] - mean[1];
    printFigure(os, fig, profiles, mean);
    os << strfmt("Suite mean int32 share: %.1f%% (paper: 64%%); fp32: "
                 "%.1f%% (paper: 28.7%%)\n\n",
                 mean[0] * 100.0, mean[1] * 100.0);
}

void
printFig4Throughput(const std::vector<WorkloadProfile> &profiles,
                    std::ostream &os)
{
    const Figure &fig = kFigures[2];
    const std::vector<double> mean = columnMeans(fig, profiles);
    printFigure(os, fig, profiles, mean);
    os << strfmt("Suite means (paper: 214 GFLOPS, 705 GIOPS, IPC "
                 "0.55): %.0f GFLOPS, %.0f GIOPS, IPC %.2f\n\n",
                 mean[0], mean[1], mean[2]);
}

void
printFig5Stalls(const std::vector<WorkloadProfile> &profiles,
                std::ostream &os)
{
    const Figure &fig = kFigures[3];
    const std::vector<double> mean = columnMeans(fig, profiles);
    printFigure(os, fig, profiles, mean);
    os << strfmt(
        "Suite means (paper: MemDep 34.3%%, ExecDep 29.5%%, IFetch "
        "21.6%%): MemDep %.1f%%, ExecDep %.1f%%, IFetch %.1f%%\n\n",
        mean[0] * 100.0, mean[1] * 100.0, mean[2] * 100.0);

    // Per-op-class stall detail (paper Fig. 5's companion analysis).
    TablePrinter detail(
        "Per-operation stall shares (suite-wide, percent)");
    detail.setHeader(header(fig.fields, {"Operation"}));
    for (OpClass c : allOpClasses()) {
        StallVector sum{};
        double total = 0;
        for (const WorkloadProfile &p : profiles) {
            const OpClassStats &s = p.profiler.classStats(c);
            for (size_t r = 0; r < kNumStallReasons; ++r) {
                sum[r] += s.stallCycles[r];
                total += s.stallCycles[r];
            }
        }
        if (total <= 0)
            continue;
        std::vector<std::string> row = {opClassName(c)};
        for (size_t r = 0; r < kNumStallReasons; ++r)
            row.push_back(fixed(sum[r] / total * 100.0, 1));
        detail.addRow(row);
    }
    detail.print(os);
    os << "\n";
}

void
printFig6Cache(const std::vector<WorkloadProfile> &profiles,
               std::ostream &os)
{
    const Figure &fig = kFigures[4];
    const std::vector<double> mean = columnMeans(fig, profiles);
    printFigure(os, fig, profiles, mean);
    os << strfmt("Suite means (paper: L1 ~15%%, L2 ~70%%, divergent "
                 "~32.5%%): L1 %.1f%%, L2 %.1f%%, divergent %.1f%%\n\n",
                 mean[0] * 100.0, mean[1] * 100.0, mean[2] * 100.0);

    TablePrinter detail("Per-operation L1 hit rate (suite-wide)");
    detail.setHeader({"Operation", "L1 hit", "L2 hit", "Divergent"});
    for (OpClass c : allOpClasses()) {
        KernelCounters sum;
        for (const WorkloadProfile &p : profiles)
            sum += p.profiler.classStats(c);
        if (sum.l2Accesses <= 0)
            continue;
        detail.addRow({opClassName(c), fixed(sum.l1HitRate() * 100.0, 1),
                       fixed(sum.l2HitRate() * 100.0, 1),
                       fixed(sum.divergentLoadFraction() * 100.0, 1)});
    }
    detail.print(os);
    os << "\n";
}

void
printFig7Sparsity(const std::vector<WorkloadProfile> &profiles,
                  std::ostream &os)
{
    const Figure &fig = kFigures[5];
    const std::vector<double> mean = columnMeans(fig, profiles);
    printFigure(os, fig, profiles, mean, /*mean_last_column=*/false);
    os << strfmt("Suite mean transfer sparsity: %.1f%% (paper: "
                 "43.2%%)\n\n", mean[0] * 100.0);
}

void
printFig8SparsityTimeline(const std::vector<WorkloadProfile> &profiles,
                          std::ostream &os, int max_points)
{
    TablePrinter table(
        "Fig. 8: transfer sparsity vs. training iteration (percent)");
    std::vector<std::string> header = {"Workload"};
    for (int i = 1; i <= max_points; ++i)
        header.push_back(strfmt("it%d", i));
    table.setHeader(header);

    for (const WorkloadProfile &p : profiles) {
        // Byte-weighted sparsity per iteration.
        std::vector<double> bytes(max_points + 1, 0);
        std::vector<double> zeros(max_points + 1, 0);
        for (const SparsitySample &s : p.profiler.sparsityTimeline()) {
            if (s.iteration >= 1 && s.iteration <= max_points) {
                bytes[s.iteration] += s.bytes;
                zeros[s.iteration] += s.bytes * s.zeroFraction;
            }
        }
        std::vector<std::string> row = {p.name};
        for (int i = 1; i <= max_points; ++i) {
            row.push_back(bytes[i] > 0
                              ? fixed(zeros[i] / bytes[i] * 100.0, 1)
                              : std::string("-"));
        }
        table.addRow(row);
    }
    table.print(os);
    os << "\n";
}

void
printFig9Scaling(
    const std::vector<std::pair<std::string, std::vector<ScalingResult>>>
        &curves,
    std::ostream &os)
{
    TablePrinter table(
        "Fig. 9: strong scaling with PyTorch DDP (time per epoch)");
    table.setHeader(header(kScaling, {"Workload"}));
    for (const auto &[name, points] : curves) {
        for (const ScalingResult &r : points)
            table.addRow(row(kScaling, r, {name}));
    }
    table.print(os);
    os << "\n";
}

void
printFaultTolerance(const FaultToleranceResult &result, std::ostream &os)
{
    printTable(os,
               fill("Fault-tolerant DDP run: {workload} ({world_start} -> "
                    "{world_end} GPUs)",
                    kFault, result),
               kFaultEvents, result.events);
    os << fill("Iterations: {target_iterations} target, "
               "{executed_iterations} executed ({replayed_iterations} "
               "replayed)\n"
               "Time: {total_time_sec} ms total vs {ideal_time_sec} ms "
               "ideal (checkpointing {checkpoint_time_sec} ms, recovery "
               "{recovery_time_sec} ms)\n"
               "Goodput vs ideal: {goodput}\n\n",
               kFault, result);
}

void
printCheckpointSweep(
    const std::vector<std::pair<int, FaultToleranceResult>> &sweep,
    std::ostream &os)
{
    if (sweep.empty())
        return;
    TablePrinter table(strfmt(
        "Checkpoint-interval sweep: %s (%d GPUs, same fault plan)",
        sweep.front().second.workload.c_str(),
        sweep.front().second.worldStart));
    table.setHeader({"Interval", "Total (ms)", "Ckpt (ms)",
                     "Recovery (ms)", "Replayed", "Goodput"});
    for (const auto &[interval, r] : sweep) {
        table.addRow({interval > 0 ? strfmt("%d", interval) : "off",
                      fixed(r.totalTimeSec * 1e3, 2),
                      fixed(r.checkpointTimeSec * 1e3, 2),
                      fixed(r.recoveryTimeSec * 1e3, 2),
                      strfmt("%d", r.replayedIterations),
                      fill("{goodput}", kFault, r)});
    }
    table.print(os);
    os << "\n";
}

void
printRunSummary(const WorkloadProfile &p, std::ostream &os)
{
    static const Fields<Pr> all = [] {
        Fields<Pr> fields = kProfilerTotals;
        for (const Figure &fig : kFigures)
            fields = concat(fields, fig.fields);
        return fields;
    }();
    TablePrinter table(p.name + " summary");
    table.setHeader({"Metric", "Value"});
    table.addRow({"loss (first -> last)",
                  strfmt("%.4f -> %.4f", p.losses.front(),
                         p.losses.back())});
    const auto add = [&](const char *metric, const char *tmpl) {
        table.addRow({metric, fill(tmpl, all, p.profiler)});
    };
    add("kernel launches", "{total_launches}");
    add("kernel time", "{total_kernel_time_sec} ms");
    table.addRow({"epoch time (est.)",
                  fill("{epoch_time_sec} ms", kRunTotals, p)});
    add("GFLOPS / GIOPS", "{gflops} / {giops}");
    add("IPC", "{avg_ipc}");
    add("instruction mix", "int32 {int32}% fp32 {fp32}%");
    add("L1 / L2 hit rate", "{l1_hit_rate}% / {l2_hit_rate}%");
    add("divergent loads", "{divergent_load_fraction}%");
    add("H2D sparsity", "{avg_transfer_sparsity}%");
    table.print(os);
    os << "\n";
    printKernelTable(p, os);
}

void
printKernelTable(const WorkloadProfile &profile, std::ostream &os,
                 int top_n)
{
    std::vector<std::pair<std::string, const OpClassStats *>> rows;
    for (const auto &[name, stats] : profile.profiler.kernelStats())
        rows.emplace_back(name, &stats);
    std::sort(rows.begin(), rows.end(), [](const auto &a, const auto &b) {
        return a.second->timeSec > b.second->timeSec;
    });

    TablePrinter table(
        strfmt("Top kernels for %s (nvprof-style)",
               profile.name.c_str()));
    table.setHeader({"Kernel", "Time (us)", "Calls", "Share"});
    const double total = profile.profiler.totalKernelTimeSec();
    for (int i = 0;
         i < top_n && i < static_cast<int>(rows.size()); ++i) {
        table.addRow({rows[i].first,
                      fixed(rows[i].second->timeSec * 1e6, 1),
                      strfmt("%lld", static_cast<long long>(
                                         rows[i].second->launches)),
                      percent(total > 0
                                  ? rows[i].second->timeSec / total
                                  : 0.0)});
    }
    table.print(os);
    os << "\n";
}

void
printMemstats(const std::vector<WorkloadProfile> &profiles,
              std::ostream &os)
{
    TablePrinter table("Host allocator behaviour (--memstats)");
    table.setHeader(header(kMemstats, {"Workload"}));
    for (const WorkloadProfile &p : profiles)
        table.addRow(row(kMemstats, p.memStats, {p.name}));
    table.print(os);
    os << "\n";
}

void
printServing(const serve::ServingReport &rep, std::ostream &os)
{
    os << fill("Serving: {arrival} arrivals @ {rate_per_sec} req/s for "
               "{duration_sec} s, SLO {slo_ms} ms, {replicas} replicas, "
               "batch <= {max_batch}, faults={faults}\n"
               "Robustness: hedge={hedge} shed={shed} "
               "fallback={fallback}\n",
               kServingConfig, rep);
    printTable(os, "Request outcomes", kOutcomes, {&rep, 1});
    printTable(os, "Latency over answered requests (ms)", kLatency,
               {&rep, 1});
    os << fill("Mechanics: {retries} retries, {hedges} hedges "
               "({hedge_wins} won), {timeouts} timeouts, {breaker_opens} "
               "breaker opens, cache hit rate {cache_hit_rate}\n",
               kRobustness, rep);
    os << fill("Batching: {batches} batches, mean size {mean_size}, "
               "utilization {utilization} ({busy_sec} ms useful, "
               "{cancelled_sec} ms cancelled), horizon {horizon_sec} ms\n",
               kBatching, rep);
    printTable(os, "Per-replica accounting", kReplicas, rep.perReplica);

    if (rep.windowSec > 0) {
        printTable(os,
                   fill("Timeline ({window_sec} ms windows, SLO target "
                        "{slo_target}%, budget consumed "
                        "{budget_consumed})",
                        kTimeline, rep),
                   pick(kWindows, {"index", "start_sec", "offered",
                                   "slo_met", "shed", "lost", "p50_ms",
                                   "p95_ms", "p99_ms", "goodput_per_sec",
                                   "queue_depth_mean", "burn_rate"}),
                   rep.windows);
        if (rep.alerts.empty())
            os << "SLO alerts: none\n";
        else
            printTable(os, "SLO burn-rate alerts", kAlerts, rep.alerts);
    }
    if (rep.traceSampleEvery > 0) {
        os << fill("Tracing: every {sample_every}-th request + "
                   "exemplars, {traced_requests} span chains kept\n",
                   kTracing, rep);
    }
    os << "\n";
}

void
printGen(const gen::GenReport &rep, std::ostream &os)
{
    const Fields<GR> head =
        concat(concat(kGenConfig, kGenStream), kGenWallClock);
    os << fill("Generation: family={family} n={n} (requested "
               "{requested_n}) target_edges={target_edges} chunks={chunks} "
               "lookahead={lookahead} seed={seed} threads={threads}\n",
               head, rep);
    printTable(os, "Edge stream", head, {&rep, 1});
    if (rep.hasDegrees)
        printTable(os, "Degree distribution", kGenDegrees, {&rep, 1});
    if (rep.trained) {
        printTable(os, "Streamed training", kGenTraining, {&rep, 1});
        if (rep.trainWindowChunks > 0) {
            printTable(os,
                       fill("Training timeline ({window_chunks}-chunk "
                            "windows)",
                            kGenWindowing, rep),
                       kGenWindows, rep.trainWindows);
        }
    }
    os << "\n";
}

void
printOpstats(std::ostream &os)
{
    const ops::DispatchStats s = ops::Dispatch::instance().stats();
    TablePrinter table("Operator dispatch (--opstats)");
    table.setHeader({"Op", "Variant", "Calls"});
    for (const Field<DS> &f : kOpstats) {
        if (f.header.empty())
            continue;
        std::vector<std::string> cells = split(f.header, ' ');
        cells.push_back(cellOf(kOpstats, f, s));
        table.addRow(cells);
    }
    table.print(os);
    os << fill("  simd: {simd}   calibration: {calibrated}, {calib_ms} "
               "ms\n\n",
               kOpstats, s);
}

// ---------------------------------------------------------------------
// JSON renderings.

void
profileJson(obs::JsonWriter &w, const WorkloadProfile &profile)
{
    w.beginObject();
    writeMembers(w, kProfilerTotals, profile.profiler);
    writeMembers(w, kRunTotals, profile);
    for (const Figure &fig : kFigures)
        writeObject(w, fig.key, fig.fields, profile.profiler);
    w.key("losses").beginArray();
    for (float loss : profile.losses)
        w.value(static_cast<double>(loss));
    w.endArray();
    w.endObject();
}

std::string
figuresJson(const std::vector<WorkloadProfile> &profiles)
{
    return document([&](obs::JsonWriter &w) {
        w.key("workloads").beginObject();
        for (const WorkloadProfile &profile : profiles) {
            w.key(profile.name);
            profileJson(w, profile);
        }
        w.endObject();
    });
}

std::string
scalingJson(
    const std::vector<std::pair<std::string, std::vector<ScalingResult>>>
        &curves)
{
    return document([&](obs::JsonWriter &w) {
        w.key("fig9_scaling").beginObject();
        for (const auto &[name, curve] : curves)
            writeArray(w, name, kScaling, curve);
        w.endObject();
    });
}

std::string
scalingRecordJson(const std::string &workload, bool weak,
                  bool overlap_on,
                  const std::vector<ScalingResult> &curve)
{
    // The telemetry schema bench_diff baselines key on: one object per
    // world size, the communication split nested under "ddp" with its
    // total named comm_total_sec.
    static const Fields<SC> compute =
        pick(kScaling, {"epoch_time_sec", "compute_time_sec"});
    static const Fields<SC> ddp = [] {
        Fields<SC> fields = pick(
            kScaling, {"comm_time_sec", "comm_exposed_sec", "overlap_frac"});
        fields[0].key = "comm_total_sec";
        return fields;
    }();
    static const Fields<SC> speedup = pick(kScaling, {"speedup"});
    return document([&](obs::JsonWriter &w) {
        w.key("type").value("scaling");
        w.key("workload").value(workload);
        w.key("mode").value(weak ? "weak" : "strong");
        w.key("overlap").value(overlap_on ? "on" : "off");
        for (const ScalingResult &point : curve) {
            w.key(fill("w{world_size}", kScaling, point)).beginObject();
            writeMembers(w, compute, point);
            writeObject(w, "ddp", ddp, point);
            writeMembers(w, speedup, point);
            w.endObject();
        }
    });
}

std::string
faultJson(const FaultToleranceResult &result)
{
    return document([&](obs::JsonWriter &w) {
        w.key("fault_tolerance").beginObject();
        writeMembers(w, kFault, result);
        writeArray(w, "events", kFaultEvents, result.events);
        w.endObject();
    });
}

std::string
runManifestJson(const WorkloadProfile &profile, const RunOptions &options,
                int threads, double host_wall_us)
{
    return document([&](obs::JsonWriter &w) {
        w.key("type").value("manifest");
        w.key("workload").value(profile.name);
        w.key("seed").value(static_cast<int64_t>(options.seed));
        w.key("scale").value(options.scale);
        w.key("iterations").value(options.iterations);
        w.key("warmup_iterations").value(options.warmupIterations);
        w.key("inference_only").value(options.inferenceOnly);
        w.key("threads").value(threads);
        w.key("host_wall_us").value(host_wall_us);
        w.key("profile");
        profileJson(w, profile);
    });
}

std::string
memstatsJson(const std::vector<WorkloadProfile> &profiles)
{
    return document([&](obs::JsonWriter &w) {
        w.key("memstats").beginObject();
        for (const WorkloadProfile &p : profiles)
            writeObject(w, p.name, kMemstats, p.memStats);
        w.endObject();
    });
}

std::string
servingJson(const serve::ServingReport &report)
{
    return document([&](obs::JsonWriter &w) {
        w.key("serving").beginObject();
        servingBody(w, report);
        w.endObject();
    });
}

std::string
servingRecordJson(const std::string &label,
                  const serve::ServingReport &report)
{
    return document([&](obs::JsonWriter &w) {
        w.key("type").value("serving");
        w.key("label").value(label);
        servingBody(w, report);
    });
}

std::string
sloAlertRecordJson(const std::string &label,
                   const serve::ServingReport &report,
                   const serve::ServingAlert &alert)
{
    return document([&](obs::JsonWriter &w) {
        w.key("type").value("slo_alert");
        w.key("label").value(label);
        writeMembers(w, kAlerts, alert);
        writeMembers(w, pick(kTimeline, {"window_sec", "slo_target"}),
                     report);
        writeMembers(w, pick(kServingConfig, {"faults"}), report);
    });
}

std::string
genJson(const gen::GenReport &report)
{
    return document([&](obs::JsonWriter &w) {
        w.key("generation").beginObject();
        genBody(w, report);
        w.endObject();
    });
}

std::string
genRecordJson(const std::string &label, const gen::GenReport &report)
{
    return document([&](obs::JsonWriter &w) {
        w.key("type").value("generation");
        w.key("label").value(label);
        genBody(w, report);
        writeMembers(w, kGenWallClock, report);
    });
}

std::string
opstatsJson()
{
    return document([](obs::JsonWriter &w) {
        writeObject(w, "opstats", kOpstats,
                    ops::Dispatch::instance().stats());
    });
}

} // namespace reports
} // namespace gnnmark
