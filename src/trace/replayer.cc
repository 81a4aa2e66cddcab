#include "trace/replayer.hh"

#include <memory>
#include <unordered_map>

#include "base/logging.hh"
#include "base/thread_pool.hh"
#include "obs/span.hh"
#include "sim/gpu_device.hh"

namespace gnnmark {
namespace trace {

namespace {

/**
 * All warp traces ever recorded for one kernel name, the fallback
 * pool when a replay config's geometry requests warps the recording
 * config never simulated in detail.
 */
struct WarpArchive
{
    std::unordered_map<int64_t, size_t> byId; ///< warp id -> pool index
    std::vector<const WarpTrace *> pool;      ///< insertion order
};

} // namespace

ReplayResult
replayTrace(const RecordedTrace &trace, const GpuConfig &config,
            const std::vector<KernelObserver *> &extra_observers)
{
    GNN_SPAN("trace.replay");
    GpuDevice device(config, trace.header.seed);
    ReplayResult result;
    result.workload = trace.header.workload;
    device.addObserver(&result.profiler);
    TimelineCollector timelines(config.launchOverheadSec);
    device.addObserver(&timelines);
    for (KernelObserver *observer : extra_observers)
        device.addObserver(observer);

    std::unordered_map<std::string, WarpArchive> archives;

    // Hoisted so its string/vector capacity is reused across launches.
    KernelDesc desc;

    for (const TraceEvent &event : trace.events) {
        if (const auto *launch = std::get_if<LaunchEvent>(&event)) {
            WarpArchive &archive = archives[launch->name];
            for (const TracedWarp &warp : launch->warps) {
                auto [it, fresh] =
                    archive.byId.try_emplace(warp.warpId,
                                             archive.pool.size());
                if (fresh)
                    archive.pool.push_back(&warp.trace);
                else
                    archive.pool[it->second] = &warp.trace;
            }

            desc.name = launch->name;
            desc.opClass = launch->opClass;
            desc.blocks = launch->blocks;
            desc.warpsPerBlock = launch->warpsPerBlock;
            desc.codeBytes = launch->codeBytes;
            desc.aluIlp = launch->aluIlp;
            desc.loadDepFraction = launch->loadDepFraction;
            desc.irregular = launch->irregular;
            desc.outputRanges = launch->outputRanges;
            desc.inputRanges = launch->inputRanges;

            // Pure function of the warp id (required by the device):
            // exact recorded warp first, then the kernel's archive by
            // id, then by index modulo the archived sample. Returns a
            // borrowed reference — the trace and archive outlive the
            // launch, and skipping the deep copy is a large share of
            // the replay speedup over live simulation.
            const LaunchEvent *ev = launch;
            const WarpArchive *arch = &archive;
            desc.replay =
                [ev, arch](int64_t warp_id) -> const WarpTrace & {
                for (const TracedWarp &warp : ev->warps) {
                    if (warp.warpId == warp_id)
                        return warp.trace;
                }
                auto it = arch->byId.find(warp_id);
                if (it != arch->byId.end())
                    return *arch->pool[it->second];
                if (!arch->pool.empty()) {
                    return *arch->pool[static_cast<size_t>(warp_id) %
                                       arch->pool.size()];
                }
                GNN_FATAL(
                    "trace replay: no recorded warp trace for kernel "
                    "'%s' (warp %lld) — the replay config asks for "
                    "more detail than the recording captured; "
                    "re-record with detailSampleLimit >= the replay "
                    "config's",
                    ev->name.c_str(),
                    static_cast<long long>(warp_id));
            };
            device.launch(desc);
        } else if (const auto *transfer =
                       std::get_if<TransferEvent>(&event)) {
            device.replayHostToDevice(transfer->addr, transfer->bytes,
                                      transfer->zeroFraction,
                                      transfer->tag);
        } else {
            switch (std::get<TraceMarker>(event)) {
              case TraceMarker::IterationBegin:
                // Fans out to the profiler and timeline collector
                // exactly like the live driver's mark call did.
                device.markIterationBegin();
                break;
              case TraceMarker::TimersReset:
                device.resetTimers();
                break;
              case TraceMarker::CachesFlushed:
                device.flushCaches();
                break;
              case TraceMarker::SamplingReset:
                device.resetSampling();
                break;
              case TraceMarker::BackwardBegin:
                device.markBackwardBegin();
                break;
              case TraceMarker::BackwardEnd:
                device.markBackwardEnd();
                break;
              case TraceMarker::NumMarkers:
                break;
            }
        }
    }

    result.losses = trace.header.losses;
    result.iterations = timelines.iterations();
    result.wallTimeSec = device.wallTimeSec();
    result.iterationsPerEpoch = trace.header.iterationsPerEpoch;
    result.parameterBytes = trace.header.parameterBytes;
    result.kernelLaunches = device.kernelCount();
    if (trace.header.iterations > 0) {
        result.epochTimeSec =
            result.wallTimeSec / trace.header.iterations *
            static_cast<double>(result.iterationsPerEpoch);
    }
    return result;
}

ReplayResult
replayTrace(const RecordedTrace &trace)
{
    return replayTrace(trace, trace.header.config);
}

std::vector<ReplayResult>
sweepTrace(const RecordedTrace &trace,
           const std::vector<GpuConfig> &configs)
{
    // Each replay owns its device/profiler and the trace is read-only,
    // so sweep points run concurrently on the shared pool. Inside a
    // point the L2 install finds itself in a pool job and walks its
    // sets serially on that point's thread: the points already fill
    // the pool.
    std::vector<ReplayResult> results(configs.size());
    ThreadPool::instance().parallelFor(
        0, static_cast<int64_t>(configs.size()), 1,
        [&](int64_t begin, int64_t end) {
            for (int64_t i = begin; i < end; ++i)
                results[static_cast<size_t>(i)] =
                    replayTrace(trace, configs[static_cast<size_t>(i)]);
        });
    return results;
}

} // namespace trace
} // namespace gnnmark
