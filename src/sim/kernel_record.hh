/**
 * @file
 * Measured results of a kernel launch (and of host-to-device copies),
 * as delivered to profiler observers. This is the model's analogue of
 * one nvprof row plus the NVBit divergence counters.
 */

#ifndef GNNMARK_SIM_KERNEL_RECORD_HH
#define GNNMARK_SIM_KERNEL_RECORD_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

#include "sim/op_class.hh"
#include "sim/stall.hh"

namespace gnnmark {

/**
 * The counters every stage sums per launch, from the warp pipeline to
 * the reports: the instruction mix, lane-level work, memory behaviour
 * and stall cycles. Stages combine whole records field by field with
 * +=, *= and /=; kKernelCounterFields lists the scalar fields once.
 */
struct KernelCounters
{
    // Dynamic instruction counts (warp instructions).
    double fp32Instrs = 0;
    double int32Instrs = 0;
    double memInstrs = 0;
    double miscInstrs = 0;

    // Lane-level arithmetic work (for GFLOPS / GIOPS).
    double flops = 0;
    double intOps = 0;

    // Memory behaviour.
    double loads = 0;          ///< global load instructions
    double divergentLoads = 0; ///< loads touching > 1 cache line
    double l1Accesses = 0;
    double l1Hits = 0;
    double l2Accesses = 0;
    double l2Hits = 0;
    double dramBytes = 0;

    // Warp issue-stall cycles by reason (relative magnitudes matter).
    StallVector stallCycles{};

    double
    totalInstrs() const
    {
        return fp32Instrs + int32Instrs + memInstrs + miscInstrs;
    }

    /** @{ Ratios; 0 when the denominator is 0. */
    double l1HitRate() const { return ratio(l1Hits, l1Accesses); }
    double l2HitRate() const { return ratio(l2Hits, l2Accesses); }
    double
    divergentLoadFraction() const
    {
        return ratio(divergentLoads, loads);
    }
    /** @} */

    KernelCounters &operator+=(const KernelCounters &other);
    KernelCounters &operator*=(double factor);
    KernelCounters &operator/=(double divisor);

  private:
    static double
    ratio(double num, double den)
    {
        return den > 0 ? num / den : 0.0;
    }
};

/** Every scalar field of KernelCounters (stallCycles aside). */
inline constexpr std::array<double KernelCounters::*, 13>
    kKernelCounterFields = {
        &KernelCounters::fp32Instrs, &KernelCounters::int32Instrs,
        &KernelCounters::memInstrs, &KernelCounters::miscInstrs,
        &KernelCounters::flops, &KernelCounters::intOps,
        &KernelCounters::loads, &KernelCounters::divergentLoads,
        &KernelCounters::l1Accesses, &KernelCounters::l1Hits,
        &KernelCounters::l2Accesses, &KernelCounters::l2Hits,
        &KernelCounters::dramBytes,
};

// A field added to KernelCounters without an entry above fails here.
static_assert(sizeof(KernelCounters) ==
                  sizeof(double) * kKernelCounterFields.size() +
                      sizeof(StallVector),
              "kKernelCounterFields must list every KernelCounters field");

inline KernelCounters &
KernelCounters::operator+=(const KernelCounters &other)
{
    for (double KernelCounters::*f : kKernelCounterFields)
        this->*f += other.*f;
    for (size_t r = 0; r < kNumStallReasons; ++r)
        stallCycles[r] += other.stallCycles[r];
    return *this;
}

inline KernelCounters &
KernelCounters::operator*=(double factor)
{
    for (double KernelCounters::*f : kKernelCounterFields)
        this->*f *= factor;
    for (double &s : stallCycles)
        s *= factor;
    return *this;
}

inline KernelCounters &
KernelCounters::operator/=(double divisor)
{
    for (double KernelCounters::*f : kKernelCounterFields)
        this->*f /= divisor;
    for (double &s : stallCycles)
        s /= divisor;
    return *this;
}

/** Per-launch metrics, scaled to the full grid. */
struct KernelRecord : KernelCounters
{
    std::string name;
    OpClass opClass = OpClass::Other;
    int64_t invocation = 0; ///< per-name launch counter (0-based)
    bool detailed = false;  ///< freshly simulated vs. reused sample

    double timeSec = 0;     ///< kernel duration (excludes launch gap)
    double cycles = 0;      ///< SM cycles over the kernel duration
    int activeSms = 0;      ///< SMs with at least one resident block
    double ipc = 0;         ///< warp instrs / cycle / active SM
};

/** One host-to-device copy, with the sparsity the paper tracks. */
struct TransferRecord
{
    std::string tag;      ///< caller-provided label (e.g. "features")
    double bytes = 0;
    double zeroFraction = 0; ///< fraction of zero-valued elements
    double timeSec = 0;
};

/**
 * Timeline phase marks the driving layer inserts between launches.
 * They carry no cost; observers use them to segment the kernel stream
 * (per-iteration splits, backward windows for the DDP overlap model).
 */
enum class PhaseMark : uint8_t
{
    IterationBegin, ///< a measured training iteration starts
    BackwardBegin,  ///< autograd reverse sweep starts emitting kernels
    BackwardEnd,    ///< last gradient-producing kernel has been issued
};

/**
 * Observer interface for profilers; a device forwards every kernel
 * launch and host-to-device transfer to its registered observers.
 */
class KernelObserver
{
  public:
    virtual ~KernelObserver() = default;
    virtual void onKernel(const KernelRecord &record) = 0;
    virtual void onTransfer(const TransferRecord &record) = 0;
    /** Phase mark forwarded by the device (default: ignored). */
    virtual void onPhase(PhaseMark mark) { (void)mark; }
};

} // namespace gnnmark

#endif // GNNMARK_SIM_KERNEL_RECORD_HH
