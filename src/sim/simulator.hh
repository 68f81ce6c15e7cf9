/**
 * @file
 * The cycle-level front-end simulator.
 *
 * The modeled core has a decoupled FDIP front end: a branch-prediction
 * unit walks ahead of fetch along the program path, pushing fetch
 * blocks into the FTQ and prefetching them into the L1-I. Run-ahead is
 * structurally gated — a BTB miss on a taken branch stalls prediction
 * until the branch is fetched and decoded, and a direction/indirect/RAS
 * mispredict stalls it until the branch commits — reproducing FDIP's
 * real limitations without simulating wrong-path fetch (see DESIGN.md).
 * Fetch consumes FTQ blocks through the I-TLB and L1-I; the back end is
 * an idealized commit stage with a calibrated long-latency stall
 * component.
 */

#ifndef HP_SIM_SIMULATOR_HH
#define HP_SIM_SIMULATOR_HH

#include <memory>
#include <vector>

#include "cache/reuse_distance.hh"
#include "frontend/btb.hh"
#include "obs/obs.hh"
#include "obs/request_span.hh"
#include "frontend/cond_predictor.hh"
#include "frontend/indirect_predictor.hh"
#include "frontend/ras.hh"
#include "sim/config.hh"
#include "sim/metrics.hh"
#include "stats/histogram.hh"
#include "stats/registry.hh"
#include "util/ring_buffer.hh"
#include "workload/program_builder.hh"
#include "workload/request_engine.hh"
#include "workload/scenario_engine.hh"

namespace hp
{

/** True when Simulator::runWarmup() of @p config warms functionally
 *  (a sampled run) rather than in detail. */
inline bool
warmsFunctionally(const SimConfig &config)
{
    return config.sample.enabled();
}

/** Creates the configured prefetcher (nullptr for None/PerfectL1I). */
std::unique_ptr<Prefetcher> makePrefetcher(const SimConfig &config,
                                           MetadataMemory &memory);

/**
 * Per-core construction parameters for consolidated multi-core runs
 * (DESIGN.md §12). Default-constructed it describes the classic
 * single-core simulation.
 */
struct CoreInit
{
    /** Shared L2/LLC plus DRAM/metadata arbitration state; nullptr =
     *  core-private levels (the single-core default). */
    std::shared_ptr<SharedLevels> shared;

    /**
     * Tenants co-scheduled on this core: AppProfile names, or the
     * literal "@scenario" for the config's scenario spec (allowed
     * only as the core's sole tenant — the latency tracker's
     * begin/end pairing does not survive a context-switch squash).
     * Empty = the config's own workload/scenario.
     */
    std::vector<std::string> tenants;

    /** Round-robin context-switch quantum in committed instructions
     *  (0 = never switch). */
    std::uint64_t switchQuantum = 0;

    /** Partition the Metadata Buffer quota ranges and MAT ways per
     *  tenant instead of flushing the MAT on every switch. */
    bool partitionMetadata = false;
};

/** One simulated core. */
class Simulator
{
  public:
    explicit Simulator(const SimConfig &config);

    /** Multi-tenant core inside a consolidated run (DESIGN.md §12). */
    Simulator(const SimConfig &config, const CoreInit &init);

    /** Hands over any pending observability capture (see flushObs). */
    ~Simulator();

    /**
     * Runs warmup + measurement and returns the measured metrics.
     * A Simulator instance is single-use. Equivalent to runWarmup()
     * followed by finishRun().
     */
    SimMetrics run();

    /**
     * Runs the warmup phase only, stopping at the exact measurement
     * boundary: after the cycle whose commit crossed warmupInsts,
     * before beginMeasurement() and before that cycle's clock advance,
     * which the next cycle (or the measurement end) pays. The stopped
     * state is what Checkpoint::capture serializes. A sampled config
     * (warmsFunctionally) warms functionally instead: exactly
     * fastForward(warmupInsts), without a detailed step.
     */
    void runWarmup();

    /**
     * Runs the measurement phase from the warmup boundary and returns
     * the metrics. Valid after runWarmup() on this instance or after
     * a checkpoint restore into a freshly constructed instance; both
     * produce bit-identical results to a plain run().
     */
    SimMetrics finishRun();

    /**
     * Serializes (StateWriter) or restores (StateLoader) the complete
     * microarchitectural state at the warmup boundary: caches, I-TLB,
     * BTB, predictors, RAS, request engine, prefetcher, and the
     * FTQ/window front-end state. Restore mutates components in place
     * — the stats registry holds reader closures over their fields —
     * and leaves the engine at a pre-measurement segment boundary, so
     * one instance can be restored and replayed repeatedly (the
     * sampled-simulation interval loop relies on this).
     */
    template <class Ar> void serializeState(Ar &ar);

    // ---- Segmented execution (the sampled-simulation building
    // blocks; see sim/sampling.hh). All three enter and leave the
    // engine at the same boundary convention as runWarmup: stopped
    // after the commit that crossed the target, owing the clock
    // advance — so any sequence of segments composes. ----

    /**
     * Functionally fast-forwards @p insts commits: the architectural
     * instruction stream updates caches, I-TLB, branch predictors and
     * prefetcher metadata, but no FTQ/fetch/commit timing is modeled
     * and no stall cycles accrue. Outstanding fills are completed
     * eagerly and the decoupled front end is resynchronized to the
     * commit point on exit. Far cheaper per instruction than the
     * detailed modes; only valid before measurement begins.
     */
    void fastForward(std::uint64_t insts);

    /** Runs @p insts commits of detailed, non-measuring simulation
     *  (per-interval warmup after a fast-forward). */
    void advanceDetailed(std::uint64_t insts);

    /**
     * Runs one detailed measurement window of @p insts commits and
     * returns its metrics (the same extraction as finishRun, over the
     * window's registry delta).
     */
    SimMetrics measureWindow(std::uint64_t insts);

    /** Commits so far (warmup + any segments). */
    std::uint64_t committedInsts() const { return committed_; }

    /**
     * The unified stats registry: every component's counters under
     * dotted paths (l1i.*, btb.*, cond.*, indirect.*, ras.*, itlb.*,
     * fdip.*, ext.*, dram.*, engine.*, sim.*, and "pf."/"hier."
     * prefixes for the prefetcher under test). Snapshot/delta over
     * this registry is the warmup machinery; run() also embeds the
     * measurement-phase delta into SimMetrics::stats.
     */
    const StatsRegistry &stats() const { return registry_; }

  private:
    friend class MultiCoreSimulator;
    /** Test-only access to the cycle driver (tests/sim/sim_probe.hh). */
    friend class SimulatorProbe;

    /** Sentinel fetch cycle, in a checkpoint's per-slot window, for
     *  the slots fetch has not reached. */
    static constexpr Cycle kNotFetched = ~Cycle(0);

    /**
     * One co-scheduled tenant's runtime: its profile and instruction
     * engine. Exactly one of engine/scenEngine is set. The single-core
     * run is the degenerate one-tenant case, so the classic path stays
     * bit-identical by construction.
     */
    struct TenantRt
    {
        const AppProfile *profile = nullptr;
        std::unique_ptr<RequestEngine> engine;
        std::unique_ptr<ScenarioEngine> scenEngine;
    };

    struct FtqEntry
    {
        Addr block = 0;
        std::uint64_t startSeq = 0;
        std::uint64_t endSeq = 0; // exclusive
        bool translated = false;
        bool accessed = false;

        template <class Ar>
        void
        serializeState(Ar &ar)
        {
            ar.value(block);
            ar.value(startSeq);
            ar.value(endSeq);
            ar.value(translated);
            ar.value(accessed);
        }
    };

    enum class FeBlock : std::uint8_t
    {
        None,
        BtbMiss,    ///< Resolved at fetch + decode of the branch.
        Mispredict, ///< Resolved at commit of the branch.
    };

    /**
     * One run of the in-flight window (InstStream::next): @p first and
     * the n - 1 plain instructions after it at consecutive addresses
     * in first's cache block, with first's func and no marker. A
     * control instruction is a run of one.
     */
    struct Run
    {
        DynInst first;
        std::uint64_t n = 0;
    };

    /** The instructions fetch consumed in one cycle: those below
     *  @p endSeq that no earlier group holds. */
    struct FetchGroup
    {
        std::uint64_t endSeq = 0;
        Cycle cycle = 0;
    };

    /**
     * Pulls the next run, at most @p max instructions, and appends it
     * to the window, merging a plain continuation into the back run.
     * @p pc is where the stream must continue (each instruction starts
     * at its predecessor's nextFetchPc()), or kNever when unknown.
     */
    void pull(std::uint64_t max, Addr pc);

    /** Appends @p n instructions starting with @p first to the window. */
    void appendRun(const DynInst &first, std::uint64_t n);

    /** The pc the next pull continues at: past the window's last
     *  instruction, which must exist. */
    Addr windowEndPc() const;

    /** The front-end invariants the run window relies on, checked on
     *  a restored per-slot window; the violated one, or nullptr. */
    const char *checkWindow(const std::vector<DynInst> &slots,
                            const std::vector<Cycle> &fetched) const;

    /** True when the back end stalls on the instruction at @p pc. */
    bool stallsAt(Addr pc) const;

    /** Blocks commit behind the long-latency instruction at @p pc. */
    void backendStall(Addr pc);

    /** Commits up to @p limit instructions of the front run as one
     *  span; returns false when commit must stop for this cycle. */
    bool commitSpan(std::uint64_t limit);

    void stepPredict();
    void stepExtPrefetch();
    void stepFetch();
    void stepCommit();
    void beginMeasurement();

    /** Feeds a committed instruction's Request{Begin,End} marker to
     *  the latency tracker (scenario runs only; @p detailed is false
     *  when the commit happened under the fast-forward clock). */
    void noteCommitMarker(const DynInst &inst, bool detailed);

    /** The per-cycle pipeline: every stage of one cycle, in order. */
    void stepCycle();

    /**
     * The one place a detailed cycle happens: pays the clock advance
     * the previous cycle owes, runs stepCycle, ticks the time-series
     * sampler, and leaves this cycle's advance owed. runTo calls it on
     * the active cycles only; runWarmup's first cycle and the
     * consolidation scheduler's due steps call it directly. Stepping
     * every cycle is the reference both reproduce
     * (tests/sim/sim_probe.hh).
     */
    void step();

    /**
     * The first cycle, from the one the next step() runs, at which
     * stepCycle would change anything: a due context switch, a
     * prediction push, an MSHR fill, a drainable prefetch queue, the
     * prefetcher's next tick event, fetch's stall end, the BTB resume
     * or commit readiness. Every cycle before it is idle: stepping it
     * only advances the clock.
     */
    Cycle nextActiveCycle() const;

    /** Advances the clock over the idle cycles, so the next step()
     *  runs at @p at (>= the cycle it would have run). */
    void skipTo(Cycle at);

    /**
     * The one driver loop: steps the active cycles, skipping the idle
     * ones between them, until the commit that crosses @p target, and
     * steps none at or past @p limit. Returns nextActiveCycle() where
     * it stopped. runWarmup, finishRun, advanceDetailed and
     * measureWindow run unbounded; the consolidation scheduler bounds
     * each core by the other cores' next steps.
     */
    Cycle runTo(std::uint64_t target, Cycle limit = kNever);

    /** Ends a measurement: pays the owed clock advance if
     *  @p pay_advance (the budget was nonzero), takes the final
     *  time-series sample and extracts SimMetrics from the
     *  measurement-phase registry delta. */
    SimMetrics endMeasurement(bool pay_advance);

    /** Builds tenant runtime state for @p name (ctor helper). */
    TenantRt makeTenant(const std::string &name);

    /** Points the hot-path aliases at tenant @p i. */
    void bindTenant(unsigned i);

    /**
     * OS-style round-robin switch to the next tenant: squashes the
     * decoupled front end and pollutes the core-private state (L1-I,
     * I-TLB, prefetch queue, and — unpartitioned — the MAT).
     */
    void contextSwitch();

    /** True while the measurement counters accumulate. */
    bool measuring() const { return measuring_; }

    /**
     * Fast-forwards a run of @p n instructions from @p inst (see
     * InstStream::next): ffBlock for each cache block the run enters
     * (@p cur_block is the block last touched), predictor training
     * for a control instruction, and one counted commit hook per
     * block.
     */
    void ffRun(DynInst inst, std::uint64_t n, Addr &cur_block);

    /** Fast-forward's once-per-block work: the I-TLB, the functional
     *  cache touch, the prefetcher's demand and tick hooks with the
     *  request drain, and the reuse probe. */
    void ffBlock(Addr block);

    /** Resynchronizes the decoupled front end to the commit point
     *  after a fast-forward segment. */
    void resyncFrontEnd();

    /** Registers every component's counters (constructor helper). */
    void registerStats();

    /**
     * Hands the trace events and time-series rows collected since the
     * last hand-over to the process-global obs::Collector (no-op when
     * nothing accumulated). Called at every endMeasurement, so each
     * window of a reused sampling simulator is its own capture, and
     * from the destructor for runs torn down without one.
     */
    void flushObs();

    SimConfig cfg_;

    // Tenant runtimes (owners) and the hot-path aliases bindTenant
    // keeps pointed at the active one. engine_/scenEngine_/stream_
    // are non-owning; exactly one of engine_/scenEngine_ is non-null
    // and stream_ is the one the per-cycle paths pull from.
    std::vector<TenantRt> tenants_;
    unsigned activeTenant_ = 0;
    RequestEngine *engine_ = nullptr;
    ScenarioEngine *scenEngine_ = nullptr;
    InstStream *stream_ = nullptr;

    // Multi-tenant scheduling (inert in single-tenant runs:
    // nextSwitchAt_ stays 0 and the quantum check never fires).
    std::uint64_t switchQuantum_ = 0;
    std::uint64_t nextSwitchAt_ = 0;
    std::uint64_t contextSwitches_ = 0;
    bool partitionMetadata_ = false;

    CacheHierarchy hier_;
    Btb btb_;
    CondPredictor condPred_;
    IndirectPredictor indirectPred_;
    Ras ras_;
    std::unique_ptr<Prefetcher> pf_;
    HierarchicalPrefetcher *hierPf_ = nullptr;

    bool perfect_ = false;

    Cycle cycle_ = 0;
    /** step() calls so far: the idle-skipping gate's measure. Neither
     *  registered nor serialized. */
    std::uint64_t steps_ = 0;

    // The in-flight window: the pulled, uncommitted instructions as
    // runs, and the fetched ones as one group per fetch cycle.
    RingBuffer<Run> window_{128};
    RingBuffer<FetchGroup> fetchGroups_{128};
    std::uint64_t windowBase_ = 0; ///< Seq of the front run's first.
    std::uint64_t pullSeq_ = 0;    ///< Seq the next pull starts at.
    std::uint64_t bpSeq_ = 0;      ///< Next inst for the BP unit.
    std::uint64_t fetchSeq_ = 0;   ///< Next inst for fetch.

    RingBuffer<FtqEntry> ftq_{64};

    FeBlock feBlock_ = FeBlock::None;
    std::uint64_t feBlockSeq_ = 0;
    Cycle feResumeAt_ = 0;
    bool feResumeScheduled_ = false;
    /** Cycle the current front-end block began (trace spans only;
     *  deliberately not checkpointed — it never affects simulation). */
    Cycle feBlockStart_ = 0;

    Cycle fetchStalledUntil_ = 0;
    Cycle commitBlockedUntil_ = 0;

    std::uint64_t committed_ = 0;
    /** The measurement phase began (DESIGN.md §10): fast-forward and
     *  detailed warmup both run with it false. */
    bool measuring_ = false;

    /** The last detailed cycle's clock advance is still unpaid (the
     *  engine stopped at a segment boundary). A fresh simulator owes
     *  nothing; a restore always lands at a boundary and owes it. */
    bool owesAdvance_ = false;

    // Reuse-distance probe (Figure 12).
    ReuseDistanceTracker reuse_;
    std::unique_ptr<Histogram> reuseHist_;
    double longRangeThreshold_ = 0.0;

    // Core counters. Like every component's, they are plain fields
    // the hot path increments and the registry reads; they only ever
    // grow, and the warmup boundary is one registry snapshot. The two
    // long-range ones advance only while measuring: their threshold
    // exists only once beginMeasurement has set it.
    std::uint64_t fetchStallCycles_ = 0;
    std::uint64_t backendStallCycles_ = 0;
    std::uint64_t longRangeAccesses_ = 0;
    std::uint64_t longRangeL2Misses_ = 0;
    std::uint64_t rasMispredicts_ = 0;
    StatsRegistry registry_;
    StatsSnapshot warmupSnapshot_;

    // Observability (null/absent unless requested via obs::config()).
    std::unique_ptr<EventSink> obs_;
    std::unique_ptr<IntervalSampler> sampler_;
    /** Request spans + tail attribution; created only for scenario
     *  runs with HP_SPANS on. */
    std::unique_ptr<obs::RequestSpanTracker> spanTracker_;
};

} // namespace hp

#endif // HP_SIM_SIMULATOR_HH
