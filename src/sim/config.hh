/**
 * @file
 * Simulation configuration: the modeled core (Table 1 parameters),
 * the memory hierarchy, and the prefetcher under test.
 */

#ifndef HP_SIM_CONFIG_HH
#define HP_SIM_CONFIG_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "cache/hierarchy.hh"
#include "core/hierarchical_prefetcher.hh"
#include "prefetch/efetch.hh"
#include "prefetch/eip.hh"
#include "prefetch/mana.hh"
#include "prefetch/rdip.hh"

namespace hp
{

/** Which prefetcher runs on top of FDIP. */
enum class PrefetcherKind : std::uint8_t
{
    None,         ///< FDIP baseline only.
    EFetch,
    Mana,
    Eip,
    Rdip, ///< Related-work extension (not in the paper's figures).
    Hierarchical,
    PerfectL1I,   ///< Upper bound: every fetch hits the L1-I.
};

/** Returns the display name of a prefetcher kind. */
const char *prefetcherName(PrefetcherKind kind);

/**
 * SMARTS-style interval sampling of the measurement phase (see
 * sim/sampling.hh and DESIGN.md §10). Disabled (intervals == 0) the
 * run is the plain full-measurement simulation; enabled, the runner
 * measures `intervals` short detailed windows spread across the
 * request stream, fast-forwarding functionally between them, and
 * reports counters scaled to the full run with a 95% confidence
 * interval over the per-interval IPCs.
 */
struct SampleConfig
{
    /** Number of measurement intervals; 0 disables sampling. */
    unsigned intervals = 0;

    /** Detailed instructions measured per interval. */
    std::uint64_t windowInsts = 30'000;

    /** Detailed (non-measuring) warmup commits run before each
     *  window to re-establish short-range timing state after the
     *  functional fast-forward. */
    std::uint64_t detailWarmupInsts = 10'000;

    /** Jitters each interval start within its stratum; 0 places every
     *  interval at the start of its stratum (deterministic either way). */
    std::uint64_t seed = 0;

    bool enabled() const { return intervals > 0; }

    /** Calls v(name, field) per field: see forEachField. */
    template <class V>
    constexpr void
    visitFields(V &&v)
    {
        v("intervals", intervals);
        v("windowInsts", windowInsts);
        v("detailWarmupInsts", detailWarmupInsts);
        v("seed", seed);
    }

    bool operator==(const SampleConfig &) const = default;
};

/**
 * The modeled core: every front-end and back-end parameter of one
 * core (Table 1). Per-core overrides in multi-tenant runs reuse it,
 * and SimConfig derives from it, so a core parameter reads as
 * `config.ftqEntries`.
 */
struct CoreConfig
{
    // ---- Front end (Table 1) ----

    /** Fetch target queue entries (paper: 24). */
    unsigned ftqEntries = 24;

    /** Fetch bandwidth (paper: 16 bytes/cycle = 4 insts). */
    unsigned fetchBytesPerCycle = 16;

    /** FTQ entries the prediction unit can push per cycle. */
    unsigned bpBlocksPerCycle = 2;

    unsigned btbEntries = 8192; ///< 0 = infinite (Figure 14).
    unsigned btbWays = 8;
    unsigned rasDepth = 32;

    /** Cycles to resteer after a BTB miss is discovered at decode. */
    unsigned btbMissPenalty = 3;

    /** Cycles of fetch bubble after a mispredict resolves. */
    unsigned mispredictPenalty = 14;

    // ---- Back end (idealized; see DESIGN.md Section 5) ----

    /** Minimum fetch-to-commit latency. */
    unsigned pipelineDepth = 10;

    unsigned commitWidth = 6;
    unsigned robEntries = 352;

    /**
     * Back-end stall model: a deterministic hash classifies this
     * permille of instructions as long-latency (off-core data misses);
     * each stalls commit for backendStallCycles. Calibrated so that
     * front-end stalls are a realistic share of cycles (perfect L1-I
     * gains ~17% over FDIP, Section 7.1).
     */
    unsigned backendStallPermille = 26;
    unsigned backendStallCycles = 29;

    /** Calls v(name, field) per field: see forEachField. */
    template <class V>
    constexpr void
    visitFields(V &&v)
    {
        v("ftqEntries", ftqEntries);
        v("fetchBytesPerCycle", fetchBytesPerCycle);
        v("bpBlocksPerCycle", bpBlocksPerCycle);
        v("btbEntries", btbEntries);
        v("btbWays", btbWays);
        v("rasDepth", rasDepth);
        v("btbMissPenalty", btbMissPenalty);
        v("mispredictPenalty", mispredictPenalty);
        v("pipelineDepth", pipelineDepth);
        v("commitWidth", commitWidth);
        v("robEntries", robEntries);
        v("backendStallPermille", backendStallPermille);
        v("backendStallCycles", backendStallCycles);
    }

    bool operator==(const CoreConfig &) const = default;
};

/**
 * Multi-tenant / multi-core extension (DESIGN.md §12). Disabled
 * (tenants empty) the run is the classic single-core simulation.
 */
struct MultiTenantConfig
{
    /**
     * One entry per co-scheduled tenant: an AppProfile name, or the
     * literal "@scenario" to run the config's scenario spec as that
     * tenant. Tenants are assigned round-robin to cores; a core with
     * more than one tenant context-switches between them.
     */
    std::vector<std::string> tenants;

    /** Modeled cores sharing the L2/LLC (0 = one core per tenant). */
    unsigned cores = 0;

    /**
     * Round-robin scheduling quantum in committed instructions. Each
     * switch squashes the front end and flushes the core's L1-I,
     * I-TLB, and (unpartitioned) Metadata Address Table.
     */
    std::uint64_t switchQuantum = 100'000;

    /**
     * The experimental knob: per-tenant quota partitioning of the
     * Metadata Buffer (contiguous segment ranges) and way
     * partitioning of the MAT. Partitioned, a tenant's metadata
     * survives the quanta it is scheduled out; unpartitioned, the MAT
     * is flushed on every switch and the buffer cursor thrashes
     * across tenants.
     */
    bool partitionMetadata = false;

    /**
     * Shared Metadata Buffer read-port bandwidth in bytes/cycle
     * (0 = unmodeled, reads start immediately as in single-core
     * runs). Replay chain-walks from all cores arbitrate FCFS.
     */
    unsigned metadataReadBytesPerCycle = 0;

    /** Minimum gap between DRAM fills in cycles (0 = unmodeled);
     *  demand and prefetch fills from all cores queue behind it. */
    unsigned dramFillGapCycles = 0;

    /** Per-core overrides of the modeled core; cores beyond the
     *  vector use the SimConfig's own (inherited) CoreConfig. */
    std::vector<CoreConfig> coreOverrides;

    bool enabled() const { return !tenants.empty(); }

    /** Calls v(name, field) per field: see forEachField. */
    template <class V>
    constexpr void
    visitFields(V &&v)
    {
        v("tenants", tenants);
        v("cores", cores);
        v("switchQuantum", switchQuantum);
        v("partitionMetadata", partitionMetadata);
        v("metadataReadBytesPerCycle", metadataReadBytesPerCycle);
        v("dramFillGapCycles", dramFillGapCycles);
        v("coreOverrides", coreOverrides);
    }

    /** Modeled core count (resolves the cores==0 default). */
    unsigned
    coreCount() const
    {
        if (cores > 0)
            return cores;
        return unsigned(tenants.size());
    }

    bool operator==(const MultiTenantConfig &) const = default;
};

/** Full simulation configuration. The modeled-core parameters are the
 *  inherited CoreConfig fields (flat access preserved). */
struct SimConfig : CoreConfig
{
    /** Workload name (see workload/app_profile.hh). */
    std::string workload = "tidb-tpcc";

    std::uint64_t warmupInsts = 1'500'000;
    std::uint64_t measureInsts = 3'000'000;

    // ---- Memory hierarchy ----

    HierarchyParams mem;

    // ---- Prefetcher under test ----

    PrefetcherKind prefetcher = PrefetcherKind::None;

    EFetchConfig efetch;
    ManaConfig mana;
    EipConfig eip;
    RdipConfig rdip;
    HierarchicalConfig hier;

    /** Direct the Ext prefetcher at the L2 instead (Figure 17). */
    bool extPrefetchToL2 = false;

    /** Ext prefetch issue bandwidth (requests/cycle). */
    unsigned extPrefetchesPerCycle = 4;

    // ---- Analysis probes ----

    /** Track reuse distances / long-range misses (Figure 12). */
    bool trackReuse = false;

    /** Long-range threshold: reuse distance at/above this percentile
     *  of the warmup distribution counts as long-range. */
    double longRangePercentile = 0.90;

    // ---- Sampled simulation ----

    /** Interval sampling of the measurement phase (off by default;
     *  never read by the Simulator itself, only by the runner). */
    SampleConfig sample;

    // ---- Scenario (declarative traffic shape) ----

    /**
     * Scenario spec *text* ("" = off). When set, the simulator runs a
     * ScenarioEngine built from the parsed spec instead of the single
     * `workload` RequestEngine, and SimMetrics carries a latency
     * report. The text (not a file path) lives in the config so
     * configHash covers exactly what the simulation consumed.
     */
    std::string scenario;

    // ---- Multi-tenant / multi-core (DESIGN.md §12) ----

    /** Multi-core consolidation run (tenants empty = off = the
     *  classic single-core path). */
    MultiTenantConfig mt;

    /** The modeled-core parameter block (the inherited fields), for
     *  callers that want to copy or override it wholesale. */
    constexpr CoreConfig &core() { return *this; }
    constexpr const CoreConfig &core() const { return *this; }

    /** Calls v(name, field) per field, the CoreConfig base as "core":
     *  see forEachField. */
    template <class V>
    constexpr void
    visitFields(V &&v)
    {
        v("core", core());
        v("workload", workload);
        v("warmupInsts", warmupInsts);
        v("measureInsts", measureInsts);
        v("mem", mem);
        v("prefetcher", prefetcher);
        v("efetch", efetch);
        v("mana", mana);
        v("eip", eip);
        v("rdip", rdip);
        v("hier", hier);
        v("extPrefetchToL2", extPrefetchToL2);
        v("extPrefetchesPerCycle", extPrefetchesPerCycle);
        v("trackReuse", trackReuse);
        v("longRangePercentile", longRangePercentile);
        v("sample", sample);
        v("scenario", scenario);
        v("mt", mt);
    }

    /**
     * Full-struct equality: every field that affects the simulation
     * outcome participates, so it is safe as the collision check
     * behind configHash().
     */
    bool operator==(const SimConfig &) const = default;
};

/**
 * 64-bit hash of ExperimentRunner::configKey; the bucket of the
 * experiment cache and the checkpoint store, and part of checkpoint
 * file names. Collisions are resolved with operator==.
 */
std::uint64_t configHash(const SimConfig &config);

namespace detail
{

template <class T> constexpr bool kIsVector = false;
template <class T, class A>
constexpr bool kIsVector<std::vector<T, A>> = true;

/** A struct that lists its fields with visitFields. */
template <class T>
concept ConfigStruct = requires(T &t) {
    t.visitFields([](const char *, auto &) {});
};

} // namespace detail

/**
 * Walks @p value's fields depth first in visitFields order, calling
 * fn(path, field) on each one that is not a config struct. A nested
 * struct extends the path ("mem.l1iBytes"; SimConfig's CoreConfig
 * base is "core"); a vector goes to fn itself, its size being part of
 * the config, and then element by element as "path.<index>".
 * configKey and the config tests walk the field list through here.
 */
template <class T, class Fn>
void
forEachField(T &value, Fn &&fn, const std::string &path = "")
{
    if constexpr (detail::ConfigStruct<T>) {
        value.visitFields([&](const char *name, auto &field) {
            forEachField(field, fn,
                         path.empty() ? std::string(name)
                                      : path + "." + name);
        });
    } else if constexpr (detail::kIsVector<T>) {
        fn(path, value);
        for (std::size_t i = 0; i < value.size(); ++i)
            forEachField(value[i], fn, path + "." + std::to_string(i));
    } else {
        fn(path, value);
    }
}

} // namespace hp

#endif // HP_SIM_CONFIG_HH
