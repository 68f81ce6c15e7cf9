/**
 * @file
 * Instruction-side cache hierarchy: L1-I with MSHRs, the instruction
 * share of the unified L2 and LLC, DRAM latency, and full bandwidth
 * accounting (demand fills, prefetch fills, and the Hierarchical
 * Prefetcher's in-memory metadata traffic).
 *
 * Latencies default to the paper's Table 1 (L1-I 2, L2 14, LLC 50
 * cycles, DDR4-2400 main memory). The unified L2/LLC are modeled by
 * their instruction-capacity share, since data references are not
 * simulated (see DESIGN.md Section 5).
 */

#ifndef HP_CACHE_HIERARCHY_HH
#define HP_CACHE_HIERARCHY_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "cache/cache.hh"
#include "cache/tlb.hh"
#include "core/metadata_buffer.hh"
#include "obs/event_sink.hh"
#include "obs/miss_attribution.hh"
#include "prefetch/prefetcher.hh"
#include "stats/registry.hh"
#include "util/flat_map.hh"
#include "util/types.hh"

namespace hp
{

/** Cache hierarchy geometry and latencies. */
struct HierarchyParams
{
    std::uint64_t l1iBytes = 32 * 1024;
    unsigned l1iWays = 8;
    Cycle l1iLatency = 2;
    unsigned l1iMshrs = 16;

    std::uint64_t l2Bytes = 512 * 1024;
    unsigned l2Ways = 8;
    Cycle l2Latency = 14;
    /** Instruction share of the unified L2 capacity. */
    double l2InstFraction = 0.65;

    std::uint64_t llcBytes = 2 * 1024 * 1024;
    unsigned llcWays = 16;
    Cycle llcLatency = 50;
    /** Instruction share of the shared LLC capacity. */
    double llcInstFraction = 0.6;

    Cycle memLatency = 160;

    unsigned itlbEntries = 64;
    Cycle itlbWalkLatency = 50;

    /** MSHRs kept free for demand misses (prefetch cannot take them). */
    unsigned mshrsReservedForDemand = 4;

    /**
     * Every Nth metadata read misses the LLC and pays DRAM latency
     * (the rest hit; records are LLC-cacheable per Section 5.3).
     */
    unsigned metadataDramEvery = 4;

    /** Calls v(name, field) per field: see forEachField. */
    template <class V>
    constexpr void
    visitFields(V &&v)
    {
        v("l1iBytes", l1iBytes);
        v("l1iWays", l1iWays);
        v("l1iLatency", l1iLatency);
        v("l1iMshrs", l1iMshrs);
        v("l2Bytes", l2Bytes);
        v("l2Ways", l2Ways);
        v("l2Latency", l2Latency);
        v("l2InstFraction", l2InstFraction);
        v("llcBytes", llcBytes);
        v("llcWays", llcWays);
        v("llcLatency", llcLatency);
        v("llcInstFraction", llcInstFraction);
        v("memLatency", memLatency);
        v("itlbEntries", itlbEntries);
        v("itlbWalkLatency", itlbWalkLatency);
        v("mshrsReservedForDemand", mshrsReservedForDemand);
        v("metadataDramEvery", metadataDramEvery);
    }

    bool operator==(const HierarchyParams &) const = default;
};

/** Service level of a demand instruction access. */
enum class ServiceLevel : std::uint8_t
{
    L1,   ///< Hit in the L1-I.
    Mshr, ///< Merged into an outstanding fill.
    L2,
    Llc,
    Mem,
};

/** Result of a demand block access. */
struct DemandResult
{
    /** True when no MSHR was available; the access must be retried. */
    bool retry = false;

    /** Cycle at which fetch may consume the block. */
    Cycle readyAt = 0;

    ServiceLevel level = ServiceLevel::L1;
};

/** Per-origin prefetch effectiveness counters. */
struct PrefetchStats
{
    std::uint64_t issued = 0;     ///< Requests presented to the hierarchy.
    std::uint64_t redundant = 0;  ///< Already resident or in flight.
    std::uint64_t dropped = 0;    ///< No MSHR available.
    std::uint64_t inserted = 0;   ///< Fills that landed in the cache.
    std::uint64_t usefulL1 = 0;   ///< First demand use of a prefetched block.
    std::uint64_t usefulL2 = 0;   ///< Demand L1 miss served by prefetched L2 block.
    std::uint64_t lateMerges = 0; ///< Demand merged into an in-flight prefetch.
    std::uint64_t uselessEvicted = 0; ///< Evicted from L1-I without use.

    /** Accuracy as in the paper: prefetches that served a demand fetch. */
    double
    accuracy() const
    {
        // Served can transiently exceed inserted: a late merge is
        // counted when the demand merges, but the insertion only
        // lands when the fill completes, so a run can end with merges
        // whose fill is still in flight. Use the larger of the two as
        // the denominator so accuracy stays in [0, 1] while remaining
        // exactly served/inserted in the steady-state case.
        std::uint64_t served = usefulL1 + lateMerges;
        std::uint64_t total = std::max(inserted, served);
        return total ? double(served) / double(total) : 0.0;
    }

    /** Fraction of demand-serving prefetches that arrived late. */
    double
    lateFraction() const
    {
        std::uint64_t served = usefulL1 + lateMerges;
        return served ? double(lateMerges) / double(served) : 0.0;
    }
};

/**
 * The @p origin ("fdip" or "ext") prefetch counters of @p stats — the
 * paths CacheHierarchy::registerStats writes — as a PrefetchStats, so
 * accuracy() and lateFraction() apply to any snapshot or delta.
 */
PrefetchStats prefetchStats(const StatsSnapshot &stats,
                            const std::string &origin);

/** Aggregate hierarchy statistics. */
struct HierarchyStats
{
    std::uint64_t demandAccesses = 0;
    std::uint64_t demandL1Misses = 0;  ///< Includes MSHR merges.
    std::uint64_t demandL2Misses = 0;  ///< Demand misses not served by L2.
    std::uint64_t demandLlcMisses = 0;

    std::uint64_t servedByL2 = 0;
    std::uint64_t servedByLlc = 0;
    std::uint64_t servedByMem = 0;
    std::uint64_t servedByMshr = 0;

    /** Total demand stall-relevant miss latency, split by server. */
    std::uint64_t missCyclesL2 = 0;
    std::uint64_t missCyclesLlc = 0;
    std::uint64_t missCyclesMem = 0;
    std::uint64_t missCyclesMshr = 0;

    PrefetchStats fdip;
    PrefetchStats ext;

    /**
     * Prefetch distance (in fetched cache blocks between issue and
     * demand use) of useful Ext prefetches — Table 2's "Distance" row:
     * the sample count and the sum of the distances.
     */
    std::uint64_t extUsefulDistanceSamples = 0;
    std::uint64_t extUsefulDistanceSum = 0;

    /**
     * Distance-binned Ext prefetch outcomes for the Figure 2c study.
     * Bin i covers distances [2^i, 2^(i+1)); the last bin is open.
     */
    static constexpr unsigned kDistanceBins = 10;
    std::array<std::uint64_t, kDistanceBins> extDistUseful{};
    std::array<std::uint64_t, kDistanceBins> extDistUnused{};

    std::uint64_t dramDemandBytes = 0;
    std::uint64_t dramFdipBytes = 0;
    std::uint64_t dramExtBytes = 0;
    std::uint64_t dramMetadataReadBytes = 0;
    std::uint64_t dramMetadataWriteBytes = 0;

    /** This core's waits at the shared ports (DESIGN.md §12): DRAM
     *  fills that queued and their queueing cycles, and metadata reads
     *  through the arbiter and the cycles they waited for it. */
    std::uint64_t dramQueuedFills = 0;
    std::uint64_t dramQueueCycles = 0;
    std::uint64_t mdArbiterReads = 0;
    std::uint64_t mdArbiterStallCycles = 0;
};

/**
 * The levels of the hierarchy that consolidated cores share: the
 * instruction shares of the unified L2 and LLC, the DRAM fill port
 * (optional minimum-gap bandwidth model), and the Metadata Buffer
 * read-port arbiter (DESIGN.md §12). It holds port state only; each
 * core's CacheHierarchy counts its own waits. A single-core
 * CacheHierarchy privately owns one of these, so the classic path is
 * the N=1 special case with every contention knob off — bit-identical
 * to the pre-multi-core model.
 */
struct SharedLevels
{
    SharedLevels(const HierarchyParams &params,
                 unsigned metadata_read_bytes_per_cycle = 0,
                 unsigned dram_fill_gap_cycles = 0);

    SetAssocCache l2;
    SetAssocCache llc;

    /** Shared metadata read-port (0 bytes/cycle = unmodeled). */
    MetadataReadArbiter mdArbiter;

    /** Minimum cycles between DRAM fills (0 = unmodeled). */
    unsigned dramGapCycles = 0;
    /** Next cycle the DRAM fill port is free. */
    Cycle dramNextFree = 0;
};

/**
 * The instruction-path hierarchy. Also implements the MetadataMemory
 * service so the Hierarchical Prefetcher's metadata traffic competes
 * with regular traffic in the statistics.
 */
class CacheHierarchy : public MetadataMemory
{
  public:
    /**
     * @param params Geometry and latencies.
     * @param shared L2/LLC + DRAM/metadata ports shared with other
     *               cores; null (the default, and the whole classic
     *               path) allocates a private SharedLevels with every
     *               contention knob off.
     */
    explicit CacheHierarchy(const HierarchyParams &params,
                            std::shared_ptr<SharedLevels> shared =
                                nullptr);

    /** Processes fills that complete at or before @p now. */
    void tick(Cycle now);

    /**
     * Demand access from fetch for the block containing @p addr.
     * The I-TLB is consulted for page crossings by the caller (fetch);
     * this interface works on block-aligned addresses.
     */
    DemandResult demandAccess(Addr block, Cycle now);

    /**
     * Prefetch request.
     * @param block  Block-aligned target.
     * @param origin Fdip or Ext.
     * @param to_l2  Insert into the L2 only (the Figure 17 mode).
     * @return True if a fill was initiated (not redundant/dropped).
     */
    bool prefetch(Addr block, Origin origin, Cycle now,
                  bool to_l2 = false);

    // ---- Timeless (functional) interface for fast-forward mode.
    // Contents, recency, and first-use tracking evolve exactly as on
    // the timing path, but no MSHR is allocated, no latency accrues,
    // and fills land immediately. ----

    /**
     * Functional demand access: on an L1-I miss the block is pulled
     * through L2/LLC (updating their recency) and inserted everywhere
     * it would eventually fill. @return 0 on an L1-I hit, else the
     * latency of the level that served the block (l2Latency,
     * llcLatency or memLatency), for the prefetchers' miss training.
     */
    Cycle functionalTouch(Addr block);

    /** Functional prefetch fill (@see prefetch, minus MSHRs/timing). */
    void functionalPrefetch(Addr block, Origin origin,
                            bool to_l2 = false);

    /**
     * Completes every outstanding fill immediately (in readyAt order,
     * so eviction order matches a stalled detailed core draining its
     * MSHRs) and empties the MSHR file. Fast-forward entry hook.
     */
    void drainInFlight();

    /** Free MSHR slots (fetch uses this to pace itself). */
    unsigned freeMshrs() const;

    /** The cycle the earliest outstanding fill lands, when tick()
     *  next has work; kNever with no fill in flight. */
    Cycle nextFillAt() const { return nextFillAt_; }

    /**
     * Advances the fetched-block sequence counter; called by the
     * simulator whenever fetch moves to a new cache block. Prefetch
     * distances are measured in this unit.
     */
    void noteFetchBlock() { ++fetchBlockSeq_; }

    // MetadataMemory interface (Section 5.3: metadata lives in memory,
    // cacheable in the LLC, competing with regular traffic).
    Cycle metadataRead(std::uint64_t bytes, Cycle now) override;
    void metadataWrite(std::uint64_t bytes, Cycle now) override;

    const HierarchyStats &stats() const { return stats_; }

    /**
     * Registers every hierarchy counter: the l1i/l2i/llc demand path,
     * the per-origin fdip/ext prefetch stats, DRAM traffic buckets,
     * this core's shared-port waits under "mt", the I-TLB (which this
     * hierarchy owns) under "itlb", and the miss-attribution cause
     * classes under "missAttribution".
     */
    void registerStats(StatsRegistry &reg) const;

    /** Points the observability emit sites at @p sink (may be null). */
    void setEventSink(EventSink *sink) { obs_ = sink; }

    /** Turns on per-line miss attribution (off by default). */
    void enableMissAttribution() { attr_.setEnabled(true); }

    MissAttribution &missAttribution() { return attr_; }
    const MissAttribution &missAttribution() const { return attr_; }

    Tlb &itlb() { return itlb_; }
    SetAssocCache &l1i() { return l1i_; }
    SetAssocCache &l2() { return l2_; }
    SetAssocCache &llc() { return llc_; }
    const HierarchyParams &params() const { return params_; }

    /** Serializes/restores the caches, the I-TLB, the MSHRs and the
     *  sequence state; its counters stay (DESIGN.md §8). */
    template <class Ar> void serializeState(Ar &ar);

  private:
    struct Mshr
    {
        Addr block = 0;
        Origin origin = Origin::Demand;
        Cycle readyAt = 0;
        bool fillL2 = false;
        bool fillLlc = false;
        bool demandMerged = false;
        bool toL2Only = false;
        bool fromMem = false;
        /** Allocation order: fills with equal readyAt complete oldest
         *  first. Not serialized: serializeMshrs writes the MSHRs in
         *  completion order. */
        std::uint64_t seq = 0;

        template <class Ar>
        void
        serializeState(Ar &ar)
        {
            ar.value(block);
            ar.value(origin);
            ar.value(readyAt);
            ar.value(fillL2);
            ar.value(fillLlc);
            ar.value(demandMerged);
            ar.value(toL2Only);
            ar.value(fromMem);
        }
    };

    PrefetchStats &statsFor(Origin origin);
    void completeFill(const Mshr &mshr);

    /** The live MSHR for @p block, or null. */
    Mshr *findMshr(Addr block);
    void allocMshr(Mshr mshr);
    /** Retires the MSHR with the earliest (readyAt, seq) and lands
     *  its fill. */
    void completeEarliestFill();
    /** The MSHR file, each MSHR once in completion order; a load
     *  renumbers seq by position. */
    template <class Ar> void serializeMshrs(Ar &ar);

    /** Looks up L2/LLC/mem and returns (latency, fill flags, fromMem). */
    struct ProbeResult
    {
        Cycle latency = 0;
        bool fillL2 = false;
        bool fillLlc = false;
        bool fromMem = false;
        ServiceLevel level = ServiceLevel::L2;
        /** Set when a demand L1 miss was served by an Ext block in L2. */
        bool extServedAtL2 = false;
        bool fdipServedAtL2 = false;
    };
    ProbeResult probeBeyondL1(Addr block, bool demand, Cycle now);

    /** Fill-port queueing delay for a DRAM fill starting at @p now
     *  (0 when the bandwidth model is off). */
    Cycle dramQueueDelay(Cycle now);

    HierarchyParams params_;

    /** The shared (or private) L2/LLC and contended ports. The l2_ /
     *  llc_ references below bind into it so the ~20 existing call
     *  sites read exactly as before; a CacheHierarchy is never copied
     *  or assigned, so reference members are safe. */
    std::shared_ptr<SharedLevels> lvl_;

    SetAssocCache l1i_;
    SetAssocCache &l2_;
    SetAssocCache &llc_;
    Tlb itlb_;

    /** Live MSHRs in no particular order; l1iMshrs slots are
     *  reserved up front, so allocating one never touches the heap. */
    std::vector<Mshr> mshrs_;
    /** Earliest readyAt in mshrs_ (kNever when empty): tick() costs
     *  one compare on the cycles no fill completes. */
    Cycle nextFillAt_ = kNever;
    std::uint64_t mshrSeq_ = 0;

    /** Issue sequence (fetch-block units) of in-cache Ext prefetches. */
    FlatMap<Addr, std::uint64_t> extIssueSeq_;

    void recordExtOutcome(Addr block, bool useful);

    std::uint64_t fetchBlockSeq_ = 0;
    std::uint64_t metadataReads_ = 0;

    HierarchyStats stats_;

    /** Observability: null unless tracing was requested. */
    EventSink *obs_ = nullptr;
    /** L1-I miss attribution; counters always registered, hooks only
     *  run when enabled. */
    MissAttribution attr_;
};

/** Computes the instruction-share capacity of a unified level. */
std::uint64_t instShareBytes(std::uint64_t total, double fraction,
                             unsigned ways);

} // namespace hp

#endif // HP_CACHE_HIERARCHY_HH
