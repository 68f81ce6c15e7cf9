/**
 * @file
 * The Hierarchical Prefetcher (Section 5.3): bulk record-and-replay of
 * Bundle instruction footprints.
 *
 * On every commit of a tagged call/return the prefetcher closes the
 * current Bundle record, derives the new Bundle ID from the address of
 * the next instruction, and (a) starts recording the new Bundle's
 * retired-block stream through the Compression Buffer into the
 * in-memory Metadata Buffer — superseding the previous record — and
 * (b) if the Metadata Address Table knows the Bundle, replays the
 * previously recorded footprint into the L1-I, segment by segment,
 * paced by the per-segment num-insts checkpoints.
 */

#ifndef HP_CORE_HIERARCHICAL_PREFETCHER_HH
#define HP_CORE_HIERARCHICAL_PREFETCHER_HH

#include <cstdint>
#include <vector>

#include "core/compression_buffer.hh"
#include "core/metadata_buffer.hh"
#include "core/metadata_table.hh"
#include "prefetch/prefetcher.hh"
#include "util/flat_map.hh"
#include "util/hash.hh"

namespace hp
{

/** Configuration of the Hierarchical Prefetcher. */
struct HierarchicalConfig
{
    /** Compression Buffer entries (paper: 16). */
    unsigned compressionEntries = 16;

    /** In-memory Metadata Buffer capacity (paper: 512 KB per core). */
    std::uint64_t metadataBufferBytes = 512 * 1024;

    /** Metadata Address Table entries (paper: 512). */
    unsigned matEntries = 512;

    /** Metadata Address Table associativity (paper: 8). */
    unsigned matWays = 8;

    /**
     * Record-length threshold in segments; recording stops once a
     * Bundle has filled this many segments (Section 5, "until ... the
     * record length exceeds a predetermined threshold").
     */
    unsigned maxSegmentsPerBundle = 64;

    /** Segments replayed immediately at Bundle start (paper: 2). */
    unsigned aheadSegments = 2;

    /**
     * Issue each block at most once per replay. The record's region
     * sequence repeats blocks that loops re-touch; deduplicating keeps
     * replay volume near the Bundle footprint.
     */
    bool replayDedup = true;

    /**
     * Stream a segment's regions across the previous segment's
     * execution window instead of dumping the whole segment at its
     * gate (ablation: off reverts to segment-burst replay, which
     * thrashes the L1-I for Bundles whose footprint nears its size).
     */
    bool subSegmentPacing = true;

    /**
     * Supersede the previous record in place (the paper's design:
     * replay only the most recent execution). Ablation: off switches
     * to accumulation — new executions append to the old record, so
     * replay carries every path ever observed, trading accuracy for
     * coverage like a conventional history table.
     */
    bool supersedeRecords = true;

    /**
     * Optional analysis probes (per-Bundle footprints and Jaccard
     * indices for Table 4); off by default for speed.
     */
    bool trackBundleStats = false;

    /** Calls v(name, field) per field: see forEachField. */
    template <class V>
    constexpr void
    visitFields(V &&v)
    {
        v("compressionEntries", compressionEntries);
        v("metadataBufferBytes", metadataBufferBytes);
        v("matEntries", matEntries);
        v("matWays", matWays);
        v("maxSegmentsPerBundle", maxSegmentsPerBundle);
        v("aheadSegments", aheadSegments);
        v("replayDedup", replayDedup);
        v("subSegmentPacing", subSegmentPacing);
        v("supersedeRecords", supersedeRecords);
        v("trackBundleStats", trackBundleStats);
    }

    bool operator==(const HierarchicalConfig &) const = default;
};

/** Aggregate statistics exported by the prefetcher. */
struct HierarchicalStats
{
    std::uint64_t taggedCommits = 0;
    std::uint64_t bundlesStarted = 0;
    std::uint64_t matHits = 0;
    std::uint64_t matMisses = 0;
    std::uint64_t matInvalidations = 0;
    std::uint64_t segmentsAllocated = 0;
    std::uint64_t regionsRecorded = 0;
    std::uint64_t replaysStarted = 0;
    std::uint64_t replayPrefetches = 0;
    std::uint64_t recordsTruncated = 0;
    std::uint64_t metadataReadBytes = 0;
    std::uint64_t metadataWriteBytes = 0;

    /** Per-Bundle-execution analysis (only with trackBundleStats):
     *  the executions and their summed instructions, cycles and
     *  footprint blocks; the Jaccard samples and the sum of each
     *  sample rounded to millionths. */
    std::uint64_t bundleExecutions = 0;
    std::uint64_t bundleExecInstsSum = 0;
    std::uint64_t bundleExecCyclesSum = 0;
    std::uint64_t bundleFootprintBlocksSum = 0;
    std::uint64_t bundleJaccardSamples = 0;
    std::uint64_t bundleJaccardSumPpm = 0;

    /** Distinct Bundle IDs observed at run time. */
    std::uint64_t dynamicBundles = 0;
};

/** Derives the 24-bit Bundle ID from the post-trigger instruction. */
inline BundleId
bundleIdFor(Addr next_pc)
{
    return static_cast<BundleId>(foldTo(mix64(next_pc), kBundleIdBits));
}

/** The hardware prefetcher. */
class HierarchicalPrefetcher final : public Prefetcher
{
  public:
    HierarchicalPrefetcher(const HierarchicalConfig &config,
                           MetadataMemory &memory);

    std::string name() const override { return "Hierarchical"; }

    std::uint64_t storageBits() const override;

    void onCommit(const DynInst &first, std::uint64_t n,
                  Cycle now) override;

    void tick(Cycle now) override;

    Cycle nextTickAt(Cycle now) const override;

    void registerStats(StatsRegistry &reg,
                       const std::string &prefix) const override;

    const HierarchicalStats &stats() const { return stats_; }

    /**
     * Multi-tenant setup (DESIGN.md §12): called once before the run
     * when this core schedules @p count tenants. With @p partition
     * the Metadata Buffer is quota-partitioned and the MAT
     * way-partitioned per tenant; without, the tenants share — and
     * thrash — the whole structures.
     */
    void configureTenants(unsigned count, bool partition);

    /**
     * OS context switch to @p tenant: aborts the in-progress record
     * and any pending replay (per-schedule transients of the outgoing
     * tenant), then either switches the active metadata partition
     * (partitioned: the outgoing tenant's records stay warm) or
     * flushes the MAT (unpartitioned: the modeled table is not
     * tenant-tagged, so a switch cold-starts it).
     */
    void onContextSwitch(unsigned tenant);

  private:
    /** One segment's worth of replay work. */
    struct ReplaySegment
    {
        std::vector<SpatialRegion> regions;
        /** Replay gate: issue once this many insts have retired. */
        std::uint64_t gateInsts = 0;
        /**
         * Sub-segment pacing window: regions are streamed across
         * [paceStart, paceEnd) retired instructions, modeling the
         * region FIFO that feeds the prefetch engine at the pace the
         * core consumes the previous segment (Section 5.3.5). The
         * first segment is issued immediately.
         */
        std::uint64_t paceStart = 0;
        std::uint64_t paceEnd = 0;
        bool immediate = false;
        /** Next region to issue. */
        std::size_t cursor = 0;
        /** Metadata read completion time. */
        Cycle readyAt = 0;

        template <class Ar>
        void
        serializeState(Ar &ar)
        {
            io(ar, regions);
            ar.value(gateInsts);
            ar.value(paceStart);
            ar.value(paceEnd);
            ar.value(immediate);
            ar.value(cursor);
            ar.value(readyAt);
        }
    };

    /** The segment's num-insts gate has opened. */
    bool gateOpen(const ReplaySegment &rs) const;
    /** The segment's next region may issue now: its sub-segment
     *  pacing point is reached and the queue has room for it. */
    bool regionIssuable(const ReplaySegment &rs) const;

    template <class Ar> void serializeState(Ar &ar);
    void saveOwnState(StateWriter &ar) override { serializeState(ar); }
    void restoreOwnState(StateLoader &ar) override { serializeState(ar); }

    void bundleBoundary(const DynInst &inst, Cycle now);
    /** Adds @p block to the current footprint (trackBundleStats). */
    void noteFootprint(Addr block);
    void clearFootprint();
    void endRecord(Cycle now);
    void beginRecord(BundleId id, Cycle now);
    void beginReplay(SegIdx head, Cycle now);
    void appendRegion(const SpatialRegion &region, Cycle now);
    void advanceRecordSegment(Cycle now);

    HierarchicalConfig config_;
    MetadataMemory &memory_;

    CompressionBuffer compression_;
    MetadataBuffer buffer_;
    MetadataAddressTable table_;

    // ---- Record state ----
    bool recording_ = false;
    BundleId recordId_ = 0;
    SegIdx recordHead_ = kNoSeg;
    SegIdx recordCur_ = kNoSeg;
    /** Pre-existing chain segments to reuse when superseding. */
    SegIdx supersedeNext_ = kNoSeg;
    unsigned recordSegments_ = 0;
    std::uint64_t recordInsts_ = 0;
    Cycle recordStartCycle_ = 0;
    Addr lastBlock_ = ~Addr(0);

    // ---- Replay state ----
    std::vector<ReplaySegment> replay_;
    std::size_t replayPos_ = 0;
    /**
     * Blocks already issued for the current replay. Loops re-open
     * spatial regions in the record, so a Bundle's region sequence
     * repeats blocks; issuing each block once per Bundle keeps the
     * replay from thrashing the L1-I with copies of content the core
     * has already consumed.
     */
    FlatSet<Addr> replayIssued_;

    // ---- Probes ----
    HierarchicalStats stats_;

    /** Tenant partitioning active (configureTenants). */
    bool tenantPartitioned_ = false;
    /** Previous execution footprint per Bundle (sorted distinct
     *  blocks), for Jaccard. */
    FlatMap<BundleId, std::vector<Addr>> prevFootprint_;
    /** The current record's distinct blocks in first-touch order
     *  (curBlocks_), so endRecord sorts only those; curBlockSet_
     *  deduplicates on insert and is rebuilt from curBlocks_ on
     *  restore. */
    FlatSet<Addr> curBlockSet_;
    std::vector<Addr> curBlocks_;

    friend class HierarchicalPrefetcherProbe;
};

} // namespace hp

#endif // HP_CORE_HIERARCHICAL_PREFETCHER_HH
