/**
 * @file
 * EIP — the Entangling Instruction Prefetcher (Ros & Jimborean,
 * ISCA'21), winner of IPC-1 and the strongest fine-grained baseline in
 * the paper. When a block misses, EIP walks a short history of recently
 * fetched blocks to find a trigger that executed roughly one miss
 * latency earlier and entangles (trigger -> missed block). Whenever a
 * trigger is fetched again, all of its entangled targets are
 * prefetched, which buys timeliness at the cost of accuracy: several
 * recorded targets per trigger mean most issued prefetches chase paths
 * that are not taken this time (Section 7.4's 2.4 targets/source).
 */

#ifndef HP_PREFETCH_EIP_HH
#define HP_PREFETCH_EIP_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "prefetch/prefetcher.hh"
#include "util/ring_buffer.hh"
#include "util/set_assoc_table.hh"

namespace hp
{

/** EIP configuration. */
struct EipConfig
{
    /** Entangled table entries (paper: 4K, 8-way, 40 KB). */
    unsigned tableEntries = 4096;

    unsigned tableWays = 8;

    /** Recently fetched blocks remembered for trigger selection. */
    unsigned historyEntries = 16;

    /** Maximum entangled targets per source (encoding formats). */
    unsigned maxTargets = 3;

    /**
     * Blocks prefetched per target. EIP entangles basic blocks, which
     * span multiple cache lines; each issued target covers the miss
     * block plus the following lines of the destination basic block.
     */
    unsigned targetRunBlocks = 3;

    /** Calls v(name, field) per field: see forEachField. */
    template <class V>
    constexpr void
    visitFields(V &&v)
    {
        v("tableEntries", tableEntries);
        v("tableWays", tableWays);
        v("historyEntries", historyEntries);
        v("maxTargets", maxTargets);
        v("targetRunBlocks", targetRunBlocks);
    }

    bool operator==(const EipConfig &) const = default;
};

/** The EIP prefetcher. */
class Eip final : public Prefetcher
{
  public:
    explicit Eip(const EipConfig &config = {});

    std::string name() const override { return "EIP"; }

    std::uint64_t storageBits() const override;

    void onDemandAccess(Addr block, bool hit, Cycle now,
                        Cycle fill_latency) override;

    void onFdipPrefetch(Addr block, Cycle now) override;

  private:
    struct Target
    {
        Addr block = 0;
        std::uint8_t confidence = 0;

        template <class Ar>
        void
        serializeState(Ar &ar)
        {
            ar.value(block);
            checkBlock(ar, block, "an EIP target is not block-aligned");
            ar.value(confidence);
        }
    };

    template <class Ar> void serializeState(Ar &ar);
    void saveOwnState(StateWriter &ar) override { serializeState(ar); }
    void restoreOwnState(StateLoader &ar) override { serializeState(ar); }

    void observeFetch(Addr block, Cycle now);
    void entangle(Addr source, Addr target);
    /** The slot holding @p source (refreshed to MRU), or kNone. */
    std::size_t find(Addr source);
    /** Replaces the set's LRU entry with an empty one for @p source. */
    std::size_t allocate(Addr source);
    unsigned setIndex(Addr source) const;

    EipConfig config_;
    /** Sources by slot; a slot's targets are the first
     *  targetCount_[slot] of targets_[slot * maxTargets, +maxTargets). */
    SetAssocTable<Addr> table_;
    std::vector<Target> targets_;
    std::vector<unsigned> targetCount_;

    /** Recently fetched blocks with their fetch cycles (newest last);
     *  sized to hold historyEntries + 1, so it never grows. */
    RingBuffer<std::pair<Addr, Cycle>> history_;
};

} // namespace hp

#endif // HP_PREFETCH_EIP_HH
