/**
 * @file
 * Trigger-footprint similarity probe (Figure 4 and the Bundle Jaccard
 * study): for a given trigger definition, collect the set of the next K
 * unique cache blocks after each trigger occurrence and measure the
 * Jaccard index between consecutive occurrences of the same trigger, as
 * a function of the footprint size K.
 */

#ifndef HP_SIM_FOOTPRINT_PROBE_HH
#define HP_SIM_FOOTPRINT_PROBE_HH

#include <array>
#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "isa/inst.hh"
#include "stats/histogram.hh"
#include "util/flat_map.hh"

namespace hp
{

/** Trigger definitions matching the compared prefetchers. */
enum class TriggerKind : std::uint8_t
{
    /** EFetch-style: hash of the top 3 call-stack entries, at calls. */
    Signature,

    /** MANA/EIP-style: entry to a new spatial region / cache block. */
    BlockAddress,

    /** Hierarchical: tagged Bundle entries. */
    Bundle,
};

/** Footprint sizes (in unique cache blocks) evaluated, per Figure 4. */
constexpr std::array<unsigned, 6> kFootprintSizes =
    {16, 32, 64, 128, 256, 512};

/** The probe: feed the committed instruction stream, read averages. */
class FootprintProbe
{
  public:
    /**
     * @param kind          Trigger definition.
     * @param sample_period Open a collector every Nth trigger
     *                      occurrence (sampling keeps the probe fast).
     */
    explicit FootprintProbe(TriggerKind kind, unsigned sample_period = 4);

    /** Observes one committed instruction. */
    void onCommit(const DynInst &inst);

    /**
     * Finishes every open collector (end of stream). Call before
     * reading the Jaccard averages.
     */
    void finalize();

    /** Mean Jaccard at footprint size kFootprintSizes[i]. */
    double meanJaccard(std::size_t size_index) const;

    std::uint64_t triggersSeen() const { return triggers_; }

  private:
    struct Collector
    {
        std::uint64_t key = 0;
        /** Unique blocks in arrival order. */
        std::vector<Addr> blocks;
        /** Fast membership for the uniqueness check. */
        FlatSet<Addr> seen;
    };

    void trigger(std::uint64_t key);
    void finishCollector(Collector &c);

    TriggerKind kind_;
    unsigned samplePeriod_;
    std::uint64_t triggers_ = 0;

    std::list<Collector> open_;

    /** Previous full footprint per trigger key (capped). Its
     *  iteration order picks the evicted key, so it stays a
     *  std::unordered_map. */
    std::unordered_map<std::uint64_t, std::vector<Addr>> previous_;

    /** The previous footprint's first K blocks, for the Jaccard
     *  intersection (reused scratch; membership only). */
    FlatSet<Addr> prefix_;

    /** Per-size Jaccard accumulators. */
    std::array<Accumulator, kFootprintSizes.size()> jaccard_;

    // Trigger state.
    std::vector<Addr> callStack_;
    Addr lastBlock_ = ~Addr(0);
    Addr lastRegion_ = ~Addr(0);

    static constexpr std::size_t kMaxOpen = 48;
    static constexpr std::size_t kMaxTracked = 8192;
};

} // namespace hp

#endif // HP_SIM_FOOTPRINT_PROBE_HH
