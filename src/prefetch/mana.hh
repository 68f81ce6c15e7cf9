/**
 * @file
 * MANA (Ansari et al., IEEE TC'22): the state-of-the-art temporal
 * streaming prefetcher the paper compares against. The retired block
 * stream is compressed into spatial regions and appended to a circular
 * history; an index table maps region bases to their latest history
 * position. At run time the prefetcher follows the recorded stream a
 * configurable number of regions ahead of execution, re-indexing
 * (and losing lookahead) whenever the actual stream diverges — the
 * behaviour behind the Figure 2a sweep and MANA's timeliness problems.
 */

#ifndef HP_PREFETCH_MANA_HH
#define HP_PREFETCH_MANA_HH

#include <cstdint>
#include <vector>

#include "prefetch/prefetcher.hh"
#include "util/flat_map.hh"

namespace hp
{

/** MANA configuration. */
struct ManaConfig
{
    /** Blocks per spatial region (base + bit vector). */
    unsigned regionBlocks = 8;

    /** Circular history capacity in regions. */
    unsigned historyRegions = 4096;

    /** Index table entries (paper methodology: 4K, 4-way). */
    unsigned indexEntries = 4096;

    /** Look-ahead depth in spatial regions (paper default: 3). */
    unsigned lookahead = 3;

    /** Calls v(name, field) per field: see forEachField. */
    template <class V>
    constexpr void
    visitFields(V &&v)
    {
        v("regionBlocks", regionBlocks);
        v("historyRegions", historyRegions);
        v("indexEntries", indexEntries);
        v("lookahead", lookahead);
    }

    bool operator==(const ManaConfig &) const = default;
};

/** The MANA prefetcher. */
class Mana final : public Prefetcher
{
  public:
    explicit Mana(const ManaConfig &config = {});

    std::string name() const override { return "MANA"; }

    std::uint64_t storageBits() const override;

    void onDemandAccess(Addr block, bool hit, Cycle now,
                        Cycle fill_latency) override;

    /** Stream divergences observed (re-index events). */
    std::uint64_t divergences() const { return divergences_; }

    void
    registerStats(StatsRegistry &reg,
                  const std::string &prefix) const override
    {
        Prefetcher::registerStats(reg, prefix);
        reg.add(prefix + ".divergences",
                [this] { return divergences_; });
    }

  private:
    struct Region
    {
        Addr base = 0;
        std::uint32_t bits = 0;

        bool
        covers(Addr block, unsigned region_blocks) const
        {
            return block >= base &&
                   block < base + Addr(region_blocks) * kBlockBytes;
        }

        template <class Ar>
        void
        serializeState(Ar &ar)
        {
            ar.value(base);
            checkBlock(ar, base, "a MANA region's base is not "
                                 "block-aligned");
            ar.value(bits);
        }
    };

    template <class Ar> void serializeState(Ar &ar);
    void saveOwnState(StateWriter &ar) override { serializeState(ar); }
    void restoreOwnState(StateLoader &ar) override { serializeState(ar); }

    void recordAccess(Addr block);
    void closeOpenRegion();
    void followStream(Addr block);
    void issueAhead();
    void prefetchRegion(const Region &region);

    ManaConfig config_;

    /** Region being formed from the access stream. */
    Region open_;
    bool openValid_ = false;

    /** Circular history of completed regions. */
    std::vector<Region> history_;
    std::size_t historyHead_ = 0;
    std::uint64_t historyCount_ = 0;

    /** Region base -> absolute history position (latest). */
    FlatMap<Addr, std::uint64_t> index_;

    /** Replay cursor: absolute history position of current region. */
    std::uint64_t streamPos_ = 0;
    bool streaming_ = false;
    std::uint64_t issuedUpTo_ = 0;

    std::uint64_t divergences_ = 0;
};

} // namespace hp

#endif // HP_PREFETCH_MANA_HH
