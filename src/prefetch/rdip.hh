/**
 * @file
 * RDIP — Return-address-stack Directed Instruction Prefetching (Kolli
 * et al., MICRO'13), the caller-callee predecessor of EFetch that the
 * paper discusses in related work (Section 2.3). The program context
 * is summarized by a hash of the top entries of the RAS; the misses
 * observed under each signature are recorded and prefetched when the
 * signature recurs. Metadata-hungry (the paper quotes 60 KB/core).
 *
 * Included as an extension beyond the paper's evaluated baselines; the
 * extras_related_work bench compares it against EFetch and
 * Hierarchical Prefetching.
 */

#ifndef HP_PREFETCH_RDIP_HH
#define HP_PREFETCH_RDIP_HH

#include <cstdint>
#include <vector>

#include "prefetch/prefetcher.hh"

namespace hp
{

/** RDIP configuration. */
struct RdipConfig
{
    /** Signature table entries. */
    unsigned tableEntries = 4096;

    /** RAS entries hashed into the signature (paper: top 4). */
    unsigned signatureDepth = 4;

    /** Miss blocks recorded per signature (the 60KB-class budget). */
    unsigned blocksPerEntry = 4;

    /** Calls v(name, field) per field: see forEachField. */
    template <class V>
    constexpr void
    visitFields(V &&v)
    {
        v("tableEntries", tableEntries);
        v("signatureDepth", signatureDepth);
        v("blocksPerEntry", blocksPerEntry);
    }

    bool operator==(const RdipConfig &) const = default;
};

/** The RDIP prefetcher. */
class Rdip final : public Prefetcher
{
  public:
    explicit Rdip(const RdipConfig &config = {});

    std::string name() const override { return "RDIP"; }

    std::uint64_t storageBits() const override;

    void onCommit(const DynInst &first, std::uint64_t n,
                  Cycle now) override;

    void onDemandAccess(Addr block, bool hit, Cycle now,
                        Cycle fill_latency) override;

  private:
    struct Entry
    {
        bool valid = false;
        std::uint64_t tag = 0;
        std::vector<Addr> blocks;
        std::size_t fifoPos = 0;

        template <class Ar>
        void
        serializeState(Ar &ar)
        {
            ar.value(valid);
            ar.value(tag);
            io(ar, blocks);
            ar.value(fifoPos);
        }
    };

    template <class Ar> void serializeState(Ar &ar);
    void saveOwnState(StateWriter &ar) override { serializeState(ar); }
    void restoreOwnState(StateLoader &ar) override { serializeState(ar); }

    std::uint64_t currentSignature() const;
    Entry &entryFor(std::uint64_t sig);

    RdipConfig config_;
    std::vector<Entry> table_;

    /** Shadow return-address stack maintained at commit. */
    std::vector<Addr> ras_;

    /** Signature the core is currently executing under. */
    std::uint64_t activeSignature_ = 0;
    bool haveSignature_ = false;
};

} // namespace hp

#endif // HP_PREFETCH_RDIP_HH
