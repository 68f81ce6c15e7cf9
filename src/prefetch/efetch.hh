/**
 * @file
 * EFetch (Chadha et al., PACT'14): the state-of-the-art caller-callee
 * prefetcher the paper compares against. A signature formed from the
 * top three call-stack entries predicts the next callee(s); each
 * predicted callee's first 64 blocks are prefetched according to two
 * learned 32-block bit vectors (the paper's "ordered list of 3 callees,
 * with 2 bit vectors for each callee" configuration).
 *
 * The look-ahead parameter (callees predicted per trigger) drives the
 * Figure 2b sweep; deeper look-ahead chains predictions through
 * hypothetical signatures.
 */

#ifndef HP_PREFETCH_EFETCH_HH
#define HP_PREFETCH_EFETCH_HH

#include <array>
#include <cstdint>
#include <vector>

#include "prefetch/prefetcher.hh"
#include "util/flat_map.hh"
#include "util/ring_buffer.hh"

namespace hp
{

/** EFetch configuration. */
struct EFetchConfig
{
    /** Callee-predictor entries (paper methodology: 4K). */
    unsigned tableEntries = 4096;

    /** Call-stack items hashed into the signature (paper: 3). */
    unsigned signatureDepth = 3;

    /** Callees stored per entry (paper: 3). */
    unsigned calleesPerEntry = 3;

    /** Callees predicted (and prefetched) per trigger. */
    unsigned lookahead = 1;

    /** Footprint table entries (per-callee touched-block vectors). */
    unsigned footprintEntries = 4096;

    /** Calls v(name, field) per field: see forEachField. */
    template <class V>
    constexpr void
    visitFields(V &&v)
    {
        v("tableEntries", tableEntries);
        v("signatureDepth", signatureDepth);
        v("calleesPerEntry", calleesPerEntry);
        v("lookahead", lookahead);
        v("footprintEntries", footprintEntries);
    }

    bool operator==(const EFetchConfig &) const = default;
};

/** The EFetch prefetcher. */
class EFetch final : public Prefetcher
{
  public:
    explicit EFetch(const EFetchConfig &config = {});

    std::string name() const override { return "EFetch"; }

    std::uint64_t storageBits() const override;

    void onCommit(const DynInst &first, std::uint64_t n,
                  Cycle now) override;

  private:
    struct CalleeSlot
    {
        Addr callee = 0;
        std::uint8_t confidence = 0;

        template <class Ar>
        void
        serializeState(Ar &ar)
        {
            ar.value(callee);
            ar.value(confidence);
        }
    };

    struct Entry
    {
        bool valid = false;
        std::uint64_t tag = 0;
        std::vector<CalleeSlot> callees;

        template <class Ar>
        void
        serializeState(Ar &ar)
        {
            ar.value(valid);
            ar.value(tag);
            io(ar, callees);
        }
    };

    /** Two 32-block vectors over a callee's first 64 blocks. */
    struct Footprint
    {
        std::uint32_t vec0 = 0;
        std::uint32_t vec1 = 0;

        template <class Ar>
        void
        serializeState(Ar &ar)
        {
            ar.value(vec0);
            ar.value(vec1);
        }
    };

    template <class Ar> void serializeState(Ar &ar);
    void saveOwnState(StateWriter &ar) override { serializeState(ar); }
    void restoreOwnState(StateLoader &ar) override { serializeState(ar); }

    /** True when footprintFifo_ lists every footprint key once. */
    bool fifoMatchesFootprints() const;

    std::uint64_t currentSignature() const;
    Entry &entryFor(std::uint64_t sig);
    void train(Addr callee);
    void predictAndPrefetch();
    void prefetchCallee(Addr callee);

    EFetchConfig config_;
    std::vector<Entry> table_;

    /** Shadow call stack (return addresses) maintained at commit. */
    std::vector<Addr> callStack_;

    /** Current function entry (for footprint training). */
    std::vector<Addr> funcStack_;

    /** Scratch copy of callStack_ for chained predictions; a member
     *  so a prediction reuses its capacity instead of allocating. */
    std::vector<Addr> shadowStack_;

    /** Per-callee touched-block vectors, FIFO-bounded. */
    FlatMap<Addr, Footprint> footprints_;
    /** footprints_ keys in insertion order: the eviction order. */
    RingBuffer<Addr> footprintFifo_;

    std::uint64_t lastSignature_ = 0;
    bool haveLastSignature_ = false;
};

} // namespace hp

#endif // HP_PREFETCH_EFETCH_HH
