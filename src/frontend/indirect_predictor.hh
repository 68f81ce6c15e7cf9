/**
 * @file
 * Indirect target predictor: a compact ITTAGE-like design (path-history
 * tagged tables over a base last-target table) standing in for the
 * 64 KB ITTAGE the paper integrates into gem5.
 */

#ifndef HP_FRONTEND_INDIRECT_PREDICTOR_HH
#define HP_FRONTEND_INDIRECT_PREDICTOR_HH

#include <cstdint>
#include <vector>

#include "stats/registry.hh"
#include "util/types.hh"

namespace hp
{

/** ITTAGE-like indirect branch target predictor. */
class IndirectPredictor
{
  public:
    /**
     * @param log_base   log2 of the base (last-target) table entries.
     * @param log_tagged log2 of each tagged table's entries.
     * @param num_tables Number of path-history tagged tables.
     */
    IndirectPredictor(unsigned log_base = 12, unsigned log_tagged = 10,
                      unsigned num_tables = 3);

    /** Predicts the target of the indirect branch at @p pc (0=unknown). */
    Addr predict(Addr pc);

    /** Trains with the resolved target and shifts the path history. */
    void update(Addr pc, Addr target);

    std::uint64_t predictions() const { return predictions_; }
    std::uint64_t mispredicts() const { return mispredicts_; }

    /** Serializes/restores tables and path history. */
    template <class Ar> void serializeState(Ar &ar);

    /** Registers this predictor's counters under @p prefix. */
    void
    registerStats(StatsRegistry &reg, const std::string &prefix) const
    {
        reg.add(prefix + ".predictions",
                [this] { return predictions_; });
        reg.add(prefix + ".mispredicts",
                [this] { return mispredicts_; });
    }

  private:
    struct Entry
    {
        std::uint16_t tag = 0;
        Addr target = 0;
        std::uint8_t confidence = 0;

        template <class Ar>
        void
        serializeState(Ar &ar)
        {
            ar.value(tag);
            ar.value(target);
            ar.value(confidence);
        }
    };

    unsigned indexOf(unsigned table, Addr pc) const;
    std::uint16_t tagOf(unsigned table, Addr pc) const;

    unsigned logBase_;
    unsigned logTagged_;
    unsigned numTables_;
    std::vector<Addr> base_;
    std::vector<std::vector<Entry>> tagged_;
    std::vector<unsigned> historyLens_;
    std::uint64_t pathHistory_ = 0;

    int providerTable_ = -1;
    unsigned providerIndex_ = 0;
    Addr lastPrediction_ = 0;
    Addr lastPc_ = 0;

    std::uint64_t predictions_ = 0;
    std::uint64_t mispredicts_ = 0;
};

} // namespace hp

#endif // HP_FRONTEND_INDIRECT_PREDICTOR_HH
