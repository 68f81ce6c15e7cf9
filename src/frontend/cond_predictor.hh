/**
 * @file
 * Conditional branch direction predictor: a TAGE-lite design (bimodal
 * base plus geometric-history tagged tables) standing in for the 64 KB
 * L-TAGE the paper configures. What matters for this study is the
 * *mispredict rate profile* on the synthetic control flow — mostly
 * biased branches with occasional context-dependent flips — which this
 * predictor captures well.
 */

#ifndef HP_FRONTEND_COND_PREDICTOR_HH
#define HP_FRONTEND_COND_PREDICTOR_HH

#include <array>
#include <cstdint>
#include <vector>

#include "stats/registry.hh"
#include "util/types.hh"

namespace hp
{

/** TAGE-like conditional direction predictor. */
class CondPredictor
{
  public:
    /**
     * @param log_base    log2 of bimodal table entries.
     * @param log_tagged  log2 of each tagged table's entries.
     * @param num_tables  Number of tagged tables.
     */
    CondPredictor(unsigned log_base = 14, unsigned log_tagged = 11,
                  unsigned num_tables = 4);

    /** Predicts the direction of the branch at @p pc. */
    bool predict(Addr pc);

    /**
     * Trains the predictor with the resolved outcome and shifts the
     * global history. Call exactly once per dynamic branch, in order.
     */
    void update(Addr pc, bool taken);

    std::uint64_t predictions() const { return predictions_; }
    std::uint64_t mispredicts() const { return mispredicts_; }

    double
    mispredictRate() const
    {
        return predictions_ ? double(mispredicts_) / predictions_ : 0.0;
    }

    /** Serializes/restores tables and history. */
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
    struct TaggedEntry
    {
        std::uint16_t tag = 0;
        std::int8_t counter = 0;
        std::uint8_t useful = 0;

        template <class Ar>
        void
        serializeState(Ar &ar)
        {
            ar.value(tag);
            ar.value(counter);
            ar.value(useful);
        }
    };

    unsigned taggedIndex(unsigned table, Addr pc) const;
    std::uint16_t taggedTag(unsigned table, Addr pc) const;

    /** Recomputes folds_ from history_: at construction, after each
     *  history shift and after a restore. */
    void refold();

    unsigned logBase_;
    unsigned logTagged_;
    unsigned numTables_;
    std::vector<std::int8_t> base_;
    std::vector<std::vector<TaggedEntry>> tagged_;
    std::vector<unsigned> historyLens_;
    std::uint64_t history_ = 0;
    /** Per table, its history length of history_ folded by mix64:
     *  derived state, not serialized. */
    std::array<std::uint64_t, 8> folds_{};

    // Prediction bookkeeping between predict() and update().
    int providerTable_ = -1;
    unsigned providerIndex_ = 0;
    bool lastPrediction_ = false;
    Addr lastPc_ = 0;

    std::uint64_t predictions_ = 0;
    std::uint64_t mispredicts_ = 0;
};

} // namespace hp

#endif // HP_FRONTEND_COND_PREDICTOR_HH
