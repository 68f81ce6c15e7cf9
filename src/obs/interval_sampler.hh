/**
 * @file
 * Interval time-series sampling: every N committed instructions, the
 * sampler reads a small set of always-registered counters from the
 * stats registry and records the interval's deltas. The resulting rows
 * — IPC, L1-I miss rate, DRAM and metadata bandwidth per interval —
 * are written as one CSV across every run of the process (see
 * obs/obs.hh), so benches can plot behaviour over time instead of
 * end-of-run aggregates.
 */

#ifndef HP_OBS_INTERVAL_SAMPLER_HH
#define HP_OBS_INTERVAL_SAMPLER_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "stats/registry.hh"

namespace hp
{

/** One interval's cumulative position and deltas. */
struct SampleRow
{
    bool measuring = false;       ///< Warmup or measurement phase.
    std::uint64_t insts = 0;      ///< Cumulative committed insts.
    std::uint64_t cycles = 0;     ///< Cumulative cycles.
    std::uint64_t dInsts = 0;
    std::uint64_t dCycles = 0;
    std::uint64_t dL1iAccesses = 0;
    std::uint64_t dL1iMisses = 0;
    std::uint64_t dDramBytes = 0;     ///< Demand + prefetch fills.
    std::uint64_t dMetadataBytes = 0; ///< HP metadata read + write.
};

class IntervalSampler
{
  public:
    /**
     * @param registry Source of counters (must outlive the sampler;
     *                 the sampled paths are registered by the
     *                 simulator core and hierarchy for every config).
     * @param interval Instructions per sample (>= 1).
     */
    IntervalSampler(const StatsRegistry &registry,
                    std::uint64_t interval);

    /**
     * Cheap per-cycle gate: samples when @p committed crossed the next
     * interval boundary. @p measuring tags the row's phase.
     */
    void
    tick(std::uint64_t committed, bool measuring)
    {
        if (committed >= nextAt_)
            sample(committed, measuring);
    }

    /** Forces a final sample at the current position (run end). */
    void finalSample(std::uint64_t committed, bool measuring);

    /**
     * Restarts the deltas at @p committed and the counters' values
     * now, for a simulator a checkpoint restore moved: the next row
     * covers only instructions simulated after the move.
     */
    void anchor(std::uint64_t committed);

    const std::vector<SampleRow> &rows() const { return rows_; }
    std::vector<SampleRow> takeRows() { return std::exchange(rows_, {}); }
    std::uint64_t interval() const { return interval_; }

  private:
    void sample(std::uint64_t committed, bool measuring);

    /** Reads the cumulative values backing a row's deltas. */
    struct Cursor
    {
        std::uint64_t cycles = 0;
        std::uint64_t l1iAccesses = 0;
        std::uint64_t l1iMisses = 0;
        std::uint64_t dramBytes = 0;
        std::uint64_t metadataBytes = 0;
    };
    Cursor read() const;

    const StatsRegistry &registry_;
    std::uint64_t interval_;
    std::uint64_t nextAt_;
    std::uint64_t lastInsts_ = 0;
    Cursor last_{};
    std::vector<SampleRow> rows_;
};

} // namespace hp

#endif // HP_OBS_INTERVAL_SAMPLER_HH
