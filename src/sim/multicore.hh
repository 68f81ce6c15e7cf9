/**
 * @file
 * Consolidated multi-core simulation (DESIGN.md §12): N front-ends,
 * each a full private Simulator (FTQ, predictors, L1-I, I-TLB, MAT,
 * prefetcher), sharing one L2/LLC plus the DRAM fill port and the
 * Metadata Buffer read port. An event-ordered scheduler steps each
 * core on its own active cycles only, in the order of a
 * cycle-interleaved lockstep: by cycle, then by core index. All
 * contention is therefore resolved in deterministic core order and
 * every run is exactly reproducible.
 */

#ifndef HP_SIM_MULTICORE_HH
#define HP_SIM_MULTICORE_HH

#include <memory>
#include <vector>

#include "sim/metrics.hh"
#include "sim/simulator.hh"

namespace hp
{

/**
 * Canonicalizes the multi-tenant block of @p config:
 *  - mt disabled: returned unchanged;
 *  - exactly one tenant on at most one core: folded into the classic
 *    single-core config (workload/scenario set from the tenant, the
 *    first core override applied, mt cleared) — such a run IS the
 *    single-core simulation, and folding makes that literal, so
 *    hashes, dedup keys, and checkpoints all collapse onto the
 *    classic ones;
 *  - otherwise (a true consolidation): returned unchanged.
 */
SimConfig normalizeTenants(const SimConfig &config);

/**
 * Runs a consolidated multi-core simulation to completion and returns
 * the combined metrics: unprefixed paths aggregate the cores (sums;
 * sim.cycles is the max — wall-clock, not core-time), per-core copies
 * appear under "core<i>." prefixes, and "mt.*" carries the shared-port
 * contention (summed per-core measurement deltas) and the
 * consolidation's shape. Interval sampling is not modeled for
 * consolidations; the run is always a full measurement.
 */
SimMetrics runMultiTenant(const SimConfig &config);

/** The consolidation driver behind runMultiTenant. */
class MultiCoreSimulator
{
  public:
    /** @param config A config whose mt block is enabled (fatal
     *  otherwise). Normalized first; see normalizeTenants. */
    explicit MultiCoreSimulator(const SimConfig &config);

    /** Runs every core to completion (single-use). */
    SimMetrics run();

    unsigned coreCount() const { return unsigned(cores_.size()); }

  private:
    /** Test-only access to the cores; its per-cycle lockstep is the
     *  reference the scheduler reproduces (tests/sim/sim_probe.hh). */
    friend class SimulatorProbe;

    /**
     * Core @p i's phase transitions after a step, the ones runWarmup
     * and finishRun make: beginMeasurement once its commits reach
     * warmupInsts, endMeasurement (into results_) once they reach the
     * total. So a one-core consolidation is cycle for cycle the
     * single-core run. Returns true when the core has finished.
     */
    bool crossPhases(unsigned i);

    /** Builds the combined SimMetrics out of results_ (run() tail). */
    SimMetrics combineResults() const;

    SimConfig cfg_;
    std::vector<std::unique_ptr<Simulator>> cores_;
    std::vector<SimMetrics> results_;
};

} // namespace hp

#endif // HP_SIM_MULTICORE_HH
