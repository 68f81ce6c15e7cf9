/**
 * @file
 * Consolidated multi-core simulation (DESIGN.md §12): N front-ends,
 * each a full private Simulator (FTQ, predictors, L1-I, I-TLB, MAT,
 * prefetcher), sharing one L2/LLC plus the DRAM fill port and the
 * Metadata Buffer read port. Cores advance in cycle-interleaved
 * lockstep, so all contention is resolved in deterministic core
 * order and every run is exactly reproducible.
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
    /** Test-only access to the lockstep (tests/sim/sim_probe.hh). */
    friend class SimulatorProbe;

    /** One lockstep pass: one step() of every live core, with each
     *  core's phase transitions; a finished core leaves the set. */
    void stepLiveCores();

    /** Builds the combined SimMetrics out of results_ (run() tail). */
    SimMetrics combineResults() const;

    SimConfig cfg_;
    std::vector<std::unique_ptr<Simulator>> cores_;
    std::vector<SimMetrics> results_;
    /** The cores still running, and their count (run() state). */
    std::vector<bool> done_;
    unsigned live_ = 0;
};

} // namespace hp

#endif // HP_SIM_MULTICORE_HH
