#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "sim/multicore.hh"
#include "sim/runner.hh"
#include "sim/sampling.hh"
#include "sim/simulator.hh"

namespace hp
{
namespace
{

SimConfig
consolidationConfig()
{
    SimConfig cfg;
    cfg.prefetcher = PrefetcherKind::Hierarchical;
    cfg.warmupInsts = 60'000;
    cfg.measureInsts = 120'000;
    cfg.mt.tenants = {"tidb-tpcc", "mysql-sysbench"};
    cfg.mt.switchQuantum = 20'000;
    cfg.mt.metadataReadBytesPerCycle = 8;
    cfg.mt.dramFillGapCycles = 4;
    return cfg;
}

TEST(MultiCoreTest, NormalizeDisabledIsIdentity)
{
    SimConfig cfg;
    cfg.workload = "caddy";
    EXPECT_EQ(normalizeTenants(cfg), cfg);
}

TEST(MultiCoreTest, NormalizeFoldsOneTenant)
{
    SimConfig cfg;
    cfg.mt.tenants = {"caddy"};

    SimConfig flat = normalizeTenants(cfg);
    EXPECT_FALSE(flat.mt.enabled());
    EXPECT_EQ(flat.workload, "caddy");

    SimConfig plain;
    plain.workload = "caddy";
    EXPECT_EQ(flat, plain);
}

TEST(MultiCoreTest, NormalizeKeepsTrueConsolidations)
{
    SimConfig cfg = consolidationConfig();
    EXPECT_EQ(normalizeTenants(cfg), cfg);
}

TEST(MultiCoreTest, RunsAreDeterministic)
{
    const SimConfig cfg = consolidationConfig();
    SimMetrics a = runMultiTenant(cfg);
    SimMetrics b = runMultiTenant(cfg);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.stats.toJson(), b.stats.toJson());
}

TEST(MultiCoreTest, CombinedSnapshotHasPerCoreAndSharedPaths)
{
    SimMetrics m = runMultiTenant(consolidationConfig());

    // Aggregate (unprefixed), per-core, and shared-contention views.
    EXPECT_TRUE(m.stats.has("sim.cycles"));
    EXPECT_TRUE(m.stats.has("l1i.demand_accesses"));
    EXPECT_TRUE(m.stats.has("core0.sim.cycles"));
    EXPECT_TRUE(m.stats.has("core1.sim.cycles"));
    EXPECT_TRUE(m.stats.has("core0.l1i.demand_accesses"));
    EXPECT_TRUE(m.stats.has("core1.hier.metadata_read_bytes"));
    EXPECT_EQ(m.stats.value("mt.cores"), 2u);
    EXPECT_EQ(m.stats.value("mt.tenants"), 2u);

    // Wall-clock semantics: combined cycles is the slowest core.
    EXPECT_EQ(m.cycles, std::max(m.stats.value("core0.sim.cycles"),
                                 m.stats.value("core1.sim.cycles")));
    // Instructions sum over cores.
    EXPECT_EQ(m.instructions,
              m.stats.value("core0.sim.instructions") +
                  m.stats.value("core1.sim.instructions"));

    // Both cores measured their full quota (up to the commit-width
    // overshoot at the two phase boundaries, as in single-core runs).
    for (const char *path :
         {"core0.sim.instructions", "core1.sim.instructions"}) {
        EXPECT_NEAR(double(m.stats.value(path)), 120'000.0, 8.0)
            << path;
    }
}

TEST(MultiCoreTest, SharedDramFillGapQueuesFills)
{
    SimMetrics m = runMultiTenant(consolidationConfig());
    // With a fill gap configured, two cores missing to DRAM must
    // collide at least once in 120k instructions each.
    EXPECT_GT(m.stats.value("mt.dram_queued_fills"), 0u);
    EXPECT_GT(m.stats.value("mt.dram_queue_cycles"), 0u);
}

TEST(MultiCoreTest, ContextSwitchesFireOnSharedCore)
{
    // Two tenants on ONE core: round-robin switching must run, and
    // both engines must make progress.
    SimConfig cfg = consolidationConfig();
    cfg.mt.cores = 1;
    SimMetrics m = runMultiTenant(cfg);

    EXPECT_TRUE(m.stats.has("sim.context_switches"));
    // 180k committed insts at a 20k quantum: 8 switches, minus any
    // boundary effects — at least half must fire in measurement.
    EXPECT_GE(m.stats.value("mt.context_switches"), 4u);
    EXPECT_EQ(m.stats.value("mt.cores"), 1u);
}

/** Each core's waits at the shared ports (DESIGN.md §12). */
const char *const kPortCounters[] = {
    "mt.dram_queued_fills",
    "mt.dram_queue_cycles",
    "mt.metadata_arbiter_reads",
    "mt.metadata_arbiter_stall_cycles",
};

TEST(MultiCoreTest, SharedPortCountersSumPerCoreMeasurementDeltas)
{
    SimMetrics m = runMultiTenant(consolidationConfig());
    for (const char *path : kPortCounters) {
        EXPECT_EQ(m.stats.value(path),
                  m.stats.value(std::string("core0.") + path) +
                      m.stats.value(std::string("core1.") + path))
            << path;
    }
    // The cores contend for the DRAM fill port.
    EXPECT_GT(m.stats.value("mt.dram_queue_cycles"), 0u);

    // Warmup only: the measurement window is empty, and so are the
    // waits counted in it.
    SimConfig warm = consolidationConfig();
    warm.measureInsts = 0;
    SimMetrics w = runMultiTenant(warm);
    for (const char *path : kPortCounters)
        EXPECT_EQ(w.stats.value(path), 0u) << path;
}

TEST(MultiCoreTest, SingleCoreRegistersZeroSwitchAndPortCounters)
{
    // Every core registers the same paths: a single-core run has the
    // switch and shared-port counters too, and they stay zero.
    SimConfig cfg;
    cfg.workload = "caddy";
    cfg.prefetcher = PrefetcherKind::Hierarchical;
    cfg.warmupInsts = 50'000;
    cfg.measureInsts = 50'000;
    Simulator sim(cfg);
    const SimMetrics m = sim.run();
    EXPECT_EQ(m.stats.value("sim.context_switches"), 0u);
    for (const char *path : kPortCounters)
        EXPECT_EQ(m.stats.value(path), 0u) << path;
}

TEST(MultiCoreTest, UnpartitionedSwitchFlushesMat)
{
    // Long enough that the MAT holds records when quanta expire: the
    // unpartitioned switch flushes them (mat_invalidations), the
    // partitioned one preserves them per tenant.
    SimConfig cfg = consolidationConfig();
    cfg.mt.cores = 1;
    cfg.warmupInsts = 200'000;
    cfg.measureInsts = 300'000;
    cfg.mt.switchQuantum = 25'000;

    SimConfig part = cfg;
    part.mt.partitionMetadata = true;

    SimMetrics unpart_m = runMultiTenant(cfg);
    SimMetrics part_m = runMultiTenant(part);

    EXPECT_GT(unpart_m.stats.value("hier.mat_invalidations"), 0u);
    EXPECT_GT(unpart_m.stats.value("hier.mat_invalidations"),
              part_m.stats.value("hier.mat_invalidations"));
    EXPECT_EQ(part_m.stats.value("mt.partitioned"), 1u);
    EXPECT_EQ(unpart_m.stats.value("mt.partitioned"), 0u);
}

TEST(MultiCoreTest, MeasurementConfigPinsUnreadFields)
{
    SimConfig cfg = consolidationConfig();
    cfg.workload = "caddy";        // label only in a consolidation
    cfg.sample.intervals = 7;      // sampling is not modeled
    SimConfig m = measurementConfig(cfg);
    EXPECT_EQ(m.workload, SimConfig{}.workload);
    EXPECT_FALSE(m.sample.enabled());
    EXPECT_TRUE(m.mt.enabled());

    // Two spellings that only differ in pinned fields share a key.
    SimConfig other = consolidationConfig();
    EXPECT_EQ(configHash(measurementConfig(cfg)),
              configHash(measurementConfig(other)));
}

TEST(MultiCoreTest, ConfigKeyDistinguishesTenantSets)
{
    SimConfig a = consolidationConfig();
    SimConfig b = a;
    b.mt.tenants.push_back("caddy");
    SimConfig c = a;
    c.mt.partitionMetadata = true;

    EXPECT_NE(configHash(a), configHash(b));
    EXPECT_NE(configHash(a), configHash(c));
    EXPECT_NE(ExperimentRunner::configKey(a),
              ExperimentRunner::configKey(b));
    EXPECT_NE(ExperimentRunner::configKey(a),
              ExperimentRunner::configKey(c));
}

} // namespace
} // namespace hp
