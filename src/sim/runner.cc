#include "sim/runner.hh"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <mutex>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "sim/checkpoint.hh"
#include "sim/executor.hh"
#include "sim/multicore.hh"
#include "sim/sampling.hh"
#include "sim/run_report.hh"
#include "util/hash.hh"
#include "workload/scenario.hh"

namespace hp
{

namespace
{

std::uint64_t
hashString(std::uint64_t seed, const std::string &s)
{
    std::uint64_t h = hashCombine(seed, s.size());
    for (char c : s)
        h = hashCombine(h, static_cast<unsigned char>(c));
    return h;
}

/** Shortest decimal form that round-trips to exactly @p d: the key
 *  stays exact, and a literal such as 0.65 prints as written. */
std::string
exactDouble(double d)
{
    char buf[32];
    const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), d);
    return std::string(buf, r.ptr);
}

/**
 * One cache slot: the full config for collision resolution plus the
 * shared future every requester blocks on.
 */
struct CacheSlot
{
    SimConfig config;
    std::shared_future<SimMetrics> future;
};

std::mutex g_mutex;
std::unordered_map<std::uint64_t, std::vector<CacheSlot>> g_cache;
std::atomic<std::size_t> g_runs{0};

} // namespace

std::uint64_t
configHash(const SimConfig &c)
{
    return hashString(0x9e3779b97f4a7c15ULL, ExperimentRunner::configKey(c));
}

std::string
ExperimentRunner::configKey(const SimConfig &c)
{
    std::ostringstream key;
    key << c.workload << '|' << c.warmupInsts << '|' << c.measureInsts
        << '|' << c.ftqEntries << '|' << c.fetchBytesPerCycle << '|'
        << c.bpBlocksPerCycle << '|' << c.btbEntries << '|' << c.btbWays
        << '|' << c.rasDepth << '|' << c.btbMissPenalty << '|'
        << c.mispredictPenalty << '|' << c.pipelineDepth << '|'
        << c.commitWidth << '|' << c.robEntries << '|'
        << c.backendStallPermille << '|' << c.backendStallCycles << '|';

    const HierarchyParams &m = c.mem;
    key << m.l1iBytes << ',' << m.l1iWays << ',' << m.l1iLatency << ','
        << m.l1iMshrs << ',' << m.l2Bytes << ',' << m.l2Ways << ','
        << m.l2Latency << ',' << exactDouble(m.l2InstFraction) << ','
        << m.llcBytes
        << ',' << m.llcWays << ',' << m.llcLatency << ','
        << exactDouble(m.llcInstFraction) << ',' << m.memLatency << ','
        << m.itlbEntries << ',' << m.itlbWalkLatency << ','
        << m.mshrsReservedForDemand << ',' << m.metadataDramEvery << '|';

    key << int(c.prefetcher) << '|';
    key << c.efetch.tableEntries << ',' << c.efetch.signatureDepth << ','
        << c.efetch.calleesPerEntry << ',' << c.efetch.lookahead << ','
        << c.efetch.footprintEntries << '|';
    key << c.mana.regionBlocks << ',' << c.mana.historyRegions << ','
        << c.mana.indexEntries << ',' << c.mana.lookahead << '|';
    key << c.eip.tableEntries << ',' << c.eip.tableWays << ','
        << c.eip.historyEntries << ',' << c.eip.maxTargets << ','
        << c.eip.targetRunBlocks << '|';
    key << c.rdip.tableEntries << ',' << c.rdip.signatureDepth << ','
        << c.rdip.blocksPerEntry << '|';
    key << c.hier.compressionEntries << ',' << c.hier.metadataBufferBytes
        << ',' << c.hier.matEntries << ',' << c.hier.matWays << ','
        << c.hier.maxSegmentsPerBundle << ',' << c.hier.aheadSegments
        << ',' << c.hier.replayDedup << ','
        << c.hier.subSegmentPacing << ','
        << c.hier.supersedeRecords << ','
        << c.hier.trackBundleStats << '|';
    key << c.extPrefetchToL2 << '|' << c.extPrefetchesPerCycle << '|'
        << c.trackReuse << '|' << exactDouble(c.longRangePercentile);
    // Appendix-style suffix: only present when sampling is on, so
    // every key from a non-sampled config (including the warmup key
    // embedded in the golden checkpoint blob) is byte-stable.
    if (c.sample.enabled()) {
        key << "|sample=" << c.sample.intervals << ','
            << c.sample.windowInsts << ',' << c.sample.detailWarmupInsts
            << ',' << c.sample.seed;
    }
    // The scenario text can be kilobytes with newlines; key on its
    // content hash instead of embedding it (operator== still resolves
    // any collision). Absent entirely for scenario-less configs.
    if (!c.scenario.empty()) {
        std::ostringstream hex;
        hex << std::hex << hashString(0x9e3779b97f4a7c15ULL, c.scenario);
        key << "|scenario=" << hex.str();
    }
    // Multi-tenant suffix, same appendix style: absent for every
    // single-core config.
    if (c.mt.enabled()) {
        key << "|mt=";
        for (std::size_t i = 0; i < c.mt.tenants.size(); ++i)
            key << (i ? "+" : "") << c.mt.tenants[i];
        key << ';' << c.mt.cores << ',' << c.mt.switchQuantum << ','
            << c.mt.partitionMetadata << ','
            << c.mt.metadataReadBytesPerCycle << ','
            << c.mt.dramFillGapCycles;
        for (const CoreConfig &cc : c.mt.coreOverrides) {
            key << ";ov=" << cc.ftqEntries << ','
                << cc.fetchBytesPerCycle << ',' << cc.bpBlocksPerCycle
                << ',' << cc.btbEntries << ',' << cc.btbWays << ','
                << cc.rasDepth << ',' << cc.btbMissPenalty << ','
                << cc.mispredictPenalty << ',' << cc.pipelineDepth
                << ',' << cc.commitWidth << ',' << cc.robEntries << ','
                << cc.backendStallPermille << ','
                << cc.backendStallCycles;
        }
    }
    return key.str();
}

SimConfig
measurementConfig(const SimConfig &config)
{
    // Fold a degenerate one-tenant consolidation into the classic
    // single-core config first, so its dedup identity — and any
    // checkpoint it shares — is the classic one's.
    SimConfig m = normalizeTenants(config);
    const PrefetcherKind kind = m.prefetcher;

    if (m.mt.enabled()) {
        // A true consolidation takes its streams from the tenant
        // list: the top-level workload is only a label, the scenario
        // text is read only through an "@scenario" tenant, and
        // interval sampling is not modeled.
        m.workload = SimConfig{}.workload;
        if (std::find(m.mt.tenants.begin(), m.mt.tenants.end(),
                      "@scenario") == m.mt.tenants.end())
            m.scenario.clear();
        m.sample = SampleConfig{};
    }

    // Sub-configs of prefetchers other than the one under test are
    // never read by the simulation.
    if (kind != PrefetcherKind::EFetch)
        m.efetch = EFetchConfig{};
    if (kind != PrefetcherKind::Mana)
        m.mana = ManaConfig{};
    if (kind != PrefetcherKind::Eip)
        m.eip = EipConfig{};
    if (kind != PrefetcherKind::Rdip)
        m.rdip = RdipConfig{};
    if (kind != PrefetcherKind::Hierarchical) {
        m.hier = HierarchicalConfig{};
        // Metadata DRAM traffic accounting only exists for the
        // hierarchical prefetcher's off-chip metadata.
        m.mem.metadataDramEvery = HierarchyParams{}.metadataDramEvery;
    }

    // Without an Ext prefetcher there is nothing the ext knobs gate.
    if (kind == PrefetcherKind::None || kind == PrefetcherKind::PerfectL1I) {
        m.extPrefetchToL2 = false;
        m.extPrefetchesPerCycle = SimConfig{}.extPrefetchesPerCycle;
    }

    // A perfect L1-I never consults the hierarchy or the reuse probe.
    if (kind == PrefetcherKind::PerfectL1I) {
        m.mem = HierarchyParams{};
        m.trackReuse = false;
        m.longRangePercentile = SimConfig{}.longRangePercentile;
    }
    if (!m.trackReuse)
        m.longRangePercentile = SimConfig{}.longRangePercentile;

    // With sampling off the window/warmup/seed knobs are never read,
    // so sweeps that only toggle them share one full run. With it on,
    // every (intervals, window, warmup, seed) combination is a
    // distinct measurement and must never alias.
    if (!m.sample.enabled())
        m.sample = SampleConfig{};
    return m;
}

namespace detail
{

std::shared_future<SimMetrics>
acquireSimulation(const SimConfig &config,
                  std::packaged_task<SimMetrics()> *task)
{
    // Dedup on the normalized config so grid points differing only in
    // fields this simulation never reads share one run. The full
    // original config still reaches the simulation and the report log.
    const SimConfig mcfg = measurementConfig(config);
    const std::uint64_t hash = configHash(mcfg);

    std::lock_guard<std::mutex> lock(g_mutex);
    std::vector<CacheSlot> &bucket = g_cache[hash];
    for (const CacheSlot &slot : bucket) {
        if (slot.config == mcfg)
            return slot.future;
    }

    // First request for this class: this caller runs the simulation.
    std::packaged_task<SimMetrics()> sim([config] {
        SimMetrics metrics = runMaybeSampled(config);
        g_runs.fetch_add(1, std::memory_order_relaxed);
        RunReportLog::record(config, metrics);
        return metrics;
    });
    std::shared_future<SimMetrics> future = sim.get_future().share();
    bucket.push_back(CacheSlot{mcfg, future});
    *task = std::move(sim);
    return future;
}

} // namespace detail

SimMetrics
ExperimentRunner::run(const SimConfig &config)
{
    std::packaged_task<SimMetrics()> task;
    std::shared_future<SimMetrics> future =
        detail::acquireSimulation(config, &task);
    if (task.valid())
        task();
    return future.get();
}

SimConfig
fdipBaseline(const SimConfig &config)
{
    SimConfig base = config;
    base.prefetcher = PrefetcherKind::None;
    base.extPrefetchToL2 = false;
    return base;
}

RunPair
makeRunPair(SimMetrics run, SimMetrics base)
{
    RunPair pair;
    pair.run = std::move(run);
    pair.base = std::move(base);
    pair.paired = pairedMetrics(pair.run, pair.base);
    return pair;
}

RunPair
ExperimentRunner::runPair(const SimConfig &config)
{
    // Submit both halves before waiting so they can overlap on the
    // executor's workers.
    Executor &ex = Executor::global();
    std::shared_future<SimMetrics> run = ex.submit(config);
    std::shared_future<SimMetrics> base =
        ex.submit(fdipBaseline(config));
    return makeRunPair(run.get(), base.get());
}

std::size_t
ExperimentRunner::simulationsRun()
{
    return g_runs.load(std::memory_order_relaxed);
}

SimConfig
defaultConfig(const std::string &workload, PrefetcherKind kind)
{
    SimConfig config;
    config.workload = workload;
    config.prefetcher = kind;
    if (kind == PrefetcherKind::Hierarchical)
        config.hier.trackBundleStats = true;
    // Opt-in sampling (HP_SAMPLE or a bench's --sample flag) applies
    // to every default-configured experiment; benches and tests that
    // construct their SimConfig directly stay unaffected.
    config.sample = defaultSampling();
    // Same opt-in rule for scenarios (HP_SCENARIO or --scenario=).
    config.scenario = defaultScenario();
    return config;
}

} // namespace hp
