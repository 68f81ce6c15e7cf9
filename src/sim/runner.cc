#include "sim/runner.hh"

#include <algorithm>
#include <charconv>
#include <type_traits>

#include "sim/executor.hh"
#include "sim/multicore.hh"
#include "sim/sampling.hh"
#include "sim/run_report.hh"
#include "util/hash.hh"
#include "util/once_map.hh"
#include "workload/scenario.hh"

namespace hp
{

namespace
{

/**
 * One field's value in the key. Doubles print in the shortest form
 * that round-trips exactly. A name (workload, tenant) prints as
 * written; any other text, such as a scenario spec of kilobytes with
 * newlines, as '#' and the hex hash of its content (operator== still
 * resolves any collision). A vector prints its size; forEachField
 * then visits the elements.
 */
template <class T>
std::string
fieldText(const T &field)
{
    char buf[32];
    if constexpr (std::is_floating_point_v<T>) {
        return std::string(buf, std::to_chars(buf, buf + 32, field).ptr);
    } else if constexpr (std::is_same_v<T, std::string>) {
        if (field.find_first_not_of("abcdefghijklmnopqrstuvwxyz"
                                    "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
                                    "0123456789-_.@") == std::string::npos)
            return field;
        const std::uint64_t hash = hashBytes(field.data(), field.size());
        // Appended, not `"#" + std::string(...)`: GCC 12 at -O3
        // reports a false -Wrestrict inside that operator+.
        std::string text = "#";
        text.append(buf, std::to_chars(buf, buf + 32, hash, 16).ptr);
        return text;
    } else if constexpr (std::is_enum_v<T>) {
        return std::to_string(+static_cast<std::underlying_type_t<T>>(field));
    } else if constexpr (std::is_arithmetic_v<T>) {
        return std::to_string(field);
    } else {
        return std::to_string(field.size());
    }
}

/** Buckets the result cache by configHash; SimConfig::operator==
 *  resolves a collision. */
struct ConfigHasher
{
    std::size_t operator()(const SimConfig &c) const { return configHash(c); }
};

/** One result per measurementConfig, shared by every requester. */
OnceMap<SimConfig, SimMetrics, ConfigHasher> g_results;

} // namespace

std::uint64_t
configHash(const SimConfig &c)
{
    const std::string key = ExperimentRunner::configKey(c);
    return hashBytes(key.data(), key.size());
}

std::string
ExperimentRunner::configKey(const SimConfig &config)
{
    SimConfig c = config; // forEachField walks a mutable config
    std::string key;
    forEachField(c, [&key](const std::string &path, const auto &field) {
        if (!key.empty())
            key += '|';
        key += path;
        key += '=';
        key += fieldText(field);
    });
    return key;
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
    return g_results.acquire(
        measurementConfig(config),
        [config] {
            SimMetrics metrics = runMaybeSampled(config);
            RunReportLog::record(config, metrics);
            return metrics;
        },
        task);
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
    return g_results.size();
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
