#include "sim/multicore.hh"

#include <algorithm>
#include <cstddef>
#include <string>
#include <unordered_map>
#include <utility>

#include "util/logging.hh"

namespace hp
{

SimConfig
normalizeTenants(const SimConfig &config)
{
    if (!config.mt.enabled())
        return config;
    const MultiTenantConfig &mt = config.mt;
    if (mt.tenants.size() != 1 || mt.coreCount() > 1)
        return config;

    // One tenant, one core: the classic single-core run, spelled in
    // multi-tenant syntax. Fold it so every downstream identity —
    // configHash, dedup keys, checkpoint blobs — collapses onto the
    // classic config's.
    SimConfig flat = config;
    if (mt.tenants[0] != "@scenario") {
        flat.workload = mt.tenants[0];
        flat.scenario.clear();
    }
    if (!mt.coreOverrides.empty())
        static_cast<CoreConfig &>(flat) = mt.coreOverrides[0];
    flat.mt = MultiTenantConfig{};
    return flat;
}

SimMetrics
runMultiTenant(const SimConfig &config)
{
    MultiCoreSimulator sim(config);
    return sim.run();
}

MultiCoreSimulator::MultiCoreSimulator(const SimConfig &config)
    : cfg_(normalizeTenants(config))
{
    const MultiTenantConfig &mt = cfg_.mt;
    fatalIf(!mt.enabled(),
            "MultiCoreSimulator needs at least one tenant");

    // Never more cores than tenants: an idle core contributes
    // nothing and would divide the round-robin unevenly.
    const unsigned n = std::min<unsigned>(
        mt.coreCount(), unsigned(mt.tenants.size()));

    const auto shared = std::make_shared<SharedLevels>(
        cfg_.mem, mt.metadataReadBytesPerCycle, mt.dramFillGapCycles);

    for (unsigned i = 0; i < n; ++i) {
        CoreInit init;
        init.shared = shared;
        // Round-robin tenant placement: core i hosts tenants
        // i, i+n, i+2n, ...
        for (std::size_t t = i; t < mt.tenants.size(); t += n)
            init.tenants.push_back(mt.tenants[t]);
        init.switchQuantum = mt.switchQuantum;
        init.partitionMetadata = mt.partitionMetadata;

        SimConfig ccfg = cfg_;
        ccfg.mt = MultiTenantConfig{};
        ccfg.sample = SampleConfig{};
        if (i < mt.coreOverrides.size())
            static_cast<CoreConfig &>(ccfg) = mt.coreOverrides[i];
        // The config's workload/scenario fields become labels for
        // this core; the CoreInit tenant list drives the engines.
        if (init.tenants.front() != "@scenario") {
            ccfg.workload = init.tenants.front();
            ccfg.scenario.clear();
        }
        cores_.push_back(std::make_unique<Simulator>(ccfg, init));
    }
    results_.resize(n);
}

SimMetrics
MultiCoreSimulator::run()
{
    if (cfg_.warmupInsts + cfg_.measureInsts == 0) {
        // Degenerate zero-instruction run: same shape as finishRun's.
        for (unsigned i = 0; i < coreCount(); ++i) {
            cores_[i]->beginMeasurement();
            results_[i] = cores_[i]->endMeasurement(/*pay_advance=*/false);
        }
        return combineResults();
    }

    // Event order: the steps run by cycle, then by core index, as in a
    // lockstep that steps every live core each cycle, but each core
    // steps only its own active cycles. A core's next event depends
    // only on its own state, and the shared levels change only inside
    // a step, so the core whose step comes first may run on until
    // another core's next step would come before its own: the shared
    // ports see the lockstep's order. Only the core that stepped asks
    // for its next active cycle again.
    const std::uint64_t warmup = cfg_.warmupInsts;
    const std::uint64_t total = warmup + cfg_.measureInsts;
    std::vector<unsigned> live;
    std::vector<Cycle> next;
    for (unsigned i = 0; i < coreCount(); ++i) {
        live.push_back(i);
        next.push_back(cores_[i]->nextActiveCycle());
    }
    while (!live.empty()) {
        // live is in index order, so a tie goes to the lower index.
        std::size_t k = 0;
        for (std::size_t j = 1; j < live.size(); ++j) {
            if (next[live[j]] < next[live[k]])
                k = j;
        }
        const unsigned i = live[k];
        // At one cycle, core j's step comes before core i's when j < i.
        Cycle limit = kNever;
        for (unsigned j : live) {
            if (j != i && next[j] != kNever)
                limit = std::min(limit, next[j] + (j > i));
        }
        // The due step comes before the phase check, as in runWarmup:
        // with warmupInsts == 0 a core's first step runs, and its
        // measurement begins at that cycle's boundary.
        Simulator &s = *cores_[i];
        s.skipTo(next[i]);
        s.step();
        const std::uint64_t target = s.measuring() ? total : warmup;
        next[i] = s.runTo(target, limit);
        if (s.committedInsts() < target)
            continue;
        if (crossPhases(i))
            live.erase(live.begin() + std::ptrdiff_t(k));
        else
            next[i] = s.nextActiveCycle();
    }
    return combineResults();
}

bool
MultiCoreSimulator::crossPhases(unsigned i)
{
    Simulator &s = *cores_[i];
    const std::uint64_t warmup = cfg_.warmupInsts;
    if (!s.measuring() && s.committedInsts() >= warmup)
        s.beginMeasurement();
    if (s.measuring() &&
        s.committedInsts() >= warmup + cfg_.measureInsts) {
        results_[i] = s.endMeasurement(/*pay_advance=*/true);
        return true;
    }
    return false;
}

SimMetrics
MultiCoreSimulator::combineResults() const
{
    // Aggregate snapshot: the union of per-core paths in first-
    // appearance order. Counters sum; sim.cycles is the wall clock,
    // so it takes the max (cores retire their quota at different
    // rates under contention).
    std::vector<std::pair<std::string, std::uint64_t>> acc;
    // String keys (counter paths), merged once per run.
    std::unordered_map<std::string, std::size_t> index;
    for (const SimMetrics &r : results_) {
        for (const auto &[path, value] : r.stats.entries()) {
            auto [it, fresh] = index.try_emplace(path, acc.size());
            if (fresh)
                acc.emplace_back(path, value);
            else if (path == "sim.cycles")
                acc[it->second].second =
                    std::max(acc[it->second].second, value);
            else
                acc[it->second].second += value;
        }
    }
    // The report snapshot: aggregate first (so every single-core
    // consumer of metrics.stats keeps working on the combined view),
    // then per-core copies under "core<i>.", then the consolidation's
    // shape under "mt.". Each core counts its own waits at the shared
    // ports (mt.dram_*, mt.metadata_arbiter_*), so the aggregate's
    // mt.* are sums of per-core measurement deltas like any counter.
    StatsSnapshot snap;
    for (const auto &[path, value] : acc)
        snap.add(path, value);
    std::uint64_t switches = 0;
    for (unsigned i = 0; i < results_.size(); ++i) {
        const std::string prefix = "core" + std::to_string(i) + ".";
        for (const auto &[path, value] : results_[i].stats.entries())
            snap.add(prefix + path, value);
        switches += results_[i].stats.value("sim.context_switches");
    }
    snap.add("mt.cores", coreCount());
    snap.add("mt.tenants", cfg_.mt.tenants.size());
    snap.add("mt.context_switches", switches);
    snap.add("mt.partitioned", cfg_.mt.partitionMetadata ? 1 : 0);

    SimMetrics combined = SimMetrics::fromStats(std::move(snap));
    for (const SimMetrics &r : results_) {
        combined.dataDramBytes += r.dataDramBytes;
        if (!combined.latency && r.latency)
            combined.latency = r.latency;
        // At most one core runs "@scenario" (sole-tenant rule), so at
        // most one result carries tail attribution.
        if (!combined.tailAttribution && r.tailAttribution)
            combined.tailAttribution = r.tailAttribution;
    }
    return combined;
}

} // namespace hp
