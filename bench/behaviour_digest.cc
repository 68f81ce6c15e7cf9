/**
 * @file
 * Behaviour pin for the whole simulator: every workload under every
 * prefetcher kind at a reduced budget, plus sampled runs of one app
 * under every prefetcher kind, one scenario run and one sampled
 * scenario run, a 2-tenant/1-core, a 3-tenant/2-core and a
 * 3-tenant/3-core consolidation and a warmup-only run. Each prints its
 * label and a 64-bit digest of the full stats snapshot, the latency
 * samples and the sampling intervals; the text is diffed against a
 * checked-in golden, so a change to any simulated counter of any of
 * these runs fails.
 *
 * Configs are built field by field (never through defaultConfig), so
 * an inherited HP_SAMPLE or HP_SCENARIO cannot change the work.
 *
 * Usage: behaviour_digest [--golden=path [--update]] [--json=path]
 *   --update rewrites the golden from this run instead of checking it.
 *   --json writes the full hp-stats-report-v1 document of every pinned
 *   run; with HP_JOBS=1 the runs appear in a fixed order, so two
 *   builds' documents can be compared path by path.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "sim/sampling.hh"
#include "util/hash.hh"
#include "workload/latency_tracker.hh"

namespace
{

using namespace hp;

/** Two services, saturating fixed arrivals: even a short run completes
 *  several requests, and every one crosses a service hop. */
const char *kScenario =
    "scenario digest-chain\n"
    "seed 9\n"
    "service front profile=caddy\n"
    "service back  profile=gin\n"
    "chain hop2 services=front,back\n"
    "phase steady arrival=fixed rate=0.05\n";

SimConfig
baseConfig(const std::string &workload, PrefetcherKind kind)
{
    SimConfig c;
    c.workload = workload;
    c.prefetcher = kind;
    c.warmupInsts = 500'000;
    c.measureInsts = 200'000;
    if (kind == PrefetcherKind::Hierarchical)
        c.hier.trackBundleStats = true;
    return c;
}

/** Digest of everything @p m reports: the stats snapshot (paths and
 *  values), the latency samples and the sampling intervals. */
std::uint64_t
digest(const SimMetrics &m)
{
    std::uint64_t h = 0x9e3779b97f4a7c15ULL;
    auto word = [&h](std::uint64_t v) { h = hashCombine(h, v); };
    auto words = [&word](const std::vector<std::uint64_t> &vs) {
        word(vs.size());
        for (std::uint64_t v : vs)
            word(v);
    };

    word(m.stats.size());
    for (const auto &[path, value] : m.stats.entries()) {
        word(path.size());
        for (char c : path)
            word(static_cast<unsigned char>(c));
        word(value);
    }
    word(m.latency != nullptr);
    if (m.latency) {
        words(m.latency->latencySamples);
        words(m.latency->serviceSamples);
    }
    word(m.sampling != nullptr);
    if (m.sampling) {
        word(m.sampling->intervals.size());
        for (const SamplingInfo::Interval &iv : m.sampling->intervals) {
            word(iv.startInst);
            word(iv.instructions);
            word(iv.cycles);
        }
    }
    return h;
}

} // namespace

int
main(int argc, char **argv)
{
    hpbench::JsonReportScope report(argc, argv, "behaviour_digest",
                                    hpbench::kGoldenFlags);

    std::vector<std::string> labels;
    std::vector<SimConfig> configs;
    auto add = [&](const std::string &label, const SimConfig &c) {
        labels.push_back(label);
        configs.push_back(c);
    };
    for (const std::string &w : allWorkloads()) {
        for (PrefetcherKind k :
             {PrefetcherKind::None, PrefetcherKind::EFetch,
              PrefetcherKind::Mana, PrefetcherKind::Eip,
              PrefetcherKind::Rdip, PrefetcherKind::Hierarchical,
              PrefetcherKind::PerfectL1I})
            add(w + "/" + prefetcherName(k), baseConfig(w, k));
    }

    // Sampled runs cross the functional fast-forward, whose prefetcher
    // hooks differ per kind; one app under every kind pins them all.
    auto sampledConfig = [](SimConfig c) {
        c.measureInsts = 800'000;
        c.sample = {4, 20'000, 10'000, 3};
        return c;
    };
    for (PrefetcherKind k :
         {PrefetcherKind::None, PrefetcherKind::EFetch,
          PrefetcherKind::Mana, PrefetcherKind::Eip, PrefetcherKind::Rdip,
          PrefetcherKind::Hierarchical, PrefetcherKind::PerfectL1I})
        add(std::string("sampled:caddy/") + prefetcherName(k),
            sampledConfig(baseConfig("caddy", k)));

    SimConfig scen = baseConfig("caddy", PrefetcherKind::Eip);
    scen.scenario = kScenario;
    scen.workload = scenarioPrimaryProfile(*cachedScenario(kScenario));
    scen.measureInsts = 400'000;
    add("scenario:digest-chain/EIP", scen);

    // The scenario engine's translation and hop hand-off under
    // fast-forward.
    SimConfig scen_sampled = sampledConfig(
        baseConfig(scen.workload, PrefetcherKind::Hierarchical));
    scen_sampled.scenario = kScenario;
    add("sampled:digest-chain/Hierarchical", scen_sampled);

    SimConfig mt1 = baseConfig("caddy", PrefetcherKind::Hierarchical);
    mt1.mt.tenants = {"caddy", "gin"};
    mt1.mt.cores = 1;
    mt1.mt.switchQuantum = 50'000;
    mt1.mt.partitionMetadata = true;
    add("mt:caddy+gin/1core/Hierarchical", mt1);

    SimConfig mt2 = baseConfig("caddy", PrefetcherKind::Hierarchical);
    mt2.scenario = kScenario;
    mt2.mt.tenants = {"caddy", "@scenario", "gin"};
    mt2.mt.cores = 2;
    mt2.mt.switchQuantum = 50'000;
    mt2.mt.dramFillGapCycles = 4;
    mt2.mt.metadataReadBytesPerCycle = 32;
    add("mt:caddy+@scenario+gin/2cores/Hierarchical", mt2);

    // Three requesters on the shared ports, and a narrower core 2, so
    // the cores cross their phase boundaries at different cycles.
    SimConfig mt3 = baseConfig("gin", PrefetcherKind::Hierarchical);
    mt3.scenario = kScenario;
    mt3.mt.tenants = {"gin", "@scenario", "echo"};
    mt3.mt.cores = 3;
    mt3.mt.dramFillGapCycles = 6;
    mt3.mt.metadataReadBytesPerCycle = 16;
    CoreConfig narrow = mt3.core();
    narrow.fetchBytesPerCycle = 8;
    narrow.commitWidth = 3;
    mt3.mt.coreOverrides = {mt3.core(), mt3.core(), narrow};
    add("mt:gin+@scenario+echo/3cores/Hierarchical", mt3);

    SimConfig warm_only = baseConfig("gin", PrefetcherKind::EFetch);
    warm_only.measureInsts = 0;
    add("warmup-only:gin/EFetch", warm_only);

    const std::vector<SimMetrics> results = hpbench::runAll(configs);
    std::string text;
    for (std::size_t i = 0; i < labels.size(); ++i) {
        char line[160];
        std::snprintf(line, sizeof(line), "%-44s %10llu %10llu %016llx\n",
                      labels[i].c_str(),
                      (unsigned long long)results[i].instructions,
                      (unsigned long long)results[i].cycles,
                      (unsigned long long)digest(results[i]));
        text += line;
    }
    std::fputs(text.c_str(), stdout);

    const bool ok = hpbench::checkGolden(argc, argv, text);
    std::fprintf(stderr, "behaviour_digest: %s (%zu runs)\n",
                 ok ? "OK" : "FAILED", labels.size());
    return ok ? 0 : 1;
}
