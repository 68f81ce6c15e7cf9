/**
 * @file
 * Quickstart: build a synthetic server application, run the paper's
 * link-time Bundle analysis on it, then simulate the FDIP baseline and
 * the Hierarchical Prefetcher and compare.
 *
 * Usage: quickstart [workload]   (default: tidb-tpcc)
 */

#include <cstdio>
#include <string>

#include "sim/runner.hh"
#include "stats/table.hh"
#include "workload/program_builder.hh"

int
main(int argc, char **argv)
{
    std::string workload = argc > 1 ? argv[1] : "tidb-tpcc";

    // 1. Build (and link + tag) the application image.
    const hp::AppProfile &profile = hp::appProfile(workload);
    auto app = hp::ProgramBuilder::cached(profile);

    std::printf("== %s (binary: %s) ==\n", profile.name.c_str(),
                profile.binary.c_str());
    std::printf("functions:        %zu\n", app->program.numFunctions());
    std::printf("code size:        %s\n",
                hp::fmtBytes(double(app->program.totalCodeBytes()))
                    .c_str());
    std::printf("bundle entries:   %zu (%s of functions)\n",
                app->image.analysis.entries.size(),
                hp::fmtPercent(app->image.analysis.entryFraction)
                    .c_str());
    std::printf("tagged call/rets: %zu\n\n", app->image.tags.size());

    // 2. Simulate: FDIP baseline vs Hierarchical Prefetching.
    hp::SimConfig config =
        hp::defaultConfig(workload, hp::PrefetcherKind::Hierarchical);
    hp::RunPair pair = hp::ExperimentRunner::runPair(config);

    hp::NullMetadataMemory null_memory;
    hp::HierarchicalPrefetcher probe(config.hier, null_memory);

    std::printf("FDIP baseline IPC:  %.3f\n", pair.base.ipc());
    std::printf("Hierarchical IPC:   %.3f  (%+.1f%%)\n", pair.run.ipc(),
                pair.paired.speedup * 100.0);
    std::printf("L1-I coverage:      %s\n",
                hp::fmtPercent(pair.paired.coverageL1).c_str());
    std::printf("accuracy:           %s\n",
                hp::fmtPercent(pair.paired.accuracy).c_str());
    std::printf("late prefetches:    %s\n",
                hp::fmtPercent(pair.paired.lateFraction).c_str());
    std::printf("prefetch distance:  %.0f blocks\n",
                pair.paired.avgDistance);
    std::printf("on-chip storage:    %.2f KB\n",
                double(probe.storageBits()) / 8.0 / 1024.0);
    // Every counter below is from the measurement phase.
    const hp::StatsSnapshot &stats = pair.run.stats;
    const std::uint64_t started = stats.value("hier.bundles_started");
    std::printf("\nbundles started:    %llu (MAT hit rate %s)\n",
                (unsigned long long)started,
                hp::fmtPercent(started ? double(stats.value(
                                             "hier.mat_hits")) /
                                             double(started)
                                       : 0.0)
                    .c_str());
    const hp::BundleMeans bundles = hp::bundleMeans(stats);
    std::printf("bundle exec insts:  %.0f avg\n", bundles.execInsts);
    std::printf("bundle exec cycles: %.0f avg\n", bundles.execCycles);
    std::printf("bundle footprint:   %s avg\n",
                hp::fmtBytes(bundles.footprintBlocks * hp::kBlockBytes)
                    .c_str());
    std::printf("bundle Jaccard:     %.3f avg\n", bundles.jaccard);

    const hp::PrefetchStats ext = hp::prefetchStats(stats, "ext");
    std::printf("\next prefetch: issued %llu, redundant %llu, dropped "
                "%llu,\n  inserted %llu, usefulL1 %llu, usefulL2 %llu, "
                "late %llu, uselessEvicted %llu\n",
                (unsigned long long)ext.issued,
                (unsigned long long)ext.redundant,
                (unsigned long long)ext.dropped,
                (unsigned long long)ext.inserted,
                (unsigned long long)ext.usefulL1,
                (unsigned long long)ext.usefulL2,
                (unsigned long long)ext.lateMerges,
                (unsigned long long)ext.uselessEvicted);
    std::printf("replay: started %llu, pushes %llu, regions %llu, "
                "segs alloc %llu, truncated %llu\n",
                (unsigned long long)stats.value("hier.replays_started"),
                (unsigned long long)stats.value("hier.replay_prefetches"),
                (unsigned long long)stats.value("hier.regions_recorded"),
                (unsigned long long)stats.value("hier.segments_allocated"),
                (unsigned long long)stats.value("hier.records_truncated"));
    return 0;
}
