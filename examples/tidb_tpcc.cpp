/**
 * @file
 * The paper's motivating scenario (Sections 1 and 3): TiDB processing
 * TPC-C statements. Walks through the full story on one workload:
 *
 *  1. the staged life cycle of a statement and each stage's
 *     instruction working set (Figure 1);
 *  2. why that defeats fine-grained prefetchers (long reuse distances
 *     between recurrences of a functionality);
 *  3. what Hierarchical Prefetching does about it — Bundle formation
 *     at link time, then record-and-replay at run time — and what it
 *     buys end to end.
 */

#include <cstdio>
#include <unordered_set>

#include "sim/runner.hh"
#include "stats/table.hh"
#include "workload/request_engine.hh"

namespace
{

using namespace hp;

/** Stage working sets plus the interval between type recurrences. */
void
characterize(const AppProfile &profile,
             std::shared_ptr<const BuiltApp> app)
{
    RequestEngine engine(app, profile);
    constexpr std::uint64_t kInsts = 3'000'000;

    std::vector<Accumulator> stage_blocks(profile.numStages);
    std::vector<std::uint64_t> last_seen(profile.requestTypes, 0);
    Accumulator recurrence_gap;

    std::unordered_set<Addr> footprint;
    int stage = -1;
    std::uint64_t seq = 0;

    DynInst inst;
    for (std::uint64_t i = 0; i < kInsts && engine.next(inst);
         ++i, ++seq) {
        if (inst.marker == StreamMarker::StageBegin ||
            inst.marker == StreamMarker::RequestBegin) {
            if (stage >= 0 && !footprint.empty())
                stage_blocks[stage].sample(double(footprint.size()));
            footprint.clear();
            stage = inst.marker == StreamMarker::StageBegin
                ? inst.markerArg : -1;
        }
        if (inst.marker == StreamMarker::RequestBegin) {
            const unsigned type = inst.markerArg; // the request type
            if (last_seen[type] != 0)
                recurrence_gap.sample(double(seq - last_seen[type]));
            last_seen[type] = seq;
        }
        if (stage >= 0)
            footprint.insert(blockAlign(inst.pc));
    }

    const char *names[] = {"Read", "Dispatch", "Compile", "Optimize",
                           "Exec", "Commit", "Finish"};
    std::printf("statement life cycle (cf. Figure 1):\n");
    for (unsigned s = 0; s < profile.numStages; ++s) {
        std::printf("  %-9s %8s working set  (%llu executions)\n",
                    names[s],
                    fmtBytes(stage_blocks[s].mean() * kBlockBytes)
                        .c_str(),
                    (unsigned long long)stage_blocks[s].count());
    }
    std::printf(
        "\nsame statement type recurs every %.2fM instructions on\n"
        "average - far beyond what any I-cache retains, and beyond\n"
        "the lookahead of fine-grained record-and-replay prefetchers.\n",
        recurrence_gap.mean() / 1e6);
}

} // namespace

int
main()
{
    const AppProfile &profile = appProfile("tidb-tpcc");
    auto app = ProgramBuilder::cached(profile);

    std::printf("== TiDB under TPC-C ==\n\n");
    characterize(profile, app);

    // Link-time Bundle formation.
    std::printf("\nlink-time analysis: %zu of %zu functions (%s) are "
                "Bundle entry points\n",
                app->image.analysis.entries.size(),
                app->program.numFunctions(),
                fmtPercent(app->image.analysis.entryFraction).c_str());

    // End-to-end comparison.
    std::printf("\nsimulating FDIP baseline, EIP and Hierarchical "
                "Prefetching...\n\n");
    RunPair hier = ExperimentRunner::runPair(
        defaultConfig("tidb-tpcc", PrefetcherKind::Hierarchical));
    RunPair eip = ExperimentRunner::runPair(
        defaultConfig("tidb-tpcc", PrefetcherKind::Eip));

    AsciiTable table;
    table.setHeader({"", "EIP (40KB)", "Hierarchical (1.94KB)"});
    table.addRow({"IPC speedup", fmtPercent(eip.paired.speedup),
                  fmtPercent(hier.paired.speedup)});
    table.addRow({"L2 coverage", fmtPercent(eip.paired.coverageL2),
                  fmtPercent(hier.paired.coverageL2)});
    table.addRow({"prefetch distance",
                  fmtDouble(eip.paired.avgDistance, 0) + " blocks",
                  fmtDouble(hier.paired.avgDistance, 0) + " blocks"});
    table.addRow({"late prefetches",
                  fmtPercent(eip.paired.lateFraction),
                  fmtPercent(hier.paired.lateFraction)});
    std::fputs(table.render().c_str(), stdout);

    const BundleMeans bundles = bundleMeans(hier.run.stats);
    std::printf("\nBundles executed: %llu avg footprint %s, avg %0.f "
                "cycles, footprint similarity %.2f\n",
                (unsigned long long)hier.run.stats.value(
                    "hier.bundles_started"),
                fmtBytes(bundles.footprintBlocks * kBlockBytes).c_str(),
                bundles.execCycles, bundles.jaccard);
    return 0;
}
