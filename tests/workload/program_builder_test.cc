#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/bundle_analysis.hh"
#include "workload/program_builder.hh"

namespace hp
{
namespace
{

TEST(ProgramBuilderTest, BuildsValidProgram)
{
    auto app = ProgramBuilder::build(appProfile("caddy"));
    app->program.validate();
    EXPECT_TRUE(app->program.isLaidOut());
    EXPECT_GT(app->program.numFunctions(), 1000u);
    EXPECT_GT(app->program.totalCodeBytes(), 4ull * 1024 * 1024);
}

TEST(ProgramBuilderTest, DeterministicForSameSeed)
{
    auto a = ProgramBuilder::build(appProfile("caddy"));
    auto b = ProgramBuilder::build(appProfile("caddy"));
    ASSERT_EQ(a->program.numFunctions(), b->program.numFunctions());
    EXPECT_EQ(a->program.totalCodeBytes(), b->program.totalCodeBytes());
    EXPECT_EQ(a->image.section.taggedInstructions,
              b->image.section.taggedInstructions);
    for (FuncId f = 0; f < 100; ++f) {
        EXPECT_EQ(a->program.func(f).addr, b->program.func(f).addr);
        EXPECT_EQ(a->program.func(f).body.size(),
                  b->program.func(f).body.size());
    }
}

/** The op of @p fn holding @p slot, found by binary search over the
 *  op offsets: the engine's lookup before the builder resolved the
 *  targets. */
std::uint32_t
searchOp(const Function &fn, std::uint32_t slot)
{
    std::size_t lo = 0, hi = fn.body.size();
    while (lo + 1 < hi) {
        const std::size_t mid = (lo + hi) / 2;
        if (fn.body[mid].offset <= slot)
            lo = mid;
        else
            hi = mid;
    }
    return static_cast<std::uint32_t>(lo);
}

TEST(ProgramBuilderTest, BranchAndLoopTargetsMatchASearch)
{
    std::set<std::string> binaries;
    std::uint64_t checked = 0;
    for (const std::string &workload : allWorkloads()) {
        const AppProfile &profile = appProfile(workload);
        if (!binaries.insert(profile.binary).second)
            continue;
        auto app = ProgramBuilder::cached(profile);
        for (const Function &fn : app->program.functions()) {
            for (const BodyOp &op : fn.body) {
                std::uint32_t slot;
                if (op.kind == OpKind::Branch)
                    slot = op.offset + 1 + op.length;
                else if (op.kind == OpKind::Loop)
                    slot = op.offset - op.length;
                else
                    continue;
                ASSERT_EQ(op.targetIdx, searchOp(fn, slot))
                    << profile.binary << " " << fn.name << " @"
                    << op.offset;
                ++checked;
            }
        }
    }
    EXPECT_EQ(binaries.size(), 8u);
    EXPECT_GT(checked, 100'000u);
}

TEST(ProgramBuilderTest, BodiesAndCalleesAreExactlySized)
{
    // The builder allocates each body and callee list once, at its
    // final size, and layout trims the function records: growth slack
    // would be resident for the whole run.
    for (const std::string &binary : allBinaries()) {
        auto app = ProgramBuilder::cached(
            appProfile(workloadForBinary(binary)));
        EXPECT_EQ(app->program.functions().capacity(),
                  app->program.numFunctions())
            << binary;
        for (const Function &fn : app->program.functions()) {
            ASSERT_EQ(fn.body.capacity(), fn.body.size())
                << binary << " " << fn.name;
            ASSERT_EQ(fn.callees.capacity(), fn.callees.size())
                << binary << " " << fn.name;
        }
    }
}

/** Marks every function @p root reaches through call candidates. */
std::vector<bool>
reachableFrom(const Program &program, FuncId root)
{
    std::vector<bool> reached(program.numFunctions(), false);
    std::vector<FuncId> pending{root};
    reached[root] = true;
    while (!pending.empty()) {
        const Function &fn = program.func(pending.back());
        pending.pop_back();
        for (const BodyOp &op : fn.body) {
            if (op.kind != OpKind::CallSite)
                continue;
            for (FuncId callee : fn.candidates(op)) {
                if (!reached[callee]) {
                    reached[callee] = true;
                    pending.push_back(callee);
                }
            }
        }
    }
    return reached;
}

TEST(ProgramBuilderTest, OnlyUnreachableFunctionsAreStubs)
{
    // Every function a request can run keeps its full body (validate
    // checks that a non-stub's ops cover every slot); a stub (a
    // cold-library function) holds only its call sites and Ret.
    for (const std::string &binary : allBinaries()) {
        auto app = ProgramBuilder::cached(
            appProfile(workloadForBinary(binary)));
        const Program &program = app->program;
        const std::vector<bool> reached =
            reachableFrom(program, app->requestDriver);
        std::uint64_t stored = 0, full = 0, stub_calls_and_rets = 0;
        std::size_t stubs = 0;
        for (const Function &fn : program.functions()) {
            stored += fn.body.size();
            if (!fn.stub) {
                full += fn.body.size();
                continue;
            }
            ++stubs;
            ASSERT_FALSE(reached[fn.id]) << binary << " " << fn.name;
            for (const BodyOp &op : fn.body) {
                ASSERT_TRUE(op.kind == OpKind::CallSite ||
                            op.kind == OpKind::Ret)
                    << binary << " " << fn.name << " @" << op.offset;
                ++stub_calls_and_rets;
            }
        }
        EXPECT_EQ(stored, full + stub_calls_and_rets) << binary;
        // The cold libraries hold most of each binary's functions.
        EXPECT_GT(stubs, program.numFunctions() / 2) << binary;
    }
}

TEST(ProgramBuilderTest, CachedSharesBinaryAcrossWorkloads)
{
    auto tpcc = ProgramBuilder::cached(appProfile("tidb-tpcc"));
    auto sysbench = ProgramBuilder::cached(appProfile("tidb-sysbench"));
    EXPECT_EQ(tpcc.get(), sysbench.get());
    auto mysql = ProgramBuilder::cached(appProfile("mysql-ycsb"));
    EXPECT_NE(tpcc.get(), mysql.get());
}

TEST(ProgramBuilderTest, WiringIsComplete)
{
    auto app = ProgramBuilder::cached(appProfile("caddy"));
    const AppProfile &profile = appProfile("caddy");
    EXPECT_NE(app->requestDriver, kNoFunc);
    ASSERT_EQ(app->dispatchers.size(), profile.numStages);
    ASSERT_EQ(app->stageRoutines.size(), profile.numStages);
    for (unsigned s = 0; s < profile.numStages; ++s) {
        EXPECT_EQ(app->stageRoutines[s].size(),
                  profile.routinesPerStage[s])
            << "stage " << s;
    }
    EXPECT_FALSE(app->irqRoutines.empty());
}

TEST(ProgramBuilderTest, BundleEntriesInPaperRange)
{
    // Table 4: 2.3% - 6.1% of functions are Bundle entries.
    for (const std::string &binary : allBinaries()) {
        auto app = ProgramBuilder::cached(
            appProfile(workloadForBinary(binary)));
        double pct = app->image.analysis.entryFraction * 100.0;
        EXPECT_GT(pct, 1.0) << binary;
        EXPECT_LT(pct, 8.0) << binary;
    }
}

TEST(ProgramBuilderTest, DispatchersDivergeIntoRoutines)
{
    auto app = ProgramBuilder::cached(appProfile("tidb-tpcc"));
    // Every multi-routine stage dispatcher has an indirect call site
    // whose candidates are exactly the stage's routines.
    const AppProfile &profile = appProfile("tidb-tpcc");
    for (unsigned s = 0; s < profile.numStages; ++s) {
        if (profile.routinesPerStage[s] < 2)
            continue;
        const Function &dispatcher =
            app->program.func(app->dispatchers[s]);
        bool found = false;
        for (const BodyOp &op : dispatcher.body) {
            if (op.kind != OpKind::CallSite || !op.indirect)
                continue;
            const std::span<const FuncId> candidates =
                dispatcher.candidates(op);
            EXPECT_EQ(std::vector<FuncId>(candidates.begin(),
                                          candidates.end()),
                      app->stageRoutines[s]);
            found = true;
        }
        EXPECT_TRUE(found) << "stage " << s;
    }
}

TEST(ProgramBuilderTest, RoutineRootsAreTaggedEntries)
{
    // Multi-routine stage roots should be Bundle entries (the paper's
    // divergence points).
    auto app = ProgramBuilder::cached(appProfile("tidb-tpcc"));
    const AppProfile &profile = appProfile("tidb-tpcc");
    unsigned tagged_roots = 0, total_roots = 0;
    for (unsigned s = 0; s < profile.numStages; ++s) {
        if (profile.routinesPerStage[s] < 2)
            continue;
        for (FuncId root : app->stageRoutines[s]) {
            ++total_roots;
            tagged_roots += app->image.analysis.isEntry(root);
        }
    }
    EXPECT_GT(total_roots, 0u);
    // Most (not necessarily all) routine roots are divergence points.
    EXPECT_GT(double(tagged_roots) / total_roots, 0.5);
}

TEST(ProgramBuilderTest, StaticFootprintExceedsThresholdForDriver)
{
    auto app = ProgramBuilder::cached(appProfile("caddy"));
    CallGraph graph(app->program);
    const auto &reach = graph.reachableSizes();
    EXPECT_GT(reach[app->requestDriver], kDefaultBundleThreshold);
}

} // namespace
} // namespace hp
