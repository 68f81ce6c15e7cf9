/**
 * @file
 * google-benchmark microbenchmarks of the Hierarchical Prefetcher's
 * hardware structures and the link-time analysis: per-operation cost
 * of the Compression Buffer, Metadata Address Table, Metadata Buffer
 * allocator, the conditional predictor, the L1-I model, an LLC and
 * BTB probe, the full Bundle identification pass, the request
 * engine's instruction stream, one instruction and one run at a time,
 * and a checkpoint's capture and restore.
 */

#include <benchmark/benchmark.h>

#include "bench_util.hh"

#include "binary/call_graph.hh"
#include "cache/cache.hh"
#include "core/bundle_analysis.hh"
#include "core/compression_buffer.hh"
#include "core/metadata_buffer.hh"
#include "core/metadata_table.hh"
#include "frontend/btb.hh"
#include "frontend/cond_predictor.hh"
#include "sim/checkpoint.hh"
#include "sim/simulator.hh"
#include "util/rng.hh"
#include "workload/program_builder.hh"
#include "workload/request_engine.hh"

namespace
{

void
BM_CompressionBufferTouch(benchmark::State &state)
{
    hp::CompressionBuffer buffer(16);
    hp::Rng rng(42);
    std::uint64_t block = 0;
    for (auto _ : state) {
        // Mostly sequential with occasional jumps, like retired code.
        block += rng.nextBool(0.9) ? hp::kBlockBytes
                                   : rng.nextUint(1 << 20);
        benchmark::DoNotOptimize(buffer.touch(hp::blockAlign(block)));
    }
}
BENCHMARK(BM_CompressionBufferTouch);

void
BM_MetadataTableLookup(benchmark::State &state)
{
    hp::MetadataAddressTable table(512, 8, 11);
    hp::Rng rng(7);
    for (unsigned i = 0; i < 512; ++i)
        table.insert(static_cast<hp::BundleId>(rng.next() & 0xffffff),
                     i);
    hp::Rng lookup_rng(7);
    for (auto _ : state) {
        benchmark::DoNotOptimize(table.lookup(
            static_cast<hp::BundleId>(lookup_rng.next() & 0xffffff)));
    }
}
BENCHMARK(BM_MetadataTableLookup);

void
BM_MetadataBufferAllocate(benchmark::State &state)
{
    hp::MetadataBuffer buffer(512 * 1024);
    std::uint32_t owner = 0;
    for (auto _ : state) {
        ++owner;
        benchmark::DoNotOptimize(
            buffer.allocate(owner & 0xffffff, (owner & 7) == 0));
    }
}
BENCHMARK(BM_MetadataBufferAllocate);

void
BM_CondPredictor(benchmark::State &state)
{
    hp::CondPredictor pred;
    hp::Rng rng(3);
    for (auto _ : state) {
        hp::Addr pc = (rng.next() & 0xffff) * 4;
        bool taken = rng.nextBool(0.7);
        benchmark::DoNotOptimize(pred.predict(pc));
        pred.update(pc, taken);
    }
}
BENCHMARK(BM_CondPredictor);

void
BM_L1IAccess(benchmark::State &state)
{
    hp::SetAssocCache l1i("L1I", 32 * 1024, 8);
    hp::Rng rng(11);
    for (auto _ : state) {
        hp::Addr block = hp::blockAlign(rng.nextUint(1 << 22));
        if (!l1i.access(block))
            l1i.insert(block, hp::Origin::Demand);
    }
}
BENCHMARK(BM_L1IAccess);

/**
 * A seeded probe sequence: 85% of probes go to a hot set of
 * @p hot_keys keys, the rest to fresh keys that always miss.
 * @p stride spaces keys (a block, or one instruction).
 */
std::vector<hp::Addr>
probeMix(unsigned hot_keys, hp::Addr stride)
{
    hp::Rng rng(29);
    std::vector<hp::Addr> keys(1 << 16);
    hp::Addr fresh = hp::Addr(1) << 40;
    for (hp::Addr &key : keys) {
        key = rng.nextBool(0.85)
                  ? 0x400000 + rng.nextUint(hot_keys) * stride
                  : (fresh += stride);
    }
    return keys;
}

/** The LLC's instruction share (1,228 sets x 16 ways, as the
 *  hierarchy builds it): access, and insert on a miss. The hot set
 *  (12K blocks) mostly fits, so the hit rate is ~83%; "hit_rate"
 *  reports it. */
void
BM_CacheProbe(benchmark::State &state)
{
    hp::SetAssocCache llc("LLC", 1228 * 16 * hp::kBlockBytes, 16);
    const std::vector<hp::Addr> blocks =
        probeMix(12 * 1024, hp::kBlockBytes);
    std::size_t i = 0;
    std::uint64_t hits = 0, probes = 0;
    for (auto _ : state) {
        const hp::Addr block = blocks[i++ & (blocks.size() - 1)];
        const auto hit = llc.access(block);
        benchmark::DoNotOptimize(hit);
        if (hit)
            ++hits;
        else
            llc.insert(block, hp::Origin::Demand);
        ++probes;
    }
    state.counters["hit_rate"] = double(hits) / double(probes);
}
BENCHMARK(BM_CacheProbe);

/** The 8K-entry 8-way BTB: lookup, and update on a miss. The hot set
 *  is 4K branches, so the hit rate is ~82%; "hit_rate" reports it. */
void
BM_BtbLookup(benchmark::State &state)
{
    hp::Btb btb(8192, 8);
    const std::vector<hp::Addr> pcs = probeMix(4 * 1024, 4);
    std::size_t i = 0;
    std::uint64_t hits = 0, probes = 0;
    for (auto _ : state) {
        const hp::Addr pc = pcs[i++ & (pcs.size() - 1)];
        const auto target = btb.lookup(pc);
        benchmark::DoNotOptimize(target);
        if (target)
            ++hits;
        else
            btb.update(pc, pc + 64);
        ++probes;
    }
    state.counters["hit_rate"] = double(hits) / double(probes);
}
BENCHMARK(BM_BtbLookup);

void
BM_BundleAnalysis(benchmark::State &state)
{
    const hp::AppProfile &profile = hp::appProfile("caddy");
    auto app = hp::ProgramBuilder::cached(profile);
    for (auto _ : state) {
        hp::CallGraph graph(app->program);
        auto analysis = hp::findBundleEntries(graph);
        benchmark::DoNotOptimize(analysis.entries.size());
    }
}
BENCHMARK(BM_BundleAnalysis)->Unit(benchmark::kMillisecond);

void
BM_RequestEngine(benchmark::State &state)
{
    const hp::AppProfile &profile = hp::appProfile("caddy");
    auto app = hp::ProgramBuilder::cached(profile);
    hp::RequestEngine engine(app, profile);
    hp::DynInst inst;
    for (auto _ : state) {
        engine.next(inst);
        benchmark::DoNotOptimize(inst.pc);
    }
}
BENCHMARK(BM_RequestEngine);

/** The stream as fast-forward pulls it: each next() returns a whole
 *  run. Reports instructions per second ("insts"). */
void
BM_RequestEngineRuns(benchmark::State &state, const char *workload)
{
    const hp::AppProfile &profile = hp::appProfile(workload);
    auto app = hp::ProgramBuilder::cached(profile);
    hp::RequestEngine engine(app, profile);
    hp::DynInst inst;
    std::uint64_t insts = 0;
    for (auto _ : state) {
        insts += engine.next(inst, ~std::uint64_t(0));
        benchmark::DoNotOptimize(inst.pc);
    }
    state.counters["insts"] =
        benchmark::Counter(double(insts), benchmark::Counter::kIsRate);
}
BENCHMARK_CAPTURE(BM_RequestEngineRuns, tidb_tpcc, "tidb-tpcc");
BENCHMARK_CAPTURE(BM_RequestEngineRuns, mysql_sysbench, "mysql-sysbench");
BENCHMARK_CAPTURE(BM_RequestEngineRuns, caddy, "caddy");
BENCHMARK_CAPTURE(BM_RequestEngineRuns, gin, "gin");

/** ProgramBuilder::build of one binary, as a process pays it once per
 *  binary. Reports the bytes the image's bodies ("op_bytes") and
 *  callee lists ("callee_bytes") hold allocated. */
void
BM_ProgramBuild(benchmark::State &state, const char *workload)
{
    const hp::AppProfile &profile = hp::appProfile(workload);
    std::shared_ptr<const hp::BuiltApp> app;
    for (auto _ : state) {
        state.PauseTiming();
        app.reset();
        state.ResumeTiming();
        app = hp::ProgramBuilder::build(profile);
        benchmark::DoNotOptimize(app.get());
    }
    std::uint64_t op_bytes = 0, callee_bytes = 0;
    for (const hp::Function &fn : app->program.functions()) {
        op_bytes += fn.body.capacity() * sizeof(hp::BodyOp);
        callee_bytes += fn.callees.capacity() * sizeof(hp::FuncId);
    }
    state.counters["op_bytes"] = double(op_bytes);
    state.counters["callee_bytes"] = double(callee_bytes);
}
BENCHMARK_CAPTURE(BM_ProgramBuild, tidb_tpcc, "tidb-tpcc")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ProgramBuild, mysql_sysbench, "mysql-sysbench")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ProgramBuild, caddy, "caddy")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ProgramBuild, gin, "gin")
    ->Unit(benchmark::kMillisecond);

/** tidb-tpcc under HP with the Table 1 budgets. */
hp::SimConfig
checkpointConfig()
{
    hp::SimConfig config;
    config.workload = "tidb-tpcc";
    config.prefetcher = hp::PrefetcherKind::Hierarchical;
    config.hier.trackBundleStats = true;
    return config;
}

/** The blob of checkpointConfig() at its warmup boundary, and the
 *  simulator that warmed it; built once per process. */
struct WarmCheckpoint
{
    hp::Simulator sim{checkpointConfig()};
    hp::Checkpoint blob{"", {}};

    WarmCheckpoint()
    {
        sim.runWarmup();
        blob = hp::Checkpoint::capture(sim, "micro_structures");
    }
};

WarmCheckpoint &
warmCheckpoint()
{
    static WarmCheckpoint warm;
    return warm;
}

/** Checkpoint::capture of the warm simulator. "blob_bytes" is the
 *  payload's size. */
void
BM_CheckpointCapture(benchmark::State &state)
{
    hp::Simulator &sim = warmCheckpoint().sim;
    std::size_t bytes = 0;
    for (auto _ : state) {
        const hp::Checkpoint blob =
            hp::Checkpoint::capture(sim, "micro_structures");
        bytes = blob.payload().size();
        benchmark::DoNotOptimize(bytes);
    }
    state.counters["blob_bytes"] = double(bytes);
}
BENCHMARK(BM_CheckpointCapture)->Unit(benchmark::kMillisecond);

/** Checkpoint::restoreInto one simulator, over and over, as a sampled
 *  run restores its forks. */
void
BM_CheckpointRestore(benchmark::State &state)
{
    const hp::Checkpoint &blob = warmCheckpoint().blob;
    hp::Simulator sim(checkpointConfig());
    std::string error;
    for (auto _ : state) {
        const bool restored = blob.restoreInto(sim, &error);
        benchmark::DoNotOptimize(restored);
        if (!restored) {
            state.SkipWithError(error.c_str());
            break;
        }
    }
    state.counters["blob_bytes"] = double(blob.payload().size());
}
BENCHMARK(BM_CheckpointRestore)->Unit(benchmark::kMillisecond);

} // namespace

int
main(int argc, char **argv)
{
    // Generated --help (and the unknown-HP_* warn-once diagnostic)
    // like every other bench; all remaining flags go to
    // google-benchmark's own parser.
    hpbench::handleCommonArgs(
        argc, argv, "micro_structures",
        "  (google-benchmark flags: --benchmark_filter=..., "
        "--benchmark_list_tests, ...)\n");
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
