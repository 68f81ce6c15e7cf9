/**
 * @file
 * The counted commit hook (prefetch/prefetcher.hh): for every
 * prefetcher kind, onCommit(first, n) over a run of plain instructions
 * within one cache block leaves the same saved state as n single
 * commits. The stream is a real engine's, split at block boundaries
 * the way the functional fast-forward splits it, with the block hooks
 * (onDemandAccess, tick, queue drain) fed identically to both
 * instances. Halfway through, the counted instance is replaced by a
 * restored copy of itself, which pins the state a restore rebuilds.
 */

#include <gtest/gtest.h>

#include <random>

#include "sim/simulator.hh"
#include "util/hash.hh"
#include "util/serialize.hh"
#include "workload/request_engine.hh"

namespace hp
{
namespace
{

std::vector<std::uint8_t>
savedBytes(Prefetcher &pf)
{
    StateWriter w;
    pf.serializeState(w);
    return w.take();
}

class CountedCommitTest : public ::testing::TestWithParam<PrefetcherKind>
{
};

TEST_P(CountedCommitTest, RunCommitMatchesSingleCommits)
{
    SimConfig config;
    config.prefetcher = GetParam();
    config.hier.trackBundleStats = true;
    NullMetadataMemory memory;
    std::unique_ptr<Prefetcher> single = makePrefetcher(config, memory);
    std::unique_ptr<Prefetcher> counted = makePrefetcher(config, memory);
    ASSERT_NE(single, nullptr);

    const AppProfile &profile = appProfile("caddy");
    RequestEngine engine(ProgramBuilder::cached(profile), profile);
    std::mt19937_64 rng(3);
    Cycle now = 0;
    Addr cur_block = ~Addr(0);
    std::uint64_t batched = 0;

    constexpr int kRuns = 60'000;
    for (int run = 0; run < kRuns; ++run) {
        DynInst first;
        std::uint64_t n = engine.next(first, 1 + rng() % 64);
        while (n > 0) {
            const Addr block = blockAlign(first.pc);
            const std::uint64_t in_block = std::min<std::uint64_t>(
                n, (block + kBlockBytes - first.pc) / kInstBytes);
            if (block != cur_block) {
                cur_block = block;
                const bool hit = (mix64(block) & 3) != 0;
                for (Prefetcher *pf : {single.get(), counted.get()}) {
                    pf->onDemandAccess(block, hit, now, hit ? 0 : 40);
                    pf->tick(now);
                    Addr req;
                    while (pf->popRequest(req)) {}
                }
            }

            counted->onCommit(first, in_block, now);
            DynInst inst = first;
            for (std::uint64_t k = 0; k < in_block; ++k) {
                single->onCommit(inst, 1, now + k);
                inst.pc += kInstBytes;
                inst.marker = StreamMarker::None;
                inst.markerArg = 0;
            }
            if (in_block > 1)
                ++batched;

            now += in_block;
            n -= in_block;
            first.pc = block + kBlockBytes;
            first.marker = StreamMarker::None;
            first.markerArg = 0;
        }

        if (run == kRuns / 2) {
            std::unique_ptr<Prefetcher> restored =
                makePrefetcher(config, memory);
            const std::vector<std::uint8_t> blob = savedBytes(*counted);
            StateLoader loader(blob.data(), blob.size());
            restored->serializeState(loader);
            ASSERT_FALSE(loader.failed());
            ASSERT_EQ(loader.remaining(), 0u);
            counted = std::move(restored);
        }
        if (run % 4096 == 0 || run == kRuns - 1) {
            ASSERT_EQ(savedBytes(*single), savedBytes(*counted))
                << "after run " << run;
        }
    }
    EXPECT_GT(batched, 10'000u);
}

// None and PerfectL1I construct no prefetcher object.
INSTANTIATE_TEST_SUITE_P(
    AllPrefetchers, CountedCommitTest,
    ::testing::Values(PrefetcherKind::EFetch, PrefetcherKind::Mana,
                      PrefetcherKind::Eip, PrefetcherKind::Rdip,
                      PrefetcherKind::Hierarchical),
    [](const ::testing::TestParamInfo<PrefetcherKind> &info) {
        return std::string(prefetcherName(info.param));
    });

} // namespace
} // namespace hp
