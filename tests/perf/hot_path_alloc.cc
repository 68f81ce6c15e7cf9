/**
 * @file
 * Allocation gate for the simulation hot paths.
 *
 * Steady-state detailed simulation and fast-forward must not touch
 * the heap per instruction, cycle or miss (DESIGN.md, "Hot-path
 * rules"). This binary replaces the global operator new to count
 * calls, runs caddy under every prefetcher kind (FDIP alone, EFetch,
 * MANA, EIP, RDIP and the Hierarchical Prefetcher), and
 * asserts at most kMaxPerKinst allocations per 1,000 committed
 * instructions over an advanceDetailed segment and over a fastForward
 * segment, each after a warm segment that lets every growable
 * structure reach its working size. Counting calls is deterministic,
 * so unlike a host-clock threshold this gate does not flake.
 *
 * It is its own executable because the operator new replacement is
 * process-wide.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "sim/simulator.hh"

namespace
{

std::atomic<std::uint64_t> g_allocations{0};

} // namespace

// Every replacement stays out of line: inlined into a caller, GCC
// pairs malloc()/free() with the operator new/delete on the other
// side and warns of a mismatch.
[[gnu::noinline]] void *
operator new(std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

// The nothrow forms too (std::stable_sort's temporary buffer uses
// them): memory from another allocator must never reach the free()
// below, which sanitizers report as an allocator mismatch. Nothing in
// the simulator over-aligns, so the align_val_t forms keep their
// library definitions and are not counted.
[[gnu::noinline]] void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size ? size : 1);
}

[[gnu::noinline]] void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    return ::operator new(size, std::nothrow);
}

[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

namespace hp
{
namespace
{

/** Allocations per 1,000 committed instructions allowed on a hot path
 *  (node containers and per-check message strings cost ~1,100; a
 *  std::deque FIFO of 16-byte entries, ~3). */
constexpr double kMaxPerKinst = 4.0;

constexpr std::uint64_t kWarmInsts = 400'000;
constexpr std::uint64_t kMeasuredInsts = 600'000;

SimConfig
gateConfig(PrefetcherKind kind)
{
    SimConfig config;
    config.workload = "caddy";
    config.prefetcher = kind;
    return config;
}

/** Runs @p segment and returns its allocations per kilo-instruction. */
template <typename Segment>
double
allocsPerKinst(Simulator &sim, Segment segment)
{
    const std::uint64_t allocs_before = g_allocations.load();
    const std::uint64_t insts_before = sim.committedInsts();
    segment();
    const std::uint64_t allocs = g_allocations.load() - allocs_before;
    const std::uint64_t insts = sim.committedInsts() - insts_before;
    EXPECT_GE(insts, kMeasuredInsts);
    return 1000.0 * double(allocs) / double(insts);
}

class HotPathAllocTest : public ::testing::TestWithParam<PrefetcherKind>
{
};

TEST_P(HotPathAllocTest, DetailedLoopIsAllocationFree)
{
    Simulator sim(gateConfig(GetParam()));
    sim.advanceDetailed(kWarmInsts);
    const double per_kinst = allocsPerKinst(
        sim, [&sim] { sim.advanceDetailed(kMeasuredInsts); });
    EXPECT_LE(per_kinst, kMaxPerKinst);
    std::printf("detailed %s: %.2f allocations per 1k instructions\n",
                prefetcherName(GetParam()), per_kinst);
}

TEST_P(HotPathAllocTest, FastForwardIsAllocationFree)
{
    Simulator sim(gateConfig(GetParam()));
    sim.advanceDetailed(kWarmInsts / 4);
    sim.fastForward(kWarmInsts);
    const double per_kinst = allocsPerKinst(
        sim, [&sim] { sim.fastForward(kMeasuredInsts); });
    EXPECT_LE(per_kinst, kMaxPerKinst);
    std::printf("fast-forward %s: %.2f allocations per 1k instructions\n",
                prefetcherName(GetParam()), per_kinst);
}

INSTANTIATE_TEST_SUITE_P(
    Caddy, HotPathAllocTest,
    ::testing::Values(PrefetcherKind::None, PrefetcherKind::EFetch,
                      PrefetcherKind::Mana, PrefetcherKind::Eip,
                      PrefetcherKind::Rdip,
                      PrefetcherKind::Hierarchical),
    [](const ::testing::TestParamInfo<PrefetcherKind> &info) {
        return prefetcherName(info.param);
    });

} // namespace
} // namespace hp
