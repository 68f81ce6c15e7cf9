#include <gtest/gtest.h>

#include <algorithm>

#include "../test_helpers.hh"
#include "binary/call_graph.hh"

namespace hp
{
namespace
{

/** a -> b -> {c, d}; e isolated. Leaf sizes are exact for checks. */
struct DiamondFixture
{
    Program program;
    FuncId a, b, c, d, e;

    DiamondFixture()
    {
        c = test::addLeaf(program, "c", 100); // 400 B
        d = test::addLeaf(program, "d", 50);  // 200 B
        b = test::addCaller(program, "b", {c, d});
        a = test::addCaller(program, "a", {b});
        e = test::addLeaf(program, "e", 10);
        program.layout();
    }
};

TEST(CallGraphTest, ChildrenAndParents)
{
    DiamondFixture fx;
    CallGraph graph(fx.program);
    auto kids_b = graph.children(fx.b);
    EXPECT_EQ(kids_b.size(), 2u);
    EXPECT_TRUE(std::count(kids_b.begin(), kids_b.end(), fx.c));
    EXPECT_TRUE(std::count(kids_b.begin(), kids_b.end(), fx.d));
    ASSERT_EQ(graph.parents(fx.b).size(), 1u);
    EXPECT_EQ(graph.parents(fx.b)[0], fx.a);
    EXPECT_TRUE(graph.children(fx.e).empty());
}

TEST(CallGraphTest, RootsAreUncalledFunctions)
{
    DiamondFixture fx;
    CallGraph graph(fx.program);
    auto roots = graph.roots();
    EXPECT_EQ(roots.size(), 2u); // a and e
    EXPECT_TRUE(std::count(roots.begin(), roots.end(), fx.a));
    EXPECT_TRUE(std::count(roots.begin(), roots.end(), fx.e));
}

TEST(CallGraphTest, DuplicateEdgesCollapse)
{
    Program program;
    FuncId leaf = test::addLeaf(program, "leaf", 5);
    FuncId caller =
        test::addCaller(program, "caller", {leaf, leaf, leaf});
    program.layout();
    CallGraph graph(program);
    EXPECT_EQ(graph.children(caller).size(), 1u);
    EXPECT_EQ(graph.parents(leaf).size(), 1u);
}

TEST(CallGraphTest, ReachableSizeExactOnTree)
{
    DiamondFixture fx;
    CallGraph graph(fx.program);
    const auto &reach = graph.reachableSizes();

    std::uint64_t size_c = fx.program.func(fx.c).sizeBytes();
    std::uint64_t size_d = fx.program.func(fx.d).sizeBytes();
    std::uint64_t size_b = fx.program.func(fx.b).sizeBytes();
    std::uint64_t size_a = fx.program.func(fx.a).sizeBytes();

    EXPECT_EQ(reach[fx.c], size_c);
    EXPECT_EQ(reach[fx.d], size_d);
    EXPECT_EQ(reach[fx.b], size_b + size_c + size_d);
    EXPECT_EQ(reach[fx.a], size_a + size_b + size_c + size_d);
    EXPECT_EQ(reach[fx.e], fx.program.func(fx.e).sizeBytes());
}

TEST(CallGraphTest, SharedSubgraphCountedOnce)
{
    // a calls b and c; both b and c call the same big leaf.
    Program program;
    FuncId leaf = test::addLeaf(program, "leaf", 1000);
    FuncId b = test::addCaller(program, "b", {leaf});
    FuncId c = test::addCaller(program, "c", {leaf});
    FuncId a = test::addCaller(program, "a", {b, c});
    program.layout();
    CallGraph graph(program);
    const auto &reach = graph.reachableSizes();
    std::uint64_t expected = program.func(a).sizeBytes() +
                             program.func(b).sizeBytes() +
                             program.func(c).sizeBytes() +
                             program.func(leaf).sizeBytes();
    EXPECT_EQ(reach[a], expected); // leaf counted exactly once
}

TEST(CallGraphTest, RecursionFormsScc)
{
    // a <-> b mutual recursion, plus leaf called by b.
    Program program;
    FuncId leaf = test::addLeaf(program, "leaf", 20);
    // Build a and b with a placeholder, then patch cross edges.
    FuncId a = test::addCaller(program, "a", {leaf});
    FuncId b = test::addCaller(program, "b", {leaf});
    // Add a->b and b->a edges.
    for (auto [from, to] : {std::pair{a, b}, std::pair{b, a}}) {
        Function &fn = program.func(from);
        // Rewrite body: insert call before Ret.
        BodyOp call;
        call.kind = OpKind::CallSite;
        call.offset = fn.body.back().offset;
        call.length = 1;
        call.targetIdx = static_cast<std::uint32_t>(fn.callees.size());
        fn.callees.push_back(to);
        BodyOp ret = fn.body.back();
        ret.offset = call.offset + 1;
        fn.body.back() = call;
        fn.body.push_back(ret);
    }
    program.layout();
    program.validate();

    CallGraph graph(program);
    EXPECT_EQ(graph.sccOf(a), graph.sccOf(b));
    EXPECT_NE(graph.sccOf(a), graph.sccOf(leaf));

    const auto &reach = graph.reachableSizes();
    // Both SCC members reach the same set: a + b + leaf.
    std::uint64_t expected = program.func(a).sizeBytes() +
                             program.func(b).sizeBytes() +
                             program.func(leaf).sizeBytes();
    EXPECT_EQ(reach[a], expected);
    EXPECT_EQ(reach[b], expected);
}

TEST(CallGraphTest, SelfRecursionHandled)
{
    Program program;
    FuncId a = test::addCaller(program, "a", {});
    Function &fn = program.func(a);
    fn.callees = {a};
    BodyOp call;
    call.kind = OpKind::CallSite;
    call.offset = fn.body.back().offset;
    call.length = 1;
    call.targetIdx = 0;
    BodyOp ret = fn.body.back();
    ret.offset = call.offset + 1;
    fn.body.back() = call;
    fn.body.push_back(ret);
    program.layout();

    CallGraph graph(program);
    EXPECT_EQ(graph.reachableSizes()[a], program.func(a).sizeBytes());
}

TEST(CallGraphTest, DeepChainDoesNotOverflow)
{
    // 20k-deep call chain: the iterative Tarjan must handle it.
    Program program;
    constexpr unsigned kDepth = 20000;
    std::vector<FuncId> chain;
    chain.push_back(test::addLeaf(program, "f0", 4));
    for (unsigned i = 1; i < kDepth; ++i) {
        // Appended, not `"f" + ...`: GCC 12 at -O3 reports a false
        // -Wrestrict inside operator+(const char *, std::string &&).
        std::string name = "f";
        name += std::to_string(i);
        chain.push_back(
            test::addCaller(program, name, {chain.back()}, 0, 1));
    }
    program.layout();
    CallGraph graph(program);
    const auto &reach = graph.reachableSizes();
    EXPECT_GT(reach[chain.back()], reach[chain.front()]);
    EXPECT_EQ(graph.numSccs(), kDepth);
}

} // namespace
} // namespace hp
