#include <gtest/gtest.h>

#include <algorithm>

#include "../test_helpers.hh"
#include "core/loader.hh"

namespace hp
{
namespace
{

constexpr std::uint32_t
instsFor(std::uint64_t bytes)
{
    return static_cast<std::uint32_t>(bytes / kInstBytes);
}

struct TaggedFixture
{
    Program program;
    FuncId big_a, big_b, parent;
    LinkedImage image;

    TaggedFixture()
    {
        big_a = test::addLeaf(program, "bigA", instsFor(250 * 1024));
        big_b = test::addLeaf(program, "bigB", instsFor(260 * 1024));
        parent = test::addCaller(program, "parent", {big_a, big_b});
        program.layout();
        image = linkAndTag(program);
    }
};

TEST(LoaderTest, TagsCallSitesOfEntryFunctions)
{
    TaggedFixture fx;
    // Both calls inside parent target entry functions -> both call
    // instructions tagged. addCaller places calls at slots 4 and 9.
    const Function &parent_fn = fx.program.func(fx.parent);
    Addr call_a = parent_fn.instAddr(4);
    Addr call_b = parent_fn.instAddr(9);
    EXPECT_TRUE(fx.image.tags.isTagged(call_a));
    EXPECT_TRUE(fx.image.tags.isTagged(call_b));
}

TEST(LoaderTest, TagsReturnsOfEntryFunctions)
{
    TaggedFixture fx;
    const Function &fa = fx.program.func(fx.big_a);
    Addr ret_a = fa.instAddr(fa.numInsts() - 1);
    EXPECT_TRUE(fx.image.tags.isTagged(ret_a));
    // parent is an entry (root): its return is tagged too.
    const Function &fp = fx.program.func(fx.parent);
    EXPECT_TRUE(fx.image.tags.isTagged(fp.instAddr(fp.numInsts() - 1)));
}

TEST(LoaderTest, NonEntryInstructionsUntagged)
{
    TaggedFixture fx;
    const Function &fa = fx.program.func(fx.big_a);
    // Interior run instructions are never tagged.
    EXPECT_FALSE(fx.image.tags.isTagged(fa.instAddr(0)));
    EXPECT_FALSE(fx.image.tags.isTagged(fa.instAddr(10)));
}

TEST(LoaderTest, SectionSortedAndUnique)
{
    TaggedFixture fx;
    const auto &tagged = fx.image.section.taggedInstructions;
    EXPECT_TRUE(std::is_sorted(tagged.begin(), tagged.end()));
    EXPECT_EQ(std::adjacent_find(tagged.begin(), tagged.end()),
              tagged.end());
    EXPECT_EQ(tagged.size(), fx.image.tags.size());
}

TEST(LoaderTest, IndirectSiteTaggedIfAnyCandidateIsEntry)
{
    Program program;
    FuncId big = test::addLeaf(program, "big", instsFor(300 * 1024));
    FuncId small = test::addLeaf(program, "small", 10);
    // A second large branch makes the parent's reachable size exceed
    // big's by more than the threshold, so big is a divergence point.
    FuncId other = test::addLeaf(program, "other", instsFor(280 * 1024));
    FuncId parent = program.addFunction("parent");
    Function &fn = program.func(parent);
    fn.callees = {small, big, other};
    BodyOp indirect_call;
    indirect_call.kind = OpKind::CallSite;
    indirect_call.offset = 0;
    indirect_call.length = 2;
    indirect_call.targetIdx = 0;
    indirect_call.indirect = true;
    fn.body.push_back(indirect_call);
    BodyOp direct_call;
    direct_call.kind = OpKind::CallSite;
    direct_call.offset = 1;
    direct_call.length = 1;
    direct_call.targetIdx = 2;
    fn.body.push_back(direct_call);
    BodyOp ret;
    ret.kind = OpKind::Ret;
    ret.offset = 2;
    fn.body.push_back(ret);
    program.layout();

    LinkedImage image = linkAndTag(program);
    EXPECT_TRUE(image.analysis.isEntry(big));
    EXPECT_FALSE(image.analysis.isEntry(small));
    // The indirect call site carries the tag because one of its
    // candidates (big) is an entry.
    EXPECT_TRUE(image.tags.isTagged(fn.instAddr(0)));
}

TEST(LoaderTest, EmptyTagMapSafe)
{
    TagMap tags;
    EXPECT_FALSE(tags.isTagged(0x400000));
    EXPECT_EQ(tags.size(), 0u);
}

TEST(LoaderTest, NoEntriesNoTags)
{
    Program program;
    FuncId leaf = test::addLeaf(program, "leaf", 16);
    test::addCaller(program, "root", {leaf});
    program.layout();
    LinkedImage image = linkAndTag(program);
    EXPECT_TRUE(image.section.taggedInstructions.empty());
    EXPECT_EQ(image.tags.size(), 0u);
}

} // namespace
} // namespace hp
