#include <gtest/gtest.h>

#include "../test_helpers.hh"
#include "binary/program.hh"

namespace hp
{
namespace
{

TEST(ProgramTest, AddFunctionAssignsSequentialIds)
{
    Program program;
    FuncId a = program.addFunction("a");
    FuncId b = program.addFunction("b");
    EXPECT_EQ(a, 0u);
    EXPECT_EQ(b, 1u);
    EXPECT_EQ(program.numFunctions(), 2u);
    EXPECT_EQ(program.func(a).name, "a");
}

TEST(ProgramTest, NumInstsCountsBodySlots)
{
    Program program;
    FuncId leaf = test::addLeaf(program, "leaf", 10);
    EXPECT_EQ(program.func(leaf).numInsts(), 10u);
    EXPECT_EQ(program.func(leaf).sizeBytes(), 40u);
}

TEST(ProgramTest, LayoutAssignsAlignedNonOverlappingAddresses)
{
    Program program;
    FuncId a = test::addLeaf(program, "a", 7);
    FuncId b = test::addLeaf(program, "b", 3);
    program.layout(0x400000);
    ASSERT_TRUE(program.isLaidOut());
    const Function &fa = program.func(a);
    const Function &fb = program.func(b);
    EXPECT_EQ(fa.addr % 16, 0u);
    EXPECT_EQ(fb.addr % 16, 0u);
    EXPECT_GE(fb.addr, fa.addr + fa.sizeBytes());
    EXPECT_GT(program.totalCodeBytes(), 0u);
}

TEST(ProgramTest, LayoutGroupsByModule)
{
    Program program;
    FuncId m1 = test::addLeaf(program, "m1", 4, 1);
    FuncId m0 = test::addLeaf(program, "m0", 4, 0);
    FuncId m1b = test::addLeaf(program, "m1b", 4, 1);
    program.layout();
    // Module 0 first, then module 1 functions contiguously.
    EXPECT_LT(program.func(m0).addr, program.func(m1).addr);
    EXPECT_LT(program.func(m1).addr, program.func(m1b).addr);
}

TEST(ProgramTest, FuncAtResolvesInteriorAddresses)
{
    Program program;
    FuncId a = test::addLeaf(program, "a", 8);
    FuncId b = test::addLeaf(program, "b", 8);
    program.layout();
    const Function &fa = program.func(a);
    EXPECT_EQ(program.funcAt(fa.addr), a);
    EXPECT_EQ(program.funcAt(fa.addr + 4), a);
    EXPECT_EQ(program.funcAt(fa.addr + fa.sizeBytes() - 1), a);
    EXPECT_EQ(program.funcAt(program.func(b).addr), b);
    // Below the image.
    EXPECT_EQ(program.funcAt(0x100), kNoFunc);
}

TEST(ProgramTest, FuncAtAlignmentGap)
{
    Program program;
    FuncId a = test::addLeaf(program, "a", 3); // 12 bytes, padded to 16
    test::addLeaf(program, "b", 3);
    program.layout();
    const Function &fa = program.func(a);
    // The padding byte after a's body belongs to no function.
    EXPECT_EQ(program.funcAt(fa.addr + fa.sizeBytes()), kNoFunc);
}

TEST(ProgramTest, InstAddr)
{
    Program program;
    FuncId a = test::addLeaf(program, "a", 4);
    program.layout();
    const Function &fa = program.func(a);
    EXPECT_EQ(fa.instAddr(0), fa.addr);
    EXPECT_EQ(fa.instAddr(3), fa.addr + 12);
}

TEST(ProgramTest, ValidatePassesOnWellFormedBodies)
{
    Program program;
    FuncId leaf = test::addLeaf(program, "leaf", 6);
    test::addCaller(program, "caller", {leaf});
    program.layout();
    program.validate(); // must not panic
}

TEST(ProgramTest, ValidateRejectsEmptyBody)
{
    // A call into a function with no ops: funcAt cannot find it, and
    // the engine would read its first op past the end of the body.
    Program program;
    FuncId empty = program.addFunction("empty");
    test::addCaller(program, "caller", {empty});
    program.layout();
    EXPECT_DEATH(program.validate(), "function empty has no body");
}

TEST(ProgramDeathTest, ValidateCatchesOffsetGap)
{
    Program program;
    FuncId id = program.addFunction("broken");
    Function &fn = program.func(id);
    BodyOp run;
    run.kind = OpKind::Run;
    run.offset = 5; // gap: first op must start at 0
    run.length = 3;
    fn.body.push_back(run);
    BodyOp ret;
    ret.kind = OpKind::Ret;
    ret.offset = 8;
    fn.body.push_back(ret);
    EXPECT_DEATH(program.validate(), "offset mismatch");
}

TEST(ProgramDeathTest, ValidateCatchesMissingRet)
{
    Program program;
    FuncId id = program.addFunction("noret");
    Function &fn = program.func(id);
    BodyOp run;
    run.kind = OpKind::Run;
    run.offset = 0;
    run.length = 3;
    fn.body.push_back(run);
    EXPECT_DEATH(program.validate(), "does not end in Ret");
}

TEST(ProgramDeathTest, ValidateCatchesBadCallee)
{
    Program program;
    FuncId id = program.addFunction("badcall");
    Function &fn = program.func(id);
    fn.callees = {42}; // no such function
    BodyOp call;
    call.kind = OpKind::CallSite;
    call.offset = 0;
    call.length = 1;
    call.targetIdx = 0;
    fn.body.push_back(call);
    BodyOp ret;
    ret.kind = OpKind::Ret;
    ret.offset = 1;
    fn.body.push_back(ret);
    EXPECT_DEATH(program.validate(), "callee out of range");
}

/** A caller of one leaf; its call site is body op 1. */
Function &
addCallerOfLeaf(Program &program)
{
    FuncId leaf = test::addLeaf(program, "leaf", 4);
    return program.func(test::addCaller(program, "caller", {leaf}));
}

TEST(ProgramDeathTest, ValidateCatchesCandidatesPastCallees)
{
    {
        Program program;
        addCallerOfLeaf(program).body[1].length = 2;
        EXPECT_DEATH(program.validate(),
                     "CallSite candidates run past the callees of caller");
    }
    {
        // A start whose 32-bit sum with the count wraps to 0.
        Program program;
        addCallerOfLeaf(program).body[1].targetIdx = 0xffffffff;
        EXPECT_DEATH(program.validate(),
                     "CallSite candidates run past the callees of caller");
    }
}

TEST(ProgramDeathTest, ValidateCatchesCallSiteWithNoCandidates)
{
    Program program;
    addCallerOfLeaf(program).body[1].length = 0;
    EXPECT_DEATH(program.validate(), "CallSite with no candidates in caller");
}

/** A function "skip": a branch over a run of 4, then a loop back to
 *  that run's start, then Ret. Both targets name op 1. */
Function &
addSkipAndLoop(Program &program)
{
    Function &fn = program.func(program.addFunction("skip"));
    BodyOp branch;
    branch.kind = OpKind::Branch;
    branch.offset = 0;
    branch.length = 2;
    branch.targetIdx = 1;
    fn.body.push_back(branch);
    BodyOp run;
    run.kind = OpKind::Run;
    run.offset = 1;
    run.length = 4;
    fn.body.push_back(run);
    BodyOp loop;
    loop.kind = OpKind::Loop;
    loop.offset = 5;
    loop.length = 4;
    loop.targetIdx = 1;
    fn.body.push_back(loop);
    BodyOp ret;
    ret.kind = OpKind::Ret;
    ret.offset = 6;
    fn.body.push_back(ret);
    return fn;
}

TEST(ProgramTest, ValidatePassesOnResolvedTargets)
{
    Program program;
    addSkipAndLoop(program);
    program.validate(); // must not panic
}

TEST(ProgramDeathTest, ValidateCatchesWrongBranchTarget)
{
    Program program;
    addSkipAndLoop(program).body[0].targetIdx = 2;
    EXPECT_DEATH(program.validate(), "Branch target op mismatch");
}

TEST(ProgramDeathTest, ValidateCatchesWrongLoopTarget)
{
    Program program;
    addSkipAndLoop(program).body[2].targetIdx = 0;
    EXPECT_DEATH(program.validate(), "Loop target op mismatch");
}

TEST(ProgramDeathTest, ValidateCatchesTargetPastTheBody)
{
    Program program;
    addSkipAndLoop(program).body[2].targetIdx = 9;
    EXPECT_DEATH(program.validate(), "Loop target op mismatch");
}

/** A stub @p name: addCaller's body for @p callees with its runs
 *  dropped, so its call sites sit at slots 4, 9, ... and its Ret
 *  after the last. */
FuncId
addStub(Program &program, const std::string &name,
        const std::vector<FuncId> &callees)
{
    Function &fn = program.func(test::addCaller(program, name, callees));
    std::erase_if(fn.body,
                  [](const BodyOp &op) { return op.kind == OpKind::Run; });
    fn.stub = true;
    return fn.id;
}

TEST(ProgramTest, StubKeepsTheSlotsOfItsFullBody)
{
    Program program;
    FuncId leaf = test::addLeaf(program, "leaf", 4);
    FuncId inner = addStub(program, "inner", {leaf, leaf});
    FuncId outer = addStub(program, "outer", {inner});
    program.layout();
    program.validate(leaf); // a stub may call a stub or a non-stub

    const Function &fn = program.func(inner);
    ASSERT_EQ(fn.body.size(), 3u);
    EXPECT_EQ(fn.numInsts(), 11u); // runs of 4, call, 4, call, Ret
    EXPECT_EQ(program.funcAt(fn.instAddr(6)), inner); // a dropped slot
    EXPECT_EQ(program.func(outer).numInsts(), 6u);
}

TEST(ProgramDeathTest, ValidateCatchesStubHoldingOtherOps)
{
    for (OpKind kind : {OpKind::Run, OpKind::Branch, OpKind::Loop}) {
        Program program;
        FuncId leaf = test::addLeaf(program, "leaf", 4);
        program.func(addStub(program, "cold", {leaf})).body[0].kind = kind;
        EXPECT_DEATH(program.validate(),
                     "stub cold holds an op other than CallSite or Ret")
            << static_cast<int>(kind);
    }
}

TEST(ProgramDeathTest, ValidateCatchesCallToStub)
{
    Program program;
    FuncId leaf = test::addLeaf(program, "leaf", 4);
    FuncId cold = addStub(program, "cold", {leaf});
    test::addCaller(program, "caller", {leaf, cold});
    EXPECT_DEATH(program.validate(), "caller calls stub cold");
}

TEST(ProgramDeathTest, ValidateCatchesStubOffsetsNotIncreasing)
{
    for (std::uint32_t offset : {4u, 3u}) {
        // The second call site at the slot of the first, or before it.
        Program program;
        FuncId leaf = test::addLeaf(program, "leaf", 4);
        program.func(addStub(program, "cold", {leaf, leaf})).body[1].offset =
            offset;
        EXPECT_DEATH(program.validate(), "stub offsets do not increase in cold")
            << offset;
    }
}

TEST(ProgramDeathTest, ValidateCatchesStubEntry)
{
    Program program;
    FuncId leaf = test::addLeaf(program, "leaf", 4);
    FuncId cold = addStub(program, "cold", {leaf});
    program.validate(leaf); // must not panic
    EXPECT_DEATH(program.validate(cold), "entry function cold is a stub");
}

} // namespace
} // namespace hp
