#include <gtest/gtest.h>

#include <set>

#include "prefetch/efetch.hh"

namespace hp
{
namespace
{

DynInst
call(Addr pc, Addr target)
{
    DynInst inst;
    inst.pc = pc;
    inst.kind = InstKind::Call;
    inst.taken = true;
    inst.target = target;
    return inst;
}

DynInst
ret(Addr pc, Addr target)
{
    DynInst inst;
    inst.pc = pc;
    inst.kind = InstKind::Return;
    inst.taken = true;
    inst.target = target;
    return inst;
}

DynInst
plain(Addr pc)
{
    DynInst inst;
    inst.pc = pc;
    inst.kind = InstKind::Plain;
    return inst;
}

std::vector<Addr>
drainQueue(Prefetcher &pf)
{
    std::vector<Addr> blocks;
    Addr block;
    while (pf.popRequest(block))
        blocks.push_back(block);
    return blocks;
}

/** One call sequence A -> B -> C with returns, twice. */
void
playSequence(EFetch &pf, Cycle &now)
{
    pf.onCommit(call(0x1000, 0x10000), 1, now++); // A calls B
    for (int i = 0; i < 8; ++i)
        pf.onCommit(plain(0x10000 + i * 4), 1, now++);
    pf.onCommit(call(0x10020, 0x20000), 1, now++); // B calls C
    for (int i = 0; i < 8; ++i)
        pf.onCommit(plain(0x20000 + i * 4), 1, now++);
    pf.onCommit(ret(0x20020, 0x10024), 1, now++);
    pf.onCommit(ret(0x10024, 0x1004), 1, now++);
}

TEST(EFetchTest, PredictsNextCalleeAfterTraining)
{
    EFetch pf;
    Cycle now = 0;
    playSequence(pf, now);
    drainQueue(pf);
    // Second pass: after the A->B call, the signature must predict the
    // B->C call and prefetch C's entry blocks.
    pf.onCommit(call(0x1000, 0x10000), 1, now++);
    auto blocks = drainQueue(pf);
    std::set<Addr> unique(blocks.begin(), blocks.end());
    EXPECT_TRUE(unique.count(blockAlign(0x20000)));
}

TEST(EFetchTest, FootprintVectorsCoverCalleeBody)
{
    EFetch pf;
    Cycle now = 0;
    // Training pass: A calls B; inside B a call to C follows, and C
    // touches 3 blocks of its body.
    pf.onCommit(call(0x1000, 0x10000), 1, now++);  // A -> B
    pf.onCommit(call(0x10020, 0x20000), 1, now++); // B -> C
    for (int b = 0; b < 3; ++b)
        pf.onCommit(plain(0x20000 + b * kBlockBytes), 1, now++);
    pf.onCommit(ret(0x200c0, 0x10024), 1, now++);
    pf.onCommit(ret(0x10024, 0x1004), 1, now++);
    drainQueue(pf);

    // Second pass: at the A->B call, EFetch predicts the B->C call and
    // must prefetch every learned footprint block of C, not just its
    // entry block.
    pf.onCommit(call(0x1000, 0x10000), 1, now++);
    auto blocks = drainQueue(pf);
    std::set<Addr> unique(blocks.begin(), blocks.end());
    for (int b = 0; b < 3; ++b)
        EXPECT_TRUE(unique.count(blockAlign(0x20000) +
                                 Addr(b) * kBlockBytes))
            << "block " << b;
}

TEST(EFetchTest, NoPredictionWithoutTraining)
{
    EFetch pf;
    pf.onCommit(call(0x9000, 0x90000), 1, 0);
    auto blocks = drainQueue(pf);
    EXPECT_TRUE(blocks.empty());
}

TEST(EFetchTest, LookaheadIssuesMoreCallees)
{
    EFetchConfig deep;
    deep.lookahead = 3;
    EFetch pf_deep(deep);
    EFetch pf_shallow;

    Cycle now = 0;
    for (int pass = 0; pass < 3; ++pass) {
        Cycle n2 = now;
        playSequence(pf_deep, now);
        playSequence(pf_shallow, n2);
    }
    drainQueue(pf_deep);
    drainQueue(pf_shallow);
    Cycle n3 = now;
    pf_deep.onCommit(call(0x1000, 0x10000), 1, now++);
    pf_shallow.onCommit(call(0x1000, 0x10000), 1, n3);
    EXPECT_GE(drainQueue(pf_deep).size(),
              drainQueue(pf_shallow).size());
}

TEST(EFetchTest, StorageWithinPaperClass)
{
    EFetch pf;
    double kb = double(pf.storageBits()) / 8.0 / 1024.0;
    // The paper says "under 40KB"; the reimplementation's explicit
    // accounting lands in the tens-of-KB class.
    EXPECT_GT(kb, 10.0);
    EXPECT_LT(kb, 150.0);
}

TEST(EFetchTest, DeepCallStackBounded)
{
    EFetch pf;
    Cycle now = 0;
    // 1000 nested calls must not blow memory or crash.
    for (int i = 0; i < 1000; ++i)
        pf.onCommit(call(0x1000 + i * 4, 0x100000 + i * 0x100), 1, now++);
    for (int i = 0; i < 1000; ++i)
        pf.onCommit(ret(0x100000 + i * 0x100, 0x1004 + i * 4), 1, now++);
    SUCCEED();
}

} // namespace
} // namespace hp
