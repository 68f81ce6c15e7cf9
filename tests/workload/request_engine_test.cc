#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <set>
#include <string>
#include <unordered_map>

#include "util/serialize.hh"
#include "workload/request_engine.hh"

namespace hp
{
namespace
{

struct EngineFixture : public ::testing::Test
{
    void
    SetUp() override
    {
        profile = &appProfile("caddy");
        app = ProgramBuilder::cached(*profile);
        engine = std::make_unique<RequestEngine>(app, *profile);
    }

    const AppProfile *profile = nullptr;
    std::shared_ptr<const BuiltApp> app;
    std::unique_ptr<RequestEngine> engine;
};

/** The engine's blob as RequestEngine::serializeState writes it: the
 *  RNG's four words, the frames from the bottom, the request type and
 *  the pending marker. */
struct EngineBlob
{
    struct Loop
    {
        std::uint32_t opIdx = 0;
        std::uint16_t remaining = 0;

        template <class Ar>
        void
        serializeState(Ar &ar)
        {
            ar.value(opIdx);
            ar.value(remaining);
        }
    };

    struct Frame
    {
        FuncId func = 0;
        std::uint32_t opIdx = 0;
        std::uint32_t intraRun = 0;
        Addr returnAddr = 0;
        std::vector<Loop> loops;

        template <class Ar>
        void
        serializeState(Ar &ar)
        {
            ar.value(func);
            ar.value(opIdx);
            ar.value(intraRun);
            ar.value(returnAddr);
            io(ar, loops);
        }
    };

    std::array<std::uint64_t, 4> rng{};
    std::vector<Frame> frames;
    unsigned requestType = 0;
    StreamMarker marker = StreamMarker::None;
    std::uint16_t markerArg = 0;

    template <class Ar>
    void
    serializeState(Ar &ar)
    {
        io(ar, rng);
        io(ar, frames);
        ar.value(requestType);
        ar.value(marker);
        ar.value(markerArg);
    }
};

/** @p engine's blob, decoded. */
EngineBlob
decodeEngine(RequestEngine &engine)
{
    StateWriter writer;
    engine.serializeState(writer);
    const std::vector<std::uint8_t> bytes = writer.take();
    EngineBlob blob;
    StateLoader loader(bytes.data(), bytes.size());
    blob.serializeState(loader);
    EXPECT_FALSE(loader.failed());
    EXPECT_EQ(loader.remaining(), 0u);
    return blob;
}

/** Why @p blob does not restore into @p engine, or "" when it does. */
std::string
restoreEngine(RequestEngine &engine, EngineBlob blob)
{
    StateWriter writer;
    blob.serializeState(writer);
    const std::vector<std::uint8_t> bytes = writer.take();
    StateLoader loader(bytes.data(), bytes.size());
    engine.serializeState(loader);
    if (!loader.failed())
        return "";
    return loader.failReason() ? loader.failReason() : "truncated";
}

TEST_F(EngineFixture, RestoreRejectsFramesOutsideTheImage)
{
    // next() indexes the image with each frame's function, op and
    // slot, so a restore must reject a function past the image, a
    // stub, an op past the body and a slot outside the op, with a
    // reason.
    DynInst inst;
    for (int i = 0; i < 1000; ++i)
        ASSERT_TRUE(engine->next(inst));
    ASSERT_FALSE(engine->idle());
    const EngineBlob good = decodeEngine(*engine);
    ASSERT_EQ(good.frames[0].func, app->requestDriver);

    const Program &program = app->program;
    std::uint32_t stub = 0;
    while (stub < program.numFunctions() && !program.func(stub).stub)
        ++stub;
    ASSERT_LT(stub, program.numFunctions());
    const std::uint32_t body = std::uint32_t(
        program.func(app->requestDriver).body.size());

    RequestEngine restored(app, *profile);
    ASSERT_EQ(restoreEngine(restored, good), "");
    const std::function<void(EngineBlob::Frame &)> corruptions[] = {
        [&](EngineBlob::Frame &f) { f.func = program.numFunctions(); },
        [&](EngineBlob::Frame &f) { f.func = stub; },
        [&](EngineBlob::Frame &f) { f.opIdx = body; },
        [&](EngineBlob::Frame &f) { f.intraRun = 1u << 30; }};
    for (std::size_t i = 0; i < std::size(corruptions); ++i) {
        EngineBlob bad = good;
        corruptions[i](bad.frames[0]);
        const std::string why = restoreEngine(restored, bad);
        EXPECT_EQ(why.rfind("request engine: ", 0), 0u)
            << "corruption " << i << ": " << why;
    }
    // A rejected restore leaves no frame to run: the engine starts a
    // new request.
    EXPECT_TRUE(restored.idle());
}

TEST_F(EngineFixture, RestoreRejectsAReturnThatMissesItsCaller)
{
    // A frame's return lands on its caller's next slot. A caller moved
    // to another function whose body still holds its op, or a changed
    // return address, would make the stream jump on that return.
    DynInst inst;
    EngineBlob good;
    for (int i = 0; i < 100'000 && good.frames.size() < 3; ++i) {
        ASSERT_TRUE(engine->next(inst));
        if (i % 97 == 0)
            good = decodeEngine(*engine);
    }
    ASSERT_GE(good.frames.size(), 3u);
    RequestEngine restored(app, *profile);
    ASSERT_EQ(restoreEngine(restored, good), "");

    const char *const kWhy =
        "request engine: a frame does not return where its caller resumes";
    EngineBlob moved = good;
    moved.frames[2].returnAddr += kInstBytes;
    EXPECT_EQ(restoreEngine(restored, moved), kWhy);

    // The middle frame becomes a frame of another function that a
    // request can run and whose body holds the same op (its loops
    // dropped, which alone restores).
    const Program &program = app->program;
    EngineBlob other = good;
    EngineBlob::Frame &caller = other.frames[1];
    caller.loops.clear();
    ASSERT_EQ(restoreEngine(restored, other), "");
    const FuncId from = caller.func;
    for (FuncId f = 0; f < program.numFunctions(); ++f) {
        const Function &fn = program.func(f);
        if (f == from || fn.stub || caller.opIdx >= fn.body.size())
            continue;
        const BodyOp &op = fn.body[caller.opIdx];
        if (op.kind == OpKind::Run ? caller.intraRun < op.length
                                   : caller.intraRun == 0) {
            caller.func = f;
            break;
        }
    }
    ASSERT_NE(caller.func, from);
    EXPECT_EQ(restoreEngine(restored, other), kWhy);
}

TEST_F(EngineFixture, StreamNeverEnds)
{
    DynInst inst;
    for (int i = 0; i < 100000; ++i)
        ASSERT_TRUE(engine->next(inst));
    EXPECT_EQ(engine->stats().instructions, 100000u);
}

TEST_F(EngineFixture, ControlFlowIsWellFormed)
{
    // Calls and returns must nest; the next pc after any instruction
    // must be either sequential or the instruction's target.
    DynInst inst, prev;
    ASSERT_TRUE(engine->next(prev));
    std::vector<Addr> shadow_stack;
    for (int i = 0; i < 200000; ++i) {
        ASSERT_TRUE(engine->next(inst));
        // Check continuity from prev.
        Addr expected = prev.nextFetchPc();
        // The final return of a request jumps to the next request's
        // driver entry; the engine patches its target, so continuity
        // still holds.
        ASSERT_EQ(inst.pc, expected)
            << "discontinuity at instruction " << i;
        if (isCall(prev.kind) && prev.taken)
            shadow_stack.push_back(prev.nextPc());
        if (prev.kind == InstKind::Return && !shadow_stack.empty()) {
            // Return target must match the shadow stack (except the
            // request-final return, which targets the driver).
            if (prev.target != app->program
                                   .func(app->requestDriver).addr) {
                EXPECT_EQ(prev.target, shadow_stack.back());
            }
            shadow_stack.pop_back();
        }
        prev = inst;
    }
}

TEST_F(EngineFixture, DeterministicStreams)
{
    RequestEngine a(app, *profile), b(app, *profile);
    DynInst ia, ib;
    for (int i = 0; i < 50000; ++i) {
        ASSERT_TRUE(a.next(ia));
        ASSERT_TRUE(b.next(ib));
        ASSERT_EQ(ia.pc, ib.pc);
        ASSERT_EQ(ia.taken, ib.taken);
        ASSERT_EQ(static_cast<int>(ia.kind), static_cast<int>(ib.kind));
    }
}

TEST_F(EngineFixture, MarkersDelimitRequestsAndStages)
{
    DynInst inst;
    unsigned requests = 0, stages = 0;
    for (int i = 0; i < 500000; ++i) {
        ASSERT_TRUE(engine->next(inst));
        if (inst.marker == StreamMarker::RequestBegin)
            ++requests;
        else if (inst.marker == StreamMarker::StageBegin) {
            ++stages;
            EXPECT_LT(inst.markerArg, profile->numStages);
        }
    }
    EXPECT_GT(requests, 1u);
    // Each request visits every stage dispatcher once.
    EXPECT_NEAR(double(stages) / requests, profile->numStages,
                double(profile->numStages));
}

TEST_F(EngineFixture, TaggedInstructionsAreCallsOrReturns)
{
    DynInst inst;
    unsigned tagged = 0;
    for (int i = 0; i < 500000; ++i) {
        ASSERT_TRUE(engine->next(inst));
        if (inst.tagged) {
            ++tagged;
            EXPECT_TRUE(isCall(inst.kind) ||
                        inst.kind == InstKind::Return);
            EXPECT_TRUE(app->image.tags.isTagged(inst.pc));
        }
    }
    EXPECT_GT(tagged, 10u);
}

TEST_F(EngineFixture, PcsStayInsideTheirFunctions)
{
    DynInst inst;
    for (int i = 0; i < 100000; ++i) {
        ASSERT_TRUE(engine->next(inst));
        const Function &fn = app->program.func(inst.func);
        ASSERT_GE(inst.pc, fn.addr);
        ASSERT_LT(inst.pc, fn.addr + fn.sizeBytes());
    }
}

TEST_F(EngineFixture, DifferentSeedsProduceDifferentTypeMixes)
{
    AppProfile other = *profile;
    other.requestSeed = profile->requestSeed + 999;
    RequestEngine a(app, *profile), b(app, other);
    DynInst inst;
    std::vector<unsigned> types_a, types_b;
    while (types_a.size() < 10) {
        a.next(inst);
        if (inst.marker == StreamMarker::RequestBegin)
            types_a.push_back(inst.markerArg);
    }
    while (types_b.size() < 10) {
        b.next(inst);
        if (inst.marker == StreamMarker::RequestBegin)
            types_b.push_back(inst.markerArg);
    }
    EXPECT_NE(types_a, types_b);
}

TEST_F(EngineFixture, StableFootprintPerRoutine)
{
    // The same (stage, routine) under the same request type must touch
    // nearly the same blocks across executions — the property Bundles
    // exploit. Collect footprints of stage-1 executions by type.
    DynInst inst;
    // Footprints keyed by (stage, request type).
    std::unordered_map<unsigned, std::vector<std::set<Addr>>> by_type;
    std::set<Addr> current;
    int current_stage = -1;
    unsigned current_type = 0;
    auto close = [&]() {
        if (current_stage >= 0 && current.size() > 4) {
            by_type[unsigned(current_stage) * 1000 + current_type]
                .push_back(current);
        }
        current.clear();
    };
    for (int i = 0; i < 5000000; ++i) {
        ASSERT_TRUE(engine->next(inst));
        if (inst.marker == StreamMarker::RequestBegin ||
            inst.marker == StreamMarker::StageBegin) {
            close();
            current_stage =
                inst.marker == StreamMarker::StageBegin
                    ? inst.markerArg : -1;
            // A RequestBegin marker carries the request's type.
            if (inst.marker == StreamMarker::RequestBegin)
                current_type = inst.markerArg;
        }
        if (current_stage >= 0)
            current.insert(blockAlign(inst.pc));
    }
    close();

    unsigned compared = 0;
    double jaccard_sum = 0.0;
    for (const auto &[type, footprints] : by_type) {
        for (std::size_t i = 1; i < footprints.size(); ++i) {
            const auto &a = footprints[i - 1];
            const auto &b = footprints[i];
            std::size_t inter = 0;
            for (Addr blk : b)
                inter += a.count(blk);
            std::size_t uni = a.size() + b.size() - inter;
            if (uni == 0)
                continue;
            jaccard_sum += double(inter) / double(uni);
            ++compared;
        }
    }
    ASSERT_GT(compared, 3u);
    EXPECT_GT(jaccard_sum / compared, 0.75);
}

} // namespace
} // namespace hp
