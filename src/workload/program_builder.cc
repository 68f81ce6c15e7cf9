#include "workload/program_builder.hh"

#include <algorithm>

#include "util/logging.hh"
#include "util/once_map.hh"
#include "util/rng.hh"

namespace hp
{

namespace
{

/** A call the body generator must place. */
struct PlannedCall
{
    std::vector<FuncId> candidates;
    std::uint8_t prob = 100;
    std::uint8_t jitter = 0;
    bool indirect = false;
    bool inLoop = false;
};

/** Loop request for the body generator. */
struct LoopPlan
{
    bool enabled = false;
    std::uint16_t meanIter = 0;
};

/**
 * Buffers a body and its callee list are generated into, reused from
 * function to function, so each function allocates its own body and
 * callees once, at their final size.
 */
struct BodyScratch
{
    std::vector<BodyOp> ops;
    std::vector<FuncId> callees;
};

/**
 * Emits a function body of roughly @p target_insts instructions:
 * interleaved instruction runs, biased skip branches, the planned call
 * sites, and optionally a row-processing loop containing the calls
 * marked inLoop.
 */
class BodyMaker
{
  public:
    BodyMaker(Function &fn, BodyScratch &scratch, Rng &rng,
              const AppProfile &profile)
        : fn_(fn), ops_(scratch.ops), callees_(scratch.callees), rng_(rng),
          profile_(profile)
    {
        ops_.clear();
        callees_.clear();
    }

    void
    make(std::uint32_t target_insts, std::vector<PlannedCall> calls,
         const LoopPlan &loop)
    {
        std::vector<PlannedCall> pre, in, post;
        for (auto &call : calls) {
            if (loop.enabled && call.inLoop)
                in.push_back(std::move(call));
            else if (rng_.nextBool(0.5))
                pre.push_back(std::move(call));
            else
                post.push_back(std::move(call));
        }

        // Reserve roughly a third of the body for each section.
        std::uint32_t section = std::max<std::uint32_t>(
            target_insts / (loop.enabled ? 3 : 2), 24);

        emitSection(section, pre);
        if (loop.enabled) {
            std::uint32_t loop_start = cursor_;
            const std::size_t loop_first = ops_.size();
            emitSection(section, in);
            std::uint32_t span = cursor_ - loop_start;
            if (span > 0) {
                BodyOp op;
                op.kind = OpKind::Loop;
                op.offset = cursor_;
                op.length = span;
                op.targetIdx = static_cast<std::uint32_t>(loop_first);
                op.biasTaken = 100;
                op.meanIter = loop.meanIter;
                ops_.push_back(op);
                ++cursor_;
            }
        }
        emitSection(section, post);

        BodyOp ret;
        ret.kind = OpKind::Ret;
        ret.offset = cursor_;
        ops_.push_back(ret);
        ++cursor_;

        // A stub is generated in full, so the RNG draws and every slot
        // offset stay those of the full body, but keeps only what the
        // call graph and the loader read.
        if (fn_.stub) {
            std::erase_if(ops_, [](const BodyOp &op) {
                return op.kind != OpKind::CallSite && op.kind != OpKind::Ret;
            });
        }
        fn_.body.assign(ops_.begin(), ops_.end());
        fn_.callees.assign(callees_.begin(), callees_.end());
    }

  private:
    /** Emits ~insts instructions plus all of the given call sites. */
    void
    emitSection(std::uint32_t insts, const std::vector<PlannedCall> &calls)
    {
        std::uint32_t emitted = 0;
        std::size_t next_call = 0;
        std::uint32_t call_gap = static_cast<std::uint32_t>(
            insts / (calls.size() + 1));

        while (emitted < insts || next_call < calls.size()) {
            if (next_call < calls.size() &&
                emitted >= call_gap * (next_call + 1)) {
                emitCall(calls[next_call]);
                ++next_call;
                continue;
            }
            if (emitted >= insts) {
                // Runs exhausted but calls remain: emit them back to
                // back with small separators.
                emitRun(4);
                emitted += 4;
                continue;
            }
            std::uint32_t len = static_cast<std::uint32_t>(
                rng_.nextSkewed(6, 26));
            len = std::min(len, insts - emitted + 4);
            if (len >= 8 && rng_.nextBool(0.6)) {
                emitBranchOverRun(len);
            } else {
                emitRun(len);
            }
            emitted += len;

            // Small inner loops (string scans, row filters): they add
            // dynamic instructions and I-cache reuse without growing
            // the footprint, like real server code.
            if (len >= 10 && rng_.nextBool(0.15)) {
                // Back to the start of the run just emitted.
                BodyOp loop;
                loop.kind = OpKind::Loop;
                loop.offset = cursor_;
                loop.length = len;
                loop.targetIdx =
                    static_cast<std::uint32_t>(ops_.size() - 1);
                loop.biasTaken = 100;
                loop.meanIter = static_cast<std::uint16_t>(
                    rng_.nextRange(2, 5));
                ops_.push_back(loop);
                ++cursor_;
                ++emitted;
            }
        }
    }

    void
    emitRun(std::uint32_t len)
    {
        BodyOp op;
        op.kind = OpKind::Run;
        op.offset = cursor_;
        op.length = len;
        ops_.push_back(op);
        cursor_ += len;
    }

    /** A conditional branch that skips part of the following run. */
    void
    emitBranchOverRun(std::uint32_t run_len)
    {
        std::uint32_t span = static_cast<std::uint32_t>(
            rng_.nextRange(3, std::max<std::int64_t>(3, run_len - 1)));

        // The target lies inside the run that follows the branch.
        BodyOp branch;
        branch.kind = OpKind::Branch;
        branch.offset = cursor_;
        branch.length = span;
        branch.targetIdx = static_cast<std::uint32_t>(ops_.size() + 1);
        // Mostly strongly biased branches, some moderately biased —
        // the mix real compilers/profiles produce.
        if (rng_.nextBool(0.7)) {
            branch.biasTaken = rng_.nextBool(0.5) ? 88 : 8;
        } else {
            branch.biasTaken = static_cast<std::uint8_t>(
                rng_.nextRange(45, 75));
        }
        branch.jitter = static_cast<std::uint8_t>(profile_.branchJitter);
        ops_.push_back(branch);
        ++cursor_;

        emitRun(run_len);
    }

    void
    emitCall(const PlannedCall &call)
    {
        panicIf(call.candidates.empty(), "planned call with no callees");
        BodyOp op;
        op.kind = OpKind::CallSite;
        op.offset = cursor_;
        op.length = static_cast<std::uint32_t>(call.candidates.size());
        op.targetIdx = static_cast<std::uint32_t>(callees_.size());
        op.execProb = call.prob;
        op.execJitter = call.jitter;
        op.indirect = call.indirect;
        callees_.insert(callees_.end(), call.candidates.begin(),
                        call.candidates.end());
        ops_.push_back(op);
        ++cursor_;
    }

    Function &fn_;
    std::vector<BodyOp> &ops_;
    std::vector<FuncId> &callees_;
    Rng &rng_;
    const AppProfile &profile_;
    std::uint32_t cursor_ = 0;
};

/** Module numbering: stable layout groups. */
enum ModuleId : std::uint16_t
{
    kModDriver = 0,
    kModUtils = 1,
    kModKernel = 2,
    kModStagesBase = 3,
    // Cold libraries follow the stage modules.
};

/** Builds the whole application; see the header for the shape. */
class BuilderImpl
{
  public:
    BuilderImpl(const AppProfile &profile)
        : profile_(profile), rng_(profile.binarySeed)
    {}

    BuiltApp
    build()
    {
        BuiltApp app;
        app.profile = &profile_;

        buildUtils();
        buildKernel(app);
        buildStages(app);
        buildDriver(app);
        buildColdLibraries();

        app.program = std::move(program_);
        app.program.layout();
        app.program.validate(app.requestDriver);
        app.image = linkAndTag(app.program);
        return app;
    }

  private:
    /**
     * The cold libraries' modules follow the stage modules. They are
     * built last, and a planned call names only functions that exist,
     * so no request can reach them: their functions are stubs.
     */
    std::uint16_t
    firstColdModule() const
    {
        return static_cast<std::uint16_t>(kModStagesBase +
                                          profile_.numStages);
    }

    /** Draws a function size in instructions from the profile range. */
    std::uint32_t
    drawSize()
    {
        return static_cast<std::uint32_t>(
            rng_.nextSkewed(profile_.funcInstsMin, profile_.funcInstsMax));
    }

    FuncId
    makeFunc(const std::string &name, std::uint16_t module,
             std::uint32_t insts, std::vector<PlannedCall> calls,
             const LoopPlan &loop = {})
    {
        FuncId id = program_.addFunction(name, module);
        Function &fn = program_.func(id);
        fn.stub = module >= firstColdModule();
        BodyMaker maker(fn, scratch_, rng_, profile_);
        maker.make(insts, std::move(calls), loop);
        return id;
    }

    /** Utility calls into @p pool: a stable per-site subset. */
    std::vector<PlannedCall>
    drawPoolCalls(const std::vector<FuncId> &pool, unsigned count,
                  double prob_scale = 1.0)
    {
        std::vector<PlannedCall> calls;
        for (unsigned i = 0; i < count; ++i) {
            PlannedCall call;
            call.candidates = {pool[rng_.nextUint(pool.size())]};
            call.prob = static_cast<std::uint8_t>(
                std::clamp<int>(int(rng_.nextRange(20, 90) * prob_scale),
                                5, 100));
            call.jitter = static_cast<std::uint8_t>(profile_.callJitter);
            calls.push_back(std::move(call));
        }
        return calls;
    }

    /** Utility calls into the shared runtime pool. */
    std::vector<PlannedCall>
    drawUtilCalls(unsigned count, double prob_scale = 1.0)
    {
        return drawPoolCalls(utils_, count, prob_scale);
    }

    /**
     * A pool of mutually-calling helper functions (shallow chains:
     * each may call 0..2 later pool members).
     */
    std::vector<FuncId>
    buildPool(const std::string &prefix, std::uint16_t module,
              unsigned count)
    {
        std::vector<FuncId> pool(count);
        std::vector<std::uint32_t> sizes(count);
        for (auto &s : sizes)
            s = drawSize();
        for (unsigned i = count; i-- > 0;) {
            std::vector<PlannedCall> calls;
            unsigned fanout = static_cast<unsigned>(rng_.nextUint(3));
            for (unsigned c = 0; c < fanout && i + 1 < count; ++c) {
                PlannedCall call;
                unsigned callee = i + 1 + static_cast<unsigned>(
                    rng_.nextUint(count - i - 1));
                call.candidates = {pool[callee]};
                call.prob = static_cast<std::uint8_t>(
                    rng_.nextRange(20, 50));
                call.jitter = static_cast<std::uint8_t>(
                    profile_.callJitter);
                calls.push_back(std::move(call));
            }
            pool[i] = makeFunc(prefix + std::to_string(i), module,
                               sizes[i], std::move(calls));
        }
        return pool;
    }

    /**
     * Shared runtime/utility pool: shallow chains (a utility may call
     * 0..2 later utilities), heavily shared by all routines.
     */
    void
    buildUtils()
    {
        utils_ = buildPool("util_", kModUtils, profile_.sharedUtilFuncs);
    }

    /** Kernel/OS noise routines (timer tick, network poll). */
    void
    buildKernel(BuiltApp &app)
    {
        // Interrupt handlers are small and hot: they perturb the
        // fine-grained access stream without dominating any Bundle's
        // footprint.
        for (unsigned k = 0; k < 3; ++k) {
            std::vector<FuncId> leaves;
            for (unsigned i = 0; i < 3; ++i) {
                leaves.push_back(makeFunc(
                    "irq" + std::to_string(k) + "_leaf" +
                        std::to_string(i),
                    kModKernel,
                    40 + static_cast<std::uint32_t>(rng_.nextUint(80)),
                    {}));
            }
            std::vector<PlannedCall> calls;
            for (FuncId leaf : leaves) {
                PlannedCall call;
                call.candidates = {leaf};
                call.prob = static_cast<std::uint8_t>(
                    rng_.nextRange(50, 100));
                call.jitter = 20; // kernel paths vary a lot
                calls.push_back(std::move(call));
            }
            app.irqRoutines.push_back(makeFunc(
                "irq" + std::to_string(k) + "_top", kModKernel,
                60 + static_cast<std::uint32_t>(rng_.nextUint(100)),
                std::move(calls)));
        }
    }

    /**
     * One functionality routine: a call tree of dedicated functions
     * (depth ~3) plus shared utility calls; heavy stages get a
     * row-processing loop in the routine root.
     */
    FuncId
    buildRoutine(const std::string &name, std::uint16_t module,
                 bool heavy, const std::vector<FuncId> &pool,
                 unsigned budget)
    {

        // Leaves first, then internal nodes referencing them.
        unsigned leaves = std::max(budget / 2, 4u);
        unsigned internals = std::max(budget - leaves - 1, 2u);

        // "Rare" helper calls (low execution probability) model the
        // error/slow paths of real code: they add little dynamic
        // footprint but pull large subgraphs into the static reachable
        // size, keeping the static/dynamic footprint ratio at the
        // paper's 3-10x.
        auto with_rare = [this, &pool](std::vector<PlannedCall> calls) {
            auto rare = drawPoolCalls(pool, 2 + rng_.nextUint(2), 0.12);
            calls.insert(calls.end(), rare.begin(), rare.end());
            return calls;
        };

        std::vector<FuncId> leaf_funcs;
        for (unsigned i = 0; i < leaves; ++i) {
            leaf_funcs.push_back(makeFunc(
                name + "_leaf" + std::to_string(i), module, drawSize(),
                with_rare(drawPoolCalls(pool, 1 + rng_.nextUint(2),
                                        0.5))));
        }

        std::vector<FuncId> internal_funcs;
        for (unsigned i = 0; i < internals; ++i) {
            std::vector<PlannedCall> calls;
            unsigned fanout = 2 + static_cast<unsigned>(rng_.nextUint(3));
            for (unsigned c = 0; c < fanout; ++c) {
                PlannedCall call;
                call.candidates = {
                    leaf_funcs[rng_.nextUint(leaf_funcs.size())]};
                call.prob = static_cast<std::uint8_t>(
                    rng_.nextRange(55, 95));
                call.jitter = static_cast<std::uint8_t>(
                    profile_.callJitter);
                calls.push_back(std::move(call));
            }
            auto util_calls = drawPoolCalls(pool, 1 + rng_.nextUint(2),
                                            0.45);
            calls.insert(calls.end(), util_calls.begin(),
                         util_calls.end());
            internal_funcs.push_back(makeFunc(
                name + "_node" + std::to_string(i), module, drawSize(),
                with_rare(std::move(calls))));
        }

        // Root: prologue internals + per-row loop over a subset.
        std::vector<PlannedCall> calls;
        for (unsigned i = 0; i < internal_funcs.size(); ++i) {
            PlannedCall call;
            call.candidates = {internal_funcs[i]};
            call.prob = static_cast<std::uint8_t>(
                rng_.nextRange(60, 100));
            call.jitter = static_cast<std::uint8_t>(profile_.callJitter);
            // Roughly a third of the internal nodes form the per-row
            // work in heavy stages.
            call.inLoop = heavy && (i % 3 == 0);
            calls.push_back(std::move(call));
        }
        LoopPlan loop;
        loop.enabled = heavy;
        loop.meanIter = static_cast<std::uint16_t>(
            (profile_.rowsMin + profile_.rowsMax) / 2);
        return makeFunc(name + "_root", module, drawSize(),
                        std::move(calls), loop);
    }

    /** All stages: routines plus the per-stage indirect dispatcher. */
    void
    buildStages(BuiltApp &app)
    {
        fatalIf(profile_.routinesPerStage.size() != profile_.numStages,
                profile_.name + ": routinesPerStage size mismatch");
        app.stageRoutines.resize(profile_.numStages);
        for (unsigned s = 0; s < profile_.numStages; ++s) {
            std::uint16_t module =
                static_cast<std::uint16_t>(kModStagesBase + s);
            unsigned n_routines = profile_.routinesPerStage[s];
            // Middle stages do the heavy per-row work.
            bool heavy = s > 0 && s + 1 < profile_.numStages;

            for (unsigned r = 0; r < n_routines; ++r) {
                // Appended, not `"s" + ...`: GCC 12 at -O3 reports a
                // false -Wrestrict inside operator+(const char *,
                // std::string &&).
                std::string name = "s";
                name += std::to_string(s);
                name += "_r";
                name += std::to_string(r);
                app.stageRoutines[s].push_back(buildRoutine(
                    name, module, heavy, utils_, profile_.funcsPerRoutine));
            }

            // Dispatcher: glue plus one indirect call that diverges
            // into the routines (the Bundle divergence point).
            std::vector<PlannedCall> calls = drawUtilCalls(2, 0.5);
            PlannedCall dispatch;
            dispatch.candidates = app.stageRoutines[s];
            dispatch.prob = 100;
            dispatch.jitter = 0;
            dispatch.indirect = app.stageRoutines[s].size() > 1;
            calls.push_back(std::move(dispatch));
            app.dispatchers.push_back(makeFunc(
                "stage" + std::to_string(s) + "_dispatch", module,
                drawSize() / 2 + 24, std::move(calls)));
        }
    }

    /** The per-request driver: calls each dispatcher in order. */
    void
    buildDriver(BuiltApp &app)
    {
        std::vector<PlannedCall> calls;
        for (unsigned s = 0; s < profile_.numStages; ++s) {
            // Framework glue before each stage.
            auto glue = drawUtilCalls(1, 0.6);
            calls.insert(calls.end(), glue.begin(), glue.end());

            PlannedCall stage;
            stage.candidates = {app.dispatchers[s]};
            stage.prob = 100;
            calls.push_back(std::move(stage));

            if (profile_.irqProbPercent > 0 && !app.irqRoutines.empty()) {
                PlannedCall irq;
                irq.candidates = {app.irqRoutines[
                    rng_.nextUint(app.irqRoutines.size())]};
                irq.prob = static_cast<std::uint8_t>(
                    profile_.irqProbPercent);
                irq.jitter = 50; // effectively random occurrence
                calls.push_back(std::move(irq));
            }
        }
        app.requestDriver = makeFunc("request_driver", kModDriver,
                                     drawSize(), std::move(calls));
    }

    /**
     * Cold library code: static call-graph mass that never executes.
     * Each library is a small tree whose root and large interior nodes
     * become static Bundles, matching the Table 4 function/Bundle
     * counts. Every function here is a stub (see firstColdModule).
     */
    void
    buildColdLibraries()
    {
        // Each library mirrors the hot structure: a local helper pool,
        // several "feature" subtrees (the divergence branches Algorithm
        // 1 discovers), and a library root. These never execute — they
        // exist so the static call graph has the function/Bundle mass
        // of a real server binary (Table 4).
        for (unsigned lib = 0; lib < profile_.coldLibraries; ++lib) {
            std::uint16_t lib_module =
                static_cast<std::uint16_t>(firstColdModule() + lib);
            std::string prefix = "lib" + std::to_string(lib);

            auto pool = buildPool(prefix + "_h", lib_module,
                                  profile_.coldPoolFuncs);
            // Cold code links against the shared runtime too; these
            // edges give cold features realistic reachable sizes.
            pool.insert(pool.end(), utils_.begin(), utils_.end());

            unsigned n_features = std::max(1u,
                profile_.featuresPerColdLibrary / 2 +
                static_cast<unsigned>(rng_.nextUint(
                    profile_.featuresPerColdLibrary + 1)));
            std::vector<PlannedCall> root_calls;
            for (unsigned f = 0; f < n_features; ++f) {
                FuncId feature = buildRoutine(
                    prefix + "_feat" + std::to_string(f), lib_module,
                    /*heavy=*/false, pool, profile_.funcsPerColdFeature);
                PlannedCall call;
                call.candidates = {feature};
                call.prob = 70;
                root_calls.push_back(std::move(call));
            }
            makeFunc(prefix + "_root", lib_module, drawSize(),
                     std::move(root_calls));
        }
    }

    const AppProfile &profile_;
    Rng rng_;
    Program program_;
    BodyScratch scratch_;
    std::vector<FuncId> utils_;
};

} // namespace

std::shared_ptr<const BuiltApp>
ProgramBuilder::build(const AppProfile &profile)
{
    BuilderImpl impl(profile);
    auto app = std::make_shared<BuiltApp>(impl.build());
    return app;
}

std::shared_ptr<const BuiltApp>
ProgramBuilder::cached(const AppProfile &profile)
{
    // Concurrent first requests for a binary block on one build, while
    // different binaries build in parallel.
    static OnceMap<std::string, std::shared_ptr<const BuiltApp>> apps;
    return apps.get(profile.binary, [&profile] { return build(profile); });
}

} // namespace hp
