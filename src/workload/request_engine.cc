#include "workload/request_engine.hh"

#include "util/serialize.hh"

#include <algorithm>

#include "util/hash.hh"
#include "util/logging.hh"

namespace hp
{

RequestEngine::RequestEngine(std::shared_ptr<const BuiltApp> app,
                             const AppProfile &profile)
    : app_(std::move(app)),
      profile_(profile),
      rng_(profile.requestSeed),
      typeSampler_(profile.requestTypes, profile.typeZipfTheta)
{
    fatalIf(app_ == nullptr, "RequestEngine needs a built app");
    for (std::size_t s = 0; s < app_->dispatchers.size(); ++s) {
        dispatcherStage_[app_->dispatchers[s]] =
            static_cast<std::uint16_t>(s);
    }
}

void
RequestEngine::pushFrame(FuncId func, Addr return_addr)
{
    Frame frame;
    frame.func = func;
    frame.returnAddr = return_addr;
    frames_.push_back(std::move(frame));

    if (const std::uint16_t *stage = dispatcherStage_.find(func)) {
        pendingMarker_ = StreamMarker::StageBegin;
        pendingMarkerArg_ = *stage;
    }
}

void
RequestEngine::startRequest()
{
    requestType_ = static_cast<unsigned>(typeSampler_.sample(rng_));
    ++stats_.requests;
    pushFrame(app_->requestDriver, 0);
    pendingMarker_ = StreamMarker::RequestBegin;
    pendingMarkerArg_ = static_cast<std::uint16_t>(requestType_);
}

bool
RequestEngine::decide(Addr pc, unsigned bias, unsigned jitter)
{
    // Most sites have an outcome stable across every execution of the
    // containing functionality; a profile-controlled fraction also
    // depends on the request type (e.g. insert vs update paths inside
    // shared code). A small per-evaluation jitter injects the paper's
    // intra-Bundle control-flow variation.
    std::uint64_t salt = 0;
    if ((mix64(pc * 0x5851f42d4c957f2dULL) % 100) <
        profile_.typeSensitivePercent) {
        salt = std::uint64_t(requestType_) + 1;
    }
    bool stable =
        (mix64(pc ^ (salt * 0x9e3779b97f4a7c15ULL)) % 100) < bias;
    if (jitter > 0 && rng_.nextBool(jitter / 100.0))
        return !stable;
    return stable;
}

void
RequestEngine::seek(Frame &frame, const BodyOp &op, std::uint32_t slot)
{
    // The builder resolved the op holding the target (BodyOp::targetIdx).
    const BodyOp &target = app_->program.func(frame.func).body[op.targetIdx];
    frame.opIdx = op.targetIdx;
    frame.intraRun =
        target.kind == OpKind::Run ? slot - target.offset : 0;
}

std::uint64_t
RequestEngine::next(DynInst &inst, std::uint64_t max)
{
    panicIf(max == 0, "RequestEngine::next needs max >= 1");
    if (frames_.empty())
        startRequest();

    Frame &frame = frames_.back();
    const Function &fn = app_->program.func(frame.func);
    const BodyOp &op = fn.body[frame.opIdx];

    std::uint64_t n = 1;
    inst = DynInst{};
    inst.func = frame.func;
    if (pendingMarker_ != StreamMarker::None) {
        inst.marker = pendingMarker_;
        inst.markerArg = pendingMarkerArg_;
        pendingMarker_ = StreamMarker::None;
    }

    switch (op.kind) {
      case OpKind::Run: {
        // The rest of the op is straight-line code: hand out as much
        // of it as the caller takes.
        inst.pc = fn.instAddr(op.offset + frame.intraRun);
        inst.kind = InstKind::Plain;
        n = std::min<std::uint64_t>(max, op.length - frame.intraRun);
        frame.intraRun += static_cast<std::uint32_t>(n);
        if (frame.intraRun >= op.length) {
            frame.intraRun = 0;
            ++frame.opIdx;
        }
        break;
      }

      case OpKind::Branch: {
        Addr pc = fn.instAddr(op.offset);
        bool taken = decide(pc, op.biasTaken, op.jitter);
        inst.pc = pc;
        inst.kind = InstKind::CondBranch;
        inst.taken = taken;
        inst.target = fn.instAddr(op.offset + 1 + op.length);
        ++stats_.condBranches;
        if (taken)
            seek(frame, op, op.offset + 1 + op.length);
        else
            ++frame.opIdx;
        break;
      }

      case OpKind::Loop: {
        Addr pc = fn.instAddr(op.offset);
        auto it = std::find_if(
            frame.loops.begin(), frame.loops.end(),
            [&frame](const LoopState &ls) {
                return ls.opIdx == frame.opIdx;
            });
        if (it == frame.loops.end()) {
            // First arrival: trip counts are stable per site (data
            // structures have characteristic sizes), deviating only
            // occasionally — so loop exits are learnable by TAGE, as
            // in real code.
            std::uint16_t mean = std::max<std::uint16_t>(op.meanIter, 1);
            std::uint32_t lo = std::max<std::uint32_t>(1,
                mean - mean / 3);
            std::uint32_t hi = mean + mean / 3;
            std::uint32_t span_i = hi - lo + 1;
            std::uint32_t trips = lo + static_cast<std::uint32_t>(
                mix64(pc * 0x9e3779b97f4a7c15ULL) % span_i);
            if (rng_.nextBool(0.10)) {
                trips += (rng_.nextBool(0.5) && trips > lo) ? -1 : 1;
            }
            LoopState ls;
            ls.opIdx = frame.opIdx;
            ls.remaining = static_cast<std::uint16_t>(trips);
            frame.loops.push_back(ls);
            it = frame.loops.end() - 1;
        }
        inst.pc = pc;
        inst.kind = InstKind::CondBranch;
        inst.target = fn.instAddr(op.offset - op.length);
        ++stats_.condBranches;
        if (it->remaining > 0) {
            --it->remaining;
            inst.taken = true;
            seek(frame, op, op.offset - op.length);
        } else {
            inst.taken = false;
            frame.loops.erase(it);
            ++frame.opIdx;
        }
        break;
      }

      case OpKind::CallSite: {
        Addr pc = fn.instAddr(op.offset);
        bool execute = decide(pc, op.execProb, op.execJitter) &&
                       frames_.size() < kMaxDepth;
        ++frame.opIdx;
        if (!execute) {
            // The guard skipped the call; the slot still executes as a
            // (not-taken) test instruction.
            inst.pc = pc;
            inst.kind = InstKind::Plain;
            break;
        }
        const std::span<const FuncId> candidates = fn.candidates(op);
        std::size_t pick = 0;
        if (candidates.size() > 1) {
            pick = static_cast<std::size_t>(
                mix64(pc ^ (std::uint64_t(requestType_) *
                            0xc2b2ae3d27d4eb4fULL)) %
                candidates.size());
        }
        FuncId callee = candidates[pick];
        inst.pc = pc;
        inst.kind = op.indirect ? InstKind::IndirectCall : InstKind::Call;
        inst.taken = true;
        inst.target = app_->program.func(callee).addr;
        inst.tagged = app_->image.tags.isTagged(pc);
        ++stats_.calls;
        if (inst.tagged)
            ++stats_.taggedInsts;
        pushFrame(callee, pc + kInstBytes);
        break;
      }

      case OpKind::Ret: {
        Addr pc = fn.instAddr(op.offset);
        inst.pc = pc;
        inst.kind = InstKind::Return;
        inst.taken = true;
        inst.target = frame.returnAddr;
        inst.tagged = app_->image.tags.isTagged(pc);
        ++stats_.returns;
        if (inst.tagged)
            ++stats_.taggedInsts;
        frames_.pop_back();
        if (frames_.empty()) {
            // Request complete; target of the final return is the
            // next request's first instruction. Patch it to the
            // driver entry so control flow stays well-formed.
            inst.target = app_->program.func(app_->requestDriver).addr;
        }
        break;
      }
    }

    stats_.instructions += n;
    return n;
}

Addr
RequestEngine::framePc(const Frame &frame) const
{
    const Function &fn = app_->program.func(frame.func);
    const BodyOp &op = fn.body[frame.opIdx];
    return fn.instAddr(op.offset +
                       (op.kind == OpKind::Run ? frame.intraRun : 0));
}

Addr
RequestEngine::resumePc() const
{
    if (!frames_.empty())
        return framePc(frames_.back());
    Frame start; // the frame startRequest() pushes
    start.func = app_->requestDriver;
    return framePc(start);
}

const char *
RequestEngine::checkFrames() const
{
    if (frames_.size() > kMaxDepth)
        return "request engine: more frames than kMaxDepth";
    const Program &program = app_->program;
    for (std::size_t i = 0; i < frames_.size(); ++i) {
        const Frame &frame = frames_[i];
        if (frame.func >= program.numFunctions() ||
            program.func(frame.func).stub)
            return "request engine: a frame names no function a request "
                   "can run";
        const std::vector<BodyOp> &body = program.func(frame.func).body;
        if (frame.opIdx >= body.size())
            return "request engine: a frame's op is past its body";
        const BodyOp &op = body[frame.opIdx];
        if (op.kind == OpKind::Run ? frame.intraRun >= op.length
                                   : frame.intraRun != 0)
            return "request engine: a frame's slot is outside its op";
        for (const LoopState &loop : frame.loops) {
            if (loop.opIdx >= body.size() ||
                body[loop.opIdx].kind != OpKind::Loop)
                return "request engine: a loop names an op that is not "
                       "a Loop";
        }
        // The caller was checked above; its cursor is past the call.
        if (i > 0 && frame.returnAddr != framePc(frames_[i - 1]))
            return "request engine: a frame does not return where its "
                   "caller resumes";
    }
    return nullptr;
}

template <class Ar>
void
RequestEngine::serializeState(Ar &ar)
{
    rng_.serializeState(ar);
    io(ar, frames_);
    if constexpr (Ar::loading) {
        if (const char *bad = checkFrames()) {
            ar.markFailed(bad);
            frames_.clear();
        }
    }
    io(ar, requestType_);
    io(ar, pendingMarker_);
    io(ar, pendingMarkerArg_);
}

template void RequestEngine::serializeState(StateWriter &);
template void RequestEngine::serializeState(StateLoader &);

} // namespace hp
