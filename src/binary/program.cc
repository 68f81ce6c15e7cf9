#include "binary/program.hh"

#include <algorithm>

#include "util/logging.hh"

namespace hp
{

std::uint32_t
Function::numInsts() const
{
    if (body.empty())
        return 0;
    const BodyOp &last = body.back();
    std::uint32_t end = last.offset;
    end += (last.kind == OpKind::Run) ? last.length : 1;
    return end;
}

FuncId
Program::addFunction(std::string name, std::uint16_t module)
{
    panicIf(laidOut_, "cannot add functions after layout");
    Function fn;
    fn.id = static_cast<FuncId>(funcs_.size());
    fn.name = std::move(name);
    fn.module = module;
    funcs_.push_back(std::move(fn));
    return funcs_.back().id;
}

void
Program::layout(Addr base)
{
    panicIf(laidOut_, "Program::layout called twice");

    // Group functions by module, preserving creation order within a
    // module: real linkers lay out each object/library contiguously,
    // which gives the spatial locality the spatial-region compression
    // in the prefetchers depends on.
    std::vector<FuncId> order(funcs_.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = static_cast<FuncId>(i);
    std::stable_sort(order.begin(), order.end(),
                     [this](FuncId a, FuncId b) {
                         return funcs_[a].module < funcs_[b].module;
                     });

    Addr cursor = base;
    for (FuncId id : order) {
        Function &fn = funcs_[id];
        fn.addr = cursor;
        // Functions are aligned to 16 bytes, like typical compilers.
        cursor += roundUp(std::max<std::uint64_t>(fn.sizeBytes(),
                                                  kInstBytes), 16);
    }
    totalCode_ = cursor - base;
    // No function is added after layout: drop push_back's growth slack.
    funcs_.shrink_to_fit();

    byAddr_ = order;
    std::sort(byAddr_.begin(), byAddr_.end(),
              [this](FuncId a, FuncId b) {
                  return funcs_[a].addr < funcs_[b].addr;
              });
    laidOut_ = true;
}

FuncId
Program::funcAt(Addr addr) const
{
    panicIf(!laidOut_, "Program::funcAt before layout");
    auto it = std::upper_bound(
        byAddr_.begin(), byAddr_.end(), addr,
        [this](Addr a, FuncId id) { return a < funcs_[id].addr; });
    if (it == byAddr_.begin())
        return kNoFunc;
    FuncId id = *(it - 1);
    const Function &fn = funcs_[id];
    if (addr < fn.addr + fn.sizeBytes())
        return id;
    return kNoFunc;
}

namespace
{

/** True when op @p idx of @p fn exists and holds slot @p slot. */
bool
opHolds(const Function &fn, std::uint32_t idx, std::uint32_t slot)
{
    if (idx >= fn.body.size())
        return false;
    const BodyOp &op = fn.body[idx];
    const std::uint32_t len = op.kind == OpKind::Run ? op.length : 1;
    return op.offset <= slot && slot < op.offset + len;
}

} // namespace

void
Program::validate(FuncId entry) const
{
    if (entry != kNoFunc) {
        panicIf(entry >= funcs_.size(), "entry function out of range");
        panicIf(funcs_[entry].stub,
                "entry function " + funcs_[entry].name + " is a stub");
    }
    for (const Function &fn : funcs_) {
        panicIf(fn.body.empty(), "function " + fn.name + " has no body");
        std::uint32_t cursor = 0;
        for (std::size_t i = 0; i < fn.body.size(); ++i) {
            const BodyOp &op = fn.body[i];
            if (fn.stub) {
                // The slots between a stub's ops hold no op.
                panicIf(op.kind != OpKind::CallSite && op.kind != OpKind::Ret,
                        "stub " + fn.name + " holds an op other than "
                        "CallSite or Ret");
                panicIf(op.offset < cursor,
                        "stub offsets do not increase in " + fn.name);
                cursor = op.offset;
            }
            panicIf(op.offset != cursor,
                    "body op offset mismatch in " + fn.name);
            switch (op.kind) {
              case OpKind::Run:
                panicIf(op.length == 0, "empty Run in " + fn.name);
                cursor += op.length;
                break;
              case OpKind::Branch:
                panicIf(op.offset + 1 + op.length > fn.numInsts(),
                        "Branch skips past end of " + fn.name);
                panicIf(!opHolds(fn, op.targetIdx, op.offset + 1 + op.length),
                        "Branch target op mismatch in " + fn.name);
                cursor += 1;
                break;
              case OpKind::Loop:
                panicIf(op.length > op.offset,
                        "Loop jumps before entry of " + fn.name);
                panicIf(!opHolds(fn, op.targetIdx, op.offset - op.length),
                        "Loop target op mismatch in " + fn.name);
                cursor += 1;
                break;
              case OpKind::CallSite:
                panicIf(op.length == 0,
                        "CallSite with no candidates in " + fn.name);
                panicIf(std::uint64_t(op.targetIdx) + op.length >
                            fn.callees.size(),
                        "CallSite candidates run past the callees of " +
                            fn.name);
                for (FuncId callee : fn.candidates(op)) {
                    panicIf(callee >= funcs_.size(),
                            "CallSite callee out of range in " + fn.name);
                    panicIf(!fn.stub && funcs_[callee].stub,
                            fn.name + " calls stub " + funcs_[callee].name);
                }
                cursor += 1;
                break;
              case OpKind::Ret:
                panicIf(i + 1 != fn.body.size(),
                        "Ret not last op in " + fn.name);
                cursor += 1;
                break;
            }
        }
        panicIf(fn.body.back().kind != OpKind::Ret,
                "function " + fn.name + " does not end in Ret");
    }
}

} // namespace hp
