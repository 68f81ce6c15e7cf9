#include "prefetch/efetch.hh"

#include <algorithm>

#include "util/hash.hh"
#include "util/logging.hh"

namespace hp
{

EFetch::EFetch(const EFetchConfig &config)
    : config_(config)
{
    fatalIf(config_.tableEntries == 0, "EFetch table must be non-empty");
    table_.resize(config_.tableEntries);
}

std::uint64_t
EFetch::storageBits() const
{
    // Per entry: 14-bit tag + per callee a compressed 18-bit callee
    // pointer, 2-bit confidence and two 32-bit vectors living in the
    // footprint table (charged here since it is part of the design).
    std::uint64_t per_callee = 18 + 2 + 64;
    std::uint64_t per_entry = 14 + config_.calleesPerEntry * per_callee;
    return per_entry * config_.tableEntries;
}

std::uint64_t
EFetch::currentSignature() const
{
    std::uint64_t sig = 0x9e3779b97f4a7c15ULL;
    unsigned depth = 0;
    for (auto it = callStack_.rbegin();
         it != callStack_.rend() && depth < config_.signatureDepth;
         ++it, ++depth) {
        sig = hashCombine(sig, *it);
    }
    return sig;
}

EFetch::Entry &
EFetch::entryFor(std::uint64_t sig)
{
    return table_[static_cast<std::size_t>(sig % table_.size())];
}

void
EFetch::train(Addr callee)
{
    if (!haveLastSignature_)
        return;
    Entry &entry = entryFor(lastSignature_);
    std::uint64_t tag = mix64(lastSignature_) >> 40;
    if (!entry.valid || entry.tag != tag) {
        entry.valid = true;
        entry.tag = tag;
        entry.callees.clear();
    }
    // The entry keeps the observed order of following callees: promote
    // a re-observed callee's confidence, append new ones, and displace
    // the least confident slot when full.
    for (CalleeSlot &slot : entry.callees) {
        if (slot.callee == callee) {
            if (slot.confidence < 3)
                ++slot.confidence;
            return;
        }
    }
    if (entry.callees.size() < config_.calleesPerEntry) {
        entry.callees.push_back({callee, 1});
        return;
    }
    auto victim = std::min_element(
        entry.callees.begin(), entry.callees.end(),
        [](const CalleeSlot &a, const CalleeSlot &b) {
            return a.confidence < b.confidence;
        });
    if (victim->confidence > 0) {
        --victim->confidence;
    } else {
        victim->callee = callee;
        victim->confidence = 1;
    }
}

void
EFetch::prefetchCallee(Addr callee)
{
    Addr entry_block = blockAlign(callee);
    const Footprint *fp = footprints_.find(entry_block);
    if (!fp) {
        // No learned footprint yet: prefetch the entry block only.
        push(entry_block);
        return;
    }
    std::uint32_t vec0 = fp->vec0 | 1u;
    std::uint32_t vec1 = fp->vec1;
    while (vec0) {
        unsigned bit = __builtin_ctz(vec0);
        vec0 &= vec0 - 1;
        push(entry_block + Addr(bit) * kBlockBytes);
    }
    while (vec1) {
        unsigned bit = __builtin_ctz(vec1);
        vec1 &= vec1 - 1;
        push(entry_block + Addr(32 + bit) * kBlockBytes);
    }
}

void
EFetch::predictAndPrefetch()
{
    // Chain predictions: each predicted callee is hypothetically pushed
    // onto a copy of the stack to look up the next level.
    std::uint64_t sig = currentSignature();
    std::vector<Addr> &shadow = shadowStack_;
    shadow.assign(callStack_.begin(), callStack_.end());
    unsigned emitted = 0;
    for (unsigned depth = 0;
         depth < config_.lookahead && emitted < config_.lookahead;
         ++depth) {
        Entry &entry = entryFor(sig);
        std::uint64_t tag = mix64(sig) >> 40;
        if (!entry.valid || entry.tag != tag || entry.callees.empty())
            break;

        // Issue the entry's callees in recorded order up to the budget.
        Addr best = 0;
        std::uint8_t best_conf = 0;
        for (const CalleeSlot &slot : entry.callees) {
            if (emitted >= config_.lookahead)
                break;
            prefetchCallee(slot.callee);
            ++emitted;
            if (slot.confidence >= best_conf) {
                best_conf = slot.confidence;
                best = slot.callee;
            }
        }
        if (best == 0)
            break;

        // Hypothetical next signature: as if `best` were called.
        shadow.push_back(best);
        if (shadow.size() > 64)
            shadow.erase(shadow.begin());
        std::uint64_t next_sig = 0x9e3779b97f4a7c15ULL;
        unsigned d = 0;
        for (auto it = shadow.rbegin();
             it != shadow.rend() && d < config_.signatureDepth;
             ++it, ++d) {
            next_sig = hashCombine(next_sig, *it);
        }
        sig = next_sig;
    }
}

void
EFetch::onCommit(const DynInst &inst, std::uint64_t n, Cycle now)
{
    (void)now;
    // A run lies in one block, so its footprint bit is set once; the
    // call/return logic below sees only control instructions, which
    // come alone.
    (void)n;

    // Footprint training: blocks of the current function near its
    // entry.
    if (!funcStack_.empty()) {
        Addr entry_block = funcStack_.back();
        Addr block = blockAlign(inst.pc);
        if (block >= entry_block) {
            Addr delta = (block - entry_block) >> kBlockShift;
            if (delta < 64) {
                auto [fp, inserted] = footprints_.insert(entry_block);
                if (inserted)
                    footprintFifo_.push_back(entry_block);
                if (delta < 32)
                    fp->vec0 |= 1u << delta;
                else
                    fp->vec1 |= 1u << (delta - 32);
            }
        }
    }

    if (isCall(inst.kind) && inst.taken) {
        // Train the previous signature with the callee that followed.
        train(inst.target);

        callStack_.push_back(inst.nextPc());
        if (callStack_.size() > 64)
            callStack_.erase(callStack_.begin());
        funcStack_.push_back(blockAlign(inst.target));
        if (funcStack_.size() > 64)
            funcStack_.erase(funcStack_.begin());

        lastSignature_ = currentSignature();
        haveLastSignature_ = true;

        // Bound the footprint table like a 4K-entry structure. The
        // victim is the oldest footprint, so it depends only on
        // checkpointed state.
        if (footprints_.size() > config_.footprintEntries) {
            footprints_.erase(footprintFifo_.front());
            footprintFifo_.pop_front();
        }

        predictAndPrefetch();
    } else if (inst.kind == InstKind::Return) {
        if (!callStack_.empty())
            callStack_.pop_back();
        if (!funcStack_.empty())
            funcStack_.pop_back();
        lastSignature_ = currentSignature();
        haveLastSignature_ = true;
    }
}

bool
EFetch::fifoMatchesFootprints() const
{
    if (footprintFifo_.size() != footprints_.size())
        return false;
    FlatSet<Addr> seen;
    for (std::size_t i = 0; i < footprintFifo_.size(); ++i) {
        const Addr key = footprintFifo_[i];
        if (!footprints_.contains(key) || !seen.insert(key).second)
            return false;
    }
    return true;
}

template <class Ar>
void
EFetch::serializeState(Ar &ar)
{
    io(ar, table_);
    io(ar, callStack_);
    io(ar, funcStack_);
    io(ar, footprints_);
    io(ar, footprintFifo_);
    if constexpr (Ar::loading) {
        // A FIFO that disagrees with the table would evict entries
        // that are not there: reject the blob as a shape mismatch.
        if (!fifoMatchesFootprints()) {
            ar.markFailed("EFetch footprint FIFO disagrees with its "
                          "table");
            return;
        }
    }
    io(ar, lastSignature_);
    io(ar, haveLastSignature_);
}

template void EFetch::serializeState(StateWriter &);
template void EFetch::serializeState(StateLoader &);

} // namespace hp
