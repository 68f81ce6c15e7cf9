#include "sim/footprint_probe.hh"

#include <algorithm>

#include "util/hash.hh"

namespace hp
{

FootprintProbe::FootprintProbe(TriggerKind kind, unsigned sample_period)
    : kind_(kind), samplePeriod_(sample_period ? sample_period : 1)
{}

void
FootprintProbe::finishCollector(Collector &c)
{
    auto prev_it = previous_.find(c.key);
    if (prev_it != previous_.end()) {
        const std::vector<Addr> &prev = prev_it->second;
        // The sizes ascend, so each prefix extends the last one.
        prefix_.clear();
        std::size_t a_count = 0;
        for (std::size_t s = 0; s < kFootprintSizes.size(); ++s) {
            unsigned k = kFootprintSizes[s];
            if (prev.size() < k / 2 || c.blocks.size() < k / 2)
                continue; // footprints too short to be meaningful
            for (; a_count < std::min<std::size_t>(k, prev.size());
                 ++a_count)
                prefix_.insert(prev[a_count]);
            std::size_t inter = 0;
            std::size_t b_count =
                std::min<std::size_t>(k, c.blocks.size());
            for (std::size_t i = 0; i < b_count; ++i)
                inter += prefix_.contains(c.blocks[i]);
            std::size_t uni = prefix_.size() + b_count - inter;
            if (uni > 0)
                jaccard_[s].sample(double(inter) / double(uni));
        }
    }

    if (previous_.size() >= kMaxTracked)
        previous_.erase(previous_.begin());
    previous_[c.key] = std::move(c.blocks);
}

void
FootprintProbe::trigger(std::uint64_t key)
{
    ++triggers_;
    if (triggers_ % samplePeriod_ != 0)
        return;
    if (open_.size() >= kMaxOpen) {
        finishCollector(open_.front());
        open_.pop_front();
    }
    Collector c;
    c.key = key;
    c.blocks.reserve(kFootprintSizes.back());
    open_.push_back(std::move(c));
}

void
FootprintProbe::onCommit(const DynInst &inst)
{
    Addr block = blockAlign(inst.pc);

    // Feed open collectors on block transitions only.
    if (block != lastBlock_) {
        lastBlock_ = block;
        for (auto it = open_.begin(); it != open_.end();) {
            Collector &c = *it;
            if (c.seen.insert(block).second) {
                c.blocks.push_back(block);
                if (c.blocks.size() >= kFootprintSizes.back()) {
                    finishCollector(c);
                    it = open_.erase(it);
                    continue;
                }
            }
            ++it;
        }

        // MANA/EIP-style region trigger. The trigger identity is the
        // prefetcher's *table index*: a 4K-entry structure, so the key
        // is folded to 12 bits — distinct regions alias exactly as
        // they do in the real hardware.
        if (kind_ == TriggerKind::BlockAddress) {
            Addr region = block & ~Addr(8 * kBlockBytes - 1);
            if (region != lastRegion_) {
                lastRegion_ = region;
                trigger(foldTo(mix64(region), 12));
            }
        }
    }

    if (isCall(inst.kind)) {
        callStack_.push_back(inst.nextPc());
        if (callStack_.size() > 64)
            callStack_.erase(callStack_.begin());
        if (kind_ == TriggerKind::Signature) {
            std::uint64_t sig = 0x9e3779b97f4a7c15ULL;
            unsigned depth = 0;
            for (auto it = callStack_.rbegin();
                 it != callStack_.rend() && depth < 3; ++it, ++depth) {
                sig = hashCombine(sig, *it);
            }
            // EFetch indexes a 4K-entry callee predictor: the trigger
            // identity is the 12-bit table index, so unrelated
            // contexts alias as in the real design.
            trigger(foldTo(sig, 12));
        }
    } else if (inst.kind == InstKind::Return && !callStack_.empty()) {
        callStack_.pop_back();
    }

    if (kind_ == TriggerKind::Bundle && inst.tagged &&
        (isCall(inst.kind) || inst.kind == InstKind::Return)) {
        // A Bundle's footprint ends where the next Bundle begins:
        // close every open collector at the boundary (Table 4's
        // per-execution footprint definition), then open the new one
        // keyed by the 24-bit Bundle ID.
        for (auto &c : open_)
            finishCollector(c);
        open_.clear();
        trigger(foldTo(mix64(inst.nextFetchPc()), 24));
    }
}

void
FootprintProbe::finalize()
{
    for (Collector &c : open_)
        finishCollector(c);
    open_.clear();
}

double
FootprintProbe::meanJaccard(std::size_t size_index) const
{
    return jaccard_[size_index].mean();
}

} // namespace hp
