#include "prefetch/rdip.hh"

#include <algorithm>

#include "util/hash.hh"
#include "util/logging.hh"

namespace hp
{

Rdip::Rdip(const RdipConfig &config)
    : config_(config)
{
    fatalIf(config_.tableEntries == 0, "RDIP table must be non-empty");
    table_.resize(config_.tableEntries);
}

std::uint64_t
Rdip::storageBits() const
{
    // Tag (16) plus compressed block addresses (30 bits each) per
    // entry — the metadata-intensive design the paper criticizes.
    std::uint64_t per_entry = 16 + config_.blocksPerEntry * 30;
    return per_entry * config_.tableEntries;
}

std::uint64_t
Rdip::currentSignature() const
{
    std::uint64_t sig = 0x517cc1b727220a95ULL;
    unsigned depth = 0;
    for (auto it = ras_.rbegin();
         it != ras_.rend() && depth < config_.signatureDepth;
         ++it, ++depth) {
        sig = hashCombine(sig, *it);
    }
    return sig;
}

Rdip::Entry &
Rdip::entryFor(std::uint64_t sig)
{
    return table_[static_cast<std::size_t>(sig % table_.size())];
}

void
Rdip::onCommit(const DynInst &inst, std::uint64_t n, Cycle now)
{
    // Only calls and returns change the signature; a run of plain
    // instructions is a no-op whatever its length.
    (void)n;
    (void)now;
    bool signature_changed = false;
    if (isCall(inst.kind) && inst.taken) {
        ras_.push_back(inst.nextPc());
        if (ras_.size() > 64)
            ras_.erase(ras_.begin());
        signature_changed = true;
    } else if (inst.kind == InstKind::Return) {
        if (!ras_.empty())
            ras_.pop_back();
        signature_changed = true;
    }

    if (!signature_changed)
        return;

    // New program context: prefetch the misses recorded the last time
    // this context was active.
    activeSignature_ = currentSignature();
    haveSignature_ = true;

    Entry &entry = entryFor(activeSignature_);
    std::uint64_t tag = mix64(activeSignature_) >> 44;
    if (entry.valid && entry.tag == tag) {
        for (Addr block : entry.blocks)
            push(block);
    }
}

void
Rdip::onDemandAccess(Addr block, bool hit, Cycle now,
                     Cycle fill_latency)
{
    (void)now;
    (void)fill_latency;
    if (hit || !haveSignature_)
        return;

    // Record the miss under the active signature.
    Entry &entry = entryFor(activeSignature_);
    std::uint64_t tag = mix64(activeSignature_) >> 44;
    if (!entry.valid || entry.tag != tag) {
        entry.valid = true;
        entry.tag = tag;
        entry.blocks.clear();
        entry.fifoPos = 0;
    }
    if (std::find(entry.blocks.begin(), entry.blocks.end(), block) !=
        entry.blocks.end()) {
        return;
    }
    if (entry.blocks.size() < config_.blocksPerEntry) {
        entry.blocks.push_back(block);
    } else {
        entry.blocks[entry.fifoPos] = block;
        entry.fifoPos = (entry.fifoPos + 1) % config_.blocksPerEntry;
    }
}

template <class Ar>
void
Rdip::serializeState(Ar &ar)
{
    // entryFor divides by the table's size; onDemandAccess writes
    // blocks[fifoPos] once an entry holds blocksPerEntry blocks.
    if (!checkShape(ar, table_, "RDIP table size differs from "
                                "tableEntries"))
        return;
    for (Entry &entry : table_) {
        io(ar, entry);
        if constexpr (Ar::loading) {
            if (entry.blocks.size() > config_.blocksPerEntry)
                return ar.markFailed("RDIP entry holds more than "
                                     "blocksPerEntry blocks");
            if (entry.fifoPos != 0 && entry.fifoPos >= entry.blocks.size())
                return ar.markFailed("RDIP entry's FIFO position is "
                                     "outside its blocks");
            for (Addr block : entry.blocks)
                checkBlock(ar, block, "an RDIP block is not block-aligned");
        }
    }
    io(ar, ras_);
    io(ar, activeSignature_);
    io(ar, haveSignature_);
}

template void Rdip::serializeState(StateWriter &);
template void Rdip::serializeState(StateLoader &);

} // namespace hp
