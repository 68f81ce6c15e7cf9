#include "prefetch/eip.hh"

#include "util/hash.hh"
#include "util/logging.hh"

namespace hp
{

Eip::Eip(const EipConfig &config)
    : config_(config)
{
    fatalIf(config_.tableWays == 0 ||
            config_.tableEntries % config_.tableWays != 0,
            "EIP table geometry invalid");
    numSets_ = config_.tableEntries / config_.tableWays;
    table_.resize(config_.tableEntries);
}

std::uint64_t
Eip::storageBits() const
{
    // Roughly the paper's 40 KB configuration: compressed source tag
    // plus up to three compressed targets with confidence.
    std::uint64_t per_entry = 20 + config_.maxTargets * (24 + 2);
    return per_entry * config_.tableEntries +
           config_.historyEntries * 64;
}

Eip::Entry *
Eip::find(Addr source)
{
    unsigned set = static_cast<unsigned>(mix64(source) % numSets_);
    Entry *base = &table_[std::size_t(set) * config_.tableWays];
    for (unsigned w = 0; w < config_.tableWays; ++w) {
        if (base[w].valid && base[w].source == source) {
            base[w].lastUse = ++useClock_;
            return &base[w];
        }
    }
    return nullptr;
}

Eip::Entry &
Eip::allocate(Addr source)
{
    unsigned set = static_cast<unsigned>(mix64(source) % numSets_);
    Entry *base = &table_[std::size_t(set) * config_.tableWays];
    Entry *victim = &base[0];
    for (unsigned w = 0; w < config_.tableWays; ++w) {
        if (!base[w].valid) {
            victim = &base[w];
            break;
        }
        if (base[w].lastUse < victim->lastUse)
            victim = &base[w];
    }
    victim->valid = true;
    victim->source = source;
    victim->lastUse = ++useClock_;
    victim->targets.clear();
    return *victim;
}

void
Eip::entangle(Addr source, Addr target)
{
    Entry *entry = find(source);
    if (!entry)
        entry = &allocate(source);

    for (Target &t : entry->targets) {
        if (t.block == target) {
            if (t.confidence < 3)
                ++t.confidence;
            return;
        }
    }
    if (entry->targets.size() < config_.maxTargets) {
        entry->targets.push_back({target, 1});
        return;
    }
    auto victim = entry->targets.begin();
    for (auto it = entry->targets.begin(); it != entry->targets.end();
         ++it) {
        if (it->confidence < victim->confidence)
            victim = it;
    }
    if (victim->confidence > 0) {
        --victim->confidence;
    } else {
        victim->block = target;
        victim->confidence = 1;
    }
}

void
Eip::observeFetch(Addr block, Cycle now)
{
    // Issue prefetches for every target entangled with this block;
    // each target is a basic block spanning several cache lines.
    if (Entry *entry = find(block)) {
        for (const Target &t : entry->targets) {
            for (unsigned b = 0; b < config_.targetRunBlocks; ++b)
                push(t.block + Addr(b) * kBlockBytes);
        }
    }

    if (!history_.empty() && history_.back().first == block)
        return;
    history_.emplace_back(block, now);
    if (history_.size() > config_.historyEntries)
        history_.pop_front();
}

void
Eip::onDemandAccess(Addr block, bool hit, Cycle now, Cycle fill_latency)
{
    if (!hit && fill_latency > 0) {
        // Trigger selection: the youngest history block that executed
        // at least one miss latency before the miss, so a prefetch
        // issued at its fetch would have arrived on time.
        Addr source = 0;
        for (auto it = history_.rbegin(); it != history_.rend(); ++it) {
            if (it->second + fill_latency <= now) {
                source = it->first;
                break;
            }
        }
        if (source == 0 && !history_.empty())
            source = history_.front().first;
        if (source != 0 && source != block)
            entangle(source, block);
    }

    observeFetch(block, now);
}

void
Eip::onFdipPrefetch(Addr block, Cycle now)
{
    // FDIP prefetches are treated like demand accesses for training
    // (confirmed preferable by the EIP authors, per Section 6.3).
    observeFetch(block, now);
}

template <class Ar>
void
Eip::serializeState(Ar &ar)
{
    io(ar, table_);
    io(ar, useClock_);
    io(ar, history_);
}

template void Eip::serializeState(StateWriter &);
template void Eip::serializeState(StateLoader &);

} // namespace hp
