#include "prefetch/eip.hh"

#include "util/hash.hh"
#include "util/logging.hh"

namespace hp
{

namespace
{

unsigned
setsFor(const EipConfig &config)
{
    fatalIf(config.tableEntries == 0 || config.tableWays == 0 ||
            config.tableEntries % config.tableWays != 0,
            "EIP table geometry invalid");
    fatalIf(config.maxTargets == 0, "EIP needs at least one target");
    return config.tableEntries / config.tableWays;
}

} // namespace

Eip::Eip(const EipConfig &config)
    : config_(config), table_(setsFor(config), config.tableWays),
      targets_(table_.size() * config.maxTargets),
      targetCount_(table_.size(), 0),
      history_(std::size_t(config.historyEntries) + 1)
{
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

unsigned
Eip::setIndex(Addr source) const
{
    return table_.setOf(mix64(source));
}

std::size_t
Eip::find(Addr source)
{
    const std::size_t slot = table_.find(setIndex(source), source);
    if (slot != table_.kNone)
        table_.touch(slot);
    return slot;
}

std::size_t
Eip::allocate(Addr source)
{
    const std::size_t slot = table_.victim(setIndex(source), source);
    table_.fill(slot, source);
    targetCount_[slot] = 0;
    return slot;
}

void
Eip::entangle(Addr source, Addr target)
{
    std::size_t slot = find(source);
    if (slot == table_.kNone)
        slot = allocate(source);

    Target *targets = &targets_[slot * config_.maxTargets];
    unsigned &count = targetCount_[slot];
    for (unsigned i = 0; i < count; ++i) {
        if (targets[i].block == target) {
            if (targets[i].confidence < 3)
                ++targets[i].confidence;
            return;
        }
    }
    if (count < config_.maxTargets) {
        targets[count++] = {target, 1};
        return;
    }
    Target *victim = targets;
    for (unsigned i = 1; i < count; ++i) {
        if (targets[i].confidence < victim->confidence)
            victim = &targets[i];
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
    if (const std::size_t slot = find(block); slot != table_.kNone) {
        const Target *targets = &targets_[slot * config_.maxTargets];
        for (unsigned i = 0; i < targetCount_[slot]; ++i) {
            for (unsigned b = 0; b < config_.targetRunBlocks; ++b)
                push(targets[i].block + Addr(b) * kBlockBytes);
        }
    }

    if (!history_.empty() && history_.back().first == block)
        return;
    history_.push_back({block, now});
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
        for (std::size_t i = history_.size(); i-- > 0;) {
            if (history_[i].second + fill_latency <= now) {
                source = history_[i].first;
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
    // The table, then each slot's target list (count, targets). A
    // blob of another geometry, an entry over maxTargets or a history
    // over historyEntries is rejected.
    if (!table_.serializeState(ar))
        return;
    for (std::size_t slot = 0; slot < table_.size(); ++slot) {
        std::uint64_t count = targetCount_[slot];
        ar.value(count);
        if constexpr (Ar::loading) {
            if (count > config_.maxTargets) {
                ar.markFailed("EIP entry holds more than maxTargets "
                              "targets");
                return;
            }
            targetCount_[slot] = unsigned(count);
        }
        for (std::uint64_t i = 0; i < count; ++i)
            io(ar, targets_[slot * config_.maxTargets + i]);
    }
    io(ar, history_);
    if constexpr (Ar::loading) {
        if (history_.size() > config_.historyEntries) {
            ar.markFailed("EIP history longer than historyEntries");
            history_.clear();
        }
    }
}

template void Eip::serializeState(StateWriter &);
template void Eip::serializeState(StateLoader &);

} // namespace hp
