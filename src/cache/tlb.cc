#include "cache/tlb.hh"

#include <algorithm>

#include "util/logging.hh"
#include "util/serialize.hh"

namespace hp
{

Tlb::Tlb(unsigned entries, Cycle walk_latency)
    : entries_(entries), walkLatency_(walk_latency)
{
    fatalIf(entries == 0, "TLB needs at least one entry");
    lru_.reserve(entries);
}

Cycle
Tlb::translate(Addr addr)
{
    ++accesses_;
    Addr page = pageAlign(addr);
    auto it = std::find(lru_.begin(), lru_.end(), page);
    if (it != lru_.end()) {
        std::rotate(lru_.begin(), it, it + 1);
        return 0;
    }

    ++misses_;
    if (lru_.size() >= entries_)
        lru_.pop_back();
    lru_.insert(lru_.begin(), page);
    return walkLatency_;
}

template <class Ar>
void
Tlb::serializeState(Ar &ar)
{
    io(ar, lru_);
    if constexpr (Ar::loading) {
        if (lru_.size() > entries_)
            ar.markFailed("I-TLB holds more pages than its entries");
    }
}

template void Tlb::serializeState(StateWriter &);
template void Tlb::serializeState(StateLoader &);

} // namespace hp
