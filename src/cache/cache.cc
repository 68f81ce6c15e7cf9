#include "cache/cache.hh"

#include "util/logging.hh"
#include "util/serialize.hh"

namespace hp
{

namespace
{

/** Set count of a @p size_bytes, @p ways cache. Set counts need not
 *  be powers of two (the fractional instruction share of unified
 *  levels). */
unsigned
setsFor(const std::string &name, std::uint64_t size_bytes, unsigned ways)
{
    fatalIf(ways == 0, name + ": associativity must be positive");
    std::uint64_t blocks = size_bytes / kBlockBytes;
    fatalIf(blocks < ways || blocks % ways != 0,
            name + ": size/associativity mismatch");
    return static_cast<unsigned>(blocks / ways);
}

} // namespace

SetAssocCache::SetAssocCache(std::string name, std::uint64_t size_bytes,
                             unsigned ways)
    : name_(std::move(name)), sizeBytes_(size_bytes),
      table_(setsFor(name_, size_bytes, ways), ways), meta_(table_.size())
{
}

std::optional<HitInfo>
SetAssocCache::access(Addr block)
{
    const Addr key = blockNumber(block);
    const std::size_t slot = table_.find(table_.setOf(key), key);
    if (slot == table_.kNone)
        return std::nullopt;
    table_.touch(slot);
    Meta &meta = meta_[slot];
    HitInfo info{meta.origin, !meta.used};
    meta.used = true;
    return info;
}

bool
SetAssocCache::contains(Addr block) const
{
    const Addr key = blockNumber(block);
    return table_.find(table_.setOf(key), key) != table_.kNone;
}

EvictInfo
SetAssocCache::insert(Addr block, Origin origin)
{
    panicIf(block & (kBlockBytes - 1), name_ + ": unaligned block");
    const Addr key = blockNumber(block);
    const std::size_t slot = table_.victim(table_.setOf(key), key);
    if (table_.holds(slot, key)) {
        // Refill of a resident block: refresh recency only.
        table_.touch(slot);
        return {};
    }

    Meta &meta = meta_[slot];
    EvictInfo evicted;
    if (table_.valid(slot)) {
        evicted.valid = true;
        evicted.block = table_.key(slot) << kBlockShift;
        evicted.origin = meta.origin;
        evicted.used = meta.used;
    }

    table_.fill(slot, key);
    meta = {origin, false};
    return evicted;
}

void
SetAssocCache::invalidateAll()
{
    table_.invalidateAll();
}

void
SetAssocCache::markUsed(Addr block)
{
    const Addr key = blockNumber(block);
    const std::size_t slot = table_.find(table_.setOf(key), key);
    if (slot != table_.kNone)
        meta_[slot].used = true;
}

template <class Ar>
void
SetAssocCache::serializeState(Ar &ar)
{
    if (table_.serializeState(ar))
        ioElements(ar, meta_);
}

template void SetAssocCache::serializeState(StateWriter &);
template void SetAssocCache::serializeState(StateLoader &);

} // namespace hp
