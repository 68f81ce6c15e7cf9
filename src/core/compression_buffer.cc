#include "core/compression_buffer.hh"

#include "util/serialize.hh"

#include "util/logging.hh"

namespace hp
{

CompressionBuffer::CompressionBuffer(unsigned entries)
    : capacity_(entries), fifo_(entries)
{
    fatalIf(entries == 0, "CompressionBuffer needs at least one entry");
}

std::optional<SpatialRegion>
CompressionBuffer::touch(Addr block_addr)
{
    // Fully-associative search: newest-first, since retired blocks hit
    // the most recently opened region almost always.
    for (std::size_t i = fifo_.size(); i-- > 0;) {
        if (fifo_[i].covers(block_addr)) {
            fifo_[i].touch(block_addr);
            return std::nullopt;
        }
    }

    SpatialRegion fresh;
    fresh.base = blockAlign(block_addr);
    fresh.touch(block_addr);

    std::optional<SpatialRegion> evicted;
    if (fifo_.size() == capacity_) {
        evicted = fifo_.front();
        fifo_.pop_front();
    }
    fifo_.push_back(fresh);
    return evicted;
}

std::vector<SpatialRegion>
CompressionBuffer::flush()
{
    std::vector<SpatialRegion> drained;
    drained.reserve(fifo_.size());
    for (; !fifo_.empty(); fifo_.pop_front())
        drained.push_back(fifo_.front());
    return drained;
}

template <class Ar>
void
CompressionBuffer::serializeState(Ar &ar)
{
    io(ar, fifo_);
    if constexpr (Ar::loading) {
        if (fifo_.size() > capacity_) {
            ar.markFailed("compression buffer holds more regions than "
                          "its entries");
            fifo_.clear();
        }
    }
}

template void CompressionBuffer::serializeState(StateWriter &);
template void CompressionBuffer::serializeState(StateLoader &);

} // namespace hp
