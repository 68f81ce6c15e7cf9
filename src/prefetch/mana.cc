#include "prefetch/mana.hh"

#include "util/logging.hh"

namespace hp
{

Mana::Mana(const ManaConfig &config)
    : config_(config)
{
    fatalIf(config_.regionBlocks == 0 || config_.regionBlocks > 32,
            "MANA region size must be in 1..32 blocks");
    fatalIf(config_.historyRegions == 0, "MANA history must be non-empty");
    history_.resize(config_.historyRegions);
}

std::uint64_t
Mana::storageBits() const
{
    // Index table: tag (16) + pointer (log2 history). History: base
    // (compressed 26) + bit vector per region. This mirrors MANA's
    // 15 KB-class budget at the paper's configuration.
    unsigned ptr_bits = 1;
    while ((1u << ptr_bits) < config_.historyRegions)
        ++ptr_bits;
    std::uint64_t index_bits =
        std::uint64_t(config_.indexEntries) * (16 + ptr_bits);
    std::uint64_t history_bits =
        std::uint64_t(config_.historyRegions) *
        (26 + config_.regionBlocks);
    return index_bits + history_bits;
}

void
Mana::closeOpenRegion()
{
    if (!openValid_)
        return;
    std::uint64_t pos = historyCount_++;
    history_[historyHead_] = open_;
    historyHead_ = (historyHead_ + 1) % history_.size();
    index_[open_.base] = pos;
    // Bound the index like a 4K-entry table: drop the entry with the
    // oldest history position when over capacity. The victim depends
    // only on checkpointed state.
    if (index_.size() > config_.indexEntries) {
        Addr victim = 0;
        std::uint64_t oldest = ~std::uint64_t(0);
        index_.forEach([&](Addr base, std::uint64_t at) {
            if (at < oldest) {
                oldest = at;
                victim = base;
            }
        });
        index_.erase(victim);
    }
    openValid_ = false;
}

void
Mana::recordAccess(Addr block)
{
    if (openValid_ && open_.covers(block, config_.regionBlocks)) {
        open_.bits |= 1u << ((block - open_.base) >> kBlockShift);
        return;
    }
    closeOpenRegion();
    open_.base = block;
    open_.bits = 1;
    openValid_ = true;
}

void
Mana::prefetchRegion(const Region &region)
{
    std::uint32_t bits = region.bits;
    while (bits) {
        unsigned bit = __builtin_ctz(bits);
        bits &= bits - 1;
        push(region.base + Addr(bit) * kBlockBytes);
    }
}

void
Mana::issueAhead()
{
    if (!streaming_)
        return;
    std::uint64_t target = streamPos_ + config_.lookahead;
    std::uint64_t oldest = historyCount_ > history_.size()
        ? historyCount_ - history_.size() : 0;
    std::uint64_t from = std::max(issuedUpTo_, streamPos_ + 1);
    from = std::max(from, oldest);
    for (std::uint64_t pos = from;
         pos <= target && pos < historyCount_; ++pos) {
        prefetchRegion(history_[pos % history_.size()]);
        issuedUpTo_ = pos + 1;
    }
}

void
Mana::followStream(Addr block)
{
    std::uint64_t oldest = historyCount_ > history_.size()
        ? historyCount_ - history_.size() : 0;

    if (streaming_) {
        // Does the access stay on the recorded stream? Check the
        // current region and the next few positions.
        for (std::uint64_t pos = streamPos_;
             pos <= streamPos_ + 2 && pos < historyCount_; ++pos) {
            if (pos < oldest)
                continue;
            if (history_[pos % history_.size()]
                    .covers(block, config_.regionBlocks)) {
                streamPos_ = pos;
                issueAhead();
                return;
            }
        }
        // Divergence: the front end left the recorded path; MANA must
        // re-index, losing its lookahead.
        streaming_ = false;
        ++divergences_;
    }

    const std::uint64_t *at = index_.find(block);
    if (at && *at >= oldest && *at < historyCount_) {
        streaming_ = true;
        streamPos_ = *at;
        issuedUpTo_ = streamPos_ + 1;
        issueAhead();
    }
}

void
Mana::onDemandAccess(Addr block, bool hit, Cycle now, Cycle fill_latency)
{
    (void)hit;
    (void)now;
    (void)fill_latency;
    recordAccess(block);
    followStream(block);
}

template <class Ar>
void
Mana::serializeState(Ar &ar)
{
    open_.serializeState(ar);
    io(ar, openValid_);
    io(ar, history_);
    io(ar, historyHead_);
    io(ar, historyCount_);
    io(ar, index_);
    io(ar, streamPos_);
    io(ar, streaming_);
    io(ar, issuedUpTo_);
}

template void Mana::serializeState(StateWriter &);
template void Mana::serializeState(StateLoader &);

} // namespace hp
