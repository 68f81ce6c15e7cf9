#include "frontend/cond_predictor.hh"

#include "util/hash.hh"
#include "util/logging.hh"
#include "util/serialize.hh"

namespace hp
{

CondPredictor::CondPredictor(unsigned log_base, unsigned log_tagged,
                             unsigned num_tables)
    : logBase_(log_base), logTagged_(log_tagged), numTables_(num_tables)
{
    fatalIf(num_tables == 0 || num_tables > 8,
            "CondPredictor supports 1..8 tagged tables");
    base_.assign(1u << logBase_, 0);
    tagged_.assign(numTables_,
                   std::vector<TaggedEntry>(1u << logTagged_));
    // Geometric history lengths, TAGE-style.
    unsigned len = 4;
    for (unsigned t = 0; t < numTables_; ++t) {
        historyLens_.push_back(len);
        len *= 3;
        if (len > 64)
            len = 64;
    }
    refold();
}

void
CondPredictor::refold()
{
    for (unsigned t = 0; t < numTables_; ++t) {
        const unsigned bits = historyLens_[t];
        folds_[t] = mix64(bits >= 64 ? history_
                                     : history_ & ((1ull << bits) - 1));
    }
}

unsigned
CondPredictor::taggedIndex(unsigned table, Addr pc) const
{
    std::uint64_t h = hashCombine(folds_[table], pc >> 2);
    return static_cast<unsigned>(h & ((1u << logTagged_) - 1));
}

std::uint16_t
CondPredictor::taggedTag(unsigned table, Addr pc) const
{
    std::uint64_t h = hashCombine(folds_[table] * 3, (pc >> 2) * 7);
    return static_cast<std::uint16_t>((h >> 13) & 0x3fff);
}

bool
CondPredictor::predict(Addr pc)
{
    providerTable_ = -1;
    lastPc_ = pc;

    for (int t = static_cast<int>(numTables_) - 1; t >= 0; --t) {
        unsigned idx = taggedIndex(t, pc);
        const TaggedEntry &e = tagged_[t][idx];
        if (e.tag == taggedTag(t, pc)) {
            providerTable_ = t;
            providerIndex_ = idx;
            lastPrediction_ = e.counter >= 0;
            return lastPrediction_;
        }
    }

    unsigned idx = static_cast<unsigned>(mix64(pc >> 2)
                                         & ((1u << logBase_) - 1));
    providerIndex_ = idx;
    lastPrediction_ = base_[idx] >= 0;
    return lastPrediction_;
}

void
CondPredictor::update(Addr pc, bool taken)
{
    panicIf(pc != lastPc_, "CondPredictor::update out of order");
    ++predictions_;
    bool correct = (lastPrediction_ == taken);
    if (!correct)
        ++mispredicts_;

    auto bump = [taken](std::int8_t &ctr) {
        if (taken && ctr < 3)
            ++ctr;
        else if (!taken && ctr > -4)
            --ctr;
    };

    if (providerTable_ >= 0) {
        TaggedEntry &e = tagged_[providerTable_][providerIndex_];
        bump(e.counter);
        if (correct && e.useful < 3)
            ++e.useful;
        if (!correct && e.useful > 0)
            --e.useful;
    } else {
        bump(base_[providerIndex_]);
    }

    // On a mispredict, try to allocate in a longer-history table.
    if (!correct && providerTable_ + 1 < static_cast<int>(numTables_)) {
        for (unsigned t = providerTable_ + 1; t < numTables_; ++t) {
            unsigned idx = taggedIndex(t, pc);
            TaggedEntry &e = tagged_[t][idx];
            if (e.useful == 0) {
                e.tag = taggedTag(t, pc);
                e.counter = taken ? 0 : -1;
                break;
            }
            // Age the entry that blocked allocation.
            --e.useful;
        }
    }

    history_ = (history_ << 1) | (taken ? 1 : 0);
    refold();
}

template <class Ar>
void
CondPredictor::serializeState(Ar &ar)
{
    // The lookups index the tables by the configured geometry, so a
    // blob of another table size is rejected, never resized to.
    const char *why = "TAGE table size differs from its geometry";
    if (!checkShape(ar, base_, why))
        return;
    ioElements(ar, base_);
    if (!checkShape(ar, tagged_, why))
        return;
    for (std::vector<TaggedEntry> &table : tagged_) {
        if (!checkShape(ar, table, why))
            return;
        ioElements(ar, table);
    }
    io(ar, history_);
    io(ar, providerTable_);
    io(ar, providerIndex_);
    io(ar, lastPrediction_);
    io(ar, lastPc_);
    if constexpr (Ar::loading)
        refold();
}

template void CondPredictor::serializeState(StateWriter &);
template void CondPredictor::serializeState(StateLoader &);

} // namespace hp
