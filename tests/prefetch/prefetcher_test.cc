/**
 * @file
 * The request queue every prefetcher shares: its restore checks.
 */

#include <gtest/gtest.h>

#include "prefetch/prefetcher.hh"
#include "../test_helpers.hh"

namespace hp
{
namespace
{

/** A prefetcher that queues only what a test asks for. */
class QueueOnly : public Prefetcher
{
  public:
    explicit QueueOnly(std::size_t capacity) { setMaxQueue(capacity); }

    void request(Addr block) { push(block); }

    std::string name() const override { return "QueueOnly"; }
    std::uint64_t storageBits() const override { return 0; }

  protected:
    void saveOwnState(StateWriter &) override {}
    void restoreOwnState(StateLoader &) override {}
};

TEST(PrefetcherTest, RestoreRejectsAQueueLongerThanItsCapacity)
{
    // push() never lets the queue pass maxQueue.
    QueueOnly from(8);
    for (unsigned i = 0; i < 6; ++i)
        from.request(Addr(i) * kBlockBytes);
    QueueOnly same(8);
    EXPECT_EQ(test::restoreError<Prefetcher>(same,
                                             test::saved<Prefetcher>(from)),
              "");
    QueueOnly into(4);
    EXPECT_EQ(test::restoreError<Prefetcher>(into,
                                             test::saved<Prefetcher>(from)),
              "prefetch queue longer than its maxQueue");
    EXPECT_EQ(into.queueDepth(), 0u);
}

TEST(PrefetcherTest, RestoreRejectsAnUnalignedQueuedPrefetch)
{
    // The hierarchy fills each popped request, and the fill of an
    // unaligned block panics in the cache's insert.
    QueueOnly from(8);
    from.request(0x1000);
    from.request(0x1044);
    QueueOnly into(8);
    EXPECT_EQ(test::restoreError<Prefetcher>(into,
                                             test::saved<Prefetcher>(from)),
              "a queued prefetch is not block-aligned");
}

} // namespace
} // namespace hp
