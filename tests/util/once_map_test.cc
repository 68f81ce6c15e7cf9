/**
 * @file
 * OnceMap: one production per key under concurrent requests, producers
 * running outside the map's lock, a producer's exception shared by
 * every requester, and keys kept apart by equality, not by hash.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/once_map.hh"

namespace hp
{
namespace
{

TEST(OnceMapTest, ConcurrentRequestsRunTheProducerOnce)
{
    OnceMap<int, int> map;
    std::atomic<int> runs{0};
    constexpr int kThreads = 8;
    std::vector<int> seen(kThreads, 0);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            seen[t] = map.get(7, [&runs] {
                ++runs;
                std::this_thread::sleep_for(std::chrono::milliseconds(20));
                return 42;
            });
        });
    }
    for (std::thread &thread : threads)
        thread.join();

    EXPECT_EQ(runs.load(), 1);
    for (int value : seen)
        EXPECT_EQ(value, 42);
    EXPECT_EQ(map.size(), 1u);
}

/** How long a producer waits for the other before giving up. */
constexpr std::chrono::seconds kPatience{10};

TEST(OnceMapTest, ProducersRunOutsideTheLock)
{
    // Each producer waits until the other one has started. If a
    // producer ran under the map's lock, the second key's lookup would
    // block behind it and neither wait could succeed.
    OnceMap<int, int> map;
    std::promise<void> a_started, b_started;
    std::shared_future<void> a_seen = a_started.get_future().share();
    std::shared_future<void> b_seen = b_started.get_future().share();

    auto produce = [&](std::promise<void> &mine,
                       std::shared_future<void> other, int value) {
        return [&mine, other, value] {
            mine.set_value();
            return other.wait_for(kPatience) == std::future_status::ready
                ? value
                : -1;
        };
    };
    std::future<int> a = std::async(std::launch::async, [&] {
        return map.get(1, produce(a_started, b_seen, 10));
    });
    std::future<int> b = std::async(std::launch::async, [&] {
        return map.get(2, produce(b_started, a_seen, 20));
    });
    EXPECT_EQ(a.get(), 10);
    EXPECT_EQ(b.get(), 20);
}

TEST(OnceMapTest, ProducerExceptionReachesEveryRequester)
{
    OnceMap<std::string, int> map;
    std::atomic<int> runs{0};
    std::promise<void> release;
    std::shared_future<void> released = release.get_future().share();

    // The first requester holds the task; the others wait on it.
    OnceMap<std::string, int>::Task task;
    std::shared_future<int> first = map.acquire(
        "k",
        [&runs, released]() -> int {
            ++runs;
            released.wait();
            throw std::runtime_error("producer failed");
        },
        &task);
    ASSERT_TRUE(task.valid());
    std::thread producer([&task] { task(); });

    constexpr int kWaiters = 4;
    std::vector<std::future<std::string>> waiters;
    for (int i = 0; i < kWaiters; ++i) {
        waiters.push_back(std::async(std::launch::async, [&map, &runs] {
            try {
                map.get("k", [&runs] { return ++runs; });
            } catch (const std::runtime_error &e) {
                return std::string(e.what());
            }
            return std::string("no exception");
        }));
    }
    release.set_value();
    producer.join();

    EXPECT_THROW(first.get(), std::runtime_error);
    for (std::future<std::string> &waiter : waiters)
        EXPECT_EQ(waiter.get(), "producer failed");
    // A later request is not retried: it sees the same failure.
    EXPECT_THROW(map.get("k", [] { return 0; }), std::runtime_error);
    EXPECT_EQ(runs.load(), 1);
}

struct ConstantHash
{
    std::size_t operator()(const std::string &) const { return 1; }
};

TEST(OnceMapTest, ConstantHashKeepsUnequalKeysApart)
{
    OnceMap<std::string, std::string, ConstantHash> map;
    for (const char *key : {"alpha", "beta", "gamma"})
        EXPECT_EQ(map.get(key, [key] { return std::string(key) + "!"; }),
                  std::string(key) + "!");
    EXPECT_EQ(map.size(), 3u);
    EXPECT_EQ(map.get("beta", [] { return std::string("rerun"); }),
              "beta!");
}

} // namespace
} // namespace hp
