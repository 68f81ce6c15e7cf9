/**
 * @file
 * A compute-once map: each key's value is produced exactly once per
 * process, and every requester of that key, concurrent or later,
 * receives the one result.
 *
 * The run layer needs this in four places: one build per binary, one
 * parse per scenario text, one warmup per checkpoint class and one
 * simulation per distinct config. The first caller for a key receives
 * the producer as a std::packaged_task and decides where it runs:
 * get() runs it inline, Executor::submit queues it for a worker.
 * Every caller holds the same std::shared_future, so a waiter blocks
 * on the one production in flight, and a producer's exception reaches
 * every waiter and every later request of the key (the entry is never
 * retried). The map's lock covers the lookup only; producers run
 * outside it, so different keys produce in parallel and a producer may
 * itself request other keys.
 */

#ifndef HP_UTIL_ONCE_MAP_HH
#define HP_UTIL_ONCE_MAP_HH

#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <unordered_map>
#include <utility>

namespace hp
{

template <class K, class V, class Hash = std::hash<K>>
class OnceMap
{
  public:
    using Task = std::packaged_task<V()>;

    /**
     * The shared future of @p key's value. If this call is the first
     * for @p key, @p task receives @p produce and the caller must run
     * it (inline or on another thread); otherwise @p task is left
     * invalid and @p produce is dropped unrun.
     */
    template <class F>
    std::shared_future<V>
    acquire(const K &key, F &&produce, Task *task)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto [it, first] = map_.try_emplace(key);
        if (first) {
            *task = Task(std::forward<F>(produce));
            it->second = task->get_future().share();
        }
        return it->second;
    }

    /** @p key's value, produced inline if this call is the first for
     *  it. Rethrows the producer's exception. */
    template <class F>
    V
    get(const K &key, F &&produce)
    {
        Task task;
        std::shared_future<V> future =
            acquire(key, std::forward<F>(produce), &task);
        if (task.valid())
            task();
        return future.get();
    }

    /** Keys requested so far, produced or in flight. */
    std::size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return map_.size();
    }

  private:
    mutable std::mutex mutex_;
    /** Keyed by configs and strings, which FlatMap cannot hold. */
    std::unordered_map<K, std::shared_future<V>, Hash> map_;
};

} // namespace hp

#endif // HP_UTIL_ONCE_MAP_HH
