/**
 * @file
 * A growable power-of-two ring buffer with deque semantics.
 *
 * The simulator's FTQ and instruction window are FIFO structures that
 * are pushed at the back and popped at the front millions of times per
 * simulated second. std::deque pays for its segmented storage with a
 * double indirection on every access; this ring keeps the live window
 * contiguous (modulo one wrap point), indexes with a mask, and only
 * reallocates when the population outgrows the current capacity.
 */

#ifndef HP_UTIL_RING_BUFFER_HH
#define HP_UTIL_RING_BUFFER_HH

#include <cstddef>
#include <utility>
#include <vector>

namespace hp
{

template <typename T>
class RingBuffer
{
  public:
    explicit RingBuffer(std::size_t initial_capacity = 64)
    {
        std::size_t cap = 1;
        while (cap < initial_capacity)
            cap <<= 1;
        buf_.resize(cap);
    }

    bool empty() const { return count_ == 0; }
    std::size_t size() const { return count_; }
    std::size_t capacity() const { return buf_.size(); }

    T &front() { return buf_[head_]; }
    const T &front() const { return buf_[head_]; }

    T &back() { return buf_[wrap(head_ + count_ - 1)]; }
    const T &back() const { return buf_[wrap(head_ + count_ - 1)]; }

    T &operator[](std::size_t i) { return buf_[wrap(head_ + i)]; }
    const T &operator[](std::size_t i) const
    {
        return buf_[wrap(head_ + i)];
    }

    void
    push_back(T value)
    {
        if (count_ == buf_.size())
            grow();
        buf_[wrap(head_ + count_)] = std::move(value);
        ++count_;
    }

    /** Appends a default element and returns it, for callers that
     *  fill the slot in place instead of copying a value in. */
    T &
    emplace_back()
    {
        if (count_ == buf_.size())
            grow();
        ++count_;
        return back();
    }

    void
    pop_front()
    {
        buf_[head_] = T{};
        head_ = wrap(head_ + 1);
        --count_;
    }

    void
    clear()
    {
        while (count_ > 0)
            pop_front();
        head_ = 0;
    }

  private:
    std::size_t wrap(std::size_t i) const { return i & (buf_.size() - 1); }

    void
    grow()
    {
        std::vector<T> bigger(buf_.size() * 2);
        for (std::size_t i = 0; i < count_; ++i)
            bigger[i] = std::move(buf_[wrap(head_ + i)]);
        buf_ = std::move(bigger);
        head_ = 0;
    }

    std::vector<T> buf_;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
};

} // namespace hp

#endif // HP_UTIL_RING_BUFFER_HH
