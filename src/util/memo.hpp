/**
 * @file
 * Compute-once, thread-safe memo table.
 *
 * The first caller of a key computes the value outside the lock;
 * concurrent callers of the same key wait on its shared_future instead
 * of recomputing. Such a wait is a `util.memo.wait` span, so a profile
 * or timeline shows where workers stall on each other; a hit on a
 * ready value records nothing. Entries are never evicted, so returned
 * references live as long as the table.
 */

#ifndef OTFT_UTIL_MEMO_HPP
#define OTFT_UTIL_MEMO_HPP

#include <chrono>
#include <exception>
#include <future>
#include <map>
#include <mutex>

#include "util/trace.hpp"

namespace otft {

template <typename Key, typename Value>
class Memo
{
  public:
    /** @param computed out: whether this call ran `compute`. */
    template <typename Compute>
    const Value &
    get(const Key &key, Compute &&compute, bool *computed = nullptr)
    {
        std::unique_lock<std::mutex> lock(mutex);
        const auto it = table.find(key);
        if (computed)
            *computed = it == table.end();
        if (it != table.end()) {
            const std::shared_future<Value> done = it->second;
            lock.unlock();
            if (done.wait_for(std::chrono::seconds(0)) !=
                std::future_status::ready) {
                OTFT_TRACE_SCOPE("util.memo.wait");
                done.wait();
            }
            return done.get();
        }
        std::promise<Value> promise;
        const std::shared_future<Value> done = promise.get_future().share();
        table.emplace(key, done);
        lock.unlock();
        try {
            promise.set_value(compute());
        } catch (...) {
            promise.set_exception(std::current_exception());
            throw;
        }
        return done.get();
    }

  private:
    std::mutex mutex;
    std::map<Key, std::shared_future<Value>> table;
};

} // namespace otft

#endif // OTFT_UTIL_MEMO_HPP
