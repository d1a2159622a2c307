/**
 * @file
 * Small job-queue thread pool with cooperative work stealing, used by
 * the parallel repair portfolio.
 *
 * Tasks are arbitrary callables; submit() returns a std::future for
 * the task's result.  help() pops one queued job and runs it in the
 * calling thread, so a thread that polls its futures between help()
 * calls counts as one more worker.  The portfolio's scheduler works
 * this way: it runs templates itself, and with no worker threads it
 * runs every template.  waitCollect() is the same loop for a single
 * future.
 *
 * Long-running tasks are expected to poll a Deadline (optionally
 * derived from a CancelToken) so shutdown and first-success-wins
 * cancellation stay prompt; the pool itself never kills a thread.
 */
#ifndef RTLREPAIR_UTIL_THREAD_POOL_HPP
#define RTLREPAIR_UTIL_THREAD_POOL_HPP

#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace rtlrepair {

/** Fixed-size worker pool over a FIFO job queue. */
class ThreadPool
{
  public:
    /** Spawn @p workers threads (0 is allowed: all jobs then run in
     *  whichever thread calls help()). */
    explicit ThreadPool(size_t workers);

    /** Joins all workers; queued jobs are drained first (they should
     *  observe a cancelled Deadline and return quickly). */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of worker threads. */
    size_t workerCount() const { return _threads.size(); }

    /** Queue @p fn; returns a future for its result. */
    template <typename F>
    auto
    submit(F &&fn) -> std::future<std::invoke_result_t<F>>
    {
        using R = std::invoke_result_t<F>;
        auto task = std::make_shared<std::packaged_task<R()>>(
            std::forward<F>(fn));
        std::future<R> fut = task->get_future();
        {
            std::lock_guard<std::mutex> lock(_mutex);
            _queue.emplace_back([task] { (*task)(); });
        }
        _cv.notify_one();
        return fut;
    }

    /** Pop one queued job and run it in the calling thread.
     *  Returns false when the queue was empty. */
    bool help();

    /** Wait for @p fut while helping with queued jobs. */
    template <typename T>
    T
    waitCollect(std::future<T> &fut)
    {
        using namespace std::chrono_literals;
        while (fut.wait_for(0s) != std::future_status::ready) {
            if (!help())
                fut.wait_for(200us);
        }
        return fut.get();
    }

  private:
    void workerLoop();

    std::vector<std::thread> _threads;
    std::deque<std::function<void()>> _queue;
    std::mutex _mutex;
    std::condition_variable _cv;
    bool _stop = false;
};

} // namespace rtlrepair

#endif // RTLREPAIR_UTIL_THREAD_POOL_HPP
