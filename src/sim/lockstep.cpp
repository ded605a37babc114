#include "sim/lockstep.hpp"

#include <barrier>
#include <chrono>
#include <thread>

namespace nbos::sim {

/** The worker pool: started on the first parallel step, joined by the
 *  destructor. `start` releases one step (or the shutdown), `finish`
 *  collects it; both count the calling thread plus every worker. */
struct Lockstep::Workers
{
    explicit Workers(std::ptrdiff_t parties) : start(parties), finish(parties)
    {
    }

    std::barrier<> start;
    std::barrier<> finish;
    bool stopping = false;
    std::vector<std::thread> threads;
};

Lockstep::Lockstep(std::size_t shards, bool parallel)
    : shards_(shards),
      parallel_(parallel && shards > 1),
      busy_(shards, 0.0),
      errors_(shards)
{
}

Lockstep::~Lockstep()
{
    if (workers_) {
        workers_->stopping = true;
        workers_->start.arrive_and_wait();
        for (std::thread& thread : workers_->threads) {
            thread.join();
        }
    }
}

void
Lockstep::run(const Step& step)
{
    step_ = &step;
    if (parallel_) {
        if (!workers_) {
            workers_ = std::make_unique<Workers>(
                static_cast<std::ptrdiff_t>(shards_));
            workers_->threads.reserve(shards_ - 1);
            for (std::size_t i = 1; i < shards_; ++i) {
                workers_->threads.emplace_back([this, i] { work(i); });
            }
        }
        workers_->start.arrive_and_wait();
        run_shard(0);
        workers_->finish.arrive_and_wait();
    } else {
        for (std::size_t i = 0; i < shards_; ++i) {
            run_shard(i);
        }
    }
    step_ = nullptr;
    for (std::exception_ptr& error : errors_) {
        if (error) {
            const std::exception_ptr first = error;
            for (std::exception_ptr& other : errors_) {
                other = nullptr;
            }
            std::rethrow_exception(first);
        }
    }
}

void
Lockstep::run_shard(std::size_t shard)
{
    const auto begin = std::chrono::steady_clock::now();
    try {
        (*step_)(shard);
    } catch (...) {
        errors_[shard] = std::current_exception();
    }
    busy_[shard] += std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - begin)
                        .count();
}

void
Lockstep::work(std::size_t shard)
{
    for (;;) {
        workers_->start.arrive_and_wait();
        if (workers_->stopping) {
            return;
        }
        run_shard(shard);
        workers_->finish.arrive_and_wait();
    }
}

}  // namespace nbos::sim
