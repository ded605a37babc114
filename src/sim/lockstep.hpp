/**
 * @file
 * Lockstep: the fork/join step both NotebookOS engines use to advance
 * their shards through one lockstep window.
 *
 * Shards share no mutable state, so a window only needs "run every shard's
 * step, then wait for all of them". In parallel mode shard 0 runs on the
 * calling thread and shards 1..n-1 on worker threads that are started on
 * the first step and reused for every later one (a window costs two
 * barrier phases, not n-1 thread spawns). Serial mode runs the steps in
 * shard order on the calling thread. Both modes run every shard's step,
 * then rethrow the exception of the lowest-numbered shard that threw, so
 * a failing shard surfaces at the caller the same way in either mode.
 */
#ifndef NBOS_SIM_LOCKSTEP_HPP
#define NBOS_SIM_LOCKSTEP_HPP

#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <vector>

namespace nbos::sim {

class Lockstep
{
  public:
    /** One step of one shard; called with the shard index. */
    using Step = std::function<void(std::size_t shard)>;

    /** @p parallel with more than one shard runs shards 1..n-1 on
     *  persistent worker threads; otherwise every step is serial. */
    Lockstep(std::size_t shards, bool parallel);
    ~Lockstep();

    Lockstep(const Lockstep&) = delete;
    Lockstep& operator=(const Lockstep&) = delete;

    /** Run @p step for every shard and wait for all of them. The barrier
     *  phases order every shard's writes before this call returns.
     *  @throws the lowest-numbered shard's exception, if any threw. */
    void run(const Step& step);

    /** Wall seconds each shard has spent inside its steps, shard order.
     *  Serial steps are timed alone, so the maximum is the critical path
     *  an n-core host would see. */
    const std::vector<double>& busy_seconds() const { return busy_; }

  private:
    struct Workers;

    void run_shard(std::size_t shard);
    void work(std::size_t shard);

    std::size_t shards_;
    bool parallel_;
    const Step* step_ = nullptr;
    std::vector<double> busy_;
    std::vector<std::exception_ptr> errors_;
    std::unique_ptr<Workers> workers_;
};

}  // namespace nbos::sim

#endif  // NBOS_SIM_LOCKSTEP_HPP
