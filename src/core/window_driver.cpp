#include "core/window_driver.hpp"

#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>

namespace nbos::core {

SessionFeed::SessionFeed(workload::SessionSource& source, sim::Time window)
    : source_(source),
      window_(window),
      makespan_(source.makespan()),
      has_pending_(source.next(pending_))
{
}

template <typename T>
std::vector<T>&
SessionFeed::Calendar<T>::at(std::int64_t slot)
{
    const auto index = static_cast<std::size_t>(std::max(slot, base) - base);
    if (index >= buckets.size()) {
        buckets.resize(index + 1);
    }
    return buckets[index];
}

std::int64_t
SessionFeed::slot(sim::Time t) const
{
    return t <= 0 ? 0 : (t + window_ - 1) / window_;
}

sim::Time
SessionFeed::next_admission() const
{
    return has_pending_ ? slot(pending_.start_time) * window_
                        : std::numeric_limits<sim::Time>::max();
}

const workload::SessionSpec*
SessionFeed::admit_next(sim::Time t, std::size_t ahead)
{
    if (!has_pending_ || (pending_.start_time > t && live_.size() >= ahead)) {
        return nullptr;
    }
    // Under least_loaded the admission order decides the route, so a
    // source must yield each (start_time, id) above the last.
    if (std::tie(pending_.start_time, pending_.id) <=
        std::tie(last_start_, last_id_)) {
        throw std::invalid_argument(
            "streamed session source is not sorted by (start_time, id)");
    }
    last_start_ = pending_.start_time;
    last_id_ = pending_.id;
    const workload::SessionId id = pending_.id;
    const auto [it, inserted] = live_.emplace(id, std::move(pending_));
    if (!inserted) {
        throw std::invalid_argument(
            "streamed session source repeated session id " +
            std::to_string(id));
    }
    has_pending_ = source_.next(pending_);

    const workload::SessionSpec* session = &it->second;
    const auto add = [&](sim::Time time, Injection::Kind kind,
                         const workload::CellTask* task) {
        events_.at(slot(time)).push_back(
            Injection{time, session, kind, task, next_seq_++});
    };
    sim::Time last_event = session->start_time;
    add(session->start_time, Injection::kStart, nullptr);
    if (session->end_time < makespan_) {
        add(session->end_time, Injection::kEnd, nullptr);
        last_event = std::max(last_event, session->end_time);
    }
    for (const workload::CellTask& task : session->tasks) {
        add(task.submit_time, Injection::kTask, &task);
        last_event = std::max(last_event, task.submit_time);
    }
    retire_.at(slot(last_event)).push_back(id);
    return session;
}

bool
SessionFeed::next_due(sim::Time t, Injection& out)
{
    while (next_ready_ == ready_.size()) {
        if (events_.buckets.empty() || events_.base > slot(t)) {
            return false;
        }
        ready_ = std::move(events_.buckets.front());
        events_.buckets.pop_front();
        ++events_.base;
        next_ready_ = 0;
        // (time, session, kind, admission): the session id is only read
        // on a time tie, which keeps the sort off the spec pointers.
        std::sort(ready_.begin(), ready_.end(),
                  [](const Injection& a, const Injection& b) {
                      if (a.time != b.time) {
                          return a.time < b.time;
                      }
                      if (a.session->id != b.session->id) {
                          return a.session->id < b.session->id;
                      }
                      return std::tie(a.kind, a.seq) <
                             std::tie(b.kind, b.seq);
                  });
    }
    out = ready_[next_ready_++];
    return true;
}

RunResponse
merge_shards(std::vector<ExperimentResults> parts,
             const std::vector<ShardWork>& work)
{
    RunResponse response;
    ExperimentResults& merged = response.results;
    std::vector<std::vector<sched::SchedulerEvent>> events;
    events.reserve(parts.size());
    for (std::size_t i = 0; i < parts.size(); ++i) {
        ExperimentResults& part = parts[i];
        merged.sched_stats += part.sched_stats;
        events.push_back(std::move(part.events));
        merged.sync_ms.add_all(part.sync_ms.sorted());
        merged.read_ms.add_all(part.read_ms.sorted());
        merged.write_ms.add_all(part.write_ms.sorted());
        merged.store_bytes_written += part.store_bytes_written;
        merged.net_stats += part.net_stats;
        const ShardWork& shard = work.at(i);
        response.shard_events.push_back(shard.events);
        response.events_executed += shard.events;
        response.placement_servers_examined +=
            shard.placement_servers_examined;
    }
    merged.events = sched::merge_events(events);
    // Only a sharded run has a shard view.
    if (parts.size() > 1) {
        for (const std::uint64_t executed : response.shard_events) {
            merged.sched_stats.shard_loads.push_back(
                sched::ShardLoadSample{executed});
        }
    }
    return response;
}

void
finalize_tasks(ExperimentResults& results)
{
    std::vector<std::pair<sim::Time, double>> committed;
    for (TaskOutcome& task : results.tasks) {
        if (task.reply == 0) {
            task.aborted = true;
        }
        if (task.is_gpu && !task.aborted) {
            committed.emplace_back(task.exec_start,
                                   static_cast<double>(task.gpus));
            committed.emplace_back(task.exec_end,
                                   -static_cast<double>(task.gpus));
        }
    }
    results.committed_gpus = series_from_deltas(std::move(committed));
}

}  // namespace nbos::core
