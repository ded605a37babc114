/**
 * @file
 * Quickstart: create a NotebookOS cluster, open one notebook session with
 * its distributed kernel, and run a few notebook cells — the smallest
 * end-to-end tour of the public API (Global Scheduler + replicated
 * kernels + NbLang cells).
 *
 * Build & run:  ./build/examples/quickstart
 */
#include <cstdio>

#include "sched/shard.hpp"
#include "sim/simulation.hpp"

using namespace nbos;

int
main()
{
    // 1. A simulation world and a NotebookOS control plane with a small
    //    GPU fleet (4 servers x 8 GPUs).
    sim::Simulation simulation;
    sched::SchedulerConfig config;
    config.initial_servers = 4;
    config.kernel.raft.snapshot_threshold = 16;
    sched::SchedulerShard scheduler(simulation, config, /*seed=*/42);
    scheduler.start();

    // 2. Open a notebook session. It owns one distributed kernel: 3
    //    Raft-replicated replicas placed on distinct servers, subscribed
    //    to 2 GPUs, created when the session starts (§3.2.1).
    const std::int64_t session = 1;
    scheduler.begin_session(session,
                            cluster::ResourceSpec{8000, 32768, 2, 32.0});
    // Step the simulation until the kernel is created.
    while (scheduler.stats().kernels_created == 0 &&
           simulation.now() < 2 * sim::kMinute && simulation.step()) {
    }
    std::printf("[%s] session %lld: kernel %lld created (3 replicas, Raft "
                "leader elected)\n",
                sim::format_time(simulation.now()).c_str(),
                static_cast<long long>(session),
                static_cast<long long>(scheduler.kernel_of(session)));
    simulation.run_until(2 * sim::kMinute);

    // 3. Run notebook cells. Each submission triggers the executor
    //    election (Fig. 5); GPUs bind only while the cell runs (§3.3).
    const char* cells[] = {
        // Cell 1: set up the session state.
        "model = load_model(\"resnet18\")\n"
        "data = load_dataset(\"cifar10\")\n"
        "step = 0\n",
        // Cell 2: train for 2 epochs on the GPU.
        "model = train(model, data, epochs=2)\n"
        "step = step + 1\n",
        // Cell 3: evaluate and print (state carried across cells and
        //         replicated to the standby replicas via Raft).
        "acc = evaluate(model, data)\n"
        "print(\"accuracy:\", acc, \"steps:\", step)\n",
    };
    for (const char* code : cells) {
        scheduler.submit_session(
            session, code, /*is_gpu=*/true, simulation.now(),
            [&](const kernel::ExecutionResult& result,
                const sched::RequestTrace& trace) {
                std::printf(
                    "[%s] cell done by replica %d: status=%s "
                    "delay=%.0f ms run=%.1f s%s%s",
                    sim::format_time(simulation.now()).c_str(),
                    result.executor_replica,
                    result.status == kernel::ExecutionStatus::kOk
                        ? "ok"
                        : result.error.c_str(),
                    sim::to_millis(trace.execution_started -
                                   trace.submitted_at),
                    sim::to_seconds(trace.execution_finished -
                                    trace.execution_started),
                    result.output.empty() ? "\n" : "\n  output: ",
                    result.output.c_str());
            });
        simulation.run_until(simulation.now() + 10 * sim::kMinute);
    }

    // 4. Inspect the cluster: GPUs are no longer bound after the cells.
    std::printf("\ncluster: %zu servers, %d GPUs total, %d committed, "
                "SR=%.2f\n",
                scheduler.cluster().size(),
                scheduler.cluster().total_gpus(),
                scheduler.cluster().total_committed_gpus(),
                scheduler.cluster_sr());
    std::printf("sync latency p90 = %.2f ms over %zu samples\n",
                scheduler.sync_latencies_ms().percentile(90),
                scheduler.sync_latencies_ms().count());

    scheduler.end_session(session);
    std::printf("session ended, its kernel stopped; subscriptions "
                "released: %d subscribed\n",
                scheduler.cluster().total_subscribed_gpus());
    return 0;
}
