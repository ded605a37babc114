/**
 * @file
 * Fault tolerance and migration walkthrough (§3.2.3/§3.2.5):
 *   1. a replica crashes fail-stop and the health checker rebuilds it
 *      from the surviving majority's replicated state;
 *   2. all replica servers run out of GPUs, the executor election fails
 *      (all YIELD), and the Global Scheduler migrates a replica to a
 *      server with idle GPUs, then re-runs the cell there.
 *
 * Build & run:  ./build/examples/failover_migration
 */
#include <cstdio>
#include <set>

#include "sched/shard.hpp"
#include "sim/simulation.hpp"

using namespace nbos;

namespace {

cluster::ResourceSpec
eight_gpus()
{
    return cluster::ResourceSpec{32000, 131072, 8, 128.0};
}

}  // namespace

int
main()
{
    sim::Simulation simulation;
    sched::SchedulerConfig config;
    config.initial_servers = 4;
    config.kernel.raft.snapshot_threshold = 16;
    config.yield_conversion = false;  // show the full Raft election path
    sched::SchedulerShard scheduler(simulation, config, 11);
    scheduler.start();

    const std::int64_t session = 1;
    scheduler.begin_session(session, eight_gpus());
    simulation.run_until(2 * sim::kMinute);
    const cluster::KernelId kernel = scheduler.kernel_of(session);
    std::printf("session %lld: kernel %lld up with 3 replicas\n",
                static_cast<long long>(session),
                static_cast<long long>(kernel));

    // Establish some session state.
    scheduler.submit_session(session, "step = 41\ngpu_compute(5)", true,
                             simulation.now(),
                             [](const kernel::ExecutionResult&,
                                const sched::RequestTrace&) {});
    simulation.run_until(simulation.now() + 5 * sim::kMinute);

    // --- Part 1: fail-stop replica crash (§3.2.5) ---------------------
    std::printf("\n[1] crashing replica 0 (fail-stop)...\n");
    scheduler.inject_replica_failure(session, 0);
    simulation.run_until(simulation.now() + 5 * sim::kMinute);
    std::printf("    failovers performed: %llu; replica 0 running again: "
                "%s\n",
                static_cast<unsigned long long>(
                    scheduler.stats().replica_failovers),
                scheduler.replica(session, 0)->running() ? "yes" : "no");
    scheduler.submit_session(
        session, "step = step + 1\nprint(step)\ngpu_compute(2)", true,
        simulation.now(),
        [&](const kernel::ExecutionResult& result,
            const sched::RequestTrace&) {
            std::printf("    post-failover cell ok, state intact: "
                        "output=%s",
                        result.output.c_str());
        });
    simulation.run_until(simulation.now() + 5 * sim::kMinute);

    // --- Part 2: failed election -> migration (§3.2.3) ----------------
    std::printf("\n[2] saturating the three replica servers...\n");
    std::set<cluster::ServerId> replica_servers;
    for (const auto& [id, server] : scheduler.cluster().servers()) {
        for (const auto& [cid, container] : server->containers()) {
            if (container.kernel == kernel) {
                replica_servers.insert(id);
            }
        }
    }
    for (const cluster::ServerId id : replica_servers) {
        scheduler.cluster().find(id)->commit(eight_gpus());
    }
    std::printf("    submitting a GPU cell: every replica must YIELD\n");
    bool done = false;
    scheduler.submit_session(
        session, "step = step + 1\nprint(step)\ngpu_compute(10)", true,
        simulation.now(),
        [&](const kernel::ExecutionResult& result,
            const sched::RequestTrace& trace) {
            done = true;
            std::printf("    cell completed after migration=%s "
                        "delay=%.1f s output=%s",
                        trace.migrated ? "yes" : "no",
                        sim::to_seconds(trace.execution_started -
                                        trace.submitted_at),
                        result.output.c_str());
        });
    simulation.run_until(simulation.now() + 15 * sim::kMinute);
    std::printf("    elections failed: %llu, migrations: %llu, "
                "prewarm hits: %llu, done=%s\n",
                static_cast<unsigned long long>(
                    scheduler.stats().elections_failed),
                static_cast<unsigned long long>(
                    scheduler.stats().migrations),
                static_cast<unsigned long long>(
                    scheduler.stats().prewarm_hits),
                done ? "yes" : "no");
    return 0;
}
