/**
 * @file
 * Figs. 16-19 (Appendix E): detailed end-to-end latency breakdown of
 * execute requests per policy, over the Fig. 15 step numbering:
 *   (1)  GS preprocessing (queueing, provisioning, placement)
 *   (2-4) network hops GS -> LS -> replica
 *   (6)  executor-election protocol (NotebookOS only)
 *   (7)  election end -> execution start (GPU bind, page-in)
 *   (8)  user-code execution
 *   (9)  post-processing before the reply (sync/unbind/writeback)
 *   (10) reply path back to the client
 */
#include "bench_common.hpp"

namespace {

using namespace nbos;

void
breakdown(const char* name, const core::ExperimentResults& results)
{
    metrics::Percentiles gs_pre;
    metrics::Percentiles hops;
    metrics::Percentiles election;
    metrics::Percentiles pre_exec;
    metrics::Percentiles exec;
    metrics::Percentiles post;
    metrics::Percentiles reply;
    metrics::Percentiles e2e;
    for (const auto& task : results.tasks) {
        if (task.aborted || !task.is_gpu) {
            continue;
        }
        e2e.add(sim::to_millis(task.reply - task.submit));
        exec.add(sim::to_millis(task.exec_end - task.exec_start));
        post.add(sim::to_millis(task.reply > task.replica_replied &&
                                        task.replica_replied > 0
                                    ? task.replica_replied - task.exec_end
                                    : task.reply - task.exec_end));
        if (task.gs_received > 0) {  // the prototype fills every step
            gs_pre.add(
                sim::to_millis(task.gs_dispatched - task.gs_received));
            hops.add(
                sim::to_millis(task.replica_received - task.gs_dispatched));
            election.add(sim::to_millis(task.election_latency));
            pre_exec.add(sim::to_millis(task.exec_start -
                                        task.replica_received -
                                        task.election_latency));
            reply.add(sim::to_millis(task.reply - task.replica_replied));
        } else {
            // Baselines: everything before execution is step 1.
            gs_pre.add(sim::to_millis(task.exec_start - task.submit));
        }
    }
    std::printf("\n--- %s ---\n", name);
    bench::print_percentiles("(1) GS preprocess", gs_pre, "ms");
    if (hops.count() > 0) {
        bench::print_percentiles("(2-4) hops+LS", hops, "ms");
        bench::print_percentiles("(6) election", election, "ms");
        bench::print_percentiles("(7) bind/page-in", pre_exec, "ms");
    }
    bench::print_percentiles("(8) execution", exec, "ms");
    bench::print_percentiles("(9) post-process", post, "ms");
    if (reply.count() > 0) {
        bench::print_percentiles("(10) reply path", reply, "ms");
    }
    bench::print_percentiles("E2E", e2e, "ms");
}

}  // namespace

int
main()
{
    const auto trace = bench::excerpt_trace();
    bench::banner("Figs. 16-19: per-step latency breakdown (ms)");

    // The four policies run concurrently on the ExperimentRunner;
    // results come back in request order.
    const auto results =
        bench::run_policies(trace, {{core::Policy::kReservation},
                                    {core::Policy::kBatch},
                                    {core::Policy::kNotebookOS},
                                    {core::Policy::kNotebookOSLCP}});
    breakdown("Fig. 16: Reservation", results[0]);
    breakdown("Fig. 17: Batch", results[1]);
    breakdown("Fig. 18: NotebookOS", results[2]);
    breakdown("Fig. 19: NotebookOS (LCP)", results[3]);

    std::printf("\nShape checks: Batch spends its time in step (1) "
                "(on-demand provisioning + queueing);\n"
                "NotebookOS adds a small step (6) election cost "
                "(tens of ms) that does not dominate E2E.\n");
    return 0;
}
