/**
 * @file
 * Output checks run on every measured repetition, traced or not. They
 * state properties any correct run has, not golden values, so a change to
 * the modelled design may move the simulated metrics without failing them.
 */
#ifndef NBOS_E2EBENCH_CHECKS_HPP
#define NBOS_E2EBENCH_CHECKS_HPP

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/engine_api.hpp"

namespace e2e {

/** Sessions and cells of an input, or of the part of it a run pulled. */
struct Counts
{
    std::uint64_t sessions = 0;
    std::uint64_t cells = 0;
};

/** What the input and the workload promise about a run's outputs. */
struct CheckSpec
{
    /** Everything the input holds, counted apart from the run. */
    Counts input;
    /** Fixed-fleet workloads must see no abort, migration or scale-out. */
    bool fixed_fleet = false;
    /** What the benchmark's source wrapper handed out (streamed
     *  workloads): it must be the whole input, and its sessions must match
     *  the kernels the engine created. */
    std::optional<Counts> pulled;
};

/** Check @p run against @p spec.
 *  @return one message per violated check; empty when all hold. */
std::vector<std::string> check_outputs(const nbos::core::RunResponse& run,
                                       const CheckSpec& spec);

}  // namespace e2e

#endif  // NBOS_E2EBENCH_CHECKS_HPP
