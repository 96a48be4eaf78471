/**
 * @file
 * The benchmark's workloads. Each one builds its inputs from the
 * seed, sets up the libraries (timed as setup_s), measures for the
 * requested number of seconds, checks the outputs, and fills a
 * Result. Untraced runs report the end-to-end metrics; traced runs
 * record spans around the library calls and report the per-layer
 * metrics of the layers the workload exercises. Each samples the
 * host's speed (SpeedProbe) after every setup and between operations
 * of its measured window, leaving the samples' own time out of it.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include "harness.hh"
#include "tracer.hh"

namespace adbench {

/** Urban, 416 DET input, async pipeline at depth 2, closed loop. */
Result runUrbanDetSaturated(const Args& args, Tracer& tracer,
                            SpeedProbe& probe);

/** MultiStreamServer over the measured NnBatchEngine, open loop. */
Result runFleetServeMeasured(const Args& args, Tracer& tracer,
                             SpeedProbe& probe);

/** One loadgen tape through ShardedServer and MapServeSim. */
Result runFleetMapSim(const Args& args, Tracer& tracer,
                      SpeedProbe& probe);

/**
 * Number of times setup is repeated in an untraced run; setup_s is
 * the median. The last repetition's state is the one measured.
 */
constexpr int kSetupRepeats = 3;

/** kSetupRepeats for workloads whose setup takes well under a second. */
constexpr int kQuickSetupRepeats = 7;

} // namespace adbench

#endif // PERFBENCH_WORKLOADS_HH
