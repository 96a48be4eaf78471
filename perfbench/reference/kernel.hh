/**
 * @file
 * A fixed piece of CPU work that uses none of the repository's code:
 * fill, sort, and hash-map and ordered-map inserts and lookups over a
 * 128 KiB working set. Its running time tracks how fast the host runs
 * ordinary branchy, cache-resident code at the moment it is called.
 */

#ifndef PERFBENCH_REFERENCE_KERNEL_HH
#define PERFBENCH_REFERENCE_KERNEL_HH

namespace adbench {

/** Run the reference kernel once; returns its wall time (ms). */
double referenceKernelMs();

} // namespace adbench

#endif // PERFBENCH_REFERENCE_KERNEL_HH
