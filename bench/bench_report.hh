/**
 * @file
 * Shared pieces of the BENCH_*.json writers: the host fingerprint
 * block every artifact records next to its numbers, and the
 * interpolated quantiles used for medians and quartiles.
 */

#ifndef AD_BENCH_REPORT_HH
#define AD_BENCH_REPORT_HH

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/isa.hh"

namespace ad::bench {

/** Linear-interpolated quantile q in [0, 1] of a non-empty sample. */
inline double
quantile(std::vector<double> xs, double q)
{
    std::sort(xs.begin(), xs.end());
    const double pos = q * static_cast<double>(xs.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, xs.size() - 1);
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - static_cast<double>(lo));
}

/** The CPU model string from /proc/cpuinfo, or "unknown". */
inline std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    return "unknown";
}

/**
 * The `"host": {...}` member of an artifact: CPU model, hardware
 * threads, the ambient ISA tier, any AD_FORCE_ISA override and the
 * compiler version.
 */
inline std::string
hostJson()
{
    const char* forced = std::getenv("AD_FORCE_ISA");
    return "\"host\": {\"cpu\": \"" + cpuModel() + "\", \"nproc\": " +
           std::to_string(std::thread::hardware_concurrency()) +
           ", \"ambient_tier\": \"" + isaTierName(currentIsaTier()) +
           "\", \"ad_force_isa\": \"" + (forced ? forced : "") +
           "\", \"compiler\": \"" + __VERSION__ + "\"}";
}

} // namespace ad::bench

#endif // AD_BENCH_REPORT_HH
