/**
 * @file
 * The one runtime ISA resolver shared by every SIMD kernel family in
 * the tree (int8 GEMM in src/nn, FAST-9 / popcount in src/vision).
 *
 * Tiers are ordered worst to best: scalar -> SSE2 -> AVX2 ->
 * AVX-512. The top tier is named "avx512vnni" and needs AVX-512F, BW
 * and VNNI; the int8 GEMM uses its vpdpbusd. The vision kernels run
 * their SSE2 code at every tier above scalar. Every kernel family must
 * produce bit-identical results at every tier, so the tier is a speed
 * knob only.
 *
 * The ambient tier is the best the CPU reports, unless the
 * AD_FORCE_ISA environment variable names another
 * (scalar/sse2/avx2/avx512vnni). It is parsed once; an unknown or
 * unavailable name is a fatal() so a typoed CI matrix entry cannot
 * silently measure the wrong kernel. setIsaTier() is the in-process
 * test override.
 */

#ifndef AD_COMMON_ISA_HH
#define AD_COMMON_ISA_HH

#include <string>
#include <vector>

namespace ad {

/** Dispatch tiers, worst to best. */
enum class IsaTier { Scalar = 0, Sse2, Avx2, Avx512Vnni };

/** The tier's AD_FORCE_ISA spelling ("scalar", "sse2", ...). */
const char* isaTierName(IsaTier tier);

/** Can this host execute the tier? (scalar always; SSE2 on x86-64.) */
bool isaTierAvailable(IsaTier tier);

/** The tier in effect: the setIsaTier override, else the ambient one. */
IsaTier currentIsaTier();

/**
 * Names of every tier this host can execute, worst to best ("scalar"
 * first). Cross-tier tests iterate this list and require every member
 * to produce bit-identical results.
 */
std::vector<std::string> availableIsaTiers();

/**
 * Force the tier by name for this process; the empty string restores
 * the ambient tier. Returns false -- changing nothing -- when the name
 * is unknown or the tier is unavailable on this host. Test hook;
 * production overrides use AD_FORCE_ISA so the choice is visible in
 * the environment block of a benchmark log.
 */
bool setIsaTier(const std::string& name);

/**
 * Does the host have the POPCNT instruction? Every AVX2 CPU has it,
 * but the SSE2 (x86-64 baseline) tier does not guarantee it.
 */
bool hostHasPopcnt();

} // namespace ad

#endif // AD_COMMON_ISA_HH
