#include "common/isa.hh"

#include <atomic>
#include <cstdlib>
#include <iterator>

#include "common/logging.hh"

namespace ad {

namespace {

constexpr IsaTier kAllTiers[] = {IsaTier::Scalar, IsaTier::Sse2,
                                 IsaTier::Avx2, IsaTier::Avx512Vnni};

bool
parseTierName(const std::string& name, IsaTier& out)
{
    for (const IsaTier t : kAllTiers) {
        if (name == isaTierName(t)) {
            out = t;
            return true;
        }
    }
    return false;
}

IsaTier
bestTier()
{
    for (int i = static_cast<int>(std::size(kAllTiers)) - 1; i > 0; --i)
        if (isaTierAvailable(kAllTiers[i]))
            return kAllTiers[i];
    return IsaTier::Scalar;
}

IsaTier
ambientTier()
{
    static const IsaTier tier = [] {
        const char* env = std::getenv("AD_FORCE_ISA");
        if (!env || !*env)
            return bestTier();
        IsaTier forced;
        if (!parseTierName(env, forced))
            fatal("AD_FORCE_ISA=\"", env,
                  "\": unknown ISA tier (expected scalar, sse2, avx2 or "
                  "avx512vnni)");
        if (!isaTierAvailable(forced))
            fatal("AD_FORCE_ISA=", env,
                  ": tier not available on this host (best is ",
                  isaTierName(bestTier()), ")");
        return forced;
    }();
    return tier;
}

// setIsaTier override; -1 means "no override" (ambient rules).
std::atomic<int> forcedTier{-1};

} // namespace

const char*
isaTierName(IsaTier tier)
{
    switch (tier) {
      case IsaTier::Scalar: return "scalar";
      case IsaTier::Sse2: return "sse2";
      case IsaTier::Avx2: return "avx2";
      case IsaTier::Avx512Vnni: return "avx512vnni";
    }
    return "?";
}

bool
isaTierAvailable(IsaTier tier)
{
#if defined(__x86_64__) || defined(__amd64__)
    switch (tier) {
      case IsaTier::Scalar: return true;
      case IsaTier::Sse2: return true; // x86-64 baseline.
      case IsaTier::Avx2: {
        static const bool have = __builtin_cpu_supports("avx2");
        return have;
      }
      case IsaTier::Avx512Vnni: {
        static const bool have = __builtin_cpu_supports("avx512f") &&
                                 __builtin_cpu_supports("avx512bw") &&
                                 __builtin_cpu_supports("avx512vnni");
        return have;
      }
    }
    return false;
#else
    return tier == IsaTier::Scalar;
#endif
}

IsaTier
currentIsaTier()
{
    const int f = forcedTier.load(std::memory_order_relaxed);
    if (f >= 0)
        return static_cast<IsaTier>(f);
    return ambientTier();
}

std::vector<std::string>
availableIsaTiers()
{
    std::vector<std::string> tiers;
    for (const IsaTier t : kAllTiers)
        if (isaTierAvailable(t))
            tiers.emplace_back(isaTierName(t));
    return tiers;
}

bool
setIsaTier(const std::string& name)
{
    if (name.empty()) {
        forcedTier.store(-1, std::memory_order_relaxed);
        return true;
    }
    IsaTier t;
    if (!parseTierName(name, t) || !isaTierAvailable(t))
        return false;
    forcedTier.store(static_cast<int>(t), std::memory_order_relaxed);
    return true;
}

bool
hostHasPopcnt()
{
#if defined(__x86_64__) || defined(__amd64__)
    static const bool have = __builtin_cpu_supports("popcnt");
    return have;
#else
    return false;
#endif
}

} // namespace ad
