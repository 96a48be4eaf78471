#include "kernel.hh"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

namespace adbench {

double
referenceKernelMs()
{
    constexpr std::size_t kValues = 1 << 15;
    constexpr std::size_t kInserts = 10000;
    const auto t0 = std::chrono::steady_clock::now();

    std::vector<std::uint32_t> values(kValues);
    std::uint64_t x = 88172645463325252ull; // xorshift64
    for (auto& v : values) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        v = static_cast<std::uint32_t>(x);
    }
    std::sort(values.begin(), values.end());

    std::unordered_map<std::uint32_t, std::uint32_t> hashed;
    std::map<std::uint32_t, std::uint32_t> ordered;
    for (std::size_t i = 0; i < kInserts; ++i) {
        hashed[values[i] & 0xffff] += 1;
        ordered[values[i * 3] & 0xfff] += 1;
    }
    std::uint64_t found = 0;
    for (std::size_t i = 0; i < kInserts; ++i)
        found += hashed.count(values[i + 7] & 0xffff) +
                 ordered.count(values[i] & 0xfff);
    volatile std::uint64_t sink = found;
    (void)sink;

    const std::chrono::duration<double, std::milli> d =
        std::chrono::steady_clock::now() - t0;
    return d.count();
}

} // namespace adbench
