#include "vision/brief.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <utility>

#include "common/isa.hh"
#include "common/random.hh"

namespace ad::vision {

namespace {

#if defined(__x86_64__) || defined(__amd64__)
/**
 * Hamming distance with the POPCNT instruction. At the x86-64 baseline
 * std::popcount compiles to a __popcountdi2 library call; the target
 * attribute lets it become one instruction per word.
 */
__attribute__((target("popcnt"))) int
hammingPopcnt(const std::array<std::uint64_t, 4>& a,
              const std::array<std::uint64_t, 4>& b)
{
    int dist = 0;
    for (int i = 0; i < 4; ++i)
        dist += std::popcount(a[i] ^ b[i]);
    return dist;
}
#endif

} // namespace

int
Descriptor::hamming(const Descriptor& other) const
{
#if defined(__x86_64__) || defined(__amd64__)
    if (currentIsaTier() != IsaTier::Scalar && hostHasPopcnt())
        return hammingPopcnt(words, other.words);
#endif
    int dist = 0;
    for (int i = 0; i < 4; ++i)
        dist += std::popcount(words[i] ^ other.words[i]);
    return dist;
}

const BriefPattern&
BriefPattern::instance()
{
    static const BriefPattern pattern;
    return pattern;
}

BriefPattern::BriefPattern()
{
    // Deterministic pseudo-random pattern: coordinates drawn from a
    // truncated Gaussian inside the 31x31 patch (as in the BRIEF
    // paper's best-performing G-II sampling).
    Rng rng(0x0b51efULL);
    std::array<TestPair, 256> base;
    for (auto& t : base) {
        auto draw = [&rng]() {
            const double v = rng.normal(0.0, 6.5);
            const int c = static_cast<int>(std::lround(v));
            return static_cast<std::int8_t>(std::clamp(c, -15, 15));
        };
        t.ax = draw();
        t.ay = draw();
        t.bx = draw();
        t.by = draw();
    }

    // Pre-rotate for every orientation bin using the LUT sin/cos -- the
    // software analogue of the hardware pattern LUT + Rotate_unit.
    const TrigTables& trig = TrigTables::instance();
    for (int bin = 0; bin < kOrientationBins; ++bin) {
        const float c = trig.cosOf(bin);
        const float s = trig.sinOf(bin);
        for (int i = 0; i < 256; ++i) {
            const TestPair& t = base[i];
            auto rot = [c, s](std::int8_t x, std::int8_t y) {
                const float rx = c * x - s * y;
                const float ry = s * x + c * y;
                return std::pair<std::int8_t, std::int8_t>(
                    static_cast<std::int8_t>(std::clamp(
                        static_cast<int>(std::lround(rx)), -15, 15)),
                    static_cast<std::int8_t>(std::clamp(
                        static_cast<int>(std::lround(ry)), -15, 15)));
            };
            const auto [rax, ray] = rot(t.ax, t.ay);
            const auto [rbx, rby] = rot(t.bx, t.by);
            rotated_[bin][i] = TestPair{rax, ray, rbx, rby};
        }
    }
}

namespace {

/** The descriptor from a pixel reader px(dx, dy) around the keypoint. */
template <class Px>
Descriptor
describeWith(const std::array<BriefPattern::TestPair, 256>& tests, Px px)
{
    // Branch-free bit assembly: the comparison outcomes are close to
    // coin flips, so a branch per test would mostly mispredict.
    Descriptor desc;
    for (int i = 0; i < 256; ++i) {
        const auto& t = tests[i];
        desc.words[i >> 6] |=
            static_cast<std::uint64_t>(px(t.ax, t.ay) < px(t.bx, t.by))
            << (i & 63);
    }
    return desc;
}

} // namespace

Descriptor
describeKeypoint(const Image& smoothed, const Keypoint& kp)
{
    const auto& tests = BriefPattern::instance().rotated(kp.orientationBin);
    const int cx = static_cast<int>(kp.x);
    const int cy = static_cast<int>(kp.y);
    // Pattern coordinates lie in [-15, 15]: a keypoint that far inside
    // reads raw pixels, one nearer the border reads clamped.
    constexpr int reach = 15;
    if (cx >= reach && cy >= reach && cx + reach < smoothed.width() &&
        cy + reach < smoothed.height()) {
        const std::uint8_t* p = smoothed.row(cy) + cx;
        const std::ptrdiff_t stride = smoothed.width();
        return describeWith(tests, [p, stride](int dx, int dy) {
            return p[dy * stride + dx];
        });
    }
    return describeWith(tests, [&smoothed, cx, cy](int dx, int dy) {
        return smoothed.atClamped(cx + dx, cy + dy);
    });
}

std::vector<Descriptor>
describeKeypoints(const Image& smoothed, const std::vector<Keypoint>& kps,
                  BriefOpCounts* counts)
{
    std::vector<Descriptor> descs;
    descs.reserve(kps.size());
    for (const auto& kp : kps)
        descs.push_back(describeKeypoint(smoothed, kp));
    if (counts) {
        counts->descriptors += kps.size();
        counts->binaryTests += kps.size() * 256ULL;
    }
    return descs;
}

} // namespace ad::vision
