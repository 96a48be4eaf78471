#include "vision/fast.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>

#include "common/isa.hh"

#if defined(__x86_64__) || defined(__amd64__)
#define AD_VISION_X86 1
#include <immintrin.h>
#endif

namespace ad::vision {

namespace {

/** Bresenham circle of radius 3: the 16 FAST test offsets, in order. */
constexpr int kCircle[16][2] = {
    {0, -3}, {1, -3}, {2, -2}, {3, -1}, {3, 0}, {3, 1}, {2, 2}, {1, 3},
    {0, 3}, {-1, 3}, {-2, 2}, {-3, 1}, {-3, 0}, {-3, -1}, {-2, -2},
    {-1, -3},
};

constexpr int kArcLength = 9; // FAST-9.

// Orientation disc + circle radius: every candidate's Harris window
// (radius 4) and orientation disc (radius 8) lie inside the image, so
// the detector reads raw pixels without clamping.
constexpr int kBorder = 8 + 3;

/** The 16 circle taps as deltas from the center pixel's address. */
struct CircleOffsets
{
    std::ptrdiff_t at[16];

    explicit CircleOffsets(std::ptrdiff_t stride)
    {
        for (int i = 0; i < 16; ++i)
            at[i] = kCircle[i][1] * stride + kCircle[i][0];
    }
};

/** The scalar FAST-9 segment test on the pixel at `p`. */
bool
segmentTest(const std::uint8_t* p, const std::ptrdiff_t* off,
            int threshold)
{
    const int center = *p;
    const int hi = center + threshold;
    const int lo = center - threshold;

    // Quick reject using the 4 compass points: a contiguous arc of 9
    // always covers at least 2 of the 4 (they are spaced 4 apart).
    int brighter = 0;
    int darker = 0;
    for (int i : {0, 4, 8, 12}) {
        const int v = p[off[i]];
        brighter += v > hi;
        darker += v < lo;
    }
    if (brighter < 2 && darker < 2)
        return false;

    // Full test: walk the circle twice to catch wrap-around arcs.
    int runBright = 0;
    int runDark = 0;
    for (int i = 0; i < 32; ++i) {
        const int v = p[off[i & 15]];
        runBright = v > hi ? runBright + 1 : 0;
        runDark = v < lo ? runDark + 1 : 0;
        if (runBright >= kArcLength || runDark >= kArcLength)
            return true;
    }
    return false;
}

/**
 * One row's FAST-9 candidates: the x in [xBegin, xEnd) whose pixel
 * passes the segment test, written to `out` in ascending order.
 * Returns how many were written.
 */
using RowScanFn = int (*)(const std::uint8_t* row,
                          const std::ptrdiff_t* off, int xBegin,
                          int xEnd, int threshold, int* out);

int
scanRowScalar(const std::uint8_t* row, const std::ptrdiff_t* off,
              int xBegin, int xEnd, int threshold, int* out)
{
    int n = 0;
    for (int x = xBegin; x < xEnd; ++x)
        if (segmentTest(row + x, off, threshold))
            out[n++] = x;
    return n;
}

#if AD_VISION_X86

/**
 * The FAST-9 row scan with SSE2 (the x86-64 baseline), 16 pixels per
 * step, for a threshold in [0, 255]. Signature as RowScanFn.
 *
 * Saturating add/sub give exactly the scalar `v > c + t` and
 * `v < c - t`: when c + t > 255 the bound saturates to 255 and no
 * pixel exceeds it, when c - t < 0 it saturates to 0 and none is
 * below. Flipping every byte's sign bit lets the signed cmpgt order
 * them as unsigned. "Any circular run of 9" doubles runs by ANDing
 * shifted copies (2, 4, 8, then one more tap for 9) and ORs the 16
 * start positions. Set lanes are visited in ascending bit order, so
 * candidates come out in the scalar order; the row tail runs the
 * scalar test.
 */
int
scanRowSimd(const std::uint8_t* row, const std::ptrdiff_t* off,
            int xBegin, int xEnd, int threshold, int* out)
{
    const __m128i sign = _mm_set1_epi8(-128);
    const auto load = [sign](const std::uint8_t* p) {
        return _mm_xor_si128(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)), sign);
    };
    const __m128i t = _mm_set1_epi8(static_cast<char>(threshold));
    int n = 0;
    int x = xBegin;
    for (; x + 16 <= xEnd; x += 16) {
        const std::uint8_t* p = row + x;
        const __m128i c =
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
        const __m128i hi = _mm_xor_si128(_mm_adds_epu8(c, t), sign);
        const __m128i lo = _mm_xor_si128(_mm_subs_epu8(c, t), sign);
        __m128i taps[2][16]; // [brighter, darker][circle position]

        // An arc of 9 covers two adjacent compass taps (they are 4
        // apart): test those first and skip the step when no lane can
        // pass.
        __m128i maybe = _mm_setzero_si128();
        for (int i = 0; i < 16; i += 4) {
            const __m128i v = load(p + off[i]);
            taps[0][i] = _mm_cmpgt_epi8(v, hi);
            taps[1][i] = _mm_cmpgt_epi8(lo, v);
        }
        for (const auto& tp : taps)
            for (int i = 0; i < 16; i += 4)
                maybe = _mm_or_si128(
                    maybe, _mm_and_si128(tp[i], tp[(i + 4) & 15]));
        if (_mm_movemask_epi8(maybe) == 0)
            continue;

        for (int i = 0; i < 16; ++i) {
            if ((i & 3) == 0)
                continue;
            const __m128i v = load(p + off[i]);
            taps[0][i] = _mm_cmpgt_epi8(v, hi);
            taps[1][i] = _mm_cmpgt_epi8(lo, v);
        }
        __m128i hit = _mm_setzero_si128();
        for (const auto& tp : taps) {
            __m128i run2[16];
            __m128i run4[16];
            for (int i = 0; i < 16; ++i)
                run2[i] = _mm_and_si128(tp[i], tp[(i + 1) & 15]);
            for (int i = 0; i < 16; ++i)
                run4[i] = _mm_and_si128(run2[i], run2[(i + 2) & 15]);
            for (int i = 0; i < 16; ++i)
                hit = _mm_or_si128(
                    hit, _mm_and_si128(
                             _mm_and_si128(run4[i], run4[(i + 4) & 15]),
                             tp[(i + 8) & 15]));
        }
        for (unsigned bits = static_cast<unsigned>(_mm_movemask_epi8(hit));
             bits; bits &= bits - 1)
            out[n++] = x + std::countr_zero(bits);
    }
    return n + scanRowScalar(row, off, x, xEnd, threshold, out + n);
}

#endif // AD_VISION_X86

/** The row scan for the current ISA tier and this threshold. */
RowScanFn
rowScanFor(int threshold)
{
    // The saturating lane math needs the threshold to fit a byte.
    if (threshold < 0 || threshold > 255)
        return scanRowScalar;
#if AD_VISION_X86
    // Every tier above scalar runs the SSE2 scan: wider lanes measured
    // no faster (EXPERIMENTS.md).
    if (currentIsaTier() != IsaTier::Scalar)
        return scanRowSimd;
#endif
    return scanRowScalar;
}

/** Harris score from the structure-tensor sums (k = 0.04). */
float
harrisFromSums(double sxx, double syy, double sxy)
{
    constexpr double k = 0.04;
    const double det = sxx * syy - sxy * sxy;
    const double trace = sxx + syy;
    return static_cast<float>(det - k * trace * trace);
}

/** Harris response given a pixel reader px(dx, dy) around the center. */
template <class Px>
float
harrisAt(Px px)
{
    // Structure tensor from Sobel gradients over a 7x7 window.
    double sxx = 0;
    double syy = 0;
    double sxy = 0;
    for (int dy = -3; dy <= 3; ++dy) {
        for (int dx = -3; dx <= 3; ++dx) {
            const double gx =
                (px(dx + 1, dy - 1) + 2 * px(dx + 1, dy) +
                 px(dx + 1, dy + 1)) -
                (px(dx - 1, dy - 1) + 2 * px(dx - 1, dy) +
                 px(dx - 1, dy + 1));
            const double gy =
                (px(dx - 1, dy + 1) + 2 * px(dx, dy + 1) +
                 px(dx + 1, dy + 1)) -
                (px(dx - 1, dy - 1) + 2 * px(dx, dy - 1) +
                 px(dx + 1, dy - 1));
            sxx += gx * gx;
            syy += gy * gy;
            sxy += gx * gy;
        }
    }
    return harrisFromSums(sxx, syy, sxy);
}

#if AD_VISION_X86

/**
 * Harris response of the pixel at `p` (at least 4 pixels inside the
 * image) with SSE2 integer math: eight int16 lanes hold one window
 * row's dx = -3..+4 (lane 7 is masked off), and pmaddwd accumulates
 * the gradient products in int32.
 *
 * Bitwise equal to harrisAt: |gx|, |gy| <= 4 * 255, so every product
 * and every partial sum of the 49 is an integer below 2^26. harrisAt's
 * double additions of such integers are all exact, whatever their
 * order, so its sums equal these integer sums exactly.
 */
float
harrisSse2(const std::uint8_t* p, std::ptrdiff_t stride)
{
    const __m128i zero = _mm_setzero_si128();
    const auto widen = [zero](const std::uint8_t* q) {
        return _mm_unpacklo_epi8(
            _mm_loadl_epi64(reinterpret_cast<const __m128i*>(q)), zero);
    };
    // Columns dx - 1, dx and dx + 1 of window rows dy = -4..4.
    __m128i left[9];
    __m128i mid[9];
    __m128i right[9];
    for (int r = 0; r < 9; ++r) {
        const std::uint8_t* q = p + (r - 4) * stride - 3;
        left[r] = widen(q - 1);
        mid[r] = widen(q);
        right[r] = widen(q + 1);
    }
    const auto sobel = [](__m128i a, __m128i b, __m128i c) {
        return _mm_add_epi16(_mm_add_epi16(a, c), _mm_add_epi16(b, b));
    };
    const __m128i keep = _mm_setr_epi16(-1, -1, -1, -1, -1, -1, -1, 0);
    __m128i xx = zero;
    __m128i yy = zero;
    __m128i xy = zero;
    for (int r = 1; r < 8; ++r) {
        const __m128i gx = _mm_and_si128(
            keep, _mm_sub_epi16(sobel(right[r - 1], right[r], right[r + 1]),
                                sobel(left[r - 1], left[r], left[r + 1])));
        const __m128i gy = _mm_and_si128(
            keep,
            _mm_sub_epi16(sobel(left[r + 1], mid[r + 1], right[r + 1]),
                          sobel(left[r - 1], mid[r - 1], right[r - 1])));
        xx = _mm_add_epi32(xx, _mm_madd_epi16(gx, gx));
        yy = _mm_add_epi32(yy, _mm_madd_epi16(gy, gy));
        xy = _mm_add_epi32(xy, _mm_madd_epi16(gx, gy));
    }
    const auto hsum = [](__m128i v) {
        v = _mm_add_epi32(v, _mm_shuffle_epi32(v, _MM_SHUFFLE(1, 0, 3, 2)));
        v = _mm_add_epi32(v, _mm_shuffle_epi32(v, _MM_SHUFFLE(2, 3, 0, 1)));
        return static_cast<double>(_mm_cvtsi128_si32(v));
    };
    return harrisFromSums(hsum(xx), hsum(yy), hsum(xy));
}

#endif // AD_VISION_X86

/** Intensity-centroid bin given a pixel reader px(dx, dy). */
template <class Px>
int
centroidBinAt(Px px, TrigMode mode)
{
    constexpr int radius = 8;
    float m10 = 0;
    float m01 = 0;
    for (int dy = -radius; dy <= radius; ++dy) {
        for (int dx = -radius; dx <= radius; ++dx) {
            if (dx * dx + dy * dy > radius * radius)
                continue;
            const float v = px(dx, dy);
            m10 += static_cast<float>(dx) * v;
            m01 += static_cast<float>(dy) * v;
        }
    }
    if (mode == TrigMode::Lut)
        return TrigTables::instance().atan2Bin(m01, m10);
    return naiveAtan2Bin(m01, m10);
}

/** Unclamped reader around the pixel at `p` (caller keeps it inside). */
auto
rawReader(const std::uint8_t* p, std::ptrdiff_t stride)
{
    return [p, stride](int dx, int dy) -> int {
        return p[dy * stride + dx];
    };
}

/** Harris response of a candidate (at least 4 pixels inside). */
float
candidateResponse(const std::uint8_t* p, std::ptrdiff_t stride, bool simd)
{
#if AD_VISION_X86
    if (simd)
        return harrisSse2(p, stride);
#endif
    (void)simd;
    return harrisAt(rawReader(p, stride));
}

/** Clamped-border reader around (x, y). */
auto
clampedReader(const Image& img, int x, int y)
{
    return [&img, x, y](int dx, int dy) -> int {
        return img.atClamped(x + dx, y + dy);
    };
}

} // namespace

bool
fastSegmentTest(const Image& img, int x, int y, int threshold)
{
    const CircleOffsets off(img.width());
    return segmentTest(img.row(y) + x, off.at, threshold);
}

float
harrisResponse(const Image& img, int x, int y)
{
    return harrisAt(clampedReader(img, x, y));
}

int
intensityCentroidBin(const Image& img, int x, int y, TrigMode mode)
{
    return centroidBinAt(clampedReader(img, x, y), mode);
}

std::vector<Keypoint>
detectFast(const Image& img, const FastParams& params, FastOpCounts* counts)
{
    std::vector<Keypoint> candidates;
    FastOpCounts local;
    const int width = img.width();
    const std::ptrdiff_t stride = width;

    if (width > 2 * kBorder && img.height() > 2 * kBorder) {
        const CircleOffsets off(stride);
        const RowScanFn scan = rowScanFor(params.threshold);
        // Every tier above scalar scores candidates with harrisSse2.
        const bool simd = currentIsaTier() != IsaTier::Scalar;
        std::vector<int> xs(static_cast<std::size_t>(width));
        for (int y = kBorder; y < img.height() - kBorder; ++y) {
            const std::uint8_t* row = img.row(y);
            const int n = scan(row, off.at, kBorder, width - kBorder,
                               params.threshold, xs.data());
            local.pixelsTested +=
                static_cast<std::uint64_t>(width - 2 * kBorder);
            local.candidates += static_cast<std::uint64_t>(n);
            for (int i = 0; i < n; ++i) {
                const int x = xs[static_cast<std::size_t>(i)];
                Keypoint kp;
                kp.x = static_cast<float>(x);
                kp.y = static_cast<float>(y);
                kp.response = candidateResponse(row + x, stride, simd);
                candidates.push_back(kp);
            }
        }
    }

    // Grid NMS: keep the strongest response per cell.
    const int cell = std::max(1, params.cellSize);
    const int gw = (img.width() + cell - 1) / cell;
    const int gh = (img.height() + cell - 1) / cell;
    std::vector<int> bestInCell(static_cast<std::size_t>(gw) * gh, -1);
    for (std::size_t i = 0; i < candidates.size(); ++i) {
        const int cx = static_cast<int>(candidates[i].x) / cell;
        const int cy = static_cast<int>(candidates[i].y) / cell;
        int& best = bestInCell[static_cast<std::size_t>(cy) * gw + cx];
        if (best < 0 ||
            candidates[best].response < candidates[i].response)
            best = static_cast<int>(i);
    }
    std::vector<Keypoint> kept;
    for (const int idx : bestInCell)
        if (idx >= 0)
            kept.push_back(candidates[idx]);

    // Top-N by response.
    if (static_cast<int>(kept.size()) > params.maxKeypoints) {
        std::nth_element(kept.begin(), kept.begin() + params.maxKeypoints,
                         kept.end(), [](const Keypoint& a, const Keypoint& b)
                         { return a.response > b.response; });
        kept.resize(params.maxKeypoints);
    }

    // Orientation only for survivors (as in ORB).
    for (auto& kp : kept) {
        const int x = static_cast<int>(kp.x);
        const int y = static_cast<int>(kp.y);
        kp.orientationBin = centroidBinAt(
            rawReader(img.row(y) + x, stride), params.trigMode);
    }

    local.keypoints = kept.size();
    if (counts) {
        counts->pixelsTested += local.pixelsTested;
        counts->candidates += local.candidates;
        counts->keypoints += local.keypoints;
    }
    return kept;
}

} // namespace ad::vision
