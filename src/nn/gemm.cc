#include "nn/gemm.hh"

#include <algorithm>
#include <array>
#include <cstring>
#include <vector>

#include "common/isa.hh"

#if defined(__x86_64__) || defined(__amd64__)
#define AD_NN_GEMM_X86 1
#include <immintrin.h>
#endif

namespace ad::nn {

namespace {

// Register tile: microM C-rows by microN C-columns of fp32
// accumulators live in registers across a whole k-block (8 ymm
// registers in the AVX2 kernel).
constexpr std::size_t microM = 4;
constexpr std::size_t microN = 16;

// K-block: one packed A panel (microM x blockK) stays L1-resident
// while the B panels of a column block stream through it.
constexpr std::size_t blockK = 256;

// Packed-B floats per column block (128 KiB): the block is packed once
// per k-block and re-read by every row panel, so it must stay in L2.
constexpr std::size_t packBudget = 32 * 1024;

// Stride-1 convolutions with at most one k-block of taps read
// interior tiles (full, inside one output row, clear of the padding)
// in place: row kk of the tile is input row (c, oy + ky) from column
// ox + kx. At DET's few-channel early layers the pack would cost as
// much as the 9-36 multiply-adds per output; deeper k would stream
// more scattered rows than L1 holds, so those pack.
constexpr std::size_t directMaxK = blockK;

/**
 * The final-store epilogue of one row panel: per-row bias (0.0f means
 * skip, which also covers rows past m) and the optional LeakyReLU.
 */
struct TileEpilogue
{
    float bias[microM];
    bool activate;
    float slope;
};

/**
 * One full microM x microN tile: acc(r, j) starts at c[r*ldc + j]
 * when `load`, else +0.0f; then for kk ascending
 * acc(r, j) += a[kk*microM + r] * b[off[kk] + j], a multiply and an
 * add; then `ep` (when non-null) is applied and the tile is stored.
 * Every tier performs exactly these float operations.
 */
using TileKernel = void (*)(std::size_t kc, const float* a, const float* b,
                            const std::ptrdiff_t* off, float* c,
                            std::size_t ldc, bool load,
                            const TileEpilogue* ep);

/** The scalar epilogue: Conv2D's historical bias + activation pass. */
inline float
finish(float v, float bias, const TileEpilogue& ep)
{
    if (bias != 0.0f)
        v += bias;
    if (ep.activate)
        v = v > 0.0f ? v : ep.slope * v;
    return v;
}

/**
 * The portable tile (scalar and sse2 tiers): the reference loop. It
 * runs the tile as two 8-column halves so each half's accumulators
 * fit the 16 SSE registers the compiler vectorizes them into.
 */
void
tilePortable(std::size_t kc, const float* a, const float* b,
             const std::ptrdiff_t* off, float* c, std::size_t ldc,
             bool load, const TileEpilogue* ep)
{
    constexpr std::size_t half = microN / 2;
    for (std::size_t j0 = 0; j0 < microN; j0 += half) {
        float acc[microM][half];
        for (std::size_t r = 0; r < microM; ++r)
            for (std::size_t j = 0; j < half; ++j)
                acc[r][j] = load ? c[r * ldc + j0 + j] : 0.0f;
        for (std::size_t kk = 0; kk < kc; ++kk) {
            const float* aCol = a + kk * microM;
            const float* bRow = b + off[kk] + j0;
            for (std::size_t r = 0; r < microM; ++r) {
                const float av = aCol[r];
                for (std::size_t j = 0; j < half; ++j)
                    acc[r][j] += av * bRow[j];
            }
        }
        for (std::size_t r = 0; r < microM; ++r)
            for (std::size_t j = 0; j < half; ++j)
                c[r * ldc + j0 + j] =
                    ep ? finish(acc[r][j], ep->bias[r], *ep) : acc[r][j];
    }
}

#if AD_NN_GEMM_X86
// AVX2 tile, compiled with a target attribute so the binary stays
// runnable on baseline x86-64; the dispatcher only selects it when the
// CPU reports AVX2. The target deliberately omits "fma": each step is
// _mm256_mul_ps then _mm256_add_ps, two roundings, exactly the
// portable loop's arithmetic.
__attribute__((target("avx2"))) inline __m256
finishAvx2(__m256 v, float bias, const TileEpilogue& ep)
{
    if (bias != 0.0f)
        v = _mm256_add_ps(v, _mm256_set1_ps(bias));
    if (ep.activate) {
        const __m256 positive =
            _mm256_cmp_ps(v, _mm256_setzero_ps(), _CMP_GT_OQ);
        v = _mm256_blendv_ps(_mm256_mul_ps(_mm256_set1_ps(ep.slope), v),
                             v, positive);
    }
    return v;
}

__attribute__((target("avx2"))) void
tileAvx2(std::size_t kc, const float* a, const float* b,
         const std::ptrdiff_t* off, float* c, std::size_t ldc, bool load,
         const TileEpilogue* ep)
{
    float* c0 = c;
    float* c1 = c + ldc;
    float* c2 = c1 + ldc;
    float* c3 = c2 + ldc;
    __m256 acc00 = _mm256_setzero_ps();
    __m256 acc01 = acc00;
    __m256 acc10 = acc00;
    __m256 acc11 = acc00;
    __m256 acc20 = acc00;
    __m256 acc21 = acc00;
    __m256 acc30 = acc00;
    __m256 acc31 = acc00;
    if (load) {
        acc00 = _mm256_loadu_ps(c0);
        acc01 = _mm256_loadu_ps(c0 + 8);
        acc10 = _mm256_loadu_ps(c1);
        acc11 = _mm256_loadu_ps(c1 + 8);
        acc20 = _mm256_loadu_ps(c2);
        acc21 = _mm256_loadu_ps(c2 + 8);
        acc30 = _mm256_loadu_ps(c3);
        acc31 = _mm256_loadu_ps(c3 + 8);
    }
    for (std::size_t kk = 0; kk < kc; ++kk) {
        const float* bRow = b + off[kk];
        const __m256 b0 = _mm256_loadu_ps(bRow);
        const __m256 b1 = _mm256_loadu_ps(bRow + 8);
        const float* aCol = a + kk * microM;
        __m256 av = _mm256_broadcast_ss(aCol);
        acc00 = _mm256_add_ps(acc00, _mm256_mul_ps(av, b0));
        acc01 = _mm256_add_ps(acc01, _mm256_mul_ps(av, b1));
        av = _mm256_broadcast_ss(aCol + 1);
        acc10 = _mm256_add_ps(acc10, _mm256_mul_ps(av, b0));
        acc11 = _mm256_add_ps(acc11, _mm256_mul_ps(av, b1));
        av = _mm256_broadcast_ss(aCol + 2);
        acc20 = _mm256_add_ps(acc20, _mm256_mul_ps(av, b0));
        acc21 = _mm256_add_ps(acc21, _mm256_mul_ps(av, b1));
        av = _mm256_broadcast_ss(aCol + 3);
        acc30 = _mm256_add_ps(acc30, _mm256_mul_ps(av, b0));
        acc31 = _mm256_add_ps(acc31, _mm256_mul_ps(av, b1));
    }
    if (ep) {
        acc00 = finishAvx2(acc00, ep->bias[0], *ep);
        acc01 = finishAvx2(acc01, ep->bias[0], *ep);
        acc10 = finishAvx2(acc10, ep->bias[1], *ep);
        acc11 = finishAvx2(acc11, ep->bias[1], *ep);
        acc20 = finishAvx2(acc20, ep->bias[2], *ep);
        acc21 = finishAvx2(acc21, ep->bias[2], *ep);
        acc30 = finishAvx2(acc30, ep->bias[3], *ep);
        acc31 = finishAvx2(acc31, ep->bias[3], *ep);
    }
    _mm256_storeu_ps(c0, acc00);
    _mm256_storeu_ps(c0 + 8, acc01);
    _mm256_storeu_ps(c1, acc10);
    _mm256_storeu_ps(c1 + 8, acc11);
    _mm256_storeu_ps(c2, acc20);
    _mm256_storeu_ps(c2 + 8, acc21);
    _mm256_storeu_ps(c3, acc30);
    _mm256_storeu_ps(c3 + 8, acc31);
}
#endif // AD_NN_GEMM_X86

/**
 * The tile kernel for the current tier. A wider AVX-512 fp32 tile is
 * not written: the avx512vnni tier runs the AVX2 tile, as the vision
 * kernels run their SSE2 code at every tier above it.
 */
TileKernel
tileForTier(IsaTier tier)
{
#if AD_NN_GEMM_X86
    if (tier >= IsaTier::Avx2)
        return tileAvx2;
#else
    (void)tier;
#endif
    return tilePortable;
}

/** B-row offsets of a packed panel: row kk starts at kk * microN. */
const std::ptrdiff_t*
packedOffsets()
{
    static const auto table = [] {
        std::array<std::ptrdiff_t, blockK> t{};
        for (std::size_t kk = 0; kk < blockK; ++kk)
            t[kk] = static_cast<std::ptrdiff_t>(kk * microN);
        return t;
    }();
    return table.data();
}

/** Everything one implicit-GEMM call shares across its shards. */
struct Job
{
    ConvGeometry g;
    std::size_t m = 0;
    std::size_t n = 0;            ///< outHeight * outWidth.
    std::size_t k = 0;            ///< channels * kernel^2.
    const float* aPack = nullptr; ///< row panels, microM-interleaved.
    const float* in = nullptr;
    /// Input offset of tap kk relative to a tile's origin, for tiles
    /// read in place; null when the geometry never reads in place.
    const std::ptrdiff_t* tapOff = nullptr;
    float* c = nullptr;
    bool accumulate = false;
    const ConvEpilogue* ep = nullptr;
    TileKernel kernel = nullptr;
};

/**
 * Where the full tile of columns [j0, j0 + microN) can be read in
 * place: the input address of its (c=0, ky=0, kx=0) tap, or null when
 * the tile must be packed (in-place reads disabled, partial tile, tile
 * spanning two output rows, or any tap in the padding).
 */
const float*
inPlaceOrigin(const Job& job, std::size_t j0)
{
    if (!job.tapOff || j0 + microN > job.n)
        return nullptr;
    const ConvGeometry& g = job.g;
    const std::size_t outW = static_cast<std::size_t>(g.outWidth);
    const std::size_t ox0 = j0 % outW;
    if (ox0 + microN > outW)
        return nullptr;
    const long iy = static_cast<long>(j0 / outW) - g.pad;
    const long ix = static_cast<long>(ox0) - g.pad;
    if (iy < 0 || iy + g.kernel > g.height || ix < 0 ||
        ix + static_cast<long>(microN) - 1 + g.kernel > g.width)
        return nullptr;
    return job.in + iy * g.width + ix;
}

/**
 * Pack the B panel of columns [j0, j0 + microN) over taps
 * [k0, k0 + kc) from the NCHW input: dst[kk*microN + j] is the im2col
 * entry, 0.0f for padded taps and for columns past n (those multiply
 * into accumulators that are never stored).
 */
void
packPanel(const Job& job, std::size_t j0, std::size_t k0, std::size_t kc,
          float* dst)
{
    const ConvGeometry& g = job.g;
    const int ks = g.kernel;
    const int s = g.stride;
    const std::size_t plane =
        static_cast<std::size_t>(g.height) * static_cast<std::size_t>(g.width);
    const std::size_t nr = std::min(microN, job.n - j0);
    const std::size_t outW = static_cast<std::size_t>(g.outWidth);
    int kx = static_cast<int>(k0 % ks);
    int ky = static_cast<int>(k0 / ks % ks);
    std::size_t ch = k0 / (static_cast<std::size_t>(ks) * ks);
    const auto nextTap = [&] {
        if (++kx == ks) {
            kx = 0;
            if (++ky == ks) {
                ky = 0;
                ++ch;
            }
        }
    };

    std::fill(dst, dst + kc * microN, 0.0f);
    const std::size_t ox0 = j0 % outW;
    if (ox0 + nr <= outW) {
        // One output row: every column shares the input row of a tap.
        const int iy0 = static_cast<int>(j0 / outW) * s - g.pad;
        const int ix0 = static_cast<int>(ox0) * s - g.pad;
        for (std::size_t kk = 0; kk < kc; ++kk, dst += microN, nextTap()) {
            const int iy = iy0 + ky;
            if (iy < 0 || iy >= g.height)
                continue;
            const float* row = job.in + ch * plane +
                static_cast<std::size_t>(iy) * g.width;
            const int x0 = ix0 + kx;
            if (s == 1 && x0 >= 0 && x0 + static_cast<int>(nr) <= g.width) {
                std::memcpy(dst, row + x0, nr * sizeof(float));
                continue;
            }
            for (std::size_t j = 0; j < nr; ++j) {
                const int x = x0 + static_cast<int>(j) * s;
                if (x >= 0 && x < g.width)
                    dst[j] = row[x];
            }
        }
        return;
    }

    // The panel wraps onto the next output row: per-column origins.
    int iy0[microN];
    int ix0[microN];
    for (std::size_t j = 0; j < nr; ++j) {
        iy0[j] = static_cast<int>((j0 + j) / outW) * s - g.pad;
        ix0[j] = static_cast<int>((j0 + j) % outW) * s - g.pad;
    }
    for (std::size_t kk = 0; kk < kc; ++kk, dst += microN, nextTap()) {
        const float* src = job.in + ch * plane;
        for (std::size_t j = 0; j < nr; ++j) {
            const int iy = iy0[j] + ky;
            const int ix = ix0[j] + kx;
            if (iy >= 0 && iy < g.height && ix >= 0 && ix < g.width)
                dst[j] = src[static_cast<std::size_t>(iy) * g.width + ix];
        }
    }
}

/**
 * Compute C tiles for column panels [p0, p1) and row panels
 * [rb0, rb1): per k-block, pack the block's panels that are not read
 * in place, then sweep every row panel across them.
 */
void
runBlock(const Job& job, std::size_t p0, std::size_t p1, std::size_t rb0,
         std::size_t rb1)
{
    // Per-thread: every shard packs its own column block.
    static thread_local std::vector<float> bPack;
    static thread_local std::vector<const float*> origin;
    const std::size_t panels = p1 - p0;
    origin.resize(panels);
    for (std::size_t p = p0; p < p1; ++p)
        origin[p - p0] = inPlaceOrigin(job, p * microN);

    for (std::size_t k0 = 0; k0 < job.k; k0 += blockK) {
        const std::size_t kc = std::min(blockK, job.k - k0);
        bPack.resize(panels * kc * microN);
        for (std::size_t p = p0; p < p1; ++p)
            if (!origin[p - p0])
                packPanel(job, p * microN, k0, kc,
                          bPack.data() + (p - p0) * kc * microN);

        const bool load = job.accumulate || k0 > 0;
        const bool last = k0 + kc == job.k;
        for (std::size_t rb = rb0; rb < rb1; ++rb) {
            const std::size_t i0 = rb * microM;
            const std::size_t mr = std::min(microM, job.m - i0);
            TileEpilogue tep{};
            const TileEpilogue* ep = nullptr;
            if (last && job.ep) {
                for (std::size_t r = 0; r < mr; ++r)
                    tep.bias[r] = job.ep->bias ? job.ep->bias[i0 + r] : 0.0f;
                tep.activate = job.ep->activate;
                tep.slope = job.ep->slope;
                ep = &tep;
            }
            const float* aPanel = job.aPack + (rb * job.k + k0) * microM;
            for (std::size_t p = p0; p < p1; ++p) {
                const std::size_t j0 = p * microN;
                const std::size_t nr = std::min(microN, job.n - j0);
                const float* b = origin[p - p0];
                const std::ptrdiff_t* off = job.tapOff + k0;
                if (!b) {
                    b = bPack.data() + (p - p0) * kc * microN;
                    off = packedOffsets();
                }
                float* cTile = job.c + i0 * job.n + j0;
                if (mr == microM && nr == microN) {
                    job.kernel(kc, aPanel, b, off, cTile, job.n, load, ep);
                    continue;
                }
                // Edge tile: run the full tile on a local copy and
                // store only the rows and columns inside C.
                float tmp[microM * microN] = {};
                if (load)
                    for (std::size_t r = 0; r < mr; ++r)
                        std::memcpy(tmp + r * microN, cTile + r * job.n,
                                    nr * sizeof(float));
                job.kernel(kc, aPanel, b, off, tmp, microN, load, ep);
                for (std::size_t r = 0; r < mr; ++r)
                    std::memcpy(cTile + r * job.n, tmp + r * microN,
                                nr * sizeof(float));
            }
        }
    }
}

/** The one driver behind gemm() and convolve(). */
void
implicitGemm(std::size_t m, const float* a, const float* in,
             const ConvGeometry& g, float* c, bool accumulate,
             const ConvEpilogue* ep, const KernelContext& ctx)
{
    Job job;
    job.g = g;
    job.m = m;
    job.n = static_cast<std::size_t>(g.outHeight) *
            static_cast<std::size_t>(g.outWidth);
    job.k = static_cast<std::size_t>(g.channels) * g.kernel * g.kernel;
    if (m == 0 || job.n == 0 || job.k == 0)
        return;
    job.in = in;
    job.c = c;
    job.accumulate = accumulate;
    job.ep = ep;
    job.kernel = tileForTier(currentIsaTier());

    // The packed A panels and tap offsets belong to the calling thread;
    // shards only read them through the job's raw pointers
    // (thread_locals are not captured by lambdas), and
    // kernelParallelFor joins before they can be resized again.
    const std::size_t rowBlocks = (m + microM - 1) / microM;
    static thread_local std::vector<float> aPack;
    aPack.resize(rowBlocks * job.k * microM);
    for (std::size_t rb = 0; rb < rowBlocks; ++rb) {
        float* dst = aPack.data() + rb * job.k * microM;
        for (std::size_t kk = 0; kk < job.k; ++kk)
            for (std::size_t r = 0; r < microM; ++r) {
                const std::size_t i = rb * microM + r;
                *dst++ = i < m ? a[i * job.k + kk] : 0.0f;
            }
    }
    job.aPack = aPack.data();

    static thread_local std::vector<std::ptrdiff_t> tapOff;
    if (g.stride == 1 && job.k <= directMaxK) {
        tapOff.resize(job.k);
        const std::size_t plane = static_cast<std::size_t>(g.height) *
                                  static_cast<std::size_t>(g.width);
        const std::size_t taps =
            static_cast<std::size_t>(g.kernel) * g.kernel;
        for (std::size_t kk = 0; kk < job.k; ++kk) {
            const std::size_t tap = kk % taps;
            tapOff[kk] = static_cast<std::ptrdiff_t>(
                kk / taps * plane + tap / g.kernel * g.width +
                tap % g.kernel);
        }
        job.tapOff = tapOff.data();
    }

    // Shard over column blocks; when there are too few of them to keep
    // every thread busy, split the row panels as well (each row shard
    // then packs its own copy of the column block).
    const std::size_t panels = (job.n + microN - 1) / microN;
    const std::size_t threads = ctx.parallel() ? ctx.maxThreads : 1;
    std::size_t perBlock = std::max<std::size_t>(
        1, packBudget / (std::min(job.k, blockK) * microN));
    if (threads > 1)
        perBlock = std::min(
            perBlock, std::max<std::size_t>(
                          1, (panels + 4 * threads - 1) / (4 * threads)));
    perBlock = std::min(perBlock, panels);
    const std::size_t colBlocks = (panels + perBlock - 1) / perBlock;
    std::size_t rowChunks = 1;
    if (threads > 1 && colBlocks < 2 * threads)
        rowChunks = std::min(rowBlocks,
                             (2 * threads + colBlocks - 1) / colBlocks);

    kernelParallelFor(
        ctx, 0, colBlocks * rowChunks, 1,
        [&](std::size_t lo, std::size_t hi) {
            // Items are column-block major; consecutive row chunks of
            // one block run together so the block is packed once.
            for (std::size_t item = lo; item < hi;) {
                const std::size_t cb = item / rowChunks;
                const std::size_t rc0 = item % rowChunks;
                const std::size_t rc1 =
                    std::min(rowChunks, rc0 + (hi - item));
                const std::size_t p0 = cb * perBlock;
                runBlock(job, p0, std::min(panels, p0 + perBlock),
                         rowBlocks * rc0 / rowChunks,
                         rowBlocks * rc1 / rowChunks);
                item += rc1 - rc0;
            }
        });
}

} // namespace

void
gemm(std::size_t m, std::size_t n, std::size_t k,
     const float* a, const float* b, float* c, const KernelContext& ctx)
{
    // C += A * B is the 1x1 convolution of the k x 1 x n "image" B.
    ConvGeometry g;
    g.channels = static_cast<int>(k);
    g.height = 1;
    g.width = static_cast<int>(n);
    g.outHeight = 1;
    g.outWidth = static_cast<int>(n);
    implicitGemm(m, a, b, g, c, true, nullptr, ctx);
}

void
convolve(std::size_t m, const float* weights, const float* in,
         const ConvGeometry& g, float* out, const ConvEpilogue& ep,
         const KernelContext& ctx)
{
    implicitGemm(m, weights, in, g, out, false, &ep, ctx);
}

void
gemmBlockedReference(std::size_t m, std::size_t n, std::size_t k,
                     const float* a, const float* b, float* c)
{
    constexpr std::size_t blockM = 64;
    for (std::size_t i0 = 0; i0 < m; i0 += blockM) {
        const std::size_t iEnd = std::min(i0 + blockM, m);
        for (std::size_t k0 = 0; k0 < k; k0 += blockK) {
            const std::size_t kEnd = std::min(k0 + blockK, k);
            for (std::size_t i = i0; i < iEnd; ++i) {
                float* cRow = c + i * n;
                const float* aRow = a + i * k;
                for (std::size_t kk = k0; kk < kEnd; ++kk) {
                    // No zero-skipping: constructed weights are sparse,
                    // and skipping would make measured latency depend on
                    // weight values rather than network shape.
                    const float aVal = aRow[kk];
                    const float* bRow = b + kk * n;
                    for (std::size_t j = 0; j < n; ++j)
                        cRow[j] += aVal * bRow[j];
                }
            }
        }
    }
}

void
gemv(std::size_t m, std::size_t k, const float* a, const float* x,
     float* y, const KernelContext& ctx)
{
    kernelParallelFor(ctx, 0, m, 64,
                      [&](std::size_t lo, std::size_t hi) {
                          for (std::size_t i = lo; i < hi; ++i) {
                              const float* row = a + i * k;
                              float acc = 0.0f;
                              for (std::size_t j = 0; j < k; ++j)
                                  acc += row[j] * x[j];
                              y[i] += acc;
                          }
                      });
}

} // namespace ad::nn
