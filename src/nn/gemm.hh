/**
 * @file
 * Single-precision matrix multiplication and convolution kernels.
 * Convolution runs as an implicit GEMM: the B operand is packed panel
 * by panel straight from the NCHW input (or, for stride-1 tiles clear
 * of the padding, read in place), so no unfolded im2col matrix is ever
 * materialized. This kernel carries essentially all DNN compute in
 * measured mode -- the paper finds the DNN portion is 99%+ of DET and
 * TRA cycles, making this the hottest loop in the repository.
 *
 * One driver serves both entry points: gemm() is the 1x1 convolution
 * of a (k, 1, n) "image". It packs A into 4-row panels and B into
 * 16-column panels, one bounded (L2-sized) block of columns at a time,
 * and runs a 4x16 register-tile micro-kernel selected by the ISA tier
 * (common/isa.hh): the portable C loop at scalar/sse2, a hand-written
 * AVX2 tile at avx2 and avx512vnni. Work shards over column blocks and
 * row ranges of the shared ThreadPool via a KernelContext (see
 * DESIGN.md, "Parallel NN kernel layer").
 *
 * Every output element is computed the same way at every tier, block
 * size and thread count: start from C (or +0.0f), then for each k in
 * ascending order one multiply and one add, never a fused
 * multiply-add. Results are therefore bitwise-deterministic and equal
 * to the naive triple loop -- a hard requirement since the benchmarks
 * reproduce paper figures.
 */

#ifndef AD_NN_GEMM_HH
#define AD_NN_GEMM_HH

#include <cstddef>

#include "nn/kernel_context.hh"

namespace ad::nn {

/**
 * C += A * B for row-major matrices, packed micro-kernel execution,
 * sharded over ctx when it is parallel.
 *
 * @param m rows of A and C.
 * @param n columns of B and C.
 * @param k columns of A / rows of B.
 * @param a m x k matrix.
 * @param b k x n matrix.
 * @param c m x n accumulator (not cleared).
 * @param ctx kernel execution context (serial by default).
 *
 * Bitwise-deterministic: each C element is accumulated in ascending-k
 * order whatever the ISA tier or thread count, so every run produces
 * the identical result, which also equals gemmBlockedReference.
 */
void gemm(std::size_t m, std::size_t n, std::size_t k,
          const float* a, const float* b, float* c,
          const KernelContext& ctx = KernelContext::serial());

/** Geometry of one NCHW convolution run by convolve(). */
struct ConvGeometry
{
    int channels = 0;  ///< input channels.
    int height = 0;    ///< input height.
    int width = 0;     ///< input width.
    int kernel = 1;    ///< square kernel size.
    int stride = 1;    ///< spatial stride.
    int pad = 0;       ///< symmetric zero padding.
    int outHeight = 0; ///< output height.
    int outWidth = 0;  ///< output width.
};

/**
 * What convolve() applies to each output element in its final store:
 * the row's bias (skipped when it is exactly 0.0f, since adding +0.0f
 * turns -0.0f into +0.0f), then LeakyReLU(slope) when `activate`.
 */
struct ConvEpilogue
{
    const float* bias = nullptr; ///< one per output channel; null = none.
    bool activate = false;
    float slope = 0.0f;
};

/**
 * Implicit-GEMM convolution: out = epilogue(W * unfold(in)), where
 * unfold(in) is the (channels * kernel^2) x (outHeight * outWidth)
 * im2col matrix with taps in (c, ky, kx) order and padded taps as
 * 0.0f. The matrix is never built; out is overwritten, not
 * accumulated. Bitwise-identical to filling out with zeros, running
 * gemm() on the unfolded matrix and then applying the epilogue, at
 * every ISA tier and thread count.
 *
 * @param m output channels (rows of W).
 * @param weights m x (channels * kernel^2) filter matrix, row-major.
 * @param in input tensor, channels x height x width.
 * @param g convolution geometry.
 * @param out m x outHeight x outWidth output tensor.
 * @param ep bias/activation applied in the final store.
 * @param ctx kernel execution context.
 */
void convolve(std::size_t m, const float* weights, const float* in,
              const ConvGeometry& g, float* out, const ConvEpilogue& ep,
              const KernelContext& ctx = KernelContext::serial());

/**
 * The pre-parallel blocked i-k-j kernel (the seed implementation),
 * kept as the performance baseline for bench_micro_kernels and as a
 * bitwise reference for the packed kernel's determinism tests.
 */
void gemmBlockedReference(std::size_t m, std::size_t n, std::size_t k,
                          const float* a, const float* b, float* c);

/**
 * y += A * x for row-major A (m x k); the fully connected layer core.
 * Rows shard across ctx; each row's reduction order is fixed, so the
 * result is bitwise-deterministic for any thread count.
 */
void gemv(std::size_t m, std::size_t k, const float* a, const float* x,
          float* y, const KernelContext& ctx = KernelContext::serial());

} // namespace ad::nn

#endif // AD_NN_GEMM_HH
