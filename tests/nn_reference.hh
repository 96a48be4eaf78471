/**
 * @file
 * Test-only fp32 references for the GEMM and convolution kernels: the
 * naive triple-loop GEMM and the explicit im2col unfold. Together they
 * define the arithmetic every tier of nn::gemm and nn::convolve must
 * reproduce bit for bit: per output element, start from C (zero for a
 * convolution), add each (c, ky, kx) tap's product in ascending order,
 * then apply the bias (skipped when exactly 0.0f) and the optional
 * LeakyReLU.
 */

#ifndef AD_TESTS_NN_REFERENCE_HH
#define AD_TESTS_NN_REFERENCE_HH

#include <algorithm>
#include <cstddef>
#include <vector>

#include "nn/layers.hh"

namespace ad::nn::testref {

/** C += A * B, one element at a time, k ascending. */
inline void
gemmNaive(std::size_t m, std::size_t n, std::size_t k, const float* a,
          const float* b, float* c)
{
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            float acc = c[i * n + j];
            for (std::size_t kk = 0; kk < k; ++kk)
                acc += a[i * k + kk] * b[kk * n + j];
            c[i * n + j] = acc;
        }
    }
}

/**
 * Unfold kernel-sized patches of a CHW input into the
 * (c * kernel^2) x (outH * outW) row-major im2col matrix, padded taps
 * as 0.0f.
 */
inline std::vector<float>
im2col(const float* in, const Shape& s, int kernel, int stride, int pad,
       int outH, int outW)
{
    const std::size_t rows = static_cast<std::size_t>(s.c) * kernel * kernel;
    const std::size_t cols = static_cast<std::size_t>(outH) * outW;
    std::vector<float> out(rows * cols, 0.0f);
    for (std::size_t row = 0; row < rows; ++row) {
        const int kx = static_cast<int>(row % kernel);
        const int ky = static_cast<int>(row / kernel % kernel);
        const int c = static_cast<int>(row / kernel / kernel);
        for (int oy = 0; oy < outH; ++oy) {
            for (int ox = 0; ox < outW; ++ox) {
                const int iy = oy * stride - pad + ky;
                const int ix = ox * stride - pad + kx;
                if (iy >= 0 && iy < s.h && ix >= 0 && ix < s.w)
                    out[row * cols + static_cast<std::size_t>(oy) * outW +
                        ox] = in[(static_cast<std::size_t>(c) * s.h + iy) *
                                     s.w + ix];
            }
        }
    }
    return out;
}

/**
 * Conv2D forward by im2col + gemmNaive + the bias/activation pass: the
 * pre-implicit-GEMM lowering, as the reference for Conv2D::forwardInto.
 */
inline Tensor
convIm2col(const Conv2D& conv, const Tensor& in)
{
    const Shape is{in.channels(), in.height(), in.width()};
    const Shape os = conv.outputShape(is);
    const std::vector<float> cols =
        im2col(in.data(), is, conv.kernel(), conv.stride(), conv.pad(),
               os.h, os.w);
    Tensor out(os.c, os.h, os.w);
    const std::size_t n = static_cast<std::size_t>(os.h) * os.w;
    const std::size_t k =
        static_cast<std::size_t>(is.c) * conv.kernel() * conv.kernel();
    std::fill(out.data(), out.data() + out.size(), 0.0f);
    gemmNaive(static_cast<std::size_t>(os.c), n, k, conv.weights().data(),
              cols.data(), out.data());
    for (int oc = 0; oc < os.c; ++oc) {
        const float b = conv.bias()[static_cast<std::size_t>(oc)];
        float* plane = out.data() + static_cast<std::size_t>(oc) * n;
        for (std::size_t i = 0; i < n; ++i) {
            float v = plane[i];
            if (b != 0.0f)
                v += b;
            if (conv.hasFusedActivation())
                v = v > 0.0f ? v : conv.fusedSlope() * v;
            plane[i] = v;
        }
    }
    return out;
}

} // namespace ad::nn::testref

#endif // AD_TESTS_NN_REFERENCE_HH
