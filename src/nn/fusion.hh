/**
 * @file
 * Graph-lowering pass for the inference engine: walk a built (and
 * possibly quantized) Network and (a) fuse each conv/FC + following
 * ReLU/LeakyReLU pair into a single layer whose GEMM epilogue applies
 * the activation before the output store, and (b) mark convolutions
 * whose im2col unfold is pure overhead (1x1/stride-1/pad-0 -- the
 * unfold is a copy -- plus, opt-in via directConvMaxPixels, tiny
 * fp32 spatial outputs) to run direct.
 *
 * BatchNorm is already folded into conv weights at model build
 * (foldBatchNorm, layers.hh), so Conv2D+BN+LeakyReLU chains arrive
 * here as Conv2D+Activation and leave as one fused layer.
 *
 * The pass is a pure optimization: every lowered network computes
 * bit-identical outputs to the unfused reference at any thread count
 * (each fused epilogue performs the same scalar float operations in
 * the same order as the separate layers; see the fuseActivation docs).
 * The unfused path stays available behind the `nn.fuse` knob for A/B
 * testing.
 *
 * Run order matters: quantize first (calibration indexes the unlowered
 * layer list), then lowerNetwork, then Network::plan.
 */

#ifndef AD_NN_FUSION_HH
#define AD_NN_FUSION_HH

#include "nn/network.hh"

namespace ad::nn {

/** Knobs for the lowering pass. */
struct LoweringOptions
{
    /** Fold conv/FC + activation pairs into fused layers. */
    bool fuseActivations = true;
    /** Mark unfold-free (1x1/stride-1/pad-0) int8 convolutions. */
    bool directConv = true;
};

/** What the pass did, for logs/benches/tests. */
struct LoweringReport
{
    std::size_t fusedActivations = 0;
    std::size_t directConvs = 0; ///< int8 convs marked direct.
};

/**
 * Lower `net` in place for the given input shape. Idempotent in
 * effect: already-fused layers are never re-fused (their follower is
 * no longer an Activation).
 */
LoweringReport lowerNetwork(Network& net, const Shape& input,
                            const LoweringOptions& opt = {});

} // namespace ad::nn

#endif // AD_NN_FUSION_HH
