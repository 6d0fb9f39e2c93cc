/**
 * @file
 * Tests for the neural substrate: tensor ops, MLP blocks and the
 * PointNet++ reference models (shapes, determinism, permutation
 * invariance, trace bookkeeping).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <string>

#include "common/rng.h"
#include "nn/mlp.h"
#include "nn/pointnet2.h"
#include "core/frame_workspace.h"
#include "nn/gemm_kernels.h"
#include "nn/tensor.h"

namespace hgpcn
{
namespace
{

PointCloud
randomCloud(std::size_t n, std::uint64_t seed)
{
    PointCloud cloud;
    cloud.reserve(n);
    Rng rng(seed);
    for (std::size_t i = 0; i < n; ++i) {
        cloud.add({rng.uniform(0.0f, 1.0f), rng.uniform(0.0f, 1.0f),
                   rng.uniform(0.0f, 1.0f)});
    }
    return cloud;
}

// --------------------------------------------------------------- Tensor

TEST(Tensor, MatmulKnownValues)
{
    Tensor a(2, 2), b(2, 2);
    a.at(0, 0) = 1;
    a.at(0, 1) = 2;
    a.at(1, 0) = 3;
    a.at(1, 1) = 4;
    b.at(0, 0) = 5;
    b.at(0, 1) = 6;
    b.at(1, 0) = 7;
    b.at(1, 1) = 8;
    const Tensor c = Tensor::matmul(a, b);
    EXPECT_FLOAT_EQ(c.at(0, 0), 19);
    EXPECT_FLOAT_EQ(c.at(0, 1), 22);
    EXPECT_FLOAT_EQ(c.at(1, 0), 43);
    EXPECT_FLOAT_EQ(c.at(1, 1), 50);
}

TEST(Tensor, MatmulIdentity)
{
    Rng rng(1);
    Tensor a(3, 3);
    a.randomize(rng, 1.0f);
    Tensor eye(3, 3);
    for (int i = 0; i < 3; ++i)
        eye.at(i, i) = 1.0f;
    const Tensor c = Tensor::matmul(a, eye);
    for (int i = 0; i < 3; ++i)
        for (int j = 0; j < 3; ++j)
            EXPECT_FLOAT_EQ(c.at(i, j), a.at(i, j));
}

TEST(Tensor, ReluClampsNegatives)
{
    Tensor t(1, 3);
    t.at(0, 0) = -1.0f;
    t.at(0, 1) = 0.0f;
    t.at(0, 2) = 2.0f;
    t.reluInPlace();
    EXPECT_FLOAT_EQ(t.at(0, 0), 0.0f);
    EXPECT_FLOAT_EQ(t.at(0, 1), 0.0f);
    EXPECT_FLOAT_EQ(t.at(0, 2), 2.0f);
}

TEST(Tensor, AddRowBias)
{
    Tensor t(2, 2);
    t.addRowBias({1.0f, -2.0f});
    EXPECT_FLOAT_EQ(t.at(0, 0), 1.0f);
    EXPECT_FLOAT_EQ(t.at(1, 1), -2.0f);
}

TEST(Tensor, MaxPoolGroupsTakesColumnwiseMax)
{
    Tensor t(4, 2);
    t.at(0, 0) = 1;
    t.at(1, 0) = 5;
    t.at(2, 0) = 3;
    t.at(3, 0) = 2;
    t.at(0, 1) = -1;
    t.at(1, 1) = -5;
    t.at(2, 1) = -3;
    t.at(3, 1) = -2;
    const Tensor pooled = t.maxPoolGroups(2);
    ASSERT_EQ(pooled.rows(), 2u);
    EXPECT_FLOAT_EQ(pooled.at(0, 0), 5);
    EXPECT_FLOAT_EQ(pooled.at(0, 1), -1);
    EXPECT_FLOAT_EQ(pooled.at(1, 0), 3);
    EXPECT_FLOAT_EQ(pooled.at(1, 1), -2);
}

TEST(Tensor, ArgmaxRow)
{
    Tensor t(1, 4);
    t.at(0, 2) = 9.0f;
    EXPECT_EQ(t.argmaxRow(0), 2u);
}

// ------------------------------------------------------------------ Mlp

TEST(Mlp, OutputShapeFollowsWidths)
{
    Rng rng(2);
    const Mlp mlp(8, {16, 32}, rng);
    ExecutionTrace trace;
    Tensor x(5, 8);
    x.randomize(rng, 1.0f);
    const Tensor y = mlp.forward(x, "t", trace);
    EXPECT_EQ(y.rows(), 5u);
    EXPECT_EQ(y.cols(), 32u);
    EXPECT_EQ(mlp.outWidth(), 32u);
}

TEST(Mlp, TraceRecordsEveryGemm)
{
    Rng rng(3);
    const Mlp mlp(4, {8, 8, 2}, rng);
    ExecutionTrace trace;
    Tensor x(10, 4);
    mlp.forward(x, "net", trace);
    ASSERT_EQ(trace.gemms.size(), 3u);
    EXPECT_EQ(trace.gemms[0].m, 10u);
    EXPECT_EQ(trace.gemms[0].k, 4u);
    EXPECT_EQ(trace.gemms[0].n, 8u);
    EXPECT_EQ(trace.gemms[2].n, 2u);
    EXPECT_EQ(trace.gemms[0].layer, "net.fc0");
}

TEST(Mlp, FinalReluOptional)
{
    Rng rng(4);
    // Without final ReLU some outputs should be negative.
    const Mlp mlp(4, {8, 8}, rng, /*final_relu=*/false);
    ExecutionTrace trace;
    Tensor x(20, 4);
    x.randomize(rng, 2.0f);
    const Tensor y = mlp.forward(x, "t", trace);
    bool has_negative = false;
    for (std::size_t r = 0; r < y.rows(); ++r)
        for (std::size_t c = 0; c < y.cols(); ++c)
            has_negative |= y.at(r, c) < 0.0f;
    EXPECT_TRUE(has_negative);
}

TEST(Mlp, DeterministicGivenSeed)
{
    Rng rng_a(5), rng_b(5);
    const Mlp a(4, {8}, rng_a), b(4, {8}, rng_b);
    ExecutionTrace ta, tb;
    Tensor x(3, 4);
    x.at(0, 0) = 1.0f;
    const Tensor ya = a.forward(x, "t", ta);
    const Tensor yb = b.forward(x, "t", tb);
    for (std::size_t c = 0; c < ya.cols(); ++c)
        EXPECT_FLOAT_EQ(ya.at(0, c), yb.at(0, c));
}

// ----------------------------------------------------------- GemmOp

TEST(GemmOp, MacsIsProduct)
{
    const GemmOp op{"x", 10, 20, 30};
    EXPECT_EQ(op.macs(), 6000u);
}

TEST(ExecutionTrace, TotalsAggregate)
{
    ExecutionTrace trace;
    trace.gemms.push_back({"a", 2, 3, 4});
    trace.gemms.push_back({"b", 1, 1, 1});
    EXPECT_EQ(trace.totalMacs(), 25u);

    GatherOp op;
    op.stats.set("gather.distance_computations", 7);
    op.stats.set("gather.sort_candidates", 9);
    trace.gathers.push_back(op);
    EXPECT_EQ(trace.totalGatherDistances(), 7u);
    EXPECT_EQ(trace.totalSortCandidates(), 9u);
}

// ------------------------------------------------------- model specs

TEST(PointNet2Spec, TableOneConfigurations)
{
    const auto cls = PointNet2Spec::classification();
    EXPECT_EQ(cls.inputPoints, 1024u);
    EXPECT_EQ(cls.numClasses, 40u);
    EXPECT_FALSE(cls.segmentation);
    EXPECT_EQ(cls.sa.size(), 3u);
    EXPECT_EQ(cls.sa.back().npoint, 0u); // group-all

    const auto ps = PointNet2Spec::partSegmentation();
    EXPECT_EQ(ps.inputPoints, 2048u);
    EXPECT_TRUE(ps.segmentation);
    EXPECT_EQ(ps.fp.size(), ps.sa.size());

    const auto seg = PointNet2Spec::semanticSegmentation();
    EXPECT_EQ(seg.inputPoints, 4096u);
    EXPECT_EQ(seg.sa.size(), 4u);

    const auto kitti = PointNet2Spec::outdoorSegmentation();
    EXPECT_EQ(kitti.inputPoints, 16384u);
    EXPECT_EQ(kitti.sa[0].npoint, 4096u);
}

// --------------------------------------------------- classification

TEST(PointNet2, ClassificationShapes)
{
    PointNet2Spec spec = PointNet2Spec::classification(10);
    spec.inputPoints = 256;
    spec.sa[0].npoint = 64;
    spec.sa[0].k = 8;
    spec.sa[1].npoint = 16;
    spec.sa[1].k = 8;
    const PointNet2 net(spec, 42);
    const PointCloud cloud = randomCloud(256, 7);
    const RunOutput out = net.run(cloud);
    EXPECT_EQ(out.logits.rows(), 1u);
    EXPECT_EQ(out.logits.cols(), 10u);
    EXPECT_EQ(out.labels.size(), 1u);
    EXPECT_LT(out.labels[0], 10u);
}

TEST(PointNet2, DeterministicAcrossRuns)
{
    PointNet2Spec spec = PointNet2Spec::classification(5);
    spec.sa[0].npoint = 32;
    spec.sa[0].k = 8;
    spec.sa[1].npoint = 8;
    spec.sa[1].k = 4;
    const PointNet2 net(spec, 42);
    const PointCloud cloud = randomCloud(128, 8);
    RunOptions opts;
    opts.seed = 3;
    const RunOutput a = net.run(cloud, opts);
    const RunOutput b = net.run(cloud, opts);
    for (std::size_t c = 0; c < a.logits.cols(); ++c)
        EXPECT_FLOAT_EQ(a.logits.at(0, c), b.logits.at(0, c));
}

TEST(PointNet2, GroupAllPermutationInvariant)
{
    // The PointNet symmetric-function property: with group-all only
    // (no sampling randomness), shuffling input points must not
    // change the logits.
    PointNet2Spec spec;
    spec.name = "tiny";
    spec.inputPoints = 64;
    spec.numClasses = 4;
    spec.sa = {{0, 0, 0.0f, {16, 32}}};
    spec.head = {16};
    const PointNet2 net(spec, 42);

    const PointCloud cloud = randomCloud(64, 9);
    std::vector<PointIndex> perm(64);
    std::iota(perm.begin(), perm.end(), 0u);
    Rng rng(10);
    for (std::size_t i = 0; i < perm.size(); ++i)
        std::swap(perm[i], perm[i + rng.below(perm.size() - i)]);
    const PointCloud shuffled = cloud.reordered(perm);

    const RunOutput a = net.run(cloud);
    const RunOutput b = net.run(shuffled);
    for (std::size_t c = 0; c < a.logits.cols(); ++c)
        EXPECT_NEAR(a.logits.at(0, c), b.logits.at(0, c), 1e-3f);
}

TEST(PointNet2, TraceCoversAllSaLayersAndHead)
{
    PointNet2Spec spec = PointNet2Spec::classification(10);
    spec.sa[0].npoint = 32;
    spec.sa[0].k = 8;
    spec.sa[1].npoint = 8;
    spec.sa[1].k = 4;
    const PointNet2 net(spec, 42);
    const RunOutput out = net.run(randomCloud(128, 11));
    // 3 SA layers x 3 MLP layers + head (2 hidden + logits).
    EXPECT_EQ(out.trace.gemms.size(), 9u + 3u);
    // Two gathering SA layers (group-all gathers nothing).
    EXPECT_EQ(out.trace.gathers.size(), 2u);
    EXPECT_GT(out.trace.totalMacs(), 0u);
}

TEST(PointNet2, FpsCentroidsSupported)
{
    PointNet2Spec spec = PointNet2Spec::classification(4);
    spec.sa[0].npoint = 16;
    spec.sa[0].k = 4;
    spec.sa[1].npoint = 4;
    spec.sa[1].k = 4;
    const PointNet2 net(spec, 42);
    RunOptions opts;
    opts.centroid = CentroidMethod::Fps;
    const RunOutput out = net.run(randomCloud(64, 12), opts);
    EXPECT_EQ(out.logits.cols(), 4u);
}

// ------------------------------------------------------ segmentation

TEST(PointNet2, SegmentationPerPointOutputs)
{
    PointNet2Spec spec = PointNet2Spec::semanticSegmentation(6);
    spec.inputPoints = 256;
    spec.sa[0].npoint = 64;
    spec.sa[1].npoint = 32;
    spec.sa[2].npoint = 16;
    spec.sa[3].npoint = 8;
    for (auto &sa : spec.sa)
        sa.k = 8;
    const PointNet2 net(spec, 42);
    const PointCloud cloud = randomCloud(256, 13);
    const RunOutput out = net.run(cloud);
    EXPECT_EQ(out.logits.rows(), 256u);
    EXPECT_EQ(out.logits.cols(), 6u);
    EXPECT_EQ(out.labels.size(), 256u);
    for (std::size_t label : out.labels)
        EXPECT_LT(label, 6u);
}

TEST(PointNet2, SegmentationTraceHasFpGathers)
{
    PointNet2Spec spec = PointNet2Spec::partSegmentation(8);
    spec.inputPoints = 128;
    spec.sa[0].npoint = 32;
    spec.sa[0].k = 8;
    spec.sa[1].npoint = 8;
    spec.sa[1].k = 4;
    const PointNet2 net(spec, 42);
    const RunOutput out = net.run(randomCloud(128, 14));
    // 2 SA gathers + 3 FP 3-NN gathers.
    EXPECT_EQ(out.trace.gathers.size(), 5u);
}

// -------------------------------------------------------- DS methods

class DsMethodTest : public ::testing::TestWithParam<DsMethod>
{
};

TEST_P(DsMethodTest, AllMethodsProduceValidLogits)
{
    PointNet2Spec spec = PointNet2Spec::classification(5);
    spec.sa[0].npoint = 32;
    spec.sa[0].k = 8;
    spec.sa[1].npoint = 8;
    spec.sa[1].k = 4;
    const PointNet2 net(spec, 42);
    RunOptions opts;
    opts.ds = GetParam();
    const RunOutput out = net.run(randomCloud(256, 15), opts);
    EXPECT_EQ(out.logits.cols(), 5u);
    for (std::size_t c = 0; c < 5; ++c)
        EXPECT_TRUE(std::isfinite(out.logits.at(0, c)));
}

INSTANTIATE_TEST_SUITE_P(Methods, DsMethodTest,
                         ::testing::Values(DsMethod::BruteKnn,
                                           DsMethod::BruteBq,
                                           DsMethod::Veg,
                                           DsMethod::VegBq,
                                           DsMethod::VegStrict));

TEST(PointNet2, VegAndBruteAgreeWithStrictGathering)
{
    // With identical centroids (same seed) and exact gathering,
    // VEG-strict and brute KNN must produce identical logits.
    PointNet2Spec spec = PointNet2Spec::classification(4);
    spec.sa[0].npoint = 16;
    spec.sa[0].k = 8;
    spec.sa[1].npoint = 4;
    spec.sa[1].k = 4;
    const PointNet2 net(spec, 42);
    const PointCloud cloud = randomCloud(128, 16);

    RunOptions brute_opts;
    brute_opts.ds = DsMethod::BruteKnn;
    brute_opts.seed = 5;
    RunOptions veg_opts;
    veg_opts.ds = DsMethod::VegStrict;
    veg_opts.seed = 5;

    const RunOutput a = net.run(cloud, brute_opts);
    const RunOutput b = net.run(cloud, veg_opts);
    for (std::size_t c = 0; c < a.logits.cols(); ++c)
        EXPECT_NEAR(a.logits.at(0, c), b.logits.at(0, c), 1e-3f);
}

TEST(PointNet2, VegWorkloadBelowBrute)
{
    PointNet2Spec spec = PointNet2Spec::semanticSegmentation(4);
    spec.inputPoints = 512;
    spec.sa[0].npoint = 128;
    spec.sa[1].npoint = 64;
    spec.sa[2].npoint = 32;
    spec.sa[3].npoint = 8;
    for (auto &sa : spec.sa)
        sa.k = 8;
    const PointNet2 net(spec, 42);
    const PointCloud cloud = randomCloud(512, 17);

    RunOptions brute_opts;
    brute_opts.ds = DsMethod::BruteKnn;
    RunOptions veg_opts;
    veg_opts.ds = DsMethod::Veg;

    const RunOutput brute = net.run(cloud, brute_opts);
    const RunOutput veg = net.run(cloud, veg_opts);
    EXPECT_LT(veg.trace.totalSortCandidates() * 2,
              brute.trace.totalSortCandidates());
}

TEST(PointNet2, InputOctreeReusedForFirstLayer)
{
    PointNet2Spec spec = PointNet2Spec::classification(4);
    spec.sa[0].npoint = 16;
    spec.sa[0].k = 8;
    spec.sa[1].npoint = 4;
    spec.sa[1].k = 4;
    const PointNet2 net(spec, 42);
    const PointCloud cloud = randomCloud(128, 18);

    Octree::Config tree_cfg;
    tree_cfg.maxDepth = 8;
    Octree tree = Octree::build(cloud, tree_cfg);

    RunOptions opts;
    opts.ds = DsMethod::Veg;
    opts.inputOctree = &tree;
    // Reuse requires the reordered cloud as input.
    const RunOutput out = net.run(tree.reorderedCloud(), opts);
    EXPECT_EQ(out.logits.cols(), 4u);
    // First SA gather must not have paid an octree build.
    ASSERT_FALSE(out.trace.gathers.empty());
    EXPECT_EQ(out.trace.gathers[0].stats.get("octree.host_reads"), 0u);
}

TEST(PointNet2, FeatureCloudSupported)
{
    PointNet2Spec spec = PointNet2Spec::classification(3);
    spec.inputFeatureDim = 2;
    spec.sa[0].npoint = 8;
    spec.sa[0].k = 4;
    spec.sa[1].npoint = 4;
    spec.sa[1].k = 2;
    const PointNet2 net(spec, 42);
    PointCloud cloud(2);
    Rng rng(19);
    for (int i = 0; i < 64; ++i) {
        const float f[] = {rng.uniform(0.0f, 1.0f),
                           rng.uniform(0.0f, 1.0f)};
        cloud.add({rng.uniform(0.0f, 1.0f), rng.uniform(0.0f, 1.0f),
                   rng.uniform(0.0f, 1.0f)},
                  f);
    }
    const RunOutput out = net.run(cloud);
    EXPECT_EQ(out.logits.cols(), 3u);
}

// ------------------------------------------- blocked kernels (perf PR)

TEST(Tensor, MatmulIntoMatchesMatmulBitForBit)
{
    // The blocked kernel reorders memory access, never the
    // floating-point sums: any (rows, k, n), including remainder
    // rows outside the 4-row blocks, must reproduce matmul exactly.
    Rng rng(3);
    for (const std::size_t m : {1u, 3u, 4u, 7u, 64u}) {
        for (const std::size_t k : {1u, 3u, 32u}) {
            for (const std::size_t n : {1u, 5u, 33u}) {
                Tensor a(m, k), b(k, n);
                a.randomize(rng, 1.0f);
                b.randomize(rng, 1.0f);
                const Tensor expect = Tensor::matmul(a, b);
                Tensor got;
                Tensor::matmulInto(a, b, got);
                ASSERT_EQ(got.data(), expect.data())
                    << m << "x" << k << "x" << n;
            }
        }
    }
}

/** Naive triple loop: every product and partial sum forced through
 * memory as a float, so neither the compiler nor the host can fuse,
 * widen or reassociate them — the oracle every GEMM kernel must
 * match bit for bit. */
std::vector<float>
naiveMatmul(const Tensor &a, const Tensor &b)
{
    std::vector<float> out(a.rows() * b.cols());
    for (std::size_t i = 0; i < a.rows(); ++i) {
        for (std::size_t j = 0; j < b.cols(); ++j) {
            volatile float acc = 0.0f;
            for (std::size_t k = 0; k < a.cols(); ++k) {
                volatile float prod = a.at(i, k) * b.at(k, j);
                acc = acc + prod;
            }
            out[i * b.cols() + j] = acc;
        }
    }
    return out;
}

/** @return true when @p x and @p y hold the same bit patterns. */
bool
sameBits(const std::vector<float> &x, const std::vector<float> &y)
{
    return x.size() == y.size() &&
           (x.empty() ||
            std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) ==
                0);
}

TEST(Tensor, EveryGemmKernelMatchesNaiveLoopBitForBit)
{
    // Every shape class of the kernels: 4-row blocks and the 1-row
    // remainder (m), empty and odd reductions (k), and full 64-column
    // tiles, single vectors and masked tails for both vector widths
    // (n).
    const std::vector<gemm::Instantiation> kernels = gemm::supported();
    ASSERT_STREQ(kernels.front().isa, "scalar");
    EXPECT_STREQ(gemm::selected().isa, kernels.back().isa);
    Rng rng(11);
    for (const std::size_t m : {1u, 2u, 3u, 4u, 5u, 7u, 33u, 130u}) {
        for (const std::size_t k : {0u, 1u, 3u, 131u, 259u}) {
            for (const std::size_t n :
                 {1u, 5u, 16u, 17u, 40u, 64u, 65u, 200u, 1024u}) {
                Tensor a(m, k), b(k, n);
                a.randomize(rng, 1.0f);
                b.randomize(rng, 1.0f);
                const std::vector<float> expect = naiveMatmul(a, b);
                const std::string shape = std::to_string(m) + "x" +
                                          std::to_string(k) + "x" +
                                          std::to_string(n);

                // The selected kernel, through both entry points:
                // whole (matmul) and split in two row ranges.
                ASSERT_TRUE(sameBits(Tensor::matmul(a, b).data(), expect))
                    << "matmul " << shape;
                Tensor split(m, n);
                const std::size_t cut = m / 2 + 1;
                Tensor::matmulRowsInto(a, b, split, 0, cut);
                Tensor::matmulRowsInto(a, b, split, cut, m);
                ASSERT_TRUE(sameBits(split.data(), expect))
                    << "split " << shape;

                // Every instantiation this host can run, on its own.
                for (const gemm::Instantiation &kernel : kernels) {
                    std::vector<float> got(m * n, -1.0f);
                    kernel.kernel(a.data().data(), b.data().data(),
                                  got.data(), m, k, n);
                    ASSERT_TRUE(sameBits(got, expect))
                        << kernel.isa << " " << shape;
                }
            }
        }
    }
}

TEST(Tensor, MatmulRowRangesComposeExactly)
{
    Rng rng(5);
    Tensor a(10, 8), b(8, 6);
    a.randomize(rng, 1.0f);
    b.randomize(rng, 1.0f);
    const Tensor whole = Tensor::matmul(a, b);
    Tensor split(10, 6);
    Tensor::matmulRowsInto(a, b, split, 0, 4);
    Tensor::matmulRowsInto(a, b, split, 4, 9);
    Tensor::matmulRowsInto(a, b, split, 9, 10);
    EXPECT_EQ(split.data(), whole.data());
}

TEST(Tensor, MaxPoolGroupsIntoReusesBuffer)
{
    Rng rng(7);
    Tensor x(12, 5);
    x.randomize(rng, 1.0f);
    const Tensor expect = x.maxPoolGroups(4);
    Tensor out(99, 2); // wrong shape on purpose: resized in place
    x.maxPoolGroupsInto(4, out);
    EXPECT_EQ(out.rows(), 3u);
    EXPECT_EQ(out.data(), expect.data());
}

TEST(Mlp, ForwardArenaMatchesForwardBitForBit)
{
    Rng wr(42);
    const Mlp mlp(6, {16, 16, 4}, wr, /*final_relu=*/false);
    Rng xr(1);
    Tensor x(37, 6);
    x.randomize(xr, 1.0f);

    ExecutionTrace ta, tb;
    const Tensor plain = mlp.forward(x, "t", ta);
    FrameWorkspace ws;
    ws.beginFrame();
    const Tensor &arena = mlp.forwardArena(x, "t", tb, ws, 1);
    EXPECT_EQ(arena.data(), plain.data());
    EXPECT_EQ(ta.gemms.size(), tb.gemms.size());

    // Intra-op row splitting is bit-identical too (rows are
    // independent; k-order accumulation per element is unchanged).
    ExecutionTrace tc;
    ws.beginFrame();
    const Tensor &threaded = mlp.forwardArena(x, "t", tc, ws, 3);
    EXPECT_EQ(threaded.data(), plain.data());
}

TEST(PointNet2, WorkspaceAndThreadsDoNotChangeOutputs)
{
    PointNet2Spec spec = PointNet2Spec::classification(4);
    spec.sa[0].npoint = 32;
    spec.sa[0].k = 8;
    spec.sa[1].npoint = 8;
    spec.sa[1].k = 4;
    const PointNet2 net(spec, 42);
    PointCloud cloud;
    Rng rng(23);
    for (int i = 0; i < 128; ++i) {
        cloud.add({rng.uniform(0.0f, 1.0f), rng.uniform(0.0f, 1.0f),
                   rng.uniform(0.0f, 1.0f)});
    }

    RunOptions base; // private per-call workspace
    const RunOutput a = net.run(cloud, base);

    FrameWorkspace ws;
    RunOptions pooled = base;
    pooled.workspace = &ws;
    pooled.intraOpThreads = 2;
    const RunOutput b = net.run(cloud, pooled);
    const RunOutput c = net.run(cloud, pooled); // arena now warm

    EXPECT_EQ(a.logits.data(), b.logits.data());
    EXPECT_EQ(a.labels, b.labels);
    EXPECT_EQ(b.logits.data(), c.logits.data());
}

} // namespace
} // namespace hgpcn
