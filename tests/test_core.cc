/**
 * @file
 * Integration tests for the HgPCN engines and the end-to-end system.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <set>
#include <thread>

#include "common/rng.h"
#include "core/hgpcn_system.h"
#include "core/inference_engine.h"
#include "core/frame_workspace.h"
#include "core/preprocessing_engine.h"
#include "datasets/kitti_like.h"
#include "datasets/modelnet_like.h"

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

/** Bitwise equality of two octrees: every node, the SFC codes, the
 * permutation and the reordered cloud. */
void
expectSameOctree(const Octree &got, const Octree &want)
{
    ASSERT_EQ(got.nodes().size(), want.nodes().size());
    for (std::size_t i = 0; i < want.nodes().size(); ++i) {
        const OctreeNode &g = got.nodes()[i];
        const OctreeNode &w = want.nodes()[i];
        ASSERT_TRUE(g.code == w.code && g.level == w.level &&
                    g.childMask == w.childMask &&
                    g.firstChild == w.firstChild &&
                    g.parent == w.parent &&
                    g.pointBegin == w.pointBegin &&
                    g.pointEnd == w.pointEnd)
            << "node " << i;
    }
    EXPECT_TRUE(got.pointCodes() == want.pointCodes());
    EXPECT_TRUE(got.permutation() == want.permutation());
    const std::vector<Vec3> &gp = got.reorderedCloud().positions();
    const std::vector<Vec3> &wp = want.reorderedCloud().positions();
    ASSERT_EQ(gp.size(), wp.size());
    EXPECT_EQ(std::memcmp(gp.data(), wp.data(), gp.size() * sizeof(Vec3)),
              0);
    EXPECT_EQ(got.buildStats().get("octree.nodes"),
              want.buildStats().get("octree.nodes"));
}

PointNet2Spec
tinyClassifier()
{
    PointNet2Spec spec = PointNet2Spec::classification(5);
    spec.inputPoints = 256;
    spec.sa[0].npoint = 64;
    spec.sa[0].k = 8;
    spec.sa[1].npoint = 16;
    spec.sa[1].k = 8;
    return spec;
}

// ------------------------------------------------ PreprocessingEngine

TEST(PreprocessingEngine, ProducesKSampledPoints)
{
    const PreprocessingEngine engine;
    const PointCloud raw = randomCloud(20000, 1);
    const auto result = engine.process(raw, 512);
    EXPECT_EQ(result.sampled.size(), 512u);
    EXPECT_EQ(result.spt.size(), 512u);
    ASSERT_NE(result.tree, nullptr);
    EXPECT_EQ(result.tree->reorderedCloud().size(), raw.size());
}

TEST(PreprocessingEngine, SampledPointsComeFromRawCloud)
{
    const PreprocessingEngine engine;
    const PointCloud raw = randomCloud(5000, 2);
    const auto result = engine.process(raw, 128);
    // Every sampled coordinate must exist in the raw cloud.
    std::set<std::tuple<float, float, float>> raw_set;
    for (std::size_t i = 0; i < raw.size(); ++i) {
        const Vec3 &p = raw.position(static_cast<PointIndex>(i));
        raw_set.insert({p.x, p.y, p.z});
    }
    for (std::size_t i = 0; i < result.sampled.size(); ++i) {
        const Vec3 &p =
            result.sampled.position(static_cast<PointIndex>(i));
        EXPECT_TRUE(raw_set.count({p.x, p.y, p.z}));
    }
}

TEST(PreprocessingEngine, LatencyBreakdownPositive)
{
    const PreprocessingEngine engine;
    const auto result = engine.process(randomCloud(30000, 3), 1024);
    EXPECT_GT(result.octreeBuildSec, 0.0);
    EXPECT_GT(result.dsu.totalSec(), 0.0);
    EXPECT_NEAR(result.totalSec(),
                result.octreeBuildSec + result.dsu.totalSec(), 1e-12);
}

TEST(PreprocessingEngine, OctreeTableWithinOnChipBudget)
{
    // The Fig. 13 design point: a ~1e6-point frame's table must stay
    // around 10 Mb. Use 1e5 here for test speed: ~1 Mb.
    const PreprocessingEngine engine;
    const auto result = engine.process(randomCloud(100000, 4), 4096);
    EXPECT_LT(static_cast<double>(result.octreeTableBytes) * 8.0,
              13e6 / 10.0);
}

TEST(PreprocessingEngine, Deterministic)
{
    const PreprocessingEngine engine;
    const PointCloud raw = randomCloud(4000, 5);
    const auto a = engine.process(raw, 256);
    const auto b = engine.process(raw, 256);
    EXPECT_EQ(a.spt, b.spt);
}

TEST(PreprocessingEngine, PooledBuildMatchesFreshBuildAcrossSizes)
{
    // The carry-free build rebuilds one pooled tree in place; a
    // shrinking then regrowing frame must still come out bitwise
    // equal to a fresh Octree::build of each frame.
    const PreprocessingEngine engine;
    const Octree *pooled = nullptr;
    std::uint64_t seed = 20;
    for (const std::size_t n : {500000u, 20000u, 500000u}) {
        const PointCloud raw = randomCloud(n, seed++);
        const PreprocessResult result = engine.buildStage(raw);
        // Each result is released before the next build, so every
        // build reuses the one warmed bundle.
        if (pooled != nullptr) {
            EXPECT_EQ(result.tree.get(), pooled) << n;
        }
        pooled = result.tree.get();
        expectSameOctree(*result.tree,
                         Octree::build(raw, engine.config().octree));
    }
}

TEST(PreprocessingEngine, HeldResultSurvivesNextBuild)
{
    const PreprocessingEngine engine;
    const PointCloud first = randomCloud(30000, 30);
    const PointCloud second = randomCloud(12000, 31);
    const PreprocessResult held = engine.process(first, 512);
    const PreprocessResult next = engine.process(second, 512);
    EXPECT_NE(held.tree.get(), next.tree.get());
    held.tree->validate();
    expectSameOctree(*held.tree,
                     Octree::build(first, engine.config().octree));
    expectSameOctree(*next.tree,
                     Octree::build(second, engine.config().octree));
}

// --------------------------------------------------- InferenceEngine

TEST(InferenceEngine, RunsVegInferenceEndToEnd)
{
    const PointNet2 net(tinyClassifier(), 42);
    const InferenceEngine engine;
    const PointCloud input = randomCloud(256, 6);
    const auto result = engine.run(net, input);
    EXPECT_EQ(result.output.logits.cols(), 5u);
    EXPECT_GT(result.dsu.pipelinedSec, 0.0);
    EXPECT_GT(result.fcu.totalSec(), 0.0);
    EXPECT_DOUBLE_EQ(result.totalSec(),
                     std::max(result.dsu.pipelinedSec,
                              result.fcu.totalSec()));
}

TEST(InferenceEngine, StageBreakdownPopulated)
{
    const PointNet2 net(tinyClassifier(), 42);
    const InferenceEngine engine;
    const auto result = engine.run(net, randomCloud(256, 7));
    std::uint64_t total = 0;
    for (std::size_t s = 0; s < kStageCount; ++s)
        total += result.dsu.stageCycles[s];
    EXPECT_GT(total, 0u);
}

TEST(InferenceEngine, BruteDsFallbackStillTimed)
{
    InferenceEngine::Config cfg;
    cfg.ds = DsMethod::BruteKnn;
    const InferenceEngine engine(cfg);
    const PointNet2 net(tinyClassifier(), 42);
    const auto result = engine.run(net, randomCloud(256, 8));
    EXPECT_GT(result.dsu.pipelinedSec, 0.0);
}

TEST(InferenceEngine, ReusesPreprocessingOctree)
{
    const PointNet2 net(tinyClassifier(), 42);
    const InferenceEngine engine;
    const PointCloud raw = randomCloud(256, 9);
    Octree::Config tree_cfg;
    tree_cfg.maxDepth = 8;
    Octree tree = Octree::build(raw, tree_cfg);
    const auto result =
        engine.run(net, tree.reorderedCloud(), &tree);
    EXPECT_EQ(result.output.logits.cols(), 5u);
    ASSERT_FALSE(result.output.trace.gathers.empty());
    EXPECT_EQ(
        result.output.trace.gathers[0].stats.get("octree.host_reads"),
        0u);
}

// ------------------------------------------------------ HgPcnSystem

TEST(HgPcnSystem, ProcessFrameEndToEnd)
{
    HgPcnSystem::Config cfg;
    const HgPcnSystem system(cfg, tinyClassifier());
    const auto result = system.processFrame(randomCloud(10000, 10));
    EXPECT_EQ(result.preprocess.sampled.size(), 256u);
    EXPECT_GT(result.totalSec(), 0.0);
    EXPECT_GT(result.fps(), 0.0);
    EXPECT_NEAR(result.totalSec(),
                result.preprocess.totalSec() +
                    result.inference.totalSec(),
                1e-12);
}

TEST(HgPcnSystem, PreprocessingDominatedByBuildNotSampling)
{
    // The OIS promise: after the build pass, sampling itself touches
    // host memory only K times, so build >> sampling on big frames.
    HgPcnSystem::Config cfg;
    const HgPcnSystem system(cfg, tinyClassifier());
    const auto result = system.processFrame(randomCloud(50000, 11));
    EXPECT_GT(result.preprocess.octreeBuildSec,
              result.preprocess.dsu.descentSec);
}

TEST(HgPcnSystem, CompatRunProcessesEveryFrame)
{
    KittiLike::Config lidar_cfg;
    lidar_cfg.azimuthSteps = 250; // small frames for test speed
    const KittiLike lidar(lidar_cfg);
    std::vector<Frame> frames;
    for (std::size_t f = 0; f < 3; ++f)
        frames.push_back(lidar.generate(f));

    PointNet2Spec spec = tinyClassifier();
    HgPcnSystem::Config cfg;
    const HgPcnSystem system(cfg, spec);
    const RuntimeResult rt = system.runStream(
        frames, StreamRunner::compat(frames.size(), 0));
    EXPECT_EQ(rt.frames.size(), 3u);
    EXPECT_GT(rt.report.meanLatencySec, 0.0);
    EXPECT_GE(rt.report.maxLatencySec, rt.report.meanLatencySec);
    EXPECT_NEAR(streamGenerationFps(frames), 10.0, 0.5);
}

TEST(HgPcnSystem, UnstampedStreamHasNoGenerationRate)
{
    // Non-LiDAR generators leave timestamps at 0.0: no sensor rate
    // is derivable, so a sensor-paced run falls back to batch
    // admission and its verdict is NotApplicable — not the seed's
    // vacuous YES, and not a fatal "non-monotonic stream" error.
    KittiLike::Config lidar_cfg;
    lidar_cfg.azimuthSteps = 250;
    const KittiLike lidar(lidar_cfg);
    std::vector<Frame> frames;
    for (std::size_t f = 0; f < 2; ++f) {
        frames.push_back(lidar.generate(f));
        frames.back().timestamp = 0.0;
    }
    HgPcnSystem::Config cfg;
    const HgPcnSystem system(cfg, tinyClassifier());
    EXPECT_DOUBLE_EQ(streamGenerationFps(frames), 0.0);
    const RuntimeResult rt =
        system.runStream(frames, StreamRunner::Config{});
    EXPECT_FALSE(rt.report.paced);
    EXPECT_DOUBLE_EQ(rt.report.generationFps, 0.0);
    EXPECT_EQ(rt.report.realTime, RealTimeVerdict::NotApplicable);
}

TEST(HgPcnSystem, PipelinedFpsMatchesSingleWorkerRunner)
{
    // The legacy analytical two-stage recurrence (CPU builds frame
    // i+1 while the FPGA down-samples + infers frame i) must be
    // reproduced by a single-worker StreamRunner schedule. 5% is
    // the acceptance tolerance; the schedules should in fact agree
    // to rounding.
    KittiLike::Config lidar_cfg;
    lidar_cfg.azimuthSteps = 250;
    const KittiLike lidar(lidar_cfg);
    std::vector<Frame> frames;
    for (std::size_t f = 0; f < 4; ++f)
        frames.push_back(lidar.generate(f));

    HgPcnSystem::Config cfg;
    const HgPcnSystem system(cfg, tinyClassifier());

    double cpu_free = 0.0, fpga_done = 0.0;
    for (const Frame &frame : frames) {
        const E2eResult r = system.processFrame(frame.cloud);
        cpu_free += r.preprocess.octreeBuildSec;
        fpga_done = std::max(fpga_done, cpu_free) +
                    r.preprocess.dsu.totalSec() +
                    r.inference.totalSec();
    }
    const double analytic =
        static_cast<double>(frames.size()) / fpga_done;

    const RuntimeResult compat = system.runStream(
        frames, StreamRunner::compat(frames.size(), 0));
    EXPECT_NEAR(compat.report.sustainedFps, analytic, analytic * 0.05);
    EXPECT_NEAR(compat.report.sustainedFps, analytic, analytic * 1e-9);

    // Same number through the runner API directly.
    StreamRunner runner(
        system.preprocessor(), system.backend(),
        StreamRunner::compat(frames.size(),
                             system.config().inputPoints));
    const RuntimeResult rt = runner.run(frames);
    EXPECT_NEAR(rt.report.sustainedFps, analytic, analytic * 1e-9);
}

TEST(HgPcnSystem, LargerFramesCostMorePreprocessing)
{
    HgPcnSystem::Config cfg;
    const HgPcnSystem system(cfg, tinyClassifier());
    const auto small = system.processFrame(randomCloud(5000, 12));
    const auto large = system.processFrame(randomCloud(50000, 13));
    EXPECT_GT(large.preprocess.totalSec(),
              small.preprocess.totalSec());
}

TEST(HgPcnSystem, ResultOutlivesSystem)
{
    const PointCloud raw = randomCloud(10000, 40);
    E2eResult result;
    {
        HgPcnSystem::Config cfg;
        const HgPcnSystem system(cfg, tinyClassifier());
        result = system.processFrame(raw);
    }
    // The tree aliases a bundle of the destroyed engine's pool; the
    // lease keeps both alive.
    ASSERT_NE(result.preprocess.tree, nullptr);
    result.preprocess.tree->validate();
    const Octree::Config octree_cfg = PreprocessingEngine::Config{}.octree;
    expectSameOctree(*result.preprocess.tree,
                     Octree::build(raw, octree_cfg));
}

TEST(HgPcnSystem, ConcurrentCallersMatchSerialResults)
{
    // Concurrent callers lease distinct bundles from the engine's
    // pool and build in parallel; each result must equal the serial
    // one, and releases from other threads must not corrupt it.
    HgPcnSystem::Config cfg;
    const HgPcnSystem system(cfg, tinyClassifier());
    std::vector<PointCloud> frames;
    for (std::uint64_t i = 0; i < 3; ++i)
        frames.push_back(randomCloud(6000 + 2000 * i, 60 + i));
    std::vector<E2eResult> serial;
    for (const PointCloud &f : frames)
        serial.push_back(system.processFrame(f));

    std::vector<E2eResult> concurrent(frames.size());
    std::vector<std::thread> callers;
    for (std::size_t i = 0; i < frames.size(); ++i) {
        callers.emplace_back([&, i] {
            for (int round = 0; round < 2; ++round)
                concurrent[i] = system.processFrame(frames[i]);
        });
    }
    for (std::thread &t : callers)
        t.join();
    for (std::size_t i = 0; i < frames.size(); ++i) {
        EXPECT_EQ(concurrent[i].preprocess.spt, serial[i].preprocess.spt);
        EXPECT_EQ(concurrent[i].inference.output.labels,
                  serial[i].inference.output.labels);
        EXPECT_EQ(concurrent[i].totalSec(), serial[i].totalSec());
        expectSameOctree(*concurrent[i].preprocess.tree,
                         *serial[i].preprocess.tree);
    }
}

TEST(HgPcnSystem, SerialProcessFrameStopsGrowingAfterWarmup)
{
    HgPcnSystem::Config cfg;
    const HgPcnSystem system(cfg, tinyClassifier());
    const std::vector<PointCloud> frames = {randomCloud(20000, 50),
                                            randomCloud(8000, 51)};
    for (const PointCloud &f : frames) // warm-up: sizes every pool
        system.processFrame(f);
    const std::uint64_t warmed = FrameWorkspace::backingGrowths();
    for (int round = 0; round < 3; ++round) {
        for (const PointCloud &f : frames)
            system.processFrame(f);
    }
    EXPECT_EQ(FrameWorkspace::backingGrowths(), warmed);
}

} // namespace
} // namespace hgpcn
