/**
 * @file
 * Tests for the library extensions beyond the paper's core: the
 * paper-literal naive FPS, the radix-sort octree build, PLY I/O,
 * trace reports, pipelined stream processing and the adaptive VEG
 * expansion level.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>

#include "common/rng.h"
#include "core/hgpcn_system.h"
#include "datasets/kitti_like.h"
#include "datasets/ply_io.h"
#include "gather/veg_gatherer.h"
#include "nn/trace_report.h"
#include "sampling/fps_sampler.h"
#include "sim/down_sampling_unit.h"
#include "sim/fcu_dla.h"

#include "octree_equality.h"

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

// ------------------------------------------------------- naive FPS

TEST(NaiveFps, PicksIdenticalToCachedFps)
{
    // The literal Algorithm 1 and the cached-distance formulation
    // compute the same min-distance-to-S objective, so with equal
    // seeds the picks must be identical.
    const PointCloud cloud = randomCloud(400, 1);
    FpsSampler cached(9);
    NaiveFpsSampler naive(9);
    EXPECT_EQ(cached.sample(cloud, 48).indices,
              naive.sample(cloud, 48).indices);
}

TEST(NaiveFps, QuadraticAccessCounters)
{
    const PointCloud cloud = randomCloud(200, 2);
    const auto result = NaiveFpsSampler(1).sample(cloud, 20);
    // Sum over iterations of n*|S| = n * (1 + 2 + ... + 19).
    const std::uint64_t expected = 200ull * (19 * 20 / 2);
    EXPECT_EQ(result.stats.get("sample.distance_computations"),
              expected);
    // Whole distance array rewritten and re-read per iteration.
    EXPECT_EQ(result.stats.get("sample.intermediate_writes"),
              200ull * 19);
    EXPECT_EQ(result.stats.get("sample.intermediate_reads"),
              200ull * 19);
}

TEST(NaiveFps, FarMoreTrafficThanCached)
{
    const PointCloud cloud = randomCloud(500, 3);
    const auto naive = NaiveFpsSampler(1).sample(cloud, 64);
    const auto cached = FpsSampler(1).sample(cloud, 64);
    EXPECT_GT(naive.stats.get("sample.host_reads"),
              4 * cached.stats.get("sample.host_reads"));
}

// ------------------------------------------------------ radix sort

Octree::Config
sortConfig(int depth, std::uint32_t leaf_capacity, bool radix)
{
    Octree::Config cfg;
    cfg.maxDepth = depth;
    cfg.leafCapacity = leaf_capacity;
    cfg.useRadixSort = radix;
    return cfg;
}

/** Radix build of @p cloud against the comparison-sort build. */
void
expectRadixMatchesComparison(const PointCloud &cloud, int depth,
                             std::uint32_t leaf_capacity)
{
    expectTreesIdentical(
        Octree::build(cloud, sortConfig(depth, leaf_capacity, true)),
        Octree::build(cloud, sortConfig(depth, leaf_capacity, false)));
}

TEST(RadixBuild, IdenticalToComparisonSort)
{
    const std::size_t sizes[] = {1, 2, 7, 64, 500, 3000};
    for (std::size_t n : sizes) {
        for (int depth : {2, 6, 9, 12}) {
            SCOPED_TRACE(testing::Message()
                         << "n=" << n << " depth=" << depth);
            expectRadixMatchesComparison(randomCloud(n, 17 * n + depth),
                                         depth, 8);
        }
    }
}

TEST(RadixBuild, IdenticalToComparisonSortOnCoincidentPoints)
{
    // All duplicates collapse to one full-depth code: that voxel is
    // a leaf regardless of leafCapacity.
    PointCloud cloud;
    for (int i = 0; i < 100; ++i)
        cloud.add({0.25f, 0.5f, 0.75f});
    // A second pile plus singles: ranges of every shape.
    for (int i = 0; i < 40; ++i)
        cloud.add({0.8f, 0.8f, 0.8f});
    Rng rng(3);
    for (int i = 0; i < 30; ++i)
        cloud.add({rng.uniform(0.0f, 1.0f), rng.uniform(0.0f, 1.0f),
                   rng.uniform(0.0f, 1.0f)});
    expectRadixMatchesComparison(cloud, 6, 4);
}

TEST(RadixBuild, IdenticalOnBothSidesOfThePackedKeyWidth)
{
    // The radix sort packs code << bit_width(n-1) | index into 64
    // bits and falls back to the comparison sort past that width.
    struct Case
    {
        int depth;
        std::size_t n;
    };
    const Case cases[] = {
        {21, 1},      // 63 code bits + 0 index bits: packed
        {21, 2},      // 63 + 1 = 64: packed, widest key
        {21, 3},      // 63 + 2 = 65: fallback
        {21, 500},    // fallback
        {16, 65536},  // 48 + 16 = 64: packed
        {16, 200000}, // 48 + 18 = 66: fallback
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(testing::Message()
                     << "depth=" << c.depth << " n=" << c.n);
        // The last point repeats the first, so their codes tie: ties
        // keep input order.
        PointCloud cloud =
            randomCloud(c.n > 2 ? c.n - 1 : c.n, c.n + c.depth);
        if (c.n > 2) {
            const Vec3 first = cloud.position(0);
            cloud.add(first);
        }
        const Octree tree =
            Octree::build(cloud, sortConfig(c.depth, 64, true));
        expectTreesIdentical(
            tree, Octree::build(cloud, sortConfig(c.depth, 64, false)));
        const auto &codes = tree.pointCodes();
        const auto &perm = tree.permutation();
        for (std::size_t i = 1; i < codes.size(); ++i) {
            if (codes[i - 1] == codes[i]) {
                ASSERT_LT(perm[i - 1], perm[i]) << "point " << i;
            }
        }
    }
}

TEST(RadixBuild, StableForDuplicateCodes)
{
    // Duplicate coordinates produce equal codes; the radix sort is
    // stable, so original order (ascending index) must be kept.
    PointCloud cloud;
    for (int i = 0; i < 64; ++i)
        cloud.add({0.25f, 0.25f, 0.25f});
    Octree::Config cfg;
    cfg.maxDepth = 6;
    const Octree tree = Octree::build(cloud, cfg);
    const auto &perm = tree.permutation();
    for (std::size_t i = 0; i < perm.size(); ++i)
        EXPECT_EQ(perm[i], i);
}

TEST(RadixBuild, SortOpsCounterLinear)
{
    const PointCloud cloud = randomCloud(1000, 5);
    Octree::Config cfg;
    cfg.maxDepth = 8; // 24 key bits -> 3 byte passes
    const Octree tree = Octree::build(cloud, cfg);
    EXPECT_EQ(tree.buildStats().get("octree.sort_ops"),
              1000ull * 3 * 3);
}

// ------------------------------------------------------------- PLY

TEST(PlyIo, RoundTripsPointsAndLabels)
{
    Frame frame;
    frame.name = "t";
    Rng rng(6);
    for (int i = 0; i < 100; ++i) {
        frame.cloud.add({rng.uniform(-2.0f, 2.0f),
                         rng.uniform(-2.0f, 2.0f),
                         rng.uniform(-2.0f, 2.0f)});
        frame.labels.push_back(static_cast<int>(rng.below(5)));
    }
    const std::string path = "/tmp/hgpcn_test_roundtrip.ply";
    ASSERT_TRUE(ply::write(path, frame));
    const std::optional<Frame> read = ply::read(path);
    ASSERT_TRUE(read.has_value());
    const Frame &loaded = *read;
    ASSERT_EQ(loaded.cloud.size(), frame.cloud.size());
    ASSERT_EQ(loaded.labels.size(), frame.labels.size());
    for (std::size_t i = 0; i < frame.cloud.size(); ++i) {
        const Vec3 &a =
            frame.cloud.position(static_cast<PointIndex>(i));
        const Vec3 &b =
            loaded.cloud.position(static_cast<PointIndex>(i));
        EXPECT_NEAR(a.x, b.x, 1e-4f);
        EXPECT_NEAR(a.y, b.y, 1e-4f);
        EXPECT_NEAR(a.z, b.z, 1e-4f);
        EXPECT_EQ(frame.labels[i], loaded.labels[i]);
    }
    std::remove(path.c_str());
}

TEST(PlyIo, UnlabelledCloudOmitsLabelProperty)
{
    Frame frame;
    frame.cloud.add({1, 2, 3});
    const std::string path = "/tmp/hgpcn_test_nolabel.ply";
    ASSERT_TRUE(ply::write(path, frame));
    const std::optional<Frame> loaded = ply::read(path);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->cloud.size(), 1u);
    EXPECT_TRUE(loaded->labels.empty());
    std::remove(path.c_str());
}

TEST(PlyIo, WriteFailsOnBadPath)
{
    Frame frame;
    frame.cloud.add({0, 0, 0});
    EXPECT_FALSE(ply::write("/nonexistent-dir/x.ply", frame));
}

/** Write @p text to a fresh file under the test temp dir. */
std::string
writeTempFile(const std::string &name, const std::string &text)
{
    const std::string path = ::testing::TempDir() + name;
    std::ofstream(path, std::ios::binary) << text;
    return path;
}

/** @return why ply::read refused @p path ("" if it did not). */
std::string
plyRefusal(const std::string &path)
{
    std::string error;
    const std::optional<Frame> frame = ply::read(path, &error);
    EXPECT_FALSE(frame.has_value()) << path;
    EXPECT_NE(error.find(path), std::string::npos) << error;
    return error;
}

TEST(PlyIo, MalformedFilesAreRefusedNotFatal)
{
    const std::string header = "ply\nformat ascii 1.0\n"
                               "element vertex 3\n"
                               "property float x\nproperty float y\n"
                               "property float z\nend_header\n";
    EXPECT_NE(plyRefusal(::testing::TempDir() + "hgpcn_missing.ply")
                  .find("cannot open"),
              std::string::npos);

    const std::string not_ply =
        writeTempFile("hgpcn_not_ply.ply", "OFF\n3 1 0\n");
    EXPECT_NE(plyRefusal(not_ply).find("not a PLY"), std::string::npos);

    const std::string binary = writeTempFile(
        "hgpcn_binary.ply",
        "ply\nformat binary_little_endian 1.0\nelement vertex 1\n"
        "property float x\nproperty float y\nproperty float z\n"
        "end_header\n0123456789ab");
    EXPECT_NE(plyRefusal(binary).find("ascii"), std::string::npos);

    const std::string no_xyz = writeTempFile(
        "hgpcn_no_xyz.ply",
        "ply\nformat ascii 1.0\nelement vertex 1\n"
        "property float u\nproperty float v\nproperty float w\n"
        "end_header\n1 2 3\n");
    EXPECT_NE(plyRefusal(no_xyz).find("x/y/z"), std::string::npos);

    const std::string truncated =
        writeTempFile("hgpcn_truncated.ply", header + "1 2 3\n4 5 6\n");
    EXPECT_NE(plyRefusal(truncated).find("truncated at vertex 2"),
              std::string::npos);

    const std::string short_row = writeTempFile(
        "hgpcn_short_row.ply", header + "1 2 3\n4 5\n7 8 9\n");
    EXPECT_NE(plyRefusal(short_row).find("vertex 1 is malformed"),
              std::string::npos);

    for (const std::string &path :
         {not_ply, binary, no_xyz, truncated, short_row})
        std::remove(path.c_str());
}

TEST(PlyIo, ElementsAfterTheVerticesAreIgnored)
{
    // A face list after the vertices must not replace the vertex
    // count.
    const std::string path = writeTempFile(
        "hgpcn_with_faces.ply",
        "ply\nformat ascii 1.0\nelement vertex 3\n"
        "property float x\nproperty float y\nproperty float z\n"
        "element face 1\nproperty list uchar int vertex_indices\n"
        "end_header\n1 2 3\n4 5 6\n7 8 9\n3 0 1 2\n");
    const std::optional<Frame> loaded = ply::read(path);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->cloud.size(), 3u);
    EXPECT_EQ(loaded->cloud.position(2), (Vec3{7, 8, 9}));
    std::remove(path.c_str());
}

TEST(PlyIo, HugeVertexCountIsNotTrusted)
{
    // A header promising 2^60 vertices over a 3-vertex body is
    // refused as truncated instead of reserving the promised count.
    const std::string path = writeTempFile(
        "hgpcn_huge_count.ply",
        "ply\nformat ascii 1.0\nelement vertex 1152921504606846976\n"
        "property float x\nproperty float y\nproperty float z\n"
        "end_header\n1 2 3\n4 5 6\n7 8 9\n");
    EXPECT_NE(plyRefusal(path).find("truncated at vertex 3"),
              std::string::npos);
    std::remove(path.c_str());
}

// ----------------------------------------------------- trace report

TEST(TraceReport, GemmTableListsLayers)
{
    ExecutionTrace trace;
    trace.gemms.push_back({"sa0.fc0", 128, 3, 64});
    trace.gemms.push_back({"head.fc1", 1, 512, 40});
    const std::string table = renderGemmTable(trace);
    EXPECT_NE(table.find("sa0.fc0"), std::string::npos);
    EXPECT_NE(table.find("head.fc1"), std::string::npos);
    EXPECT_NE(table.find("24,576"), std::string::npos); // 128*3*64
}

TEST(TraceReport, GatherTableListsWorkload)
{
    ExecutionTrace trace;
    GatherOp op;
    op.layer = "sa1";
    op.method = "VEG";
    op.centroids = 128;
    op.k = 32;
    op.inputPoints = 512;
    op.stats.set("gather.distance_computations", 4242);
    trace.gathers.push_back(op);
    const std::string table = renderGatherTable(trace);
    EXPECT_NE(table.find("sa1"), std::string::npos);
    EXPECT_NE(table.find("VEG"), std::string::npos);
    EXPECT_NE(table.find("4,242"), std::string::npos);
}

TEST(TraceReport, TotalsLine)
{
    ExecutionTrace trace;
    trace.gemms.push_back({"a", 10, 10, 10});
    const std::string totals = renderTraceTotals(trace);
    EXPECT_NE(totals.find("1,000 MACs"), std::string::npos);
}

// --------------------------------------------- pipelined streaming

/** One frame at a time: the mean modeled E2E time of @p rt's
 * frames, as a rate. */
double
serialFps(const RuntimeResult &rt)
{
    double total = 0.0;
    for (const ProcessedFrame &pf : rt.frames)
        total += pf.result.totalSec();
    return 1.0 / (total / static_cast<double>(rt.frames.size()));
}

TEST(PipelinedStream, ThroughputAtLeastSerial)
{
    KittiLike::Config lidar_cfg;
    lidar_cfg.azimuthSteps = 250;
    const KittiLike lidar(lidar_cfg);
    std::vector<Frame> frames;
    for (std::size_t f = 0; f < 3; ++f)
        frames.push_back(lidar.generate(f));

    PointNet2Spec spec = PointNet2Spec::classification(5);
    spec.inputPoints = 256;
    spec.sa[0].npoint = 64;
    spec.sa[0].k = 8;
    spec.sa[1].npoint = 16;
    spec.sa[1].k = 8;
    HgPcnSystem::Config cfg;
    const HgPcnSystem system(cfg, spec);
    const RuntimeResult rt = system.runStream(
        frames, StreamRunner::compat(frames.size(), 0));
    EXPECT_GE(rt.report.sustainedFps, serialFps(rt) * 0.999);
    EXPECT_GT(rt.report.sustainedFps, 0.0);
}

TEST(PipelinedStream, OverlapHidesTheShorterStage)
{
    // With build time b and FPGA time f per frame, pipelined
    // throughput approaches 1/max(b, f) while serial is 1/(b+f).
    KittiLike::Config lidar_cfg;
    lidar_cfg.azimuthSteps = 250;
    const KittiLike lidar(lidar_cfg);
    std::vector<Frame> frames;
    for (std::size_t f = 0; f < 4; ++f)
        frames.push_back(lidar.generate(f));

    PointNet2Spec spec = PointNet2Spec::classification(5);
    spec.inputPoints = 256;
    spec.sa[0].npoint = 64;
    spec.sa[0].k = 8;
    spec.sa[1].npoint = 16;
    spec.sa[1].k = 8;
    HgPcnSystem::Config cfg;
    const HgPcnSystem system(cfg, spec);
    const RuntimeResult rt = system.runStream(
        frames, StreamRunner::compat(frames.size(), 0));
    // Strictly better than serial unless one stage is ~zero.
    EXPECT_GT(rt.report.sustainedFps, serialFps(rt));
}

// ----------------------------------------- adaptive VEG expansion

TEST(AdaptiveVeg, LevelFollowsLocalDensity)
{
    // Dense cluster + sparse halo: the leaf containing a dense
    // anchor is deeper than the leaf of a sparse anchor.
    PointCloud cloud;
    Rng rng(7);
    for (int i = 0; i < 3000; ++i) {
        cloud.add(
            {0.5f + 0.01f * static_cast<float>(rng.normal()),
             0.5f + 0.01f * static_cast<float>(rng.normal()),
             0.5f + 0.01f * static_cast<float>(rng.normal())});
    }
    for (int i = 0; i < 300; ++i) {
        cloud.add({rng.uniform(0.0f, 1.0f), rng.uniform(0.0f, 1.0f),
                   rng.uniform(0.0f, 1.0f)});
    }
    Octree::Config cfg;
    cfg.maxDepth = 12;
    const Octree tree = Octree::build(cloud, cfg);
    VegKnn veg(tree);
    const int dense_level = veg.levelFor({0.5f, 0.5f, 0.5f});
    const int sparse_level = veg.levelFor({0.05f, 0.95f, 0.05f});
    EXPECT_GT(dense_level, sparse_level);
}

TEST(AdaptiveVeg, BoundsLastRingOnNonUniformClouds)
{
    // The global-level fallback explodes on dense clusters; the
    // adaptive default keeps the sorted set small.
    PointCloud cloud;
    Rng rng(8);
    for (int i = 0; i < 4000; ++i) {
        cloud.add(
            {0.3f + 0.005f * static_cast<float>(rng.normal()),
             0.3f + 0.005f * static_cast<float>(rng.normal()),
             0.3f + 0.005f * static_cast<float>(rng.normal())});
    }
    for (int i = 0; i < 1000; ++i) {
        cloud.add({rng.uniform(0.0f, 1.0f), rng.uniform(0.0f, 1.0f),
                   rng.uniform(0.0f, 1.0f)});
    }
    Octree::Config cfg;
    cfg.maxDepth = 12;
    const Octree tree = Octree::build(cloud, cfg);

    std::vector<PointIndex> centrals;
    for (PointIndex c = 0; c < 64; ++c)
        centrals.push_back(c * 70);

    VegKnn adaptive(tree);
    const auto adaptive_result = adaptive.gather(centrals, 32);

    VegKnn::Config coarse_cfg;
    coarse_cfg.gridLevel = 3;
    VegKnn coarse(tree, coarse_cfg);
    const auto coarse_result = coarse.gather(centrals, 32);

    EXPECT_LT(
        adaptive_result.stats.get("gather.sort_candidates") * 4,
        coarse_result.stats.get("gather.sort_candidates"));
}

// ---------------------------------------------- accelerator clock

TEST(AcceleratorClock, FcuScalesWithComparisonClock)
{
    ExecutionTrace trace;
    trace.gemms.push_back({"a", 4096, 64, 64});
    SimConfig slow = SimConfig::defaults();
    slow.fpga.acceleratorClockHz = 250e6;
    // Avoid the memory bound so the clock is visible.
    slow.memory.bandwidthBytesPerSec = 1e12;
    SimConfig fast = slow;
    fast.fpga.acceleratorClockHz = 1e9;
    const double slow_sec = FcuSim(slow).run(trace).totalSec();
    const double fast_sec = FcuSim(fast).run(trace).totalSec();
    EXPECT_NEAR(slow_sec / fast_sec, 4.0, 1e-6);
}

TEST(AcceleratorClock, PreprocessingClockIndependent)
{
    // The Down-sampling Unit stays on the prototype clock; changing
    // the accelerator comparison clock must not affect it.
    StatSet stats;
    stats.set("sample.levels_visited", 10000);
    SimConfig a = SimConfig::defaults();
    SimConfig b = SimConfig::defaults();
    b.fpga.acceleratorClockHz = 2e9;
    const DownsamplingUnitSim sim_a(a), sim_b(b);
    EXPECT_DOUBLE_EQ(sim_a.run(stats, 64, 1000).descentSec,
                     sim_b.run(stats, 64, 1000).descentSec);
}

} // namespace
} // namespace hgpcn
