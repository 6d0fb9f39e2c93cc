/**
 * @file
 * Tests for the streaming runtime: the deterministic virtual
 * timeline and the end-to-end StreamRunner, including its in-order
 * hook and stop contract. The concurrency cases here are the ones
 * CI runs under ThreadSanitizer (see .github/workflows/ci.yml).
 */

#include <gtest/gtest.h>

#include <utility>

#include "common/logging.h"
#include "common/stats.h"
#include "core/hgpcn_system.h"
#include "datasets/coherent_drive.h"
#include "datasets/kitti_like.h"
#include "runtime/stream_runner.h"
#include "runtime/virtual_timeline.h"

namespace hgpcn
{
namespace
{

// --------------------------------------------------- VirtualTimeline

TimelineConfig
oneStageMachine(OverloadPolicy policy, std::size_t capacity)
{
    TimelineConfig cfg;
    cfg.stages = {{"work", "dev"}};
    cfg.queueCapacity = capacity;
    cfg.policy = policy;
    return cfg;
}

TEST(VirtualTimeline, SerialChainTimes)
{
    TimelineConfig cfg;
    cfg.stages = {{"a", "cpu"}, {"b", "fpga"}};
    cfg.queueCapacity = 8;
    const TimelineResult r = simulateTimeline(
        cfg, {0.0, 0.0}, {{1.0, 2.0}, {1.0, 2.0}});
    ASSERT_EQ(r.processed, 2u);
    // Frame 0: a in [0,1], b in [1,3]. Frame 1's a overlaps b:
    // a in [1,2], b waits for the unit until 3, done at 5.
    EXPECT_DOUBLE_EQ(r.frames[0].finishSec[0], 1.0);
    EXPECT_DOUBLE_EQ(r.frames[0].doneSec, 3.0);
    EXPECT_DOUBLE_EQ(r.frames[1].startSec[0], 1.0);
    EXPECT_DOUBLE_EQ(r.frames[1].startSec[1], 3.0);
    EXPECT_DOUBLE_EQ(r.frames[1].doneSec, 5.0);
    EXPECT_DOUBLE_EQ(r.makespanSec, 5.0);
}

TEST(VirtualTimeline, SharedResourceMatchesLegacyRecurrence)
{
    // Three stages, the last two on one FPGA: the schedule must
    // reproduce the historical two-stage pipeline recurrence
    // fpga_done = max(fpga_done, cpu_free) + (ds + inf).
    TimelineConfig cfg;
    cfg.stages = {{"build", "cpu"}, {"ds", "fpga"}, {"inf", "fpga"}};
    cfg.queueCapacity = 16;
    const std::size_t n = 4;
    const std::vector<double> build = {1.0, 1.5, 0.5, 1.0};
    const std::vector<double> ds = {2.0, 1.0, 2.0, 1.5};
    const std::vector<double> inf = {3.0, 3.5, 2.5, 3.0};
    std::vector<double> arrivals(n, 0.0);
    std::vector<std::vector<double>> costs;
    for (std::size_t i = 0; i < n; ++i)
        costs.push_back({build[i], ds[i], inf[i]});

    double cpu_free = 0.0, fpga_done = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        cpu_free += build[i];
        fpga_done = std::max(fpga_done, cpu_free) + ds[i] + inf[i];
    }

    const TimelineResult r = simulateTimeline(cfg, arrivals, costs);
    ASSERT_EQ(r.processed, n);
    EXPECT_DOUBLE_EQ(r.frames[n - 1].doneSec, fpga_done);
    EXPECT_DOUBLE_EQ(r.makespanSec, fpga_done);
    // Both FPGA stages report against the same single unit.
    EXPECT_DOUBLE_EQ(r.stages[1].busySec, 2.0 + 1.0 + 2.0 + 1.5);
    EXPECT_GT(r.stages[2].utilization, r.stages[1].utilization);
}

TEST(VirtualTimeline, ExtraUnitsIncreaseThroughput)
{
    TimelineConfig cfg = oneStageMachine(OverloadPolicy::Block, 8);
    const std::vector<double> arrivals(6, 0.0);
    const std::vector<std::vector<double>> costs(6, {3.0});
    const TimelineResult one = simulateTimeline(cfg, arrivals, costs);
    cfg.resourceUnits["dev"] = 2;
    const TimelineResult two = simulateTimeline(cfg, arrivals, costs);
    EXPECT_DOUBLE_EQ(one.makespanSec, 18.0);
    EXPECT_DOUBLE_EQ(two.makespanSec, 9.0);
}

TEST(VirtualTimeline, BlockPolicyDelaysAdmission)
{
    const TimelineConfig cfg =
        oneStageMachine(OverloadPolicy::Block, 1);
    const TimelineResult r = simulateTimeline(
        cfg, {0.0, 1.0, 2.0}, {{10.0}, {10.0}, {10.0}});
    ASSERT_EQ(r.processed, 3u);
    EXPECT_EQ(r.dropped, 0u);
    // Frame 0 starts at 0; frame 1 queues at 1; frame 2 cannot be
    // admitted until frame 1 leaves the queue at t=10.
    EXPECT_DOUBLE_EQ(r.frames[1].admitSec, 1.0);
    EXPECT_DOUBLE_EQ(r.frames[2].admitSec, 10.0);
    EXPECT_DOUBLE_EQ(r.frames[2].doneSec, 30.0);
    EXPECT_DOUBLE_EQ(r.frames[2].latencySec, 28.0);
}

TEST(VirtualTimeline, DropNewestDiscardsArrivingFrame)
{
    const TimelineConfig cfg =
        oneStageMachine(OverloadPolicy::DropNewest, 1);
    const TimelineResult r = simulateTimeline(
        cfg, {0.0, 1.0, 2.0}, {{10.0}, {10.0}, {10.0}});
    EXPECT_EQ(r.processed, 2u);
    EXPECT_EQ(r.dropped, 1u);
    EXPECT_FALSE(r.frames[0].dropped);
    EXPECT_FALSE(r.frames[1].dropped);
    EXPECT_TRUE(r.frames[2].dropped);
}

TEST(VirtualTimeline, DropOldestEvictsQueuedFrame)
{
    const TimelineConfig cfg =
        oneStageMachine(OverloadPolicy::DropOldest, 1);
    const TimelineResult r = simulateTimeline(
        cfg, {0.0, 1.0, 2.0}, {{10.0}, {10.0}, {10.0}});
    EXPECT_EQ(r.processed, 2u);
    EXPECT_EQ(r.dropped, 1u);
    // Frame 1 was waiting in the source queue when frame 2 arrived.
    EXPECT_TRUE(r.frames[1].dropped);
    EXPECT_FALSE(r.frames[2].dropped);
    EXPECT_DOUBLE_EQ(r.frames[2].startSec[0], 10.0);
}

TEST(VirtualTimeline, MaxInFlightOneSerializes)
{
    TimelineConfig cfg;
    cfg.stages = {{"a", "cpu"}, {"b", "fpga"}};
    cfg.queueCapacity = 8;
    cfg.maxInFlight = 1;
    const TimelineResult r = simulateTimeline(
        cfg, {0.0, 0.0}, {{1.0, 2.0}, {1.0, 2.0}});
    ASSERT_EQ(r.processed, 2u);
    // No overlap at all: frame 1 is admitted when frame 0 leaves.
    EXPECT_DOUBLE_EQ(r.frames[1].admitSec, 3.0);
    EXPECT_DOUBLE_EQ(r.frames[1].doneSec, 6.0);
}

TEST(VirtualTimeline, QueueOccupancyAccounted)
{
    const TimelineConfig cfg =
        oneStageMachine(OverloadPolicy::Block, 4);
    const TimelineResult r = simulateTimeline(
        cfg, {0.0, 0.0, 0.0}, {{2.0}, {2.0}, {2.0}});
    ASSERT_EQ(r.stages.size(), 1u);
    EXPECT_EQ(r.stages[0].peakQueueDepth, 2u);
    EXPECT_GT(r.stages[0].meanQueueDepth, 0.0);
    EXPECT_DOUBLE_EQ(r.stages[0].utilization, 1.0);
}

// ----------------------------------------------------- StreamRunner

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

std::vector<Frame>
smallKittiStream(std::size_t n)
{
    KittiLike::Config cfg;
    cfg.azimuthSteps = 250; // small frames for test speed
    const KittiLike lidar(cfg);
    std::vector<Frame> frames;
    for (std::size_t f = 0; f < n; ++f)
        frames.push_back(lidar.generate(f));
    return frames;
}

TEST(StreamRunner, MatchesSerialFunctionalResults)
{
    const std::vector<Frame> frames = smallKittiStream(3);
    HgPcnSystem::Config cfg;
    const HgPcnSystem system(cfg, tinyClassifier());

    StreamRunner::Config rc;
    rc.buildWorkers = 2;
    const RuntimeResult rt = system.runStream(frames, rc);
    ASSERT_EQ(rt.frames.size(), frames.size());

    for (std::size_t i = 0; i < frames.size(); ++i) {
        const E2eResult serial =
            system.processFrame(frames[i].cloud);
        const E2eResult &piped = rt.frames[i].result;
        EXPECT_EQ(rt.frames[i].index, i);
        // Same engines, same seeds: identical picks and labels no
        // matter how many workers carried the frame.
        EXPECT_EQ(piped.preprocess.spt, serial.preprocess.spt);
        EXPECT_EQ(piped.inference.output.labels,
                  serial.inference.output.labels);
        EXPECT_DOUBLE_EQ(piped.totalSec(), serial.totalSec());
    }
}

TEST(StreamRunner, ReportIsDeterministicAcrossRuns)
{
    const std::vector<Frame> frames = smallKittiStream(4);
    HgPcnSystem::Config cfg;
    const HgPcnSystem system(cfg, tinyClassifier());
    StreamRunner::Config rc;
    rc.buildWorkers = 3;
    rc.queueCapacity = 2;
    const RuntimeResult a = system.runStream(frames, rc);
    const RuntimeResult b = system.runStream(frames, rc);
    EXPECT_DOUBLE_EQ(a.report.sustainedFps, b.report.sustainedFps);
    EXPECT_DOUBLE_EQ(a.report.p99LatencySec, b.report.p99LatencySec);
    EXPECT_DOUBLE_EQ(a.report.makespanSec, b.report.makespanSec);
}

TEST(StreamRunner, PacedReportChecksRealTimeCriterion)
{
    const std::vector<Frame> frames = smallKittiStream(3);
    HgPcnSystem::Config cfg;
    const HgPcnSystem system(cfg, tinyClassifier());
    StreamRunner::Config rc; // paced by default
    const RuntimeResult rt = system.runStream(frames, rc);
    EXPECT_EQ(rt.report.framesProcessed, 3u);
    EXPECT_NEAR(rt.report.generationFps, 10.0, 0.5);
    EXPECT_EQ(rt.report.realTime,
              rt.report.sustainedFps >= rt.report.generationFps
                  ? RealTimeVerdict::Yes
                  : RealTimeVerdict::No);
    EXPECT_GT(rt.report.p50LatencySec, 0.0);
    EXPECT_LE(rt.report.p50LatencySec, rt.report.p99LatencySec);
    EXPECT_LE(rt.report.p99LatencySec, rt.report.maxLatencySec);
    ASSERT_EQ(rt.report.stages.size(), 3u);
    EXPECT_GT(rt.workload.size(), 0u);
}

TEST(StreamRunner, EmptyStreamYieldsEmptyReport)
{
    HgPcnSystem::Config cfg;
    const HgPcnSystem system(cfg, tinyClassifier());
    const RuntimeResult rt =
        system.runStream({}, StreamRunner::Config{});
    EXPECT_EQ(rt.report.framesIn, 0u);
    EXPECT_TRUE(rt.frames.empty());
}

TEST(StreamRunner, NonMonotonicTimestampsAreFatal)
{
    std::vector<Frame> frames = smallKittiStream(3);
    // Genuinely corrupt ordering (stamped, but going backwards).
    frames[2].timestamp = frames[0].timestamp;
    HgPcnSystem::Config cfg;
    const HgPcnSystem system(cfg, tinyClassifier());
    StreamRunner::Config rc; // paced: timestamps are load-bearing
    EXPECT_EXIT(system.runStream(frames, rc),
                ::testing::ExitedWithCode(1), "strictly increasing");
}

TEST(StreamRunner, UnstampedStreamFallsBackToBatch)
{
    // Generators other than the LiDAR simulator leave timestamps at
    // 0.0; a paced runner must degrade to batch admission (with a
    // warning), not die.
    std::vector<Frame> frames = smallKittiStream(3);
    for (Frame &frame : frames)
        frame.timestamp = 0.0;
    HgPcnSystem::Config cfg;
    const HgPcnSystem system(cfg, tinyClassifier());
    // Capture the degradation warning instead of silencing it: the
    // fallback must be announced, not just taken.
    std::vector<std::pair<LogLevel, std::string>> captured;
    LogSink prev = setLogSink(
        [&captured](LogLevel level, const std::string &msg) {
            captured.emplace_back(level, msg);
        });
    const RuntimeResult rt =
        system.runStream(frames, StreamRunner::Config{});
    setLogSink(std::move(prev));
    ASSERT_EQ(captured.size(), 1u);
    EXPECT_EQ(captured[0].first, LogLevel::Warn);
    EXPECT_NE(captured[0].second.find("batch admission"),
              std::string::npos)
        << "warning text was: " << captured[0].second;
    EXPECT_FALSE(rt.report.paced);
    EXPECT_EQ(rt.report.framesProcessed, 3u);
    EXPECT_DOUBLE_EQ(rt.report.generationFps, 0.0);
    // No rate derivable: the verdict must be n/a, not a vacuous
    // YES (the seed bug).
    EXPECT_EQ(rt.report.realTime, RealTimeVerdict::NotApplicable);
}

TEST(StreamRunner, BatchModeVerdictIsNotApplicable)
{
    // Regression: an unpaced (batch) run has generationFps == 0, so
    // the seed's `sustained >= generation` verdict was trivially
    // YES for every batch bench. Batch races no sensor: the verdict
    // must be n/a, in the report and in its rendering.
    const std::vector<Frame> frames = smallKittiStream(3);
    HgPcnSystem::Config cfg;
    const HgPcnSystem system(cfg, tinyClassifier());
    StreamRunner::Config rc;
    rc.paceBySensor = false; // batch admission of a stamped stream
    const RuntimeResult rt = system.runStream(frames, rc);
    EXPECT_FALSE(rt.report.paced);
    EXPECT_DOUBLE_EQ(rt.report.generationFps, 0.0);
    EXPECT_EQ(rt.report.realTime, RealTimeVerdict::NotApplicable);
    const std::string text = rt.report.toString();
    EXPECT_NE(text.find("real-time: n/a"), std::string::npos);
    EXPECT_EQ(text.find("real-time: YES"), std::string::npos);
}

StreamRunner::Config
runnerConfig(const HgPcnSystem &system, std::size_t max_batch = 1)
{
    StreamRunner::Config rc;
    rc.inputPoints = system.config().inputPoints;
    rc.maxBatch = max_batch;
    return rc;
}

TEST(StreamRunner, HookSeesEveryFrameInStreamOrder)
{
    // The hook runs once per frame, in stream order, after all three
    // stages recorded their modeled costs — also when inference
    // runs over admission-index groups (6 frames at maxBatch 4 end
    // in a partial group).
    const std::vector<Frame> frames = smallKittiStream(6);
    HgPcnSystem::Config cfg;
    const HgPcnSystem system(cfg, tinyClassifier());
    for (const std::size_t max_batch : {std::size_t{1}, std::size_t{4}}) {
        StreamRunner runner(system.preprocessor(), system.backend(),
                            runnerConfig(system, max_batch));
        std::vector<std::size_t> seen;
        const RuntimeResult rt =
            runner.run(frames, [&](const FrameTask &task) {
                seen.push_back(task.index);
                EXPECT_EQ(task.frame, &frames[task.index]);
                ASSERT_EQ(task.stageCostSec.size(), 3u);
                EXPECT_EQ(task.stageCostSec[0],
                          task.result.preprocess.octreeBuildSec);
                EXPECT_EQ(task.stageCostSec[1],
                          task.result.preprocess.dsu.totalSec());
                EXPECT_EQ(task.stageCostSec[2],
                          task.result.inference.totalSec());
            });
        ASSERT_EQ(seen.size(), frames.size())
            << "maxBatch " << max_batch;
        for (std::size_t i = 0; i < seen.size(); ++i)
            EXPECT_EQ(seen[i], i);
        EXPECT_EQ(rt.report.framesProcessed, frames.size());
        EXPECT_EQ(rt.report.framesAbandoned, 0u);
    }
}

TEST(StreamRunner, StopFromFirstHookAbandonsTheRest)
{
    // The stop flag is checked before each frame, so a stop from
    // frame 0's hook completes exactly that frame — deterministic,
    // whatever the lookahead thread was doing at the time.
    const std::vector<Frame> frames = smallKittiStream(6);
    HgPcnSystem::Config cfg;
    const HgPcnSystem system(cfg, tinyClassifier());
    for (const std::size_t max_batch : {std::size_t{1}, std::size_t{4}}) {
        StreamRunner runner(system.preprocessor(), system.backend(),
                            runnerConfig(system, max_batch));
        std::size_t hooks = 0;
        const RuntimeResult rt =
            runner.run(frames, [&](const FrameTask &) {
                ++hooks;
                runner.requestStop();
            });
        EXPECT_EQ(hooks, 1u) << "maxBatch " << max_batch;
        EXPECT_EQ(rt.report.framesIn, frames.size());
        EXPECT_EQ(rt.report.framesProcessed, 1u);
        EXPECT_EQ(rt.report.framesAbandoned, frames.size() - 1);
        ASSERT_EQ(rt.frames.size(), 1u);
        EXPECT_EQ(rt.frames[0].index, 0u);
        // The ledger: one row per input frame, in stream order.
        ASSERT_EQ(rt.ledger.size(), frames.size());
        for (std::size_t i = 0; i < frames.size(); ++i) {
            EXPECT_EQ(rt.ledger[i].index, i);
            EXPECT_EQ(rt.ledger[i].outcome,
                      i == 0 ? FrameOutcome::Processed
                             : FrameOutcome::Abandoned);
        }
        EXPECT_EQ(rt.ledger[0].doneSec, rt.frames[0].doneSec);
        EXPECT_EQ(rt.ledger[0].latencySec, rt.frames[0].latencySec);
    }
}

TEST(StreamRunner, StopWhileIdleIsNoOp)
{
    // A stop against an idle runner belongs to no run: the next
    // run() clears it and processes everything.
    const std::vector<Frame> frames = smallKittiStream(3);
    HgPcnSystem::Config cfg;
    const HgPcnSystem system(cfg, tinyClassifier());
    StreamRunner runner(system.preprocessor(), system.backend(),
                        runnerConfig(system));
    runner.requestStop();
    const RuntimeResult rt = runner.run(frames);
    EXPECT_EQ(rt.report.framesProcessed, frames.size());
    EXPECT_EQ(rt.report.framesAbandoned, 0u);
}

TEST(StreamRunner, RunAfterStopProcessesFullStream)
{
    // Regression: a run aborted by requestStop() must not poison
    // the next run().
    const std::vector<Frame> frames = smallKittiStream(4);
    HgPcnSystem::Config cfg;
    const HgPcnSystem system(cfg, tinyClassifier());
    StreamRunner runner(system.preprocessor(), system.backend(),
                        runnerConfig(system));

    const RuntimeResult first =
        runner.run(frames, [&](const FrameTask &) {
            runner.requestStop();
        });
    EXPECT_EQ(first.report.framesProcessed, 1u);

    const RuntimeResult second = runner.run(frames);
    EXPECT_EQ(second.report.framesProcessed, frames.size());
    EXPECT_EQ(second.report.framesAbandoned, 0u);
    EXPECT_EQ(second.frames.size(), frames.size());
}

TEST(StreamRunner, SteadyStateIsArenaAllocationFree)
{
    // The zero-alloc regression pin (core/frame_workspace.h): after
    // a warm-up run grows the runner's workspace arenas once, a
    // steady-state run over the same stream must not grow them
    // again — the counting hook on the arena backing stores is the
    // witness. Single-worker config so exactly one workspace serves
    // every frame deterministically. Two inputs: one unkeyed sensor,
    // and three interleaved coherent sensors whose ids key the
    // temporal carry (one carried bundle per sensor).
    HgPcnSystem::Config cfg;
    const HgPcnSystem system(cfg, tinyClassifier());
    const auto expect_steady = [&](const std::vector<Frame> &frames,
                                   const StreamTraceIds *ids,
                                   int warm_runs) {
        StreamRunner::Config rc =
            StreamRunner::compat(frames.size(), 0);
        rc.inputPoints = system.config().inputPoints;
        StreamRunner runner(system.preprocessor(), system.backend(),
                            rc);
        for (int r = 0; r < warm_runs; ++r)
            runner.run(frames, {}, ids); // arenas size themselves
        const std::uint64_t warm = FrameWorkspace::backingGrowths();
        const RuntimeResult steady = runner.run(frames, {}, ids);
        EXPECT_EQ(steady.frames.size(), frames.size());
        EXPECT_EQ(FrameWorkspace::backingGrowths(), warm)
            << "steady-state frames grew a workspace arena";
    };
    expect_steady(smallKittiStream(3), nullptr, 1);

    std::vector<Frame> interleaved;
    StreamTraceIds ids;
    constexpr std::size_t kSensors = 3;
    for (std::size_t f = 0; f < 3; ++f) {
        for (std::size_t s = 0; s < kSensors; ++s) {
            CoherentDrive::Config dc;
            dc.points = 2000;
            dc.churnFraction = 0.02;
            dc.seed = 300 + s;
            Frame frame = CoherentDrive(dc).generate(f);
            frame.timestamp += static_cast<double>(s) /
                               (kSensors * dc.frameRateHz);
            ids.frame.push_back(
                static_cast<std::int64_t>(interleaved.size()));
            ids.sensor.push_back(static_cast<std::int64_t>(s));
            interleaved.push_back(std::move(frame));
        }
    }
    // A coherent stream needs two warm-up runs: each sensor's first
    // frame of a re-run diffs incrementally against its last frame
    // of the previous run — a wider delta, on a code path the first
    // run (cold, scratch first frames) never took. From the second
    // run on, every diff repeats.
    expect_steady(interleaved, &ids, 2);
}

} // namespace
} // namespace hgpcn
