/**
 * @file
 * Tests for the sharded serving layer: SensorStream merging,
 * placement policies, the ShardedRunner fleet, report-merge
 * arithmetic, per-sensor ordering under hash affinity and
 * mid-stream shard stops. The concurrency cases here run under
 * ThreadSanitizer and AddressSanitizer in CI
 * (.github/workflows/ci.yml).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "common/logging.h"
#include "core/hgpcn_system.h"
#include "datasets/coherent_drive.h"
#include "datasets/sensor_stream.h"
#include "serving/placement.h"
#include "serving/serving_report.h"
#include "serving/sharded_runner.h"

namespace hgpcn
{
namespace
{

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

/** Small multi-LiDAR stream (tiny frames for test speed). */
SensorStream
tinyLidarStream(std::size_t sensors, std::size_t frames_per_sensor,
                double rate_hz = 10.0)
{
    MultiSensorConfig cfg;
    cfg.sensors = sensors;
    cfg.framesPerSensor = frames_per_sensor;
    cfg.lidar.azimuthSteps = 250;
    cfg.lidar.frameRateHz = rate_hz;
    return makeLidarSensorStream(cfg);
}

/** Stream of empty frames with given stamps/tags (placement only). */
SensorStream
stampedStream(const std::vector<double> &stamps,
              const std::vector<std::size_t> &tags,
              std::size_t sensor_count)
{
    SensorStream stream;
    stream.sensorCount = sensor_count;
    for (std::size_t i = 0; i < stamps.size(); ++i) {
        Frame frame;
        frame.name = std::string("f").append(std::to_string(i));
        frame.timestamp = stamps[i];
        stream.frames.push_back(std::move(frame));
        stream.sensors.push_back(tags[i]);
    }
    return stream;
}

/** RAII warn() capture: malformed-frame rejects are asserted on,
 * not printed into the test log. */
class WarningCapture
{
  public:
    WarningCapture()
    {
        previous = setLogSink(
            [this](LogLevel level, const std::string &msg) {
                if (level == LogLevel::Warn)
                    lines.push_back(msg);
            });
    }
    ~WarningCapture() { setLogSink(previous); }

    std::vector<std::string> lines;

  private:
    LogSink previous;
};

// ------------------------------------------------------ SensorStream

TEST(SensorStream, MergeInterleavesByTimestamp)
{
    const SensorStream stream = tinyLidarStream(2, 3);
    ASSERT_EQ(stream.size(), 6u);
    EXPECT_EQ(stream.sensorCount, 2u);
    for (std::size_t i = 1; i < stream.size(); ++i) {
        EXPECT_LT(stream.frames[i - 1].timestamp,
                  stream.frames[i].timestamp);
    }
    // Phase offsets interleave the two 10 Hz sensors s0,s1,s0,s1,...
    for (std::size_t i = 0; i < stream.size(); ++i)
        EXPECT_EQ(stream.sensors[i], i % 2);
    // Per-sensor extraction returns capture order.
    const std::vector<Frame> s1 = stream.framesOfSensor(1);
    ASSERT_EQ(s1.size(), 3u);
    for (std::size_t f = 1; f < s1.size(); ++f)
        EXPECT_LT(s1[f - 1].timestamp, s1[f].timestamp);
    EXPECT_NEAR(sensorGenerationFps(stream, 0), 10.0, 1e-9);
    EXPECT_NEAR(sensorGenerationFps(stream, 1), 10.0, 1e-9);
}

TEST(SensorStream, MergeRejectsSharedTimestamps)
{
    // Two same-rate sensors with no phase offset collide on every
    // stamp. Malformed capture data is recoverable: the colliding
    // frames are rejected per frame (warned + counted, with
    // actionable guidance) and the rest of the merge proceeds.
    std::vector<std::vector<Frame>> per_sensor(2);
    for (std::size_t s = 0; s < 2; ++s) {
        for (std::size_t f = 0; f < 2; ++f) {
            Frame frame;
            frame.name = std::string("s")
                             .append(std::to_string(s))
                             .append(".f")
                             .append(std::to_string(f));
            frame.timestamp = 0.1 * static_cast<double>(f);
            per_sensor[s].push_back(std::move(frame));
        }
    }
    WarningCapture capture;
    const SensorStream stream =
        mergeSensorStreams(std::move(per_sensor));
    // Sensor 0 wins every tie (first in selection order); sensor
    // 1's colliding frames are the ones rejected.
    ASSERT_EQ(stream.size(), 2u);
    EXPECT_EQ(stream.rejectedFrames, 2u);
    for (std::size_t i = 0; i < stream.size(); ++i)
        EXPECT_EQ(stream.sensors[i], 0u);
    ASSERT_EQ(capture.lines.size(), 2u);
    for (const std::string &line : capture.lines)
        EXPECT_NE(line.find("phase offsets"), std::string::npos)
            << line;
}

TEST(SensorStream, MergeOfNothingYieldsEmptyStream)
{
    // Degenerate inputs are valid, not fatal: no sensors at all,
    // and sensors that offered no frames.
    const SensorStream none = mergeSensorStreams({});
    EXPECT_EQ(none.size(), 0u);
    EXPECT_EQ(none.sensorCount, 0u);

    const SensorStream idle =
        mergeSensorStreams(std::vector<std::vector<Frame>>(3));
    EXPECT_EQ(idle.size(), 0u);
    EXPECT_EQ(idle.sensorCount, 3u);
    EXPECT_TRUE(idle.framesOfSensor(1).empty());
    // Placement over an empty stream is an empty assignment.
    EXPECT_TRUE(assignShards(idle, 2, PlacementPolicy::LeastLoaded)
                    .empty());
}

TEST(SensorStream, SingleSensorMergeIsIdentity)
{
    std::vector<std::vector<Frame>> per_sensor(1);
    for (std::size_t f = 0; f < 3; ++f) {
        Frame frame;
        frame.name = std::string("f").append(std::to_string(f));
        frame.timestamp = 0.1 * static_cast<double>(f);
        per_sensor[0].push_back(std::move(frame));
    }
    const SensorStream stream =
        mergeSensorStreams(std::move(per_sensor));
    ASSERT_EQ(stream.size(), 3u);
    EXPECT_EQ(stream.sensorCount, 1u);
    for (std::size_t i = 0; i < stream.size(); ++i) {
        EXPECT_EQ(stream.sensors[i], 0u);
        EXPECT_EQ(stream.frames[i].name,
                  std::string("f").append(std::to_string(i)));
    }
    EXPECT_NEAR(sensorGenerationFps(stream, 0), 10.0, 1e-9);
}

TEST(SensorStream, DuplicateTimestampWithinSensorIsRejected)
{
    // A sensor that repeats a stamp mid-sequence is a corrupt
    // capture log: the offending frame is rejected (warned +
    // counted), the well-formed frames around it survive.
    std::vector<std::vector<Frame>> per_sensor(1);
    for (const double t : {0.0, 0.1, 0.1, 0.2}) {
        Frame frame;
        frame.name = std::string("f").append(
            std::to_string(per_sensor[0].size()));
        frame.timestamp = t;
        per_sensor[0].push_back(std::move(frame));
    }
    WarningCapture capture;
    const SensorStream stream =
        mergeSensorStreams(std::move(per_sensor));
    ASSERT_EQ(stream.size(), 3u);
    EXPECT_EQ(stream.rejectedFrames, 1u);
    EXPECT_EQ(stream.frames[0].name, "f0");
    EXPECT_EQ(stream.frames[1].name, "f1");
    EXPECT_EQ(stream.frames[2].name, "f3");
    // The surviving interleave is strictly increasing again.
    for (std::size_t i = 1; i < stream.size(); ++i)
        EXPECT_LT(stream.frames[i - 1].timestamp,
                  stream.frames[i].timestamp);
    ASSERT_EQ(capture.lines.size(), 1u);
    EXPECT_NE(capture.lines[0].find("f2"), std::string::npos)
        << capture.lines[0];
    EXPECT_NE(capture.lines[0].find("strictly increasing"),
              std::string::npos)
        << capture.lines[0];
}

TEST(SensorStream, UnstampedSensorKeepsOnlyItsFirstFrame)
{
    // All-identical stamps read as "unstamped" (the non-LiDAR
    // generators leave 0.0). An unstamped sequence cannot take
    // part in a paced interleave: every frame after the first
    // fails to advance the sensor's clock and is rejected, with a
    // message about stamping — not phase offsets, which would not
    // fix a sensor that carries no timing at all.
    std::vector<std::vector<Frame>> per_sensor(1);
    for (std::size_t f = 0; f < 3; ++f) {
        Frame frame;
        frame.name = std::string("f").append(std::to_string(f));
        frame.timestamp = 0.0;
        per_sensor[0].push_back(std::move(frame));
    }
    WarningCapture capture;
    const SensorStream stream =
        mergeSensorStreams(std::move(per_sensor));
    ASSERT_EQ(stream.size(), 1u);
    EXPECT_EQ(stream.frames[0].name, "f0");
    EXPECT_EQ(stream.rejectedFrames, 2u);
    ASSERT_EQ(capture.lines.size(), 2u);
    for (const std::string &line : capture.lines) {
        EXPECT_NE(line.find("does not advance its timestamp"),
                  std::string::npos)
            << line;
        EXPECT_EQ(line.find("phase offsets"), std::string::npos)
            << line;
    }
}

// --------------------------------------------------------- Placement

TEST(Placement, RoundRobinCyclesShards)
{
    const SensorStream stream = stampedStream(
        {0.0, 0.1, 0.2, 0.3, 0.4, 0.5}, {0, 1, 0, 1, 0, 1}, 2);
    const auto assignment =
        assignShards(stream, 3, PlacementPolicy::RoundRobin);
    const std::vector<std::size_t> expect = {0, 1, 2, 0, 1, 2};
    EXPECT_EQ(assignment, expect);
}

TEST(Placement, HashBySensorPinsEachSensorToOneShard)
{
    const SensorStream stream = tinyLidarStream(4, 3);
    const auto assignment =
        assignShards(stream, 3, PlacementPolicy::HashBySensor);
    std::vector<std::size_t> shard_of(stream.sensorCount,
                                      std::size_t(-1));
    for (std::size_t i = 0; i < stream.size(); ++i) {
        const std::size_t sensor = stream.sensors[i];
        if (shard_of[sensor] == std::size_t(-1))
            shard_of[sensor] = assignment[i];
        EXPECT_EQ(assignment[i], shard_of[sensor])
            << "sensor " << sensor << " split across shards";
    }
    // Deterministic: same stream, same placement.
    EXPECT_EQ(assignment,
              assignShards(stream, 3, PlacementPolicy::HashBySensor));
}

TEST(Placement, LeastLoadedJoinsShortestQueue)
{
    // One serial server per shard, 1 s assumed service: backlogs
    // alternate until t=2.5, by which time both shards drained.
    const SensorStream stream = stampedStream(
        {0.0, 0.1, 0.2, 0.3, 2.5}, {0, 0, 0, 0, 0}, 1);
    const auto assignment = assignShards(
        stream, 2, PlacementPolicy::LeastLoaded, /*service=*/1.0);
    const std::vector<std::size_t> expect = {0, 1, 0, 1, 0};
    EXPECT_EQ(assignment, expect);
}

// ----------------------------------------------------- ShardedRunner

TEST(ShardedRunner, ShardReplicasMatchSingleSystemResults)
{
    // Identically-seeded shard replicas: which shard serves a frame
    // never changes its functional output.
    const SensorStream stream = tinyLidarStream(2, 2);
    HgPcnSystem::Config cfg;
    const HgPcnSystem system(cfg, tinyClassifier());

    ShardedRunner::Config sc;
    sc.shards = 2;
    sc.placement = PlacementPolicy::RoundRobin;
    ShardedRunner runner(cfg, tinyClassifier(), sc);
    const ServingResult served = runner.serve(stream);
    ASSERT_EQ(served.frames.size(), stream.size());

    for (const ServedFrame &sf : served.frames) {
        const E2eResult serial =
            system.processFrame(stream.frames[sf.globalIndex].cloud);
        EXPECT_EQ(sf.result.inference.output.labels,
                  serial.inference.output.labels);
        EXPECT_DOUBLE_EQ(sf.result.totalSec(), serial.totalSec());
        EXPECT_EQ(sf.sensor, stream.sensors[sf.globalIndex]);
    }
}

TEST(ShardedRunner, PerSensorOrderPreservedUnderHashAffinity)
{
    const SensorStream stream = tinyLidarStream(3, 4);
    HgPcnSystem::Config cfg;
    ShardedRunner::Config sc;
    sc.shards = 2;
    sc.placement = PlacementPolicy::HashBySensor;
    ShardedRunner runner(cfg, tinyClassifier(), sc);
    const ServingResult served = runner.serve(stream);
    ASSERT_EQ(served.frames.size(), stream.size());

    // Affinity pins each sensor to one shard...
    for (const SensorServingReport &sr : served.report.sensors)
        EXPECT_EQ(sr.shardSpread, 1u);
    // ...so each sensor's frames complete in capture order on the
    // global timeline (served.frames is completion-ordered).
    std::vector<std::size_t> next(stream.sensorCount, 0);
    for (const ServedFrame &sf : served.frames) {
        EXPECT_EQ(sf.sensorIndex, next[sf.sensor])
            << "sensor " << sf.sensor
            << " completed out of capture order";
        ++next[sf.sensor];
    }
}

TEST(ShardedRunner, AggregateThroughputScalesWithShards)
{
    // Batch admission measures machine capacity: two shards process
    // two halves of the stream on independent virtual clocks, so
    // aggregate sustained FPS must scale (acceptance: >= 1.5x).
    const SensorStream stream = tinyLidarStream(4, 4);
    HgPcnSystem::Config cfg;
    ShardedRunner::Config sc;
    sc.placement = PlacementPolicy::RoundRobin;
    sc.runner.paceBySensor = false;

    sc.shards = 1;
    ShardedRunner one(cfg, tinyClassifier(), sc);
    sc.shards = 2;
    ShardedRunner two(cfg, tinyClassifier(), sc);

    const ServingResult r1 = one.serve(stream);
    const ServingResult r2 = two.serve(stream);
    ASSERT_EQ(r1.report.framesProcessed, stream.size());
    ASSERT_EQ(r2.report.framesProcessed, stream.size());
    EXPECT_GE(r2.report.sustainedFps,
              1.5 * r1.report.sustainedFps)
        << "2 shards: " << r2.report.sustainedFps << " FPS vs 1: "
        << r1.report.sustainedFps << " FPS";
    // Batch serves race no sensor: verdicts are n/a everywhere.
    EXPECT_FALSE(r2.report.paced);
    for (const SensorServingReport &sr : r2.report.sensors)
        EXPECT_EQ(sr.realTime, RealTimeVerdict::NotApplicable);
}

TEST(ShardedRunner, PacedServeYieldsPerSensorVerdicts)
{
    HgPcnSystem::Config cfg;
    ShardedRunner::Config sc;
    sc.shards = 2;
    sc.placement = PlacementPolicy::HashBySensor;

    // 10 Hz sensors: the tiny model keeps up easily -> YES.
    ShardedRunner runner(cfg, tinyClassifier(), sc);
    const ServingResult ok = runner.serve(tinyLidarStream(2, 3));
    ASSERT_EQ(ok.report.sensors.size(), 2u);
    for (const SensorServingReport &sr : ok.report.sensors) {
        EXPECT_NEAR(sr.generationFps, 10.0, 0.5);
        EXPECT_EQ(sr.realTime, RealTimeVerdict::Yes);
    }

    // 5 kHz sensors: far beyond the modeled hardware -> NO, not a
    // vacuous YES.
    const ServingResult behind =
        runner.serve(tinyLidarStream(2, 3, /*rate=*/5000.0));
    for (const SensorServingReport &sr : behind.report.sensors) {
        EXPECT_GT(sr.generationFps, 1000.0);
        EXPECT_EQ(sr.realTime, RealTimeVerdict::No);
    }
}

TEST(ShardedRunner, ReportMergeArithmetic)
{
    // Synthetic shard outcomes: the merge is pure arithmetic, so
    // every aggregate number is checkable by hand.
    const SensorStream stream = stampedStream(
        {0.0, 0.1, 0.2, 0.3}, {0, 1, 0, 1}, 2);

    std::vector<ShardOutcome> outcomes(2);
    auto fill = [](ShardOutcome &oc, double anchor,
                   std::vector<std::size_t> gidx,
                   std::vector<double> lat,
                   std::vector<double> done) {
        oc.anchorSec = anchor;
        oc.globalIndex = std::move(gidx);
        RuntimeReport &rep = oc.result.report;
        rep.framesIn = oc.globalIndex.size();
        rep.framesProcessed = oc.globalIndex.size();
        rep.paced = true;
        for (std::size_t i = 0; i < oc.globalIndex.size(); ++i) {
            ProcessedFrame pf;
            pf.index = i;
            pf.latencySec = lat[i];
            pf.doneSec = done[i];
            oc.result.frames.push_back(std::move(pf));
            FrameRecord row;
            row.index = i;
            row.latencySec = lat[i];
            row.doneSec = done[i];
            oc.result.ledger.push_back(row);
        }
    };
    // Shard 0 serves sensor 0 (globals 0,2), clock anchored at 0.0;
    // shard 1 serves sensor 1 (globals 1,3), anchored at 0.1.
    fill(outcomes[0], 0.0, {0, 2}, {0.05, 0.05}, {0.05, 0.25});
    fill(outcomes[1], 0.1, {1, 3}, {0.06, 0.04}, {0.06, 0.24});

    const ServingResult merged = mergeShardOutcomes(
        stream, std::move(outcomes), PlacementPolicy::HashBySensor);
    const ServingReport &rep = merged.report;

    EXPECT_EQ(rep.framesIn, 4u);
    EXPECT_EQ(rep.framesProcessed, 4u);
    EXPECT_TRUE(rep.paced);
    // Last completion: shard 1 frame 1 at 0.1 + 0.24 = 0.34.
    EXPECT_NEAR(rep.makespanSec, 0.34, 1e-12);
    EXPECT_NEAR(rep.sustainedFps, 4.0 / 0.34, 1e-9);
    // Merged latencies sorted: .04 .05 .05 .06.
    EXPECT_DOUBLE_EQ(rep.p50LatencySec, 0.05);
    EXPECT_DOUBLE_EQ(rep.p95LatencySec, 0.06);
    EXPECT_DOUBLE_EQ(rep.maxLatencySec, 0.06);
    EXPECT_NEAR(rep.meanLatencySec, 0.05, 1e-12);

    // Completion order across shard clocks: 0.05, 0.16, 0.25, 0.34.
    ASSERT_EQ(merged.frames.size(), 4u);
    const std::vector<std::size_t> order = {0, 1, 2, 3};
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(merged.frames[i].globalIndex, order[i]);

    // Per-sensor slices: both sensors at (n-1)/span = 5 FPS, served
    // faster than offered.
    ASSERT_EQ(rep.sensors.size(), 2u);
    EXPECT_DOUBLE_EQ(rep.sensors[0].generationFps, 5.0);
    EXPECT_DOUBLE_EQ(rep.sensors[0].sustainedFps, 2.0 / 0.25);
    EXPECT_EQ(rep.sensors[0].realTime, RealTimeVerdict::Yes);
    EXPECT_DOUBLE_EQ(rep.sensors[1].generationFps, 5.0);
    EXPECT_NEAR(rep.sensors[1].sustainedFps, 2.0 / 0.24, 1e-9);
    EXPECT_EQ(rep.sensors[1].realTime, RealTimeVerdict::Yes);
    EXPECT_EQ(rep.sensors[0].shardSpread, 1u);
    EXPECT_EQ(rep.sensors[1].shardSpread, 1u);
}

TEST(ShardedRunner, MidStreamShardStopTruncatesOnlyThatShard)
{
    const SensorStream stream = tinyLidarStream(2, 20);
    HgPcnSystem::Config cfg;
    ShardedRunner::Config sc;
    sc.shards = 2;
    sc.placement = PlacementPolicy::RoundRobin;
    sc.runner.queueCapacity = 2;
    ShardedRunner runner(cfg, tinyClassifier(), sc);

    std::atomic<bool> stop_sent{false};
    const ServingResult served = runner.serve(
        stream, [&](std::size_t shard, const FrameTask &) {
            if (shard == 1 && !stop_sent.exchange(true))
                runner.requestStopShard(1);
        });

    const RuntimeReport &healthy = served.report.shardReports[0];
    const RuntimeReport &stopped = served.report.shardReports[1];
    // The untouched shard drains its whole sub-stream.
    EXPECT_EQ(healthy.framesProcessed, healthy.framesIn);
    EXPECT_EQ(healthy.framesAbandoned, 0u);
    // The stopped shard truncates; nothing is double-counted.
    EXPECT_GT(stopped.framesAbandoned, 0u);
    EXPECT_EQ(stopped.framesProcessed + stopped.framesDropped +
                  stopped.framesAbandoned,
              stopped.framesIn);
    EXPECT_EQ(served.report.framesProcessed +
                  served.report.framesDropped +
                  served.report.framesAbandoned,
              served.report.framesIn);

    // Restart contract: the same fleet serves fully afterwards.
    const ServingResult again = runner.serve(stream);
    EXPECT_EQ(again.report.framesProcessed, stream.size());
    EXPECT_EQ(again.report.framesAbandoned, 0u);
}

TEST(ShardedRunner, EmptyStreamYieldsEmptyReport)
{
    HgPcnSystem::Config cfg;
    ShardedRunner::Config sc;
    sc.shards = 2;
    ShardedRunner runner(cfg, tinyClassifier(), sc);
    const ServingResult served = runner.serve(SensorStream{});
    EXPECT_EQ(served.report.framesIn, 0u);
    EXPECT_TRUE(served.frames.empty());
    EXPECT_EQ(served.report.shardReports.size(), 2u);
}

// ------------------------------------------- interleaved sensors

/** Per-sensor CoherentDrive frames with phase-offset stamps, so the
 * merged stream interleaves s0, s1, s2, s0, ... */
std::vector<std::vector<Frame>>
coherentDrives(std::size_t sensors, std::size_t frames_per_sensor)
{
    std::vector<std::vector<Frame>> per_sensor(sensors);
    for (std::size_t s = 0; s < sensors; ++s) {
        CoherentDrive::Config dc;
        dc.points = 3000;
        dc.churnFraction = 0.02;
        dc.seed = 200 + s;
        const CoherentDrive drive(dc);
        for (std::size_t i = 0; i < frames_per_sensor; ++i) {
            Frame f = drive.generate(i);
            f.timestamp += static_cast<double>(s) /
                           (static_cast<double>(sensors) *
                            dc.frameRateHz);
            per_sensor[s].push_back(std::move(f));
        }
    }
    return per_sensor;
}

/** Labels and every modeled term bit-identical to the serial
 * oracle. */
void
expectMatchesOracle(const HgPcnSystem &system, const Frame &frame,
                    const E2eResult &got)
{
    const E2eResult want = system.processFrame(frame.cloud);
    EXPECT_EQ(got.inference.output.labels,
              want.inference.output.labels);
    EXPECT_EQ(got.preprocess.octreeBuildSec,
              want.preprocess.octreeBuildSec);
    EXPECT_EQ(got.preprocess.dsu.totalSec(),
              want.preprocess.dsu.totalSec());
    EXPECT_EQ(got.inference.totalSec(), want.inference.totalSec());
    EXPECT_EQ(got.totalSec(), want.totalSec());
}

TEST(InterleavedSensors, RunnerMatchesSoloOracle)
{
    // Coherent sensors interleaved frame by frame through one runner
    // with fleet ids: every frame matches its solo processFrame.
    const auto per_sensor = coherentDrives(3, 4);
    const SensorStream stream = mergeSensorStreams(per_sensor);
    ASSERT_EQ(stream.size(), 12u);
    HgPcnSystem::Config cfg;
    const HgPcnSystem system(cfg, tinyClassifier());

    StreamTraceIds ids;
    for (std::size_t i = 0; i < stream.size(); ++i) {
        ids.frame.push_back(static_cast<std::int64_t>(i));
        ids.sensor.push_back(
            static_cast<std::int64_t>(stream.sensors[i]));
    }
    StreamRunner::Config rc;
    rc.inputPoints = system.config().inputPoints;
    StreamRunner runner(system.preprocessor(), system.backend(), rc);
    const RuntimeResult rt = runner.run(stream.frames, {}, &ids);
    ASSERT_EQ(rt.frames.size(), stream.size());
    for (const ProcessedFrame &pf : rt.frames)
        expectMatchesOracle(system, stream.frames[pf.index], pf.result);
}

TEST(InterleavedSensors, HashBySensorShardsMatchSoloOracle)
{
    // Three sensors on two shards: at least one shard interleaves
    // two sensors, and every frame still matches its solo oracle.
    const auto per_sensor = coherentDrives(3, 4);
    const SensorStream stream = mergeSensorStreams(per_sensor);
    HgPcnSystem::Config cfg;
    const HgPcnSystem system(cfg, tinyClassifier());

    ShardedRunner::Config sc;
    sc.shards = 2;
    sc.placement = PlacementPolicy::HashBySensor;
    ShardedRunner fleet(cfg, tinyClassifier(), sc);
    const ServingResult served = fleet.serve(stream);
    ASSERT_EQ(served.frames.size(), stream.size());
    for (const ServedFrame &sf : served.frames) {
        expectMatchesOracle(system, stream.frames[sf.globalIndex],
                            sf.result);
    }
}

} // namespace
} // namespace hgpcn
