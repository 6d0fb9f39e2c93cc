/**
 * @file
 * Observability-layer tests: Tracer span/ordering invariants and
 * thread-safety, MetricsRegistry arithmetic against hand-computed
 * values, snapshot merging, Chrome trace export determinism (a
 * ShardedRunner serve's virtual-time trace must be byte-identical
 * across runs), per-frame stall-span conservation against reported
 * latencies, report-from-metrics equality, tracing-on/off modeled
 * invariance, the runner's host:<stage> wall spans, and the
 * pluggable LogSink.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "core/hgpcn_system.h"
#include "datasets/kitti_like.h"
#include "datasets/sensor_stream.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
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

SensorStream
tinyLidarStream(std::size_t sensors, std::size_t frames_per_sensor)
{
    MultiSensorConfig cfg;
    cfg.sensors = sensors;
    cfg.framesPerSensor = frames_per_sensor;
    cfg.lidar.azimuthSteps = 250;
    return makeLidarSensorStream(cfg);
}

/** RAII: leave the global tracer off and empty no matter how the
 * test exits. */
struct GlobalTracerGuard
{
    ~GlobalTracerGuard()
    {
        Tracer::global().setEnabled(false);
        Tracer::global().clear();
    }
};

// ---------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------

TEST(Tracer, DisabledRecordsNothing)
{
    Tracer tracer;
    EXPECT_FALSE(tracer.enabled());
    tracer.instant(TraceClock::Wall, 0.0, "x", "cat", "track");
    tracer.span(TraceClock::Virtual, 0.0, 1.0, "y", "cat", "track");
    tracer.counter(TraceClock::Wall, 0.0, "z", "track", 3.0);
    EXPECT_EQ(tracer.eventCount(), 0u);
    EXPECT_TRUE(tracer.snapshot().empty());
}

TEST(Tracer, SnapshotOrderIsCanonicalAcrossThreads)
{
    // Four threads record the same deterministic virtual payloads
    // in different orders; the snapshot must come back in one
    // canonical order regardless of interleaving.
    Tracer tracer;
    tracer.setEnabled(true);
    const int per_thread = 50;
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&tracer, t] {
            for (int i = 0; i < per_thread; ++i) {
                // Reverse emission order on odd threads.
                const int k = (t % 2 == 0) ? i : per_thread - 1 - i;
                TraceIds ids;
                ids.frame = k;
                tracer.span(TraceClock::Virtual,
                            static_cast<double>(k), 0.5,
                            "exec:stage" + std::to_string(t % 2),
                            "fpga", "track", ids);
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    ASSERT_EQ(tracer.eventCount(), 200u);

    const std::vector<TraceEvent> events = tracer.snapshot();
    ASSERT_EQ(events.size(), 200u);
    for (std::size_t i = 1; i < events.size(); ++i) {
        const TraceEvent &a = events[i - 1];
        const TraceEvent &b = events[i];
        EXPECT_LE(a.tsSec, b.tsSec);
        if (a.tsSec == b.tsSec) {
            EXPECT_LE(a.name, b.name);
            if (a.name == b.name) {
                EXPECT_LE(a.ids.frame, b.ids.frame);
            }
        }
    }
    // Byte-level determinism of the export built on that order.
    const std::string once = chromeTraceJson(events);
    const std::string twice = chromeTraceJson(tracer.snapshot());
    EXPECT_EQ(once, twice);
}

TEST(Tracer, WallSpansNestProperly)
{
    Tracer tracer;
    tracer.setEnabled(true);
    {
        TraceSpan outer(tracer, "outer", "cat", "track");
        {
            TraceSpan inner(tracer, "inner", "cat", "track");
        }
    }
    const std::vector<TraceEvent> events = tracer.snapshot();
    ASSERT_EQ(events.size(), 2u);
    const TraceEvent *outer = nullptr;
    const TraceEvent *inner = nullptr;
    for (const TraceEvent &ev : events) {
        (ev.name == "outer" ? outer : inner) = &ev;
    }
    ASSERT_NE(outer, nullptr);
    ASSERT_NE(inner, nullptr);
    EXPECT_EQ(outer->phase, TracePhase::Complete);
    // Containment: the inner span opened after and closed before.
    EXPECT_GE(inner->tsSec, outer->tsSec);
    EXPECT_LE(inner->tsSec + inner->durSec,
              outer->tsSec + outer->durSec);
}

TEST(Tracer, SpanArmedWhileDisabledRecordsNothing)
{
    Tracer tracer;
    {
        TraceSpan span(tracer, "quiet", "cat", "track");
    }
    EXPECT_EQ(tracer.eventCount(), 0u);
    tracer.setEnabled(true);
    {
        TraceSpan span(tracer, "loud", "cat", "track");
    }
    EXPECT_EQ(tracer.eventCount(), 1u);
}

TEST(Tracer, ClearDropsEventsAndRestartsEpoch)
{
    Tracer tracer;
    tracer.setEnabled(true);
    tracer.instant(TraceClock::Wall, tracer.wallNowSec(), "a", "c",
                   "t");
    EXPECT_EQ(tracer.eventCount(), 1u);
    tracer.clear();
    EXPECT_EQ(tracer.eventCount(), 0u);
    // The epoch restarted: now-readings start near zero again.
    EXPECT_LT(tracer.wallNowSec(), 60.0);
}

// ---------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------

TEST(Metrics, CounterAndGaugeArithmetic)
{
    MetricsRegistry reg;
    Counter &frames = reg.counter("frames");
    frames.add();
    frames.add(4);
    EXPECT_EQ(frames.value(), 5u);

    Gauge &busy = reg.gauge("busy");
    busy.set(1.5);
    busy.add(0.25);
    EXPECT_DOUBLE_EQ(busy.value(), 1.75);

    const MetricsSnapshot snap = reg.snapshot();
    EXPECT_EQ(snap.countOf("frames"), 5u);
    ASSERT_NE(snap.find("busy"), nullptr);
    EXPECT_DOUBLE_EQ(snap.find("busy")->value, 1.75);
    EXPECT_EQ(snap.find("nope"), nullptr);
    EXPECT_EQ(snap.countOf("nope"), 0u);
}

TEST(Metrics, HistogramAgainstHandComputedValues)
{
    MetricsRegistry reg;
    Histogram &h = reg.histogram("lat", {0.1, 0.2, 0.5});
    // Buckets (upper bounds): 0.1 -> {0.05, 0.1}; 0.2 -> {0.15};
    // 0.5 -> {0.3}; overflow -> {0.7, 0.9}.
    for (const double x : {0.05, 0.1, 0.15, 0.3, 0.7, 0.9})
        h.observe(x);

    EXPECT_EQ(h.count(), 6u);
    EXPECT_NEAR(h.sum(), 2.2, 1e-12);
    EXPECT_DOUBLE_EQ(h.min(), 0.05);
    EXPECT_DOUBLE_EQ(h.max(), 0.9);
    EXPECT_EQ(h.bucketCount(0), 2u);
    EXPECT_EQ(h.bucketCount(1), 1u);
    EXPECT_EQ(h.bucketCount(2), 1u);
    EXPECT_EQ(h.bucketCount(3), 2u); // overflow

    // Nearest rank: rank = ceil(q * 6). q=0.5 -> rank 3 -> third
    // observation lives in bucket "0.2". q=0.95 -> rank 6 ->
    // overflow, reported as the observed max.
    EXPECT_DOUBLE_EQ(h.percentile(0.50), 0.2);
    EXPECT_DOUBLE_EQ(h.percentile(0.17), 0.1); // rank 2 (ceil 1.02)
    EXPECT_DOUBLE_EQ(h.percentile(0.95), 0.9);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 0.9);

    // The frozen MetricValue computes the same percentiles.
    const MetricsSnapshot snap = reg.snapshot();
    const MetricValue *v = snap.find("lat");
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(v->kind, MetricValue::Kind::Histogram);
    EXPECT_DOUBLE_EQ(v->percentile(0.50), 0.2);
    EXPECT_DOUBLE_EQ(v->percentile(0.95), 0.9);
}

TEST(Metrics, EmptyHistogramReportsZeros)
{
    MetricsRegistry reg;
    Histogram &h = reg.histogram("empty", {1.0});
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.min(), 0.0);
    EXPECT_DOUBLE_EQ(h.max(), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.99), 0.0);
}

TEST(Metrics, RegistryIsThreadSafe)
{
    MetricsRegistry reg;
    const int threads = 8;
    const int per_thread = 10000;
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
        pool.emplace_back([&reg, per_thread] {
            // Same names from every thread: registration races on
            // the registry mutex, updates race on the atomics.
            Counter &c = reg.counter("shared.counter");
            Gauge &g = reg.gauge("shared.gauge");
            Histogram &h =
                reg.histogram("shared.hist", {0.5, 1.0});
            for (int i = 0; i < per_thread; ++i) {
                c.add();
                g.add(0.5);
                h.observe(i % 2 == 0 ? 0.25 : 2.0);
            }
        });
    }
    for (std::thread &t : pool)
        t.join();

    const std::uint64_t n =
        static_cast<std::uint64_t>(threads) *
        static_cast<std::uint64_t>(per_thread);
    const MetricsSnapshot snap = reg.snapshot();
    EXPECT_EQ(snap.countOf("shared.counter"), n);
    EXPECT_DOUBLE_EQ(snap.find("shared.gauge")->value,
                     0.5 * static_cast<double>(n));
    const MetricValue *h = snap.find("shared.hist");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->count, n);
    EXPECT_EQ(h->buckets[0], n / 2); // 0.25s
    EXPECT_EQ(h->buckets[1], 0u);
    EXPECT_EQ(h->buckets[2], n / 2); // overflow 2.0s
    EXPECT_DOUBLE_EQ(h->min, 0.25);
    EXPECT_DOUBLE_EQ(h->max, 2.0);
}

TEST(Metrics, SnapshotsMergeBySummation)
{
    MetricsRegistry a;
    MetricsRegistry b;
    a.counter("frames").add(3);
    b.counter("frames").add(4);
    a.gauge("busy").set(1.0);
    b.gauge("busy").set(0.5);
    a.histogram("lat", {0.1, 0.2}).observe(0.05);
    b.histogram("lat", {0.1, 0.2}).observe(0.15);
    b.histogram("lat", {0.1, 0.2}).observe(9.0);
    b.counter("only.b").add(2);

    MetricsSnapshot merged = a.snapshot();
    merged.merge(b.snapshot());
    EXPECT_EQ(merged.countOf("frames"), 7u);
    EXPECT_DOUBLE_EQ(merged.find("busy")->value, 1.5);
    EXPECT_EQ(merged.countOf("only.b"), 2u);
    const MetricValue *lat = merged.find("lat");
    ASSERT_NE(lat, nullptr);
    EXPECT_EQ(lat->count, 3u);
    EXPECT_EQ(lat->buckets[0], 1u);
    EXPECT_EQ(lat->buckets[1], 1u);
    EXPECT_EQ(lat->buckets[2], 1u);
    EXPECT_DOUBLE_EQ(lat->min, 0.05);
    EXPECT_DOUBLE_EQ(lat->max, 9.0);
    EXPECT_NEAR(lat->value, 9.2, 1e-12); // summed observations

    // toString is deterministic (sorted by name).
    EXPECT_EQ(merged.toString(), merged.toString());
}

// ---------------------------------------------------------------
// Runtime integration: report-from-metrics, invariance,
// conservation
// ---------------------------------------------------------------

TEST(ObsRuntime, ReportCountsComeFromMetrics)
{
    const std::vector<Frame> frames = smallKittiStream(4);
    HgPcnSystem::Config cfg;
    const HgPcnSystem system(cfg, tinyClassifier());
    const RuntimeResult rt =
        system.runStream(frames, StreamRunner::compat(4, 0));

    EXPECT_EQ(rt.metrics.countOf("frames.in"), rt.report.framesIn);
    EXPECT_EQ(rt.metrics.countOf("frames.processed"),
              rt.report.framesProcessed);
    EXPECT_EQ(rt.metrics.countOf("frames.dropped"),
              rt.report.framesDropped);
    EXPECT_EQ(rt.metrics.countOf("frame.latency_sec"),
              rt.report.framesProcessed);
    ASSERT_NE(rt.metrics.find("timeline.makespan_sec"), nullptr);
    EXPECT_DOUBLE_EQ(rt.metrics.find("timeline.makespan_sec")->value,
                     rt.report.makespanSec);
}

TEST(ObsRuntime, TracingDoesNotMoveTheModeledSchedule)
{
#ifdef HGPCN_TRACING_DISABLED
    GTEST_SKIP() << "instrumentation macros compiled out "
                    "(HGPCN_DISABLE_TRACING)";
#endif
    GlobalTracerGuard guard;
    const std::vector<Frame> frames = smallKittiStream(4);
    HgPcnSystem::Config cfg;
    const HgPcnSystem system(cfg, tinyClassifier());
    StreamRunner::Config rc;
    rc.buildWorkers = 2;
    rc.queueCapacity = 2;

    Tracer::global().setEnabled(false);
    const RuntimeResult off = system.runStream(frames, rc);
    Tracer::global().clear();
    Tracer::global().setEnabled(true);
    const RuntimeResult on = system.runStream(frames, rc);
    Tracer::global().setEnabled(false);

    EXPECT_GT(Tracer::global().eventCount(), 0u);
    EXPECT_EQ(off.report.toString(), on.report.toString());
    EXPECT_EQ(off.metrics.toString(), on.metrics.toString());
}

TEST(ObsRuntime, StallSpansConserveFrameLatency)
{
#ifdef HGPCN_TRACING_DISABLED
    GTEST_SKIP() << "instrumentation macros compiled out "
                    "(HGPCN_DISABLE_TRACING)";
#endif
    GlobalTracerGuard guard;
    // Batch admission + 1 build worker + shared FPGA: frames 1..n
    // really queue, so wait/blocked spans exist and must tile each
    // frame's [arrival, done] exactly.
    const std::vector<Frame> frames = smallKittiStream(5);
    HgPcnSystem::Config cfg;
    const HgPcnSystem system(cfg, tinyClassifier());
    StreamRunner::Config rc;
    rc.paceBySensor = false;
    rc.buildWorkers = 1;
    rc.queueCapacity = 8;

    Tracer::global().clear();
    Tracer::global().setEnabled(true);
    const RuntimeResult rt = system.runStream(frames, rc);
    Tracer::global().setEnabled(false);
    const std::vector<TraceEvent> events =
        Tracer::global().snapshot();

    const auto is_stall_name = [](const std::string &name) {
        for (const char *prefix :
             {"pend:", "wait:", "batchwait:", "exec:", "blocked:"}) {
            if (name.rfind(prefix, 0) == 0)
                return true;
        }
        return false;
    };
    std::map<std::int64_t, std::vector<const TraceEvent *>> by_frame;
    std::size_t stall_spans = 0;
    for (const TraceEvent &ev : events) {
        if (ev.clock == TraceClock::Virtual &&
            ev.phase == TracePhase::Complete &&
            is_stall_name(ev.name)) {
            by_frame[ev.ids.frame].push_back(&ev);
            ++stall_spans;
        }
    }
    ASSERT_EQ(by_frame.size(), rt.frames.size());
    // Contention must have produced more than bare exec spans.
    EXPECT_GT(stall_spans, 3 * rt.frames.size());

    for (const ProcessedFrame &pf : rt.frames) {
        auto it = by_frame.find(static_cast<std::int64_t>(pf.index));
        ASSERT_NE(it, by_frame.end());
        std::vector<const TraceEvent *> spans = it->second;
        std::sort(spans.begin(), spans.end(),
                  [](const TraceEvent *a, const TraceEvent *b) {
                      return a->tsSec < b->tsSec;
                  });
        double total = 0.0;
        for (std::size_t i = 0; i < spans.size(); ++i) {
            total += spans[i]->durSec;
            if (i > 0) {
                // Contiguous tiling: suppressed sub-1e-12 spans are
                // the only permitted gaps.
                const double gap =
                    spans[i]->tsSec - (spans[i - 1]->tsSec +
                                       spans[i - 1]->durSec);
                EXPECT_NEAR(gap, 0.0, 1e-9)
                    << "frame " << pf.index << " between "
                    << spans[i - 1]->name << " and "
                    << spans[i]->name;
            }
        }
        EXPECT_NEAR(total, pf.latencySec, 1e-9)
            << "frame " << pf.index;
        const double end = spans.back()->tsSec +
                           spans.back()->durSec;
        EXPECT_NEAR(end, pf.doneSec, 1e-9);
    }
}

TEST(ObsRuntime, BatchMetricsMatchReport)
{
#ifdef HGPCN_TRACING_DISABLED
    GTEST_SKIP() << "instrumentation macros compiled out "
                    "(HGPCN_DISABLE_TRACING)";
#endif
    GlobalTracerGuard guard;
    const std::vector<Frame> frames = smallKittiStream(6);
    HgPcnSystem::Config cfg;
    const HgPcnSystem system(cfg, tinyClassifier());
    StreamRunner::Config rc;
    rc.paceBySensor = false;
    rc.maxBatch = 3;
    rc.queueCapacity = 8;

    Tracer::global().clear();
    Tracer::global().setEnabled(true);
    const RuntimeResult rt = system.runStream(frames, rc);
    Tracer::global().setEnabled(false);

    EXPECT_EQ(rt.metrics.countOf("batch.dispatches"),
              rt.report.batchCount);
    EXPECT_EQ(rt.metrics.countOf("batch.batched_frames"),
              rt.report.batchedFrames);
    EXPECT_EQ(rt.metrics.countOf("batch.solo_frames"),
              rt.report.soloFrames);

    // The device view: one batch span per coalesced dispatch.
    std::size_t batch_spans = 0;
    for (const TraceEvent &ev : Tracer::global().snapshot()) {
        if (ev.clock == TraceClock::Virtual &&
            ev.phase == TracePhase::Complete &&
            ev.name.rfind("batch:", 0) == 0)
            ++batch_spans;
    }
    EXPECT_EQ(batch_spans, rt.report.batchCount);
}

TEST(ObsRuntime, HostWallSpansNameEachStage)
{
#ifdef HGPCN_TRACING_DISABLED
    GTEST_SKIP() << "instrumentation macros compiled out "
                    "(HGPCN_DISABLE_TRACING)";
#endif
    // The runner's wall attribution: one host:<stage> span per frame
    // and stage on wall/<stage>; with maxBatch 4 inference spans one
    // admission-index group each, named by its size and tagged with
    // the group's first frame (6 frames: groups [0,4) and [4,6)).
    GlobalTracerGuard guard;
    const std::vector<Frame> frames = smallKittiStream(6);
    HgPcnSystem::Config cfg;
    const HgPcnSystem system(cfg, tinyClassifier());
    for (const std::size_t max_batch : {std::size_t{1}, std::size_t{4}}) {
        StreamRunner::Config rc;
        rc.maxBatch = max_batch;
        Tracer::global().clear();
        Tracer::global().setEnabled(true);
        system.runStream(frames, rc);
        Tracer::global().setEnabled(false);

        std::map<std::string, std::vector<std::int64_t>> frames_by_span;
        for (const TraceEvent &ev : Tracer::global().snapshot()) {
            if (ev.clock != TraceClock::Wall ||
                ev.name.rfind("host:", 0) != 0)
                continue;
            EXPECT_EQ(ev.phase, TracePhase::Complete);
            frames_by_span[ev.name + " " + ev.track].push_back(
                ev.ids.frame);
        }
        for (auto &[span, ids] : frames_by_span)
            std::sort(ids.begin(), ids.end());
        const std::vector<std::int64_t> all{0, 1, 2, 3, 4, 5};
        EXPECT_EQ(frames_by_span["host:octree-build wall/octree-build"],
                  all);
        EXPECT_EQ(frames_by_span["host:down-sample wall/down-sample"],
                  all);
        if (max_batch == 1) {
            EXPECT_EQ(frames_by_span["host:inference wall/inference"],
                      all);
            EXPECT_EQ(frames_by_span.size(), 3u);
        } else {
            EXPECT_EQ(
                frames_by_span["host:inference:batch4 wall/inference"],
                std::vector<std::int64_t>{0});
            EXPECT_EQ(
                frames_by_span["host:inference:batch2 wall/inference"],
                std::vector<std::int64_t>{4});
            EXPECT_EQ(frames_by_span.size(), 4u);
        }
    }
}

// ---------------------------------------------------------------
// Serving integration: byte-identity, merged metrics
// ---------------------------------------------------------------

TEST(ObsServing, VirtualTraceIsByteIdenticalAcrossRuns)
{
#ifdef HGPCN_TRACING_DISABLED
    GTEST_SKIP() << "instrumentation macros compiled out "
                    "(HGPCN_DISABLE_TRACING)";
#endif
    GlobalTracerGuard guard;
    const SensorStream stream = tinyLidarStream(2, 3);
    HgPcnSystem::Config cfg;
    ShardedRunner::Config sc;
    sc.shards = 2;
    // Round-robin: both shards are guaranteed traffic, so both
    // appear as trace tracks.
    sc.placement = PlacementPolicy::RoundRobin;

    TraceExportOptions virtual_only;
    virtual_only.includeWall = false;

    const auto traced_serve = [&] {
        ShardedRunner runner(cfg, tinyClassifier(), sc);
        Tracer::global().clear();
        Tracer::global().setEnabled(true);
        const ServingResult r = runner.serve(stream);
        Tracer::global().setEnabled(false);
        return std::make_pair(
            chromeTraceJson(Tracer::global().snapshot(),
                            virtual_only),
            r.report.framesProcessed);
    };

    const auto [first, processed_a] = traced_serve();
    const auto [second, processed_b] = traced_serve();
    EXPECT_EQ(processed_a, stream.size());
    EXPECT_EQ(processed_b, processed_a);
    EXPECT_FALSE(first.empty());
    EXPECT_EQ(first, second);
    // The export carries shard attribution and placement instants.
    EXPECT_NE(first.find("shard0/"), std::string::npos);
    EXPECT_NE(first.find("shard1/"), std::string::npos);
    EXPECT_NE(first.find("place:shard"), std::string::npos);
    EXPECT_NE(first.find("\"frame\":"), std::string::npos);
    // Wall events were recorded but excluded from the export.
    EXPECT_NE(Tracer::global().eventCount(), 0u);
    EXPECT_EQ(first.find("wall/"), std::string::npos);
}

TEST(ObsServing, ShardMetricsMergeIntoServingResult)
{
    const SensorStream stream = tinyLidarStream(2, 3);
    HgPcnSystem::Config cfg;
    ShardedRunner::Config sc;
    sc.shards = 2;
    ShardedRunner runner(cfg, tinyClassifier(), sc);
    const ServingResult r = runner.serve(stream);

    EXPECT_EQ(r.metrics.countOf("frames.processed"),
              r.report.framesProcessed);
    EXPECT_EQ(r.metrics.countOf("frames.in"), stream.size());
    EXPECT_EQ(r.metrics.countOf("frame.latency_sec"),
              r.report.framesProcessed);
    // Fleet totals really sum the shards.
    std::uint64_t per_shard = 0;
    for (const RuntimeReport &sr : r.report.shardReports)
        per_shard += sr.framesProcessed;
    EXPECT_EQ(r.metrics.countOf("frames.processed"), per_shard);
}

// ---------------------------------------------------------------
// Logging sink
// ---------------------------------------------------------------

TEST(LogSink, CapturesWarningsAndInforms)
{
    std::vector<std::pair<LogLevel, std::string>> captured;
    LogSink prev = setLogSink(
        [&captured](LogLevel level, const std::string &msg) {
            captured.emplace_back(level, msg);
        });

    warn("watch out: ", 42);
    inform("situation normal");

    setLogSink(std::move(prev)); // restore the default
    ASSERT_EQ(captured.size(), 2u);
    EXPECT_EQ(captured[0].first, LogLevel::Warn);
    EXPECT_EQ(captured[0].second, "watch out: 42");
    EXPECT_EQ(captured[1].first, LogLevel::Inform);
    EXPECT_EQ(captured[1].second, "situation normal");

    // After restore the capture list no longer grows.
    setLogQuiet(true); // keep test output clean
    warn("uncaptured");
    setLogQuiet(false);
    EXPECT_EQ(captured.size(), 2u);
}

TEST(LogSink, QuietSuppressesBeforeTheSink)
{
    std::vector<std::string> captured;
    LogSink prev = setLogSink(
        [&captured](LogLevel, const std::string &msg) {
            captured.push_back(msg);
        });
    setLogQuiet(true);
    warn("dropped");
    inform("also dropped");
    setLogQuiet(false);
    warn("kept");
    setLogSink(std::move(prev));
    ASSERT_EQ(captured.size(), 1u);
    EXPECT_EQ(captured[0], "kept");
}

TEST(LogSink, LevelNames)
{
    EXPECT_STREQ(logLevelName(LogLevel::Inform), "info");
    EXPECT_STREQ(logLevelName(LogLevel::Warn), "warn");
    EXPECT_STREQ(logLevelName(LogLevel::Fatal), "fatal");
    EXPECT_STREQ(logLevelName(LogLevel::Panic), "panic");
}

// ---------------------------------------------------------------
// Export format
// ---------------------------------------------------------------

TEST(TraceExport, ChromeJsonShape)
{
    Tracer tracer;
    tracer.setEnabled(true);
    TraceIds ids;
    ids.frame = 7;
    ids.sensor = 1;
    ids.shard = 0;
    tracer.span(TraceClock::Virtual, 0.5, 0.25, "exec:inference",
                "fpga", "shard0/inference", ids);
    tracer.instant(TraceClock::Virtual, 0.5, "place:shard0",
                   "placement", "serving/placement", ids);
    tracer.counter(TraceClock::Wall, 0.001, "depth",
                   "queue:inference", 3.0);

    const std::string json = chromeTraceJson(tracer.snapshot());
    EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""),
              std::string::npos);
    // Virtual events on pid 1, wall on pid 2, with process names.
    EXPECT_NE(json.find("\"name\":\"virtual-time\""),
              std::string::npos);
    EXPECT_NE(json.find("\"name\":\"wall-clock\""),
              std::string::npos);
    // The span: X phase, us units (0.5 s -> 500000), ids in args.
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ts\":500000"), std::string::npos);
    EXPECT_NE(json.find("\"dur\":250000"), std::string::npos);
    EXPECT_NE(json.find("\"frame\":7"), std::string::npos);
    // Instant and counter phases.
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
    EXPECT_NE(json.find("\"value\":3"), std::string::npos);

    // Clock filters drop whole processes.
    TraceExportOptions virtual_only;
    virtual_only.includeWall = false;
    const std::string no_wall =
        chromeTraceJson(tracer.snapshot(), virtual_only);
    EXPECT_EQ(no_wall.find("\"ph\":\"C\""), std::string::npos);
    EXPECT_NE(no_wall.find("\"ph\":\"X\""), std::string::npos);
}

} // namespace
} // namespace hgpcn
