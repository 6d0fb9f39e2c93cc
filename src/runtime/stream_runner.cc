#include "runtime/stream_runner.h"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <sstream>
#include <thread>

#include "common/logging.h"
#include "obs/trace.h"

namespace hgpcn
{
namespace
{

/** Track prefix of this runner's trace events. */
std::string
traceScope(std::int64_t shard)
{
    return shard >= 0 ? "shard" + std::to_string(shard) : "runner";
}

/** Spans smaller than this are schedule noise, not stalls; skipping
 *  them keeps traces compact without losing any attribution mass. */
constexpr double kMinSpanSec = 1e-12;

/**
 * Emit the virtual-time schedule as trace events. Runs AFTER
 * simulateTimeline, purely over its deterministic result, so the
 * emitted stream is identical across runs and thread interleavings.
 *
 * Per frame, the spans partition [arrival, done] exactly:
 *   pend:source | per stage: wait:<s> (queue) -> batchwait:<s>
 *   (last stage, fill-gate share) -> exec:<s> -> blocked:<s>
 *   (back-pressure hold before stage s+1 admits).
 * trace_report.py's stall table and --check conservation rule rely
 * on this decomposition.
 *
 * @param t0 Global virtual time of local second 0 (the first
 *        frame's sensor stamp when paced) — shard timelines land on
 *        the fleet clock with no extra plumbing.
 * @param faults Optional per-frame fault directives aligned with
 *        timeline.frames; retry/fail/degrade markers are emitted as
 *        instants (the charged time already lives inside the exec
 *        span, so the tiling decomposition above is undisturbed).
 */
void
emitVirtualTrace(Tracer &tracer, const TimelineResult &timeline,
                 const std::vector<TimelineStageSpec> &stages,
                 double t0, std::int64_t shard,
                 const std::vector<std::int64_t> &frame_ids,
                 const std::vector<std::int64_t> &sensor_ids,
                 const std::vector<FrameFaultDirective> *faults)
{
    const std::string scope = traceScope(shard);
    const std::size_t n_stages = stages.size();
    const std::size_t last = n_stages - 1;
    // The stage honoring the degraded sample budget (down-sample in
    // the standard three-stage graph).
    const std::size_t ds = n_stages >= 2 ? last - 1 : 0;

    for (std::size_t j = 0; j < timeline.frames.size(); ++j) {
        const TimelineFrame &tf = timeline.frames[j];
        TraceIds ids;
        ids.frame = frame_ids[j];
        ids.sensor = sensor_ids[j];
        ids.shard = shard;
        if (tf.dropped) {
            tracer.instant(TraceClock::Virtual,
                           t0 + tf.droppedAtSec, "drop:source",
                           "overload", scope + "/source", ids);
            continue;
        }
        if (faults != nullptr && !(*faults)[j].clean()) {
            const FrameFaultDirective &d = (*faults)[j];
            const std::string track =
                scope + "/" + stages[last].name;
            if (d.attempts > 1) {
                tracer.instant(TraceClock::Virtual,
                               t0 + tf.startSec[last],
                               "retry:" + stages[last].name, "fault",
                               track, ids);
            }
            if (d.failed) {
                tracer.instant(TraceClock::Virtual, t0 + tf.doneSec,
                               "fail:" + stages[last].name, "fault",
                               track, ids);
            }
            if (d.degraded) {
                tracer.instant(TraceClock::Virtual,
                               t0 + tf.startSec[ds],
                               "degrade:" + stages[ds].name, "fault",
                               scope + "/" + stages[ds].name, ids);
            }
        }
        if (tf.admitSec - tf.arrivalSec > kMinSpanSec) {
            tracer.span(TraceClock::Virtual, t0 + tf.arrivalSec,
                        tf.admitSec - tf.arrivalSec, "pend:source",
                        "stall", scope + "/source", ids);
        }
        ids.batch = tf.batchId;
        for (std::size_t s = 0; s < n_stages; ++s) {
            const std::string track = scope + "/" + stages[s].name;
            const double batch_wait =
                s == last ? tf.batchWaitSec : 0.0;
            const double queue_wait =
                tf.startSec[s] - tf.enqueueSec[s] - batch_wait;
            if (queue_wait > kMinSpanSec) {
                tracer.span(TraceClock::Virtual,
                            t0 + tf.enqueueSec[s], queue_wait,
                            "wait:" + stages[s].name, "stall",
                            track, ids);
            }
            if (batch_wait > kMinSpanSec) {
                tracer.span(TraceClock::Virtual,
                            t0 + tf.startSec[s] - batch_wait,
                            batch_wait,
                            "batchwait:" + stages[s].name, "stall",
                            track, ids);
            }
            tracer.span(TraceClock::Virtual, t0 + tf.startSec[s],
                        tf.finishSec[s] - tf.startSec[s],
                        "exec:" + stages[s].name,
                        stages[s].resource, track, ids);
            if (s < last) {
                const double held =
                    tf.enqueueSec[s + 1] - tf.finishSec[s];
                if (held > kMinSpanSec) {
                    tracer.span(TraceClock::Virtual,
                                t0 + tf.finishSec[s], held,
                                "blocked:" + stages[s].name,
                                "stall", track, ids);
                }
            }
        }
    }

    // The device view of batching: one span per coalesced dispatch
    // (the ONE occupancy interval the schedule charged).
    for (std::size_t b = 0; b < timeline.batches.size(); ++b) {
        const TimelineBatch &batch = timeline.batches[b];
        TraceIds ids;
        ids.shard = shard;
        ids.batch = static_cast<std::int64_t>(b);
        tracer.counter(TraceClock::Virtual, t0 + batch.startSec,
                       "batch-size", scope + "/batches",
                       static_cast<double>(batch.members.size()));
        tracer.span(TraceClock::Virtual, t0 + batch.startSec,
                    batch.finishSec - batch.startSec,
                    "batch:" + stages[last].name,
                    stages[last].resource, scope + "/batches", ids);
    }
}

/** Down-sampling device: the FPGA, split into its DSU half only
 * when an FPGA-resident backend runs unshared. */
std::string
sampleResource(const ExecutionBackend &backend,
               const StreamRunner::Config &cfg)
{
    if (backend.resource() == "fpga" && !cfg.shareFpga)
        return "fpga.dsu";
    return "fpga";
}

/** Inference device: an FPGA-resident backend follows the shareFpga
 * semantics (the one fabric of Fig. 4, or its FCU half); any other
 * backend occupies its own device. */
std::string
inferResource(const ExecutionBackend &backend,
              const StreamRunner::Config &cfg)
{
    if (backend.resource() == "fpga")
        return cfg.shareFpga ? "fpga" : "fpga.fcu";
    return backend.resource();
}

/** Run @p stage on @p task under its host:<stage> wall span and
 * record the modeled cost as stage @p s. */
template <class Stage>
void
runStage(const Stage &stage, std::size_t s, FrameTask &task)
{
    TraceIds ids;
    ids.frame = static_cast<std::int64_t>(task.index);
    HGPCN_TRACE_WALL_SPAN(span, "host:" + stage.name(),
                          stage.resource(), "wall/" + stage.name(),
                          ids);
    task.stageCostSec[s] = stage.process(task);
}

} // namespace

std::string
RuntimeReport::toString() const
{
    std::ostringstream oss;
    oss.setf(std::ios::fixed);
    oss.precision(1);
    oss << "frames: " << framesProcessed << "/" << framesIn
        << " processed";
    if (framesDropped > 0)
        oss << ", " << framesDropped << " dropped ("
            << overloadPolicyName(policy) << ")";
    if (framesAbandoned > 0)
        oss << ", " << framesAbandoned << " abandoned (stopped)";
    oss << (paced ? ", sensor-paced" : ", batch") << "\n";
    // Absent on fault-free runs, keeping legacy output exact.
    if (framesFailed > 0 || framesRetried > 0 || framesDegraded > 0) {
        oss << "faults: " << framesFailed << " failed | "
            << framesRetried << " retried | " << framesDegraded
            << " degraded\n";
    }
    oss << "sustained: " << sustainedFps << " FPS over "
        << makespanSec * 1e3 << " ms";
    if (generationFps > 0.0)
        oss << " | sensor: " << generationFps << " FPS";
    oss << " | real-time: " << realTimeVerdictName(realTime);
    if (realTime == RealTimeVerdict::NotApplicable)
        oss << " (no sensor pacing)";
    oss << "\n";
    oss.precision(2);
    oss << "latency ms: mean " << meanLatencySec * 1e3 << " | p50 "
        << p50LatencySec * 1e3 << " | p95 " << p95LatencySec * 1e3
        << " | p99 " << p99LatencySec * 1e3 << " | max "
        << maxLatencySec * 1e3 << "\n";
    // Absent at maxBatch == 1, keeping the report byte-identical to
    // a build without batching.
    if (configuredMaxBatch > 1) {
        oss << "batching: max " << configuredMaxBatch
            << " | dispatches " << batchCount << " | batched "
            << batchedFrames << " | solo " << soloFrames
            << " | mean size " << meanBatchSize << " | peak "
            << maxBatchSize << "\n";
    }
    for (const TimelineStageStats &st : stages) {
        oss << "stage " << st.name << " [" << st.resource << " x"
            << st.units << "]: util "
            << static_cast<int>(st.utilization * 100.0 + 0.5)
            << "%, queue mean " << st.meanQueueDepth << " peak "
            << st.peakQueueDepth << "\n";
    }
    return oss.str();
}

StreamRunner::StreamRunner(const PreprocessingEngine &preprocess,
                           const ExecutionBackend &backend,
                           const Config &config)
    : cfg(config), build(preprocess, "cpu"),
      sample(preprocess, config.inputPoints,
             sampleResource(backend, config), &streamWorkload),
      infer(backend, inferResource(backend, config), &workspacePool,
            config.intraOpThreads)
{
    HGPCN_ASSERT(cfg.inputPoints >= 1, "inputPoints must be >= 1");
    HGPCN_ASSERT(cfg.buildWorkers >= 1, "buildWorkers must be >= 1");
    HGPCN_ASSERT(cfg.fpgaUnits >= 1, "fpgaUnits must be >= 1");
    HGPCN_ASSERT(cfg.intraOpThreads >= 1,
                 "intraOpThreads must be >= 1");
    HGPCN_ASSERT(cfg.maxBatch >= 1, "maxBatch must be >= 1");
    HGPCN_ASSERT(cfg.batchTimeoutVirtualSec >= 0.0,
                 "batchTimeoutVirtualSec must be >= 0");
}

StreamRunner::Config
StreamRunner::compat(std::size_t n_frames, std::size_t input_points)
{
    Config c;
    c.inputPoints = input_points;
    c.buildWorkers = 1;
    c.fpgaUnits = 1;
    c.shareFpga = true;
    c.queueCapacity = std::max<std::size_t>(n_frames, 1);
    c.maxInFlight = 0;
    c.policy = OverloadPolicy::Block;
    c.paceBySensor = false;
    return c;
}

RuntimeResult
StreamRunner::run(const std::vector<Frame> &frames,
                  const FrameTaskCallback &on_frame,
                  const StreamTraceIds *trace_ids,
                  const std::vector<FrameFaultDirective> *faults)
{
    HGPCN_ASSERT(trace_ids == nullptr ||
                     (trace_ids->frame.size() == frames.size() &&
                      trace_ids->sensor.size() == frames.size()),
                 "trace_ids must parallel the input stream");
    HGPCN_ASSERT(faults == nullptr ||
                     faults->size() == frames.size(),
                 "fault directives must parallel the input stream");
    RuntimeResult out;
    out.report.policy = cfg.policy;
    out.report.paced = cfg.paceBySensor;
    out.report.framesIn = frames.size();
    // Fresh registry per run (the runner-reuse contract): the
    // sections below write into it, and the final snapshot is the
    // report's source of truth.
    metricsReg.clear();
    if (frames.empty()) {
        out.metrics = metricsReg.snapshot();
        return out;
    }

    // A malformed stream should fail on this thread before any work
    // is done, not abort a worker mid-run: check the sensor rate
    // (timestamp monotonicity) and that every frame covers K.
    // Streams that carry no timestamps at all (generators other
    // than the LiDAR simulator leave 0.0) cannot be sensor-paced;
    // fall back to batch admission rather than treating them as
    // corrupt.
    bool paced = cfg.paceBySensor;
    if (paced && frames.size() >= 2) {
        bool unstamped = true;
        for (const Frame &frame : frames) {
            if (frame.timestamp != frames.front().timestamp) {
                unstamped = false;
                break;
            }
        }
        if (unstamped) {
            warn("stream carries no generation timestamps; "
                 "falling back to batch admission");
            paced = false;
        }
    }
    out.report.paced = paced;
    const double generation_fps =
        paced ? streamGenerationFps(frames) : 0.0;
    for (const Frame &frame : frames) {
        HGPCN_ASSERT(frame.cloud.size() >= cfg.inputPoints,
                     "frame '", frame.name, "' smaller than K: ",
                     frame.cloud.size(), " < ", cfg.inputPoints);
    }
    streamWorkload.clear();

    // Functional execution: every frame computed once, in order.
    std::vector<FrameTask> tasks(frames.size());
    for (std::size_t i = 0; i < frames.size(); ++i) {
        FrameTask &task = tasks[i];
        task.index = i;
        task.frame = &frames[i];
        task.stageCostSec.assign(3, 0.0);
        if (faults != nullptr)
            task.fault = (*faults)[i];
    }
    const std::vector<FrameTask *> completed = execute(tasks, on_frame);

    // Virtual-time schedule over the recorded cycle-model costs.
    const double t0 = frames.front().timestamp;
    std::vector<double> arrivals;
    std::vector<std::vector<double>> costs;
    arrivals.reserve(completed.size());
    costs.reserve(completed.size());
    for (const FrameTask *task : completed) {
        arrivals.push_back(paced ? task->frame->timestamp - t0
                                 : 0.0);
        costs.push_back(task->stageCostSec);
    }
    out.workload = streamWorkload.snapshot();

    TimelineConfig tl;
    tl.stages = {{build.name(), build.resource()},
                 {sample.name(), sample.resource()},
                 {infer.name(), infer.resource()}};
    tl.resourceUnits["cpu"] = cfg.buildWorkers;
    // Collapses to one "fpga" entry when the backend shares the
    // fabric with the down-sampler (the Fig. 4 platform).
    tl.resourceUnits[sample.resource()] = cfg.fpgaUnits;
    tl.resourceUnits[infer.resource()] = cfg.fpgaUnits;
    tl.queueCapacity = cfg.queueCapacity;
    tl.policy = cfg.policy;
    tl.maxInFlight = cfg.maxInFlight;
    // Micro-batching: the inference stage coalesces; a dispatch of
    // >= 2 frames is charged the backend's shared batched service
    // time, computed from the per-frame traces recorded by the
    // functional run (pure arithmetic — deterministic).
    TimelineBatchCost batch_cost;
    if (cfg.maxBatch > 1) {
        tl.batch.maxBatch = cfg.maxBatch;
        tl.batch.timeoutSec = cfg.batchTimeoutVirtualSec;
        batch_cost = [this, &completed](
                         const std::vector<std::size_t> &members) {
            std::vector<const BackendInference *> ptrs;
            ptrs.reserve(members.size());
            // Each member's fault surcharge (retries, backoff,
            // slowdown) extends the shared occupancy — the device
            // is held exactly as long as in solo dispatch. Zero for
            // clean directives, keeping the sum bit-exact.
            double fault_extra = 0.0;
            for (const std::size_t j : members) {
                ptrs.push_back(&completed[j]->result.inference);
                fault_extra += completed[j]->faultExtraSec;
            }
            return backend().batchServiceSec(ptrs) + fault_extra;
        };
    }
    const TimelineResult timeline =
        simulateTimeline(tl, arrivals, costs, batch_cost);

    // The ledger: one row per input frame. Frames after a stop were
    // never scheduled (abandoned); a terminally failed frame held
    // the device (the schedule charged it) but delivers nothing.
    out.ledger.resize(frames.size());
    for (std::size_t i = 0; i < frames.size(); ++i) {
        FrameRecord &row = out.ledger[i];
        row.index = i;
        row.outcome = FrameOutcome::Abandoned;
        if (trace_ids != nullptr)
            row.sensor =
                static_cast<std::size_t>(trace_ids->sensor[i]);
    }
    for (std::size_t j = 0; j < completed.size(); ++j) {
        const TimelineFrame &tf = timeline.frames[j];
        const FrameFaultDirective &d = completed[j]->fault;
        FrameRecord &row = out.ledger[completed[j]->index];
        if (tf.dropped) {
            row.outcome = FrameOutcome::Dropped;
            continue;
        }
        row.outcome =
            d.failed ? FrameOutcome::Failed : FrameOutcome::Processed;
        row.attempts = d.attempts;
        row.degraded = d.degraded;
        row.doneSec = tf.doneSec;
        row.latencySec = tf.latencySec;
    }
    std::size_t n_failed = 0;
    std::size_t n_retried = 0;
    std::size_t n_degraded = 0;
    for (const FrameRecord &row : out.ledger) {
        n_failed += row.outcome == FrameOutcome::Failed;
        if (row.outcome == FrameOutcome::Processed) {
            n_retried += row.attempts > 1;
            n_degraded += row.degraded;
        }
    }

    // Publish the schedule into the run's metrics registry; the
    // report reads these back from the snapshot below, so adding a
    // new attribution is one registration away from every consumer
    // (RuntimeReport, ServingReport, trace_report.py).
    metricsReg.counter("frames.in").add(frames.size());
    metricsReg.counter("frames.processed")
        .add(timeline.processed - n_failed);
    metricsReg.counter("frames.dropped").add(timeline.dropped);
    metricsReg.counter("frames.abandoned")
        .add(frames.size() - completed.size());
    if (faults != nullptr) {
        // Registered only on faulted runs: the zero-fault metrics
        // snapshot stays byte-identical to a pre-fault build.
        metricsReg.counter("frames.failed").add(n_failed);
        metricsReg.counter("frames.retried").add(n_retried);
        metricsReg.counter("frames.degraded").add(n_degraded);
    }
    metricsReg.gauge("timeline.makespan_sec")
        .add(timeline.makespanSec);
    Histogram &latency_hist = metricsReg.histogram(
        "frame.latency_sec",
        {0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0});
    Gauge &wait_sum = metricsReg.gauge("stall.queue_wait_sec");
    Gauge &batch_wait_sum = metricsReg.gauge("stall.batch_wait_sec");
    Gauge &exec_sum = metricsReg.gauge("stall.exec_sec");
    Gauge &blocked_sum = metricsReg.gauge("stall.output_blocked_sec");
    Gauge &pend_sum = metricsReg.gauge("stall.source_pend_sec");
    const std::size_t last_stage = tl.stages.size() - 1;
    for (std::size_t j = 0; j < timeline.frames.size(); ++j) {
        const TimelineFrame &tf = timeline.frames[j];
        if (tf.dropped)
            continue;
        // Failed frames still contribute their stall attribution
        // (they held real schedule time) but not completion latency.
        if (!completed[j]->fault.failed)
            latency_hist.observe(tf.latencySec);
        pend_sum.add(tf.admitSec - tf.arrivalSec);
        batch_wait_sum.add(tf.batchWaitSec);
        for (std::size_t s = 0; s < tl.stages.size(); ++s) {
            const double bw = s == last_stage ? tf.batchWaitSec : 0.0;
            wait_sum.add(tf.startSec[s] - tf.enqueueSec[s] - bw);
            exec_sum.add(tf.finishSec[s] - tf.startSec[s]);
            if (s < last_stage)
                blocked_sum.add(tf.enqueueSec[s + 1] -
                                tf.finishSec[s]);
        }
    }
    for (const TimelineStageStats &st : timeline.stages)
        metricsReg.gauge("stage." + st.name + ".busy_sec")
            .add(st.busySec);
    if (cfg.maxBatch > 1) {
        metricsReg.counter("batch.dispatches")
            .add(timeline.batchCount);
        metricsReg.counter("batch.batched_frames")
            .add(timeline.batchedFrames);
        metricsReg.counter("batch.solo_frames")
            .add(timeline.soloFrames);
    }
    out.metrics = metricsReg.snapshot();

    // The deterministic virtual schedule as trace events, on the
    // GLOBAL virtual clock (t0 re-added): shard traces from a fleet
    // serve align without extra plumbing.
    if (HGPCN_TRACE_ENABLED()) {
        std::vector<std::int64_t> frame_ids(completed.size());
        std::vector<std::int64_t> sensor_ids(completed.size(), -1);
        for (std::size_t j = 0; j < completed.size(); ++j) {
            const std::size_t idx = completed[j]->index;
            frame_ids[j] =
                trace_ids ? trace_ids->frame[idx]
                          : static_cast<std::int64_t>(idx);
            if (trace_ids)
                sensor_ids[j] = trace_ids->sensor[idx];
        }
        std::vector<FrameFaultDirective> fault_by_j;
        if (faults != nullptr) {
            fault_by_j.reserve(completed.size());
            for (const FrameTask *task : completed)
                fault_by_j.push_back(task->fault);
        }
        emitVirtualTrace(Tracer::global(), timeline, tl.stages,
                         paced ? t0 : 0.0, cfg.traceShard,
                         frame_ids, sensor_ids,
                         faults != nullptr ? &fault_by_j : nullptr);
    }

    // Assemble the report — counts come from the frozen snapshot
    // (the registry is authoritative), schedule detail from the
    // timeline.
    RuntimeReport &rep = out.report;
    rep.framesProcessed = out.metrics.countOf("frames.processed");
    rep.framesDropped = out.metrics.countOf("frames.dropped");
    rep.framesAbandoned = out.metrics.countOf("frames.abandoned");
    rep.framesFailed = out.metrics.countOf("frames.failed");
    rep.framesRetried = out.metrics.countOf("frames.retried");
    rep.framesDegraded = out.metrics.countOf("frames.degraded");
    rep.makespanSec = timeline.makespanSec;
    rep.sustainedFps =
        rep.makespanSec > 0.0
            ? static_cast<double>(rep.framesProcessed) /
                  rep.makespanSec
            : 0.0;
    rep.generationFps = generation_fps;
    // generation_fps is forced to 0 for unpaced runs, so batch mode
    // yields NotApplicable rather than a vacuous YES.
    rep.realTime =
        evaluateRealTime(rep.sustainedFps, rep.generationFps);
    rep.stages = timeline.stages;
    rep.configuredMaxBatch = cfg.maxBatch;
    rep.batchCount = timeline.batchCount;
    rep.batchedFrames = timeline.batchedFrames;
    rep.soloFrames = timeline.soloFrames;
    rep.meanBatchSize = timeline.meanBatchSize;
    rep.maxBatchSize = timeline.maxBatchSize;

    std::vector<double> latencies;
    latencies.reserve(timeline.processed);
    for (FrameTask *task : completed) {
        const FrameRecord &row = out.ledger[task->index];
        if (row.outcome != FrameOutcome::Processed)
            continue;
        ProcessedFrame pf;
        pf.index = row.index;
        pf.latencySec = row.latencySec;
        pf.doneSec = row.doneSec;
        pf.result = std::move(task->result);
        latencies.push_back(row.latencySec);
        out.frames.push_back(std::move(pf));
    }
    const LatencySummary lat = summarizeLatencies(std::move(latencies));
    rep.meanLatencySec = lat.mean;
    rep.p50LatencySec = lat.p50;
    rep.p95LatencySec = lat.p95;
    rep.p99LatencySec = lat.p99;
    rep.maxLatencySec = lat.max;
    return out;
}

std::vector<FrameTask *>
StreamRunner::execute(std::vector<FrameTask> &tasks,
                      const FrameTaskCallback &on_frame)
{
    // The restart contract: a stop belongs to the run it aborted.
    stopped.store(false);
    const std::size_t n = tasks.size();
    const std::size_t unit = cfg.maxBatch;

    // Frames below `ready` have their octree built; the lookahead
    // thread may build frames below `horizon` — the unit the caller
    // is waiting for or working on and the next one, never further.
    std::mutex mu;
    std::condition_variable cv;
    std::size_t ready = 0;
    std::size_t horizon = 0;
    bool quit = false;
    std::thread lookahead([&] {
        for (std::size_t i = 0; i < n; ++i) {
            {
                std::unique_lock<std::mutex> lock(mu);
                cv.wait(lock, [&] { return quit || i < horizon; });
                if (quit)
                    return;
            }
            runStage(build, 0, tasks[i]);
            {
                std::lock_guard<std::mutex> lock(mu);
                ready = i + 1;
            }
            cv.notify_all();
        }
    });
    // Joins on every exit path; a stopped run's lookahead is
    // discarded with the frames it belongs to.
    const auto join = [&] {
        {
            std::lock_guard<std::mutex> lock(mu);
            quit = true;
        }
        cv.notify_all();
        lookahead.join();
    };

    std::vector<FrameTask *> done;
    done.reserve(n);
    try {
        for (std::size_t begin = 0; begin < n && !stopped.load();
             begin += unit) {
            const std::size_t end = std::min(begin + unit, n);
            {
                // Open the next unit before waiting, so a build-bound
                // lookahead never stalls on this thread's wake-up.
                std::unique_lock<std::mutex> lock(mu);
                horizon = std::min(end + unit, n);
                cv.notify_all();
                cv.wait(lock, [&] { return ready >= end; });
            }
            for (std::size_t i = begin; i < end; ++i)
                runStage(sample, 1, tasks[i]);
            if (unit == 1) {
                runStage(infer, 2, tasks[begin]);
            } else {
                std::vector<FrameTask *> group;
                for (std::size_t i = begin; i < end; ++i)
                    group.push_back(&tasks[i]);
                std::vector<double> costs(group.size(), 0.0);
                {
                    TraceIds ids;
                    ids.frame = static_cast<std::int64_t>(begin);
                    HGPCN_TRACE_WALL_SPAN(
                        span,
                        "host:" + infer.name() + ":batch" +
                            std::to_string(group.size()),
                        infer.resource(), "wall/" + infer.name(),
                        ids);
                    infer.processBatch(group, costs);
                }
                for (std::size_t j = 0; j < group.size(); ++j)
                    group[j]->stageCostSec[2] = costs[j];
            }
            for (std::size_t i = begin; i < end; ++i) {
                if (stopped.load())
                    break;
                if (on_frame)
                    on_frame(tasks[i]);
                done.push_back(&tasks[i]);
            }
        }
    } catch (...) {
        join();
        throw;
    }
    join();
    return done;
}

void
StreamRunner::requestStop()
{
    stopped.store(true);
}

} // namespace hgpcn
