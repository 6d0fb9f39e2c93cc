/**
 * @file
 * StreamRunner: source-paced, multi-frame-in-flight E2E execution.
 *
 * The front door of the streaming runtime (docs/RUNTIME.md). A
 * runner owns the three stages — OctreeBuildStage (CPU),
 * DownSampleStage (FPGA) and a backend-parameterized InferenceStage
 * (src/backends) — and works on two clocks:
 *
 *  - Wall clock: every frame is computed once, in stream order, by
 *    two host engines, mirroring the modeled devices of Fig. 4. A
 *    lookahead thread builds the next frame's octree (the "cpu"
 *    stage) while the calling thread down-samples and infers the
 *    current one (the "fpga" stages) and calls the per-frame hook.
 *    With maxBatch > 1 the unit is a fixed admission-index group
 *    [g*B, (g+1)*B) instead of a frame.
 *  - Virtual time: the recorded cycle-model costs are scheduled by
 *    simulateTimeline (runtime/virtual_timeline.h), which alone
 *    models worker and device counts, queue capacity, admission
 *    credit, overload policy and batch formation.
 *
 * The report gives sustained throughput, tail latency, per-stage
 * occupancy/utilization, drops and the Section VII-E real-time
 * verdict; the ledger gives every offered frame's terminal outcome
 * (FrameRecord), the rows the serving layer's views group over.
 * StreamRunner::compat reproduces the historical analytical
 * two-stage pipelinedFps with a single-worker schedule.
 *
 * Device mapping: a backend on the HgPCN fabric (resource "fpga",
 * i.e. HgpcnBackend) follows the shareFpga semantics — inference
 * contends with OIS down-sampling for the one FPGA of Fig. 4, or
 * splits onto fpga.dsu/fpga.fcu. Any other backend (Mesorasi's GPU,
 * PointACC's die, the CPU reference) occupies its own device with
 * fpgaUnits units while the down-sampler keeps the FPGA to itself.
 */

#ifndef HGPCN_RUNTIME_STREAM_RUNNER_H
#define HGPCN_RUNTIME_STREAM_RUNNER_H

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "common/real_time.h"
#include "common/stats.h"
#include "obs/metrics.h"
#include "runtime/stage.h"
#include "runtime/stages.h"
#include "runtime/virtual_timeline.h"

namespace hgpcn
{

/** One frame that completed the run (not dropped or abandoned). */
struct ProcessedFrame
{
    std::size_t index = 0;  //!< position in the input stream
    double latencySec = 0;  //!< admission-to-completion, virtual time
    double doneSec = 0;     //!< completion on the virtual timeline
    E2eResult result;       //!< functional outputs + cycle breakdown
};

/** How an offered frame left the system; exactly one per frame. */
enum class FrameOutcome
{
    Processed, //!< delivered its outputs
    Dropped,   //!< overload-policy victim
    Abandoned, //!< lost to a stop before its hook ran
    Shed,      //!< refused by admission control (elastic serving)
    Failed,    //!< retries or deadline exhausted
};

/**
 * One ledger row: an offered frame's terminal outcome. A run emits
 * one row per input frame, in stream order, on its own clock; the
 * serving merges map rows to global indices and re-anchor them, and
 * every serving view is a group-by over the rows
 * (serving/serving_report.h).
 */
struct FrameRecord
{
    std::size_t index = 0;  //!< stream position (global once merged)
    std::size_t sensor = 0; //!< sensor id (0 without ids)
    std::size_t shard = 0;  //!< serving shard; unused for Shed rows
    FrameOutcome outcome = FrameOutcome::Processed;
    std::size_t attempts = 1; //!< inference attempts (> 1: retried)
    bool degraded = false;    //!< ran at a reduced sample budget
    /** Completion and arrival-to-completion time on the virtual
     * clock; 0 for frames never scheduled (dropped, abandoned,
     * shed). */
    double doneSec = 0;
    double latencySec = 0;
};

/** Stream-level performance report (virtual-time, deterministic). */
struct RuntimeReport
{
    std::size_t framesIn = 0;        //!< offered by the source
    std::size_t framesProcessed = 0;
    std::size_t framesDropped = 0;   //!< overload-policy victims
    std::size_t framesAbandoned = 0; //!< lost to requestStop()

    // Fault-tolerance attribution (zero without a fault schedule).
    // Conservation: in == processed + dropped + abandoned + failed.
    std::size_t framesFailed = 0;   //!< retries/deadline exhausted
    std::size_t framesRetried = 0;  //!< completed with > 1 attempt
    std::size_t framesDegraded = 0; //!< completed at reduced fidelity

    double makespanSec = 0;   //!< first arrival -> last completion
    double sustainedFps = 0;  //!< processed / makespan

    /** Per-frame latency (arrival to completion) distribution. */
    double meanLatencySec = 0;
    double p50LatencySec = 0;
    double p95LatencySec = 0;
    double p99LatencySec = 0;
    double maxLatencySec = 0;

    /** Sensor rate from timestamps (0 when unpaced or <2 frames). */
    double generationFps = 0;
    /** Section VII-E criterion: sustainedFps >= generationFps.
     * NotApplicable when no generation rate is derivable — batch
     * admission, an unstamped stream or <2 frames race no sensor,
     * so there is no criterion to pass. */
    RealTimeVerdict realTime = RealTimeVerdict::NotApplicable;

    OverloadPolicy policy = OverloadPolicy::Block;
    bool paced = true;

    /** Per-stage load, in dataflow order. */
    std::vector<TimelineStageStats> stages;

    // Batch-occupancy attribution of the inference stage, from the
    // virtual schedule. Defaults (and an absent toString() line)
    // when configuredMaxBatch == 1.
    std::size_t configuredMaxBatch = 1;
    std::size_t batchCount = 0;    //!< coalesced dispatches
    std::size_t batchedFrames = 0; //!< frames served in batches >= 2
    std::size_t soloFrames = 0;    //!< frames dispatched alone
    double meanBatchSize = 0;
    std::size_t maxBatchSize = 0;

    /** Render a multi-line human-readable summary. */
    std::string toString() const;
};

/** Everything one run() produced. */
struct RuntimeResult
{
    /** Completed frames in stream order (dropped frames absent). */
    std::vector<ProcessedFrame> frames;
    RuntimeReport report;
    /** Aggregated workload counters across all frames. */
    StatSet workload;
    /** The run's metrics registry, frozen: frame/drop/batch
     * counters, stall attribution gauges.
     * ServingResult merges these shard-wise. */
    MetricsSnapshot metrics;
    /** One row per input frame, in stream order (indices are
     * stream-local; sensor ids from StreamTraceIds). */
    std::vector<FrameRecord> ledger;
};

/**
 * Optional per-frame identity, parallel to the input stream. A
 * ShardedRunner passes each shard's global frame indices and sensor
 * ids. Both tag trace events and ledger rows, so the shard's spans
 * carry fleet-level ids instead of shard-local positions.
 */
struct StreamTraceIds
{
    std::vector<std::int64_t> frame;
    std::vector<std::int64_t> sensor;
};

/** In-order two-engine runner over the HgPCN engines. */
class StreamRunner
{
  public:
    struct Config
    {
        /** PCN input size K (points after down-sampling). 0 means
         * "inherit" — HgPcnSystem::runStream substitutes its own K;
         * constructing a StreamRunner directly requires nonzero. */
        std::size_t inputPoints = 0;

        /** Octree-build units of the modeled CPU — cores devoted to
         * building frame i+1's (i+2's, ...) octree while the FPGA
         * works on frame i. Virtual timeline only: the host always
         * builds one frame at a time. */
        std::size_t buildWorkers = 1;

        /** Modeled FPGA devices. Each runs OIS down-sampling and
         * inference serially (shareFpga) or in parallel unit pairs.
         * Virtual timeline only. */
        std::size_t fpgaUnits = 1;

        /** true: down-sampling and inference contend for the same
         * FPGA (the Fig. 4 platform; matches the legacy two-stage
         * pipelinedFps model). false: independent devices. */
        bool shareFpga = true;

        /** Capacity of each modeled inter-stage queue (>= 1).
         * Virtual timeline only. */
        std::size_t queueCapacity = 8;

        /** Admission credit: max frames admitted-but-unfinished;
         * 0 = bounded only by queues and units. Virtual timeline
         * only. */
        std::size_t maxInFlight = 0;

        /** Source-queue behavior when full. Virtual timeline only:
         * the host computes every frame. */
        OverloadPolicy policy = OverloadPolicy::Block;

        /** true: admit each frame at its sensor timestamp; false:
         * batch mode, every frame available at t=0. */
        bool paceBySensor = true;

        /** Host threads splitting MLP rows within one frame's
         * inference (>= 1). Wall-clock only — the modeled schedule
         * and every output bit are identical at any value; size it
         * against buildWorkers/fpgaUnits so intra- and inter-frame
         * parallelism share the host sensibly. */
        int intraOpThreads = 1;

        /** Cross-sensor micro-batching: frames coalesced per
         * inference pass. 1 (default) disables batching — timeline
         * and report are byte-identical to a build without the
         * feature. > 1 makes the inference stage the coalescing
         * point: the host infers fixed admission-index groups
         * [g*B, (g+1)*B) in one ExecutionBackend::inferBatch pass,
         * while the virtual timeline forms batches from its own
         * backlog. Per-frame outputs and modeled numbers stay
         * bit-identical; only the schedule (shared device
         * occupancy) moves. */
        std::size_t maxBatch = 1;

        /** Virtual seconds the oldest queued frame waits for a
         * batch to fill before a partial batch dispatches; 0 is
         * greedy/work-conserving (batches form only under backlog).
         * Used only when maxBatch > 1. Virtual timeline only. */
        double batchTimeoutVirtualSec = 0.0;

        /** Shard id stamped on this runner's trace events and used
         * as its track prefix ("shard<N>/..."); -1 = standalone
         * ("runner/..."). Observability-only — never read by
         * scheduling. */
        std::int64_t traceShard = -1;
    };

    /**
     * @param preprocess Pre-processing engine (borrowed).
     * @param backend Execution backend to infer on (borrowed; binds
     *        its own model replica and is thread-safe by contract).
     * @param config Runner parameters.
     */
    StreamRunner(const PreprocessingEngine &preprocess,
                 const ExecutionBackend &backend,
                 const Config &config);

    /**
     * Process @p frames end to end (blocking).
     *
     * Runners are reusable: run() starts fresh even after a
     * previous run was aborted by requestStop().
     *
     * @param frames The stream; timestamps must be strictly
     *        increasing when paceBySensor is set.
     * @param on_frame Optional per-frame hook, called in stream
     *        order on the calling thread.
     * @param trace_ids Optional fleet-level frame/sensor ids (see
     *        StreamTraceIds): both tag trace events and ledger
     *        rows; sizes must match @p frames when given.
     * @param faults Optional resolved per-frame fault directives,
     *        parallel to @p frames (serving/failover.h): retries,
     *        backoff and slowdown are charged as virtual time on
     *        the inference stage, degraded frames run with their
     *        reduced sample budget, failed frames are scheduled but
     *        excluded from completions. Null (or all-clean
     *        directives) leaves the run byte-identical to a build
     *        without the fault layer.
     */
    RuntimeResult run(const std::vector<Frame> &frames,
                      const FrameTaskCallback &on_frame = {},
                      const StreamTraceIds *trace_ids = nullptr,
                      const std::vector<FrameFaultDirective> *faults =
                          nullptr);

    /** Abort the in-progress run() from any thread (including the
     * on_frame hook); run() returns the frames completed so far.
     * The flag is checked before each frame's hook, so a stop from
     * frame j's hook abandons exactly the frames after j. No-op
     * against an idle runner; a later run() starts fresh. */
    void requestStop();

    /**
     * Configuration reproducing the legacy analytical pipelinedFps:
     * batch admission, one worker per stage, one shared FPGA and
     * queues deep enough (@p n_frames) to never stall the build.
     */
    static Config compat(std::size_t n_frames,
                         std::size_t input_points);

    /** @return runner parameters. */
    const Config &config() const { return cfg; }

    /** @return the backend this runner infers on. */
    const ExecutionBackend &backend() const { return infer.backend(); }

  private:
    /** Compute @p tasks once each, in order, on the two host
     * engines (see the file comment). @return the frames whose
     * hook ran, in stream order — all of them unless stopped. */
    std::vector<FrameTask *> execute(std::vector<FrameTask> &tasks,
                                     const FrameTaskCallback &on_frame);

    Config cfg;
    std::atomic<bool> stopped{false};
    /** Per-run metrics registry (cleared at each run() start;
     * frozen into RuntimeResult::metrics at the end). */
    MetricsRegistry metricsReg;
    /** Cross-frame workload aggregate, merged into by the
     * down-sample stage; snapshot into
     * RuntimeResult::workload. */
    ConcurrentStatSet streamWorkload;
    /** Reusable frame workspaces leased by the inference stage;
     * warm across frames and runs (declared before the stages that
     * borrow it). */
    WorkspacePool workspacePool;
    OctreeBuildStage build;
    DownSampleStage sample;
    InferenceStage infer;
};

} // namespace hgpcn

#endif // HGPCN_RUNTIME_STREAM_RUNNER_H
