/**
 * @file
 * Reporting for the sharded and elastic serving layers: one ledger,
 * every view a group-by over it.
 *
 * A serve's source of truth is its ledger — one FrameRecord per
 * offered frame (runtime/stream_runner.h): global index, sensor,
 * shard, one terminal outcome (processed, dropped, abandoned, shed
 * or failed), attempts, a degraded flag and the completion and
 * latency on the global clock. Each frame has exactly one row, so
 * conservation (framesIn == processed + dropped + abandoned + shed
 * + failed) holds by construction; the merges assert it.
 *
 * The two merges only build the ledger:
 *
 *  - mergeShardOutcomes maps each shard's rows (shard-local index
 *    and clock, anchored at its first admitted frame) to global
 *    indices and re-anchors them;
 *  - mergeEpochResults concatenates the epoch ledgers of an elastic
 *    serve (serving/autoscaler.h), adds the rows admission control
 *    shed, then clamps completions to in-order delivery per sensor:
 *    a frame handed off across an epoch boundary cannot be
 *    delivered before its predecessor finishes, and the wait joins
 *    its latency.
 *
 * One summary then derives every frame-level view from the rows —
 * the aggregate (counts, makespan, latency percentiles, sustained
 * FPS), per-sensor slices and per-backend slices, the last two the
 * same computation under a different group key. A slice's offered
 * rate is the stamp span of its rows, (n-1)/span; its sustained rate
 * is completions over first offer -> last completion; its Section
 * VII-E verdict uses the tri-state semantics (common/real_time.h),
 * NotApplicable for unpaced serves, never a vacuous YES.
 *
 * The per-shard views are the shards' own RuntimeReports; an
 * elastic serve aggregates each shard index across the epochs it
 * was active in. Both merges are pure functions of their inputs,
 * unit-tested against hand-built outcomes in tests/test_serving.cc
 * and tests/test_elastic.cc.
 */

#ifndef HGPCN_SERVING_SERVING_REPORT_H
#define HGPCN_SERVING_SERVING_REPORT_H

#include <string>
#include <vector>

#include "common/real_time.h"
#include "datasets/sensor_stream.h"
#include "runtime/stream_runner.h"
#include "serving/placement.h"

namespace hgpcn
{

/** What a per-sensor and a per-backend slice share: one group of
 * ledger rows, reduced. */
struct ServingSlice
{
    std::size_t framesIn = 0;   //!< offered to (routed to) the group
    std::size_t framesDone = 0; //!< completed the pipeline
    /** Offered - completed: dropped by overload, abandoned by a
     * stop, shed by admission control or failed. */
    std::size_t framesMissed = 0;
    std::size_t framesFailed = 0;   //!< of missed: fault-terminal
    std::size_t framesRetried = 0;  //!< of done: needed retries
    std::size_t framesDegraded = 0; //!< of done: reduced fidelity

    /** Completed / (first offer -> last completion), global clock. */
    double sustainedFps = 0;

    double p50LatencySec = 0;
    double p95LatencySec = 0;
    double p99LatencySec = 0;
    double maxLatencySec = 0;

    /** Section VII-E against the group's offered rate;
     * NotApplicable when unpaced. */
    RealTimeVerdict realTime = RealTimeVerdict::NotApplicable;
};

/** One sensor's slice of a serve. */
struct SensorServingReport : ServingSlice
{
    std::size_t sensor = 0;
    /** Distinct shards that completed frames of this sensor (1
     * under HashBySensor affinity). */
    std::size_t shardSpread = 0;
    /** Of framesMissed: refused by admission control before
     * dispatch (elastic serving only; 0 for a plain fleet serve). */
    std::size_t framesShed = 0;
    /** This sensor's capture rate ((n-1)/span of its stamps). */
    double generationFps = 0;
};

/** One execution backend's slice of a serve (the frames dispatched
 * to the shards that run it). */
struct BackendServingReport : ServingSlice
{
    std::string backend;    //!< registry name ("hgpcn", ...)
    std::size_t shards = 0; //!< fleet replicas of this backend
    /** Generation rate of the traffic routed to this backend
     * ((n-1)/span of its dispatched stamps; 0 when underivable). */
    double offeredFps = 0;
};

/** Aggregate + per-shard + per-sensor + per-backend serving report. */
struct ServingReport
{
    PlacementPolicy placement = PlacementPolicy::HashBySensor;
    std::size_t shardCount = 0;
    std::size_t sensorCount = 0;

    std::size_t framesIn = 0;
    std::size_t framesProcessed = 0;
    std::size_t framesDropped = 0;
    std::size_t framesAbandoned = 0;
    /** Refused by admission control before dispatch (elastic
     * serving; conservation: framesIn == framesProcessed +
     * framesDropped + framesAbandoned + framesShed +
     * framesFailed). */
    std::size_t framesShed = 0;

    /** Fault-tolerance attribution (zero without a fault plan).
     * Failed frames join the conservation identity above; retried
     * and degraded frames are subsets of framesProcessed. */
    std::size_t framesFailed = 0;
    std::size_t framesRetried = 0;
    std::size_t framesDegraded = 0;

    bool paced = true; //!< every shard ran sensor-paced

    /** First global offer -> last global completion. */
    double makespanSec = 0;
    /** Global sustained throughput: processed / makespan. */
    double sustainedFps = 0;

    /** Latency distribution merged across all shards. */
    double meanLatencySec = 0;
    double p50LatencySec = 0;
    double p95LatencySec = 0;
    double p99LatencySec = 0;
    double maxLatencySec = 0;

    /** Per-shard reports, indexed by shard, on shard-local clocks. */
    std::vector<RuntimeReport> shardReports;
    /** Backend name of each shard, parallel to shardReports (empty
     * strings when the outcomes carried no attribution). */
    std::vector<std::string> shardBackends;
    /** Per-sensor slices, indexed by sensor. */
    std::vector<SensorServingReport> sensors;
    /** Per-backend slices, one per distinct named backend, in
     * first-shard order; empty when no outcome was attributed. */
    std::vector<BackendServingReport> backends;

    /** Render a multi-line human-readable summary. */
    std::string toString() const;
};

/** One completed frame of a serve, on the global clock. */
struct ServedFrame
{
    std::size_t globalIndex = 0; //!< position in the tagged stream
    std::size_t sensor = 0;
    std::size_t sensorIndex = 0; //!< position within its sensor
    std::size_t shard = 0;
    double latencySec = 0;
    double doneSec = 0; //!< completion, global virtual clock
    E2eResult result;
};

/** Everything one serve() produced. */
struct ServingResult
{
    /** Completed frames in global completion order (doneSec, ties
     * by stream position); dropped/abandoned frames absent. */
    std::vector<ServedFrame> frames;
    ServingReport report;
    /** One row per offered frame, indexed by global stream
     * position, on the global clock; the report is a view of it. */
    std::vector<FrameRecord> ledger;
    /** Fleet-wide metrics: every shard's (or epoch's) registry
     * snapshot merged — counters summed, additive gauges summed,
     * histograms folded bucket-wise (obs/metrics.h). */
    MetricsSnapshot metrics;
};

/** What one shard contributed to a serve. */
struct ShardOutcome
{
    RuntimeResult result;
    /** Global time of the shard clock's origin (its first admitted
     * frame's timestamp when paced, 0 in batch mode). */
    double anchorSec = 0;
    /** Sub-stream index -> global stream index. */
    std::vector<std::size_t> globalIndex;
    /** Execution backend the shard ran (registry name); empty
     * outcomes are excluded from the per-backend view. */
    std::string backend;
};

/**
 * Merge per-shard outcomes into the global serving view.
 *
 * @param stream The tagged stream that was served.
 * @param outcomes One entry per shard; results are moved out.
 * @param policy Placement policy used (for the report).
 */
ServingResult
mergeShardOutcomes(const SensorStream &stream,
                   std::vector<ShardOutcome> outcomes,
                   PlacementPolicy policy);

/** What one control epoch of an elastic serve contributed. */
struct EpochOutcome
{
    /** Epoch window on the global clock. */
    double startSec = 0;
    double endSec = 0;
    /** Active shard count during this epoch. */
    std::size_t activeShards = 0;
    /** The epoch's fleet serve over its admitted sub-stream; frame
     * globalIndex values are *epoch-local* (positions in the
     * admitted sub-stream) and completion times are already on the
     * global clock (paced serves anchor at absolute stamps). */
    ServingResult result;
    /** Epoch-local sub-stream index -> full-stream index. */
    std::vector<std::size_t> globalIndex;
    /** Full-stream indices of frames shed by admission control
     * this epoch (never dispatched). */
    std::vector<std::size_t> shedGlobalIndex;
};

/**
 * Merge per-epoch elastic-serve outcomes into one global view.
 *
 * Pure arithmetic, like mergeShardOutcomes. The ledger is the epoch
 * ledgers concatenated plus one Shed row per shed frame; before any
 * view is derived, completions are clamped to in-order delivery per
 * sensor: a frame's delivery time is at least its predecessor's,
 * with the wait charged to its latency — the cross-epoch handoff
 * cost a reconfiguring fleet really pays. Shard views aggregate per
 * shard *index* across the epochs it was active in (counts summed,
 * busy time re-normalized over the summed epoch makespans).
 *
 * @param stream The full tagged stream the elastic serve covered.
 * @param outcomes One entry per epoch, in epoch order; moved out.
 * @param policy Placement policy used within epochs (for the
 *        report).
 * @param shard_backends Backend name per shard index (stable across
 *        epochs by the ShardedRunner cycling rule); sized to the
 *        peak shard count, may be empty when unattributed.
 */
ServingResult
mergeEpochResults(const SensorStream &stream,
                  std::vector<EpochOutcome> outcomes,
                  PlacementPolicy policy,
                  const std::vector<std::string> &shard_backends);

} // namespace hgpcn

#endif // HGPCN_SERVING_SERVING_REPORT_H
