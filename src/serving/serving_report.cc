#include "serving/serving_report.h"

#include <algorithm>
#include <limits>
#include <set>
#include <sstream>

#include "common/logging.h"

namespace hgpcn
{
namespace
{

/** Group key of rows no group takes (shed rows in the backend view,
 * shards with no named backend). */
constexpr std::size_t kNoGroup = std::numeric_limits<std::size_t>::max();

/** One group of ledger rows, reduced. */
struct Group
{
    std::size_t in = 0;
    std::size_t processed = 0;
    std::size_t dropped = 0;
    std::size_t abandoned = 0;
    std::size_t shed = 0;
    std::size_t failed = 0;
    std::size_t retried = 0;  //!< of processed
    std::size_t degraded = 0; //!< of processed
    std::set<std::size_t> shards; //!< that completed its frames
    double firstStamp = std::numeric_limits<double>::infinity();
    double lastStamp = -std::numeric_limits<double>::infinity();
    double lastDone = -std::numeric_limits<double>::infinity();
    std::vector<double> latencies; //!< completion order

    double offeredFps = 0;   //!< (n-1)/span of the offered stamps
    double spanSec = 0;      //!< first offer -> last completion
    double sustainedFps = 0; //!< processed / spanSec
    LatencySummary latency;
    RealTimeVerdict realTime = RealTimeVerdict::NotApplicable;
};

/** Completion order: doneSec, ties by stream position. */
bool
completesBefore(const FrameRecord &a, const FrameRecord &b)
{
    if (a.doneSec != b.doneSec)
        return a.doneSec < b.doneSec;
    return a.index < b.index;
}

/**
 * The one reduction behind every frame-level view: group @p ledger
 * by @p key (row -> group in [0, groups), or kNoGroup) and derive
 * each group's counts, rates, latency summary and verdict. The
 * first offer is the group's earliest stamp when @p paced, 0 in
 * batch mode.
 */
template <class Key>
std::vector<Group>
groupBy(const SensorStream &stream,
        const std::vector<FrameRecord> &ledger,
        const std::vector<const FrameRecord *> &completions,
        bool paced, std::size_t groups, Key key)
{
    std::vector<Group> out(groups);
    for (const FrameRecord &row : ledger) {
        const std::size_t k = key(row);
        if (k == kNoGroup)
            continue;
        Group &g = out[k];
        const double stamp = stream.frames[row.index].timestamp;
        g.in++;
        g.firstStamp = std::min(g.firstStamp, stamp);
        g.lastStamp = std::max(g.lastStamp, stamp);
        switch (row.outcome) {
        case FrameOutcome::Processed:
            g.processed++;
            g.retried += row.attempts > 1;
            g.degraded += row.degraded;
            g.shards.insert(row.shard);
            g.lastDone = std::max(g.lastDone, row.doneSec);
            break;
        case FrameOutcome::Dropped:
            g.dropped++;
            break;
        case FrameOutcome::Abandoned:
            g.abandoned++;
            break;
        case FrameOutcome::Shed:
            g.shed++;
            break;
        case FrameOutcome::Failed:
            g.failed++;
            break;
        }
    }
    for (const FrameRecord *row : completions) {
        const std::size_t k = key(*row);
        if (k != kNoGroup)
            out[k].latencies.push_back(row->latencySec);
    }
    for (Group &g : out) {
        const double stamp_span = g.lastStamp - g.firstStamp;
        if (g.in >= 2 && stamp_span > 0.0)
            g.offeredFps = static_cast<double>(g.in - 1) / stamp_span;
        if (g.processed > 0) {
            g.spanSec = g.lastDone - (paced ? g.firstStamp : 0.0);
            g.sustainedFps =
                g.spanSec > 0.0
                    ? static_cast<double>(g.processed) / g.spanSec
                    : 0.0;
            g.latency = summarizeLatencies(std::move(g.latencies));
        }
        // A batch serve races no sensor: NotApplicable, never a
        // vacuous YES.
        g.realTime =
            evaluateRealTime(g.sustainedFps, paced ? g.offeredFps : 0.0);
    }
    return out;
}

/** The slice fields every group kind shares. */
ServingSlice
sliceOf(const Group &g)
{
    ServingSlice s;
    s.framesIn = g.in;
    s.framesDone = g.processed;
    s.framesMissed = g.in - g.processed;
    s.framesFailed = g.failed;
    s.framesRetried = g.retried;
    s.framesDegraded = g.degraded;
    s.sustainedFps = g.sustainedFps;
    s.p50LatencySec = g.latency.p50;
    s.p95LatencySec = g.latency.p95;
    s.p99LatencySec = g.latency.p99;
    s.maxLatencySec = g.latency.max;
    s.realTime = g.realTime;
    return s;
}

/**
 * Derive the aggregate, per-sensor and per-backend views of @p rep
 * from @p ledger (indexed by global position). Reads rep.paced and
 * rep.shardBackends; per-backend slices follow the first-shard
 * order of the named backends.
 */
void
summarize(const SensorStream &stream,
          const std::vector<FrameRecord> &ledger, ServingReport &rep)
{
    std::vector<const FrameRecord *> completions;
    for (const FrameRecord &row : ledger) {
        if (row.outcome == FrameOutcome::Processed)
            completions.push_back(&row);
    }
    std::sort(completions.begin(), completions.end(),
              [](const FrameRecord *a, const FrameRecord *b) {
                  return completesBefore(*a, *b);
              });

    const Group all = groupBy(stream, ledger, completions, rep.paced,
                              1, [](const FrameRecord &) {
                                  return std::size_t{0};
                              })[0];
    rep.framesIn = all.in;
    rep.framesProcessed = all.processed;
    rep.framesDropped = all.dropped;
    rep.framesAbandoned = all.abandoned;
    rep.framesShed = all.shed;
    rep.framesFailed = all.failed;
    rep.framesRetried = all.retried;
    rep.framesDegraded = all.degraded;
    rep.makespanSec = all.spanSec;
    rep.sustainedFps = all.sustainedFps;
    rep.meanLatencySec = all.latency.mean;
    rep.p50LatencySec = all.latency.p50;
    rep.p95LatencySec = all.latency.p95;
    rep.p99LatencySec = all.latency.p99;
    rep.maxLatencySec = all.latency.max;

    const std::vector<Group> by_sensor =
        groupBy(stream, ledger, completions, rep.paced,
                stream.sensorCount,
                [](const FrameRecord &row) { return row.sensor; });
    rep.sensors.assign(stream.sensorCount, SensorServingReport{});
    for (std::size_t k = 0; k < stream.sensorCount; ++k) {
        SensorServingReport &sr = rep.sensors[k];
        static_cast<ServingSlice &>(sr) = sliceOf(by_sensor[k]);
        sr.sensor = k;
        sr.shardSpread = by_sensor[k].shards.size();
        sr.framesShed = by_sensor[k].shed;
        sr.generationFps = by_sensor[k].offeredFps;
    }

    // Backends: one group per distinct named backend, holding the
    // rows dispatched to its shards (shed rows never were).
    rep.backends.clear();
    std::vector<std::size_t> backend_of(rep.shardBackends.size(),
                                        kNoGroup);
    for (std::size_t s = 0; s < rep.shardBackends.size(); ++s) {
        const std::string &name = rep.shardBackends[s];
        if (name.empty())
            continue;
        std::size_t b = 0;
        while (b < rep.backends.size() &&
               rep.backends[b].backend != name)
            ++b;
        if (b == rep.backends.size()) {
            rep.backends.emplace_back();
            rep.backends.back().backend = name;
        }
        backend_of[s] = b;
        rep.backends[b].shards++;
    }
    const std::vector<Group> by_backend = groupBy(
        stream, ledger, completions, rep.paced, rep.backends.size(),
        [&](const FrameRecord &row) {
            if (row.outcome == FrameOutcome::Shed)
                return kNoGroup;
            HGPCN_ASSERT(row.shard < backend_of.size(), "frame ",
                         row.index, " on shard ", row.shard,
                         " beyond the fleet width ",
                         backend_of.size());
            return backend_of[row.shard];
        });
    for (std::size_t b = 0; b < rep.backends.size(); ++b) {
        BackendServingReport &br = rep.backends[b];
        static_cast<ServingSlice &>(br) = sliceOf(by_backend[b]);
        br.offeredFps = by_backend[b].offeredFps;
    }
}

/**
 * Sort @p rows into a ledger indexed by global position and check
 * conservation: each of the stream's @p n frames has exactly one
 * row.
 */
std::vector<FrameRecord>
indexLedger(std::vector<FrameRecord> rows, std::size_t n)
{
    std::sort(rows.begin(), rows.end(),
              [](const FrameRecord &a, const FrameRecord &b) {
                  return a.index < b.index;
              });
    HGPCN_ASSERT(rows.size() == n, "ledger holds ", rows.size(),
                 " rows for ", n, " offered frames");
    for (std::size_t i = 0; i < n; ++i) {
        HGPCN_ASSERT(rows[i].index == i, "frame ", i,
                     " has no ledger row or more than one");
    }
    return rows;
}

/**
 * Complete a merge once its ledger is final: stamp every served
 * frame with its row's sensor, shard and global times, order the
 * frames by completion and derive the report's views.
 */
void
finish(const SensorStream &stream, ServingResult &out)
{
    std::vector<std::size_t> sensor_index(stream.size(), 0);
    std::vector<std::size_t> seen(stream.sensorCount, 0);
    for (std::size_t i = 0; i < stream.size(); ++i)
        sensor_index[i] = seen[stream.sensors[i]]++;
    for (ServedFrame &sf : out.frames) {
        const FrameRecord &row = out.ledger[sf.globalIndex];
        HGPCN_ASSERT(row.outcome == FrameOutcome::Processed, "frame ",
                     sf.globalIndex, " served but not processed");
        sf.sensor = row.sensor;
        sf.sensorIndex = sensor_index[sf.globalIndex];
        sf.shard = row.shard;
        sf.doneSec = row.doneSec;
        sf.latencySec = row.latencySec;
    }
    std::sort(out.frames.begin(), out.frames.end(),
              [&](const ServedFrame &a, const ServedFrame &b) {
                  return completesBefore(out.ledger[a.globalIndex],
                                         out.ledger[b.globalIndex]);
              });
    summarize(stream, out.ledger, out.report);
}

} // namespace

std::string
ServingReport::toString() const
{
    std::ostringstream oss;
    oss.setf(std::ios::fixed);
    oss.precision(1);
    oss << "serving: " << shardCount << " shard"
        << (shardCount == 1 ? "" : "s") << " ("
        << placementPolicyName(placement) << "), " << sensorCount
        << " sensor" << (sensorCount == 1 ? "" : "s")
        << (paced ? ", sensor-paced" : ", batch") << "\n";
    oss << "frames: " << framesProcessed << "/" << framesIn
        << " processed";
    if (framesDropped > 0)
        oss << ", " << framesDropped << " dropped";
    if (framesAbandoned > 0)
        oss << ", " << framesAbandoned << " abandoned";
    if (framesShed > 0)
        oss << ", " << framesShed << " shed";
    if (framesFailed > 0)
        oss << ", " << framesFailed << " failed";
    oss << "\n";
    // Absent on fault-free serves, keeping legacy output exact.
    if (framesRetried > 0 || framesDegraded > 0)
        oss << "fault-tolerance: " << framesRetried << " retried | "
            << framesDegraded << " degraded\n";
    oss << "aggregate: " << sustainedFps << " FPS over "
        << makespanSec * 1e3 << " ms";
    oss.precision(2);
    oss << " | latency ms: mean " << meanLatencySec * 1e3 << " | p50 "
        << p50LatencySec * 1e3 << " | p95 " << p95LatencySec * 1e3
        << " | p99 " << p99LatencySec * 1e3 << " | max "
        << maxLatencySec * 1e3 << "\n";
    oss.precision(1);
    for (std::size_t s = 0; s < shardReports.size(); ++s) {
        const RuntimeReport &r = shardReports[s];
        oss << "shard " << s;
        if (s < shardBackends.size() && !shardBackends[s].empty())
            oss << " [" << shardBackends[s] << "]";
        oss << ": " << r.framesProcessed << "/"
            << r.framesIn << " processed | sustained "
            << r.sustainedFps << " FPS";
        for (const TimelineStageStats &st : r.stages) {
            oss << " | " << st.name << " util "
                << static_cast<int>(st.utilization * 100.0 + 0.5)
                << "%";
        }
        // Batch-occupancy attribution; absent at maxBatch == 1 so
        // non-batched serves render byte-identically to before.
        if (r.configuredMaxBatch > 1) {
            oss.precision(2);
            oss << " | batch mean " << r.meanBatchSize << " peak "
                << r.maxBatchSize << " (" << r.batchedFrames
                << " batched, " << r.soloFrames << " solo)";
            oss.precision(1);
        }
        oss << "\n";
    }
    for (const SensorServingReport &sr : sensors) {
        oss << "sensor " << sr.sensor << " [" << sr.shardSpread
            << " shard" << (sr.shardSpread == 1 ? "" : "s")
            << "]: " << sr.framesDone << "/" << sr.framesIn;
        if (sr.framesShed > 0)
            oss << " (" << sr.framesShed << " shed)";
        if (sr.framesFailed > 0)
            oss << " (" << sr.framesFailed << " failed)";
        if (sr.framesDegraded > 0)
            oss << " (" << sr.framesDegraded << " degraded)";
        if (sr.generationFps > 0.0)
            oss << " | sensor " << sr.generationFps << " FPS";
        oss << " | sustained " << sr.sustainedFps << " FPS";
        oss.precision(2);
        oss << " | p99 " << sr.p99LatencySec * 1e3 << " ms";
        oss.precision(1);
        oss << " | real-time: " << realTimeVerdictName(sr.realTime)
            << "\n";
    }
    for (const BackendServingReport &br : backends) {
        oss << "backend " << br.backend << " [" << br.shards
            << " shard" << (br.shards == 1 ? "" : "s")
            << "]: " << br.framesDone << "/" << br.framesIn;
        if (br.framesFailed > 0)
            oss << " (" << br.framesFailed << " failed)";
        if (br.framesRetried > 0)
            oss << " (" << br.framesRetried << " retried)";
        if (br.framesDegraded > 0)
            oss << " (" << br.framesDegraded << " degraded)";
        if (br.offeredFps > 0.0)
            oss << " | offered " << br.offeredFps << " FPS";
        oss << " | sustained " << br.sustainedFps << " FPS";
        oss.precision(2);
        oss << " | p99 " << br.p99LatencySec * 1e3 << " ms";
        oss.precision(1);
        oss << " | real-time: " << realTimeVerdictName(br.realTime)
            << "\n";
    }
    return oss.str();
}

ServingResult
mergeShardOutcomes(const SensorStream &stream,
                   std::vector<ShardOutcome> outcomes,
                   PlacementPolicy policy)
{
    HGPCN_ASSERT(stream.frames.size() == stream.sensors.size(),
                 "frames/sensors tags out of sync");

    ServingResult out;
    ServingReport &rep = out.report;
    rep.placement = policy;
    rep.shardCount = outcomes.size();
    rep.sensorCount = stream.sensorCount;
    rep.paced = true;
    std::vector<FrameRecord> rows;
    rows.reserve(stream.size());
    for (std::size_t s = 0; s < outcomes.size(); ++s) {
        ShardOutcome &oc = outcomes[s];
        const RuntimeReport &r = oc.result.report;
        if (r.framesIn > 0)
            rep.paced = rep.paced && r.paced;
        rep.shardReports.push_back(r);
        rep.shardBackends.push_back(oc.backend);
        out.metrics.merge(oc.result.metrics);

        // Shard-local index and clock -> global index and clock.
        for (FrameRecord row : oc.result.ledger) {
            HGPCN_ASSERT(row.index < oc.globalIndex.size(), "shard ",
                         s, " frame index ", row.index,
                         " has no global mapping");
            row.index = oc.globalIndex[row.index];
            row.sensor = stream.sensors[row.index];
            row.shard = s;
            row.doneSec += oc.anchorSec;
            rows.push_back(row);
        }
        for (ProcessedFrame &pf : oc.result.frames) {
            ServedFrame sf;
            sf.globalIndex = oc.globalIndex.at(pf.index);
            sf.result = std::move(pf.result);
            out.frames.push_back(std::move(sf));
        }
    }
    out.ledger = indexLedger(std::move(rows), stream.size());
    finish(stream, out);
    return out;
}

ServingResult
mergeEpochResults(const SensorStream &stream,
                  std::vector<EpochOutcome> outcomes,
                  PlacementPolicy policy,
                  const std::vector<std::string> &shard_backends)
{
    HGPCN_ASSERT(stream.frames.size() == stream.sensors.size(),
                 "frames/sensors tags out of sync");

    ServingResult out;
    ServingReport &rep = out.report;
    rep.placement = policy;
    rep.sensorCount = stream.sensorCount;

    // Peak fleet width: every per-shard view is indexed by shard,
    // sized to the widest the fleet ever was (shard s keeps its
    // identity across reconfigurations).
    std::size_t peak = 0;
    for (const EpochOutcome &ep : outcomes) {
        peak = std::max(peak, ep.activeShards);
        peak = std::max(peak, ep.result.report.shardReports.size());
    }
    rep.shardCount = peak;
    rep.shardBackends.assign(peak, std::string());
    for (std::size_t s = 0;
         s < std::min(peak, shard_backends.size()); ++s)
        rep.shardBackends[s] = shard_backends[s];

    // The ledger: every epoch's rows (epoch-local index -> global;
    // completion times are on the global clock already, as paced
    // shard clocks anchor at absolute stamps) plus the shed frames.
    rep.paced = true;
    std::vector<FrameRecord> rows;
    rows.reserve(stream.size());
    for (EpochOutcome &ep : outcomes) {
        if (ep.result.report.framesIn > 0)
            rep.paced = rep.paced && ep.result.report.paced;
        out.metrics.merge(ep.result.metrics);
        for (FrameRecord row : ep.result.ledger) {
            HGPCN_ASSERT(row.index < ep.globalIndex.size(),
                         "epoch frame index ", row.index,
                         " has no global mapping");
            row.index = ep.globalIndex[row.index];
            row.sensor = stream.sensors[row.index];
            rows.push_back(row);
        }
        for (const std::size_t g : ep.shedGlobalIndex) {
            HGPCN_ASSERT(g < stream.size(), "shed index ", g,
                         " outside the stream");
            FrameRecord row;
            row.index = g;
            row.sensor = stream.sensors[g];
            row.outcome = FrameOutcome::Shed;
            rows.push_back(row);
        }
        for (ServedFrame &sf : ep.result.frames) {
            sf.globalIndex = ep.globalIndex.at(sf.globalIndex);
            out.frames.push_back(std::move(sf));
        }
    }
    out.ledger = indexLedger(std::move(rows), stream.size());

    // In-order delivery per sensor: a reconfigured fleet may finish
    // a sensor's later frame (new epoch, fresh shard) before an
    // earlier one still draining from the previous epoch. Delivery
    // order is the serving contract, so clamp each frame's
    // completion to its predecessor's and charge the wait to its
    // latency. Within an epoch the clamp is a no-op under sensor
    // affinity (FIFO pipelines); across epochs it is the handoff
    // serialization cost.
    std::vector<double> last_done(
        stream.sensorCount, -std::numeric_limits<double>::infinity());
    for (FrameRecord &row : out.ledger) {
        if (row.outcome != FrameOutcome::Processed)
            continue;
        if (row.doneSec < last_done[row.sensor]) {
            row.latencySec += last_done[row.sensor] - row.doneSec;
            row.doneSec = last_done[row.sensor];
        }
        last_done[row.sensor] = row.doneSec;
    }
    finish(stream, out);

    // Per-shard views: shard s aggregated across every epoch it was
    // active in. Counts sum; busy time re-normalizes over the
    // summed per-epoch makespans; the latency distribution comes
    // from the shard's own completions (post-clamp).
    rep.shardReports.assign(peak, RuntimeReport{});
    std::vector<double> shard_span(peak, 0.0);
    for (const EpochOutcome &ep : outcomes) {
        const std::vector<RuntimeReport> &ers =
            ep.result.report.shardReports;
        for (std::size_t s = 0; s < ers.size(); ++s) {
            RuntimeReport &agg = rep.shardReports[s];
            const RuntimeReport &er = ers[s];
            agg.framesIn += er.framesIn;
            agg.framesProcessed += er.framesProcessed;
            agg.framesDropped += er.framesDropped;
            agg.framesAbandoned += er.framesAbandoned;
            agg.framesFailed += er.framesFailed;
            agg.framesRetried += er.framesRetried;
            agg.framesDegraded += er.framesDegraded;
            agg.paced = rep.paced;
            agg.policy = er.policy;
            // Batch-occupancy attribution: counts sum across the
            // epochs, the configured cap and the observed peak take
            // the max, and the mean is re-derived from the summed
            // counts once every epoch is in.
            agg.configuredMaxBatch = std::max(
                agg.configuredMaxBatch, er.configuredMaxBatch);
            agg.batchCount += er.batchCount;
            agg.batchedFrames += er.batchedFrames;
            agg.soloFrames += er.soloFrames;
            agg.maxBatchSize =
                std::max(agg.maxBatchSize, er.maxBatchSize);
            shard_span[s] += er.makespanSec;
            // An epoch in which this shard served nothing reports
            // no stages; it contributes span but no busy time.
            if (er.stages.empty()) {
                continue;
            }
            if (agg.stages.empty()) {
                agg.stages = er.stages;
                for (TimelineStageStats &st : agg.stages) {
                    st.meanQueueDepth *= er.makespanSec;
                }
            } else {
                HGPCN_ASSERT(agg.stages.size() == er.stages.size(),
                             "shard ", s,
                             " stage sets differ across epochs");
                for (std::size_t st = 0; st < er.stages.size();
                     ++st) {
                    agg.stages[st].busySec +=
                        er.stages[st].busySec;
                    agg.stages[st].meanQueueDepth +=
                        er.stages[st].meanQueueDepth *
                        er.makespanSec;
                    agg.stages[st].peakQueueDepth = std::max(
                        agg.stages[st].peakQueueDepth,
                        er.stages[st].peakQueueDepth);
                }
            }
        }
    }
    std::vector<std::vector<double>> shard_lat(peak);
    for (const ServedFrame &sf : out.frames) {
        HGPCN_ASSERT(sf.shard < peak, "completed frame on shard ",
                     sf.shard, " beyond the peak fleet width ",
                     peak);
        shard_lat[sf.shard].push_back(sf.latencySec);
    }
    for (std::size_t s = 0; s < peak; ++s) {
        RuntimeReport &agg = rep.shardReports[s];
        agg.makespanSec = shard_span[s];
        agg.sustainedFps =
            shard_span[s] > 0.0
                ? static_cast<double>(agg.framesProcessed) /
                      shard_span[s]
                : 0.0;
        if (agg.batchCount > 0) {
            agg.meanBatchSize =
                static_cast<double>(agg.batchedFrames +
                                    agg.soloFrames) /
                static_cast<double>(agg.batchCount);
        }
        for (TimelineStageStats &st : agg.stages) {
            const double capacity =
                static_cast<double>(st.units) * shard_span[s];
            st.utilization =
                capacity > 0.0 ? st.busySec / capacity : 0.0;
            st.meanQueueDepth = shard_span[s] > 0.0
                                    ? st.meanQueueDepth /
                                          shard_span[s]
                                    : 0.0;
        }
        const LatencySummary lat =
            summarizeLatencies(std::move(shard_lat[s]));
        agg.meanLatencySec = lat.mean;
        agg.p50LatencySec = lat.p50;
        agg.p95LatencySec = lat.p95;
        agg.p99LatencySec = lat.p99;
        agg.maxLatencySec = lat.max;
        agg.realTime = RealTimeVerdict::NotApplicable;
    }
    return out;
}

} // namespace hgpcn
