#include "serving/sharded_runner.h"

#include <cmath>
#include <map>
#include <string>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "obs/trace.h"

namespace hgpcn
{
namespace
{

StreamRunner::Config
resolveRunnerConfig(const HgPcnSystem::Config &system,
                    const PointNet2Spec &spec,
                    StreamRunner::Config runner_cfg)
{
    // Same K resolution as HgPcnSystem: an explicit runner K wins,
    // then the spec's, then the system default.
    if (runner_cfg.inputPoints == 0) {
        runner_cfg.inputPoints = spec.inputPoints != 0
                                     ? spec.inputPoints
                                     : system.inputPoints;
    }
    return runner_cfg;
}

/** The fleet config with the shard's identity stamped on for trace
 * attribution (observability-only; see StreamRunner::Config). */
StreamRunner::Config
shardRunnerConfig(StreamRunner::Config runner_cfg, std::size_t s)
{
    runner_cfg.traceShard = static_cast<std::int64_t>(s);
    return runner_cfg;
}

} // namespace

ShardedRunner::Shard::Shard(const HgPcnSystem::Config &system,
                            const PointNet2Spec &spec,
                            const std::string &backend_name,
                            const StreamRunner::Config &runner_cfg)
    : preprocess(system.preprocess), model(spec),
      backend(makeBackend(backend_name, system.inference, model)),
      runner(preprocess, *backend, runner_cfg)
{
}

std::string
ShardedRunner::backendNameFor(std::size_t s) const
{
    if (cfg.backends.empty())
        return "hgpcn";
    return cfg.backends[s % cfg.backends.size()];
}

ShardedRunner::ShardedRunner(const HgPcnSystem::Config &system_cfg,
                             const PointNet2Spec &spec_arg,
                             const Config &config)
    : cfg(config), system(system_cfg), spec(spec_arg),
      runnerCfg(resolveRunnerConfig(system_cfg, spec_arg,
                                    config.runner))
{
    HGPCN_ASSERT(cfg.shards >= 1, "need at least one shard");
    HGPCN_ASSERT(cfg.backends.size() <= 1 ||
                     cfg.backends.size() == cfg.shards,
                 "backend list (", cfg.backends.size(),
                 ") must be empty, one name, or one per initial "
                 "shard (", cfg.shards, ")");
    fleet.reserve(cfg.shards);
    for (std::size_t s = 0; s < cfg.shards; ++s)
        fleet.push_back(std::make_unique<Shard>(
            system, spec, backendNameFor(s),
            shardRunnerConfig(runnerCfg, s)));
    active = cfg.shards;
}

void
ShardedRunner::setShardCount(std::size_t shards)
{
    HGPCN_ASSERT(shards >= 1, "need at least one shard");
    HGPCN_ASSERT(!serving.load(),
                 "setShardCount must not race a serve in progress");
    // Reactivated replicas must not inherit a stop latched while
    // they were parked (or before they were parked): clear the
    // latches of every shard entering the active prefix.
    for (std::size_t s = active; s < shards && s < fleet.size(); ++s)
        fleet[s]->stopRequested.store(false);
    while (fleet.size() < shards)
        fleet.push_back(std::make_unique<Shard>(
            system, spec, backendNameFor(fleet.size()),
            shardRunnerConfig(runnerCfg, fleet.size())));
    active = shards;
}

const ExecutionBackend &
ShardedRunner::shardBackend(std::size_t shard) const
{
    HGPCN_ASSERT(shard < active, "shard ", shard,
                 " out of range (", active, " active shards)");
    return *fleet[shard]->backend;
}

std::vector<double>
ShardedRunner::serviceEstimates() const
{
    if (cfg.assumedServiceSec > 0.0)
        return std::vector<double>(active, cfg.assumedServiceSec);
    std::vector<double> service_sec;
    service_sec.reserve(active);
    std::map<std::string, double> estimate_of;
    for (std::size_t s = 0; s < active; ++s) {
        const ExecutionBackend &backend = *fleet[s]->backend;
        auto it = estimate_of.find(backend.name());
        if (it == estimate_of.end()) {
            it = estimate_of
                     .emplace(backend.name(),
                              backend.estimateServiceSec())
                     .first;
        }
        service_sec.push_back(it->second);
    }
    return service_sec;
}

ServingResult
ShardedRunner::serve(const SensorStream &stream,
                     const ServingFrameCallback &on_frame,
                     const std::vector<bool> *degrade_sensors)
{
    HGPCN_ASSERT(!serving.exchange(true),
                 "serve() reentered while a serve is in progress");
    // Restart contract: a stop belongs to the serve it aborted.
    stopped.store(false);
    for (std::size_t s = 0; s < active; ++s)
        fleet[s]->stopRequested.store(false);
    // Breaker history belongs to one serve unless the caller opted
    // into cross-serve persistence (ElasticRunner's epochs).
    if (!cfg.persistHealth)
        healthState.clear();

    const std::size_t n_shards = active;
    std::vector<ShardOutcome> outcomes(n_shards);
    for (std::size_t s = 0; s < n_shards; ++s)
        outcomes[s].backend = fleet[s]->backend->name();
    if (stream.size() == 0) {
        ServingResult out = mergeShardOutcomes(
            stream, std::move(outcomes), cfg.placement);
        serving.store(false);
        return out;
    }

    // Dispatch: deterministic placement over the tagged stream.
    // LeastLoaded retires each shard's modeled backlog at that
    // shard's own service estimate, so join-shortest-queue stops
    // assuming homogeneous shards; the fault layer's deadline
    // arithmetic needs the same estimates. Other serves skip the
    // probe.
    const bool faulted =
        cfg.faultPlan != nullptr && !cfg.faultPlan->empty();
    std::vector<double> service_sec;
    if (cfg.placement == PlacementPolicy::LeastLoaded || faulted)
        service_sec = serviceEstimates();
    std::vector<std::size_t> assignment = assignShards(
        stream, n_shards, cfg.placement, service_sec);

    // Fault resolution (dispatch time, virtual clock): route around
    // crashed/tripped shards and fix every frame's retry/backoff/
    // degradation outcome before any functional work runs — the
    // wall-clock run then merely executes a schedule that is
    // already deterministic. Skipped entirely for an empty plan, so
    // the zero-fault serve is byte-identical to a pre-fault build.
    std::vector<FrameFaultDirective> directives;
    bool have_directives = false;
    MetricsRegistry fault_metrics;
    if (faulted) {
        std::vector<std::string> backend_names;
        backend_names.reserve(n_shards);
        for (std::size_t s = 0; s < n_shards; ++s)
            backend_names.push_back(fleet[s]->backend->name());
        FaultResolution res = resolveFaultSchedule(
            stream, assignment, backend_names, service_sec,
            *cfg.faultPlan, cfg.faultTolerance, healthState);
        assignment = std::move(res.assignment);
        directives = std::move(res.directives);
        have_directives = true;
        fault_metrics.counter("fault.failovers")
            .add(res.failovers.size());
        fault_metrics.counter("fault.frames_redirected")
            .add(res.framesRedirected);
        // Trace snapshots sort canonically, so each transition's
        // counter can be emitted where it is tallied.
        std::size_t trips = 0;
        for (const BreakerTransition &tr : res.transitions) {
            if (tr.to == BreakerState::Open)
                ++trips;
            HGPCN_TRACE_EVENT(Tracer::global().counter(
                TraceClock::Virtual, tr.timeSec,
                "breaker:shard" + std::to_string(tr.shard),
                "serving/health", breakerStateGauge(tr.to)));
        }
        fault_metrics.counter("fault.breaker_trips").add(trips);
        if (HGPCN_TRACE_ENABLED()) {
            for (const FailoverEvent &ev : res.failovers) {
                TraceIds ids;
                ids.sensor = static_cast<std::int64_t>(ev.sensor);
                ids.shard = static_cast<std::int64_t>(ev.toShard);
                HGPCN_TRACE_EVENT(Tracer::global().instant(
                    TraceClock::Virtual, ev.timeSec,
                    "failover:shard" + std::to_string(ev.toShard),
                    "fault", "serving/failover", ids));
            }
        }
    }
    // Admission-driven degradation (degrade-instead-of-shed):
    // flagged sensors keep serving, at reduced fidelity.
    if (degrade_sensors != nullptr) {
        HGPCN_ASSERT(degrade_sensors->size() == stream.sensorCount,
                     "degrade_sensors must have one flag per "
                     "sensor: ",
                     degrade_sensors->size(), " vs ",
                     stream.sensorCount);
        if (!have_directives)
            directives.assign(stream.size(), FrameFaultDirective{});
        have_directives = true;
        for (std::size_t i = 0; i < stream.size(); ++i) {
            if ((*degrade_sensors)[stream.sensors[i]] &&
                !directives[i].failed)
                directives[i].degraded = true;
        }
    }
    if (have_directives) {
        const double frac =
            cfg.faultTolerance.degradedSampleFraction;
        const auto degraded_k = static_cast<std::size_t>(std::max(
            1.0,
            std::floor(static_cast<double>(runnerCfg.inputPoints) *
                           frac +
                       0.5)));
        for (FrameFaultDirective &d : directives) {
            if (d.degraded && d.samplePoints == 0)
                d.samplePoints = degraded_k;
        }
    }

    // Every shard also gets its sub-stream's fleet-level frame and
    // sensor ids: they make shard spans and ledger rows attributable
    // without the globalIndex mapping.
    std::vector<std::vector<Frame>> sub(n_shards);
    std::vector<StreamTraceIds> trace_ids(n_shards);
    std::vector<std::vector<FrameFaultDirective>> shard_faults(
        n_shards);
    for (std::size_t i = 0; i < stream.size(); ++i) {
        const std::size_t s = assignment[i];
        sub[s].push_back(stream.frames[i]);
        outcomes[s].globalIndex.push_back(i);
        trace_ids[s].frame.push_back(static_cast<std::int64_t>(i));
        trace_ids[s].sensor.push_back(
            static_cast<std::int64_t>(stream.sensors[i]));
        if (have_directives)
            shard_faults[s].push_back(directives[i]);
    }

    // Trace the placement decisions (virtual clock, at the frame's
    // capture time — deterministic payload).
    if (HGPCN_TRACE_ENABLED()) {
        for (std::size_t i = 0; i < stream.size(); ++i) {
            TraceIds ids;
            ids.frame = static_cast<std::int64_t>(i);
            ids.sensor =
                static_cast<std::int64_t>(stream.sensors[i]);
            ids.shard = static_cast<std::int64_t>(assignment[i]);
            HGPCN_TRACE_EVENT(Tracer::global().instant(
                TraceClock::Virtual, stream.frames[i].timestamp,
                "place:shard" + std::to_string(assignment[i]),
                "placement", "serving/placement", ids));
        }
    }

    // Execute: every shard drains its sub-stream on its own
    // thread, concurrently with the others. Stops (fleet-wide or
    // per-shard) are re-asserted through the per-frame hook so a
    // shard that enters run() after the stop — run() resets the
    // runner's own flag — still truncates at its first emission
    // instead of resurrecting a stopped serve.
    std::vector<std::thread> threads;
    threads.reserve(n_shards);
    for (std::size_t s = 0; s < n_shards; ++s) {
        threads.emplace_back([this, s, &sub, &outcomes, &on_frame,
                              &trace_ids, &shard_faults,
                              have_directives] {
            Shard &shard = *fleet[s];
            if (stopped.load() || shard.stopRequested.load()) {
                RuntimeResult &r = outcomes[s].result;
                r.report.framesIn = sub[s].size();
                r.report.framesAbandoned = sub[s].size();
                r.report.paced = shard.runner.config().paceBySensor;
                r.ledger.resize(sub[s].size());
                for (std::size_t i = 0; i < sub[s].size(); ++i) {
                    r.ledger[i].index = i;
                    r.ledger[i].outcome = FrameOutcome::Abandoned;
                }
                return;
            }
            const FrameTaskCallback hook =
                [this, s, &shard, &on_frame](const FrameTask &task) {
                    if (on_frame)
                        on_frame(s, task);
                    if (stopped.load() ||
                        shard.stopRequested.load())
                        shard.runner.requestStop();
                };
            outcomes[s].result = shard.runner.run(
                sub[s], hook, &trace_ids[s],
                have_directives ? &shard_faults[s] : nullptr);
        });
    }
    for (std::thread &t : threads)
        t.join();

    // Re-anchor each shard clock for the merge: a paced shard's
    // virtual time starts at its first admitted frame.
    for (std::size_t s = 0; s < n_shards; ++s) {
        outcomes[s].anchorSec =
            outcomes[s].result.report.paced && !sub[s].empty()
                ? sub[s].front().timestamp
                : 0.0;
    }
    ServingResult out = mergeShardOutcomes(
        stream, std::move(outcomes), cfg.placement);
    if (faulted)
        out.metrics.merge(fault_metrics.snapshot());
    serving.store(false);
    return out;
}

void
ShardedRunner::resetHealth()
{
    HGPCN_ASSERT(!serving.load(),
                 "resetHealth must not race a serve in progress");
    healthState.clear();
}

void
ShardedRunner::requestStop()
{
    stopped.store(true);
    // Over the active prefix only: parked shards are idle by
    // construction, and their latches are cleared on reactivation.
    for (std::size_t s = 0; s < active; ++s)
        fleet[s]->runner.requestStop();
}

void
ShardedRunner::requestStopShard(std::size_t shard)
{
    HGPCN_ASSERT(shard < active, "shard ", shard,
                 " out of range (", active, " active shards)");
    fleet[shard]->stopRequested.store(true);
    fleet[shard]->runner.requestStop();
}

} // namespace hgpcn
