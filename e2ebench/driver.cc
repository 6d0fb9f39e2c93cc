/**
 * @file
 * hgpcn_e2e: the measuring half of the end-to-end host benchmark.
 *
 * Drives one workload (lidar-stream, object-latency, drive-fleet)
 * through the library's public entry points only — HgPcnSystem,
 * StreamRunner, ShardedRunner, PreprocessingEngine::{buildStage,
 * sampleStage}, ExecutionBackend::infer and
 * InferenceEngine::timeOutput — timing every call from outside with
 * std::chrono::steady_clock. Inputs come from the dataset generators
 * seeded by --seed; generation is never timed.
 *
 * Every frame the program processes is checked against an oracle: a
 * solo, carry-free HgPcnSystem::processFrame of the same frame on a
 * separate system, computed before the timed region. Labels and the
 * modeled seconds of each layer must match bit for bit; a mismatch
 * counts as a failed frame.
 *
 * The program prints one JSON object of raw samples (per-frame wall
 * times, per-serve wall times, spans, counts) on stdout. run.py turns
 * the samples into metrics; the statistics live there so they can be
 * unit-tested without a build.
 *
 * Usage: hgpcn_e2e --workload <name> --seed <n> --seconds <s>
 *                  [--trace 0|1] [--digest]
 *   --trace 1   the per-layer pass: spans around each layer call
 *   --digest    print a hash of the generated inputs and exit
 */

#include <malloc.h>
#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/frame_workspace.h"
#include "core/hgpcn_system.h"
#include "core/temporal_preprocess.h"
#include "datasets/coherent_drive.h"
#include "datasets/kitti_like.h"
#include "datasets/modelnet_like.h"
#include "datasets/sensor_stream.h"
#include "runtime/stream_runner.h"
#include "serving/sharded_runner.h"

namespace hgpcn
{
namespace
{

// ---------------------------------------------------------------- clocks

using Clock = std::chrono::steady_clock;
const Clock::time_point kEpoch = Clock::now();

/** Seconds since program start. */
double
now()
{
    return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

/** Generator seed for stream @p stream of a benchmark seed. */
std::uint64_t
deriveSeed(std::uint64_t seed, std::uint64_t stream)
{
    return splitmix64(splitmix64(seed) ^ (stream + 1));
}

// ---------------------------------------------------------------- json

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
numList(const std::vector<double> &vs)
{
    std::string s = "[";
    for (std::size_t i = 0; i < vs.size(); ++i) {
        if (i != 0)
            s += ",";
        s += num(vs[i]);
    }
    return s + "]";
}

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

/** Ordered key/value writer for one JSON object. */
class JsonObject
{
  public:
    void
    raw(const std::string &key, const std::string &value)
    {
        if (!body.empty())
            body += ',';
        body += quoted(key);
        body += ':';
        body += value;
    }
    void number(const std::string &key, double v) { raw(key, num(v)); }
    void text(const std::string &key, const std::string &v)
    {
        raw(key, quoted(v));
    }
    void list(const std::string &key, const std::vector<double> &vs)
    {
        raw(key, numList(vs));
    }
    std::string str() const { return "{" + body + "}"; }

  private:
    std::string body;
};

// ---------------------------------------------------------------- stamp

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(" \t",
                                                          colon + 1));
        }
    }
    return "unknown";
}

std::string
stampJson()
{
    JsonObject o;
    o.text("cpu", cpuModel());
    o.number("nproc", std::thread::hardware_concurrency());
    o.text("compiler", E2E_COMPILER);
    o.text("build_type", E2E_BUILD_TYPE);
    o.text("cxx_flags", E2E_CXX_FLAGS);
    return o.str();
}

/** Resident-set high-water mark in MiB: VmHWM, which
 * resetRssHighWater() restarts; the lifetime maximum from getrusage
 * where /proc is unavailable. */
double
rssHighWaterMiB()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** Return freed heap to the system, then restart the high-water mark
 * at the current RSS (Linux >= 4.0), so each timed serve reports its
 * own peak over the memory live when it starts — not over whatever
 * the allocator kept from earlier serves. */
void
resetRssHighWater()
{
    malloc_trim(0);
    std::ofstream("/proc/self/clear_refs") << "5";
}

// ---------------------------------------------------------------- oracle

/** What a solo, carry-free processFrame produced for one frame. */
struct Expected
{
    std::vector<std::size_t> labels;
    double buildSec = 0, sampleSec = 0, dsSec = 0, fcSec = 0, e2eSec = 0;
    double tableBytes = 0, macs = 0, distances = 0, sortCandidates = 0;
};

Expected
expectedOf(const E2eResult &r)
{
    Expected e;
    e.labels = r.inference.output.labels;
    e.buildSec = r.preprocess.octreeBuildSec;
    e.sampleSec = r.preprocess.dsu.totalSec();
    e.dsSec = r.inference.dsSec;
    e.fcSec = r.inference.fcSec;
    e.e2eSec = r.totalSec();
    e.tableBytes = static_cast<double>(r.preprocess.octreeTableBytes);
    const ExecutionTrace &t = r.inference.output.trace;
    e.macs = static_cast<double>(t.totalMacs());
    e.distances = static_cast<double>(t.totalGatherDistances());
    e.sortCandidates = static_cast<double>(t.totalSortCandidates());
    return e;
}

/** Oracle outputs for a fixed set of distinct frames, and the tally of
 * frames checked against them. */
class Oracle
{
  public:
    /** Compute the oracle for @p frames on a fresh system (untimed). */
    Oracle(const HgPcnSystem::Config &config, const PointNet2Spec &spec,
           const std::vector<const PointCloud *> &frames)
    {
        const HgPcnSystem solo(config, spec);
        for (const PointCloud *f : frames)
            expected.push_back(expectedOf(solo.processFrame(*f)));
    }

    /** Check one processed frame against distinct frame @p id;
     * @p agrees carries any further check the caller made. */
    void
    check(std::size_t id, const E2eResult &r, bool agrees = true)
    {
        ++checkedFrames;
        const Expected &e = expected.at(id);
        const bool ok =
            agrees && r.inference.status == InferenceStatus::Ok &&
            r.inference.output.labels == e.labels &&
            r.preprocess.octreeBuildSec == e.buildSec &&
            r.preprocess.dsu.totalSec() == e.sampleSec &&
            r.inference.dsSec == e.dsSec && r.inference.fcSec == e.fcSec;
        if (!ok)
            ++mismatchedFrames;
    }

    /** Frames offered to the program that never came back. */
    void missing(std::size_t n) { missingFrames += n; }

    std::size_t checked() const { return checkedFrames; }
    std::size_t failed() const { return mismatchedFrames + missingFrames; }

    /** Per distinct frame: modeled seconds and counts. */
    std::string
    framesJson() const
    {
        std::string s = "[";
        for (std::size_t i = 0; i < expected.size(); ++i) {
            const Expected &e = expected[i];
            JsonObject o;
            o.number("octree_modeled_s", e.buildSec);
            o.number("sampling_modeled_s", e.sampleSec);
            o.number("gather_modeled_s", e.dsSec);
            o.number("nn_modeled_s", e.fcSec);
            o.number("e2e_modeled_s", e.e2eSec);
            o.number("table_bytes", e.tableBytes);
            o.number("macs", e.macs);
            o.number("distances", e.distances);
            o.number("sort_candidates", e.sortCandidates);
            if (i != 0)
                s += ',';
            s += o.str();
        }
        return s + "]";
    }

  private:
    std::vector<Expected> expected;
    std::size_t checkedFrames = 0;
    std::size_t mismatchedFrames = 0;
    std::size_t missingFrames = 0;
};

// ---------------------------------------------------------------- tracing

/** One in-memory span; children share their frame span's id. */
struct Span
{
    const char *name;
    std::int64_t frame;
    double start;
    double end;
};

/** Wall seconds of one replayed frame, by layer. */
struct FrameWalls
{
    double frame = 0, octree = 0, sampling = 0, nn = 0, sim = 0;
    double macs = 0;
    /** The extra cycle-model pass reproduced the frame's modeled
     * inference seconds. */
    bool simAgrees = true;
};

/**
 * One frame through the layer calls processFrame makes, in the same
 * order, with @p carry standing in for a runner's temporal cache.
 * When @p spans is non-null every call is wrapped in a span parented
 * by the frame span; the cycle models are then re-run once more via
 * timeOutput (outside the frame span) to time their host cost.
 */
E2eResult
replayFrame(const HgPcnSystem &sys, const PointCloud &raw,
            TemporalPreprocessState *carry, FrameWorkspace &ws,
            std::int64_t frame_id, std::vector<Span> *spans,
            FrameWalls &walls)
{
    E2eResult r;
    const double t0 = now();
    r.preprocess = sys.preprocessor().buildStage(raw, carry);
    const double t1 = now();
    sys.preprocessor().sampleStage(r.preprocess, sys.config().inputPoints);
    const double t2 = now();
    PointCloud input = r.preprocess.sampled;
    input.normalizeToUnitCube();
    const double t3 = now();
    r.inference = sys.backend().infer(input, &ws);
    const double t4 = now();
    walls = FrameWalls{t4 - t0, t1 - t0, t2 - t1, t4 - t3, 0.0, 0.0};
    walls.macs = static_cast<double>(r.inference.output.trace.totalMacs());
    if (spans == nullptr)
        return r;
    RunOutput copy = r.inference.output;
    const double t5 = now();
    const InferenceResult timed = sys.inferencer().timeOutput(std::move(copy));
    const double t6 = now();
    walls.sim = t6 - t5;
    walls.simAgrees = timed.dsu.pipelinedSec == r.inference.dsSec &&
                      timed.fcu.totalSec() == r.inference.fcSec;
    spans->push_back({"frame", frame_id, t0, t4});
    spans->push_back({"octree", frame_id, t0, t1});
    spans->push_back({"sampling", frame_id, t1, t2});
    spans->push_back({"nn", frame_id, t3, t4});
    spans->push_back({"sim", frame_id, t5, t6});
    return r;
}

/** Cumulative temporal-cache counters of one or more carries. */
TemporalPreprocessState::Stats
sumStats(const std::vector<const TemporalPreprocessState *> &cs)
{
    TemporalPreprocessState::Stats total;
    for (const TemporalPreprocessState *c : cs) {
        const TemporalPreprocessState::Stats s = c->stats();
        total.frames += s.frames;
        total.octreeHits += s.octreeHits;
        total.octreeMisses += s.octreeMisses;
        total.nodesReused += s.nodesReused;
        total.nodesErected += s.nodesErected;
        total.knnIncremental += s.knnIncremental;
        total.knnScratch += s.knnScratch;
    }
    return total;
}

std::string
statsJson(const TemporalPreprocessState::Stats &s)
{
    JsonObject o;
    o.number("frames", static_cast<double>(s.frames));
    o.number("octree_hits", static_cast<double>(s.octreeHits));
    o.number("nodes_reused", static_cast<double>(s.nodesReused));
    o.number("nodes_erected", static_cast<double>(s.nodesErected));
    o.number("knn_incremental", static_cast<double>(s.knnIncremental));
    o.number("knn_scratch", static_cast<double>(s.knnScratch));
    return o.str();
}

std::unique_ptr<TemporalPreprocessState>
makeCarry(const HgPcnSystem &sys)
{
    TemporalPreprocessState::Config tc;
    tc.octree = sys.preprocessor().config().octree;
    return std::make_unique<TemporalPreprocessState>(tc);
}

/** Samples a traced pass gathers; turned into JSON at exit. */
struct TraceLog
{
    std::vector<Span> spans;
    std::vector<FrameWalls> traced;     //!< per replayed frame
    std::vector<double> untracedFrameS; //!< comparator arm, per frame
    std::string temporal = "{}";        //!< first replay pass only
    std::vector<double> shardFrames;    //!< frames per shard, one serve
    std::vector<double> serveFps;       //!< untraced serves in the pass

    std::string
    json() const
    {
        std::string s = "[";
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span &sp = spans[i];
            s += i == 0 ? "[" : ",[";
            s += quoted(sp.name);
            for (const std::string &field :
                 {std::to_string(sp.frame), num(sp.start * 1e6),
                  num(sp.end * 1e6)}) {
                s += ',';
                s += field;
            }
            s += ']';
        }
        s += "]";
        std::vector<double> cols[6];
        for (const FrameWalls &w : traced) {
            cols[0].push_back(w.frame);
            cols[1].push_back(w.octree);
            cols[2].push_back(w.sampling);
            cols[3].push_back(w.nn);
            cols[4].push_back(w.sim);
            cols[5].push_back(w.macs);
        }
        JsonObject o;
        o.raw("spans", s);
        o.list("frame_s", cols[0]);
        o.list("octree_s", cols[1]);
        o.list("sampling_s", cols[2]);
        o.list("nn_s", cols[3]);
        o.list("sim_s", cols[4]);
        o.list("macs", cols[5]);
        o.list("untraced_frame_s", untracedFrameS);
        o.raw("temporal", temporal);
        o.list("shard_frames", shardFrames);
        o.list("serve_fps", serveFps);
        return o.str();
    }
};

// ---------------------------------------------------------------- results

/** Everything one run reports, as raw samples. */
struct RunLog
{
    std::vector<double> setupS;
    /** Frame latencies: closed-loop processFrame wall time, or for a
     * stream, serve start (every frame is admitted then) to delivery
     * through the per-frame hook. */
    std::vector<double> frameS;
    std::vector<double> peakRssMiB; //!< RSS high-water per timed serve
    double framesTimed = 0;
    double wallTimed = 0;
    double modeledFps = 0;
    /** Serves whose modeled throughput differed from the first's:
     * host work must never move the virtual clock. */
    std::size_t modeledDrift = 0;
    std::size_t offered = 0;
    std::string inputs = "{}";
    std::unique_ptr<Oracle> oracle;
    TraceLog trace;
    bool traced = false;

    void
    noteModeledFps(double fps)
    {
        if (modeledFps != 0 && fps != modeledFps)
            ++modeledDrift;
        modeledFps = fps;
    }
};

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool digest = false;
};

/** FNV-1a over the bytes of generated frames. */
class Digest
{
  public:
    void
    bytes(const void *p, std::size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i)
            h = (h ^ b[i]) * 0x100000001B3ull;
    }
    void
    frame(const Frame &f)
    {
        bytes(f.cloud.positions().data(),
              f.cloud.positions().size() * sizeof(Vec3));
        bytes(f.labels.data(), f.labels.size() * sizeof(int));
        bytes(&f.timestamp, sizeof f.timestamp);
    }
    std::uint64_t value() const { return h; }

  private:
    std::uint64_t h = 0xCBF29CE484222325ull;
};

/** Median of @p setup_reps set-up times; the last instance is kept. */
template <class Make>
auto
timedSetup(int setup_reps, RunLog &log, Make make)
{
    decltype(make()) kept;
    for (int i = 0; i < setup_reps; ++i) {
        kept.reset();
        const double t0 = now();
        kept = make();
        log.setupS.push_back(now() - t0);
    }
    return kept;
}

constexpr int kSetupReps = 7;

/** Latency samples per untraced run: a p90 then has ten beyond it. */
constexpr std::size_t kMinLatencySamples = 100;

/**
 * Book one serve of a stream workload: count its frames, check that
 * its modeled throughput matches every other serve's and, when timed,
 * keep its wall time, its memory peak and each frame's delivery
 * latency (@p done, absolute, against the serve's start @p t0).
 * @return the serve's frames per second.
 */
double
bookServe(RunLog &log, bool timed, double t0, double wall,
          const std::vector<double> &done, std::size_t offered,
          std::size_t delivered, double modeled_fps)
{
    log.oracle->missing(offered - delivered);
    log.offered += offered;
    log.noteModeledFps(modeled_fps);
    if (timed) {
        log.peakRssMiB.push_back(rssHighWaterMiB());
        for (const double t : done)
            log.frameS.push_back(t - t0);
        log.framesTimed += static_cast<double>(delivered);
        log.wallTimed += wall;
    }
    return static_cast<double>(delivered) / wall;
}

/** One frame of a stream replay: which frame, through which carry. */
struct ReplayStep
{
    std::size_t frame;
    TemporalPreprocessState *carry;
};

/**
 * The traced pass of a stream workload. Until @p t_end: replay
 * @p order — the runner's admission order, each frame through its
 * runner's carry — once traced and once untraced, then @p serve once,
 * untraced, for the throughput behind runtime.overlap_x. The temporal
 * counters cover the first traced replay only, so they repeat exactly.
 */
template <class Serve>
void
traceStream(const HgPcnSystem &sys,
            const std::vector<const PointCloud *> &clouds,
            const std::vector<ReplayStep> &order,
            const std::vector<const TemporalPreprocessState *> &carries,
            double t_end, RunLog &log, Serve serve)
{
    log.traced = true;
    FrameWorkspace ws;
    std::int64_t next_id = 0;
    bool first = true;
    do {
        for (const bool traced : {true, false}) {
            for (const ReplayStep &step : order) {
                FrameWalls w;
                const E2eResult r = replayFrame(
                    sys, *clouds[step.frame], step.carry, ws, next_id++,
                    traced ? &log.trace.spans : nullptr, w);
                log.oracle->check(step.frame, r, w.simAgrees);
                log.offered += 1;
                if (traced)
                    log.trace.traced.push_back(w);
                else
                    log.trace.untracedFrameS.push_back(w.frame);
            }
            if (first) {
                log.trace.temporal = statsJson(sumStats(carries));
                first = false;
            }
        }
        log.trace.serveFps.push_back(serve(false));
    } while (now() < t_end);
}

// ------------------------------------------------------- lidar-stream

constexpr std::size_t kLidarPool = 12;

std::vector<Frame>
lidarFrames(std::uint64_t seed)
{
    KittiLike::Config kc;
    kc.seed = deriveSeed(seed, 0);
    const KittiLike gen(kc);
    std::vector<Frame> frames;
    for (std::size_t i = 0; i < kLidarPool; ++i)
        frames.push_back(gen.generate(i));
    return frames;
}

StreamRunner::Config
lidarRunnerConfig()
{
    StreamRunner::Config rc;
    rc.inputPoints = 4096;
    rc.buildWorkers = 2;
    rc.fpgaUnits = 1;
    rc.intraOpThreads = 1;
    rc.paceBySensor = false;
    return rc;
}

/** A system and the runner borrowing it. */
struct StreamRig
{
    std::unique_ptr<HgPcnSystem> sys;
    std::unique_ptr<StreamRunner> runner;
};

void
runLidarStream(const Args &args, RunLog &log)
{
    const std::vector<Frame> frames = lidarFrames(args.seed);
    const HgPcnSystem::Config sc;
    const PointNet2Spec spec = PointNet2Spec::semanticSegmentation();
    std::vector<const PointCloud *> clouds;
    double raw_points = 0;
    for (const Frame &f : frames) {
        clouds.push_back(&f.cloud);
        raw_points += static_cast<double>(f.cloud.size());
    }
    JsonObject in;
    in.number("frames_per_serve", kLidarPool);
    in.number("mean_raw_points", raw_points / kLidarPool);
    in.number("k", 4096);
    log.inputs = in.str();

    auto rig = timedSetup(kSetupReps, log, [&] {
        auto r = std::make_unique<StreamRig>();
        r->sys = std::make_unique<HgPcnSystem>(sc, spec);
        r->runner = std::make_unique<StreamRunner>(
            r->sys->preprocessor(), r->sys->backend(), lidarRunnerConfig());
        r->runner->run({frames.front()});
        return r;
    });
    log.oracle = std::make_unique<Oracle>(sc, spec, clouds);

    // One serve of the pool; every frame checked.
    auto serve = [&](bool timed) {
        std::vector<double> done;
        done.reserve(frames.size());
        resetRssHighWater();
        const double t0 = now();
        RuntimeResult res = rig->runner->run(
            frames, [&](const FrameTask &) { done.push_back(now()); });
        const double wall = now() - t0;
        for (const ProcessedFrame &pf : res.frames)
            log.oracle->check(pf.index, pf.result);
        return bookServe(log, timed, t0, wall, done, frames.size(),
                         res.frames.size(), res.report.sustainedFps);
    };

    serve(false); // warm-up pass
    const double t_end = now() + args.seconds;
    if (!args.trace) {
        while (now() < t_end || log.frameS.size() < kMinLatencySamples)
            serve(true);
        return;
    }

    // Traced pass: the runner holds one carry, so the replay does too.
    auto carry = makeCarry(*rig->sys);
    std::vector<ReplayStep> order;
    for (std::size_t i = 0; i < frames.size(); ++i)
        order.push_back({i, carry.get()});
    log.trace.shardFrames = {static_cast<double>(frames.size())};
    traceStream(*rig->sys, clouds, order, {carry.get()}, t_end, log, serve);
}

// ----------------------------------------------------- object-latency

constexpr std::size_t kObjectPoints = 500000;

std::vector<Frame>
objectFrames(std::uint64_t seed)
{
    std::vector<Frame> frames;
    const auto &names = ModelNetLike::objectNames();
    for (std::size_t i = 0; i < names.size(); ++i) {
        ModelNetLike::Config mc;
        mc.points = kObjectPoints;
        mc.seed = deriveSeed(seed, i);
        frames.push_back(ModelNetLike::generate(names[i], mc));
    }
    return frames;
}

void
runObjectLatency(const Args &args, RunLog &log)
{
    const std::vector<Frame> frames = objectFrames(args.seed);
    const HgPcnSystem::Config sc;
    const PointNet2Spec spec = PointNet2Spec::classification();
    std::vector<const PointCloud *> clouds;
    for (const Frame &f : frames)
        clouds.push_back(&f.cloud);
    JsonObject in;
    in.number("shapes", static_cast<double>(frames.size()));
    in.number("raw_points", kObjectPoints);
    in.number("k", 1024);
    log.inputs = in.str();

    auto sys = timedSetup(kSetupReps, log, [&] {
        auto s = std::make_unique<HgPcnSystem>(sc, spec);
        s->processFrame(frames.front().cloud);
        return s;
    });
    log.oracle = std::make_unique<Oracle>(sc, spec, clouds);
    Oracle &oracle = *log.oracle;

    for (const Frame &f : frames) // warm-up pass
        sys->processFrame(f.cloud);

    // Closed loop: one frame at a time, whole rounds over the shapes,
    // at least kMinLatencySamples frames so the p90 has ten beyond it.
    auto solo = [&](std::size_t i) {
        const double t0 = now();
        const E2eResult r = sys->processFrame(frames[i].cloud);
        const double dt = now() - t0;
        oracle.check(i, r);
        log.offered += 1;
        return std::pair<double, double>(dt, r.totalSec());
    };

    const double t_end = now() + args.seconds;
    if (!args.trace) {
        double modeled = 0;
        do {
            resetRssHighWater();
            for (std::size_t i = 0; i < frames.size(); ++i) {
                const auto [dt, m] = solo(i);
                log.frameS.push_back(dt);
                modeled += m;
            }
            log.peakRssMiB.push_back(rssHighWaterMiB());
        } while (now() < t_end || log.frameS.size() < kMinLatencySamples);
        log.framesTimed = static_cast<double>(log.frameS.size());
        for (const double s : log.frameS)
            log.wallTimed += s;
        log.modeledFps = log.framesTimed / modeled;
        return;
    }

    // Traced pass: each shape once through the traced layer calls,
    // then once through untraced processFrame (the overhead arm).
    log.traced = true;
    FrameWorkspace ws;
    std::int64_t next_id = 0;
    double modeled_total = 0;
    do {
        for (std::size_t i = 0; i < frames.size(); ++i) {
            FrameWalls w;
            {
                // Released before the untraced arm runs, so both arms
                // allocate from the same heap state.
                const E2eResult r =
                    replayFrame(*sys, frames[i].cloud, nullptr, ws,
                                next_id++, &log.trace.spans, w);
                oracle.check(i, r, w.simAgrees);
            }
            log.offered += 1;
            log.trace.traced.push_back(w);
            const auto [dt, m] = solo(i);
            log.trace.untracedFrameS.push_back(dt);
            modeled_total += m;
        }
    } while (now() < t_end);
    double total = 0;
    for (const double s : log.trace.untracedFrameS)
        total += s;
    log.modeledFps = static_cast<double>(log.trace.untracedFrameS.size()) /
                     modeled_total;
    log.trace.serveFps = {
        static_cast<double>(log.trace.untracedFrameS.size()) / total};
    log.trace.shardFrames = {
        static_cast<double>(log.trace.untracedFrameS.size())};
}

// -------------------------------------------------------- drive-fleet

constexpr std::size_t kSensors = 4;
constexpr std::size_t kFramesPerSensor = 8;
constexpr std::size_t kDrivePoints = 100000;

SensorStream
driveStream(std::uint64_t seed, std::size_t frames_per_sensor)
{
    std::vector<std::vector<Frame>> per_sensor(kSensors);
    for (std::size_t s = 0; s < kSensors; ++s) {
        CoherentDrive::Config dc;
        dc.points = kDrivePoints;
        dc.churnFraction = 0.01;
        dc.seed = deriveSeed(seed, s);
        const CoherentDrive gen(dc);
        for (std::size_t i = 0; i < frames_per_sensor; ++i) {
            Frame f = gen.generate(i);
            // Phase-offset stamps keep the merged order total.
            f.timestamp += static_cast<double>(s) /
                           (static_cast<double>(kSensors) * dc.frameRateHz);
            per_sensor[s].push_back(std::move(f));
        }
    }
    return mergeSensorStreams(std::move(per_sensor));
}

ShardedRunner::Config
fleetConfig()
{
    ShardedRunner::Config fc;
    fc.shards = 2;
    fc.placement = PlacementPolicy::HashBySensor;
    fc.runner.buildWorkers = 1;
    fc.runner.fpgaUnits = 1;
    fc.runner.intraOpThreads = 1;
    fc.runner.paceBySensor = false;
    return fc;
}

void
runDriveFleet(const Args &args, RunLog &log)
{
    const SensorStream stream = driveStream(args.seed, kFramesPerSensor);
    const SensorStream first = driveStream(args.seed, 1);
    if (stream.rejectedFrames != 0 || stream.size() != kSensors * kFramesPerSensor)
        fatal("drive-fleet: malformed generated stream");
    const HgPcnSystem::Config sc;
    const PointNet2Spec spec = PointNet2Spec::edgeClassification();
    std::vector<const PointCloud *> clouds;
    for (const Frame &f : stream.frames)
        clouds.push_back(&f.cloud);
    JsonObject in;
    in.number("sensors", kSensors);
    in.number("frames_per_serve", static_cast<double>(stream.size()));
    in.number("raw_points", kDrivePoints);
    in.number("k", 256);
    log.inputs = in.str();

    auto fleet = timedSetup(kSetupReps, log, [&] {
        auto f = std::make_unique<ShardedRunner>(sc, spec, fleetConfig());
        f->serve(first);
        return f;
    });
    log.oracle = std::make_unique<Oracle>(sc, spec, clouds);

    std::vector<std::size_t> shard_of(stream.size(), 0);
    auto serve = [&](bool timed) {
        std::mutex mu;
        std::vector<double> done;
        done.reserve(stream.size());
        resetRssHighWater();
        const double t0 = now();
        ServingResult res =
            fleet->serve(stream, [&](std::size_t, const FrameTask &) {
                const double t = now();
                const std::lock_guard<std::mutex> lock(mu);
                done.push_back(t);
            });
        const double wall = now() - t0;
        for (const ServedFrame &sf : res.frames) {
            log.oracle->check(sf.globalIndex, sf.result);
            shard_of[sf.globalIndex] = sf.shard;
        }
        return bookServe(log, timed, t0, wall, done, stream.size(),
                         res.frames.size(), res.report.sustainedFps);
    };

    serve(false); // warm-up pass; also records each frame's shard
    const double t_end = now() + args.seconds;
    if (!args.trace) {
        while (now() < t_end || log.frameS.size() < kMinLatencySamples)
            serve(true);
        return;
    }

    // Traced pass: replay each shard's frames in its admission order
    // (stream order within the shard) with one carry per shard, as the
    // runners hold, so the reuse interleaved sensors allow is measured
    // from outside.
    const std::size_t shards = fleet->shardCount();
    log.trace.shardFrames.assign(shards, 0.0);
    for (const std::size_t s : shard_of)
        log.trace.shardFrames.at(s) += 1.0;
    const HgPcnSystem sys(sc, spec);
    std::vector<std::unique_ptr<TemporalPreprocessState>> carries;
    std::vector<const TemporalPreprocessState *> carry_views;
    for (std::size_t s = 0; s < shards; ++s) {
        carries.push_back(makeCarry(sys));
        carry_views.push_back(carries.back().get());
    }
    std::vector<ReplayStep> order;
    for (std::size_t s = 0; s < shards; ++s) {
        for (std::size_t i = 0; i < stream.size(); ++i) {
            if (shard_of[i] == s)
                order.push_back({i, carries[s].get()});
        }
    }
    traceStream(sys, clouds, order, carry_views, t_end, log, serve);
}

// ------------------------------------------------------------- main

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "hgpcn_e2e: %s\nusage: hgpcn_e2e --workload "
                 "lidar-stream|object-latency|drive-fleet --seed <n> "
                 "--seconds <s> [--trace 0|1] [--digest]\n",
                 msg);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (key == "--digest") {
            a.digest = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + key).c_str());
        const std::string val = argv[++i];
        char *end = nullptr;
        if (key == "--workload") {
            a.workload = val;
        } else if (key == "--seed") {
            a.seed = std::strtoull(val.c_str(), &end, 10);
            if (val.empty() || *end != '\0' || val[0] == '-')
                usage("--seed takes a non-negative integer");
        } else if (key == "--seconds") {
            a.seconds = std::strtod(val.c_str(), &end);
            if (val.empty() || *end != '\0' || !(a.seconds > 0) ||
                a.seconds > 3600)
                usage("--seconds takes a number in (0, 3600]");
        } else if (key == "--trace") {
            if (val != "0" && val != "1")
                usage("--trace takes 0 or 1");
            a.trace = val == "1";
        } else {
            usage(("unknown argument " + key).c_str());
        }
    }
    if (a.workload != "lidar-stream" && a.workload != "object-latency" &&
        a.workload != "drive-fleet")
        usage("unknown or missing --workload");
    return a;
}

int
runMain(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    setLogQuiet(true);

    if (args.digest) {
        Digest d;
        if (args.workload == "lidar-stream") {
            for (const Frame &f : lidarFrames(args.seed))
                d.frame(f);
        } else if (args.workload == "object-latency") {
            for (const Frame &f : objectFrames(args.seed))
                d.frame(f);
        } else {
            for (const Frame &f : driveStream(args.seed, kFramesPerSensor).frames)
                d.frame(f);
        }
        std::printf("{\"digest\":\"%016llx\"}\n",
                    static_cast<unsigned long long>(d.value()));
        return 0;
    }

    RunLog log;
    if (args.workload == "lidar-stream")
        runLidarStream(args, log);
    else if (args.workload == "object-latency")
        runObjectLatency(args, log);
    else
        runDriveFleet(args, log);

    JsonObject o;
    o.text("workload", args.workload);
    o.number("seed", static_cast<double>(args.seed));
    o.raw("stamp", stampJson());
    o.raw("inputs", log.inputs);
    o.number("offered", static_cast<double>(log.offered));
    o.number("checked", static_cast<double>(log.oracle->checked()));
    o.number("failed",
             static_cast<double>(log.oracle->failed() + log.modeledDrift));
    o.raw("frames", log.oracle->framesJson());
    o.list("setup_s", log.setupS);
    o.list("frame_s", log.frameS);
    o.number("frames_timed", log.framesTimed);
    o.number("wall_timed_s", log.wallTimed);
    o.number("modeled_fps", log.modeledFps);
    o.list("peak_rss_mib", log.peakRssMiB);
    if (log.traced)
        o.raw("trace", log.trace.json());
    std::printf("%s\n", o.str().c_str());
    return 0;
}

} // namespace
} // namespace hgpcn

int
main(int argc, char **argv)
{
    return hgpcn::runMain(argc, argv);
}
