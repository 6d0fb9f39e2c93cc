/**
 * @file
 * Temporal-coherence preprocessing: incremental vs from-scratch
 * octree construction on a drive trace (docs/PERFORMANCE.md).
 *
 * Consecutive LiDAR frames share most of their points, and the
 * cross-frame cache (core/temporal_preprocess.h) exploits that:
 * the Morton octree is diffed and re-erected only where dirty.
 * This bench drives both arms over the same seeded CoherentDrive
 * trace (closed-form ~99% frame overlap):
 *
 *   scratch      TemporalPreprocessState{temporalCache=false} —
 *                every frame builds its octree from scratch
 *                (pooled storage, the pre-cache behavior);
 *   incremental  TemporalPreprocessState{temporalCache=true} —
 *                frames update against the carried previous frame.
 *
 * Every frame's outputs are compared bitwise (sampled points, SPT,
 * Octree-Table bytes, modeled build and DSU seconds): the scratch
 * arm is the oracle and any divergence fails the bench. The
 * steady-state wall-clock ratio of the two build stages is the
 * number this bench exists to report; modeled seconds are charged
 * by closed-form workload formulas and cannot move by construction.
 *
 * `--json <path>` writes BENCH_preprocess.json — deterministic
 * fields only (config, closed-form overlap, cache telemetry,
 * modeled seconds), so the record is byte-identical across runs and
 * machines; wall-clock numbers are printed, not stored.
 * `--assert-coherence-speedup <x>` exits nonzero unless the
 * steady-state build-stage speedup reaches `x` (CI holds 2.0x
 * against a measured ~2.6-2.7x) and every frame matched the oracle.
 * Positionals: [frames] [points].
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench/bench_util.h"
#include "core/preprocessing_engine.h"
#include "core/temporal_preprocess.h"
#include "datasets/coherent_drive.h"

namespace hgpcn
{
namespace
{

double
nowSec()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

bool
bitEqual(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/** Bitwise PreprocessResult equality (scratch arm = oracle). */
bool
resultsIdentical(const PreprocessResult &oracle,
                 const PreprocessResult &cached)
{
    if (oracle.sampled.size() != cached.sampled.size() ||
        oracle.spt != cached.spt ||
        oracle.octreeTableBytes != cached.octreeTableBytes ||
        !bitEqual(oracle.octreeBuildSec, cached.octreeBuildSec) ||
        !bitEqual(oracle.dsu.totalSec(), cached.dsu.totalSec()))
        return false;
    const auto a = oracle.sampled.positions();
    const auto b = cached.sampled.positions();
    for (std::size_t i = 0; i < a.size(); ++i)
        if (std::memcmp(&a[i], &b[i], sizeof(Vec3)) != 0)
            return false;
    return true;
}

int
run(std::size_t frames, std::size_t points,
    const std::string &json_path, double assert_speedup)
{
    bench::banner(
        "PREPROCESSING: TEMPORAL COHERENCE",
        "incremental vs from-scratch octree build on a "
        "~99%-overlap drive trace (docs/PERFORMANCE.md)");

    const std::size_t warmup = std::min<std::size_t>(8, frames / 2);
    const std::size_t k = std::min<std::size_t>(1024, points / 2);

    CoherentDrive::Config dcfg;
    dcfg.points = points;
    dcfg.churnFraction = 0.01;
    const CoherentDrive drive(dcfg);

    const PreprocessingEngine engine;

    TemporalPreprocessState::Config scratch_cfg;
    scratch_cfg.octree = engine.config().octree;
    scratch_cfg.temporalCache = false;
    TemporalPreprocessState scratch_state(scratch_cfg);

    TemporalPreprocessState::Config inc_cfg = scratch_cfg;
    inc_cfg.temporalCache = true;
    TemporalPreprocessState inc_state(inc_cfg);

    bench::section("trace");
    std::printf("frames %zu (warmup %zu)  points/frame %zu  "
                "sample K %zu\n",
                frames, warmup, points, k);
    std::printf("churn %zu slots/frame  overlap(next frame) %.4f  "
                "overlap(5 frames) %.4f\n",
                drive.churnPerFrame(), drive.overlapFraction(1),
                drive.overlapFraction(5));

    // Each repetition replays the whole trace (the carry persists
    // — frame 0 of the next pass diffs against frame F-1, still a
    // hit); per-arm steady-state times take the minimum across
    // repetitions, the standard estimator robust to transient
    // machine load. All JSON-bound fields are load-independent.
    constexpr int kReps = 3;
    double scratch_build = 0.0, inc_build = 0.0;
    double scratch_sample = 0.0, inc_sample = 0.0;
    double modeled_build = 0.0, modeled_dsu_sum = 0.0;
    std::size_t table_bytes = 0;
    bool identical = true;

    for (int rep = 0; rep < kReps; ++rep) {
        double rep_sb = 0.0, rep_ib = 0.0;
        double rep_ss = 0.0, rep_is = 0.0;
        for (std::size_t f = 0; f < frames; ++f) {
            const Frame frame = drive.generate(f);

            const double t0 = nowSec();
            PreprocessResult oracle =
                engine.buildStage(frame.cloud, &scratch_state);
            const double t1 = nowSec();
            PreprocessResult cached =
                engine.buildStage(frame.cloud, &inc_state);
            const double t2 = nowSec();
            engine.sampleStage(oracle, k);
            const double t3 = nowSec();
            engine.sampleStage(cached, k);
            const double t4 = nowSec();

            if (!resultsIdentical(oracle, cached)) {
                std::printf("FAIL: frame %zu diverged from the "
                            "from-scratch oracle\n",
                            f);
                identical = false;
            }
            if (rep == 0) {
                modeled_build = oracle.octreeBuildSec;
                modeled_dsu_sum += oracle.dsu.totalSec();
                table_bytes = oracle.octreeTableBytes;
            }

            if (f < warmup)
                continue;
            rep_sb += t1 - t0;
            rep_ib += t2 - t1;
            rep_ss += t3 - t2;
            rep_is += t4 - t3;
        }
        if (rep == 0 || rep_sb < scratch_build)
            scratch_build = rep_sb;
        if (rep == 0 || rep_ib < inc_build)
            inc_build = rep_ib;
        if (rep == 0 || rep_ss < scratch_sample)
            scratch_sample = rep_ss;
        if (rep == 0 || rep_is < inc_sample)
            inc_sample = rep_is;
    }

    const std::size_t steady = frames - warmup;
    const double build_speedup = scratch_build / inc_build;
    const double e2e_speedup = (scratch_build + scratch_sample) /
                               (inc_build + inc_sample);

    bench::section("steady-state wall-clock (per frame)");
    std::printf("%-28s %12s %12s %9s\n", "stage", "scratch",
                "incremental", "speedup");
    std::printf("%-28s %10.3f ms %10.3f ms %8.2fx\n",
                "octree build",
                1e3 * scratch_build / steady,
                1e3 * inc_build / steady, build_speedup);
    std::printf("%-28s %10.3f ms %10.3f ms %8.2fx\n",
                "OIS-FPS sampling",
                1e3 * scratch_sample / steady,
                1e3 * inc_sample / steady,
                scratch_sample / inc_sample);
    std::printf("%-28s %10.3f ms %10.3f ms %8.2fx\n",
                "preprocess total",
                1e3 * (scratch_build + scratch_sample) / steady,
                1e3 * (inc_build + inc_sample) / steady,
                e2e_speedup);

    const TemporalPreprocessState::Stats st = inc_state.stats();
    bench::section("cache telemetry (incremental arm)");
    std::printf("octree  %llu hits / %llu misses;  per hit: "
                "retained %.0f  inserted %.0f  evicted %.0f\n",
                static_cast<unsigned long long>(st.octreeHits),
                static_cast<unsigned long long>(st.octreeMisses),
                st.octreeHits
                    ? static_cast<double>(st.retainedPoints) /
                          st.octreeHits
                    : 0.0,
                st.octreeHits
                    ? static_cast<double>(st.insertedPoints) /
                          st.octreeHits
                    : 0.0,
                st.octreeHits
                    ? static_cast<double>(st.evictedPoints) /
                          st.octreeHits
                    : 0.0);
    std::printf("nodes   %llu reused / %llu erected (%.1f%% "
                "reused)\n",
                static_cast<unsigned long long>(st.nodesReused),
                static_cast<unsigned long long>(st.nodesErected),
                100.0 * static_cast<double>(st.nodesReused) /
                    static_cast<double>(st.nodesReused +
                                        st.nodesErected));

    bench::section("fidelity");
    std::printf("sampled outputs, SPT, Octree-Table bytes: %s\n",
                identical ? "bit-identical to from-scratch oracle"
                          : "DIVERGED");
    std::printf("modeled octreeBuildSec %.6g  (identical both arms "
                "by construction)\n",
                modeled_build);

    if (!json_path.empty()) {
        bench::JsonWriter json;
        json.obj()
            .field("bench", "preprocess_coherence")
            .field("schema", "hgpcn-bench-preprocess/1")
            .field("frames", static_cast<std::uint64_t>(frames))
            .field("warmupFrames",
                   static_cast<std::uint64_t>(warmup))
            .field("points", static_cast<std::uint64_t>(points))
            .field("sampleK", static_cast<std::uint64_t>(k))
            .field("churnFraction", dcfg.churnFraction)
            .field("churnPerFrame",
                   static_cast<std::uint64_t>(drive.churnPerFrame()))
            .field("overlapNextFrame", drive.overlapFraction(1))
            .field("bitIdentical", identical)
            .field("modeledOctreeBuildSec", modeled_build)
            .field("modeledDsuSecSum", modeled_dsu_sum)
            .field("octreeTableBytes",
                   static_cast<std::uint64_t>(table_bytes));
        json.key("cache")
            .obj()
            .field("octreeHits", st.octreeHits)
            .field("octreeMisses", st.octreeMisses)
            .field("retainedPoints", st.retainedPoints)
            .field("insertedPoints", st.insertedPoints)
            .field("evictedPoints", st.evictedPoints)
            .field("nodesReused", st.nodesReused)
            .field("nodesErected", st.nodesErected)
            .close();
        json.close();
        json.writeTo(json_path);
        std::printf("\nwrote %s\n", json_path.c_str());
    }

    if (!identical) {
        std::printf("\nFAIL: cached outputs diverged from the "
                    "from-scratch oracle\n");
        return 1;
    }
    if (assert_speedup > 0.0) {
        bench::section("acceptance (--assert-coherence-speedup)");
        if (build_speedup < assert_speedup) {
            std::printf("FAIL: steady-state build speedup %.2fx < "
                        "required %.2fx\n",
                        build_speedup, assert_speedup);
            return 1;
        }
        std::printf("PASS: steady-state build speedup %.2fx >= "
                    "%.2fx, outputs bit-identical\n",
                    build_speedup, assert_speedup);
    }
    return 0;
}

} // namespace
} // namespace hgpcn

int
main(int argc, char **argv)
{
    const std::string json_path =
        hgpcn::bench::extractJsonPath(argc, argv);
    double assert_speedup = 0.0;
    int w = 1;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--assert-coherence-speedup") ==
            0) {
            HGPCN_ASSERT(i + 1 < argc,
                         "--assert-coherence-speedup needs a value");
            assert_speedup = std::atof(argv[++i]);
            HGPCN_ASSERT(assert_speedup > 0.0,
                         "--assert-coherence-speedup must be > 0");
            continue;
        }
        argv[w++] = argv[i];
    }
    argc = w;
    const std::size_t frames =
        hgpcn::bench::parsePositiveArg(argc, argv, 1, 40, "frames");
    const std::size_t points = hgpcn::bench::parsePositiveArg(
        argc, argv, 2, 20000, "points");
    return hgpcn::run(frames, points, json_path, assert_speedup);
}
