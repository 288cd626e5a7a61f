// Hot-path microbenchmark + perf trajectory recorder.
//
// Times the two kernels that bound campaign scale — GP candidate scoring
// (solver/bayes.hpp) and the per-frame vision pipeline (imaging/), with
// a per-stage sheet — against the frozen PR-4 reference, and writes
// BENCH_hotpath.json. End-to-end closed-loop timing lives in
// campaignbench/. CI compares that file against the committed
// baseline (bench/baselines/BENCH_hotpath.baseline.json) with
// tools/bench_compare.py and fails the build on large regressions.
//
//   bench_hotpath [--quick]   # --quick: fewer reps for smoke use
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "imaging/plate_render.hpp"
#include "imaging/well_reader.hpp"
#include "prepr_reference.hpp"
#include "solver/bayes.hpp"
#include "support/atomic_io.hpp"
#include "support/common.hpp"
#include "support/json.hpp"
#include "support/log.hpp"
#include "support/random.hpp"
#include "support/table.hpp"

using namespace sdl;
namespace json = support::json;

namespace {

double now_seconds() {
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(clock::now().time_since_epoch()).count();
}

/// Best-of-`reps` seconds per call — the standard microbenchmark
/// estimator: the minimum is the least contaminated by scheduler noise,
/// which matters on small shared runners.
template <typename F>
double time_per_call(int reps, F&& fn) {
    double best = 1e300;
    for (int i = 0; i < reps; ++i) {
        const double t0 = now_seconds();
        fn();
        const double dt = now_seconds() - t0;
        if (dt < best) best = dt;
    }
    return best;
}

// ------------------------------------------------------------ GP scoring

struct GpRow {
    std::size_t n = 0;
    std::size_t candidates = 0;
    double prepr_ns = 0.0;       ///< per candidate, frozen PR-4 predict loop
    double sequential_ns = 0.0;  ///< per candidate, current predict() loop
    double batch_ns = 0.0;       ///< per candidate, score_candidate_pool
    /// Per candidate, building a PoolPosterior over the pool — what
    /// BayesSolver::ask scores with (it also keeps k and L^-1 k for the
    /// constant-liar updates). Informational, not gated.
    double posterior_ns = 0.0;
    double speedup = 0.0;        ///< prepr -> batch
    double speedup_vs_sequential = 0.0;
};

GpRow bench_gp(std::size_t n, std::size_t candidates, int reps) {
    support::Rng rng(0xFEED + n * 131 + candidates);
    std::vector<std::vector<double>> xs;
    std::vector<double> ys;
    for (std::size_t i = 0; i < n; ++i) {
        std::vector<double> x{rng.uniform(), rng.uniform(), rng.uniform(), rng.uniform()};
        ys.push_back(std::sin(3.0 * x[0]) + x[1] * x[1] + 0.05 * rng.normal(0, 1));
        xs.push_back(std::move(x));
    }
    solver::GaussianProcess gp;
    gp.fit(xs, ys, /*optimize=*/false);
    // Same data, same (default) hyperparameters, PR-4 math.
    prepr::Gp reference;
    reference.fit(xs, ys, gp.hyperparams().lengthscale, gp.hyperparams().noise_var);

    linalg::Matrix pool(candidates, 4);
    for (std::size_t c = 0; c < candidates; ++c) {
        for (std::size_t k = 0; k < 4; ++k) pool(c, k) = rng.uniform();
    }

    // Keep the optimizer honest.
    double sink = 0.0;

    const double prepr_s = time_per_call(reps, [&] {
        for (std::size_t c = 0; c < candidates; ++c) {
            const auto pred = reference.predict(pool.row(c));
            sink += pred.mean + pred.variance;
        }
    });
    const double seq_s = time_per_call(reps, [&] {
        for (std::size_t c = 0; c < candidates; ++c) {
            const auto pred = gp.predict(pool.row(c));
            sink += pred.mean + pred.variance;
        }
    });
    const double batch_s = time_per_call(reps, [&] {
        const auto preds = solver::score_candidate_pool(gp, pool);
        sink += preds.front().mean + preds.back().variance;
    });
    const double posterior_s = time_per_call(reps, [&] {
        const solver::PoolPosterior posterior(gp, pool);
        const auto pred = posterior.prediction(candidates - 1);
        sink += pred.mean + pred.variance;
    });
    if (sink == 42.0) std::printf("|");  // never true; defeats DCE

    GpRow row;
    row.n = n;
    row.candidates = candidates;
    row.prepr_ns = prepr_s * 1e9 / static_cast<double>(candidates);
    row.sequential_ns = seq_s * 1e9 / static_cast<double>(candidates);
    row.batch_ns = batch_s * 1e9 / static_cast<double>(candidates);
    row.posterior_ns = posterior_s * 1e9 / static_cast<double>(candidates);
    row.speedup = row.batch_ns > 0.0 ? row.prepr_ns / row.batch_ns : 0.0;
    row.speedup_vs_sequential =
        row.batch_ns > 0.0 ? row.sequential_ns / row.batch_ns : 0.0;
    return row;
}

// ---------------------------------------------------------------- vision

struct VisionStats {
    double render_prepr_ns = 0.0;  ///< frozen PR-4 render_plate
    double render_full_ns = 0.0;
    double read_prepr_ns = 0.0;  ///< frozen PR-4 read_plate
    double read_full_ns = 0.0;
    double read_scratch_ns = 0.0;
    double read_session_ns = 0.0;
    double to_gray_ns = 0.0;
    double blur_ns = 0.0;
    double adaptive_ns = 0.0;
    double detect_markers_ns = 0.0;
    double hough_roi_ns = 0.0;
    double render_speedup = 0.0;
    double read_speedup = 0.0;
};

/// The benchmark scene: 96 wells, slightly rotated.
imaging::PlateScene bench_scene() {
    imaging::PlateScene scene;
    scene.noise_sigma = 2.0;
    scene.angle_rad = 0.03;
    return scene;
}

/// Seeded random colors, one per well of `scene`.
std::vector<color::Rgb8> random_well_colors(const imaging::PlateScene& scene) {
    support::Rng color_rng(4242);
    std::vector<color::Rgb8> colors;
    for (int i = 0; i < scene.geometry.well_count(); ++i) {
        colors.push_back({static_cast<std::uint8_t>(color_rng.uniform_int(256)),
                          static_cast<std::uint8_t>(color_rng.uniform_int(256)),
                          static_cast<std::uint8_t>(color_rng.uniform_int(256))});
    }
    return colors;
}

VisionStats bench_vision_paths(int reps) {
    const imaging::PlateScene scene = bench_scene();
    const std::vector<color::Rgb8> colors = random_well_colors(scene);

    VisionStats stats;
    support::Rng rng_prepr(7);
    stats.render_prepr_ns =
        time_per_call(reps,
                      [&] { (void)prepr::render_plate(scene, colors, rng_prepr); }) *
        1e9;
    support::Rng rng_a(7);
    stats.render_full_ns =
        time_per_call(reps, [&] { (void)imaging::render_plate(scene, colors, rng_a); }) *
        1e9;

    support::Rng frame_rng(9);
    const imaging::Image frame = imaging::render_plate(scene, colors, frame_rng);
    imaging::WellReadParams params;
    params.geometry = scene.geometry;

    stats.read_prepr_ns =
        time_per_call(reps, [&] { (void)prepr::read_plate(frame, params); }) * 1e9;
    stats.read_full_ns =
        time_per_call(reps, [&] { (void)imaging::read_plate(frame, params); }) * 1e9;
    imaging::FrameScratch scratch;
    (void)imaging::read_plate(frame, params, scratch);  // warm the pool
    stats.read_scratch_ns =
        time_per_call(reps, [&] { (void)imaging::read_plate(frame, params, scratch); }) *
        1e9;
    imaging::PlateReader reader(params);
    (void)reader.read(frame);  // cold full scan seeds the marker hint
    stats.read_session_ns = time_per_call(reps, [&] { (void)reader.read(frame); }) * 1e9;

    // Stage breakdown (full-frame costs the old path paid every frame).
    imaging::GrayImage gray;
    imaging::to_gray(frame, gray);
    stats.to_gray_ns = time_per_call(reps, [&] { imaging::to_gray(frame, gray); }) * 1e9;
    imaging::BlurScratch blur_scratch;
    imaging::GrayImage smooth;
    stats.blur_ns =
        time_per_call(reps, [&] { gaussian_blur(gray, 0.8, smooth, blur_scratch); }) * 1e9;
    imaging::BinaryImage mask;
    std::vector<double> integral;
    stats.adaptive_ns =
        time_per_call(reps, [&] { adaptive_threshold(smooth, 31, 0.08F, mask, integral); }) *
        1e9;
    imaging::MarkerScratch marker_scratch;
    std::vector<imaging::MarkerDetection> detections;
    stats.detect_markers_ns = time_per_call(reps, [&] {
                                  detect_markers(frame, imaging::MarkerDictionary::standard(),
                                                 marker_scratch, detections);
                              }) *
                              1e9;
    // Hough over the plate ROI, as read_plate drives it.
    const auto readout = reader.read(frame);
    imaging::HoughParams hough;
    const double expected_r = scene.geometry.well_radius * readout.marker.side;
    hough.r_min = std::max(2.0, expected_r * 0.55);
    hough.r_max = expected_r * 1.45;
    hough.min_center_dist = 0.6 * scene.geometry.spacing * readout.marker.side;
    imaging::HoughScratch hough_scratch;
    stats.hough_roi_ns = time_per_call(reps, [&] {
                             imaging::GrayImage roi_gray;
                             imaging::to_gray_roi(frame, {250, 100, 640, 420}, roi_gray);
                             (void)imaging::hough_circles(roi_gray, hough, hough_scratch);
                         }) *
                         1e9;

    stats.render_speedup =
        stats.render_full_ns > 0.0 ? stats.render_prepr_ns / stats.render_full_ns : 0.0;
    stats.read_speedup =
        stats.read_session_ns > 0.0 ? stats.read_prepr_ns / stats.read_session_ns : 0.0;
    return stats;
}

struct ColdReadRow {
    int wells = 0;
    double cold_ns = 0.0;        ///< full-frame marker scan
    double calibrated_ns = 0.0;  ///< marker-ROI scan at the calibrated pose
};

/// First read of a fresh PlateReader (scratch allocation included), as
/// every cell and difficulty probe pays it: built without the calibrated
/// marker pose it scans the full frame, built with it the marker ROI.
ColdReadRow bench_cold_read(int rows, int cols, int reps) {
    const imaging::PlateScene scene = imaging::scene_for_plate(bench_scene(), rows, cols);
    support::Rng frame_rng(9);
    const imaging::Image frame =
        imaging::render_plate(scene, random_well_colors(scene), frame_rng);
    imaging::WellReadParams params;
    params.geometry = scene.geometry;
    const imaging::MarkerDetection home = imaging::nominal_marker(scene);
    ColdReadRow row;
    row.wells = scene.geometry.well_count();
    row.cold_ns = time_per_call(reps, [&] {
                      imaging::PlateReader reader(params);
                      (void)reader.read(frame);
                  }) *
                  1e9;
    row.calibrated_ns = time_per_call(reps, [&] {
                            imaging::PlateReader reader(params, home);
                            (void)reader.read(frame);
                        }) *
                        1e9;
    return row;
}

}  // namespace

int main(int argc, char** argv) {
    support::set_log_level(support::LogLevel::Error);
    const bool quick = argc > 1 && std::strcmp(argv[1], "--quick") == 0;
    const int gp_reps = quick ? 3 : 20;
    const int vision_reps = quick ? 2 : 10;

    std::printf("================================================================\n");
    std::printf("Hot-path bench — GP candidate scoring, vision pipeline\n");
    std::printf("================================================================\n");

    // GP scoring across training-set and pool sizes.
    std::vector<GpRow> gp_rows;
    std::printf("\n[GP posterior scoring] PR-4 predict loop vs batched scoring:\n");
    {
        support::TextTable table({"n (obs)", "C (candidates)", "PR4 ns/pt", "seq ns/pt",
                                  "batch ns/pt", "speedup vs PR4"});
        table.set_alignment({support::TextTable::Align::Right,
                             support::TextTable::Align::Right,
                             support::TextTable::Align::Right,
                             support::TextTable::Align::Right,
                             support::TextTable::Align::Right,
                             support::TextTable::Align::Right});
        for (const std::size_t n : {16u, 64u, 256u}) {
            for (const std::size_t c : {64u, 256u, 1024u}) {
                const GpRow row = bench_gp(n, c, gp_reps);
                gp_rows.push_back(row);
                table.add_row({std::to_string(row.n), std::to_string(row.candidates),
                               support::fmt_double(row.prepr_ns, 0),
                               support::fmt_double(row.sequential_ns, 0),
                               support::fmt_double(row.batch_ns, 0),
                               support::fmt_double(row.speedup, 2) + "x"});
            }
        }
        std::printf("%s", table.str().c_str());
    }

    // Vision pipeline paths.
    std::printf("\n[Vision] per-frame costs (800x600 scene, 96 wells):\n");
    const VisionStats vision = bench_vision_paths(vision_reps);
    std::printf("  render: PR4 %8.2f ms   full %8.2f ms   (%.2fx PR4->full)\n",
                vision.render_prepr_ns / 1e6, vision.render_full_ns / 1e6,
                vision.render_speedup);
    std::printf("  read:   PR4 %8.2f ms   full %8.2f ms   scratch %8.2f ms   "
                "session(ROI) %8.2f ms  (%.2fx PR4->session)\n",
                vision.read_prepr_ns / 1e6, vision.read_full_ns / 1e6,
                vision.read_scratch_ns / 1e6, vision.read_session_ns / 1e6,
                vision.read_speedup);
    std::printf("  stages: to_gray %.2f ms  blur %.2f ms  adaptive %.2f ms  "
                "detect_markers %.2f ms  hough(ROI) %.2f ms\n",
                vision.to_gray_ns / 1e6, vision.blur_ns / 1e6, vision.adaptive_ns / 1e6,
                vision.detect_markers_ns / 1e6, vision.hough_roi_ns / 1e6);
    std::vector<ColdReadRow> cold_rows;
    for (const auto& [rows, cols] : {std::pair{8, 12}, std::pair{32, 48}}) {
        const ColdReadRow row = bench_cold_read(rows, cols, vision_reps);
        std::printf("  first read of a fresh reader, %4d wells: full scan %8.2f ms   "
                    "calibrated pose %8.2f ms\n",
                    row.wells, row.cold_ns / 1e6, row.calibrated_ns / 1e6);
        cold_rows.push_back(row);
    }

    // The perf trajectory file.
    json::Value bench = json::Value::object();
    bench.set("schema", "sdlbench.bench_hotpath.v1");
    bench.set("quick", quick);
    json::Value gp = json::Value::array();
    for (const GpRow& row : gp_rows) {
        json::Value entry = json::Value::object();
        entry.set("n", static_cast<std::int64_t>(row.n));
        entry.set("candidates", static_cast<std::int64_t>(row.candidates));
        entry.set("prepr_ns_per_predict", row.prepr_ns);
        entry.set("sequential_ns_per_predict", row.sequential_ns);
        entry.set("batch_ns_per_predict", row.batch_ns);
        entry.set("posterior_ns_per_predict", row.posterior_ns);
        entry.set("speedup_vs_prepr", row.speedup);
        entry.set("speedup_vs_sequential", row.speedup_vs_sequential);
        gp.push_back(std::move(entry));
    }
    bench.set("gp", std::move(gp));
    json::Value vis = json::Value::object();
    vis.set("render_prepr_ns", vision.render_prepr_ns);
    vis.set("render_full_ns", vision.render_full_ns);
    vis.set("render_speedup_vs_prepr", vision.render_speedup);
    vis.set("read_prepr_ns", vision.read_prepr_ns);
    vis.set("read_full_ns", vision.read_full_ns);
    vis.set("read_scratch_ns", vision.read_scratch_ns);
    vis.set("read_session_ns", vision.read_session_ns);
    vis.set("read_speedup_vs_prepr", vision.read_speedup);
    json::Value stages = json::Value::object();
    stages.set("to_gray_ns", vision.to_gray_ns);
    stages.set("blur_ns", vision.blur_ns);
    stages.set("adaptive_threshold_ns", vision.adaptive_ns);
    stages.set("detect_markers_ns", vision.detect_markers_ns);
    stages.set("hough_roi_ns", vision.hough_roi_ns);
    vis.set("stages", std::move(stages));
    json::Value cold = json::Value::array();
    for (const ColdReadRow& row : cold_rows) {
        json::Value entry = json::Value::object();
        entry.set("wells", static_cast<std::int64_t>(row.wells));
        entry.set("read_cold_ns", row.cold_ns);
        entry.set("read_calibrated_ns", row.calibrated_ns);
        cold.push_back(std::move(entry));
    }
    vis.set("first_read", std::move(cold));
    bench.set("vision", std::move(vis));
    try {
        support::atomic_write("BENCH_hotpath.json", bench.pretty() + "\n");
    } catch (const support::Error& error) {
        std::fprintf(stderr, "error: failed to write BENCH_hotpath.json: %s\n",
                     error.what());
        return 1;
    }
    std::printf("\nWrote BENCH_hotpath.json\n");
    return 0;
}
