// Frozen pre-optimization (PR 4) implementations of the two hot paths,
// kept verbatim inside the bench tree as the yardstick bench_hotpath
// measures speedups against. Do NOT "fix" or modernize this code — its
// whole value is that it stays the way the shipped pipeline looked
// before the batched-GP / zero-allocation-vision work, so the recorded
// speedups keep meaning the same thing across future PRs.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "imaging/fiducial.hpp"
#include "imaging/hough.hpp"
#include "imaging/plate_render.hpp"
#include "imaging/well_reader.hpp"
#include "linalg/cholesky.hpp"
#include "support/random.hpp"

namespace prepr {

/// PR-4 render_plate: full background + plate + wells + marker raster
/// every frame, per-pixel illumination recompute, libm lround per
/// channel.
[[nodiscard]] sdl::imaging::Image render_plate(
    const sdl::imaging::PlateScene& scene,
    std::span<const sdl::color::Rgb8> well_colors, sdl::support::Rng& rng,
    const std::vector<bool>* filled = nullptr);

/// The reference detector's tuning, frozen here: the shipped detector's
/// constants may be retuned without moving the yardstick.
struct MarkerDetectParams {
    double min_side_px = 12.0;
    double max_side_px = 400.0;
    double min_squareness = 0.6;
    float adaptive_offset = 0.08F;
    int adaptive_window = 31;
    double blur_sigma = 0.8;
    int max_correctable_bits = 1;
};

/// The reference read_plate's tuning, frozen like MarkerDetectParams.
struct ReadTuning {
    int marker_id = -1;  ///< -1 = accept any dictionary marker
    MarkerDetectParams marker;
    double roi_margin = 1.2;
    double radius_tolerance = 0.45;
    double inlier_radius = 0.42;
    double sample_radius = 0.55;
};

/// PR-4 detect_markers: fresh gray/blur/threshold planes and labeling
/// per call.
[[nodiscard]] std::vector<sdl::imaging::MarkerDetection> detect_markers(
    const sdl::imaging::Image& img, const sdl::imaging::MarkerDictionary& dict,
    const MarkerDetectParams& params = {});

/// PR-4 hough_circles: crop copy, per-call accumulators, hypot edge
/// magnitudes, full-edge-list radius scans per peak.
[[nodiscard]] std::vector<sdl::imaging::CircleDetection> hough_circles(
    const sdl::imaging::GrayImage& gray, const sdl::imaging::HoughParams& params);

/// PR-4 read_plate: full-frame marker scan, a second full-frame gray
/// conversion for the Hough stage, all buffers allocated per frame. Only
/// `params.geometry` is read; the tuning is ReadTuning's.
[[nodiscard]] sdl::imaging::WellReadout read_plate(
    const sdl::imaging::Image& frame, const sdl::imaging::WellReadParams& params);

/// PR-4 GP posterior, reconstructed with the public linalg pieces it was
/// built from: std::exp RBF kernel, jittered Cholesky, and a fresh
/// kx/solve per query point.
class Gp {
public:
    void fit(std::vector<std::vector<double>> xs, std::vector<double> ys,
             double lengthscale, double noise_var);

    struct Prediction {
        double mean = 0.0;
        double variance = 0.0;
    };
    [[nodiscard]] Prediction predict(std::span<const double> x) const;

private:
    [[nodiscard]] double kernel(std::span<const double> a,
                                std::span<const double> b) const noexcept;

    std::vector<std::vector<double>> xs_;
    double lengthscale_ = 0.4;
    double noise_var_ = 1e-2;
    double signal_var_ = 1.0;
    double y_mean_ = 0.0;
    double y_scale_ = 1.0;
    std::vector<double> ys_std_;
    std::unique_ptr<sdl::linalg::Cholesky> chol_;
    sdl::linalg::Vec alpha_;
};

}  // namespace prepr
