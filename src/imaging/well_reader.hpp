// The complete §2.4 image-processing pipeline:
//   1. detect the fiducial marker;
//   2. derive the plate's approximate pixel boundaries from the marker's
//      size and position;
//   3. detect circular wells with the Hough transform inside that region;
//   4. align a lattice to the detected circles, predicting centers for
//      every well — including those HoughCircles missed;
//   5. report the color at each (predicted) well center.
//
// The pipeline is tuned once for the workcell camera: the marker is the
// largest dictionary marker in view, and the ROI padding, Hough radius
// band, grid inlier gate and color sample disk are constants in
// well_reader.cpp (fiducial.cpp holds the detector's). The only
// per-read input is the plate layout.
#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "imaging/fiducial.hpp"
#include "imaging/gridfit.hpp"
#include "imaging/hough.hpp"
#include "imaging/image.hpp"
#include "imaging/plate_render.hpp"

namespace sdl::imaging {

struct WellReadParams {
    SceneGeometry geometry;  ///< marker-relative plate layout
};

struct WellReadout {
    bool ok = false;
    std::string error;  ///< set when !ok (e.g. "marker not found")

    std::vector<color::Rgb8> colors;  ///< rows*cols, row-major
    std::vector<Vec2> centers;        ///< predicted well centers
    MarkerDetection marker;

    std::size_t hough_circles_found = 0;  ///< raw circle detections in ROI
    std::size_t wells_with_circle = 0;    ///< lattice nodes with support
    std::size_t wells_rescued = 0;        ///< nodes predicted by grid only
    double grid_residual_px = 0.0;        ///< mean inlier residual
    /// True when PlateReader served this frame from the marker-ROI fast
    /// path (observability only; the payload is bitwise identical either
    /// way).
    bool roi_fast_path = false;
};

/// Reusable buffer pool for the whole §2.4 pipeline: marker-detection
/// planes, Hough workspace, and the plate-region luma plane persist
/// across frames, so a steady-state read allocates only its returned
/// WellReadout. Owned by whoever loops over frames (one per session —
/// CameraSim-facing readers, benchmarks); never shared across threads.
struct FrameScratch {
    MarkerScratch marker;
    HoughScratch hough;
    GrayImage gray_roi;  ///< plate-region luma (frame ROI, local coords)
    std::vector<MarkerDetection> detections;
    std::vector<Vec2> circle_centers;
};

/// Runs the full pipeline on one camera frame.
[[nodiscard]] WellReadout read_plate(const Image& frame, const WellReadParams& params);

/// read_plate with a persistent buffer pool — bitwise-identical results,
/// no steady-state allocations beyond the readout, and the luma plane is
/// converted only over the plate region the Hough stage actually reads.
[[nodiscard]] WellReadout read_plate(const Image& frame, const WellReadParams& params,
                                     FrameScratch& scratch);

/// Session reader for a fixed camera: between frames the fiducial stays
/// put, so the detector only scans a small neighborhood of the expected
/// marker pose (detect_markers_in_region) and the luma conversion covers
/// just the marker and plate ROIs. The expected pose is the last
/// detected one; before the first read and after a failed read it is the
/// calibrated `home` pose (nominal_marker of the workcell's scene), so
/// cold starts and recoveries take the ROI path too. A reader built
/// without `home` runs a full-frame scan at those points instead. Any
/// doubt — contaminated region, marker missing or moved — falls back to
/// the full-frame pipeline, so every frame's readout, cold or warm, is
/// bitwise identical to read_plate on the same frame. This holds for a
/// single marker in the scene: a region scan cannot see a second, larger
/// matching marker elsewhere that a full scan would pick, so such scenes
/// need read_plate.
class PlateReader {
public:
    explicit PlateReader(WellReadParams params) : params_(std::move(params)) {}
    PlateReader(WellReadParams params, const MarkerDetection& home)
        : params_(std::move(params)), home_(home), hint_(home) {}

    [[nodiscard]] WellReadout read(const Image& frame);

    [[nodiscard]] const WellReadParams& params() const noexcept { return params_; }
    /// Frames served by the marker-ROI fast path / by full-frame scans.
    [[nodiscard]] std::size_t roi_hits() const noexcept { return roi_hits_; }
    [[nodiscard]] std::size_t full_scans() const noexcept { return full_scans_; }

private:
    WellReadParams params_;
    FrameScratch scratch_;
    std::optional<MarkerDetection> home_;
    std::optional<MarkerDetection> hint_;
    std::size_t roi_hits_ = 0;
    std::size_t full_scans_ = 0;
};

}  // namespace sdl::imaging
