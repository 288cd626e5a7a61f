// Synthetic camera: renders the microplate scene the webcam would see.
//
// This is the substitute for the physical Logitech camera + ring light:
// a 96-well microplate next to a fiducial marker, with realistic
// nuisances — sensor noise, vignetting, an illumination gradient, well
// wall rings, and empty wells that produce the low-contrast circles that
// HoughCircles tends to miss (the false negatives §2.4's grid alignment
// rescues). render_plate is the only renderer: every frame is drawn from
// scratch, with no raster carried across frames.
#pragma once

#include <span>
#include <vector>

#include "imaging/fiducial.hpp"
#include "imaging/geometry.hpp"
#include "imaging/image.hpp"
#include "support/random.hpp"

namespace sdl::imaging {

/// Geometry shared between renderer and reader, expressed in units of the
/// fiducial marker's side length so the reader can recover everything
/// from the detected marker alone (as the paper's pipeline does).
struct SceneGeometry {
    int rows = 8;
    int cols = 12;
    /// Well pitch in marker-side units.
    double spacing = 0.62;
    /// Well radius in marker-side units.
    double well_radius = 0.24;
    /// Marker center -> well(0,0) center, in the marker's canonical frame.
    Vec2 plate_offset{1.45, -2.17};

    [[nodiscard]] int well_count() const noexcept { return rows * cols; }
};

struct PlateScene {
    int width = 800;
    int height = 600;
    SceneGeometry geometry;

    Vec2 marker_center{110.0, 300.0};
    double marker_side_px = 56.0;
    double angle_rad = 0.0;  ///< scene rotation (plate + marker together)
    std::size_t marker_id = 7;

    color::Rgb8 background{68, 70, 74};    ///< workcell deck
    color::Rgb8 plate_body{206, 204, 198};  ///< plate plastic
    color::Rgb8 well_wall{38, 38, 40};      ///< rim ring of filled wells
    /// Unfilled wells: translucent plastic shows nearly the plate color,
    /// which is what makes HoughCircles "prone to false negatives" on
    /// partially used plates (§2.4). The defaults sit right at the
    /// edge-detection margin so empty wells are found only sporadically —
    /// the grid alignment predicts the rest.
    color::Rgb8 empty_well{201, 199, 194};  ///< unfilled well interior
    color::Rgb8 empty_rim{196, 194, 189};

    double wall_thickness = 0.25;  ///< ring thickness as fraction of radius
    double noise_sigma = 2.0;      ///< Gaussian sensor noise, 8-bit units
    double vignette = 0.10;        ///< corner darkening strength
    Vec2 illum_gradient{0.04, -0.03};  ///< linear shading across the frame
};

/// Renders the scene from scratch: deck, plate body, wells, marker, then
/// shading and sensor noise. `well_colors` has rows*cols entries in
/// row-major order; `filled` marks which wells contain liquid (nullptr =
/// all). The RNG drives sensor noise only: the frame takes exactly one
/// draw from it, a key of which every pixel's noise is a pure function.
[[nodiscard]] Image render_plate(const PlateScene& scene,
                                 std::span<const color::Rgb8> well_colors,
                                 support::Rng& rng,
                                 const std::vector<bool>* filled = nullptr);

/// Ground-truth well-center positions for a scene (for tests/metrics).
[[nodiscard]] std::vector<Vec2> true_well_centers(const PlateScene& scene);

/// The fiducial pose the scene is calibrated for: the black-square
/// corners render_marker draws (clockwise from top-left), their center,
/// side and angle. A fixed camera nest sees the marker here on every
/// frame, so a PlateReader can start its marker search at this pose.
[[nodiscard]] MarkerDetection nominal_marker(const PlateScene& scene);

/// Adapts a scene to a plate format. Up to the calibrated 8x12 the scene
/// passes through with only rows/cols set (96-well frames stay bitwise
/// identical to the pre-adaptation renderer). Denser formats (384-, 1536-
/// well) shrink the well pitch so the grid spans the same deck area, and
/// upscale the frame + fiducial by the matching integer factor so each
/// well keeps its 96-well *pixel* size — the Hough radius band and the
/// §2.4 marker-relative geometry both keep working unchanged.
[[nodiscard]] PlateScene scene_for_plate(PlateScene scene, int rows, int cols);

}  // namespace sdl::imaging
