#include "imaging/plate_render.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "imaging/draw.hpp"
#include "support/common.hpp"

namespace sdl::imaging {

namespace {

/// Plate body: a quadrilateral covering the well block plus a margin.
void draw_plate_body(Image& img, const PlateScene& scene, const std::vector<Vec2>& centers) {
    const SceneGeometry& g = scene.geometry;
    const double pitch = g.spacing * scene.marker_side_px;
    const Vec2 ux = Vec2{1, 0}.rotated(scene.angle_rad);
    const Vec2 uy = Vec2{0, 1}.rotated(scene.angle_rad);
    const double margin = pitch * 0.9;
    const Vec2 tl = centers[0] - ux * margin - uy * margin;
    const Vec2 br = centers[static_cast<std::size_t>(g.well_count() - 1)] + ux * margin +
                    uy * margin;
    const Vec2 tr = tl + ux * ((br - tl).dot(ux));
    const Vec2 bl = tl + uy * ((br - tl).dot(uy));
    const Vec2 corners[4] = {tl, tr, br, bl};
    fill_quad(img, corners, scene.plate_body);
}

/// Wells: rim ring plus interior (sample color or empty plastic).
void draw_wells(Image& img, const PlateScene& scene, const std::vector<Vec2>& centers,
                std::span<const color::Rgb8> well_colors, const std::vector<bool>* filled) {
    const SceneGeometry& g = scene.geometry;
    const double radius = g.well_radius * scene.marker_side_px;
    for (int i = 0; i < g.well_count(); ++i) {
        const auto idx = static_cast<std::size_t>(i);
        const bool has_sample = filled == nullptr || (*filled)[idx];
        const Vec2 c = centers[idx];
        fill_ring(img, c, radius, radius * (1.0 - scene.wall_thickness),
                  has_sample ? scene.well_wall : scene.empty_rim);
        const color::Rgb8 interior = has_sample ? well_colors[idx] : scene.empty_well;
        fill_circle(img, c, radius * (1.0 - scene.wall_thickness), interior);
    }
}

// Counter-based sensor noise (Salmon et al., "Parallel Random Numbers: As
// Easy as 1, 2, 3", SC 2011): a frame draws one 64-bit key, and every
// pixel's noise is a pure function of (key, pixel index, channel). One
// stateless mix per pixel yields three 21-bit fields; each field maps to
// a standard normal through a table-driven inverse CDF. No per-sample
// libm call, rejection loop, or carried generator state.
constexpr int kFieldBits = 21;
constexpr std::uint64_t kFieldMask = (std::uint64_t{1} << kFieldBits) - 1;
constexpr int kFracBits = 9;                         // position inside a cell
constexpr int kCells = 1 << (kFieldBits - kFracBits);  // 4096 uniform cells
constexpr std::uint64_t kFracMask = (std::uint64_t{1} << kFracBits) - 1;
constexpr double kInvSqrt2Pi = 0.39894228040143267794;  // φ(0)

/// One inverse-CDF cell in slope-intercept form: a field with cell bits i
/// and in-cell offset k maps to z0 + dz * k. Both values are rounded to
/// float, which absorbs most last-ulp libm differences in the table's
/// build, and stored widened to double (exact), so a sample needs no
/// conversion.
struct NormalCell {
    double z0;
    double dz;
};

/// SplitMix64's output function at counter position `n` from state `key`:
/// a bijective 64-bit finalizer over key + n·γ (γ the golden-ratio
/// increment), so neighbouring pixels land on unrelated outputs.
std::uint64_t noise_bits(std::uint64_t key, std::uint64_t n) noexcept {
    std::uint64_t z = key + n * 0x9E3779B97F4A7C15ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

/// Φ⁻¹(p) for 0 < p <= 0.5 by Newton's method on Φ(x) = erfc(-x/√2)/2.
/// Φ is convex on x <= 0, so the iterates from x = 0 descend monotonically
/// onto the root. Used only to build the table, never per sample.
double inverse_normal_cdf_lower(double p) {
    constexpr double kInvSqrt2 = 0.70710678118654752440;
    double x = 0.0;
    for (int it = 0; it < 200; ++it) {
        const double f = 0.5 * std::erfc(-x * kInvSqrt2) - p;
        const double step = f / (kInvSqrt2Pi * std::exp(-0.5 * x * x));
        x -= step;
        if (std::abs(step) < 1e-14) break;
    }
    return x;
}

/// Knots t[i] = Φ⁻¹(i / kCells), linearly interpolated inside each cell.
/// The two unbounded end cells get a finite outer knot chosen so the cell
/// mean equals the tail's conditional mean E[Z | U < 1/kCells] =
/// -φ(t[1])·kCells, which keeps the variance within 1e-4 of 1. Knots are
/// built for the lower half and mirrored, so the table is antisymmetric
/// and the noise is unbiased.
std::vector<NormalCell> build_normal_table() {
    std::vector<double> knots(kCells + 1);
    for (int i = 1; i <= kCells / 2; ++i) {
        knots[static_cast<std::size_t>(i)] =
            i == kCells / 2 ? 0.0 : inverse_normal_cdf_lower(static_cast<double>(i) / kCells);
    }
    const double t1 = knots[1];
    const double tail_mean = -kInvSqrt2Pi * std::exp(-0.5 * t1 * t1) * kCells;
    knots[0] = 2.0 * tail_mean - t1;
    for (int i = 0; i < kCells / 2; ++i) {
        knots[static_cast<std::size_t>(kCells - i)] = -knots[static_cast<std::size_t>(i)];
    }
    std::vector<NormalCell> cells(kCells);
    constexpr double kSteps = 1 << kFracBits;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const double slope = (knots[i + 1] - knots[i]) / kSteps;
        // Offsets sit at sub-step midpoints, (k + 0.5) / kSteps of the cell.
        cells[i] = {static_cast<float>(knots[i] + 0.5 * slope), static_cast<float>(slope)};
    }
    return cells;
}

const NormalCell* normal_table() {
    static const std::vector<NormalCell> table = build_normal_table();
    return table.data();
}

/// Sensor model: illumination shading and Gaussian noise, one row at a
/// time in two passes. The first is scalar: per pixel, one mix gives the
/// three channels' noise through table lookups, and the shading factor
/// combines the per-column gradient/vignette terms (precomputed once per
/// frame) in the order the scalar illumination() helper used, so the
/// shading bits are unchanged; each channel becomes value * factor +
/// noise. The second is one flat, branch-free pass over the row's bytes
/// that rounds half up and clamps to [0, 255] in integers. For v >= 0
/// that is round-half-away-from-zero, and a negative v becomes 0 either
/// way. The frame's noise key is the one draw this makes from `rng`.
void apply_sensor_model(Image& img, const PlateScene& scene, support::Rng& rng) {
    const auto width = static_cast<std::size_t>(scene.width);
    std::vector<double> column_gradient(width);
    std::vector<double> nx2(width);
    for (std::size_t x = 0; x < width; ++x) {
        const double nx = static_cast<double>(x) / scene.width - 0.5;
        column_gradient[x] = 1.0 + scene.illum_gradient.x * nx;
        nx2[x] = nx * nx;
    }
    const double gy = scene.illum_gradient.y;
    const double sigma = scene.noise_sigma;
    const std::uint64_t key = rng.next();
    const NormalCell* table = normal_table();
    std::vector<double> values(3 * width);
    std::uint8_t* bytes = img.bytes().data();
    for (int y = 0; y < scene.height; ++y) {
        const double ny = static_cast<double>(y) / scene.height - 0.5;
        const double gy_ny = gy * ny;
        const double ny2 = ny * ny;
        const std::size_t row_start = static_cast<std::size_t>(y) * width;
        std::uint8_t* row = bytes + 3 * row_start;
        for (std::size_t x = 0; x < width; ++x) {
            const double gradient = column_gradient[x] + gy_ny;
            const double r2 = (nx2[x] + ny2) / 0.5;  // 1.0 at frame corners
            const double factor = gradient * (1.0 - scene.vignette * r2);
            const std::uint64_t bits = noise_bits(key, row_start + x);
            for (std::size_t c = 0; c < 3; ++c) {
                const std::uint64_t field = (bits >> (c * kFieldBits)) & kFieldMask;
                const NormalCell& cell = table[field >> kFracBits];
                const double noise =
                    sigma * (cell.z0 + cell.dz * static_cast<double>(field & kFracMask));
                values[3 * x + c] = row[3 * x + c] * factor + noise;
            }
        }
        for (std::size_t i = 0; i < 3 * width; ++i) {
            const int q = static_cast<int>(values[i] + 0.5);
            row[i] = static_cast<std::uint8_t>(q < 0 ? 0 : (q > 255 ? 255 : q));
        }
    }
}

}  // namespace

std::vector<Vec2> true_well_centers(const PlateScene& scene) {
    const SceneGeometry& g = scene.geometry;
    const double s = scene.marker_side_px;
    const Vec2 ux = Vec2{1, 0}.rotated(scene.angle_rad);
    const Vec2 uy = Vec2{0, 1}.rotated(scene.angle_rad);
    const Vec2 origin = scene.marker_center + ux * (g.plate_offset.x * s) +
                        uy * (g.plate_offset.y * s);
    std::vector<Vec2> centers;
    centers.reserve(static_cast<std::size_t>(g.well_count()));
    for (int r = 0; r < g.rows; ++r) {
        for (int c = 0; c < g.cols; ++c) {
            centers.push_back(origin + uy * (r * g.spacing * s) + ux * (c * g.spacing * s));
        }
    }
    return centers;
}

MarkerDetection nominal_marker(const PlateScene& scene) {
    const Vec2 c = scene.marker_center;
    const Vec2 half_x = Vec2{1, 0}.rotated(scene.angle_rad) * (scene.marker_side_px / 2);
    const Vec2 half_y = Vec2{0, 1}.rotated(scene.angle_rad) * (scene.marker_side_px / 2);
    MarkerDetection marker;
    marker.id = scene.marker_id;
    marker.corners = {c - half_x - half_y, c + half_x - half_y, c + half_x + half_y,
                      c - half_x + half_y};
    marker.center = c;
    marker.side = scene.marker_side_px;
    marker.angle = scene.angle_rad;
    return marker;
}

PlateScene scene_for_plate(PlateScene scene, int rows, int cols) {
    scene.geometry.rows = rows;
    scene.geometry.cols = cols;
    // The calibrated scene fits an 8x12 grid; denser plates upscale the
    // raster by ceil(1/f) (f is 1/2 for 384, 1/4 for 1536, so the
    // upscale is exact) and leave the marker-relative geometry alone:
    // with marker_side_px unchanged, well pixel pitch and radius stay at
    // the 96-well values the vision pipeline is calibrated for, and the
    // marker itself stays inside the detector's scale envelope (a 4x
    // marker would outgrow the adaptive-threshold window and vanish).
    const double f = std::min(12.0 / std::max(cols, 1), 8.0 / std::max(rows, 1));
    if (f >= 1.0) {
        return scene;
    }
    const double up = std::ceil(1.0 / f);
    scene.width = static_cast<int>(scene.width * up);
    scene.height = static_cast<int>(scene.height * up);
    scene.marker_center = scene.marker_center * up;
    return scene;
}

Image render_plate(const PlateScene& scene, std::span<const color::Rgb8> well_colors,
                   support::Rng& rng, const std::vector<bool>* filled) {
    const auto wells = static_cast<std::size_t>(scene.geometry.well_count());
    support::check(well_colors.size() == wells, "well color count must equal rows*cols");
    support::check(filled == nullptr || filled->size() == wells,
                   "fill mask size must equal rows*cols");
    const std::vector<Vec2> centers = true_well_centers(scene);
    Image img(scene.width, scene.height, scene.background);
    draw_plate_body(img, scene, centers);
    draw_wells(img, scene, centers, well_colors, filled);
    render_marker(img, MarkerDictionary::standard(), scene.marker_id, scene.marker_center,
                  scene.marker_side_px, scene.angle_rad);
    apply_sensor_model(img, scene, rng);
    return img;
}

}  // namespace sdl::imaging
