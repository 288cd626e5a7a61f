// Verbatim PR-4 hot-path implementations (see header). Sourced from the
// pre-optimization revisions of imaging/filters.cpp, imaging/hough.cpp,
// imaging/fiducial.cpp, imaging/well_reader.cpp, imaging/plate_render.cpp
// and solver/bayes.cpp; only namespaced and stitched to the public
// geometry/draw/components/quad APIs (which did not change).
#include "prepr_reference.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>

#include "imaging/components.hpp"
#include "imaging/draw.hpp"
#include "imaging/gridfit.hpp"
#include "imaging/quad.hpp"
#include "support/common.hpp"

namespace prepr {

using namespace sdl;
using namespace sdl::imaging;

// ----------------------------------------------------------- old filters

namespace {

GrayImage old_to_gray(const Image& rgb) {
    GrayImage out(rgb.width(), rgb.height());
    for (int y = 0; y < rgb.height(); ++y) {
        for (int x = 0; x < rgb.width(); ++x) {
            const color::Rgb8 c = rgb.pixel(x, y);
            out.at(x, y) =
                static_cast<float>((0.299 * c.r + 0.587 * c.g + 0.114 * c.b) / 255.0);
        }
    }
    return out;
}

GrayImage old_gaussian_blur(const GrayImage& img, double sigma) {
    if (sigma <= 0.0 || img.width() == 0 || img.height() == 0) return img;
    const int radius = static_cast<int>(std::ceil(3.0 * sigma));
    std::vector<float> kernel(static_cast<std::size_t>(2 * radius + 1));
    float sum = 0.0F;
    for (int i = -radius; i <= radius; ++i) {
        const auto w = static_cast<float>(std::exp(-0.5 * (i * i) / (sigma * sigma)));
        kernel[static_cast<std::size_t>(i + radius)] = w;
        sum += w;
    }
    for (float& w : kernel) w /= sum;

    const int width = img.width();
    const int height = img.height();
    GrayImage tmp(width, height);
    GrayImage out(width, height);

    for (int y = 0; y < height; ++y) {
        for (int x = 0; x < width; ++x) {
            float acc = 0.0F;
            for (int k = -radius; k <= radius; ++k) {
                const int xx = support::clamp(x + k, 0, width - 1);
                acc += kernel[static_cast<std::size_t>(k + radius)] * img.at(xx, y);
            }
            tmp.at(x, y) = acc;
        }
    }
    for (int y = 0; y < height; ++y) {
        for (int x = 0; x < width; ++x) {
            float acc = 0.0F;
            for (int k = -radius; k <= radius; ++k) {
                const int yy = support::clamp(y + k, 0, height - 1);
                acc += kernel[static_cast<std::size_t>(k + radius)] * tmp.at(x, yy);
            }
            out.at(x, y) = acc;
        }
    }
    return out;
}

Gradients old_sobel(const GrayImage& img) {
    const int width = img.width();
    const int height = img.height();
    Gradients g{GrayImage(width, height), GrayImage(width, height)};
    if (width < 3 || height < 3) return g;
    for (int y = 1; y < height - 1; ++y) {
        for (int x = 1; x < width - 1; ++x) {
            const float p00 = img.at(x - 1, y - 1), p10 = img.at(x, y - 1),
                        p20 = img.at(x + 1, y - 1);
            const float p01 = img.at(x - 1, y), p21 = img.at(x + 1, y);
            const float p02 = img.at(x - 1, y + 1), p12 = img.at(x, y + 1),
                        p22 = img.at(x + 1, y + 1);
            g.gx.at(x, y) = (p20 + 2 * p21 + p22) - (p00 + 2 * p01 + p02);
            g.gy.at(x, y) = (p02 + 2 * p12 + p22) - (p00 + 2 * p10 + p20);
        }
    }
    return g;
}

std::vector<double> old_integral_image(const GrayImage& img) {
    const int width = img.width();
    const int height = img.height();
    std::vector<double> integral(static_cast<std::size_t>(width + 1) *
                                 static_cast<std::size_t>(height + 1));
    const auto at = [&](int x, int y) -> double& {
        return integral[static_cast<std::size_t>(y) * static_cast<std::size_t>(width + 1) +
                        static_cast<std::size_t>(x)];
    };
    for (int y = 1; y <= height; ++y) {
        double row_sum = 0.0;
        for (int x = 1; x <= width; ++x) {
            row_sum += img.at(x - 1, y - 1);
            at(x, y) = at(x, y - 1) + row_sum;
        }
    }
    return integral;
}

double old_boxed_sum(const std::vector<double>& integral, int width, Rect r) {
    const auto at = [&](int x, int y) {
        return integral[static_cast<std::size_t>(y) * static_cast<std::size_t>(width + 1) +
                        static_cast<std::size_t>(x)];
    };
    return at(r.x1, r.y1) - at(r.x0, r.y1) - at(r.x1, r.y0) + at(r.x0, r.y0);
}

BinaryImage old_adaptive_threshold(const GrayImage& img, int window, float offset) {
    const int width = img.width();
    const int height = img.height();
    BinaryImage mask(width, height);
    if (width == 0 || height == 0) return mask;
    const std::vector<double> integral = old_integral_image(img);
    const int half = window / 2;
    for (int y = 0; y < height; ++y) {
        for (int x = 0; x < width; ++x) {
            const Rect r = Rect{x - half, y - half, x + half + 1, y + half + 1}.clipped(
                width, height);
            const double n = static_cast<double>(r.width()) * r.height();
            const double mean = old_boxed_sum(integral, width, r) / n;
            mask.set(x, y, img.at(x, y) < mean - offset);
        }
    }
    return mask;
}

}  // namespace

// ------------------------------------------------------------ old render

namespace {

double old_illumination(const PlateScene& scene, int x, int y) noexcept {
    const double nx = static_cast<double>(x) / scene.width - 0.5;
    const double ny = static_cast<double>(y) / scene.height - 0.5;
    const double gradient = 1.0 + scene.illum_gradient.x * nx + scene.illum_gradient.y * ny;
    const double r2 = (nx * nx + ny * ny) / 0.5;
    const double vignette = 1.0 - scene.vignette * r2;
    return gradient * vignette;
}

std::uint8_t old_shade(std::uint8_t value, double factor, double noise) noexcept {
    const double v = value * factor + noise;
    const long q = std::lround(v);
    return static_cast<std::uint8_t>(q < 0 ? 0 : (q > 255 ? 255 : q));
}

}  // namespace

Image render_plate(const PlateScene& scene, std::span<const color::Rgb8> well_colors,
                   support::Rng& rng, const std::vector<bool>* filled) {
    const SceneGeometry& g = scene.geometry;
    support::check(well_colors.size() == static_cast<std::size_t>(g.well_count()),
                   "well color count must equal rows*cols");

    Image img(scene.width, scene.height, scene.background);
    const double s = scene.marker_side_px;
    const double radius = g.well_radius * s;
    const double pitch = g.spacing * s;
    const std::vector<Vec2> centers = true_well_centers(scene);

    {
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

    for (int i = 0; i < g.well_count(); ++i) {
        const auto idx = static_cast<std::size_t>(i);
        const bool has_sample = filled == nullptr || (*filled)[idx];
        const Vec2 c = centers[idx];
        fill_ring(img, c, radius, radius * (1.0 - scene.wall_thickness),
                  has_sample ? scene.well_wall : scene.empty_rim);
        const color::Rgb8 interior = has_sample ? well_colors[idx] : scene.empty_well;
        fill_circle(img, c, radius * (1.0 - scene.wall_thickness), interior);
    }

    render_marker(img, MarkerDictionary::standard(), scene.marker_id, scene.marker_center,
                  scene.marker_side_px, scene.angle_rad);

    for (int y = 0; y < scene.height; ++y) {
        for (int x = 0; x < scene.width; ++x) {
            const double factor = old_illumination(scene, x, y);
            const color::Rgb8 p = img.pixel(x, y);
            img.set_pixel(x, y,
                          {old_shade(p.r, factor, rng.normal(0.0, scene.noise_sigma)),
                           old_shade(p.g, factor, rng.normal(0.0, scene.noise_sigma)),
                           old_shade(p.b, factor, rng.normal(0.0, scene.noise_sigma))});
        }
    }
    return img;
}

// ---------------------------------------------------------- old fiducial

namespace {

std::optional<std::uint16_t> old_sample_payload(const GrayImage& gray, const Homography& h) {
    std::array<std::array<float, kMarkerCells>, kMarkerCells> cells{};
    float lo = 1.0F, hi = 0.0F;
    for (int r = 0; r < kMarkerCells; ++r) {
        for (int c = 0; c < kMarkerCells; ++c) {
            float acc = 0.0F;
            for (int dy = -1; dy <= 1; ++dy) {
                for (int dx = -1; dx <= 1; ++dx) {
                    const double u = (c + 0.5 + dx * 0.2) / kMarkerCells;
                    const double v = (r + 0.5 + dy * 0.2) / kMarkerCells;
                    const Vec2 p = h.apply({u, v});
                    acc += sample_bilinear(gray, p.x, p.y);
                }
            }
            const float val = acc / 9.0F;
            cells[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)] = val;
            lo = std::min(lo, val);
            hi = std::max(hi, val);
        }
    }
    if (hi - lo < 0.15F) return std::nullopt;
    const float mid = 0.5F * (lo + hi);

    for (int i = 0; i < kMarkerCells; ++i) {
        if (cells[0][static_cast<std::size_t>(i)] > mid ||
            cells[kMarkerCells - 1][static_cast<std::size_t>(i)] > mid ||
            cells[static_cast<std::size_t>(i)][0] > mid ||
            cells[static_cast<std::size_t>(i)][kMarkerCells - 1] > mid) {
            return std::nullopt;
        }
    }
    std::uint16_t code = 0;
    for (int r = 0; r < kGridBits; ++r) {
        for (int c = 0; c < kGridBits; ++c) {
            if (cells[static_cast<std::size_t>(r + 1)][static_cast<std::size_t>(c + 1)] > mid) {
                code = static_cast<std::uint16_t>(code | (1U << (r * kGridBits + c)));
            }
        }
    }
    return code;
}

}  // namespace

std::vector<MarkerDetection> detect_markers(const Image& img, const MarkerDictionary& dict,
                                            const MarkerDetectParams& params) {
    std::vector<MarkerDetection> detections;
    if (img.width() < 8 || img.height() < 8) return detections;

    const GrayImage gray = old_to_gray(img);
    const GrayImage smooth = old_gaussian_blur(gray, params.blur_sigma);
    const BinaryImage dark = old_adaptive_threshold(smooth, params.adaptive_window,
                                                    params.adaptive_offset);
    const auto min_area =
        static_cast<std::size_t>(params.min_side_px * params.min_side_px * 0.3);
    const Labeling labeling = label_components(dark, min_area);

    for (std::int32_t i = 0; i < static_cast<std::int32_t>(labeling.blobs.size()); ++i) {
        const Blob& blob = labeling.blobs[static_cast<std::size_t>(i)];
        const double bbox_side = std::max(blob.bbox.width(), blob.bbox.height());
        if (bbox_side < params.min_side_px || bbox_side > params.max_side_px * 1.5) continue;

        const std::vector<Vec2> boundary = boundary_pixels(labeling, i);
        const auto quad = extract_quad(boundary);
        if (!quad) continue;
        if (squareness(*quad) < params.min_squareness) continue;
        const double side = mean_side(*quad);
        if (side < params.min_side_px || side > params.max_side_px) continue;

        const double quad_area = side * side;
        const double fill = static_cast<double>(blob.area) / quad_area;
        if (fill < 0.35 || fill > 1.05) continue;

        Homography h;
        try {
            h = Homography::unit_square_to(*quad);
        } catch (const support::Error&) {
            continue;
        }
        const auto payload = old_sample_payload(smooth, h);
        if (!payload) continue;
        const auto match = dict.match(*payload, params.max_correctable_bits);
        if (!match) continue;

        MarkerDetection det;
        det.id = match->id;
        det.corners = *quad;
        det.center = (det.corners[0] + det.corners[1] + det.corners[2] + det.corners[3]) * 0.25;
        det.side = side;
        det.bit_errors = match->distance;
        const std::size_t j0 = static_cast<std::size_t>(match->rotation % 4);
        const std::size_t j1 = (j0 + 1) % 4;
        const Vec2 xaxis = det.corners[j1] - det.corners[j0];
        det.angle = std::atan2(xaxis.y, xaxis.x);
        detections.push_back(det);
    }
    return detections;
}

// ------------------------------------------------------------- old hough

std::vector<CircleDetection> hough_circles(const GrayImage& gray, const HoughParams& params) {
    support::check(params.r_min > 0 && params.r_max >= params.r_min, "invalid radius range");
    std::vector<CircleDetection> circles;

    Rect roi = params.roi;
    if (roi.width() <= 0 || roi.height() <= 0) {
        roi = {0, 0, gray.width(), gray.height()};
    }
    roi = roi.clipped(gray.width(), gray.height());
    const int rw = roi.width();
    const int rh = roi.height();
    if (rw < 3 || rh < 3) return circles;

    GrayImage cropped(rw, rh);
    for (int y = 0; y < rh; ++y) {
        for (int x = 0; x < rw; ++x) {
            cropped.at(x, y) = gray.at(x + roi.x0, y + roi.y0);
        }
    }
    const GrayImage smooth = old_gaussian_blur(cropped, params.blur_sigma);
    const Gradients grad = old_sobel(smooth);

    struct Edge {
        float x;
        float y;
        float dx;
        float dy;
    };
    std::vector<Edge> edges;
    for (int y = 0; y < rh; ++y) {
        for (int x = 0; x < rw; ++x) {
            const double gx = grad.gx.at(x, y);
            const double gy = grad.gy.at(x, y);
            const double mag = std::hypot(gx, gy);
            if (mag < params.grad_threshold) continue;
            edges.push_back({static_cast<float>(x), static_cast<float>(y),
                             static_cast<float>(gx / mag), static_cast<float>(gy / mag)});
        }
    }
    if (edges.empty()) return circles;

    std::vector<float> acc(static_cast<std::size_t>(rw) * static_cast<std::size_t>(rh), 0.0F);
    const int ir_min = static_cast<int>(std::floor(params.r_min));
    const int ir_max = static_cast<int>(std::ceil(params.r_max));
    for (const Edge& e : edges) {
        for (int r = ir_min; r <= ir_max; ++r) {
            for (const int sign : {-1, 1}) {
                const int cx = static_cast<int>(std::lround(e.x + sign * r * e.dx));
                const int cy = static_cast<int>(std::lround(e.y + sign * r * e.dy));
                if (cx < 0 || cx >= rw || cy < 0 || cy >= rh) continue;
                acc[static_cast<std::size_t>(cy) * static_cast<std::size_t>(rw) +
                    static_cast<std::size_t>(cx)] += 1.0F;
            }
        }
    }

    std::vector<float> smooth_acc(acc.size(), 0.0F);
    for (int y = 1; y < rh - 1; ++y) {
        for (int x = 1; x < rw - 1; ++x) {
            float s = 0.0F;
            for (int dy = -1; dy <= 1; ++dy) {
                for (int dx = -1; dx <= 1; ++dx) {
                    s += acc[static_cast<std::size_t>(y + dy) * static_cast<std::size_t>(rw) +
                             static_cast<std::size_t>(x + dx)];
                }
            }
            smooth_acc[static_cast<std::size_t>(y) * static_cast<std::size_t>(rw) +
                       static_cast<std::size_t>(x)] = s / 9.0F;
        }
    }

    struct Peak {
        int x;
        int y;
        float votes;
    };
    std::vector<Peak> peaks;
    float strongest = 0.0F;
    for (int y = 1; y < rh - 1; ++y) {
        for (int x = 1; x < rw - 1; ++x) {
            const float v = smooth_acc[static_cast<std::size_t>(y) * static_cast<std::size_t>(rw) +
                                       static_cast<std::size_t>(x)];
            if (v < params.min_votes) continue;
            bool is_max = true;
            for (int dy = -1; dy <= 1 && is_max; ++dy) {
                for (int dx = -1; dx <= 1 && is_max; ++dx) {
                    if (dx == 0 && dy == 0) continue;
                    const float n =
                        smooth_acc[static_cast<std::size_t>(y + dy) * static_cast<std::size_t>(rw) +
                                   static_cast<std::size_t>(x + dx)];
                    if (n > v) is_max = false;
                }
            }
            if (is_max) {
                peaks.push_back({x, y, v});
                strongest = std::max(strongest, v);
            }
        }
    }
    std::sort(peaks.begin(), peaks.end(),
              [](const Peak& a, const Peak& b) { return a.votes > b.votes; });

    const double vote_floor = std::max(params.min_votes,
                                       params.vote_fraction * static_cast<double>(strongest));
    const double min_dist2 = params.min_center_dist * params.min_center_dist;
    const float reach = static_cast<float>(ir_max + 1);
    std::vector<int> radius_hist(static_cast<std::size_t>(ir_max) + 2, 0);
    for (const Peak& p : peaks) {
        if (p.votes < vote_floor) break;
        bool suppressed = false;
        for (const CircleDetection& c : circles) {
            const double ddx = c.center.x - (p.x + roi.x0);
            const double ddy = c.center.y - (p.y + roi.y0);
            if (ddx * ddx + ddy * ddy < min_dist2) {
                suppressed = true;
                break;
            }
        }
        if (suppressed) continue;

        std::fill(radius_hist.begin(), radius_hist.end(), 0);
        const float r2_max = reach * reach;
        const float r2_min = static_cast<float>((ir_min - 1) * (ir_min - 1));
        for (const Edge& e : edges) {
            const float dx = e.x - static_cast<float>(p.x);
            const float dy = e.y - static_cast<float>(p.y);
            const float d2 = dx * dx + dy * dy;
            if (d2 > r2_max || d2 < r2_min || d2 < 1e-6F) continue;
            const float d = std::sqrt(d2);
            const float align = std::fabs((dx * e.dx + dy * e.dy) / d);
            if (align < 0.85F) continue;
            const auto bin = static_cast<std::size_t>(std::lround(d));
            if (bin < radius_hist.size()) ++radius_hist[bin];
        }
        std::size_t best_bin = static_cast<std::size_t>(ir_min);
        for (std::size_t r = static_cast<std::size_t>(ir_min); r < radius_hist.size(); ++r) {
            if (radius_hist[r] > radius_hist[best_bin]) best_bin = r;
        }
        if (radius_hist[best_bin] <= 2) continue;

        circles.push_back({{static_cast<double>(p.x + roi.x0),
                            static_cast<double>(p.y + roi.y0)},
                           static_cast<double>(best_bin),
                           static_cast<double>(p.votes)});
        if (circles.size() >= params.max_circles) break;
    }
    return circles;
}

// -------------------------------------------------------- old well read

WellReadout read_plate(const Image& frame, const WellReadParams& params) {
    const ReadTuning tuning;
    WellReadout out;
    const SceneGeometry& g = params.geometry;

    const auto markers =
        prepr::detect_markers(frame, MarkerDictionary::standard(), tuning.marker);
    const MarkerDetection* marker = nullptr;
    for (const auto& m : markers) {
        if (tuning.marker_id < 0 || m.id == static_cast<std::size_t>(tuning.marker_id)) {
            if (marker == nullptr || m.side > marker->side) marker = &m;
        }
    }
    if (marker == nullptr) {
        out.error = "fiducial marker not found";
        return out;
    }
    out.marker = *marker;

    const double s = marker->side;
    const Vec2 ux = Vec2{1, 0}.rotated(marker->angle);
    const Vec2 uy = Vec2{0, 1}.rotated(marker->angle);
    GridModel initial;
    initial.origin = marker->center + ux * (g.plate_offset.x * s) + uy * (g.plate_offset.y * s);
    initial.row_axis = uy * (g.spacing * s);
    initial.col_axis = ux * (g.spacing * s);

    const double pitch = g.spacing * s;
    double min_x = 1e300, min_y = 1e300, max_x = -1e300, max_y = -1e300;
    for (const int r : {0, g.rows - 1}) {
        for (const int c : {0, g.cols - 1}) {
            const Vec2 p = initial.center(r, c);
            min_x = std::min(min_x, p.x);
            max_x = std::max(max_x, p.x);
            min_y = std::min(min_y, p.y);
            max_y = std::max(max_y, p.y);
        }
    }
    const double margin = tuning.roi_margin * pitch;
    const Rect roi = Rect{static_cast<int>(std::floor(min_x - margin)),
                          static_cast<int>(std::floor(min_y - margin)),
                          static_cast<int>(std::ceil(max_x + margin)),
                          static_cast<int>(std::ceil(max_y + margin))}
                         .clipped(frame.width(), frame.height());

    const double expected_r = g.well_radius * s;
    HoughParams hough;
    hough.roi = roi;
    hough.r_min = std::max(2.0, expected_r * (1.0 - tuning.radius_tolerance));
    hough.r_max = expected_r * (1.0 + tuning.radius_tolerance);
    hough.min_center_dist = 0.6 * pitch;
    hough.max_circles = static_cast<std::size_t>(g.well_count()) * 2;
    const GrayImage gray = old_to_gray(frame);
    const auto circles = prepr::hough_circles(gray, hough);
    out.hough_circles_found = circles.size();

    std::vector<Vec2> centers_detected;
    centers_detected.reserve(circles.size());
    for (const auto& c : circles) centers_detected.push_back(c.center);

    const GridFit fit = fit_grid(centers_detected, initial, g.rows, g.cols,
                                 tuning.inlier_radius * pitch);
    out.grid_residual_px = fit.mean_residual;

    std::vector<bool> supported(static_cast<std::size_t>(g.well_count()), false);
    for (const Vec2& p : centers_detected) {
        Vec2 rc;
        try {
            rc = fit.model.to_grid(p);
        } catch (const support::Error&) {
            continue;
        }
        const int r = static_cast<int>(std::lround(rc.x));
        const int c = static_cast<int>(std::lround(rc.y));
        if (r < 0 || r >= g.rows || c < 0 || c >= g.cols) continue;
        if (distance(fit.model.center(r, c), p) <= tuning.inlier_radius * pitch) {
            supported[static_cast<std::size_t>(r * g.cols + c)] = true;
        }
    }
    out.wells_with_circle = static_cast<std::size_t>(
        std::count(supported.begin(), supported.end(), true));
    out.wells_rescued = static_cast<std::size_t>(g.well_count()) - out.wells_with_circle;

    out.centers.reserve(static_cast<std::size_t>(g.well_count()));
    out.colors.reserve(static_cast<std::size_t>(g.well_count()));
    const double sample_r = tuning.sample_radius * expected_r;
    for (int r = 0; r < g.rows; ++r) {
        for (int c = 0; c < g.cols; ++c) {
            const Vec2 center = fit.model.center(r, c);
            out.centers.push_back(center);
            out.colors.push_back(mean_color_in_disk(frame, center.x, center.y, sample_r));
        }
    }
    out.ok = true;
    return out;
}

// --------------------------------------------------------------- old GP

double Gp::kernel(std::span<const double> a, std::span<const double> b) const noexcept {
    double d2 = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const double d = a[i] - b[i];
        d2 += d * d;
    }
    return signal_var_ * std::exp(-0.5 * d2 / (lengthscale_ * lengthscale_));
}

void Gp::fit(std::vector<std::vector<double>> xs, std::vector<double> ys,
             double lengthscale, double noise_var) {
    xs_ = std::move(xs);
    lengthscale_ = lengthscale;
    noise_var_ = noise_var;

    double mean = 0.0;
    for (const double y : ys) mean += y;
    mean /= static_cast<double>(ys.size());
    double var = 0.0;
    for (const double y : ys) var += (y - mean) * (y - mean);
    var /= static_cast<double>(ys.size());
    y_mean_ = mean;
    y_scale_ = var > 1e-12 ? std::sqrt(var) : 1.0;
    ys_std_.resize(ys.size());
    for (std::size_t i = 0; i < ys.size(); ++i) ys_std_[i] = (ys[i] - y_mean_) / y_scale_;

    const std::size_t n = xs_.size();
    sdl::linalg::Matrix k(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j <= i; ++j) {
            const double v = kernel(xs_[i], xs_[j]);
            k(i, j) = v;
            k(j, i) = v;
        }
        k(i, i) += noise_var_;
    }
    chol_ = std::make_unique<sdl::linalg::Cholesky>(sdl::linalg::cholesky_with_jitter(k));
    alpha_ = chol_->solve(ys_std_);
}

Gp::Prediction Gp::predict(std::span<const double> x) const {
    const std::size_t n = xs_.size();
    sdl::linalg::Vec kx(n);
    for (std::size_t i = 0; i < n; ++i) kx[i] = kernel(xs_[i], x);

    const double mean_std = sdl::linalg::dot(kx, alpha_);
    const sdl::linalg::Vec v = chol_->solve_lower(kx);
    double var_std = signal_var_ + noise_var_ - sdl::linalg::dot(v, v);
    if (var_std < 1e-12) var_std = 1e-12;

    return {mean_std * y_scale_ + y_mean_, var_std * y_scale_ * y_scale_};
}

}  // namespace prepr
