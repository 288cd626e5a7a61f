// Additional imaging coverage: drawing primitives, filter edge cases,
// renderer properties, and detector behaviour at the margins.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "imaging/components.hpp"
#include "imaging/draw.hpp"
#include "imaging/fiducial.hpp"
#include "imaging/filters.hpp"
#include "imaging/gridfit.hpp"
#include "imaging/hough.hpp"
#include "imaging/plate_render.hpp"
#include "imaging/ppm.hpp"
#include "imaging/well_reader.hpp"
#include "support/common.hpp"
#include "support/random.hpp"

using namespace sdl::imaging;
using sdl::color::Rgb8;
using sdl::support::Rng;

// ------------------------------------------------------------------ draw

TEST(Draw, FillRectClipsToImage) {
    Image img(10, 10, {0, 0, 0});
    fill_rect(img, {-5, -5, 5, 5}, {255, 255, 255});
    EXPECT_EQ(img.pixel(0, 0), (Rgb8{255, 255, 255}));
    EXPECT_EQ(img.pixel(4, 4), (Rgb8{255, 255, 255}));
    EXPECT_EQ(img.pixel(5, 5), (Rgb8{0, 0, 0}));
    // Entirely outside: no-op, no crash.
    fill_rect(img, {20, 20, 30, 30}, {9, 9, 9});
}

TEST(Draw, FillCircleCoversExpectedArea) {
    Image img(50, 50, {0, 0, 0});
    fill_circle(img, {25, 25}, 10, {255, 255, 255});
    std::size_t white = 0;
    for (int y = 0; y < 50; ++y) {
        for (int x = 0; x < 50; ++x) {
            if (img.pixel(x, y).r > 128) ++white;
        }
    }
    const double area = 3.14159265 * 100.0;
    EXPECT_NEAR(static_cast<double>(white), area, area * 0.06);
}

TEST(Draw, FillCircleAntialiasesEdges) {
    Image img(30, 30, {0, 0, 0});
    fill_circle(img, {15.5, 15.5}, 8, {255, 255, 255});
    // Some pixels must be partially covered (neither black nor white).
    int partial = 0;
    for (int y = 0; y < 30; ++y) {
        for (int x = 0; x < 30; ++x) {
            const auto v = img.pixel(x, y).r;
            if (v > 20 && v < 235) ++partial;
        }
    }
    EXPECT_GT(partial, 4);
}

TEST(Draw, FillRingLeavesInteriorUntouched) {
    Image img(60, 60, {10, 10, 10});
    fill_ring(img, {30, 30}, 20, 14, {200, 200, 200});
    EXPECT_EQ(img.pixel(30, 30), (Rgb8{10, 10, 10}));     // center
    EXPECT_GT(img.pixel(30 + 17, 30).r, 150);             // mid-ring
    EXPECT_EQ(img.pixel(30 + 25, 30), (Rgb8{10, 10, 10}));  // outside
}

TEST(Draw, FillQuadHandlesBothWindingOrders) {
    Image a(20, 20, {0, 0, 0});
    Image b(20, 20, {0, 0, 0});
    const Vec2 cw[4] = {{4, 4}, {15, 4}, {15, 15}, {4, 15}};
    const Vec2 ccw[4] = {{4, 4}, {4, 15}, {15, 15}, {15, 4}};
    fill_quad(a, cw, {255, 255, 255});
    fill_quad(b, ccw, {255, 255, 255});
    for (int y = 0; y < 20; ++y) {
        for (int x = 0; x < 20; ++x) {
            EXPECT_EQ(a.pixel(x, y), b.pixel(x, y)) << x << "," << y;
        }
    }
    EXPECT_EQ(a.pixel(10, 10), (Rgb8{255, 255, 255}));
}

namespace {

/// The per-pixel rule fill_quad must reproduce: a pixel is covered when its
/// center lies on the inner side of all four edges, the inner side taken
/// from the sign of the quad's signed area.
bool quad_covers(const Vec2 (&q)[4], int x, int y) {
    double area = 0.0;
    for (int i = 0; i < 4; ++i) area += q[i].cross(q[(i + 1) % 4]);
    const double sign = area >= 0.0 ? 1.0 : -1.0;
    const Vec2 p{x + 0.5, y + 0.5};
    for (int i = 0; i < 4; ++i) {
        const Vec2 a = q[i];
        const Vec2 b = q[(i + 1) % 4];
        if (sign * (b - a).cross(p - a) < 0.0) return false;
    }
    return true;
}

/// Fills `q` into a w x h frame and checks every pixel against
/// quad_covers; returns the number of covered pixels.
long expect_fill_matches_reference(const Vec2 (&q)[4], int w, int h) {
    const Rgb8 bg{1, 2, 3};
    const Rgb8 fg{250, 251, 252};
    Image img(w, h, bg);
    fill_quad(img, q, fg);
    long covered = 0;
    for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
            const Rgb8 want = quad_covers(q, x, y) ? fg : bg;
            if (img.pixel(x, y) != want) {
                ADD_FAILURE() << "pixel " << x << "," << y;  // one report per quad
                return covered;
            }
            covered += want == fg ? 1 : 0;
        }
    }
    return covered;
}

/// Corners of the rectangle centred on `c` with half-sides `hx`, `hy`,
/// rotated by `angle`; `reverse` flips the winding.
void rotated_rect(Vec2 (&q)[4], Vec2 c, double hx, double hy, double angle, bool reverse) {
    const Vec2 ux = Vec2{1, 0}.rotated(angle) * hx;
    const Vec2 uy = Vec2{0, 1}.rotated(angle) * hy;
    const Vec2 corners[4] = {c - ux - uy, c + ux - uy, c + ux + uy, c - ux + uy};
    for (int i = 0; i < 4; ++i) q[i] = corners[reverse ? 3 - i : i];
}

}  // namespace

TEST(Draw, FillQuadRowSpansMatchPerPixelRule) {
    // fill_quad fills each row between its first and last covered pixel
    // without testing the pixels in between. Check it against the
    // per-pixel rule on every pixel of the frame.
    constexpr int kW = 64;
    constexpr int kH = 48;
    Rng rng(1234);
    Vec2 q[4];
    long covered = 0;
    for (int trial = 0; trial < 300; ++trial) {
        // Random convex quads (an affine image of four sorted points on a
        // circle), both windings, centres up to 20 px outside the frame.
        double t[4];
        for (double& v : t) v = rng.uniform(0.0, 2.0 * 3.14159265358979323846);
        std::sort(t, t + 4);
        const Vec2 c{rng.uniform(-20.0, kW + 20.0), rng.uniform(-20.0, kH + 20.0)};
        const double sx = rng.uniform(0.5, 30.0);
        const double sy = rng.uniform(0.5, 30.0);
        const double angle = rng.uniform(-3.2, 3.2);
        const bool reverse = trial % 2 == 1;
        for (int i = 0; i < 4; ++i) {
            const double ti = t[reverse ? 3 - i : i];
            q[i] = c + Vec2{sx * std::cos(ti), sy * std::sin(ti)}.rotated(angle);
        }
        covered += expect_fill_matches_reference(q, kW, kH);
        // Rotated slivers thinner than a pixel.
        rotated_rect(q, c, rng.uniform(2.0, 40.0), rng.uniform(0.05, 0.45),
                     rng.uniform(-3.2, 3.2), reverse);
        covered += expect_fill_matches_reference(q, kW, kH);
    }
    EXPECT_GT(covered, 10000);  // the quads are not all off-frame

    // Fully off-frame on each side: nothing is drawn.
    const Vec2 away[4] = {{-50, 10}, {kW + 50.0, 10}, {10, -50}, {10, kH + 50.0}};
    for (const Vec2 c : away) {
        rotated_rect(q, c, 20.0, 8.0, 0.3, false);
        EXPECT_EQ(expect_fill_matches_reference(q, kW, kH), 0);
    }

    // The plate-body quads the renderer draws on 96-, 384- and 1536-well
    // scenes, upright and rotated.
    for (const auto& [rows, cols] : {std::pair{8, 12}, std::pair{16, 24}, std::pair{32, 48}}) {
        for (const double angle : {0.0, 0.04, -0.3}) {
            PlateScene scene = scene_for_plate(PlateScene{}, rows, cols);
            scene.angle_rad = angle;
            const std::vector<Vec2> centers = true_well_centers(scene);
            const Vec2 ux = Vec2{1, 0}.rotated(angle);
            const Vec2 uy = Vec2{0, 1}.rotated(angle);
            const double margin = scene.geometry.spacing * scene.marker_side_px * 0.9;
            const Vec2 tl = centers.front() - ux * margin - uy * margin;
            const Vec2 br = centers.back() + ux * margin + uy * margin;
            const Vec2 body[4] = {tl, tl + ux * ((br - tl).dot(ux)), br,
                                  tl + uy * ((br - tl).dot(uy))};
            EXPECT_GT(expect_fill_matches_reference(body, scene.width, scene.height), 0)
                << rows * cols << " wells, angle " << angle;
        }
    }
}

TEST(Draw, LineConnectsEndpoints) {
    Image img(20, 20, {0, 0, 0});
    draw_line(img, {2, 3}, {17, 12}, {255, 0, 0});
    EXPECT_EQ(img.pixel(2, 3).r, 255);
    EXPECT_EQ(img.pixel(17, 12).r, 255);
}

TEST(Draw, CircleOutlinePointsLieOnRadius) {
    Image img(60, 60, {0, 0, 0});
    draw_circle(img, {30, 30}, 12, {0, 255, 0});
    for (int y = 0; y < 60; ++y) {
        for (int x = 0; x < 60; ++x) {
            if (img.pixel(x, y).g == 255) {
                const double d = std::hypot(x - 30.0, y - 30.0);
                EXPECT_NEAR(d, 12.0, 1.2);
            }
        }
    }
}

// --------------------------------------------------------------- filters

TEST(FiltersExtra, ZeroSigmaBlurIsIdentity) {
    Rng rng(3);
    GrayImage img(8, 8);
    for (auto& v : img.values()) v = static_cast<float>(rng.uniform());
    const GrayImage out = gaussian_blur(img, 0.0);
    for (int y = 0; y < 8; ++y) {
        for (int x = 0; x < 8; ++x) EXPECT_EQ(out.at(x, y), img.at(x, y));
    }
}

TEST(FiltersExtra, SobelDetectsHorizontalEdge) {
    GrayImage img(10, 10);
    for (int y = 5; y < 10; ++y) {
        for (int x = 0; x < 10; ++x) img.at(x, y) = 1.0F;
    }
    const Gradients g = sobel(img);
    EXPECT_GT(g.gy.at(5, 5), 1.0F);
    EXPECT_NEAR(g.gx.at(5, 5), 0.0F, 1e-5F);
}

TEST(FiltersExtra, AdaptiveThresholdOnUniformImageIsEmpty) {
    GrayImage img(32, 32, 0.5F);
    const BinaryImage mask = adaptive_threshold(img, 9, 0.05F);
    EXPECT_EQ(mask.count(), 0u);
}

TEST(FiltersExtra, RegionMeanClipsAndAverages) {
    GrayImage img(10, 10, 0.25F);
    for (int x = 0; x < 10; ++x) img.at(x, 0) = 1.0F;
    EXPECT_NEAR(region_mean(img, {0, 0, 10, 1}), 1.0F, 1e-6F);
    EXPECT_NEAR(region_mean(img, {-100, 1, 100, 100}), 0.25F, 1e-6F);
    EXPECT_EQ(region_mean(img, {50, 50, 60, 60}), 0.0F);  // fully clipped
}

// ------------------------------------------------------------ components

TEST(ComponentsExtra, LargeBlobDoesNotOverflow) {
    // Flood fill is iterative; a frame-sized blob must be fine.
    BinaryImage mask(300, 300, true);
    const Labeling lab = label_components(mask);
    ASSERT_EQ(lab.blobs.size(), 1u);
    EXPECT_EQ(lab.blobs[0].area, 90000u);
}

TEST(ComponentsExtra, LabelsStayDenseAfterMinAreaFiltering) {
    BinaryImage mask(30, 10);
    mask.set(0, 0, true);  // speck (dropped)
    for (int x = 5; x < 9; ++x)
        for (int y = 2; y < 6; ++y) mask.set(x, y, true);  // blob A
    mask.set(15, 0, true);  // speck (dropped)
    for (int x = 20; x < 26; ++x)
        for (int y = 3; y < 8; ++y) mask.set(x, y, true);  // blob B
    const Labeling lab = label_components(mask, 4);
    ASSERT_EQ(lab.blobs.size(), 2u);
    EXPECT_EQ(lab.blobs[0].label, 0);
    EXPECT_EQ(lab.blobs[1].label, 1);
    EXPECT_EQ(lab.label_at(6, 3), 0);
    EXPECT_EQ(lab.label_at(22, 5), 1);
}

// -------------------------------------------------------------- fiducial

class FiducialSize : public ::testing::TestWithParam<double> {};

TEST_P(FiducialSize, DetectsAcrossScales) {
    const double side = GetParam();
    Image img(400, 300, {90, 90, 95});
    render_marker(img, MarkerDictionary::standard(), 2, {200, 150}, side, 0.15);
    const auto detections = detect_markers(img, MarkerDictionary::standard());
    ASSERT_EQ(detections.size(), 1u) << "side " << side;
    EXPECT_EQ(detections[0].id, 2u);
    // Boundary-pixel quantization gives an absolute ~2-3 px floor, which
    // dominates for small markers.
    EXPECT_NEAR(detections[0].side, side, std::max(side * 0.08, 3.0));
}

INSTANTIATE_TEST_SUITE_P(Sizes, FiducialSize,
                         ::testing::Values(24.0, 36.0, 56.0, 80.0, 120.0));

TEST(FiducialExtra, TwoMarkersInOneFrame) {
    Image img(400, 200, {85, 85, 90});
    render_marker(img, MarkerDictionary::standard(), 3, {100, 100}, 50, 0.0);
    render_marker(img, MarkerDictionary::standard(), 9, {300, 100}, 50, 0.4);
    const auto detections = detect_markers(img, MarkerDictionary::standard());
    ASSERT_EQ(detections.size(), 2u);
    const bool has3 = detections[0].id == 3 || detections[1].id == 3;
    const bool has9 = detections[0].id == 9 || detections[1].id == 9;
    EXPECT_TRUE(has3);
    EXPECT_TRUE(has9);
}

// ----------------------------------------------------------------- hough

TEST(HoughExtra, ResultsSortedByVotes) {
    Image img(200, 100, {230, 230, 230});
    fill_circle(img, {50, 50}, 14, {30, 30, 30});   // big circle: more votes
    fill_circle(img, {150, 50}, 8, {30, 30, 30});   // small circle
    HoughParams params;
    params.r_min = 5;
    params.r_max = 18;
    params.min_center_dist = 30;
    const auto circles = hough_circles(to_gray(img), params);
    ASSERT_GE(circles.size(), 2u);
    EXPECT_GE(circles[0].votes, circles[1].votes);
    EXPECT_NEAR(circles[0].center.x, 50, 3.0);  // the stronger one first
}

TEST(HoughExtra, NmsMergesAdjacentPeaks) {
    Image img(100, 100, {230, 230, 230});
    fill_circle(img, {50, 50}, 12, {30, 30, 30});
    HoughParams params;
    params.r_min = 8;
    params.r_max = 16;
    params.min_center_dist = 15;
    const auto circles = hough_circles(to_gray(img), params);
    EXPECT_EQ(circles.size(), 1u);  // one physical circle -> one detection
}

// ------------------------------------------------------------- grid fit

TEST(GridFitExtra, DegenerateAxesThrow) {
    GridModel m;
    m.origin = {0, 0};
    m.row_axis = {1, 0};
    m.col_axis = {2, 0};  // parallel to row_axis
    EXPECT_THROW((void)m.to_grid({5, 5}), sdl::support::Error);
}

// -------------------------------------------------------------- renderer

TEST(RendererExtra, VignetteDarkensCorners) {
    PlateScene scene;
    scene.noise_sigma = 0.0;
    scene.vignette = 0.25;
    scene.illum_gradient = {0.0, 0.0};
    std::vector<Rgb8> colors(96, Rgb8{120, 120, 120});
    Rng rng(1);
    const Image frame = render_plate(scene, colors, rng);
    // Deck background: corner must be darker than the frame-center deck.
    const Rgb8 corner = frame.pixel(3, 3);
    const Rgb8 center = frame.pixel(frame.width() / 2, 20);
    EXPECT_LT(corner.r, center.r);
}

TEST(RendererExtra, NoiseIsDeterministicPerSeed) {
    PlateScene scene;
    std::vector<Rgb8> colors(96, Rgb8{120, 120, 120});
    Rng rng_a(5), rng_b(5), rng_c(6);
    const Image a = render_plate(scene, colors, rng_a);
    const Image b = render_plate(scene, colors, rng_b);
    const Image c = render_plate(scene, colors, rng_c);
    EXPECT_EQ(a.pixel(100, 100), b.pixel(100, 100));
    EXPECT_EQ(a.pixel(321, 417), b.pixel(321, 417));
    bool differs = false;
    for (int x = 0; x < a.width() && !differs; x += 7) {
        if (!(a.pixel(x, 50) == c.pixel(x, 50))) differs = true;
    }
    EXPECT_TRUE(differs);
}

namespace {

/// A flat mid-gray frame: the marker (and with it the plate) sits far out
/// of frame and shading is off, so every pixel is 128 * 1.0 + noise.
PlateScene flat_gray_scene(double sigma) {
    PlateScene scene;
    scene.marker_center = {-10000.0, -10000.0};
    scene.background = {128, 128, 128};
    scene.vignette = 0.0;
    scene.illum_gradient = {0.0, 0.0};
    scene.noise_sigma = sigma;
    return scene;
}

/// Pearson correlation of the pairs (a[i], b[i]).
double correlation(const std::vector<double>& a, const std::vector<double>& b) {
    const auto n = static_cast<double>(a.size());
    double ma = 0.0, mb = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        ma += a[i];
        mb += b[i];
    }
    ma /= n;
    mb /= n;
    double sab = 0.0, saa = 0.0, sbb = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        sab += (a[i] - ma) * (b[i] - mb);
        saa += (a[i] - ma) * (a[i] - ma);
        sbb += (b[i] - mb) * (b[i] - mb);
    }
    return sab / std::sqrt(saa * sbb);
}

}  // namespace

TEST(RendererExtra, KeyedNoiseIsGaussianAndUncorrelated) {
    // sigma = 8.5 puts 3 sigma at 25.5, so on the integer residuals
    // "|r| > 3 sigma" is exactly "|noise| > 3 sigma"; rounding adds only
    // 1/12 to the variance, and 128 +- 4 sigma never clips.
    constexpr double kSigma = 8.5;
    constexpr int kFrames = 4;
    const PlateScene scene = flat_gray_scene(kSigma);
    const std::vector<Rgb8> colors(96, Rgb8{128, 128, 128});
    Rng rng(2024);
    const int w = scene.width;
    const int h = scene.height;
    // residual[frame][channel][y * w + x]
    std::vector<std::array<std::vector<double>, 3>> residual(kFrames);
    for (int f = 0; f < kFrames; ++f) {
        const Image frame = render_plate(scene, colors, rng);
        const auto bytes = frame.bytes();
        for (int c = 0; c < 3; ++c) {
            auto& r = residual[static_cast<std::size_t>(f)][static_cast<std::size_t>(c)];
            r.resize(static_cast<std::size_t>(w) * static_cast<std::size_t>(h));
            for (std::size_t i = 0; i < r.size(); ++i) {
                r[i] = static_cast<double>(bytes[3 * i + static_cast<std::size_t>(c)]) - 128.0;
            }
        }
    }
    for (std::size_t c = 0; c < 3; ++c) {
        double sum = 0.0, sum_sq = 0.0;
        std::size_t beyond = 0, n = 0;
        for (const auto& frame : residual) {
            for (const double r : frame[c]) {
                sum += r;
                sum_sq += r * r;
                beyond += std::abs(r) > 3.0 * kSigma ? 1 : 0;
                ++n;
            }
        }
        const double mean = sum / static_cast<double>(n);
        const double sd = std::sqrt(sum_sq / static_cast<double>(n) - mean * mean);
        const double tail = static_cast<double>(beyond) / static_cast<double>(n);
        EXPECT_NEAR(mean, 0.0, 0.05) << "channel " << c;
        EXPECT_NEAR(sd / kSigma, 1.0, 0.02) << "channel " << c;
        EXPECT_NEAR(tail, 0.0027, 0.0002) << "channel " << c;  // two-sided 3-sigma share
    }

    // Lag-1 correlation along x, y, channel, and across consecutive frames.
    struct Lag {
        const char* axis;
        int dx, dy, dc, df;
    };
    const auto at = [&](int f, int c, int x, int y) {
        return residual[static_cast<std::size_t>(f)][static_cast<std::size_t>(c % 3)]
                       [static_cast<std::size_t>(y) * static_cast<std::size_t>(w) +
                        static_cast<std::size_t>(x)];
    };
    for (const Lag lag : {Lag{"x", 1, 0, 0, 0}, Lag{"y", 0, 1, 0, 0}, Lag{"channel", 0, 0, 1, 0},
                          Lag{"frame", 0, 0, 0, 1}}) {
        for (int c = 0; c < 3; ++c) {
            std::vector<double> a, b;
            for (int f = 0; f + lag.df < kFrames; ++f)
                for (int y = 0; y + lag.dy < h; ++y)
                    for (int x = 0; x + lag.dx < w; ++x) {
                        a.push_back(at(f, c, x, y));
                        b.push_back(at(f + lag.df, c + lag.dc, x + lag.dx, y + lag.dy));
                    }
            EXPECT_LT(std::abs(correlation(a, b)), 0.01) << lag.axis << ", channel " << c;
        }
    }
}

TEST(RendererExtra, NoiseIsPureFunctionOfFrameKey) {
    const PlateScene scene = flat_gray_scene(2.0);
    const std::vector<Rgb8> colors(96, Rgb8{128, 128, 128});
    Rng rng(77);
    Rng same_key = rng;
    const Image a = render_plate(scene, colors, rng);
    const Image b = render_plate(scene, colors, same_key);
    EXPECT_TRUE(std::ranges::equal(a.bytes(), b.bytes()));

    // A frame draws exactly one key: both generators moved in lockstep
    // and now sit one draw past where they started.
    Rng one_draw(77);
    (void)one_draw.next();
    EXPECT_EQ(rng.next(), one_draw.next());

    // The next key (the generator has moved on) gives a different frame;
    // most pixels change.
    const Image c = render_plate(scene, colors, rng);
    std::size_t changed = 0;
    for (std::size_t i = 0; i < a.bytes().size(); ++i) {
        changed += a.bytes()[i] != c.bytes()[i] ? 1 : 0;
    }
    EXPECT_GT(changed, a.bytes().size() / 2);
}

// ------------------------------------------------- hot-path identity
//
// The zero-allocation vision pipeline (scratch pools, region-restricted
// marker detection) carries one contract:
// every output is bitwise identical to the one-shot allocating flow.

namespace {

/// A varied frame sequence: rotating fills and colors per frame index.
Image hot_path_frame(const PlateScene& scene, int frame_index, Rng& rng) {
    Rng color_rng(1000 + static_cast<std::uint64_t>(frame_index) * 17);
    std::vector<Rgb8> colors;
    std::vector<bool> filled;
    for (int i = 0; i < scene.geometry.well_count(); ++i) {
        colors.push_back({static_cast<std::uint8_t>(color_rng.uniform_int(256)),
                          static_cast<std::uint8_t>(color_rng.uniform_int(256)),
                          static_cast<std::uint8_t>(color_rng.uniform_int(256))});
        filled.push_back(i <= (frame_index * 13) % scene.geometry.well_count());
    }
    return render_plate(scene, colors, rng, &filled);
}

void expect_same_readout(const WellReadout& a, const WellReadout& b,
                         const char* what, int frame_index) {
    ASSERT_EQ(a.ok, b.ok) << what << " frame " << frame_index;
    EXPECT_EQ(a.error, b.error);
    ASSERT_EQ(a.colors.size(), b.colors.size()) << what << " frame " << frame_index;
    for (std::size_t i = 0; i < a.colors.size(); ++i) {
        EXPECT_EQ(a.colors[i], b.colors[i]) << what << " frame " << frame_index
                                            << " well " << i;
        EXPECT_EQ(a.centers[i].x, b.centers[i].x) << what << " well " << i;
        EXPECT_EQ(a.centers[i].y, b.centers[i].y) << what << " well " << i;
    }
    EXPECT_EQ(a.hough_circles_found, b.hough_circles_found) << what;
    EXPECT_EQ(a.wells_with_circle, b.wells_with_circle) << what;
    EXPECT_EQ(a.wells_rescued, b.wells_rescued) << what;
    EXPECT_EQ(a.grid_residual_px, b.grid_residual_px) << what;
    if (a.ok) {
        EXPECT_EQ(a.marker.id, b.marker.id);
        EXPECT_EQ(a.marker.side, b.marker.side);
        EXPECT_EQ(a.marker.angle, b.marker.angle);
        EXPECT_EQ(a.marker.center.x, b.marker.center.x);
        EXPECT_EQ(a.marker.center.y, b.marker.center.y);
        for (std::size_t c = 0; c < 4; ++c) {
            EXPECT_EQ(a.marker.corners[c].x, b.marker.corners[c].x);
            EXPECT_EQ(a.marker.corners[c].y, b.marker.corners[c].y);
        }
    }
}

}  // namespace

TEST(HotPath, BlurScratchBitwiseMatchesOneShot) {
    Rng rng(71);
    BlurScratch scratch;
    GrayImage out;
    // Alternating sizes and sigmas stress buffer reuse across shapes.
    const int sizes[][2] = {{64, 48}, {31, 77}, {64, 48}, {5, 5}, {200, 3}};
    const double sigmas[] = {0.8, 1.0, 2.5, 0.8, 1.3};
    for (int round = 0; round < 5; ++round) {
        GrayImage img(sizes[round][0], sizes[round][1]);
        for (float& v : img.values()) v = static_cast<float>(rng.uniform());
        const GrayImage want = gaussian_blur(img, sigmas[round]);
        gaussian_blur(img, sigmas[round], out, scratch);
        ASSERT_EQ(out.width(), want.width());
        ASSERT_EQ(out.height(), want.height());
        for (int y = 0; y < want.height(); ++y) {
            for (int x = 0; x < want.width(); ++x) {
                ASSERT_EQ(out.at(x, y), want.at(x, y))
                    << "round " << round << " (" << x << "," << y << ")";
            }
        }
    }
}

TEST(HotPath, SobelAndAdaptiveThresholdScratchBitwise) {
    Rng rng(73);
    Gradients grad;
    BinaryImage mask;
    std::vector<double> integral;
    for (const int size : {40, 17, 40, 9}) {
        GrayImage img(size, size + 3);
        for (float& v : img.values()) v = static_cast<float>(rng.uniform());
        const Gradients want = sobel(img);
        sobel(img, grad);
        for (int y = 0; y < img.height(); ++y) {
            for (int x = 0; x < img.width(); ++x) {
                ASSERT_EQ(grad.gx.at(x, y), want.gx.at(x, y));
                ASSERT_EQ(grad.gy.at(x, y), want.gy.at(x, y));
            }
        }
        const BinaryImage want_mask = adaptive_threshold(img, 9, 0.05F);
        adaptive_threshold(img, 9, 0.05F, mask, integral);
        for (int y = 0; y < img.height(); ++y) {
            for (int x = 0; x < img.width(); ++x) {
                ASSERT_EQ(mask.at(x, y), want_mask.at(x, y));
            }
        }
    }
}

TEST(HotPath, ScratchReadPlateBitwiseAcrossFrames) {
    PlateScene scene;
    scene.noise_sigma = 3.0;
    WellReadParams params;
    params.geometry = scene.geometry;
    FrameScratch scratch;
    Rng rng(77);
    for (int frame_index = 0; frame_index < 8; ++frame_index) {
        const Image frame = hot_path_frame(scene, frame_index, rng);
        const WellReadout fresh = read_plate(frame, params);
        const WellReadout pooled = read_plate(frame, params, scratch);
        expect_same_readout(pooled, fresh, "scratch", frame_index);
    }
}

TEST(HotPath, PlateReaderRoiPathBitwiseAcrossFrameSequence) {
    // The session reader must serve every frame — first (cold), steady
    // state (ROI hits), a glitched frame (marker gone), and the recovery
    // frame after it — with bits identical to one-shot read_plate.
    PlateScene scene;
    scene.angle_rad = -0.03;
    scene.noise_sigma = 2.5;
    WellReadParams params;
    params.geometry = scene.geometry;
    PlateReader reader(params);
    Rng rng(79);
    for (int frame_index = 0; frame_index < 12; ++frame_index) {
        PlateScene frame_scene = scene;
        const bool glitched = frame_index == 5;
        if (glitched) frame_scene.marker_center = {-10000.0, -10000.0};
        const Image frame = hot_path_frame(frame_scene, frame_index, rng);
        const WellReadout fresh = read_plate(frame, params);
        const WellReadout session = reader.read(frame);
        expect_same_readout(session, fresh, "session", frame_index);
        EXPECT_EQ(session.ok, !glitched) << frame_index;
        if (frame_index > 0 && !glitched && frame_index != 6) {
            EXPECT_TRUE(session.roi_fast_path) << frame_index;
        }
    }
    // Cold start, glitch, and the post-glitch rescan are the only full
    // scans; everything else rides the marker-ROI fast path.
    EXPECT_EQ(reader.full_scans(), 3u);
    EXPECT_EQ(reader.roi_hits(), 9u);
}

TEST(HotPath, PlateReaderCalibratedPoseBitwiseAcrossFormatsAndRotations) {
    // Seeded with the scene's calibrated fiducial pose, the reader serves
    // the cold first frame and the retake after a glitched frame from the
    // marker-ROI path, bitwise equal to read_plate; only the glitched
    // frame (no marker anywhere) runs a full-frame scan.
    const std::pair<int, int> formats[] = {{8, 12}, {16, 24}, {32, 48}};
    for (const auto& [rows, cols] : formats) {
        for (const double angle : {-0.03, 0.05}) {
            const int wells = rows * cols;
            PlateScene base;
            base.angle_rad = angle;
            base.noise_sigma = 2.5;
            const PlateScene scene = scene_for_plate(base, rows, cols);
            WellReadParams params;
            params.geometry = scene.geometry;
            PlateReader reader(params, nominal_marker(scene));
            Rng rng(89);
            for (int frame_index = 0; frame_index < 3; ++frame_index) {
                PlateScene frame_scene = scene;
                const bool glitched = frame_index == 1;
                if (glitched) frame_scene.marker_center = {-10000.0, -10000.0};
                const Image frame = hot_path_frame(frame_scene, frame_index, rng);
                const WellReadout session = reader.read(frame);
                expect_same_readout(session, read_plate(frame, params), "calibrated",
                                    frame_index);
                EXPECT_EQ(session.ok, !glitched) << wells << " " << frame_index;
                EXPECT_EQ(session.roi_fast_path, !glitched)
                    << wells << " wells, angle " << angle << ", frame " << frame_index;
            }
            EXPECT_EQ(reader.full_scans(), 1u) << wells << " wells, angle " << angle;
            EXPECT_EQ(reader.roi_hits(), 2u) << wells << " wells, angle " << angle;
        }
    }
}

namespace {

/// FNV-1a 64 over the object bytes of `value`, continuing from `h`.
template <typename T>
std::uint64_t fnv1a(std::uint64_t h, const T& value) noexcept {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto bytes = std::bit_cast<std::array<std::uint8_t, sizeof(T)>>(value);
    for (const std::uint8_t b : bytes) {
        h ^= b;
        h *= 1099511628211ULL;  // FNV prime
    }
    return h;
}

std::uint64_t fnv1a_readout(std::uint64_t h, const WellReadout& r) noexcept {
    h = fnv1a(h, r.ok);
    for (const Rgb8& c : r.colors) h = fnv1a(h, std::array{c.r, c.g, c.b});
    for (const Vec2& p : r.centers) h = fnv1a(h, std::array{p.x, p.y});
    h = fnv1a(h, static_cast<std::uint64_t>(r.marker.id));
    for (const Vec2& p : r.marker.corners) h = fnv1a(h, std::array{p.x, p.y});
    h = fnv1a(h, std::array{r.marker.center.x, r.marker.center.y, r.marker.side,
                            r.marker.angle});
    h = fnv1a(h, r.marker.bit_errors);
    h = fnv1a(h, static_cast<std::uint64_t>(r.hough_circles_found));
    h = fnv1a(h, static_cast<std::uint64_t>(r.wells_rescued));
    return fnv1a(h, r.grid_residual_px);
}

}  // namespace

TEST(HotPath, ReadoutBytesPinnedAcrossPlateFormats) {
    // Golden digest over read_plate readouts — colors, predicted centers,
    // marker pose, circle and rescue counts, grid residual — of 96-, 384-
    // and 1536-well scenes at two rotations, with one glitched frame. It
    // pins every tuning constant of the reader (marker detection, ROI
    // padding, Hough radius band, inlier gate, sample disk): any change
    // that moves a readout bit is a deliberate golden re-pin.
    const std::pair<int, int> formats[] = {{8, 12}, {16, 24}, {32, 48}};
    std::uint64_t h = 1469598103934665603ULL;  // FNV offset basis
    Rng rng(101);
    int frame_index = 0;
    for (const auto& [rows, cols] : formats) {
        for (const double angle : {-0.04, 0.07}) {
            PlateScene base;
            base.angle_rad = angle;
            base.noise_sigma = 2.5;
            const PlateScene scene = scene_for_plate(base, rows, cols);
            WellReadParams params;
            params.geometry = scene.geometry;
            const WellReadout readout =
                read_plate(hot_path_frame(scene, frame_index++, rng), params);
            ASSERT_TRUE(readout.ok) << rows * cols << " wells, angle " << angle;
            h = fnv1a_readout(h, readout);
        }
    }
    PlateScene glitched;
    glitched.marker_center = {-10000.0, -10000.0};
    WellReadParams params;
    params.geometry = glitched.geometry;
    const WellReadout lost = read_plate(hot_path_frame(glitched, frame_index, rng), params);
    EXPECT_FALSE(lost.ok);
    h = fnv1a_readout(h, lost);
    EXPECT_EQ(h, 0x274e0012350e4364ULL) << "readout digest " << std::hex << h;
}

TEST(HoughExtra, DetectionsPinnedForParamsTheReaderNeverUses) {
    // Golden digest over hough_circles detections for radius bands and
    // ROIs the plate reader never asks for: 2-6 and 15-40 px bands, and
    // ROIs that cut circles, so votes fall off every side of the ROI and
    // round into (-0.5, 0) at its first row and column. Grain noise gives
    // the edges fractional gradient directions.
    Image img(260, 200, {200, 200, 200});
    fill_circle(img, {0.5, 100}, 20, {40, 40, 40});    // cut by the frame edge
    fill_circle(img, {259, 12}, 30, {60, 60, 60});
    fill_circle(img, {41, 31}, 18, {30, 30, 30});      // centered on a ROI corner
    fill_circle(img, {130, 100}, 36, {50, 50, 50});
    fill_ring(img, {130, 100}, 27, 22, {150, 150, 150});
    fill_circle(img, {219.5, 150}, 24, {20, 20, 20});  // cut by the ROI's right edge
    for (int i = 0; i < 12; ++i) {
        fill_circle(img, {12.0 + 21.3 * i, 186.0 - (i % 3)}, 2.5 + 0.33 * (i % 10),
                    {35, 35, 35});
    }
    GrayImage gray = to_gray(img);
    Rng grain(211);
    for (float& v : gray.values()) v += static_cast<float>(grain.normal(0.0, 0.01));

    struct Case {
        double r_min;
        double r_max;
        Rect roi;
    };
    const Case cases[] = {
        {2.0, 6.0, {}},
        {15.0, 40.0, {}},
        {2.0, 6.0, {40, 30, 220, 170}},
        {15.0, 40.0, {40, 30, 220, 170}},
        {15.0, 40.0, {-20, -20, 131, 101}},
        {2.5, 5.5, {0, 150, 260, 200}},
    };
    std::uint64_t h = 1469598103934665603ULL;  // FNV offset basis
    for (const Case& c : cases) {
        HoughParams params;
        params.r_min = c.r_min;
        params.r_max = c.r_max;
        params.roi = c.roi;
        params.min_center_dist = c.r_min;
        params.vote_fraction = 0.05;
        params.min_votes = 3.0;
        const auto circles = hough_circles(gray, params);
        EXPECT_GE(circles.size(), 3u) << c.r_min << "-" << c.r_max;
        h = fnv1a(h, circles.size());
        for (const CircleDetection& d : circles) {
            h = fnv1a(h, std::array{d.center.x, d.center.y, d.radius, d.votes});
        }
    }
    EXPECT_EQ(h, 0xacd56824ab2c9fc3ULL) << "detection digest " << std::hex << h;
}

TEST(RendererExtra, SaturatingFrameBytesPinned) {
    // Heavy noise and vignetting drive pixels past both ends of the 8-bit
    // range, so this digest pins the sensor model's clamps at 0 and 255
    // as well as its rounding.
    PlateScene scene;
    scene.noise_sigma = 60.0;
    scene.vignette = 0.6;
    std::vector<Rgb8> colors;
    for (int i = 0; i < scene.geometry.well_count(); ++i) {
        colors.push_back({static_cast<std::uint8_t>(i * 37), static_cast<std::uint8_t>(255 - i),
                          static_cast<std::uint8_t>(i % 2 == 0 ? 250 : 5)});
    }
    Rng rng(307);
    const Image frame = render_plate(scene, colors, rng);
    std::size_t zeros = 0;
    std::size_t full = 0;
    std::uint64_t h = 1469598103934665603ULL;  // FNV offset basis
    for (const std::uint8_t b : frame.bytes()) {
        zeros += b == 0 ? 1 : 0;
        full += b == 255 ? 1 : 0;
        h = fnv1a(h, b);
    }
    EXPECT_GT(zeros, 0u);
    EXPECT_GT(full, 0u);
    EXPECT_EQ(h, 0x47f2cc728ac79ce4ULL) << "frame digest " << std::hex << h;
}

TEST(HotPath, PlateReaderWrongCalibratedPoseFallsBackToFullScan) {
    // A calibrated pose far from the real marker must cost only speed:
    // the region scan misses, the full-frame scan takes over with the
    // same bytes, and the reader then tracks the real marker — until a
    // failed read sends it back to the wrong pose.
    PlateScene scene;
    scene.angle_rad = -0.03;
    scene.noise_sigma = 2.5;
    WellReadParams params;
    params.geometry = scene.geometry;
    MarkerDetection wrong = nominal_marker(scene);
    const Vec2 shift{600.0, 200.0};  // bottom-right deck, clear of plate and marker
    wrong.center = wrong.center + shift;
    for (Vec2& corner : wrong.corners) corner = corner + shift;
    PlateReader reader(params, wrong);
    Rng rng(97);
    for (int frame_index = 0; frame_index < 5; ++frame_index) {
        PlateScene frame_scene = scene;
        const bool glitched = frame_index == 2;
        if (glitched) frame_scene.marker_center = {-10000.0, -10000.0};
        const Image frame = hot_path_frame(frame_scene, frame_index, rng);
        const WellReadout session = reader.read(frame);
        expect_same_readout(session, read_plate(frame, params), "wrong pose",
                            frame_index);
        EXPECT_EQ(session.ok, !glitched) << frame_index;
        // Tracking after the two full scans that found the marker.
        const bool tracked = frame_index == 1 || frame_index == 4;
        EXPECT_EQ(session.roi_fast_path, tracked) << frame_index;
    }
    EXPECT_EQ(reader.full_scans(), 3u);
    EXPECT_EQ(reader.roi_hits(), 2u);
}

TEST(HotPath, RegionRestrictedDetectionMatchesFullFrame) {
    PlateScene scene;
    scene.noise_sigma = 2.0;
    std::vector<Rgb8> colors(96, Rgb8{120, 60, 180});
    Rng rng(83);
    const Image frame = render_plate(scene, colors, rng);
    const auto full = detect_markers(frame, MarkerDictionary::standard());
    ASSERT_EQ(full.size(), 1u);

    // Region comfortably around the marker: must reproduce the detection
    // exactly, in frame coordinates.
    const int cx = static_cast<int>(full[0].center.x);
    const int cy = static_cast<int>(full[0].center.y);
    const int reach = static_cast<int>(full[0].side) + kMarkerRegionMargin + 10;
    MarkerScratch scratch;
    std::vector<MarkerDetection> regional;
    (void)detect_markers_in_region(frame, MarkerDictionary::standard(),
                                   {cx - reach, cy - reach, cx + reach, cy + reach},
                                   scratch, regional);
    ASSERT_EQ(regional.size(), 1u);
    EXPECT_EQ(regional[0].id, full[0].id);
    EXPECT_EQ(regional[0].side, full[0].side);
    EXPECT_EQ(regional[0].angle, full[0].angle);
    EXPECT_EQ(regional[0].center.x, full[0].center.x);
    EXPECT_EQ(regional[0].center.y, full[0].center.y);
    for (std::size_t c = 0; c < 4; ++c) {
        EXPECT_EQ(regional[0].corners[c].x, full[0].corners[c].x);
        EXPECT_EQ(regional[0].corners[c].y, full[0].corners[c].y);
    }

    // A region that slices through the marker must skip the contaminated
    // blob (no subtly-different detection) and report the skip.
    std::vector<MarkerDetection> sliced;
    const bool sliced_clean = detect_markers_in_region(
        frame, MarkerDictionary::standard(), {cx - reach, cy - reach, cx, cy}, scratch, sliced);
    EXPECT_FALSE(sliced_clean);
    EXPECT_TRUE(sliced.empty());
}
