#include "campaign/cost_model.hpp"

#include <algorithm>
#include <numeric>

namespace sdl::campaign {

namespace {

// Per-proposal compute weight relative to "random" = 1. The GP solver
// additionally scales with the observation count (below); the others
// are flat per proposal.
double solver_weight(const std::string& solver) {
    if (solver == "bayesian") return 8.0;
    if (solver == "genetic") return 2.0;
    if (solver == "anneal" || solver == "pattern") return 1.5;
    return 1.0;  // random, grid, oracle, unknown
}

}  // namespace

double expected_cell_cost(const CampaignCell& cell) {
    const double samples = std::max(1, cell.config.total_samples);
    const double batch = std::max(1, cell.batch_size);
    const double batches = (samples + batch - 1.0) / batch;  // ceil
    double per_sample = solver_weight(cell.solver);
    if (cell.solver == "bayesian") {
        // GP fit + candidate scoring climb with n; average over the run.
        per_sample *= 1.0 + samples / 64.0;
    }
    // Every batch is a synthesize -> render -> read cycle with a fixed
    // vision/workcell overhead that dwarfs one proposal's solver cost.
    // Render and read scale with the frame's area: scene_for_plate
    // upscales 384- and 1536-well frames 2x and 4x per side, so the
    // overhead is 1x, 4x and 16x the 96-well value.
    constexpr double kBatchOverhead = 24.0;
    const double frame_area =
        std::max(1, cell.config.plate_rows * cell.config.plate_cols / 96);
    return samples * per_sample + batches * kBatchOverhead * frame_area;
}

std::vector<std::size_t> schedule_order(const std::vector<CampaignCell>& cells) {
    std::vector<double> cost(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) cost[i] = expected_cell_cost(cells[i]);
    std::vector<std::size_t> order(cells.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return cost[a] > cost[b];  // stable: equal costs keep position order
    });
    return order;
}

}  // namespace sdl::campaign
