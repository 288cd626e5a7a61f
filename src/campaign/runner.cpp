#include "campaign/runner.hpp"

#include <chrono>
#include <utility>

#include "campaign/cost_model.hpp"
#include "core/colorpicker.hpp"
#include "support/mutex.hpp"

namespace sdl::campaign {

std::vector<CellResult> CampaignRunner::run(const CampaignSpec& spec,
                                            support::ThreadPool& pool) const {
    return run_cells(expand_grid(spec), pool);
}

std::vector<CellResult> CampaignRunner::run_cells(std::vector<CampaignCell> cells,
                                                  support::ThreadPool& pool) const {
    const std::size_t total = cells.size();
    // Workers claim cells longest-expected-first (LPT): starting the big
    // cells early keeps the makespan tail short when costs are skewed.
    // Claim order is a scheduling detail only — results scatter back to
    // input order below, so output bytes are identical to the unordered
    // run.
    const std::vector<std::size_t> order = schedule_order(cells);
    // Serializes the on_cell_done hook (see runner.hpp). Pool workers
    // would otherwise interleave a journaling callback's writes.
    support::Mutex done_mutex;
    std::size_t done = 0;

    std::vector<CellResult> mapped = pool.parallel_map(
        total,
        [&](std::size_t k) {
            const std::size_t i = order[k];
            // sdlbench-lint: allow(steady-clock): wall_seconds is journal-only telemetry; campaign.json reports modeled time
            const auto started = std::chrono::steady_clock::now();
            CellResult result;
            result.cell = std::move(cells[i]);
            result.outcome = core::ColorPickerApp(result.cell.config).run();
            result.wall_seconds =
                // sdlbench-lint: allow(steady-clock): wall_seconds is journal-only telemetry; campaign.json reports modeled time
                std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
                    .count();
            if (options_.on_cell_done) {
                support::MutexLock lock(done_mutex);
                options_.on_cell_done(result, ++done, total);
            }
            return result;
        });
    std::vector<CellResult> results(total);
    for (std::size_t k = 0; k < total; ++k) {
        results[order[k]] = std::move(mapped[k]);
    }
    return results;
}

}  // namespace sdl::campaign
