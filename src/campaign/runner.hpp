// CampaignRunner: executes an expanded campaign grid on the thread pool.
//
// Every cell is an independent simulated workcell (its own
// core::WorkcellRuntime), so cells parallelize perfectly; the runner fans
// them out with support::ThreadPool::parallel_map on the pool it is
// given, claims cells longest-expected-first (campaign/cost_model.hpp,
// LPT scheduling — shortens the makespan tail on cost-skewed grids),
// keeps results in grid order, and reports each finished cell to an
// optional hook. Work a cell fans out itself (the GP's candidate scoring)
// nests on support::global_pool().
// Determinism: a cell's outcome depends only on its resolved
// config (expand_grid's deterministic seeds), never on scheduling, so the
// same spec always produces identical results.
#pragma once

#include <functional>
#include <vector>

#include "campaign/campaign.hpp"
#include "support/thread_pool.hpp"

namespace sdl::campaign {

/// One executed cell. `wall_seconds` is host time (excluded from the
/// deterministic result JSON; the journal records it and campaignbench
/// reports its median as `cell_s_p50`).
struct CellResult {
    CampaignCell cell;
    core::ExperimentOutcome outcome;
    double wall_seconds = 0.0;
};

/// Cells run one per pool worker, each worker claiming one cell at a
/// time; the pool passed to run() sets the parallelism.
struct CampaignRunnerOptions {
    /// Per-cell completion hook (e.g. CLI progress output or the
    /// checkpoint journal). Called in completion order. Guarantee: the
    /// runner serializes every invocation behind one mutex, so the hook
    /// never runs concurrently with itself — a journaling callback can
    /// append to a shared file without its own locking. Keep it fast;
    /// cells block on the mutex while it runs.
    std::function<void(const CellResult&, std::size_t done, std::size_t total)>
        on_cell_done;
};

class CampaignRunner {
public:
    explicit CampaignRunner(CampaignRunnerOptions options = {}) : options_(options) {}

    /// Expands `spec` and runs every cell on `pool`.
    [[nodiscard]] std::vector<CellResult> run(
        const CampaignSpec& spec,
        support::ThreadPool& pool = support::global_pool()) const;

    /// Runs an explicit subset of expanded cells (a shard, or the cells a
    /// resumed run still owes) on `pool`. Results keep the order of
    /// `cells`, which need not be contiguous in the grid.
    [[nodiscard]] std::vector<CellResult> run_cells(
        std::vector<CampaignCell> cells,
        support::ThreadPool& pool = support::global_pool()) const;

private:
    CampaignRunnerOptions options_;
};

}  // namespace sdl::campaign
