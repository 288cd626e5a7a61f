// Cost-model cell ordering: claim expensive cells first.
//
// A campaign grid's cells differ wildly in wall cost — a bayesian cell
// at N=128 pays O(n^2)-and-up GP refits per batch while a random cell
// just draws; a B=1 cell runs 128 full plate-read cycles where B=64
// runs two. Whoever schedules cells (the in-process pool in
// CampaignRunner, the fleet's lease table) should start the
// longest-expected cells first so the makespan tail is short: the
// classic longest-processing-time (LPT) greedy, which is within 4/3 of
// the optimal makespan on identical workers.
//
// The model is deliberately coarse — relative units tuned from measured
// per-cell host wall times (each journal record's `wall_seconds`, the
// cells campaignbench times), not a prediction — and
// only its *ordering* matters. Execution order is decoupled from result
// order everywhere (results stay in grid order), so the model can be
// retuned freely without touching any byte-identity contract.
#pragma once

#include <cstddef>
#include <vector>

#include "campaign/campaign.hpp"

namespace sdl::campaign {

/// Relative expected wall cost of one cell (arbitrary units, > 0).
/// Grows with total_samples, with the per-solver per-proposal weight,
/// superlinearly for the GP-backed solver (its fit cost climbs with the
/// observation count), and with the number of batches (each batch is a
/// full synthesize-image-measure cycle, dearer on denser plate formats,
/// whose frames are larger).
[[nodiscard]] double expected_cell_cost(const CampaignCell& cell);

/// Positions into `cells`, ordered by descending expected_cell_cost;
/// ties break toward the lower position so the order is deterministic
/// for a given cell list. schedule_order(cells)[0] is the cell every
/// scheduler should start first.
[[nodiscard]] std::vector<std::size_t> schedule_order(
    const std::vector<CampaignCell>& cells);

}  // namespace sdl::campaign
