// Campaign checkpointing: a durable per-cell journal that makes campaign
// execution fault-tolerant (resume after a crash) and horizontally
// scalable (shard one grid across machines, merge the journals).
//
// As each cell finishes, CampaignRunner's completion hook appends one
// self-describing JSONL record ("sdlbench.cell_result.v1") to
// <out_dir>/cells.jsonl through support::AppendWriter, so a killed run
// preserves every completed cell. The journal opens with a header record
// ("sdlbench.campaign_journal.v1") carrying a digest of the normalized
// campaign spec plus the shard slice; loading re-expands the grid,
// rejects digest mismatches loudly, validates every record against its
// expanded cell, and drops a torn final line (the only damage a kill can
// inflict, by the O_APPEND one-write-per-record discipline).
//
// Everything journaled is modeled time in native units (seconds), and
// both the journal and the reports serialize doubles in shortest
// round-trip form — so a resumed or shard-merged campaign.json is
// byte-identical to an uninterrupted single run.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/runner.hpp"
#include "support/atomic_io.hpp"
#include "support/json.hpp"

namespace sdl::campaign {

inline constexpr std::string_view kJournalSchema = "sdlbench.campaign_journal.v1";
inline constexpr std::string_view kCellRecordSchema = "sdlbench.cell_result.v1";

/// <out_dir>/cells.jsonl — where a campaign run keeps its journal.
[[nodiscard]] std::string journal_path(const std::string& out_dir);

/// A deterministic round-robin slice of the expanded grid: shard i of N
/// owns every cell whose index ≡ i (mod N). The default {0, 1} is the
/// whole grid.
struct Shard {
    std::size_t index = 0;  ///< 0-based
    std::size_t count = 1;

    [[nodiscard]] bool contains(std::size_t cell_index) const noexcept {
        return cell_index % count == index;
    }
    [[nodiscard]] bool is_whole() const noexcept { return count == 1; }
    /// "i/N" with a 1-based i, matching the CLI flag.
    [[nodiscard]] std::string str() const;
    /// Parses "i/N" (1-based i in [1, N]). Throws ConfigError on
    /// malformed text or an out-of-range shard.
    [[nodiscard]] static Shard parse(const std::string& text);

    friend bool operator==(const Shard& a, const Shard& b) noexcept {
        return a.index == b.index && a.count == b.count;
    }
};

/// Digest of the normalized spec (FNV-1a 64 over its canonical YAML
/// form). Two runs may be resumed into / merged with each other exactly
/// when their digests agree.
[[nodiscard]] std::string spec_digest(const CampaignSpec& spec);

/// Digest of one expanded cell's fully resolved config — the per-record
/// guard that a journal entry still matches the re-expanded grid.
[[nodiscard]] std::string cell_digest(const CampaignCell& cell);

/// The journal header record (first line of cells.jsonl).
[[nodiscard]] support::json::Value journal_header(const CampaignSpec& spec,
                                                  std::size_t cells_total, Shard shard);

/// One finished cell as a self-describing journal record: cell index,
/// experiment id, config digest, host wall seconds, and the full outcome
/// in native (seconds) units so it reconstructs losslessly.
[[nodiscard]] support::json::Value cell_record_to_json(const CellResult& result);

/// Append side of the journal. Construction starts a fresh journal
/// (header written atomically, truncating any previous one); reopen()
/// continues an existing, already-compacted journal after a resume.
class CheckpointJournal {
public:
    CheckpointJournal(const std::string& out_dir, const CampaignSpec& spec,
                      std::size_t cells_total, Shard shard = {});

    [[nodiscard]] static CheckpointJournal reopen(const std::string& out_dir);

    /// Appends one cell record (single O_APPEND write + flush).
    void append(const CellResult& result);

private:
    explicit CheckpointJournal(support::AppendWriter writer);

    support::AppendWriter writer_;
};

/// Atomically writes <out_dir>/cells.jsonl as one whole-grid (1/1)
/// journal: the header, then one record per result in the given order.
/// This is the fused journal that makes a merged or fleet output
/// directory itself resumable and re-mergeable.
void write_fused_journal(const std::string& out_dir, const CampaignSpec& spec,
                         std::size_t cells_total, const std::vector<CellResult>& results);

/// A validated journal, ready to resume from or merge.
struct LoadedJournal {
    Shard shard;
    std::size_t cells_total = 0;
    /// Validated cells in journal (completion) order, each reattached to
    /// its re-expanded CampaignCell.
    std::vector<CellResult> cells;
    /// True when a torn final line (kill mid-append) was discarded.
    bool dropped_torn_tail = false;
    /// Header + every valid record line — rewrite these (atomically) to
    /// compact a torn journal before appending to it again.
    std::vector<std::string> lines;
};

/// Parses and validates a journal header line against `spec` (schema +
/// spec digest) and the expanded grid size; returns the journal's shard.
/// Throws ConfigError naming `path` on any mismatch. The header half of
/// load_journal, exposed for incremental readers (the fleet coordinator
/// tails worker journals line by line as acks arrive).
[[nodiscard]] Shard validate_journal_header(const std::string& line,
                                            const CampaignSpec& spec,
                                            std::size_t grid_cells,
                                            const std::string& path);

/// Parses and validates one cell record line against the re-expanded
/// grid: record schema, cell index range, per-cell config digest, and
/// experiment id must all match. Throws ConfigError naming `path` on a
/// validation failure and Error("json") on corrupt JSON. Duplicate and
/// shard-membership checks remain the caller's (they need cross-record
/// state). The record half of load_journal, exposed for the same
/// incremental readers.
[[nodiscard]] CellResult parse_cell_record(const std::string& line,
                                           const std::vector<CampaignCell>& grid,
                                           const std::string& path);

/// The '\n'-terminated lines of `text`, without their '\n'. A final
/// fragment with no '\n' is not a line: it is the torn tail a kill
/// mid-append leaves behind (or a record still being written), and it
/// starts at `consumed`.
struct CompleteLines {
    std::vector<std::string> lines;
    std::size_t consumed = 0;  ///< offset just past the last '\n'
};
[[nodiscard]] CompleteLines split_complete_lines(std::string_view text);

/// Number of cell records in the journal at `path` IF it belongs to
/// `spec` (header parses, spec digest matches) and is an *incomplete*
/// run — i.e. progress a fresh run would destroy; 0 otherwise. A
/// missing file, a foreign spec, an unreadable header, and a journal
/// that already covers its whole slice (a finished run, safe to redo)
/// all count as "nothing to protect". The cheap guard `sdlbench_run`
/// uses to refuse to truncate real progress when `--resume` was
/// forgotten.
[[nodiscard]] std::size_t journal_progress(const std::string& path,
                                           const CampaignSpec& spec) noexcept;

/// Reads and validates `path` against the re-expanded `grid` of `spec`.
/// Loud failures (ConfigError): spec-digest or cell-count mismatch,
/// schema mismatch, a record whose config digest or experiment id does
/// not match its grid cell, duplicate or out-of-shard cell indices, or a
/// corrupt record that is not the torn final line. The torn final line of
/// a killed run is silently dropped (reported via dropped_torn_tail).
[[nodiscard]] LoadedJournal load_journal(const std::string& path,
                                         const CampaignSpec& spec,
                                         const std::vector<CampaignCell>& grid);

/// Fuses shard journals into one complete result set, sorted by cell
/// index — the merge side of `--shard`. Every journal is validated with
/// load_journal; overlapping cells (two journals claiming one index) and
/// incomplete coverage (missing cells, e.g. a shard that never finished)
/// are rejected loudly with the offending journal named. The returned
/// vector is byte-for-byte equivalent input to campaign_results_to_json
/// as a single uninterrupted run.
[[nodiscard]] std::vector<CellResult> merge_journals(
    const std::vector<std::string>& journal_paths, const CampaignSpec& spec);

}  // namespace sdl::campaign
