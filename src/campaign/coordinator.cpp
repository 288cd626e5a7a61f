#include "campaign/coordinator.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "campaign/checkpoint.hpp"
#include "campaign/cost_model.hpp"
#include "support/common.hpp"
#include "support/json.hpp"

namespace sdl::campaign {

namespace {

namespace json = support::json;

constexpr std::string_view kLedgerSchema = "sdlbench.coordinator_journal.v1";

template <class... Args>
std::string strprintf(const char* fmt, Args... args) {
    const int size = std::snprintf(nullptr, 0, fmt, args...);
    std::string text(static_cast<std::size_t>(size), '\0');
    std::snprintf(text.data(), text.size() + 1, fmt, args...);
    return text;
}

}  // namespace

std::string ledger_header(const std::string& spec_digest, std::size_t cells_total,
                          const std::string& campaign_path) {
    json::Value header = json::Value::object();
    header.set("schema", std::string(kLedgerSchema));
    header.set("spec_digest", spec_digest);
    header.set("cells_total", static_cast<std::int64_t>(cells_total));
    header.set("campaign_path", campaign_path);
    return header.dump();
}

LedgerState parse_ledger(std::string_view text, const std::string& path) {
    LedgerState state;
    bool header_seen = false;
    for (const std::string& line : split_complete_lines(text).lines) {
        if (line.empty()) continue;
        json::Value doc;
        try {
            doc = json::parse(line);
        } catch (const support::Error&) {
            break;  // unreadable line: treat as the torn tail, keep what stands
        }
        if (!header_seen) {
            if (doc.get_or("schema", std::string()) != kLedgerSchema) {
                throw support::ConfigError("'" + path +
                                           "' is not a coordinator ledger (bad schema)");
            }
            state.spec_digest = doc.at("spec_digest").as_string();
            state.cells_total = static_cast<std::size_t>(doc.at("cells_total").as_int());
            header_seen = true;
            continue;
        }
        const std::string event = doc.get_or("event", std::string());
        if (event == "spawn") {
            state.spawns.push_back({static_cast<int>(doc.at("slot").as_int()),
                                    static_cast<int>(doc.at("generation").as_int()),
                                    doc.at("incarnation").as_int(), doc.at("pid").as_int(),
                                    doc.at("dir").as_string()});
        } else if (event == "crash") {
            state.crashes.push_back({static_cast<std::size_t>(doc.at("cell").as_int()),
                                     doc.at("incarnation").as_int(),
                                     {static_cast<int>(doc.at("slot").as_int()),
                                      static_cast<int>(doc.at("generation").as_int()),
                                      doc.at("pid").as_int(), doc.at("reason").as_string()}});
        } else if (event == "quarantine") {
            state.quarantines.push_back(static_cast<std::size_t>(doc.at("cell").as_int()));
        }  // unknown events: skip (forward compatibility)
        state.raw_events.push_back(line);
    }
    if (!header_seen) {
        throw support::ConfigError("coordinator ledger '" + path +
                                   "' has no intact header — nothing to resume");
    }
    return state;
}

Coordinator::Coordinator(const CampaignSpec& spec, const std::vector<CampaignCell>& grid,
                         std::string out_dir, std::size_t workers)
    : spec_(spec), grid_(grid), out_dir_(std::move(out_dir)),
      table_(grid.size(), schedule_order(grid)), results_(grid.size()),
      crash_log_(grid.size()), slots_(workers) {
    for (std::size_t i = 0; i < workers; ++i) {
        slots_[i].slot = static_cast<int>(i);
        // First spawns go through the respawn path, so a failed first
        // spawn gets the same backoff-and-retry treatment.
        slots_[i].respawn_at = 0.0;
    }
    summary_.cells = grid.size();
    summary_.workers_started = workers;
}

void Coordinator::restore(const LedgerState& prior,
                          const std::vector<std::string>& journals) {
    support::check(journals.size() == prior.spawns.size(),
                   "restore needs one journal text per ledger spawn");
    for (std::size_t i = 0; i < journals.size(); ++i) {
        const LedgerSpawn& s = prior.spawns[i];
        JournalTail tail{journal_path(s.dir), {}, false};
        (void)ingest(tail, journals[i], s.slot, /*live=*/false);
        next_incarnation_ = std::max(next_incarnation_, s.incarnation + 1);
        if (s.slot >= 0 && static_cast<std::size_t>(s.slot) < slots_.size()) {
            Slot& w = slots_[static_cast<std::size_t>(s.slot)];
            w.generation = std::max(w.generation, s.generation);
        }
    }
    std::vector<std::pair<std::size_t, std::size_t>> burned;  // (cell, incarnations)
    for (const LedgerCrash& c : prior.crashes) {
        if (c.cell >= grid_.size()) continue;
        burned.emplace_back(c.cell, table_.record_crash(c.cell, c.incarnation));
        crash_log_[c.cell].push_back(c.crash);
    }
    for (const std::size_t cell : prior.quarantines) {
        if (cell < grid_.size() && !table_.is_quarantined(cell)) table_.quarantine(cell);
    }
    // A coordinator killed between a crash record and the quarantine it
    // earned: convict now, at exactly kQuarantineAfter incarnations.
    for (const auto& [cell, count] : burned) {
        if (count >= kQuarantineAfter && !table_.is_quarantined(cell)) {
            convict(cell, count);
        }
    }
}

std::vector<FleetAction> Coordinator::on(const FleetEvent& e) {
    if (e.kind == FleetEvent::Kind::Tick) {
        tick(e.now);
        return std::exchange(out_, {});
    }
    support::check(e.slot >= 0 && static_cast<std::size_t>(e.slot) < slots_.size(),
                   "fleet event for an unknown worker slot");
    Slot& w = slots_[static_cast<std::size_t>(e.slot)];
    if (e.kind == FleetEvent::Kind::Spawned) {
        w.status = Status::Up;
        w.pid = e.pid;
        w.last_heard = e.now;
        w.hello_seen = false;
        w.journal = JournalTail{journal_path(w.dir), {}, false};
        if (w.generation > 0) {
            ++summary_.workers_respawned;
            log(strprintf("fleet: worker w%d respawned (generation %d, pid %ld)", w.slot,
                          w.generation, w.pid));
        }
        // Write-ahead: the ledger knows every journal directory before the
        // worker can be leased a cell.
        json::Value event = json::Value::object();
        event.set("event", "spawn");
        event.set("slot", w.slot);
        event.set("generation", w.generation);
        event.set("incarnation", static_cast<std::int64_t>(w.incarnation));
        event.set("pid", static_cast<std::int64_t>(w.pid));
        event.set("dir", w.dir);
        ledger(event);
    } else if (e.kind == FleetEvent::Kind::SpawnFailed) {
        // An instant crash of the fresh incarnation: back off and retry on
        // the same budget instead of giving the slot up.
        log(strprintf("fleet: spawning worker w%d failed: %s", w.slot, e.text.c_str()));
        w.status = Status::Down;
        ++summary_.workers_lost;
        ++w.crash_streak;
        schedule_respawn(w, e.now);
    } else if (e.kind == FleetEvent::Kind::Line) {
        line(w, e);
    } else if (e.kind == FleetEvent::Kind::Exited) {
        exited(w, e);
    }
    return std::exchange(out_, {});
}

void Coordinator::line(Slot& w, const FleetEvent& e) {
    if (w.status != Status::Up) return;  // a killed worker's last words
    const std::optional<WorkerMessage> msg =
        e.corrupt ? std::nullopt : parse_worker_line(e.text);
    if (!msg) {
        if (!e.corrupt) {
            log(strprintf("fleet: worker w%d sent garbage '%s'", w.slot, e.text.c_str()));
        }
        kill(w, "protocol error");
        return;
    }
    w.last_heard = e.now;
    if (msg->kind == WorkerMsgKind::Hello && !w.hello_seen) {
        w.hello_seen = true;
        grant(w);
    } else if (msg->kind == WorkerMsgKind::Ack) {
        // The payload travels through the journal, not the pipe; the ack
        // is the read barrier.
        (void)ingest(w.journal, e.journal, w.slot, /*live=*/true);
        w.crash_streak = 0;  // healthy progress: reset the backoff
        // Pipelined refill: keep one cell queued behind the running one,
        // sized down as the queue drains (this is the work-stealing).
        if (table_.outstanding(w.slot) <= 1) grant(w);
    }
}

void Coordinator::exited(Slot& w, const FleetEvent& e) {
    if (w.status != Status::Up && w.status != Status::Dying) return;
    // The journal tail is the dead worker's last word: everything durably
    // appended, acked or not, is salvaged, never recomputed — and must be
    // folded in BEFORE the revoke, or a salvaged cell would be re-leased.
    const std::size_t salvaged = ingest(w.journal, e.journal, w.slot, /*live=*/true);
    w.status = Status::Down;
    const std::vector<std::size_t> revoked = table_.revoke(w.slot);
    ++summary_.workers_lost;
    summary_.cells_salvaged += salvaged;
    summary_.cells_releases += revoked.size();
    log(strprintf("fleet: worker w%d lost (%s): salvaged %zu journaled cell(s), "
                  "re-leasing %zu",
                  w.slot, e.text.c_str(), salvaged, revoked.size()));

    // Crash blame: workers run their lease FIFO in grant order, and
    // revoke() returns incomplete cells in schedule (= grant) order, so
    // the first revoked cell is the one the worker was most likely
    // executing. A heuristic — which is why conviction takes
    // kQuarantineAfter DISTINCT incarnations, not one.
    if (!revoked.empty()) {
        const std::size_t suspect = revoked.front();
        crash_log_[suspect].push_back({w.slot, w.generation, w.pid, e.text});
        json::Value event = json::Value::object();
        event.set("event", "crash");
        event.set("cell", static_cast<std::int64_t>(suspect));
        event.set("slot", w.slot);
        event.set("generation", w.generation);
        event.set("incarnation", static_cast<std::int64_t>(w.incarnation));
        event.set("pid", static_cast<std::int64_t>(w.pid));
        event.set("reason", e.text);
        ledger(event);
        const std::size_t burned = table_.record_crash(suspect, w.incarnation);
        if (burned >= kQuarantineAfter) convict(suspect, burned);
    }
    ++w.crash_streak;
    schedule_respawn(w, e.now);
    top_up();
}

void Coordinator::tick(double now) {
    for (Slot& w : slots_) {
        if (w.status == Status::Up && now - w.last_heard > kHeartbeatTimeoutS) {
            kill(w, "heartbeat timeout");
        }
    }
    top_up();
    // Live merge: aggregates stay current while the fleet runs.
    if (merge_due_ && !table_.all_done()) {
        merge_due_ = false;
        out_.push_back({.kind = FleetAction::Kind::WriteOutputs});
    }
    // Due respawns: the pool heals before anything else is decided.
    for (Slot& w : slots_) {
        if (w.status != Status::Down || !w.respawn_at || *w.respawn_at > now) continue;
        ++w.generation;
        w.incarnation = next_incarnation_++;
        w.dir = out_dir_ + "/workers/w" + std::to_string(w.slot) +
                (w.generation > 0 ? "r" + std::to_string(w.generation) : "");
        w.respawn_at.reset();
        w.status = Status::Spawning;
        out_.push_back({.kind = FleetAction::Kind::Spawn, .slot = w.slot,
                        .generation = w.generation, .text = w.dir});
    }
    const bool all_down = std::all_of(slots_.begin(), slots_.end(), [](const Slot& w) {
        return w.status == Status::Down;
    });
    if (all_down && !respawn_pending() && !table_.all_done()) {
        const std::size_t incomplete =
            grid_.size() - table_.done_count() - table_.quarantined_count();
        throw support::Error(
            "fleet", "all " + std::to_string(slots_.size()) +
                         " worker slots are dead with their respawn budgets exhausted "
                         "and " + std::to_string(incomplete) +
                         " cell(s) incomplete — worker journals remain under '" +
                         out_dir_ + "/workers/' for inspection");
    }
}

void Coordinator::grant(Slot& w) {
    const auto up = static_cast<std::size_t>(
        std::count_if(slots_.begin(), slots_.end(),
                      [](const Slot& s) { return s.status == Status::Up; }));
    const std::vector<std::size_t> lease =
        table_.grant(w.slot, table_.suggested_lease(up));
    if (lease.empty()) return;
    out_.push_back(
        {.kind = FleetAction::Kind::Send, .slot = w.slot, .text = format_lease(lease)});
}

void Coordinator::top_up() {
    // Revocation or an earlier empty queue can leave live workers idle
    // while cells are pending.
    for (Slot& w : slots_) {
        if (w.status == Status::Up && w.hello_seen && table_.outstanding(w.slot) == 0) {
            grant(w);
        }
    }
}

void Coordinator::kill(Slot& w, const char* reason) {
    // Kill unconditionally: a merely-hung worker that woke up later could
    // journal a cell the table has meanwhile re-leased.
    w.status = Status::Dying;
    out_.push_back({.kind = FleetAction::Kind::Kill, .slot = w.slot, .text = reason});
}

void Coordinator::schedule_respawn(Slot& w, double now) {
    if (table_.all_done()) return;
    if (w.respawns_used >= kMaxRespawns) {
        log(strprintf("fleet: worker slot w%d retired after %zu respawns", w.slot,
                      w.respawns_used));
        return;
    }
    ++w.respawns_used;
    const double factor =
        w.crash_streak > 0 ? std::ldexp(1.0, static_cast<int>(w.crash_streak) - 1) : 1.0;
    const double backoff = std::min(kRespawnBackoffCapS, kRespawnBackoffS * factor);
    w.respawn_at = now + backoff;
    // sdlbench-lint: allow(printf-float): stderr lifecycle line, never serialized into an artifact
    log(strprintf("fleet: respawning worker w%d (generation %d) in %.2fs", w.slot,
                  w.generation + 1, backoff));
}

void Coordinator::convict(std::size_t cell, std::size_t burned) {
    table_.quarantine(cell);
    json::Value conviction = json::Value::object();
    conviction.set("event", "quarantine");
    conviction.set("cell", static_cast<std::int64_t>(cell));
    ledger(conviction);
    log(strprintf("fleet: cell %zu quarantined after crashing %zu distinct worker(s) — "
                  "reporting it failed, not re-leasing",
                  cell, burned));
}

std::size_t Coordinator::ingest(JournalTail& tail, std::string_view bytes, int slot,
                                bool live) {
    tail.partial += bytes;
    const CompleteLines split = split_complete_lines(tail.partial);
    std::size_t records = 0;
    for (const std::string& line : split.lines) {
        if (!tail.header_seen) {
            (void)validate_journal_header(line, spec_, grid_.size(), tail.path);
            tail.header_seen = true;
            continue;
        }
        CellResult record = parse_cell_record(line, grid_, tail.path);
        const std::size_t index = record.cell.index;
        table_.complete(index);  // throws if any worker already did this cell
        if (live) {
            summary_.busy_s += record.wall_seconds;
            merge_due_ = true;
            // sdlbench-lint: allow(printf-float): stdout progress line, never serialized into an artifact
            log(strprintf("  [%zu/%zu] %s best=%.2f (w%d, %.1fs)", table_.done_count(),
                          grid_.size(), record.cell.config.experiment_id.c_str(),
                          record.outcome.best_score, slot, record.wall_seconds),
                /*progress=*/true);
        }
        results_[index] = std::move(record);
        ++records;
    }
    tail.partial.erase(0, split.consumed);
    return records;
}

void Coordinator::log(std::string line, bool progress) {
    out_.push_back({.kind = FleetAction::Kind::Log, .text = std::move(line),
                    .progress = progress});
}

void Coordinator::ledger(const json::Value& record) {
    out_.push_back({.kind = FleetAction::Kind::LedgerAppend, .text = record.dump()});
}

std::optional<double> Coordinator::next_deadline() const {
    std::optional<double> deadline;
    for (const Slot& w : slots_) {
        const std::optional<double> due =
            w.status == Status::Up ? std::optional(w.last_heard + kHeartbeatTimeoutS)
                                   : w.respawn_at;
        if (due && (!deadline || *due < *deadline)) deadline = due;
    }
    return deadline;
}

bool Coordinator::respawn_pending() const noexcept {
    return std::any_of(slots_.begin(), slots_.end(),
                       [](const Slot& w) { return w.respawn_at.has_value(); });
}

std::vector<CellResult> Coordinator::results() const {
    std::vector<CellResult> collected;
    collected.reserve(table_.done_count());
    for (const auto& r : results_) {
        if (r) collected.push_back(*r);
    }
    return collected;
}

std::vector<QuarantinedCell> Coordinator::quarantined() const {
    std::vector<QuarantinedCell> cells;
    for (const std::size_t cell : table_.quarantined()) {
        cells.push_back(QuarantinedCell{grid_[cell], crash_log_[cell]});
    }
    return cells;
}

}  // namespace sdl::campaign
