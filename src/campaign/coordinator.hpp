// The fleet coordinator as a pure state machine.
//
// Coordinator makes every decision of the fleet coordinator (fleet.hpp)
// and performs no I/O: it reads no clock, file, pipe or failpoint. The
// driver, run_fleet, turns what it observes into FleetEvents, each
// carrying the driver's clock, and performs the FleetActions that on()
// returns. Worker journals reach the machine as bytes: the driver
// attaches what a worker's journal gained since its last read to each
// ack and exit event, so "kill -> reap -> drain the journal tail ->
// revoke" holds without the machine touching a file. Every spawn, crash
// blame and quarantine is a LedgerAppend (the write-ahead ledger,
// coordinator.jsonl), and restore() rebuilds the state from a parsed
// ledger plus the journals it names. The seam lets tests drive the
// coordinator in virtual time with simulated workers.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/fleet.hpp"
#include "campaign/lease.hpp"
#include "support/json.hpp"

namespace sdl::campaign {

/// A worker silent this long (no hello/beat/ack) is declared hung,
/// killed, and its incomplete cells are re-leased.
inline constexpr double kHeartbeatTimeoutS = 30.0;
/// Worker-side beat period, passed on each worker's argv.
inline constexpr double kHeartbeatIntervalS = 0.25;
/// A cell blamed for this many DISTINCT worker incarnations' deaths is
/// quarantined: reported failed, never leased again.
inline constexpr std::size_t kQuarantineAfter = 3;
/// Respawns per slot per coordinator lifetime; an exhausted slot retires.
inline constexpr std::size_t kMaxRespawns = 8;
/// Respawn delay: min(cap, base * 2^(streak - 1)) on the slot's
/// consecutive-crash streak, which any ack resets.
inline constexpr double kRespawnBackoffS = 0.25;
inline constexpr double kRespawnBackoffCapS = 5.0;

// Events and actions are built with designated initializers; the `{}`
// member initializers let them omit fields without -Wextra noise.
struct FleetEvent {
    enum class Kind { Spawned, SpawnFailed, Line, Exited, Tick };
    Kind kind = Kind::Tick;
    double now = 0.0;  ///< driver clock, seconds
    int slot = -1;     ///< every kind but Tick
    long pid = 0;      ///< Spawned
    /// Line: the protocol line; SpawnFailed: the error; Exited: why the
    /// worker is gone ("pipe closed", or the reason of the Kill action).
    std::string text{};
    /// Line (acks) and Exited: the bytes the worker's journal gained since
    /// the driver last read it. Exited means killed and reaped.
    std::string journal{};
    /// Line: the line arrived but must be treated as unreadable (the
    /// fleet.ack_recv failpoint).
    bool corrupt = false;
};

struct FleetAction {
    enum class Kind { Spawn, Send, Kill, LedgerAppend, WriteOutputs, Log };
    Kind kind = Kind::Log;
    int slot = -1;       ///< Spawn, Send, Kill
    int generation = 0;  ///< Spawn
    /// Spawn: the worker's journal directory; Send: the protocol line;
    /// Kill: the reason; LedgerAppend: one JSON record; Log: one line.
    /// Spawn answers with Spawned/SpawnFailed, Kill (and a failed Send)
    /// with Exited.
    std::string text{};
    bool progress = false;  ///< Log: stdout progress line, else stderr
};

// The coordinator ledger, parsed.
struct LedgerSpawn {
    int slot = 0;
    int generation = 0;
    long incarnation = 0;
    long pid = 0;
    std::string dir;
};
struct LedgerCrash {
    std::size_t cell = 0;
    long incarnation = 0;
    CellCrash crash;
};
struct LedgerState {
    std::string spec_digest;
    std::size_t cells_total = 0;
    std::vector<LedgerSpawn> spawns;
    std::vector<LedgerCrash> crashes;
    std::vector<std::size_t> quarantines;
    /// Every event line that parsed, verbatim: the compacted ledger of a
    /// resumed run rewrites them so a resume-of-a-resume knows them all.
    std::vector<std::string> raw_events;
};

/// The ledger's header line (no '\n'): schema, spec digest, cell count.
[[nodiscard]] std::string ledger_header(const std::string& spec_digest,
                                        std::size_t cells_total,
                                        const std::string& campaign_path);

/// Parses ledger text, dropping a torn tail (each record is one fsync'd
/// append, so only the last line can be incomplete; an unparseable line
/// ends the ledger). Throws ConfigError naming `path` when the header is
/// missing or is not a coordinator ledger.
[[nodiscard]] LedgerState parse_ledger(std::string_view text, const std::string& path);

class Coordinator {
public:
    /// `spec` and `grid` must outlive the coordinator. Worker journal
    /// directories go under `out_dir`/workers/.
    Coordinator(const CampaignSpec& spec, const std::vector<CampaignCell>& grid,
                std::string out_dir, std::size_t workers);

    /// Resume, before any event: replays `prior` and, from offset 0, the
    /// journal of every spawn it records (`journals[i]` is the text of
    /// prior.spawns[i]'s journal, empty when there is none). Convictions
    /// the dead coordinator had earned but not written come out with the
    /// first event's actions.
    void restore(const LedgerState& prior, const std::vector<std::string>& journals);

    /// The transition function. Throws support::Error when every slot is
    /// dead with no respawn pending, and on duplicate or invalid journal
    /// records.
    [[nodiscard]] std::vector<FleetAction> on(const FleetEvent& event);

    /// The earliest heartbeat or respawn deadline, if any.
    [[nodiscard]] std::optional<double> next_deadline() const;
    [[nodiscard]] bool finished() const noexcept { return table_.all_done(); }
    [[nodiscard]] bool respawn_pending() const noexcept;
    [[nodiscard]] const LeaseTable& table() const noexcept { return table_; }
    /// The counters; the driver fills in makespan_s, efficiency and
    /// cells_quarantined.
    [[nodiscard]] const FleetSummary& summary() const noexcept { return summary_; }
    /// Completed cells, index-sorted.
    [[nodiscard]] std::vector<CellResult> results() const;
    [[nodiscard]] std::vector<QuarantinedCell> quarantined() const;

private:
    /// Incremental reader of one worker journal; `partial` holds the bytes
    /// after the last '\n' (a record still being written).
    struct JournalTail {
        std::string path;
        std::string partial;
        bool header_seen = false;
    };
    enum class Status { Down, Spawning, Up, Dying };
    struct Slot {
        int slot = 0;
        Status status = Status::Down;
        int generation = -1;    ///< -1 = never spawned
        long incarnation = -1;  ///< unique per spawned process
        long pid = 0;
        std::string dir;
        JournalTail journal;
        double last_heard = 0.0;
        bool hello_seen = false;
        std::size_t respawns_used = 0;
        std::size_t crash_streak = 0;
        std::optional<double> respawn_at;
    };

    void line(Slot& w, const FleetEvent& e);
    void exited(Slot& w, const FleetEvent& e);
    void tick(double now);
    void grant(Slot& w);
    void top_up();
    void kill(Slot& w, const char* reason);
    void schedule_respawn(Slot& w, double now);
    void convict(std::size_t cell, std::size_t burned);
    /// Folds the journal's new complete records into the results. `live`
    /// records count toward busy time, the live merge and the progress
    /// log; replayed ones do not. Returns the records consumed.
    std::size_t ingest(JournalTail& tail, std::string_view bytes, int slot, bool live);
    void log(std::string line, bool progress = false);
    void ledger(const support::json::Value& record);

    const CampaignSpec& spec_;
    const std::vector<CampaignCell>& grid_;
    std::string out_dir_;
    LeaseTable table_;
    std::vector<std::optional<CellResult>> results_;
    std::vector<std::vector<CellCrash>> crash_log_;
    std::vector<Slot> slots_;
    FleetSummary summary_;
    long next_incarnation_ = 0;
    bool merge_due_ = false;
    std::vector<FleetAction> out_;  ///< actions not yet returned
};

}  // namespace sdl::campaign
