#include "campaign/fleet.hpp"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <thread>
#include <utility>

#include "campaign/campaign_io.hpp"
#include "campaign/checkpoint.hpp"
#include "campaign/coordinator.hpp"
#include "campaign/report.hpp"
#include "core/colorpicker.hpp"
#include "support/atomic_io.hpp"
#include "support/channel.hpp"
#include "support/common.hpp"
#include "support/csv.hpp"
#include "support/failpoint.hpp"
#include "support/mutex.hpp"
#include "support/subprocess.hpp"

#if !defined(_WIN32)
#include <unistd.h>
#endif

namespace sdl::campaign {

namespace {

// sdlbench-lint: allow(steady-clock): heartbeat deadlines and makespan are operational wall time, never report bytes
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Splits on single spaces; strict (no empty tokens) so a malformed
/// frame never half-parses.
std::vector<std::string> tokenize(const std::string& line) {
    std::vector<std::string> tokens;
    std::size_t start = 0;
    while (start <= line.size()) {
        const std::size_t space = line.find(' ', start);
        if (space == std::string::npos) {
            tokens.push_back(line.substr(start));
            break;
        }
        tokens.push_back(line.substr(start, space - start));
        start = space + 1;
    }
    return tokens;
}

std::optional<std::size_t> parse_index(const std::string& token) {
    if (token.empty() || token.size() > 18) return std::nullopt;
    std::size_t value = 0;
    for (const char c : token) {
        if (c < '0' || c > '9') return std::nullopt;
        value = value * 10 + static_cast<std::size_t>(c - '0');
    }
    return value;
}

}  // namespace

// --------------------------------------------------------------- protocol

std::optional<WorkerMessage> parse_worker_line(const std::string& line) {
    const std::vector<std::string> tokens = tokenize(line);
    if (tokens.empty()) return std::nullopt;
    WorkerMessage msg;
    if (tokens[0] == "beat" && tokens.size() == 1) {
        msg.kind = WorkerMsgKind::Beat;
        return msg;
    }
    if (tokens[0] == "hello" && tokens.size() == 2) {
        const auto pid = parse_index(tokens[1]);
        if (!pid) return std::nullopt;
        msg.kind = WorkerMsgKind::Hello;
        msg.pid = static_cast<long>(*pid);
        return msg;
    }
    if (tokens[0] == "ack" && tokens.size() == 2) {
        const auto cell = parse_index(tokens[1]);
        if (!cell) return std::nullopt;
        msg.kind = WorkerMsgKind::Ack;
        msg.cell = *cell;
        return msg;
    }
    return std::nullopt;
}

std::optional<CoordMessage> parse_coordinator_line(const std::string& line) {
    const std::vector<std::string> tokens = tokenize(line);
    if (tokens.empty()) return std::nullopt;
    CoordMessage msg;
    if (tokens[0] == "stop" && tokens.size() == 1) {
        msg.kind = CoordMsgKind::Stop;
        return msg;
    }
    if (tokens[0] == "lease" && tokens.size() >= 2) {
        msg.kind = CoordMsgKind::Lease;
        for (std::size_t i = 1; i < tokens.size(); ++i) {
            const auto cell = parse_index(tokens[i]);
            if (!cell) return std::nullopt;
            msg.cells.push_back(*cell);
        }
        return msg;
    }
    return std::nullopt;
}

std::string format_hello(long pid) { return "hello " + std::to_string(pid); }
std::string format_beat() { return "beat"; }
std::string format_ack(std::size_t cell) { return "ack " + std::to_string(cell); }

std::string format_lease(const std::vector<std::size_t>& cells) {
    support::check(!cells.empty(), "a lease must carry at least one cell");
    std::string line = "lease";
    for (const std::size_t cell : cells) {
        line += ' ';
        line += std::to_string(cell);
    }
    return line;
}

std::string format_stop() { return "stop"; }

// ----------------------------------------------------------------- driver

namespace {

std::string ledger_path(const std::string& out_dir) {
    return out_dir + "/coordinator.jsonl";
}

/// `path`'s bytes from `offset` on; empty when the file does not exist.
std::string read_from(const std::string& path, std::size_t offset = 0) {
    std::ifstream file(path, std::ios::binary);
    if (!file) return {};
    file.seekg(0, std::ios::end);
    const auto size = static_cast<std::size_t>(file.tellg());
    if (size <= offset) return {};
    std::string bytes(size - offset, '\0');
    file.seekg(static_cast<std::streamoff>(offset));
    file.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    return bytes;
}

/// One worker process as the driver sees it.
struct Proc {
    support::ChildProcess child;
    support::LineBuffer lines;
    std::string dir;
    std::size_t journal_read = 0;  ///< journal bytes already handed over
    bool alive = false;
};

/// Kills and reaps every still-running child no matter how run_fleet
/// exits — early throws (spec errors, duplicate cells, all workers
/// lost) included — so no zombie outlives the coordinator.
struct ReapGuard {
    std::vector<Proc>& procs;
    ~ReapGuard() {
        for (Proc& p : procs) {
            if (!p.alive) continue;
            support::kill_hard(p.child);
            (void)support::wait_exit(p.child);
            p.child.close_pipes();
            p.alive = false;
        }
    }
};

/// Performs the Coordinator's actions on real processes and files, and
/// turns what it observes into events. It decides nothing.
class FleetDriver {
public:
    FleetDriver(Coordinator& coord, std::vector<Proc>& procs,
                support::AppendWriter& ledger, const FleetOptions& options,
                const std::string& spec_path, const std::string& digest,
                std::size_t threads)
        : coord_(coord), procs_(procs), ledger_(ledger), options_(options),
          spec_path_(spec_path), digest_(digest), threads_(threads) {}

    /// Seconds since the driver started: the clock of every event.
    [[nodiscard]] double now() const { return seconds_since(start_); }

    void run(const std::string& out_dir, const CampaignSpec& spec) {
        while (!coord_.finished()) {
            perform_all(coord_.on({.kind = FleetEvent::Kind::Tick, .now = now()}));
            // Live merge. A failed one (disk hiccup, injected atomic_io
            // fault) is retried next pass; only the final write must succeed.
            if (merge_owed_ && !coord_.finished()) {
                try {
                    write_campaign_outputs(out_dir, spec, coord_.results());
                    merge_owed_ = false;
                } catch (const support::Error& e) {
                    std::fprintf(stderr, "fleet: live merge failed (%s); retrying\n",
                                 e.what());
                }
            }
            if (coord_.finished()) break;
            // Poll until the next heartbeat or respawn deadline, clamped to
            // 20..500 ms so timeout checks stay responsive.
            std::vector<int> fds(procs_.size(), -1);
            for (std::size_t i = 0; i < procs_.size(); ++i) {
                if (procs_[i].alive) fds[i] = procs_[i].child.stdout_fd();
            }
            int timeout_ms = 500;
            if (const std::optional<double> deadline = coord_.next_deadline()) {
                const double left_ms = (*deadline - now()) * 1000.0;
                timeout_ms = std::min(timeout_ms, static_cast<int>(left_ms));
            }
            const std::vector<bool> readable =
                support::poll_readable(fds, std::max(timeout_ms, 20));
            for (std::size_t i = 0; i < procs_.size(); ++i) {
                if (procs_[i].alive && readable[i]) read_worker(static_cast<int>(i));
            }
        }
    }

private:
    /// Performs `actions`, then everything the coordinator answers to the
    /// events they produce (spawn results, reaped workers).
    void perform_all(const std::vector<FleetAction>& actions) {
        for (const FleetAction& action : actions) perform(action);
        while (!replies_.empty()) {
            const FleetEvent reply = std::move(replies_.front());
            replies_.pop_front();
            for (const FleetAction& action : coord_.on(reply)) perform(action);
        }
    }

    void read_worker(int slot) {
        Proc& p = procs_[static_cast<std::size_t>(slot)];
        const long n = support::read_some(p.child.stdout_fd(), p.lines);
        while (p.alive) {
            std::optional<std::string> line = p.lines.next_line();
            if (!line) break;
            FleetEvent event{.kind = FleetEvent::Kind::Line, .now = now(), .slot = slot,
                             .text = std::move(*line)};
            const std::optional<WorkerMessage> msg = parse_worker_line(event.text);
            const bool ack = msg && msg->kind == WorkerMsgKind::Ack;
            if (ack && support::failpoint::armed() &&
                support::failpoint::evaluate("fleet.ack_recv").action !=
                    support::failpoint::Action::None) {
                // Injected corrupt ack: same outcome as a garbage line — the
                // worker is dropped and its journal is the source of truth.
                std::fprintf(stderr, "fleet: injected ack_recv failure on w%d\n", slot);
                event.corrupt = true;
            } else if (ack) {
                event.journal = journal_tail(p);
            }
            const std::vector<FleetAction> actions = coord_.on(event);
            // After the acked records are folded in, before the refill lease.
            if (ack && !event.corrupt) {
                support::failpoint::maybe_fail("coordinator.post_ack_kill", "fleet");
            }
            perform_all(actions);
        }
        if (n <= 0 && p.alive) reap(slot, "pipe closed");
    }

    void perform(const FleetAction& a) {
        Proc* p = a.slot >= 0 ? &procs_[static_cast<std::size_t>(a.slot)] : nullptr;
        switch (a.kind) {
            case FleetAction::Kind::Spawn:
                spawn(*p, a.slot, a.generation, a.text);
                break;
            case FleetAction::Kind::Send:
                if (!p->alive) break;
                // An injected dead pipe takes the same path as a real EPIPE.
                if ((support::failpoint::armed() &&
                     support::failpoint::evaluate("fleet.lease_send").action !=
                         support::failpoint::Action::None) ||
                    !support::write_line_fd(p->child.stdin_fd(), a.text)) {
                    reap(a.slot, "lease write failed");
                }
                break;
            case FleetAction::Kind::Kill:
                if (p->alive) reap(a.slot, a.text);
                break;
            case FleetAction::Kind::LedgerAppend:
                ledger_.append_line(a.text);
                break;
            case FleetAction::Kind::WriteOutputs:
                merge_owed_ = true;
                break;
            case FleetAction::Kind::Log:
                if (!a.progress) {
                    std::fprintf(stderr, "%s\n", a.text.c_str());
                } else if (options_.log_progress) {
                    std::printf("%s\n", a.text.c_str());
                }
                break;
        }
    }

    void spawn(Proc& p, int slot, int generation, const std::string& dir) {
        std::filesystem::create_directories(dir);
        // A stale journal from a previous fleet run must not be tailed
        // before the fresh worker truncates it. (Respawns get fresh
        // per-generation dirs, so dead incarnations' journals survive.)
        std::filesystem::remove(journal_path(dir));
        // Per-incarnation failpoint schedule: slot-numbered entries hit
        // generation 0 only (so respawns come up clean), '*' entries hit
        // every incarnation (crash loops). The variable is ALWAYS set, so
        // the coordinator's own environment never leaks into workers.
        std::string fp;
        for (const FleetOptions::WorkerFailpoint& wf : options_.worker_failpoints) {
            if (wf.slot >= 0 && (wf.slot != slot || generation != 0)) continue;
            if (!fp.empty()) fp += ',';
            fp += wf.spec;
        }
        const std::vector<std::string> argv = {
            options_.worker_exe, "--worker",
            "--campaign", spec_path_,
            "--dir", dir,
            "--expect-digest", digest_,
            "--heartbeat-interval", support::fmt_roundtrip(kHeartbeatIntervalS)};
        p = Proc{};
        p.dir = dir;
        try {
            p.child = support::spawn_child(
                argv, {"SDLBENCH_WORKERS=" + std::to_string(threads_),
                       "SDLBENCH_FAILPOINTS=" + fp});
        } catch (const support::Error& e) {
            replies_.push_back({.kind = FleetEvent::Kind::SpawnFailed, .now = now(),
                                .slot = slot, .text = e.what()});
            return;
        }
        p.alive = true;
        replies_.push_back({.kind = FleetEvent::Kind::Spawned, .now = now(), .slot = slot,
                            .pid = p.child.pid()});
    }

    /// Kill, reap, take the journal tail — then the worker has Exited.
    void reap(int slot, std::string reason) {
        Proc& p = procs_[static_cast<std::size_t>(slot)];
        support::kill_hard(p.child);
        (void)support::wait_exit(p.child);
        std::string tail = journal_tail(p);
        p.child.close_pipes();
        p.alive = false;
        replies_.push_back({.kind = FleetEvent::Kind::Exited, .now = now(), .slot = slot,
                            .text = std::move(reason), .journal = std::move(tail)});
    }

    std::string journal_tail(Proc& p) {
        std::string bytes = read_from(journal_path(p.dir), p.journal_read);
        p.journal_read += bytes.size();
        return bytes;
    }

    Coordinator& coord_;
    std::vector<Proc>& procs_;
    support::AppendWriter& ledger_;
    const FleetOptions& options_;
    const std::string& spec_path_;
    const std::string& digest_;
    std::size_t threads_;
    Clock::time_point start_ = Clock::now();
    std::deque<FleetEvent> replies_;  ///< events answering performed actions
    bool merge_owed_ = false;
};

}  // namespace

FleetResult run_fleet(const std::string& spec_path, const std::string& out_dir,
                      const FleetOptions& options) {
    support::ignore_sigpipe();
    support::check(!options.worker_exe.empty(), "FleetOptions.worker_exe must be set");

    const CampaignSpec spec = campaign_from_file(spec_path);
    const std::vector<CampaignCell> grid = expand_grid(spec);
    const std::string digest = spec_digest(spec);

    // Same refusal as sdlbench_run: an incomplete journal for this very
    // spec in out_dir is a crashed run's progress; make the operator
    // decide, don't truncate.
    const std::size_t progress = journal_progress(journal_path(out_dir), spec);
    if (progress > 0) {
        throw support::ConfigError(
            "'" + out_dir + "' already holds a journal with " + std::to_string(progress) +
            " completed cell(s) for this campaign — resume it with `sdlbench_run "
            "--campaign ... --resume " + out_dir + "`, or delete " +
            journal_path(out_dir) + " to start over");
    }
    // A leftover coordinator ledger marks a fleet whose coordinator died
    // mid-campaign; demand an explicit decision rather than redoing (and
    // possibly duplicating) work the worker journals already hold.
    const bool ledger_exists = std::filesystem::exists(ledger_path(out_dir));
    if (ledger_exists && !options.resume) {
        throw support::ConfigError(
            "'" + out_dir + "' holds a coordinator ledger from an interrupted fleet "
            "run — resume it with `sdlbench_fleet --campaign ... --resume " + out_dir +
            "`, or delete " + ledger_path(out_dir) + " to start over");
    }
    if (options.resume && !ledger_exists) {
        throw support::ConfigError("--resume: no coordinator ledger at '" +
                                   ledger_path(out_dir) + "' — nothing to resume");
    }
    std::filesystem::create_directories(out_dir);

    const std::size_t n_workers =
        std::min(std::max<std::size_t>(1, options.workers), grid.size());
    std::size_t threads = options.worker_threads;
    if (threads == 0) {
        // Disjoint core budgets: divide the host instead of letting every
        // worker's in-process pool claim all of it.
        const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
        threads = std::max<std::size_t>(1, hw / n_workers);
    }

    // Every schedule is parsed up front so a typo aborts before any spawn.
    for (const FleetOptions::WorkerFailpoint& wf : options.worker_failpoints) {
        (void)support::failpoint::parse(wf.spec);
    }

    Coordinator coord(spec, grid, out_dir, n_workers);
    std::vector<Proc> procs(n_workers);
    ReapGuard reaper{procs};

    std::string ledger_prefix = ledger_header(digest, grid.size(), spec_path) + "\n";
    if (options.resume) {
        // Rebuild the coordinator from the ledger plus the worker journals
        // it names: the journals carry the results, the ledger their
        // locations, the crash history and the quarantine convictions.
        const LedgerState prior =
            parse_ledger(read_from(ledger_path(out_dir)), ledger_path(out_dir));
        if (prior.spec_digest != digest) {
            throw support::ConfigError(
                "--resume: ledger spec digest " + prior.spec_digest +
                " does not match this campaign's digest " + digest +
                " — the resumed run must use the same spec");
        }
        if (prior.cells_total != grid.size()) {
            throw support::ConfigError("--resume: ledger records " +
                                       std::to_string(prior.cells_total) +
                                       " cells, campaign expands to " +
                                       std::to_string(grid.size()));
        }
#if !defined(_WIN32)
        // Orphans of the dead coordinator: best-effort SIGKILL by recorded
        // pid before reading their journals, so none can append a record
        // after we've read it. A reused pid is possible but the window is
        // narrow (docs/ROBUSTNESS.md § Resume caveats).
        for (const LedgerSpawn& s : prior.spawns) {
            if (s.pid > 0) (void)::kill(static_cast<pid_t>(s.pid), SIGKILL);
        }
#endif
        std::vector<std::string> journals;
        for (const LedgerSpawn& s : prior.spawns) {
            journals.push_back(read_from(journal_path(s.dir)));
        }
        coord.restore(prior, journals);
        // Compacted ledger: fresh header + every prior event verbatim.
        for (const std::string& raw : prior.raw_events) {
            ledger_prefix += raw;
            ledger_prefix += '\n';
        }
        if (options.log_progress) {
            std::printf("Fleet resume: %zu of %zu cells already journaled, "
                        "%zu quarantined\n",
                        coord.table().done_count(), grid.size(),
                        coord.table().quarantined_count());
        }
    }

    // The write-ahead ledger: removed on success, so its presence marks a
    // crashed run.
    support::atomic_write(ledger_path(out_dir), ledger_prefix);
    std::optional<support::AppendWriter> ledger(std::in_place, ledger_path(out_dir));
    if (options.log_progress) {
        std::printf("Fleet: %zu cells on %zu workers (%zu threads each), "
                    "cost-ordered leases\n",
                    grid.size(), n_workers, threads);
    }

    FleetDriver driver(coord, procs, *ledger, options, spec_path, digest, threads);
    driver.run(out_dir, spec);

    // Final merge from index-sorted results — the exact bytes of a
    // single-process uninterrupted run — plus the fused whole-grid
    // journal, so the fleet directory is resumable/mergeable like any
    // other campaign directory. Quarantined cells are reported, not
    // silently missing.
    std::vector<CellResult> final_results = coord.results();
    std::vector<QuarantinedCell> quarantined_cells = coord.quarantined();
    write_campaign_outputs(out_dir, spec, final_results, quarantined_cells);
    write_fused_journal(out_dir, spec, grid.size(), final_results);

    for (Proc& p : procs) {
        if (!p.alive) continue;
        (void)support::write_line_fd(p.child.stdin_fd(), format_stop());
        p.child.close_stdin();  // reader thread EOF: the worker exits cleanly
    }
    for (Proc& p : procs) {
        if (!p.alive) continue;
        (void)support::wait_exit(p.child);
        p.child.close_pipes();
        p.alive = false;
    }
    // Everything durable is written; the ledger's job is done.
    ledger.reset();
    std::error_code ignored;
    std::filesystem::remove(ledger_path(out_dir), ignored);

    FleetSummary summary = coord.summary();
    summary.cells_quarantined = quarantined_cells.size();
    summary.makespan_s = driver.now();
    if (summary.makespan_s > 0.0 && summary.workers_started > 0) {
        summary.efficiency =
            summary.busy_s /
            (summary.makespan_s * static_cast<double>(summary.workers_started));
    }
    return FleetResult{summary, std::move(final_results), std::move(quarantined_cells)};
}

// ----------------------------------------------------------------- worker

int run_fleet_worker(const FleetWorkerOptions& options) {
    support::ignore_sigpipe();

    const CampaignSpec spec = campaign_from_file(options.campaign_path);
    const std::string digest = spec_digest(spec);
    if (!options.expect_digest.empty() && digest != options.expect_digest) {
        std::fprintf(stderr,
                     "fleet worker: spec digest mismatch (coordinator %s, local %s) — "
                     "coordinator and worker must see the same campaign file\n",
                     options.expect_digest.c_str(), digest.c_str());
        return 3;
    }
    const std::vector<CampaignCell> grid = expand_grid(spec);
    std::filesystem::create_directories(options.dir);
    // Whole-grid header: a worker may journal any subset of the grid, so
    // its journal is not a round-robin shard — Shard{} (1/1) makes every
    // cell index a member and load_journal/merge_journals validate it
    // like any other journal.
    CheckpointJournal journal(options.dir, spec, grid.size(), Shard{});

    // stdout carries the protocol; acks (main thread) and beats
    // (heartbeat thread) must not interleave mid-line.
    support::Mutex out_mutex;
    const auto send = [&out_mutex](const std::string& line) {
        support::MutexLock lock(out_mutex);
        return support::write_line_fd(1, line);
    };

    // The reader thread owns stdin; the channel hands lines to the main
    // loop. Shared ownership lets the thread be detached safely on the
    // rare early-exit paths where stdin never reaches EOF.
    auto inbox = std::make_shared<support::Channel<std::string>>();
    std::thread reader([inbox] {
        std::string line;
        while (std::getline(std::cin, line)) {
            if (!inbox->send(line)) return;
        }
        inbox->close();  // coordinator closed our stdin (stop or death)
    });
    reader.detach();

    // The stop flag is written under hb_mutex and the notify happens
    // after the locked store — storing it unlocked (the old atomic
    // version) left a lost-wake-up window between the heartbeat
    // thread's predicate check and its block, costing one extra
    // interval of shutdown latency.
    support::Mutex hb_mutex;
    support::CondVar hb_cv;
    bool hb_stop = false;  // guarded by hb_mutex
    std::thread heartbeat([&] {
        const auto interval = std::chrono::duration<double>(
            std::max(0.05, options.heartbeat_interval_s));
        support::MutexLock lock(hb_mutex);
        while (!hb_stop) {
            if (hb_cv.wait_for(hb_mutex, interval) == std::cv_status::timeout) {
                if (!send(format_beat())) return;  // coordinator gone
            }
        }
    });

    int exit_code = 0;
    std::deque<std::size_t> queue;
    bool stop = false;

#if !defined(_WIN32)
    (void)send(format_hello(static_cast<long>(::getpid())));
#else
    (void)send(format_hello(0));
#endif

    const auto handle = [&](const std::string& line) {
        const auto msg = parse_coordinator_line(line);
        if (!msg) {
            std::fprintf(stderr, "fleet worker: bad coordinator line '%s'\n",
                         line.c_str());
            stop = true;
            exit_code = 4;
            return;
        }
        if (msg->kind == CoordMsgKind::Stop) {
            stop = true;
            return;
        }
        for (const std::size_t cell : msg->cells) {
            if (cell >= grid.size()) {
                std::fprintf(stderr, "fleet worker: leased cell %zu out of range\n",
                             cell);
                stop = true;
                exit_code = 4;
                return;
            }
            queue.push_back(cell);
        }
    };

    while (!stop) {
        if (queue.empty()) {
            // Idle: block for the next lease (heartbeats keep flowing
            // from the side thread).
            const auto line = inbox->receive();
            if (!line) break;  // EOF: coordinator is gone
            handle(*line);
        }
        while (!stop) {
            const auto line = inbox->try_receive();
            if (!line) break;
            handle(*line);
        }
        if (stop || queue.empty()) continue;

        const std::size_t cell = queue.front();
        queue.pop_front();
        // Crash drills: `worker.cell_start=kill` dies before any work
        // (re-lease path), `worker.pre_ack_kill=kill` dies after the
        // durable append but before the ack (salvage path). SIGKILL is
        // uncatchable, so no destructor or flush can soften the crash.
        support::failpoint::maybe_fail("worker.cell_start", "fleet",
                                       static_cast<long>(cell));
        const auto started = Clock::now();
        CellResult result;
        result.cell = grid[cell];
        result.outcome = core::ColorPickerApp(result.cell.config).run();
        result.wall_seconds = seconds_since(started);
        journal.append(result);  // durable (fdatasync) before the ack
        support::failpoint::maybe_fail("worker.pre_ack_kill", "fleet");
        if (!send(format_ack(cell))) break;  // coordinator is gone
    }

    {
        support::MutexLock lock(hb_mutex);
        hb_stop = true;
    }
    hb_cv.notify_all();
    heartbeat.join();
    return exit_code;
}

}  // namespace sdl::campaign
