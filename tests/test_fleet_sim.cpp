// Deterministic simulation of the fleet protocol.
//
// The Coordinator state machine (campaign/coordinator.hpp) is driven in
// virtual time on des::Simulation with simulated worker processes: no
// processes, files or sleeps. A simulated worker boots, writes a real
// journal header, says hello, runs leased cells for a simulated
// duration, appends real cell_record_to_json records (synthetic outcomes)
// to an in-memory journal, acks, and beats. The harness plays the driver:
// it performs every action the coordinator returns and answers with the
// events the real driver would produce. Faults are injected at every
// protocol point, plus heartbeat hangs, spawn and lease-send failures,
// corrupt acks, poison cells, respawn-budget exhaustion and coordinator
// crashes at every ledger prefix followed by a resume — and through
// seeded random interleavings. Every run checks the invariants listed
// in docs/ROBUSTNESS.md § Deterministic simulation.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/checkpoint.hpp"
#include "campaign/coordinator.hpp"
#include "des/simulation.hpp"
#include "support/common.hpp"
#include "support/json.hpp"
#include "support/random.hpp"

using namespace sdl;
using namespace sdl::campaign;

namespace {

namespace json = support::json;

const CampaignSpec& sim_spec() {
    static const CampaignSpec spec = [] {
        CampaignSpec s;
        s.name = "fleet_sim";
        s.base.total_samples = 8;
        s.axes.solvers = {"genetic", "random"};
        s.axes.batch_sizes = {1, 2, 4, 8};
        return s;
    }();
    return spec;
}

const std::vector<CampaignCell>& sim_grid() {
    static const std::vector<CampaignCell> grid = expand_grid(sim_spec());
    return grid;
}

/// The one record a cell ever journals: a synthetic outcome that depends
/// only on the cell, like a real run's.
const std::vector<std::string>& cell_records() {
    static const std::vector<std::string> records = [] {
        std::vector<std::string> lines;
        for (const CampaignCell& cell : sim_grid()) {
            CellResult r;
            r.cell = cell;
            r.wall_seconds = 1.0 + 0.25 * static_cast<double>(cell.index);
            r.outcome.experiment_id = cell.config.experiment_id;
            r.outcome.best_score = 100.0 - static_cast<double>(cell.index);
            r.outcome.best_ratios = {0.5, 0.25, 0.25};
            lines.push_back(cell_record_to_json(r).dump());
        }
        return lines;
    }();
    return records;
}

double cell_duration(std::size_t cell) { return 1.0 + 0.25 * static_cast<double>(cell); }

/// Protocol points a worker can die at.
enum class Point { BeforeHello, AfterLease, CellStart, AfterAppend, AfterAck };

/// What one worker incarnation will do wrong.
struct Fate {
    std::optional<Point> die;
    std::size_t die_on_cell = 1;  ///< k-th cell started (or lease received)
    std::optional<std::size_t> hang_on_cell;
};

struct Plan {
    std::size_t workers = 3;
    /// Fate of (slot, generation); fault-free when unset.
    std::function<Fate(int, int)> fate;
    std::function<bool(int, int)> spawn_fails;
    std::set<std::size_t> failing_sends;   ///< 1-based send counts
    std::set<std::size_t> garbled_acks;    ///< 1-based: ack text mangled
    std::set<std::size_t> corrupt_acks;    ///< 1-based: ack flagged unreadable
    std::optional<std::size_t> poison;     ///< kills every worker that starts it
    std::optional<std::size_t> crash_after_append;  ///< coordinator crash, 1-based
    std::optional<std::size_t> crash_after_ack;
    std::vector<double> crash_at;           ///< coordinator crashes at sim times
    std::uint64_t seed = 0;                 ///< 0 = no random faults
};

struct Outcome {
    bool completed = false;
    bool all_dead = false;
    std::vector<CellResult> results;
    std::vector<QuarantinedCell> quarantined;
    FleetSummary summary;
    double makespan = 0.0;
    std::size_t resumes = 0;
    std::vector<std::string> log;
    std::vector<std::string> ledger;  ///< final ledger, header first
    std::map<std::string, std::string> journals;
    std::size_t max_spawns_per_slot = 0;  ///< one coordinator lifetime
};

class SimFleet {
public:
    explicit SimFleet(Plan plan) : plan_(std::move(plan)), rng_(plan_.seed) {}

    Outcome run() {
        for (const double t : plan_.crash_at) {
            sim_.schedule_at(des::TimePoint::from_seconds(t), [this] {
                if (coord_ && !done_) crash();
            });
        }
        start(std::nullopt);
        while (!done_ && sim_.step()) {
            EXPECT_LT(sim_.now().to_seconds(), 20000.0) << "simulation livelocked";
            if (sim_.now().to_seconds() >= 20000.0) break;
        }
        EXPECT_TRUE(done_) << "event queue drained before the fleet finished";
        out_.ledger = ledger_;
        out_.journals = files_;
        return out_;
    }

private:
    struct Worker {
        int slot = 0;
        int generation = 0;
        std::string dir;
        long epoch = 0;  ///< coordinator lifetime that spawned it
        bool alive = true;
        bool hung = false;
        bool busy = false;
        std::size_t cells_started = 0;
        std::size_t leases = 0;
        std::vector<std::size_t> queue;
        Fate fate;
    };
    /// The driver's view of a slot's current process.
    struct Proc {
        long pid = 0;
        bool alive = false;
        std::size_t journal_read = 0;
        std::string dir;
    };
    struct Crash {};

    double now() const { return sim_.now().to_seconds(); }
    void at(double delay, std::function<void()> fn) {
        sim_.schedule_in(support::Duration::seconds(delay), std::move(fn));
    }

    // ------------------------------------------------ coordinator side

    void start(const std::optional<LedgerState>& prior) {
        coord_ =
            std::make_unique<Coordinator>(sim_spec(), sim_grid(), "sim", plan_.workers);
        ++epoch_;
        procs_.assign(plan_.workers, Proc{});
        spawns_.assign(plan_.workers, 0);
        lifetime_start_ = now();
        ledger_ = {ledger_header(spec_digest(sim_spec()), sim_grid().size(), "sim.yaml")};
        guarded([&] {
            if (prior) {
                std::vector<std::string> journals;
                for (const LedgerSpawn& s : prior->spawns) {
                    journals.push_back(files_[journal_path(s.dir)]);
                }
                coord_->restore(*prior, journals);
                check_resume_lost_nothing();
                for (const std::string& raw : prior->raw_events) ledger_.push_back(raw);
            }
            tick();
        });
    }

    /// Runs `fn` (a driver step) and maps what it throws onto the run's
    /// end: a coordinator crash, the all-slots-dead error, or completion.
    template <class Fn>
    void guarded(Fn&& fn) {
        try {
            fn();
        } catch (const Crash&) {
            crash();
            return;
        } catch (const support::Error& e) {
            const std::string what = e.what();
            ASSERT_NE(what.find("worker slots are dead"), std::string::npos) << what;
            // Invariant: the all-dead error fires only with no respawn
            // pending, after every slot spent its whole budget.
            EXPECT_FALSE(coord_->respawn_pending());
            for (const std::size_t n : spawns_) EXPECT_EQ(n, 1 + kMaxRespawns);
            out_.all_dead = true;
            done_ = true;
            return;
        }
        if (coord_->finished()) finish();
    }

    /// One pass of the driver loop: a Tick, then a poll that wakes on the
    /// next delivery or at the timeout.
    void tick() {
        if (coord_->finished()) return;
        dispatch(FleetEvent{.kind = FleetEvent::Kind::Tick, .now = now()});
        if (coord_->finished()) return;
        // The driver's poll timeout: the next deadline, clamped to 20..500 ms.
        double timeout = 0.5;
        if (const auto deadline = coord_->next_deadline()) {
            timeout = std::min(timeout, *deadline - now());
        }
        const long wake = ++wake_;
        const long epoch = epoch_;
        at(std::max(timeout, 0.02), [this, wake, epoch] {
            if (done_ || epoch != epoch_ || wake != wake_) return;
            guarded([&] { tick(); });
        });
    }

    void dispatch(const FleetEvent& event, bool ack = false) {
        const std::vector<FleetAction> actions = coord_->on(event);
        if (ack && plan_.crash_after_ack && ++acks_ == *plan_.crash_after_ack) {
            throw Crash{};
        }
        perform_all(actions);
    }

    void perform_all(const std::vector<FleetAction>& actions) {
        for (const FleetAction& a : actions) perform(a);
        while (!replies_.empty()) {
            const FleetEvent reply = replies_.front();
            replies_.erase(replies_.begin());
            for (const FleetAction& a : coord_->on(reply)) perform(a);
        }
    }

    void perform(const FleetAction& a) {
        switch (a.kind) {
            case FleetAction::Kind::Spawn:
                spawn(a.slot, a.generation, a.text);
                break;
            case FleetAction::Kind::Send: {
                Proc& p = procs_[static_cast<std::size_t>(a.slot)];
                if (!p.alive) break;
                if (plan_.failing_sends.count(++sends_) > 0 || random(0.03)) {
                    reap(a.slot, "lease write failed");
                    break;
                }
                const long pid = p.pid;
                const auto msg = parse_coordinator_line(a.text);
                ASSERT_TRUE(msg.has_value()) << a.text;
                at(0.001, [this, pid, cells = msg->cells] { receive_lease(pid, cells); });
                break;
            }
            case FleetAction::Kind::Kill:
                if (procs_[static_cast<std::size_t>(a.slot)].alive) reap(a.slot, a.text);
                break;
            case FleetAction::Kind::LedgerAppend:
                check_blame(a.text);
                ledger_.push_back(a.text);
                if (plan_.crash_after_append && ++appends_ == *plan_.crash_after_append) {
                    throw Crash{};
                }
                break;
            case FleetAction::Kind::WriteOutputs:
                break;
            case FleetAction::Kind::Log:
                out_.log.push_back(a.text);
                break;
        }
    }

    void spawn(int slot, int generation, const std::string& dir) {
        Proc& p = procs_[static_cast<std::size_t>(slot)];
        p = Proc{};
        p.dir = dir;
        ++spawns_[static_cast<std::size_t>(slot)];
        out_.max_spawns_per_slot =
            std::max(out_.max_spawns_per_slot, spawns_[static_cast<std::size_t>(slot)]);
        const bool fails = (plan_.spawn_fails && plan_.spawn_fails(slot, generation)) ||
                           random(0.05);
        if (fails) {
            replies_.push_back(FleetEvent{.kind = FleetEvent::Kind::SpawnFailed,
                                          .now = now(), .slot = slot,
                                          .text = "[subprocess] fork: injected"});
            return;
        }
        files_.erase(journal_path(dir));
        const long pid = next_pid_++;
        Worker& w = workers_[pid];
        w.slot = slot;
        w.generation = generation;
        w.dir = dir;
        w.epoch = epoch_;
        w.fate = plan_.fate ? plan_.fate(slot, generation) : random_fate();
        p.pid = pid;
        p.alive = true;
        replies_.push_back(FleetEvent{.kind = FleetEvent::Kind::Spawned, .now = now(),
                                      .slot = slot, .pid = pid});
        at(0.05, [this, pid] { boot(pid); });
    }

    /// The driver's kill: SIGKILL, reap, read the journal tail, report.
    void reap(int slot, std::string reason) {
        Proc& p = procs_[static_cast<std::size_t>(slot)];
        workers_[p.pid].alive = false;
        p.alive = false;
        replies_.push_back(FleetEvent{.kind = FleetEvent::Kind::Exited, .now = now(),
                                      .slot = slot, .text = std::move(reason),
                                      .journal = journal_tail(p)});
    }

    std::string journal_tail(Proc& p) {
        const std::string& text = files_[journal_path(p.dir)];
        std::string bytes = text.substr(std::min(p.journal_read, text.size()));
        p.journal_read += bytes.size();
        return bytes;
    }

    /// A line arrives from worker `pid` (the driver read it off the pipe).
    void deliver(long pid, std::string line) {
        const Worker& w = workers_[pid];
        if (done_ || w.epoch != epoch_) return;  // its coordinator is gone
        Proc& p = procs_[static_cast<std::size_t>(w.slot)];
        if (!p.alive || p.pid != pid) return;
        guarded([&] {
            FleetEvent event{.kind = FleetEvent::Kind::Line, .now = now(), .slot = w.slot,
                             .text = std::move(line)};
            const std::optional<WorkerMessage> msg = parse_worker_line(event.text);
            const bool ack = msg && msg->kind == WorkerMsgKind::Ack;
            if (ack && (plan_.corrupt_acks.count(++acks_seen_) > 0 || random(0.03))) {
                event.corrupt = true;
            } else if (ack) {
                event.journal = journal_tail(p);
            }
            dispatch(event, ack && !event.corrupt);
            tick();
        });
    }

    /// The driver sees EOF on a dead worker's pipe.
    void deliver_eof(long pid) {
        const Worker& w = workers_[pid];
        if (done_ || w.epoch != epoch_) return;
        const Proc& p = procs_[static_cast<std::size_t>(w.slot)];
        if (!p.alive || p.pid != pid) return;
        guarded([&] {
            reap(w.slot, "pipe closed");
            perform_all({});
            tick();
        });
    }

    void crash() {
        ++epoch_;  // in-flight events of the dead coordinator are dropped
        coord_.reset();
        replies_.clear();
        for (auto& [pid, w] : workers_) {
            // Orphans: an idle one sees stdin EOF and exits; a busy one
            // finishes its cell, journals it, and exits when the ack
            // write fails; a hung one lingers until the resume kills it.
            if (w.alive && !w.hung && !w.busy) w.alive = false;
        }
        ++out_.resumes;
        at(0.5, [this] {
            if (done_) return;
            std::string text;
            for (const std::string& line : ledger_) text += line + "\n";
            const LedgerState prior = parse_ledger(text, "sim/coordinator.jsonl");
            for (const LedgerSpawn& s : prior.spawns) workers_[s.pid].alive = false;
            start(prior);
        });
    }

    void finish() {
        if (done_) return;
        done_ = true;
        out_.completed = true;
        out_.results = coord_->results();
        out_.quarantined = coord_->quarantined();
        out_.summary = coord_->summary();
        out_.makespan = now() - lifetime_start_;
    }

    // ----------------------------------------------------- worker side

    void send(long pid, std::string line) {
        at(0.001, [this, pid, line = std::move(line)] { deliver(pid, line); });
    }

    void die(long pid) {
        Worker& w = workers_[pid];
        if (!w.alive) return;
        w.alive = false;
        at(0.001, [this, pid] { deliver_eof(pid); });
    }

    bool orphaned(const Worker& w) const { return w.epoch != epoch_; }

    void boot(long pid) {
        Worker& w = workers_[pid];
        if (!w.alive) return;
        files_[journal_path(w.dir)] =
            journal_header(sim_spec(), sim_grid().size(), {}).dump() + "\n";
        if (w.fate.die == Point::BeforeHello || orphaned(w)) return die(pid);
        send(pid, format_hello(pid));
        beat(pid);
    }

    void beat(long pid) {
        at(kHeartbeatIntervalS, [this, pid] {
            const Worker& w = workers_[pid];
            if (!w.alive || w.hung || orphaned(w) || done_) return;
            send(pid, format_beat());
            beat(pid);
        });
    }

    void receive_lease(long pid, const std::vector<std::size_t>& cells) {
        Worker& w = workers_[pid];
        if (!w.alive || w.hung) return;
        ++w.leases;
        if (w.fate.die == Point::AfterLease && w.leases == w.fate.die_on_cell) {
            return die(pid);
        }
        w.queue.insert(w.queue.end(), cells.begin(), cells.end());
        run_next(pid);
    }

    void run_next(long pid) {
        Worker& w = workers_[pid];
        if (!w.alive || w.hung || w.busy || w.queue.empty()) return;
        const std::size_t cell = w.queue.front();
        w.queue.erase(w.queue.begin());
        ++w.cells_started;
        const bool nth = w.cells_started == w.fate.die_on_cell;
        if ((w.fate.die == Point::CellStart && nth) || plan_.poison == cell) {
            return die(pid);
        }
        if (w.fate.hang_on_cell == w.cells_started) {
            w.hung = true;
            return;
        }
        w.busy = true;
        at(cell_duration(cell), [this, pid, cell, nth] {
            Worker& w = workers_[pid];
            if (!w.alive) return;
            w.busy = false;
            files_[journal_path(w.dir)] += cell_records()[cell] + "\n";  // durable
            if ((w.fate.die == Point::AfterAppend && nth) || orphaned(w)) return die(pid);
            std::string ack = format_ack(cell);
            if (plan_.garbled_acks.count(++acks_sent_) > 0) ack += " garbage";
            send(pid, ack);
            if (w.fate.die == Point::AfterAck && nth) return die(pid);
            run_next(pid);
        });
    }

    // ------------------------------------------------ random faults

    bool random(double p) { return plan_.seed != 0 && rng_.uniform() < p; }

    Fate random_fate() {
        Fate f;
        if (random(0.15)) {
            f.die = static_cast<Point>(rng_.uniform_int(std::uint64_t{5}));
            f.die_on_cell = 1 + rng_.uniform_int(std::uint64_t{2});
        } else if (random(0.03)) {
            f.hang_on_cell = 1 + rng_.uniform_int(std::uint64_t{2});
        }
        return f;
    }

    // ------------------------------------------------ invariants

    /// Crash blame never lands on a cell some journal already holds: the
    /// dead worker's tail must be folded in before its lease is revoked.
    void check_blame(const std::string& record) {
        const json::Value doc = json::parse(record);
        if (doc.get_or("event", std::string()) != "crash") return;
        const auto cell = static_cast<std::size_t>(doc.at("cell").as_int());
        EXPECT_EQ(journaled_count(cell), 0u)
            << "crash blamed on cell " << cell << ", which is already journaled";
    }

    /// A resume salvages every cell any journal holds.
    void check_resume_lost_nothing() {
        std::set<std::size_t> done;
        for (const CellResult& r : coord_->results()) done.insert(r.cell.index);
        for (std::size_t cell = 0; cell < sim_grid().size(); ++cell) {
            if (journaled_count(cell) > 0) {
                EXPECT_EQ(done.count(cell), 1u) << "resume lost journaled cell " << cell;
            }
        }
    }

    std::size_t journaled_count(std::size_t cell) const {
        std::size_t n = 0;
        for (const auto& [path, text] : files_) {
            for (const std::string& line : split_complete_lines(text).lines) {
                if (line == cell_records()[cell]) ++n;
            }
        }
        return n;
    }

    Plan plan_;
    support::Rng rng_;
    des::Simulation sim_;
    std::unique_ptr<Coordinator> coord_;
    long epoch_ = 0;
    long wake_ = 0;
    std::vector<Proc> procs_;
    std::vector<std::size_t> spawns_;
    std::vector<FleetEvent> replies_;
    std::map<long, Worker> workers_;
    std::map<std::string, std::string> files_;
    std::vector<std::string> ledger_;
    long next_pid_ = 1000;
    double lifetime_start_ = 0.0;
    std::size_t sends_ = 0;
    std::size_t appends_ = 0;
    std::size_t acks_ = 0;
    std::size_t acks_seen_ = 0;
    std::size_t acks_sent_ = 0;
    bool done_ = false;
    Outcome out_;
};

/// The invariants every run must hold (docs/ROBUSTNESS.md).
void check_invariants(const Outcome& o) {
    const std::size_t cells = sim_grid().size();
    // The respawn budget is honoured in every coordinator lifetime.
    EXPECT_LE(o.max_spawns_per_slot, 1 + kMaxRespawns);
    // No journaled cell is ever recomputed: each record exists at most once.
    std::map<std::string, std::size_t> records;
    for (const auto& [path, text] : o.journals) {
        const std::vector<std::string> lines = split_complete_lines(text).lines;
        for (std::size_t i = 1; i < lines.size(); ++i) ++records[lines[i]];
    }
    for (const auto& [line, n] : records) EXPECT_EQ(n, 1u) << "recomputed: " << line;
    // Quarantine happens at exactly kQuarantineAfter distinct incarnations.
    std::map<std::size_t, std::set<long>> burned;
    for (std::size_t i = 1; i < o.ledger.size(); ++i) {
        const json::Value doc = json::parse(o.ledger[i]);
        const std::string event = doc.get_or("event", std::string());
        const auto cell = static_cast<std::size_t>(doc.get_or("cell", std::int64_t{0}));
        if (event == "crash") burned[cell].insert(doc.at("incarnation").as_int());
        if (event == "quarantine") {
            EXPECT_EQ(burned[cell].size(), kQuarantineAfter) << "quarantined " << cell;
        }
    }
    if (!o.completed) return;
    std::set<std::size_t> quarantined;
    for (const QuarantinedCell& q : o.quarantined) {
        quarantined.insert(q.cell.index);
        EXPECT_EQ(q.crashes.size(), kQuarantineAfter);
    }
    for (const auto& [cell, incarnations] : burned) {
        if (incarnations.size() >= kQuarantineAfter) {
            EXPECT_EQ(quarantined.count(cell), 1u);
        }
    }
    // Each non-quarantined cell exactly once, index-sorted, with the one
    // outcome its config determines (= the single-process result).
    ASSERT_EQ(o.results.size() + quarantined.size(), cells);
    std::size_t next = 0;
    for (const CellResult& r : o.results) {
        while (quarantined.count(next) > 0) ++next;
        ASSERT_EQ(r.cell.index, next);
        EXPECT_EQ(cell_record_to_json(r).dump(), cell_records()[next]);
        ++next;
    }
    // busy_s covers only this lifetime's cells, so efficiency <= 1.
    EXPECT_LE(o.summary.busy_s,
              o.makespan * static_cast<double>(o.summary.workers_started) + 1e-9);
}

Outcome simulate(Plan plan) {
    Outcome o = SimFleet(std::move(plan)).run();
    check_invariants(o);
    return o;
}

bool logged(const Outcome& o, const std::string& needle) {
    return std::any_of(o.log.begin(), o.log.end(), [&](const std::string& line) {
        return line.find(needle) != std::string::npos;
    });
}

/// Slot 1's first incarnation dies at `point` on its first cell.
Plan death_of_w1(Point point) {
    Plan plan;
    plan.fate = [point](int slot, int generation) {
        Fate f;
        if (slot == 1 && generation == 0) f.die = point;
        return f;
    };
    return plan;
}

}  // namespace

TEST(FleetSim, CleanRunMatchesTheSingleProcessResult) {
    const Outcome o = simulate(Plan{});
    ASSERT_TRUE(o.completed);
    EXPECT_EQ(o.summary.workers_lost, 0u);
    EXPECT_EQ(o.ledger.size(), 4u);  // header + 3 spawns
    EXPECT_GT(o.summary.busy_s, 0.0);
}

TEST(FleetSim, WorkerDeathAtEveryProtocolPoint) {
    struct Case {
        Point point;
        const char* expect;
    };
    const Case cases[] = {
        {Point::BeforeHello,
         "worker w1 lost (pipe closed): salvaged 0 journaled cell(s), re-leasing 0"},
        {Point::AfterLease, "worker w1 lost (pipe closed): salvaged 0"},
        {Point::CellStart, "worker w1 lost (pipe closed): salvaged 0"},
        {Point::AfterAppend, "worker w1 lost (pipe closed): salvaged 1 journaled"},
        {Point::AfterAck, "worker w1 lost (pipe closed): salvaged 0"},
    };
    for (const Case& c : cases) {
        SCOPED_TRACE(static_cast<int>(c.point));
        const Outcome o = simulate(death_of_w1(c.point));
        ASSERT_TRUE(o.completed);
        EXPECT_TRUE(logged(o, c.expect));
        EXPECT_TRUE(logged(o, "worker w1 respawned (generation 1"));
        EXPECT_EQ(o.summary.workers_lost, 1u);
        EXPECT_EQ(o.summary.workers_respawned, 1u);
    }
}

TEST(FleetSim, HungWorkerIsKilledAtTheHeartbeatTimeout) {
    Plan plan;
    plan.fate = [](int slot, int generation) {
        Fate f;
        if (slot == 0 && generation == 0) f.hang_on_cell = 1;
        return f;
    };
    const Outcome o = simulate(plan);
    ASSERT_TRUE(o.completed);
    EXPECT_TRUE(logged(o, "worker w0 lost (heartbeat timeout)"));
    EXPECT_GT(o.makespan, kHeartbeatTimeoutS);
}

TEST(FleetSim, SpawnFailureBacksOffAndRetries) {
    Plan plan;
    plan.spawn_fails = [](int slot, int gen) { return slot == 2 && gen < 2; };
    const Outcome o = simulate(plan);
    ASSERT_TRUE(o.completed);
    EXPECT_TRUE(logged(o, "fleet: spawning worker w2 failed"));
    EXPECT_TRUE(logged(o, "respawning worker w2 (generation 2) in 0.50s"));
    EXPECT_TRUE(logged(o, "worker w2 respawned (generation 2"));
}

TEST(FleetSim, LeaseSendFailureReleasesTheLease) {
    Plan plan;
    plan.failing_sends = {1};
    const Outcome o = simulate(plan);
    ASSERT_TRUE(o.completed);
    EXPECT_TRUE(logged(o, "lost (lease write failed): salvaged 0 journaled cell(s), "
                          "re-leasing 2"));
}

TEST(FleetSim, CorruptAckDropsTheWorkerAndSalvagesItsJournal) {
    Plan garbled;
    garbled.garbled_acks = {1};
    Outcome o = simulate(garbled);
    ASSERT_TRUE(o.completed);
    EXPECT_TRUE(logged(o, "sent garbage 'ack"));
    EXPECT_TRUE(logged(o, "lost (protocol error): salvaged 1 journaled cell(s)"));

    Plan unreadable;
    unreadable.corrupt_acks = {1};
    o = simulate(unreadable);
    ASSERT_TRUE(o.completed);
    EXPECT_TRUE(logged(o, "lost (protocol error): salvaged 1 journaled cell(s)"));
}

TEST(FleetSim, PoisonCellIsQuarantinedAtExactlyThreeIncarnations) {
    Plan plan;
    plan.poison = 5;
    const Outcome o = simulate(plan);
    ASSERT_TRUE(o.completed);
    ASSERT_EQ(o.quarantined.size(), 1u);
    EXPECT_EQ(o.quarantined[0].cell.index, 5u);
    EXPECT_TRUE(logged(o, "cell 5 quarantined after crashing 3 distinct worker(s)"));
}

TEST(FleetSim, RespawnBudgetExhaustionEndsTheRun) {
    Plan plan;
    plan.fate = [](int, int) { return Fate{Point::BeforeHello, 1, std::nullopt}; };
    const Outcome o = simulate(plan);
    EXPECT_TRUE(o.all_dead);
    EXPECT_EQ(o.max_spawns_per_slot, 1 + kMaxRespawns);
    EXPECT_TRUE(logged(o, "worker slot w0 retired after 8 respawns"));
}

/// A coordinator crash after every ledger append (every durable prefix)
/// and after every ack, each followed by a resume, over a run with a
/// salvaged worker death and a poison cell — so the ledger holds spawn,
/// crash and quarantine records to cut between.
TEST(FleetSim, CoordinatorCrashAtEveryLedgerPrefixResumes) {
    const auto chaotic = [] {
        Plan plan = death_of_w1(Point::AfterAppend);
        plan.poison = 3;
        return plan;
    };
    const Outcome reference = simulate(chaotic());
    ASSERT_TRUE(reference.completed);
    const std::size_t appends = reference.ledger.size() - 1;
    ASSERT_GT(appends, 6u);
    for (std::size_t k = 1; k <= appends; ++k) {
        SCOPED_TRACE("crash after ledger append " + std::to_string(k));
        Plan plan = chaotic();
        plan.crash_after_append = k;
        const Outcome o = simulate(plan);
        ASSERT_TRUE(o.completed);
        EXPECT_EQ(o.resumes, 1u);
        EXPECT_EQ(o.quarantined.size(), 1u);
    }
    // Every cell but the salvaged and the quarantined one is acked.
    const std::size_t acks = sim_grid().size() - 2;
    for (std::size_t k = 1; k <= acks; ++k) {
        SCOPED_TRACE("crash after ack " + std::to_string(k));
        Plan plan = chaotic();
        plan.crash_after_ack = k;
        const Outcome o = simulate(plan);
        ASSERT_TRUE(o.completed);
        EXPECT_EQ(o.resumes, 1u);
    }
}

TEST(FleetSim, ResumeCountsOnlyThisLifetimesBusyTime) {
    // Crash after the last ack: the resume replays every cell and runs
    // none, so it was busy for none of its (short) makespan.
    Plan plan;
    plan.crash_after_ack = sim_grid().size();
    const Outcome o = simulate(plan);
    ASSERT_TRUE(o.completed);
    EXPECT_EQ(o.resumes, 1u);
    EXPECT_EQ(o.summary.busy_s, 0.0);
}

TEST(FleetSim, SeededRandomInterleavingsHoldEveryInvariant) {
    std::size_t completed = 0;
    std::size_t resumed = 0;
    for (std::uint64_t seed = 1; seed <= 240; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        support::Rng draw(seed * 7919);
        Plan plan;
        plan.seed = seed;
        plan.workers = 1 + draw.uniform_int(std::uint64_t{4});
        if (draw.uniform() < 0.2) plan.poison = draw.uniform_int(sim_grid().size());
        if (draw.uniform() < 0.35) plan.crash_at.push_back(draw.uniform(0.0, 12.0));
        if (draw.uniform() < 0.1) plan.crash_at.push_back(draw.uniform(12.0, 30.0));
        const Outcome o = simulate(plan);
        completed += o.completed ? 1 : 0;
        resumed += o.resumes > 0 ? 1 : 0;
        if (::testing::Test::HasFailure()) break;
    }
    // The faults must not be so dense that runs stop exercising completion
    // and resume.
    EXPECT_GT(completed, 200u);
    EXPECT_GT(resumed, 50u);
}
