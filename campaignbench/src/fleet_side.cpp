#include "fleet_side.hpp"

#include <poll.h>
#include <sys/inotify.h>
#include <unistd.h>

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "campaign/campaign_io.hpp"
#include "campaign/checkpoint.hpp"
#include "support/atomic_io.hpp"
#include "support/channel.hpp"
#include "support/subprocess.hpp"
#include "summary.hpp"
#include "traced_cell.hpp"

namespace campaignbench {

namespace fs = std::filesystem;
namespace json = sdl::support::json;
using namespace sdl;

// ------------------------------------------------------------ ReportWatch

ReportWatch::ReportWatch(const std::string& out_dir) : out_dir_(out_dir) {
    fd_ = ::inotify_init1(IN_CLOEXEC | IN_NONBLOCK);
    if (fd_ < 0) throw std::runtime_error("inotify_init1 failed");
    workers_dir_ = out_dir_ + "/workers";
    add_dir(out_dir_, IN_CREATE | IN_MOVED_TO);
    thread_ = std::thread([this] { loop(); });
}

ReportWatch::~ReportWatch() {
    stop();
    if (fd_ >= 0) ::close(fd_);
}

void ReportWatch::stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
}

void ReportWatch::add_dir(const std::string& path, std::uint32_t mask) {
    const int wd = ::inotify_add_watch(fd_, path.c_str(), mask);
    if (wd >= 0) dirs_.emplace_back(wd, path);
}

void ReportWatch::loop() {
    alignas(inotify_event) char buffer[16384];
    while (!stop_.load()) {
        pollfd pfd{fd_, POLLIN, 0};
        if (::poll(&pfd, 1, 20) <= 0) continue;
        const ssize_t got = ::read(fd_, buffer, sizeof buffer);
        if (got <= 0) continue;
        const std::int64_t now = now_ns();
        for (ssize_t off = 0; off < got;) {
            const auto* ev = reinterpret_cast<const inotify_event*>(buffer + off);
            off += static_cast<ssize_t>(sizeof(inotify_event) + ev->len);
            const std::string name = ev->len > 0 ? std::string(ev->name) : std::string();
            std::string dir;
            for (const auto& [wd, path] : dirs_) {
                if (wd == ev->wd) dir = path;
            }
            if (dir.empty()) continue;
            if (dir == out_dir_) {
                if (name == "campaign.json" && (ev->mask & IN_MOVED_TO) != 0) {
                    ++report_writes;
                    last_report_ns = now;
                } else if (name == "workers" && (ev->mask & IN_ISDIR) != 0) {
                    add_dir(workers_dir_, IN_CREATE);
                    // Slot directories made before the watch existed.
                    for (const auto& entry : fs::directory_iterator(workers_dir_)) {
                        if (entry.is_directory()) add_dir(entry.path().string(), IN_MODIFY);
                    }
                }
            } else if (dir == workers_dir_) {
                if ((ev->mask & IN_ISDIR) != 0) {
                    bool known = false;
                    for (const auto& watched : dirs_) known |= watched.second == dir + "/" + name;
                    if (!known) add_dir(dir + "/" + name, IN_MODIFY);
                }
            } else if (name == "cells.jsonl") {
                // Line 1 is the header; every further line is one cell
                // record. Records that appeared since the last event
                // (normally exactly one) get this event's time.
                const std::string path = dir + "/" + name;
                std::ifstream journal(path);
                std::string line;
                std::size_t lines = 0;
                while (std::getline(journal, line)) ++lines;
                std::vector<std::int64_t>& times = appends[path];
                while (lines > times.size() + 1) times.push_back(now);
            }
        }
    }
}

// ------------------------------------------------------------ traced worker

int run_traced_fleet_worker(const campaign::FleetWorkerOptions& options) {
    support::ignore_sigpipe();
    campaign::CampaignSpec spec = campaign::campaign_from_file(options.campaign_path);
    if (!options.backend.empty()) spec.base.linalg_backend = options.backend;
    if (!options.expect_digest.empty() &&
        campaign::spec_digest(spec) != options.expect_digest) {
        std::fprintf(stderr, "traced fleet worker: spec digest mismatch\n");
        return 3;
    }
    const std::vector<campaign::CampaignCell> grid = campaign::expand_grid(spec);
    fs::create_directories(options.dir);
    campaign::CheckpointJournal journal(options.dir, spec, grid.size(), campaign::Shard{});

    std::mutex out_mutex;
    const auto send = [&out_mutex](const std::string& line) {
        const std::lock_guard<std::mutex> lock(out_mutex);
        return support::write_line_fd(1, line);
    };

    // stdin reaches EOF when the coordinator stops this worker (it closes
    // the pipe right after "stop"), so the reader thread is joinable.
    auto inbox = std::make_shared<support::Channel<std::string>>();
    std::thread reader([inbox] {
        std::string line;
        while (std::getline(std::cin, line)) {
            if (!inbox->send(line)) return;
        }
        inbox->close();
    });

    std::mutex hb_mutex;
    std::condition_variable hb_cv;
    bool hb_stop = false;  // guarded by hb_mutex
    std::thread heartbeat([&] {
        const auto interval =
            std::chrono::duration<double>(std::max(0.05, options.heartbeat_interval_s));
        std::unique_lock<std::mutex> lock(hb_mutex);
        while (!hb_cv.wait_for(lock, interval, [&] { return hb_stop; })) {
            if (!send(campaign::format_beat())) return;
        }
    });

    json::Value traces = json::Value::array();
    std::deque<std::size_t> queue;
    int exit_code = 0;
    bool stop = false;
    (void)send(campaign::format_hello(static_cast<long>(::getpid())));

    const auto handle = [&](const std::string& line) {
        const auto msg = campaign::parse_coordinator_line(line);
        if (!msg || msg->kind == campaign::CoordMsgKind::Stop) {
            if (!msg) exit_code = 4;
            stop = true;
            return;
        }
        for (const std::size_t cell : msg->cells) {
            if (cell >= grid.size()) {
                exit_code = 4;
                stop = true;
                return;
            }
            queue.push_back(cell);
        }
    };

    while (!stop) {
        if (queue.empty()) {
            const auto line = inbox->receive();
            if (!line) break;
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
        CellTrace trace;
        trace.cell = cell;
        CellCounters counters;
        campaign::CellResult result;
        result.cell = grid[cell];
        const std::int64_t started = now_ns();
        result.outcome = run_traced_cell(result.cell.config, trace, counters);
        result.wall_seconds = static_cast<double>(now_ns() - started) / 1e9;
        {
            const Scope span(trace, SpanKind::JournalAppend);
            journal.append(result);
        }
        traces.push_back(cell_trace_json(trace, counters));
        if (!send(campaign::format_ack(cell))) break;
    }

    {
        const std::lock_guard<std::mutex> lock(hb_mutex);
        hb_stop = true;
    }
    hb_cv.notify_all();
    heartbeat.join();
    inbox->close();
    reader.join();

    json::Value doc = json::Value::object();
    doc.set("cells", std::move(traces));
    support::atomic_write(options.dir + "/trace.json", doc.dump());
    return exit_code;
}

}  // namespace campaignbench
