// Fleet-side measurement for the campaign benchmark.
//
// ReportWatch observes a fleet output directory with inotify while
// campaign::run_fleet runs in the same process: every atomic rename of
// campaign.json is one report write, and every record appended to a
// worker journal marks a completed cell (its start is that time minus
// the record's journaled wall_seconds).
//
// run_traced_fleet_worker is the fleet worker loop of
// campaign::run_fleet_worker with each cell run through the traced
// closed loop and each journal append timed; it writes its cells' trace
// summaries to <dir>/trace.json when the coordinator stops it.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "campaign/fleet.hpp"

namespace campaignbench {

class ReportWatch {
public:
    /// Starts watching `out_dir`, which must exist.
    explicit ReportWatch(const std::string& out_dir);
    ~ReportWatch();
    ReportWatch(const ReportWatch&) = delete;
    ReportWatch& operator=(const ReportWatch&) = delete;

    /// Stops the watcher thread; the fields below are final afterwards.
    void stop();

    std::int64_t report_writes = 0;
    std::int64_t last_report_ns = -1;
    /// Worker journal path -> the time each of its cell records appeared.
    std::map<std::string, std::vector<std::int64_t>> appends;

private:
    void loop();
    void add_dir(const std::string& path, std::uint32_t mask);

    std::string out_dir_;
    int fd_ = -1;
    std::atomic<bool> stop_{false};
    std::string workers_dir_;
    // wd -> directory path, for the (few) watched directories.
    std::vector<std::pair<int, std::string>> dirs_;
    std::thread thread_;  // last: started after the members it uses
};

/// Worker mode with tracing; returns a process exit code.
int run_traced_fleet_worker(const sdl::campaign::FleetWorkerOptions& options);

}  // namespace campaignbench
