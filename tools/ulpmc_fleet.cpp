// ulpmc-fleet: fleet simulation driver (DESIGN.md §13).
//
// Runs a fleet of heterogeneous device lifetimes — per-device
// architecture, resilience policy, workload cohort, initial charge and
// seed all derived from the global device index — over a work-stealing
// pool, with shared cohort benchmarks and a shared calibration cache.
// The JSON artifact is deterministic: byte-identical across thread
// counts, simulator engine tiers, and shard splits (K shard artifacts
// merged by tools/merge_fleet.py reproduce the unsharded bytes).
//
// Usage:
//   ulpmc-fleet --timeline FILE [options]    (ulpmc-fleet --help lists them)
//
// --devices is the GLOBAL fleet size across all shards; --shard K/N runs
// the devices with gdi % N == K. --journal FILE appends one durable frame
// per finished device; --resume FILE replays FILE's intact frames, then
// continues journaling to it (missing file: fresh run). The journal binds
// to the run's options and timeline bytes; a mismatch is a usage error,
// never a silent partial replay. --heartbeat S appends a liveness frame to
// the journal every S seconds so a farm supervisor can tell "slow device"
// from "hung worker".
//
// SIGTERM/SIGINT preempt gracefully: in-flight devices finish and their
// frames reach the journal, then the run exits 3 without writing the
// (incomplete) artifacts — a later --resume continues where durable
// progress ends.
//
// Exit codes: 0 success, 2 bad usage (malformed, duplicate or
// inconsistent options, unreadable or corrupt timeline/journal),
// 3 preempted by SIGTERM/SIGINT (journal flushed, artifacts unwritten).
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstring>
#include <iostream>
#include <limits>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/atomic_file.hpp"
#include "common/cli.hpp"
#include "common/journal.hpp"
#include "common/serial.hpp"
#include "fleet/fleet.hpp"
#include "fleet/report.hpp"
#include "fleet/store.hpp"
#include "scenario/timeline.hpp"

namespace {

using ulpmc::fleet::kFleetHeartbeatFrame;
using ulpmc::fleet::kFleetMetaFrame;
using ulpmc::fleet::kFleetRecordFrame;

/// Set by the SIGTERM/SIGINT handler; the device hooks poll it and throw
/// Preempted so the pool drains in-flight work and the run exits 3.
volatile std::sig_atomic_t g_preempt = 0;

struct Preempted {};

void on_preempt_signal(int) { g_preempt = 1; }

/// Everything a journaled record depends on besides the timeline bytes.
/// `threads` and `engine` are deliberately absent: results are thread-
/// count- and tier-independent, so a resume may use a different worker
/// count or engine tier than the run it continues.
std::vector<std::uint8_t> meta_payload(const ulpmc::fleet::FleetOptions& opt) {
    std::vector<std::uint8_t> m;
    ulpmc::put_raw(m, opt.seed);
    ulpmc::put_raw(m, opt.devices);
    ulpmc::put_raw(m, static_cast<std::uint32_t>(opt.cohorts));
    ulpmc::put_raw(m, static_cast<std::uint32_t>(opt.shard_k));
    ulpmc::put_raw(m, static_cast<std::uint32_t>(opt.shard_n));
    ulpmc::put_f64(m, opt.days);
    ulpmc::put_f64(m, opt.baseline_fraction);
    return m;
}

} // namespace

int main(int argc, char** argv) {
    std::string timeline_path, json_path, store_path, journal_path, resume_path;
    double heartbeat_s = 0;
    ulpmc::fleet::FleetOptions opt;
    constexpr double kInf = std::numeric_limits<double>::infinity();

    ulpmc::Cli cli("ulpmc-fleet", "--timeline FILE [options]");
    cli.text("--timeline", "FILE", "phase script (required)", timeline_path)
        .integer("--devices", "N", "GLOBAL fleet size across all shards (default 1000)",
                 opt.devices, 1, ~0ull)
        .seed(opt.seed)
        .integer("--cohorts", "N", "workload cohorts / patients (default 8)", opt.cohorts, 1,
                 4096)
        .real("--days", "D", "per-device lifetime in days (default: one pass)", opt.days, 0, kInf,
              true)
        .real("--baseline", "F", "fraction of devices on the baseline policy (default 0.25)",
              opt.baseline_fraction, 0, 1);
    ulpmc::cluster::add_engine_flag(cli, opt.engine);
    cli.threads(opt.threads)
        .shard(opt.shard_k, opt.shard_n)
        .json(json_path)
        .text("--store", "FILE", "write the per-device binary record store to FILE", store_path)
        .text("--journal", "FILE", "append one durable frame per finished device to FILE",
              journal_path)
        .text("--resume", "FILE", "replay FILE's intact frames, then keep journaling to it",
              resume_path)
        .real("--heartbeat", "S", "journal a liveness frame every S seconds", heartbeat_s, 0,
              kInf, true);
    cli.parse(argc, argv);
    if (timeline_path.empty()) {
        std::cerr << "--timeline is required\n" << cli.usage();
        return 2;
    }
    if (cli.given("--journal") && cli.given("--resume")) {
        std::cerr << "--journal and --resume are mutually exclusive "
                     "(--resume already journals to its file)\n";
        return 2;
    }
    const bool resume = cli.given("--resume");
    if (resume) journal_path = resume_path;
    if (heartbeat_s > 0 && journal_path.empty()) {
        std::cerr << "--heartbeat requires --journal or --resume "
                     "(heartbeats are journal frames)\n";
        return 2;
    }

    ulpmc::scenario::Timeline tl;
    try {
        tl = ulpmc::scenario::load_timeline(timeline_path);
    } catch (const ulpmc::scenario::TimelineError& e) {
        std::cerr << timeline_path << ": " << e.what() << "\n";
        return 2;
    }

    // ---- durable progress journal (DESIGN.md §9.6) ---------------------
    std::unique_ptr<ulpmc::JournalWriter> journal;
    std::unordered_map<std::uint64_t, ulpmc::fleet::DeviceRecord> replay;
    if (!journal_path.empty()) {
        const auto adopt = [&](std::size_t f, const ulpmc::JournalFrame& fr) {
            // A heartbeat carries no replay state; any other kind but a
            // record is unknown to this binary.
            if (fr.kind != kFleetRecordFrame) return fr.kind == kFleetHeartbeatFrame;
            ulpmc::fleet::DeviceRecord r;
            if (fr.payload.size() != sizeof(r))
                throw ulpmc::JournalError(
                    journal_path + ": frame " + std::to_string(f) + ": record payload is " +
                    std::to_string(fr.payload.size()) + " bytes, expected " +
                    std::to_string(sizeof(r)) + "; refusing to resume");
            std::memcpy(&r, fr.payload.data(), sizeof(r));
            if (r.gdi >= opt.devices || r.gdi % opt.shard_n != opt.shard_k)
                throw ulpmc::JournalError(journal_path + ": journaled device " +
                                          std::to_string(r.gdi) +
                                          " is outside this shard; refusing to resume");
            replay[r.gdi] = r;
            return true;
        };
        try {
            ulpmc::RunJournal rj = ulpmc::open_run_journal(
                journal_path, resume, timeline_path, kFleetMetaFrame, meta_payload(opt), adopt,
                std::cerr);
            if (rj.resumed)
                std::cerr << "note: resuming with " << replay.size() << " journaled device(s)\n";
            journal = std::move(rj.writer);
        } catch (const ulpmc::JournalError& e) {
            std::cerr << e.what() << "\n";
            return 2;
        }
    }

    // ---- graceful preemption + heartbeat -------------------------------
    // The journal mutex serializes device-record appends (completion
    // hook, any worker thread) against heartbeat appends (its own thread):
    // JournalWriter is not concurrency-safe and interleaved fwrites would
    // tear frames.
    std::signal(SIGTERM, on_preempt_signal);
    std::signal(SIGINT, on_preempt_signal);
    std::mutex journal_m;
    std::atomic<std::uint64_t> completed{replay.size()};
    std::atomic<bool> hb_stop{false};
    std::condition_variable hb_cv;
    std::mutex hb_m;
    std::thread hb;
    if (journal && heartbeat_s > 0) {
        hb = std::thread([&] {
            std::uint64_t seq = 0;
            std::unique_lock<std::mutex> lk(hb_m);
            while (!hb_stop.load()) {
                hb_cv.wait_for(lk, std::chrono::duration<double>(heartbeat_s));
                if (hb_stop.load()) break;
                std::vector<std::uint8_t> p;
                p.reserve(16); // [u64 seq][u64 completed]
                ulpmc::put_raw(p, seq++);
                ulpmc::put_raw(p, completed.load());
                std::lock_guard<std::mutex> jl(journal_m);
                try {
                    journal->append(kFleetHeartbeatFrame, p);
                } catch (const ulpmc::JournalError&) {
                    break; // record appends will surface the same failure
                }
            }
        });
    }
    auto stop_heartbeat = [&] {
        hb_stop.store(true);
        hb_cv.notify_all();
        if (hb.joinable()) hb.join();
    };

    ulpmc::fleet::FleetEngine engine(tl, opt);
    ulpmc::fleet::FleetResume hooks;
    hooks.lookup = [&](std::uint64_t gdi, ulpmc::fleet::DeviceRecord& out) {
        if (g_preempt) throw Preempted{};
        const auto it = replay.find(gdi);
        if (it == replay.end()) return false;
        out = it->second;
        return true;
    };
    if (journal) {
        hooks.on_complete = [&](const ulpmc::fleet::DeviceRecord& r) {
            std::vector<std::uint8_t> p(sizeof(r));
            std::memcpy(p.data(), &r, sizeof(r));
            {
                std::lock_guard<std::mutex> jl(journal_m);
                journal->append(kFleetRecordFrame, p);
            }
            completed.fetch_add(1);
        };
    }
    ulpmc::fleet::FleetResult res;
    try {
        res = engine.run(hooks);
    } catch (const Preempted&) {
        // In-flight devices finished and journaled before the pool
        // drained; everything else resumes from the journal next run.
        stop_heartbeat();
        if (journal)
            std::cerr << "preempted: " << completed.load()
                      << " device(s) journaled; resume to continue\n";
        else
            std::cerr << "preempted (no journal: progress not retained)\n";
        return 3;
    } catch (...) {
        stop_heartbeat();
        throw;
    }
    stop_heartbeat();
    ulpmc::fleet::print_summary(std::cout, opt, res);

    if (!store_path.empty()) {
        ulpmc::fleet::StoreHeader hdr;
        hdr.cohorts = opt.cohorts;
        hdr.seed = opt.seed;
        hdr.devices = opt.devices;
        hdr.shard_k = opt.shard_k;
        hdr.shard_n = opt.shard_n;
        try {
            ulpmc::fleet::write_store(store_path, hdr, res.records);
        } catch (const ulpmc::fleet::FleetStoreError& e) {
            std::cerr << e.what() << "\n";
            return 1;
        }
    }

    if (!json_path.empty()) {
        std::string name = timeline_path;
        if (const auto slash = name.find_last_of('/'); slash != std::string::npos)
            name = name.substr(slash + 1);
        if (json_path == "-") {
            ulpmc::fleet::write_json(std::cout, name, opt, tl.block_period_s, res.aggregate,
                                     res.records.size());
        } else {
            // Rendered in memory, published via fsync+rename: a killed run
            // never leaves a truncated artifact for a CI gate to misread.
            std::ostringstream out;
            ulpmc::fleet::write_json(out, name, opt, tl.block_period_s, res.aggregate,
                                     res.records.size());
            try {
                ulpmc::write_file_atomic(json_path, out.str());
            } catch (const ulpmc::AtomicFileError& e) {
                std::cerr << e.what() << "\n";
                return 2;
            }
        }
    }
    return 0;
}
