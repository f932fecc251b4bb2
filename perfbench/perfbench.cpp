// perfbench: the benchmark program (see README.md in this directory).
//
// Runs one named workload against the simulator's public API for a given
// number of seconds, in whole rounds, and prints one JSON line with the
// end-to-end metrics (untraced mode) or the per-layer metrics (traced
// mode), how many operations it attempted and how many failed, and the
// artifact checks that run.py performs with the repository's independent
// Python tools.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1 --dir DIR
//             --root ROOT --fleet-bin PATH --farm-bin PATH
//             [--trace-out FILE] [--small] [--corrupt KIND]
//
// Every round of a run uses inputs derived from (seed, round index) only.
// Spans in traced mode are recorded here, around the calls into each
// module; the program itself is not instrumented.
#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "app/benchmark.hpp"
#include "app/ecg.hpp"
#include "app/streaming.hpp"
#include "cluster/ckpt_store.hpp"
#include "cluster/cluster.hpp"
#include "cluster/config.hpp"
#include "common/journal.hpp"
#include "fault/campaign.hpp"
#include "fault/fault.hpp"
#include "fleet/farm.hpp"
#include "fleet/fleet.hpp"
#include "fleet/report.hpp"
#include "fleet/store.hpp"
#include "scenario/engine.hpp"
#include "scenario/timeline.hpp"
#include "sweep/sweep.hpp"

namespace fs = std::filesystem;
using namespace ulpmc;

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double tv_s(const timeval& tv) { return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6; }

/// User + system CPU seconds of this process.
double cpu_seconds() {
    rusage self{};
    getrusage(RUSAGE_SELF, &self);
    return tv_s(self.ru_utime) + tv_s(self.ru_stime);
}

/// Largest resident set of this process so far.
double peak_rss_mb() {
    rusage self{};
    getrusage(RUSAGE_SELF, &self);
    return static_cast<double>(self.ru_maxrss) / 1024.0;
}

double median(std::vector<double> v) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string json_str(const std::string& s) {
    std::string o = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') o += '\\';
        o += c;
    }
    return o + "\"";
}

std::string json_num(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

// ---- tracing ---------------------------------------------------------------

/// Spans recorded around calls into the simulator's modules: name, start,
/// end and parent, kept in memory and written out when the run ends.
class Tracer {
public:
    struct Span {
        std::string name;
        int parent = -1;
        double t0 = 0, t1 = 0; ///< seconds since the tracer's epoch
    };

    class Scope {
    public:
        Scope(Tracer* t, const std::string& name) : t_(t) {
            if (t_) id_ = t_->open(name);
        }
        ~Scope() {
            if (t_) t_->close(id_);
        }
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

    private:
        Tracer* t_;
        int id_ = -1;
    };

    double duration(int id) const { return spans_[id].t1 - spans_[id].t0; }

    /// Duration minus the time its direct children cover.
    double self_time(int id) const {
        double d = duration(id);
        for (std::size_t i = 0; i < spans_.size(); ++i)
            if (spans_[i].parent == id) d -= duration(static_cast<int>(i));
        return d;
    }

    void write(const std::string& path) const {
        std::ofstream out(path);
        out << "[\n";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            out << "  {\"id\": " << i << ", \"name\": " << json_str(s.name)
                << ", \"parent\": " << s.parent << ", \"start_s\": " << json_num(s.t0)
                << ", \"end_s\": " << json_num(s.t1)
                << ", \"self_s\": " << json_num(self_time(static_cast<int>(i))) << "}"
                << (i + 1 < spans_.size() ? ",\n" : "\n");
        }
        out << "]\n";
    }

private:
    int open(const std::string& name) {
        spans_.push_back({name, stack_.empty() ? -1 : stack_.back(), now(), 0});
        stack_.push_back(static_cast<int>(spans_.size()) - 1);
        return stack_.back();
    }
    void close(int id) {
        spans_[id].t1 = now();
        stack_.pop_back();
    }
    double now() const { return since(epoch_); }

    Clock::time_point epoch_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

// ---- configuration ---------------------------------------------------------

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool small = false;
    std::string dir, root, fleet_bin, farm_bin, trace_out, corrupt;
};

/// Workload sizes (README.md "Workloads" gives the reasons).
struct Config {
    // fleet_calib: timelines/calib.txt (no strikes) -> calibration-bound.
    // 64 devices of one cohort reach nearly every calibration the cohort
    // can need, so the count (and the cost) varies little between seeds.
    std::uint64_t calib_devices = 64;
    unsigned calib_cohorts = 1;
    unsigned calib_threads = 1;
    // fleet_strike: timelines/strike.txt (lambda = 5e-6 phase), 1 cohort,
    // ladder devices.
    std::uint64_t strike_devices = 24;
    unsigned strike_threads = 3;
    std::uint64_t strike_probe_devices = 6;
    // farm: W single-thread workers over a journaled timelines/calib.txt
    // fleet; 4 cohorts on 3 workers, so every shard sees every cohort.
    std::uint64_t farm_devices = 48;
    unsigned farm_cohorts = 4;
    unsigned farm_workers = 3;
    unsigned farm_worker_threads = 1;
    // campaign: ulpmc-bank, trace engine.
    unsigned camp_threads = 2;
    unsigned oneshot_inj = 16;
    unsigned stream_inj = 8;
    unsigned stream_blocks = 2;
    unsigned storage_inj = 4;
    unsigned storage_blocks = 3;
    unsigned ref_sample_every = 4; ///< one-shot injections re-run on the reference tier
    // traced-run probes
    unsigned probe_oneshot_inj = 8;
    unsigned probe_stream_inj = 2;
    unsigned probe_storage_inj = 2;
    unsigned setup_reps = 5; ///< set-up repetitions per round (setup_s is their median)
    unsigned cluster_reps = 5;
    unsigned ckpt_reps = 200;
};

Config make_config(const Args& a) {
    Config c;
    if (a.small) {
        c.calib_devices = 6;
        c.calib_cohorts = 2;
        c.strike_devices = 3;
        c.strike_probe_devices = 1;
        c.farm_devices = 6;
        c.farm_cohorts = 2;
        c.farm_workers = 2;
        c.oneshot_inj = 8;
        c.stream_inj = 2;
        c.storage_inj = 1;
        c.storage_blocks = 2;
        c.probe_oneshot_inj = 4;
        c.probe_stream_inj = 1;
        c.probe_storage_inj = 1;
        c.setup_reps = 1;
        c.cluster_reps = 2;
        c.ckpt_reps = 20;
    }
    return c;
}

/// Operations (devices or injections) one round of a workload attempts.
std::uint64_t round_ops(const std::string& w, const Config& c) {
    if (w == "fleet_calib") return c.calib_devices;
    if (w == "fleet_strike") return c.strike_devices;
    if (w == "farm") return c.farm_devices;
    return c.oneshot_inj + c.stream_inj + c.storage_inj;
}

/// Total host threads a workload's configuration asks for. A farm counts
/// its supervisor as one, so its workers stay within nproc - 1.
unsigned thread_demand(const std::string& w, const Config& c) {
    if (w == "fleet_calib") return c.calib_threads;
    if (w == "fleet_strike") return c.strike_threads;
    if (w == "farm") return c.farm_workers * c.farm_worker_threads + 1;
    return c.camp_threads;
}

// ---- checks ----------------------------------------------------------------

struct Checks {
    std::vector<std::string> failures; ///< one line per failed check
    std::vector<std::string> tool_checks; ///< JSON objects for run.py

    void fail(const std::string& what) { failures.push_back(what); }
};

std::uint64_t timeline_blocks(const scenario::Timeline& tl) {
    // One pass of the timeline, the way the lifetime engine steps it.
    return static_cast<std::uint64_t>(std::llround(tl.total_s() / tl.block_period_s));
}

/// Per-record properties every fleet run must have. Returns the number of
/// records that break one.
std::uint64_t check_records(const std::vector<fleet::DeviceRecord>& recs, std::uint64_t blocks,
                            std::uint64_t expect_devices, Checks& ck) {
    std::uint64_t bad = 0;
    if (recs.size() != expect_devices)
        ck.fail("fleet: " + std::to_string(recs.size()) + " records for " +
                std::to_string(expect_devices) + " devices");
    for (std::size_t i = 0; i < recs.size(); ++i) {
        const fleet::DeviceRecord& r = recs[i];
        std::string why;
        if (i > 0 && r.gdi <= recs[i - 1].gdi) why = "gdi not ascending";
        else if (r.samples_delivered > r.samples_total) why = "delivered > total";
        else if (r.total_blocks != blocks) why = "total_blocks != timeline blocks";
        else if (r.energy_nj == 0) why = "zero energy";
        else if (r.policy == static_cast<std::uint8_t>(scenario::Policy::Ladder) && r.sdc_blocks != 0)
            why = "SDC on a ladder device";
        if (!why.empty()) {
            ++bad;
            ck.fail("device " + std::to_string(r.gdi) + ": " + why);
        }
    }
    return bad;
}

/// A check run.py makes with a Python tool. If it fails, all `devices` of
/// the round fail, of which `counted` already have.
std::string counts_json(std::uint64_t devices, std::uint64_t counted) {
    return ", \"devices\": " + std::to_string(devices) + ", \"counted\": " +
           std::to_string(counted) + "}";
}

std::string tool_check_fleet(const std::string& store, const std::string& json,
                             std::uint64_t devices, std::uint64_t counted) {
    return "{\"tool\": \"read_fleet\", \"store\": " + json_str(store) +
           ", \"json\": " + json_str(json) + counts_json(devices, counted);
}

std::string tool_check_merge(const std::vector<std::string>& shards, const std::string& merged,
                             const std::string& store, std::uint64_t devices,
                             std::uint64_t counted) {
    std::string s = "{\"tool\": \"merge_fleet\", \"shards\": [";
    for (std::size_t i = 0; i < shards.size(); ++i) {
        if (i) s += ", ";
        s += json_str(shards[i]);
    }
    return s + "], \"json\": " + json_str(merged) + ", \"store\": " + json_str(store) +
           counts_json(devices, counted);
}

/// Flips one byte of the last record's energy field: the store still
/// parses, but its totals no longer match the JSON aggregate.
void flip_store_byte(const std::string& path) {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(0, std::ios::end);
    const auto size = static_cast<std::streamoff>(f.tellg());
    const std::streamoff at = size - static_cast<std::streamoff>(sizeof(fleet::DeviceRecord)) + 8;
    char b = 0;
    f.seekg(at);
    f.read(&b, 1);
    b = static_cast<char>(b ^ 0x10);
    f.seekp(at);
    f.write(&b, 1);
}

// ---- rounds ----------------------------------------------------------------

/// Supervision counters of one ulpmc-farm run (its --report file).
struct FarmCounts {
    bool complete = false;
    std::uint64_t restarts = 0, devices_simulated = 0, duplicate_records = 0;
};

struct Round {
    std::vector<double> setup_s; ///< each repetition of the round's set-up
    double sim_s = 0; ///< end of set-up until the artifacts are written
    double device_hours = 0;
    double cpu_s = 0;
    double peak_rss_mb = 0; ///< largest resident set of the round's processes
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    // observations the traced run reports
    fleet::WorkStealingPool::Stats sched{};
    FarmCounts farm{};
    std::size_t calibrations = 0;
    std::uint64_t blocks = 0; ///< device blocks simulated
};

struct Ctx {
    Args a;
    Config c;
    Checks ck;
    Tracer* tr = nullptr;
    /// The workloads' timelines (timelines/*.txt in this directory).
    std::string timeline(const char* name) const { return a.root + "/perfbench/timelines/" + name; }
};

/// Runs a round's set-up `reps` times and returns the time of each.
/// `discard` frees the previous repetition's products first, untimed.
std::vector<double> timed_setups(unsigned reps, const std::function<void()>& discard,
                                 const std::function<void()>& setup) {
    std::vector<double> t;
    for (unsigned i = 0; i < reps; ++i) {
        discard();
        const auto t0 = Clock::now();
        setup();
        t.push_back(since(t0));
    }
    return t;
}

std::string round_path(const Ctx& x, const std::string& stem, unsigned r, const char* ext) {
    return x.a.dir + "/" + stem + "_" + std::to_string(r) + ext;
}

/// fleet_strike runs one shard of a larger fleet: the shard whose
/// architecture mix is closest to the fleet's nominal split (device_spec:
/// 50% ulpmc-bank, 30% ulpmc-int, 20% mc-ref). A struck block's host cost
/// depends on the architecture, so a round of two dozen devices drawn at
/// random swings with how many costly ones the seed happens to draw.
constexpr unsigned kStrikeShards = 16;

unsigned nominal_mix_shard(const fleet::FleetOptions& opt) {
    const double nominal[3] = {0.2, 0.3, 0.5}; // indexed by cluster::ArchKind
    const double n = static_cast<double>(fleet::shard_device_count(opt.devices, 0, opt.shard_n));
    unsigned best = 0;
    double best_dev = 1e300;
    for (unsigned k = 0; k < opt.shard_n; ++k) {
        double count[3] = {0, 0, 0};
        for (std::uint64_t gdi = k; gdi < opt.devices; gdi += opt.shard_n)
            ++count[static_cast<unsigned>(fleet::device_spec(opt, gdi).arch)];
        double dev = 0;
        for (unsigned a = 0; a < 3; ++a) dev += std::abs(count[a] - nominal[a] * n);
        if (dev < best_dev) {
            best_dev = dev;
            best = k;
        }
    }
    return best;
}

Round fleet_round(Ctx& x, bool strike, unsigned r, std::uint64_t seed) {
    const double cpu0 = cpu_seconds();
    Tracer::Scope root(x.tr, strike ? "round.fleet_strike" : "round.fleet_calib");
    Round out;
    scenario::Timeline tl;
    fleet::FleetOptions opt;
    opt.seed = seed;
    if (strike) {
        opt.devices = x.c.strike_devices * kStrikeShards;
        opt.shard_n = kStrikeShards;
        opt.cohorts = 1;
        opt.baseline_fraction = 0;
        opt.threads = x.c.strike_threads;
        opt.shard_k = nominal_mix_shard(opt);
    } else {
        opt.devices = x.c.calib_devices;
        opt.cohorts = x.c.calib_cohorts;
        opt.threads = x.c.calib_threads;
    }
    const char* tl_name = strike ? "strike.txt" : "calib.txt";
    std::unique_ptr<fleet::FleetEngine> eng;
    out.setup_s = timed_setups(x.c.setup_reps, [&] { eng.reset(); }, [&] {
        Tracer::Scope s(x.tr, "setup");
        {
            Tracer::Scope s2(x.tr, "scenario.load_timeline");
            tl = scenario::load_timeline(x.timeline(tl_name));
        }
        Tracer::Scope s3(x.tr, "app.bench_build");
        eng = std::make_unique<fleet::FleetEngine>(tl, opt);
    });
    const auto t1 = Clock::now();
    fleet::FleetResult res;
    {
        Tracer::Scope s(x.tr, "fleet.run");
        res = eng->run();
    }
    const std::string stem = strike ? "strike" : "calib";
    const std::string store = round_path(x, stem, r, ".ulpf");
    const std::string json = round_path(x, stem, r, ".json");
    {
        Tracer::Scope s(x.tr, "fleet.store_write");
        fleet::StoreHeader hdr;
        hdr.cohorts = opt.cohorts;
        hdr.seed = opt.seed;
        hdr.devices = opt.devices;
        hdr.shard_k = opt.shard_k;
        hdr.shard_n = opt.shard_n;
        fleet::write_store(store, hdr, res.records);
    }
    {
        Tracer::Scope s(x.tr, "fleet.json_write");
        std::ofstream f(json);
        fleet::write_json(f, tl_name, opt, tl.block_period_s, res.aggregate, res.records.size());
    }
    out.sim_s = since(t1);
    out.cpu_s = cpu_seconds() - cpu0;
    out.device_hours = res.device_hours;
    const std::uint64_t devices = fleet::shard_device_count(opt.devices, opt.shard_k, opt.shard_n);
    out.attempted = devices;
    out.sched = res.sched;
    out.calibrations = res.calibrations;
    out.blocks = res.aggregate.total.total_blocks;
    out.peak_rss_mb = peak_rss_mb();
    {
        Tracer::Scope s(x.tr, "check");
        if (x.a.corrupt == "record" && r == 0)
            res.records[0].samples_delivered = res.records[0].samples_total + 1;
        out.failed = check_records(res.records, timeline_blocks(tl), devices, x.ck);
        if (x.a.corrupt == "store" && r == 0) flip_store_byte(store);
        x.ck.tool_checks.push_back(tool_check_fleet(store, json, devices, out.failed));
    }
    return out;
}

/// Starts `argv` with its standard output and error appended to `log`.
pid_t spawn(const std::vector<std::string>& argv, const std::string& log) {
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, 1, log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_adddup2(&fa, 1, 2);
    std::vector<char*> args;
    for (const std::string& s : argv) args.push_back(const_cast<char*>(s.c_str()));
    args.push_back(nullptr);
    pid_t pid = 0;
    const int rc = posix_spawn(&pid, args[0], &fa, nullptr, args.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    if (rc != 0) throw std::runtime_error(argv[0] + ": " + std::strerror(rc));
    return pid;
}

/// The unsigned integer after `"key": ` in ulpmc-farm's report.
std::uint64_t report_uint(const std::string& text, const std::string& key) {
    const std::string pat = "\"" + key + "\": ";
    const auto at = text.find(pat);
    if (at == std::string::npos) throw std::runtime_error("farm report: no " + key);
    return std::stoull(text.substr(at + pat.size()));
}

FarmCounts read_farm_report(const std::string& path) {
    std::ifstream f(path);
    std::stringstream ss;
    ss << f.rdbuf();
    const std::string text = ss.str();
    FarmCounts c;
    c.complete = text.find("\"complete\": true") != std::string::npos;
    c.restarts = report_uint(text, "restarts");
    c.devices_simulated = report_uint(text, "devices_simulated");
    c.duplicate_records = report_uint(text, "duplicate_records");
    return c;
}

/// One `ulpmc-farm` run, started as a child of this process. Set-up lasts
/// until every shard journal holds its first frame: fleet::Farm
/// construction, its scratch directory, and each worker's start, timeline
/// load and journal open. (A worker builds its cohort benchmarks after
/// that, in milliseconds; the time to the first device record instead
/// would be mostly that device's calibrations.) CPU time and peak resident
/// set are the farm's own and its reaped workers', from wait4.
Round farm_round(Ctx& x, unsigned r, std::uint64_t seed) {
    Tracer::Scope root(x.tr, "round.farm");
    Round out;
    const std::string dir = x.a.dir + "/farm_" + std::to_string(r);
    if (fs::exists(dir)) throw std::runtime_error(dir + ": scratch directory exists");
    const std::uint64_t devices = x.c.farm_devices;
    const unsigned workers = x.c.farm_workers;
    const std::string json = dir + ".json", store = dir + ".ulpf", report = dir + ".report.json";
    const std::vector<std::string> argv = {
        x.a.farm_bin, "--timeline", x.timeline("calib.txt"), "--fleet-bin", x.a.fleet_bin,
        "--devices", std::to_string(devices), "--seed", std::to_string(seed), "--cohorts",
        std::to_string(x.c.farm_cohorts), "--workers", std::to_string(workers),
        "--worker-threads", std::to_string(x.c.farm_worker_threads), "--dir", dir, "--json",
        json, "--store", store, "--report", report};
    std::vector<fleet::JournalProgress> progress(workers);
    rusage ru{};
    int status = 0;
    bool exited = false;
    pid_t pid = 0;
    auto reap = [&](int flags) {
        const pid_t got = wait4(pid, &status, flags, &ru);
        if (got < 0) throw std::runtime_error(std::string("wait4: ") + std::strerror(errno));
        exited = got == pid;
    };
    const auto t0 = Clock::now();
    {
        Tracer::Scope s(x.tr, "setup");
        pid = spawn(argv, dir + ".log");
        for (bool started = false; !started;) {
            reap(WNOHANG);
            if (exited) break;
            started = true;
            for (unsigned k = 0; k < workers; ++k) {
                fleet::scan_journal(dir + "/shard_" + std::to_string(k) + ".jnl", progress[k]);
                started = started && progress[k].offset > 0;
            }
            if (!started) std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    }
    out.setup_s = {since(t0)};
    const auto t1 = Clock::now();
    {
        Tracer::Scope s(x.tr, "farm.run");
        if (!exited) reap(0);
    }
    out.sim_s = since(t1);
    out.cpu_s = tv_s(ru.ru_utime) + tv_s(ru.ru_stime);
    out.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    out.attempted = devices;
    const scenario::Timeline tl = scenario::load_timeline(x.timeline("calib.txt"));
    out.blocks = devices * timeline_blocks(tl);
    out.device_hours = static_cast<double>(out.blocks) * tl.block_period_s / 3600.0;

    Tracer::Scope s(x.tr, "check");
    std::string why;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) why = "ulpmc-farm did not exit 0";
    else if (!(out.farm = read_farm_report(report)).complete) why = "farm did not complete";
    else if (out.farm.devices_simulated != devices) why = "devices_simulated != devices";
    else if (out.farm.duplicate_records != 0) why = "duplicate records";
    else if (out.farm.restarts != 0) why = "worker restarts on a clean run";
    if (!why.empty()) {
        x.ck.fail("farm round " + std::to_string(r) + ": " + why);
        out.failed = devices;
        return out;
    }
    const fleet::LoadedStore merged = fleet::read_store(store);
    out.failed = check_records(merged.records, timeline_blocks(tl), devices, x.ck);
    if (x.a.corrupt == "merged" && r == 0) {
        std::ofstream f(json, std::ios::app);
        f << " ";
    }
    std::vector<std::string> shards;
    for (unsigned k = 0; k < workers; ++k) shards.push_back(dir + "/shard_" + std::to_string(k) + ".json");
    x.ck.tool_checks.push_back(tool_check_merge(shards, json, store, devices, out.failed));
    return out;
}

struct CampaignSet {
    std::unique_ptr<app::EcgBenchmark> bench;
    std::unique_ptr<app::StreamingBenchmark> stream, dstream;
};

fault::CampaignConfig oneshot_cfg(std::uint64_t seed, unsigned n) {
    fault::CampaignConfig c;
    c.seed = seed;
    c.injections = n;
    c.ecc = true;
    return c;
}

fault::CampaignConfig stream_cfg(std::uint64_t seed, unsigned n) {
    fault::CampaignConfig c = oneshot_cfg(seed, n);
    c.reg_protection = core::RegProtection::Parity;
    c.checkpoint = true;
    return c;
}

fault::StorageCampaignOptions storage_opts() {
    fault::StorageCampaignOptions o;
    o.storage.keyframe_interval = 16;
    o.storage_strikes = true;
    return o;
}

/// Outcome counts must cover every injection; the checkpointed and the
/// CRC-verified storage arms must ship no silent corruption. Returns the
/// injections that break a property.
std::uint64_t check_campaign(const char* name, const fault::CampaignResult& r, unsigned n,
                             bool zero_sdc, Checks& ck) {
    std::uint64_t sum = 0;
    for (unsigned o = 0; o < fault::kOutcomeCount; ++o) sum += r.counts[o];
    if (sum != n || r.runs.size() != n) {
        ck.fail(std::string(name) + ": outcome counts sum to " + std::to_string(sum) + " for " +
                std::to_string(n) + " injections");
        return n;
    }
    const unsigned sdc = r.count(fault::Outcome::Sdc);
    if (zero_sdc && sdc != 0) {
        ck.fail(std::string(name) + ": " + std::to_string(sdc) + " SDC injections");
        return sdc;
    }
    return 0;
}

struct CampaignRun {
    fault::CampaignResult oneshot, stream, storage;
    double oneshot_s = 0, stream_s = 0, storage_s = 0;
};

CampaignRun run_campaigns(Ctx& x, const CampaignSet& cs, std::uint64_t seed, unsigned n1,
                          unsigned n2, unsigned n3, sweep::SweepRunner& pool) {
    CampaignRun cr;
    auto t = Clock::now();
    {
        Tracer::Scope s(x.tr, "fault.run_campaign");
        cr.oneshot = fault::run_campaign(*cs.bench, cluster::ArchKind::UlpmcBank,
                                         oneshot_cfg(seed, n1), pool);
    }
    cr.oneshot_s = since(t);
    t = Clock::now();
    {
        Tracer::Scope s(x.tr, "fault.run_streaming_campaign");
        cr.stream = fault::run_streaming_campaign(*cs.stream, cluster::ArchKind::UlpmcBank,
                                                  stream_cfg(seed, n2), pool);
    }
    cr.stream_s = since(t);
    t = Clock::now();
    {
        Tracer::Scope s(x.tr, "fault.run_storage_campaign");
        cr.storage = fault::run_storage_campaign(*cs.dstream, cluster::ArchKind::UlpmcBank,
                                                 stream_cfg(seed, n3), storage_opts(), pool);
    }
    cr.storage_s = since(t);
    return cr;
}

Round campaign_round(Ctx& x, unsigned r, std::uint64_t seed) {
    const double cpu0 = cpu_seconds();
    Tracer::Scope root(x.tr, "round.campaign");
    Round out;
    CampaignSet cs;
    std::unique_ptr<sweep::SweepRunner> pool;
    const auto discard = [&] {
        cs = CampaignSet{};
        pool.reset();
    };
    out.setup_s = timed_setups(x.c.setup_reps, discard, [&] {
        Tracer::Scope s(x.tr, "setup");
        {
            Tracer::Scope s2(x.tr, "app.bench_build");
            const app::BenchmarkOptions bo{.seed = seed, .use_barrier = true};
            cs.bench = std::make_unique<app::EcgBenchmark>(app::BenchmarkOptions{.seed = seed});
            cs.stream = std::make_unique<app::StreamingBenchmark>(bo, x.c.stream_blocks);
            cs.dstream = std::make_unique<app::StreamingBenchmark>(bo, x.c.storage_blocks);
        }
        pool = std::make_unique<sweep::SweepRunner>(x.c.camp_threads);
    });
    const auto t1 = Clock::now();
    CampaignRun cr = run_campaigns(x, cs, seed, x.c.oneshot_inj, x.c.stream_inj,
                                   x.c.storage_inj, *pool);
    out.sim_s = since(t1);
    out.cpu_s = cpu_seconds() - cpu0;
    out.peak_rss_mb = peak_rss_mb();
    const unsigned n1 = x.c.oneshot_inj, n2 = x.c.stream_inj, n3 = x.c.storage_inj;
    out.attempted = n1 + n2 + n3;
    // Simulated device time: each injection runs its benchmark's blocks of
    // ECG input (kEcgBlockSamples per lead at kEcgSampleRateHz).
    const double block_s = static_cast<double>(app::kEcgBlockSamples) / app::kEcgSampleRateHz;
    out.device_hours = block_s *
                       (n1 + static_cast<double>(n2) * x.c.stream_blocks +
                        static_cast<double>(n3) * x.c.storage_blocks) /
                       3600.0;

    Tracer::Scope s(x.tr, "check");
    if (x.a.corrupt == "outcome" && r == 0) {
        ++cr.oneshot.counts[static_cast<unsigned>(fault::Outcome::Masked)];
    }
    out.failed += check_campaign("oneshot", cr.oneshot, n1, false, x.ck);
    out.failed += check_campaign("streaming+ckpt", cr.stream, n2, true, x.ck);
    out.failed += check_campaign("storage delta+crc", cr.storage, n3, true, x.ck);
    // A fixed sample of one-shot injections (every ref_sample_every-th,
    // from index 0) re-run on the reference tier must classify identically.
    fault::CampaignConfig ref = oneshot_cfg(seed, n1);
    ref.engine = cluster::SimEngine::Reference;
    ref.shard_count = x.c.ref_sample_every;
    ref.shard_index = 0;
    const fault::CampaignResult rr =
        fault::run_campaign(*cs.bench, cluster::ArchKind::UlpmcBank, ref, *pool);
    for (std::size_t j = 0; j < rr.runs.size(); ++j) {
        const std::size_t g = j * x.c.ref_sample_every;
        fault::Outcome got = cr.oneshot.runs.size() > g ? cr.oneshot.runs[g].outcome
                                                        : fault::Outcome::Masked;
        if (x.a.corrupt == "sample" && r == 0 && j == 0)
            got = got == fault::Outcome::Sdc ? fault::Outcome::Masked : fault::Outcome::Sdc;
        if (cr.oneshot.runs.size() <= g || got != rr.runs[j].outcome ||
            cr.oneshot.runs[g].trap != rr.runs[j].trap) {
            ++out.failed;
            x.ck.fail("injection " + std::to_string(g) + ": reference tier classifies it " +
                      fault::outcome_name(rr.runs[j].outcome) + ", trace tier " +
                      fault::outcome_name(got));
        }
    }
    return out;
}

/// Round `r` of a run (its artifact names) on inputs from `seed`.
Round run_round(Ctx& x, unsigned r, std::uint64_t seed) {
    const std::string& w = x.a.workload;
    if (w == "fleet_calib") return fleet_round(x, false, r, seed);
    if (w == "fleet_strike") return fleet_round(x, true, r, seed);
    if (w == "farm") return farm_round(x, r, seed);
    return campaign_round(x, r, seed);
}

// ---- output ----------------------------------------------------------------

struct Metric {
    std::string name, unit;
    double value;
};

void print_result(const Ctx& x, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
    for (const std::string& f : x.ck.failures) std::cerr << "check failed: " << f << "\n";
    std::ostringstream o;
    o << "{\"correct\": " << (x.ck.failures.empty() ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i)
        o << (i ? ", " : "") << json_str(metrics[i].name) << ": {\"value\": "
          << json_num(metrics[i].value) << ", \"unit\": " << json_str(metrics[i].unit) << "}";
    o << "}, \"checks\": [";
    for (std::size_t i = 0; i < x.ck.tool_checks.size(); ++i)
        o << (i ? ", " : "") << x.ck.tool_checks[i];
    o << "]}";
    std::cout << o.str() << std::endl;
}

// ---- untraced run ------------------------------------------------------------

int run_untraced(Ctx& x) {
    std::vector<Round> rounds;
    const auto t0 = Clock::now();
    do {
        const auto r = static_cast<unsigned>(rounds.size());
        try {
            rounds.push_back(run_round(x, r, fault::mix_seed(x.a.seed, r)));
        } catch (const std::exception& e) {
            // A round that throws fails all its operations; the run goes on.
            x.ck.fail("round " + std::to_string(r) + ": " + e.what());
            Round lost;
            lost.attempted = lost.failed = round_ops(x.a.workload, x.c);
            rounds.push_back(lost);
            continue;
        }
        const Round& d = rounds.back();
        std::cerr << "round " << r << ": setup " << median(d.setup_s) << " s, simulate "
                  << d.sim_s << " s, cpu " << d.cpu_s << " s, " << d.calibrations
                  << " calibrations\n";
    } while (since(t0) < x.a.seconds);
    // Throughput over every round of the run (device-hours over simulate
    // seconds, summed): the host's speed swings by 20-50% from one round to
    // the next, and a run-long sum averages those swings where a median of
    // a few long rounds does not. Set-up and CPU time are medians.
    std::uint64_t attempted = 0, failed = 0;
    std::vector<double> setups, cpu;
    double peak_mb = 0, device_hours = 0, sim_s = 0;
    for (const Round& r : rounds) {
        attempted += r.attempted;
        failed += r.failed;
        peak_mb = std::max(peak_mb, r.peak_rss_mb);
        if (r.sim_s <= 0) continue; // a round that threw
        device_hours += r.device_hours;
        sim_s += r.sim_s;
        cpu.push_back(r.cpu_s);
        setups.insert(setups.end(), r.setup_s.begin(), r.setup_s.end());
    }
    std::cerr << x.a.workload << ": " << rounds.size() << " rounds in " << since(t0)
              << " s; the benchmark program's own peak resident set " << peak_rss_mb() << " MB\n";
    print_result(x, attempted, failed,
                 {{"setup_s", "s", median(setups)},
                  {"device_hours_per_s", "h/s", sim_s > 0 ? device_hours / sim_s : 0},
                  {"cpu_s", "s", median(cpu)},
                  {"peak_rss_mb", "MB", peak_mb}});
    return 0;
}

// ---- traced run: layer probes ----------------------------------------------

struct Layers {
    std::vector<Metric> m;
    void add(const std::string& name, const char* unit, double v) { m.push_back({name, unit, v}); }
    double get(const std::string& name) const {
        for (const Metric& x : m)
            if (x.name == name) return x.value;
        throw std::logic_error("no layer metric " + name);
    }
};

/// Seconds per call of `fn`, the median of `reps` timed calls.
double time_median(unsigned reps, const std::function<void()>& fn) {
    std::vector<double> t;
    for (unsigned i = 0; i < reps; ++i) {
        const auto t0 = Clock::now();
        fn();
        t.push_back(since(t0));
    }
    return median(t);
}

void probe_cluster(Ctx& x, Layers& L) {
    Tracer::Scope root(x.tr, "probe.cluster");
    const app::EcgBenchmark bench(app::BenchmarkOptions{.seed = x.a.seed});
    const mmu::DmLayout layout = bench.layout().dm_layout();
    struct Variant {
        std::string name;
        cluster::ClusterConfig cfg;
        bool counts;
    };
    std::vector<Variant> vs;
    for (const auto k : {cluster::ArchKind::McRef, cluster::ArchKind::UlpmcInt,
                         cluster::ArchKind::UlpmcBank})
        vs.push_back({cluster::arch_name(k), cluster::make_config(k, layout), true});
    // The protection tiers the campaign (ecc) and the lifetime ladder
    // (ladder floor, TightProtect rung: 4 cores) configure.
    cluster::ClusterConfig ecc = cluster::make_config(cluster::ArchKind::UlpmcBank, layout);
    ecc.ecc_enabled = true;
    cluster::ClusterConfig ladder = ecc;
    ladder.im_scrub = true;
    ladder.reg_protection = core::RegProtection::Parity;
    ladder.watchdog_cycles = 20'000;
    cluster::ClusterConfig tight = ladder;
    tight.cores = kNumCores / 2;
    tight.reg_protection = core::RegProtection::Tmr;
    tight.dm_scrub = true;
    tight.xbar_self_check = true;
    vs.push_back({"ecc", ecc, false});
    vs.push_back({"ladder", ladder, false});
    vs.push_back({"tight", tight, false});

    std::map<std::string, cluster::ClusterStats> stats;
    for (const Variant& v : vs) {
        Tracer::Scope s(x.tr, "cluster.run." + v.name);
        app::EcgBenchmark::Outcome o = bench.run(v.cfg); // warms the pooled cluster
        if (!o.verified) x.ck.fail("cluster " + v.name + ": outputs differ from the golden C++ pipeline");
        const double t = time_median(x.c.cluster_reps, [&] { o = bench.run(v.cfg); });
        L.add("cluster.ns_per_cycle." + v.name, "ns", t * 1e9 / static_cast<double>(o.stats.cycles));
        if (v.counts) stats[v.name] = o.stats;
    }
    for (const auto& [arch, st] : stats) {
        std::uint64_t stall = 0;
        for (const auto& c : st.core) stall += c.stall_cycles;
        L.add("cluster.cycles." + arch, "count", static_cast<double>(st.cycles));
        L.add("cluster.stall_cycles." + arch, "count", static_cast<double>(stall));
        L.add("cluster.im_bank_accesses." + arch, "count", static_cast<double>(st.im_bank_accesses));
        L.add("xbar.i_broadcast_riders." + arch, "count", static_cast<double>(st.ixbar.broadcast_riders));
        L.add("xbar.i_grants." + arch, "count", static_cast<double>(st.ixbar.grants));
        L.add("xbar.d_conflict_cycles." + arch, "count", static_cast<double>(st.dxbar.conflict_cycles));
    }
    // The paper's direction (§IV-C2): broadcast cuts IM bank activations to
    // about an eighth at a small cycle cost.
    const auto& ref = stats.at("mc-ref");
    const auto& bank = stats.at("ulpmc-bank");
    if (bank.im_bank_accesses > 0.15 * static_cast<double>(ref.im_bank_accesses))
        x.ck.fail("ulpmc-bank IM bank accesses exceed 15% of mc-ref's");
    const double dc = static_cast<double>(bank.cycles) / static_cast<double>(ref.cycles) - 1.0;
    if (dc < 0 || dc > 0.06) x.ck.fail("ulpmc-bank cycles not within 0..+6% of mc-ref's");

    // Checkpoint state: save/restore and delta storage on a cluster stopped
    // half-way through the benchmark.
    Tracer::Scope s(x.tr, "cluster.checkpoint");
    cluster::ClusterConfig cfg = ecc;
    cfg.barrier_enabled = bench.layout().use_barrier;
    cluster::Cluster cl(cfg, bench.image());
    bench.load_inputs(cl, cfg.cores);
    while (cl.stats().cycles < bank.cycles / 2 && cl.step()) {
    }
    cluster::Cluster::Snapshot snap, back;
    L.add("cluster.save_us", "us", 1e6 * time_median(x.c.ckpt_reps, [&] { cl.save(snap); }));
    L.add("cluster.restore_us", "us", 1e6 * time_median(x.c.ckpt_reps, [&] { cl.restore(snap); }));
    if (!cl.state_equals(snap)) x.ck.fail("Cluster::restore does not reproduce the saved state");
    cluster::CheckpointStorage store;
    store.reset(cluster::CkptStorageConfig{});
    L.add("cluster.ckpt_store_us", "us", 1e6 * time_median(x.c.ckpt_reps, [&] { store.store(snap); }));
    bool loaded = true;
    L.add("cluster.ckpt_load_us", "us",
          1e6 * time_median(x.c.ckpt_reps, [&] { loaded = store.load(back) && loaded; }));
    cl.restore(back);
    if (!loaded || !cl.state_equals(snap))
        x.ck.fail("CheckpointStorage::load does not reproduce the stored snapshot");
}

bool same_records(const std::vector<fleet::DeviceRecord>& a, const std::vector<fleet::DeviceRecord>& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(fleet::DeviceRecord)) == 0;
}

void probe_calibration(Ctx& x, Layers& L) {
    Tracer::Scope root(x.tr, "probe.fleet_calib");
    const scenario::Timeline tl = scenario::load_timeline(x.timeline("calib.txt"));
    fleet::FleetOptions opt;
    opt.seed = fault::mix_seed(x.a.seed, 0);
    opt.devices = x.c.calib_devices;
    opt.cohorts = x.c.calib_cohorts;
    opt.threads = 1;
    auto t = Clock::now();
    std::unique_ptr<fleet::FleetEngine> eng;
    {
        Tracer::Scope s(x.tr, "app.bench_build");
        eng = std::make_unique<fleet::FleetEngine>(tl, opt);
    }
    L.add("app.bench_build_s", "s", since(t));
    fleet::FleetResult cold, warm;
    {
        Tracer::Scope s(x.tr, "fleet.run.cold");
        cold = eng->run();
    }
    {
        Tracer::Scope s(x.tr, "fleet.run.warm");
        warm = eng->run();
    }
    if (!same_records(cold.records, warm.records))
        x.ck.fail("fleet_calib: warm pass records differ from the cold pass");
    const double cal_s = cold.wall_s - warm.wall_s;
    L.add("scenario.calibrations", "count", static_cast<double>(cold.calibrations));
    L.add("scenario.calibration_s", "s", cal_s);
    L.add("scenario.calibration_ms_each", "ms",
          1e3 * cal_s / static_cast<double>(std::max<std::size_t>(1, cold.calibrations)));

    Tracer::Scope s(x.tr, "fleet.aggregate_and_write");
    t = Clock::now();
    fleet::FleetAggregate agg;
    for (const auto& r : warm.records) agg.add(r);
    std::ostringstream js;
    fleet::write_json(js, "calib.txt", opt, tl.block_period_s, agg, warm.records.size());
    L.add("fleet.aggregate_ms", "ms", 1e3 * since(t));
    t = Clock::now();
    fleet::StoreHeader hdr;
    hdr.cohorts = opt.cohorts;
    hdr.seed = opt.seed;
    hdr.devices = opt.devices;
    fleet::write_store(x.a.dir + "/probe_calib.ulpf", hdr, warm.records);
    L.add("fleet.store_write_ms", "ms", 1e3 * since(t));
}

scenario::DeviceConfig device_config(const fleet::FleetOptions& opt, const fleet::DeviceSpec& spec) {
    scenario::DeviceConfig dc;
    dc.arch = spec.arch;
    dc.engine = opt.engine;
    dc.seed = spec.seed;
    dc.policy = spec.policy;
    dc.max_days = opt.days;
    dc.thresholds = opt.thresholds;
    dc.battery.initial_fraction = spec.initial_charge;
    return dc;
}

/// The cohort benchmark seed FleetEngine derives (fleet.cpp's workload
/// stream); the struck-block probe checks its records against the fleet's,
/// so a drift here fails the run instead of measuring other devices.
constexpr std::uint64_t kCohortStream = 0xF1EE7C00'00000000ull;

void probe_strike(Ctx& x, Layers& L) {
    Tracer::Scope root(x.tr, "probe.fleet_strike");
    const scenario::Timeline tl = scenario::load_timeline(x.timeline("strike.txt"));
    scenario::Timeline tl0 = tl;
    for (auto& p : tl0.phases) p.lambda = 0;
    fleet::FleetOptions opt;
    opt.seed = fault::mix_seed(x.a.seed, 0);
    opt.devices = x.c.strike_probe_devices;
    opt.cohorts = 1;
    opt.baseline_fraction = 0;
    opt.threads = 1;
    fleet::FleetEngine eng(tl, opt), eng0(tl0, opt);
    fleet::FleetResult warm, warm0;
    {
        Tracer::Scope s(x.tr, "fleet.run.cold");
        eng.run();
    }
    {
        Tracer::Scope s(x.tr, "fleet.run.warm");
        warm = eng.run();
    }
    {
        Tracer::Scope s(x.tr, "fleet.run.lambda0.cold");
        eng0.run();
    }
    {
        Tracer::Scope s(x.tr, "fleet.run.lambda0.warm");
        warm0 = eng0.run();
    }
    // Struck blocks come from the lifetime engine's per-phase report.
    Tracer::Scope s(x.tr, "scenario.lifetime_runs");
    const auto bench = std::make_shared<const app::EcgBenchmark>(
        app::BenchmarkOptions{.seed = fault::mix_seed(opt.seed, kCohortStream)});
    scenario::CalibrationCache cache;
    sweep::SweepRunner runner(1);
    std::uint64_t struck = 0;
    for (std::uint64_t gdi = 0; gdi < opt.devices; ++gdi) {
        const fleet::DeviceSpec spec = fleet::device_spec(opt, gdi);
        scenario::LifetimeEngine le(tl, device_config(opt, spec), bench, &cache);
        const scenario::LifetimeReport rep = le.run(runner);
        for (const auto& p : rep.phases) struck += p.struck_blocks;
        const fleet::DeviceRecord rec = fleet::make_record(spec, rep);
        if (std::memcmp(&rec, &warm.records[gdi], sizeof rec) != 0)
            x.ck.fail("fleet_strike: lifetime engine record differs from the fleet's, device " +
                      std::to_string(gdi));
    }
    const double blocks = static_cast<double>(warm0.aggregate.total.total_blocks);
    L.add("scenario.warm_pass_s", "s", warm.wall_s);
    L.add("scenario.credit_us_per_block", "us", 1e6 * warm0.wall_s / blocks);
    L.add("fault.struck_blocks", "count", static_cast<double>(struck));
    L.add("fault.struck_block_ms", "ms",
          1e3 * (warm.wall_s - warm0.wall_s) / static_cast<double>(std::max<std::uint64_t>(1, struck)));
}

void probe_campaign(Ctx& x, Layers& L) {
    Tracer::Scope root(x.tr, "probe.campaign");
    const std::uint64_t seed = fault::mix_seed(x.a.seed, 0);
    CampaignSet cs;
    const app::BenchmarkOptions bo{.seed = seed, .use_barrier = true};
    cs.bench = std::make_unique<app::EcgBenchmark>(app::BenchmarkOptions{.seed = seed});
    cs.stream = std::make_unique<app::StreamingBenchmark>(bo, x.c.stream_blocks);
    cs.dstream = std::make_unique<app::StreamingBenchmark>(bo, x.c.storage_blocks);
    sweep::SweepRunner pool(1);
    const unsigned n1 = x.c.probe_oneshot_inj, n2 = x.c.probe_stream_inj, n3 = x.c.probe_storage_inj;
    const CampaignRun cr = run_campaigns(x, cs, seed, n1, n2, n3, pool);
    check_campaign("probe oneshot", cr.oneshot, n1, false, x.ck);
    check_campaign("probe streaming+ckpt", cr.stream, n2, true, x.ck);
    check_campaign("probe storage delta+crc", cr.storage, n3, true, x.ck);
    L.add("fault.oneshot_ms_each", "ms", 1e3 * cr.oneshot_s / n1);
    L.add("fault.stream_ms_each", "ms", 1e3 * cr.stream_s / n2);
    L.add("fault.storage_ms_each", "ms", 1e3 * cr.storage_s / n3);
    L.add("fault.injections_per_s", "1/s", (n1 + n2 + n3) / (cr.oneshot_s + cr.stream_s + cr.storage_s));
    L.add("fault.checkpoints", "count", static_cast<double>(cr.stream.checkpoints + cr.storage.checkpoints));
    L.add("fault.reexec_cycles", "count", static_cast<double>(cr.stream.reexec_cycles + cr.storage.reexec_cycles));
    L.add("fault.ckpt_stored_bytes", "count", static_cast<double>(cr.storage.ckpt_stored_bytes));
    L.add("fault.ckpt_crc_failures", "count", static_cast<double>(cr.storage.ckpt_crc_failures));
    L.add("fault.ckpt_fallbacks", "count", static_cast<double>(cr.storage.ckpt_fallbacks));
}

/// The farm's per-worker work, in process: each shard's FleetEngine with
/// its own calibration cache, journaling every record with fsync, then the
/// supervisor's store merge.
void probe_farm_layers(Ctx& x, Layers& L) {
    Tracer::Scope root(x.tr, "probe.farm_layers");
    const std::string tl_path = x.timeline("calib.txt");
    const scenario::Timeline tl = scenario::load_timeline(tl_path);
    fleet::FleetOptions opt;
    opt.seed = fault::mix_seed(x.a.seed, 0);
    opt.devices = x.c.farm_devices;
    opt.cohorts = x.c.farm_cohorts;
    opt.threads = 1;
    opt.shard_n = x.c.farm_workers;
    std::uint64_t calibs = 0, frames = 0, bytes = 0;
    double append_s = 0;
    std::vector<std::string> stores;
    for (unsigned k = 0; k < opt.shard_n; ++k) {
        Tracer::Scope s(x.tr, "fleet.shard_run");
        opt.shard_k = k;
        const std::string jnl = x.a.dir + "/probe_shard_" + std::to_string(k) + ".jnl";
        fleet::FleetResult res;
        {
            JournalWriter journal(jnl);
            journal.append(fleet::kFleetMetaFrame, std::vector<std::uint8_t>(8, 0));
            fleet::FleetResume hooks;
            hooks.on_complete = [&](const fleet::DeviceRecord& r) {
                std::vector<std::uint8_t> p(sizeof r);
                std::memcpy(p.data(), &r, sizeof r);
                const auto t = Clock::now();
                journal.append(fleet::kFleetRecordFrame, p);
                append_s += since(t);
                ++frames;
            };
            fleet::FleetEngine eng(tl, opt);
            res = eng.run(hooks);
        }
        bytes += fs::file_size(jnl);
        calibs += res.calibrations;
        fleet::StoreHeader hdr;
        hdr.cohorts = opt.cohorts;
        hdr.seed = opt.seed;
        hdr.devices = opt.devices;
        hdr.shard_k = k;
        hdr.shard_n = opt.shard_n;
        stores.push_back(x.a.dir + "/probe_shard_" + std::to_string(k) + ".ulpf");
        fleet::write_store(stores.back(), hdr, res.records);
    }
    if (frames != opt.devices) x.ck.fail("journal: frames != devices");
    const auto t = Clock::now();
    fleet::MergedFleet merged;
    {
        Tracer::Scope s(x.tr, "fleet.merge_stores");
        merged = fleet::merge_stores(opt, "calib.txt", tl.block_period_s, stores);
    }
    L.add("farm.merge_ms", "ms", 1e3 * since(t));
    if (merged.records.size() != opt.devices) x.ck.fail("merge_stores: record count != devices");
    L.add("journal.frames", "count", static_cast<double>(frames));
    L.add("journal.bytes", "count", static_cast<double>(bytes));
    L.add("journal.append_ms", "ms", 1e3 * append_s / static_cast<double>(std::max<std::uint64_t>(1, frames)));
    L.add("farm.worker_calibrations", "count", static_cast<double>(calibs));
}

/// The share of an untraced round's simulate time (end of set-up until
/// the artifacts are written) that the probes' per-layer costs, scaled to
/// the round's own counts, leave unexplained. Parallel work is divided by
/// the thread or worker count, so load imbalance lands in the remainder;
/// a negative share means the probes' costs add up to more than the round.
double unaccounted_share(const Ctx& x, const Round& r, const Layers& L) {
    const std::string& w = x.a.workload;
    const double cal_s = L.get("scenario.calibration_ms_each") * 1e-3;
    const double credit_s = L.get("scenario.credit_us_per_block") * 1e-6;
    const double write_s = (L.get("fleet.aggregate_ms") + L.get("fleet.store_write_ms")) * 1e-3;
    const double blocks = static_cast<double>(r.blocks);
    double model = 0;
    if (w == "fleet_calib") {
        model = r.calibrations * cal_s + blocks * credit_s + write_s;
    } else if (w == "fleet_strike") {
        const double struck_per_device = L.get("fault.struck_blocks") / x.c.strike_probe_devices;
        model = (r.calibrations * cal_s + blocks * credit_s +
                 static_cast<double>(r.attempted) * struck_per_device *
                     L.get("fault.struck_block_ms") * 1e-3) /
                    x.c.strike_threads +
                write_s;
    } else if (w == "farm") {
        model = (L.get("farm.worker_calibrations") * cal_s + blocks * credit_s +
                 L.get("journal.frames") * L.get("journal.append_ms") * 1e-3) /
                    x.c.farm_workers +
                L.get("farm.merge_ms") * 1e-3;
    } else {
        model = (x.c.oneshot_inj * L.get("fault.oneshot_ms_each") +
                 x.c.stream_inj * L.get("fault.stream_ms_each") +
                 x.c.storage_inj * L.get("fault.storage_ms_each")) *
                1e-3 / x.c.camp_threads;
    }
    return 1.0 - model / r.sim_s;
}

int run_traced(Ctx& x) {
    Tracer tr;
    Layers L;
    // The named workload, three rounds of the same inputs: one that warms
    // the process up (first-touch pages, pooled clusters), one untraced and
    // one traced; the last two differ by the tracing overhead.
    const std::uint64_t seed = fault::mix_seed(x.a.seed, 0);
    std::vector<Round> rounds;
    rounds.push_back(run_round(x, 0, seed));
    const auto tu = Clock::now();
    rounds.push_back(run_round(x, 1, seed));
    const double untraced_s = since(tu);
    x.tr = &tr;
    const auto tt = Clock::now();
    rounds.push_back(run_round(x, 2, seed));
    const double traced_s = since(tt);
    L.add("trace.round_s", "s", traced_s);
    L.add("trace.overhead_share", "ratio", traced_s / untraced_s - 1.0);
    L.add("fleet.steals", "count", static_cast<double>(rounds[2].sched.steals));
    L.add("fleet.stolen_tasks", "count", static_cast<double>(rounds[2].sched.stolen_tasks));

    // The farm supervision counters come from a farm round (the traced
    // round itself when the workload is farm).
    if (x.a.workload != "farm") rounds.push_back(farm_round(x, 3, fault::mix_seed(x.a.seed, 3)));
    const FarmCounts& farm = rounds.back().farm;
    L.add("farm.restarts", "count", static_cast<double>(farm.restarts));
    L.add("farm.devices_simulated", "count", static_cast<double>(farm.devices_simulated));
    L.add("farm.duplicate_records", "count", static_cast<double>(farm.duplicate_records));

    probe_cluster(x, L);
    probe_calibration(x, L);
    probe_strike(x, L);
    probe_campaign(x, L);
    probe_farm_layers(x, L);
    L.add("trace.unaccounted_share", "ratio", unaccounted_share(x, rounds[1], L));
    if (!x.a.trace_out.empty()) tr.write(x.a.trace_out);

    std::uint64_t attempted = 0, failed = 0;
    for (const Round& r : rounds) {
        attempted += r.attempted;
        failed += r.failed;
    }
    print_result(x, attempted, failed, L.m);
    return 0;
}

bool parse_int(const std::string& s, long long& out) {
    try {
        std::size_t pos = 0;
        out = std::stoll(s, &pos);
        return pos == s.size();
    } catch (...) {
        return false;
    }
}

} // namespace

int main(int argc, char** argv) {
    Ctx x;
    Args& a = x.a;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--small") {
            a.small = true;
            continue;
        }
        if (i + 1 >= argc) {
            std::cerr << arg << ": missing value\n";
            return 2;
        }
        const std::string v = argv[++i];
        long long n = 0;
        const bool num = parse_int(v, n);
        if (arg == "--workload") a.workload = v;
        else if (arg == "--seed" && num && n >= 0) a.seed = static_cast<std::uint64_t>(n);
        else if (arg == "--seconds" && num && n >= 0) a.seconds = static_cast<double>(n);
        else if (arg == "--trace" && num && (n == 0 || n == 1)) a.trace = n == 1;
        else if (arg == "--dir") a.dir = v;
        else if (arg == "--root") a.root = v;
        else if (arg == "--fleet-bin") a.fleet_bin = v;
        else if (arg == "--farm-bin") a.farm_bin = v;
        else if (arg == "--trace-out") a.trace_out = v;
        else if (arg == "--corrupt") a.corrupt = v;
        else {
            std::cerr << arg << " " << v << ": unknown option or bad value\n";
            return 2;
        }
    }
    const std::vector<std::string> known = {"fleet_calib", "fleet_strike", "farm", "campaign"};
    if (std::find(known.begin(), known.end(), a.workload) == known.end()) {
        std::cerr << "--workload: expected one of fleet_calib, fleet_strike, farm, campaign\n";
        return 2;
    }
    if (a.dir.empty() || a.root.empty() || a.fleet_bin.empty() || a.farm_bin.empty()) {
        std::cerr << "--dir, --root, --fleet-bin and --farm-bin are required\n";
        return 2;
    }
    // Run isolation: a fresh scratch directory per run. Journals or stores
    // left by an earlier run would be resumed instead of simulated.
    if (!fs::is_directory(a.dir)) {
        std::cerr << a.dir << ": scratch directory does not exist\n";
        return 2;
    }
    for (const auto& e : fs::recursive_directory_iterator(a.dir)) {
        const std::string ext = e.path().extension().string();
        if (ext == ".jnl" || ext == ".ulpf") {
            std::cerr << a.dir << ": holds journals or stores of an earlier run; refusing\n";
            return 2;
        }
    }
    x.c = make_config(a);
    const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
    const unsigned demand = thread_demand(a.workload, x.c);
    if (demand > nproc) {
        std::cerr << a.workload << ": configuration needs " << demand << " threads, nproc is "
                  << nproc << "; refusing\n";
        return 2;
    }
    try {
        return a.trace ? run_traced(x) : run_untraced(x);
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
}
