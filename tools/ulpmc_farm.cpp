// ulpmc-farm: fault-tolerant fleet farm supervisor (DESIGN.md §13).
//
// Splits a fleet over N shard worker processes (ulpmc-fleet, one per
// shard), watches each worker's journal for heartbeat/progress frames,
// recovers hung or crashed workers (SIGTERM -> SIGKILL on liveness
// timeout, restart with truncated exponential backoff + jitter and
// --resume so no completed device is re-simulated), and merges the shard
// stores in-process into the exact JSON + ULPF artifacts an unsharded
// run would emit. A seeded chaos mode kills/stalls the farm's own
// workers at deterministic progress points to prove all of the above.
//
// Usage:
//   ulpmc-farm --timeline FILE --fleet-bin PATH [options]
//                                            (ulpmc-farm --help lists them)
//
// --chaos kills=K[,stalls=S][,seed=N] SIGKILLs/SIGSTOPs the farm's own
// workers at seeded progress points; --backoff BASE/MAX bounds the restart
// backoff in seconds.
//
// Exit codes: 0 complete (merged artifacts written), 2 bad usage,
// 3 partial failure (a shard died after exhausting its retry budget; the
// summary names it), 1 internal/merge error.
#include <iostream>
#include <limits>
#include <set>
#include <sstream>
#include <string>

#include "common/atomic_file.hpp"
#include "common/cli.hpp"
#include "fleet/farm.hpp"
#include "fleet/store.hpp"

namespace {

/// kills=K[,stalls=S][,seed=N], any order, each key at most once.
bool parse_chaos(const std::string& spec, ulpmc::fleet::FarmOptions& opt) {
    std::set<std::string> keys;
    std::size_t start = 0;
    while (start <= spec.size()) {
        const std::size_t comma = spec.find(',', start);
        const std::string part =
            spec.substr(start, comma == std::string::npos ? spec.size() - start : comma - start);
        start = comma == std::string::npos ? spec.size() + 1 : comma + 1;
        if (part.empty()) return false;
        const std::size_t eq = part.find('=');
        if (eq == std::string::npos) return false;
        const std::string key = part.substr(0, eq);
        if (!keys.insert(key).second) return false;
        std::uint64_t v = 0;
        if (!ulpmc::read_u64(part.substr(eq + 1), 0, key == "seed" ? ~0ull : ~0u, v).empty())
            return false;
        if (key == "kills") {
            opt.chaos_kills = static_cast<unsigned>(v);
        } else if (key == "stalls") {
            opt.chaos_stalls = static_cast<unsigned>(v);
        } else if (key == "seed") {
            opt.chaos_seed = v;
        } else {
            return false;
        }
    }
    return keys.count("kills") > 0;
}

} // namespace

int main(int argc, char** argv) {
    ulpmc::fleet::FarmOptions opt;
    std::string report_path;
    constexpr double kInf = std::numeric_limits<double>::infinity();

    ulpmc::Cli cli("ulpmc-farm", "--timeline FILE --fleet-bin PATH [options]");
    cli.text("--timeline", "FILE", "phase script (required)", opt.timeline_path)
        .text("--fleet-bin", "PATH", "ulpmc-fleet worker binary (required)", opt.fleet_bin)
        .integer("--devices", "N", "GLOBAL fleet size (default 1000)", opt.fleet.devices, 1,
                 ~0ull)
        .seed(opt.fleet.seed)
        .integer("--cohorts", "N", "workload cohorts (default 8)", opt.fleet.cohorts, 1, 4096)
        .real("--days", "D", "per-device lifetime (default: one pass)", opt.fleet.days, 0, kInf,
              true)
        .real("--baseline", "F", "baseline-policy fraction (default 0.25)",
              opt.fleet.baseline_fraction, 0, 1);
    ulpmc::cluster::add_engine_flag(cli, opt.fleet.engine);
    cli.integer("--workers", "N", "shard worker processes (default 4)", opt.workers, 1, 256)
        .integer("--worker-threads", "N", "threads per worker, 0 = hardware (default 0)",
                 opt.worker_threads, 0, 1024)
        .text("--dir", "DIR", "scratch dir for shard_K.{jnl,json,ulpf,log} (default farm)",
              opt.dir)
        .json(opt.json_path)
        .text("--store", "FILE", "merged ULPF store (byte-identical to unsharded)",
              opt.store_path)
        .text("--report", "FILE", "supervision report JSON ('-' = stdout)", report_path)
        .real("--heartbeat", "S", "worker heartbeat period (default 0.5)", opt.heartbeat_s, 0,
              kInf, true)
        .real("--timeout", "S", "no-journal-growth window before SIGTERM (default 10)",
              opt.timeout_s, 0, kInf, true)
        .real("--grace", "S", "SIGTERM -> SIGKILL escalation grace (default 2)",
              opt.term_grace_s, 0, kInf)
        .custom("--backoff", "BASE/MAX", "restart backoff bounds in seconds (default 0.25/8)", 1,
                [&](const std::vector<std::string>& v) {
                    const std::string_view s(v[0]);
                    const auto slash = s.find('/');
                    if (slash == std::string::npos ||
                        !ulpmc::read_f64(s.substr(0, slash), 0, kInf, true, opt.backoff_base_s)
                             .empty() ||
                        !ulpmc::read_f64(s.substr(slash + 1), 0, kInf, true, opt.backoff_max_s)
                             .empty() ||
                        opt.backoff_max_s < opt.backoff_base_s)
                        return std::string("expected BASE/MAX seconds with 0 < BASE <= MAX");
                    return std::string();
                })
        .integer("--retries", "N", "restarts allowed per shard (default 8)", opt.retries, 0,
                 10000)
        .custom("--chaos", "kills=K[,stalls=S][,seed=N]",
                "SIGKILL/SIGSTOP own workers at seeded progress points", 1,
                [&](const std::vector<std::string>& v) {
                    return parse_chaos(v[0], opt)
                               ? std::string()
                               : std::string("expected kills=K[,stalls=S][,seed=N]");
                });
    cli.parse(argc, argv);
    if (opt.timeline_path.empty() || opt.fleet_bin.empty()) {
        std::cerr << "--timeline and --fleet-bin are required\n" << cli.usage();
        return 2;
    }

    try {
        ulpmc::fleet::Farm farm(opt, &std::cerr);
        const ulpmc::fleet::FarmReport rep = farm.run();
        ulpmc::fleet::print_farm_summary(std::cout, opt, rep);
        if (!report_path.empty()) {
            if (report_path == "-") {
                ulpmc::fleet::write_farm_report(std::cout, opt, rep);
            } else {
                std::ostringstream out;
                ulpmc::fleet::write_farm_report(out, opt, rep);
                ulpmc::write_file_atomic(report_path, out.str());
            }
        }
        return rep.complete ? 0 : 3;
    } catch (const ulpmc::fleet::FarmError& e) {
        std::cerr << e.what() << "\n";
        return 2;
    } catch (const ulpmc::fleet::FleetStoreError& e) {
        std::cerr << e.what() << "\n";
        return 1;
    } catch (const ulpmc::AtomicFileError& e) {
        std::cerr << e.what() << "\n";
        return 1;
    }
}
