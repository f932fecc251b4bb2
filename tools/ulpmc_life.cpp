// ulpmc-life: device lifetime scenario driver (DESIGN.md §12).
//
// Walks a scripted timeline (scenario/timeline.hpp) with the lifetime
// engine and reports what the device lived through: per-phase energy by
// subsystem, samples delivered/degraded/lost, SDC count and the battery
// trace. One timeline plus one seed fully determines the run — the JSON
// is byte-identical across simulator engine tiers and thread counts.
//
// Usage:
//   ulpmc-life --timeline FILE [options]     (ulpmc-life --help lists them)
//
// --journal FILE appends one durable frame per simulated chunk. --resume
// FILE replays FILE's intact frames (restarting each policy from its last
// journaled chunk boundary), then continues journaling to it (missing
// file: fresh run). The journal binds to the run's options and timeline
// bytes; a mismatch is a usage error.
//
// SIGTERM/SIGINT preempt gracefully: the in-flight chunk finishes and its
// frame reaches the journal, then the run exits 3 without writing the
// (incomplete) JSON — a later --resume continues from the journaled
// chunk boundary.
//
// Exit codes: 0 success, 2 bad usage (malformed, duplicate or
// inconsistent options, unreadable or corrupt timeline/journal),
// 3 preempted by SIGTERM/SIGINT (journal flushed, artifacts unwritten).
#include <csignal>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/atomic_file.hpp"
#include "common/cli.hpp"
#include "common/journal.hpp"
#include "common/serial.hpp"
#include "scenario/engine.hpp"
#include "scenario/report.hpp"
#include "scenario/timeline.hpp"
#include "sweep/sweep.hpp"

namespace {

/// Journal frame kinds ("META" / "CHNK" in ASCII).
constexpr std::uint32_t kMetaFrame = 0x4154454Du;
constexpr std::uint32_t kChunkFrame = 0x4B4E4843u;

/// Set by the SIGTERM/SIGINT handler; the chunk hook polls it and throws
/// Preempted so the run stops at a journaled chunk boundary and exits 3.
volatile std::sig_atomic_t g_preempt = 0;

struct Preempted {};

void on_preempt_signal(int) { g_preempt = 1; }

/// Everything a journaled chunk state depends on besides the timeline
/// bytes (`threads` and `engine` deliberately absent: results are thread-
/// count- and tier-independent by construction).
std::vector<std::uint8_t> meta_payload(std::uint64_t seed, double days, bool ladder,
                                       bool baseline) {
    std::vector<std::uint8_t> m;
    ulpmc::put_raw(m, seed);
    ulpmc::put_f64(m, days);
    ulpmc::put_raw(m, static_cast<std::uint8_t>(ladder ? 1 : 0));
    ulpmc::put_raw(m, static_cast<std::uint8_t>(baseline ? 1 : 0));
    return m;
}

} // namespace

int main(int argc, char** argv) {
    using ulpmc::scenario::Policy;

    std::string timeline_path, json_path, journal_path, resume_path;
    std::uint64_t seed = 1;
    unsigned threads = 0;
    double days = 0;
    ulpmc::cluster::SimEngine engine = ulpmc::cluster::SimEngine::Trace;
    bool ladder = true, baseline = true;

    ulpmc::Cli cli("ulpmc-life", "--timeline FILE [options]");
    cli.text("--timeline", "FILE", "phase script (required)", timeline_path).seed(seed);
    ulpmc::cluster::add_engine_flag(cli, engine);
    cli.real("--days", "D", "simulate D days, cycling the script (default: one pass)", days, 0,
             std::numeric_limits<double>::infinity(), true)
        .choice("--policy", "policies to run (default both)", {"ladder", "baseline", "both"},
                [&](std::size_t i) {
                    ladder = i != 1;
                    baseline = i != 0;
                })
        .threads(threads)
        .json(json_path)
        .text("--journal", "FILE", "append one durable frame per simulated chunk to FILE",
              journal_path)
        .text("--resume", "FILE", "replay FILE's intact frames, then keep journaling to it",
              resume_path);
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

    ulpmc::scenario::Timeline tl;
    try {
        tl = ulpmc::scenario::load_timeline(timeline_path);
    } catch (const ulpmc::scenario::TimelineError& e) {
        std::cerr << timeline_path << ": " << e.what() << "\n";
        return 2;
    }

    // ---- durable progress journal (DESIGN.md §9.6) ---------------------
    // One frame per simulated chunk: [u8 policy][engine boundary state].
    // Resume restarts each policy from its LAST intact chunk frame.
    std::unique_ptr<ulpmc::JournalWriter> journal;
    std::vector<std::uint8_t> replay_state[2]; // indexed by Policy
    if (!journal_path.empty()) {
        const auto replay = [&](std::size_t f, const ulpmc::JournalFrame& fr) {
            if (fr.kind != kChunkFrame) return false;
            if (fr.payload.size() < 2 || fr.payload[0] > 1)
                throw ulpmc::JournalError(journal_path + ": frame " + std::to_string(f) +
                                          ": malformed chunk payload; refusing to resume");
            replay_state[fr.payload[0]].assign(fr.payload.begin() + 1, fr.payload.end());
            return true;
        };
        try {
            journal = ulpmc::open_run_journal(journal_path, resume, timeline_path, kMetaFrame,
                                              meta_payload(seed, days, ladder, baseline),
                                              replay, std::cerr)
                          .writer;
        } catch (const ulpmc::JournalError& e) {
            std::cerr << e.what() << "\n";
            return 2;
        }
    }

    std::signal(SIGTERM, on_preempt_signal);
    std::signal(SIGINT, on_preempt_signal);
    ulpmc::sweep::SweepRunner pool(threads);
    std::vector<ulpmc::scenario::LifetimeReport> runs;
    for (const Policy policy : {Policy::Ladder, Policy::Baseline}) {
        if (policy == Policy::Ladder && !ladder) continue;
        if (policy == Policy::Baseline && !baseline) continue;
        ulpmc::scenario::DeviceConfig dc;
        dc.seed = seed;
        dc.engine = engine;
        dc.policy = policy;
        dc.max_days = days;
        ulpmc::scenario::LifetimeEngine eng(tl, dc);
        ulpmc::scenario::LifeResume hooks;
        const auto pol = static_cast<std::uint8_t>(policy);
        if (journal) hooks.state = replay_state[pol];
        // The chunk hook is always set: it is both the journaling point
        // and the graceful-preemption poll (after the in-flight chunk's
        // frame is durable, never before).
        hooks.on_chunk = [&journal, pol](const std::vector<std::uint8_t>& state) {
            if (journal) {
                std::vector<std::uint8_t> p;
                p.reserve(1 + state.size());
                p.push_back(pol);
                p.insert(p.end(), state.begin(), state.end());
                journal->append(kChunkFrame, p);
            }
            if (g_preempt) throw Preempted{};
        };
        try {
            runs.push_back(eng.run(pool, hooks));
        } catch (const Preempted&) {
            if (journal)
                std::cerr << "preempted at a journaled chunk boundary; "
                             "resume to continue\n";
            else
                std::cerr << "preempted (no journal: progress not retained)\n";
            return 3;
        }
        ulpmc::scenario::print_summary(std::cout, runs.back());
        std::cout << "\n";
    }

    if (!json_path.empty()) {
        // The timeline's basename identifies the script in the JSON.
        std::string name = timeline_path;
        if (const auto slash = name.find_last_of('/'); slash != std::string::npos)
            name = name.substr(slash + 1);
        if (json_path == "-") {
            ulpmc::scenario::write_json(std::cout, name, runs);
        } else {
            // Rendered in memory, published via fsync+rename: a killed run
            // never leaves a truncated artifact for a CI gate to misread.
            std::ostringstream out;
            ulpmc::scenario::write_json(out, name, runs);
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
