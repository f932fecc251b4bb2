// Extension: graceful degradation vs a no-resilience baseline over a
// scripted device lifetime (DESIGN.md §12).
//
// The lifetime engine walks one stressed day of a wearable monitor — a
// ward shift on a weak harvester, a high-flux flight segment, a BLE
// drought, a clinical arrhythmia episode and an evening recharge — twice:
// once as the LADDER device (verified blocks, battery-driven degradation,
// lambda-aware derating) and once as the BASELINE device (no protection,
// no verification, no degradation; watchdog only). The claim under test:
// the ladder delivers MORE of the signal (higher delivered-sample
// fraction), lives LONGER on the same battery (later or no brownout) and
// ships ZERO silently-corrupted blocks, where the baseline pays for its
// full-power simplicity with early brownout and SDC under radiation.
//
// The committed artifact bench/BENCH_lifetime.json is gated in CI by
// tools/check_lifetime.py: the ladder's delivered fraction may not drop
// and its SDC count may not rise, and the ladder-beats-baseline
// invariants must hold in every fresh artifact.
//
// Usage: ext_lifetime [options]   (--help lists them)
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "scenario/engine.hpp"
#include "scenario/report.hpp"
#include "scenario/timeline.hpp"
#include "sweep/sweep.hpp"

using namespace ulpmc;

namespace {

/// The default script: one stressed day, sized so the full-power draw
/// outruns the harvester but the degraded draw does not — the regime
/// where a degradation ladder can matter at all.
constexpr const char* kBenchTimeline = R"(# bench-day (built into ext_lifetime)
block_period_s 2.0
battery_j 0.5

phase flight    7200  lambda=4e-7 ble_loss=0.10 harvest_uw=10
phase ward      7200  ble_loss=0.02 harvest_uw=40
phase drought   3600  ble=down harvest_uw=40
phase episode   1800  arrhythmia=1 ble_loss=0.02 harvest_uw=40
phase evening   7200  ble_loss=0.02 harvest_uw=40
phase recharge  3600  ble_loss=0.01 harvest_uw=300
)";

} // namespace

int main(int argc, char** argv) {
    std::uint64_t seed = 42;
    unsigned threads = 0;
    cluster::SimEngine engine = cluster::SimEngine::Trace;
    std::string json_path;
    std::string timeline_path;
    Cli cli("ext_lifetime", "[options]");
    cli.seed(seed).threads(threads);
    cluster::add_engine_flag(cli, engine);
    cli.text("--timeline", "FILE", "phase script (default: the built-in bench day)",
             timeline_path)
        .json(json_path);
    cli.parse(argc, argv);

    scenario::Timeline tl;
    std::string tl_name = "bench-day";
    try {
        if (timeline_path.empty()) {
            std::istringstream in(kBenchTimeline);
            tl = scenario::parse_timeline(in);
        } else {
            tl = scenario::load_timeline(timeline_path);
            tl_name = timeline_path;
            if (const auto slash = tl_name.find_last_of('/'); slash != std::string::npos)
                tl_name = tl_name.substr(slash + 1);
        }
    } catch (const scenario::TimelineError& e) {
        std::cerr << "timeline: " << e.what() << "\n";
        return 2;
    }

    sweep::SweepRunner pool(threads);
    std::vector<scenario::LifetimeReport> runs;
    for (const auto policy : {scenario::Policy::Ladder, scenario::Policy::Baseline}) {
        scenario::DeviceConfig dc;
        dc.seed = seed;
        dc.engine = engine;
        dc.policy = policy;
        scenario::LifetimeEngine eng(tl, dc);
        runs.push_back(eng.run(pool));
        scenario::print_summary(std::cout, runs.back());
        std::cout << "\n";
    }

    const auto& ladder = runs[0];
    const auto& baseline = runs[1];
    std::cout << "ladder vs baseline: delivered " << 100.0 * ladder.delivered_fraction << "% vs "
              << 100.0 * baseline.delivered_fraction << "%, SDC " << ladder.sdc_blocks << " vs "
              << baseline.sdc_blocks << ", first brownout "
              << (ladder.first_brownout_s < 0 ? std::string("never")
                                              : std::to_string(ladder.first_brownout_s) + " s")
              << " vs "
              << (baseline.first_brownout_s < 0 ? std::string("never")
                                                : std::to_string(baseline.first_brownout_s) + " s")
              << "\n";

    if (!json_path.empty()) {
        std::ofstream out(json_path);
        if (!out) {
            std::cerr << json_path << ": cannot open for writing\n";
            return 1;
        }
        scenario::write_json(out, tl_name, runs);
    }
    return 0;
}
