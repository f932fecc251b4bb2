// Extension: memory-organization design space. The paper fixes 16 DM
// banks and 8 IM banks without justifying the numbers; this sweep varies
// both (at constant total capacity) and reports what the paper's own
// metrics — conflict stalls, bank accesses, area — say about the choice.
//
// Energy note: per-access SRAM energy grows with bank size (fewer, larger
// banks), modeled linearly through the same two-point fit as the area
// model; absolute numbers are indicative, the trend is the point.
#include <array>
#include <iostream>
#include <string>

#include "app/benchmark.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "exp/experiments.hpp"
#include "power/area.hpp"
#include "power/calibration.hpp"
#include "sweep/sweep.hpp"

using namespace ulpmc;

namespace {

/// Per-access energy scaling with bank capacity (relative to the paper's
/// geometry): cell-array energy scales ~linearly with the bank's bitline
/// length, i.e. with words per bank.
double dm_access_energy(std::size_t bank_words) {
    const double rel = static_cast<double>(bank_words) / kDmWordsPerBank;
    return power::cal::kDmAccessEnergy * (0.4 + 0.6 * rel);
}

} // namespace

int main(int argc, char** argv) {
    cluster::SimEngine engine = cluster::SimEngine::Trace;
    Cli cli("ext_bank_sweep", "[options]");
    cluster::add_engine_flag(cli, engine);
    cli.parse(argc, argv);

    exp::print_experiment_header("Extension: DM/IM bank-count design space",
                                 "beyond the paper (its Section III choices)");

    const app::EcgBenchmark bench{};
    sweep::SweepRunner pool;

    std::cout << "-- Data-memory banks (64 kB total, ulpmc-bank, benchmark run) --\n";
    Table dm({"DM banks", "bank size", "cycles", "DM conflicts", "bank accesses", "DM area [kGE]",
              "DM energy/op"});
    static constexpr std::array dm_bank_counts = {16u, 32u};
    const auto dm_runs =
        pool.map(std::span<const unsigned>(dm_bank_counts), [&](unsigned banks) {
            auto cfg =
                cluster::make_config(cluster::ArchKind::UlpmcBank, bench.layout().dm_layout());
            cfg.dm_banks = banks;
            cfg.dm_bank_words = kDmWordsTotal / banks;
            cfg.engine = engine;
            return std::make_pair(cfg, bench.run(cfg));
        });
    for (std::size_t i = 0; i < dm_runs.size(); ++i) {
        const unsigned banks = dm_bank_counts[i];
        const auto& [cfg, out] = dm_runs[i];
        if (!out.verified) {
            std::cerr << "verification failed at " << banks << " banks\n";
            return 1;
        }
        const auto& s = out.stats;
        const double area = power::sram_bank_area_kge(cfg.dm_bank_words * 2) * banks;
        const double e_op = dm_access_energy(cfg.dm_bank_words) *
                            static_cast<double>(s.dm_bank_accesses()) /
                            static_cast<double>(s.total_ops());
        dm.add_row({std::to_string(banks), std::to_string(cfg.dm_bank_words * 2 / 1024) + " kB",
                    format_count(s.cycles), format_count(s.dxbar.denied),
                    format_count(s.dm_bank_accesses()), format_fixed(area, 1),
                    format_si(e_op, "J")});
    }
    dm.print(std::cout);
    std::cout << "Paper's choice (16) already makes private traffic conflict-free by\n"
                 "construction; doubling the banks buys little time but costs area.\n\n";

    std::cout << "-- Instruction-memory banks (96 kB total, ulpmc-bank + gating) --\n";
    Table im({"IM banks", "bank size", "cycles", "banks gated", "leakage alive", "IM area [kGE]"});
    static constexpr std::array im_bank_counts = {4u, 8u, 16u, 32u};
    const auto im_runs =
        pool.map(std::span<const unsigned>(im_bank_counts), [&](unsigned banks) {
            auto cfg =
                cluster::make_config(cluster::ArchKind::UlpmcBank, bench.layout().dm_layout());
            cfg.im_banks = banks;
            cfg.im_bank_words = kImWordsTotal / banks;
            cfg.engine = engine;
            return std::make_pair(cfg, bench.run(cfg));
        });
    for (std::size_t i = 0; i < im_runs.size(); ++i) {
        const unsigned banks = im_bank_counts[i];
        const auto& [cfg, out] = im_runs[i];
        if (!out.verified) {
            std::cerr << "verification failed at " << banks << " IM banks\n";
            return 1;
        }
        const auto& s = out.stats;
        const double area = power::sram_bank_area_kge(cfg.im_bank_words * 3) * banks;
        const double alive = static_cast<double>(banks - s.im_banks_gated) / banks;
        im.add_row({std::to_string(banks), std::to_string(cfg.im_bank_words * 3 / 1024) + " kB",
                    format_count(s.cycles), std::to_string(s.im_banks_gated),
                    format_percent(alive), format_fixed(area, 1)});
    }
    im.print(std::cout);
    std::cout << "Finer IM banking gates a larger leakage fraction (the 552 B program\n"
                 "pins exactly one bank alive regardless), but each bank's fixed overhead\n"
                 "(~27 kGE) makes many small banks expensive -- the tension behind the\n"
                 "paper's 8-bank choice.\n";
    return 0;
}
