// ulpmc-run: execute a TamaRISC program image on the cycle-accurate
// cluster and report what happened.
//
//   ulpmc-run prog.upmc [options]      (ulpmc-run --help lists them)
//
// Assembly sources are also accepted directly (detected by extension).
// Results are identical across --engine tiers (DESIGN.md §10); --batch B
// runs B lockstep lanes over one shared representative (DESIGN.md §11) and
// is refused under --engine reference.
// Exit codes: 0 all cores halted, 1 load error, 2 bad usage (malformed,
// duplicate or inconsistent options), 3 a core trapped (name printed),
// 4 the max-cycles limit was hit.
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/batched.hpp"
#include "cluster/cluster.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "isa/assembler.hpp"
#include "isa/binfmt.hpp"
#include "isa/program_image.hpp"

using namespace ulpmc;

int main(int argc, char** argv) {
    std::vector<std::string> inputs;
    cluster::ArchKind kind = cluster::ArchKind::UlpmcBank;
    unsigned cores = kNumCores;
    Addr shared_words = 64;
    Addr private_words = 1024;
    bool ecc = false;
    bool im_scrub = false;
    bool dm_scrub = false;
    bool xbar_self_check = false;
    core::RegProtection regprot = core::RegProtection::None;
    cluster::SimEngine engine = cluster::SimEngine::Trace;
    unsigned batch = 0;
    Cycle watchdog = 0;
    std::size_t trace_n = 0;
    long dump_addr = -1;
    unsigned dump_len = 0;
    Cycle max_cycles = 10'000'000;

    Cli cli("ulpmc-run", "<prog.upmc|prog.asm> [options]");
    cli.positionals(inputs)
        .choice("--arch", "architecture (default ulpmc-bank)", kind, cluster::kArchKindCount,
                cluster::arch_name)
        .integer("--cores", "N", "active cores (default 8)", cores, 1, kNumCores)
        .integer("--shared", "W", "shared DM words (default 64)", shared_words, 0, kDmWordsTotal)
        .integer("--private", "W", "private DM words per core (default 1024)", private_words, 1,
                 kDmWordsTotal);
    cluster::add_engine_flag(cli, engine);
    cli.integer("--batch", "B", "run B lockstep lanes (trace tier only)", batch, 1, 4096)
        .toggle("--ecc", "SEC-DED on every memory bank", ecc)
        .choice("--regprot", "register-file protection (default none)", regprot,
                static_cast<unsigned>(core::RegProtection::Tmr) + 1, core::reg_protection_name)
        .toggle("--im-scrub", "idle-cycle IM scrub walker", im_scrub)
        .toggle("--dm-scrub", "idle-cycle DM scrub walker", dm_scrub)
        .toggle("--xbar-selfcheck", "self-checking crossbar arbiters", xbar_self_check)
        .integer("--watchdog", "N", "stuck-core trap after N idle cycles", watchdog, 1,
                 1'000'000'000)
        .integer("--trace", "N", "print the last N trace events", trace_n, 0, 1'000'000)
        .custom("--dump", "ADDR LEN", "dump core 0's memory after the run", 2,
                [&](const std::vector<std::string>& v) {
                    std::uint64_t addr = 0, len = 0;
                    std::string err = read_u64(v[0], 0, kDmWordsTotal, addr);
                    if (err.empty()) err = read_u64(v[1], 1, kDmWordsTotal, len);
                    dump_addr = static_cast<long>(addr);
                    dump_len = static_cast<unsigned>(len);
                    return err;
                })
        .integer("--max-cycles", "N", "safety limit (default 10M)", max_cycles, 1, ~0ull);
    cli.parse(argc, argv);
    if (inputs.size() > 1) {
        std::cerr << "more than one program file given ('" << inputs[0] << "' and '"
                  << inputs[1] << "')\n";
        return 2;
    }
    if (inputs.empty()) {
        std::cerr << cli.usage();
        return 2;
    }
    const std::string& input = inputs[0];
    if (batch > 0 && engine == cluster::SimEngine::Reference) {
        std::cerr << "--batch is not available under --engine reference (the oracle tier "
                     "stays un-batched)\n";
        return 2;
    }

    // --- load the program ----------------------------------------------------
    isa::Program prog;
    if (input.size() > 4 && input.substr(input.size() - 4) == ".asm") {
        std::ifstream in(input);
        if (!in) {
            std::cerr << "cannot open " << input << '\n';
            return 1;
        }
        std::ostringstream ss;
        ss << in.rdbuf();
        try {
            prog = isa::assemble(ss.str());
        } catch (const isa::AssemblyError& e) {
            std::cerr << input << ":" << e.what() << '\n';
            return 1;
        }
    } else {
        std::ifstream in(input, std::ios::binary);
        if (!in) {
            std::cerr << "cannot open " << input << '\n';
            return 1;
        }
        const std::vector<std::uint8_t> bytes{std::istreambuf_iterator<char>(in),
                                              std::istreambuf_iterator<char>()};
        std::string err;
        const auto loaded = isa::load_program(bytes, err);
        if (!loaded) {
            std::cerr << input << ": malformed image: " << err << '\n';
            return 1;
        }
        prog = *loaded;
    }
    if (prog.text.empty()) {
        std::cerr << input << ": malformed image: empty text section\n";
        return 1;
    }
    if (prog.text.size() > kImWordsPerBank) {
        std::cerr << input << ": text section (" << prog.text.size()
                  << " words) exceeds an IM bank (" << kImWordsPerBank << ")\n";
        return 1;
    }

    // --- configure the cluster ----------------------------------------------
    if (shared_words + static_cast<std::size_t>(private_words) * cores > kDmWordsTotal) {
        std::cerr << "DM layout does not fit: " << shared_words << " shared + " << private_words
                  << " private x " << cores << " cores > " << kDmWordsTotal << " words\n";
        return 2;
    }
    auto cfg = cluster::make_config(kind, {shared_words, private_words});
    cfg.cores = cores;
    cfg.barrier_enabled = true; // harmless if unused
    cfg.ecc_enabled = ecc;
    cfg.im_scrub = im_scrub;
    cfg.dm_scrub = dm_scrub;
    cfg.xbar_self_check = xbar_self_check;
    cfg.reg_protection = regprot;
    cfg.engine = engine;
    cfg.watchdog_cycles = watchdog;
    if (prog.data.size() > cfg.dm_layout.limit()) {
        std::cerr << input << ": data image (" << prog.data.size()
                  << " words) exceeds the DM layout (" << cfg.dm_layout.limit() << " words)\n";
        return 1;
    }
    if (dump_addr >= 0 &&
        static_cast<std::size_t>(dump_addr) + dump_len > cfg.dm_layout.limit()) {
        std::cerr << "--dump range [" << dump_addr << ", " << dump_addr + dump_len
                  << ") exceeds the DM layout (" << cfg.dm_layout.limit() << " words)\n";
        return 2;
    }

    // Under --batch B, B identical lanes run over one shared
    // representative (all stay in lockstep without fault injection); the
    // report below reads the representative, which embodies every lane.
    const auto image = isa::ProgramImage::build(prog);
    std::unique_ptr<cluster::BatchedCluster> bc;
    std::unique_ptr<cluster::Cluster> solo;
    if (batch > 0)
        bc = std::make_unique<cluster::BatchedCluster>(cfg, image, batch);
    else
        solo = std::make_unique<cluster::Cluster>(cfg, image);
    cluster::Cluster& cl = bc ? bc->rep() : *solo;
    cluster::RingTrace ring(trace_n ? trace_n : 1);
    if (trace_n) cl.set_trace(&ring);

    if (bc)
        bc->run_lockstep(max_cycles);
    else
        cl.run(max_cycles);

    // --- report --------------------------------------------------------------
    const auto& s = cl.stats();
    std::cout << "arch " << cluster::arch_name(kind) << ", " << cores << " cores: " << s.cycles
              << " cycles, " << s.total_ops() << " ops (" << format_fixed(s.ops_per_cycle(), 3)
              << " ops/cycle)\n"
              << "IM bank accesses " << format_count(s.im_bank_accesses) << " ("
              << format_count(s.ixbar.broadcast_riders) << " broadcast riders), DM accesses "
              << format_count(s.dm_bank_accesses()) << ", conflicts denied "
              << format_count(s.ixbar.denied + s.dxbar.denied) << '\n';

    cluster::print_run_summary(std::cout, s);
    if (bc) {
        const auto ls = bc->lane_stats(0);
        std::cout << "batched: " << bc->lanes() << " lanes, " << ls.batch_lane_peels
                  << " peels, " << format_count(ls.batch_lockstep_cycles)
                  << " lockstep cycles/lane\n";
    }

    int rc = 0;
    std::cout << "registers (r0..r3):\n";
    for (unsigned p = 0; p < cores; ++p) {
        const auto pid = static_cast<CoreId>(p);
        const auto& st = cl.core_state(pid);
        if (cl.core_trap(pid) != core::Trap::None) {
            rc = 3;
        } else if (!cl.core_halted(pid)) {
            rc = 4; // hit max-cycles
        }
        std::cout << "  core " << p << ": " << st.regs[0] << ' ' << st.regs[1] << ' '
                  << st.regs[2] << ' ' << st.regs[3] << '\n';
    }
    if (rc == 3) {
        for (unsigned p = 0; p < cores; ++p) {
            const auto pid = static_cast<CoreId>(p);
            if (cl.core_trap(pid) != core::Trap::None) {
                std::cerr << "core " << p << " trapped: " << core::trap_name(cl.core_trap(pid))
                          << '\n';
            }
        }
    } else if (rc == 4) {
        std::cerr << "max-cycles limit (" << max_cycles << ") hit with cores still running\n";
    }

    if (dump_addr >= 0) {
        std::cout << "\ncore 0 memory @" << dump_addr << ":\n ";
        for (unsigned i = 0; i < dump_len; ++i)
            std::cout << ' ' << cl.dm_peek(0, static_cast<Addr>(dump_addr + i));
        std::cout << '\n';
    }
    if (trace_n) {
        std::cout << "\nlast " << trace_n << " trace events (of " << ring.total() << "):\n";
        ring.print(std::cout);
    }
    return rc;
}
