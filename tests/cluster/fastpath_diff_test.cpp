// Differential test of the simulation engine tiers. The trace engine
// (pre-decoded IM, PC-indexed fetch table, claim-bitmask crossbar
// arbitration, in-place execute, superblock dispatch with memoized timing)
// must be cycle-for-cycle identical to the reference engine: same
// ClusterStats, same architectural core state, same data-memory contents —
// for every IM policy and core count, on randomized SPMD programs that mix
// private/shared loads and stores (so broadcast rides, bank conflicts,
// stalls, and denials all occur).
#include <gtest/gtest.h>

#include <string>

#include "cluster/cluster.hpp"
#include "cluster/config.hpp"
#include "common/rng.hpp"
#include "isa/assembler.hpp"

namespace ulpmc {
namespace {

constexpr mmu::DmLayout kLayout{.shared_words = 512, .private_words_per_core = 2048};

constexpr cluster::SimEngine kAllEngines[] = {cluster::SimEngine::Reference,
                                              cluster::SimEngine::Trace};

/// A random but well-formed SPMD kernel: pointer setup, a loop of
/// ALU/load/store work, and a branch-to-self halt. Addresses stay inside
/// the layout by construction (worst case: every body slot a post-inc
/// private store).
std::string random_program(Rng& rng) {
    const int priv = 512 + static_cast<int>(rng.range(0, 800));
    const int shared = static_cast<int>(rng.range(0, 400));
    const int iters = static_cast<int>(rng.range(8, 50));
    std::string s;
    s += "        movi r1, " + std::to_string(priv) + "\n";
    s += "        movi r2, " + std::to_string(shared) + "\n";
    s += "        movi r4, " + std::to_string(iters) + "\n";
    s += "loop:\n";
    const int body = static_cast<int>(rng.range(3, 8));
    for (int i = 0; i < body; ++i) {
        switch (rng.below(8)) {
        case 0:
            s += "        add r3, r3, #" + std::to_string(rng.range(1, 7)) + "\n";
            break;
        case 1:
            s += "        sub r3, r3, #" + std::to_string(rng.range(1, 7)) + "\n";
            break;
        case 2:
            s += "        xor r3, r3, r5\n";
            break;
        case 3:
            s += "        mov @r1+, r3\n"; // private store (conflict-free)
            break;
        case 4:
            s += "        mov r5, @r2\n"; // shared load: broadcast / conflicts
            break;
        case 5:
            s += "        mov r6, @r1\n"; // private load
            break;
        case 6:
            s += "        mov @r2, r3\n"; // shared store: write conflicts
            break;
        case 7:
            s += "        sft r3, r3, #1\n";
            break;
        }
    }
    s += "        sub r4, r4, #1\n";
    s += "        bra ne, loop\n";
    s += "done:   bra al, done\n";
    return s;
}

/// Asserts `got` (an optimized engine) is observably identical to `ref`
/// (the reference engine) after both ran to completion.
void expect_same_observable_state(cluster::Cluster& got, cluster::Cluster& ref,
                                  unsigned cores, const std::string& context) {
    ASSERT_EQ(got.stats(), ref.stats()) << context;
    for (unsigned p = 0; p < cores; ++p) {
        const auto pid = static_cast<CoreId>(p);
        ASSERT_EQ(got.core_state(pid), ref.core_state(pid)) << context << " core " << p;
        ASSERT_EQ(got.core_halted(pid), ref.core_halted(pid)) << context << " core " << p;
        ASSERT_EQ(got.core_trap(pid), ref.core_trap(pid)) << context << " core " << p;
        for (Addr v = 0; v < kLayout.limit(); ++v) {
            ASSERT_EQ(got.dm_peek(pid, v), ref.dm_peek(pid, v))
                << context << " core " << p << " vaddr " << v;
        }
    }
}

/// Runs `prog` under `cfg` on both engine tiers and asserts they are
/// observably identical (the reference engine is the golden model).
void expect_engines_identical(cluster::ClusterConfig cfg, const isa::Program& prog,
                              Cycle max_cycles, const std::string& context) {
    cfg.engine = cluster::SimEngine::Reference;
    cluster::Cluster ref(cfg, prog);
    const Cycle cycles_ref = ref.run(max_cycles);

    cfg.engine = cluster::SimEngine::Trace;
    cluster::Cluster trace(cfg, prog);
    ASSERT_EQ(trace.run(max_cycles), cycles_ref) << context;
    expect_same_observable_state(trace, ref, cfg.cores, context);
}

TEST(FastpathDiff, RandomProgramsAllPoliciesAllCoreCounts) {
    Rng rng(0xD1FFu);
    const cluster::ArchKind archs[] = {cluster::ArchKind::McRef, cluster::ArchKind::UlpmcInt,
                                       cluster::ArchKind::UlpmcBank};
    const unsigned core_counts[] = {1, 2, 4, 8};
    for (const auto arch : archs) {
        for (const unsigned n : core_counts) {
            for (int i = 0; i < 3; ++i) {
                const auto prog = isa::assemble(random_program(rng));
                auto cfg = cluster::make_config(arch, kLayout);
                cfg.cores = n;
                cfg.stagger_start = (i % 2) == 1;
                const std::string context = cluster::arch_name(arch) + " cores=" +
                                            std::to_string(n) + " prog=" + std::to_string(i);
                expect_engines_identical(cfg, prog, 200'000, context);
            }
        }
    }
}

TEST(FastpathDiff, MaxCyclesTimeoutReportsIdenticalLiveCycleCount) {
    // A program that never halts: the run is bounded by max_cycles while
    // every core still executes, and every engine must report the bound
    // (the cycle counter stays live, not stuck at the last halt/trap).
    const auto prog = isa::assemble(R"(
            movi r1, 512
    loop:   add  r3, r3, #1
            mov  @r1, r3
            bra  al, loop
    )");
    for (const auto arch : {cluster::ArchKind::McRef, cluster::ArchKind::UlpmcInt}) {
        auto cfg = cluster::make_config(arch, kLayout);
        cfg.stagger_start = true;
        cfg.engine = cluster::SimEngine::Reference;
        cluster::Cluster ref(cfg, prog);
        EXPECT_EQ(ref.run(5'000), 5'000u);
        cfg.engine = cluster::SimEngine::Trace;
        cluster::Cluster trace(cfg, prog);
        EXPECT_EQ(trace.run(5'000), 5'000u);
        EXPECT_EQ(trace.stats(), ref.stats()) << cluster::arch_name(arch);
    }
}

TEST(FastpathDiff, ImPokeRefreshesPredecodedEntry) {
    // Patching IM must re-decode exactly the patched word, so the next
    // fetch executes the new instruction on the trace engine too.
    const auto prog = isa::assemble("        movi r1, 5\ndone:   bra al, done\n");
    const auto patched = isa::assemble("        movi r1, 7\ndone:   bra al, done\n");
    for (const auto arch : {cluster::ArchKind::McRef, cluster::ArchKind::UlpmcInt,
                            cluster::ArchKind::UlpmcBank}) {
        for (const auto engine : kAllEngines) {
            auto cfg = cluster::make_config(arch, kLayout);
            cfg.engine = engine;
            cluster::Cluster cl(cfg, prog);
            cl.im_poke(0, patched.text[0]);
            cl.run(1'000);
            for (unsigned p = 0; p < cfg.cores; ++p) {
                const auto pid = static_cast<CoreId>(p);
                EXPECT_EQ(cl.im_peek(0, pid), patched.text[0])
                    << cluster::arch_name(arch) << " " << cluster::engine_name(engine);
                EXPECT_EQ(cl.core_state(pid).regs[1], 7)
                    << cluster::arch_name(arch) << " " << cluster::engine_name(engine);
            }
        }
    }
}

TEST(FastpathDiff, ImPokeAfterFetchExecutesLatchedInstruction) {
    // A word already fetched into EX executes as latched, even if IM is
    // patched between the fetch and the commit — on every engine (the
    // hardware latches the fetched word; the trace engine must not
    // observe the patch through its pre-decode pointers).
    const auto prog = isa::assemble("        movi r1, 5\ndone:   bra al, done\n");
    const auto patched = isa::assemble("        movi r1, 7\ndone:   bra al, done\n");
    for (const auto engine : kAllEngines) {
        auto cfg = cluster::make_config(cluster::ArchKind::UlpmcInt, kLayout);
        cfg.cores = 1;
        cfg.engine = engine;
        cluster::Cluster cl(cfg, prog);
        ASSERT_TRUE(cl.step()); // cycle 1: the movi is fetched into EX
        cl.im_poke(0, patched.text[0]);
        cl.run(1'000);
        EXPECT_EQ(cl.core_state(0).regs[1], 5) << cluster::engine_name(engine);
    }
}

TEST(FastpathDiff, InjectedFaultsKeepEnginesCycleIdentical) {
    // Mid-run SEU injections (IM/DM bit flips, register upsets) go through
    // the same coherence path as im_poke; every engine must stay
    // cycle-for-cycle identical afterwards — with and without SEC-DED, on
    // every IM policy.
    Rng rng(0xFA17u);
    const cluster::ArchKind archs[] = {cluster::ArchKind::McRef, cluster::ArchKind::UlpmcInt,
                                       cluster::ArchKind::UlpmcBank};
    for (const auto arch : archs) {
        for (const bool ecc : {false, true}) {
            const auto prog = isa::assemble(random_program(rng));
            auto cfg = cluster::make_config(arch, kLayout);
            cfg.ecc_enabled = ecc;
            cfg.engine = cluster::SimEngine::Reference;
            cluster::Cluster ref(cfg, prog);
            cfg.engine = cluster::SimEngine::Trace;
            cluster::Cluster trace(cfg, prog);
            const std::string context =
                cluster::arch_name(arch) + std::string(ecc ? " ecc" : " raw");

            // Park all engines mid-flight, deposit identical upsets.
            const PAddr pc = rng.below(static_cast<std::uint32_t>(prog.text.size()));
            const InstrWord im_flip = 1u << rng.below(24);
            const Addr vaddr = rng.below(kLayout.limit());
            const Word dm_flip = static_cast<Word>(1u << rng.below(16));
            for (auto* cl : {&ref, &trace}) {
                cl->run(40);
                cl->inject_im_fault(pc, im_flip);
                cl->inject_dm_fault(1, vaddr, dm_flip);
                cl->inject_reg_fault(0, 3, 0x0010);
            }
            const Cycle cycles_ref = ref.run(200'000);
            ASSERT_EQ(trace.run(200'000), cycles_ref) << context;
            expect_same_observable_state(trace, ref, cfg.cores, context);
        }
    }
}

} // namespace
} // namespace ulpmc
