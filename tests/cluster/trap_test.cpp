// Trap-path coverage (DESIGN.md §9 satellite): out-of-bounds fetch,
// illegal encodings, functional-vs-pipeline trap agreement, and the
// watchdog's stuck-core detection (including its no-false-positive
// obligation on clean staggered runs).
#include <gtest/gtest.h>

#include "app/benchmark.hpp"
#include "cluster/cluster.hpp"
#include "core/functional_core.hpp"
#include "isa/assembler.hpp"

namespace ulpmc::cluster {
namespace {

constexpr mmu::DmLayout kLayout{.shared_words = 64, .private_words_per_core = 256};

isa::Program assemble(const char* src) { return isa::assemble(src); }

TEST(Traps, RunningOffTheEndOfTextFetchFaults) {
    // No hlt: after the last instruction the PC leaves the loaded program.
    const auto prog = assemble(R"(
        movi r1, 1
        add  r1, r1, #1
    )");
    auto cfg = make_config(ArchKind::UlpmcBank, kLayout);
    cfg.cores = 1;
    Cluster cl(cfg, prog);
    cl.run(1'000);
    EXPECT_EQ(cl.core_trap(0), core::Trap::FetchFault);
    EXPECT_STREQ(core::trap_name(cl.core_trap(0)), "fetch-fault");
    EXPECT_EQ(cl.stats().core[0].instret, 2u) << "both real instructions commit first";
}

TEST(Traps, IllegalEncodingTraps) {
    const auto prog = assemble(R"(
        movi r1, 5
        nop
        hlt
    )");
    for (const auto engine : {SimEngine::Reference, SimEngine::Trace}) {
        auto cfg = make_config(ArchKind::UlpmcBank, kLayout);
        cfg.cores = 1;
        cfg.engine = engine;
        Cluster cl(cfg, prog);
        cl.im_poke(1, 0x00FFFFFFu); // overwrite the nop with a reserved encoding
        cl.run(1'000);
        EXPECT_EQ(cl.core_trap(0), core::Trap::IllegalInstruction) << engine_name(engine);
        EXPECT_STREQ(core::trap_name(cl.core_trap(0)), "illegal-instruction");
        EXPECT_EQ(cl.stats().core[0].instret, 1u) << engine_name(engine);
    }
}

TEST(Traps, FunctionalAndPipelineAgreeOnTrapAndCommitCount) {
    // The same faulting programs must trap identically (same trap, same
    // number of committed instructions) on the 1-instruction-at-a-time
    // functional core and the cycle-accurate pipeline.
    const char* faulty[] = {
        // MemoryFault: store far outside the mapped space
        R"(
            movi r1, 40000
            add  r2, r2, #3
            mov  @r1, r2
            hlt
        )",
        // FetchFault: run off the end
        R"(
            movi r1, 3
            sub  r1, r1, #1
        )",
    };
    for (const char* src : faulty) {
        const auto prog = assemble(src);
        const auto fun = core::run_program(prog);
        ASSERT_NE(fun.trap, core::Trap::None);

        auto cfg = make_config(ArchKind::UlpmcBank, kLayout);
        cfg.cores = 1;
        Cluster cl(cfg, prog);
        cl.run(1'000);
        EXPECT_EQ(cl.core_trap(0), fun.trap);
        EXPECT_EQ(cl.stats().core[0].instret, fun.instret);
    }
}

TEST(Watchdog, TripsOnlyTheStuckCore) {
    // Core 0 reaches the barrier; core 1 spins forever (its private flag,
    // poked below, routes it past the barrier). Core 0 stops committing
    // while parked, so only it watchdog-trips; core 1 keeps committing.
    const auto prog = assemble(R"(
        .equ FLAG, 64
        .equ BARRIER, 0xFFFF
        movi r1, FLAG
        mov  r2, @r1
        or   r2, r2, #0
        bra  ne, spin
        movi r3, BARRIER
        mov  @r3, r0        ; parks: core 1 never arrives
        hlt
    spin:
        add  r4, r4, #1
        bra  al, spin
    )");
    auto cfg = make_config(ArchKind::UlpmcBank, kLayout);
    cfg.cores = 2;
    cfg.barrier_enabled = true;
    cfg.watchdog_cycles = 2'000;
    Cluster cl(cfg, prog);
    cl.dm_poke(1, 64, 1);
    cl.run(10'000);

    EXPECT_EQ(cl.core_trap(0), core::Trap::Watchdog);
    EXPECT_STREQ(core::trap_name(cl.core_trap(0)), "watchdog");
    EXPECT_EQ(cl.core_trap(1), core::Trap::None) << "a committing core is never stuck";
    EXPECT_EQ(cl.stats().watchdog_trips, 1u);
}

TEST(Watchdog, NoFalsePositiveOnCleanRuns) {
    // Regression guard: staggered cores start later than cycle 0; the
    // watchdog window must open at start_cycle, not underflow.
    const app::EcgBenchmark bench{};
    for (const auto arch : {ArchKind::McRef, ArchKind::UlpmcInt, ArchKind::UlpmcBank}) {
        auto cfg = make_config(arch, bench.layout().dm_layout());
        cfg.watchdog_cycles = 20'000;
        const auto out = bench.run(cfg);
        EXPECT_TRUE(out.verified) << arch_name(arch);
        EXPECT_EQ(out.stats.watchdog_trips, 0u) << arch_name(arch);
    }
}

} // namespace
} // namespace ulpmc::cluster
