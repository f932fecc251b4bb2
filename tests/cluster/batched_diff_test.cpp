// Differential tests for the batched lockstep engine (DESIGN.md §11):
// every lane of a BatchedCluster must be cycle- and stat-identical to a
// standalone Trace-tier run of that lane — clean lanes ride the shared
// representative, a struck lane peels into private simulation while its
// siblings stay in lockstep, and a converged lane rejoins with its
// statistics materialized as base + representative tail. The sweep covers
// all three IM policies, 1/2/4/8 cores and batch widths 1/4/16.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cluster/batched.hpp"
#include "cluster/cluster.hpp"
#include "cluster/config.hpp"
#include "common/rng.hpp"
#include "isa/assembler.hpp"
#include "isa/program_image.hpp"

namespace ulpmc {
namespace {

constexpr mmu::DmLayout kLayout{.shared_words = 512, .private_words_per_core = 2048};

constexpr cluster::ArchKind kArchs[] = {cluster::ArchKind::McRef, cluster::ArchKind::UlpmcInt,
                                        cluster::ArchKind::UlpmcBank};
constexpr unsigned kCoreCounts[] = {1, 2, 4, 8};
constexpr unsigned kBatchSizes[] = {1, 4, 16};

isa::Program loop_program() {
    return isa::assemble(R"(
            movi r1, 700
            movi r2, 30
    loop:   add  r3, r3, #1
            mov  @r1+, r3
            sub  r2, r2, #1
            bra  ne, loop
    done:   bra  al, done
    )");
}

/// Stores every iteration to the SAME address, so a DM upset there is
/// overwritten within one iteration — the divergence a rejoin can prove out.
isa::Program overwrite_program() {
    return isa::assemble(R"(
            movi r2, 200
    loop:   movi r1, 700
            add  r3, r3, #1
            mov  @r1+, r3
            sub  r2, r2, #1
            bra  ne, loop
    done:   bra  al, done
    )");
}

cluster::ClusterConfig cfg_of(cluster::ArchKind arch, unsigned cores) {
    auto cfg = cluster::make_config(arch, kLayout);
    cfg.cores = cores;
    return cfg;
}

/// Lane stats with the batch observability counters cleared — the part
/// that must be bit-identical to a standalone Trace run.
cluster::ClusterStats sans_batch(cluster::ClusterStats s) {
    s.batch_lockstep_cycles = 0;
    s.batch_lane_peels = 0;
    s.batch_peel_reasons = {};
    return s;
}

void expect_lane_matches(const cluster::BatchedCluster& bc, unsigned lane,
                         const cluster::Cluster& ref, const std::string& ctx) {
    ASSERT_EQ(sans_batch(bc.lane_stats(lane)), ref.stats()) << ctx << " lane " << lane;
    const cluster::Cluster& view = bc.lane_view(lane);
    const unsigned cores = bc.config().cores;
    for (unsigned p = 0; p < cores; ++p) {
        const auto pid = static_cast<CoreId>(p);
        ASSERT_EQ(view.core_state(pid), ref.core_state(pid)) << ctx << " lane " << lane;
        ASSERT_EQ(view.core_halted(pid), ref.core_halted(pid)) << ctx << " lane " << lane;
        ASSERT_EQ(view.core_trap(pid), ref.core_trap(pid)) << ctx << " lane " << lane;
        for (Addr v = 690; v < 740; ++v)
            ASSERT_EQ(view.dm_peek(pid, v), ref.dm_peek(pid, v))
                << ctx << " lane " << lane << " vaddr " << v;
        // The SoA mirror must agree with the embodying cluster.
        ASSERT_EQ(bc.lane_pc(lane, p), ref.core_state(pid).pc) << ctx << " lane " << lane;
        const auto regs = bc.lane_regs(lane);
        for (unsigned r = 0; r < kNumRegisters; ++r)
            ASSERT_EQ(regs[p * kNumRegisters + r], ref.core_state(pid).regs[r])
                << ctx << " lane " << lane << " r" << r;
    }
}

TEST(BatchedDiff, CleanLockstepMatchesTracePerLane) {
    const auto prog = loop_program();
    const auto image = isa::ProgramImage::build(prog);
    for (const auto arch : kArchs) {
        for (const unsigned cores : kCoreCounts) {
            for (const unsigned batch : kBatchSizes) {
                const std::string ctx = cluster::arch_name(arch) + "/c" + std::to_string(cores) +
                                        "/b" + std::to_string(batch);
                const auto cfg = cfg_of(arch, cores);
                cluster::Cluster ref(cfg, image);
                ref.run(100'000);

                cluster::BatchedCluster bc(cfg, image, batch);
                bc.run_lockstep(100'000);
                for (unsigned l = 0; l < batch; ++l) {
                    ASSERT_TRUE(bc.in_lockstep(l)) << ctx;
                    ASSERT_EQ(bc.lane_cycle(l), ref.stats().cycles) << ctx;
                    expect_lane_matches(bc, l, ref, ctx);
                    const auto st = bc.lane_stats(l);
                    ASSERT_EQ(st.batch_lane_peels, 0u) << ctx;
                    ASSERT_EQ(st.batch_lockstep_cycles, ref.stats().cycles) << ctx;
                }
            }
        }
    }
}

TEST(BatchedDiff, RandomFaultPeelsOneLaneSiblingsStayLockstep) {
    const auto prog = loop_program();
    const auto image = isa::ProgramImage::build(prog);
    Rng rng(0xBA7C4ED0);
    for (const auto arch : kArchs) {
        for (const unsigned cores : kCoreCounts) {
            for (const unsigned batch : kBatchSizes) {
                const std::string ctx = cluster::arch_name(arch) + "/c" + std::to_string(cores) +
                                        "/b" + std::to_string(batch);
                const auto tcfg = cfg_of(arch, cores);
                cluster::Cluster clean(tcfg, image);
                const Cycle clean_cycles = clean.run(100'000);

                const Cycle strike = 10 + rng.below(static_cast<std::uint32_t>(clean_cycles / 2));
                const unsigned victim = rng.below(batch);
                const CoreId vcore = static_cast<CoreId>(rng.below(cores));
                const unsigned kind = rng.below(3);

                const auto apply = [&](cluster::Cluster& cl) {
                    switch (kind) {
                    case 0: cl.inject_reg_fault(vcore, 3, 0x5); break;
                    case 1: cl.inject_dm_fault(vcore, 705, 0xFF); break;
                    default: cl.inject_im_fault(2, 0x1); break;
                    }
                };

                // Standalone Trace reference of the struck lane.
                cluster::Cluster ref(tcfg, image);
                ref.run(strike);
                apply(ref);
                ref.run(200'000);

                cluster::BatchedCluster bc(tcfg, image, batch);
                bc.run_lockstep(strike);
                cluster::Cluster& lane = bc.peel(victim, cluster::PeelReason::FaultStrike);
                apply(lane);
                bc.run_lockstep(200'000);

                ASSERT_FALSE(bc.in_lockstep(victim)) << ctx;
                expect_lane_matches(bc, victim, ref, ctx + " struck");
                const auto vs = bc.lane_stats(victim);
                ASSERT_EQ(vs.batch_lane_peels, 1u) << ctx;
                ASSERT_EQ(vs.batch_peel_reasons[static_cast<unsigned>(
                              cluster::PeelReason::FaultStrike)],
                          1u)
                    << ctx;
                ASSERT_EQ(vs.batch_lockstep_cycles, strike) << ctx;

                clean.run(200'000); // match the second dispatch's bound
                for (unsigned l = 0; l < batch; ++l) {
                    if (l == victim) continue;
                    ASSERT_TRUE(bc.in_lockstep(l)) << ctx;
                    expect_lane_matches(bc, l, clean, ctx + " sibling");
                }
            }
        }
    }
}

TEST(BatchedDiff, ConvergedLaneRejoinsWithExactStats) {
    const auto prog = overwrite_program();
    const auto image = isa::ProgramImage::build(prog);
    const auto arch = cluster::ArchKind::UlpmcBank;
    const unsigned cores = 4, batch = 4, victim = 1;
    const auto tcfg = cfg_of(arch, cores);

    cluster::Cluster clean(tcfg, image);
    const Cycle clean_cycles = clean.run(100'000);

    const Cycle strike = 120;
    const Cycle boundary = clean_cycles / 2; // fault long overwritten by then
    cluster::Cluster ref(tcfg, image);
    ref.run(strike);
    ref.inject_dm_fault(0, 700, 0x3C);
    ref.run(200'000);
    ASSERT_EQ(ref.stats().cycles, clean_cycles) << "fault must converge for this test";

    cluster::BatchedCluster bc(tcfg, image, batch);
    bc.run_lockstep(strike);
    cluster::Cluster& lane = bc.peel(victim, cluster::PeelReason::FaultStrike);
    lane.inject_dm_fault(0, 700, 0x3C);
    bc.run_lockstep(boundary);

    cluster::Cluster::Snapshot at;
    bc.rep().save(at);
    ASSERT_TRUE(bc.try_rejoin(victim, at)) << "overwritten upset must rejoin";
    ASSERT_TRUE(bc.in_lockstep(victim));
    bc.run_lockstep(200'000);

    expect_lane_matches(bc, victim, ref, "rejoined");
    const auto vs = bc.lane_stats(victim);
    ASSERT_EQ(vs.batch_lane_peels, 1u);
    // Shared cycles = prefix up to the peel + everything after the rejoin.
    ASSERT_EQ(vs.batch_lockstep_cycles, strike + (clean_cycles - boundary));
    for (unsigned l = 0; l < batch; ++l) {
        if (l == victim) continue;
        expect_lane_matches(bc, l, clean, "sibling");
    }
}

TEST(BatchedDiff, PeelAtEarlierSnapshotBackCreditsPrefix) {
    const auto prog = loop_program();
    const auto image = isa::ProgramImage::build(prog);
    const auto arch = cluster::ArchKind::UlpmcInt;
    const unsigned cores = 2, batch = 4, victim = 2;
    const auto tcfg = cfg_of(arch, cores);

    // Campaign shape: the representative runs the whole clean run first;
    // lanes then re-seed from saved rungs.
    cluster::BatchedCluster bc(tcfg, image, batch);
    cluster::Cluster::Snapshot rung;
    bc.rep().run(80);
    bc.rep().save(rung);
    const Cycle clean_cycles = bc.rep().run(100'000);
    cluster::Cluster::Snapshot final_snap;
    bc.rep().save(final_snap);

    bc.reset_lanes();
    cluster::Cluster& lane = bc.peel_at(victim, rung, cluster::PeelReason::FaultStrike);
    ASSERT_EQ(bc.lane_stats(victim).batch_lockstep_cycles, 80u) << "prefix back-credit";
    lane.run(100);
    lane.inject_dm_fault(0, 705, 0xF0);
    lane.run(100'000);

    // Standalone reference of the same schedule.
    cluster::Cluster ref(tcfg, image);
    ref.run(100);
    ref.inject_dm_fault(0, 705, 0xF0);
    ref.run(100'000);
    expect_lane_matches(bc, victim, ref, "peel_at");

    // A converging lane instead: no fault at all — rejoins at the final
    // snapshot and rides a zero-length tail.
    bc.reset_lanes();
    cluster::Cluster& lane2 = bc.peel_at(0, rung, cluster::PeelReason::MemoBail);
    lane2.run(clean_cycles);
    ASSERT_TRUE(bc.try_rejoin(0, final_snap));
    ASSERT_EQ(sans_batch(bc.lane_stats(0)), bc.rep().stats());
    ASSERT_EQ(bc.lane_stats(0).batch_lockstep_cycles, 80u);
}

} // namespace
} // namespace ulpmc
