// Batched lockstep execution engine (DESIGN.md §11).
//
// Fault campaigns and fleet sweeps run B cluster *instances* that share
// everything — configuration, program image, inputs — and differ only in
// when (and whether) a fault strikes. The simulator is deterministic, so
// all B lanes are bit-identical until their first divergent event: one
// representative Trace-tier cluster can execute the shared decoded program
// once per dispatch and stand in for every lane still in lockstep. A lane
// diverges (fault strike, crossbar upset, trap, watchdog, memo bail) by
// PEELING: its architectural + microarchitectural state is seeded into a
// private per-lane cluster from a portable snapshot of the representative,
// and only that lane pays per-cycle simulation. Once the divergence has
// washed out (the fault was corrected or overwritten), the lane REJOINS at
// the next snapshot boundary: an exact comparison of future-determining
// state (Cluster::state_equals) proves the lane's remaining execution is
// identical to the representative's, so the shared tail is credited
// instead of simulated.
//
// The engine is exact, not approximate: every lane's cycle counts and
// statistics are bit-identical to a standalone Trace-tier run of that lane
// (pinned by tests/cluster/batched_diff_test.cpp). Speed comes purely from
// not re-simulating work that determinism proves is shared.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/config.hpp"
#include "cluster/stats.hpp"
#include "common/types.hpp"
#include "isa/program_image.hpp"

namespace ulpmc::cluster {

/// B lanes in lockstep over one shared representative cluster.
class BatchedCluster {
public:
    /// `cfg.engine` must be SimEngine::Trace (the reference tier stays
    /// un-batched); `lanes` is the batch width B.
    BatchedCluster(const ClusterConfig& cfg, std::shared_ptr<const isa::ProgramImage> image,
                   unsigned lanes);

    /// Re-initializes in place (pooled reuse): representative reset, every
    /// lane back to lockstep, accumulators cleared. Per-lane peel clusters
    /// are kept warm, so a same-geometry reset performs no steady-state
    /// heap allocation.
    void reset(const ClusterConfig& cfg, std::shared_ptr<const isa::ProgramImage> image,
               unsigned lanes);

    unsigned lanes() const { return static_cast<unsigned>(lanes_.size()); }
    const ClusterConfig& config() const { return rep_.config(); }

    /// The shared lockstep representative. Campaigns build their snapshot
    /// ladder on it; it must stay CLEAN (never inject into rep() — peel
    /// the lane and inject there).
    Cluster& rep() { return rep_; }
    const Cluster& rep() const { return rep_; }

    /// Advances every lane to min(quiesce, max_cycles): the representative
    /// runs once and every lockstep/rejoined lane rides it (accruing
    /// batch_lockstep_cycles), then each peeled lane advances privately.
    /// Returns the representative's cycle counter.
    Cycle run_lockstep(Cycle max_cycles);

    bool in_lockstep(unsigned lane) const {
        return lanes_[lane].mode != LaneMode::Peeled;
    }

    /// Peels `lane` off the shared representative at its CURRENT state /
    /// at a saved boundary `at` (a snapshot of the representative, e.g. a
    /// campaign ladder rung). The lane's private cluster is seeded from
    /// the portable snapshot; the shared prefix it rode is back-credited
    /// to its lockstep-cycle accumulator. Returns the private cluster —
    /// inject the divergent event there. One peel per lane per reset/
    /// reset_lanes cycle.
    Cluster& peel(unsigned lane, PeelReason why);
    Cluster& peel_at(unsigned lane, const Cluster::Snapshot& at, PeelReason why);

    /// Records a secondary divergence cause observed after the peel (the
    /// lane later trapped, watchdogged, or failed every rejoin attempt).
    /// Counts a reason without counting another peel.
    void add_peel_reason(unsigned lane, PeelReason why) {
        soa_.reasons[lane * kPeelReasonCount + static_cast<unsigned>(why)] += 1;
    }

    /// The private cluster of a peeled lane (peel first).
    Cluster& lane_cluster(unsigned lane);

    /// Read-only view of the cluster currently embodying `lane`: its
    /// private cluster when peeled, the representative otherwise.
    const Cluster& lane_view(unsigned lane) const;

    /// Exact-state rejoin at `boundary` (a snapshot of the representative
    /// at a cycle the peeled lane has reached). If the lane's future-
    /// determining state matches the boundary bit-for-bit, the lane's
    /// remaining execution is provably identical to the representative's:
    /// the lane goes back to riding the shared tail (every cycle the
    /// representative is past the boundary is credited as lockstep) and
    /// its final statistics are materialized as
    ///     stats(lane at boundary) + [stats(rep now) - stats(rep at boundary)].
    /// Returns false (and changes nothing) when the states still differ.
    bool try_rejoin(unsigned lane, const Cluster::Snapshot& boundary);

    /// Returns every lane to lockstep on the representative and clears the
    /// per-lane accumulators — the start of the next injection group in a
    /// campaign. The representative itself is NOT reset (it stays wherever
    /// the clean run left it; campaign lanes re-seed from ladder rungs).
    void reset_lanes();

    /// Final per-lane statistics, exact per the class contract, with the
    /// batch_* observability counters filled in. Out-param flavor so hot
    /// campaign loops reuse one buffer (heap-free after warm-up).
    void lane_stats_into(unsigned lane, ClusterStats& out) const;
    ClusterStats lane_stats(unsigned lane) const {
        ClusterStats s;
        lane_stats_into(lane, s);
        return s;
    }

    // ---- SoA state views (DESIGN.md §11) -----------------------------------
    // Structure-of-arrays mirror of per-lane architectural state,
    // lane-major: refreshed whenever a lane's state materializes (peel,
    // rejoin, end of run_lockstep) and lazily on read, so a peeled lane
    // advanced directly through its Cluster& is still reported exactly.
    // Diagnostics and tools read B lanes' registers/PCs as contiguous rows
    // instead of B pointer-chased cluster objects.

    /// Registers of `lane`, cores*kNumRegisters contiguous words.
    std::span<const Word> lane_regs(unsigned lane) const;
    /// PC of core `c` in `lane`.
    PAddr lane_pc(unsigned lane, unsigned c) const;
    /// Packed C/Z/N/V status word of core `c` in `lane` (bit 0 = C ... bit 3 = V).
    Word lane_flags(unsigned lane, unsigned c) const;
    /// Cycle counter of `lane`.
    Cycle lane_cycle(unsigned lane) const;

private:
    enum class LaneMode : std::uint8_t { Lockstep, Peeled, Rejoined };

    struct LaneSlot {
        LaneMode mode = LaneMode::Lockstep;
        std::unique_ptr<Cluster> cl; ///< lazily built on first peel, kept warm
        ClusterStats base;           ///< lane stats at its rejoin boundary
        ClusterStats rep_base;       ///< representative stats at that boundary
    };

    /// Lane-major SoA arrays; `stride` rows of cores entries each.
    struct BatchedState {
        std::vector<Word> regs;   ///< [lane][core][reg]
        std::vector<PAddr> pc;    ///< [lane][core]
        std::vector<Word> flags;  ///< [lane][core], packed C/Z/N/V
        std::vector<Cycle> cycle; ///< [lane]
        // Per-lane stat accumulators (lane-major): shared-representative
        // cycles ridden, peel count, and the per-reason breakdown.
        std::vector<std::uint64_t> lockstep_cycles; ///< [lane]
        std::vector<std::uint64_t> peels;           ///< [lane]
        std::vector<std::uint64_t> reasons;         ///< [lane][kPeelReasonCount]
    };

    void refresh_soa(unsigned lane) const;
    const Cluster& source_of(unsigned lane) const;

    Cluster rep_;
    std::shared_ptr<const isa::ProgramImage> image_;
    std::vector<LaneSlot> lanes_;
    mutable BatchedState soa_;
    Cluster::Snapshot xfer_; ///< peel() transfer buffer, reused
};

} // namespace ulpmc::cluster
