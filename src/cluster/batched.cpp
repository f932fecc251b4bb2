#include "cluster/batched.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace ulpmc::cluster {

namespace {

Word pack_flags(const core::Flags& f) {
    return static_cast<Word>((f.c ? 1u : 0u) | (f.z ? 2u : 0u) | (f.n ? 4u : 0u) |
                             (f.v ? 8u : 0u));
}

void add_xbar_tail(xbar::XbarStats& dst, const xbar::XbarStats& now,
                   const xbar::XbarStats& base) {
    dst.requests += now.requests - base.requests;
    dst.grants += now.grants - base.grants;
    dst.bank_accesses += now.bank_accesses - base.bank_accesses;
    dst.broadcast_riders += now.broadcast_riders - base.broadcast_riders;
    dst.denied += now.denied - base.denied;
    dst.conflict_cycles += now.conflict_cycles - base.conflict_cycles;
    dst.hijacked_grants += now.hijacked_grants - base.hijacked_grants;
    dst.selfcheck_fixes += now.selfcheck_fixes - base.selfcheck_fixes;
    dst.selfcheck_resyncs += now.selfcheck_resyncs - base.selfcheck_resyncs;
}

// dst += (now - base) on every event counter: the representative's tail
// from the rejoin boundary to `now` is, by the exact-state rejoin proof,
// precisely what the lane would have executed. Config-derived fields
// (flags, bank totals) keep dst's values; halted_at/trap are taken from
// the tail when the lane had not ended yet — determinism puts the lane's
// halt at exactly the representative's cycle.
void add_tail(ClusterStats& dst, const ClusterStats& now, const ClusterStats& base) {
    dst.cycles += now.cycles - base.cycles;
    for (std::size_t p = 0; p < dst.core.size(); ++p) {
        CoreRunStats& d = dst.core[p];
        const CoreRunStats& n = now.core[p];
        const CoreRunStats& b = base.core[p];
        d.instret += n.instret - b.instret;
        d.stall_cycles += n.stall_cycles - b.stall_cycles;
        d.bubble_cycles += n.bubble_cycles - b.bubble_cycles;
        d.dm_loads += n.dm_loads - b.dm_loads;
        d.dm_stores += n.dm_stores - b.dm_stores;
        d.im_fetches += n.im_fetches - b.im_fetches;
        if (d.halted_at == 0) d.halted_at = n.halted_at;
        if (d.trap == core::Trap::None) d.trap = n.trap;
    }
    add_xbar_tail(dst.ixbar, now.ixbar, base.ixbar);
    add_xbar_tail(dst.dxbar, now.dxbar, base.dxbar);
    dst.im_bank_accesses += now.im_bank_accesses - base.im_bank_accesses;
    dst.dm_bank_reads += now.dm_bank_reads - base.dm_bank_reads;
    dst.dm_bank_writes += now.dm_bank_writes - base.dm_bank_writes;
    dst.ecc_im_corrected += now.ecc_im_corrected - base.ecc_im_corrected;
    dst.ecc_dm_corrected += now.ecc_dm_corrected - base.ecc_dm_corrected;
    dst.ecc_uncorrectable += now.ecc_uncorrectable - base.ecc_uncorrectable;
    dst.faults_injected += now.faults_injected - base.faults_injected;
    dst.watchdog_trips += now.watchdog_trips - base.watchdog_trips;
    dst.reg_parity_traps += now.reg_parity_traps - base.reg_parity_traps;
    dst.reg_tmr_votes += now.reg_tmr_votes - base.reg_tmr_votes;
    dst.im_scrub_reads += now.im_scrub_reads - base.im_scrub_reads;
    dst.im_scrub_corrected += now.im_scrub_corrected - base.im_scrub_corrected;
    dst.im_scrub_uncorrectable += now.im_scrub_uncorrectable - base.im_scrub_uncorrectable;
    dst.dm_scrub_reads += now.dm_scrub_reads - base.dm_scrub_reads;
    dst.dm_scrub_corrected += now.dm_scrub_corrected - base.dm_scrub_corrected;
    dst.dm_scrub_uncorrectable += now.dm_scrub_uncorrectable - base.dm_scrub_uncorrectable;
}

} // namespace

BatchedCluster::BatchedCluster(const ClusterConfig& cfg,
                               std::shared_ptr<const isa::ProgramImage> image, unsigned lanes)
    : rep_(cfg, image) {
    image_ = std::move(image);
    reset(cfg, image_, lanes);
}

void BatchedCluster::reset(const ClusterConfig& cfg,
                           std::shared_ptr<const isa::ProgramImage> image, unsigned lanes) {
    ULPMC_EXPECTS(lanes >= 1);
    ULPMC_EXPECTS(cfg.engine == SimEngine::Trace);
    ULPMC_EXPECTS(image != nullptr);
    rep_.reset(cfg, image);
    image_ = std::move(image);
    lanes_.resize(lanes);
    for (LaneSlot& s : lanes_) {
        s.mode = LaneMode::Lockstep;
        // Keep peel clusters warm but re-seed their geometry so a later
        // restore() lands on a matching instance.
        if (s.cl) s.cl->reset(cfg, image_);
    }
    const unsigned cores = cfg.cores;
    soa_.regs.assign(std::size_t{lanes} * cores * kNumRegisters, 0);
    soa_.pc.assign(std::size_t{lanes} * cores, 0);
    soa_.flags.assign(std::size_t{lanes} * cores, 0);
    soa_.cycle.assign(lanes, 0);
    soa_.lockstep_cycles.assign(lanes, 0);
    soa_.peels.assign(lanes, 0);
    soa_.reasons.assign(std::size_t{lanes} * kPeelReasonCount, 0);
    for (unsigned l = 0; l < lanes; ++l) refresh_soa(l);
}

const Cluster& BatchedCluster::source_of(unsigned lane) const {
    const LaneSlot& s = lanes_[lane];
    return s.mode == LaneMode::Peeled ? *s.cl : rep_;
}

void BatchedCluster::refresh_soa(unsigned lane) const {
    const Cluster& src = source_of(lane);
    const unsigned cores = rep_.config().cores;
    for (unsigned c = 0; c < cores; ++c) {
        const core::CoreState& st = src.core_state(static_cast<CoreId>(c));
        std::copy(st.regs.begin(), st.regs.end(),
                  soa_.regs.begin() + (std::size_t{lane} * cores + c) * kNumRegisters);
        soa_.pc[std::size_t{lane} * cores + c] = st.pc;
        soa_.flags[std::size_t{lane} * cores + c] = pack_flags(st.flags);
    }
    soa_.cycle[lane] = src.stats().cycles;
}

Cycle BatchedCluster::run_lockstep(Cycle max_cycles) {
    const Cycle before = rep_.stats().cycles;
    const Cycle end = rep_.run(max_cycles);
    const Cycle ridden = end - before;
    for (unsigned l = 0; l < lanes(); ++l) {
        if (lanes_[l].mode != LaneMode::Peeled) {
            soa_.lockstep_cycles[l] += ridden;
        } else {
            lanes_[l].cl->run(max_cycles);
        }
        refresh_soa(l);
    }
    return end;
}

Cluster& BatchedCluster::peel(unsigned lane, PeelReason why) {
    rep_.save(xfer_);
    return peel_at(lane, xfer_, why);
}

Cluster& BatchedCluster::peel_at(unsigned lane, const Cluster::Snapshot& at, PeelReason why) {
    ULPMC_EXPECTS(lane < lanes());
    LaneSlot& slot = lanes_[lane];
    ULPMC_EXPECTS(slot.mode == LaneMode::Lockstep);
    if (!slot.cl) slot.cl = std::make_unique<Cluster>(rep_.config(), image_);
    slot.cl->restore(at);
    slot.mode = LaneMode::Peeled;
    // Back-credit the shared prefix the lane rode before diverging (a
    // no-op when peeling at the representative's current state after
    // run_lockstep already accounted for it).
    if (at.saved_cycle() > soa_.lockstep_cycles[lane])
        soa_.lockstep_cycles[lane] = at.saved_cycle();
    soa_.peels[lane] += 1;
    soa_.reasons[lane * kPeelReasonCount + static_cast<unsigned>(why)] += 1;
    refresh_soa(lane);
    return *slot.cl;
}

Cluster& BatchedCluster::lane_cluster(unsigned lane) {
    ULPMC_EXPECTS(lane < lanes());
    ULPMC_EXPECTS(lanes_[lane].mode == LaneMode::Peeled);
    return *lanes_[lane].cl;
}

const Cluster& BatchedCluster::lane_view(unsigned lane) const {
    ULPMC_EXPECTS(lane < lanes());
    return source_of(lane);
}

bool BatchedCluster::try_rejoin(unsigned lane, const Cluster::Snapshot& boundary) {
    ULPMC_EXPECTS(lane < lanes());
    LaneSlot& slot = lanes_[lane];
    ULPMC_EXPECTS(slot.mode == LaneMode::Peeled);
    if (!slot.cl->state_equals(boundary)) return false;
    slot.base = slot.cl->stats();           // lane history up to the boundary
    slot.rep_base = boundary.saved_stats(); // representative history at it
    slot.mode = LaneMode::Rejoined;
    // Every representative cycle past the boundary is now ridden, not
    // simulated: the whole remaining tail in campaign use (the rep already
    // finished its clean run), zero in pure lockstep use (the rep is AT
    // the boundary and run_lockstep accrues from here).
    soa_.lockstep_cycles[lane] += rep_.stats().cycles - boundary.saved_cycle();
    refresh_soa(lane);
    return true;
}

void BatchedCluster::reset_lanes() {
    for (LaneSlot& s : lanes_) s.mode = LaneMode::Lockstep;
    std::fill(soa_.lockstep_cycles.begin(), soa_.lockstep_cycles.end(), 0);
    std::fill(soa_.peels.begin(), soa_.peels.end(), 0);
    std::fill(soa_.reasons.begin(), soa_.reasons.end(), 0);
    for (unsigned l = 0; l < lanes(); ++l) refresh_soa(l);
}

void BatchedCluster::lane_stats_into(unsigned lane, ClusterStats& out) const {
    ULPMC_EXPECTS(lane < lanes());
    const LaneSlot& slot = lanes_[lane];
    switch (slot.mode) {
    case LaneMode::Lockstep:
        out = rep_.stats();
        break;
    case LaneMode::Peeled:
        out = slot.cl->stats();
        break;
    case LaneMode::Rejoined:
        out = slot.base;
        add_tail(out, rep_.stats(), slot.rep_base);
        break;
    }
    out.batch_lockstep_cycles = soa_.lockstep_cycles[lane];
    out.batch_lane_peels = soa_.peels[lane];
    for (unsigned r = 0; r < kPeelReasonCount; ++r)
        out.batch_peel_reasons[r] = soa_.reasons[lane * kPeelReasonCount + r];
}

std::span<const Word> BatchedCluster::lane_regs(unsigned lane) const {
    refresh_soa(lane);
    const std::size_t row = std::size_t{rep_.config().cores} * kNumRegisters;
    return {soa_.regs.data() + lane * row, row};
}

PAddr BatchedCluster::lane_pc(unsigned lane, unsigned c) const {
    refresh_soa(lane);
    return soa_.pc[std::size_t{lane} * rep_.config().cores + c];
}

Word BatchedCluster::lane_flags(unsigned lane, unsigned c) const {
    refresh_soa(lane);
    return soa_.flags[std::size_t{lane} * rep_.config().cores + c];
}

Cycle BatchedCluster::lane_cycle(unsigned lane) const {
    refresh_soa(lane);
    return soa_.cycle[lane];
}

} // namespace ulpmc::cluster
