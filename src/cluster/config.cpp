#include "cluster/config.hpp"

#include "common/assert.hpp"
#include "common/cli.hpp"

namespace ulpmc::cluster {

std::string arch_name(ArchKind k) {
    switch (k) {
    case ArchKind::McRef:
        return "mc-ref";
    case ArchKind::UlpmcInt:
        return "ulpmc-int";
    case ArchKind::UlpmcBank:
        return "ulpmc-bank";
    }
    ULPMC_ASSERT(false);
}

std::string engine_name(SimEngine e) {
    switch (e) {
    case SimEngine::Reference:
        return "reference";
    case SimEngine::Trace:
        return "trace";
    }
    ULPMC_ASSERT(false);
}

void add_engine_flag(Cli& cli, SimEngine& out) {
    cli.choice("--engine", "simulator tier; results are identical across tiers", out,
               kSimEngineCount, engine_name);
}

ClusterConfig make_config(ArchKind k, mmu::DmLayout layout) {
    ClusterConfig c;
    c.arch = k;
    c.dm_layout = layout;
    switch (k) {
    case ArchKind::McRef:
        c.im_policy = mmu::ImPolicy::Dedicated;
        c.dm_broadcast = false;
        c.im_broadcast = false; // no I-Xbar at all in mc-ref
        c.gate_unused_im_banks = false;
        c.stagger_start = true;
        break;
    case ArchKind::UlpmcInt:
        c.im_policy = mmu::ImPolicy::Interleaved;
        c.dm_broadcast = true;
        c.im_broadcast = true;
        c.gate_unused_im_banks = false;
        c.stagger_start = false;
        break;
    case ArchKind::UlpmcBank:
        c.im_policy = mmu::ImPolicy::Banked;
        c.dm_broadcast = true;
        c.im_broadcast = true;
        c.gate_unused_im_banks = true;
        c.stagger_start = false;
        break;
    }
    return c;
}

} // namespace ulpmc::cluster
