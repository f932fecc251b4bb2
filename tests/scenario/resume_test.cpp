// Durable-execution resume for the lifetime engine (DESIGN.md §9.6).
//
// The contract under test: the state LifeResume::on_chunk hands out at a
// chunk boundary is COMPLETE — a fresh engine restarted from it replays
// zero blocks and still finishes byte-identical (via the JSON artifact,
// the strongest equality the CLI exposes) to the uninterrupted run, and
// the states it emits from there on are byte-identical to the ones the
// uninterrupted run would have emitted. That is exactly what makes a
// SIGKILL-and---resume cycle of ulpmc-life invisible in the artifact.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "scenario/engine.hpp"
#include "scenario/report.hpp"
#include "scenario/timeline.hpp"
#include "sweep/sweep.hpp"

namespace ulpmc::scenario {
namespace {

/// Same eventful script as lifetime_test: ladder descent, storm strikes
/// (parallel struck-block path), drought buffering, recovery.
constexpr const char* kScript = R"(
block_period_s 2.0
battery_j 0.01
phase calm     60 harvest_uw=20
phase storm    60 lambda=2e-6 ble_loss=0.2 harvest_uw=20
phase drought  60 ble=down harvest_uw=300
phase recovery 60 ble_loss=0.02 harvest_uw=400
)";

Timeline script() {
    std::istringstream in(kScript);
    return parse_timeline(in);
}

DeviceConfig device(Policy policy) {
    DeviceConfig dc;
    dc.seed = 7;
    dc.policy = policy;
    return dc;
}

std::string as_json(const LifetimeReport& rep) {
    std::ostringstream os;
    write_json(os, "test", {rep});
    return os.str();
}

/// One uninterrupted run capturing every chunk-boundary state.
std::vector<std::vector<std::uint8_t>> boundary_states(Policy policy, std::string* json) {
    std::vector<std::vector<std::uint8_t>> states;
    LifeResume hooks;
    hooks.on_chunk = [&](const std::vector<std::uint8_t>& s) { states.push_back(s); };
    LifetimeEngine eng(script(), device(policy));
    sweep::SweepRunner pool(2);
    const LifetimeReport rep = eng.run(pool, hooks);
    if (json) *json = as_json(rep);
    return states;
}

TEST(LifeResume, EveryBoundaryResumesByteIdentical) {
    for (const Policy policy : {Policy::Ladder, Policy::Baseline}) {
        std::string reference;
        const auto states = boundary_states(policy, &reference);
        // 120 blocks / 32-block chunks -> 4 boundaries, the last at the end.
        ASSERT_EQ(states.size(), 4u);
        for (const auto& state : states) {
            LifetimeEngine eng(script(), device(policy));
            sweep::SweepRunner pool(2);
            LifeResume hooks;
            hooks.state = state;
            EXPECT_EQ(as_json(eng.run(pool, hooks)), reference);
        }
    }
}

TEST(LifeResume, ResumedRunEmitsTheRemainingBoundaryStates) {
    // A resumed run must journal exactly what the uninterrupted run would
    // have journaled past the resume point — resume-of-resume depends on it.
    const auto states = boundary_states(Policy::Ladder, nullptr);
    ASSERT_GE(states.size(), 3u);
    LifetimeEngine eng(script(), device(Policy::Ladder));
    sweep::SweepRunner pool(1);
    LifeResume hooks;
    hooks.state = states[0];
    std::vector<std::vector<std::uint8_t>> tail;
    hooks.on_chunk = [&](const std::vector<std::uint8_t>& s) { tail.push_back(s); };
    eng.run(pool, hooks);
    ASSERT_EQ(tail.size(), states.size() - 1);
    for (std::size_t i = 0; i < tail.size(); ++i) EXPECT_EQ(tail[i], states[i + 1]) << i;
}

TEST(LifeResume, FinalBoundaryReplaysZeroChunks) {
    std::string reference;
    const auto states = boundary_states(Policy::Ladder, &reference);
    LifetimeEngine eng(script(), device(Policy::Ladder));
    sweep::SweepRunner pool(1);
    LifeResume hooks;
    hooks.state = states.back();
    unsigned chunks_run = 0;
    hooks.on_chunk = [&](const std::vector<std::uint8_t>&) { ++chunks_run; };
    const LifetimeReport rep = eng.run(pool, hooks);
    EXPECT_EQ(chunks_run, 0u) << "a finished run must not re-simulate anything";
    EXPECT_EQ(as_json(rep), reference);
}

TEST(LifeResume, TraceJournalResumesUnderTheReferenceTier) {
    // The engine tier is not part of a journal's identity: a state written
    // under trace resumes under reference, through the struck storm blocks,
    // and still journals and reports byte-identically.
    std::string expected;
    const auto states = boundary_states(Policy::Ladder, &expected);
    ASSERT_GE(states.size(), 2u);
    DeviceConfig dc = device(Policy::Ladder);
    dc.engine = cluster::SimEngine::Reference;
    LifetimeEngine eng(script(), dc);
    sweep::SweepRunner pool(2);
    LifeResume hooks;
    hooks.state = states[0];
    std::vector<std::vector<std::uint8_t>> tail;
    hooks.on_chunk = [&](const std::vector<std::uint8_t>& s) { tail.push_back(s); };
    EXPECT_EQ(as_json(eng.run(pool, hooks)), expected);
    EXPECT_EQ(tail, std::vector<std::vector<std::uint8_t>>(states.begin() + 1, states.end()));
}

TEST(LifeResume, BoundaryStatesAreDeterministic) {
    const auto a = boundary_states(Policy::Ladder, nullptr);
    const auto b = boundary_states(Policy::Ladder, nullptr);
    EXPECT_EQ(a, b);
}

} // namespace
} // namespace ulpmc::scenario
