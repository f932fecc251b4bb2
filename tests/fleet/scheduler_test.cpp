#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include <sys/resource.h>

#include "fleet/scheduler.hpp"

namespace ulpmc::fleet {
namespace {

TEST(Scheduler, RunsEveryIndexExactlyOnce) {
    WorkStealingPool pool(4);
    ASSERT_EQ(pool.threads(), 4u);
    std::vector<std::atomic<int>> hits(1013);
    const auto stats = pool.run(hits.size(), [&](std::uint64_t i, unsigned) { ++hits[i]; });
    for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << i;
    EXPECT_EQ(stats.executed, hits.size());
    EXPECT_EQ(stats.workers, 4u);
}

TEST(Scheduler, WorkerIdsStayInRange) {
    WorkStealingPool pool(3);
    std::atomic<bool> bad{false};
    pool.run(200, [&](std::uint64_t, unsigned w) {
        if (w >= 3) bad = true;
    });
    EXPECT_FALSE(bad.load());
}

TEST(Scheduler, StealsRebalanceSkewedLoad) {
    // Index 0..9 are very slow, the rest instant. With the initial
    // contiguous deal, worker 0 owns all the slow ones — the other
    // workers must steal from it to finish the batch in slow-time, not
    // 10x slow-time. We only assert stealing HAPPENED and everything ran;
    // timing assertions would flake on loaded CI.
    WorkStealingPool pool(4);
    std::atomic<std::uint64_t> done{0};
    const auto stats = pool.run(400, [&](std::uint64_t i, unsigned) {
        if (i < 10) std::this_thread::sleep_for(std::chrono::milliseconds(5));
        ++done;
    });
    EXPECT_EQ(done.load(), 400u);
    EXPECT_EQ(stats.executed, 400u);
    EXPECT_GT(stats.steals, 0u);
    EXPECT_GT(stats.stolen_tasks, 0u);
}

TEST(Scheduler, SingleWorkerDegeneratesToSequential) {
    WorkStealingPool pool(1);
    std::vector<std::uint64_t> order;
    const auto stats = pool.run(50, [&](std::uint64_t i, unsigned w) {
        EXPECT_EQ(w, 0u);
        order.push_back(i);
    });
    ASSERT_EQ(order.size(), 50u);
    for (std::uint64_t i = 0; i < 50; ++i) EXPECT_EQ(order[i], i);
    EXPECT_EQ(stats.steals, 0u);
}

TEST(Scheduler, EmptyBatchIsFine) {
    WorkStealingPool pool(4);
    const auto stats = pool.run(0, [&](std::uint64_t, unsigned) { FAIL(); });
    EXPECT_EQ(stats.executed, 0u);
}

TEST(Scheduler, FirstExceptionPropagates) {
    WorkStealingPool pool(4);
    EXPECT_THROW(pool.run(100,
                          [&](std::uint64_t i, unsigned) {
                              if (i == 42) throw std::runtime_error("device 42 exploded");
                          }),
                 std::runtime_error);
}

double process_cpu_s() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto s = [](const timeval& t) { return t.tv_sec + t.tv_usec * 1e-6; };
    return s(ru.ru_utime) + s(ru.ru_stime);
}

TEST(Scheduler, IdleWorkersDoNotSpin) {
    // One slow index on four workers: the three without work must leave,
    // not burn a CPU each until the slow one finishes.
    WorkStealingPool pool(4);
    const double cpu0 = process_cpu_s();
    const auto t0 = std::chrono::steady_clock::now();
    pool.run(1, [](std::uint64_t, unsigned) {
        std::this_thread::sleep_for(std::chrono::milliseconds(300));
    });
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    const double cpu = process_cpu_s() - cpu0;
    EXPECT_GE(wall, 0.3);
    EXPECT_LT(cpu, 0.25 * wall) << "cpu " << cpu << " s over " << wall << " s of wall time";
}

} // namespace
} // namespace ulpmc::fleet
