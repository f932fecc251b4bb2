#include "common/cli.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <iomanip>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/config.hpp"

namespace ulpmc {
namespace {

/// A small table with one flag of every kind, parsed from a word list.
struct Harness {
    std::uint64_t seed = 1;
    unsigned threads = 0;
    unsigned count = 5;
    double ratio = 0.5;
    double period = 1;
    std::string path, json;
    bool on = false;
    unsigned shard_k = 0, shard_n = 1;
    cluster::SimEngine engine = cluster::SimEngine::Trace;
    Cli cli{"prog", "[options]"};

    Harness() {
        cli.seed(seed)
            .threads(threads)
            .integer("--count", "N", "a count in [1, 10]", count, 1, 10)
            .real("--ratio", "F", "a fraction", ratio, 0, 1)
            .real("--period", "S", "a positive period", period, 0,
                  std::numeric_limits<double>::infinity(), true)
            .text("--path", "FILE", "a path", path)
            .toggle("--on", "a switch", on)
            .shard(shard_k, shard_n)
            .json(json);
        cluster::add_engine_flag(cli, engine);
    }

    /// "" on success, else the diagnostic.
    std::string parse(std::vector<std::string> words) {
        words.insert(words.begin(), "prog");
        std::vector<const char*> argv;
        for (const std::string& w : words) argv.push_back(w.c_str());
        return cli.try_parse(static_cast<int>(argv.size()), argv.data());
    }
};

std::string rejected(std::vector<std::string> words) { return Harness().parse(std::move(words)); }

TEST(Cli, RejectsMalformedUnsignedIntegers) {
    for (const char* bad : {"-1", "+3", " 7", "7 ", "7x", "0x10", "", "1.0",
                            "18446744073709551616", "99999999999999999999999"}) {
        const std::string err = rejected({"--seed", bad});
        EXPECT_NE(err, "") << "accepted --seed '" << bad << "'";
        EXPECT_EQ(err.find('\n'), std::string::npos) << err;
        EXPECT_EQ(err.rfind("--seed: ", 0), 0u) << err;
    }
    Harness h;
    EXPECT_EQ(h.parse({"--seed", "18446744073709551615"}), "");
    EXPECT_EQ(h.seed, ~0ull);
}

TEST(Cli, RejectsMalformedDoubles) {
    for (const char* bad : {"-0.5", "+0.5", " 0.5", "0.5x", "1e400", "nan", "inf", "0x1p-1", "",
                            "."}) {
        EXPECT_NE(rejected({"--ratio", bad}), "") << "accepted --ratio '" << bad << "'";
    }
}

TEST(Cli, EnforcesRanges) {
    EXPECT_NE(rejected({"--count", "0"}), "");
    EXPECT_NE(rejected({"--count", "11"}), "");
    EXPECT_NE(rejected({"--ratio", "1.5"}), "");
    EXPECT_NE(rejected({"--period", "0"}), "");
    EXPECT_NE(rejected({"--threads", "1025"}), "");
    EXPECT_NE(rejected({"--threads", "4294967295"}), "");

    Harness h;
    EXPECT_EQ(h.parse({"--count", "10", "--ratio", "1", "--period", "1e-9", "--threads", "1024"}),
              "");
    EXPECT_EQ(h.count, 10u);
    EXPECT_EQ(h.ratio, 1.0);
    EXPECT_EQ(h.period, 1e-9);
    EXPECT_EQ(h.threads, 1024u);
}

TEST(Cli, RejectsDuplicateMissingAndUnknown) {
    EXPECT_EQ(rejected({"--seed", "1", "--seed", "2"}), "--seed: duplicate option");
    EXPECT_EQ(rejected({"--on", "--on"}), "--on: duplicate option");
    EXPECT_NE(rejected({"--seed"}), "");
    EXPECT_NE(rejected({"--count", "3", "--path"}), "");
    EXPECT_NE(rejected({"--bogus"}), "");
    EXPECT_NE(rejected({"stray"}), "");
    EXPECT_NE(rejected({"--engine", "turbo"}), "");
}

TEST(Cli, RejectsBadShards) {
    for (const char* bad : {"3/2", "0/0", "1/", "/2", "2", "1/2/3", "-1/2", "1/+2", "2/2"}) {
        EXPECT_NE(rejected({"--shard", bad}), "") << "accepted --shard '" << bad << "'";
    }
    Harness h;
    EXPECT_EQ(h.parse({"--shard", "3/4"}), "");
    EXPECT_EQ(h.shard_k, 3u);
    EXPECT_EQ(h.shard_n, 4u);
}

TEST(Cli, AcceptsEveryEngineName) {
    for (unsigned i = 0; i < cluster::kSimEngineCount; ++i) {
        const auto e = static_cast<cluster::SimEngine>(i);
        Harness h;
        ASSERT_EQ(h.parse({"--engine", cluster::engine_name(e)}), "");
        EXPECT_EQ(h.engine, e);
        EXPECT_NE(h.cli.usage().find(cluster::engine_name(e)), std::string::npos);
    }
}

TEST(Cli, FarmWorkerDoublesRoundTripBitExactly) {
    // fleet::Farm hands doubles to its workers rendered with
    // setprecision(17); the worker must recover the very same bits.
    std::vector<double> values = {0.25, 0.1, 0.2, 1.0 / 3, 0.5, 2.0, 1e-3, 7.0 / 9,
                                  0.30000000000000004, 123456.789, 1e-300, 1e300};
    std::mt19937_64 rng(7);
    while (values.size() < 2000) {
        const double v = std::bit_cast<double>(rng() >> 1); // sign bit clear
        if (std::isnormal(v)) values.push_back(v);
    }
    for (const double v : values) {
        std::ostringstream ss;
        ss << std::setprecision(17) << v;
        double back = -1;
        ASSERT_EQ(read_f64(ss.str(), 0, std::numeric_limits<double>::max(), false, back), "")
            << ss.str();
        EXPECT_EQ(std::bit_cast<std::uint64_t>(back), std::bit_cast<std::uint64_t>(v))
            << ss.str();
    }
}

TEST(Cli, HelpIsGeneratedFromTheTable) {
    Harness h;
    EXPECT_EQ(h.parse({"--help"}), "");
    EXPECT_TRUE(h.cli.help_requested());
    const std::string u = h.cli.usage();
    for (const char* flag : {"--seed N", "--threads N", "--count N", "--ratio F", "--shard K/N",
                             "--json FILE", "--on", "-h, --help", "a count in [1, 10]"})
        EXPECT_NE(u.find(flag), std::string::npos) << flag;
}

TEST(Cli, TracksGivenFlagsAndPositionals) {
    Harness h;
    std::vector<std::string> rest;
    h.cli.positionals(rest);
    EXPECT_EQ(h.parse({"a.asm", "--on", "--path", "-", "b.asm"}), "");
    EXPECT_TRUE(h.on);
    EXPECT_EQ(h.path, "-"); // a value is taken verbatim, even a dash
    EXPECT_TRUE(h.cli.given("--path"));
    EXPECT_FALSE(h.cli.given("--seed"));
    EXPECT_EQ(rest, (std::vector<std::string>{"a.asm", "b.asm"}));
}

} // namespace
} // namespace ulpmc
