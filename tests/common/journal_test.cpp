// CRC-framed run journal + atomic file replacement (DESIGN.md §9.6):
// frames round-trip, a torn tail (the signature a SIGKILL mid-append
// leaves) is truncated to the clean prefix instead of poisoning the
// resume, a corrupt frame stops the replay at the last durable point,
// re-opening at clean_bytes drops the tail so append continues the
// chain, and write_file_atomic never exposes a half-written artifact.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "common/atomic_file.hpp"
#include "common/journal.hpp"

namespace ulpmc {
namespace {

class JournalTest : public ::testing::Test {
protected:
    void SetUp() override {
        path_ = (std::filesystem::temp_directory_path() /
                 ("ulpmc_journal_test_" +
                  std::to_string(::testing::UnitTest::GetInstance()->random_seed()) + "_" +
                  ::testing::UnitTest::GetInstance()->current_test_info()->name()))
                    .string();
        std::remove(path_.c_str());
    }
    void TearDown() override { std::remove(path_.c_str()); }

    std::string path_;
};

std::vector<std::uint8_t> bytes(std::initializer_list<int> v) {
    std::vector<std::uint8_t> out;
    for (const int b : v) out.push_back(static_cast<std::uint8_t>(b));
    return out;
}

std::uint64_t file_size(const std::string& p) {
    return static_cast<std::uint64_t>(std::filesystem::file_size(p));
}

TEST_F(JournalTest, FramesRoundTrip) {
    {
        JournalWriter w(path_);
        w.append(1, bytes({0xAA, 0xBB}));
        w.append(2, {});
        w.append(7, bytes({1, 2, 3, 4, 5}));
    }
    const JournalContents c = read_journal(path_);
    EXPECT_FALSE(c.torn_tail);
    EXPECT_EQ(c.clean_bytes, file_size(path_));
    ASSERT_EQ(c.frames.size(), 3u);
    EXPECT_EQ(c.frames[0].kind, 1u);
    EXPECT_EQ(c.frames[0].payload, bytes({0xAA, 0xBB}));
    EXPECT_EQ(c.frames[1].kind, 2u);
    EXPECT_TRUE(c.frames[1].payload.empty());
    EXPECT_EQ(c.frames[2].kind, 7u);
    EXPECT_EQ(c.frames[2].payload.size(), 5u);
}

TEST_F(JournalTest, MissingJournalThrows) {
    EXPECT_THROW(read_journal(path_), JournalError);
}

TEST_F(JournalTest, TornTailIsReportedAndTheCleanPrefixSurvives) {
    {
        JournalWriter w(path_);
        w.append(1, bytes({0xAA}));
        w.append(2, bytes({0xBB, 0xCC}));
    }
    const std::uint64_t full = file_size(path_);
    // SIGKILL mid-append: the last frame loses its tail bytes.
    std::filesystem::resize_file(path_, full - 3);
    const JournalContents c = read_journal(path_);
    EXPECT_TRUE(c.torn_tail);
    ASSERT_EQ(c.frames.size(), 1u);
    EXPECT_EQ(c.frames[0].kind, 1u);
    EXPECT_EQ(c.clean_bytes, full - (4 + 4 + 2 + 4)) << "prefix ends before frame 2";
}

TEST_F(JournalTest, CorruptFrameStopsTheReplayAtTheLastDurablePoint) {
    {
        JournalWriter w(path_);
        w.append(1, bytes({0xAA}));
        w.append(2, bytes({0xBB}));
        w.append(3, bytes({0xCC}));
    }
    // Flip one payload bit inside the SECOND frame.
    std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
    const std::uint64_t frame1 = 4 + 4 + 1 + 4;
    f.seekp(static_cast<std::streamoff>(frame1 + 8));
    const char corrupt = static_cast<char>(0xBB ^ 0x04);
    f.write(&corrupt, 1);
    f.close();

    const JournalContents c = read_journal(path_);
    EXPECT_TRUE(c.torn_tail);
    ASSERT_EQ(c.frames.size(), 1u) << "frame 3 is unreachable past the corrupt frame";
    EXPECT_EQ(c.clean_bytes, frame1);
}

TEST_F(JournalTest, ReopenAtCleanBytesDropsTheTailAndContinuesTheChain) {
    {
        JournalWriter w(path_);
        w.append(1, bytes({0xAA}));
        w.append(2, bytes({0xBB}));
    }
    std::filesystem::resize_file(path_, file_size(path_) - 1); // torn tail
    const JournalContents before = read_journal(path_);
    ASSERT_TRUE(before.torn_tail);
    ASSERT_EQ(before.frames.size(), 1u);
    {
        JournalWriter w(path_, before.clean_bytes); // resume: drop the tail
        w.append(5, bytes({0xDD}));
    }
    const JournalContents after = read_journal(path_);
    EXPECT_FALSE(after.torn_tail);
    ASSERT_EQ(after.frames.size(), 2u);
    EXPECT_EQ(after.frames[0].kind, 1u);
    EXPECT_EQ(after.frames[1].kind, 5u);
    EXPECT_EQ(after.frames[1].payload, bytes({0xDD}));
}

TEST_F(JournalTest, TruncationAtEveryByteOfTheFinalFrameKeepsTheSameCleanPrefix) {
    // A crash can cut the in-flight frame at ANY byte — mid-header,
    // mid-payload, mid-CRC. Whatever the cut point, the reader must
    // report exactly the same clean prefix (never more, never less) and
    // JournalWriter(path, clean_bytes) must round-trip: drop the stump,
    // append, and leave a journal with no torn tail.
    {
        JournalWriter w(path_);
        w.append(1, bytes({0xAA, 0xBB, 0xCC}));
        w.append(2, bytes({0x10, 0x20}));
        w.append(9, bytes({1, 2, 3, 4, 5, 6, 7}));
    }
    const std::uint64_t full = file_size(path_);
    const std::uint64_t final_frame = 4 + 4 + 7 + 4;
    const std::uint64_t prefix = full - final_frame;
    // Keep the original bytes so every truncation starts from the same file.
    std::vector<char> original(full);
    {
        std::ifstream f(path_, std::ios::binary);
        f.read(original.data(), static_cast<std::streamsize>(full));
    }
    for (std::uint64_t cut = prefix; cut < full; ++cut) {
        {
            std::ofstream f(path_, std::ios::binary | std::ios::trunc);
            f.write(original.data(), static_cast<std::streamsize>(cut));
        }
        const JournalContents c = read_journal(path_);
        EXPECT_EQ(c.clean_bytes, prefix) << "cut at byte " << cut;
        EXPECT_EQ(c.torn_tail, cut != prefix) << "cut at byte " << cut;
        ASSERT_EQ(c.frames.size(), 2u) << "cut at byte " << cut;
        // Round-trip: reopen at the clean prefix and append a new frame.
        {
            JournalWriter w(path_, c.clean_bytes);
            w.append(5, bytes({0xEE}));
        }
        const JournalContents after = read_journal(path_);
        EXPECT_FALSE(after.torn_tail) << "cut at byte " << cut;
        ASSERT_EQ(after.frames.size(), 3u) << "cut at byte " << cut;
        EXPECT_EQ(after.frames[2].kind, 5u) << "cut at byte " << cut;
        EXPECT_EQ(after.frames[2].payload, bytes({0xEE})) << "cut at byte " << cut;
    }
}

TEST_F(JournalTest, TrailingGarbageAfterIntactFramesIsATornTail) {
    {
        JournalWriter w(path_);
        w.append(1, bytes({0xAA}));
    }
    std::ofstream f(path_, std::ios::app | std::ios::binary);
    f.write("\x01\x02", 2);
    f.close();
    const JournalContents c = read_journal(path_);
    EXPECT_TRUE(c.torn_tail);
    EXPECT_EQ(c.frames.size(), 1u);
}

TEST_F(JournalTest, AtomicWriteReplacesTheTargetWithoutATempResidue) {
    write_file_atomic(path_, "first\n");
    {
        std::ifstream f(path_);
        std::string s((std::istreambuf_iterator<char>(f)), std::istreambuf_iterator<char>());
        EXPECT_EQ(s, "first\n");
    }
    write_file_atomic(path_, "second version\n");
    {
        std::ifstream f(path_);
        std::string s((std::istreambuf_iterator<char>(f)), std::istreambuf_iterator<char>());
        EXPECT_EQ(s, "second version\n");
    }
    EXPECT_FALSE(std::filesystem::exists(path_ + ".tmp"));
}

TEST_F(JournalTest, AtomicWriteToAnUnwritablePathThrows) {
    EXPECT_THROW(write_file_atomic("/nonexistent-dir/x/y", "data"), AtomicFileError);
}

TEST_F(JournalTest, RunJournalBindsOptionsAndInputThenReplays) {
    const std::string input = path_ + ".input";
    std::ofstream(input) << "phase a 10\n";
    constexpr std::uint32_t kMeta = 1, kWork = 2, kOther = 3;
    const auto never = [](std::size_t, const JournalFrame&) -> bool { throw "no replay"; };
    std::ostringstream log;

    // Fresh: the meta frame is written, nothing replayed.
    {
        RunJournal rj = open_run_journal(path_, true, input, kMeta, bytes({7}), never, log);
        EXPECT_FALSE(rj.resumed);
        rj.writer->append(kWork, bytes({1}));
        rj.writer->append(kOther, bytes({}));
        rj.writer->append(kWork, bytes({2}));
    }
    EXPECT_NE(log.str().find("no journal yet"), std::string::npos);

    // Resume: every later frame is offered in order; unknown kinds are noted.
    std::vector<std::uint8_t> seen;
    const auto replay = [&](std::size_t, const JournalFrame& f) {
        if (f.kind != kWork) return false;
        seen.push_back(f.payload[0]);
        return true;
    };
    log.str("");
    EXPECT_TRUE(open_run_journal(path_, true, input, kMeta, bytes({7}), replay, log).resumed);
    EXPECT_EQ(seen, bytes({1, 2}));
    EXPECT_NE(log.str().find("skipping 1 frame(s) of unknown kind"), std::string::npos);

    // Other options, or an edited input, are a different run.
    EXPECT_THROW(open_run_journal(path_, true, input, kMeta, bytes({8}), never, log),
                 JournalError);
    std::ofstream(input) << "phase a 11\n";
    EXPECT_THROW(open_run_journal(path_, true, input, kMeta, bytes({7}), never, log),
                 JournalError);
    EXPECT_THROW(open_run_journal(path_, true, input + ".missing", kMeta, bytes({7}), never, log),
                 JournalError);
    std::remove(input.c_str());
}

} // namespace
} // namespace ulpmc
