// CRC-framed append-only run journal (DESIGN.md §9.6).
//
// A long fleet or lifetime run appends one frame per completed unit of
// work (device, chunk, policy); after a crash, --resume replays the
// intact frames and the run continues from where durable progress ends.
// Frame format, all little-endian host order:
//
//   [u32 kind][u32 len][len payload bytes][u32 crc]
//
// with crc = crc32(kind ++ len ++ payload). The writer flushes and
// fsyncs after every frame, so a frame is either durably complete or
// absent. The reader stops at the first torn or CRC-failing frame and
// reports how many clean bytes precede it — a killed writer leaves at
// most one torn frame at the tail, which resume simply truncates away
// by re-opening the journal at the clean prefix.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <iosfwd>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace ulpmc {

class JournalError : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

/// One decoded frame.
struct JournalFrame {
    std::uint32_t kind = 0;
    std::vector<std::uint8_t> payload;
};

/// Everything intact in a journal file.
struct JournalContents {
    std::vector<JournalFrame> frames;
    std::uint64_t clean_bytes = 0; ///< file prefix covered by intact frames
    bool torn_tail = false;        ///< a truncated/corrupt frame follows the prefix
};

/// Reads the intact prefix of `path`. Throws JournalError only when the
/// file cannot be opened at all; torn tails are reported, not thrown.
JournalContents read_journal(const std::string& path);

/// Appends frames to a journal file, one durable (flushed + fsynced)
/// frame per append() call.
class JournalWriter {
public:
    /// Opens `path` for appending after truncating it to `keep_bytes`
    /// (the intact prefix a resume decided to keep; 0 starts fresh,
    /// pass JournalContents::clean_bytes to drop a torn tail). Throws
    /// JournalError when the file cannot be opened.
    JournalWriter(const std::string& path, std::uint64_t keep_bytes = 0);
    ~JournalWriter();

    JournalWriter(const JournalWriter&) = delete;
    JournalWriter& operator=(const JournalWriter&) = delete;

    /// Appends one frame and makes it durable. Throws JournalError on
    /// any I/O failure.
    void append(std::uint32_t kind, const std::vector<std::uint8_t>& payload);

private:
    std::FILE* f_ = nullptr;
    std::string path_;
};

/// A run's journal, opened for appending by open_run_journal().
struct RunJournal {
    std::unique_ptr<JournalWriter> writer;
    bool resumed = false; ///< an existing journal's frames were replayed
};

/// Opens (or, with `resume`, continues) the journal at `path` for one run.
///
/// The journal's first frame, of kind `meta_kind`, binds it to the run: it
/// holds `meta` (the run's options) followed by the CRC-32 of the bytes of
/// `input_path` (the script the run reads), so a journal never resumes
/// against other options or an edited script. With `resume`, a missing
/// journal starts fresh; otherwise its meta frame must match, and every
/// later intact frame goes to `replay(index, frame)` in order, which
/// returns false for a kind it does not know (counted, then noted) or
/// throws JournalError to refuse the journal. A torn tail is dropped.
/// Notes go to `log`; every refusal throws JournalError with a one-line
/// message.
RunJournal
open_run_journal(const std::string& path, bool resume, const std::string& input_path,
                 std::uint32_t meta_kind, std::vector<std::uint8_t> meta,
                 const std::function<bool(std::size_t, const JournalFrame&)>& replay,
                 std::ostream& log);

} // namespace ulpmc
