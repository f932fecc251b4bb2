#include "common/journal.hpp"

#include <cerrno>
#include <cstring>
#include <fstream>
#include <ostream>
#include <sstream>

#include <unistd.h>

#include "common/crc32.hpp"
#include "common/serial.hpp"

namespace ulpmc {

namespace {

/// Bound on one frame's payload: a length field beyond this is garbage
/// (a torn header read as a length), not a real frame.
constexpr std::uint32_t kMaxPayload = 64u << 20;

} // namespace

JournalContents read_journal(const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (!f) throw JournalError("journal: cannot open: " + path + ": " + std::strerror(errno));

    JournalContents jc;
    std::vector<std::uint8_t> buf;
    for (;;) {
        std::uint32_t head[2]; // kind, len
        if (std::fread(head, 1, sizeof(head), f) != sizeof(head)) break;
        if (head[1] > kMaxPayload) {
            jc.torn_tail = true;
            break;
        }
        buf.resize(head[1]);
        if (head[1] > 0 && std::fread(buf.data(), 1, buf.size(), f) != buf.size()) {
            jc.torn_tail = true;
            break;
        }
        std::uint32_t stored_crc = 0;
        if (std::fread(&stored_crc, 1, sizeof(stored_crc), f) != sizeof(stored_crc)) {
            jc.torn_tail = true;
            break;
        }
        const std::uint32_t crc = crc32(buf.data(), buf.size(), crc32(head, sizeof(head)));
        if (crc != stored_crc) {
            jc.torn_tail = true;
            break;
        }
        jc.frames.push_back({head[0], buf});
        jc.clean_bytes += sizeof(head) + buf.size() + sizeof(stored_crc);
    }
    // Bytes past the last intact frame (without even a readable header)
    // are also a torn tail.
    if (!jc.torn_tail) {
        std::fseek(f, 0, SEEK_END);
        if (static_cast<std::uint64_t>(std::ftell(f)) != jc.clean_bytes) jc.torn_tail = true;
    }
    std::fclose(f);
    return jc;
}

JournalWriter::JournalWriter(const std::string& path, std::uint64_t keep_bytes) : path_(path) {
    // "ab" would forbid the truncation; open read-write, create if
    // missing, then cut the torn tail and seek to the clean end.
    f_ = std::fopen(path.c_str(), "r+b");
    if (!f_) f_ = std::fopen(path.c_str(), "w+b");
    if (!f_)
        throw JournalError("journal: cannot open for append: " + path + ": " +
                           std::strerror(errno));
    if (ftruncate(fileno(f_), static_cast<off_t>(keep_bytes)) != 0 ||
        std::fseek(f_, 0, SEEK_END) != 0) {
        std::fclose(f_);
        f_ = nullptr;
        throw JournalError("journal: cannot truncate: " + path + ": " + std::strerror(errno));
    }
}

JournalWriter::~JournalWriter() {
    if (f_) std::fclose(f_);
}

void JournalWriter::append(std::uint32_t kind, const std::vector<std::uint8_t>& payload) {
    const std::uint32_t head[2] = {kind, static_cast<std::uint32_t>(payload.size())};
    const std::uint32_t crc = crc32(payload.data(), payload.size(), crc32(head, sizeof(head)));
    bool ok = std::fwrite(head, 1, sizeof(head), f_) == sizeof(head);
    ok = ok && (payload.empty() ||
                std::fwrite(payload.data(), 1, payload.size(), f_) == payload.size());
    ok = ok && std::fwrite(&crc, 1, sizeof(crc), f_) == sizeof(crc);
    ok = ok && std::fflush(f_) == 0;
    // fsync makes the frame durable before the caller treats the work as
    // done — the whole point of journaling ahead of a SIGKILL.
    ok = ok && fsync(fileno(f_)) == 0;
    if (!ok)
        throw JournalError("journal: append failed: " + path_ + ": " + std::strerror(errno));
}

RunJournal open_run_journal(const std::string& path, bool resume, const std::string& input_path,
                            std::uint32_t meta_kind, std::vector<std::uint8_t> meta,
                            const std::function<bool(std::size_t, const JournalFrame&)>& replay,
                            std::ostream& log) {
    std::ifstream in(input_path, std::ios::binary);
    if (!in) throw JournalError(input_path + ": cannot re-read for journal binding");
    std::ostringstream ss;
    ss << in.rdbuf();
    const std::string bytes = ss.str();
    put_raw(meta, crc32(bytes.data(), bytes.size()));

    RunJournal rj;
    std::uint64_t keep = 0;
    if (resume) {
        JournalContents jc;
        try {
            jc = read_journal(path);
        } catch (const JournalError&) {
            log << "note: " << path << ": no journal yet, starting fresh\n";
        }
        if (!jc.frames.empty()) {
            if (jc.frames[0].kind != meta_kind || jc.frames[0].payload != meta)
                throw JournalError(path + ": journal was written by a different run "
                                          "(options or timeline changed); refusing to resume");
            rj.resumed = true;
            std::uint64_t skipped = 0;
            // Forward compatibility: a frame of a kind this binary does not
            // know carries no replay state for it, so it is skipped, not fatal.
            for (std::size_t f = 1; f < jc.frames.size(); ++f)
                if (!replay(f, jc.frames[f])) ++skipped;
            keep = jc.clean_bytes;
            if (jc.torn_tail)
                log << "note: " << path << ": dropping torn frame after " << keep << " bytes\n";
            if (skipped > 0)
                log << "note: " << path << ": skipping " << skipped
                    << " frame(s) of unknown kind (newer writer?)\n";
        }
    }
    rj.writer = std::make_unique<JournalWriter>(path, keep);
    if (!rj.resumed) rj.writer->append(meta_kind, meta);
    return rj;
}

} // namespace ulpmc
