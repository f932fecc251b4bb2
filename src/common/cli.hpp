// Table-driven command-line parsing shared by the drivers (tools/) and the
// extension benches (bench/ext_*).
//
// Each flag is declared once, against the variable it fills: its name, a
// value placeholder, a help line and its kind (an unsigned integer or a
// double in a range, a string, a switch, a name from a closed list, a K/N
// shard). parse() then walks argv strictly:
//   - numbers go through std::from_chars: a sign, whitespace, trailing
//     characters, overflow, NaN/inf or an out-of-range value is an error;
//   - an unknown option, a repeated option or a missing value is an error;
//   - every error is one line on stderr and exit 2;
//   - --help (or -h) prints a usage text generated from the table, exit 0.
// Checks that relate several flags stay with the program that owns them.
//
// Usage:
//   Cli cli("ulpmc-life", "--timeline FILE [options]");
//   cli.text("--timeline", "FILE", "phase script (required)", timeline);
//   cli.seed(seed);
//   cli.threads(threads);
//   cli.parse(argc, argv);
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/assert.hpp"

namespace ulpmc {

/// Strict unsigned decimal: digits only, no sign or whitespace, no
/// overflow, value in [min, max]. Returns "" on success, else the reason
/// (to follow "FLAG: " in a diagnostic).
std::string read_u64(std::string_view text, std::uint64_t min, std::uint64_t max,
                     std::uint64_t& out);

/// Strict finite double (std::from_chars, general format): no sign, no
/// whitespace, no hex, NaN or inf, no overflow, value in [min, max] — or
/// in (min, max] when `open_min`. Returns "" on success, else the reason.
std::string read_f64(std::string_view text, double min, double max, bool open_min, double& out);

class Cli {
public:
    /// Applies a flag's values; returns "" or the reason they were refused.
    using Apply = std::function<std::string(const std::vector<std::string>&)>;

    /// `synopsis` follows the program name on the usage line.
    Cli(std::string program, std::string synopsis);

    // ---- value kinds ------------------------------------------------------

    /// An unsigned integer in [min, max], stored into any unsigned type
    /// wide enough for `max`.
    template <class T>
    Cli& integer(const char* name, const char* meta, const char* help, T& out, std::uint64_t min,
                 std::uint64_t max) {
        ULPMC_EXPECTS(max <= std::numeric_limits<T>::max());
        return custom(name, meta, help, 1, [&out, min, max](const std::vector<std::string>& v) {
            std::uint64_t x = 0;
            std::string err = read_u64(v[0], min, max, x);
            if (err.empty()) out = static_cast<T>(x);
            return err;
        });
    }

    /// A finite double in [min, max], or (min, max] when `open_min`.
    Cli& real(const char* name, const char* meta, const char* help, double& out, double min,
              double max, bool open_min = false);

    /// Any string, e.g. a path.
    Cli& text(const char* name, const char* meta, const char* help, std::string& out);

    /// A switch: present sets `out`, takes no value.
    Cli& toggle(const char* name, const char* help, bool& out);

    /// One of `names`; `pick` receives the index of the one given. The
    /// placeholder, the help and the diagnostic all list `names`.
    Cli& choice(const char* name, const char* help, std::vector<std::string> names,
                std::function<void(std::size_t)> pick);

    /// An enum with `count` values 0..count-1, each known by `name_of(e)`.
    template <class E, class NameOf>
    Cli& choice(const char* name, const char* help, E& out, unsigned count, NameOf name_of) {
        std::vector<std::string> names;
        for (unsigned i = 0; i < count; ++i) names.emplace_back(name_of(static_cast<E>(i)));
        return choice(name, help, std::move(names),
                      [&out](std::size_t i) { out = static_cast<E>(i); });
    }

    /// Any flag taking `arity` values (0 for a switch), handled by `apply`.
    Cli& custom(const char* name, const char* meta, const char* help, unsigned arity,
                Apply apply);

    // ---- flags shared by every program that takes them --------------------

    /// --threads N: worker threads in [0, 1024], 0 = hardware concurrency.
    Cli& threads(unsigned& out);
    /// --seed N: any u64.
    Cli& seed(std::uint64_t& out);
    /// --json FILE: where the JSON artifact goes.
    Cli& json(std::string& out);
    /// --shard K/N: run shard K of N (0 <= K < N).
    Cli& shard(unsigned& k, unsigned& n);
    // --engine E is cluster::add_engine_flag (its names live in cluster/).

    /// Collects non-option arguments into `out`; without this call they
    /// are errors.
    Cli& positionals(std::vector<std::string>& out);

    /// True when `name` appeared on the parsed command line.
    bool given(const std::string& name) const { return given_.count(name) > 0; }

    /// The usage text generated from the table.
    std::string usage() const;

    /// Parses argv without exiting. Returns "" on success (check
    /// help_requested()) or the one-line diagnostic.
    std::string try_parse(int argc, const char* const* argv);
    bool help_requested() const { return help_; }

    /// try_parse; then --help prints usage() to stdout and exits 0, and an
    /// error prints its diagnostic to stderr and exits 2.
    void parse(int argc, const char* const* argv);

private:
    struct Flag {
        std::string name, meta, help;
        unsigned arity = 1;
        Apply apply;
    };

    std::string program_, synopsis_;
    std::vector<Flag> flags_;
    std::vector<std::string>* positionals_ = nullptr;
    std::set<std::string> given_;
    bool help_ = false;
};

} // namespace ulpmc
