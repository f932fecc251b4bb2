#include "common/cli.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <sstream>

namespace ulpmc {

namespace {

std::string quoted(std::string_view text) { return "'" + std::string(text) + "'"; }

template <class T>
std::string range_text(T min, T max, bool open_min = false) {
    std::ostringstream os;
    os << (open_min ? "(" : "[") << min << ", " << max << "]";
    return os.str();
}

/// "a, b or c"
std::string list_text(const std::vector<std::string>& names) {
    std::string s;
    for (std::size_t i = 0; i < names.size(); ++i) {
        if (i > 0) s += i + 1 == names.size() ? " or " : ", ";
        s += names[i];
    }
    return s;
}

} // namespace

std::string read_u64(std::string_view text, std::uint64_t min, std::uint64_t max,
                     std::uint64_t& out) {
    std::uint64_t v = 0;
    const char* end = text.data() + text.size();
    const auto [p, ec] = std::from_chars(text.data(), end, v);
    if (ec == std::errc::invalid_argument || p != end)
        return quoted(text) + " is not an unsigned integer";
    if (ec == std::errc::result_out_of_range || v < min || v > max)
        return quoted(text) + " out of range " + range_text(min, max);
    out = v;
    return {};
}

std::string read_f64(std::string_view text, double min, double max, bool open_min, double& out) {
    double v = 0;
    const char* end = text.data() + text.size();
    // from_chars takes a leading '-' for doubles; every flag here is
    // non-negative, and a sign is refused like any other decoration.
    const auto [p, ec] = text.empty() || text[0] == '-'
                             ? std::from_chars_result{text.data(), std::errc::invalid_argument}
                             : std::from_chars(text.data(), end, v);
    if (ec == std::errc::invalid_argument || p != end || (ec == std::errc{} && !std::isfinite(v)))
        return quoted(text) + " is not a finite unsigned number";
    if (ec == std::errc::result_out_of_range || v < min || v > max || (open_min && v == min))
        return quoted(text) + " out of range " + range_text(min, max, open_min);
    out = v;
    return {};
}

Cli::Cli(std::string program, std::string synopsis)
    : program_(std::move(program)), synopsis_(std::move(synopsis)) {}

Cli& Cli::custom(const char* name, const char* meta, const char* help, unsigned arity,
                 Apply apply) {
    for (const Flag& f : flags_) ULPMC_EXPECTS(f.name != name);
    flags_.push_back({name, meta, help, arity, std::move(apply)});
    return *this;
}

Cli& Cli::real(const char* name, const char* meta, const char* help, double& out, double min,
               double max, bool open_min) {
    return custom(name, meta, help, 1, [&out, min, max, open_min](const auto& v) {
        return read_f64(v[0], min, max, open_min, out);
    });
}

Cli& Cli::text(const char* name, const char* meta, const char* help, std::string& out) {
    return custom(name, meta, help, 1, [&out](const auto& v) {
        out = v[0];
        return std::string();
    });
}

Cli& Cli::toggle(const char* name, const char* help, bool& out) {
    return custom(name, "", help, 0, [&out](const auto&) {
        out = true;
        return std::string();
    });
}

Cli& Cli::choice(const char* name, const char* help, std::vector<std::string> names,
                 std::function<void(std::size_t)> pick) {
    std::string meta;
    for (const std::string& n : names) meta += (meta.empty() ? "" : "|") + n;
    return custom(name, meta.c_str(), help, 1,
                  [names = std::move(names), pick = std::move(pick)](const auto& v) {
                      for (std::size_t i = 0; i < names.size(); ++i) {
                          if (names[i] == v[0]) {
                              pick(i);
                              return std::string();
                          }
                      }
                      return "unknown value " + quoted(v[0]) + " (expected " +
                             list_text(names) + ")";
                  });
}

Cli& Cli::threads(unsigned& out) {
    return integer("--threads", "N", "worker threads, 0 = hardware", out, 0, 1024);
}

Cli& Cli::seed(std::uint64_t& out) {
    return integer("--seed", "N", "master seed", out, 0, ~0ull);
}

Cli& Cli::json(std::string& out) {
    return text("--json", "FILE", "write the JSON artifact to FILE", out);
}

Cli& Cli::shard(unsigned& k, unsigned& n) {
    return custom("--shard", "K/N", "run shard K of N (0 <= K < N)", 1,
                  [&k, &n](const auto& v) {
                      const std::string& s = v[0];
                      const auto slash = s.find('/');
                      std::uint64_t uk = 0, un = 0;
                      const std::string_view sv(s);
                      if (slash == std::string::npos ||
                          !read_u64(sv.substr(0, slash), 0, ~0u, uk).empty() ||
                          !read_u64(sv.substr(slash + 1), 1, ~0u, un).empty() || uk >= un)
                          return "expected K/N with 0 <= K < N, got " + quoted(s);
                      k = static_cast<unsigned>(uk);
                      n = static_cast<unsigned>(un);
                      return std::string();
                  });
}

Cli& Cli::positionals(std::vector<std::string>& out) {
    positionals_ = &out;
    return *this;
}

std::string Cli::usage() const {
    std::size_t width = 10; // "-h, --help"
    for (const Flag& f : flags_) width = std::max(width, f.name.size() + 1 + f.meta.size());
    std::ostringstream os;
    os << "usage: " << program_ << ' ' << synopsis_ << "\n\noptions:\n";
    const auto row = [&](const std::string& left, const std::string& help) {
        os << "  " << left << std::string(width + 2 - left.size(), ' ') << help << '\n';
    };
    for (const Flag& f : flags_) row(f.meta.empty() ? f.name : f.name + ' ' + f.meta, f.help);
    row("-h, --help", "print this help and exit");
    return os.str();
}

std::string Cli::try_parse(int argc, const char* const* argv) {
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.size() < 2 || arg[0] != '-') {
            if (!positionals_) return quoted(arg) + ": unexpected argument (see --help)";
            positionals_->push_back(arg);
            continue;
        }
        if (arg == "--help" || arg == "-h") {
            help_ = true;
            return {};
        }
        const Flag* flag = nullptr;
        for (const Flag& f : flags_)
            if (f.name == arg) flag = &f;
        if (!flag) return arg + ": unknown option (see --help)";
        if (!given_.insert(arg).second) return arg + ": duplicate option";
        if (static_cast<unsigned>(argc - 1 - i) < flag->arity)
            return arg + " requires " + flag->meta;
        const std::vector<std::string> values(argv + i + 1, argv + i + 1 + flag->arity);
        i += static_cast<int>(flag->arity);
        if (std::string err = flag->apply(values); !err.empty()) return arg + ": " + err;
    }
    return {};
}

void Cli::parse(int argc, const char* const* argv) {
    const std::string err = try_parse(argc, argv);
    if (!err.empty()) {
        std::cerr << err << '\n';
        std::exit(2);
    }
    if (help_) {
        std::cout << usage();
        std::exit(0);
    }
}

} // namespace ulpmc
