// The one command-line flag parser every example and bench CLI uses.
//
// A CLI declares each flag once, in a table: its spelling and value name
// ("--cores N", "-v, --verbose"), the target it writes, an optional
// converter (range, named values) and one line of help. The parser then
// gives every CLI the same grammar:
//   * `--k v` and `--k=v` are the same; a flag declared with optional()
//     takes its value only in the `=` form (`--json`, `--json=PATH`);
//   * numbers parse strictly: the whole token must be a decimal (or
//     0x-hex) unsigned integer, or a finite number for floating targets,
//     and must fit the target's type and declared range;
//   * lists are comma-separated, empty items dropped, an empty list
//     rejected; a repeated flag replaces the earlier value;
//   * `-h`/`--help` prints the usage generated from the table, but only
//     after every other argument parsed;
//   * any error prints `<prog>: <message>` and the usage to stderr and
//     exits 2.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

namespace hwgc::cli {

/// Converts one token into `out`. Returns "" on success, else the complete
/// error message; `what` names the flag or positional in that message.
template <class T>
using Convert = std::function<std::string(const std::string& what,
                                          const std::string& token, T& out)>;

/// Strict number parses: the whole of `token` must be the number (no
/// sign for integers, no leading blank), within [lo, hi].
std::string parse_u64(const std::string& what, const std::string& token,
                      std::uint64_t& out, std::uint64_t lo, std::uint64_t hi);
std::string parse_f64(const std::string& what, const std::string& token,
                      double& out, double lo, double hi);

/// Comma-separated items of `token`, empty ones dropped.
std::vector<std::string> split_list(const std::string& token);

template <class T>
struct IsOptional : std::false_type {};
template <class T>
struct IsOptional<std::optional<T>> : std::true_type {};

/// Number within [lo, hi] (an unsigned integer or a floating type).
template <class T>
Convert<T> range(T lo, T hi) {
  return [lo, hi](const std::string& what, const std::string& token,
                  T& out) {
    std::string err;
    if constexpr (std::is_floating_point_v<T>) {
      double v = 0;
      err = parse_f64(what, token, v, lo, hi);
      if (err.empty()) out = static_cast<T>(v);
    } else {
      static_assert(std::is_unsigned_v<T>, "no signed flag targets");
      std::uint64_t v = 0;
      err = parse_u64(what, token, v, lo, hi);
      if (err.empty()) out = static_cast<T>(v);
    }
    return err;
  };
}

/// `conv` for a std::optional target: set only when the flag is given.
template <class T>
Convert<std::optional<T>> optional_of(Convert<T> conv) {
  return [conv](const std::string& what, const std::string& token,
                std::optional<T>& out) {
    T v{};
    std::string err = conv(what, token, v);
    if (err.empty()) out = v;
    return err;
  };
}

/// The default converter: strings verbatim, numbers over the whole range
/// of their type, bool as 0 or 1, std::optional<U> as U.
template <class T>
std::string convert(const std::string& what, const std::string& token,
                    T& out) {
  if constexpr (std::is_same_v<T, std::string>) {
    out = token;
    return "";
  } else if constexpr (IsOptional<T>::value) {
    using U = typename T::value_type;
    return optional_of<U>(convert<U>)(what, token, out);
  } else if constexpr (std::is_same_v<T, bool>) {
    std::uint32_t v = 0;
    std::string err = range(0u, 1u)(what, token, v);
    if (err.empty()) out = v != 0;
    return err;
  } else if constexpr (std::is_floating_point_v<T>) {
    return range<T>(-std::numeric_limits<T>::infinity(),
                    std::numeric_limits<T>::infinity())(what, token, out);
  } else {
    return range<T>(0, std::numeric_limits<T>::max())(what, token, out);
  }
}

/// A named value: one of `values`, spelled as `name(value)`.
template <class T, class Name>
Convert<T> one_of(std::vector<T> values, Name name) {
  std::string names;
  for (const T& v : values) {
    names += (names.empty() ? "" : "|") + std::string(name(v));
  }
  return [values, name, names](const std::string& what,
                               const std::string& token, T& out) {
    for (const T& v : values) {
      if (token == name(v)) {
        out = v;
        return std::string();
      }
    }
    return "unknown value \"" + token + "\" for " + what + " (need " +
           names + ")";
  };
}

/// Replaces `out` with the converted items of the comma list `token`.
template <class T>
std::string parse_list(const std::string& what, const std::string& token,
                       std::vector<T>& out, const Convert<T>& conv) {
  std::vector<T> items;
  for (const std::string& item : split_list(token)) {
    items.emplace_back();
    if (std::string err = conv(what, item, items.back()); !err.empty()) {
      return err;
    }
  }
  if (items.empty()) return "empty list for " + what;
  out = std::move(items);
  return "";
}

class Parser {
 public:
  /// Sets one target from one token; same contract as Convert.
  using Setter = std::function<std::string(const std::string& what,
                                           const std::string& token)>;

  /// `prog` prefixes every message; `synopsis` follows it in the usage.
  Parser(std::string prog, std::string synopsis);

  /// Starts a titled group of flags in the usage. With `seen` non-null,
  /// giving any flag of the group sets *seen.
  Parser& section(std::string title, bool* seen = nullptr);

  /// A switch that sets `target` to `value`.
  Parser& flag(const std::string& spec, bool& target, std::string help,
               bool value = true);
  /// A switch that runs `action` where it appears (presets).
  Parser& flag(const std::string& spec, std::function<void()> action,
               std::string help);

  /// A flag with a required value, handed to `set`.
  Parser& option(const std::string& spec, std::string help, Setter set);
  /// A flag whose value `conv` stores in `target`.
  template <class T>
  Parser& value(const std::string& spec, T& target, std::string help,
                Convert<T> conv = convert<T>) {
    return option(spec, std::move(help),
                  [&target, conv](const std::string& what,
                                  const std::string& token) {
                    return conv(what, token, target);
                  });
  }
  /// A flag whose value is a comma list of `conv` items.
  template <class T>
  Parser& list(const std::string& spec, std::vector<T>& target,
               std::string help, Convert<T> conv = convert<T>) {
    return option(spec, std::move(help),
                  [&target, conv](const std::string& what,
                                  const std::string& token) {
                    return parse_list(what, token, target, conv);
                  });
  }

  /// `--name` sets `on`; `--name=VALUE` also stores VALUE in `target`.
  Parser& optional(const std::string& spec, bool& on, std::string& target,
                   std::string help);

  /// The next non-flag argument.
  template <class T>
  Parser& positional(const std::string& spec, T& target, std::string help,
                     bool required = false) {
    return positional(spec, std::move(help), required, false,
                      [&target](const std::string& what,
                                const std::string& token) {
                        return convert(what, token, target);
                      });
  }
  /// Every remaining non-flag argument; at least one is required.
  Parser& rest(const std::string& spec, std::vector<std::string>& target,
               std::string help);

  /// Parses argv[1..argc): "" on success, else the error message. Sets
  /// help_requested() when -h/--help appeared and everything else parsed;
  /// missing positionals are then not reported.
  std::string try_parse(int argc, const char* const* argv);
  bool help_requested() const { return help_; }

  /// try_parse(), then exit 0 after printing the usage on --help, or
  /// fail() on an error.
  void parse(int argc, const char* const* argv);

  /// Prints `<prog>: <message>` and the usage to stderr; exits 2.
  [[noreturn]] void fail(const std::string& message) const;

  std::string usage() const;

 private:
  enum class Kind { kTitle, kSwitch, kValue, kOptional, kPositional };
  struct Entry {
    Kind kind;
    std::string spec{};                ///< as written in the usage
    std::string help{};
    Setter set{};                      ///< takes the value, if any
    std::function<void()> on{};        ///< runs when given
    bool required = false;             ///< positionals only
    bool repeat = false;               ///< positional absorbing the rest
    std::vector<std::string> names{};  ///< flag spellings, parsed from spec
    bool* seen = nullptr;              ///< the section's marker
  };

  Parser& add(Entry e);
  Parser& positional(const std::string& spec, std::string help,
                     bool required, bool repeat, Setter set);
  const Entry* find(const std::string& name) const;

  std::string prog_;
  std::string synopsis_;
  std::vector<Entry> entries_;
  bool* seen_ = nullptr;
  bool help_ = false;
};

}  // namespace hwgc::cli
