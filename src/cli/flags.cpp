#include "cli/flags.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace hwgc::cli {

namespace {

/// Help text starts in this column of the usage.
constexpr std::size_t kHelpColumn = 26;

std::string fmt_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

std::string out_of_range(const std::string& what, const std::string& lo,
                         const std::string& hi) {
  return what + " must be in [" + lo + ", " + hi + "]";
}

}  // namespace

std::string parse_u64(const std::string& what, const std::string& token,
                      std::uint64_t& out, std::uint64_t lo, std::uint64_t hi) {
  const bool hex = token.size() > 2 && token[0] == '0' &&
                   (token[1] == 'x' || token[1] == 'X');
  const char* digits = token.c_str() + (hex ? 2 : 0);
  const auto first = static_cast<unsigned char>(*digits);
  errno = 0;
  char* end = nullptr;
  const unsigned long long v =
      std::strtoull(digits, &end, hex ? 16 : 10);
  if (!(hex ? std::isxdigit(first) : std::isdigit(first)) || *end != '\0') {
    return "malformed value for " + what + " (need an unsigned integer)";
  }
  if (errno == ERANGE || v < lo || v > hi) {
    return out_of_range(what, std::to_string(lo), std::to_string(hi));
  }
  out = v;
  return "";
}

std::string parse_f64(const std::string& what, const std::string& token,
                      double& out, double lo, double hi) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(token.c_str(), &end);
  if (token.empty() || std::isspace(static_cast<unsigned char>(token[0])) ||
      *end != '\0' || errno == ERANGE || !std::isfinite(v)) {
    return "malformed value for " + what + " (need a number)";
  }
  if (v < lo || v > hi) {
    return out_of_range(what, fmt_double(lo), fmt_double(hi));
  }
  out = v;
  return "";
}

std::vector<std::string> split_list(const std::string& token) {
  std::vector<std::string> items;
  std::size_t start = 0;
  while (start <= token.size()) {
    std::size_t comma = token.find(',', start);
    if (comma == std::string::npos) comma = token.size();
    if (comma > start) items.push_back(token.substr(start, comma - start));
    start = comma + 1;
  }
  return items;
}

Parser::Parser(std::string prog, std::string synopsis)
    : prog_(std::move(prog)), synopsis_(std::move(synopsis)) {}

Parser& Parser::add(Entry e) {
  // Spellings lead the spec ("-v, --verbose", "--cores N",
  // "--json[=PATH]"); the value name follows.
  std::size_t pos = 0;
  while (e.kind != Kind::kPositional && pos < e.spec.size() &&
         e.spec[pos] == '-') {
    const std::size_t end = e.spec.find_first_of(", [=", pos);
    e.names.push_back(e.spec.substr(pos, end - pos));
    pos = e.spec.find('-', end);
    if (end == std::string::npos || e.spec[end] != ',') break;
  }
  e.seen = seen_;
  entries_.push_back(std::move(e));
  return *this;
}

Parser& Parser::section(std::string title, bool* seen) {
  seen_ = seen;
  return add({.kind = Kind::kTitle, .help = std::move(title)});
}

Parser& Parser::flag(const std::string& spec, bool& target, std::string help,
                     bool value) {
  return flag(spec, [&target, value] { target = value; }, std::move(help));
}

Parser& Parser::flag(const std::string& spec, std::function<void()> action,
                     std::string help) {
  return add({.kind = Kind::kSwitch, .spec = spec, .help = std::move(help),
              .on = std::move(action)});
}

Parser& Parser::option(const std::string& spec, std::string help, Setter set) {
  return add({.kind = Kind::kValue, .spec = spec, .help = std::move(help),
              .set = std::move(set)});
}

Parser& Parser::optional(const std::string& spec, bool& on,
                         std::string& target, std::string help) {
  return add({.kind = Kind::kOptional, .spec = spec, .help = std::move(help),
              .set = [&target](const std::string&, const std::string& v) {
                target = v;
                return std::string();
              },
              .on = [&on] { on = true; }});
}

Parser& Parser::positional(const std::string& spec, std::string help,
                           bool required, bool repeat, Setter set) {
  return add({.kind = Kind::kPositional, .spec = spec, .help = std::move(help),
              .set = std::move(set), .required = required, .repeat = repeat});
}

Parser& Parser::rest(const std::string& spec, std::vector<std::string>& target,
                     std::string help) {
  return positional(spec, std::move(help), true, true,
                    [&target](const std::string&, const std::string& v) {
                      target.push_back(v);
                      return std::string();
                    });
}

const Parser::Entry* Parser::find(const std::string& name) const {
  for (const Entry& e : entries_) {
    for (const std::string& n : e.names) {
      if (n == name) return &e;
    }
  }
  return nullptr;
}

std::string Parser::try_parse(int argc, const char* const* argv) {
  std::vector<const Entry*> positionals;
  for (const Entry& e : entries_) {
    if (e.kind == Kind::kPositional) positionals.push_back(&e);
  }
  std::size_t pos = 0;        // positional being filled
  bool pos_filled = false;    // ...and whether a repeating one has a value
  bool help = false;
  help_ = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "-h" || arg == "--help") {
      help = true;
      continue;
    }
    if (arg.size() < 2 || arg[0] != '-') {
      if (pos == positionals.size()) return "unexpected argument: " + arg;
      const Entry& p = *positionals[pos];
      if (arg.empty()) return "empty value for " + p.spec;
      if (std::string err = p.set(p.spec, arg); !err.empty()) return err;
      pos_filled = p.repeat;
      if (!p.repeat) ++pos;
      continue;
    }
    const std::size_t eq = arg.find('=');
    const std::string name = arg.substr(0, eq);
    const Entry* e = find(name);
    if (e == nullptr) return "unknown option: " + name;
    std::string token;
    if (eq != std::string::npos) {
      if (e->kind == Kind::kSwitch) return "option " + name + " takes no value";
      token = arg.substr(eq + 1);
    } else if (e->kind == Kind::kValue) {
      if (i + 1 == argc) return "missing value for " + name;
      token = argv[++i];
    }
    if (e->on) e->on();
    if (e->set && (eq != std::string::npos || e->kind == Kind::kValue)) {
      if (token.empty()) return "empty value for " + name;
      if (std::string err = e->set(name, token); !err.empty()) return err;
    }
    if (e->seen != nullptr) *e->seen = true;
  }
  help_ = help;
  if (help) return "";
  for (std::size_t k = pos; k < positionals.size(); ++k) {
    if (positionals[k]->required && !(k == pos && pos_filled)) {
      return "missing " + positionals[k]->spec;
    }
  }
  return "";
}

void Parser::parse(int argc, const char* const* argv) {
  if (const std::string err = try_parse(argc, argv); !err.empty()) fail(err);
  if (help_) {
    std::fputs(usage().c_str(), stdout);
    std::exit(0);
  }
}

void Parser::fail(const std::string& message) const {
  std::fprintf(stderr, "%s: %s\n%s", prog_.c_str(), message.c_str(),
               usage().c_str());
  std::exit(2);
}

std::string Parser::usage() const {
  std::string out = "usage: " + prog_ + " " + synopsis_ + "\n";
  const auto row = [&out](const std::string& spec, const std::string& help) {
    std::string line = "  " + spec;
    if (line.size() < kHelpColumn) {
      line.resize(kHelpColumn, ' ');
    } else {
      line += "\n" + std::string(kHelpColumn, ' ');
    }
    for (const char c : help) {
      line += c;
      if (c == '\n') line.append(kHelpColumn, ' ');
    }
    out += line + "\n";
  };
  row("-h, --help", "print this help and exit");
  for (const Entry& e : entries_) {
    if (e.kind == Kind::kTitle) {
      out += e.help + "\n";
    } else {
      row(e.spec, e.help);
    }
  }
  return out;
}

}  // namespace hwgc::cli
