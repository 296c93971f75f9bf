#include "rules.hpp"

#include <algorithm>
#include <array>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <unordered_set>

namespace pet::lint {

namespace {

[[nodiscard]] bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

[[nodiscard]] std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() &&
         (s.back() == ' ' || s.back() == '\t' || s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

/// Source lines (1-based indexing via line(n)).
class LineIndex {
 public:
  explicit LineIndex(std::string_view content) {
    std::size_t start = 0;
    for (std::size_t i = 0; i <= content.size(); ++i) {
      if (i == content.size() || content[i] == '\n') {
        lines_.push_back(content.substr(start, i - start));
        start = i + 1;
      }
    }
  }
  [[nodiscard]] std::string_view line(std::int32_t n) const {
    return n >= 1 && n <= static_cast<std::int32_t>(lines_.size())
               ? lines_[static_cast<std::size_t>(n - 1)]
               : std::string_view{};
  }

 private:
  std::vector<std::string_view> lines_;
};

// --- suppression annotations ------------------------------------------------

void parse_allow_list(std::string_view text, std::size_t open_paren,
                      std::set<std::string>& out) {
  std::size_t pos = open_paren + 1;
  const std::size_t close = text.find(')', pos);
  if (close == std::string_view::npos) return;
  std::string_view ids = text.substr(pos, close - pos);
  while (!ids.empty()) {
    const std::size_t comma = ids.find(',');
    out.emplace(trim(ids.substr(0, comma)));
    if (comma == std::string_view::npos) break;
    ids.remove_prefix(comma + 1);
  }
}

}  // namespace

Suppressions collect_suppressions(const std::vector<Token>& toks) {
  Suppressions supp;
  // Justifications often continue over several comment lines; an annotation
  // covers its whole comment run, not just the one line that holds the
  // marker. Track which lines hold comments vs. code so a run can be walked.
  std::set<std::int32_t> comment_lines;
  std::set<std::int32_t> code_lines;
  for (const Token& t : toks) {
    const auto span = static_cast<std::int32_t>(
        std::count(t.text.begin(), t.text.end(), '\n'));
    for (std::int32_t l = t.line; l <= t.line + span; ++l) {
      (t.kind == TokKind::kComment ? comment_lines : code_lines).insert(l);
    }
  }
  for (const Token& t : toks) {
    if (t.kind != TokKind::kComment) continue;
    std::string_view text = t.text;
    std::size_t pos = 0;
    while ((pos = text.find("pet-lint:", pos)) != std::string_view::npos) {
      const std::size_t after = pos + 9;
      std::string_view rest = text.substr(after);
      const std::size_t nonspace = rest.find_first_not_of(" \t");
      if (nonspace == std::string_view::npos) break;
      rest.remove_prefix(nonspace);
      std::set<std::string> ids;
      if (starts_with(rest, "allow-file(")) {
        parse_allow_list(rest, rest.find('('), ids);
        supp.file_allow.insert(ids.begin(), ids.end());
      } else if (starts_with(rest, "allow(")) {
        parse_allow_list(rest, rest.find('('), ids);
        // The annotation covers every line the comment spans, any
        // directly following comment-only lines (a continued
        // justification), and the first code line after the run
        // (annotation-above style).
        const auto span = static_cast<std::int32_t>(
            std::count(t.text.begin(), t.text.end(), '\n'));
        std::int32_t last = t.line + span;
        while (comment_lines.count(last + 1) != 0 &&
               code_lines.count(last + 1) == 0) {
          ++last;
        }
        for (std::int32_t l = t.line; l <= last + 1; ++l) {
          supp.line_allow[l].insert(ids.begin(), ids.end());
        }
      }
      pos = after;
    }
  }
  return supp;
}

namespace {

// --- token-stream helpers ---------------------------------------------------

/// Significant tokens only (comments dropped); directives kept because the
/// header-hygiene rule needs them, but code rules index around them.
class TokenView {
 public:
  explicit TokenView(const std::vector<Token>& all) {
    for (const Token& t : all) {
      if (t.kind != TokKind::kComment) toks_.push_back(&t);
    }
  }
  [[nodiscard]] std::size_t size() const { return toks_.size(); }
  [[nodiscard]] const Token& at(std::size_t i) const { return *toks_[i]; }
  [[nodiscard]] bool is_ident(std::size_t i, std::string_view text) const {
    return i < size() && at(i).kind == TokKind::kIdent && at(i).text == text;
  }
  [[nodiscard]] bool is_punct(std::size_t i, std::string_view text) const {
    return i < size() && at(i).kind == TokKind::kPunct && at(i).text == text;
  }
  /// Index of the matching closer for the opener at `i`, or size() if
  /// unbalanced.
  [[nodiscard]] std::size_t match(std::size_t i, std::string_view open,
                                  std::string_view close) const {
    int depth = 0;
    for (std::size_t j = i; j < size(); ++j) {
      if (is_punct(j, open)) ++depth;
      if (is_punct(j, close) && --depth == 0) return j;
    }
    return size();
  }

 private:
  std::vector<const Token*> toks_;
};

struct Ctx {
  const std::string& path;
  const TokenView& tv;
  const LineIndex& lines;
  const Policy& policy;
  std::vector<Finding>* out;

  void report(const std::string& rule, const Token& at,
              std::string message) const {
    out->push_back(Finding{rule, path, at.line, at.col, std::move(message),
                           std::string(trim(lines.line(at.line)))});
  }
};

[[nodiscard]] bool file_has_ident(const TokenView& tv, std::string_view name) {
  for (std::size_t i = 0; i < tv.size(); ++i) {
    if (tv.is_ident(i, name)) return true;
  }
  return false;
}

[[nodiscard]] bool file_includes(const TokenView& tv, std::string_view path) {
  for (std::size_t i = 0; i < tv.size(); ++i) {
    const Token& t = tv.at(i);
    if (t.kind == TokKind::kDirective && starts_with(trim(t.text), "#include") &&
        t.text.find(path) != std::string::npos) {
      return true;
    }
  }
  return false;
}

// --- rule: banned-api -------------------------------------------------------

/// True when a string literal is a C stdio mode string that opens for
/// writing or appending ("w", "wb", "a+", ...). Path arguments never parse
/// as a mode, so fopen(path, mode) calls with literal modes are matched
/// precisely even though the path is usually not a literal.
[[nodiscard]] bool is_write_mode(const std::string& s) {
  if (s.empty() || s.size() > 3) return false;
  bool writes = false;
  for (const char ch : s) {
    if (ch == 'w' || ch == 'a') {
      writes = true;
    } else if (ch != 'r' && ch != 'b' && ch != '+') {
      return false;
    }
  }
  return writes;
}

void rule_banned_api(const Ctx& c) {
  static const std::unordered_set<std::string> kDetAnyUse = {
      "random_device",       "system_clock", "steady_clock",
      "high_resolution_clock"};
  static const std::unordered_set<std::string> kDetCall = {
      "rand",       "srand",         "time",      "clock",
      "gettimeofday", "clock_gettime", "localtime", "gmtime",
      "drand48",    "lrand48",       "mrand48",   "rand_r"};
  static const std::unordered_set<std::string> kIoCall = {"printf", "puts",
                                                          "putchar", "vprintf"};
  const TokenView& tv = c.tv;
  for (std::size_t i = 0; i < tv.size(); ++i) {
    const Token& t = tv.at(i);
    if (t.kind != TokKind::kIdent) continue;
    const bool called = tv.is_punct(i + 1, "(");
    const bool member =
        i > 0 && (tv.is_punct(i - 1, ".") || tv.is_punct(i - 1, "->"));
    if (c.policy.banned_det) {
      if (kDetAnyUse.count(t.text) != 0) {
        c.report("banned-api", t,
                 t.text == "random_device"
                     ? "std::random_device is nondeterministic — derive a "
                       "named sim::Rng stream from the scenario seed"
                     : "wall-clock (" + t.text +
                           ") — deterministic code must read sim::Scheduler "
                           "time, not the host clock");
        continue;
      }
      if (called && !member && kDetCall.count(t.text) != 0) {
        const bool rng = t.text == "rand" || t.text == "srand" ||
                         t.text.find("rand") != std::string::npos;
        c.report("banned-api", t,
                 rng ? t.text +
                           "() is nondeterministic — draw from a named "
                           "sim::Rng stream instead"
                     : t.text +
                           "() reads the wall clock — use sim::Scheduler / "
                           "sim::Time");
        continue;
      }
    }
    if (c.policy.banned_getenv && called &&
        (t.text == "getenv" || t.text == "secure_getenv")) {
      c.report("banned-api", t,
               t.text +
                   "() is a hidden configuration channel — pass config "
                   "explicitly (env knobs live in src/testkit only)");
      continue;
    }
    if (c.policy.banned_io) {
      if (called && !member && kIoCall.count(t.text) != 0) {
        c.report("banned-api", t,
                 t.text +
                     "() writes raw stdout — use PET_LOG_* (sim/log) or a "
                     "caller-provided stream");
        continue;
      }
      if (t.text == "cout") {
        c.report("banned-api", t,
                 "std::cout writes raw stdout — use PET_LOG_* (sim/log) or a "
                 "caller-provided stream");
      }
      // Non-atomic file writes: a crash mid-write leaves a torn artifact
      // that resume logic would then trust. The audited writer itself
      // (sim/fs_atomic) is the one place allowed to open files for write.
      if (c.path != "src/sim/fs_atomic.cpp") {
        if (t.text == "ofstream") {
          c.report("banned-api", t,
                   "std::ofstream writes in place — a crash mid-write leaves "
                   "a torn file; assemble the bytes and hand them to "
                   "sim::atomic_write_file (tmp + fsync + rename)");
          continue;
        }
        if (called && (t.text == "fopen" || t.text == "freopen")) {
          const std::size_t close = tv.match(i + 1, "(", ")");
          for (std::size_t j = i + 2; j < close && close < tv.size(); ++j) {
            const Token& m = tv.at(j);
            if (m.kind == TokKind::kString && is_write_mode(m.text)) {
              c.report("banned-api", t,
                       t.text +
                           "(..., \"" + m.text +
                           "\") writes in place — a crash mid-write leaves a "
                           "torn file; use sim::atomic_write_file (tmp + "
                           "fsync + rename)");
              break;
            }
          }
          continue;
        }
      }
    }
  }
}

// --- rule: nondet-iteration -------------------------------------------------

static const std::array<std::string_view, 4> kUnorderedTypes = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset"};

/// Names of variables/members declared with an unordered container type in
/// this file.
[[nodiscard]] std::set<std::string> unordered_decl_names(const TokenView& tv) {
  std::set<std::string> names;
  for (std::size_t i = 0; i < tv.size(); ++i) {
    const Token& t = tv.at(i);
    if (t.kind != TokKind::kIdent ||
        std::find(kUnorderedTypes.begin(), kUnorderedTypes.end(), t.text) ==
            kUnorderedTypes.end() ||
        !tv.is_punct(i + 1, "<")) {
      continue;
    }
    // Skip the template argument list (angle depth; `>>` arrives as two
    // tokens so plain depth counting works).
    std::size_t j = i + 1;
    int depth = 0;
    for (; j < tv.size(); ++j) {
      if (tv.is_punct(j, "<")) ++depth;
      if (tv.is_punct(j, ">") && --depth == 0) break;
    }
    // Declarator: skip refs/pointers/cv, take the next identifier.
    for (++j; j < tv.size(); ++j) {
      const Token& d = tv.at(j);
      if (d.kind == TokKind::kPunct &&
          (d.text == "&" || d.text == "*" || d.text == ">")) {
        continue;
      }
      if (d.kind == TokKind::kIdent && d.text == "const") continue;
      if (d.kind == TokKind::kIdent) names.insert(d.text);
      break;
    }
  }
  return names;
}

void rule_nondet_iteration(const Ctx& c, const std::set<std::string>& extra) {
  static const std::array<std::string_view, 8> kSinks = {
      "RunArtifact", "EventLog",     "digest", "Digest",
      "fnv1a",       "TraceExport",  "fnv",    "chrome_trace"};
  const TokenView& tv = c.tv;
  std::set<std::string> names = unordered_decl_names(tv);
  names.insert(extra.begin(), extra.end());
  if (names.empty()) return;
  bool sink = false;
  for (const auto s : kSinks) sink = sink || file_has_ident(tv, s);
  const std::string hint =
      sink ? " in a TU that feeds artifacts/digests/trace export — iterate a "
             "sorted view, or justify order-insensitivity with a suppression"
           : " in a deterministic subsystem — iterate a sorted view, or "
             "justify order-insensitivity with a suppression";

  for (std::size_t i = 0; i < tv.size(); ++i) {
    // Range-for whose range expression mentions an unordered variable.
    if (tv.is_ident(i, "for") && tv.is_punct(i + 1, "(")) {
      const std::size_t close = tv.match(i + 1, "(", ")");
      std::size_t colon = close;
      int depth = 0;
      for (std::size_t j = i + 1; j < close; ++j) {
        if (tv.is_punct(j, "(") || tv.is_punct(j, "[")) ++depth;
        if (tv.is_punct(j, ")") || tv.is_punct(j, "]")) --depth;
        if (depth == 1 && tv.is_punct(j, ":")) {
          colon = j;
          break;
        }
      }
      // Iterating a sorted view of the container IS the sanctioned fix, so
      // a range expression that goes through sorted_keys() is exempt even
      // though it names the unordered member.
      bool sorted_view = false;
      for (std::size_t j = colon + 1; j < close; ++j) {
        sorted_view = sorted_view || tv.is_ident(j, "sorted_keys");
      }
      if (sorted_view) continue;
      for (std::size_t j = colon + 1; j < close; ++j) {
        const Token& t = tv.at(j);
        if (t.kind == TokKind::kIdent &&
            (names.count(t.text) != 0 ||
             std::find(kUnorderedTypes.begin(), kUnorderedTypes.end(),
                       t.text) != kUnorderedTypes.end())) {
          c.report("nondet-iteration", tv.at(i),
                   "range-for over unordered container '" + t.text + "'" +
                       hint);
          break;
        }
      }
      continue;
    }
    // Iterator loops: <unordered-var>.begin() / ->begin() / .cbegin().
    const Token& t = tv.at(i);
    if (t.kind == TokKind::kIdent && names.count(t.text) != 0 &&
        (tv.is_punct(i + 1, ".") || tv.is_punct(i + 1, "->")) &&
        (tv.is_ident(i + 2, "begin") || tv.is_ident(i + 2, "cbegin")) &&
        tv.is_punct(i + 3, "(")) {
      c.report("nondet-iteration", t,
               "iterator walk over unordered container '" + t.text + "'" +
                   hint);
    }
  }
}

// --- rule: unaudited-ecn ----------------------------------------------------

void rule_unaudited_ecn(const Ctx& c) {
  // The audited chain itself: Network::install_ecn -> SwitchDevice::
  // install_ecn -> EgressPort::set_ecn_config -> RedEcnMarker::set_config.
  static const std::set<std::string> kAuditedFiles = {
      "src/net/red_ecn.hpp", "src/net/switch.hpp",  "src/net/switch.cpp",
      "src/net/port.hpp",    "src/net/port.cpp",    "src/net/network.hpp",
      "src/net/network.cpp"};
  if (kAuditedFiles.count(c.path) != 0) return;
  const TokenView& tv = c.tv;
  const bool touches_marker = file_has_ident(tv, "RedEcnMarker") ||
                              file_includes(tv, "net/red_ecn.hpp");
  for (std::size_t i = 0; i < tv.size(); ++i) {
    const Token& t = tv.at(i);
    if (t.kind != TokKind::kIdent || !tv.is_punct(i + 1, "(")) continue;
    if (t.text == "set_ecn_config" || t.text == "set_ecn_config_all_ports") {
      c.report("unaudited-ecn", t,
               t.text +
                   "() bypasses the audited install_ecn() entry point (no "
                   "clamp-and-warn, no install counter) — route through "
                   "SwitchDevice/Network::install_ecn");
    } else if (t.text == "set_config" && touches_marker && i > 0 &&
               (tv.is_punct(i - 1, ".") || tv.is_punct(i - 1, "->"))) {
      c.report("unaudited-ecn", t,
               "RedEcnMarker::set_config() writes marking state directly — "
               "route through install_ecn so the write is clamped and "
               "audited");
    }
  }
}

// --- rule: hot-path-alloc ---------------------------------------------------

void rule_hot_path_alloc(const Ctx& c) {
  // The DES hot path (src/sim, src/net) is allocation-free by contract —
  // test_alloc_steady enforces zero steady-state heap traffic. std::function
  // boxes any capture past its tiny SSO, and std::deque allocates per block;
  // both reintroduce per-event allocation silently. Cold control-plane uses
  // (setup-time observers, fault plans, BFS scratch) carry explicit
  // allow() suppressions with the justification.
  const TokenView& tv = c.tv;
  for (std::size_t i = 0; i + 2 < tv.size(); ++i) {
    if (!tv.is_ident(i, "std") || !tv.is_punct(i + 1, "::")) continue;
    if (tv.is_ident(i + 2, "function")) {
      c.report("hot-path-alloc", tv.at(i + 2),
               "std::function heap-boxes captures on the event hot path — "
               "use sim::SmallCallback (inline storage, pooled slots)");
    } else if (tv.is_ident(i + 2, "deque")) {
      c.report("hot-path-alloc", tv.at(i + 2),
               "std::deque allocates per block on the packet hot path — "
               "use a flat ring buffer (see net::FifoQueue)");
    }
  }
}

// --- rule: nodiscard-chain --------------------------------------------------

[[nodiscard]] bool is_chain_api(const std::string& name) {
  return name == "set_weights" || name == "load" ||
         starts_with(name, "install_");
}

void rule_nodiscard_chain(const Ctx& c) {
  const TokenView& tv = c.tv;
  // Keywords whose presence between statement start and the call means the
  // result is consumed (or the statement is not a bare call).
  static const std::unordered_set<std::string> kConsumeIdents = {
      "return", "throw",  "co_return", "co_await", "if",     "while",
      "switch", "void",   "delete",    "new",      "sizeof", "static_cast",
      "assert", "case",   "for"};
  for (std::size_t i = 0; i < tv.size(); ++i) {
    const Token& t = tv.at(i);
    if (t.kind != TokKind::kIdent || !is_chain_api(t.text) ||
        !tv.is_punct(i + 1, "(")) {
      continue;
    }

    // Declaration check: `bool <name>(...)` must carry [[nodiscard]].
    if (i > 0 && tv.is_ident(i - 1, "bool")) {
      bool has_nodiscard = false;
      for (std::size_t back = 1; back <= 10 && back + 1 <= i; ++back) {
        const Token& b = tv.at(i - 1 - back);
        if (b.kind == TokKind::kIdent && b.text == "nodiscard") {
          has_nodiscard = true;
          break;
        }
        if (b.kind == TokKind::kPunct &&
            (b.text == ";" || b.text == "{" || b.text == "}")) {
          break;
        }
      }
      if (!has_nodiscard) {
        c.report("nodiscard-chain", t,
                 "bool-returning " + t.text +
                     "() must be [[nodiscard]] — a failed load/install must "
                     "not pass silently");
      }
      continue;
    }

    // Call-site check (bool-returning chain APIs only; install_ecn returns
    // a count that callers may legitimately drop). Requires a `.`/`->`
    // receiver so declarations (`Type load(...);`) never match.
    if (t.text != "set_weights" && t.text != "install_weights" &&
        t.text != "install_learned_weights" && t.text != "load") {
      continue;
    }
    if (i == 0 || (!tv.is_punct(i - 1, ".") && !tv.is_punct(i - 1, "->"))) {
      continue;
    }
    const std::size_t close = tv.match(i + 1, "(", ")");
    if (close >= tv.size() || !tv.is_punct(close + 1, ";")) continue;
    // Walk back to the statement start; a bare receiver chain means the
    // boolean result hits the floor.
    bool bare = true;
    for (std::size_t j = i; j-- > 0;) {
      const Token& b = tv.at(j);
      if (b.kind == TokKind::kDirective ||
          (b.kind == TokKind::kPunct &&
           (b.text == ";" || b.text == "{" || b.text == "}"))) {
        break;
      }
      const bool chain_punct =
          b.kind == TokKind::kPunct &&
          (b.text == "." || b.text == "->" || b.text == "::" ||
           b.text == "(" || b.text == ")" || b.text == "[" || b.text == "]");
      const bool chain_ident =
          b.kind == TokKind::kIdent && kConsumeIdents.count(b.text) == 0;
      if (!chain_punct && !chain_ident) {
        bare = false;
        break;
      }
      if (b.kind == TokKind::kIdent && kConsumeIdents.count(b.text) != 0) {
        bare = false;
        break;
      }
    }
    if (bare) {
      c.report("nodiscard-chain", t,
               "result of " + t.text +
                   "() is discarded — check it (failed loads/installs must "
                   "be handled, not ignored)");
    }
  }
}

// --- rule: header-hygiene ---------------------------------------------------

[[nodiscard]] std::string stem_of(const std::string& path) {
  const std::size_t slash = path.rfind('/');
  const std::size_t dot = path.rfind('.');
  const std::size_t start = slash == std::string::npos ? 0 : slash + 1;
  return path.substr(start, dot == std::string::npos ? path.size() - start
                                                     : dot - start);
}

void rule_header_hygiene(const Ctx& c, bool has_sibling_header) {
  const TokenView& tv = c.tv;
  const bool is_header = c.path.size() > 4 &&
                         c.path.compare(c.path.size() - 4, 4, ".hpp") == 0;
  const std::string stem = stem_of(c.path);
  if (is_header) {
    if (tv.size() == 0) return;
    const Token& first = tv.at(0);
    if (first.kind != TokKind::kDirective ||
        trim(first.text) != "#pragma once") {
      c.report("header-hygiene", first,
               "header must open with #pragma once (before any other code "
               "or directive)");
    }
    if (file_includes(tv, "/" + stem + ".hpp") ||
        file_includes(tv, "\"" + stem + ".hpp")) {
      c.report("header-hygiene", tv.at(0),
               "header includes itself — drop the self-include");
    }
    return;
  }
  if (!has_sibling_header) return;
  for (std::size_t i = 0; i < tv.size(); ++i) {
    const Token& t = tv.at(i);
    if (t.kind != TokKind::kDirective || !starts_with(trim(t.text), "#include"))
      continue;
    const std::string want_a = "/" + stem + ".hpp\"";
    const std::string want_b = "\"" + stem + ".hpp\"";
    if (t.text.find(want_a) == std::string::npos &&
        t.text.find(want_b) == std::string::npos) {
      c.report("header-hygiene", t,
               "TU must include its own header first (" + stem +
                   ".hpp) so the header is proven self-contained");
    }
    return;  // only the first #include matters
  }
}

}  // namespace

Policy policy_for(std::string_view relpath) {
  Policy p;
  if (starts_with(relpath, "src/")) {
    p.banned_det = true;
    p.banned_io = true;
    p.banned_getenv = true;
    p.nondet_iteration = true;
    p.unaudited_ecn = true;
    p.nodiscard_chain = true;
    p.header_hygiene = true;
    if (starts_with(relpath, "src/sim/log.")) p.banned_io = false;
    if (starts_with(relpath, "src/testkit/")) p.banned_getenv = false;
    // The DES hot path is allocation-free by contract (test_alloc_steady);
    // only the event/packet subsystems carry the container ban.
    if (starts_with(relpath, "src/sim/") || starts_with(relpath, "src/net/")) {
      p.hot_path_alloc = true;
    }
    // Cross-TU rules cover the architecture under src/ only; tests, tools
    // and bench code sit outside the layer map by design.
    p.layer_order = true;
    p.include_hygiene_v2 = true;
    p.lock_discipline = true;
    return p;
  }
  if (starts_with(relpath, "tests/")) {
    p.banned_det = true;  // tests must stay deterministic too
    p.nondet_iteration = true;
    p.nodiscard_chain = true;
    p.header_hygiene = true;
    return p;
  }
  // tools/, bench/, examples/: relaxed — hygiene and result consumption.
  p.nodiscard_chain = true;
  p.header_hygiene = true;
  return p;
}

const std::vector<std::string>& all_rule_ids() {
  static const std::vector<std::string> kIds = {
      "banned-api", "nondet-iteration", "unaudited-ecn", "nodiscard-chain",
      "header-hygiene", "hot-path-alloc", "layer-order", "include-hygiene-v2",
      "lock-discipline"};
  return kIds;
}

FileReport analyze_source(const std::string& relpath, std::string_view content,
                          const Policy& policy, bool has_sibling_header,
                          std::string_view sibling_header_content) {
  const std::vector<Token> toks = tokenize(content);
  const LineIndex lines(content);
  const Suppressions supp = collect_suppressions(toks);
  const TokenView tv(toks);

  std::vector<Finding> raw;
  Ctx c{relpath, tv, lines, policy, &raw};
  if (policy.banned_det || policy.banned_io || policy.banned_getenv) {
    rule_banned_api(c);
  }
  if (policy.nondet_iteration) {
    std::set<std::string> inherited;
    if (!sibling_header_content.empty()) {
      const std::vector<Token> header_toks = tokenize(sibling_header_content);
      inherited = unordered_decl_names(TokenView(header_toks));
    }
    rule_nondet_iteration(c, inherited);
  }
  if (policy.unaudited_ecn) rule_unaudited_ecn(c);
  if (policy.hot_path_alloc) rule_hot_path_alloc(c);
  if (policy.nodiscard_chain) rule_nodiscard_chain(c);
  if (policy.header_hygiene) rule_header_hygiene(c, has_sibling_header);

  FileReport report;
  for (Finding& f : raw) {
    if (supp.allows(f.rule, f.line)) {
      ++report.suppressed;
    } else {
      report.findings.push_back(std::move(f));
    }
  }
  std::sort(report.findings.begin(), report.findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.line, a.col, a.rule) <
                     std::tie(b.line, b.col, b.rule);
            });
  return report;
}

}  // namespace pet::lint
