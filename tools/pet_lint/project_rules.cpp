#include "project_rules.hpp"

#include <algorithm>
#include <set>
#include <tuple>

namespace pet::lint {

namespace {

[[nodiscard]] bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

[[nodiscard]] bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
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

/// Source line `n` of a token stream reconstructed cheaply: the trimmed
/// text of the finding line for the baseline fingerprint. The project pass
/// does not keep raw file contents, so rebuild the line from tokens on it.
class TokenLineText {
 public:
  explicit TokenLineText(const std::vector<Token>& toks) : toks_(&toks) {}

  [[nodiscard]] std::string line(std::int32_t n) const {
    std::string out;
    for (const Token& t : *toks_) {
      if (t.line != n) continue;
      if (!out.empty()) out.push_back(' ');
      switch (t.kind) {
        case TokKind::kString: out += "\"" + t.text + "\""; break;
        case TokKind::kCharLit: out += "'" + t.text + "'"; break;
        case TokKind::kComment: out += "// " + first_line(t.text); break;
        default: out += first_line(t.text);
      }
    }
    return std::string(trim(out));
  }

 private:
  [[nodiscard]] static std::string first_line(const std::string& s) {
    const std::size_t nl = s.find('\n');
    return nl == std::string::npos ? s : s.substr(0, nl);
  }
  const std::vector<Token>* toks_;
};

struct Sink {
  const ProjectFile* file = nullptr;
  Suppressions supp;
  TokenLineText lines;
  std::vector<Finding>* out;
  std::size_t* suppressed;

  Sink(const ProjectFile& f, std::vector<Finding>* o, std::size_t* s)
      : file(&f), supp(collect_suppressions(f.toks)), lines(f.toks), out(o),
        suppressed(s) {}

  void report(const std::string& rule, std::int32_t line, std::int32_t col,
              std::string message) {
    if (supp.allows(rule, line)) {
      ++*suppressed;
      return;
    }
    out->push_back(
        Finding{rule, file->path, line, col, std::move(message), lines.line(line)});
  }
};

// --- rule: layer-order ------------------------------------------------------

void rule_layer_order(const ProjectModel& m, std::vector<Finding>* out,
                      std::size_t* suppressed) {
  for (const auto& [path, file] : m.files) {
    if (!file.policy.layer_order || !starts_with(path, "src/")) continue;
    Sink sink(file, out, suppressed);
    const GraphNode* node = m.graph.node(path);
    if (node == nullptr) continue;
    // Every src/<dir>/ must be declared in the layer map; an undeclared
    // directory is unreviewed architecture.
    if (node->layer.empty() && path.find('/', 4) != std::string::npos) {
      std::string dir(path.substr(4, path.find('/', 4) - 4));
      sink.report("layer-order", 1, 1,
                  "src/" + dir + "/ is not declared in "
                  "tools/pet_lint/layers.txt — add it to the layer map so "
                  "its place in the architecture is reviewed");
      continue;
    }
    const std::int32_t from_rank = m.layers.rank(node->layer);
    for (const IncludeEdge& e : node->includes) {
      if (e.target.empty()) continue;
      const GraphNode* tgt = m.graph.node(e.target);
      if (tgt == nullptr || tgt->layer.empty() || node->layer.empty()) continue;
      const std::int32_t to_rank = m.layers.rank(tgt->layer);
      if (to_rank > from_rank) {
        sink.report("layer-order", e.line, 1,
                    "#include \"" + e.spelled + "\" climbs the layer order: " +
                        node->layer + " (rank " + std::to_string(from_rank) +
                        ") may not depend on " + tgt->layer + " (rank " +
                        std::to_string(to_rank) +
                        ") — see tools/pet_lint/layers.txt");
      }
    }
  }
  // Cycles are findings regardless of ranks (same-rank cycles re-tangle the
  // tree just as surely). Report each cycle once, anchored at the include
  // in its first file that points into the cycle.
  for (const std::vector<std::string>& cyc : m.graph.cycles()) {
    if (cyc.size() < 2) continue;
    const auto fit = m.files.find(cyc[0]);
    if (fit == m.files.end() || !fit->second.policy.layer_order) continue;
    const GraphNode* node = m.graph.node(cyc[0]);
    std::int32_t line = 1;
    if (node != nullptr) {
      for (const IncludeEdge& e : node->includes) {
        if (e.target == cyc[1]) {
          line = e.line;
          break;
        }
      }
    }
    std::string chain;
    for (std::size_t i = 0; i < cyc.size(); ++i) {
      if (i != 0) chain += " -> ";
      chain += cyc[i];
    }
    Sink sink(fit->second, out, suppressed);
    sink.report("layer-order", line, 1,
                "include cycle: " + chain +
                    " — break the cycle (forward-declare, or move the shared "
                    "piece down a layer)");
  }
}

// --- rule: include-hygiene-v2 -----------------------------------------------

struct SymbolUse {
  const Decl* decl;
  std::int32_t line;
  std::int32_t col;
};

void rule_include_hygiene_v2(const ProjectModel& m, std::vector<Finding>* out,
                             std::size_t* suppressed) {
  for (const auto& [path, file] : m.files) {
    if (!file.policy.include_hygiene_v2 || !starts_with(path, "src/")) {
      continue;
    }
    Sink sink(file, out, suppressed);
    const GraphNode* node = m.graph.node(path);
    if (node == nullptr) continue;

    // Orphan check for headers: a header nobody includes is either dead or
    // meant to be used and wired up.
    if (ends_with(path, ".hpp")) {
      if (node->included_by.empty()) {
        sink.report("include-hygiene-v2", 1, 1,
                    "orphan header: no scanned file includes " + path +
                        " — wire it in or delete it");
      }
    }

    // Direct includes of this TU; a .cpp also inherits its own header's
    // directs (the header is included first, by the header-hygiene rule).
    std::set<std::string> direct;
    for (const IncludeEdge& e : node->includes) {
      if (!e.target.empty()) direct.insert(e.target);
    }
    std::string sibling;
    if (ends_with(path, ".cpp")) {
      sibling = path.substr(0, path.size() - 4) + ".hpp";
      if (const GraphNode* sib = m.graph.node(sibling)) {
        direct.insert(sibling);
        for (const IncludeEdge& e : sib->includes) {
          if (!e.target.empty()) direct.insert(e.target);
        }
      } else {
        sibling.clear();
      }
    }
    const std::set<std::string> closure = m.graph.closure(path);

    // Names this file defines or forward-declares don't need an include.
    std::set<std::string> local;
    for (const Decl& d : file.decls.decls) local.insert(d.name);

    std::set<std::string> reported;
    const auto check_use = [&](const Decl* d, const Token& t) {
      if (d == nullptr || !d->owner.empty()) return;  // nested: need outer
      if (d->path == path || d->path == sibling) return;
      if (local.count(d->name) != 0) return;
      if (direct.count(d->path) != 0) return;
      // Only flag symbols the TU actually reaches transitively: a same-name
      // match outside the closure is a different symbol or a build the
      // compiler would already reject.
      if (closure.count(d->path) == 0) return;
      if (!reported.insert(d->name).second) return;
      sink.report("include-hygiene-v2", t.line, t.col,
                  "uses " + d->name + " but does not include its defining "
                  "header " + d->path +
                      " directly — include what you use (transitive "
                      "includes are not a contract)");
    };

    const std::vector<Token>& toks = file.toks;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      const Token& t = toks[i];
      if (t.kind != TokKind::kIdent) continue;
      const Token* prev = i > 0 ? &toks[i - 1] : nullptr;
      const bool member_access =
          prev != nullptr && prev->kind == TokKind::kPunct &&
          (prev->text == "." || prev->text == "->");
      if (member_access) continue;
      const bool qualified = prev != nullptr &&
                             prev->kind == TokKind::kPunct &&
                             prev->text == "::";
      // Classes and macros match on the bare name; free functions only when
      // namespace-qualified (bare short names are too ambiguous for a
      // token-level match).
      check_use(m.header_index.unique_decl(t.text, DeclKind::kClass), t);
      check_use(m.header_index.unique_decl(t.text, DeclKind::kMacro), t);
      if (qualified) {
        check_use(m.header_index.unique_decl(t.text, DeclKind::kFunction), t);
      }
    }
  }
}

// --- rule: lock-discipline --------------------------------------------------

struct GuardedField {
  std::string mutex;       // last name component of the GUARDED_BY argument
  std::string decl_path;
  std::int32_t decl_line;
};

[[nodiscard]] std::string last_component(std::string_view s) {
  const std::size_t dot = s.find_last_of(".>:");
  return std::string(dot == std::string_view::npos ? s : s.substr(dot + 1));
}

/// Scan one file for accesses to guarded fields outside a lock scope on the
/// named mutex. Token-level scope tracking: a lock_guard/scoped_lock/
/// unique_lock declaration holds its mutexes until its enclosing brace
/// closes, except between `<var>.unlock()` and `<var>.lock()` on the lock
/// variable (the state follows token order, not control flow);
/// PET_REQUIRES(mu) on a function holds `mu` for the body;
/// constructor/destructor bodies are exempt (no concurrent access before
/// the object is shared).
void scan_lock_usage(const ProjectFile& file,
                     const std::map<std::string, GuardedField>& guarded,
                     const std::set<std::string>& class_names,
                     std::vector<Finding>* out, std::size_t* suppressed) {
  Sink sink(file, out, suppressed);
  std::vector<const Token*> t;
  for (const Token& tok : file.toks) {
    if (tok.kind != TokKind::kComment && tok.kind != TokKind::kDirective) {
      t.push_back(&tok);
    }
  }
  const auto is_id = [&](std::size_t i, std::string_view s) {
    return i < t.size() && t[i]->kind == TokKind::kIdent && t[i]->text == s;
  };
  const auto is_p = [&](std::size_t i, std::string_view s) {
    return i < t.size() && t[i]->kind == TokKind::kPunct && t[i]->text == s;
  };
  const auto is_ident = [&](std::size_t i) {
    return i < t.size() && t[i]->kind == TokKind::kIdent;
  };

  struct Held {
    std::string mutex;
    int depth;
    std::string var;  // the lock variable; empty for PET_REQUIRES
    bool active = true;
  };
  std::vector<Held> held;
  std::vector<std::string> pending;  // PET_REQUIRES mutexes, armed at '{'
  int depth = 0;
  int exempt_base = -1;  // ctor/dtor region; -1 = inactive
  bool exempt_entered = false;

  for (std::size_t i = 0; i < t.size(); ++i) {
    if (is_p(i, "{")) {
      ++depth;
      for (std::string& mu : pending) {
        held.push_back(Held{std::move(mu), depth, {}});
      }
      pending.clear();
      if (exempt_base >= 0 && depth == exempt_base + 1) exempt_entered = true;
      continue;
    }
    if (is_p(i, "}")) {
      --depth;
      while (!held.empty() && held.back().depth > depth) held.pop_back();
      if (exempt_base >= 0 && exempt_entered && depth <= exempt_base) {
        exempt_base = -1;
        exempt_entered = false;
      }
      continue;
    }
    if (!is_ident(i)) continue;
    const std::string& name = t[i]->text;

    // Lock declaration: [std::] lock_guard|scoped_lock|unique_lock
    // [<...>] var ( mutexes... )
    if (name == "lock_guard" || name == "scoped_lock" ||
        name == "unique_lock") {
      std::size_t j = i + 1;
      if (is_p(j, "<")) {
        int angle = 0;
        for (; j < t.size(); ++j) {
          if (is_p(j, "<")) ++angle;
          if (is_p(j, ">") && --angle == 0) {
            ++j;
            break;
          }
        }
      }
      if (is_ident(j) && is_p(j + 1, "(")) {
        const std::string& var = t[j]->text;
        int paren = 0;
        std::string arg_last;
        for (std::size_t k = j + 1; k < t.size(); ++k) {
          if (is_p(k, "(") && paren++ == 0) continue;
          if (is_p(k, ")") && --paren == 0) {
            if (!arg_last.empty()) held.push_back(Held{arg_last, depth, var});
            break;
          }
          if (paren == 1 && is_p(k, ",")) {
            if (!arg_last.empty()) held.push_back(Held{arg_last, depth, var});
            arg_last.clear();
            continue;
          }
          if (paren >= 1 && is_ident(k)) arg_last = t[k]->text;
        }
      }
      continue;
    }

    // <var>.unlock() releases and <var>.lock() retakes the mutexes of the
    // innermost lock variable of that name.
    if (is_p(i + 1, ".") && (is_id(i + 2, "unlock") || is_id(i + 2, "lock")) &&
        is_p(i + 3, "(")) {
      const bool relock = t[i + 2]->text == "lock";
      int scope = -1;
      for (auto h = held.rbegin(); h != held.rend(); ++h) {
        if (h->var != name || (scope >= 0 && h->depth != scope)) continue;
        scope = h->depth;
        h->active = relock;
      }
      if (scope >= 0) continue;
    }

    if (name == "PET_REQUIRES" && is_p(i + 1, "(")) {
      for (std::size_t k = i + 2; k < t.size() && !is_p(k, ")"); ++k) {
        if (is_ident(k)) {
          pending.push_back(t[k]->text);
          break;
        }
      }
      continue;
    }

    // Constructor / destructor signatures start an exempt region: the
    // object is not yet (or no longer) shared between threads there.
    if (class_names.count(name) != 0 && is_p(i + 1, "(")) {
      const bool dtor = i > 0 && is_p(i - 1, "~");
      const bool out_of_line =
          i >= 2 && is_p(i - 1, "::") && is_id(i - 2, name);
      const bool out_of_line_dtor =
          dtor && i >= 3 && is_p(i - 2, "::") && is_id(i - 3, name);
      bool in_class_signature = false;
      if (!dtor && !out_of_line && i > 0) {
        const Token& prev = *t[i - 1];
        in_class_signature =
            (prev.kind == TokKind::kPunct &&
             (prev.text == ";" || prev.text == "{" || prev.text == "}" ||
              prev.text == ":")) ||
            (prev.kind == TokKind::kIdent &&
             (prev.text == "explicit" || prev.text == "inline" ||
              prev.text == "constexpr" || prev.text == "public" ||
              prev.text == "private" || prev.text == "protected"));
      }
      if (out_of_line || out_of_line_dtor || (dtor && !out_of_line_dtor) ||
          in_class_signature) {
        exempt_base = depth;
        exempt_entered = false;
      }
      continue;
    }

    const auto git = guarded.find(name);
    if (git == guarded.end()) continue;
    const GuardedField& gf = git->second;
    if (gf.decl_path == file.path && gf.decl_line == t[i]->line) continue;
    if (exempt_base >= 0) continue;
    bool ok = false;
    for (const Held& h : held) ok = ok || (h.active && h.mutex == gf.mutex);
    if (!ok) {
      sink.report("lock-discipline", t[i]->line, t[i]->col,
                  "field '" + name + "' is PET_GUARDED_BY(" + gf.mutex +
                      ") but is accessed without holding '" + gf.mutex +
                      "' — take a lock_guard/scoped_lock/unique_lock on it "
                      "(or mark the enclosing function PET_REQUIRES)");
    }
  }
}

void rule_lock_discipline(const ProjectModel& m, std::vector<Finding>* out,
                          std::size_t* suppressed) {
  // Units: a .cpp with its sibling header, a headerless .cpp, or a header
  // with no sibling .cpp. Guarded-field maps and class lists are shared
  // across the unit so a field annotated in the header is enforced in the
  // TU.
  std::set<std::string> consumed_headers;
  std::vector<std::vector<const ProjectFile*>> units;
  for (const auto& [path, file] : m.files) {
    if (!ends_with(path, ".cpp") || !file.policy.lock_discipline) continue;
    std::vector<const ProjectFile*> unit{&file};
    const std::string sibling = path.substr(0, path.size() - 4) + ".hpp";
    const auto sit = m.files.find(sibling);
    if (sit != m.files.end()) {
      unit.push_back(&sit->second);
      consumed_headers.insert(sibling);
    }
    units.push_back(std::move(unit));
  }
  for (const auto& [path, file] : m.files) {
    if (!ends_with(path, ".hpp") || !file.policy.lock_discipline) continue;
    if (consumed_headers.count(path) != 0) continue;
    units.push_back({&file});
  }

  for (const auto& unit : units) {
    bool spawns = false;
    std::map<std::string, GuardedField> guarded;
    std::set<std::string> class_names;
    for (const ProjectFile* f : unit) {
      spawns = spawns || f->decls.spawns_threads;
      for (const Decl& d : f->decls.decls) {
        if (d.kind == DeclKind::kClass && !d.forward_only) {
          class_names.insert(d.name);
        }
        if (d.kind == DeclKind::kField && d.note == SyncNote::kGuardedBy) {
          guarded.emplace(d.name, GuardedField{last_component(d.note_arg),
                                               d.path, d.line});
        }
      }
    }

    // Check A: guarded accesses must hold the mutex.
    if (!guarded.empty()) {
      for (const ProjectFile* f : unit) {
        scan_lock_usage(*f, guarded, class_names, out, suppressed);
      }
    }

    // Check B: annotation completeness. A class is concurrency-bearing when
    // it owns a sync primitive in a thread-spawning unit, or once any of
    // its fields carries an annotation (partial annotation is a lie).
    std::map<std::string, std::vector<const Decl*>> fields_by_owner;
    std::map<std::string, const ProjectFile*> file_of;
    std::set<std::string> seen_fields;  // #if-guarded duplicates collapse
    for (const ProjectFile* f : unit) {
      for (const Decl& d : f->decls.decls) {
        if (d.kind != DeclKind::kField || d.owner.empty()) continue;
        if (!seen_fields.insert(f->path + "|" + d.owner + "|" + d.name)
                 .second) {
          continue;
        }
        fields_by_owner[d.owner].push_back(&d);
        file_of.emplace(d.owner + "|" + d.name, f);
      }
    }
    for (const auto& [owner, fields] : fields_by_owner) {
      bool has_sync = false;
      bool has_note = false;
      for (const Decl* d : fields) {
        has_sync = has_sync || d->sync_type;
        has_note = has_note || d->note != SyncNote::kNone;
      }
      if (!(has_note || (spawns && has_sync))) continue;
      for (const Decl* d : fields) {
        if (d->note != SyncNote::kNone || d->immutable || d->sync_type) {
          continue;
        }
        const ProjectFile* f = file_of[owner + "|" + d->name];
        Sink sink(*f, out, suppressed);
        sink.report(
            "lock-discipline", d->line, 1,
            "mutable field '" + d->name + "' of concurrency-bearing class '" +
                owner +
                "' has no sync annotation — mark it PET_GUARDED_BY(mu), "
                "PET_THREAD_CONFINED(owner), or PET_READ_SHARED "
                "(src/sim/thread_annotations.hpp)");
      }
    }
  }
}

}  // namespace

ProjectReport run_project_rules(const ProjectModel& model) {
  ProjectReport report;
  if (!model.active()) return report;
  rule_layer_order(model, &report.findings, &report.suppressed);
  rule_include_hygiene_v2(model, &report.findings, &report.suppressed);
  rule_lock_discipline(model, &report.findings, &report.suppressed);
  std::sort(report.findings.begin(), report.findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.path, a.line, a.col, a.rule) <
                     std::tie(b.path, b.line, b.col, b.rule);
            });
  return report;
}

}  // namespace pet::lint
