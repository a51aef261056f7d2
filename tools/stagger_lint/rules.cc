#include "rules.h"

#include <cstddef>

namespace stagger_lint {
namespace {

bool Contains(const std::set<std::string>& set, const std::string& key) {
  return set.count(key) > 0;
}

bool IsIdent(const Token& t, const char* text) {
  return t.kind == TokenKind::kIdentifier && t.text == text;
}
bool IsPunct(const Token& t, const char* text) {
  return t.kind == TokenKind::kPunct && t.text == text;
}

// --- token-walk helpers -------------------------------------------------

/// Index just past the `>` matching the `<` at `open` (tokens[open] must
/// be "<").  Treats ">>" as two closes.  Returns open + 1 when
/// unmatched (never loops forever).
size_t SkipTemplateArgs(const std::vector<Token>& toks, size_t open) {
  int depth = 0;
  for (size_t i = open; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokenKind::kPunct) continue;
    if (t.text == "<") ++depth;
    if (t.text == "<<") depth += 2;  // never valid in a type, but safe
    if (t.text == ">") --depth;
    if (t.text == ">>") depth -= 2;
    // Angle brackets cannot straddle these in a type position; bail so a
    // stray comparison operator cannot swallow the rest of the file.
    if (t.text == ";" || t.text == "{" || t.text == "}") return open + 1;
    if (depth <= 0) return i + 1;
  }
  return open + 1;
}

/// Index of the `)` matching the `(` at `open`, or tokens.size().
size_t MatchParen(const std::vector<Token>& toks, size_t open) {
  int depth = 0;
  for (size_t i = open; i < toks.size(); ++i) {
    if (toks[i].kind != TokenKind::kPunct) continue;
    if (toks[i].text == "(") ++depth;
    if (toks[i].text == ")" && --depth == 0) return i;
  }
  return toks.size();
}

/// Index of the `}` matching the `{` at `open`, or tokens.size().
size_t MatchBrace(const std::vector<Token>& toks, size_t open) {
  int depth = 0;
  for (size_t i = open; i < toks.size(); ++i) {
    if (toks[i].kind != TokenKind::kPunct) continue;
    if (toks[i].text == "{") ++depth;
    if (toks[i].text == "}" && --depth == 0) return i;
  }
  return toks.size();
}

// --- rule vocabularies --------------------------------------------------

const std::set<std::string>& UnorderedTypes() {
  static const std::set<std::string> kSet = {
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset"};
  return kSet;
}

const std::set<std::string>& OrderedPointerKeyTypes() {
  static const std::set<std::string> kSet = {"map", "set", "multimap",
                                             "multiset"};
  return kSet;
}

const std::set<std::string>& RandomBanned() {
  static const std::set<std::string> kSet = {"rand",    "srand",  "rand_r",
                                             "drand48", "lrand48",
                                             "random_device"};
  return kSet;
}

const std::set<std::string>& WallClockBanned() {
  static const std::set<std::string> kSet = {
      "system_clock", "steady_clock", "high_resolution_clock",
      "gettimeofday", "clock_gettime", "localtime",
      "gmtime",       "strftime"};
  return kSet;
}

const std::set<std::string>& AllocCalls() {
  static const std::set<std::string> kSet = {"make_unique", "make_shared",
                                             "malloc", "calloc", "realloc",
                                             "strdup"};
  return kSet;
}

const std::set<std::string>& GrowingMemberCalls() {
  static const std::set<std::string> kSet = {
      "push_back", "emplace_back", "push_front", "emplace_front",
      "emplace",   "resize",       "reserve",    "insert",
      "append",    "assign"};
  return kSet;
}

const std::set<std::string>& LockTypes() {
  static const std::set<std::string> kSet = {
      "mutex",       "recursive_mutex", "shared_mutex",       "timed_mutex",
      "lock_guard",  "unique_lock",     "scoped_lock",        "shared_lock",
      "Mutex",       "MutexLock",       "condition_variable"};
  return kSet;
}

const std::set<std::string>& LockMemberCalls() {
  static const std::set<std::string> kSet = {"lock", "unlock", "try_lock"};
  return kSet;
}

const std::set<std::string>& IoNames() {
  static const std::set<std::string> kSet = {
      "cout",     "cerr",     "clog",   "cin",    "printf", "fprintf",
      "vfprintf", "puts",     "fputs",  "putchar", "fopen",  "fclose",
      "fread",    "fwrite",   "fflush", "getline", "ofstream",
      "ifstream", "fstream",  "STAGGER_LOG"};
  return kSet;
}

const std::set<std::string>& CheckMacros() {
  // STAGGER_CHECK_OK is excluded: it expands its argument exactly once
  // into a local, so side effects there are well-defined.
  static const std::set<std::string> kSet = {
      "STAGGER_CHECK",    "STAGGER_CHECK_EQ", "STAGGER_CHECK_NE",
      "STAGGER_CHECK_LT", "STAGGER_CHECK_LE", "STAGGER_CHECK_GT",
      "STAGGER_CHECK_GE", "STAGGER_DCHECK",   "STAGGER_DCHECK_EQ",
      "STAGGER_DCHECK_NE", "STAGGER_DCHECK_LT", "STAGGER_DCHECK_LE",
      "STAGGER_DCHECK_GT", "STAGGER_DCHECK_GE", "STAGGER_AUDIT_VERIFY",
      "STAGGER_UNREACHABLE"};
  return kSet;
}

const std::set<std::string>& SideEffectOps() {
  static const std::set<std::string> kSet = {"++", "--", "=",  "+=", "-=",
                                             "*=", "/=", "%=", "&=", "|=",
                                             "^=", "<<=", ">>="};
  return kSet;
}

}  // namespace

const std::set<std::string>& KnownRules() {
  static const std::set<std::string> kSet = {
      "layering",
      "hot-path-alloc",
      "hot-path-lock",
      "hot-path-io",
      "hot-path-dispatch",
      "determinism-random",
      "determinism-wallclock",
      "determinism-unordered-iter",
      "determinism-pointer-key",
      "check-side-effect",
  };
  return kSet;
}

void CollectSymbols(const LexedFile& file, SymbolTable* table) {
  const std::vector<Token>& toks = file.tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokenKind::kIdentifier) continue;

    // `unordered_map<...> name` / `function<...> name` — the declared
    // name is the identifier right after the closing angle bracket.
    if ((Contains(UnorderedTypes(), t.text) || t.text == "function") &&
        i + 1 < toks.size() && IsPunct(toks[i + 1], "<")) {
      const size_t after = SkipTemplateArgs(toks, i + 1);
      if (after < toks.size() &&
          toks[after].kind == TokenKind::kIdentifier) {
        if (t.text == "function") {
          table->function_names.insert(toks[after].text);
        } else {
          table->unordered_names.insert(toks[after].text);
        }
      }
      continue;
    }

    // `virtual <ret> Name(...)` — record Name, the identifier directly
    // before the parameter list's `(`.
    if (t.text == "virtual") {
      std::string last_ident;
      for (size_t j = i + 1; j < toks.size(); ++j) {
        const Token& u = toks[j];
        if (u.kind == TokenKind::kIdentifier) {
          last_ident = u.text;
        } else if (IsPunct(u, "(")) {
          if (!last_ident.empty()) table->virtual_names.insert(last_ident);
          break;
        } else if (IsPunct(u, ";") || IsPunct(u, "{") || IsPunct(u, "}")) {
          break;
        }
      }
    }
  }
}

namespace {

// --- layering -----------------------------------------------------------

void CheckLayering(const FileContext& ctx, const LexedFile& lexed,
                   const Config& config, std::vector<Diagnostic>* diags) {
  if (!ctx.layering_checked || ctx.module.empty()) return;
  const auto it = config.allowed_deps.find(ctx.module);
  for (const Include& inc : lexed.includes) {
    if (inc.angled) continue;
    const size_t slash = inc.path.find('/');
    if (slash == std::string::npos) continue;  // not a module-form include
    const std::string target = inc.path.substr(0, slash);
    if (target == ctx.module) continue;
    if (!config.allowed_deps.count(target)) continue;  // not a module
    if (it == config.allowed_deps.end()) {
      diags->push_back({ctx.display_path, inc.line, "layering",
                        "module `" + ctx.module +
                            "` is not declared in the layering config but "
                            "includes \"" +
                            inc.path + "\""});
      continue;
    }
    if (!it->second.count(target)) {
      diags->push_back(
          {ctx.display_path, inc.line, "layering",
           "back-edge include: module `" + ctx.module +
               "` may not depend on `" + target + "` (\"" + inc.path +
               "\")"});
    }
  }
}

// --- determinism --------------------------------------------------------

void CheckDeterminism(const FileContext& ctx, const LexedFile& lexed,
                      const SymbolTable& symbols,
                      std::vector<Diagnostic>* diags) {
  const std::vector<Token>& toks = lexed.tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];

    // Pointer-keyed ordered containers: banned everywhere (iteration
    // order is address order — nondeterministic across runs).
    if (t.kind == TokenKind::kIdentifier &&
        Contains(OrderedPointerKeyTypes(), t.text) && i + 1 < toks.size() &&
        IsPunct(toks[i + 1], "<")) {
      const size_t end = SkipTemplateArgs(toks, i + 1);
      // First template argument: up to the first top-level comma.
      int depth = 0;
      bool pointer_key = false;
      for (size_t j = i + 1; j < end; ++j) {
        const Token& u = toks[j];
        if (u.kind != TokenKind::kPunct) continue;
        if (u.text == "<") ++depth;
        if (u.text == ">") --depth;
        if (u.text == ">>") depth -= 2;
        if (u.text == "," && depth == 1) break;
        if (u.text == "*") pointer_key = true;
      }
      if (pointer_key) {
        diags->push_back(
            {ctx.display_path, t.line, "determinism-pointer-key",
             "`std::" + t.text +
                 "` keyed by a pointer orders elements by address; key by "
                 "a stable id instead"});
      }
    }

    if (!ctx.deterministic) continue;

    if (t.kind == TokenKind::kIdentifier &&
        Contains(RandomBanned(), t.text)) {
      diags->push_back({ctx.display_path, t.line, "determinism-random",
                        "`" + t.text +
                            "` is ambient randomness; draw from the "
                            "experiment's seeded Random (util/rng.h)"});
      continue;
    }
    if (t.kind == TokenKind::kIdentifier &&
        (Contains(WallClockBanned(), t.text) ||
         (t.text == "time" && i + 1 < toks.size() &&
          IsPunct(toks[i + 1], "(")))) {
      diags->push_back({ctx.display_path, t.line, "determinism-wallclock",
                        "`" + t.text +
                            "` reads the wall clock; simulated time comes "
                            "from the Simulator (sim/simulator.h)"});
      continue;
    }

    // Range-for over a name declared as an unordered container.
    if (IsIdent(t, "for") && i + 1 < toks.size() &&
        IsPunct(toks[i + 1], "(")) {
      const size_t close = MatchParen(toks, i + 1);
      // Locate the range-for `:` at parenthesis depth 1 (a `;` first
      // means a classic for loop).
      size_t colon = 0;
      int depth = 0;
      int bracket = 0;
      for (size_t j = i + 1; j < close && colon == 0; ++j) {
        const Token& u = toks[j];
        if (u.kind != TokenKind::kPunct) continue;
        if (u.text == "(") ++depth;
        if (u.text == ")") --depth;
        if (u.text == "[") ++bracket;
        if (u.text == "]") --bracket;
        if (u.text == ";" && depth == 1) break;
        if (u.text == ":" && depth == 1 && bracket == 0) colon = j;
      }
      if (colon != 0) {
        std::string last_ident;
        for (size_t j = colon + 1; j < close; ++j) {
          if (toks[j].kind == TokenKind::kIdentifier) last_ident = toks[j].text;
        }
        if (!last_ident.empty() &&
            Contains(symbols.unordered_names, last_ident)) {
          diags->push_back(
              {ctx.display_path, t.line, "determinism-unordered-iter",
               "iteration over unordered container `" + last_ident +
                   "` has hash-order, not deterministic order; iterate a "
                   "sorted view or switch the container"});
        }
      }
    }
  }
}

// --- hot-path purity ----------------------------------------------------

void CheckHotPathBody(const FileContext& ctx, const std::vector<Token>& toks,
                      size_t begin, size_t end, const std::string& fn_name,
                      const Config& config, const SymbolTable& symbols,
                      std::vector<Diagnostic>* diags) {
  const std::string suffix = " in STAGGER_HOT_PATH function `" + fn_name + "`";
  for (size_t i = begin; i < end; ++i) {
    const Token& t = toks[i];
    const bool member_call =
        i > begin && i + 1 < end &&
        (IsPunct(toks[i - 1], ".") || IsPunct(toks[i - 1], "->")) &&
        IsPunct(toks[i + 1], "(");

    if (t.kind == TokenKind::kIdentifier) {
      // Heap allocation.
      if (t.text == "new") {
        diags->push_back({ctx.display_path, t.line, "hot-path-alloc",
                          "`new` allocates" + suffix});
        continue;
      }
      if (Contains(AllocCalls(), t.text) && i + 1 < end &&
          (IsPunct(toks[i + 1], "(") || IsPunct(toks[i + 1], "<"))) {
        diags->push_back({ctx.display_path, t.line, "hot-path-alloc",
                          "`" + t.text + "` allocates" + suffix});
        continue;
      }
      if (member_call && Contains(GrowingMemberCalls(), t.text)) {
        diags->push_back({ctx.display_path, t.line, "hot-path-alloc",
                          "`." + t.text +
                              "()` may grow a container" + suffix});
        continue;
      }
      // Locks.
      if (Contains(LockTypes(), t.text)) {
        diags->push_back({ctx.display_path, t.line, "hot-path-lock",
                          "`" + t.text + "` takes a lock" + suffix});
        continue;
      }
      if (member_call && Contains(LockMemberCalls(), t.text)) {
        diags->push_back({ctx.display_path, t.line, "hot-path-lock",
                          "`." + t.text + "()` takes a lock" + suffix});
        continue;
      }
      // I/O.
      if (Contains(IoNames(), t.text)) {
        diags->push_back({ctx.display_path, t.line, "hot-path-io",
                          "`" + t.text + "` performs I/O" + suffix});
        continue;
      }
      // Indirect dispatch.
      if (t.text == "dynamic_cast") {
        diags->push_back({ctx.display_path, t.line, "hot-path-dispatch",
                          "`dynamic_cast` walks the vtable" + suffix});
        continue;
      }
      // A whitelisted name sanctions calls of it and, when it names an
      // object (`listener_->OnStarted(...)`), calls of its methods.
      const bool sanctioned_receiver =
          member_call && i >= begin + 2 &&
          toks[i - 2].kind == TokenKind::kIdentifier &&
          Contains(config.dispatch_whitelist, toks[i - 2].text);
      if (i + 1 < end && IsPunct(toks[i + 1], "(") && !sanctioned_receiver &&
          !Contains(config.dispatch_whitelist, t.text)) {
        if (Contains(symbols.function_names, t.text)) {
          diags->push_back(
              {ctx.display_path, t.line, "hot-path-dispatch",
               "call through std::function `" + t.text +
                   "` is indirect dispatch" + suffix +
                   "; whitelist it in layering.txt if it is a sanctioned "
                   "interface"});
          continue;
        }
        if (Contains(symbols.virtual_names, t.text)) {
          diags->push_back(
              {ctx.display_path, t.line, "hot-path-dispatch",
               "call of virtual method `" + t.text + "`" + suffix +
                   "; whitelist it in layering.txt if it is a sanctioned "
                   "interface"});
          continue;
        }
      }
    }
    if (t.kind == TokenKind::kPunct &&
        (t.text == "->*" ||
         (t.text == "." && i + 1 < end && IsPunct(toks[i + 1], "*")))) {
      diags->push_back({ctx.display_path, t.line, "hot-path-dispatch",
                        "pointer-to-member call is indirect dispatch" +
                            suffix});
    }
  }
}

void CheckHotPaths(const FileContext& ctx, const LexedFile& lexed,
                   const Config& config, const SymbolTable& symbols,
                   std::vector<Diagnostic>* diags) {
  const std::vector<Token>& toks = lexed.tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (!IsIdent(toks[i], "STAGGER_HOT_PATH")) continue;
    // Find the function name (last identifier before the parameter
    // list) and the body's opening brace.  A `;` first means this is a
    // pure declaration: the definition elsewhere carries its own tag.
    std::string fn_name = "?";
    size_t body_open = 0;
    for (size_t j = i + 1; j < toks.size(); ++j) {
      const Token& u = toks[j];
      if (u.kind == TokenKind::kIdentifier) {
        if (j + 1 < toks.size() && IsPunct(toks[j + 1], "(") &&
            fn_name == "?") {
          fn_name = u.text;
        }
        continue;
      }
      if (IsPunct(u, "(")) {
        j = MatchParen(toks, j);
        continue;
      }
      if (IsPunct(u, ";")) break;
      if (IsPunct(u, "{")) {
        body_open = j;
        break;
      }
    }
    if (body_open == 0) continue;
    const size_t body_close = MatchBrace(toks, body_open);
    CheckHotPathBody(ctx, toks, body_open + 1, body_close, fn_name, config,
                     symbols, diags);
    i = body_open;  // bodies of nested tags (none in practice) re-scan
  }
}

// --- CHECK-macro side effects -------------------------------------------

void CheckCheckMacros(const FileContext& ctx, const LexedFile& lexed,
                      std::vector<Diagnostic>* diags) {
  const std::vector<Token>& toks = lexed.tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokenKind::kIdentifier ||
        !Contains(CheckMacros(), toks[i].text)) {
      continue;
    }
    if (i + 1 >= toks.size() || !IsPunct(toks[i + 1], "(")) continue;
    const size_t close = MatchParen(toks, i + 1);
    for (size_t j = i + 2; j < close; ++j) {
      const Token& u = toks[j];
      if (u.kind != TokenKind::kPunct ||
          !Contains(SideEffectOps(), u.text)) {
        continue;
      }
      // `[=]` is a lambda capture default, not an assignment.
      if (u.text == "=" && j > 0 && IsPunct(toks[j - 1], "[")) continue;
      diags->push_back(
          {ctx.display_path, u.line, "check-side-effect",
           "side effect `" + u.text + "` inside " + toks[i].text +
               " argument; checks may be compiled out or evaluate their "
               "operands twice"});
    }
    i = close;
  }
}

}  // namespace

void CheckFile(const FileContext& ctx, const LexedFile& lexed,
               const Config& config, const SymbolTable& symbols,
               std::vector<Diagnostic>* diags) {
  CheckLayering(ctx, lexed, config, diags);
  CheckDeterminism(ctx, lexed, symbols, diags);
  CheckHotPaths(ctx, lexed, config, symbols, diags);
  CheckCheckMacros(ctx, lexed, diags);
}

}  // namespace stagger_lint
