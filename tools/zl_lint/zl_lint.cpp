// zl-lint — the repository's secret-hygiene checker.
//
// A self-contained token-level static analyzer for the rules that generic
// linters cannot know about this codebase:
//
//   insecure-rng      randomness outside zl::Rng (std engines, rand(),
//                     direct /dev/urandom reads, #include <random>)
//   secret-memcmp     memcmp / operator== on secret-tagged types (digest and
//                     key comparison must route through zl::ct_equal)
//   secret-zeroize    every type on the secret allowlist must have a
//                     destructor that wipes (secure_zero / zeroize)
//   nondet-iteration  iteration over unordered containers inside src/chain
//                     (consensus-visible order must be deterministic)
//   naked-new         raw new / delete (the codebase is RAII-only)
//   textbook-pairing  pairing()/pairing_product() calls outside src/ec that
//                     bypass the prepared (G2Prepared) fast path
//   raw-file-io       fopen / std::ofstream / open(2) in src/ outside
//                     src/store — durable bytes must go through the Vfs so
//                     crash-consistency (and FaultVfs testing) stays real
//   unchecked-allocate  b.witness(...) in circuit-layer code (src/snark/
//                     gadgets, src/zebralancer, src/auth) with no enforce*
//                     constraint later in the same function — the classic
//                     under-constrained-wire bug shape the circuit auditor
//                     (tools/circuit_audit) hunts dynamically
//   naked-mutex       a raw std::mutex member in src/ (must be a ranked
//                     zl::OrderedMutex), or an OrderedMutex that no
//                     ZL_GUARDED_BY / ZL_REQUIRES / ZL_ACQUIRE annotation in
//                     the file ever names — an unannotated lock guards
//                     nothing the clang thread-safety analysis can check
//   naked-unlock      manual .lock()/.unlock() member calls in src/ outside
//                     common/mutex.h — all acquisition is RAII
//                     (zl::MutexLock / zl::MutexUnlock), so no early return
//                     or exception can leak a held lock
//   atomic-rmw-race   x.store(... x.load ...) — a read-modify-write split
//                     into separate atomic load and store races with
//                     concurrent writers; use fetch_add / exchange /
//                     compare_exchange
//   naked-timing      direct steady_clock/high_resolution_clock::now() in
//                     src/ outside src/obs — production timing goes through
//                     the obs API (ZL_TRACE_SPAN / ZL_OBS_SCOPED_LATENCY_US
//                     / obs::monotonic_ns) so it aggregates, exports, and
//                     compiles out under ZL_OBS=OFF
//   unchecked-length  hand-rolled `off + len > buf.size()` bound arithmetic
//                     in src/ outside crypto/bytes.* — the sum can wrap; all
//                     wire decoding goes through zl::ByteReader, whose
//                     checked reads are overflow-safe by construction
//   unbounded-resize  resize()/reserve() sized by a wire-derived length
//                     (a value read via .u32()/.u64()) — a 4-byte length
//                     prefix must never size an allocation directly; bound
//                     it first with ByteReader::count(cap) or frame(cap)
//
// Suppression: append `// zl-lint: allow(<rule>[, <rule>...])` (or
// `allow(all)`) on the offending line or the line directly above it. Every
// suppression is a reviewed, documented exception — the escape hatch exists
// so the gate can be strict by default.
//
// Usage: zl_lint <path>... [--json <report>] [--list-rules]
// Exit:  0 clean, 1 findings, 2 usage/IO error.
//
// The tokenizer strips comments, strings and preprocessor directives (except
// #include, which is recorded), so rules match code, not prose. This is a
// heuristic tool: it aims for zero false positives on this codebase and
// "good enough" recall, not full C++ parsing.

#include <algorithm>
#include <cctype>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Tokenizer

enum class TokKind { Identifier, Number, Punct, String, CharLit };

struct Token {
  TokKind kind;
  std::string text;
  int line;
  int col;  // 1-based column of the token's first character
};

struct IncludeDirective {
  std::string header;
  int line;
};

struct FileUnit {
  std::string path;                             // as reported to the user
  std::vector<Token> toks;
  std::map<int, std::set<std::string>> allows;  // line -> suppressed rules
  std::vector<IncludeDirective> includes;
  bool in_chain = false;                        // under src/chain
  bool is_rng = false;                          // crypto/rng.{h,cpp}
  bool in_ec = false;                           // under src/ec
  bool in_src = false;                          // under src/
  bool in_store = false;                        // under src/store
  bool in_obs = false;                          // under src/obs (the timing chokepoint)
  bool in_circuit_layer = false;                // gadget/circuit-building code
  bool is_mutex_chokepoint = false;             // common/mutex.h itself
  bool is_bytes_chokepoint = false;             // crypto/bytes.{h,cpp}: the one
                                                // sanctioned home of raw cursor math
};

struct Finding {
  std::string path;
  int line;
  int col;
  std::string rule;
  std::string message;
};

bool ident_start(char c) { return std::isalpha(static_cast<unsigned char>(c)) || c == '_'; }
bool ident_char(char c) { return std::isalnum(static_cast<unsigned char>(c)) || c == '_'; }

// Parse `zl-lint: allow(a, b)` directives out of a comment's text.
void record_allows(FileUnit& unit, const std::string& comment, int line) {
  const std::string tag = "zl-lint:";
  std::size_t pos = comment.find(tag);
  while (pos != std::string::npos) {
    std::size_t open = comment.find('(', pos);
    const std::size_t allow_kw = comment.find("allow", pos);
    if (open == std::string::npos || allow_kw == std::string::npos || allow_kw > open) break;
    const std::size_t close = comment.find(')', open);
    if (close == std::string::npos) break;
    std::string rules = comment.substr(open + 1, close - open - 1);
    std::string cur;
    std::istringstream ss(rules);
    while (std::getline(ss, cur, ',')) {
      cur.erase(std::remove_if(cur.begin(), cur.end(),
                               [](char c) { return std::isspace(static_cast<unsigned char>(c)); }),
                cur.end());
      if (!cur.empty()) unit.allows[line].insert(cur);
    }
    pos = comment.find(tag, close);
  }
}

// The multi-character punctuators the rules care about distinguishing
// (mainly `::` vs `:` for range-for detection and `>>` for template depth).
const char* kMultiPunct[] = {"->*", "<<=", ">>=", "...", "::", "->", "==", "!=", "<=",
                             ">=",  "&&", "||", "<<", ">>", "+=", "-=", "*=", "/=",
                             "%=",  "&=", "|=", "^=", "++", "--"};

void tokenize(FileUnit& unit, const std::string& src) {
  std::size_t i = 0;
  int line = 1;
  std::size_t line_start = 0;  // index of the current line's first character
  const std::size_t n = src.size();
  bool at_line_start = true;  // only whitespace so far on this line

  auto newline = [&](std::size_t nl_index) {
    ++line;
    line_start = nl_index + 1;
    at_line_start = true;
  };

  while (i < n) {
    const char c = src[i];
    if (c == '\n') {
      newline(i);
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // Line comment.
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      std::size_t end = src.find('\n', i);
      if (end == std::string::npos) end = n;
      record_allows(unit, src.substr(i, end - i), line);
      i = end;
      continue;
    }
    // Block comment.
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      const std::size_t end = src.find("*/", i + 2);
      const std::size_t stop = (end == std::string::npos) ? n : end + 2;
      const std::string body = src.substr(i, stop - i);
      record_allows(unit, body, line);
      for (std::size_t j = i; j < stop; ++j) {
        if (src[j] == '\n') {
          ++line;
          line_start = j + 1;
        }
      }
      i = stop;
      continue;
    }
    // Preprocessor directive: record #include, swallow the rest.
    if (c == '#' && at_line_start) {
      std::size_t j = i + 1;
      while (j < n && (src[j] == ' ' || src[j] == '\t')) ++j;
      std::size_t kw_end = j;
      while (kw_end < n && ident_char(src[kw_end])) ++kw_end;
      const std::string kw = src.substr(j, kw_end - j);
      // Find the directive's end (honoring backslash continuations).
      std::size_t end = i;
      for (;;) {
        std::size_t nl = src.find('\n', end);
        if (nl == std::string::npos) {
          end = n;
          break;
        }
        std::size_t back = nl;
        while (back > end && (src[back - 1] == ' ' || src[back - 1] == '\t')) --back;
        if (back > end && src[back - 1] == '\\') {
          end = nl + 1;
          ++line;
          line_start = nl + 1;
          continue;
        }
        end = nl;
        break;
      }
      if (kw == "include") {
        std::size_t open = src.find_first_of("<\"", kw_end);
        if (open != std::string::npos && open < end) {
          const char close_ch = (src[open] == '<') ? '>' : '"';
          const std::size_t close = src.find(close_ch, open + 1);
          if (close != std::string::npos && close < end) {
            unit.includes.push_back({src.substr(open + 1, close - open - 1), line});
          }
        }
      }
      i = end;
      continue;
    }
    at_line_start = false;
    // Column of the token starting at i (multi-line literals keep their
    // start column paired with their recorded end line; close enough for a
    // heuristic tool, and no rule reports inside them anyway).
    const int col = static_cast<int>(i - line_start) + 1;
    // Raw string literal (skip; contents are not code).
    if (c == 'R' && i + 1 < n && src[i + 1] == '"') {
      const std::size_t paren = src.find('(', i + 2);
      if (paren != std::string::npos) {
        const std::string delim = ")" + src.substr(i + 2, paren - i - 2) + "\"";
        const std::size_t end = src.find(delim, paren + 1);
        const std::size_t stop = (end == std::string::npos) ? n : end + delim.size();
        for (std::size_t j = i; j < stop; ++j) {
          if (src[j] == '\n') {
            ++line;
            line_start = j + 1;
          }
        }
        unit.toks.push_back({TokKind::String, "", line, col});
        i = stop;
        continue;
      }
    }
    // String literal.
    if (c == '"') {
      std::size_t j = i + 1;
      std::string text;
      while (j < n && src[j] != '"') {
        if (src[j] == '\\' && j + 1 < n) {
          text.push_back(src[j + 1]);
          j += 2;
          continue;
        }
        if (src[j] == '\n') {
          ++line;
          line_start = j + 1;
        }
        text.push_back(src[j]);
        ++j;
      }
      unit.toks.push_back({TokKind::String, text, line, col});
      i = (j < n) ? j + 1 : n;
      continue;
    }
    // Char literal.
    if (c == '\'') {
      std::size_t j = i + 1;
      while (j < n && src[j] != '\'') {
        if (src[j] == '\\' && j + 1 < n) {
          j += 2;
          continue;
        }
        ++j;
      }
      unit.toks.push_back({TokKind::CharLit, src.substr(i, j + 1 - i), line, col});
      i = (j < n) ? j + 1 : n;
      continue;
    }
    // Identifier / keyword.
    if (ident_start(c)) {
      std::size_t j = i + 1;
      while (j < n && ident_char(src[j])) ++j;
      unit.toks.push_back({TokKind::Identifier, src.substr(i, j - i), line, col});
      i = j;
      continue;
    }
    // Number (including hex and digit separators).
    if (std::isdigit(static_cast<unsigned char>(c))) {
      std::size_t j = i + 1;
      while (j < n && (ident_char(src[j]) || src[j] == '\'' ||
                       ((src[j] == '+' || src[j] == '-') && (src[j - 1] == 'e' || src[j - 1] == 'E')))) {
        ++j;
      }
      unit.toks.push_back({TokKind::Number, src.substr(i, j - i), line, col});
      i = j;
      continue;
    }
    // Punctuation, longest match first.
    std::string punct(1, c);
    for (const char* mp : kMultiPunct) {
      const std::size_t len = std::strlen(mp);
      if (src.compare(i, len, mp) == 0) {
        punct = mp;
        break;
      }
    }
    unit.toks.push_back({TokKind::Punct, punct, line, col});
    i += punct.size();
  }
}

// ---------------------------------------------------------------------------
// Token-walk helpers

constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

/// Index of the `)` matching toks[open] == "(", or kNpos.
std::size_t match_paren(const std::vector<Token>& t, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < t.size(); ++i) {
    if (t[i].kind != TokKind::Punct) continue;
    if (t[i].text == "(") ++depth;
    if (t[i].text == ")" && --depth == 0) return i;
  }
  return kNpos;
}

/// Index of the `}` matching toks[open] == "{", or kNpos.
std::size_t match_brace(const std::vector<Token>& t, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < t.size(); ++i) {
    if (t[i].kind != TokKind::Punct) continue;
    if (t[i].text == "{") ++depth;
    if (t[i].text == "}" && --depth == 0) return i;
  }
  return kNpos;
}

/// Index just past the `>` closing the template argument list whose `<` is at
/// toks[open]; treats `<<`/`>>` as two brackets. Returns kNpos on failure.
std::size_t match_angle(const std::vector<Token>& t, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < t.size(); ++i) {
    if (t[i].kind != TokKind::Punct) continue;
    if (t[i].text == "<") ++depth;
    if (t[i].text == "<<") depth += 2;
    if (t[i].text == ">") {
      if (--depth == 0) return i;
    }
    if (t[i].text == ">>") {
      depth -= 2;
      if (depth <= 0) return i;
    }
    if (t[i].text == ";") return kNpos;  // statement boundary: not a template
  }
  return kNpos;
}

// ---------------------------------------------------------------------------
// Rule definitions

struct Rule {
  const char* name;
  const char* summary;
};

const Rule kRules[] = {
    {"insecure-rng",
     "all randomness must come from zl::Rng (src/crypto/rng.cpp); std engines, rand(), "
     "<random>, and direct /dev/urandom reads are banned elsewhere"},
    {"secret-memcmp",
     "no memcmp/operator== on secret-tagged types; compare digests/MACs/keys with zl::ct_equal"},
    {"secret-zeroize",
     "types on the secret allowlist must wipe their key material in the destructor "
     "(secure_zero/zeroize)"},
    {"nondet-iteration",
     "no iteration over std::unordered_{map,set} in src/chain — consensus-visible order must "
     "be deterministic"},
    {"naked-new", "no raw new/delete; use std::make_unique / containers (RAII only)"},
    {"textbook-pairing",
     "pairing()/pairing_product() outside src/ec must use the prepared (G2Prepared/pvk) fast "
     "path or carry an explicit allow"},
    {"raw-file-io",
     "no fopen/std::ofstream/open(2) in src/ outside src/store — every durable byte goes "
     "through the Vfs chokepoint (store/vfs.h) so crash-consistency holds and FaultVfs can "
     "test it"},
    {"unchecked-allocate",
     "every b.witness(...) in circuit-layer code must be followed by an enforce* constraint "
     "in the same function, or carry a reviewed allow — an allocated-but-unconstrained wire "
     "is a soundness hole (any prover-chosen value satisfies the circuit)"},
    {"naked-mutex",
     "every mutex in src/ must be a zl::OrderedMutex (ranked, capability-annotated; "
     "common/mutex.h) and must be named by at least one ZL_GUARDED_BY/ZL_REQUIRES/"
     "ZL_ACQUIRE-family annotation in its file, or carry a reviewed allow"},
    {"naked-unlock",
     "no manual .lock()/.unlock() calls in src/ outside common/mutex.h — acquisition is "
     "RAII-only (zl::MutexLock / zl::MutexUnlock), so early returns and exceptions can "
     "never leak a held lock"},
    {"atomic-rmw-race",
     "x.store(... x.load ...) splits a read-modify-write into two atomic operations that "
     "race with concurrent writers; use fetch_add/fetch_sub/exchange/compare_exchange"},
    {"naked-timing",
     "no direct steady_clock/high_resolution_clock::now() in src/ outside src/obs — time "
     "through the obs API (ZL_TRACE_SPAN, ZL_OBS_SCOPED_LATENCY_US, obs::monotonic_ns) so "
     "measurements aggregate into the exported snapshot and compile out under ZL_OBS=OFF"},
    {"unchecked-length",
     "no hand-rolled `off + len > buf.size()` bound arithmetic in src/ outside "
     "crypto/bytes.* — the sum can wrap around; wire decoding goes through zl::ByteReader, "
     "whose checked reads are overflow-safe by construction"},
    {"unbounded-resize",
     "no resize()/reserve() sized by a wire-derived length (a value read via .u32()/.u64()) "
     "— a 4-byte length prefix must never size an allocation directly; bound it first with "
     "ByteReader::count(cap) or frame(cap)"},
};

/// Types whose instances hold long-term secrets. secret-zeroize requires a
/// wiping destructor; secret-memcmp bans operator== over them.
const std::set<std::string> kSecretTypes = {
    "EcdsaKeyPair", "RsaKeyPair", "UserKey", "TaskEncKeyPair", "Rng",
};

const std::set<std::string> kBannedRngTypes = {
    "mt19937",       "mt19937_64",    "minstd_rand",    "minstd_rand0",
    "default_random_engine",          "random_device",  "knuth_b",
    "ranlux24",      "ranlux48",      "ranlux24_base",  "ranlux48_base",
    "linear_congruential_engine",     "mersenne_twister_engine",
    "subtract_with_carry_engine",     "uniform_int_distribution",
    "uniform_real_distribution",
};

const std::set<std::string> kBannedRngCalls = {
    "rand", "srand", "drand48", "lrand48", "mrand48", "rand_r", "random_r", "srandom",
};

class Linter {
 public:
  void add_unit(FileUnit unit) { units_.push_back(std::move(unit)); }

  std::vector<Finding> run() {
    for (const auto& u : units_) {
      collect_type_definitions(u);
      collect_zeroizing_dtors(u);
      if (u.in_chain) collect_unordered_names(u);
    }
    for (const auto& u : units_) {
      rule_insecure_rng(u);
      rule_secret_memcmp(u);
      if (u.in_chain) rule_nondet_iteration(u);
      rule_naked_new(u);
      if (!u.in_ec) rule_textbook_pairing(u);
      if (u.in_src && !u.in_store) rule_raw_file_io(u);
      if (u.in_circuit_layer) rule_unchecked_allocate(u);
      if (u.in_src) rule_naked_mutex(u);
      if (u.in_src && !u.is_mutex_chokepoint) rule_naked_unlock(u);
      if (u.in_src) rule_atomic_rmw_race(u);
      if (u.in_src && !u.in_obs) rule_naked_timing(u);
      if (u.in_src && !u.is_bytes_chokepoint) {
        rule_unchecked_length(u);
        rule_unbounded_resize(u);
      }
    }
    rule_secret_zeroize();
    // Deterministic order regardless of input order: reports are byte-stable
    // whether the tool is pointed at a directory or an explicit file list.
    std::sort(findings_.begin(), findings_.end(), [](const Finding& a, const Finding& b) {
      if (a.path != b.path) return a.path < b.path;
      if (a.line != b.line) return a.line < b.line;
      if (a.col != b.col) return a.col < b.col;
      return a.rule < b.rule;
    });
    return findings_;
  }

 private:
  void report(const FileUnit& u, int line, int col, const std::string& rule, std::string msg) {
    for (const int l : {line, line - 1}) {
      const auto it = u.allows.find(l);
      if (it != u.allows.end() && (it->second.count(rule) || it->second.count("all"))) return;
    }
    findings_.push_back({u.path, line, col, rule, std::move(msg)});
  }

  void report(const FileUnit& u, const Token& tok, const std::string& rule, std::string msg) {
    report(u, tok.line, tok.col, rule, std::move(msg));
  }

  // --- cross-file info ----------------------------------------------------

  void collect_type_definitions(const FileUnit& u) {
    const auto& t = u.toks;
    for (std::size_t i = 0; i + 2 < t.size(); ++i) {
      if (t[i].kind != TokKind::Identifier || (t[i].text != "struct" && t[i].text != "class")) {
        continue;
      }
      if (i > 0 && t[i - 1].kind == TokKind::Identifier && t[i - 1].text == "friend") continue;
      if (t[i + 1].kind != TokKind::Identifier || !kSecretTypes.count(t[i + 1].text)) continue;
      // A definition is followed by `{`, `final`, or a base-clause `:`.
      const Token& nxt = t[i + 2];
      const bool is_def = (nxt.kind == TokKind::Punct && (nxt.text == "{" || nxt.text == ":")) ||
                          (nxt.kind == TokKind::Identifier && nxt.text == "final");
      if (is_def && !type_def_site_.count(t[i + 1].text)) {
        type_def_site_[t[i + 1].text] = {u.path, t[i + 1].line, t[i + 1].col};
      }
    }
  }

  void collect_zeroizing_dtors(const FileUnit& u) {
    const auto& t = u.toks;
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
      if (t[i].kind != TokKind::Punct || t[i].text != "~") continue;
      if (t[i + 1].kind != TokKind::Identifier || !kSecretTypes.count(t[i + 1].text)) continue;
      // Find the destructor body `{ ... }` within the next few tokens
      // (`~T() { ... }`, `~T() noexcept { ... }`); a bare declaration
      // (`~T();`) is resolved by the out-of-line definition elsewhere.
      for (std::size_t j = i + 2; j < std::min(t.size(), i + 10); ++j) {
        if (t[j].kind == TokKind::Punct && t[j].text == ";") break;
        if (t[j].kind != TokKind::Punct || t[j].text != "{") continue;
        const std::size_t close = match_brace(t, j);
        if (close == kNpos) break;
        for (std::size_t k = j + 1; k < close; ++k) {
          if (t[k].kind == TokKind::Identifier &&
              (t[k].text.find("secure_zero") != std::string::npos ||
               t[k].text.find("zeroize") != std::string::npos)) {
            zeroizing_dtor_.insert(t[i + 1].text);
            break;
          }
        }
        break;
      }
    }
  }

  void collect_unordered_names(const FileUnit& u) {
    const auto& t = u.toks;
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
      if (t[i].kind != TokKind::Identifier ||
          (t[i].text != "unordered_map" && t[i].text != "unordered_set")) {
        continue;
      }
      if (t[i + 1].kind != TokKind::Punct || t[i + 1].text != "<") continue;
      std::size_t close = match_angle(t, i + 1);
      if (close == kNpos) continue;
      // Skip declarator decorations to the declared name.
      std::size_t j = close + 1;
      while (j < t.size() && t[j].kind == TokKind::Punct &&
             (t[j].text == "&" || t[j].text == "*")) {
        ++j;
      }
      if (j < t.size() && t[j].kind == TokKind::Identifier && t[j].text != "const") {
        unordered_names_.insert(t[j].text);
      }
    }
  }

  // --- rules --------------------------------------------------------------

  void rule_insecure_rng(const FileUnit& u) {
    static const std::string rule = "insecure-rng";
    if (u.is_rng) return;
    for (const auto& inc : u.includes) {
      if (inc.header == "random") {
        report(u, inc.line, 1, rule,
               "#include <random>: std engines are banned; draw from zl::Rng instead");
      }
    }
    const auto& t = u.toks;
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (t[i].kind == TokKind::String && t[i].text.find("urandom") != std::string::npos) {
        report(u, t[i], rule,
               "direct OS-entropy access: seed through zl::Rng::from_os_entropy() "
               "(src/crypto/rng.cpp) instead");
        continue;
      }
      if (t[i].kind != TokKind::Identifier) continue;
      if (kBannedRngTypes.count(t[i].text)) {
        report(u, t[i], rule,
               "std randomness engine `" + t[i].text + "`: use zl::Rng (the audited DRBG)");
        continue;
      }
      if (kBannedRngCalls.count(t[i].text) && i + 1 < t.size() &&
          t[i + 1].kind == TokKind::Punct && t[i + 1].text == "(") {
        // Skip member accesses (`x.rand(...)`) — only free/std calls count.
        if (i > 0 && t[i - 1].kind == TokKind::Punct &&
            (t[i - 1].text == "." || t[i - 1].text == "->")) {
          continue;
        }
        report(u, t[i], rule,
               "libc randomness `" + t[i].text + "()`: use zl::Rng (the audited DRBG)");
      }
    }
  }

  void rule_secret_memcmp(const FileUnit& u) {
    static const std::string rule = "secret-memcmp";
    const auto& t = u.toks;
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (t[i].kind != TokKind::Identifier) continue;
      if (t[i].text == "memcmp" || t[i].text == "bcmp") {
        report(u, t[i], rule,
               t[i].text + " leaks the first differing byte through timing; use zl::ct_equal");
        continue;
      }
      // operator==(... SecretType ...) definitions/declarations.
      if (t[i].text == "operator" && i + 2 < t.size() && t[i + 1].kind == TokKind::Punct &&
          t[i + 1].text == "==" && t[i + 2].kind == TokKind::Punct && t[i + 2].text == "(") {
        const std::size_t close = match_paren(t, i + 2);
        if (close == kNpos) continue;
        for (std::size_t j = i + 3; j < close; ++j) {
          if (t[j].kind == TokKind::Identifier && kSecretTypes.count(t[j].text)) {
            report(u, t[i], rule,
                   "operator== over secret type `" + t[j].text +
                       "` compares key material byte-by-byte; use zl::ct_equal on "
                       "canonical encodings");
            break;
          }
        }
      }
    }
  }

  void rule_nondet_iteration(const FileUnit& u) {
    static const std::string rule = "nondet-iteration";
    const auto& t = u.toks;
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
      // Range-for whose range expression mentions an unordered container.
      if (t[i].kind == TokKind::Identifier && t[i].text == "for" &&
          t[i + 1].kind == TokKind::Punct && t[i + 1].text == "(") {
        const std::size_t close = match_paren(t, i + 1);
        if (close == kNpos) continue;
        std::size_t colon = kNpos;
        for (std::size_t j = i + 2; j < close; ++j) {
          if (t[j].kind == TokKind::Punct && t[j].text == ":") {
            colon = j;
            break;
          }
          if (t[j].kind == TokKind::Punct && t[j].text == ";") break;  // classic for
        }
        if (colon == kNpos) continue;
        for (std::size_t j = colon + 1; j < close; ++j) {
          if (t[j].kind == TokKind::Identifier && unordered_names_.count(t[j].text)) {
            report(u, t[i], rule,
                   "range-for over unordered container `" + t[j].text +
                       "`: hash order is nondeterministic and would fork consensus; iterate "
                       "a sorted view or use std::map");
            break;
          }
        }
        continue;
      }
      // Explicit iterator walk: name.begin() / name.cbegin().
      if (t[i].kind == TokKind::Identifier && unordered_names_.count(t[i].text) &&
          i + 3 < t.size() && t[i + 1].kind == TokKind::Punct && t[i + 1].text == "." &&
          t[i + 2].kind == TokKind::Identifier &&
          (t[i + 2].text == "begin" || t[i + 2].text == "cbegin") &&
          t[i + 3].kind == TokKind::Punct && t[i + 3].text == "(") {
        report(u, t[i], rule,
               "iterator over unordered container `" + t[i].text +
                   "`: hash order is nondeterministic and would fork consensus");
      }
    }
  }

  void rule_naked_new(const FileUnit& u) {
    static const std::string rule = "naked-new";
    const auto& t = u.toks;
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (t[i].kind != TokKind::Identifier) continue;
      const auto prev_is = [&](const char* s) {
        return i > 0 && t[i - 1].text == s;
      };
      if (t[i].text == "new") {
        if (prev_is("operator")) continue;  // operator new overload
        report(u, t[i], rule,
               "raw `new`: ownership must be RAII-managed (std::make_unique, containers)");
      } else if (t[i].text == "delete") {
        if (prev_is("operator") || prev_is("=")) continue;  // =delete / operator delete
        report(u, t[i], rule, "raw `delete`: ownership must be RAII-managed");
      }
    }
  }

  void rule_textbook_pairing(const FileUnit& u) {
    static const std::string rule = "textbook-pairing";
    const auto& t = u.toks;
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (t[i].kind != TokKind::Identifier) continue;
      if (t[i].text == "pairing_textbook" || t[i].text == "pairing_product_textbook") {
        report(u, t[i], rule,
               "`" + t[i].text +
                   "` is the benchmark baseline only; production paths use the prepared "
                   "engine");
        continue;
      }
      if ((t[i].text != "pairing" && t[i].text != "pairing_product") ||
          i + 1 >= t.size() || t[i + 1].kind != TokKind::Punct || t[i + 1].text != "(") {
        continue;
      }
      const std::size_t close = match_paren(t, i + 1);
      if (close == kNpos || close == i + 2) continue;  // declaration with no args? flag anyway below
      bool prepared = false;
      for (std::size_t j = i + 2; j < close; ++j) {
        if (t[j].kind != TokKind::Identifier) continue;
        const std::string& a = t[j].text;
        if (a.find("repared") != std::string::npos || a.find("pvk") != std::string::npos) {
          prepared = true;
          break;
        }
      }
      if (!prepared) {
        report(u, t[i], rule,
               "textbook `" + t[i].text +
                   "(` call: pass a G2Prepared/pvk operand (amortizes the Miller schedule) "
                   "or annotate why the one-shot path is acceptable");
      }
    }
  }

  void rule_raw_file_io(const FileUnit& u) {
    static const std::string rule = "raw-file-io";
    static const std::set<std::string> banned_calls = {"fopen", "freopen", "fdopen"};
    static const std::set<std::string> banned_types = {"ofstream", "ifstream", "fstream"};
    static const std::set<std::string> banned_syscalls = {"open", "openat", "creat"};
    for (const auto& inc : u.includes) {
      if (inc.header == "fstream") {
        report(u, inc.line, 1, rule,
               "#include <fstream>: durable writes must go through the Vfs (store/vfs.h)");
      }
    }
    const auto& t = u.toks;
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (t[i].kind != TokKind::Identifier) continue;
      const bool called = i + 1 < t.size() && t[i + 1].kind == TokKind::Punct &&
                          t[i + 1].text == "(";
      const bool member = i > 0 && t[i - 1].kind == TokKind::Punct &&
                          (t[i - 1].text == "." || t[i - 1].text == "->");
      if (banned_types.count(t[i].text)) {
        report(u, t[i], rule,
               "std::" + t[i].text +
                   " bypasses the Vfs chokepoint; open files through store::Vfs so "
                   "FaultVfs-backed crash tests cover this path");
        continue;
      }
      if (!called || member) continue;
      if (banned_calls.count(t[i].text)) {
        report(u, t[i], rule,
               t[i].text + "() bypasses the Vfs chokepoint; use store::Vfs::open instead");
        continue;
      }
      // The open(2)/creat(2) syscall family, only when written `::open(`
      // (a plain `open(` is far too common as a method name).
      if (banned_syscalls.count(t[i].text) && i > 0 && t[i - 1].kind == TokKind::Punct &&
          t[i - 1].text == "::" &&
          (i < 2 || t[i - 2].kind != TokKind::Identifier)) {
        report(u, t[i], rule,
               "::" + t[i].text + "() bypasses the Vfs chokepoint; use store::Vfs::open instead");
      }
    }
  }

  void rule_unchecked_allocate(const FileUnit& u) {
    static const std::string rule = "unchecked-allocate";
    static const std::set<std::string> control_kw = {"if", "for", "while", "switch", "catch"};
    const auto& t = u.toks;

    // Does some identifier in (from, to) start with "enforce"? Any of
    // enforce / enforce_equal / enforce_boolean adds a constraint that can
    // bind the freshly allocated wire.
    const auto constrained_within = [&](std::size_t from, std::size_t to) {
      for (std::size_t j = from; j < to && j < t.size(); ++j) {
        if (t[j].kind == TokKind::Identifier && t[j].text.rfind("enforce", 0) == 0) return true;
      }
      return false;
    };

    for (std::size_t i = 1; i + 1 < t.size(); ++i) {
      if (t[i].kind != TokKind::Identifier || t[i].text != "witness") continue;
      if (t[i + 1].kind != TokKind::Punct || t[i + 1].text != "(") continue;
      // Member calls only (`b.witness(` / `b->witness(`): the builder's own
      // definition and unqualified in-class uses (mul, inverse — which
      // constrain inline) are the chokepoint itself, not call sites.
      if (t[i - 1].kind != TokKind::Punct || (t[i - 1].text != "." && t[i - 1].text != "->")) {
        continue;
      }

      // Walk outward over enclosing braces until one looks like a function
      // body: `{` preceded (modulo const/noexcept/override) by a `)` whose
      // matching `(` does not follow a control keyword. Control-flow blocks
      // (if/for/...) are stepped through so the constraint search covers the
      // whole function, not just the innermost block.
      std::size_t probe = i;
      std::size_t body_open = kNpos;
      for (;;) {
        int depth = 0;
        std::size_t open = kNpos;
        for (std::size_t j = probe; j-- > 0;) {
          if (t[j].kind != TokKind::Punct) continue;
          if (t[j].text == "}") ++depth;
          if (t[j].text == "{") {
            if (depth == 0) {
              open = j;
              break;
            }
            --depth;
          }
        }
        if (open == kNpos) break;  // namespace scope: give up, no finding
        // Skip trailing function-header decorations before the `{`.
        std::size_t k = open;
        while (k > 0 && t[k - 1].kind == TokKind::Identifier &&
               (t[k - 1].text == "const" || t[k - 1].text == "noexcept" ||
                t[k - 1].text == "override" || t[k - 1].text == "mutable")) {
          --k;
        }
        if (k > 0 && t[k - 1].kind == TokKind::Punct && t[k - 1].text == ")") {
          // Find the matching `(` backwards.
          int pdepth = 0;
          std::size_t popen = kNpos;
          for (std::size_t j = k - 1; j-- > 0;) {
            if (t[j].kind != TokKind::Punct) continue;
            if (t[j].text == ")") ++pdepth;
            if (t[j].text == "(") {
              if (pdepth == 0) {
                popen = j;
                break;
              }
              --pdepth;
            }
          }
          const bool is_control = popen != kNpos && popen > 0 &&
                                  t[popen - 1].kind == TokKind::Identifier &&
                                  control_kw.count(t[popen - 1].text);
          if (!is_control) {
            body_open = open;  // function (or lambda) body
            break;
          }
        }
        probe = open;  // control/plain block: keep walking outward
      }
      if (body_open == kNpos) continue;
      const std::size_t body_close = match_brace(t, body_open);
      const std::size_t limit = (body_close == kNpos) ? t.size() : body_close;
      if (constrained_within(i + 1, limit)) continue;
      report(u, t[i], rule,
             "witness allocation with no enforce* constraint later in this function — an "
             "unconstrained wire lets the prover choose any value; constrain it or add "
             "`// zl-lint: allow(unchecked-allocate)` with the reviewed reason");
    }
  }

  void rule_naked_mutex(const FileUnit& u) {
    static const std::string rule = "naked-mutex";
    static const std::set<std::string> std_mutex_types = {
        "mutex", "recursive_mutex", "shared_mutex", "timed_mutex", "recursive_timed_mutex",
    };
    // The ZL_ annotation macros whose arguments "claim" a lock name: a mutex
    // named inside any of them has a machine-checked discipline.
    static const std::set<std::string> annotation_macros = {
        "ZL_GUARDED_BY",      "ZL_PT_GUARDED_BY", "ZL_REQUIRES", "ZL_ACQUIRE",
        "ZL_RELEASE",         "ZL_TRY_ACQUIRE",   "ZL_EXCLUDES", "ZL_ACQUIRED_BEFORE",
        "ZL_ACQUIRED_AFTER",  "ZL_RETURN_CAPABILITY",
    };
    const auto& t = u.toks;

    // Pass 1: every identifier appearing inside an annotation macro's parens.
    std::set<std::string> annotated_names;
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
      if (t[i].kind != TokKind::Identifier || !annotation_macros.count(t[i].text)) continue;
      if (t[i + 1].kind != TokKind::Punct || t[i + 1].text != "(") continue;
      const std::size_t close = match_paren(t, i + 1);
      if (close == kNpos) continue;
      for (std::size_t j = i + 2; j < close; ++j) {
        if (t[j].kind == TokKind::Identifier) annotated_names.insert(t[j].text);
      }
    }

    // Pass 2: mutex-typed declarations `Type name ;|{|=`. References,
    // pointers, and template arguments (`lock_guard<std::mutex>`) are type
    // *uses*, not lock declarations, and are skipped.
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
      if (t[i].kind != TokKind::Identifier) continue;
      const bool is_std_mutex = std_mutex_types.count(t[i].text) && i >= 2 &&
                                t[i - 1].kind == TokKind::Punct && t[i - 1].text == "::" &&
                                t[i - 2].kind == TokKind::Identifier && t[i - 2].text == "std";
      const bool is_ordered = t[i].text == "OrderedMutex";
      if (!is_std_mutex && !is_ordered) continue;
      if (i > 0 && t[i - 1].kind == TokKind::Punct && t[i - 1].text == "<") continue;
      if (t[i + 1].kind != TokKind::Identifier) continue;  // `&`, `(`, `{`, `>` ... not a decl
      const std::string& name = t[i + 1].text;
      if (i + 2 >= t.size() || t[i + 2].kind != TokKind::Punct ||
          (t[i + 2].text != ";" && t[i + 2].text != "{" && t[i + 2].text != "=")) {
        continue;
      }
      if (is_std_mutex) {
        report(u, t[i], rule,
               "raw std::" + t[i].text + " `" + name +
                   "`: every lock in src/ is a zl::OrderedMutex with a documented rank "
                   "(common/mutex.h), so the lock-order detector and the capability "
                   "analysis both see it");
        continue;
      }
      if (!annotated_names.count(name)) {
        report(u, t[i], rule,
               "OrderedMutex `" + name +
                   "` is never named by a ZL_GUARDED_BY/ZL_REQUIRES/ZL_ACQUIRE-family "
                   "annotation in this file — an unannotated lock guards nothing the "
                   "thread-safety analysis can check; annotate the guarded fields or add "
                   "a reviewed allow explaining what the lock serializes");
      }
    }
  }

  void rule_naked_unlock(const FileUnit& u) {
    static const std::string rule = "naked-unlock";
    const auto& t = u.toks;
    for (std::size_t i = 1; i + 1 < t.size(); ++i) {
      if (t[i].kind != TokKind::Identifier ||
          (t[i].text != "lock" && t[i].text != "unlock")) {
        continue;
      }
      if (t[i - 1].kind != TokKind::Punct ||
          (t[i - 1].text != "." && t[i - 1].text != "->")) {
        continue;
      }
      if (t[i + 1].kind != TokKind::Punct || t[i + 1].text != "(") continue;
      report(u, t[i], rule,
             "manual ." + t[i].text +
                 "() call: acquisition is RAII-only (zl::MutexLock, or zl::MutexUnlock "
                 "for a scoped release) so no early return or exception can leak a held "
                 "lock");
    }
  }

  void rule_atomic_rmw_race(const FileUnit& u) {
    static const std::string rule = "atomic-rmw-race";
    const auto& t = u.toks;
    for (std::size_t i = 1; i + 2 < t.size(); ++i) {
      // Pattern: x . store ( ... x . load ... )
      if (t[i].kind != TokKind::Identifier || t[i].text != "store") continue;
      if (t[i - 1].kind != TokKind::Punct ||
          (t[i - 1].text != "." && t[i - 1].text != "->")) {
        continue;
      }
      if (i < 2 || t[i - 2].kind != TokKind::Identifier) continue;
      const std::string& obj = t[i - 2].text;
      if (t[i + 1].kind != TokKind::Punct || t[i + 1].text != "(") continue;
      const std::size_t close = match_paren(t, i + 1);
      if (close == kNpos) continue;
      for (std::size_t j = i + 2; j + 2 < close; ++j) {
        if (t[j].kind == TokKind::Identifier && t[j].text == obj &&
            t[j + 1].kind == TokKind::Punct &&
            (t[j + 1].text == "." || t[j + 1].text == "->") &&
            t[j + 2].kind == TokKind::Identifier && t[j + 2].text == "load") {
          report(u, t[i], rule,
                 "`" + obj + ".store(... " + obj +
                     ".load ...)` is a torn read-modify-write: another thread can write "
                     "between the load and the store and its update is silently lost; use "
                     "fetch_add/fetch_sub/exchange/compare_exchange");
          break;
        }
      }
    }
  }

  void rule_naked_timing(const FileUnit& u) {
    static const std::string rule = "naked-timing";
    static const std::set<std::string> banned_clocks = {"steady_clock", "high_resolution_clock"};
    const auto& t = u.toks;
    for (std::size_t i = 0; i + 3 < t.size(); ++i) {
      // Pattern: steady_clock :: now (  — however the clock itself is
      // qualified (std::chrono::steady_clock, chrono::steady_clock, ...).
      if (t[i].kind != TokKind::Identifier || !banned_clocks.count(t[i].text)) continue;
      if (t[i + 1].kind != TokKind::Punct || t[i + 1].text != "::") continue;
      if (t[i + 2].kind != TokKind::Identifier || t[i + 2].text != "now") continue;
      if (t[i + 3].kind != TokKind::Punct || t[i + 3].text != "(") continue;
      report(u, t[i], rule,
             "direct " + t[i].text +
                 "::now(): production timing goes through the obs API (ZL_TRACE_SPAN, "
                 "ZL_OBS_SCOPED_LATENCY_US, or obs::monotonic_ns) so it aggregates into "
                 "the exported snapshot and compiles out under ZL_OBS=OFF; add "
                 "`// zl-lint: allow(naked-timing)` only with a reviewed reason");
    }
  }

  // Is toks[j] a call that yields a raw wire-derived length? Matches the
  // ByteReader uncapped integer reads as member calls (`r.u32(` / `r.u64(`).
  // ByteReader::count(cap) and frame(cap) are deliberately NOT matched:
  // their results are bounded by the declared cap and safe to allocate with.
  bool is_wire_length_read(const std::vector<Token>& t, std::size_t j) const {
    if (t[j].kind != TokKind::Identifier) return false;
    if (j + 1 >= t.size() || t[j + 1].kind != TokKind::Punct || t[j + 1].text != "(") return false;
    const bool member = j > 0 && t[j - 1].kind == TokKind::Punct &&
                        (t[j - 1].text == "." || t[j - 1].text == "->");
    return member && (t[j].text == "u32" || t[j].text == "u64");
  }

  void rule_unchecked_length(const FileUnit& u) {
    static const std::string rule = "unchecked-length";
    const auto& t = u.toks;
    // Hand-rolled bound arithmetic: `off + len > buf.size()` (or `>=`) — the
    // throw-if-out-of-bounds shape whose left-hand sum can wrap around and
    // pass the check. `i + 1 < v.size()` loop guards use `<` and are
    // deliberately not matched.
    static const std::set<std::string> boundary = {";", "{", "}", "(", ",",  "&&",
                                                   "||", "=",  "?", ":", "return"};
    for (std::size_t i = 1; i + 3 < t.size(); ++i) {
      if (t[i].kind != TokKind::Punct || (t[i].text != ">" && t[i].text != ">=")) continue;
      // Left of the comparator (up to an expression boundary): an additive
      // IDENT + IDENT|NUM chain.
      bool summed_lhs = false;
      for (std::size_t j = i; j-- > 1;) {
        if (boundary.count(t[j].text)) break;
        if (t[j].kind == TokKind::Punct && t[j].text == "+" &&
            (t[j - 1].kind == TokKind::Identifier || t[j - 1].kind == TokKind::Number) &&
            (t[j + 1].kind == TokKind::Identifier || t[j + 1].kind == TokKind::Number)) {
          summed_lhs = true;
          break;
        }
      }
      if (!summed_lhs) continue;
      // Right of the comparator (small window): a `.size()` call.
      bool size_rhs = false;
      for (std::size_t j = i + 1; j + 2 < t.size() && j < i + 8; ++j) {
        if (t[j].kind == TokKind::Punct && boundary.count(t[j].text) && t[j].text != "(") break;
        if (t[j].kind == TokKind::Punct && (t[j].text == "." || t[j].text == "->") &&
            t[j + 1].kind == TokKind::Identifier && t[j + 1].text == "size" &&
            t[j + 2].kind == TokKind::Punct && t[j + 2].text == "(") {
          size_rhs = true;
          break;
        }
      }
      if (!size_rhs) continue;
      report(u, t[i], rule,
             "hand-rolled `offset + len > buf.size()` bound check: the left-hand sum can "
             "wrap around and pass the check; decode through zl::ByteReader "
             "(crypto/bytes.h), whose need()/frame() checks subtract instead of adding and "
             "cannot overflow");
    }
  }

  void rule_unbounded_resize(const FileUnit& u) {
    static const std::string rule = "unbounded-resize";
    const auto& t = u.toks;
    // Pass 1: taint every identifier assigned from an uncapped wire-length
    // read anywhere in the file (per-file, name-based — an over-approximation
    // that is precise enough here because decoders never reuse length names).
    std::set<std::string> tainted;
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
      if (t[i].kind != TokKind::Identifier) continue;
      if (t[i + 1].kind != TokKind::Punct || t[i + 1].text != "=") continue;
      for (std::size_t j = i + 2; j < t.size(); ++j) {
        if (t[j].kind == TokKind::Punct && t[j].text == ";") break;
        if (is_wire_length_read(t, j)) {
          tainted.insert(t[i].text);
          break;
        }
      }
    }
    // Pass 2: any .resize(/.reserve( whose argument list names a tainted
    // length, or contains a wire-length read directly.
    for (std::size_t i = 1; i + 1 < t.size(); ++i) {
      if (t[i].kind != TokKind::Identifier ||
          (t[i].text != "resize" && t[i].text != "reserve")) {
        continue;
      }
      if (t[i - 1].kind != TokKind::Punct ||
          (t[i - 1].text != "." && t[i - 1].text != "->")) {
        continue;
      }
      if (t[i + 1].kind != TokKind::Punct || t[i + 1].text != "(") continue;
      const std::size_t close = match_paren(t, i + 1);
      if (close == kNpos) continue;
      for (std::size_t j = i + 2; j < close; ++j) {
        const bool tainted_name = t[j].kind == TokKind::Identifier && tainted.count(t[j].text);
        if (!tainted_name && !is_wire_length_read(t, j)) continue;
        report(u, t[i], rule,
               "." + t[i].text + "(" + t[j].text +
                   ") sizes an allocation from a wire-derived length: a 4-byte prefix can "
                   "demand gigabytes before the payload bytes are even present; bound it "
                   "first with ByteReader::count(cap) or read the payload via frame(cap)");
        break;
      }
    }
  }

  void rule_secret_zeroize() {
    static const std::string rule = "secret-zeroize";
    for (const auto& [type, site] : type_def_site_) {
      if (zeroizing_dtor_.count(type)) continue;
      // Reported at the type's definition; allow-directives there apply.
      for (const auto& u : units_) {
        if (u.path != site.path) continue;
        report(u, site.line, site.col, rule,
               "secret type `" + type +
                   "` has no destructor wiping its key material (call secure_zero/zeroize)");
        break;
      }
    }
  }

  struct DefSite {
    std::string path;
    int line;
    int col;
  };

  std::vector<FileUnit> units_;
  std::vector<Finding> findings_;
  std::map<std::string, DefSite> type_def_site_;
  std::set<std::string> zeroizing_dtor_;
  std::set<std::string> unordered_names_;
};

// ---------------------------------------------------------------------------
// Driver

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

bool interesting_extension(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".hpp" || ext == ".cpp" || ext == ".cc" || ext == ".cxx";
}

int usage() {
  std::cerr << "usage: zl_lint <path>... [--json <report>] [--list-rules]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> roots;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-rules") {
      for (const auto& r : kRules) std::cout << r.name << "\n    " << r.summary << "\n";
      return 0;
    }
    if (arg == "--json") {
      if (i + 1 >= argc) return usage();
      json_path = argv[++i];
      continue;
    }
    if (!arg.empty() && arg[0] == '-') return usage();
    roots.push_back(arg);
  }
  if (roots.empty()) return usage();

  Linter linter;
  std::size_t scanned = 0;
  for (const auto& root : roots) {
    std::vector<fs::path> files;
    std::error_code ec;
    if (fs::is_directory(root, ec)) {
      for (const auto& entry : fs::recursive_directory_iterator(root, ec)) {
        if (entry.is_regular_file() && interesting_extension(entry.path())) {
          files.push_back(entry.path());
        }
      }
    } else if (fs::is_regular_file(root, ec)) {
      files.push_back(root);
    } else {
      std::cerr << "zl-lint: cannot open " << root << "\n";
      return 2;
    }
    std::sort(files.begin(), files.end());
    for (const auto& f : files) {
      std::ifstream in(f, std::ios::binary);
      if (!in) {
        std::cerr << "zl-lint: cannot read " << f << "\n";
        return 2;
      }
      std::ostringstream ss;
      ss << in.rdbuf();
      FileUnit unit;
      unit.path = f.generic_string();
      unit.in_chain = unit.path.find("/chain/") != std::string::npos;
      unit.in_ec = unit.path.find("/ec/") != std::string::npos;
      unit.in_src = unit.path.find("src/") != std::string::npos;
      unit.in_store = unit.path.find("src/store/") != std::string::npos;
      unit.in_obs = unit.path.find("src/obs/") != std::string::npos;
      unit.in_circuit_layer = unit.path.find("src/snark/gadgets/") != std::string::npos ||
                              unit.path.find("src/zebralancer/") != std::string::npos ||
                              unit.path.find("src/auth/") != std::string::npos;
      unit.is_rng = unit.path.size() >= 10 &&
                    (unit.path.find("crypto/rng.cpp") != std::string::npos ||
                     unit.path.find("crypto/rng.h") != std::string::npos);
      // common/mutex.h IS the RAII chokepoint: its MutexLock/MutexUnlock
      // bodies are the one sanctioned home of manual lock()/unlock() calls.
      unit.is_mutex_chokepoint = unit.path.find("common/mutex.h") != std::string::npos;
      // crypto/bytes.{h,cpp} IS the decode chokepoint: ByteReader's internals
      // live there, so its raw cursor math is exempt from unchecked-length /
      // unbounded-resize.
      unit.is_bytes_chokepoint = unit.path.find("crypto/bytes.h") != std::string::npos ||
                                 unit.path.find("crypto/bytes.cpp") != std::string::npos;
      tokenize(unit, ss.str());
      linter.add_unit(std::move(unit));
      ++scanned;
    }
  }

  const std::vector<Finding> findings = linter.run();

  for (const auto& f : findings) {
    std::cout << f.path << ":" << f.line << ":" << f.col << ": [" << f.rule << "] "
              << f.message << "\n";
  }
  std::cout << "zl-lint: scanned " << scanned << " file(s), " << findings.size()
            << " finding(s)\n";

  if (!json_path.empty()) {
    std::ofstream out(json_path, std::ios::trunc);
    if (!out) {
      std::cerr << "zl-lint: cannot write " << json_path << "\n";
      return 2;
    }
    out << "{\n  \"tool\": \"zl-lint\",\n  \"files_scanned\": " << scanned
        << ",\n  \"findings\": [\n";
    for (std::size_t i = 0; i < findings.size(); ++i) {
      const auto& f = findings[i];
      out << "    {\"file\": \"" << json_escape(f.path) << "\", \"line\": " << f.line
          << ", \"col\": " << f.col << ", \"rule\": \"" << json_escape(f.rule)
          << "\", \"message\": \"" << json_escape(f.message) << "\"}"
          << (i + 1 < findings.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
  }

  return findings.empty() ? 0 : 1;
}
