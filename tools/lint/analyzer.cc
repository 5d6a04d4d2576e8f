#include "tools/lint/analyzer.h"

#include <algorithm>
#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace vsched {
namespace lint {

namespace {

bool IsSrcPath(const std::string& path) { return path.find("src/") != std::string::npos; }
bool IsClusterPath(const std::string& path) {
  return path.find("src/cluster/") != std::string::npos;
}
bool IsPlacementFile(const std::string& path) {
  return path.find("src/cluster/placement") != std::string::npos;
}

// Posting interfaces whose callable argument outlives the caller's stack
// frame. `qualified` sinks only count behind `.` / `->` / `::` (the bare
// names are too generic to match globally). `factory` sinks take a lambda
// that is invoked synchronously and *returns* the closure that gets posted
// (EventQueue::PostBatch) — the capture rules apply to the returned lambda,
// not the factory itself.
struct SinkSpec {
  const char* name;
  bool qualified;
  bool factory = false;
};
const SinkSpec kSinks[] = {
    {"After", false},       {"At", true},          {"ScheduleAfter", false},
    {"ScheduleAt", false},  {"CreateTimer", false}, {"Every", true},
    {"RunOnVcpu", false},   {"AddTickHook", false}, {"ArmArrival", false},
    {"PostBatch", false, /*factory=*/true},
};

// The sharded fleet engine's mailbox and cell inboxes
// (src/sim/shard_mailbox.h): a closure handed to `ShardMailbox::Post` is
// applied at a *later* instant, possibly after, or on, the worker thread
// that runs the cell it refers to.
// The shard-crossing rule makes those closures carry ids only. Qualified so
// an unrelated free function named Post can't match.
const SinkSpec kMailboxSinks[] = {{"Post", true}};

const std::set<std::string>& StatementKeywords() {
  static const std::set<std::string> kw = {
      "return",   "if",      "else",   "while",  "do",       "switch",  "case",
      "default",  "break",   "continue", "goto", "using",    "typedef", "delete",
      "new",      "throw",   "public", "private", "protected", "template",
      "namespace", "friend", "extern", "static_assert", "co_return", "co_await",
  };
  return kw;
}

bool TypeHasIdent(const std::string& type, const std::string& ident) {
  // `type` is a space-joined token list, so exact-token search is a substring
  // search with space/edge guards.
  size_t pos = 0;
  while ((pos = type.find(ident, pos)) != std::string::npos) {
    bool left_ok = pos == 0 || type[pos - 1] == ' ';
    size_t end = pos + ident.size();
    bool right_ok = end == type.size() || type[end] == ' ';
    if (left_ok && right_ok) {
      return true;
    }
    pos = end;
  }
  return false;
}

// Idents that name cluster slot objects; capturing a pointer/reference to one
// in a posted closure crosses the shard boundary.
const char* const kClusterSlotTypes[] = {"ClusterHost", "TenantVm", "HostMachine", "Vm",
                                         "Fleet"};

// Types whose pointers/references may not ride a mailbox message into a
// later barrier window: the cells themselves, their embedded simulations,
// and the slot objects that live inside a cell.
const char* const kCellStateTypes[] = {"FleetCell", "Simulation", "ClusterHost",
                                       "TenantVm", "HostMachine", "Vm"};

struct Scope {
  enum Kind { kNamespace, kClass, kFunction, kLambda, kBlock };
  Kind kind = kBlock;
  std::string cls;            // enclosing class name for kClass / member kFunction
  bool cluster_per_host = false;  // function scope taking a ClusterHost*/&
  bool cluster_per_cell = false;  // function scope taking a FleetCell*/&
  std::map<std::string, std::string> symbols;  // name -> declared type text
};

struct LambdaInfo {
  bool valid = false;
  int line = 0;
  std::vector<Capture> captures;
  std::map<std::string, std::string> params;  // lambda parameters
  size_t body_open = 0;                       // index of `{`
  size_t body_close = 0;                      // index of matching `}`
  size_t header_end = 0;                      // index just past `]`
};

class Analyzer {
 public:
  Analyzer(const std::string& path, const LexResult& lex)
      : path_(path),
        toks_(lex.tokens),
        src_scope_(IsSrcPath(path)),
        cluster_scope_(IsClusterPath(path)),
        placement_file_(IsPlacementFile(path)) {}

  std::vector<AnalysisFinding> Run() {
    scopes_.push_back(Scope{Scope::kNamespace, "", false, false, {}});
    Walk();
    std::stable_sort(findings_.begin(), findings_.end(),
                     [](const AnalysisFinding& a, const AnalysisFinding& b) {
                       return a.line < b.line;
                     });
    return std::move(findings_);
  }

 private:
  // ---- token helpers -------------------------------------------------------

  size_t Size() const { return toks_.size(); }
  const Token& T(size_t i) const { return toks_[i]; }
  bool IsP(size_t i, const char* s) const {
    return i < Size() && toks_[i].kind == Tok::kPunct && toks_[i].text == s;
  }
  bool IsI(size_t i, const char* s) const {
    return i < Size() && toks_[i].kind == Tok::kIdent && toks_[i].text == s;
  }

  // Matching close for the open bracket at `open` ('(', '[' or '{'), counting
  // only that bracket family. Returns Size() if unbalanced.
  size_t Match(size_t open) const {
    const std::string& o = toks_[open].text;
    const char* c = o == "(" ? ")" : o == "[" ? "]" : "}";
    int depth = 0;
    for (size_t i = open; i < Size(); ++i) {
      if (toks_[i].kind != Tok::kPunct) {
        continue;
      }
      if (toks_[i].text == o) {
        ++depth;
      } else if (toks_[i].text == c) {
        if (--depth == 0) {
          return i;
        }
      }
    }
    return Size();
  }

  // Splits [b, e) on commas at bracket depth 0. Returns (begin, end) spans.
  std::vector<std::pair<size_t, size_t>> SplitTopLevel(size_t b, size_t e) const {
    std::vector<std::pair<size_t, size_t>> spans;
    int depth = 0;
    size_t start = b;
    for (size_t i = b; i < e; ++i) {
      if (toks_[i].kind == Tok::kPunct) {
        const std::string& t = toks_[i].text;
        if (t == "(" || t == "[" || t == "{") {
          ++depth;
        } else if (t == ")" || t == "]" || t == "}") {
          --depth;
        } else if (t == "," && depth == 0) {
          spans.emplace_back(start, i);
          start = i + 1;
        }
      }
    }
    if (start < e) {
      spans.emplace_back(start, e);
    }
    return spans;
  }

  std::string Join(size_t b, size_t e) const {
    std::string out;
    for (size_t i = b; i < e && i < Size(); ++i) {
      if (!out.empty()) {
        out += ' ';
      }
      out += toks_[i].text;
    }
    return out;
  }

  // ---- declarations --------------------------------------------------------

  // Parses `[b, e)` as a simple declaration `type name [= init]` / parameter.
  // Returns false for anything that doesn't look like one (expressions,
  // control flow, calls). Deliberately conservative: an unparsed declaration
  // degrades a capture to "unknown" (treated safe), never a false positive.
  bool ParseDecl(size_t b, size_t e, std::string* name, std::string* type) const {
    while (b < e && (IsI(b, "for") || IsP(b, "("))) {
      ++b;  // tolerate `for (` prefixes from the statement splitter
    }
    if (b >= e || IsP(b, "#")) {
      return false;
    }
    if (toks_[b].kind == Tok::kIdent && StatementKeywords().count(toks_[b].text) != 0) {
      return false;
    }
    // Declarator part stops at a top-level `=` (or `{` for brace init).
    size_t de = e;
    int depth = 0;
    for (size_t i = b; i < e; ++i) {
      if (toks_[i].kind != Tok::kPunct) {
        continue;
      }
      const std::string& t = toks_[i].text;
      if (t == "(" || t == "[" || t == "<") {
        ++depth;
      } else if (t == ")" || t == "]" || t == ">") {
        --depth;
      } else if ((t == "=" || t == "{") && depth <= 0) {
        de = i;
        break;
      }
    }
    static const std::set<std::string> kDeclPunct = {"*", "&",  "&&", "::", "<",
                                                     ">", "[",  "]",  ",",  "...",
                                                     ">>"};
    size_t name_idx = e;
    for (size_t i = b; i < de; ++i) {
      if (toks_[i].kind == Tok::kPunct && kDeclPunct.count(toks_[i].text) == 0) {
        return false;
      }
      if (toks_[i].kind == Tok::kIdent) {
        name_idx = i;
      }
    }
    if (name_idx >= de || name_idx == b) {
      return false;  // no name, or a bare expression like `x = 1`
    }
    // After the name only array brackets may follow.
    for (size_t i = name_idx + 1; i < de; ++i) {
      if (!(IsP(i, "[") || IsP(i, "]") || toks_[i].kind == Tok::kNumber)) {
        return false;
      }
    }
    *name = toks_[name_idx].text;
    *type = Join(b, name_idx);
    // `auto p = &x;` / `auto p = owner.get();` — keep the initializer text
    // visible so classification can see what `auto` deduced from.
    if (TypeHasIdent(*type, "auto") && de < e) {
      *type += " " + Join(de, std::min(de + 12, e));
    }
    return true;
  }

  void DeclareInCurrent(size_t b, size_t e) {
    Scope& top = scopes_.back();
    if (top.kind == Scope::kNamespace || top.kind == Scope::kClass) {
      return;  // members/globals can't be captured by name
    }
    std::string name;
    std::string type;
    if (ParseDecl(b, e, &name, &type)) {
      top.symbols[name] = type;
    }
  }

  void DeclareParams(size_t lp, size_t rp, std::map<std::string, std::string>* out,
                     bool* cluster_per_host) const {
    for (const auto& span : SplitTopLevel(lp + 1, rp)) {
      std::string name;
      std::string type;
      if (ParseDecl(span.first, span.second, &name, &type)) {
        (*out)[name] = type;
        if (cluster_per_host != nullptr && TypeHasIdent(type, "ClusterHost")) {
          *cluster_per_host = true;
        }
      }
    }
  }

  std::string LookupType(const std::string& name) const {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      auto f = it->symbols.find(name);
      if (f != it->symbols.end()) {
        return f->second;
      }
    }
    return "";
  }

  // ---- capture classification ----------------------------------------------

  std::string KindFromType(const std::string& type) const {
    if (type.empty()) {
      return "unknown";
    }
    if (TypeHasIdent(type, "weak_ptr")) {
      return "weak-token";
    }
    if (TypeHasIdent(type, "shared_ptr")) {
      return "owner";
    }
    if (type.find('*') != std::string::npos || type.find("= &") != std::string::npos) {
      return "raw-pointer";
    }
    return "value";
  }

  Capture ClassifyCapture(size_t b, size_t e) const {
    Capture cap;
    if (b >= e) {
      cap.kind = "unknown";
      return cap;
    }
    if (IsI(b, "this") && e == b + 1) {
      cap.name = "this";
      cap.kind = "this";
      return cap;
    }
    if (IsP(b, "*") && IsI(b + 1, "this")) {
      cap.name = "*this";
      cap.kind = "star-this";
      return cap;
    }
    if (IsP(b, "&") && e == b + 1) {
      cap.name = "&";
      cap.kind = "default-ref";
      return cap;
    }
    if (IsP(b, "=") && e == b + 1) {
      cap.name = "=";
      cap.kind = "default-copy";
      return cap;
    }
    if (IsP(b, "&") && b + 1 < e && toks_[b + 1].kind == Tok::kIdent) {
      cap.name = "&" + toks_[b + 1].text;
      cap.kind = "by-ref";
      cap.type = LookupType(toks_[b + 1].text);
      return cap;
    }
    if (toks_[b].kind == Tok::kIdent) {
      cap.name = toks_[b].text;
      if (e == b + 1) {  // plain by-value copy of a named symbol
        cap.type = LookupType(cap.name);
        cap.kind = KindFromType(cap.type);
        return cap;
      }
      if (IsP(b + 1, "=") || IsP(b + 1, "{")) {  // init-capture
        size_t ib = b + 2;
        std::string init = Join(ib, e);
        if (init.find("weak_ptr") != std::string::npos) {
          cap.kind = "weak-token";
          return cap;
        }
        if (IsP(ib, "&")) {
          cap.kind = "raw-pointer";
          cap.type = "&" + Join(ib + 1, e);
          return cap;
        }
        // `x = std::move(y)` or `x = y`: classify from the source symbol.
        std::string source;
        if (ib < e && toks_[ib].kind == Tok::kIdent && ib + 1 == e) {
          source = toks_[ib].text;
        } else if (IsI(ib, "std") && IsP(ib + 1, "::") && IsI(ib + 2, "move") &&
                   IsP(ib + 3, "(") && ib + 4 < e && toks_[ib + 4].kind == Tok::kIdent) {
          source = toks_[ib + 4].text;
        }
        if (!source.empty()) {
          cap.type = LookupType(source);
          cap.kind = KindFromType(cap.type);
          return cap;
        }
        cap.kind = KindFromType(init);
        cap.type = init;
        return cap;
      }
    }
    cap.name = Join(b, e);
    cap.kind = "unknown";
    return cap;
  }

  static bool KindIsUnsafe(const std::string& kind) {
    return kind == "this" || kind == "default-ref" || kind == "default-copy" ||
           kind == "by-ref" || kind == "raw-pointer";
  }

  // ---- lambda parsing ------------------------------------------------------

  bool LooksLikeLambdaIntro(size_t i) const {
    if (!IsP(i, "[") || IsP(i + 1, "[")) {
      return false;  // `[[attribute]]`
    }
    if (i == 0) {
      return true;
    }
    const Token& p = toks_[i - 1];
    if (p.kind == Tok::kPunct) {
      static const std::set<std::string> kBefore = {"(", ",", "{", "}", ";", "=",
                                                    "&&", "||", "?", ":", "<<", ">>"};
      return kBefore.count(p.text) != 0;
    }
    if (p.kind == Tok::kIdent) {
      // `return [..]` starts a lambda; `hosts_[i]` is a subscript.
      return StatementKeywords().count(p.text) != 0 && p.text != "this";
    }
    return false;  // after a number/literal: subscript or UDL-adjacent
  }

  LambdaInfo ParseLambda(size_t lb) const {
    LambdaInfo info;
    size_t rb = Match(lb);
    if (rb >= Size()) {
      return info;
    }
    info.line = toks_[lb].line;
    for (const auto& span : SplitTopLevel(lb + 1, rb)) {
      info.captures.push_back(ClassifyCapture(span.first, span.second));
    }
    size_t i = rb + 1;
    info.header_end = i;
    if (IsP(i, "(")) {
      size_t rp = Match(i);
      if (rp >= Size()) {
        return info;
      }
      DeclareParams(i, rp, &info.params, nullptr);
      i = rp + 1;
    }
    // Skip specifiers / trailing return type up to the body brace.
    int depth = 0;
    while (i < Size()) {
      if (toks_[i].kind == Tok::kPunct) {
        const std::string& t = toks_[i].text;
        if (t == "(" || t == "[" || t == "<") {
          ++depth;
        } else if (t == ")" || t == "]" || t == ">") {
          --depth;
          if (depth < 0) {
            return info;  // e.g. `[]` used as an empty default argument
          }
        } else if (t == "{" && depth == 0) {
          break;
        } else if (t == ";") {
          return info;
        }
      }
      ++i;
    }
    if (i >= Size()) {
      return info;
    }
    info.body_open = i;
    info.body_close = Match(i);
    if (info.body_close >= Size()) {
      return info;
    }
    info.valid = true;
    return info;
  }

  // True if the body calls `.expired(` or `.lock(` on any weak-token capture.
  bool BodyChecksToken(const LambdaInfo& info) const {
    for (const Capture& cap : info.captures) {
      if (cap.kind != "weak-token") {
        continue;
      }
      for (size_t i = info.body_open; i + 3 < info.body_close; ++i) {
        if (toks_[i].kind == Tok::kIdent && toks_[i].text == cap.name &&
            IsP(i + 1, ".") &&
            (IsI(i + 2, "expired") || IsI(i + 2, "lock")) && IsP(i + 3, "(")) {
          return true;
        }
      }
    }
    return false;
  }

  // ---- sinks ---------------------------------------------------------------

  // Returns the sink spec if the ident at `i` is a sink call head.
  template <size_t N>
  const SinkSpec* SinkInList(const SinkSpec (&list)[N], size_t i) const {
    if (toks_[i].kind != Tok::kIdent || !IsP(i + 1, "(")) {
      return nullptr;
    }
    for (const SinkSpec& s : list) {
      if (toks_[i].text != s.name) {
        continue;
      }
      bool has_qual = i > 0 && toks_[i - 1].kind == Tok::kPunct &&
                      (toks_[i - 1].text == "->" || toks_[i - 1].text == "." ||
                       toks_[i - 1].text == "::");
      if (s.qualified && !has_qual) {
        return nullptr;
      }
      return &s;
    }
    return nullptr;
  }

  const SinkSpec* SinkAt(size_t i) const { return SinkInList(kSinks, i); }
  const SinkSpec* MailboxSinkAt(size_t i) const { return SinkInList(kMailboxSinks, i); }

  std::string SinkDisplay(size_t i) const {
    if (i >= 2 && toks_[i - 1].kind == Tok::kPunct &&
        (toks_[i - 1].text == "->" || toks_[i - 1].text == "." ||
         toks_[i - 1].text == "::")) {
      return toks_[i - 2].text + toks_[i - 1].text + toks_[i].text;
    }
    return toks_[i].text;
  }

  std::string DescribeCaptures(const std::vector<Capture>& caps) const {
    std::string out;
    for (const Capture& c : caps) {
      if (!KindIsUnsafe(c.kind)) {
        continue;
      }
      if (!out.empty()) {
        out += ", ";
      }
      out += c.name;
      if (c.kind == "raw-pointer" && !c.type.empty()) {
        out += " (raw pointer: " + c.type + ")";
      } else if (c.kind == "by-ref") {
        out += " (by reference)";
      } else if (c.kind == "default-ref") {
        out = out.substr(0, out.size() - 1) + "[&] default (captures everything by reference)";
      } else if (c.kind == "default-copy") {
        out = out.substr(0, out.size() - 1) + "[=] default (implicitly captures this)";
      }
    }
    return out;
  }

  // For a factory sink (PostBatch), the outer lambda runs synchronously
  // inside the call; the closure that actually lives on the queue is the one
  // it `return`s. Re-target the check at the first returned lambda so the
  // `[this](size_t i) { return [this, i, alive = ...] {...}; }` idiom is
  // judged on the inner capture list.
  LambdaInfo ReturnedLambda(const LambdaInfo& outer) const {
    for (size_t i = outer.body_open + 1; i + 1 < outer.body_close; ++i) {
      if (IsI(i, "return") && IsP(i + 1, "[") && LooksLikeLambdaIntro(i + 1)) {
        LambdaInfo inner = ParseLambda(i + 1);
        if (inner.valid) {
          return inner;
        }
      }
    }
    return outer;
  }

  void CheckPostedLambda(size_t sink_idx, const LambdaInfo& posted, bool factory) {
    if (!posted.valid) {
      return;
    }
    const LambdaInfo info = factory ? ReturnedLambda(posted) : posted;
    bool has_unsafe = false;
    bool has_token = false;
    for (const Capture& c : info.captures) {
      has_unsafe = has_unsafe || KindIsUnsafe(c.kind);
      has_token = has_token || c.kind == "weak-token";
    }
    std::string sink = SinkDisplay(sink_idx);
    if (src_scope_ && has_unsafe && !(has_token && BodyChecksToken(info))) {
      AnalysisFinding f;
      f.line = info.line;
      f.rule = kEventLifetimeRule;
      f.sink = sink;
      f.captures = info.captures;
      f.message = "lambda posted to " + sink + " captures " +
                  DescribeCaptures(info.captures) +
                  " without a checked weak_ptr liveness token; the event can "
                  "outlive the owner (the PR-6 UAF class). Capture `alive = "
                  "std::weak_ptr<const bool>(alive_)` and return early when "
                  "expired, or justify with vsched-lint allow(event-lifetime)";
      findings_.push_back(std::move(f));
    }
    if (cluster_scope_) {
      for (const Capture& c : info.captures) {
        const char* slot = nullptr;
        for (const char* t : kClusterSlotTypes) {
          if (!c.type.empty() && TypeHasIdent(c.type, t)) {
            slot = t;
            break;
          }
        }
        if (slot != nullptr && (c.kind == "raw-pointer" || c.kind == "by-ref")) {
          AnalysisFinding f;
          f.line = info.line;
          f.rule = kShardIsolationRule;
          f.sink = sink;
          f.captures = info.captures;
          f.message = "event closure posted to " + sink + " captures `" + c.name +
                      "` (a " + std::string(slot) +
                      " slot pointer/reference) across the event boundary; "
                      "capture the slot id and re-resolve through the control "
                      "plane at delivery so shards stay isolated";
          findings_.push_back(std::move(f));
        }
      }
    }
  }

  // Shard-crossing discipline for mailbox and inbox messages: ids only. A
  // reference (or [&]) can never be safe across the delay, and a raw
  // pointer to cell state aliases memory another worker thread owns by the
  // time the message is applied. `this` stays legal — every mailbox dies
  // with its owner, which posts only while the cells are parked; that is
  // also why this sink is *not* an event-lifetime sink.
  void CheckMailboxLambda(size_t sink_idx, const LambdaInfo& info) {
    if (!info.valid) {
      return;
    }
    std::string sink = SinkDisplay(sink_idx);
    for (const Capture& c : info.captures) {
      const char* cell_type = nullptr;
      for (const char* t : kCellStateTypes) {
        if (!c.type.empty() && TypeHasIdent(c.type, t)) {
          cell_type = t;
          break;
        }
      }
      bool is_ref = c.kind == "by-ref" || c.kind == "default-ref";
      bool is_cell_ptr = c.kind == "raw-pointer" && cell_type != nullptr;
      if (!is_ref && !is_cell_ptr) {
        continue;
      }
      AnalysisFinding f;
      f.line = info.line;
      f.rule = kShardCrossingRule;
      f.sink = sink;
      f.captures = info.captures;
      f.message = "mailbox message posted to " + sink + " captures `" + c.name + "` " +
                  (is_cell_ptr ? "(a " + std::string(cell_type) + " pointer)"
                               : std::string("by reference")) +
                  " across the barrier window; by delivery time the cell may have "
                  "run on a worker thread — capture ids and re-resolve cell-local "
                  "state at delivery (docs/PERF.md, \"Sharded fleet execution\")";
      findings_.push_back(std::move(f));
    }
  }

  // ---- scope classification ------------------------------------------------

  // Enclosing class name for a member definition head `Ret Cls::Fn(`:
  // the ident immediately before the last `::` before the param paren.
  std::string OutOfLineClass(size_t b, size_t lp) const {
    for (size_t i = lp; i > b + 1; --i) {
      if (IsP(i - 1, "::") && toks_[i - 2].kind == Tok::kIdent) {
        return toks_[i - 2].text;
      }
    }
    return "";
  }

  Scope ClassifyBrace(size_t b, size_t e) {
    Scope scope;
    // namespace?
    for (size_t i = b; i < e; ++i) {
      if (IsI(i, "namespace")) {
        scope.kind = Scope::kNamespace;
        return scope;
      }
    }
    // class / struct / enum?
    for (size_t i = b; i < e; ++i) {
      if (IsI(i, "class") || IsI(i, "struct") || IsI(i, "union") || IsI(i, "enum")) {
        // `struct Foo` introduces a type unless this is an elaborated
        // specifier inside a function head (no such pattern in this repo).
        size_t j = i + 1;
        while (j < e && (IsI(j, "class") || IsI(j, "struct") ||
                         IsP(j, "[") || IsP(j, "]"))) {
          ++j;
        }
        scope.kind = Scope::kClass;
        if (j < e && toks_[j].kind == Tok::kIdent) {
          scope.cls = toks_[j].text;
        }
        return scope;
      }
    }
    // function? first top-level `(` preceded by a non-keyword ident.
    int depth = 0;
    for (size_t i = b; i < e; ++i) {
      if (toks_[i].kind != Tok::kPunct) {
        continue;
      }
      const std::string& t = toks_[i].text;
      if (t == "(") {
        if (depth == 0 && i > b && toks_[i - 1].kind == Tok::kIdent) {
          const std::string& head = toks_[i - 1].text;
          static const std::set<std::string> kCtl = {"if",     "for",   "while",
                                                     "switch", "catch", "return"};
          if (kCtl.count(head) != 0) {
            scope.kind = Scope::kBlock;
            return scope;
          }
          size_t rp = Match(i);
          if (rp < e) {
            scope.kind = Scope::kFunction;
            scope.cls = OutOfLineClass(b, i);
            if (scope.cls.empty()) {
              for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
                if (it->kind == Scope::kClass) {
                  scope.cls = it->cls;
                  break;
                }
              }
            }
            bool per_host = false;
            DeclareParams(i, rp, &scope.symbols,
                          cluster_scope_ ? &per_host : nullptr);
            scope.cluster_per_host = per_host;
            if (cluster_scope_) {
              for (const auto& kv : scope.symbols) {
                if (TypeHasIdent(kv.second, "FleetCell")) {
                  scope.cluster_per_cell = true;
                  break;
                }
              }
            }
            return scope;
          }
        }
        ++depth;
      } else if (t == ")") {
        --depth;
      }
    }
    scope.kind = Scope::kBlock;
    return scope;
  }

  bool InPerHostScope() const {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      if (it->cluster_per_host) {
        return true;
      }
      if (it->kind == Scope::kFunction) {
        break;  // per-host taint does not cross an enclosing function head
      }
    }
    return false;
  }

  bool InPerCellScope() const {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      if (it->cluster_per_cell) {
        return true;
      }
      if (it->kind == Scope::kFunction) {
        break;  // per-cell taint does not cross an enclosing function head
      }
    }
    return false;
  }

  // ---- main walk -----------------------------------------------------------

  void Walk() {
    size_t stmt_start = 0;
    std::map<std::string, std::string> pending_block;  // for-init symbols
    std::set<size_t> lambda_opens;  // `{` indices that open lambda bodies

    for (size_t i = 0; i < Size();) {
      const Token& t = T(i);
      if (t.kind == Tok::kPunct) {
        if (t.text == "{") {
          Scope scope;
          if (lambda_opens.count(i) != 0) {
            // Scope was prepared when the lambda intro was parsed; it is
            // sitting in pending_lambda_.
            scope = std::move(pending_lambda_);
            pending_lambda_ = Scope{};
          } else {
            scope = ClassifyBrace(stmt_start, i);
          }
          for (auto& kv : pending_block) {
            scope.symbols.insert(kv);
          }
          pending_block.clear();
          scopes_.push_back(std::move(scope));
          stmt_start = i + 1;
          ++i;
          continue;
        }
        if (t.text == "}") {
          if (scopes_.size() > 1) {
            scopes_.pop_back();
          }
          lambda_opens.erase(i);
          stmt_start = i + 1;
          ++i;
          continue;
        }
        if (t.text == ";") {
          DeclareInCurrent(stmt_start, i);
          stmt_start = i + 1;
          ++i;
          continue;
        }
        if (t.text == ":" ) {
          // Reset after access specifiers and case labels so they don't
          // pollute the next statement span; leave ctor-init colons alone.
          if (i == stmt_start + 1 &&
              (IsI(stmt_start, "public") || IsI(stmt_start, "private") ||
               IsI(stmt_start, "protected") || IsI(stmt_start, "default"))) {
            stmt_start = i + 1;
          }
          ++i;
          continue;
        }
        if (t.text == "[") {
          if (IsP(i + 1, "[")) {  // attribute
            size_t close = Match(i);
            i = close < Size() ? close + 1 : i + 1;
            continue;
          }
          if (LooksLikeLambdaIntro(i)) {
            LambdaInfo info = ParseLambda(i);
            if (info.valid) {
              Scope ls;
              ls.kind = Scope::kLambda;
              for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
                if (it->kind == Scope::kFunction || it->kind == Scope::kLambda) {
                  ls.cls = it->cls;
                  break;
                }
              }
              for (const Capture& c : info.captures) {
                if (!c.name.empty() && c.name != "this" && c.name != "*this" &&
                    c.name[0] != '&') {
                  ls.symbols[c.name] = c.type;
                }
              }
              for (const auto& kv : info.params) {
                ls.symbols[kv.first] = kv.second;
              }
              pending_lambda_ = std::move(ls);
              lambda_opens.insert(info.body_open);
              // Jump straight to the body so capture-init expressions don't
              // confuse the statement splitter.
              stmt_start = i;  // keep span sane if body never materializes
              i = info.body_open;
              continue;
            }
          }
          ++i;
          continue;
        }
        ++i;
        continue;
      }

      if (t.kind == Tok::kIdent) {
        // for-init / range-for declarations bind to the upcoming block scope.
        if (t.text == "for" && IsP(i + 1, "(")) {
          size_t rp = Match(i + 1);
          if (rp < Size()) {
            size_t colon = rp;
            int depth = 0;
            for (size_t j = i + 2; j < rp; ++j) {
              if (toks_[j].kind != Tok::kPunct) {
                continue;
              }
              const std::string& pt = toks_[j].text;
              if (pt == "(" || pt == "[" || pt == "{") {
                ++depth;
              } else if (pt == ")" || pt == "]" || pt == "}") {
                --depth;
              } else if (pt == ":" && depth == 0) {
                colon = j;
                break;
              }
            }
            size_t decl_end = colon;
            if (colon == rp) {  // classic for: decl runs to the first `;`
              for (size_t j = i + 2; j < rp; ++j) {
                if (IsP(j, ";")) {
                  decl_end = j;
                  break;
                }
              }
            }
            std::string name;
            std::string type;
            if (ParseDecl(i + 2, decl_end, &name, &type)) {
              pending_block[name] = type;
            }
          }
        }

        const SinkSpec* sink = SinkAt(i);
        if (sink != nullptr) {
          size_t rp = Match(i + 1);
          if (rp < Size()) {
            for (const auto& span : SplitTopLevel(i + 2, rp)) {
              if (span.first < span.second && IsP(span.first, "[") &&
                  LooksLikeLambdaIntro(span.first)) {
                CheckPostedLambda(i, ParseLambda(span.first), sink->factory);
              }
            }
          }
        } else if (cluster_scope_ && MailboxSinkAt(i) != nullptr) {
          size_t rp = Match(i + 1);
          if (rp < Size()) {
            for (const auto& span : SplitTopLevel(i + 2, rp)) {
              if (span.first < span.second && IsP(span.first, "[") &&
                  LooksLikeLambdaIntro(span.first)) {
                CheckMailboxLambda(i, ParseLambda(span.first));
              }
            }
          }
        }

        if (cluster_scope_ && t.text == "cells_" && InPerCellScope()) {
          AnalysisFinding f;
          f.line = t.line;
          f.rule = kShardCrossingRule;
          f.message =
              "per-cell scope (function taking a FleetCell*) reaches the "
              "engine-wide cell array `cells_`; cross-cell effects must travel "
              "as barrier-mailbox messages, not direct cell access";
          findings_.push_back(std::move(f));
        }
        if (cluster_scope_ && t.text == "hosts_" && InPerHostScope()) {
          AnalysisFinding f;
          f.line = t.line;
          f.rule = kShardIsolationRule;
          f.message =
              "per-host scope (function taking a ClusterHost*) reaches the "
              "fleet-wide slot array `hosts_`; cross-host effects must go "
              "through control-plane events, not direct slot access";
          findings_.push_back(std::move(f));
        }
        if (placement_file_) {
          static const std::set<std::string> kForbidden = {
              "ClusterHost", "TenantVm", "HostMachine", "Fleet", "hosts_", "tenants_"};
          if (kForbidden.count(t.text) != 0) {
            AnalysisFinding f;
            f.line = t.line;
            f.rule = kShardIsolationRule;
            f.message = "placement policy references `" + t.text +
                        "`; policies consume HostLoadView snapshots only so "
                        "they can run against a remote shard's published state";
            findings_.push_back(std::move(f));
          }
        }
        ++i;
        continue;
      }

      ++i;
    }
  }

  const std::string& path_;
  const std::vector<Token>& toks_;
  const bool src_scope_;
  const bool cluster_scope_;
  const bool placement_file_;
  std::vector<Scope> scopes_;
  Scope pending_lambda_;
  std::vector<AnalysisFinding> findings_;
};

}  // namespace

std::vector<AnalysisFinding> Analyze(const std::string& path, const LexResult& lex) {
  return Analyzer(path, lex).Run();
}

}  // namespace lint
}  // namespace vsched
