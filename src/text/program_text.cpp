#include "text/program_text.hpp"

#include <algorithm>
#include <cctype>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "support/assert.hpp"

namespace mcsym::text {

namespace {

using mcapi::Cond;
using mcapi::EndpointRef;
using mcapi::Program;
using mcapi::Rel;
using mcapi::ThreadBuilder;
using mcapi::ThreadRef;
using mcapi::ValueExpr;

// --- Tokenizer ---------------------------------------------------------------

enum class Tok : std::uint8_t {
  kIdent,   // [A-Za-z_][A-Za-z0-9_]*
  kInt,     // [0-9]+
  kString,  // "..." with \" and \\ escapes
  kArrow,   // ->
  kColon,   // :
  kAssign,  // =
  kDot,     // .
  kPlus,    // +
  kMinus,   // -
  kComma,   // ,
  kRel,     // == != <= >= < >
};

struct Token {
  Tok kind;
  std::string text;       // ident spelling / string body
  std::int64_t value = 0; // kInt
  Rel rel = Rel::kEq;     // kRel
};

bool ident_start(char c) { return std::isalpha(static_cast<unsigned char>(c)) || c == '_'; }
bool ident_char(char c) { return std::isalnum(static_cast<unsigned char>(c)) || c == '_'; }

/// Tokenizes one comment-stripped line. Returns false (with `error` set) on
/// a malformed token; tokens lexed so far are kept for best-effort recovery.
bool lex_line(std::string_view line, std::vector<Token>& out, std::string& error) {
  std::size_t i = 0;
  const std::size_t n = line.size();
  while (i < n) {
    const char c = line[i];
    if (c == ' ' || c == '\t' || c == '\r') {
      ++i;
      continue;
    }
    if (c == '#') break;  // comment to end of line
    if (ident_start(c)) {
      std::size_t j = i + 1;
      while (j < n && ident_char(line[j])) ++j;
      out.push_back({Tok::kIdent, std::string(line.substr(i, j - i)), 0, Rel::kEq});
      i = j;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      std::size_t j = i;
      std::int64_t v = 0;
      bool overflow = false;
      while (j < n && std::isdigit(static_cast<unsigned char>(line[j]))) {
        // Accumulation stops at the first digit that would overflow; the
        // rest of the literal is still consumed.
        const int digit = line[j] - '0';
        if (v > (INT64_MAX - digit) / 10) overflow = true;
        if (!overflow) v = v * 10 + digit;
        ++j;
      }
      if (overflow) {
        error = "integer literal out of range";
        return false;
      }
      out.push_back({Tok::kInt, std::string(line.substr(i, j - i)), v, Rel::kEq});
      i = j;
      continue;
    }
    if (c == '"') {
      std::string body;
      std::size_t j = i + 1;
      bool closed = false;
      while (j < n) {
        if (line[j] == '\\' && j + 1 < n && (line[j + 1] == '"' || line[j + 1] == '\\')) {
          body += line[j + 1];
          j += 2;
          continue;
        }
        if (line[j] == '"') {
          closed = true;
          ++j;
          break;
        }
        body += line[j];
        ++j;
      }
      if (!closed) {
        error = "unterminated string literal";
        return false;
      }
      out.push_back({Tok::kString, std::move(body), 0, Rel::kEq});
      i = j;
      continue;
    }
    auto two = [&](char a, char b) { return c == a && i + 1 < n && line[i + 1] == b; };
    if (two('-', '>')) {
      out.push_back({Tok::kArrow, "->", 0, Rel::kEq});
      i += 2;
      continue;
    }
    if (two('=', '=')) {
      out.push_back({Tok::kRel, "==", 0, Rel::kEq});
      i += 2;
      continue;
    }
    if (two('!', '=')) {
      out.push_back({Tok::kRel, "!=", 0, Rel::kNe});
      i += 2;
      continue;
    }
    if (two('<', '=')) {
      out.push_back({Tok::kRel, "<=", 0, Rel::kLe});
      i += 2;
      continue;
    }
    if (two('>', '=')) {
      out.push_back({Tok::kRel, ">=", 0, Rel::kGe});
      i += 2;
      continue;
    }
    switch (c) {
      case '<': out.push_back({Tok::kRel, "<", 0, Rel::kLt}); break;
      case '>': out.push_back({Tok::kRel, ">", 0, Rel::kGt}); break;
      case ':': out.push_back({Tok::kColon, ":", 0, Rel::kEq}); break;
      case '=': out.push_back({Tok::kAssign, "=", 0, Rel::kEq}); break;
      case '.': out.push_back({Tok::kDot, ".", 0, Rel::kEq}); break;
      case ',': out.push_back({Tok::kComma, ",", 0, Rel::kEq}); break;
      case '+': out.push_back({Tok::kPlus, "+", 0, Rel::kEq}); break;
      case '-': out.push_back({Tok::kMinus, "-", 0, Rel::kEq}); break;
      default:
        error = std::string("unexpected character '") + c + "'";
        return false;
    }
    ++i;
  }
  return true;
}

// --- Token cursor -------------------------------------------------------------

/// Cursor over one line's tokens; parse helpers report via `error`.
struct Cursor {
  const std::vector<Token>* toks;
  std::size_t pos = 0;
  std::string error;

  [[nodiscard]] bool done() const { return pos >= toks->size(); }
  [[nodiscard]] const Token* peek() const { return done() ? nullptr : &(*toks)[pos]; }

  const Token* take(Tok kind, std::string_view what) {
    const Token* t = peek();
    if (t == nullptr || t->kind != kind) {
      fail(what);
      return nullptr;
    }
    ++pos;
    return t;
  }

  bool take_keyword(std::string_view kw) {
    const Token* t = peek();
    if (t == nullptr || t->kind != Tok::kIdent || t->text != kw) {
      fail(std::string("keyword '") + std::string(kw) + "'");
      return false;
    }
    ++pos;
    return true;
  }

  void fail(std::string_view what) {
    if (!error.empty()) return;
    const Token* t = peek();
    error = "expected " + std::string(what);
    if (t != nullptr) {
      error += ", got '" + (t->kind == Tok::kString ? "\"" + t->text + "\"" : t->text) + "'";
    } else {
      error += ", got end of line";
    }
  }

  /// EXPR := INT | - INT | IDENT ((+|-) INT)?
  std::optional<ValueExpr> expr(Program& program) {
    const Token* t = peek();
    if (t == nullptr) {
      fail("expression");
      return std::nullopt;
    }
    if (t->kind == Tok::kMinus) {
      ++pos;
      const Token* k = take(Tok::kInt, "integer after '-'");
      if (k == nullptr) return std::nullopt;
      return ValueExpr::constant(-k->value);
    }
    if (t->kind == Tok::kInt) {
      ++pos;
      return ValueExpr::constant(t->value);
    }
    if (t->kind == Tok::kIdent) {
      ++pos;
      const support::Symbol sym = program.interner().intern(t->text);
      const Token* op = peek();
      if (op != nullptr && (op->kind == Tok::kPlus || op->kind == Tok::kMinus)) {
        ++pos;
        const Token* k = take(Tok::kInt, "integer offset");
        if (k == nullptr) return std::nullopt;
        const std::int64_t off = op->kind == Tok::kPlus ? k->value : -k->value;
        return ValueExpr::var_plus(sym, off);
      }
      return ValueExpr::variable(sym);
    }
    fail("expression");
    return std::nullopt;
  }

  /// COND := EXPR REL EXPR
  std::optional<Cond> cond(Program& program) {
    auto lhs = expr(program);
    if (!lhs) return std::nullopt;
    const Token* r = take(Tok::kRel, "comparison operator");
    if (r == nullptr) return std::nullopt;
    auto rhs = expr(program);
    if (!rhs) return std::nullopt;
    Cond c;
    c.lhs = *lhs;
    c.rel = r->rel;
    c.rhs = *rhs;
    return c;
  }
};

// --- Skeleton (first pass) -----------------------------------------------------

struct RawLine {
  std::uint32_t line = 0;  // 1-based
  std::vector<Token> toks;
};

struct ThreadSection {
  std::string name;
  std::uint32_t line = 0;
  std::vector<RawLine> body;  // endpoint decls + instructions + labels
};

struct Skeleton {
  std::string unit_name;
  std::vector<ThreadSection> threads;
  std::vector<RawLine> properties;  // bodies of `property` lines
};

// --- Parser ---------------------------------------------------------------------

/// OPERAND := INT | - INT | THREAD '.' VAR ((+|-) INT)?, with THREAD and
/// VAR resolved against `program`. A name error goes to `error`; a syntax
/// error is left in `cur`.
std::optional<encode::Operand> parse_operand(Cursor& cur, const Program& program,
                                             std::string& error) {
  const Token* t = cur.peek();
  if (t == nullptr) {
    cur.fail("operand");
    return std::nullopt;
  }
  if (t->kind == Tok::kMinus || t->kind == Tok::kInt) {
    const bool neg = t->kind == Tok::kMinus;
    if (neg) ++cur.pos;
    const Token* k = cur.take(Tok::kInt, "integer after '-'");
    if (k == nullptr) return std::nullopt;
    return encode::Operand::constant(neg ? -k->value : k->value);
  }
  const Token* thread = cur.take(Tok::kIdent, "thread name");
  if (thread == nullptr) return std::nullopt;
  ThreadRef tref = 0;
  while (tref < program.num_threads() && program.thread(tref).name != thread->text) {
    ++tref;
  }
  if (tref == program.num_threads()) {
    error = "unknown thread '" + thread->text + "' in property";
    return std::nullopt;
  }
  if (cur.take(Tok::kDot, "'.'") == nullptr) return std::nullopt;
  const Token* var = cur.take(Tok::kIdent, "local name");
  if (var == nullptr) return std::nullopt;
  const auto& names = program.thread(tref).slot_names;
  if (std::find(names.begin(), names.end(), var->text) == names.end()) {
    error = "thread '" + thread->text + "' has no local named '" + var->text + "'";
    return std::nullopt;
  }
  std::int64_t off = 0;
  const Token* opt = cur.peek();
  if (opt != nullptr && (opt->kind == Tok::kPlus || opt->kind == Tok::kMinus)) {
    ++cur.pos;
    const Token* k = cur.take(Tok::kInt, "integer offset");
    if (k == nullptr) return std::nullopt;
    off = opt->kind == Tok::kPlus ? k->value : -k->value;
  }
  return encode::Operand::final_var(tref, var->text, off);
}

/// PROPERTY := STRING? OPERAND REL OPERAND, the body of a `property` line
/// and of a --property argument. On failure returns nullopt with the first
/// problem in `error`. The label is the STRING, or empty: each caller has
/// its own rule for unlabeled properties.
std::optional<encode::Property> parse_property_body(const std::vector<Token>& toks,
                                                    const Program& program,
                                                    std::string& error) {
  Cursor cur{&toks, 0, {}};
  std::string label;
  if (const Token* t = cur.peek(); t != nullptr && t->kind == Tok::kString) {
    label = t->text;
    ++cur.pos;
  }
  auto lhs = parse_operand(cur, program, error);
  const Token* rel = lhs ? cur.take(Tok::kRel, "comparison operator") : nullptr;
  auto rhs = rel != nullptr ? parse_operand(cur, program, error) : std::nullopt;
  // Every failed read leaves a name error or a syntax error behind, so
  // with neither both operands and the operator were read.
  if (error.empty()) error = cur.error;
  if (error.empty() && !cur.done()) error = "trailing tokens after property";
  if (!error.empty()) return std::nullopt;
  return encode::make_property(std::move(label), std::move(*lhs), rel->rel,
                               std::move(*rhs));
}

std::string render_operand(const Program& program, const encode::Operand& o) {
  if (!o.is_var) return std::to_string(o.k);
  std::string s = program.thread(o.thread).name + "." + o.var;
  if (o.k > 0) s += " + " + std::to_string(o.k);
  if (o.k < 0) s += " - " + std::to_string(-o.k);
  return s;
}

class Parser {
 public:
  explicit Parser(std::string_view source) : source_(source) {}

  ParseOutcome run() {
    split_and_lex();
    if (!build_skeleton()) return finish();
    declare_threads_and_endpoints();
    // A duplicate thread gets no builder, so its body has nowhere to go.
    if (builders_.size() != skeleton_.threads.size()) return finish();
    parse_instructions();
    if (!diags_.empty()) return finish();
    program_.finalize();
    parse_properties();
    return finish();
  }

 private:
  void diag(std::uint32_t line, std::string message) {
    diags_.push_back(Diagnostic{line, std::move(message)});
  }

  ParseOutcome finish() {
    ParseOutcome out;
    out.diagnostics = std::move(diags_);
    if (out.diagnostics.empty()) {
      ParsedProgram parsed;
      parsed.name = std::move(skeleton_.unit_name);
      parsed.program = std::move(program_);
      parsed.properties = std::move(properties_);
      out.parsed.emplace(std::move(parsed));
    }
    return out;
  }

  void split_and_lex() {
    std::uint32_t line_no = 0;
    std::size_t start = 0;
    while (start <= source_.size()) {
      std::size_t end = source_.find('\n', start);
      if (end == std::string_view::npos) end = source_.size();
      ++line_no;
      const std::string_view line = source_.substr(start, end - start);
      RawLine raw;
      raw.line = line_no;
      std::string error;
      if (!lex_line(line, raw.toks, error)) diag(line_no, error);
      if (!raw.toks.empty()) lines_.push_back(std::move(raw));
      if (end == source_.size()) break;
      start = end + 1;
    }
  }

  bool build_skeleton() {
    ThreadSection* current = nullptr;
    for (RawLine& raw : lines_) {
      const Token& head = raw.toks.front();
      if (head.kind != Tok::kIdent) {
        diag(raw.line, "expected a directive or instruction");
        continue;
      }
      if (head.text == "program") {
        if (raw.toks.size() != 2 || raw.toks[1].kind != Tok::kIdent) {
          diag(raw.line, "usage: program NAME");
          continue;
        }
        if (!skeleton_.unit_name.empty()) {
          diag(raw.line, "duplicate 'program' header");
          continue;
        }
        skeleton_.unit_name = raw.toks[1].text;
        continue;
      }
      if (head.text == "thread") {
        if (raw.toks.size() != 2 || raw.toks[1].kind != Tok::kIdent) {
          diag(raw.line, "usage: thread NAME");
          current = nullptr;
          continue;
        }
        skeleton_.threads.push_back(ThreadSection{raw.toks[1].text, raw.line, {}});
        current = &skeleton_.threads.back();
        continue;
      }
      if (head.text == "property") {
        RawLine body = std::move(raw);
        body.toks.erase(body.toks.begin());  // drop the keyword
        skeleton_.properties.push_back(std::move(body));
        continue;
      }
      if (current == nullptr) {
        diag(raw.line, "'" + head.text + "' outside any thread block");
        continue;
      }
      current->body.push_back(std::move(raw));
    }
    if (skeleton_.threads.empty()) {
      diag(0, "no 'thread' blocks found");
      return false;
    }
    return diags_.empty();
  }

  void declare_threads_and_endpoints() {
    std::unordered_set<std::string> thread_names;
    for (const ThreadSection& sec : skeleton_.threads) {
      if (!thread_names.insert(sec.name).second) {
        diag(sec.line, "duplicate thread name '" + sec.name + "'");
        continue;
      }
      builders_.push_back(program_.add_thread(sec.name));
      thread_of_[sec.name] = static_cast<ThreadRef>(builders_.size() - 1);
    }
    if (!diags_.empty()) return;
    for (std::size_t ti = 0; ti < skeleton_.threads.size(); ++ti) {
      for (const RawLine& raw : skeleton_.threads[ti].body) {
        if (raw.toks.front().kind != Tok::kIdent || raw.toks.front().text != "endpoint") {
          continue;
        }
        if (raw.toks.size() != 2 || raw.toks[1].kind != Tok::kIdent) {
          diag(raw.line, "usage: endpoint NAME");
          continue;
        }
        const std::string& name = raw.toks[1].text;
        if (endpoint_of_.contains(name)) {
          diag(raw.line, "duplicate endpoint name '" + name + "'");
          continue;
        }
        endpoint_of_[name] =
            program_.add_endpoint(name, static_cast<ThreadRef>(ti));
      }
    }
  }

  std::optional<EndpointRef> endpoint(const Token* tok, std::uint32_t line) {
    if (tok == nullptr) return std::nullopt;
    const auto it = endpoint_of_.find(tok->text);
    if (it == endpoint_of_.end()) {
      diag(line, "unknown endpoint '" + tok->text + "'");
      return std::nullopt;
    }
    return it->second;
  }

  void parse_instructions() {
    for (std::size_t ti = 0; ti < skeleton_.threads.size(); ++ti) {
      const ThreadSection& sec = skeleton_.threads[ti];
      ThreadBuilder& tb = builders_[ti];
      const ThreadRef tref = static_cast<ThreadRef>(ti);

      // Labels first, so forward jumps validate.
      std::unordered_map<std::string, std::uint32_t> labels;  // name -> decl line
      for (const RawLine& raw : sec.body) {
        if (raw.toks.front().text != "label") continue;
        if (raw.toks.size() != 2 || raw.toks[1].kind != Tok::kIdent) {
          diag(raw.line, "usage: label NAME");
          continue;
        }
        if (!labels.emplace(raw.toks[1].text, raw.line).second) {
          diag(raw.line, "duplicate label '" + raw.toks[1].text + "' in thread '" +
                             sec.name + "'");
        }
      }

      auto known_label = [&](const Token* tok, std::uint32_t line) -> bool {
        if (tok == nullptr) return false;
        if (!labels.contains(tok->text)) {
          diag(line, "jump to unknown label '" + tok->text + "'");
          return false;
        }
        return true;
      };

      for (const RawLine& raw : sec.body) {
        Cursor cur{&raw.toks, 0, {}};
        const Token* head = cur.take(Tok::kIdent, "instruction");
        MCSYM_ASSERT(head != nullptr);  // skeleton only kept ident-headed lines
        const std::string& op = head->text;
        const std::size_t diags_before = diags_.size();
        bool ok = true;

        if (op == "endpoint") {
          cur.pos = raw.toks.size();  // handled in the declaration pass
        } else if (op == "send") {
          const auto src = endpoint(cur.take(Tok::kIdent, "source endpoint"), raw.line);
          ok = cur.take(Tok::kArrow, "'->'") != nullptr;
          const auto dst =
              ok ? endpoint(cur.take(Tok::kIdent, "destination endpoint"), raw.line)
                 : std::nullopt;
          ok = ok && cur.take(Tok::kColon, "':'") != nullptr;
          const auto payload = ok ? cur.expr(program_) : std::nullopt;
          if (src && dst && payload && cur.error.empty()) {
            if (program_.endpoint(*src).owner != tref) {
              diag(raw.line, "source endpoint '" + program_.endpoint(*src).name +
                                 "' is not owned by thread '" + sec.name + "'");
              tb.nop();
            } else {
              tb.send(*src, *dst, *payload);
            }
          } else {
            ok = false;
          }
        } else if (op == "recv" || op == "recv_i") {
          const auto ep = endpoint(cur.take(Tok::kIdent, "receive endpoint"), raw.line);
          ok = cur.take(Tok::kArrow, "'->'") != nullptr;
          const Token* var = ok ? cur.take(Tok::kIdent, "destination local") : nullptr;
          std::uint32_t req = 0;
          bool nb = op == "recv_i";
          if (nb && ok && var != nullptr) {
            ok = cur.take_keyword("req");
            const Token* slot = ok ? cur.take(Tok::kInt, "request slot") : nullptr;
            if (slot != nullptr) req = static_cast<std::uint32_t>(slot->value);
            ok = ok && slot != nullptr;
          }
          if (ep && var != nullptr && ok && cur.error.empty()) {
            if (program_.endpoint(*ep).owner != tref) {
              diag(raw.line, "receive endpoint '" + program_.endpoint(*ep).name +
                                 "' is not owned by thread '" + sec.name + "'");
              tb.nop();
            } else if (nb) {
              tb.recv_nb(*ep, var->text, req);
            } else {
              tb.recv(*ep, var->text);
            }
          } else {
            ok = false;
          }
        } else if (op == "wait") {
          const Token* slot = cur.take(Tok::kInt, "request slot");
          if (slot != nullptr) {
            tb.wait(static_cast<std::uint32_t>(slot->value));
          } else {
            ok = false;
          }
        } else if (op == "wait_any") {
          std::vector<std::uint32_t> reqs;
          const Token* first = cur.take(Tok::kInt, "request slot");
          ok = first != nullptr;
          if (first != nullptr) reqs.push_back(static_cast<std::uint32_t>(first->value));
          while (ok && cur.peek() != nullptr && cur.peek()->kind == Tok::kComma) {
            ++cur.pos;
            const Token* more = cur.take(Tok::kInt, "request slot");
            ok = more != nullptr;
            if (more != nullptr) reqs.push_back(static_cast<std::uint32_t>(more->value));
          }
          ok = ok && cur.take(Tok::kArrow, "'->'") != nullptr;
          const Token* var = ok ? cur.take(Tok::kIdent, "index local") : nullptr;
          if (!reqs.empty() && var != nullptr && cur.error.empty()) {
            tb.wait_any(std::move(reqs), var->text);
          } else {
            ok = false;
          }
        } else if (op == "test") {
          const Token* slot = cur.take(Tok::kInt, "request slot");
          ok = slot != nullptr && cur.take(Tok::kArrow, "'->'") != nullptr;
          const Token* var = ok ? cur.take(Tok::kIdent, "destination local") : nullptr;
          if (slot != nullptr && var != nullptr && cur.error.empty()) {
            tb.test_poll(static_cast<std::uint32_t>(slot->value), var->text);
          } else {
            ok = false;
          }
        } else if (op == "assign") {
          const Token* var = cur.take(Tok::kIdent, "target local");
          ok = var != nullptr && cur.take(Tok::kAssign, "'='") != nullptr;
          const auto rhs = ok ? cur.expr(program_) : std::nullopt;
          if (var != nullptr && rhs && cur.error.empty()) {
            tb.assign(var->text, *rhs);
          } else {
            ok = false;
          }
        } else if (op == "label") {
          const Token* name = cur.take(Tok::kIdent, "label name");
          // Duplicates already diagnosed in the pre-pass; only place valid ones.
          if (name != nullptr && labels.contains(name->text) &&
              labels[name->text] == raw.line) {
            tb.label(name->text);
          } else if (name == nullptr) {
            ok = false;
          }
        } else if (op == "goto") {
          const Token* target = cur.take(Tok::kIdent, "label");
          if (known_label(target, raw.line)) {
            tb.jump(target->text);
          } else {
            tb.nop();
            ok = target != nullptr;
          }
        } else if (op == "if") {
          const auto c = cur.cond(program_);
          ok = c.has_value() && cur.take_keyword("goto");
          const Token* target = ok ? cur.take(Tok::kIdent, "label") : nullptr;
          if (c && target != nullptr && known_label(target, raw.line)) {
            tb.jump_if(*c, target->text);
          } else {
            tb.nop();
            ok = ok && target != nullptr;
          }
        } else if (op == "assert") {
          const auto c = cur.cond(program_);
          if (c) {
            tb.assert_that(*c);
          } else {
            ok = false;
          }
        } else if (op == "nop") {
          tb.nop();
        } else {
          diag(raw.line, "unknown instruction '" + op + "'");
          tb.nop();
          continue;
        }

        if (!cur.error.empty()) {
          diag(raw.line, cur.error);
          continue;
        }
        if (!ok) {
          // Only add the generic fallback when nothing more specific (e.g.
          // an unknown-endpoint diagnostic) was already reported.
          if (diags_.size() == diags_before) {
            diag(raw.line, "malformed '" + op + "' instruction");
          }
          continue;
        }
        if (!cur.done()) {
          diag(raw.line, "trailing tokens after '" + op + "' instruction");
        }
      }
    }
  }

  /// `property` lines: an unlabeled one is labeled with its rendered
  /// operands.
  void parse_properties() {
    for (const RawLine& raw : skeleton_.properties) {
      std::string error;
      auto prop = parse_property_body(raw.toks, program_, error);
      if (!prop) {
        diag(raw.line, std::move(error));
        continue;
      }
      if (prop->label.empty()) {
        prop->label = render_operand(program_, prop->lhs) + " " +
                      mcapi::rel_name(prop->rel) + " " +
                      render_operand(program_, prop->rhs);
      }
      properties_.push_back(std::move(*prop));
    }
  }

  std::string_view source_;
  std::vector<RawLine> lines_;
  Skeleton skeleton_;
  Program program_;
  std::vector<ThreadBuilder> builders_;
  std::unordered_map<std::string, ThreadRef> thread_of_;
  std::unordered_map<std::string, EndpointRef> endpoint_of_;
  std::vector<encode::Property> properties_;
  std::vector<Diagnostic> diags_;
};

// --- Printer ---------------------------------------------------------------------

std::string render_expr(const ValueExpr& e, const support::Interner& names) {
  switch (e.kind) {
    case ValueExpr::Kind::kConst:
      return e.k < 0 ? "- " + std::to_string(-e.k) : std::to_string(e.k);
    case ValueExpr::Kind::kVar: return names.spelling(e.var);
    case ValueExpr::Kind::kVarPlus: {
      const std::string base = names.spelling(e.var);
      if (e.k >= 0) return base + " + " + std::to_string(e.k);
      return base + " - " + std::to_string(-e.k);
    }
  }
  MCSYM_UNREACHABLE("bad expr kind");
}

std::string render_cond(const Cond& c, const support::Interner& names) {
  return render_expr(c.lhs, names) + " " + mcapi::rel_name(c.rel) + " " +
         render_expr(c.rhs, names);
}

std::string escaped(std::string_view s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

/// Assigns every entry a unique name: the original where already unique,
/// otherwise `name_<index>`.
std::vector<std::string> uniquify(std::vector<std::string> names) {
  std::unordered_map<std::string, int> count;
  for (const std::string& n : names) ++count[n];
  std::unordered_set<std::string> used;
  for (auto& [n, c] : count) {
    if (c == 1) used.insert(n);
  }
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (count[names[i]] == 1) continue;
    std::string candidate = names[i] + "_" + std::to_string(i);
    while (used.contains(candidate)) candidate += "x";
    used.insert(candidate);
    names[i] = std::move(candidate);
  }
  return names;
}

}  // namespace

std::string cond_to_text(const mcapi::Cond& cond, const support::Interner& names) {
  return render_cond(cond, names);
}

std::string ParseOutcome::error_text() const {
  std::string out;
  for (const Diagnostic& d : diagnostics) {
    if (!out.empty()) out += '\n';
    out += d.str();
  }
  return out;
}

ParseOutcome parse_program(std::string_view source) { return Parser(source).run(); }

PropertyParseResult parse_property(const mcapi::Program& program,
                                   std::string_view body) {
  PropertyParseResult result;
  std::vector<Token> toks;
  std::string error;
  if (!lex_line(body, toks, error)) {
    result.diagnostics.push_back(Diagnostic{1, error});
    return result;
  }
  if (toks.empty()) {
    result.diagnostics.push_back(Diagnostic{1, "empty property"});
    return result;
  }
  result.property = parse_property_body(toks, program, error);
  if (!result.property) {
    result.diagnostics.push_back(Diagnostic{1, std::move(error)});
  } else if (result.property->label.empty()) {
    result.property->label = std::string(body);  // the body text, as given
  }
  return result;
}

std::string program_to_text(const mcapi::Program& program,
                            std::span<const encode::Property> properties,
                            std::string_view name) {
  MCSYM_ASSERT_MSG(program.finalized(), "program_to_text needs a finalized program");

  std::vector<std::string> thread_names;
  for (ThreadRef t = 0; t < program.num_threads(); ++t) {
    thread_names.push_back(program.thread(t).name);
  }
  thread_names = uniquify(std::move(thread_names));

  std::vector<std::string> endpoint_names;
  for (EndpointRef e = 0; e < program.num_endpoints(); ++e) {
    endpoint_names.push_back(program.endpoint(e).name);
  }
  endpoint_names = uniquify(std::move(endpoint_names));

  std::string out;
  if (!name.empty()) {
    out += "program " + std::string(name) + "\n\n";
  }

  const support::Interner& names = program.interner();
  for (ThreadRef t = 0; t < program.num_threads(); ++t) {
    const auto& thread = program.thread(t);
    out += "thread " + thread_names[t] + "\n";
    for (EndpointRef e = 0; e < program.num_endpoints(); ++e) {
      if (program.endpoint(e).owner == t) {
        out += "  endpoint " + endpoint_names[e] + "\n";
      }
    }

    // Synthesize labels at jump targets.
    std::set<std::uint32_t> targets;
    for (const mcapi::Instr& i : thread.code) {
      if (i.kind == mcapi::OpKind::kJmp || i.kind == mcapi::OpKind::kJmpIf) {
        targets.insert(i.target);
      }
    }
    auto label_name = [](std::uint32_t pc) {
      return std::string("L").append(std::to_string(pc));
    };

    for (std::uint32_t pc = 0; pc <= thread.code.size(); ++pc) {
      if (targets.contains(pc)) {
        out.append("  label ").append(label_name(pc)).append("\n");
      }
      if (pc == thread.code.size()) break;
      const mcapi::Instr& i = thread.code[pc];
      out += "  ";
      switch (i.kind) {
        case mcapi::OpKind::kSend:
          out += "send " + endpoint_names[i.src] + " -> " + endpoint_names[i.dst] +
                 " : " + render_expr(i.expr, names);
          break;
        case mcapi::OpKind::kRecv:
          out += "recv " + endpoint_names[i.dst] + " -> " + names.spelling(i.var);
          break;
        case mcapi::OpKind::kRecvNb:
          out += "recv_i " + endpoint_names[i.dst] + " -> " + names.spelling(i.var) +
                 " req " + std::to_string(i.req);
          break;
        case mcapi::OpKind::kWait: out += "wait " + std::to_string(i.req); break;
        case mcapi::OpKind::kTest:
          out += "test " + std::to_string(i.req) + " -> " + names.spelling(i.var);
          break;
        case mcapi::OpKind::kWaitAny: {
          out += "wait_any ";
          for (std::size_t k = 0; k < i.reqs.size(); ++k) {
            if (k != 0) out += ",";
            out += std::to_string(i.reqs[k]);
          }
          out += " -> " + names.spelling(i.var);
          break;
        }
        case mcapi::OpKind::kAssign:
          out += "assign " + names.spelling(i.var) + " = " + render_expr(i.expr, names);
          break;
        case mcapi::OpKind::kJmp: out += "goto " + label_name(i.target); break;
        case mcapi::OpKind::kJmpIf:
          out += "if " + render_cond(i.cond, names) + " goto " + label_name(i.target);
          break;
        case mcapi::OpKind::kAssert:
          out += "assert " + render_cond(i.cond, names);
          break;
        case mcapi::OpKind::kNop: out += "nop"; break;
      }
      out += "\n";
    }
    out += "\n";
  }

  for (const encode::Property& p : properties) {
    auto render = [&](const encode::Operand& o) -> std::string {
      if (!o.is_var) return std::to_string(o.k);
      std::string s = thread_names[o.thread] + "." + o.var;
      if (o.k > 0) s += " + " + std::to_string(o.k);
      if (o.k < 0) s += " - " + std::to_string(-o.k);
      return s;
    };
    out += "property \"" + escaped(p.label) + "\" " + render(p.lhs) + " " +
           mcapi::rel_name(p.rel) + " " + render(p.rhs) + "\n";
  }
  return out;
}

}  // namespace mcsym::text
