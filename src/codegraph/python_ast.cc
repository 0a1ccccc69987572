#include "codegraph/python_ast.h"

#include <algorithm>
#include <cctype>

#include "codegraph/analysis/diagnostic.h"
#include "util/string_util.h"

namespace kgpip::codegraph {

namespace {

using analysis::MakeError;
using analysis::SourceSpan;

enum class TokKind {
  kName,
  kNumber,
  kString,
  kOp,       // punctuation / operators
  kNewline,
  kIndent,
  kDedent,
  kEnd,
};

struct Token {
  TokKind kind;
  std::string text;
  int line;
  int col;  // 1-based column of the token's first character

  SourceSpan span() const { return {line, col}; }
};

/// Indentation-aware tokenizer for the supported subset.
class Lexer {
 public:
  explicit Lexer(const std::string& source) : source_(source) {}

  Result<std::vector<Token>> Run() {
    std::vector<Token> tokens;
    std::vector<int> indents = {0};
    size_t pos = 0;
    int line = 0;
    const size_t n = source_.size();
    while (pos < n) {
      ++line;
      const size_t line_begin = pos;
      auto col = [&](size_t at) {
        return static_cast<int>(at - line_begin) + 1;
      };
      // Measure indentation.
      int indent = 0;
      while (pos < n && (source_[pos] == ' ' || source_[pos] == '\t')) {
        indent += source_[pos] == '\t' ? 4 : 1;
        ++pos;
      }
      // Blank / comment-only lines don't affect indentation.
      if (pos >= n || source_[pos] == '\n' || source_[pos] == '#') {
        while (pos < n && source_[pos] != '\n') ++pos;
        if (pos < n) ++pos;
        continue;
      }
      if (indent > indents.back()) {
        indents.push_back(indent);
        tokens.push_back({TokKind::kIndent, "", line, 1});
      }
      while (indent < indents.back()) {
        indents.pop_back();
        tokens.push_back({TokKind::kDedent, "", line, 1});
      }
      if (indent != indents.back()) {
        return MakeError("lex.inconsistent-indent",
                         "inconsistent indentation",
                         {line, col(pos)})
            .ToStatus();
      }
      // Tokenize the logical line (no continuations inside brackets across
      // newlines for simplicity; generator emits single-line statements).
      while (pos < n && source_[pos] != '\n') {
        char c = source_[pos];
        if (c == ' ' || c == '\t') {
          ++pos;
          continue;
        }
        if (c == '#') {
          while (pos < n && source_[pos] != '\n') ++pos;
          break;
        }
        if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
          size_t start = pos;
          while (pos < n &&
                 (std::isalnum(static_cast<unsigned char>(source_[pos])) ||
                  source_[pos] == '_')) {
            ++pos;
          }
          tokens.push_back({TokKind::kName,
                            source_.substr(start, pos - start), line,
                            col(start)});
          continue;
        }
        if (std::isdigit(static_cast<unsigned char>(c)) ||
            (c == '.' && pos + 1 < n &&
             std::isdigit(static_cast<unsigned char>(source_[pos + 1])))) {
          size_t start = pos;
          while (pos < n &&
                 (std::isdigit(static_cast<unsigned char>(source_[pos])) ||
                  source_[pos] == '.' || source_[pos] == 'e' ||
                  source_[pos] == 'E' ||
                  ((source_[pos] == '+' || source_[pos] == '-') && pos > start &&
                   (source_[pos - 1] == 'e' || source_[pos - 1] == 'E')))) {
            ++pos;
          }
          tokens.push_back({TokKind::kNumber,
                            source_.substr(start, pos - start), line,
                            col(start)});
          continue;
        }
        if (c == '\'' || c == '"') {
          char quote = c;
          const size_t start = pos;
          ++pos;
          std::string text;
          bool closed = false;
          while (pos < n && source_[pos] != '\n') {
            if (source_[pos] == '\\' && pos + 1 < n) {
              text += source_[pos + 1];
              pos += 2;
              continue;
            }
            if (source_[pos] == quote) {
              ++pos;
              closed = true;
              break;
            }
            text += source_[pos++];
          }
          if (!closed) {
            return MakeError("lex.unterminated-string",
                             "unterminated string literal",
                             {line, col(start)})
                .ToStatus();
          }
          tokens.push_back({TokKind::kString, text, line, col(start)});
          continue;
        }
        // Multi-char operators first.
        static const char* kTwoCharOps[] = {"==", "!=", "<=", ">=", "//",
                                            "**", "+=", "-="};
        bool matched = false;
        for (const char* op : kTwoCharOps) {
          if (pos + 1 < n && source_[pos] == op[0] &&
              source_[pos + 1] == op[1]) {
            tokens.push_back({TokKind::kOp, op, line, col(pos)});
            pos += 2;
            matched = true;
            break;
          }
        }
        if (matched) continue;
        static const std::string kSingleOps = "()[]{},.:=+-*/%<>";
        if (kSingleOps.find(c) != std::string::npos) {
          tokens.push_back({TokKind::kOp, std::string(1, c), line, col(pos)});
          ++pos;
          continue;
        }
        return MakeError("lex.unexpected-char",
                         "unexpected character '" + std::string(1, c) + "'",
                         {line, col(pos)})
            .ToStatus();
      }
      tokens.push_back({TokKind::kNewline, "", line, col(pos)});
      if (pos < n) ++pos;  // consume '\n'
    }
    while (indents.size() > 1) {
      indents.pop_back();
      tokens.push_back({TokKind::kDedent, "", line, 1});
    }
    tokens.push_back({TokKind::kEnd, "", line, 1});
    return tokens;
  }

 private:
  const std::string& source_;
};

/// Recursive-descent parser over the token stream.
class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<Module> Run() {
    Module module;
    while (!AtEnd()) {
      if (Check(TokKind::kNewline)) {
        Advance();
        continue;
      }
      KGPIP_ASSIGN_OR_RETURN(StmtPtr stmt, ParseStatement());
      module.statements.push_back(std::move(stmt));
    }
    return module;
  }

 private:
  Result<StmtPtr> ParseStatement() {
    const Token& tok = Peek();
    if (tok.kind == TokKind::kName) {
      if (tok.text == "import") return ParseImport();
      if (tok.text == "from") return ParseFromImport();
      if (tok.text == "for") return ParseFor();
      if (tok.text == "if") return ParseIf();
      if (tok.text == "print" || tok.text == "pass") {
        // treat like plain expression statements
      }
    }
    return ParseSimpleStatement();
  }

  Result<StmtPtr> ParseImport() {
    auto stmt = std::make_unique<Stmt>();
    stmt->kind = StmtKind::kImport;
    stmt->line = Peek().line;
    Advance();  // import
    KGPIP_ASSIGN_OR_RETURN(stmt->module, ParseDottedName());
    if (CheckName("as")) {
      Advance();
      KGPIP_ASSIGN_OR_RETURN(stmt->alias, ExpectName());
    }
    KGPIP_RETURN_IF_ERROR(ExpectNewline());
    return stmt;
  }

  Result<StmtPtr> ParseFromImport() {
    auto stmt = std::make_unique<Stmt>();
    stmt->kind = StmtKind::kImportFrom;
    stmt->line = Peek().line;
    Advance();  // from
    KGPIP_ASSIGN_OR_RETURN(stmt->module, ParseDottedName());
    if (!CheckName("import")) {
      return Err("parse.expected-keyword", "expected 'import'");
    }
    Advance();
    KGPIP_ASSIGN_OR_RETURN(stmt->imported_name, ExpectName());
    if (CheckName("as")) {
      Advance();
      KGPIP_ASSIGN_OR_RETURN(stmt->alias, ExpectName());
    }
    KGPIP_RETURN_IF_ERROR(ExpectNewline());
    return stmt;
  }

  Result<StmtPtr> ParseFor() {
    auto stmt = std::make_unique<Stmt>();
    stmt->kind = StmtKind::kFor;
    stmt->line = Peek().line;
    Advance();  // for
    KGPIP_ASSIGN_OR_RETURN(stmt->loop_var, ExpectName());
    if (!CheckName("in")) return Err("parse.expected-keyword", "expected 'in'");
    Advance();
    KGPIP_ASSIGN_OR_RETURN(stmt->value, ParseExpression());
    KGPIP_RETURN_IF_ERROR(ExpectOp(":"));
    KGPIP_RETURN_IF_ERROR(ExpectNewline());
    KGPIP_ASSIGN_OR_RETURN(stmt->body, ParseBlock());
    return stmt;
  }

  Result<StmtPtr> ParseIf() {
    auto stmt = std::make_unique<Stmt>();
    stmt->kind = StmtKind::kIf;
    stmt->line = Peek().line;
    Advance();  // if
    KGPIP_ASSIGN_OR_RETURN(stmt->value, ParseExpression());
    KGPIP_RETURN_IF_ERROR(ExpectOp(":"));
    KGPIP_RETURN_IF_ERROR(ExpectNewline());
    KGPIP_ASSIGN_OR_RETURN(stmt->body, ParseBlock());
    if (CheckName("else")) {
      Advance();
      KGPIP_RETURN_IF_ERROR(ExpectOp(":"));
      KGPIP_RETURN_IF_ERROR(ExpectNewline());
      KGPIP_ASSIGN_OR_RETURN(stmt->orelse, ParseBlock());
    }
    return stmt;
  }

  Result<std::vector<StmtPtr>> ParseBlock() {
    Nesting nesting(&depth_);
    if (depth_ > kMaxParseNesting) return TooDeep();
    if (!Check(TokKind::kIndent)) {
      return Err("parse.expected-block", "expected indented block");
    }
    Advance();
    std::vector<StmtPtr> body;
    while (!Check(TokKind::kDedent) && !AtEnd()) {
      if (Check(TokKind::kNewline)) {
        Advance();
        continue;
      }
      KGPIP_ASSIGN_OR_RETURN(StmtPtr stmt, ParseStatement());
      body.push_back(std::move(stmt));
    }
    if (Check(TokKind::kDedent)) Advance();
    return body;
  }

  Result<StmtPtr> ParseSimpleStatement() {
    auto stmt = std::make_unique<Stmt>();
    stmt->line = Peek().line;
    KGPIP_ASSIGN_OR_RETURN(ExprPtr first, ParseExpression());
    // Tuple targets: a, b = expr
    std::vector<ExprPtr> targets;
    targets.push_back(std::move(first));
    while (CheckOp(",")) {
      Advance();
      KGPIP_ASSIGN_OR_RETURN(ExprPtr next, ParseExpression());
      targets.push_back(std::move(next));
    }
    if (CheckOp("=")) {
      Advance();
      stmt->kind = StmtKind::kAssign;
      stmt->targets = std::move(targets);
      KGPIP_ASSIGN_OR_RETURN(stmt->value, ParseExpression());
      KGPIP_RETURN_IF_ERROR(ExpectNewline());
      return stmt;
    }
    if (targets.size() != 1) {
      return Err("parse.tuple-without-assign", "tuple expression without '='");
    }
    stmt->kind = StmtKind::kExpr;
    stmt->value = std::move(targets[0]);
    KGPIP_RETURN_IF_ERROR(ExpectNewline());
    return stmt;
  }

  Result<ExprPtr> ParseExpression() {
    Nesting nesting(&depth_);
    if (depth_ > kMaxParseNesting) return TooDeep();
    KGPIP_ASSIGN_OR_RETURN(ExprPtr lhs, ParseUnary());
    // Flat binary chain — precedence is irrelevant for flow analysis.
    static const char* kBinOps[] = {"+",  "-",  "*",  "/", "%",  "//",
                                    "**", "==", "!=", "<", "<=", ">",
                                    ">="};
    while (Check(TokKind::kOp)) {
      bool is_bin = false;
      for (const char* op : kBinOps) {
        if (Peek().text == op) {
          is_bin = true;
          break;
        }
      }
      if (!is_bin) break;
      auto bin = std::make_unique<Expr>();
      bin->kind = ExprKind::kBinOp;
      bin->text = Peek().text;
      bin->line = Peek().line;
      Advance();
      bin->value = std::move(lhs);
      const int lhs_height = height_;
      KGPIP_ASSIGN_OR_RETURN(bin->index, ParseUnary());
      KGPIP_RETURN_IF_ERROR(Taller(std::max(lhs_height, height_)));
      lhs = std::move(bin);
    }
    return lhs;
  }

  Result<ExprPtr> ParseUnary() {
    if (CheckOp("-") || CheckOp("+")) {
      auto un = std::make_unique<Expr>();
      un->kind = ExprKind::kBinOp;
      un->text = Peek().text;
      un->line = Peek().line;
      Advance();
      auto zero = std::make_unique<Expr>();
      zero->kind = ExprKind::kConstant;
      zero->text = "0";
      un->value = std::move(zero);
      KGPIP_ASSIGN_OR_RETURN(un->index, ParsePostfix());
      KGPIP_RETURN_IF_ERROR(Taller(height_));
      return un;
    }
    return ParsePostfix();
  }

  Result<ExprPtr> ParsePostfix() {
    KGPIP_ASSIGN_OR_RETURN(ExprPtr expr, ParseAtom());
    while (true) {
      // Each link wraps the expression so far: the tree grows one level
      // taller than its tallest operand.
      int tallest = height_;
      if (CheckOp(".")) {
        Advance();
        auto attr = std::make_unique<Expr>();
        attr->kind = ExprKind::kAttribute;
        attr->line = Peek().line;
        KGPIP_ASSIGN_OR_RETURN(attr->text, ExpectName());
        attr->value = std::move(expr);
        expr = std::move(attr);
      } else if (CheckOp("(")) {
        Advance();
        auto call = std::make_unique<Expr>();
        call->kind = ExprKind::kCall;
        call->line = Peek().line;
        call->value = std::move(expr);
        while (!CheckOp(")")) {
          // keyword argument?
          if (Check(TokKind::kName) && PeekAhead(1).kind == TokKind::kOp &&
              PeekAhead(1).text == "=") {
            KeywordArg kw;
            kw.name = Peek().text;
            Advance();
            Advance();  // '='
            KGPIP_ASSIGN_OR_RETURN(kw.value, ParseExpression());
            call->keywords.push_back(std::move(kw));
          } else {
            KGPIP_ASSIGN_OR_RETURN(ExprPtr arg, ParseExpression());
            call->args.push_back(std::move(arg));
          }
          tallest = std::max(tallest, height_);
          if (CheckOp(",")) Advance();
          else break;
        }
        KGPIP_RETURN_IF_ERROR(ExpectOp(")"));
        expr = std::move(call);
      } else if (CheckOp("[")) {
        Advance();
        auto sub = std::make_unique<Expr>();
        sub->kind = ExprKind::kSubscript;
        sub->line = Peek().line;
        sub->value = std::move(expr);
        KGPIP_ASSIGN_OR_RETURN(sub->index, ParseExpression());
        tallest = std::max(tallest, height_);
        KGPIP_RETURN_IF_ERROR(ExpectOp("]"));
        expr = std::move(sub);
      } else {
        break;
      }
      KGPIP_RETURN_IF_ERROR(Taller(tallest));
    }
    return expr;
  }

  Result<ExprPtr> ParseAtom() {
    const Token& tok = Peek();
    auto expr = std::make_unique<Expr>();
    expr->line = tok.line;
    height_ = 1;
    switch (tok.kind) {
      case TokKind::kName:
        expr->kind = ExprKind::kName;
        expr->text = tok.text;
        Advance();
        return expr;
      case TokKind::kNumber:
        expr->kind = ExprKind::kConstant;
        expr->text = tok.text;
        Advance();
        return expr;
      case TokKind::kString:
        expr->kind = ExprKind::kConstant;
        expr->text = tok.text;
        expr->is_string = true;
        Advance();
        return expr;
      case TokKind::kOp:
        if (tok.text == "(") {
          Advance();
          KGPIP_ASSIGN_OR_RETURN(ExprPtr inner, ParseExpression());
          KGPIP_RETURN_IF_ERROR(ExpectOp(")"));
          return inner;
        }
        if (tok.text == "[") {
          Advance();
          expr->kind = ExprKind::kList;
          int tallest = 0;
          while (!CheckOp("]")) {
            KGPIP_ASSIGN_OR_RETURN(ExprPtr item, ParseExpression());
            expr->args.push_back(std::move(item));
            tallest = std::max(tallest, height_);
            if (CheckOp(",")) Advance();
            else break;
          }
          KGPIP_RETURN_IF_ERROR(ExpectOp("]"));
          KGPIP_RETURN_IF_ERROR(Taller(tallest));
          return expr;
        }
        break;
      default:
        break;
    }
    return Err("parse.unexpected-token",
               "unexpected token '" + tok.text + "'");
  }

  Result<std::string> ParseDottedName() {
    KGPIP_ASSIGN_OR_RETURN(std::string name, ExpectName());
    while (CheckOp(".")) {
      Advance();
      KGPIP_ASSIGN_OR_RETURN(std::string part, ExpectName());
      name += "." + part;
    }
    return name;
  }

  Result<std::string> ExpectName() {
    if (!Check(TokKind::kName)) {
      return Err("parse.expected-identifier", "expected identifier");
    }
    std::string text = Peek().text;
    Advance();
    return text;
  }

  Status ExpectOp(const std::string& op) {
    if (!CheckOp(op)) {
      return Err("parse.expected-token", "expected '" + op + "'");
    }
    Advance();
    return Status::Ok();
  }

  Status ExpectNewline() {
    if (Check(TokKind::kNewline) || Check(TokKind::kEnd)) {
      if (Check(TokKind::kNewline)) Advance();
      return Status::Ok();
    }
    return Err("parse.expected-newline", "expected end of line");
  }

  bool AtEnd() const { return Peek().kind == TokKind::kEnd; }
  const Token& Peek() const { return tokens_[pos_]; }
  const Token& PeekAhead(size_t k) const {
    return tokens_[std::min(pos_ + k, tokens_.size() - 1)];
  }
  bool Check(TokKind kind) const { return Peek().kind == kind; }
  bool CheckOp(const std::string& op) const {
    return Peek().kind == TokKind::kOp && Peek().text == op;
  }
  bool CheckName(const std::string& name) const {
    return Peek().kind == TokKind::kName && Peek().text == name;
  }
  void Advance() {
    if (pos_ + 1 < tokens_.size()) ++pos_;
  }

  /// Structured parse error anchored at the current token.
  Status Err(std::string code, std::string what) const {
    return MakeError(std::move(code), std::move(what), Peek().span())
        .ToStatus();
  }

  Status TooDeep() const {
    return Err("parse.nesting-too-deep",
               StrFormat("expressions and blocks nest deeper than %d levels",
                         kMaxParseNesting));
  }

  /// Records a new node over operands at most `operand_height` tall, and
  /// fails once the tree outgrows the cap: a chain (`a+a+...`, `a.b.c`,
  /// `f()()`) recurses in no parser call, but every recursive walk over
  /// the tree, its destructor included, goes one level deeper per link.
  Status Taller(int operand_height) {
    height_ = operand_height + 1;
    return height_ > kMaxParseNesting ? TooDeep() : Status::Ok();
  }

  /// One level of depth_ for the scope of a recursive entry point
  /// (ParseExpression, ParseBlock), so recursion stays bounded.
  struct Nesting {
    explicit Nesting(int* depth) : depth(depth) { ++*depth; }
    ~Nesting() { --*depth; }
    int* depth;
  };

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  int depth_ = 0;
  /// Height of the tree the last ParseExpression, ParseUnary,
  /// ParsePostfix or ParseAtom call returned; a name or constant is 1.
  int height_ = 0;
};

}  // namespace

Result<Module> ParsePython(const std::string& source) {
  Lexer lexer(source);
  KGPIP_ASSIGN_OR_RETURN(std::vector<Token> tokens, lexer.Run());
  return Parser(std::move(tokens)).Run();
}

}  // namespace kgpip::codegraph
