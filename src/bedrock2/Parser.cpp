//===- bedrock2/Parser.cpp - Bedrock2 concrete-syntax parser ----------------==//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//

#include "bedrock2/Parser.h"

#include <cassert>
#include <cctype>
#include <vector>

using namespace b2;
using namespace b2::bedrock2;

namespace {

enum class TokKind : uint8_t {
  Eof,
  Ident,
  Number,
  Punct, ///< Operators and punctuation; spelling in Text.
};

struct Token {
  TokKind K = TokKind::Eof;
  std::string Text;
  Word Value = 0;
  unsigned Line = 1;
};

class Lexer {
public:
  explicit Lexer(const std::string &Src) : Src(Src) {}

  Token next() {
    skipWhitespaceAndComments();
    Token T;
    T.Line = Line;
    if (Pos >= Src.size())
      return T;
    char C = Src[Pos];
    if (std::isalpha(uint8_t(C)) || C == '_')
      return lexIdent();
    if (std::isdigit(uint8_t(C)))
      return lexNumber();
    return lexPunct();
  }

  bool hadError() const { return !Error.empty(); }
  const std::string &error() const { return Error; }

private:
  const std::string &Src;
  size_t Pos = 0;
  unsigned Line = 1;
  std::string Error;

  void skipWhitespaceAndComments() {
    for (;;) {
      while (Pos < Src.size() && std::isspace(uint8_t(Src[Pos]))) {
        if (Src[Pos] == '\n')
          ++Line;
        ++Pos;
      }
      if (Pos + 1 < Src.size() && Src[Pos] == '/' && Src[Pos + 1] == '/') {
        while (Pos < Src.size() && Src[Pos] != '\n')
          ++Pos;
        continue;
      }
      if (Pos + 1 < Src.size() && Src[Pos] == '/' && Src[Pos + 1] == '*') {
        Pos += 2;
        while (Pos + 1 < Src.size() &&
               !(Src[Pos] == '*' && Src[Pos + 1] == '/')) {
          if (Src[Pos] == '\n')
            ++Line;
          ++Pos;
        }
        Pos = Pos + 2 <= Src.size() ? Pos + 2 : Src.size();
        continue;
      }
      return;
    }
  }

  Token lexIdent() {
    Token T;
    T.K = TokKind::Ident;
    T.Line = Line;
    size_t Start = Pos;
    while (Pos < Src.size() &&
           (std::isalnum(uint8_t(Src[Pos])) || Src[Pos] == '_'))
      ++Pos;
    T.Text = Src.substr(Start, Pos - Start);
    return T;
  }

  Token lexNumber() {
    Token T;
    T.K = TokKind::Number;
    T.Line = Line;
    uint64_t V = 0;
    if (Pos + 1 < Src.size() && Src[Pos] == '0' &&
        (Src[Pos + 1] == 'x' || Src[Pos + 1] == 'X')) {
      Pos += 2;
      size_t Start = Pos;
      while (Pos < Src.size() && std::isxdigit(uint8_t(Src[Pos]))) {
        char C = Src[Pos];
        unsigned D = std::isdigit(uint8_t(C)) ? unsigned(C - '0')
                                              : unsigned(std::tolower(C) - 'a') + 10;
        V = (V << 4) | D;
        ++Pos;
      }
      if (Pos == Start)
        Error = "line " + std::to_string(Line) + ": malformed hex literal";
    } else {
      while (Pos < Src.size() && std::isdigit(uint8_t(Src[Pos]))) {
        V = V * 10 + unsigned(Src[Pos] - '0');
        ++Pos;
      }
    }
    T.Value = Word(V);
    T.Text = std::to_string(T.Value);
    return T;
  }

  Token lexPunct() {
    Token T;
    T.K = TokKind::Punct;
    T.Line = Line;
    // Longest-match multi-character operators first.
    static const char *Multi[] = {">>s", "->", "==", "!=", "<<", ">>",
                                  "<s",  "*h"};
    for (const char *Op : Multi) {
      size_t Len = std::string(Op).size();
      if (Src.compare(Pos, Len, Op) == 0) {
        T.Text = Op;
        Pos += Len;
        return T;
      }
    }
    T.Text = Src.substr(Pos, 1);
    ++Pos;
    return T;
  }
};

class Parser {
public:
  explicit Parser(const std::string &Src) : Lex(Src) { advance(); }

  ParseResult parseProgramTop() {
    ParseResult R;
    Program P;
    while (Cur.K != TokKind::Eof) {
      if (!expectIdentText("fn")) {
        R.Error = Err;
        return R;
      }
      Function F;
      if (!parseFunction(F)) {
        R.Error = Err;
        return R;
      }
      if (P.Functions.count(F.Name)) {
        R.Error = "line " + std::to_string(Cur.Line) +
                  ": duplicate function '" + F.Name + "'";
        return R;
      }
      P.add(std::move(F));
    }
    if (Lex.hadError()) {
      R.Error = Lex.error();
      return R;
    }
    R.Prog = std::move(P);
    return R;
  }

  ParseExprResult parseExprTop() {
    ParseExprResult R;
    ExprPtr E = parseExprP(0);
    if (!E) {
      R.Error = Err;
      return R;
    }
    if (Cur.K != TokKind::Eof) {
      R.Error = "line " + std::to_string(Cur.Line) + ": trailing input";
      return R;
    }
    R.E = E;
    return R;
  }

private:
  Lexer Lex;
  Token Cur;
  std::string Err;
  /// Open blocks plus open parenthesized and load(...) expressions. The
  /// parser and every pass that later walks the tree recurse once per
  /// level, so hostile nesting must stop here as a located error instead
  /// of overflowing the stack. A failed parse stops at its first error,
  /// so failure paths need not unwind the count.
  unsigned Nesting = 0;
  static constexpr unsigned MaxNesting = 256;
  /// Length is depth too: a block's statements become a right-nested Seq
  /// chain (Stmt::block), and a statement's binary operators nest their
  /// operands, so the passes recurse once per statement of every open
  /// block and once per operator. Hence caps on the statements in the
  /// open blocks together and on the binary operators of one statement.
  unsigned OpenStatements = 0;
  unsigned StatementOperators = 0;
  static constexpr unsigned MaxOpenStatements = 2048;
  static constexpr unsigned MaxStatementOperators = 1024;

  void advance() { Cur = Lex.next(); }

  bool enterNesting() {
    if (Nesting == MaxNesting)
      return failHere("nesting deeper than " + std::to_string(MaxNesting) +
                      " levels");
    ++Nesting;
    return true;
  }

  bool failHere(const std::string &Msg) {
    if (Err.empty())
      Err = "line " + std::to_string(Cur.Line) + ": " + Msg;
    return false;
  }

  bool isPunct(const char *P) const {
    return Cur.K == TokKind::Punct && Cur.Text == P;
  }

  bool isIdent(const char *S) const {
    return Cur.K == TokKind::Ident && Cur.Text == S;
  }

  bool expectPunct(const char *P) {
    if (!isPunct(P))
      return failHere(std::string("expected '") + P + "', found '" +
                      Cur.Text + "'");
    advance();
    return true;
  }

  bool expectIdentText(const char *S) {
    if (!isIdent(S))
      return failHere(std::string("expected '") + S + "', found '" +
                      Cur.Text + "'");
    advance();
    return true;
  }

  bool expectIdent(std::string &Out) {
    if (Cur.K != TokKind::Ident)
      return failHere("expected identifier, found '" + Cur.Text + "'");
    Out = Cur.Text;
    advance();
    return true;
  }

  bool parseIdentList(std::vector<std::string> &Out) {
    std::string Name;
    if (!expectIdent(Name))
      return false;
    Out.push_back(Name);
    while (isPunct(",")) {
      advance();
      if (!expectIdent(Name))
        return false;
      Out.push_back(Name);
    }
    return true;
  }

  bool parseFunction(Function &F) {
    if (!expectIdent(F.Name))
      return false;
    if (!expectPunct("("))
      return false;
    if (!isPunct(")")) {
      if (!parseIdentList(F.Params))
        return false;
    }
    if (!expectPunct(")"))
      return false;
    if (isPunct("->")) {
      advance();
      if (!expectPunct("("))
        return false;
      if (!parseIdentList(F.Rets))
        return false;
      if (!expectPunct(")"))
        return false;
    }
    // Optional contract clauses, in either order.
    while (isIdent("requires") || isIdent("ensures")) {
      bool IsPre = isIdent("requires");
      advance();
      StatementOperators = 0;
      if (!expectPunct("("))
        return false;
      ExprPtr C = parseExprP(0);
      if (!C || !expectPunct(")"))
        return false;
      (IsPre ? F.Pre : F.Post) = C;
    }
    StmtPtr Body;
    if (!parseBlock(Body))
      return false;
    F.Body = Body;
    return true;
  }

  bool parseBlock(StmtPtr &Out) {
    if (!enterNesting() || !expectPunct("{"))
      return false;
    std::vector<StmtPtr> Stmts;
    while (!isPunct("}")) {
      if (Cur.K == TokKind::Eof)
        return failHere("unterminated block");
      if (OpenStatements == MaxOpenStatements)
        return failHere("more than " + std::to_string(MaxOpenStatements) +
                        " statements in a block and its enclosing blocks");
      ++OpenStatements;
      StmtPtr S;
      if (!parseStmt(S))
        return false;
      Stmts.push_back(S);
    }
    advance(); // consume '}'
    --Nesting;
    OpenStatements -= unsigned(Stmts.size());
    Out = Stmt::block(std::move(Stmts));
    return true;
  }

  /// Parses `name(args)` after \p Name has been consumed.
  bool parseCallTail(std::vector<ExprPtr> &Args) {
    if (!expectPunct("("))
      return false;
    if (!isPunct(")")) {
      for (;;) {
        ExprPtr A = parseExprP(0);
        if (!A)
          return false;
        Args.push_back(A);
        if (!isPunct(","))
          break;
        advance();
      }
    }
    return expectPunct(")");
  }

  static int loadSizeOf(const std::string &S) {
    if (S == "load1")
      return 1;
    if (S == "load2")
      return 2;
    if (S == "load4")
      return 4;
    return 0;
  }

  static int storeSizeOf(const std::string &S) {
    if (S == "store1")
      return 1;
    if (S == "store2")
      return 2;
    if (S == "store4")
      return 4;
    return 0;
  }

  bool parseStmt(StmtPtr &Out) {
    StatementOperators = 0;
    if (isIdent("skip")) {
      advance();
      if (!expectPunct(";"))
        return false;
      Out = Stmt::skip();
      return true;
    }
    if (isIdent("if")) {
      advance();
      if (!expectPunct("("))
        return false;
      ExprPtr Cond = parseExprP(0);
      if (!Cond || !expectPunct(")"))
        return false;
      StmtPtr Then, Else;
      if (!parseBlock(Then))
        return false;
      if (isIdent("else")) {
        advance();
        if (!parseBlock(Else))
          return false;
      } else {
        Else = Stmt::skip();
      }
      Out = Stmt::ifThenElse(Cond, Then, Else);
      return true;
    }
    if (isIdent("while")) {
      advance();
      if (!expectPunct("("))
        return false;
      ExprPtr Cond = parseExprP(0);
      if (!Cond || !expectPunct(")"))
        return false;
      // Optional program-logic annotations, in either order.
      ExprPtr Invariant, Measure;
      while (isIdent("invariant") || isIdent("measure")) {
        bool IsInv = isIdent("invariant");
        advance();
        if (!expectPunct("("))
          return false;
        ExprPtr A = parseExprP(0);
        if (!A || !expectPunct(")"))
          return false;
        (IsInv ? Invariant : Measure) = A;
      }
      StmtPtr Body;
      if (!parseBlock(Body))
        return false;
      Out = (Invariant || Measure)
                ? Stmt::whileLoopAnnotated(Cond, Invariant, Measure, Body)
                : Stmt::whileLoop(Cond, Body);
      return true;
    }
    if (isIdent("stackalloc")) {
      advance();
      std::string Var;
      if (!expectIdent(Var))
        return false;
      if (!expectPunct("["))
        return false;
      if (Cur.K != TokKind::Number)
        return failHere("expected stackalloc size");
      Word N = Cur.Value;
      advance();
      if (!expectPunct("]"))
        return false;
      if (N == 0 || N % 4 != 0)
        return failHere("stackalloc size " + std::to_string(N) +
                        " is 0 or not a multiple of 4");
      StmtPtr Body;
      if (!parseBlock(Body))
        return false;
      Out = Stmt::stackalloc(Var, N, Body);
      return true;
    }
    if (Cur.K == TokKind::Ident && storeSizeOf(Cur.Text)) {
      unsigned Size = unsigned(storeSizeOf(Cur.Text));
      advance();
      if (!expectPunct("("))
        return false;
      ExprPtr Addr = parseExprP(0);
      if (!Addr || !expectPunct(","))
        return false;
      ExprPtr Val = parseExprP(0);
      if (!Val || !expectPunct(")") || !expectPunct(";"))
        return false;
      Out = Stmt::store(Size, Addr, Val);
      return true;
    }
    if (isIdent("extern")) {
      advance();
      std::string Action;
      if (!expectIdent(Action))
        return false;
      std::vector<ExprPtr> Args;
      if (!parseCallTail(Args) || !expectPunct(";"))
        return false;
      Out = Stmt::interact({}, Action, std::move(Args));
      return true;
    }

    // Remaining forms start with an identifier: assignment, call with
    // results, or a bare call.
    std::string First;
    if (!expectIdent(First))
      return false;

    if (isPunct("(")) {
      // Bare call: f(args);
      std::vector<ExprPtr> Args;
      if (!parseCallTail(Args) || !expectPunct(";"))
        return false;
      Out = Stmt::call({}, First, std::move(Args));
      return true;
    }

    std::vector<std::string> Dsts = {First};
    while (isPunct(",")) {
      advance();
      std::string Next;
      if (!expectIdent(Next))
        return false;
      Dsts.push_back(Next);
    }
    if (!expectPunct("="))
      return false;

    if (isIdent("extern")) {
      advance();
      std::string Action;
      if (!expectIdent(Action))
        return false;
      std::vector<ExprPtr> Args;
      if (!parseCallTail(Args) || !expectPunct(";"))
        return false;
      Out = Stmt::interact(std::move(Dsts), Action, std::move(Args));
      return true;
    }

    // `x = f(...)` is a call unless f is a loadN keyword; `x = expr`
    // otherwise. Multi-destination forms must be calls.
    if (Cur.K == TokKind::Ident && !loadSizeOf(Cur.Text)) {
      std::string Callee = Cur.Text;
      // Peek: identifier followed by '(' is a call.
      Token Saved = Cur;
      advance();
      if (isPunct("(")) {
        std::vector<ExprPtr> Args;
        if (!parseCallTail(Args) || !expectPunct(";"))
          return false;
        Out = Stmt::call(std::move(Dsts), Callee, std::move(Args));
        return true;
      }
      // Not a call: re-interpret as an expression starting with a
      // variable. Continue the expression parse from the saved token.
      if (Dsts.size() != 1)
        return failHere("multiple destinations require a call");
      ExprPtr Lhs = Expr::var(Saved.Text);
      ExprPtr E = parseBinOpRhs(0, Lhs);
      if (!E || !expectPunct(";"))
        return false;
      Out = Stmt::set(Dsts[0], E);
      return true;
    }

    if (Dsts.size() != 1)
      return failHere("multiple destinations require a call");
    ExprPtr E = parseExprP(0);
    if (!E || !expectPunct(";"))
      return false;
    Out = Stmt::set(Dsts[0], E);
    return true;
  }

  // -- Expressions: precedence climbing ------------------------------------

  static int precedenceOf(const std::string &Op) {
    if (Op == "==" || Op == "!=")
      return 1;
    if (Op == "<" || Op == "<s")
      return 2;
    if (Op == "|")
      return 3;
    if (Op == "^")
      return 4;
    if (Op == "&")
      return 5;
    if (Op == "<<" || Op == ">>" || Op == ">>s")
      return 6;
    if (Op == "+" || Op == "-")
      return 7;
    if (Op == "*" || Op == "*h" || Op == "/" || Op == "%")
      return 8;
    return -1;
  }

  static BinOp binOpOf(const std::string &Op) {
    if (Op == "==")
      return BinOp::Eq;
    if (Op == "<")
      return BinOp::Ltu;
    if (Op == "<s")
      return BinOp::Lts;
    if (Op == "|")
      return BinOp::Or;
    if (Op == "^")
      return BinOp::Xor;
    if (Op == "&")
      return BinOp::And;
    if (Op == "<<")
      return BinOp::Slu;
    if (Op == ">>")
      return BinOp::Sru;
    if (Op == ">>s")
      return BinOp::Srs;
    if (Op == "+")
      return BinOp::Add;
    if (Op == "-")
      return BinOp::Sub;
    if (Op == "*")
      return BinOp::Mul;
    if (Op == "*h")
      return BinOp::MulHuu;
    if (Op == "/")
      return BinOp::Divu;
    assert(Op == "%" && "unexpected operator");
    return BinOp::Remu;
  }

  ExprPtr parseAtom() {
    if (Cur.K == TokKind::Number) {
      Word V = Cur.Value;
      advance();
      return Expr::literal(V);
    }
    if (Cur.K == TokKind::Ident) {
      int Size = loadSizeOf(Cur.Text);
      if (Size) {
        advance();
        if (!enterNesting() || !expectPunct("("))
          return nullptr;
        ExprPtr A = parseExprP(0);
        if (!A || !expectPunct(")"))
          return nullptr;
        --Nesting;
        return Expr::load(unsigned(Size), A);
      }
      std::string Name = Cur.Text;
      advance();
      return Expr::var(Name);
    }
    if (isPunct("(")) {
      if (!enterNesting())
        return nullptr;
      advance();
      ExprPtr E = parseExprP(0);
      if (!E || !expectPunct(")"))
        return nullptr;
      --Nesting;
      return E;
    }
    failHere("expected expression, found '" + Cur.Text + "'");
    return nullptr;
  }

  ExprPtr parseBinOpRhs(int MinPrec, ExprPtr Lhs) {
    for (;;) {
      if (Cur.K != TokKind::Punct)
        return Lhs;
      int Prec = precedenceOf(Cur.Text);
      if (Prec < MinPrec || Prec < 0)
        return Lhs;
      if (StatementOperators == MaxStatementOperators) {
        failHere("more than " + std::to_string(MaxStatementOperators) +
                 " binary operators in one statement");
        return nullptr;
      }
      ++StatementOperators;
      std::string Op = Cur.Text;
      advance();
      ExprPtr Rhs = parseAtom();
      if (!Rhs)
        return nullptr;
      for (;;) {
        if (Cur.K != TokKind::Punct)
          break;
        int NextPrec = precedenceOf(Cur.Text);
        if (NextPrec <= Prec)
          break;
        Rhs = parseBinOpRhs(NextPrec, Rhs);
        if (!Rhs)
          return nullptr;
      }
      if (Op == "!=") {
        Lhs = Expr::op(BinOp::Eq, Expr::op(BinOp::Eq, Lhs, Rhs),
                       Expr::literal(0));
      } else {
        Lhs = Expr::op(binOpOf(Op), Lhs, Rhs);
      }
    }
  }

  ExprPtr parseExprP(int MinPrec) {
    ExprPtr Lhs = parseAtom();
    if (!Lhs)
      return nullptr;
    return parseBinOpRhs(MinPrec, Lhs);
  }
};

} // namespace

ParseResult b2::bedrock2::parseProgram(const std::string &Source) {
  Parser P(Source);
  return P.parseProgramTop();
}

ParseExprResult b2::bedrock2::parseExpr(const std::string &Source) {
  Parser P(Source);
  return P.parseExprTop();
}
