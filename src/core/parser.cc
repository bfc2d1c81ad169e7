#include "core/parser.h"

#include <cctype>
#include <cstdlib>

namespace trial {
namespace {

struct Parser {
  std::string_view text;
  size_t pos = 0;
  const TripleStore* store;
  size_t depth = 0;  // open '(' and 'sigma[' levels

  Status Err(const std::string& msg) {
    return Status::InvalidArgument(msg + " at offset " + std::to_string(pos));
  }

  void SkipWs() {
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos]))) {
      ++pos;
    }
  }
  char Peek() {
    SkipWs();
    return pos < text.size() ? text[pos] : '\0';
  }
  bool Consume(std::string_view tok) {
    SkipWs();
    if (text.substr(pos, tok.size()) == tok) {
      pos += tok.size();
      return true;
    }
    return false;
  }
  Status Expect(std::string_view tok) {
    if (!Consume(tok)) return Err("expected '" + std::string(tok) + "'");
    return Status::OK();
  }

  Result<Pos> ParsePos() {
    char c = Peek();
    if (c < '1' || c > '3') return Err("expected position 1..3");
    ++pos;
    int idx = c - '1';
    if (pos < text.size() && text[pos] == '\'') {
      ++pos;
      idx += 3;
    }
    return static_cast<Pos>(idx);
  }

  Result<std::string> ParseQuoted() {
    if (Peek() != '"') return Err("expected quoted name");
    ++pos;
    std::string out;
    while (pos < text.size() && text[pos] != '"') out.push_back(text[pos++]);
    if (pos >= text.size()) return Err("unterminated string");
    ++pos;
    return out;
  }

  Result<ObjTerm> ParseObjTerm() {
    char c = Peek();
    if (c == '#') {
      ++pos;
      size_t start = pos;
      while (pos < text.size() &&
             std::isdigit(static_cast<unsigned char>(text[pos]))) {
        ++pos;
      }
      if (pos == start) return Err("expected object id after '#'");
      return ObjTerm::C(static_cast<ObjId>(
          std::strtoul(std::string(text.substr(start, pos - start)).c_str(),
                       nullptr, 10)));
    }
    if (c == '"') {
      TRIAL_ASSIGN_OR_RETURN(std::string name, ParseQuoted());
      if (store == nullptr) {
        return Err("object name \"" + name + "\" needs a store to resolve");
      }
      ObjId id = store->FindObject(name);
      if (id == kInvalidIntern) {
        return Status::NotFound("unknown object: " + name);
      }
      return ObjTerm::C(id);
    }
    TRIAL_ASSIGN_OR_RETURN(Pos p, ParsePos());
    return ObjTerm::P(p);
  }

  Result<DataTerm> ParseDataTerm() {
    if (Consume("rho(")) {
      TRIAL_ASSIGN_OR_RETURN(Pos p, ParsePos());
      TRIAL_RETURN_IF_ERROR(Expect(")"));
      return DataTerm::P(p);
    }
    char c = Peek();
    if (c == '"') {
      TRIAL_ASSIGN_OR_RETURN(std::string s, ParseQuoted());
      return DataTerm::C(DataValue::Str(std::move(s)));
    }
    if (c == 'n' && Consume("null")) return DataTerm::C(DataValue::Null());
    if (c == '-' || std::isdigit(static_cast<unsigned char>(c))) {
      size_t start = pos;
      if (c == '-') ++pos;
      while (pos < text.size() &&
             std::isdigit(static_cast<unsigned char>(text[pos]))) {
        ++pos;
      }
      return DataTerm::C(DataValue::Int(std::strtoll(
          std::string(text.substr(start, pos - start)).c_str(), nullptr,
          10)));
    }
    return Err("expected data term");
  }

  // One condition atom; distinguishes θ from η by the leading "rho(".
  Status ParseAtomInto(CondSet* cond) {
    SkipWs();
    bool is_data = text.substr(pos, 4) == "rho(";
    if (is_data) {
      TRIAL_ASSIGN_OR_RETURN(DataTerm lhs, ParseDataTerm());
      bool equal = true;
      if (Consume("!=")) {
        equal = false;
      } else {
        TRIAL_RETURN_IF_ERROR(Expect("="));
      }
      TRIAL_ASSIGN_OR_RETURN(DataTerm rhs, ParseDataTerm());
      cond->eta.push_back(DataConstraint{lhs, rhs, equal});
      return Status::OK();
    }
    TRIAL_ASSIGN_OR_RETURN(ObjTerm lhs, ParseObjTerm());
    bool equal = true;
    if (Consume("!=")) {
      equal = false;
    } else {
      TRIAL_RETURN_IF_ERROR(Expect("="));
    }
    TRIAL_ASSIGN_OR_RETURN(ObjTerm rhs, ParseObjTerm());
    cond->theta.push_back(ObjConstraint{lhs, rhs, equal});
    return Status::OK();
  }

  Result<CondSet> ParseCond(char terminator) {
    CondSet cond;
    while (Peek() != terminator) {
      TRIAL_RETURN_IF_ERROR(ParseAtomInto(&cond));
      if (!Consume(",")) break;
    }
    return cond;
  }

  Result<JoinSpec> ParseSpec() {
    JoinSpec spec;
    TRIAL_ASSIGN_OR_RETURN(spec.out[0], ParsePos());
    TRIAL_RETURN_IF_ERROR(Expect(","));
    TRIAL_ASSIGN_OR_RETURN(spec.out[1], ParsePos());
    TRIAL_RETURN_IF_ERROR(Expect(","));
    TRIAL_ASSIGN_OR_RETURN(spec.out[2], ParsePos());
    if (Consume(";")) {
      TRIAL_ASSIGN_OR_RETURN(spec.cond, ParseCond(']'));
    }
    TRIAL_RETURN_IF_ERROR(Expect("]"));
    return spec;
  }

  bool AtWordBoundary() const {
    return pos >= text.size() ||
           (!std::isalnum(static_cast<unsigned char>(text[pos])) &&
            text[pos] != '_');
  }

  // One level of '(' or 'sigma[' nesting, left when the operator's
  // parse returns.  Parsing fails once the depth passes
  // kMaxTriALNesting, before the recursion can exhaust the stack.
  struct Level {
    explicit Level(size_t* d) : depth(d) { ++*depth; }
    ~Level() { --*depth; }
    size_t* depth;
  };
  Status CheckDepth() {
    if (depth <= kMaxTriALNesting) return Status::OK();
    return Err("expression nests deeper than " +
               std::to_string(kMaxTriALNesting) + " levels");
  }

  Result<ExprPtr> ParseExpr() {
    {
      size_t saved = pos;
      if (Consume("U") && AtWordBoundary()) return Expr::Universe();
      pos = saved;  // "Users" etc: fall through to relation-name parsing
    }
    if (Consume("{}")) return Expr::Empty();
    if (Consume("sigma[")) {
      Level level(&depth);
      TRIAL_RETURN_IF_ERROR(CheckDepth());
      TRIAL_ASSIGN_OR_RETURN(CondSet cond, ParseCond(']'));
      TRIAL_RETURN_IF_ERROR(Expect("]"));
      TRIAL_RETURN_IF_ERROR(Expect("("));
      TRIAL_ASSIGN_OR_RETURN(ExprPtr sub, ParseExpr());
      TRIAL_RETURN_IF_ERROR(Expect(")"));
      if (!cond.IsUnary()) return Err("selection condition must be unary");
      return Expr::Select(sub, std::move(cond));
    }
    if (Consume("(")) {
      Level level(&depth);
      TRIAL_RETURN_IF_ERROR(CheckDepth());
      // Left star: (JOIN[spec] e)*.
      if (Consume("JOIN[")) {
        TRIAL_ASSIGN_OR_RETURN(JoinSpec spec, ParseSpec());
        TRIAL_ASSIGN_OR_RETURN(ExprPtr sub, ParseExpr());
        TRIAL_RETURN_IF_ERROR(Expect(")"));
        TRIAL_RETURN_IF_ERROR(Expect("*"));
        return Expr::StarLeft(sub, spec);
      }
      TRIAL_ASSIGN_OR_RETURN(ExprPtr left, ParseExpr());
      if (Consume("u ")) {
        TRIAL_ASSIGN_OR_RETURN(ExprPtr right, ParseExpr());
        TRIAL_RETURN_IF_ERROR(Expect(")"));
        return Expr::Union(left, right);
      }
      if (Consume("- ")) {
        TRIAL_ASSIGN_OR_RETURN(ExprPtr right, ParseExpr());
        TRIAL_RETURN_IF_ERROR(Expect(")"));
        return Expr::Diff(left, right);
      }
      if (Consume("JOIN[")) {
        TRIAL_ASSIGN_OR_RETURN(JoinSpec spec, ParseSpec());
        if (Consume(")")) {
          TRIAL_RETURN_IF_ERROR(Expect("*"));
          return Expr::StarRight(left, spec);
        }
        TRIAL_ASSIGN_OR_RETURN(ExprPtr right, ParseExpr());
        TRIAL_RETURN_IF_ERROR(Expect(")"));
        return Expr::Join(left, right, spec);
      }
      return Err("expected 'u', '-' or 'JOIN[' inside parentheses");
    }
    // Relation name.
    SkipWs();
    size_t start = pos;
    while (pos < text.size() &&
           (std::isalnum(static_cast<unsigned char>(text[pos])) ||
            text[pos] == '_')) {
      ++pos;
    }
    if (pos == start) return Err("expected expression");
    return Expr::Rel(std::string(text.substr(start, pos - start)));
  }
};

}  // namespace

Result<ExprPtr> ParseTriAL(std::string_view text, const TripleStore* store) {
  Parser p{text, 0, store};
  TRIAL_ASSIGN_OR_RETURN(ExprPtr e, p.ParseExpr());
  p.SkipWs();
  if (p.pos != text.size()) {
    return Status::InvalidArgument("trailing input at offset " +
                                   std::to_string(p.pos));
  }
  return e;
}

}  // namespace trial
