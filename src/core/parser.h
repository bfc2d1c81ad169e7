// Text syntax for TriAL(*) expressions — the inverse of Expr::ToString.
//
//   expr    := 'U' | '{}' | relname
//            | 'sigma[' cond '](' expr ')'
//            | '(' expr ' u ' expr ')'              union
//            | '(' expr ' - ' expr ')'              difference
//            | '(' expr ' JOIN[' spec '] ' expr ')' join
//            | '(' expr ' JOIN[' spec '])*'         right Kleene star
//            | '(JOIN[' spec '] ' expr ')*'         left Kleene star
//   spec    := pos ',' pos ',' pos [';' cond]
//   cond    := atom (',' atom)*
//   atom    := oterm ('='|'!=') oterm
//            | 'rho(' pos ')' ('='|'!=') (rho-term | literal)
//   oterm   := pos | '#'objid | '"'object-name'"'
//   pos     := 1 | 2 | 3 | 1' | 2' | 3'
//   literal := integer | '"'text'"' (data value; strings double-quoted)
//
// Object names in conditions are resolved against the store passed to
// the parser; "#n" refers to object id n directly.

#ifndef TRIAL_CORE_PARSER_H_
#define TRIAL_CORE_PARSER_H_

#include <cstddef>
#include <string_view>

#include "core/expr.h"
#include "storage/triple_store.h"
#include "util/status.h"

namespace trial {

/// Operators ('(' and 'sigma[') one expression may nest: deeper input
/// is kInvalidArgument, so parsing, lowering and evaluation, which all
/// recurse over the tree, stay within the stack.
inline constexpr size_t kMaxTriALNesting = 1000;

/// Parses a TriAL(*) expression.  `store` is needed only to resolve
/// quoted object names in conditions; it may be null otherwise.
/// kInvalidArgument on a syntax error or nesting deeper than
/// kMaxTriALNesting.
Result<ExprPtr> ParseTriAL(std::string_view text,
                           const TripleStore* store = nullptr);

}  // namespace trial

#endif  // TRIAL_CORE_PARSER_H_
