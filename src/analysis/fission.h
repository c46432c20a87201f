// Loop fission for candidate-boundary exposure (§4.1).
//
// "If there are candidate filter boundaries within a foreach loop, we
// perform loop fission and create separate foreach loops. This ensures
// that there are no candidate boundaries inside a foreach loop."
//
// Candidate boundaries inside a foreach body are conditional statements and
// statements containing (non-intrinsic) calls. Fission partitions the body
// into pieces at those statements and emits one foreach per piece over the
// same domain. Values flowing between pieces are handled two ways:
//   * rematerialization — a local whose initializer is pure and cheap is
//     re-declared in every piece that needs it;
//   * scalar expansion — any other local becomes an array indexed by the
//     loop variable, allocated before the first piece.
// Element iteration (`foreach (t in coll)`) is first normalized to index
// iteration so the pieces share an index.
//
// The pass is semantics-preserving because foreach iterations are
// order-independent by construction (§3).
#pragma once

#include "ast/ast.h"
#include "support/diagnostics.h"

namespace cgp {

struct FissionStats {
  int loops_examined = 0;
  int loops_fissioned = 0;
  int pieces_created = 0;
  int locals_expanded = 0;
  int locals_rematerialized = 0;
};

/// Applies fission to every top-level foreach in the PipelinedLoop body.
/// Mutates the loop in place. Returns statistics for tests/reporting.
/// The caller must re-run Sema afterwards (new nodes lack types).
FissionStats fission_pipelined_body(PipelinedLoopStmt& loop,
                                    DiagnosticEngine& diags);

/// True when `stmt` would be split out as its own piece: it is a
/// conditional, or contains a non-intrinsic call or an object allocation
/// (a constructor call) anywhere below it, intrinsic arguments included.
bool is_piece_splitter(const Stmt& stmt);

/// True when `expr` is pure (no calls, allocations, or writes) — eligible
/// for rematerialization.
bool is_pure_expr(const Expr& expr);

}  // namespace cgp
