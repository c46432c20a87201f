// Independence rule for the source stage's pre-loop `foreach` loops.
//
// `foreach` iterations are order-independent by contract (docs/DIALECT.md),
// but the contract still lets them update reductions and shared state, so
// a loop may run its iterations on several threads only when the rule below
// proves no iteration can touch what another writes. It works on the AST
// and errs toward sequential. The loop must be a range `foreach` that is a
// top-level statement of `before`, and its body
//   * stores only into locals it declares, into fields or elements of a
//     local it only ever initializes from `new` (a fresh allocation), and
//     into `A[i]`, where `i` is the loop variable itself and `A` is a
//     pre-loop array declared once at the top level of `before` from
//     `new T[...]`, whose name every statement of `before` only indexes or
//     takes `.length` of (so nothing re-binds or aliases it);
//   * reads an array it stores into only at `[i]` (or its `.length`);
//   * calls only methods that store nothing but their own locals and fresh
//     allocations, and constructors that may also store into their new
//     object's fields (a call reaches every method of that name in any
//     class, as dispatch on an interface is dynamic);
//   * has no `break`, `return` or element `foreach`.
// A reduction update (`acc.add(x)` on a pre-loop object) stores into a
// non-fresh object inside a method, so the rule rejects it too.
#pragma once

#include <cstddef>
#include <vector>

#include "ast/ast.h"
#include "sema/registry.h"

namespace cgp {

/// True when `before[index]` is a range `foreach` whose iterations the rule
/// above proves independent, so they may run concurrently.
bool independent_preloop_loop(const ClassRegistry& registry,
                              const std::vector<const Stmt*>& before,
                              std::size_t index);

}  // namespace cgp
