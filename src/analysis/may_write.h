// May-write analysis for the source stage's pre-loop data (§2.2, §5).
//
// Transparent copies of the data filter each read a disjoint share of one
// dataset. The compiled pipeline therefore runs the source stage's
// pre-loop code (`before`, the dataset synthesis) once per process and
// lets every source copy share, by pointer, each binding its packet code
// can never write. A wrong share is a silent data race, so the rule is
// type-based and errs on the side of copying:
//   * a field store, index store or ++/-- in the stage's statements or in
//     any method they can reach stores into a class or array type (the
//     static type of the stored-into object; for an interface, every class
//     implementing it; a bare field name inside a method stores into the
//     method's class);
//   * such a store can reach a binding when the stored-into type is
//     reachable from the binding's declared type through field and element
//     types;
//   * exception: a store whose base is a variable of the stage's own
//     statements that is only ever declared from a `new` and never
//     re-bound stores into a fresh packet-local allocation, which no
//     pre-loop binding can reach.
// Calls reach every method of that name in any class (dispatch on an
// interface is dynamic), and `new C(...)` reaches C's constructor.
// Neither the collect_written_bases set of codegen nor the Gen sets of
// gencons.h is a may-write set: the first misses writes through an alias
// (`Cube c = cubes[i]; c.v0 = ...`) and inside methods, the second drops
// imprecise and conditional writes.
#pragma once

#include <set>
#include <string>
#include <vector>

#include "analysis/pipeline_model.h"

namespace cgp {

/// Reference-typed pre-loop bindings (top-level declarations of
/// `model.before`) that no store in `stmts`, or in any method they can
/// reach, can write. Scalars are never listed: copies hold them by value.
std::set<std::string> unwritten_preloop_bindings(
    const PipelineModel& model, const std::vector<const Stmt*>& stmts);

}  // namespace cgp
