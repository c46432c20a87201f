// Rectilinear sections with symbolic bounds (§4.2 of the paper).
//
// When Gen/Cons variables are "accessed using a function of the loop index,
// we replace these variables by rectilinear sections, derived from loop
// bounds". A RectSection is a product of closed integer intervals whose
// endpoints are SymPoly expressions.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "support/symexpr.h"

namespace cgp {

/// Closed interval [lo, hi] with symbolic endpoints.
struct Interval {
  SymPoly lo;
  SymPoly hi;

  bool operator==(const Interval& o) const { return lo == o.lo && hi == o.hi; }
  /// Number of integer points, hi - lo + 1, as a polynomial.
  SymPoly extent() const { return hi - lo + SymPoly(1); }
  std::string to_string() const {
    std::string out = "[";
    out += lo.to_string();
    out += ':';
    out += hi.to_string();
    out += ']';
    return out;
  }
};

/// A rectilinear section: one Interval per dimension. Rank 0 denotes a
/// scalar (a single value, extent 1).
class RectSection {
 public:
  RectSection() = default;
  explicit RectSection(std::vector<Interval> dims) : dims_(std::move(dims)) {}
  static RectSection scalar() { return RectSection(); }
  static RectSection dim1(SymPoly lo, SymPoly hi) {
    return RectSection({Interval{std::move(lo), std::move(hi)}});
  }

  int rank() const { return static_cast<int>(dims_.size()); }
  bool is_scalar() const { return dims_.empty(); }
  const std::vector<Interval>& dims() const { return dims_; }

  bool operator==(const RectSection& o) const { return dims_ == o.dims_; }

  /// Number of elements covered, as a polynomial (1 for scalars).
  SymPoly element_count() const;

  /// Smallest rectilinear hull containing both sections. Requires equal
  /// rank; uses constant-fold comparison where possible and otherwise falls
  /// back to the union of symbolic bounds via min/max heuristics (returns
  /// nullopt when bounds are incomparable symbolically).
  static std::optional<RectSection> hull(const RectSection& a,
                                         const RectSection& b);

  /// True when this section provably covers `other` (same rank, lo <= lo'
  /// and hi >= hi' for each dimension, decidable only when the differences
  /// fold to constants).
  bool covers(const RectSection& other) const;

  std::string to_string() const;

 private:
  std::vector<Interval> dims_;
};

}  // namespace cgp
