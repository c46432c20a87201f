// Runtime value model for the cgpipe interpreter.
//
// The compiler's executable output is a set of filters whose bodies are
// dialect statements run by the lowered slot executor (lower.h); the text
// emitter in emitter.h produces the equivalent DataCutter C++ for
// inspection. Values are Java-like:
// primitives by value, objects/arrays by reference.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "ast/type.h"

namespace cgp {

struct Object;
struct ArrayVal;

struct RectDomainVal {
  std::int64_t lo = 0;
  std::int64_t hi = -1;  // empty by default
  std::int64_t size() const { return hi >= lo ? hi - lo + 1 : 0; }
};

using Value = std::variant<std::monostate,        // uninitialized / null
                           std::int64_t,          // int, long, byte
                           double,                // float, double
                           bool,                  // boolean
                           std::string,           // String
                           std::shared_ptr<Object>,
                           std::shared_ptr<ArrayVal>,
                           RectDomainVal>;

struct Object {
  std::string class_name;
  std::vector<Value> fields;  // indexed by FieldInfo::index
};

struct ArrayVal {
  TypePtr element_type;
  std::vector<Value> elems;
  /// Logical index of elems[0]: packet sections arrive base-shifted, so
  /// a[i] reads elems[i - base_index].
  std::int64_t base_index = 0;
};

inline bool is_null(const Value& v) {
  return std::holds_alternative<std::monostate>(v);
}

/// Numeric coercions (Java-style widening).
std::int64_t as_int(const Value& v);
double as_double(const Value& v);
bool as_bool(const Value& v);

/// Debug rendering.
std::string value_to_string(const Value& v);

}  // namespace cgp
