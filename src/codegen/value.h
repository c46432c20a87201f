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
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include "ast/type.h"
#include "support/source_location.h"

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

/// Default value for a declared type (0 / false / empty domain / null).
Value default_value(const TypePtr& type);

/// Thrown on dialect-level runtime errors (null deref, bad index, ...).
class InterpError : public std::runtime_error {
 public:
  InterpError(SourceLocation loc, const std::string& message)
      : std::runtime_error(to_string(loc) + ": " + message), location(loc) {}
  SourceLocation location;
};

/// Name-keyed view of variable bindings: what the packet codec and the
/// section-bound resolvers read and write. The tree-walker's Env
/// (interp.h) implements it over its scope maps; the lowered executor's
/// StageFrame (lower.h) over slots resolved when the pipeline plan is built.
class Bindings {
 public:
  virtual ~Bindings() = default;
  virtual bool has(const std::string& name) const = 0;
  /// The innermost binding; throws if absent.
  virtual Value& slot(const std::string& name) = 0;
  /// Binds `name` in the innermost scope.
  virtual void declare(const std::string& name, Value value) = 0;
  const Value& get(const std::string& name) const {
    return const_cast<Bindings*>(this)->slot(name);
  }
};

}  // namespace cgp
