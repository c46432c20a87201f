#include "codegen/value.h"

#include <sstream>

namespace cgp {

std::int64_t as_int(const Value& v) {
  if (const auto* i = std::get_if<std::int64_t>(&v)) return *i;
  if (const auto* d = std::get_if<double>(&v))
    return static_cast<std::int64_t>(*d);
  if (const auto* b = std::get_if<bool>(&v)) return *b ? 1 : 0;
  throw std::runtime_error("value is not numeric");
}

double as_double(const Value& v) {
  if (const auto* d = std::get_if<double>(&v)) return *d;
  if (const auto* i = std::get_if<std::int64_t>(&v))
    return static_cast<double>(*i);
  if (const auto* b = std::get_if<bool>(&v)) return *b ? 1.0 : 0.0;
  throw std::runtime_error("value is not numeric");
}

bool as_bool(const Value& v) {
  if (const auto* b = std::get_if<bool>(&v)) return *b;
  throw std::runtime_error("value is not boolean");
}

std::string value_to_string(const Value& v) {
  struct Visitor {
    std::string operator()(std::monostate) const { return "null"; }
    std::string operator()(std::int64_t i) const { return std::to_string(i); }
    std::string operator()(double d) const {
      std::ostringstream out;
      out << d;
      return out.str();
    }
    std::string operator()(bool b) const { return b ? "true" : "false"; }
    std::string operator()(const std::string& s) const { return '"' + s + '"'; }
    std::string operator()(const std::shared_ptr<Object>& o) const {
      return o ? "<" + o->class_name + ">" : "null";
    }
    std::string operator()(const std::shared_ptr<ArrayVal>& a) const {
      if (!a) return "null";
      std::string out = "<array[";
      out += std::to_string(a->elems.size());
      return out + "]>";
    }
    std::string operator()(const RectDomainVal& d) const {
      std::string out = "[";
      out += std::to_string(d.lo);
      out += ':';
      out += std::to_string(d.hi);
      return out + "]";
    }
  };
  return std::visit(Visitor{}, v);
}

Value default_value(const TypePtr& type) {
  if (!type) return std::monostate{};
  if (type->is_integral()) return std::int64_t{0};
  if (type->is_floating()) return 0.0;
  if (type->is_boolean()) return false;
  if (type->is_rectdomain()) return RectDomainVal{};
  return std::monostate{};
}

}  // namespace cgp
