#include "src/relational/value.h"

#include <cstdio>
#include <functional>

#include "src/common/macros.h"

namespace pipes::relational {

const char* ValueTypeName(ValueType type) {
  switch (type) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kInt:
      return "INT";
    case ValueType::kDouble:
      return "DOUBLE";
    case ValueType::kBool:
      return "BOOL";
    case ValueType::kString:
      return "STRING";
  }
  return "?";
}

Value::Value(std::string v) : type_(ValueType::kString) {
  payload_.s = new StringBlock(std::move(v));
}

std::int64_t Value::AsInt() const {
  PIPES_CHECK_MSG(type_ == ValueType::kInt, "Value is not an INT");
  return payload_.i;
}

double Value::AsDouble() const {
  if (type_ == ValueType::kInt) return static_cast<double>(payload_.i);
  PIPES_CHECK_MSG(type_ == ValueType::kDouble, "Value is not numeric");
  return payload_.d;
}

bool Value::AsBool() const {
  PIPES_CHECK_MSG(type_ == ValueType::kBool, "Value is not a BOOL");
  return payload_.b;
}

const std::string& Value::AsString() const {
  PIPES_CHECK_MSG(type_ == ValueType::kString, "Value is not a STRING");
  return payload_.s->text;
}

bool Value::Truthy() const {
  switch (type_) {
    case ValueType::kNull:
      return false;
    case ValueType::kBool:
      return payload_.b;
    case ValueType::kInt:
      return payload_.i != 0;
    case ValueType::kDouble:
      return payload_.d != 0.0;
    case ValueType::kString:
      PIPES_CHECK_MSG(false, "string used as predicate");
  }
  return false;
}

std::string Value::ToString() const {
  switch (type_) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kInt:
      return std::to_string(payload_.i);
    case ValueType::kDouble: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%g", payload_.d);
      return buf;
    }
    case ValueType::kBool:
      return payload_.b ? "TRUE" : "FALSE";
    case ValueType::kString:
      return payload_.s->text;
  }
  return "?";
}

std::size_t Value::Hash() const {
  switch (type_) {
    case ValueType::kNull:
      return 0x9e3779b9;
    case ValueType::kInt:
      return std::hash<std::int64_t>()(payload_.i);
    case ValueType::kDouble: {
      // Hash doubles holding integral values like the equal int (promotion
      // equality must imply hash equality).
      const double d = payload_.d;
      const auto as_int = static_cast<std::int64_t>(d);
      if (static_cast<double>(as_int) == d) {
        return std::hash<std::int64_t>()(as_int);
      }
      return std::hash<double>()(d);
    }
    case ValueType::kBool:
      return payload_.b ? 0x85ebca6b : 0xc2b2ae35;
    case ValueType::kString:
      return std::hash<std::string>()(payload_.s->text);
  }
  return 0;
}

bool operator==(const Value& a, const Value& b) {
  if (a.is_numeric() && b.is_numeric()) {
    return a.AsDouble() == b.AsDouble();
  }
  if (a.type_ != b.type_) return false;
  switch (a.type_) {
    case ValueType::kBool:
      return a.payload_.b == b.payload_.b;
    case ValueType::kString:
      return a.payload_.s == b.payload_.s ||
             a.payload_.s->text == b.payload_.s->text;
    default:  // null
      return true;
  }
}

bool operator<(const Value& a, const Value& b) {
  if (a.is_numeric() && b.is_numeric()) {
    return a.AsDouble() < b.AsDouble();
  }
  // Order heterogeneous values by a type rank, then content.
  auto rank = [](const Value& v) {
    switch (v.type()) {
      case ValueType::kNull:
        return 0;
      case ValueType::kInt:
      case ValueType::kDouble:
        return 1;
      case ValueType::kBool:
        return 2;
      case ValueType::kString:
        return 3;
    }
    return 4;
  };
  if (rank(a) != rank(b)) return rank(a) < rank(b);
  switch (a.type()) {
    case ValueType::kNull:
      return false;
    case ValueType::kBool:
      return !a.AsBool() && b.AsBool();
    case ValueType::kString:
      return a.AsString() < b.AsString();
    default:
      return false;
  }
}

}  // namespace pipes::relational
