#ifndef PIPES_RELATIONAL_VALUE_H_
#define PIPES_RELATIONAL_VALUE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

/// \file
/// Dynamically typed values for the relational layer. The operator algebra
/// itself handles arbitrary payload types; `Value`/`Tuple` exist so that
/// dynamically constructed plans (CQL front end, optimizer) have a common
/// payload representation.

namespace pipes::relational {

enum class ValueType : std::uint8_t { kNull, kInt, kDouble, kBool, kString };

const char* ValueTypeName(ValueType type);

/// A null, 64-bit integer, double, bool, or string, in 16 bytes: a one-byte
/// type tag beside an 8-byte payload. A string lives in an immutable block
/// shared by every copy of the value through an atomic reference count, so
/// copying a value (or a row of them) never allocates or copies string
/// bytes; only `Value(std::string)` allocates.
class Value {
 public:
  Value() noexcept = default;
  explicit Value(std::int64_t v) noexcept : type_(ValueType::kInt) {
    payload_.i = v;
  }
  explicit Value(double v) noexcept : type_(ValueType::kDouble) {
    payload_.d = v;
  }
  explicit Value(bool v) noexcept : type_(ValueType::kBool) {
    payload_.b = v;
  }
  explicit Value(std::string v);
  explicit Value(const char* v) : Value(std::string(v)) {}

  Value(const Value& other) noexcept
      : payload_(other.payload_), type_(other.type_) {
    if (type_ == ValueType::kString) payload_.s->Retain();
  }
  Value(Value&& other) noexcept : payload_(other.payload_), type_(other.type_) {
    other.type_ = ValueType::kNull;
  }
  Value& operator=(const Value& other) noexcept {
    if (this == &other) return *this;
    // Retain before releasing: both may share one block.
    if (other.type_ == ValueType::kString) other.payload_.s->Retain();
    ReleaseString();
    payload_ = other.payload_;
    type_ = other.type_;
    return *this;
  }
  Value& operator=(Value&& other) noexcept {
    if (this == &other) return *this;
    ReleaseString();
    payload_ = other.payload_;
    type_ = other.type_;
    other.type_ = ValueType::kNull;
    return *this;
  }
  ~Value() { ReleaseString(); }

  static Value Null() { return Value(); }

  ValueType type() const { return type_; }
  bool is_null() const { return type_ == ValueType::kNull; }
  bool is_numeric() const {
    return type_ == ValueType::kInt || type_ == ValueType::kDouble;
  }

  /// Typed accessors; calling the wrong one aborts (programming error).
  std::int64_t AsInt() const;
  double AsDouble() const;  // accepts kInt too (promotes)
  bool AsBool() const;
  const std::string& AsString() const;

  /// Truthiness for predicates: false for null, the value for bool,
  /// non-zero for numerics. Strings abort.
  bool Truthy() const;

  std::string ToString() const;

  std::size_t Hash() const;

  /// Equality: same type (with int/double promotion) and same content.
  /// Null equals only null.
  friend bool operator==(const Value& a, const Value& b);
  friend bool operator!=(const Value& a, const Value& b) { return !(a == b); }

  /// Ordering for sort/tree use: null < numerics < bool < string; numerics
  /// compare by promoted double.
  friend bool operator<(const Value& a, const Value& b);

 private:
  /// The shared, immutable home of a string value's bytes.
  struct StringBlock {
    explicit StringBlock(std::string s) : text(std::move(s)) {}
    void Retain() { refs.fetch_add(1, std::memory_order_relaxed); }
    /// True when the caller held the last reference. The acq_rel decrement
    /// orders every other owner's reads of `text` before the last owner's
    /// `delete`.
    bool Release() {
      return refs.fetch_sub(1, std::memory_order_acq_rel) == 1;
    }

    std::atomic<std::size_t> refs{1};
    const std::string text;
  };

  /// Copied as a whole (its object representation), whichever member is
  /// live; `type_` says which one that is.
  union Payload {
    std::int64_t i;
    double d;
    bool b;
    StringBlock* s;
  };

  void ReleaseString() noexcept {
    if (type_ == ValueType::kString && payload_.s->Release()) {
      delete payload_.s;
    }
  }

  Payload payload_{};
  ValueType type_ = ValueType::kNull;
};

static_assert(sizeof(Value) == 16, "a Value is a tag beside an 8-byte payload");

}  // namespace pipes::relational

template <>
struct std::hash<pipes::relational::Value> {
  std::size_t operator()(const pipes::relational::Value& v) const {
    return v.Hash();
  }
};

#endif  // PIPES_RELATIONAL_VALUE_H_
