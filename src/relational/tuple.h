#ifndef PIPES_RELATIONAL_TUPLE_H_
#define PIPES_RELATIONAL_TUPLE_H_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <new>
#include <span>
#include <string>
#include <vector>

#include "src/relational/value.h"

/// \file
/// Tuples: fixed-arity sequences of `Value`s, positionally addressed. Field
/// names live in the `Schema`, not in the tuple, so tuples stay compact.

namespace pipes::relational {

/// A row. Hashable and comparable so it can serve directly as a join or
/// grouping key payload in the generic algebra.
///
/// Up to `kInlineFields` values live inside the tuple itself; only a wider
/// row takes one heap block, sized once when the row is built. Copying,
/// projecting or concatenating into a row of at most `kInlineFields` values
/// therefore never allocates, strings included (they are shared, see
/// `Value`).
class Tuple {
 public:
  /// Values stored inline: every row, key and staged result pays this
  /// width, and only wider rows allocate. Four holds NEXMark bids (3
  /// fields), ESPBench events and machines (4), grouping keys (1) and
  /// aggregate rows (2); traffic readings (5) and join outputs (7–8) take a
  /// heap block. Chosen on all three perfbench workloads (EXPERIMENTS.md
  /// P4): against four, five inline values lifted traffic-serve's
  /// throughput 1.42x, but cost espbench-enrich 9 % of its throughput and
  /// nexmark-fanout 7 % more peak memory for no throughput gain; eight
  /// cost 15 % and 26 %.
  static constexpr std::size_t kInlineFields = 4;

  Tuple() noexcept {}
  explicit Tuple(std::vector<Value> values);
  Tuple(std::initializer_list<Value> values);

  Tuple(const Tuple& other);
  Tuple(Tuple&& other) noexcept;
  Tuple& operator=(const Tuple& other);
  Tuple& operator=(Tuple&& other) noexcept;
  ~Tuple() { Release(); }

  std::size_t arity() const { return size_; }

  const Value& field(std::size_t i) const;
  void set_field(std::size_t i, Value v);
  void Append(Value v);
  /// Makes room for `n` values, so a row built by `n` appends takes at most
  /// one heap block, of exactly `n` values.
  void Reserve(std::size_t n);

  std::span<const Value> values() const { return {data(), size_}; }

  /// New tuple with this tuple's fields followed by `other`'s
  /// (concatenation for joins).
  Tuple Concat(const Tuple& other) const;

  /// New tuple containing the fields at `indices`, in that order.
  Tuple Project(const std::vector<std::size_t>& indices) const;

  std::size_t Hash() const;
  std::string ToString() const;  // "(v1, v2, ...)"

  /// Bytes of the heap block holding the values of a row wider than
  /// `kInlineFields`; 0 for an inline row.
  std::size_t HeapBytes() const {
    return on_heap() ? capacity_ * sizeof(Value) : 0;
  }

  friend bool operator==(const Tuple& a, const Tuple& b);
  friend bool operator!=(const Tuple& a, const Tuple& b) { return !(a == b); }
  friend bool operator<(const Tuple& a, const Tuple& b);

 private:
  bool on_heap() const { return capacity_ > kInlineFields; }
  Value* data() {
    return on_heap() ? heap_ : std::launder(reinterpret_cast<Value*>(inline_));
  }
  const Value* data() const {
    return on_heap() ? heap_
                     : std::launder(reinterpret_cast<const Value*>(inline_));
  }

  /// Copy-constructs `n` values from `from` past the current end (room must
  /// have been reserved).
  void AppendCopies(const Value* from, std::size_t n);
  /// Destroys the values and frees the heap block, leaving an empty inline
  /// tuple.
  void Release() noexcept;
  /// Takes `other`'s values (by pointer when on the heap), leaving it empty.
  void StealFrom(Tuple& other) noexcept;

  std::uint32_t size_ = 0;
  std::uint32_t capacity_ = kInlineFields;
  union {
    alignas(Value) unsigned char inline_[kInlineFields * sizeof(Value)];
    Value* heap_;
  };
};

}  // namespace pipes::relational

template <>
struct std::hash<pipes::relational::Tuple> {
  std::size_t operator()(const pipes::relational::Tuple& t) const {
    return t.Hash();
  }
};

namespace pipes::sweeparea {
/// Memory accounting for tuple payloads (used by SweepAreas and grouped
/// aggregates): the row itself with its inline values, its heap block past
/// `Tuple::kInlineFields`, and the bytes of its string fields.
std::size_t ApproxPayloadBytes(const pipes::relational::Tuple& t);
}  // namespace pipes::sweeparea

#endif  // PIPES_RELATIONAL_TUPLE_H_
