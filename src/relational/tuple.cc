#include "src/relational/tuple.h"

#include <algorithm>
#include <memory>

#include "src/common/macros.h"

namespace pipes::relational {

Tuple::Tuple(std::vector<Value> values) {
  Reserve(values.size());
  std::uninitialized_move_n(values.begin(), values.size(), data());
  size_ = static_cast<std::uint32_t>(values.size());
}

Tuple::Tuple(std::initializer_list<Value> values) {
  Reserve(values.size());
  AppendCopies(values.begin(), values.size());
}

Tuple::Tuple(const Tuple& other) {
  Reserve(other.size_);
  AppendCopies(other.data(), other.size_);
}

Tuple::Tuple(Tuple&& other) noexcept { StealFrom(other); }

Tuple& Tuple::operator=(const Tuple& other) {
  if (this == &other) return *this;
  Tuple copy(other);
  Release();
  StealFrom(copy);
  return *this;
}

Tuple& Tuple::operator=(Tuple&& other) noexcept {
  if (this == &other) return *this;
  Release();
  StealFrom(other);
  return *this;
}

const Value& Tuple::field(std::size_t i) const {
  PIPES_CHECK_MSG(i < size_, "tuple field index out of range");
  return data()[i];
}

void Tuple::set_field(std::size_t i, Value v) {
  PIPES_CHECK_MSG(i < size_, "tuple field index out of range");
  data()[i] = std::move(v);
}

void Tuple::Append(Value v) {
  if (size_ == capacity_) Reserve(2 * static_cast<std::size_t>(capacity_));
  new (data() + size_) Value(std::move(v));
  ++size_;
}

void Tuple::Reserve(std::size_t n) {
  if (n <= capacity_) return;
  Value* block = std::allocator<Value>().allocate(n);
  std::uninitialized_move_n(data(), size_, block);
  const std::uint32_t size = size_;
  Release();
  heap_ = block;
  capacity_ = static_cast<std::uint32_t>(n);
  size_ = size;
}

void Tuple::AppendCopies(const Value* from, std::size_t n) {
  PIPES_DCHECK(size_ + n <= capacity_);
  std::uninitialized_copy_n(from, n, data() + size_);
  size_ += static_cast<std::uint32_t>(n);
}

void Tuple::Release() noexcept {
  std::destroy_n(data(), size_);
  if (on_heap()) std::allocator<Value>().deallocate(heap_, capacity_);
  size_ = 0;
  capacity_ = kInlineFields;
}

void Tuple::StealFrom(Tuple& other) noexcept {
  size_ = other.size_;
  capacity_ = other.capacity_;
  if (other.on_heap()) {
    heap_ = other.heap_;
  } else {
    // Moved-from values are nulls, so the source needs no destructor run.
    std::uninitialized_move_n(other.data(), other.size_, data());
  }
  other.size_ = 0;
  other.capacity_ = kInlineFields;
}

Tuple Tuple::Concat(const Tuple& other) const {
  Tuple out;
  out.Reserve(size_ + other.size_);
  out.AppendCopies(data(), size_);
  out.AppendCopies(other.data(), other.size_);
  return out;
}

Tuple Tuple::Project(const std::vector<std::size_t>& indices) const {
  Tuple out;
  out.Reserve(indices.size());
  Value* to = out.data();
  for (std::size_t i : indices) {
    new (to + out.size_) Value(field(i));
    ++out.size_;
  }
  return out;
}

std::size_t Tuple::Hash() const {
  std::size_t h = 0x811c9dc5;
  for (const Value& v : values()) {
    h ^= v.Hash() + 0x9e3779b9 + (h << 6) + (h >> 2);
  }
  return h;
}

std::string Tuple::ToString() const {
  std::string out = "(";
  for (std::size_t i = 0; i < size_; ++i) {
    if (i > 0) out += ", ";
    out += data()[i].ToString();
  }
  out += ")";
  return out;
}

bool operator==(const Tuple& a, const Tuple& b) {
  return std::equal(a.data(), a.data() + a.size_, b.data(), b.data() + b.size_);
}

bool operator<(const Tuple& a, const Tuple& b) {
  return std::lexicographical_compare(a.data(), a.data() + a.size_, b.data(),
                                      b.data() + b.size_);
}

}  // namespace pipes::relational

namespace pipes::sweeparea {

std::size_t ApproxPayloadBytes(const pipes::relational::Tuple& t) {
  std::size_t bytes = sizeof(pipes::relational::Tuple) + t.HeapBytes();
  for (const auto& v : t.values()) {
    if (v.type() == pipes::relational::ValueType::kString) {
      bytes += v.AsString().size();
    }
  }
  return bytes;
}

}  // namespace pipes::sweeparea
