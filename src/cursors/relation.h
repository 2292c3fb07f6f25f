#ifndef PIPES_CURSORS_RELATION_H_
#define PIPES_CURSORS_RELATION_H_

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/core/pipe.h"
#include "src/cursors/cursor.h"

/// \file
/// Persistent-data access for hybrid queries: an indexed in-memory relation
/// with cursor-based scans and lookups, plus the stream-relation join pipe
/// that probes it per stream element — the pattern of the NEXMark
/// demonstration (joining the bid stream with the person relation).

namespace pipes::cursors {

/// Ordered multimap relation with cursor access.
template <typename K, typename V>
class IndexedRelation {
 public:
  void Insert(K key, V value) { index_.emplace(std::move(key), std::move(value)); }

  std::size_t size() const { return index_.size(); }

  /// Demand-driven scan of all values in key order.
  CursorPtr<V> Scan() const {
    std::vector<V> values;
    values.reserve(index_.size());
    for (const auto& [k, v] : index_) values.push_back(v);
    return std::make_unique<VectorCursor<V>>(std::move(values));
  }

  /// Demand-driven lookup of all values with `key`.
  CursorPtr<V> Lookup(const K& key) const {
    auto [lo, hi] = index_.equal_range(key);
    std::vector<V> values;
    for (auto it = lo; it != hi; ++it) values.push_back(it->second);
    return std::make_unique<VectorCursor<V>>(std::move(values));
  }

  /// Demand-driven range scan over keys in [lo, hi].
  CursorPtr<V> Range(const K& lo, const K& hi) const {
    std::vector<V> values;
    for (auto it = index_.lower_bound(lo);
         it != index_.end() && !(hi < it->first); ++it) {
      values.push_back(it->second);
    }
    return std::make_unique<VectorCursor<V>>(std::move(values));
  }

 private:
  std::multimap<K, V> index_;
};

/// Joins a stream with a persistent relation: each arriving element probes
/// the relation through its cursor interface (demand-driven inner, data-
/// driven outer) and emits one combined element per match, preserving the
/// stream element's validity.
template <typename T, typename K, typename V, typename KeyFn,
          typename Combine>
class StreamRelationJoin
    : public UnaryPipe<
          T, std::decay_t<std::invoke_result_t<Combine, const T&, const V&>>> {
 public:
  using Out = std::decay_t<std::invoke_result_t<Combine, const T&, const V&>>;

  StreamRelationJoin(const IndexedRelation<K, V>* relation, KeyFn key_fn,
                     Combine combine,
                     std::string name = "stream-relation-join")
      : UnaryPipe<T, Out>(std::move(name)),
        relation_(relation),
        key_fn_(std::move(key_fn)),
        combine_(std::move(combine)) {}

 protected:
  void PortRun(int /*port_id*/, const ColumnarRun<T>& run) override {
    for (std::size_t i = 0; i < run.size(); ++i) {
      const T& payload = run.payloads[i];
      CursorPtr<V> matches = relation_->Lookup(key_fn_(payload));
      while (auto v = matches->Next()) {
        this->Transfer(StreamElement<Out>(combine_(payload, *v),
                                          run.starts[i], run.ends[i]));
      }
    }
  }

 private:
  const IndexedRelation<K, V>* relation_;
  KeyFn key_fn_;
  Combine combine_;
};

}  // namespace pipes::cursors

#endif  // PIPES_CURSORS_RELATION_H_
