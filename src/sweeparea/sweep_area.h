#ifndef PIPES_SWEEPAREA_SWEEP_AREA_H_
#define PIPES_SWEEPAREA_SWEEP_AREA_H_

#include <cstddef>

/// \file
/// SweepAreas: status-aware data structures that hold the live portion of a
/// stream for join processing, "providing efficient support for insertion,
/// retrieval and reorganization" (the paper, after [Cammert et al.] and the
/// generalized ripple join of Haas/Hellerstein). A temporal join keeps one
/// SweepArea per input; arriving elements probe the opposite area and are
/// inserted into their own. Reorganization = purging elements whose
/// validity ended before the opposite input's watermark.
///
/// SweepAreas are compile-time exchangeable: `TemporalJoin` is a template
/// over the two SweepArea types (the paper's "join parameterized by
/// exchangeable SweepAreas"). Every implementation provides:
///
///   void Insert(StreamElement<Stored>);     // stored by move
///   template <typename Emit>
///   void Query(const StreamElement<Probe>&, Emit&& emit) const;
///       // emit(const StreamElement<Stored>&) for every stored element
///       // whose interval overlaps the probe's and whose payload matches
///   std::size_t PurgeBefore(Timestamp t);   // drop elements with end <= t
///   bool EvictOne(StreamElement<Stored>* evicted);  // load shedding
///   std::size_t size() const;
///   std::size_t ApproxBytes() const;
///
/// This header holds the shared helpers.

namespace pipes::sweeparea {

/// Default payload size estimate for memory accounting. Overload (in
/// namespace pipes::sweeparea) for payloads with external allocations.
template <typename T>
std::size_t ApproxPayloadBytes(const T& /*payload*/) {
  return sizeof(T);
}

/// Fixed per-element bookkeeping overhead assumed by all SweepAreas
/// (container node + interval).
inline constexpr std::size_t kPerElementOverheadBytes = 48;

/// Predicate that accepts every payload pair; the default residual
/// predicate of key-based SweepAreas.
struct TruePredicate {
  template <typename A, typename B>
  bool operator()(const A&, const B&) const {
    return true;
  }
};

}  // namespace pipes::sweeparea

#endif  // PIPES_SWEEPAREA_SWEEP_AREA_H_
