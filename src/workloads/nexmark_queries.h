#ifndef PIPES_WORKLOADS_NEXMARK_QUERIES_H_
#define PIPES_WORKLOADS_NEXMARK_QUERIES_H_

#include <algorithm>
#include <string>
#include <utility>

#include "src/algebra/aggregate.h"
#include "src/algebra/filter.h"
#include "src/algebra/join.h"
#include "src/algebra/map.h"
#include "src/algebra/window.h"
#include "src/core/generator_source.h"
#include "src/core/graph.h"
#include "src/workloads/nexmark.h"

/// \file
/// The online-auction query library: typed plan fragments for the NEXMark
/// queries the paper demonstrates —
///
///  * event-stream splitting (bids / auctions / persons),
///  * currency conversion (NEXMark query 1),
///  * category-style selection on bids (query 2 flavour),
///  * "every p the highest bid of the recent p" (the paper's showcase),
///  * per-auction bid statistics.

namespace pipes::workloads {

/// Wraps a `NexmarkGenerator` into an active source of point elements.
/// `batch_size` > 1 makes the source emit that many events per
/// `TransferRun` — the batching knob for the auction workload.
FunctionSource<NexmarkEvent>& AddNexmarkSource(QueryGraph& graph,
                                               NexmarkOptions options,
                                               std::size_t batch_size = 1);

// --- Event-stream splitting ----------------------------------------------------

struct IsBidEvent {
  bool operator()(const NexmarkEvent& e) const {
    return e.kind == NexmarkKind::kBid;
  }
};
struct IsAuctionEvent {
  bool operator()(const NexmarkEvent& e) const {
    return e.kind == NexmarkKind::kAuction;
  }
};
struct IsPersonEvent {
  bool operator()(const NexmarkEvent& e) const {
    return e.kind == NexmarkKind::kPerson;
  }
};
struct BidOfEvent {
  Bid operator()(const NexmarkEvent& e) const { return e.bid; }
};
struct AuctionOfEvent {
  Auction operator()(const NexmarkEvent& e) const { return e.auction; }
};
struct PersonOfEvent {
  Person operator()(const NexmarkEvent& e) const { return e.person; }
};

/// Splits the raw event stream into a typed bid stream (filter + map).
using BidStream = algebra::Map<NexmarkEvent, Bid, BidOfEvent>;
BidStream& BuildBidStream(QueryGraph& graph,
                          Source<NexmarkEvent>& events);

using AuctionStream = algebra::Map<NexmarkEvent, Auction, AuctionOfEvent>;
AuctionStream& BuildAuctionStream(QueryGraph& graph,
                                  Source<NexmarkEvent>& events);

using PersonStream = algebra::Map<NexmarkEvent, Person, PersonOfEvent>;
PersonStream& BuildPersonStream(QueryGraph& graph,
                                Source<NexmarkEvent>& events);

// --- NEXMark query 1: currency conversion -------------------------------------

struct ConvertCurrency {
  double rate;
  Bid operator()(const Bid& b) const {
    Bid converted = b;
    converted.price = b.price * rate;
    return converted;
  }
};
using CurrencyConversion = algebra::Map<Bid, Bid, ConvertCurrency>;
CurrencyConversion& BuildCurrencyConversion(QueryGraph& graph,
                                            Source<Bid>& bids, double rate);

// --- NEXMark query 2 flavour: selection on auction ids ------------------------

struct AuctionIdModulo {
  std::int64_t modulus;
  bool operator()(const Bid& b) const { return b.auction % modulus == 0; }
};
using BidSelection = algebra::Filter<Bid, AuctionIdModulo>;
BidSelection& BuildBidSelection(QueryGraph& graph, Source<Bid>& bids,
                                std::int64_t modulus);

// --- The paper's showcase: tumbling highest bid --------------------------------

struct PriceOf {
  double operator()(const Bid& b) const { return b.price; }
};

/// "Return every `period` the highest bid of the recent `period`."
using HighestBid =
    algebra::TemporalAggregate<Bid, algebra::MaxAgg<double>, PriceOf>;
HighestBid& BuildHighestBidQuery(QueryGraph& graph, Source<Bid>& bids,
                                 Timestamp period);

// --- Open-auction join ----------------------------------------------------------
// A showcase of interval semantics: auction elements are given validity
// [open_time, expires), so a temporal equi-join with the (point) bid stream
// matches a bid if and only if the auction is still open at bid time — no
// explicit "is the auction open?" predicate needed.

struct AuctionValidity {
  TimeInterval operator()(const Auction& a) const {
    return TimeInterval(a.open_time, std::max(a.expires, a.open_time + 1));
  }
};
struct AuctionId {
  std::int64_t operator()(const Auction& a) const { return a.id; }
};

/// (bid, auction) pairs for bids placed while their auction was open.
struct BidWithAuction {
  Bid bid;
  Auction auction;
};
struct CombineBidAuction {
  BidWithAuction operator()(const Bid& b, const Auction& a) const {
    return BidWithAuction{b, a};
  }
};

/// Joins bids against open auctions. Subscribe `bids` (point elements) and
/// an auction stream whose elements carry [open, expires) validity (use
/// `AuctionValidity` when building that source).
Source<BidWithAuction>& BuildOpenAuctionJoin(QueryGraph& graph,
                                             Source<Bid>& bids,
                                             Source<Auction>& open_auctions);

// --- Per-auction statistics ----------------------------------------------------

struct AuctionOfBid {
  std::int64_t operator()(const Bid& b) const { return b.auction; }
};

/// (auction, bid count) over a sliding window.
using BidsPerAuction =
    algebra::GroupedAggregate<Bid, algebra::CountAgg<double>, AuctionOfBid,
                              PriceOf>;
BidsPerAuction& BuildBidsPerAuctionQuery(QueryGraph& graph,
                                         Source<Bid>& bids, Timestamp range,
                                         Timestamp slide);

}  // namespace pipes::workloads

#endif  // PIPES_WORKLOADS_NEXMARK_QUERIES_H_
