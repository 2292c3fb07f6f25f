// Tests for the continuous-query server: the wire codec (pure functions —
// framing round-trips, chunked delivery, truncation and garbage handling)
// and a loopback end-to-end conversation through PipesServer + Client.
// The socket tests skip gracefully in sandboxes that refuse loopback
// listeners; the codec tests always run.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/engine/engine.h"
#include "src/server/client.h"
#include "src/server/protocol.h"
#include "src/server/server.h"

namespace pipes::server {
namespace {

using relational::Schema;
using relational::Tuple;
using relational::Value;
using relational::ValueType;

// --- Codec ------------------------------------------------------------------

TEST(ProtocolTest, BodyPrimitivesRoundTrip) {
  const std::string body = BodyWriter()
                               .PutU32(0)
                               .PutU32(0xdeadbeef)
                               .PutU64(0x0123456789abcdefull)
                               .PutTimestamp(-42)
                               .PutString("")
                               .PutString("hello \x01\xff world")
                               .Take();
  BodyReader reader(body);
  EXPECT_EQ(reader.U32().value(), 0u);
  EXPECT_EQ(reader.U32().value(), 0xdeadbeefu);
  EXPECT_EQ(reader.U64().value(), 0x0123456789abcdefull);
  EXPECT_EQ(reader.GetTimestamp().value(), -42);
  EXPECT_EQ(reader.String().value(), "");
  EXPECT_EQ(reader.String().value(), "hello \x01\xff world");
  EXPECT_TRUE(reader.Finish().ok());
}

TEST(ProtocolTest, ReaderRejectsTruncationAndTrailingBytes) {
  const std::string body = BodyWriter().PutU32(7).Take();
  {
    BodyReader reader(body);
    EXPECT_FALSE(reader.U64().ok());  // only 4 bytes available
  }
  {
    BodyReader reader(body);
    ASSERT_TRUE(reader.U32().ok());
    EXPECT_FALSE(reader.U32().ok());
    EXPECT_FALSE(reader.String().ok());
  }
  {
    BodyReader reader(body);
    EXPECT_FALSE(reader.Finish().ok());  // unread bytes
  }
  // A string whose length prefix overruns the body.
  const std::string lying = BodyWriter().PutU32(1000).Take();
  BodyReader reader(lying);
  EXPECT_FALSE(reader.String().ok());
}

TEST(ProtocolTest, FramesRoundTripUnderArbitraryChunking) {
  const std::vector<Message> messages = {
      HelloMessage("tenant-a"),
      RegisterMessage("SELECT * FROM s"),
      CancelMessage(77),
      FetchMessage(12, 256),
      {MsgType::kPing, {}},
      ErrorMessage(Status::NotFound("nope")),
  };
  std::string wire;
  for (const Message& m : messages) wire += EncodeFrame(m);

  // Feed one byte at a time — the decoder must reassemble exactly.
  for (std::size_t chunk : {std::size_t{1}, std::size_t{3}, wire.size()}) {
    FrameDecoder decoder;
    std::vector<Message> decoded;
    for (std::size_t i = 0; i < wire.size(); i += chunk) {
      decoder.Feed(std::string_view(wire).substr(i, chunk));
      while (true) {
        auto next = decoder.Next();
        ASSERT_TRUE(next.ok());
        if (!next->has_value()) break;
        decoded.push_back(**next);
      }
    }
    EXPECT_EQ(decoded, messages) << "chunk size " << chunk;
    EXPECT_EQ(decoder.buffered_bytes(), 0u);
  }
}

TEST(ProtocolTest, DecoderRejectsGarbageFrames) {
  {
    FrameDecoder decoder;
    decoder.Feed(std::string("\x00\x00\x00\x00", 4));  // zero-length frame
    EXPECT_FALSE(decoder.Next().ok());
  }
  {
    FrameDecoder decoder;
    decoder.Feed(std::string("\xff\xff\xff\xff", 4));  // 4GiB frame
    EXPECT_FALSE(decoder.Next().ok());
  }
  {
    FrameDecoder decoder;
    decoder.Feed(std::string("\x00\x00", 2));  // incomplete header
    auto next = decoder.Next();
    ASSERT_TRUE(next.ok());
    EXPECT_FALSE(next->has_value());
  }
}

TEST(ProtocolTest, ErrorMessageRoundTripsStatus) {
  const Status original =
      Status::ResourceExhausted("tenant over 3-query quota");
  const Status decoded = StatusFromError(ErrorMessage(original));
  EXPECT_EQ(decoded.code(), original.code());
  EXPECT_EQ(decoded.message(), original.message());
  EXPECT_FALSE(StatusFromError({MsgType::kOk, {}}).ok());
}

// --- End-to-end over loopback ----------------------------------------------

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine_ = std::make_unique<engine::Engine>();
    auto writer = engine_->AddStream(
        "trades",
        Schema({{"symbol", ValueType::kInt}, {"price", ValueType::kDouble}}),
        /*rate_hint=*/10.0);
    ASSERT_TRUE(writer.ok());
    writer_ = *writer;
    server_ = std::make_unique<PipesServer>(*engine_);
    const Status started = server_->Start();
    if (!started.ok()) {
      GTEST_SKIP() << "no loopback sockets here: " << started.ToString();
    }
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
  }

  void Feed(int n, Timestamp t0) {
    for (int i = 0; i < n; ++i) {
      ASSERT_TRUE(writer_
                      .Push(Tuple{Value(static_cast<std::int64_t>(i % 2)),
                                  Value(100.0 + i)},
                            t0 + i * 100)
                      .ok());
    }
  }

  std::unique_ptr<engine::Engine> engine_;
  engine::StreamWriter writer_;
  std::unique_ptr<PipesServer> server_;
};

TEST_F(ServerTest, FullConversation) {
  auto client = Client::Connect("127.0.0.1", server_->port(), "acme");
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE(client->Ping().ok());

  auto registered = client->Register(
      "SELECT symbol, AVG(price) AS avg_price FROM trades "
      "[RANGE 1 SECONDS SLIDE 1 SECONDS] GROUP BY symbol");
  ASSERT_TRUE(registered.ok()) << registered.status().ToString();
  EXPECT_GT(registered->query_id, 0u);
  EXPECT_NE(registered->schema.find("avg_price"), std::string::npos);

  // Bad CQL surfaces as a typed error, connection intact.
  auto bad = client->Register("SELEC nonsense");
  ASSERT_FALSE(bad.ok());
  ASSERT_TRUE(client->Ping().ok());

  // Feed past a few window closes, then fetch until results arrive (the
  // server's pump thread drives the executor).
  Feed(50, 0);
  std::vector<Client::Row> rows;
  for (int attempt = 0; attempt < 500 && rows.empty(); ++attempt) {
    auto fetched = client->Fetch(registered->query_id, 16);
    ASSERT_TRUE(fetched.ok()) << fetched.status().ToString();
    rows = *fetched;
    if (rows.empty()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  ASSERT_FALSE(rows.empty());
  EXPECT_LE(rows.size(), 16u);
  EXPECT_LT(rows[0].start, rows[0].end);
  EXPECT_FALSE(rows[0].tuple.empty());

  // Snapshots: tenant-scoped and whole-graph.
  auto tenant_json = client->SnapshotJson(/*whole_graph=*/false);
  ASSERT_TRUE(tenant_json.ok());
  EXPECT_NE(tenant_json->find("\"scope\""), std::string::npos);
  auto whole_json = client->SnapshotJson(/*whole_graph=*/true);
  ASSERT_TRUE(whole_json.ok());
  EXPECT_GT(whole_json->size(), tenant_json->size() / 2);

  // Cancel, then operations on the dead query fail cleanly.
  ASSERT_TRUE(client->Cancel(registered->query_id).ok());
  EXPECT_FALSE(client->Fetch(registered->query_id, 16).ok());
  EXPECT_FALSE(client->Cancel(registered->query_id).ok());
}

TEST_F(ServerTest, NonPositiveWindowIsAnErrorNotACrash) {
  auto client = Client::Connect("127.0.0.1", server_->port(), "acme");
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  const std::size_t nodes = engine_->stats().graph_nodes;
  auto bad = client->Register("SELECT * FROM trades [RANGE 0 SECONDS]");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument)
      << bad.status().ToString();
  EXPECT_TRUE(client->Ping().ok());
  EXPECT_EQ(engine_->stats().graph_nodes, nodes);
}

TEST_F(ServerTest, OverflowingArithmeticWrapsAndServerStaysUp) {
  auto client = Client::Connect("127.0.0.1", server_->port(), "acme");
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  // Each query sees one trade with symbol 0 and yields INT64_MIN or 0.
  const std::pair<const char*, const char*> cases[] = {
      {"(-9223372036854775807 - 1) / -1", "(-9223372036854775808)"},
      {"(-9223372036854775807 - 1) % -1", "(0)"},
      {"(symbol + 2) * 9223372036854775807", "(-2)"},
      {"-(-9223372036854775807 - 1)", "(-9223372036854775808)"},
  };
  std::vector<std::uint64_t> ids;
  for (const auto& [expr, want] : cases) {
    auto q = client->Register(std::string("SELECT ") + expr +
                              " AS x FROM trades");
    ASSERT_TRUE(q.ok()) << expr << ": " << q.status().ToString();
    ids.push_back(q->query_id);
  }
  Feed(1, 0);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    std::vector<Client::Row> rows;
    for (int attempt = 0; attempt < 500 && rows.empty(); ++attempt) {
      auto fetched = client->Fetch(ids[i], 16);
      ASSERT_TRUE(fetched.ok()) << fetched.status().ToString();
      rows = *fetched;
      if (rows.empty()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    }
    ASSERT_EQ(rows.size(), 1u) << cases[i].first;
    EXPECT_EQ(rows[0].tuple, cases[i].second) << cases[i].first;
    EXPECT_TRUE(client->Ping().ok());
  }
}

TEST_F(ServerTest, IllTypedQueriesAreErrorsNotCrashes) {
  auto client = Client::Connect("127.0.0.1", server_->port(), "acme");
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  const std::size_t nodes = engine_->stats().graph_nodes;
  for (const char* query :
       {"SELECT symbol + 'x' AS bad FROM trades",
        "SELECT -'x' AS bad FROM trades", "SELECT NOT 'x' AS bad FROM trades",
        "SELECT * FROM trades WHERE 'x'",
        "SELECT SUM('x') AS bad FROM trades",
        "SELECT AVG('x') AS bad FROM trades"}) {
    auto bad = client->Register(query);
    ASSERT_FALSE(bad.ok()) << query;
    EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument)
        << query << ": " << bad.status().ToString();
    EXPECT_TRUE(client->Ping().ok()) << query;
  }
  EXPECT_EQ(engine_->stats().graph_nodes, nodes);
}

TEST_F(ServerTest, HelloIsRequiredAndDisconnectCancelsTenant) {
  // The server refuses an empty tenant name at HELLO time.
  EXPECT_FALSE(Client::Connect("127.0.0.1", server_->port(), "").ok());

  auto client = Client::Connect("127.0.0.1", server_->port(), "ghost");
  ASSERT_TRUE(client.ok());
  auto registered = client->Register(
      "SELECT symbol, MAX(price) AS high FROM trades "
      "[RANGE 1 SECONDS SLIDE 1 SECONDS] GROUP BY symbol");
  ASSERT_TRUE(registered.ok());
  EXPECT_EQ(engine_->tenant_counters("ghost").live, 1u);

  client->Close();
  // The server notices the disconnect and cancels everything "ghost" owns.
  for (int attempt = 0; attempt < 500; ++attempt) {
    if (engine_->tenant_counters("ghost").live == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(engine_->tenant_counters("ghost").live, 0u);
  EXPECT_EQ(engine_->tenant_counters("ghost").cancelled, 1u);
}

// Query ids are sequential, so CANCEL must check ownership the way FETCH
// does: only the connection that registered a query may tear it down.
TEST_F(ServerTest, CancelIsScopedToTheRegisteringConnection) {
  auto alice = Client::Connect("127.0.0.1", server_->port(), "alice");
  auto mallory = Client::Connect("127.0.0.1", server_->port(), "mallory");
  ASSERT_TRUE(alice.ok() && mallory.ok());
  auto q = alice->Register("SELECT symbol, price FROM trades");
  ASSERT_TRUE(q.ok()) << q.status().ToString();

  const Status foreign = mallory->Cancel(q->query_id);
  EXPECT_EQ(foreign.code(), StatusCode::kNotFound) << foreign.ToString();
  EXPECT_EQ(engine_->tenant_counters("alice").live, 1u);
  EXPECT_EQ(engine_->tenant_counters("alice").cancelled, 0u);

  // The owner's query keeps running and delivering.
  Feed(5, 0);
  std::vector<Client::Row> rows;
  for (int attempt = 0; attempt < 500 && rows.size() < 5; ++attempt) {
    auto fetched = alice->Fetch(q->query_id, 16);
    ASSERT_TRUE(fetched.ok()) << fetched.status().ToString();
    rows.insert(rows.end(), fetched->begin(), fetched->end());
    if (rows.size() < 5) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  EXPECT_EQ(rows.size(), 5u);

  EXPECT_TRUE(alice->Cancel(q->query_id).ok());
  EXPECT_EQ(engine_->tenant_counters("alice").live, 0u);
  EXPECT_EQ(engine_->tenant_counters("alice").cancelled, 1u);
}

TEST_F(ServerTest, TenantsAreIsolated) {
  auto alice = Client::Connect("127.0.0.1", server_->port(), "alice");
  auto bob = Client::Connect("127.0.0.1", server_->port(), "bob");
  ASSERT_TRUE(alice.ok() && bob.ok());

  auto qa = alice->Register(
      "SELECT symbol, COUNT(*) AS n FROM trades "
      "[RANGE 1 SECONDS SLIDE 1 SECONDS] GROUP BY symbol");
  ASSERT_TRUE(qa.ok());

  // Bob cannot fetch from Alice's query through his connection.
  EXPECT_FALSE(bob->Fetch(qa->query_id, 16).ok());

  // Both tenants are visible engine-side with their own counters.
  EXPECT_EQ(engine_->tenant_counters("alice").live, 1u);
  EXPECT_EQ(engine_->tenant_counters("bob").live, 0u);
}

}  // namespace
}  // namespace pipes::server
