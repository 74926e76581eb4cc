// End-to-end tests for the TopoDB serving layer: every opcode against a
// live loopback server compared with in-process library results, session
// behavior on malformed frames, deadline propagation over the wire,
// admission-queue shedding under overload, and graceful drain. This
// suite also runs under TSan (ci/run_ci.sh) alongside concurrency_test.

#include <atomic>
#include <chrono>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "src/client/client.h"
#include "src/invariant/canonical.h"
#include "src/invariant/data.h"
#include "src/query/eval.h"
#include "src/region/fixtures.h"
#include "src/region/io.h"
#include "src/server/server.h"
#include "src/server/wire.h"
#include "src/workload/generators.h"

namespace topodb {
namespace {

// A query that enumerates far past any realistic budget on a 3x3 grid:
// ~250ms of work before the candidate cap, so a 1ms budget is guaranteed
// to trip mid-evaluation rather than win the race.
constexpr char kPathologicalQuery[] =
    "forall region r . exists region s . not connect(r, s)";

std::string GridText() {
  auto grid = RectGridInstance(3, 3);
  EXPECT_TRUE(grid.ok());
  return WriteInstanceText(*grid);
}

TopoDbClient ConnectOrDie(const TopoDbServer& server) {
  auto client = TopoDbClient::Connect(server.port());
  EXPECT_TRUE(client.ok()) << client.status().ToString();
  return *std::move(client);
}

TEST(ServerTest, PingAndMetricsRoundTrip) {
  TopoDbServer server(ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  ASSERT_NE(server.port(), 0);

  TopoDbClient client = ConnectOrDie(server);
  EXPECT_TRUE(client.Ping().ok());
  EXPECT_TRUE(client.Ping(5000).ok());  // A budget on a cheap call is fine.

  const auto json = client.Metrics();
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  EXPECT_NE(json->find("\"topodb.metrics.v2\""), std::string::npos);
  EXPECT_NE(json->find("server.requests"), std::string::npos);

  EXPECT_TRUE(server.Shutdown().ok());
}

TEST(ServerTest, ComputeInvariantMatchesLocalLibrary) {
  TopoDbServer server(ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  TopoDbClient client = ConnectOrDie(server);

  const SpatialInstance instance = Fig1aInstance();
  const auto remote = client.ComputeInvariant(WriteInstanceText(instance));
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();

  const auto local = TopologicalInvariant::Compute(instance);
  ASSERT_TRUE(local.ok());
  EXPECT_EQ(*remote, local->canonical());
}

TEST(ServerTest, BatchKeepsPerItemResultsAligned) {
  TopoDbServer server(ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  TopoDbClient client = ConnectOrDie(server);

  const std::vector<std::string> texts = {
      WriteInstanceText(Fig1aInstance()),
      "region garbage { this is not the text format }",
      WriteInstanceText(NestedInstance()),
  };
  const auto results = client.BatchInvariants(texts);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ASSERT_EQ(results->size(), 3u);

  const auto local_a = TopologicalInvariant::Compute(Fig1aInstance());
  const auto local_c = TopologicalInvariant::Compute(NestedInstance());
  ASSERT_TRUE(local_a.ok() && local_c.ok());
  ASSERT_TRUE((*results)[0].ok());
  EXPECT_EQ((*results)[0].value(), local_a->canonical());
  EXPECT_FALSE((*results)[1].ok());  // The bad item fails alone, in place.
  ASSERT_TRUE((*results)[2].ok());
  EXPECT_EQ((*results)[2].value(), local_c->canonical());
}

TEST(ServerTest, EvalQueryMatchesLocalEngine) {
  TopoDbServer server(ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  TopoDbClient client = ConnectOrDie(server);

  const SpatialInstance instance = Fig1dInstance();
  const std::string text = WriteInstanceText(instance);
  auto engine = QueryEngine::Build(instance);
  ASSERT_TRUE(engine.ok());

  for (const char* query :
       {"exists region r . exists region s . inside(r, s)",
        "forall region r . connect(r, r)",
        "exists region r . forall region s . overlap(r, s)"}) {
    const auto remote = client.EvalQuery(text, query);
    ASSERT_TRUE(remote.ok()) << query << ": " << remote.status().ToString();
    const auto local = engine->Evaluate(query, EvalOptions{});
    ASSERT_TRUE(local.ok());
    EXPECT_EQ(*remote, *local) << query;
  }

  // A malformed sentence fails the request without hurting the session.
  EXPECT_EQ(client.EvalQuery(text, "exists banana . !").status().code(),
            StatusCode::kParseError);
  EXPECT_TRUE(client.Ping().ok());
}

// A query nested past kMaxQueryDepth is a ParseError, and the server
// lives on: unbounded, 10,000 parentheses would overflow a worker's stack
// and kill the process.
TEST(ServerTest, DeeplyNestedQueryIsAParseErrorAndTheServerLivesOn) {
  TopoDbServer server(ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  TopoDbClient client = ConnectOrDie(server);

  const std::string text = WriteInstanceText(Fig1aInstance());
  const std::string atom = "connect(A, B)";
  const std::string deep =
      std::string(10000, '(') + atom + std::string(10000, ')');
  EXPECT_EQ(client.EvalQuery(text, deep).status().code(),
            StatusCode::kParseError);
  EXPECT_TRUE(client.Ping().ok());
  const auto verdict = client.EvalQuery(text, atom);
  ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
  EXPECT_EQ(*verdict, *QueryEngine::Build(Fig1aInstance())->Evaluate(atom));
  EXPECT_TRUE(server.Shutdown().ok());
}

TEST(ServerTest, IsoCheckMatchesTheoremThreeFour) {
  TopoDbServer server(ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  TopoDbClient client = ConnectOrDie(server);

  const std::string fig7a = WriteInstanceText(Fig7aInstance());
  const std::string fig7a_prime = WriteInstanceText(Fig7aPrimeInstance());

  auto same = client.IsoCheck(fig7a, fig7a);
  ASSERT_TRUE(same.ok()) << same.status().ToString();
  EXPECT_TRUE(*same);

  // Fig 7(a) vs 7(a'): the paper's showcase pair — isomorphic graphs but
  // distinct invariants (the mirrored component flips orientation).
  auto different = client.IsoCheck(fig7a, fig7a_prime);
  ASSERT_TRUE(different.ok());
  EXPECT_FALSE(*different);
}

// Malformed frames: recoverable ones (unknown opcode on a well-formed
// header) keep the session; unparseable ones (bad magic) close it — but
// the server itself always survives for new connections.
TEST(ServerTest, UnknownOpcodeIsRecoverable) {
  TopoDbServer server(ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  TopoDbClient client = ConnectOrDie(server);

  // Drive a raw socket beside the library client so we can send bytes the
  // client class would never produce.
  FrameHeader header;
  header.opcode = 42;  // Well-formed header, meaningless opcode.
  header.request_id = 9;
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  const std::string frame = EncodeFrame(header, "");
  ASSERT_EQ(::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(frame.size()));
  // The server answers Unsupported and keeps the session: a subsequent
  // well-formed PING on the same socket succeeds.
  std::string response(kWireHeaderBytes, '\0');
  size_t got = 0;
  while (got < response.size()) {
    const ssize_t n = ::recv(fd, response.data() + got,
                             response.size() - got, 0);
    ASSERT_GT(n, 0);
    got += static_cast<size_t>(n);
  }
  const auto decoded = DecodeFrameHeader(response);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->request_id, 9u);
  // Drain the error payload, then ping on the same connection.
  std::string payload(decoded->payload_len, '\0');
  got = 0;
  while (got < payload.size()) {
    const ssize_t n =
        ::recv(fd, payload.data() + got, payload.size() - got, 0);
    ASSERT_GT(n, 0);
    got += static_cast<size_t>(n);
  }
  const auto error = DecodeResponsePayload(payload);
  ASSERT_TRUE(error.ok());
  EXPECT_EQ(error->status.code(), StatusCode::kUnsupported);

  FrameHeader ping;
  ping.opcode = static_cast<uint16_t>(Opcode::kPing);
  ping.request_id = 10;
  const std::string ping_frame = EncodeFrame(ping, "");
  ASSERT_EQ(::send(fd, ping_frame.data(), ping_frame.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(ping_frame.size()));
  got = 0;
  while (got < response.size()) {
    const ssize_t n = ::recv(fd, response.data() + got,
                             response.size() - got, 0);
    ASSERT_GT(n, 0);
    got += static_cast<size_t>(n);
  }
  const auto pong = DecodeFrameHeader(response);
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(pong->opcode,
            static_cast<uint16_t>(Opcode::kPing) | kWireResponseBit);
  ::close(fd);

  // The library client on its own session was never disturbed.
  EXPECT_TRUE(client.Ping().ok());
}

TEST(ServerTest, GarbageBytesCloseTheSessionButNotTheServer) {
  TopoDbServer server(ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  const std::string garbage(64, 'X');  // No valid magic anywhere.
  ASSERT_EQ(::send(fd, garbage.data(), garbage.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(garbage.size()));
  // The server replies with an error frame and/or closes; either way the
  // connection reaches EOF instead of hanging.
  char buf[256];
  while (::recv(fd, buf, sizeof(buf), 0) > 0) {
  }
  ::close(fd);

  // Fresh sessions still work: the protocol error was contained.
  TopoDbClient client = ConnectOrDie(server);
  EXPECT_TRUE(client.Ping().ok());
}

// The acceptance test for end-to-end deadline propagation: a 1ms budget
// on a pathological EVAL_QUERY dies with DeadlineExceeded over the wire
// while a concurrent cheap request on the same server completes.
TEST(ServerTest, DeadlinePropagatesWhileCheapRequestsComplete) {
  ServerOptions options;
  options.num_workers = 2;  // Both requests must run concurrently.
  TopoDbServer server(options);
  ASSERT_TRUE(server.Start().ok());

  const std::string grid = GridText();

  std::atomic<bool> cheap_ok{false};
  std::thread cheap([&] {
    auto client = TopoDbClient::Connect(server.port());
    if (!client.ok()) return;
    // A cheap query with no budget, issued while the pathological one is
    // (briefly) burning its 1ms.
    const auto verdict =
        client->EvalQuery(WriteInstanceText(Fig1dInstance()),
                          "forall region r . connect(r, r)");
    cheap_ok = verdict.ok();
  });

  TopoDbClient client = ConnectOrDie(server);
  const auto doomed = client.EvalQuery(grid, kPathologicalQuery, 1);
  cheap.join();

  ASSERT_FALSE(doomed.ok());
  EXPECT_EQ(doomed.status().code(), StatusCode::kDeadlineExceeded)
      << doomed.status().ToString();
  EXPECT_TRUE(cheap_ok.load());

  // The budget killed one evaluation, not the server: the same session
  // immediately serves the same query unbudgeted (it terminates via the
  // engine's own enumeration cap, not a deadline).
  const auto unbudgeted = client.EvalQuery(grid, kPathologicalQuery);
  EXPECT_NE(unbudgeted.status().code(), StatusCode::kDeadlineExceeded);

  EXPECT_TRUE(server.Shutdown().ok());
}

// Overload: one worker, queue bound 1, a stream of slow queries. The
// queue fills while the worker grinds, so later arrivals shed with
// kUnavailable — and every request that *was* admitted still gets its
// own answer (OK or an individual DeadlineExceeded).
TEST(ServerTest, OverloadShedsWithUnavailable) {
  ServerOptions options;
  options.num_workers = 1;
  options.max_queue_depth = 1;
  options.drain_timeout = std::chrono::milliseconds(10000);
  TopoDbServer server(options);
  ASSERT_TRUE(server.Start().ok());

  const std::string grid = GridText();

  constexpr int kThreads = 4;
  constexpr int kRequestsPerThread = 3;
  std::atomic<int> answered{0};
  std::atomic<int> shed{0};
  std::atomic<int> unexpected{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      auto client = TopoDbClient::Connect(server.port());
      if (!client.ok()) {
        ++unexpected;
        return;
      }
      for (int r = 0; r < kRequestsPerThread; ++r) {
        // ~250ms of work against a 2s budget: admitted requests finish
        // (possibly DeadlineExceeded under queue wait), shed ones don't.
        const auto verdict = client->EvalQuery(grid, kPathologicalQuery, 2000);
        if (verdict.ok() ||
            verdict.status().code() == StatusCode::kResourceExhausted ||
            verdict.status().code() == StatusCode::kDeadlineExceeded) {
          ++answered;
        } else if (verdict.status().code() == StatusCode::kUnavailable) {
          ++shed;
        } else {
          ++unexpected;
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  // Every request got exactly one terminal outcome...
  EXPECT_EQ(answered + shed, kThreads * kRequestsPerThread);
  EXPECT_EQ(unexpected, 0);
  // ...and with 12 slow requests against capacity 2 (1 worker + 1 queue
  // slot), backpressure must actually have fired.
  EXPECT_GT(shed.load(), 0);

  EXPECT_TRUE(server.Shutdown().ok());
  // The shed counter made it into the registry.
  const auto shed_metric = server.metrics().ExportText();
  EXPECT_NE(shed_metric.find("server.shed"), std::string::npos);
}

// The shed response names the admission pressure that caused it: a
// router or operator reading "queue full (1/1)" knows the backend is
// alive and saturated (backpressure), not dead (failover). The message
// is part of the protocol surface — the shard router keys "overloaded,
// do not reroute" on the fact that this is a server-sent Unavailable.
TEST(ServerTest, ShedMessagePinsQueueContext) {
  ServerOptions options;
  options.num_workers = 1;
  options.max_queue_depth = 1;
  options.drain_timeout = std::chrono::milliseconds(10000);
  TopoDbServer server(options);
  ASSERT_TRUE(server.Start().ok());
  const std::string grid = GridText();

  // Occupy the single worker, then the single queue slot.
  std::thread busy([&] {
    auto c = TopoDbClient::Connect(server.port());
    if (c.ok()) (void)c->EvalQuery(grid, kPathologicalQuery);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  std::thread queued([&] {
    auto c = TopoDbClient::Connect(server.port());
    if (c.ok()) (void)c->EvalQuery(grid, kPathologicalQuery);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(60));

  TopoDbClient client = ConnectOrDie(server);
  const auto shed = client.EvalQuery(grid, kPathologicalQuery);
  ASSERT_EQ(shed.status().code(), StatusCode::kUnavailable)
      << shed.status().ToString();
  EXPECT_EQ(shed.status().message(), "queue full (1/1)");
  // Server-sent, not transport: a router must treat it as backpressure.
  EXPECT_FALSE(TopoDbClient::IsTransportError(shed.status()));

  busy.join();
  queued.join();
  EXPECT_TRUE(server.Shutdown().ok());
}

// The PING body advertises the serving state and admission bounds — the
// one-round-trip health probe the shard router's HealthChecker runs.
TEST(ServerTest, HealthPingReportsServingStateAndQueueBound) {
  ServerOptions options;
  options.max_queue_depth = 7;
  TopoDbServer server(options);
  ASSERT_TRUE(server.Start().ok());
  TopoDbClient client = ConnectOrDie(server);
  const auto pong = client.HealthPing();
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  EXPECT_EQ(pong->state, kPingStateServing);
  EXPECT_EQ(pong->queue_bound, 7u);
  EXPECT_EQ(pong->queue_depth, 0u);
  EXPECT_TRUE(server.Shutdown().ok());
}

// While draining, an existing session can still ask PING and learns the
// server is going away (state = draining) instead of being cut off —
// what lets a health checker distinguish "drain in progress, stop
// routing here" from "dead, failover now".
TEST(ServerTest, DrainingServerAnswersPingWithDrainingState) {
  ServerOptions options;
  options.num_workers = 1;
  options.max_queue_depth = 4;
  options.drain_timeout = std::chrono::milliseconds(10000);
  TopoDbServer server(options);
  ASSERT_TRUE(server.Start().ok());
  const std::string grid = GridText();

  // Pre-connect the observer: drain closes the listener first, so only
  // an existing session can ask.
  TopoDbClient observer = ConnectOrDie(server);

  // Hold the drain window open with slow admitted work.
  std::thread busy([&] {
    auto c = TopoDbClient::Connect(server.port());
    if (c.ok()) (void)c->EvalQuery(grid, kPathologicalQuery);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  std::thread drainer([&] { EXPECT_TRUE(server.Shutdown().ok()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(60));

  const auto pong = observer.HealthPing();
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  EXPECT_EQ(pong->state, kPingStateDraining);

  // Non-PING work is refused while draining — server-sent, not transport.
  const auto refused = observer.EvalQuery(grid, kPathologicalQuery);
  EXPECT_EQ(refused.status().code(), StatusCode::kUnavailable);
  EXPECT_FALSE(TopoDbClient::IsTransportError(refused.status()));

  busy.join();
  drainer.join();
}

// Graceful drain: shutdown races a burst of in-flight slow requests.
// Every admitted request is answered — outcomes are confined to
// {OK/ResourceExhausted, DeadlineExceeded (cancelled straggler),
// Unavailable (refused while draining)}; nothing hangs, nothing gets a
// torn connection or Internal error.
TEST(ServerTest, GracefulDrainAnswersEverything) {
  ServerOptions options;
  options.num_workers = 2;
  options.max_queue_depth = 8;
  options.drain_timeout = std::chrono::milliseconds(50);  // Force cancels.
  TopoDbServer server(options);
  ASSERT_TRUE(server.Start().ok());

  const std::string grid = GridText();

  constexpr int kThreads = 4;
  std::atomic<int> clean{0};
  std::atomic<int> dirty{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      auto client = TopoDbClient::Connect(server.port());
      if (!client.ok()) {
        // Connection refused after the listener closed is a clean outcome
        // for a request that was never sent.
        ++clean;
        return;
      }
      for (int r = 0; r < 2; ++r) {
        const auto verdict = client->EvalQuery(grid, kPathologicalQuery);
        const StatusCode code = verdict.ok() ? StatusCode::kOk
                                             : verdict.status().code();
        switch (code) {
          case StatusCode::kOk:
          case StatusCode::kResourceExhausted:
          case StatusCode::kDeadlineExceeded:
          case StatusCode::kUnavailable:
            ++clean;
            break;
          default:
            ++dirty;
            break;
        }
        if (!verdict.ok() &&
            verdict.status().code() == StatusCode::kUnavailable) {
          return;  // Draining — the session may be closing underneath us.
        }
      }
    });
  }

  // Let the burst land, then shut down while requests are in flight.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_TRUE(server.Shutdown().ok());
  for (auto& t : threads) t.join();

  EXPECT_EQ(dirty.load(), 0);
  EXPECT_GT(clean.load(), 0);
}

std::string TempCatalogDir() {
  std::string tmpl = testing::TempDir() + "topodb_server_cat_XXXXXX";
  EXPECT_NE(mkdtemp(tmpl.data()), nullptr);
  return tmpl;
}

TEST(ServerTest, CatalogServingMatchesTheTextPathByteForByte) {
  const std::string dir = TempCatalogDir();
  MetricsRegistry metrics;  // Shared, as topodb_server --catalog wires it.
  CatalogOptions catalog_options;
  catalog_options.directory = dir;
  catalog_options.metrics = &metrics;
  auto catalog = Catalog::Open(catalog_options);
  ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();

  ServerOptions options;
  options.catalog = catalog->get();
  options.metrics = &metrics;
  TopoDbServer server(options);
  ASSERT_TRUE(server.Start().ok());
  TopoDbClient client = ConnectOrDie(server);

  const std::string text = WriteInstanceText(Fig1aInstance());
  const auto loaded = client.Load("fig1a", text);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_NE(loaded->entry_id, 0u);
  EXPECT_GT(loaded->file_bytes, 0u);

  // LIST and DESCRIBE see the ingested entry.
  const auto listing = client.List();
  ASSERT_TRUE(listing.ok()) << listing.status().ToString();
  ASSERT_EQ(listing->size(), 1u);
  EXPECT_EQ((*listing)[0].name, "fig1a");
  EXPECT_EQ((*listing)[0].entry_id, loaded->entry_id);
  const auto described = client.Describe("fig1a");
  ASSERT_TRUE(described.ok()) << described.status().ToString();
  EXPECT_EQ(described->entry_id, loaded->entry_id);
  EXPECT_EQ(described->num_regions, Fig1aInstance().size());
  const auto invariant = ComputeInvariant(Fig1aInstance());
  ASSERT_TRUE(invariant.ok()) << invariant.status().ToString();
  EXPECT_EQ(described->num_vertices, invariant->vertices.size());
  EXPECT_EQ(described->num_edges, invariant->edges.size());
  EXPECT_EQ(described->num_faces, invariant->faces.size());
  EXPECT_TRUE(described->has_s_invariant);  // Every fig1a region is Rect*.
  EXPECT_GT(described->canonical_bytes, 0u);
  // Fig 7a has triangles, so it has no S-invariant.
  ASSERT_TRUE(client.Load("fig7a", WriteInstanceText(Fig7aInstance())).ok());
  const auto fig7a = client.Describe("fig7a");
  ASSERT_TRUE(fig7a.ok()) << fig7a.status().ToString();
  EXPECT_FALSE(fig7a->has_s_invariant);

  // The acceptance bar: a catalog-name request returns byte-identical
  // results to the inline-text request, for every opcode that takes a
  // reference.
  const auto by_name = client.ComputeInvariant(InstanceRef::Name("fig1a"));
  const auto by_text = client.ComputeInvariant(text);
  ASSERT_TRUE(by_name.ok()) << by_name.status().ToString();
  ASSERT_TRUE(by_text.ok());
  EXPECT_EQ(*by_name, *by_text);

  const auto batch = client.BatchInvariants(std::vector<InstanceRef>{
      InstanceRef::Name("fig1a"), InstanceRef::Text(text)});
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->size(), 2u);
  ASSERT_TRUE((*batch)[0].ok() && (*batch)[1].ok());
  EXPECT_EQ((*batch)[0].value(), (*batch)[1].value());

  const auto eval_name =
      client.EvalQuery(InstanceRef::Name("fig1a"), "connect(A, B)");
  const auto eval_text = client.EvalQuery(text, "connect(A, B)");
  ASSERT_TRUE(eval_name.ok()) << eval_name.status().ToString();
  ASSERT_TRUE(eval_text.ok());
  EXPECT_EQ(*eval_name, *eval_text);

  const auto iso =
      client.IsoCheck(InstanceRef::Name("fig1a"), InstanceRef::Text(text));
  ASSERT_TRUE(iso.ok()) << iso.status().ToString();
  EXPECT_TRUE(*iso);

  // The catalog serving path shows up in the metrics export.
  const auto json = client.Metrics();
  ASSERT_TRUE(json.ok());
  EXPECT_NE(json->find("catalog.hits"), std::string::npos);
  EXPECT_TRUE(server.Shutdown().ok());
}

// `exists name m . ` over a balanced `and` tree of 2^k distinct `n<i> = m`
// leaves (~600 KB of text at k = 15).
std::string WideNameConjunction(int k) {
  std::vector<std::string> level;
  for (int i = 0; i < (1 << k); ++i) {
    level.push_back("n" + std::to_string(i) + " = m");
  }
  while (level.size() > 1) {
    std::vector<std::string> next;
    for (size_t i = 0; i < level.size(); i += 2) {
      next.push_back("(" + level[i] + ") and (" + level[i + 1] + ")");
    }
    level = std::move(next);
  }
  return "exists name m . " + level[0];
}

// EVAL_QUERY on a catalog entry: the query's canonical key is built on
// the serving path. A 2^15-operand chain canonicalizes into a balanced
// tree, so it is answered, and the daemon still answers a ping; a
// name equality over a cell variable is a ParseError, not a verdict that
// depends on evaluation order.
TEST(ServerTest, CatalogEvalAnswersWideChainsAndRejectsIllSortedEquality) {
  const std::string dir = TempCatalogDir();
  CatalogOptions catalog_options;
  catalog_options.directory = dir;
  auto catalog = Catalog::Open(catalog_options);
  ASSERT_TRUE(catalog.ok());
  ServerOptions options;
  options.catalog = catalog->get();
  TopoDbServer server(options);
  ASSERT_TRUE(server.Start().ok());
  TopoDbClient client = ConnectOrDie(server);
  ASSERT_TRUE(client.Load("fig1a", WriteInstanceText(Fig1aInstance())).ok());
  const InstanceRef fig1a = InstanceRef::Name("fig1a");

  const auto wide = client.EvalQuery(fig1a, WideNameConjunction(15));
  ASSERT_TRUE(wide.ok()) << wide.status().ToString();
  EXPECT_FALSE(*wide);
  EXPECT_TRUE(client.Ping().ok());

  const auto ill_sorted =
      client.EvalQuery(fig1a, "(exists cell c . c = A) or true");
  EXPECT_EQ(ill_sorted.status().code(), StatusCode::kParseError);
  EXPECT_TRUE(client.Ping().ok());
  EXPECT_TRUE(server.Shutdown().ok());
}

TEST(ServerTest, UnknownCatalogNameIsUniformNotFoundAcrossOpcodes) {
  const std::string dir = TempCatalogDir();
  CatalogOptions catalog_options;
  catalog_options.directory = dir;
  auto catalog = Catalog::Open(catalog_options);
  ASSERT_TRUE(catalog.ok());
  ServerOptions options;
  options.catalog = catalog->get();
  TopoDbServer server(options);
  ASSERT_TRUE(server.Start().ok());
  TopoDbClient client = ConnectOrDie(server);

  const std::string text = WriteInstanceText(Fig1aInstance());
  const InstanceRef ghost = InstanceRef::Name("ghost");
  auto expect_unknown = [](const Status& status) {
    EXPECT_EQ(status.code(), StatusCode::kNotFound) << status.ToString();
    EXPECT_NE(status.message().find("unknown instance 'ghost'"),
              std::string::npos)
        << status.ToString();
  };
  expect_unknown(client.ComputeInvariant(ghost).status());
  expect_unknown(client.EvalQuery(ghost, "connect(A, B)").status());
  expect_unknown(client.IsoCheck(ghost, InstanceRef::Text(text)).status());
  expect_unknown(client.IsoCheck(InstanceRef::Text(text), ghost).status());
  expect_unknown(client.Describe("ghost").status());
  const auto batch = client.BatchInvariants(
      std::vector<InstanceRef>{ghost, InstanceRef::Text(text)});
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->size(), 2u);
  expect_unknown((*batch)[0].status());
  EXPECT_TRUE((*batch)[1].ok());  // The healthy item still succeeds.
}

TEST(ServerTest, CatalogFreeServerUnifiesNameErrorsAndRefusesLoad) {
  TopoDbServer server(ServerOptions{});  // No catalog configured.
  ASSERT_TRUE(server.Start().ok());
  TopoDbClient client = ConnectOrDie(server);

  // Name lookups fail with the same NotFound shape as a configured-but-
  // missing name, so clients need exactly one error path.
  const auto compute = client.ComputeInvariant(InstanceRef::Name("ghost"));
  ASSERT_FALSE(compute.ok());
  EXPECT_EQ(compute.status().code(), StatusCode::kNotFound);
  EXPECT_NE(compute.status().message().find("unknown instance 'ghost'"),
            std::string::npos);

  const auto loaded = client.Load("x", WriteInstanceText(Fig1aInstance()));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kUnsupported);

  const auto listing = client.List();
  ASSERT_TRUE(listing.ok()) << listing.status().ToString();
  EXPECT_TRUE(listing->empty());
}

TEST(ServerTest, RestartedServerServesTheCatalogWithoutReingest) {
  const std::string dir = TempCatalogDir();
  const std::string text = WriteInstanceText(Fig1aInstance());
  uint64_t entry_id = 0;
  std::string canonical;
  {
    CatalogOptions catalog_options;
    catalog_options.directory = dir;
    auto catalog = Catalog::Open(catalog_options);
    ASSERT_TRUE(catalog.ok());
    ServerOptions options;
    options.catalog = catalog->get();
    TopoDbServer server(options);
    ASSERT_TRUE(server.Start().ok());
    TopoDbClient client = ConnectOrDie(server);
    const auto loaded = client.Load("persist", text);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    entry_id = loaded->entry_id;
    const auto canon = client.ComputeInvariant(InstanceRef::Name("persist"));
    ASSERT_TRUE(canon.ok());
    canonical = *canon;
    ASSERT_TRUE(server.Shutdown().ok());
  }
  // A brand-new catalog + server against the same directory: the entry is
  // served from the mapped store file, no LOAD needed, same bytes.
  CatalogOptions catalog_options;
  catalog_options.directory = dir;
  auto catalog = Catalog::Open(catalog_options);
  ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
  ServerOptions options;
  options.catalog = catalog->get();
  TopoDbServer server(options);
  ASSERT_TRUE(server.Start().ok());
  TopoDbClient client = ConnectOrDie(server);
  const auto described = client.Describe("persist");
  ASSERT_TRUE(described.ok()) << described.status().ToString();
  EXPECT_EQ(described->entry_id, entry_id);
  const auto canon = client.ComputeInvariant(InstanceRef::Name("persist"));
  ASSERT_TRUE(canon.ok());
  EXPECT_EQ(*canon, canonical);
  const auto by_text = client.ComputeInvariant(text);
  ASSERT_TRUE(by_text.ok());
  EXPECT_EQ(*canon, *by_text);
}

TEST(ServerTest, LoadValidatesNamesAndTextOverTheWire) {
  const std::string dir = TempCatalogDir();
  CatalogOptions catalog_options;
  catalog_options.directory = dir;
  auto catalog = Catalog::Open(catalog_options);
  ASSERT_TRUE(catalog.ok());
  ServerOptions options;
  options.catalog = catalog->get();
  TopoDbServer server(options);
  ASSERT_TRUE(server.Start().ok());
  TopoDbClient client = ConnectOrDie(server);

  EXPECT_EQ(client.Load("a/b", "A: (0 0, 1 0, 1 1)\n").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(client.Load("ok", "garbage").status().code(),
            StatusCode::kParseError);
  const auto listing = client.List();
  ASSERT_TRUE(listing.ok());
  EXPECT_TRUE(listing->empty());  // Nothing was persisted.
}

TEST(ServerTest, ReingestInvalidatesSemanticVerdicts) {
  // ingest -> evaluate -> re-ingest (same name, new bytes) -> evaluate:
  // the second verdict must reflect the new instance, not the cached
  // verdict of the old one. Identity is the entry id (payload checksum),
  // so the re-ingest routes around every stale engine and verdict.
  const std::string dir = TempCatalogDir();
  MetricsRegistry metrics;
  CatalogOptions catalog_options;
  catalog_options.directory = dir;
  catalog_options.metrics = &metrics;
  auto catalog = Catalog::Open(catalog_options);
  ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();

  ServerOptions options;
  options.catalog = catalog->get();
  options.metrics = &metrics;
  TopoDbServer server(options);
  ASSERT_TRUE(server.Start().ok());
  TopoDbClient client = ConnectOrDie(server);

  const char* query = "connect(A, B)";
  const SpatialInstance before = Fig1aInstance();
  const SpatialInstance after = DisjointPairInstance();
  // Local ground truth; the fixtures are chosen so the verdict flips.
  QueryEngine engine_before = *QueryEngine::Build(before);
  QueryEngine engine_after = *QueryEngine::Build(after);
  const bool truth_before = *engine_before.Evaluate(query);
  const bool truth_after = *engine_after.Evaluate(query);
  ASSERT_NE(truth_before, truth_after);

  ASSERT_TRUE(client.Load("subject", WriteInstanceText(before)).ok());
  // Twice, so the second answer is served from the semantic cache.
  for (int i = 0; i < 2; ++i) {
    const auto verdict = client.EvalQuery(InstanceRef::Name("subject"), query);
    ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
    EXPECT_EQ(*verdict, truth_before);
  }

  ASSERT_TRUE(client.Load("subject", WriteInstanceText(after)).ok());
  const auto verdict = client.EvalQuery(InstanceRef::Name("subject"), query);
  ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
  EXPECT_EQ(*verdict, truth_after);

  // The warm repeat hit the cache, and the serving path exports the
  // semcache counters.
  EXPECT_GE(metrics.counter("semcache.hits")->value(), 1u);
  EXPECT_GE(metrics.counter("semcache.misses")->value(), 2u);
  const auto json = client.Metrics();
  ASSERT_TRUE(json.ok());
  EXPECT_NE(json->find("semcache.hits"), std::string::npos);
  EXPECT_NE(json->find("enginecache.hits"), std::string::npos);
  EXPECT_NE(json->find("planner.plans"), std::string::npos);
  EXPECT_TRUE(server.Shutdown().ok());
}

TEST(ServerTest, EquivalentQuerySpellingsShareOneServerCacheEntry) {
  const std::string dir = TempCatalogDir();
  MetricsRegistry metrics;
  CatalogOptions catalog_options;
  catalog_options.directory = dir;
  auto catalog = Catalog::Open(catalog_options);
  ASSERT_TRUE(catalog.ok());

  ServerOptions options;
  options.catalog = catalog->get();
  options.metrics = &metrics;
  TopoDbServer server(options);
  ASSERT_TRUE(server.Start().ok());
  TopoDbClient client = ConnectOrDie(server);
  ASSERT_TRUE(
      client.Load("fig1a", WriteInstanceText(Fig1aInstance())).ok());

  // Distinct spellings, one canonical form: only the first evaluates.
  const char* spellings[] = {
      "connect(A, B) and connect(A, C)",
      "connect(C, A) and connect(B, A)",
      "not (connect(A, B) implies not connect(A, C))",
  };
  std::optional<bool> first;
  for (const char* spelling : spellings) {
    const auto verdict =
        client.EvalQuery(InstanceRef::Name("fig1a"), spelling);
    ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
    if (!first) first = *verdict;
    EXPECT_EQ(*verdict, *first) << spelling;
  }
  EXPECT_EQ(metrics.counter("semcache.misses")->value(), 1u);
  EXPECT_EQ(metrics.counter("semcache.hits")->value(), 2u);
  EXPECT_TRUE(server.Shutdown().ok());
}

TEST(ServerTest, UnknownNamesStayNotFoundAfterAFoldedVerdictIsCached) {
  // Each query folds to a bare literal under canonicalization, the
  // semantic cache's key. A cached verdict for that literal must not
  // answer it: the name check runs before the key is built.
  const std::string dir = TempCatalogDir();
  MetricsRegistry metrics;
  CatalogOptions catalog_options;
  catalog_options.directory = dir;
  auto catalog = Catalog::Open(catalog_options);
  ASSERT_TRUE(catalog.ok());

  ServerOptions options;
  options.catalog = catalog->get();
  options.metrics = &metrics;
  TopoDbServer server(options);
  ASSERT_TRUE(server.Start().ok());
  TopoDbClient client = ConnectOrDie(server);
  ASSERT_TRUE(
      client.Load("fig1a", WriteInstanceText(Fig1aInstance())).ok());
  const InstanceRef fig1a = InstanceRef::Name("fig1a");

  const std::pair<const char*, const char*> cases[] = {
      {"connect(Z, Z) and false", "false"},
      {"subset(Nope, A) or not subset(Nope, A)", "true"},
  };
  for (const auto& [query, literal] : cases) {
    EXPECT_EQ(client.EvalQuery(fig1a, query).status().code(),
              StatusCode::kNotFound)
        << query << " (cold)";
    const auto warm = client.EvalQuery(fig1a, literal);
    ASSERT_TRUE(warm.ok()) << warm.status().ToString();
    EXPECT_EQ(client.EvalQuery(fig1a, query).status().code(),
              StatusCode::kNotFound)
        << query << " (after " << literal << " was cached)";
  }
  EXPECT_EQ(metrics.counter("semcache.hits")->value(), 0u);
  EXPECT_TRUE(server.Shutdown().ok());
}

TEST(ServerTest, ShutdownIsIdempotentAndStartValidatesOptions) {
  TopoDbServer server(ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  EXPECT_TRUE(server.Shutdown().ok());
  EXPECT_TRUE(server.Shutdown().ok());  // Second call is a no-op.

  ServerOptions bad;
  bad.num_workers = -3;
  TopoDbServer invalid(bad);
  EXPECT_EQ(invalid.Start().code(), StatusCode::kInvalidArgument);

  ServerOptions zero_queue;
  zero_queue.max_queue_depth = 0;
  TopoDbServer no_queue(zero_queue);
  EXPECT_EQ(no_queue.Start().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace topodb
