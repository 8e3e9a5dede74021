// RTIC server: protocol hardening, session lifecycle, multi-client
// determinism, and admission control.
//
// The wire-format tests mirror replication_test.cc's damage style (every
// byte flipped, every truncation) across all eleven RTICSRV1 frame types.
// The concurrency test checks the server's core promise: N clients
// interleaving on one tenant produce verdicts byte-identical to applying
// the same batches serially through the library. The admission test uses a
// gate file system (Sync blocks on a condition variable) to hold the
// tenant worker mid-apply deterministically — no sleeps deciding outcomes.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "monitor/monitor.h"
#include "replication/tcp_transport.h"
#include "replication/transport.h"
#include "server/client.h"
#include "server/server.h"
#include "server/server_format.h"
#include "storage/codec.h"
#include "tests/test_util.h"
#include "wal/file.h"

namespace rtic {
namespace {

using replication::TcpConnect;
using replication::Transport;
using server::DecodeError;
using server::DecodeSchemaPayload;
using server::DecodeStatsPayload;
using server::DecodeVerdictPayload;
using server::EncodeApplyBatch;
using server::EncodeCreateTable;
using server::EncodeGetStats;
using server::EncodeHello;
using server::EncodeMessage;
using server::EncodeRegisterConstraint;
using server::EncodeSchemaPayload;
using server::EncodeStatsPayload;
using server::EncodeVerdictPayload;
using server::Message;
using server::MessageType;
using server::ParseMessage;
using server::RticClient;
using server::RticServer;
using server::ServerOptions;
using server::StatsReply;
using server::Verdict;
using testing::I;
using testing::IntSchema;
using testing::T;
using testing::Unwrap;

std::string MakeTempDir() {
  char tmpl[] = "/tmp/rtic_server_XXXXXX";
  char* dir = mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return dir == nullptr ? std::string() : std::string(dir);
}

std::string Render(const std::vector<Violation>& violations) {
  std::string out;
  for (const Violation& v : violations) out += v.ToString() + "\n";
  return out;
}

// The running example: employees whose salary must never drop.
constexpr char kNoPayCut[] =
    "forall e, s, s0: Emp(e, s) and previous Emp(e, s0) implies s >= s0";

Status SetUpPayroll(RticClient* client) {
  RTIC_RETURN_IF_ERROR(client->CreateTable("Emp", IntSchema({"e", "s"})));
  return client->RegisterConstraint("no_pay_cut", kNoPayCut);
}

UpdateBatch EmpBatch(std::int64_t employee, std::int64_t salary,
                     Timestamp ts = 0) {
  UpdateBatch batch(ts);
  batch.Insert("Emp", T(I(employee), I(salary)));
  return batch;
}

// -- wire format ------------------------------------------------------------

TEST(ServerFormatTest, MessagesRoundTrip) {
  Message hello = Unwrap(ParseMessage(EncodeHello("acme")));
  EXPECT_EQ(hello.type, MessageType::kHello);
  EXPECT_EQ(hello.name, "acme");
  EXPECT_EQ(hello.version, server::kServerProtocolVersion);

  Message create = Unwrap(
      ParseMessage(EncodeCreateTable("Emp", IntSchema({"e", "s"}))));
  EXPECT_EQ(create.type, MessageType::kCreateTable);
  EXPECT_EQ(create.name, "Emp");
  Schema schema = Unwrap(DecodeSchemaPayload(create.body));
  EXPECT_EQ(schema, IntSchema({"e", "s"}));

  Message apply = Unwrap(ParseMessage(EncodeApplyBatch(EmpBatch(1, 50, 7))));
  EXPECT_EQ(apply.type, MessageType::kApplyBatch);
  StateReader r(apply.body);
  UpdateBatch batch = Unwrap(UpdateBatch::DecodeFrom(&r));
  EXPECT_EQ(batch.timestamp(), 7);
  EXPECT_EQ(batch.OperationCount(), 1u);

  Message over = Unwrap(ParseMessage(server::EncodeOverloaded(16)));
  EXPECT_EQ(over.type, MessageType::kOverloaded);
  EXPECT_EQ(over.arg, 16u);

  Message error = Unwrap(
      ParseMessage(server::EncodeError(Status::NotFound("no such table"))));
  Status decoded = DecodeError(error);
  EXPECT_EQ(decoded.code(), StatusCode::kNotFound);
  EXPECT_EQ(decoded.message(), "no such table");
}

// One representative frame per RTICSRV1 type; every single-bit damage and
// every truncation must be rejected by the parser.
TEST(ServerFormatTest, EveryBitFlipAndTruncationIsRejectedPerType) {
  Violation violation;
  violation.constraint_name = "c";
  violation.timestamp = 3;
  violation.witness_columns = {"e"};
  violation.witnesses = {T(I(9))};

  ConstraintMonitor monitor;
  RTIC_ASSERT_OK(monitor.CreateTable("Emp", IntSchema({"e", "s"})));

  const std::vector<std::string> frames = {
      EncodeHello("acme"),
      EncodeCreateTable("Emp", IntSchema({"e", "s"})),
      EncodeRegisterConstraint("no_pay_cut", kNoPayCut),
      EncodeApplyBatch(EmpBatch(1, 50, 7)),
      EncodeGetStats(),
      server::EncodeHelloOk(64),
      server::EncodeOk(),
      server::EncodeVerdict(7, {violation}),
      server::EncodeStatsReply(monitor),
      server::EncodeError(Status::NotFound("x")),
      server::EncodeOverloaded(16),
  };
  ASSERT_EQ(frames.size(), 11u);  // one per MessageType

  for (std::size_t f = 0; f < frames.size(); ++f) {
    const std::string& frame = frames[f];
    for (std::size_t byte = 0; byte < frame.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string damaged = frame;
        damaged[byte] = static_cast<char>(damaged[byte] ^ (1 << bit));
        EXPECT_FALSE(ParseMessage(damaged).ok())
            << "frame " << f << " flip bit " << bit << " of byte " << byte;
      }
    }
    for (std::size_t len = 0; len < frame.size(); ++len) {
      EXPECT_FALSE(ParseMessage(std::string_view(frame).substr(0, len)).ok())
          << "frame " << f << " truncated to " << len;
    }
    EXPECT_FALSE(ParseMessage(frame + "x").ok()) << "frame " << f
                                                 << " trailing byte";
  }
}

TEST(ServerFormatTest, UnknownTypeRejectedUnknownVersionParses) {
  Message bad;
  bad.type = static_cast<MessageType>(12);
  EXPECT_FALSE(ParseMessage(EncodeMessage(bad)).ok());

  // A future version parses (the layout is fixed); the session layer is
  // responsible for refusing it — see VersionMismatchRefusedAtSessionStart.
  Message v2;
  v2.version = 2;
  v2.type = MessageType::kHello;
  v2.name = "acme";
  Message parsed = Unwrap(ParseMessage(EncodeMessage(v2)));
  EXPECT_EQ(parsed.version, 2);
}

TEST(ServerFormatTest, PayloadCodecsRoundTripAndRejectDamage) {
  // Verdict: two violations, one with witnesses.
  Violation a;
  a.constraint_name = "no_pay_cut";
  a.timestamp = 5;
  a.witness_columns = {"e", "s", "s0"};
  a.witnesses = {T(I(1), I(40), I(50)), T(I(2), I(30), I(60))};
  Violation b;
  b.constraint_name = "other";
  b.timestamp = 5;
  std::string payload = EncodeVerdictPayload(5, {a, b});
  Verdict verdict = Unwrap(DecodeVerdictPayload(payload));
  EXPECT_EQ(verdict.timestamp, 5);
  ASSERT_EQ(verdict.violations.size(), 2u);
  EXPECT_EQ(verdict.violations[0].ToString(), a.ToString());
  EXPECT_EQ(verdict.violations[1].ToString(), b.ToString());
  EXPECT_FALSE(DecodeVerdictPayload(payload + " junk").ok());
  EXPECT_FALSE(DecodeVerdictPayload(payload.substr(0, 10)).ok());

  // Stats.
  StatsReply stats;
  stats.transition_count = 12;
  stats.current_time = 99;
  stats.total_violations = 3;
  stats.constraints.push_back({"no_pay_cut", 12, 3, 7, 4, 6, 9});
  StatsReply round = Unwrap(DecodeStatsPayload(EncodeStatsPayload(stats)));
  EXPECT_EQ(round.transition_count, 12u);
  EXPECT_EQ(round.current_time, 99);
  EXPECT_EQ(round.total_violations, 3u);
  ASSERT_EQ(round.constraints.size(), 1u);
  EXPECT_EQ(round.constraints[0].name, "no_pay_cut");
  EXPECT_EQ(round.constraints[0].storage_rows, 7u);
  EXPECT_EQ(round.constraints[0].aux_valuations, 4u);
  EXPECT_EQ(round.constraints[0].aux_anchors, 6u);
  EXPECT_EQ(round.constraints[0].domain_values, 9u);

  // Schema: bad column type rejected.
  StateWriter w;
  w.WriteSize(1);
  w.WriteString("c");
  w.WriteInt(17);
  EXPECT_FALSE(DecodeSchemaPayload(w.str()).ok());
}

// -- session lifecycle ------------------------------------------------------

TEST(ServerSessionTest, StartOnBoundPortFailsCleanly) {
  auto server = Unwrap(RticServer::Start(ServerOptions{}));
  ServerOptions taken;
  taken.port = server->port();
  // Listen fails on the occupied port and the partially-constructed server
  // is destroyed before listener_ was ever set; that teardown must produce
  // an error Result, not a crash.
  Result<std::unique_ptr<RticServer>> second = RticServer::Start(taken);
  EXPECT_FALSE(second.ok());
  server->Stop();
}

TEST(ServerSessionTest, HandshakeRequestsAndServerAssignedTimestamps) {
  auto server = Unwrap(RticServer::Start(ServerOptions{}));
  auto client = Unwrap(RticClient::Connect(server->address(), "acme"));
  EXPECT_EQ(client->queue_capacity(), 64u);
  RTIC_ASSERT_OK(SetUpPayroll(client.get()));

  // Timestamp 0 asks the server to assign current_time + 1.
  RticClient::ApplyResult first = Unwrap(client->Apply(EmpBatch(1, 50)));
  EXPECT_FALSE(first.overloaded);
  EXPECT_EQ(first.timestamp, 1);
  EXPECT_TRUE(first.violations.empty());

  // A pay cut at the assigned time 2 must be reported with witnesses.
  RticClient::ApplyResult cut = Unwrap(client->Apply(EmpBatch(1, 40)));
  EXPECT_EQ(cut.timestamp, 2);
  ASSERT_EQ(cut.violations.size(), 1u);
  EXPECT_EQ(cut.violations[0].constraint_name, "no_pay_cut");
  EXPECT_EQ(cut.violations[0].timestamp, 2);

  // Explicit timestamps still work and the clock follows them. Rows
  // accumulate, so the t=2 pay cut stays violated at this state too.
  RticClient::ApplyResult jump = Unwrap(client->Apply(EmpBatch(2, 70, 10)));
  EXPECT_EQ(jump.timestamp, 10);

  StatsReply stats = Unwrap(client->GetStats());
  EXPECT_EQ(stats.transition_count, 3u);
  EXPECT_EQ(stats.current_time, 10);
  EXPECT_EQ(stats.total_violations, 2u);
  ASSERT_EQ(stats.constraints.size(), 1u);
  EXPECT_EQ(stats.constraints[0].name, "no_pay_cut");
  EXPECT_EQ(stats.constraints[0].violations, 2u);

  client->Close();
  server->Stop();
}

// Every constraint's active-domain size reaches the stats reply and
// matches the library's: the incremental constraint tracks the values it
// has seen, the domain-free response constraint keeps none.
TEST(ServerSessionTest, StatsReplyCarriesDomainValues) {
  auto server = Unwrap(RticServer::Start(ServerOptions{}));
  auto client = Unwrap(RticClient::Connect(server->address(), "acme"));
  ConstraintMonitor library;
  constexpr char kAcked[] =
      "forall a: Raise(a) implies eventually[0, 10] Ack(a)";
  RTIC_ASSERT_OK(SetUpPayroll(client.get()));
  RTIC_ASSERT_OK(client->CreateTable("Raise", IntSchema({"a"})));
  RTIC_ASSERT_OK(client->CreateTable("Ack", IntSchema({"a"})));
  RTIC_ASSERT_OK(client->RegisterConstraint("acked", kAcked));
  RTIC_ASSERT_OK(library.CreateTable("Emp", IntSchema({"e", "s"})));
  RTIC_ASSERT_OK(library.CreateTable("Raise", IntSchema({"a"})));
  RTIC_ASSERT_OK(library.CreateTable("Ack", IntSchema({"a"})));
  RTIC_ASSERT_OK(library.RegisterConstraint("no_pay_cut", kNoPayCut));
  RTIC_ASSERT_OK(library.RegisterConstraint("acked", kAcked));

  std::vector<UpdateBatch> batches = {EmpBatch(1, 50, 1), EmpBatch(2, 70, 2)};
  UpdateBatch raise(3);
  raise.Insert("Raise", T(I(9)));
  batches.push_back(raise);
  for (const UpdateBatch& batch : batches) {
    (void)Unwrap(client->Apply(batch));
    (void)Unwrap(library.ApplyUpdate(batch));
  }

  StatsReply stats = Unwrap(client->GetStats());
  const std::vector<ConstraintStats> want = library.Stats();
  ASSERT_EQ(stats.constraints.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(stats.constraints[i].domain_values, want[i].domain_values)
        << want[i].name;
  }
  EXPECT_EQ(want[0].domain_values, 5u);  // 1, 2, 9, 50, 70
  EXPECT_EQ(want[1].domain_values, 0u);
  client->Close();
  server->Stop();
}

/// A raw loopback socket connected to `port` (-1 on failure).
int ConnectLoopback(std::uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  struct sockaddr_in addr;
  memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// A length prefix announcing 4 GiB is refused as soon as its four bytes
// arrive: the receiver neither waits for nor buffers the announced bytes,
// and the server hangs up on that session only.
TEST(ServerSessionTest, OversizedLengthPrefixIsRefusedAtThePrefix) {
  const std::string oversized("\xff\xff\xff\xff" "abcd", 8);

  auto listener = Unwrap(replication::TcpListener::Listen(0));
  int peer = ConnectLoopback(listener->port());
  ASSERT_GE(peer, 0);
  std::unique_ptr<Transport> endpoint = Unwrap(listener->Accept());
  ASSERT_EQ(::send(peer, oversized.data(), oversized.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(oversized.size()));
  std::string frame;
  Result<bool> got = endpoint->Recv(&frame);  // would block without the cap
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(frame.empty());
  EXPECT_FALSE(endpoint->Recv(&frame).ok()) << "the stream must stay closed";
  ::close(peer);

  auto server = Unwrap(RticServer::Start(ServerOptions{}));
  auto healthy = Unwrap(RticClient::Connect(server->address(), "acme"));
  RTIC_ASSERT_OK(SetUpPayroll(healthy.get()));
  int rogue = ConnectLoopback(server->port());
  ASSERT_GE(rogue, 0);
  ASSERT_EQ(::send(rogue, oversized.data(), oversized.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(oversized.size()));
  struct pollfd pfd = {rogue, POLLIN, 0};
  ASSERT_EQ(::poll(&pfd, 1, /*timeout_ms=*/10000), 1)
      << "the server is still waiting on the announced bytes";
  char byte;
  EXPECT_LE(::recv(rogue, &byte, 1, 0), 0) << "the server must hang up";
  ::close(rogue);

  RticClient::ApplyResult applied = Unwrap(healthy->Apply(EmpBatch(1, 50)));
  EXPECT_EQ(applied.timestamp, 1);
  server->Stop();
}

TEST(ServerSessionTest, VersionMismatchRefusedAtSessionStart) {
  auto server = Unwrap(RticServer::Start(ServerOptions{}));
  auto transport = Unwrap(TcpConnect(server->address()));

  Message hello;
  hello.version = 2;
  hello.type = MessageType::kHello;
  hello.name = "acme";
  RTIC_ASSERT_OK(transport->Send(EncodeMessage(hello)));

  std::string bytes;
  ASSERT_TRUE(Unwrap(transport->Recv(&bytes)));
  Message reply = Unwrap(ParseMessage(bytes));
  ASSERT_EQ(reply.type, MessageType::kError);
  Status refused = DecodeError(reply);
  EXPECT_EQ(refused.code(), StatusCode::kFailedPrecondition);
  // The refusal names both the offered and the spoken version.
  EXPECT_NE(refused.message().find("version 2"), std::string::npos)
      << refused.message();
  EXPECT_NE(refused.message().find("version 1"), std::string::npos)
      << refused.message();

  // The refusal is fatal: the server hangs up.
  EXPECT_FALSE(Unwrap(transport->Recv(&bytes)));
  server->Stop();
}

TEST(ServerSessionTest, RequestLevelErrorsLeaveTheSessionOpen) {
  auto server = Unwrap(RticServer::Start(ServerOptions{}));
  auto client = Unwrap(RticClient::Connect(server->address(), "acme"));
  RTIC_ASSERT_OK(SetUpPayroll(client.get()));
  (void)Unwrap(client->Apply(EmpBatch(1, 50, 5)));

  // Stale timestamp: refused, but the session keeps working.
  EXPECT_FALSE(client->Apply(EmpBatch(1, 60, 3)).ok());
  // Unknown table: same.
  UpdateBatch bad;
  bad.Insert("Nope", T(I(1)));
  EXPECT_FALSE(client->Apply(bad).ok());
  // Duplicate table: same.
  EXPECT_FALSE(client->CreateTable("Emp", IntSchema({"x"})).ok());

  RticClient::ApplyResult after = Unwrap(client->Apply(EmpBatch(1, 60)));
  EXPECT_EQ(after.timestamp, 6);
  StatsReply stats = Unwrap(client->GetStats());
  EXPECT_EQ(stats.transition_count, 2u);
  server->Stop();
}

TEST(ServerSessionTest, GarbageFrameIsFatalOnlyToItsOwnSession) {
  auto server = Unwrap(RticServer::Start(ServerOptions{}));
  auto healthy = Unwrap(RticClient::Connect(server->address(), "acme"));
  RTIC_ASSERT_OK(SetUpPayroll(healthy.get()));

  auto rogue = Unwrap(TcpConnect(server->address()));
  RTIC_ASSERT_OK(rogue->Send(EncodeHello("acme")));
  std::string bytes;
  ASSERT_TRUE(Unwrap(rogue->Recv(&bytes)));  // hello-ok
  RTIC_ASSERT_OK(rogue->Send("this is not an RTICSRV1 frame"));
  ASSERT_TRUE(Unwrap(rogue->Recv(&bytes)));
  Message reply = Unwrap(ParseMessage(bytes));
  EXPECT_EQ(reply.type, MessageType::kError);
  EXPECT_FALSE(Unwrap(rogue->Recv(&bytes)));  // server hung up on rogue

  // The healthy session on the same tenant is untouched.
  RticClient::ApplyResult applied = Unwrap(healthy->Apply(EmpBatch(1, 50)));
  EXPECT_EQ(applied.timestamp, 1);
  server->Stop();
}

// A client killed mid-frame (its last length prefix promises more bytes
// than ever arrive) poisons only its own session: the partial frame is
// dropped, nothing is applied, and other sessions continue.
TEST(ServerSessionTest, ClientKilledMidFramePoisonsOnlyItsOwnSession) {
  auto server = Unwrap(RticServer::Start(ServerOptions{}));
  auto healthy = Unwrap(RticClient::Connect(server->address(), "acme"));
  RTIC_ASSERT_OK(SetUpPayroll(healthy.get()));
  (void)Unwrap(healthy->Apply(EmpBatch(1, 50)));

  // Hand-rolled socket so we can die mid-message.
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  struct sockaddr_in addr;
  memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(server->port());
  ASSERT_EQ(::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  auto send_all = [fd](const std::string& data) {
    std::size_t done = 0;
    while (done < data.size()) {
      ssize_t w = ::send(fd, data.data() + done, data.size() - done,
                         MSG_NOSIGNAL);
      ASSERT_GT(w, 0);
      done += static_cast<std::size_t>(w);
    }
  };
  auto with_prefix = [](const std::string& frame) {
    std::string out;
    std::uint32_t n = static_cast<std::uint32_t>(frame.size());
    for (int i = 0; i < 4; ++i) {
      out.push_back(static_cast<char>((n >> (8 * i)) & 0xff));
    }
    return out + frame;
  };
  send_all(with_prefix(EncodeHello("acme")));
  // Read the hello-ok (4-byte size, then the frame) so the apply that
  // follows is unambiguously mid-stream.
  std::string reply_bytes(4, '\0');
  std::size_t got = 0;
  while (got < 4) {
    ssize_t r = ::recv(fd, reply_bytes.data() + got, 4 - got, 0);
    ASSERT_GT(r, 0);
    got += static_cast<std::size_t>(r);
  }
  std::uint32_t reply_len = 0;
  for (int i = 0; i < 4; ++i) {
    reply_len |= static_cast<std::uint32_t>(
                     static_cast<unsigned char>(reply_bytes[i]))
                 << (8 * i);
  }
  std::string reply(reply_len, '\0');
  got = 0;
  while (got < reply_len) {
    ssize_t r = ::recv(fd, reply.data() + got, reply_len - got, 0);
    ASSERT_GT(r, 0);
    got += static_cast<std::size_t>(r);
  }
  EXPECT_EQ(Unwrap(ParseMessage(reply)).type, MessageType::kHelloOk);

  // Send only a prefix of an apply frame, then die.
  std::string apply = with_prefix(EncodeApplyBatch(EmpBatch(1, 1)));
  send_all(apply.substr(0, apply.size() / 2));
  ::close(fd);

  // The healthy session keeps working and the torn apply never landed.
  RticClient::ApplyResult applied = Unwrap(healthy->Apply(EmpBatch(1, 60)));
  EXPECT_EQ(applied.timestamp, 2);
  StatsReply stats = Unwrap(healthy->GetStats());
  EXPECT_EQ(stats.transition_count, 2u);
  server->Stop();
}

TEST(ServerSessionTest, TenantsAreIsolated) {
  auto server = Unwrap(RticServer::Start(ServerOptions{}));
  auto acme = Unwrap(RticClient::Connect(server->address(), "acme"));
  auto globex = Unwrap(RticClient::Connect(server->address(), "globex"));
  RTIC_ASSERT_OK(SetUpPayroll(acme.get()));

  // globex has no Emp table and no history of its own.
  EXPECT_FALSE(globex->Apply(EmpBatch(1, 50)).ok());
  RTIC_ASSERT_OK(globex->CreateTable("Emp", IntSchema({"e", "s"})));
  (void)Unwrap(acme->Apply(EmpBatch(1, 50)));
  (void)Unwrap(acme->Apply(EmpBatch(1, 40)));  // acme violation

  StatsReply acme_stats = Unwrap(acme->GetStats());
  StatsReply globex_stats = Unwrap(globex->GetStats());
  EXPECT_EQ(acme_stats.transition_count, 2u);
  EXPECT_EQ(acme_stats.total_violations, 1u);
  EXPECT_EQ(globex_stats.transition_count, 0u);
  EXPECT_EQ(globex_stats.total_violations, 0u);
  EXPECT_TRUE(globex_stats.constraints.empty());

  // Bad tenant names are refused at hello.
  EXPECT_FALSE(RticClient::Connect(server->address(), "../etc").ok());
  EXPECT_FALSE(RticClient::Connect(server->address(), "").ok());
  server->Stop();
}

TEST(ServerSessionTest, StopWithLiveSessionsShutsDownCleanly) {
  auto server = Unwrap(RticServer::Start(ServerOptions{}));
  auto client = Unwrap(RticClient::Connect(server->address(), "acme"));
  RTIC_ASSERT_OK(SetUpPayroll(client.get()));
  (void)Unwrap(client->Apply(EmpBatch(1, 50)));

  server->Stop();  // client still connected and idle

  // The torn-down session surfaces as an error, not a hang.
  EXPECT_FALSE(client->Apply(EmpBatch(1, 60)).ok());
  // New connections are refused (connection refused or immediate close).
  auto late = RticClient::Connect(server->address(), "acme");
  EXPECT_FALSE(late.ok());
}

// -- multi-client determinism -----------------------------------------------

// N clients interleave batches on one tenant with server-assigned
// timestamps. Collecting every (assigned timestamp, batch, rendered
// verdict) and replaying the batches serially through the library in
// timestamp order must reproduce each verdict byte for byte.
TEST(ServerConcurrencyTest, ConcurrentClientsMatchSerialLibraryByteForByte) {
  constexpr int kClients = 6;
  constexpr int kBatchesPerClient = 8;

  auto server = Unwrap(RticServer::Start(ServerOptions{}));
  {
    auto setup = Unwrap(RticClient::Connect(server->address(), "acme"));
    RTIC_ASSERT_OK(SetUpPayroll(setup.get()));
  }

  struct Applied {
    Timestamp timestamp;
    UpdateBatch batch;
    std::string rendered;
  };
  std::vector<std::vector<Applied>> per_client(kClients);
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([c, &server, &per_client] {
      auto client = Unwrap(RticClient::Connect(server->address(), "acme"));
      for (int j = 0; j < kBatchesPerClient; ++j) {
        // Salaries drift down so pay-cut violations actually occur.
        UpdateBatch batch = EmpBatch(c, 100 - j * 3);
        RticClient::ApplyResult applied = Unwrap(client->Apply(batch));
        ASSERT_FALSE(applied.overloaded);  // queue is deeper than 6 clients
        batch.set_timestamp(applied.timestamp);
        per_client[c].push_back(
            Applied{applied.timestamp, batch, Render(applied.violations)});
      }
    });
  }
  for (std::thread& t : threads) t.join();
  server->Stop();

  // Assigned timestamps must be exactly 1..N*M, each used once.
  std::vector<Applied> all;
  for (auto& v : per_client) {
    for (Applied& a : v) all.push_back(std::move(a));
  }
  std::sort(all.begin(), all.end(),
            [](const Applied& x, const Applied& y) {
              return x.timestamp < y.timestamp;
            });
  ASSERT_EQ(all.size(),
            static_cast<std::size_t>(kClients * kBatchesPerClient));
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i].timestamp, static_cast<Timestamp>(i + 1));
  }

  // Serial replay through the library.
  ConstraintMonitor serial;
  RTIC_ASSERT_OK(serial.CreateTable("Emp", IntSchema({"e", "s"})));
  RTIC_ASSERT_OK(serial.RegisterConstraint("no_pay_cut", kNoPayCut));
  for (const Applied& a : all) {
    std::vector<Violation> violations = Unwrap(serial.ApplyUpdate(a.batch));
    EXPECT_EQ(Render(violations), a.rendered)
        << "divergence at timestamp " << a.timestamp;
  }
}

// -- admission control ------------------------------------------------------

// A file system whose Sync() blocks while the gate is closed. Closing the
// gate freezes the tenant worker inside its current durable apply, so the
// test controls exactly when the queue backs up and when it drains.
class GateFs final : public wal::Fs {
 public:
  explicit GateFs(wal::Fs* base) : base_(base) {}

  void CloseGate() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = false;
  }

  void OpenGate() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }

  int waiters() const {
    std::lock_guard<std::mutex> lock(mu_);
    return waiters_;
  }

  Result<std::unique_ptr<wal::WritableFile>> NewWritableFile(
      const std::string& path, bool truncate) override {
    auto file = base_->NewWritableFile(path, truncate);
    if (!file.ok()) return file.status();
    return std::unique_ptr<wal::WritableFile>(
        new GateFile(std::move(file).value(), this));
  }
  Result<std::string> ReadFile(const std::string& path) override {
    return base_->ReadFile(path);
  }
  Result<std::vector<std::string>> ListDir(const std::string& dir) override {
    return base_->ListDir(dir);
  }
  Status CreateDir(const std::string& dir) override {
    return base_->CreateDir(dir);
  }
  Status Rename(const std::string& from, const std::string& to) override {
    return base_->Rename(from, to);
  }
  Status Remove(const std::string& path) override {
    return base_->Remove(path);
  }
  Status SyncDir(const std::string& dir) override {
    return base_->SyncDir(dir);
  }
  Status Truncate(const std::string& path, std::uint64_t size) override {
    return base_->Truncate(path, size);
  }
  Result<bool> FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }

 private:
  class GateFile final : public wal::WritableFile {
   public:
    GateFile(std::unique_ptr<wal::WritableFile> base, GateFs* fs)
        : base_(std::move(base)), fs_(fs) {}
    Status Append(std::string_view data) override {
      return base_->Append(data);
    }
    Status Flush() override { return base_->Flush(); }
    Status Sync() override {
      fs_->WaitThroughGate();
      return base_->Sync();
    }
    Status Close() override { return base_->Close(); }

   private:
    std::unique_ptr<wal::WritableFile> base_;
    GateFs* fs_;
  };

  void WaitThroughGate() {
    std::unique_lock<std::mutex> lock(mu_);
    ++waiters_;
    cv_.wait(lock, [this] { return open_; });
    --waiters_;
  }

  wal::Fs* base_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = true;    // guarded by mu_
  int waiters_ = 0;     // guarded by mu_
};

// Deterministic overload: hold the worker mid-apply behind the gate, fill
// the tiny queue, and every further batch is refused with OVERLOADED while
// every accepted batch's verdict is eventually delivered.
TEST(ServerAdmissionTest, OverloadIsDeterministicAndAcceptedWorkDrains) {
  GateFs gate(wal::DefaultFs());
  ServerOptions options;
  options.queue_capacity = 2;
  options.monitor_options.wal_dir = MakeTempDir();
  options.monitor_options.wal_fs = &gate;
  options.monitor_options.sync_policy = wal::SyncPolicy::kAlways;
  options.monitor_options.checkpoint_interval = 0;  // only appends sync
  auto server = Unwrap(RticServer::Start(options));

  // Setup (gate open): registrations plus one durable apply, which also
  // runs the tenant's lazy Recover().
  auto setup = Unwrap(RticClient::Connect(server->address(), "acme"));
  RTIC_ASSERT_OK(SetUpPayroll(setup.get()));
  (void)Unwrap(setup->Apply(EmpBatch(0, 100)));

  // Eight raw sessions so responses can be read independently of sends.
  constexpr int kConns = 8;
  std::vector<std::unique_ptr<Transport>> conns;
  std::string bytes;
  for (int i = 0; i < kConns; ++i) {
    auto t = Unwrap(TcpConnect(server->address()));
    RTIC_ASSERT_OK(t->Send(EncodeHello("acme")));
    ASSERT_TRUE(Unwrap(t->Recv(&bytes)));
    ASSERT_EQ(Unwrap(ParseMessage(bytes)).type, MessageType::kHelloOk);
    conns.push_back(std::move(t));
  }

  // Freeze the worker: close the gate, send one apply, and wait until the
  // worker is provably blocked inside that apply's Sync.
  gate.CloseGate();
  RTIC_ASSERT_OK(conns[0]->Send(EncodeApplyBatch(EmpBatch(1, 101))));
  while (gate.waiters() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // The worker holds batch #0; capacity is 2, so of the seven batches
  // below exactly two are admitted and exactly five are refused — no
  // timing involved, only the queue bound.
  for (int i = 1; i < kConns; ++i) {
    RTIC_ASSERT_OK(conns[i]->Send(EncodeApplyBatch(EmpBatch(1, 101 + i))));
  }
  int overloaded = 0;
  std::vector<bool> refused(kConns, false);
  while (overloaded < kConns - 3) {
    for (int i = 1; i < kConns; ++i) {
      if (refused[i]) continue;
      Result<bool> got = conns[i]->TryRecv(&bytes);
      if (got.ok() && got.value()) {
        Message reply = Unwrap(ParseMessage(bytes));
        ASSERT_EQ(reply.type, MessageType::kOverloaded)
            << "conn " << i << " got type "
            << static_cast<int>(reply.type) << " while the gate was closed";
        EXPECT_EQ(reply.arg, 2u);  // the queue capacity, for backoff hints
        refused[i] = true;
        ++overloaded;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(overloaded, 5);
  EXPECT_EQ(gate.waiters(), 1);  // worker still inside batch #0's Sync

  // Open the gate: the worker finishes batch #0 and drains the two
  // admitted batches. Every accepted batch's verdict arrives.
  gate.OpenGate();
  int verdicts = 0;
  for (int i = 0; i < kConns; ++i) {
    if (i > 0 && refused[i]) continue;
    ASSERT_TRUE(Unwrap(conns[i]->Recv(&bytes))) << "conn " << i;
    Message reply = Unwrap(ParseMessage(bytes));
    EXPECT_EQ(reply.type, MessageType::kVerdict) << "conn " << i;
    ++verdicts;
  }
  EXPECT_EQ(verdicts, 3);

  // Setup apply + the three admitted applies, nothing more, nothing lost.
  StatsReply stats = Unwrap(setup->GetStats());
  EXPECT_EQ(stats.transition_count, 4u);
  for (auto& conn : conns) conn->Close();
  server->Stop();
}

}  // namespace
}  // namespace rtic
