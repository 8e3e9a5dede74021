// Wire format of the RTIC server's request/response protocol.
//
// Every message between an RticClient and an RticServer session is one
// RTICSRV1 frame: the replication layout (repl_format.h FrameSpec) under
// the server's own magic and type range, carried by the same transports
// (the length-prefixed TCP transport adds its u32 LE frame-size prefix on
// the wire). The protocol is strictly request/response per session: the
// client sends one request frame and reads exactly one response frame
// before sending the next.
//
//   [magic "RTICSRV1" 8][crc32c u32 LE]
//   [version u8][type u8][arg u64 LE][name_len u32 LE][body_len u32 LE]
//   [name bytes][body bytes]
//
// Requests (client -> server):
//   kHello              — session start; `name` is the tenant namespace,
//                         `arg` the requested shard count for the tenant's
//                         monitor (0 = server default; nonzero on an
//                         existing tenant must match how it was created).
//                         Must be the first frame of a session.
//   kCreateTable        — `name` is the table, `body` an encoded Schema.
//   kRegisterConstraint — `name` is the constraint, `body` its text.
//   kApplyBatch         — `body` is an RTICBAT1 token payload (the WAL
//                         record codec). timestamp 0 asks the server to
//                         assign current_time + 1 (multi-client sessions
//                         cannot know the tenant's clock).
//   kGetStats           — no payload; snapshot of the tenant's counters.
//
// Responses (server -> client):
//   kHelloOk    — `name` is "rtic-server", `arg` the tenant's admission
//                 queue capacity.
//   kOk         — request succeeded, nothing to return.
//   kVerdict    — ApplyBatch succeeded; `arg` is the violation count,
//                 `body` the encoded verdict (applied timestamp +
//                 violations with witnesses).
//   kStats      — `body` is an encoded StatsReply.
//   kError      — `arg` is the StatusCode, `body` the message. Fatal
//                 errors (bad hello, unparseable frame) also end the
//                 session; request-level errors (e.g. a stale timestamp)
//                 leave it open.
//   kOverloaded — admission control refused the batch: the tenant's
//                 submission queue is full. `arg` is the queue capacity.
//                 The session stays open; the client may retry.
//
// Version rule (same split as replication): any version parses, but a
// version != kServerProtocolVersion must be refused at session start with
// a kError naming both versions, before any other request is served.

#ifndef RTIC_SERVER_SERVER_FORMAT_H_
#define RTIC_SERVER_SERVER_FORMAT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "monitor/monitor.h"
#include "replication/repl_format.h"
#include "types/schema.h"

namespace rtic {
namespace server {

inline constexpr char kServerFrameMagic[] = "RTICSRV1";  // 8 bytes
inline constexpr std::uint8_t kServerProtocolVersion = 1;

enum class MessageType : std::uint8_t {
  kHello = 1,
  kCreateTable = 2,
  kRegisterConstraint = 3,
  kApplyBatch = 4,
  kGetStats = 5,
  kHelloOk = 6,
  kOk = 7,
  kVerdict = 8,
  kStats = 9,
  kError = 10,
  kOverloaded = 11,
};

/// The RTICSRV1 frame family (layout shared with RTICSHP1).
inline constexpr replication::FrameSpec kServerFrameSpec{
    kServerFrameMagic, "server frame", 1, 11};

/// A parsed server frame.
struct Message {
  std::uint8_t version = kServerProtocolVersion;
  MessageType type = MessageType::kHello;
  std::uint64_t arg = 0;
  std::string name;
  std::string body;
};

std::string EncodeMessage(const Message& msg);

/// Parses one whole frame; trailing bytes are corruption. Any version
/// parses — the session layer refuses mismatches (see file comment).
Result<Message> ParseMessage(std::string_view data);

// -- request/response constructors ------------------------------------------

std::string EncodeHello(std::string_view tenant,
                        std::uint64_t shard_count = 0);
std::string EncodeCreateTable(std::string_view table, const Schema& schema);
std::string EncodeRegisterConstraint(std::string_view name,
                                     std::string_view text);
std::string EncodeApplyBatch(const UpdateBatch& batch);
std::string EncodeGetStats();
std::string EncodeHelloOk(std::uint64_t queue_capacity);
std::string EncodeOk();
std::string EncodeVerdict(Timestamp timestamp,
                          const std::vector<Violation>& violations);
std::string EncodeStatsReply(const MonitorLike& monitor);
std::string EncodeError(const Status& status);
std::string EncodeOverloaded(std::uint64_t queue_capacity);

// -- payload codecs ---------------------------------------------------------

/// Schema payload: column count, then per column name + ValueType.
std::string EncodeSchemaPayload(const Schema& schema);
Result<Schema> DecodeSchemaPayload(std::string_view payload);

/// Verdict payload: applied timestamp, then the violations with their
/// witness columns and witness tuples — enough for the client to rebuild
/// each Violation byte-for-byte (ToString-identical to the server's).
struct Verdict {
  Timestamp timestamp = 0;
  std::vector<Violation> violations;
};
std::string EncodeVerdictPayload(Timestamp timestamp,
                                 const std::vector<Violation>& violations);
Result<Verdict> DecodeVerdictPayload(std::string_view payload);

/// Stats payload: tenant-wide counters plus per-constraint counters in
/// registration order (a subset of ConstraintStats — the cross-process
/// surface carries counts, not this process's timings).
struct StatsReply {
  std::uint64_t transition_count = 0;
  Timestamp current_time = 0;
  std::uint64_t total_violations = 0;
  struct ConstraintCounters {
    std::string name;
    std::uint64_t transitions = 0;
    std::uint64_t violations = 0;
    std::uint64_t storage_rows = 0;
    std::uint64_t aux_valuations = 0;
    std::uint64_t aux_anchors = 0;
    std::uint64_t domain_values = 0;
  };
  std::vector<ConstraintCounters> constraints;
};
std::string EncodeStatsPayload(const StatsReply& stats);
Result<StatsReply> DecodeStatsPayload(std::string_view payload);

/// Rebuilds the Status a kError frame carries (arg = code, body = message).
Status DecodeError(const Message& msg);

}  // namespace server
}  // namespace rtic

#endif  // RTIC_SERVER_SERVER_FORMAT_H_
