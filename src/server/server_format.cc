#include "server/server_format.h"

#include <utility>

#include "storage/codec.h"

namespace rtic {
namespace server {
namespace {

Status BadPayload(const std::string& what) {
  return Status::InvalidArgument("server payload: " + what);
}

// Reads a non-negative count token.
Result<std::size_t> ReadCount(StateReader* r, const char* what) {
  RTIC_ASSIGN_OR_RETURN(std::int64_t n, r->ReadInt());
  if (n < 0) {
    return BadPayload(std::string("negative ") + what + " count");
  }
  return static_cast<std::size_t>(n);
}

Message FromRaw(replication::RawFrame raw) {
  Message msg;
  msg.version = raw.version;
  msg.type = static_cast<MessageType>(raw.type);
  msg.arg = raw.arg;
  msg.name = std::move(raw.name);
  msg.body = std::move(raw.body);
  return msg;
}

std::string Encode(MessageType type, std::uint64_t arg, std::string name,
                   std::string body) {
  replication::RawFrame raw;
  raw.version = kServerProtocolVersion;
  raw.type = static_cast<std::uint8_t>(type);
  raw.arg = arg;
  raw.name = std::move(name);
  raw.body = std::move(body);
  return EncodeFrameWith(kServerFrameSpec, raw);
}

}  // namespace

std::string EncodeMessage(const Message& msg) {
  replication::RawFrame raw;
  raw.version = msg.version;
  raw.type = static_cast<std::uint8_t>(msg.type);
  raw.arg = msg.arg;
  raw.name = msg.name;
  raw.body = msg.body;
  return EncodeFrameWith(kServerFrameSpec, raw);
}

Result<Message> ParseMessage(std::string_view data) {
  Result<replication::RawFrame> raw =
      ParseFrameWith(kServerFrameSpec, data);
  if (!raw.ok()) return raw.status();
  return FromRaw(std::move(raw).value());
}

std::string EncodeHello(std::string_view tenant, std::uint64_t shard_count) {
  return Encode(MessageType::kHello, shard_count, std::string(tenant), "");
}

std::string EncodeCreateTable(std::string_view table, const Schema& schema) {
  return Encode(MessageType::kCreateTable, 0, std::string(table),
                EncodeSchemaPayload(schema));
}

std::string EncodeRegisterConstraint(std::string_view name,
                                     std::string_view text) {
  return Encode(MessageType::kRegisterConstraint, 0, std::string(name),
                std::string(text));
}

std::string EncodeApplyBatch(const UpdateBatch& batch) {
  StateWriter w;
  batch.EncodeTo(&w);
  return Encode(MessageType::kApplyBatch, 0, "", w.str());
}

std::string EncodeGetStats() {
  return Encode(MessageType::kGetStats, 0, "", "");
}

std::string EncodeHelloOk(std::uint64_t queue_capacity) {
  return Encode(MessageType::kHelloOk, queue_capacity, "rtic-server", "");
}

std::string EncodeOk() { return Encode(MessageType::kOk, 0, "", ""); }

std::string EncodeVerdict(Timestamp timestamp,
                          const std::vector<Violation>& violations) {
  return Encode(MessageType::kVerdict, violations.size(), "",
                EncodeVerdictPayload(timestamp, violations));
}

std::string EncodeStatsReply(const MonitorLike& monitor) {
  StatsReply reply;
  reply.transition_count = monitor.transition_count();
  reply.current_time = monitor.current_time();
  reply.total_violations = monitor.total_violations();
  for (const ConstraintStats& s : monitor.Stats()) {
    StatsReply::ConstraintCounters c;
    c.name = s.name;
    c.transitions = s.transitions;
    c.violations = s.violations;
    c.storage_rows = s.storage_rows;
    c.aux_valuations = s.aux_valuations;
    c.aux_anchors = s.aux_anchors;
    c.domain_values = s.domain_values;
    reply.constraints.push_back(std::move(c));
  }
  return Encode(MessageType::kStats, 0, "", EncodeStatsPayload(reply));
}

std::string EncodeError(const Status& status) {
  return Encode(MessageType::kError,
                static_cast<std::uint64_t>(status.code()), "",
                status.message());
}

std::string EncodeOverloaded(std::uint64_t queue_capacity) {
  return Encode(MessageType::kOverloaded, queue_capacity, "",
                "submission queue full");
}

std::string EncodeSchemaPayload(const Schema& schema) {
  StateWriter w;
  w.WriteSize(schema.size());
  for (const Column& col : schema.columns()) {
    w.WriteString(col.name);
    w.WriteInt(static_cast<std::int64_t>(col.type));
  }
  return w.str();
}

Result<Schema> DecodeSchemaPayload(std::string_view payload) {
  StateReader r(payload);
  RTIC_ASSIGN_OR_RETURN(std::size_t n, ReadCount(&r, "column"));
  std::vector<Column> columns;
  columns.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    RTIC_ASSIGN_OR_RETURN(std::string name, r.ReadString());
    RTIC_ASSIGN_OR_RETURN(std::int64_t type, r.ReadInt());
    if (type < 0 || type > static_cast<std::int64_t>(ValueType::kBool)) {
      return BadPayload("unknown column type " + std::to_string(type));
    }
    columns.push_back(Column{std::move(name), static_cast<ValueType>(type)});
  }
  if (!r.AtEnd()) return BadPayload("trailing bytes after schema");
  return Schema::Make(std::move(columns));
}

std::string EncodeVerdictPayload(Timestamp timestamp,
                                 const std::vector<Violation>& violations) {
  StateWriter w;
  w.WriteInt(timestamp);
  w.WriteSize(violations.size());
  for (const Violation& v : violations) {
    w.WriteString(v.constraint_name);
    w.WriteInt(v.timestamp);
    w.WriteSize(v.witness_columns.size());
    for (const std::string& c : v.witness_columns) w.WriteString(c);
    w.WriteSize(v.witnesses.size());
    for (const Tuple& t : v.witnesses) w.WriteTuple(t);
  }
  return w.str();
}

Result<Verdict> DecodeVerdictPayload(std::string_view payload) {
  StateReader r(payload);
  Verdict verdict;
  RTIC_ASSIGN_OR_RETURN(verdict.timestamp, r.ReadInt());
  RTIC_ASSIGN_OR_RETURN(std::size_t n, ReadCount(&r, "violation"));
  verdict.violations.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Violation v;
    RTIC_ASSIGN_OR_RETURN(v.constraint_name, r.ReadString());
    RTIC_ASSIGN_OR_RETURN(v.timestamp, r.ReadInt());
    RTIC_ASSIGN_OR_RETURN(std::size_t cols, ReadCount(&r, "witness column"));
    v.witness_columns.reserve(cols);
    for (std::size_t j = 0; j < cols; ++j) {
      RTIC_ASSIGN_OR_RETURN(std::string c, r.ReadString());
      v.witness_columns.push_back(std::move(c));
    }
    RTIC_ASSIGN_OR_RETURN(std::size_t rows, ReadCount(&r, "witness"));
    v.witnesses.reserve(rows);
    for (std::size_t j = 0; j < rows; ++j) {
      RTIC_ASSIGN_OR_RETURN(Tuple t, r.ReadTuple());
      v.witnesses.push_back(std::move(t));
    }
    verdict.violations.push_back(std::move(v));
  }
  if (!r.AtEnd()) return BadPayload("trailing bytes after verdict");
  return verdict;
}

std::string EncodeStatsPayload(const StatsReply& stats) {
  StateWriter w;
  w.WriteSize(stats.transition_count);
  w.WriteInt(stats.current_time);
  w.WriteSize(stats.total_violations);
  w.WriteSize(stats.constraints.size());
  for (const StatsReply::ConstraintCounters& c : stats.constraints) {
    w.WriteString(c.name);
    w.WriteSize(c.transitions);
    w.WriteSize(c.violations);
    w.WriteSize(c.storage_rows);
    w.WriteSize(c.aux_valuations);
    w.WriteSize(c.aux_anchors);
    w.WriteSize(c.domain_values);
  }
  return w.str();
}

Result<StatsReply> DecodeStatsPayload(std::string_view payload) {
  StateReader r(payload);
  StatsReply stats;
  RTIC_ASSIGN_OR_RETURN(std::size_t transitions,
                        ReadCount(&r, "transition"));
  stats.transition_count = transitions;
  RTIC_ASSIGN_OR_RETURN(stats.current_time, r.ReadInt());
  RTIC_ASSIGN_OR_RETURN(std::size_t total, ReadCount(&r, "violation"));
  stats.total_violations = total;
  RTIC_ASSIGN_OR_RETURN(std::size_t n, ReadCount(&r, "constraint"));
  stats.constraints.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    StatsReply::ConstraintCounters c;
    RTIC_ASSIGN_OR_RETURN(c.name, r.ReadString());
    RTIC_ASSIGN_OR_RETURN(std::size_t ct, ReadCount(&r, "transition"));
    c.transitions = ct;
    RTIC_ASSIGN_OR_RETURN(std::size_t cv, ReadCount(&r, "violation"));
    c.violations = cv;
    RTIC_ASSIGN_OR_RETURN(std::size_t cs, ReadCount(&r, "storage row"));
    c.storage_rows = cs;
    RTIC_ASSIGN_OR_RETURN(std::size_t av, ReadCount(&r, "aux valuation"));
    c.aux_valuations = av;
    RTIC_ASSIGN_OR_RETURN(std::size_t aa, ReadCount(&r, "aux anchor"));
    c.aux_anchors = aa;
    RTIC_ASSIGN_OR_RETURN(std::size_t dv, ReadCount(&r, "domain value"));
    c.domain_values = dv;
    stats.constraints.push_back(std::move(c));
  }
  if (!r.AtEnd()) return BadPayload("trailing bytes after stats");
  return stats;
}

Status DecodeError(const Message& msg) {
  if (msg.arg == 0 ||
      msg.arg > static_cast<std::uint64_t>(StatusCode::kDeadlineExceeded)) {
    return Status::Internal("server error with unknown code " +
                            std::to_string(msg.arg) + ": " + msg.body);
  }
  return Status(static_cast<StatusCode>(msg.arg), msg.body);
}

}  // namespace server
}  // namespace rtic
