#include "replication/standby.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "replication/repl_format.h"
#include "storage/codec.h"
#include "wal/wal_format.h"

namespace rtic {
namespace replication {

bool StandbyMonitor::ParseCkptName(const std::string& name, CkptInfo* info) {
  if (wal::ParseCheckpointFileName(name, &info->seq)) {
    info->is_delta = false;
    return true;
  }
  if (wal::ParseDeltaCheckpointFileName(name, &info->seq, &info->parent)) {
    info->is_delta = true;
    return true;
  }
  return false;
}

bool StandbyMonitor::UnframeCkpt(const std::string& name,
                                 const std::string& bytes, CkptInfo* info) {
  if (!ParseCkptName(name, info)) return false;
  wal::ParsedRecord rec;
  if (wal::ParseRecord(bytes, 0, &rec, nullptr) !=
      wal::ParseOutcome::kRecord) {
    return false;
  }
  if (rec.seq != info->seq || rec.end_offset != bytes.size()) return false;
  info->payload = std::move(rec.payload);
  return true;
}

StandbyMonitor::StandbyMonitor(StandbyOptions options, Transport* transport)
    : options_(std::move(options)),
      fs_(options_.fs != nullptr ? options_.fs : wal::DefaultFs()),
      transport_(transport) {}

Result<std::unique_ptr<StandbyMonitor>> StandbyMonitor::Attach(
    StandbyOptions options, Transport* transport) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("StandbyOptions::dir must be set");
  }
  if (!options.configure) {
    return Status::InvalidArgument(
        "StandbyOptions::configure must register the primary's tables and "
        "constraints");
  }
  if (transport == nullptr) {
    return Status::InvalidArgument("StandbyMonitor needs a transport");
  }
  std::unique_ptr<StandbyMonitor> standby(
      new StandbyMonitor(std::move(options), transport));
  RTIC_RETURN_IF_ERROR(standby->BuildReplica());
  RTIC_RETURN_IF_ERROR(standby->CatchUpFromMirror());
  return standby;
}

Status StandbyMonitor::BuildReplica() {
  MonitorOptions opts = options_.monitor_options;
  // The replica is purely in-memory: the mirror directory belongs to the
  // shipping protocol until Promote() recovers from it.
  opts.wal_dir.clear();
  opts.wal_fs = nullptr;
  opts.replication_standby.clear();
  replica_ = std::make_unique<ConstraintMonitor>(opts);
  return options_.configure(replica_.get());
}

Status StandbyMonitor::CatchUpFromMirror() {
  RTIC_RETURN_IF_ERROR(fs_->CreateDir(options_.dir));
  RTIC_ASSIGN_OR_RETURN(std::vector<std::string> names,
                        fs_->ListDir(options_.dir));

  // Checkpoint files: validate each; a file a standby crash left torn or
  // corrupt is removed (the next session re-ships it).
  for (const std::string& name : names) {
    CkptInfo info;
    if (!ParseCkptName(name, &info)) continue;
    const std::string path = options_.dir + "/" + name;
    RTIC_ASSIGN_OR_RETURN(std::string bytes, fs_->ReadFile(path));
    if (!UnframeCkpt(name, bytes, &info)) {
      RTIC_LOG(Warning) << "standby: removing damaged mirrored checkpoint "
                        << name;
      RTIC_RETURN_IF_ERROR(fs_->Remove(path));
      continue;
    }
    ckpt_sizes_[name] = bytes.size();
    mirrored_ckpts_[name] = std::move(info);
  }

  // Segment files: sequential mirror appends mean crash damage sits at a
  // file's tail; truncate it away so live overlap-healing (which assumes
  // the mirrored prefix is exactly the primary's prefix) stays sound.
  for (const std::string& name : names) {
    std::uint64_t first_seq = 0;
    if (!wal::ParseSegmentFileName(name, &first_seq)) continue;
    const std::string path = options_.dir + "/" + name;
    RTIC_ASSIGN_OR_RETURN(std::string bytes, fs_->ReadFile(path));
    std::size_t offset = 0;
    wal::ParsedRecord rec;
    wal::ParseOutcome outcome;
    while ((outcome = wal::ParseRecord(bytes, offset, &rec, nullptr)) ==
           wal::ParseOutcome::kRecord) {
      offset = rec.end_offset;
    }
    if (outcome != wal::ParseOutcome::kEnd) {
      RTIC_LOG(Warning) << "standby: truncating damaged mirror tail of "
                        << name << " at offset " << offset;
      if (offset == 0) {
        RTIC_RETURN_IF_ERROR(fs_->Remove(path));
        continue;
      }
      RTIC_RETURN_IF_ERROR(fs_->Truncate(path, offset));
      bytes.resize(offset);
    }
    SegmentState state;
    state.durable = bytes.size();
    state.tail = std::move(bytes);
    segments_[name] = std::move(state);
  }

  // Bootstrap from the newest mirrored chain, then replay the tail. (A
  // mirror holding the whole log from seq 1 replays identically without
  // this, but a late-attached mirror has only the chain plus the
  // uncovered tail.)
  RTIC_RETURN_IF_ERROR(InstallBestChain());
  return ApplyBufferedRecords();
}

Status StandbyMonitor::InstallBestChain() {
  // Greatest base that advances the replica, then every delta whose parent
  // link matches exactly. Checkpoints are monotonic on the primary, so the
  // greatest mirrored base anchors the newest mirrored chain.
  const CkptInfo* base = nullptr;
  for (const auto& [name, info] : mirrored_ckpts_) {
    if (info.is_delta) continue;
    if (info.seq <= replica_->transition_count()) continue;
    if (base == nullptr || info.seq > base->seq) base = &info;
  }
  if (base != nullptr) {
    RTIC_RETURN_IF_ERROR(replica_->LoadState(base->payload));
    ++stats_.checkpoints_installed;
  }
  for (;;) {
    const CkptInfo* next = nullptr;
    for (const auto& [name, info] : mirrored_ckpts_) {
      if (info.is_delta && info.parent == replica_->transition_count()) {
        next = &info;
        break;
      }
    }
    if (next == nullptr) break;
    Status s = replica_->LoadState(next->payload);
    if (!s.ok()) {
      // A delta that fails against its exact parent state chains to a
      // logical state this replica never reached (e.g. files from two
      // primary generations); fall back to record replay.
      RTIC_LOG(Warning) << "standby: mirrored delta at seq " << next->seq
                        << " rejected (" << s.ToString()
                        << "); replaying records instead";
      break;
    }
    ++stats_.checkpoints_installed;
  }
  return Status::OK();
}

Result<bool> StandbyMonitor::ProcessOne() {
  if (peer_gone_) return false;
  std::string raw;
  RTIC_ASSIGN_OR_RETURN(bool got, transport_->Recv(&raw));
  if (!got) return false;
  RTIC_RETURN_IF_ERROR(HandleFrame(raw));
  return !peer_gone_;
}

Result<std::size_t> StandbyMonitor::ProcessPending() {
  std::size_t handled = 0;
  for (;;) {
    if (peer_gone_) return handled;
    std::string raw;
    RTIC_ASSIGN_OR_RETURN(bool got, transport_->TryRecv(&raw));
    if (!got) return handled;
    RTIC_RETURN_IF_ERROR(HandleFrame(raw));
    ++handled;
  }
}

Status StandbyMonitor::Run() {
  for (;;) {
    RTIC_ASSIGN_OR_RETURN(bool open, ProcessOne());
    if (!open) return Status::OK();
  }
}

Status StandbyMonitor::HandleFrame(const std::string& raw) {
  ++stats_.frames_received;
  RTIC_ASSIGN_OR_RETURN(Frame frame, ParseFrame(raw));
  if (frame.version != kProtocolVersion) {
    return Status::FailedPrecondition(
        "replication: primary speaks protocol version " +
        std::to_string(frame.version) + ", this standby speaks " +
        std::to_string(kProtocolVersion));
  }
  switch (frame.type) {
    case FrameType::kHello: {
      SendToPeer(EncodeHello("standby"));
      if (peer_gone_) return Status::OK();
      // First ack tells a reconnecting primary where this mirror already
      // is, so its watermark resumes without waiting for new chunks.
      SendToPeer(EncodeAck(AckValue()));
      if (peer_gone_) return Status::OK();
      last_acked_ = AckValue();
      sent_first_ack_ = true;
      ++stats_.acks_sent;
      return Status::OK();
    }
    case FrameType::kAck:
      return Status::InvalidArgument("replication: primary sent an ack");
    case FrameType::kFileChunk: {
      RTIC_RETURN_IF_ERROR(HandleChunk(frame.name, frame.arg, frame.body));
      return SendAckIfAdvanced();
    }
  }
  return Status::Internal("replication: unreachable frame type");
}

Status StandbyMonitor::HandleChunk(const std::string& name,
                                   std::uint64_t offset,
                                   const std::string& bytes) {
  CkptInfo ckpt_probe;
  std::uint64_t first_seq = 0;
  if (ParseCkptName(name, &ckpt_probe)) {
    if (offset != 0) {
      return Status::InvalidArgument(
          "replication: checkpoint chunk for " + name +
          " at nonzero offset " + std::to_string(offset));
    }
    return HandleCheckpointChunk(name, bytes);
  }
  if (!wal::ParseSegmentFileName(name, &first_seq)) {
    // Unknown directory entry (e.g. a future file kind): mirroring it
    // would be harmless but replaying it is undefined; skip.
    ++stats_.chunks_skipped;
    return Status::OK();
  }

  SegmentState& state = segments_[name];
  if (offset + bytes.size() <= state.durable) {
    ++stats_.chunks_skipped;  // duplicate or re-ship of mirrored bytes
    return Status::OK();
  }
  if (offset > state.durable) {
    stashed_[{name, offset}] = bytes;
    ++stats_.chunks_stashed;
    return Status::OK();
  }
  // The mirrored prefix is the primary's prefix (both are the file's bytes
  // in order), so only the unseen suffix is appended.
  RTIC_RETURN_IF_ERROR(
      AppendSegmentBytes(name, bytes.substr(state.durable - offset)));
  // A reordered chunk may now be contiguous; stale stash entries (covered
  // by what is already durable) are dropped.
  for (;;) {
    bool advanced = false;
    for (auto it = stashed_.begin(); it != stashed_.end();) {
      if (it->first.first != name) {
        ++it;
        continue;
      }
      const std::uint64_t at = it->first.second;
      if (at + it->second.size() <= state.durable) {
        it = stashed_.erase(it);
        continue;
      }
      if (at <= state.durable) {
        std::string pending = std::move(it->second);
        it = stashed_.erase(it);
        RTIC_RETURN_IF_ERROR(AppendSegmentBytes(
            name, pending.substr(state.durable - at)));
        advanced = true;
        break;  // iterator invalidated relative to durable; rescan
      }
      ++it;
    }
    if (!advanced) break;
  }
  return ApplyBufferedRecords();
}

Status StandbyMonitor::AppendSegmentBytes(const std::string& name,
                                          const std::string& bytes) {
  SegmentState& state = segments_[name];
  const std::string path = options_.dir + "/" + name;
  {
    RTIC_ASSIGN_OR_RETURN(
        std::unique_ptr<wal::WritableFile> file,
        fs_->NewWritableFile(path, /*truncate=*/state.durable == 0));
    RTIC_RETURN_IF_ERROR(file->Append(bytes));
    RTIC_RETURN_IF_ERROR(file->Sync());
    RTIC_RETURN_IF_ERROR(file->Close());
  }
  state.durable += bytes.size();
  state.tail += bytes;
  ++stats_.chunks_applied;
  return Status::OK();
}

Status StandbyMonitor::HandleCheckpointChunk(const std::string& name,
                                             const std::string& bytes) {
  auto it = ckpt_sizes_.find(name);
  if (it != ckpt_sizes_.end() && it->second == bytes.size()) {
    ++stats_.chunks_skipped;  // re-ship of a file already mirrored
    return Status::OK();
  }
  CkptInfo info;
  if (!UnframeCkpt(name, bytes, &info)) {
    // The frame checksum passed, so these are the bytes the primary sent —
    // a primary shipping an invalid checkpoint file is a protocol error,
    // not line noise.
    return Status::InvalidArgument(
        "replication: shipped checkpoint " + name + " is not valid");
  }
  const std::string path = options_.dir + "/" + name;
  {
    RTIC_ASSIGN_OR_RETURN(std::unique_ptr<wal::WritableFile> file,
                          fs_->NewWritableFile(path, /*truncate=*/true));
    RTIC_RETURN_IF_ERROR(file->Append(bytes));
    RTIC_RETURN_IF_ERROR(file->Sync());
    RTIC_RETURN_IF_ERROR(file->Close());
  }
  ckpt_sizes_[name] = bytes.size();
  mirrored_ckpts_[name] = std::move(info);
  ++stats_.chunks_applied;
  return ApplyBufferedRecords();
}

Status StandbyMonitor::ApplyBufferedRecords() {
  for (;;) {
    bool progress = false;
    bool beyond_gap = false;  // a buffered record past replayed+1 exists
    for (auto& [name, state] : segments_) {
      std::size_t offset = 0;
      for (;;) {
        wal::ParsedRecord rec;
        std::string reason;
        wal::ParseOutcome outcome =
            wal::ParseRecord(state.tail, offset, &rec, &reason);
        if (outcome == wal::ParseOutcome::kRecord) {
          const std::uint64_t next = replica_->transition_count() + 1;
          if (rec.seq < next) {
            offset = rec.end_offset;  // covered by a checkpoint or replayed
            continue;
          }
          if (rec.seq == next) {
            RTIC_RETURN_IF_ERROR(ApplyRecordPayload(rec.seq, rec.payload));
            offset = rec.end_offset;
            progress = true;
            continue;
          }
          beyond_gap = true;
          break;
        }
        if (outcome == wal::ParseOutcome::kEnd ||
            outcome == wal::ParseOutcome::kTorn) {
          break;  // wait for the next contiguous chunk
        }
        return Status::InvalidArgument("replication: mirror damage in " +
                                       name + ": " + reason);
      }
      state.tail.erase(0, offset);
      if (beyond_gap) break;  // later files are even further ahead
    }
    if (progress) continue;
    if (beyond_gap) {
      // Chunks ship in file order within a session, so a buffered record
      // beyond the gap means the records below it no longer exist on the
      // primary (garbage-collected before this standby attached). Jump
      // the replica forward over the mirrored checkpoint chain.
      const std::uint64_t before = replica_->transition_count();
      RTIC_RETURN_IF_ERROR(InstallBestChain());
      if (replica_->transition_count() > before) continue;
    }
    return Status::OK();
  }
}

Status StandbyMonitor::ApplyRecordPayload(std::uint64_t seq,
                                          const std::string& payload) {
  StateReader reader(payload);
  Result<UpdateBatch> batch = UpdateBatch::DecodeFrom(&reader);
  if (!batch.ok()) {
    return Status::InvalidArgument(
        "replication: shipped record " + std::to_string(seq) +
        " is not an update batch: " + batch.status().message());
  }
  if (!reader.AtEnd()) {
    return Status::InvalidArgument(
        "replication: shipped record " + std::to_string(seq) +
        " has trailing tokens");
  }
  RTIC_ASSIGN_OR_RETURN(std::vector<Violation> violations,
                        replica_->ApplyUpdate(*batch));
  ++stats_.records_replayed;
  if (options_.on_replay) options_.on_replay(seq, *batch, violations);
  return Status::OK();
}

std::uint64_t StandbyMonitor::AckValue() const {
  // What the primary may stop retaining: everything at or below the
  // replica's position is replayed from durably mirrored bytes, and
  // everything at or below the mirrored chain tip is recoverable from the
  // chain alone (Promote() restores it even if the replica never replayed
  // that far live).
  std::uint64_t ack = replica_->transition_count();
  std::uint64_t tip = 0;
  for (const auto& [name, info] : mirrored_ckpts_) {
    if (!info.is_delta && info.seq > tip) tip = info.seq;
  }
  if (tip > 0) {
    for (;;) {
      bool extended = false;
      for (const auto& [name, info] : mirrored_ckpts_) {
        if (info.is_delta && info.parent == tip) {
          tip = info.seq;
          extended = true;
          break;
        }
      }
      if (!extended) break;
    }
  }
  return std::max(ack, tip);
}

Status StandbyMonitor::SendAckIfAdvanced() {
  const std::uint64_t ack = AckValue();
  if (sent_first_ack_ && ack <= last_acked_) return Status::OK();
  SendToPeer(EncodeAck(ack));
  if (peer_gone_) return Status::OK();
  last_acked_ = ack;
  sent_first_ack_ = true;
  ++stats_.acks_sent;
  return Status::OK();
}

void StandbyMonitor::SendToPeer(const std::string& frame) {
  Status s = transport_->Send(frame);
  if (!s.ok()) {
    // The chunk that prompted this reply is already durable in the
    // mirror, so a vanished peer costs nothing: end the session the way
    // a clean close would, and let the next Attach() resynchronize.
    RTIC_LOG(Warning) << "standby: peer unreachable (" << s.ToString()
                      << "); ending session";
    peer_gone_ = true;
  }
}

Result<std::unique_ptr<ConstraintMonitor>> StandbyMonitor::Promote() {
  transport_->Close();
  MonitorOptions opts = options_.monitor_options;
  opts.wal_dir = options_.dir;
  opts.wal_fs = options_.fs;
  // The promoted monitor is a primary now; it does not ship to itself.
  opts.replication_standby.clear();
  auto monitor = std::make_unique<ConstraintMonitor>(opts);
  RTIC_RETURN_IF_ERROR(options_.configure(monitor.get()));
  RTIC_ASSIGN_OR_RETURN(wal::RecoveryStats stats, monitor->Recover());
  (void)stats;
  return monitor;
}

}  // namespace replication
}  // namespace rtic
