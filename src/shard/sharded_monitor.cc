#include "shard/sharded_monitor.h"

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <map>
#include <optional>
#include <utility>

#include "common/logging.h"
#include "shard/router.h"
#include "tl/parser.h"

namespace rtic {
namespace shard {
namespace {

Status MakeDir(const std::string& path) {
  if (::mkdir(path.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::Internal("sharded monitor: cannot create directory " +
                            path);
  }
  return Status::OK();
}

std::string ShardDir(const std::string& root, std::size_t k) {
  return root + "/shard-" + std::to_string(k);
}

}  // namespace

ShardedMonitor::ShardedMonitor(MonitorOptions options, std::size_t shard_count)
    : options_(std::move(options)),
      partitioner_(shard_count),
      coordinator_([&] {
        MonitorOptions coord = options_;
        coord.num_threads = 1;
        if (!coord.wal_dir.empty()) coord.wal_dir += "/shard-coord";
        return coord;
      }()) {
  shards_.reserve(shard_count);
  for (std::size_t k = 0; k < shard_count; ++k) {
    MonitorOptions per_shard = options_;
    per_shard.num_threads = 1;
    if (!per_shard.wal_dir.empty()) {
      per_shard.wal_dir = ShardDir(options_.wal_dir, k);
    }
    shards_.push_back(std::make_unique<ConstraintMonitor>(per_shard));
  }
  if (options_.num_threads > 1) {
    pool_ = std::make_unique<ThreadPool>(options_.num_threads - 1);
  }
}

Result<std::unique_ptr<ShardedMonitor>> ShardedMonitor::Create(
    std::size_t shard_count, MonitorOptions options) {
  if (shard_count == 0) {
    return Status::InvalidArgument("sharded monitor needs at least 1 shard");
  }
  if (shard_count > 1024) {
    return Status::InvalidArgument(
        "shard_count " + std::to_string(shard_count) +
        " exceeds the supported maximum of 1024");
  }
  if (!options.replication_standby.empty()) {
    return Status::InvalidArgument(
        "log-shipping replication is not supported on a sharded monitor; "
        "ship each shard's directory individually");
  }
  return std::unique_ptr<ShardedMonitor>(
      new ShardedMonitor(std::move(options), shard_count));
}

Status ShardedMonitor::CreateTable(const std::string& name, Schema schema) {
  return CreateTablePartitioned(name, std::move(schema), 0);
}

Status ShardedMonitor::CreateTablePartitioned(const std::string& name,
                                              Schema schema,
                                              std::size_t key_column) {
  if (transition_count_ > 0) {
    return Status::FailedPrecondition(
        "tables must be created before the first update");
  }
  RTIC_RETURN_IF_ERROR(partitioner_.AddTable(name, schema, key_column));
  for (auto& shard : shards_) {
    RTIC_RETURN_IF_ERROR(shard->CreateTable(name, schema));
  }
  if (coordinator_.active()) {
    RTIC_RETURN_IF_ERROR(coordinator_.CreateTable(name, schema));
  }
  tables_.push_back(TableDef{name, std::move(schema), key_column});
  return Status::OK();
}

Status ShardedMonitor::EnsureCoordinator() {
  if (coordinator_.active()) return Status::OK();
  if (durable() && recovered_) {
    return Status::FailedPrecondition(
        "cross-shard constraints must be registered before Recover() on a "
        "durable sharded monitor (the coordinator's WAL cannot adopt state "
        "it never logged)");
  }
  RTIC_RETURN_IF_ERROR(coordinator_.Activate(tables_));
  if (!durable() && transition_count_ > 0) {
    std::vector<const Database*> dbs;
    dbs.reserve(shards_.size());
    for (const auto& shard : shards_) dbs.push_back(&shard->database());
    RTIC_RETURN_IF_ERROR(coordinator_.Seed(dbs, current_time_));
  }
  return Status::OK();
}

Status ShardedMonitor::RegisterConstraint(const std::string& name,
                                          const std::string& text) {
  for (const Entry& e : entries_) {
    if (e.name == name) {
      return Status::AlreadyExists("constraint already registered: " + name);
    }
  }
  RTIC_ASSIGN_OR_RETURN(tl::FormulaPtr formula, tl::ParseFormula(text));

  tl::PredicateCatalog catalog;
  for (const TableDef& t : tables_) catalog[t.name] = t.schema;
  RTIC_ASSIGN_OR_RETURN(tl::Analysis analysis, tl::Analyze(*formula, catalog));
  if (!analysis.IsClosed(*formula)) {
    return Status::InvalidArgument("constraint '" + name +
                                   "' must be a closed formula");
  }

  RTIC_ASSIGN_OR_RETURN(Classification cls,
                        Classify(*formula, analysis, partitioner_));
  if (cls.local()) {
    for (auto& shard : shards_) {
      RTIC_RETURN_IF_ERROR(shard->RegisterConstraint(name, text));
    }
  } else {
    RTIC_RETURN_IF_ERROR(EnsureCoordinator());
    RTIC_RETURN_IF_ERROR(coordinator_.monitor()->RegisterConstraint(name,
                                                                    text));
  }
  entries_.push_back(Entry{name, std::move(cls), 0, 0});
  return Status::OK();
}

Status ShardedMonitor::UnregisterConstraint(const std::string& name) {
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->name != name) continue;
    if (it->cls.local()) {
      for (auto& shard : shards_) {
        RTIC_RETURN_IF_ERROR(shard->UnregisterConstraint(name));
      }
    } else {
      RTIC_RETURN_IF_ERROR(coordinator_.monitor()->UnregisterConstraint(name));
    }
    entries_.erase(it);
    return Status::OK();
  }
  return Status::NotFound("no such constraint: " + name);
}

Result<wal::RecoveryStats> ShardedMonitor::Recover() {
  if (!durable()) {
    return Status::FailedPrecondition(
        "Recover() requires MonitorOptions::wal_dir");
  }
  if (recovered_) {
    return Status::FailedPrecondition("Recover() already ran");
  }
  if (transition_count_ > 0) {
    return Status::FailedPrecondition(
        "Recover() must run before the first update");
  }
  RTIC_RETURN_IF_ERROR(MakeDir(options_.wal_dir));
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    RTIC_RETURN_IF_ERROR(MakeDir(ShardDir(options_.wal_dir, k)));
  }
  if (coordinator_.active()) {
    RTIC_RETURN_IF_ERROR(MakeDir(options_.wal_dir + "/shard-coord"));
  }

  std::vector<ConstraintMonitor*> inners;
  for (auto& shard : shards_) inners.push_back(shard.get());
  if (coordinator_.active()) inners.push_back(coordinator_.monitor());

  wal::RecoveryStats merged;
  for (ConstraintMonitor* m : inners) {
    RTIC_ASSIGN_OR_RETURN(wal::RecoveryStats s, m->Recover());
    merged.checkpoint_seq = std::max(merged.checkpoint_seq, s.checkpoint_seq);
    merged.last_seq = std::max(merged.last_seq, s.last_seq);
    merged.replayed_batches += s.replayed_batches;
    merged.tail_damaged = merged.tail_damaged || s.tail_damaged;
    merged.truncated_bytes += s.truncated_bytes;
    merged.removed_files += s.removed_files;
    merged.checkpoint_chain =
        std::max(merged.checkpoint_chain, s.checkpoint_chain);
  }

  // Clock reconciliation: a crash between per-shard WAL commits leaves
  // laggards one transition behind. Tick them forward so metric temporal
  // operators agree on the clock again; the caught-up tick's verdicts are
  // dropped (the leading shards reported that transition before the
  // crash).
  Timestamp max_time = 0;
  for (ConstraintMonitor* m : inners) {
    max_time = std::max(max_time, m->current_time());
  }
  for (ConstraintMonitor* m : inners) {
    if (m->current_time() == max_time) continue;
    RTIC_LOG(Warning) << "sharded recovery: inner monitor at t="
                      << m->current_time() << " lags the fleet at t="
                      << max_time << " (torn cross-shard write); ticking "
                      << "forward";
    RTIC_RETURN_IF_ERROR(m->Tick(max_time).status());
  }
  current_time_ = max_time;
  transition_count_ = 0;
  for (ConstraintMonitor* m : inners) {
    transition_count_ = std::max(transition_count_, m->transition_count());
  }

  // Reconstruct merged per-constraint counters. A shard counts the
  // transitions at which IT saw a violation; the merged count is the
  // number of transitions at which ANY shard did — not recoverable
  // exactly from per-shard totals, so take the max (a lower bound; the
  // coordinator's counters are exact).
  std::vector<std::map<std::string, ConstraintStats>> shard_stats;
  for (const auto& shard : shards_) {
    std::map<std::string, ConstraintStats> by_name;
    for (ConstraintStats& s : shard->Stats()) by_name[s.name] = s;
    shard_stats.push_back(std::move(by_name));
  }
  std::map<std::string, ConstraintStats> coord_stats;
  if (coordinator_.active()) {
    for (ConstraintStats& s : coordinator_.monitor()->Stats()) {
      coord_stats[s.name] = s;
    }
  }
  total_violations_ = 0;
  for (Entry& e : entries_) {
    e.transitions = 0;
    e.violations = 0;
    if (e.cls.local()) {
      for (const auto& by_name : shard_stats) {
        auto it = by_name.find(e.name);
        if (it == by_name.end()) continue;
        e.transitions = std::max(e.transitions, it->second.transitions);
        e.violations = std::max(e.violations, it->second.violations);
      }
    } else {
      auto it = coord_stats.find(e.name);
      if (it != coord_stats.end()) {
        e.transitions = it->second.transitions;
        e.violations = it->second.violations;
      }
    }
    total_violations_ += e.violations;
  }

  recovered_ = true;
  return merged;
}

Result<std::vector<Violation>> ShardedMonitor::ApplyUpdate(
    const UpdateBatch& batch) {
  if (durable() && !recovered_) {
    return Status::FailedPrecondition(
        "durable monitor: call Recover() before applying updates");
  }
  if (batch.timestamp() <= current_time_) {
    return Status::InvalidArgument(
        "batch timestamp " + std::to_string(batch.timestamp()) +
        " does not advance the clock past " + std::to_string(current_time_));
  }
  // Validate against shard 0 (every shard holds identical schemas) so an
  // invalid batch is rejected before ANY shard applies anything.
  RTIC_RETURN_IF_ERROR(batch.Validate(shards_[0]->database()));
  RTIC_ASSIGN_OR_RETURN(std::vector<UpdateBatch> routed,
                        RouteBatch(batch, partitioner_));

  const std::size_t tasks = shards_.size() + (coordinator_.active() ? 1 : 0);
  std::vector<std::optional<Result<std::vector<Violation>>>> results(tasks);
  auto run = [&](std::size_t i) {
    if (i < shards_.size()) {
      results[i] = shards_[i]->ApplyUpdate(routed[i]);
    } else {
      results[i] = coordinator_.monitor()->ApplyUpdate(batch);
    }
  };
  if (pool_ != nullptr) {
    pool_->ParallelFor(tasks, run);
  } else {
    for (std::size_t i = 0; i < tasks; ++i) run(i);
  }
  for (const auto& r : results) {
    if (!r->ok()) return r->status();
  }

  current_time_ = batch.timestamp();
  ++transition_count_;

  std::vector<std::vector<Violation>> shard_reports;
  shard_reports.reserve(shards_.size());
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    shard_reports.push_back(std::move(*results[k]).value());
  }
  std::vector<Violation> coord_report;
  if (coordinator_.active()) {
    coord_report = std::move(*results.back()).value();
  }

  std::vector<Violation> out;
  for (Entry& e : entries_) {
    ++e.transitions;
    if (e.cls.local()) {
      Violation merged;
      if (MergeShardViolations(e.name, shard_reports, options_.max_witnesses,
                               &merged)) {
        ++e.violations;
        ++total_violations_;
        out.push_back(std::move(merged));
      }
    } else {
      for (Violation& v : coord_report) {
        if (v.constraint_name != e.name) continue;
        ++e.violations;
        ++total_violations_;
        out.push_back(std::move(v));
        break;
      }
    }
  }
  return out;
}

Result<std::vector<Violation>> ShardedMonitor::Tick(Timestamp t) {
  return ApplyUpdate(UpdateBatch(t));
}

std::vector<std::string> ShardedMonitor::ConstraintNames() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const Entry& e : entries_) out.push_back(e.name);
  return out;
}

std::vector<ConstraintStats> ShardedMonitor::Stats() const {
  std::vector<std::map<std::string, ConstraintStats>> shard_stats;
  for (const auto& shard : shards_) {
    std::map<std::string, ConstraintStats> by_name;
    for (ConstraintStats& s : shard->Stats()) by_name[s.name] = s;
    shard_stats.push_back(std::move(by_name));
  }
  std::map<std::string, ConstraintStats> coord_stats;
  if (coordinator_.active()) {
    for (ConstraintStats& s : coordinator_.monitor()->Stats()) {
      coord_stats[s.name] = s;
    }
  }

  std::vector<ConstraintStats> out;
  out.reserve(entries_.size());
  for (const Entry& e : entries_) {
    ConstraintStats s;
    s.name = e.name;
    s.transitions = e.transitions;
    s.violations = e.violations;
    if (e.cls.local()) {
      for (const auto& by_name : shard_stats) {
        auto it = by_name.find(e.name);
        if (it == by_name.end()) continue;
        s.total_check_micros += it->second.total_check_micros;
        s.max_check_micros =
            std::max(s.max_check_micros, it->second.max_check_micros);
        // Shard checks run concurrently, so the transition's wall time is
        // the slowest shard's — summing would mix per-shard wall times into
        // a number no single check ever took (and disagree with
        // max_check_micros, which already takes the max).
        s.last_check_micros =
            std::max(s.last_check_micros, it->second.last_check_micros);
        s.storage_rows += it->second.storage_rows;
        s.shared_subplans =
            std::max(s.shared_subplans, it->second.shared_subplans);
        // Each shard's aux tables cover its own key partition; the
        // constraint's totals are their sums.
        s.aux_valuations += it->second.aux_valuations;
        s.aux_anchors += it->second.aux_anchors;
        // Each shard tracks the domain of its own slice.
        s.domain_values += it->second.domain_values;
      }
    } else {
      auto it = coord_stats.find(e.name);
      if (it != coord_stats.end()) {
        s.total_check_micros = it->second.total_check_micros;
        s.max_check_micros = it->second.max_check_micros;
        s.last_check_micros = it->second.last_check_micros;
        s.storage_rows = it->second.storage_rows;
        s.shared_subplans = it->second.shared_subplans;
        s.aux_valuations = it->second.aux_valuations;
        s.aux_anchors = it->second.aux_anchors;
        s.domain_values = it->second.domain_values;
      }
    }
    out.push_back(std::move(s));
  }
  return out;
}

std::size_t ShardedMonitor::TotalStorageRows() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->TotalStorageRows();
  if (coordinator_.active()) {
    total += coordinator_.monitor()->TotalStorageRows();
  }
  return total;
}

Result<Classification> ShardedMonitor::ClassificationFor(
    const std::string& name) const {
  for (const Entry& e : entries_) {
    if (e.name == name) return e.cls;
  }
  return Status::NotFound("no such constraint: " + name);
}

std::size_t ShardedMonitor::PartitionLocalCount() const {
  std::size_t n = 0;
  for (const Entry& e : entries_) n += e.cls.local() ? 1 : 0;
  return n;
}

double ShardedMonitor::PartitionLocalFraction() const {
  if (entries_.empty()) return 1.0;
  return static_cast<double>(PartitionLocalCount()) /
         static_cast<double>(entries_.size());
}

}  // namespace shard
}  // namespace rtic
