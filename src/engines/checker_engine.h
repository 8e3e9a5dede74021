// CheckerEngine: the interface every constraint-checking strategy
// implements. Three implementations exist:
//   * NaiveEngine       — stores the full history, re-evaluates from scratch
//                         (the baseline the paper improves on),
//   * IncrementalEngine — bounded history encoding (the contribution),
//   * ActiveEngine      — ECA trigger programs on an active-DBMS substrate
//                         (the implementation route of the follow-up work).
// All three produce identical verdicts; the cross-engine property suite
// checks this on randomized histories.

#ifndef RTIC_ENGINES_CHECKER_ENGINE_H_
#define RTIC_ENGINES_CHECKER_ENGINE_H_

#include "common/interval.h"
#include "common/result.h"
#include "ra/relation.h"
#include "storage/database.h"

namespace rtic {

/// One registered constraint's checking strategy.
///
/// Thread safety contract (relied on by ConstraintMonitor's parallel
/// fan-out): an engine instance is NOT internally synchronized — it is
/// driven by at most one thread at a time. Distinct engine instances may
/// run concurrently against the same `state`, which they must treat as
/// strictly read-only; all of an engine's mutable state (aux relations,
/// domain tracker, history copies) must be owned by the engine itself, or —
/// for incremental engines created with a SubplanRegistry — guarded by the
/// lockstep sharing protocol documented in subplan_registry.h.
class CheckerEngine {
 public:
  virtual ~CheckerEngine() = default;

  /// Processes the next history state (timestamps strictly increasing).
  /// Returns true iff the constraint HOLDS at this state.
  virtual Result<bool> OnTransition(const Database& state, Timestamp t) = 0;

  /// Counterexample valuations for the outermost universally quantified
  /// variables at the most recent state. Meaningful after OnTransition
  /// returned false; a zero-column relation if the constraint is not of
  /// `forall ...:` shape. `state` must be the database state last passed to
  /// OnTransition (the engine does not retain a snapshot of it).
  virtual Result<Relation> CurrentCounterexamples(const Database& state) = 0;

  /// Rows of auxiliary/history storage the engine currently retains — the
  /// space measure of experiment E2.
  virtual std::size_t StorageRows() const = 0;

  /// Distinct valuations across the engine's temporal auxiliary tables.
  /// 0 for engines without such tables (naive, response).
  virtual std::size_t AuxValuationCount() const { return 0; }

  /// Anchor timestamps retained across the engine's temporal auxiliary
  /// tables (the bounded-history space measure). 0 when not applicable.
  virtual std::size_t AuxTimestampCount() const { return 0; }

  /// Active-domain values the engine retains (its DomainTracker's size).
  /// 0 for engines that keep no domain, including response and active
  /// engines whose constraint fo::DomainDependence proved domain-free.
  virtual std::size_t DomainValueCount() const { return 0; }

  /// Number of subplan handles this engine shares with engines registered
  /// earlier (see inc::SubplanRegistry). 0 for engines without sharing.
  virtual std::size_t SharedSubplans() const { return 0; }

  /// Engine name for reports ("naive", "incremental", "active",
  /// "response").
  virtual const char* name() const = 0;

  // ---- Checkpoints -----------------------------------------------------
  //
  // A checkpoint blob records the engine's state as the changes since a
  // parent: either the empty state (a self-contained snapshot) or the
  // state at the last MarkStateSaved() (a delta, priced by what changed).
  // LoadState() applies both kinds; the blob names its own parent. The
  // monitor drives the protocol: BeginDeltaTracking() once when chained
  // checkpoints are enabled, MarkStateSaved() after every successful save,
  // and StateDirty() to skip engines with nothing to write. Supported by
  // the bounded-state engines (incremental, response), whose checkpoints
  // stay small regardless of history length; Unimplemented for engines
  // whose state IS the history.

  /// Serializes the engine's state as the changes since the empty state
  /// (`since_empty`) or since the last MarkStateSaved(). An engine may
  /// ignore the flag and always write a since-empty blob.
  virtual Result<std::string> SaveState(bool since_empty = true) const {
    (void)since_empty;
    return Status::Unimplemented(std::string(name()) +
                                 " engine does not support checkpointing");
  }

  /// Applies a SaveState() blob produced by an engine compiled from the
  /// same constraint. A since-empty blob replaces all current state; a
  /// since-last-save blob applies only on top of its exact parent state.
  /// Checkpoint versions this build no longer reads are rejected with
  /// Unimplemented, naming the version.
  virtual Status LoadState(const std::string& data) {
    (void)data;
    return Status::Unimplemented(std::string(name()) +
                                 " engine does not support checkpointing");
  }

  /// True when state may have changed since the last MarkStateSaved().
  /// The default is conservatively true (always re-serialized).
  virtual bool StateDirty() const { return true; }

  /// Arms whatever bookkeeping a since-last-save SaveState() depends on.
  /// The monitor calls this once on every engine when chained checkpoints
  /// are enabled; engines whose tracking has a per-transition cost keep it
  /// off until then.
  virtual void BeginDeltaTracking() {}

  /// Resets dirty tracking: the current state is now the saved baseline.
  virtual void MarkStateSaved() {}
};

}  // namespace rtic

#endif  // RTIC_ENGINES_CHECKER_ENGINE_H_
