// IncrementalEngine: the paper's contribution — history-less checking of
// metric past temporal constraints by bounded history encoding.
//
// For each temporal subformula the engine keeps an auxiliary structure:
//   previous[I] φ : the body's satisfaction relation at the previous state;
//   once[I] φ     : valuation -> pruned ascending anchor timestamps where φ
//                   held;
//   φ since[I] ψ  : valuation -> pruned anchors where ψ held, entries
//                   dropped the moment φ fails for them.
//
// A transition to state D at time t updates the network bottom-up:
// each node evaluates its body against D (child temporal nodes resolve to
// their already-updated current relations), folds the result into its
// anchors, prunes (expiry + dominance per PruningPolicy), and publishes its
// current satisfaction relation. Finally the whole constraint is evaluated
// with temporal leaves resolved from those relations. Nothing depends on
// the history's length — only on the current state, the previous auxiliary
// state, and the two timestamps.
//
// When an IncrementalOptions::registry is supplied, the per-node state, the
// domain tracker, and the whole-constraint verdict are interned by
// canonical text (plus registration epoch / pruning / extra constants), so
// engines whose constraints contain identical temporal subplans evaluate
// each equivalence class once per transition and share the result. Verdicts
// and checkpoints are byte-identical to the unshared path.

#ifndef RTIC_ENGINES_INCREMENTAL_ENGINE_H_
#define RTIC_ENGINES_INCREMENTAL_ENGINE_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "engines/checker_engine.h"
#include "engines/incremental/compiler.h"
#include "engines/incremental/pruning.h"
#include "engines/incremental/subplan_registry.h"
#include "fo/eval.h"
#include "tl/analyzer.h"
#include "tl/ast.h"

namespace rtic {

/// Options controlling an IncrementalEngine.
struct IncrementalOptions {
  /// kFull is the paper's bounded encoding; kExpiryOnly is the E6 ablation.
  PruningPolicy pruning = PruningPolicy::kFull;

  /// Extra constants contributing to every state's active domain.
  std::vector<Value> extra_constants;

  /// When set, temporal-node state, domain tracking, and the constraint
  /// verdict are interned here and shared with engines whose subplans
  /// canonicalize to identical text at the same registration epoch.
  std::shared_ptr<inc::SubplanRegistry> registry;

  /// The monitor's transition count at registration time; part of every
  /// sharing key, so only engines with coinciding state histories share.
  std::uint64_t registration_epoch = 0;
};

/// Bounded-history-encoding checker.
class IncrementalEngine : public CheckerEngine {
 public:
  /// Compiles `constraint` (closed) against `catalog`. The engine stores a
  /// normalized clone (implies/historically eliminated).
  static Result<std::unique_ptr<IncrementalEngine>> Create(
      const tl::Formula& constraint, const tl::PredicateCatalog& catalog,
      IncrementalOptions options = {});

  Result<bool> OnTransition(const Database& state, Timestamp t) override;
  Result<Relation> CurrentCounterexamples(const Database& state) override;
  std::size_t StorageRows() const override;
  std::size_t DomainValueCount() const override;
  const char* name() const override { return "incremental"; }

  /// How many shared-subplan handles (temporal nodes + verdict) this engine
  /// coalesced with previously registered engines. 0 when sharing is off or
  /// after a checkpoint restore detaches the engine.
  std::size_t SharedSubplans() const override { return shared_subplans_; }

  /// Total anchor timestamps retained across all aux tables (space metric
  /// for E2/E6; StorageRows also counts previous-node relations). O(nodes):
  /// the columnar stores maintain their counts.
  std::size_t AuxTimestampCount() const override;

  /// Number of distinct valuations retained across all aux tables.
  std::size_t AuxValuationCount() const override;

  /// The compiled network (introspection for tests and DESIGN docs).
  const inc::CompiledNetwork& network() const { return network_; }

  /// The normalized constraint the engine actually runs.
  const tl::Formula& normalized_constraint() const { return *constraint_; }

  /// Serializes the checker's state — clock, cumulative domain, and the
  /// auxiliary structures — as an RTICINC2 blob: with `since_empty`, every
  /// node (a self-contained snapshot; because the encoding is bounded it
  /// is small regardless of how much history has been processed); without,
  /// only the relations dirtied and the domain values absorbed since the
  /// last MarkStateSaved() (requires BeginDeltaTracking()). Shared state
  /// serializes exactly as if owned.
  Result<std::string> SaveState(bool since_empty = true) const override;

  /// Applies a SaveState() blob into an engine compiled from the SAME
  /// constraint (validated against the blob). A since-empty blob replaces
  /// all state; a since-last-save blob requires this engine to hold its
  /// exact parent state (checked by domain size). Blobs are staged in full
  /// before the engine is touched. Either way the engine detaches from any
  /// shared-subplan state first: the sharing protocol assumes an
  /// uninterrupted lockstep history, and a delta is not idempotent, so it
  /// must never apply to relations other sharers still read.
  Status LoadState(const std::string& data) override;

  // Dirty tracking for since-last-save blobs is per node and per relation
  // — `current`, `prev_body`, and the anchor table each carry their own
  // bit. For once/since nodes the bits are driven by the anchor store's
  // exact mutation flags (free — no snapshot-and-compare).
  bool StateDirty() const override;
  void BeginDeltaTracking() override;
  void MarkStateSaved() override;

 private:
  IncrementalEngine(tl::FormulaPtr constraint, tl::Analysis analysis,
                    inc::CompiledNetwork network, IncrementalOptions options);

  fo::EvalContext ContextFor(const Database& state);
  Status UpdateNode(std::size_t i, const Database& state, Timestamp t);

  /// Applies node i's interval / pruning policy / survivor projection to an
  /// anchor store (a fresh node's, or one staged from a checkpoint).
  void ConfigureNodeStore(std::size_t i, inc::AnchorStore* store) const;

  /// Node i's state before any transition: empty relations, configured
  /// anchor store.
  inc::NodeState FreshNodeState(std::size_t i) const;

  /// Replaces all shared handles with fresh private copies of the current
  /// content (checkpoint restore breaks the lockstep sharing invariant).
  void DetachSharedState();

  tl::FormulaPtr constraint_;
  tl::Analysis analysis_;
  inc::CompiledNetwork network_;
  IncrementalOptions options_;
  // Per-node state, possibly shared with other engines; parallel to
  // network_.nodes. Private engines still use the shared wrappers (with
  // use-count 1) so the transition path is uniform.
  std::vector<std::shared_ptr<inc::SharedNode>> states_;
  std::shared_ptr<inc::SharedDomain> domain_;
  std::shared_ptr<inc::SharedVerdict> verdict_;
  std::uint64_t transitions_ = 0;  // lockstep counter (see subplan_registry.h)
  std::size_t shared_subplans_ = 0;
  fo::EvalScratch scratch_;
  bool has_prev_ = false;
  Timestamp prev_time_ = 0;

  // Checkpoint baseline (state as of the last MarkStateSaved()).
  bool delta_tracking_ = false;
  std::size_t domain_saved_count_ = 0;
  bool saved_has_prev_ = false;
  Timestamp saved_prev_time_ = 0;
};

}  // namespace rtic

#endif  // RTIC_ENGINES_INCREMENTAL_ENGINE_H_
