// NaiveEngine: the full-history baseline. Every transition appends a deep
// snapshot to a HistoryLog and re-evaluates the constraint from scratch by
// recursion over the *entire* stored history. Time and space grow with
// history length — the behaviour bounded history encoding eliminates.
//
// This engine also serves as the executable semantics: it evaluates the
// original (un-normalized) formula, handling every operator natively,
// so cross-engine agreement tests pin the incremental engine's rewrites.

#ifndef RTIC_ENGINES_NAIVE_NAIVE_ENGINE_H_
#define RTIC_ENGINES_NAIVE_NAIVE_ENGINE_H_

#include <map>
#include <memory>
#include <vector>

#include "engines/checker_engine.h"
#include "fo/eval.h"
#include "history/history.h"
#include "tl/analyzer.h"
#include "tl/ast.h"

namespace rtic {

/// Full-history re-evaluation checker (the paper's baseline).
class NaiveEngine : public CheckerEngine {
 public:
  /// Compiles `constraint` (which must be closed) against `catalog`.
  /// The engine keeps its own clone of the formula.
  static Result<std::unique_ptr<NaiveEngine>> Create(
      const tl::Formula& constraint, const tl::PredicateCatalog& catalog,
      std::vector<Value> extra_constants = {});

  Result<bool> OnTransition(const Database& state, Timestamp t) override;
  Result<Relation> CurrentCounterexamples(const Database& state) override;
  std::size_t StorageRows() const override;
  /// The latest state's domain (earlier states' trackers are its subsets).
  std::size_t DomainValueCount() const override {
    return trackers_.empty() ? 0 : trackers_.back().size();
  }
  const char* name() const override { return "naive"; }

  /// Evaluates any subformula of the stored constraint at history index `i`
  /// (exposed for the cross-engine semantics tests).
  Result<Relation> EvaluateAt(const tl::Formula& node, std::size_t index);

  const tl::Formula& constraint() const { return *constraint_; }
  const tl::Analysis& analysis() const { return analysis_; }

 private:
  NaiveEngine(tl::FormulaPtr constraint, tl::Analysis analysis,
              std::vector<Value> extra_constants)
      : constraint_(std::move(constraint)),
        analysis_(std::move(analysis)),
        extra_constants_(std::move(extra_constants)) {}

  /// Evaluation memo for one EvaluateAt call tree: (node, index) -> result.
  using Memo = std::map<std::pair<const tl::Formula*, std::size_t>, Relation>;

  Result<Relation> Eval(const tl::Formula& node, std::size_t index,
                        Memo* memo);
  Result<Relation> EvalTemporalAt(const tl::Formula& node, std::size_t index,
                                  Memo* memo);
  Relation DomainRelationAt(const std::vector<Column>& columns,
                            std::size_t index);
  fo::EvalContext ContextAt(std::size_t index, Memo* memo);

  tl::FormulaPtr constraint_;
  tl::Analysis analysis_;
  std::vector<Value> extra_constants_;
  HistoryLog log_;

  /// trackers_[i] = active domain of the history up to and including state
  /// i — quantification at state i ranges over exactly what had been seen by
  /// then, matching the incremental engine's cumulative tracker.
  std::vector<DomainTracker> trackers_;
};

}  // namespace rtic

#endif  // RTIC_ENGINES_NAIVE_NAIVE_ENGINE_H_
