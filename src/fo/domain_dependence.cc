#include "fo/domain_dependence.h"

#include <algorithm>
#include <vector>

namespace rtic {
namespace fo {
namespace {

using tl::Formula;
using tl::FormulaKind;

/// The first code path found to touch the domain. The message is rendered
/// from it only on failure, so a domain-free proof builds no strings.
enum class Why {
  kComparisonEval,
  kOrPadding,
  kImpliesComplement,
  kForallComplement,
  kConsequentPadding,
  kAndPadding,
  kComparisonFalsified,
  kComplement,
  kConjunctPadding,
  kUnhandled,
};

/// The four predicates correspond 1:1 to Eval / BadSet / FilterSat /
/// FilterFalse in fo/eval.cc; each `false` case below is a code path there
/// that calls DomainRelation or ExtendToColumns with a non-empty column
/// set. `kEventually` mirrors the response-constraint engine, which
/// matches rows of the response subformula (never complements it).
class DomainSafety {
 public:
  explicit DomainSafety(const tl::Analysis& analysis) : analysis_(analysis) {}

  bool EvalSafe(const Formula& f) {
    switch (f.kind()) {
      case FormulaKind::kBoolConst:
      case FormulaKind::kAtom:
        return true;
      case FormulaKind::kComparison:
        // Eval of a comparison with a variable materializes the domain.
        return ClosedOr(f, Why::kComparisonEval);
      case FormulaKind::kNot:
        return FalsSafe(f.child(0));
      case FormulaKind::kAnd:
        return AndSafe(f);
      case FormulaKind::kOr:
        // EvalOr extends both sides to the union of their variables.
        return EvalSafe(f.child(0)) && EvalSafe(f.child(1)) &&
               SameVars(f, Why::kOrPadding);
      case FormulaKind::kImplies:
        // Eval(a -> b) complements the falsification set over the domain.
        return ClosedOr(f, Why::kImpliesComplement) && FalsSafe(f);
      case FormulaKind::kExists:
        return EvalSafe(f.child(0));
      case FormulaKind::kForall:
        return ClosedOr(f, Why::kForallComplement) && FalsSafe(f.child(0));
      case FormulaKind::kPrevious:
      case FormulaKind::kOnce:
      case FormulaKind::kHistorically:
      case FormulaKind::kEventually:
        return EvalSafe(f.child(0));
      case FormulaKind::kSince:
        return EvalSafe(f.child(0)) && EvalSafe(f.child(1));
    }
    return Fail(f, Why::kUnhandled);
  }

  bool FalsSafe(const Formula& f) {
    switch (f.kind()) {
      case FormulaKind::kBoolConst:
        return true;
      case FormulaKind::kNot:
        return EvalSafe(f.child(0));
      case FormulaKind::kImplies: {
        // falsify(a -> b): generate Eval(a), extend to free(f), filter by
        // b failing. The extension draws any variable b introduces from
        // the active domain.
        if (!EvalSafe(f.child(0))) return false;
        if (!Covers(analysis_.FreeVars(f.child(0)), analysis_.FreeVars(f))) {
          return Fail(f, Why::kConsequentPadding);
        }
        return FilterFalseSafe(f.child(1));
      }
      case FormulaKind::kAnd:
        // falsify(a and b) extends each side's falsifications to the
        // union of variables.
        return FalsSafe(f.child(0)) && FalsSafe(f.child(1)) &&
               SameVars(f, Why::kAndPadding);
      case FormulaKind::kOr: {
        const Formula& a = f.child(0);
        const Formula& b = f.child(1);
        const auto& fa = analysis_.FreeVars(a);
        const auto& fb = analysis_.FreeVars(b);
        if (Covers(fa, fb)) return FalsSafe(a) && FilterFalseSafe(b);
        if (Covers(fb, fa)) return FalsSafe(b) && FilterFalseSafe(a);
        return FalsSafe(a) && FalsSafe(b);  // natural join, no extension
      }
      case FormulaKind::kForall:
        return FalsSafe(f.child(0));
      case FormulaKind::kComparison:
        return ClosedOr(f, Why::kComparisonFalsified);
      case FormulaKind::kAtom:
      case FormulaKind::kExists:
      case FormulaKind::kPrevious:
      case FormulaKind::kOnce:
      case FormulaKind::kHistorically:
      case FormulaKind::kSince:
        // Genuine complement: domain product minus the satisfaction set.
        return ClosedOr(f, Why::kComplement) && EvalSafe(f);
      case FormulaKind::kEventually:
        return EvalSafe(f.child(0));
    }
    return Fail(f, Why::kUnhandled);
  }

  /// The reason for the first failed check, rendered for reports.
  std::string Reason() const {
    const std::string node = at_ == nullptr ? "" : at_->ToString();
    switch (why_) {
      case Why::kComparisonEval:
        return "comparison '" + node + "' evaluated over the active domain";
      case Why::kOrPadding:
        return "'or' branches bind different variables; the evaluator pads "
               "the difference from the active domain";
      case Why::kImpliesComplement:
        return "implication '" + node +
               "' satisfied-set needs a domain complement";
      case Why::kForallComplement:
        return "nested 'forall' satisfied-set needs a domain complement";
      case Why::kConsequentPadding:
        return "consequent of '" + node +
               "' uses variables the antecedent does not bind; the "
               "evaluator pads them from the active domain";
      case Why::kAndPadding:
        return "'and' falsifications pad differing variables from the "
               "active domain";
      case Why::kComparisonFalsified:
        return "comparison '" + node + "' falsified over the active domain";
      case Why::kComplement:
        return "falsifying '" + node + "' complements over the active domain";
      case Why::kConjunctPadding:
        return "conjunct '" + node +
               "' uses variables no atom in the conjunction binds; the "
               "evaluator pads them from the active domain";
      case Why::kUnhandled:
        break;
    }
    return "unhandled formula kind";
  }

 private:
  bool FilterSatSafe(const Formula& g) {
    switch (g.kind()) {
      case FormulaKind::kBoolConst:
      case FormulaKind::kComparison:  // filters bound rows, no domain
        return true;
      case FormulaKind::kNot:
        return FilterFalseSafe(g.child(0));
      case FormulaKind::kAnd:
      case FormulaKind::kOr:
        return FilterSatSafe(g.child(0)) && FilterSatSafe(g.child(1));
      case FormulaKind::kImplies:
        return FilterFalseSafe(g.child(0)) && FilterSatSafe(g.child(1));
      case FormulaKind::kForall:
        return FalsSafe(g.child(0));  // anti-join against the bad set
      case FormulaKind::kExists:
        return EvalSafe(g.child(0));  // semi-join against the body
      case FormulaKind::kAtom:
      case FormulaKind::kPrevious:
      case FormulaKind::kOnce:
      case FormulaKind::kHistorically:
      case FormulaKind::kSince:
      case FormulaKind::kEventually:
        return EvalSafe(g);  // semi-join against the satisfaction set
    }
    return Fail(g, Why::kUnhandled);
  }

  bool FilterFalseSafe(const Formula& g) {
    switch (g.kind()) {
      case FormulaKind::kBoolConst:
      case FormulaKind::kComparison:
        return true;
      case FormulaKind::kNot:
        return FilterSatSafe(g.child(0));
      case FormulaKind::kAnd:
      case FormulaKind::kOr:
        return FilterFalseSafe(g.child(0)) && FilterFalseSafe(g.child(1));
      case FormulaKind::kImplies:
        return FilterSatSafe(g.child(0)) && FilterFalseSafe(g.child(1));
      case FormulaKind::kForall:
        return FalsSafe(g.child(0));  // semi-join against the bad set
      case FormulaKind::kExists:
        return EvalSafe(g.child(0));  // anti-join against the body
      case FormulaKind::kAtom:
      case FormulaKind::kPrevious:
      case FormulaKind::kOnce:
      case FormulaKind::kHistorically:
      case FormulaKind::kSince:
        return EvalSafe(g);  // anti-join against the satisfaction set
      case FormulaKind::kEventually:
        // Response engine: obligations discharge by matching rows of the
        // response subformula; nothing is complemented.
        return EvalSafe(g.child(0));
    }
    return Fail(g, Why::kUnhandled);
  }

  // Mirror of EvalAnd: generator conjuncts join bottom-up; every other
  // conjunct must be covered by generator-bound variables or the
  // evaluator pads the gap from the active domain.
  bool AndSafe(const Formula& f) {
    std::vector<const Formula*> conjuncts;
    FlattenAnd(f, &conjuncts);
    std::vector<std::string> bound;
    for (const Formula* c : conjuncts) {
      if (!IsGenerator(c->kind())) continue;
      if (!EvalSafe(*c)) return false;
      const auto& vars = analysis_.FreeVars(*c);
      bound.insert(bound.end(), vars.begin(), vars.end());
    }
    std::sort(bound.begin(), bound.end());
    bound.erase(std::unique(bound.begin(), bound.end()), bound.end());
    for (const Formula* c : conjuncts) {
      if (IsGenerator(c->kind())) continue;
      if (!Covers(bound, analysis_.FreeVars(*c))) {
        return Fail(*c, Why::kConjunctPadding);
      }
      if (!FilterSatSafe(*c)) return false;
    }
    return true;
  }

  static void FlattenAnd(const Formula& f, std::vector<const Formula*>* out) {
    if (f.kind() == FormulaKind::kAnd) {
      FlattenAnd(f.child(0), out);
      FlattenAnd(f.child(1), out);
    } else {
      out->push_back(&f);
    }
  }

  static bool IsGenerator(FormulaKind kind) {
    switch (kind) {
      case FormulaKind::kAtom:
      case FormulaKind::kExists:
      case FormulaKind::kOr:
      case FormulaKind::kBoolConst:
      case FormulaKind::kPrevious:
      case FormulaKind::kOnce:
      case FormulaKind::kHistorically:
      case FormulaKind::kSince:
        return true;
      default:
        return false;
    }
  }

  static bool Covers(const std::vector<std::string>& big,
                     const std::vector<std::string>& small) {
    for (const std::string& v : small) {
      if (!std::binary_search(big.begin(), big.end(), v)) return false;
    }
    return true;
  }

  /// Both children of binary `f` bind the same variables.
  bool SameVars(const Formula& f, Why why) {
    const auto& fa = analysis_.FreeVars(f.child(0));
    const auto& fb = analysis_.FreeVars(f.child(1));
    if (Covers(fa, fb) && Covers(fb, fa)) return true;
    return Fail(f, why);
  }

  bool ClosedOr(const Formula& f, Why why) {
    if (analysis_.FreeVars(f).empty()) return true;
    return Fail(f, why);
  }

  bool Fail(const Formula& f, Why why) {
    if (at_ == nullptr) {
      at_ = &f;
      why_ = why;
    }
    return false;
  }

  const tl::Analysis& analysis_;
  const Formula* at_ = nullptr;
  Why why_ = Why::kUnhandled;
};

}  // namespace

std::optional<std::string> DomainDependence(const tl::Formula& closed,
                                            const tl::Analysis& analysis) {
  DomainSafety safety(analysis);
  const Formula* body = &closed;
  while (body->kind() == FormulaKind::kForall) body = &body->child(0);
  // Counterexample extraction falsifies the forall-stripped body. For a
  // closed forall-rooted formula the verdict is that same falsification
  // set projected to zero columns, so one pass covers both; any other root
  // is checked in both directions.
  const bool safe = body != &closed && analysis.IsClosed(closed)
                        ? safety.FalsSafe(*body)
                        : safety.EvalSafe(closed) && safety.FalsSafe(*body);
  if (safe) return std::nullopt;
  return safety.Reason();
}

}  // namespace fo
}  // namespace rtic
