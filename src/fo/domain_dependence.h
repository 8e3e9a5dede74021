// Static active-domain dependence: can evaluating a constraint ever touch
// the active domain?
//
// The evaluator (fo/eval.cc) materializes the active domain only on its
// complement and extension fallbacks: a domain relation for an implication
// or `forall` with free variables, a comparison evaluated on its own, a
// genuine complement of an atom or temporal leaf, and a column padded onto
// rows that lack it. This analysis mirrors that strategy case by case. When
// it proves a constraint domain-free, the constraint's verdicts and
// counterexamples are the same under every active domain, so an engine may
// keep no DomainTracker at all, and a shard may evaluate it over its own
// slice of the data.

#ifndef RTIC_FO_DOMAIN_DEPENDENCE_H_
#define RTIC_FO_DOMAIN_DEPENDENCE_H_

#include <optional>
#include <string>

#include "tl/analyzer.h"
#include "tl/ast.h"

namespace rtic {
namespace fo {

/// Why evaluating `closed` can touch the active domain, or nullopt when it
/// provably never does. Covers everything an engine evaluates for the
/// constraint: the verdict (Evaluate on `closed`), the counterexamples
/// (ComputeCounterexamples on `closed`), and the body of every temporal
/// subformula (each evaluated on its own). A bounded-future `eventually`
/// is treated as the response engine uses it: its body's rows are matched
/// against obligations, never complemented. `analysis` must be the
/// analysis of exactly this formula tree. One pass over the formula; the
/// reason string is built only when the answer is "dependent".
std::optional<std::string> DomainDependence(const tl::Formula& closed,
                                            const tl::Analysis& analysis);

}  // namespace fo
}  // namespace rtic

#endif  // RTIC_FO_DOMAIN_DEPENDENCE_H_
