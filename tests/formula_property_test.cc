// Randomized language-level property tests:
//   * print-parse round trip: every generated formula survives
//     PrintFormula -> ParseFormula structurally intact;
//   * normalizer preservation: NormalizeForEngines (and EliminateImplies)
//     keep the semantics — the naive engine run on the original and on the
//     normalized constraint produces identical verdict sequences;
//   * domain-dependence soundness: whenever fo::DomainDependence proves a
//     constraint domain-free, its verdict, counterexamples and temporal
//     bodies evaluate identically with an empty tracker (and the
//     evaluator's domain_free guard armed) and with the full history
//     domain.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "fo/domain_dependence.h"
#include "fo/eval.h"
#include "fo/witness.h"
#include "tests/engine_test_util.h"
#include "tests/formula_gen.h"
#include "tl/normalizer.h"
#include "tl/parser.h"

namespace rtic {
namespace {

using testing::BuildState;
using testing::FormulaGen;
using testing::I;
using testing::PQRSchemas;
using testing::RandomConstraint;
using testing::ScenarioStep;
using testing::T;
using testing::Unwrap;
using tl::FormulaPtr;

class FormulaPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FormulaPropertyTest, PrintParseRoundTrip) {
  Rng rng(GetParam() * 7919);
  FormulaGen gen(&rng);
  for (int round = 0; round < 25; ++round) {
    FormulaPtr f;
    switch (rng.Uniform(3)) {
      case 0:
        f = gen.Gen({"x"}, 4);
        break;
      case 1:
        f = gen.Gen({"x", "y"}, 4);
        break;
      default:
        f = RandomConstraint(&rng);
        break;
    }
    std::string printed = f->ToString();
    auto reparsed = tl::ParseFormula(printed);
    ASSERT_TRUE(reparsed.ok())
        << "printed form does not reparse: " << printed << "\n"
        << reparsed.status().ToString();
    EXPECT_TRUE(f->Equals(**reparsed))
        << "round trip changed structure:\n  " << printed << "\n  "
        << (*reparsed)->ToString();
    EXPECT_EQ(printed, (*reparsed)->ToString());
  }
}

TEST_P(FormulaPropertyTest, NormalizationPreservesVerdicts) {
  Rng rng(GetParam() * 104729);
  const auto schemas = PQRSchemas();
  tl::PredicateCatalog catalog;
  for (const auto& [name, schema] : schemas) catalog[name] = schema;

  for (int round = 0; round < 2; ++round) {
    FormulaPtr original = RandomConstraint(&rng);
    FormulaPtr normalized = tl::NormalizeForEngines(*original);
    FormulaPtr no_implies = tl::EliminateImplies(*original);
    SCOPED_TRACE("constraint: " + original->ToString());

    auto e_orig = Unwrap(NaiveEngine::Create(*original, catalog));
    auto e_norm = Unwrap(NaiveEngine::Create(*normalized, catalog));
    auto e_noimp = Unwrap(NaiveEngine::Create(*no_implies, catalog));

    Timestamp t = 0;
    for (int i = 0; i < 8; ++i) {
      t += rng.UniformInt(1, 3);
      ScenarioStep step{t, {}};
      for (std::int64_t a = 0; a <= 2; ++a) {
        if (rng.Bernoulli(0.4)) step.tables["P"].push_back(T(I(a)));
        if (rng.Bernoulli(0.4)) step.tables["Q"].push_back(T(I(a)));
        for (std::int64_t b = 0; b <= 2; ++b) {
          if (rng.Bernoulli(0.3)) step.tables["R"].push_back(T(I(a), I(b)));
        }
      }
      Database state = Unwrap(BuildState(schemas, step));
      bool v1 = Unwrap(e_orig->OnTransition(state, t));
      bool v2 = Unwrap(e_norm->OnTransition(state, t));
      bool v3 = Unwrap(e_noimp->OnTransition(state, t));
      ASSERT_EQ(v1, v2) << "NormalizeForEngines changed semantics at t=" << t;
      ASSERT_EQ(v1, v3) << "EliminateImplies changed semantics at t=" << t;
    }
  }
}

/// Every temporal subformula of `f`, in pre-order.
void CollectTemporal(const tl::Formula& f,
                     std::vector<const tl::Formula*>* out) {
  if (tl::IsTemporal(f.kind())) out->push_back(&f);
  for (std::size_t i = 0; i < f.num_children(); ++i) {
    CollectTemporal(f.child(i), out);
  }
}

/// A random relation over `columns` with values in [0, 5].
Relation RandomRelation(Rng* rng, const std::vector<Column>& columns) {
  if (columns.empty()) {
    return rng->Bernoulli(0.5) ? Relation::True() : Relation::False();
  }
  Relation out(columns);
  const int rows = static_cast<int>(rng->UniformInt(0, 4));
  for (int r = 0; r < rows; ++r) {
    std::vector<Value> values;
    for (std::size_t c = 0; c < columns.size(); ++c) {
      values.push_back(I(rng->UniformInt(0, 5)));
    }
    out.InsertUnchecked(Tuple(std::move(values)));
  }
  return out;
}

// The proof must hold whatever the temporal leaves hold, so they resolve
// to random relations: an engine evaluates its verdict, its
// counterexamples and each temporal node's operands as separate top-level
// evaluations with those leaves opaque. The full domain carries values the
// current state lacks, so a domain touch shows up as a different result;
// the guarded run turns any touch into an Internal error outright.
TEST_P(FormulaPropertyTest, DomainFreeConstraintsIgnoreTheDomain) {
  Rng rng(GetParam() * 15485863);
  const auto schemas = PQRSchemas();
  tl::PredicateCatalog catalog;
  for (const auto& [name, schema] : schemas) catalog[name] = schema;

  int proved = 0;
  for (int round = 0; round < 12; ++round) {
    FormulaPtr original = RandomConstraint(&rng);
    // Engines run the normalized tree; prove and check both forms.
    std::vector<FormulaPtr> forms;
    forms.push_back(original->Clone());
    forms.push_back(tl::NormalizeForEngines(*original));
    for (const FormulaPtr& f : forms) {
      tl::Analysis analysis = Unwrap(tl::Analyze(*f, catalog));
      if (fo::DomainDependence(*f, analysis).has_value()) continue;
      ++proved;
      SCOPED_TRACE("domain-free: " + f->ToString());
      std::vector<const tl::Formula*> temporal;
      CollectTemporal(*f, &temporal);

      DomainTracker full;
      full.AbsorbValues({I(4), I(5)});  // seen earlier, absent now
      const DomainTracker empty;
      for (int step = 0; step < 5; ++step) {
        ScenarioStep state_step{step + 1, {}};
        for (std::int64_t a = 0; a <= 2; ++a) {
          if (rng.Bernoulli(0.4)) state_step.tables["P"].push_back(T(I(a)));
          if (rng.Bernoulli(0.4)) state_step.tables["Q"].push_back(T(I(a)));
          for (std::int64_t b = 0; b <= 2; ++b) {
            if (rng.Bernoulli(0.3)) {
              state_step.tables["R"].push_back(T(I(a), I(b)));
            }
          }
        }
        Database state = Unwrap(BuildState(schemas, state_step));
        full.Absorb(state);
        std::map<const tl::Formula*, Relation> leaves;
        for (const tl::Formula* node : temporal) {
          leaves[node] = RandomRelation(&rng, analysis.ColumnsFor(*node));
        }

        fo::EvalContext with_domain;
        with_domain.db = &state;
        with_domain.analysis = &analysis;
        with_domain.domain = &full;
        with_domain.resolver = [&leaves](const tl::Formula& node) {
          return Result<Relation>(leaves.at(&node));
        };
        fo::EvalContext guarded = with_domain;
        guarded.domain = &empty;
        guarded.domain_free = true;

        auto expect_same = [&](const Result<Relation>& want,
                               const Result<Relation>& got,
                               const std::string& what) {
          RTIC_ASSERT_OK(want.status());
          ASSERT_TRUE(got.ok()) << what << ": " << got.status().ToString();
          EXPECT_EQ(want.value(), got.value()) << what << " at step " << step;
        };
        expect_same(fo::Evaluate(*f, with_domain), fo::Evaluate(*f, guarded),
                    "verdict");
        expect_same(fo::ComputeCounterexamples(*f, with_domain),
                    fo::ComputeCounterexamples(*f, guarded),
                    "counterexamples");
        for (const tl::Formula* node : temporal) {
          for (std::size_t c = 0; c < node->num_children(); ++c) {
            expect_same(fo::Evaluate(node->child(c), with_domain),
                        fo::Evaluate(node->child(c), guarded),
                        "operand of " + node->ToString());
          }
        }
      }
    }
  }
  RecordProperty("domain_free_constraints", proved);
  EXPECT_GT(proved, 0) << "no generated constraint was proved domain-free";
}

INSTANTIATE_TEST_SUITE_P(Seeds, FormulaPropertyTest,
                         ::testing::Range<std::uint64_t>(1, 21));

}  // namespace
}  // namespace rtic
