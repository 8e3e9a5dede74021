// Tests for the active-DBMS substrate (ECA rules, rule engine) and the
// trigger-program realization of constraint checking.

#include <gtest/gtest.h>

#include "engines/active/compiler.h"
#include "engines/active/rule_engine.h"
#include "tests/engine_test_util.h"

namespace rtic {
namespace {

using testing::I;
using testing::IntSchema;
using testing::T;
using testing::Unwrap;

// ---- Rule matching and guards ------------------------------------------------

TEST(RuleTest, MatchesWatchedTables) {
  active::Rule rule("r", 0);
  rule.OnTables({"A", "B"});
  EXPECT_TRUE(rule.Matches({"B"}));
  EXPECT_TRUE(rule.Matches({"C", "A"}));
  EXPECT_FALSE(rule.Matches({"C"}));
  EXPECT_FALSE(rule.Matches({}));
}

TEST(RuleTest, NoWatchListMatchesEverything) {
  active::Rule rule("r", 0);
  EXPECT_TRUE(rule.Matches({}));
  EXPECT_TRUE(rule.Matches({"X"}));
}

TEST(RuleTest, DefaultConditionPasses) {
  active::Rule rule("r", 0);
  active::RuleContext ctx;
  EXPECT_TRUE(Unwrap(rule.CheckCondition(ctx)));
  RTIC_EXPECT_OK(rule.RunAction(ctx));  // no action: no-op
}

// ---- RuleEngine ---------------------------------------------------------------

TEST(RuleEngineTest, FiresInPriorityOrder) {
  active::RuleEngine engine;
  std::vector<std::string> fired;
  for (auto [name, prio] : {std::pair<const char*, int>{"late", 5},
                            {"early", 1},
                            {"middle", 3}}) {
    active::Rule rule(name, prio);
    std::string n = name;
    rule.Do([&fired, n](const active::RuleContext&) {
      fired.push_back(n);
      return Status::OK();
    });
    RTIC_ASSERT_OK(engine.AddRule(std::move(rule)));
  }
  Database state;
  (void)Unwrap(engine.ProcessTransition(state, 1));
  EXPECT_EQ(fired, (std::vector<std::string>{"early", "middle", "late"}));
}

TEST(RuleEngineTest, EventFilteringByTouchedTables) {
  active::RuleEngine engine;
  int fired_a = 0, fired_any = 0;
  active::Rule on_a("on_a", 0);
  on_a.OnTables({"A"}).Do([&](const active::RuleContext&) {
    ++fired_a;
    return Status::OK();
  });
  active::Rule always("always", 1);
  always.Do([&](const active::RuleContext&) {
    ++fired_any;
    return Status::OK();
  });
  RTIC_ASSERT_OK(engine.AddRule(std::move(on_a)));
  RTIC_ASSERT_OK(engine.AddRule(std::move(always)));

  Database state;
  (void)Unwrap(engine.ProcessTransition(state, 1, {"B"}));
  (void)Unwrap(engine.ProcessTransition(state, 2, {"A"}));
  (void)Unwrap(engine.ProcessTransition(state, 3, {}));
  EXPECT_EQ(fired_a, 1);
  EXPECT_EQ(fired_any, 3);
}

TEST(RuleEngineTest, ConditionGuardsAction) {
  active::RuleEngine engine;
  int fired = 0;
  active::Rule rule("guarded", 0);
  rule.When([](const active::RuleContext& ctx) -> Result<bool> {
        return ctx.now >= 10;
      })
      .Do([&](const active::RuleContext&) {
        ++fired;
        return Status::OK();
      });
  RTIC_ASSERT_OK(engine.AddRule(std::move(rule)));
  Database state;
  (void)Unwrap(engine.ProcessTransition(state, 5));
  (void)Unwrap(engine.ProcessTransition(state, 10));
  EXPECT_EQ(fired, 1);
}

TEST(RuleEngineTest, ContextCarriesTimestamps) {
  active::RuleEngine engine;
  std::vector<std::pair<Timestamp, Timestamp>> seen;
  active::Rule rule("observer", 0);
  rule.Do([&](const active::RuleContext& ctx) {
    seen.emplace_back(ctx.now, ctx.has_prev ? ctx.prev : -1);
    return Status::OK();
  });
  RTIC_ASSERT_OK(engine.AddRule(std::move(rule)));
  Database state;
  (void)Unwrap(engine.ProcessTransition(state, 3));
  (void)Unwrap(engine.ProcessTransition(state, 7));
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], (std::pair<Timestamp, Timestamp>{3, -1}));
  EXPECT_EQ(seen[1], (std::pair<Timestamp, Timestamp>{7, 3}));
}

TEST(RuleEngineTest, ActionsMutateTheStore) {
  active::RuleEngine engine;
  RTIC_ASSERT_OK(
      engine.mutable_store()->CreateTable("log", IntSchema({"t"})));
  active::Rule rule("logger", 0);
  rule.Do([](const active::RuleContext& ctx) {
    return ctx.store->GetMutableTable("log")
        .value()
        ->Insert(T(I(ctx.now)))
        .status();
  });
  RTIC_ASSERT_OK(engine.AddRule(std::move(rule)));
  Database state;
  (void)Unwrap(engine.ProcessTransition(state, 1));
  (void)Unwrap(engine.ProcessTransition(state, 2));
  EXPECT_EQ(Unwrap(engine.store().GetTable("log"))->size(), 2u);
}

TEST(RuleEngineTest, RejectsDuplicateRules) {
  active::RuleEngine engine;
  RTIC_ASSERT_OK(engine.AddRule(active::Rule("r", 0)));
  EXPECT_EQ(engine.AddRule(active::Rule("r", 0)).code(),
            StatusCode::kAlreadyExists);
  RTIC_ASSERT_OK(engine.AddRule(active::Rule("r", 1)));  // other priority ok
}

TEST(RuleEngineTest, RejectsNonMonotonicTime) {
  active::RuleEngine engine;
  Database state;
  (void)Unwrap(engine.ProcessTransition(state, 5));
  EXPECT_FALSE(engine.ProcessTransition(state, 5).ok());
  EXPECT_FALSE(engine.ProcessTransition(state, 4).ok());
}

TEST(RuleEngineTest, ActionErrorAborts) {
  active::RuleEngine engine;
  int later_fired = 0;
  active::Rule bad("bad", 0);
  bad.Do([](const active::RuleContext&) {
    return Status::Internal("kaboom");
  });
  active::Rule after("after", 1);
  after.Do([&](const active::RuleContext&) {
    ++later_fired;
    return Status::OK();
  });
  RTIC_ASSERT_OK(engine.AddRule(std::move(bad)));
  RTIC_ASSERT_OK(engine.AddRule(std::move(after)));
  Database state;
  EXPECT_FALSE(engine.ProcessTransition(state, 1).ok());
  EXPECT_EQ(later_fired, 0);
}

// ---- ActiveEngine (constraint -> trigger program) --------------------------------

TEST(ActiveEngineTest, GeneratesOneRulePerTemporalNodePlusCheck) {
  tl::FormulaPtr f = Unwrap(tl::ParseFormula(
      "forall a: P(a) implies once[0, 3] previous Q(a)"));
  tl::PredicateCatalog catalog{{"P", IntSchema({"a"})},
                               {"Q", IntSchema({"a"})}};
  auto engine = Unwrap(ActiveEngine::Create(*f, catalog));
  // previous + once maintenance rules, then the check rule.
  ASSERT_EQ(engine->rule_engine().rules().size(), 3u);
  EXPECT_EQ(engine->rule_engine().rules().back().name(), "check_constraint");
}

TEST(ActiveEngineTest, StoreTablesRealizeTheEncoding) {
  tl::FormulaPtr f =
      Unwrap(tl::ParseFormula("forall a: P(a) implies once[0, 3] Q(a)"));
  tl::PredicateCatalog catalog{{"P", IntSchema({"a"})},
                               {"Q", IntSchema({"a"})}};
  auto engine = Unwrap(ActiveEngine::Create(*f, catalog));
  const Database& store = engine->rule_engine().store();
  EXPECT_TRUE(store.HasTable("cur_0"));
  EXPECT_TRUE(store.HasTable("aux_0"));
  EXPECT_TRUE(store.HasTable("__violations"));
}

TEST(ActiveEngineTest, ViolationLogAccumulates) {
  std::map<std::string, Schema> schemas{{"P", IntSchema({"a"})},
                                        {"Q", IntSchema({"a"})}};
  tl::PredicateCatalog catalog{{"P", IntSchema({"a"})},
                               {"Q", IntSchema({"a"})}};
  tl::FormulaPtr f =
      Unwrap(tl::ParseFormula("forall a: P(a) implies once[0, 2] Q(a)"));
  auto engine = Unwrap(ActiveEngine::Create(*f, catalog));

  // Q(1)@1; P(1)@2 ok; P(1)@5 violation (Q too old); P(1)@6 violation.
  for (auto [t, p, q] : {std::tuple<Timestamp, bool, bool>{1, false, true},
                         {2, true, false},
                         {5, true, false},
                         {6, true, false}}) {
    testing::ScenarioStep step{t, {}};
    if (p) step.tables["P"] = {T(I(1))};
    if (q) step.tables["Q"] = {T(I(1))};
    Database state = Unwrap(testing::BuildState(schemas, step));
    (void)Unwrap(engine->OnTransition(state, t));
  }
  EXPECT_EQ(engine->ViolationLog(), (std::vector<Timestamp>{5, 6}));
}

// A constraint proved domain-free keeps no active domain; one whose
// falsification complements an atom over the domain keeps tracking it.
TEST(ActiveEngineTest, OnlyDomainDependentConstraintsTrackTheDomain) {
  std::map<std::string, Schema> schemas{{"P", IntSchema({"a"})},
                                        {"Q", IntSchema({"a"})}};
  tl::PredicateCatalog catalog(schemas.begin(), schemas.end());
  auto free_engine = Unwrap(ActiveEngine::Create(
      *Unwrap(tl::ParseFormula("forall a: P(a) implies once[0, 2] Q(a)")),
      catalog));
  auto dependent_engine = Unwrap(ActiveEngine::Create(
      *Unwrap(tl::ParseFormula("forall a: once[0, 2] Q(a)")), catalog));
  EXPECT_TRUE(free_engine->domain_free());
  EXPECT_FALSE(dependent_engine->domain_free());

  testing::ScenarioStep step{1, {{"P", {T(I(1))}}, {"Q", {T(I(2))}}}};
  Database state = Unwrap(testing::BuildState(schemas, step));
  EXPECT_FALSE(Unwrap(free_engine->OnTransition(state, 1)));
  EXPECT_FALSE(Unwrap(dependent_engine->OnTransition(state, 1)));
  EXPECT_EQ(free_engine->DomainValueCount(), 0u);
  EXPECT_EQ(dependent_engine->DomainValueCount(), 2u);
  EXPECT_EQ(Unwrap(dependent_engine->CurrentCounterexamples(state))
                .SortedRows(),
            (std::vector<Tuple>{T(I(1))}));
}

TEST(ActiveEngineTest, ReservedVariableNameRejected) {
  tl::PredicateCatalog catalog{{"P", IntSchema({"a"})}};
  tl::FormulaPtr f = Unwrap(tl::ParseFormula("forall __ts__: P(__ts__) "
                                             "implies once P(__ts__)"));
  EXPECT_FALSE(ActiveEngine::Create(*f, catalog).ok());
}

}  // namespace
}  // namespace rtic
