#include "automata/nfa.h"

#include <gtest/gtest.h>

#include <functional>
#include <set>

#include "automata/epsilon_removal.h"
#include "automata/reference_matcher.h"
#include "automata/thompson.h"
#include "common/rng.h"
#include "test_util.h"

namespace omega {
namespace {

using testing::Rx;

LabelDictionary MakeLabels(const std::vector<std::string>& names) {
  LabelDictionary dict;
  for (const auto& n : names) dict.Intern(n);
  return dict;
}

/// All step-sequences of length <= max_len accepted by `nfa` at zero cost
/// (enumerated by brute-force search over the transition graph).
std::set<std::vector<LabelStep>> ZeroCostLanguage(
    const Nfa& nfa, const LabelDictionary& dict, size_t max_len) {
  std::set<std::vector<LabelStep>> lang;
  std::vector<LabelStep> current;
  std::function<void(StateId)> walk = [&](StateId s) {
    if (nfa.IsFinal(s) && nfa.FinalWeight(s) == 0) lang.insert(current);
    if (current.size() >= max_len) return;
    for (const NfaTransition& t : nfa.Out(s)) {
      if (t.cost != 0) continue;
      switch (t.kind) {
        case TransitionKind::kEpsilon:
          walk(t.to);  // zero-cost ε: language-equivalent hop
          break;
        case TransitionKind::kLabel:
          if (t.label == kInvalidLabel) break;
          current.push_back({std::string(dict.Name(t.label)), t.dir});
          walk(t.to);
          current.pop_back();
          break;
        case TransitionKind::kAnyLabel:
          for (LabelId l = 0; l < dict.size(); ++l) {
            current.push_back({std::string(dict.Name(l)), t.dir});
            walk(t.to);
            current.pop_back();
          }
          break;
        default:
          break;
      }
    }
  };
  walk(nfa.initial());
  return lang;
}

TEST(ThompsonTest, SingleLabel) {
  LabelDictionary dict = MakeLabels({"a"});
  Nfa nfa = BuildThompsonNfa(*Rx("a"), dict);
  EXPECT_TRUE(nfa.HasEpsilonTransitions() == false);  // single transition
  EXPECT_EQ(nfa.NumTransitions(), 1u);
}

TEST(ThompsonTest, UnknownLabelBecomesInvalid) {
  LabelDictionary dict = MakeLabels({});
  Nfa nfa = BuildThompsonNfa(*Rx("zzz"), dict);
  bool found = false;
  for (StateId s = 0; s < nfa.NumStates(); ++s) {
    for (const NfaTransition& t : nfa.Out(s)) {
      if (t.kind == TransitionKind::kLabel) {
        EXPECT_EQ(t.label, kInvalidLabel);
        found = true;
      }
    }
  }
  EXPECT_TRUE(found);
}

TEST(EpsilonRemovalTest, RemovesAllEpsilons) {
  LabelDictionary dict = MakeLabels({"a", "b"});
  Nfa nfa = BuildThompsonNfa(*Rx("(a|b)*.a"), dict);
  EXPECT_TRUE(nfa.HasEpsilonTransitions());
  Nfa clean = RemoveEpsilons(nfa);
  EXPECT_FALSE(clean.HasEpsilonTransitions());
}

TEST(EpsilonRemovalTest, EpsilonRegexAcceptsEmptyOnly) {
  LabelDictionary dict = MakeLabels({"a"});
  Nfa clean = RemoveEpsilons(BuildThompsonNfa(*Rx("()"), dict));
  EXPECT_TRUE(clean.IsFinal(clean.initial()));
  EXPECT_EQ(clean.FinalWeight(clean.initial()), 0);
  EXPECT_EQ(ZeroCostLanguage(clean, dict, 2).size(), 1u);  // just ε
}

TEST(EpsilonRemovalTest, CostlyEpsilonBecomesFinalWeight) {
  // s0 --a--> s1 --ε/3--> s2(final): after removal s1 is final with w=3.
  Nfa nfa;
  const StateId s0 = nfa.AddState();
  const StateId s1 = nfa.AddState();
  const StateId s2 = nfa.AddState();
  nfa.SetInitial(s0);
  nfa.AddLabel(s0, s1, 1, Direction::kOutgoing);
  nfa.AddEpsilon(s1, s2, 3);
  nfa.MakeFinal(s2, 0);
  Nfa clean = RemoveEpsilons(nfa);
  bool found_weighted_final = false;
  for (StateId s = 0; s < clean.NumStates(); ++s) {
    if (clean.IsFinal(s) && clean.FinalWeight(s) == 3) {
      found_weighted_final = true;
    }
  }
  EXPECT_TRUE(found_weighted_final);
}

TEST(EpsilonRemovalTest, ChainedCostlyEpsilonsTakeCheapestPath) {
  // Two ε-paths to the final state: 2+2 and 3; the final weight must be 3...
  // and with a direct 1-cost ε, 1.
  Nfa nfa;
  const StateId s0 = nfa.AddState();
  const StateId mid = nfa.AddState();
  const StateId fin = nfa.AddState();
  nfa.SetInitial(s0);
  nfa.AddEpsilon(s0, mid, 2);
  nfa.AddEpsilon(mid, fin, 2);
  nfa.AddEpsilon(s0, fin, 3);
  nfa.MakeFinal(fin, 0);
  Nfa clean = RemoveEpsilons(nfa);
  EXPECT_TRUE(clean.IsFinal(clean.initial()));
  EXPECT_EQ(clean.FinalWeight(clean.initial()), 3);
}

TEST(EpsilonRemovalTest, PrunesDeadStates) {
  LabelDictionary dict = MakeLabels({"a", "b"});
  // b-branch of the alternation is reachable but (a|b) is fine; build an NFA
  // with an extra unreachable state manually.
  Nfa nfa = BuildThompsonNfa(*Rx("a"), dict);
  const StateId dead = nfa.AddState();
  nfa.AddLabel(dead, dead, 0, Direction::kOutgoing);
  Nfa clean = RemoveEpsilons(nfa);
  EXPECT_LT(clean.NumStates(), nfa.NumStates());
}

TEST(NfaTest, MinPositiveCost) {
  Nfa nfa;
  const StateId s0 = nfa.AddState();
  const StateId s1 = nfa.AddState();
  nfa.SetInitial(s0);
  nfa.AddLabel(s0, s1, 0, Direction::kOutgoing, 0);
  EXPECT_EQ(nfa.MinPositiveCost(), kInfiniteCost);
  nfa.AddAnyBothDirs(s0, s0, 5);
  nfa.AddEpsilon(s0, s1, 2);
  EXPECT_EQ(nfa.MinPositiveCost(), 2);
  nfa.MakeFinal(s1, 1);
  EXPECT_EQ(nfa.MinPositiveCost(), 1);
  // Per state, moves only: a final weight is not a move.
  EXPECT_EQ(nfa.MinPositiveMove(s0), 2);
  EXPECT_EQ(nfa.MinPositiveMove(s1), kInfiniteCost);
}

TEST(NfaTest, SortGroupsSameNeighborTransitions) {
  Nfa nfa;
  const StateId s0 = nfa.AddState();
  const StateId s1 = nfa.AddState();
  const StateId s2 = nfa.AddState();
  nfa.SetInitial(s0);
  nfa.AddLabel(s0, s1, 3, Direction::kOutgoing, 1);
  nfa.AddAnyBothDirs(s0, s2, 1);
  nfa.AddLabel(s0, s2, 3, Direction::kOutgoing, 0);
  nfa.AddLabel(s0, s1, 2, Direction::kIncoming, 0);
  nfa.SortTransitions();
  auto out = nfa.Out(s0);
  ASSERT_EQ(out.size(), 4u);
  // The two label-3 outgoing transitions must be adjacent, cheapest first.
  bool adjacent = false;
  for (size_t i = 0; i + 1 < out.size(); ++i) {
    if (out[i].SameNeighborGroup(out[i + 1])) {
      adjacent = true;
      EXPECT_LE(out[i].cost, out[i + 1].cost);
    }
  }
  EXPECT_TRUE(adjacent);
}

TEST(NfaTest, DebugStringMentionsStates) {
  LabelDictionary dict = MakeLabels({"a"});
  Nfa nfa = BuildThompsonNfa(*Rx("a+"), dict);
  const std::string dump = nfa.DebugString(&dict);
  EXPECT_NE(dump.find("initial"), std::string::npos);
  EXPECT_NE(dump.find("final"), std::string::npos);
  EXPECT_NE(dump.find("--a"), std::string::npos);
}

class NfaLanguagePropertyTest : public ::testing::TestWithParam<uint64_t> {};

// The central automaton property: after Thompson + ε-removal the zero-cost
// language up to length 4 equals the reference AST matcher's verdicts on
// every candidate path (exhaustively enumerated over a 2-letter alphabet
// with both directions).
TEST_P(NfaLanguagePropertyTest, ThompsonPlusEpsRemovalMatchesAstSemantics) {
  Rng rng(GetParam());
  const std::vector<std::string> labels = {"a", "b"};
  LabelDictionary dict = MakeLabels(labels);

  // All candidate steps over the alphabet (type excluded for clarity).
  std::vector<LabelStep> alphabet_steps;
  for (const auto& l : labels) {
    alphabet_steps.push_back({l, Direction::kOutgoing});
    alphabet_steps.push_back({l, Direction::kIncoming});
  }

  for (int round = 0; round < 12; ++round) {
    RegexPtr regex = testing::RandomRegex(&rng, labels, 2);
    Nfa nfa = RemoveEpsilons(BuildThompsonNfa(*regex, dict));
    ASSERT_FALSE(nfa.HasEpsilonTransitions());
    const auto lang = ZeroCostLanguage(nfa, dict, 3);

    // Exhaustive check over all paths of length <= 3.
    std::function<void(std::vector<LabelStep>&)> check =
        [&](std::vector<LabelStep>& path) {
          const bool expected = RegexMatchesPath(*regex, path);
          const bool got = lang.count(path) > 0;
          EXPECT_EQ(got, expected)
              << ToString(*regex) << " path len " << path.size();
          if (path.size() >= 3) return;
          for (const LabelStep& step : alphabet_steps) {
            path.push_back(step);
            check(path);
            path.pop_back();
          }
        };
    std::vector<LabelStep> path;
    check(path);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NfaLanguagePropertyTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

}  // namespace
}  // namespace omega
