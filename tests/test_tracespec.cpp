//===- tests/test_tracespec.cpp - Trace-predicate tests -----------------------==//
//
// Part of the b2stack project (PLDI 2021 reproduction).
//
//===----------------------------------------------------------------------===//

#include "tracespec/Matcher.h"
#include "tracespec/Spec.h"

#include "support/Rng.h"

#include <functional>
#include <gtest/gtest.h>

using namespace b2;
using namespace b2::tracespec;

namespace {

Event ldEv(Word Addr, Word Value) {
  return Event{/*IsStore=*/false, Addr, Value, 4};
}
Event stEv(Word Addr, Word Value) {
  return Event{/*IsStore=*/true, Addr, Value, 4};
}

/// A tiny alphabet for property tests: events at addresses 0..2.
Spec sym(unsigned K) {
  return Spec::sym("sym" + std::to_string(K), [K](const Event &E) {
    return E.Addr == K;
  });
}

Trace word(std::initializer_list<unsigned> Ks) {
  Trace T;
  for (unsigned K : Ks)
    T.push_back(ldEv(K, 0));
  return T;
}

} // namespace

TEST(Spec, EpsMatchesOnlyEmpty) {
  Matcher M(Spec::eps());
  EXPECT_TRUE(M.matches({}));
  EXPECT_FALSE(M.matches(word({0})));
  EXPECT_TRUE(M.acceptsPrefix({}));
  EXPECT_FALSE(M.acceptsPrefix(word({0})));
}

TEST(Spec, SingleSymbol) {
  Matcher M(sym(1));
  EXPECT_FALSE(M.matches({}));
  EXPECT_TRUE(M.matches(word({1})));
  EXPECT_FALSE(M.matches(word({2})));
  EXPECT_FALSE(M.matches(word({1, 1})));
  EXPECT_TRUE(M.acceptsPrefix({}));
  EXPECT_TRUE(M.acceptsPrefix(word({1})));
  EXPECT_FALSE(M.acceptsPrefix(word({2})));
}

TEST(Spec, ConcatOrdersEvents) {
  Matcher M(sym(0) + sym(1));
  EXPECT_TRUE(M.matches(word({0, 1})));
  EXPECT_FALSE(M.matches(word({1, 0})));
  EXPECT_FALSE(M.matches(word({0})));
  EXPECT_TRUE(M.acceptsPrefix(word({0})));
}

TEST(Spec, AltTakesEither) {
  Matcher M(sym(0) | sym(1));
  EXPECT_TRUE(M.matches(word({0})));
  EXPECT_TRUE(M.matches(word({1})));
  EXPECT_FALSE(M.matches(word({2})));
  EXPECT_FALSE(M.matches(word({0, 1})));
}

TEST(Spec, StarRepeats) {
  Matcher M(Spec::star(sym(0) + sym(1)));
  EXPECT_TRUE(M.matches({}));
  EXPECT_TRUE(M.matches(word({0, 1})));
  EXPECT_TRUE(M.matches(word({0, 1, 0, 1, 0, 1})));
  EXPECT_FALSE(M.matches(word({0, 1, 0})));
  EXPECT_TRUE(M.acceptsPrefix(word({0, 1, 0})));
  EXPECT_FALSE(M.acceptsPrefix(word({1})));
}

TEST(Spec, PlusRequiresOne) {
  Matcher M(Spec::plus(sym(2)));
  EXPECT_FALSE(M.matches({}));
  EXPECT_TRUE(M.matches(word({2})));
  EXPECT_TRUE(M.matches(word({2, 2, 2})));
}

TEST(Spec, RepeatExactCount) {
  Matcher M(Spec::repeat(sym(1), 3));
  EXPECT_FALSE(M.matches(word({1, 1})));
  EXPECT_TRUE(M.matches(word({1, 1, 1})));
  EXPECT_FALSE(M.matches(word({1, 1, 1, 1})));
}

TEST(Spec, ExBoolIsUnionOfInstantiations) {
  Spec S = exBool([](bool B) { return B ? sym(1) : sym(0); });
  Matcher M(S);
  EXPECT_TRUE(M.matches(word({0})));
  EXPECT_TRUE(M.matches(word({1})));
  EXPECT_FALSE(M.matches(word({2})));
}

TEST(Spec, ValuePredicatesConstrainEvents) {
  Spec S = ldWhere("flag read", 0x100, [](Word V) { return V & 0x80; });
  Matcher M(S);
  EXPECT_TRUE(M.matches({ldEv(0x100, 0x80)}));
  EXPECT_FALSE(M.matches({ldEv(0x100, 0x00)}));
  EXPECT_FALSE(M.matches({stEv(0x100, 0x80)}));
  EXPECT_FALSE(M.matches({ldEv(0x104, 0x80)}));
}

TEST(Spec, StoreLeafMatchesExactValue) {
  Matcher M(st("gpio", 0x200, 42));
  EXPECT_TRUE(M.matches({stEv(0x200, 42)}));
  EXPECT_FALSE(M.matches({stEv(0x200, 43)}));
  EXPECT_FALSE(M.matches({ldEv(0x200, 42)}));
}

TEST(Spec, NondeterministicOverlapResolved) {
  // (a a) | (a b): after one 'a' both alternatives are alive.
  Matcher M((sym(0) + sym(0)) | (sym(0) + sym(1)));
  EXPECT_TRUE(M.matches(word({0, 0})));
  EXPECT_TRUE(M.matches(word({0, 1})));
  EXPECT_TRUE(M.acceptsPrefix(word({0})));
  EXPECT_FALSE(M.matches(word({0, 2})));
}

TEST(Spec, StarOfAlternation) {
  // The shape of goodHlTrace's iteration: (A | B | C)^*.
  Spec S = Spec::star((sym(0) + sym(1)) | sym(2));
  Matcher M(S);
  EXPECT_TRUE(M.matches(word({2, 0, 1, 2, 2, 0, 1})));
  EXPECT_FALSE(M.matches(word({2, 0, 2})));
  EXPECT_TRUE(M.acceptsPrefix(word({2, 0})));
}

TEST(Matcher, DiagnosisReportsDeathPoint) {
  Matcher M(sym(0) + sym(1) + sym(2));
  MatchDiagnosis D = M.diagnose(word({0, 2}));
  EXPECT_FALSE(D.PrefixAccepted);
  EXPECT_EQ(D.DeadAt, 1u);
  ASSERT_FALSE(D.ExpectedHere.empty());
  EXPECT_EQ(D.ExpectedHere[0], "sym1");
}

TEST(Matcher, DiagnosisOnAcceptedTrace) {
  Matcher M(Spec::star(sym(0)));
  MatchDiagnosis D = M.diagnose(word({0, 0}));
  EXPECT_TRUE(D.Accepted);
  EXPECT_TRUE(D.PrefixAccepted);
}

// -- Streaming (online) matching ---------------------------------------------

TEST(MatcherStream, EmptyTraceState) {
  // Before any event: alive always; accepted iff the spec is nullable.
  Matcher Star(Spec::star(sym(0)));
  Matcher::Stream S1(Star);
  EXPECT_TRUE(S1.alive());
  EXPECT_TRUE(S1.accepted());
  EXPECT_EQ(S1.consumed(), 0u);

  Matcher One(sym(1));
  Matcher::Stream S2(One);
  EXPECT_TRUE(S2.alive());
  EXPECT_FALSE(S2.accepted());
  EXPECT_FALSE(S2.expectedHere().empty());
}

TEST(MatcherStream, ViolationAtFirstEvent) {
  Matcher M(sym(0) + sym(1));
  Matcher::Stream S(M);
  EXPECT_FALSE(S.feed(ldEv(2, 0)));
  EXPECT_FALSE(S.alive());
  EXPECT_EQ(S.consumed(), 0u);
  ASSERT_FALSE(S.expectedHere().empty());
  EXPECT_EQ(S.expectedHere()[0], "sym0");
  // Dead streams stay dead; feeding the event that would have been legal
  // from the start must not revive them.
  EXPECT_FALSE(S.feed(ldEv(0, 0)));
  EXPECT_EQ(S.consumed(), 0u);
}

TEST(MatcherStream, PrefixClosureAtEveryCutPoint) {
  // The shape of goodHlTrace's body: iterated alternation. Feeding an
  // accepted word event by event must keep the stream alive at every cut
  // point and agree with the batch API at each one.
  Spec Body = Spec::star((sym(0) + sym(1)) | sym(2));
  Matcher M(Body);
  Trace T = word({2, 0, 1, 2, 0, 1, 0, 1, 2});
  Matcher::Stream S(M);
  for (size_t K = 0; K != T.size(); ++K) {
    ASSERT_TRUE(S.feed(T[K])) << "died at event " << K;
    Trace P(T.begin(), T.begin() + K + 1);
    ASSERT_TRUE(S.alive());
    ASSERT_EQ(S.accepted(), M.matches(P)) << "cut point " << K + 1;
    ASSERT_TRUE(M.acceptsPrefix(P));
    ASSERT_EQ(S.consumed(), K + 1);
  }
  EXPECT_TRUE(S.accepted());
}

TEST(MatcherStream, ResetRewindsToEmptyTrace) {
  Matcher M(sym(0) + sym(1));
  Matcher::Stream S(M);
  EXPECT_FALSE(S.feed(ldEv(1, 0)));
  S.reset();
  EXPECT_TRUE(S.alive());
  EXPECT_EQ(S.consumed(), 0u);
  EXPECT_TRUE(S.feed(ldEv(0, 0)));
  EXPECT_TRUE(S.feed(ldEv(1, 0)));
  EXPECT_TRUE(S.accepted());
}

TEST(MatcherStream, FuzzedAgreesWithBatchApis) {
  // Random specs, random traces: after feeding any trace, the stream's
  // verdicts must equal the batch matcher's on the same prefix, and the
  // death point must equal the whole-trace diagnosis's DeadAt.
  support::Rng Rng(0x57AE);
  std::function<Spec(unsigned)> Gen = [&](unsigned Depth) -> Spec {
    if (Depth == 0)
      return sym(unsigned(Rng.below(3)));
    switch (Rng.below(5)) {
    case 0:
      return sym(unsigned(Rng.below(3)));
    case 1:
      return Spec::eps();
    case 2:
      return Gen(Depth - 1) + Gen(Depth - 1);
    case 3:
      return Gen(Depth - 1) | Gen(Depth - 1);
    default:
      return Spec::star(Gen(Depth - 1));
    }
  };
  for (int Round = 0; Round != 60; ++Round) {
    Spec S = Gen(3);
    Matcher M(S);
    Trace T;
    size_t Len = Rng.below(8);
    for (size_t I = 0; I != Len; ++I)
      T.push_back(ldEv(Word(Rng.below(3)), 0));

    Matcher::Stream St(M);
    for (size_t K = 0; K != T.size(); ++K) {
      bool Fed = St.feed(T[K]);
      Trace P(T.begin(), T.begin() + K + 1);
      ASSERT_EQ(St.alive(), M.acceptsPrefix(P)) << "round " << Round;
      ASSERT_EQ(Fed, St.alive()) << "round " << Round;
      if (St.alive()) {
        ASSERT_EQ(St.accepted(), M.matches(P)) << "round " << Round;
      }
    }
    MatchDiagnosis D = M.diagnose(T);
    ASSERT_EQ(St.alive(), D.PrefixAccepted) << "round " << Round;
    ASSERT_EQ(St.consumed(), D.DeadAt) << "round " << Round;
    if (St.alive())
      ASSERT_EQ(St.accepted(), D.Accepted) << "round " << Round;
    else
      ASSERT_EQ(St.expectedHere(), D.ExpectedHere) << "round " << Round;
  }
}

namespace {

/// Brute-force reference: enumerate all traces of length <= N over the
/// 3-symbol alphabet and compare matcher verdicts with a recursive
/// derivative-style evaluator.
bool refMatches(const detail::Node *N, const Trace &T, size_t Lo, size_t Hi);

bool refMatches(const detail::Node *N, const Trace &T, size_t Lo,
                size_t Hi) {
  switch (N->K) {
  case detail::Node::Kind::Eps:
    return Lo == Hi;
  case detail::Node::Kind::Sym:
    return Hi == Lo + 1 && N->Pred(T[Lo]);
  case detail::Node::Kind::Concat:
    for (size_t Mid = Lo; Mid <= Hi; ++Mid)
      if (refMatches(N->A.get(), T, Lo, Mid) &&
          refMatches(N->B.get(), T, Mid, Hi))
        return true;
    return false;
  case detail::Node::Kind::Alt:
    return refMatches(N->A.get(), T, Lo, Hi) ||
           refMatches(N->B.get(), T, Lo, Hi);
  case detail::Node::Kind::Star:
    if (Lo == Hi)
      return true;
    for (size_t Mid = Lo + 1; Mid <= Hi; ++Mid)
      if (refMatches(N->A.get(), T, Lo, Mid) && refMatches(N, T, Mid, Hi))
        return true;
    return false;
  }
  return false;
}

} // namespace

TEST(Matcher, PropertyAgreesWithBruteForce) {
  support::Rng Rng(0x7ACE);
  for (int Round = 0; Round != 40; ++Round) {
    // Random small spec over symbols {0,1,2}.
    std::function<Spec(unsigned)> Gen = [&](unsigned Depth) -> Spec {
      if (Depth == 0)
        return sym(unsigned(Rng.below(3)));
      switch (Rng.below(5)) {
      case 0:
        return sym(unsigned(Rng.below(3)));
      case 1:
        return Spec::eps();
      case 2:
        return Gen(Depth - 1) + Gen(Depth - 1);
      case 3:
        return Gen(Depth - 1) | Gen(Depth - 1);
      default:
        return Spec::star(Gen(Depth - 1));
      }
    };
    Spec S = Gen(3);
    Matcher M(S);
    // All traces of length 0..4 over the alphabet.
    for (unsigned Len = 0; Len <= 4; ++Len) {
      unsigned Count = 1;
      for (unsigned I = 0; I != Len; ++I)
        Count *= 3;
      for (unsigned Code = 0; Code != Count; ++Code) {
        Trace T;
        unsigned C = Code;
        for (unsigned I = 0; I != Len; ++I) {
          T.push_back(ldEv(C % 3, 0));
          C /= 3;
        }
        bool Ref = refMatches(S.node().get(), T, 0, T.size());
        ASSERT_EQ(M.matches(T), Ref)
            << "round " << Round << " len " << Len << " code " << Code;
        // Prefix soundness: if accepted, every prefix must be accepted
        // as a prefix.
        if (Ref) {
          for (size_t K = 0; K <= T.size(); ++K) {
            Trace P(T.begin(), T.begin() + K);
            ASSERT_TRUE(M.acceptsPrefix(P));
          }
        }
      }
    }
  }
}
