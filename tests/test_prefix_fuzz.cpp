//===- tests/test_prefix_fuzz.cpp - Fuzz the include prefix ------------------===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//
//
// A fixed-seed mutation fuzz of the leading lines of the desktop and
// undefinedness suite sources, where the preprocessor's prefix
// snapshot decides what to cache. Each mutant deletes, duplicates or
// splices tokens (or moves a line break) in those lines; it is then
// preprocessed twice against one long-lived registry (the second run
// replays whatever the first published) and once against a fresh
// registry, and the three must render the same tokens, diagnostics
// and interned names. Every mutant must also finish within a time
// bound.
//
//===----------------------------------------------------------------------===//

#include "PrefixProbe.h"

#include "suites/DesktopSuite.h"
#include "suites/UndefSuite.h"

#include <gtest/gtest.h>

#include <cctype>
#include <chrono>
#include <random>

using namespace cundef;

namespace {

/// One token-sized piece of a source's leading lines.
struct Piece {
  std::string Text;
  bool LineStart = false;
};

/// A source split into its leading lines, as pieces, and the rest.
struct Split {
  std::vector<Piece> Head;
  std::string Tail;
};

/// The leading lines are every line up to and including the first one
/// that is neither blank, a directive nor a comment. They are cut into
/// words, string literals and single punctuation characters; a piece
/// never spans a line.
Split splitHead(const std::string &Source) {
  Split S;
  size_t Pos = 0;
  while (Pos < Source.size()) {
    size_t Eol = Source.find('\n', Pos);
    if (Eol == std::string::npos)
      Eol = Source.size();
    const std::string Line = Source.substr(Pos, Eol - Pos);
    bool First = true;
    for (size_t I = 0; I < Line.size();) {
      const char C = Line[I];
      size_t J = I + 1;
      if (std::isspace(static_cast<unsigned char>(C))) {
        ++I;
        continue;
      }
      if (std::isalnum(static_cast<unsigned char>(C)) || C == '_') {
        while (J < Line.size() &&
               (std::isalnum(static_cast<unsigned char>(Line[J])) ||
                Line[J] == '_'))
          ++J;
      } else if (C == '"') {
        while (J < Line.size() && Line[J] != '"')
          J += Line[J] == '\\' ? 2 : 1;
        J = std::min(J + 1, Line.size());
      }
      S.Head.push_back({Line.substr(I, J - I), First});
      First = false;
      I = J;
    }
    Pos = Eol + 1;
    const size_t Start = Line.find_first_not_of(" \t");
    if (Start != std::string::npos && Line[Start] != '#' &&
        Line.compare(Start, 2, "//") != 0 &&
        Line.compare(Start, 2, "/*") != 0 && Line[Start] != '*')
      break;
  }
  S.Tail = Pos < Source.size() ? Source.substr(Pos) : "";
  return S;
}

std::string join(const std::vector<Piece> &Head, const std::string &Tail) {
  std::string Out;
  for (const Piece &P : Head) {
    if (!Out.empty())
      Out += P.LineStart ? '\n' : ' ';
    Out += P.Text;
  }
  return Out + "\n" + Tail;
}

/// Both halves of every desktop and undefinedness suite pair. Most of
/// them include nothing, and a unit without a leading #include never
/// reaches the cache, so those get a Juliet-style include run in front.
std::vector<std::string> suiteSources() {
  std::vector<std::string> Out;
  auto Add = [&](const std::string &Src) {
    Out.push_back(Src.rfind("#include", 0) == 0
                      ? Src
                      : "#include <stdio.h>\n#include <stdlib.h>\n"
                        "#include <string.h>\n" +
                            Src);
  };
  DesktopSuite Desktop = loadDesktopSuite();
  EXPECT_TRUE(Desktop.ok()) << Desktop.Error;
  for (const DesktopCase &C : Desktop.Cases) {
    Add(C.Test.Bad);
    Add(C.Test.Good);
  }
  for (const TestCase &T : undefSuite()) {
    Add(T.Bad);
    Add(T.Good);
  }
  return Out;
}

TEST(PrefixFuzz, WarmMatchesColdOnMutatedLeadingLines) {
  constexpr unsigned MutantsPerSource = 6;
  constexpr double BoundMs = 1000.0;
  std::mt19937 Rng(20260521);
  auto Below = [&](size_t N) {
    return static_cast<size_t>(Rng() % (N ? N : 1));
  };

  std::vector<Split> Sources;
  std::vector<Piece> Donors;
  for (const std::string &Src : suiteSources()) {
    Sources.push_back(splitHead(Src));
    Donors.insert(Donors.end(), Sources.back().Head.begin(),
                  Sources.back().Head.end());
  }
  ASSERT_FALSE(Donors.empty());

  auto Warm = coldRegistry();
  unsigned Mutants = 0;
  for (const Split &S : Sources) {
    for (unsigned M = 0; M < MutantsPerSource; ++M) {
      std::vector<Piece> Head = S.Head;
      const unsigned Edits = 1 + static_cast<unsigned>(Below(3));
      for (unsigned E = 0; E < Edits; ++E) {
        const size_t At = Below(Head.size() + 1);
        switch (Below(4)) {
        case 0: // delete
          if (At < Head.size())
            Head.erase(Head.begin() + At);
          break;
        case 1: // duplicate
          if (At < Head.size())
            Head.insert(Head.begin() + At, Head[At]);
          break;
        case 2: { // splice a run of donor pieces in
          const size_t From = Below(Donors.size());
          const size_t Len = std::min<size_t>(1 + Below(4),
                                              Donors.size() - From);
          Head.insert(Head.begin() + At, Donors.begin() + From,
                      Donors.begin() + From + Len);
          break;
        }
        default: // move a line break
          if (At < Head.size())
            Head[At].LineStart = !Head[At].LineStart;
        }
      }
      const std::string Mutant = join(Head, S.Tail);
      const auto Start = std::chrono::steady_clock::now();
      const std::string First = preprocessTrace(*Warm, Mutant);
      const std::string Second = preprocessTrace(*Warm, Mutant);
      const std::string Cold = preprocessTrace(*coldRegistry(), Mutant);
      const double Ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - Start)
                            .count();
      ++Mutants;
      EXPECT_EQ(First, Cold) << "mutant:\n" << Mutant;
      EXPECT_EQ(Second, Cold) << "mutant:\n" << Mutant;
      EXPECT_LT(Ms, BoundMs) << "mutant:\n" << Mutant;
      if (HasFailure())
        return; // one reproducer is enough
    }
  }
  const HeaderPrefixStats St = Warm->prefixStats();
  EXPECT_EQ(Mutants, Sources.size() * MutantsPerSource);
  // The fuzz is only worth its time if most mutants reach the cache.
  EXPECT_GT(St.Hits, Mutants / 2);
}

} // namespace
