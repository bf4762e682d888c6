//===- kccbench/src/Generators.h - Seeded workload inputs -------*- C++ -*-===//
//
// Part of cundef's benchmark (kccbench).
//
// Every program a workload submits comes from here, with its known
// answer: generated trees know whether they plant undefinedness; suite
// programs take theirs from the suite's bad/good halves, the catalog's
// expected codes, or the desktop manifest.
//
//===----------------------------------------------------------------------===//

#ifndef KCCBENCH_GENERATORS_H
#define KCCBENCH_GENERATORS_H

#include "Common.h"

#include "driver/Request.h"

#include <string>
#include <vector>

namespace kccbench {

/// A deepTreeProgram-shaped tree (bench/BenchUtil.h): \p K commuting
/// pairs of calls that write into a \p Cells-int global array, offset
/// by \p Salt so no two trees share a content address. One more
/// commuting pair, `(10 / d) + setDenom(v)`, sits after pair \p Late;
/// with \p PlantUb, v is 0 and only the right-to-left order of that
/// pair divides by zero, so the search must find the order. Without
/// it, v is 5 and every order is defined; both variants have the same
/// choice points. The program exits 0 when defined.
Program deepTree(unsigned K, unsigned Cells, unsigned Salt, unsigned Late,
                 bool PlantUb, const std::string &Name);

/// One cycle of the search-deep stream: eight trees of fixed sizes, two
/// of them (one of K=9/10, one of K=13/14, seeded) carrying planted
/// late UB, in seeded order. The
/// largest trees' frontiers peak above the 1024-snapshot budget, the
/// smaller ones below it. \p Tiny shrinks every tree.
std::vector<Program> searchDeepCycle(Rng &R, unsigned Cycle, bool Tiny);

/// The suite programs held out of every stream. At the commit that added
/// the benchmark kcc's machine ends the undefinedness suite's
/// ub057_incomplete_array bad half (also catalog row 57's program) with
/// an Internal outcome, so it gets no verdict; a workload must run
/// without failed requests, so the streams leave it out, and each run
/// of ci-corpus and serve-mixed submits it once outside the measured
/// window and notes how it ended (heldOutNote).
std::vector<Program> heldOut();

/// Submits every held-out program to \p Eng under \p Req and says how
/// each ended: its status, and whether that matches its known answer.
std::string heldOutNote(cundef::AnalysisEngine &Eng,
                        const cundef::AnalysisRequest &Req);

/// The ci-corpus inputs: the Juliet-like suite at paper scale (bad and
/// good halves), the undefinedness suite, the expressible catalog
/// coverage cases and the desktop suite, shuffled by \p R. \p Tiny
/// takes a small seeded slice. Returns false with \p Err when the
/// desktop suite cannot be read.
bool ciCorpus(Rng &R, bool Tiny, const std::string &DesktopDir,
              std::vector<Program> &Out, std::string &Err);

/// The serve-mixed stream. The hot set (small trees and Juliet-like
/// programs, each inside a file-sized module of unused helpers) is
/// warmed during set-up; every block of ten requests a client sends is
/// eight hot programs and two fresh ones (a medium tree or a renamed
/// suite program), in seeded order. Fresh programs are unique across
/// the whole run.
class ServeStream {
public:
  ServeStream(uint64_t Seed, bool Tiny);
  const std::vector<Program> &hotSet() const { return Hot; }
  /// The next request of client \p Client.
  Program next(unsigned Client);

private:
  Program fresh(Rng &R, unsigned Client);

  std::vector<Program> Hot;
  std::vector<Program> SuitePool; ///< suite programs fresh ones copy
  std::vector<Rng> Clients;
  std::vector<std::vector<char>> Blocks; ///< per client: pending block
  std::vector<uint64_t> Issued;          ///< per client: requests so far
  bool Tiny;
};

} // namespace kccbench

#endif // KCCBENCH_GENERATORS_H
