//===- suites/CatalogCoverage.h - The UB-catalog coverage harness -*- C++ -*-===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Turns the 221-entry catalog (ub/Catalog.h) from documentation into a
/// tested contract. For every catalog row the generator carries one
/// *minimal triggering program* where the behavior is expressible
/// within the modelled language/library subset; the harness runs all of
/// them batched through one persistent AnalysisEngine and grades each
/// row:
///
///  * **covered**       -- the evaluator flagged the triggering program
///                         with a matching catalog code,
///  * **wrong-code**    -- flagged, but under a code the row does not
///                         answer to,
///  * **missed**        -- not flagged at all (including programs our
///                         frontend rejects without a UB report),
///  * **inexpressible** -- no triggering program exists inside the
///                         modelled subset (the case records why).
///
/// Matching: rows 1-51 mirror a UbKind enumerator and match exactly
/// that code. Rows without an enumerator of their own list the codes
/// the evaluator legitimately names the behavior under (e.g. row 64,
/// "array subscript out of range", is reported as code 9/10 — the
/// catalog deliberately splits one clause into several rows). The
/// alias sets are part of the generator table, chosen from the C11
/// clause, never from whatever the evaluator happened to report.
///
/// The verdicts surface three ways: `kcc --catalog-coverage` (human
/// table), the `coverage` block of the cundef-kcc-v1 JSON schema, and
/// the Coverage column of docs/UB_CATALOG.md — all three render the
/// same CoverageReport, and the catalog_coverage ctest gates the
/// covered count against tests/suites/coverage_baseline.txt so
/// detector work can only move it up.
///
/// Convention: a new UbKind must ship a triggering program here (and
/// the unit tests fail the build of a kind whose row is not covered),
/// so the catalog and the detectors can never drift apart again.
///
//===----------------------------------------------------------------------===//

#ifndef CUNDEF_SUITES_CATALOGCOVERAGE_H
#define CUNDEF_SUITES_CATALOGCOVERAGE_H

#include "driver/Request.h"
#include "ub/Catalog.h"

#include <cstdint>
#include <string>
#include <vector>

namespace cundef {

class AnalysisEngine;

/// One catalog row's triggering program (or the reason none exists).
struct CoverageCase {
  uint16_t Id = 0;
  /// The minimal triggering program; empty when the row is
  /// inexpressible in the modelled subset.
  std::string Program;
  /// Catalog codes the evaluator may report this row's behavior under.
  /// {Id} for rows mirroring a UbKind; explicit alias sets otherwise.
  std::vector<uint16_t> ExpectedCodes;
  /// Why the row is inexpressible, or the alias rationale.
  const char *Note = "";

  bool expressible() const { return !Program.empty(); }
};

/// The generator: exactly one case per catalog row, ordered by id
/// (index = id - 1). Rows present in the custom undefinedness suite
/// reuse that suite's first undefined program, so the coverage
/// contract and the scored suite can never test different programs.
const std::vector<CoverageCase> &catalogCoverageCases();

enum class CoverageVerdict : uint8_t {
  Covered,
  WrongCode,
  Missed,
  Inexpressible,
};

const char *coverageVerdictName(CoverageVerdict V);

/// Which analysis layer produced a covered row's matching finding:
/// the static pass alone, the dynamic search alone, or both
/// independently. None for rows that are not covered.
enum class CoverageSource : uint8_t { None, Static, Dynamic, Both };

const char *coverageSourceName(CoverageSource S);

/// One row's graded outcome.
struct EntryCoverage {
  uint16_t Id = 0;
  CoverageVerdict Verdict = CoverageVerdict::Inexpressible;
  /// The first *matching* code the evaluator reported on the
  /// triggering program; falls back to the first reported code on
  /// wrong-code rows (0 when it reported nothing).
  uint16_t ReportedCode = 0;
  /// Layer attribution for covered rows (None otherwise).
  CoverageSource Source = CoverageSource::None;
};

/// The whole catalog, graded. Entries are ordered by id and always
/// number exactly catalogStats().Total; the four counts partition them.
/// CoveredStatic/CoveredDynamic/CoveredBoth partition Covered by which
/// layer produced the matching finding.
struct CoverageReport {
  std::vector<EntryCoverage> Entries;
  unsigned Covered = 0;
  unsigned CoveredStatic = 0;
  unsigned CoveredDynamic = 0;
  unsigned CoveredBoth = 0;
  unsigned WrongCode = 0;
  unsigned Missed = 0;
  unsigned Inexpressible = 0;
  double WallMs = 0.0;

  unsigned total() const {
    return Covered + WrongCode + Missed + Inexpressible;
  }
  const EntryCoverage *entry(uint16_t Id) const {
    return Id >= 1 && Id <= Entries.size() ? &Entries[Id - 1] : nullptr;
  }
};

/// Runs every expressible case batched through \p Eng under \p Req and
/// grades the catalog. Verdicts are deterministic: they never depend on
/// worker count or on what else the engine is running
/// (the committed-output determinism contract of core/Scheduler.h).
CoverageReport runCatalogCoverage(AnalysisEngine &Eng,
                                  const AnalysisRequest &Req);

/// Convenience: one dedicated engine for the whole sweep.
CoverageReport runCatalogCoverage(const AnalysisRequest &Req);

/// The harness request the CLI and the docs renderer share: \p Quick
/// caps the per-program search budget at 4 runs (the ctest gate's
/// budget); full mode searches 64 orders per program. Verdicts agree
/// in practice — the triggering programs misbehave on their default
/// order — but full mode is the reference.
AnalysisRequest coverageRequest(bool Quick);

/// Renders the human table `kcc --catalog-coverage` prints: one line
/// per non-covered row plus the summary counts. The final line is the
/// stable machine-greppable summary
/// `coverage: covered=N wrong-code=N missed=N inexpressible=N total=N
/// static=A dynamic=B both=C` that cmake/CheckCoverageBaseline.cmake
/// parses (the trailing attribution triple partitions covered).
std::string renderCoverageReport(const CoverageReport &R);

/// The docs annotation: one cell per row ("covered (static)",
/// "covered (both)", "wrong-code (reports 00019)", ...) for
/// renderCatalogMarkdown's Coverage column.
CatalogCoverageColumn coverageColumn(const CoverageReport &R);

/// The `coverage` document of the cundef-kcc-v1 schema
/// (docs/JSON_OUTPUT.md): summary counts plus one entry per row with
/// id, verdict, reported/expected codes, and the inexpressibility or
/// alias note. \p Mode is echoed verbatim ("quick", "full", or the
/// explicit budget).
std::string renderCoverageJson(const CoverageReport &R, const char *Mode,
                               double WallMs);

} // namespace cundef

#endif // CUNDEF_SUITES_CATALOGCOVERAGE_H
