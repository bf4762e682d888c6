//===- tests/test_json_output.cpp - kcc --json golden document ----------------===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
// The `cundef-kcc-v1` document is an external contract: consumers pin
// its keys, their order and their formatting. This suite renders a
// document in which every counter holds a distinct value and compares
// the whole text against a golden copy, so a key that moves, is
// renamed, or reads the wrong field fails here.
//
//===----------------------------------------------------------------------===//

#include "driver/JsonOutput.h"

#include <gtest/gtest.h>

using namespace cundef;

namespace {

UbReport finding(unsigned Code, const char *Description, unsigned Line,
                 bool Static, FindingVerdict Verdict, const char *Domain) {
  UbReport R(static_cast<UbKind>(Code), Description, "main",
             SourceLoc(1, Line, Line + 2), Static);
  R.Verdict = Verdict;
  R.Domain = Domain;
  return R;
}

// Every per-program field set to a value no other field holds.
DriverOutcome undefinedOutcome() {
  DriverOutcome O;
  O.CompileOk = true;
  O.StaticUb.push_back(finding(33, "unsequenced \"x\"", 3, true,
                               FindingVerdict::Must, "syntactic"));
  O.StaticHints.push_back(
      finding(20, "may read uninitialized", 4, true, FindingVerdict::May,
              "init"));
  O.DynamicUb.push_back(
      finding(1, "division by zero", 5, false, FindingVerdict::None, ""));
  O.Status = RunStatus::UbDetected;
  O.ExitCode = 139;
  O.Output = std::string("out\x01\xff\n", 6);
  O.OrdersExplored = 101;
  O.OrdersDeduped = 102;
  O.SearchTruncated = true;
  O.SearchDropped = 103;
  O.SearchSteals = 104;
  O.SearchEvictions = 105;
  O.SearchPeakFrontier = 106;
  O.TranslationCacheHit = true;
  O.ResultCacheHit = false;
  O.FrontendMicros = 107.25;
  O.SearchMicros = 108.5;
  O.SearchWitness = {1, 0, 1};
  return O;
}

DriverOutcome compileErrorOutcome() {
  DriverOutcome O;
  O.CompileOk = false;
  O.CompileErrors = "bad.c:1: error: expected ';'\n";
  O.Status = RunStatus::Internal;
  O.FrontendMicros = 201.75;
  return O;
}

DriverOutcome cleanOutcome() {
  DriverOutcome O;
  O.CompileOk = true;
  O.Status = RunStatus::Completed;
  O.ExitCode = 7;
  O.Output = "hello\n";
  O.OrdersExplored = 301;
  O.OrdersDeduped = 302;
  O.SearchDropped = 303;
  O.SearchSteals = 304;
  O.SearchEvictions = 305;
  O.SearchPeakFrontier = 306;
  O.ResultCacheHit = true;
  O.FrontendMicros = 307.0;
  O.SearchMicros = 308.125;
  return O;
}

DriverOutcome internalOutcome() {
  DriverOutcome O;
  O.CompileOk = true;
  O.Status = RunStatus::Internal;
  O.OrdersExplored = 401;
  return O;
}

SchedulerStats distinctPool() {
  SchedulerStats P;
  P.Programs = 4;
  P.Jobs = 5;
  P.Steals = 1001;
  P.SnapshotEvictions = 1002;
  P.PeakFrontier = 1003;
  P.RunsExecuted = 1500;
  P.DedupHits = 1005;
  P.RunsCommitted = 1200;
  P.ProvisionalHits = 1007;
  P.ProvisionalRequeues = 1008;
  P.CommitLagPeak = 1009;
  P.SnapshotShards = 16;
  P.SnapshotTakes = 1011;
  P.SnapshotHits = 1012;
  P.SnapshotSlotSteals = 1013;
  return P;
}

const char *const Golden = R"JSON({
  "schema": "cundef-kcc-v1",
  "exit_code": 139,
  "programs": [
    {
      "name": "ub.c",
      "verdict": "undefined",
      "compile_ok": true,
      "compile_errors": "",
      "status": "ub-detected",
      "exit_code": 139,
      "output": "out\u0001\u00ff\n",
      "wall_micros": 11.500,
      "compile": {
        "cache_hit": true,
        "result_cache_hit": false,
        "frontend_micros": 107.250,
        "search_micros": 108.500
      },
      "findings": [
        {"code": "00033", "description": "unsequenced \"x\"", "function": "main", "line": 3, "column": 5, "static": true},
        {"code": "00001", "description": "division by zero", "function": "main", "line": 5, "column": 7, "static": false}
      ],
      "static_analysis": {
        "mode": "on",
        "static_only": false,
        "must_count": 1,
        "may_count": 1,
        "findings": [
          {"code": "00033", "verdict": "must", "domain": "syntactic", "description": "unsequenced \"x\"", "function": "main", "line": 3, "column": 5},
          {"code": "00020", "verdict": "may", "domain": "init", "description": "may read uninitialized", "function": "main", "line": 4, "column": 6}
        ]
      },
      "search": {
        "orders_explored": 101,
        "orders_deduped": 102,
        "truncated": true,
        "dropped_subtrees": 103,
        "steals": 104,
        "snapshot_evictions": 105,
        "peak_frontier": 106,
        "witness": [1, 0, 1]
      }
    },
    {
      "name": "bad.c",
      "verdict": "compile-error",
      "compile_ok": false,
      "compile_errors": "bad.c:1: error: expected ';'\n",
      "status": "internal",
      "exit_code": 0,
      "output": "",
      "wall_micros": 12.250,
      "compile": {
        "cache_hit": false,
        "result_cache_hit": false,
        "frontend_micros": 201.750,
        "search_micros": 0.000
      },
      "findings": [],
      "static_analysis": {
        "mode": "off",
        "static_only": false,
        "must_count": 0,
        "may_count": 0,
        "findings": []
      },
      "search": {
        "orders_explored": 0,
        "orders_deduped": 0,
        "truncated": false,
        "dropped_subtrees": 0,
        "steals": 0,
        "snapshot_evictions": 0,
        "peak_frontier": 0,
        "witness": []
      }
    },
    {
      "name": "clean.c",
      "verdict": "clean",
      "compile_ok": true,
      "compile_errors": "",
      "status": "completed",
      "exit_code": 7,
      "output": "hello\n",
      "wall_micros": 13.000,
      "compile": {
        "cache_hit": false,
        "result_cache_hit": true,
        "frontend_micros": 307.000,
        "search_micros": 308.125
      },
      "findings": [],
      "static_analysis": {
        "mode": "only",
        "static_only": false,
        "must_count": 0,
        "may_count": 0,
        "findings": []
      },
      "search": {
        "orders_explored": 301,
        "orders_deduped": 302,
        "truncated": false,
        "dropped_subtrees": 303,
        "steals": 304,
        "snapshot_evictions": 305,
        "peak_frontier": 306,
        "witness": []
      }
    },
    {
      "name": "nomain.c",
      "verdict": "internal-error",
      "compile_ok": true,
      "compile_errors": "",
      "status": "internal",
      "exit_code": 0,
      "output": "",
      "wall_micros": 14.750,
      "compile": {
        "cache_hit": false,
        "result_cache_hit": false,
        "frontend_micros": 0.000,
        "search_micros": 0.000
      },
      "findings": [],
      "static_analysis": {
        "mode": "on",
        "static_only": false,
        "must_count": 0,
        "may_count": 0,
        "findings": []
      },
      "search": {
        "orders_explored": 401,
        "orders_deduped": 0,
        "truncated": false,
        "dropped_subtrees": 0,
        "steals": 0,
        "snapshot_evictions": 0,
        "peak_frontier": 0,
        "witness": []
      }
    }
  ],
  "pool": {
    "programs": 4,
    "workers": 5,
    "runs_executed": 1500,
    "runs_committed": 1200,
    "speculative_waste": 0.2500,
    "provisional_hits": 1007,
    "provisional_requeues": 1008,
    "commit_lag_peak": 1009,
    "steals": 1001,
    "dedup_hits": 1005,
    "snapshot_shards": 16,
    "snapshot_takes": 1011,
    "snapshot_hits": 1012,
    "snapshot_slot_steals": 1013,
    "snapshot_evictions": 1002,
    "peak_frontier": 1003,
    "wall_ms": 15.500
  },
  "translation_cache": {
    "lookups": 2001,
    "hits": 2002,
    "inflight_joins": 2004,
    "misses": 2003,
    "evictions": 2005
  },
  "result_cache": {
    "lookups": 3001,
    "hits": 3002,
    "inflight_joins": 3004,
    "misses": 3003,
    "evictions": 3005,
    "abandoned": 3006
  }
}
)JSON";

} // namespace

TEST(JsonOutput, DocumentMatchesGolden) {
  const DriverOutcome Ub = undefinedOutcome(), Bad = compileErrorOutcome(),
                      Clean = cleanOutcome(), Internal = internalOutcome();
  TranslationCacheStats T;
  T.Lookups = 2001;
  T.Hits = 2002;
  T.Misses = 2003;
  T.InflightJoins = 2004;
  T.Evictions = 2005;
  ResultCacheStats R;
  R.Lookups = 3001;
  R.Hits = 3002;
  R.Misses = 3003;
  R.InflightJoins = 3004;
  R.Evictions = 3005;
  R.Abandoned = 3006;
  const std::string Doc = renderJsonDocument(
      {{&Ub, "ub.c", 11.5, "on"},
       {&Bad, "bad.c", 12.25, "off"},
       {&Clean, "clean.c", 13.0, "only"},
       {&Internal, "nomain.c", 14.75, "on"}},
      distinctPool(), T, R, 15.5, 139);
  EXPECT_EQ(Doc, Golden);
}

TEST(JsonOutput, EmptyBatchMatchesGolden) {
  const std::string Doc = renderJsonDocument(
      {}, SchedulerStats(), TranslationCacheStats(), ResultCacheStats(), 0.0,
      0);
  EXPECT_EQ(Doc, R"({
  "schema": "cundef-kcc-v1",
  "exit_code": 0,
  "programs": [],
  "pool": {
    "programs": 0,
    "workers": 0,
    "runs_executed": 0,
    "runs_committed": 0,
    "speculative_waste": 0.0000,
    "provisional_hits": 0,
    "provisional_requeues": 0,
    "commit_lag_peak": 0,
    "steals": 0,
    "dedup_hits": 0,
    "snapshot_shards": 0,
    "snapshot_takes": 0,
    "snapshot_hits": 0,
    "snapshot_slot_steals": 0,
    "snapshot_evictions": 0,
    "peak_frontier": 0,
    "wall_ms": 0.000
  },
  "translation_cache": {
    "lookups": 0,
    "hits": 0,
    "inflight_joins": 0,
    "misses": 0,
    "evictions": 0
  },
  "result_cache": {
    "lookups": 0,
    "hits": 0,
    "inflight_joins": 0,
    "misses": 0,
    "evictions": 0,
    "abandoned": 0
  }
}
)");
}
