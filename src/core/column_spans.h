#ifndef DBSHERLOCK_CORE_COLUMN_SPANS_H_
#define DBSHERLOCK_CORE_COLUMN_SPANS_H_

// Contiguous-run decomposition of diagnosis row sets (DESIGN.md §12).
//
// LabeledRows lists row indices one by one, but the lists come from time
// ranges and are therefore (nearly always) a handful of contiguous runs.
// Every diagnosis stage exploits that: the index lists are decomposed into
// runs ONCE per diagnosis, then every attribute sweep, partition labeling
// and separation-power count walks `values + run.begin` as a contiguous
// column span through the SIMD kernels instead of gathering row by row.
//
// A DiagnosisRuns is built once per diagnosis (Explainer::Diagnose, the
// service's DIAGNOSE_RANGE and background diagnoses, each DQL finding;
// the service's EXPLAINQ ranking callback, which takes regions, builds its
// own) and shared by predicate generation and the PartitionSpaceCache
// behind ModelRepository::Rank across all attributes and models; the
// column_spans.runs_built / column_spans.runs_reused counters make the
// reuse rate observable (tools/dbsherlock metrics).

#include <cstddef>
#include <span>
#include <vector>

#include "tsdata/region.h"

namespace dbsherlock::core {

/// A maximal run of consecutive row indices [begin, end).
struct RowRun {
  size_t begin = 0;
  size_t end = 0;
  size_t size() const { return end - begin; }
};

/// Decomposes a sorted index list into maximal contiguous runs. Indices
/// out of order start a new run (correct, just not fast).
std::vector<RowRun> ContiguousRuns(const std::vector<size_t>& rows);

/// The run decomposition of one diagnosis' labeled rows.
struct DiagnosisRuns {
  std::vector<RowRun> abnormal;
  std::vector<RowRun> normal;

  /// Total rows per region (the separation-power denominators).
  size_t abnormal_rows = 0;
  size_t normal_rows = 0;
};

/// Builds the run decomposition (increments column_spans.runs_built).
DiagnosisRuns BuildDiagnosisRuns(const tsdata::LabeledRows& rows);

/// Call once per consumer that reuses an already-built DiagnosisRuns
/// instead of re-deriving it (increments column_spans.runs_reused).
void NoteDiagnosisRunsReused();

}  // namespace dbsherlock::core

#endif  // DBSHERLOCK_CORE_COLUMN_SPANS_H_
