#ifndef PERFBENCH_TELEMETRY_H_
#define PERFBENCH_TELEMETRY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/causal_model.h"
#include "simulator/anomaly.h"
#include "tsdata/dataset.h"

namespace perfbench {

using dbsherlock::core::CausalModel;
using dbsherlock::tsdata::Cell;
using dbsherlock::tsdata::Dataset;
using dbsherlock::tsdata::Schema;

/// One simulated stretch of telemetry (one row per second). Anomaly chunks
/// carry one planted anomaly whose ground-truth rows are
/// [abnormal_begin, abnormal_end).
struct Chunk {
  Dataset data;
  std::vector<std::string> csv;  // per row: the cells as APPEND text
  int kind = -1;                 // index into Corpus::kinds, -1 = normal
  size_t abnormal_begin = 0;
  size_t abnormal_end = 0;
  size_t rows() const { return data.num_rows(); }
};

/// A planted anomaly inside a tenant stream, in stream timestamps.
struct Planted {
  int kind = 0;
  double start = 0.0;  // [start, end)
  double end = 0.0;
};

/// One tenant's telemetry: a sequence of chunks laid end to end. Row i has
/// timestamp i + 1, so timestamps are strictly increasing integers.
struct TenantStream {
  std::string name;
  std::vector<const Chunk*> chunks;
  std::vector<Planted> planted;
  size_t rows = 0;

  double Timestamp(size_t row) const { return static_cast<double>(row + 1); }
  /// Chunk and row-within-chunk of stream row `row`.
  std::pair<const Chunk*, size_t> Locate(size_t row) const;
  std::vector<Cell> Cells(size_t row) const;
  const std::string& CellText(size_t row) const;
  void AddChunk(const Chunk* chunk);
};

/// Everything the workloads stream, generated from the seed: a pool of
/// simulator chunks (normal and one per anomaly class, several variants),
/// the causal models taught to the daemon before any traffic, and the
/// attribute that best separates each class's anomaly (the EXPLAIN WHERE
/// and QUERY WHERE conditions use it).
struct Corpus {
  Schema schema;
  std::vector<dbsherlock::simulator::AnomalyKind> kinds;
  std::vector<std::string> causes;      // per kind
  std::vector<std::string> signal_attr;  // per kind
  std::vector<CausalModel> models;
  std::vector<std::unique_ptr<Chunk>> normal;
  std::vector<std::vector<std::unique_ptr<Chunk>>> anomalous;  // per kind

  const Chunk* Normal(uint64_t pick) const {
    return normal[pick % normal.size()].get();
  }
  const Chunk* Anomalous(int kind, uint64_t pick) const {
    const auto& pool = anomalous[static_cast<size_t>(kind)];
    return pool[pick % pool.size()].get();
  }
};

struct CorpusOptions {
  uint64_t seed = 1;
  // A larger pool evens out how much detector work one seed's data makes.
  size_t normal_chunks = 16;
  size_t variants_per_kind = 4;
  double normal_sec = 300.0;
  double anomaly_sec = 40.0;
};

Corpus BuildCorpus(const CorpusOptions& options);

/// Numeric value of attribute `attr` at stream row `row`.
double NumericAt(const TenantStream& stream, size_t attr, size_t row);

/// Index of `name` in the schema, or -1.
int AttrIndex(const Schema& schema, const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_TELEMETRY_H_
