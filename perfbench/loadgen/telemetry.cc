#include "telemetry.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/explainer.h"
#include "eval/experiment.h"
#include "service/wire.h"
#include "simulator/dataset_gen.h"

namespace perfbench {

namespace sim = dbsherlock::simulator;

std::pair<const Chunk*, size_t> TenantStream::Locate(size_t row) const {
  // Chunks of one pool share a length, but do not rely on it.
  for (const Chunk* chunk : chunks) {
    if (row < chunk->rows()) return {chunk, row};
    row -= chunk->rows();
  }
  return {nullptr, 0};
}

std::vector<Cell> TenantStream::Cells(size_t row) const {
  auto [chunk, r] = Locate(row);
  const Dataset& data = chunk->data;
  std::vector<Cell> cells;
  cells.reserve(data.num_attributes());
  for (size_t a = 0; a < data.num_attributes(); ++a) {
    const auto& column = data.column(a);
    if (column.kind() == dbsherlock::tsdata::AttributeKind::kNumeric) {
      cells.emplace_back(column.numeric(r));
    } else {
      cells.emplace_back(column.CategoryName(column.code(r)));
    }
  }
  return cells;
}

const std::string& TenantStream::CellText(size_t row) const {
  auto [chunk, r] = Locate(row);
  return chunk->csv[r];
}

void TenantStream::AddChunk(const Chunk* chunk) {
  if (chunk->kind >= 0) {
    Planted p;
    p.kind = chunk->kind;
    p.start = Timestamp(rows + chunk->abnormal_begin);
    p.end = Timestamp(rows + chunk->abnormal_end);
    planted.push_back(p);
  }
  chunks.push_back(chunk);
  rows += chunk->rows();
}

double NumericAt(const TenantStream& stream, size_t attr, size_t row) {
  auto [chunk, r] = stream.Locate(row);
  return chunk->data.column(attr).numeric(r);
}

int AttrIndex(const Schema& schema, const std::string& name) {
  for (size_t a = 0; a < schema.num_attributes(); ++a) {
    if (schema.attribute(a).name == name) return static_cast<int>(a);
  }
  return -1;
}

namespace {

std::unique_ptr<Chunk> MakeChunk(sim::GeneratedDataset generated, int kind) {
  auto chunk = std::make_unique<Chunk>();
  chunk->kind = kind;
  chunk->data = std::move(generated.data);
  const Dataset& data = chunk->data;
  chunk->csv.resize(data.num_rows());
  for (size_t r = 0; r < data.num_rows(); ++r) {
    std::string& text = chunk->csv[r];
    for (size_t a = 0; a < data.num_attributes(); ++a) {
      const auto& column = data.column(a);
      if (a > 0) text += ',';
      if (column.kind() == dbsherlock::tsdata::AttributeKind::kNumeric) {
        text += dbsherlock::service::FormatCell(Cell(column.numeric(r)));
      } else {
        text += column.CategoryName(column.code(r));
      }
    }
  }
  if (kind >= 0) {
    size_t lo = data.num_rows(), hi = 0;
    for (const auto& range : generated.regions.abnormal.ranges()) {
      for (size_t r : data.RowsInTimeRange(range.start, range.end)) {
        lo = std::min(lo, r);
        hi = std::max(hi, r + 1);
      }
    }
    chunk->abnormal_begin = lo;
    chunk->abnormal_end = hi;
  }
  return chunk;
}

/// The numeric attribute whose anomaly rows stand highest above every
/// normal row of the pool, in units of the normal spread.
std::string PickSignal(const Corpus& corpus, size_t kind) {
  const Schema& schema = corpus.schema;
  std::string best;
  double best_score = -std::numeric_limits<double>::infinity();
  for (size_t a = 0; a < schema.num_attributes(); ++a) {
    if (schema.attribute(a).kind !=
        dbsherlock::tsdata::AttributeKind::kNumeric) {
      continue;
    }
    std::vector<double> normal;
    for (const auto& chunk : corpus.normal) {
      auto values = chunk->data.column(a).numeric_values();
      normal.insert(normal.end(), values.begin(), values.end());
    }
    double normal_max = *std::max_element(normal.begin(), normal.end());
    double normal_min = *std::min_element(normal.begin(), normal.end());
    double abnormal_min = std::numeric_limits<double>::infinity();
    for (const auto& chunk : corpus.anomalous[kind]) {
      auto values = chunk->data.column(a).numeric_values();
      // The core of the anomaly: skip the ramp-up and ramp-down seconds.
      for (size_t r = chunk->abnormal_begin + 10; r + 6 < chunk->abnormal_end;
           ++r) {
        abnormal_min = std::min(abnormal_min, values[r]);
      }
    }
    double spread = std::max(normal_max - normal_min, 1e-9);
    double score = (abnormal_min - normal_max) / spread;
    if (std::isfinite(score) && score > best_score) {
      best_score = score;
      best = schema.attribute(a).name;
    }
  }
  return best;
}

}  // namespace

Corpus BuildCorpus(const CorpusOptions& options) {
  Corpus corpus;
  // Four classes the default explainer separates by a wide confidence
  // margin (25+ points on isolated simulator runs), so a wrong top-1
  // cause means a regression rather than a near tie. I/O Saturation is
  // left out: it is the runner-up for most other classes.
  corpus.kinds = {sim::AnomalyKind::kWorkloadSpike,
                  sim::AnomalyKind::kCpuSaturation,
                  sim::AnomalyKind::kDatabaseBackup,
                  sim::AnomalyKind::kPoorlyWrittenQuery};
  for (auto kind : corpus.kinds) corpus.causes.push_back(sim::AnomalyKindName(kind));

  sim::DatasetGenOptions gen;
  gen.normal_duration_sec = options.normal_sec;
  size_t kinds = corpus.kinds.size();
  size_t variants = options.variants_per_kind;
  size_t jobs = options.normal_chunks + kinds * variants;
  std::vector<std::unique_ptr<Chunk>> made;
  for (size_t i = 0; i < jobs; ++i) {
    made.push_back([&] {
        sim::DatasetGenOptions g = gen;
        g.seed = options.seed * 1000003ULL + 7919ULL * i + 1;
        if (i < options.normal_chunks) {
          return MakeChunk(
              sim::GenerateWithSchedule(g, {}, options.normal_sec +
                                                   options.anomaly_sec),
              -1);
        }
        size_t k = (i - options.normal_chunks) / variants;
        return MakeChunk(sim::GenerateAnomalyDataset(g, corpus.kinds[k],
                                                     options.anomaly_sec),
                         static_cast<int>(k));
    }());
  }
  corpus.schema = made.front()->data.schema();
  corpus.anomalous.resize(kinds);
  for (size_t i = 0; i < jobs; ++i) {
    if (i < options.normal_chunks) {
      corpus.normal.push_back(std::move(made[i]));
    } else {
      corpus.anomalous[(i - options.normal_chunks) / variants].push_back(
          std::move(made[i]));
    }
  }
  for (size_t k = 0; k < kinds; ++k) {
    corpus.signal_attr.push_back(PickSignal(corpus, k));
  }

  // Pre-trained models: two training runs per class on their own seeds,
  // merged by the daemon's repository as they are taught.
  dbsherlock::core::Explainer::Options ex;
  for (size_t i = 0; i < kinds * 2; ++i) {
    sim::DatasetGenOptions g = gen;
    g.seed = options.seed * 1000003ULL + 104729ULL + 31ULL * i;
    sim::GeneratedDataset train =
        sim::GenerateAnomalyDataset(g, corpus.kinds[i / 2], options.anomaly_sec);
    corpus.models.push_back(dbsherlock::eval::BuildCausalModel(
        train, corpus.causes[i / 2], ex.predicate_options,
        ex.apply_domain_knowledge ? &ex.domain_knowledge : nullptr,
        ex.independence_options));
  }
  return corpus;
}

}  // namespace perfbench
