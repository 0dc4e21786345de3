// Microbenchmarks (google-benchmark): throughput of the core building
// blocks — predicate generation as a function of R (partitions), X (rows)
// and k (attributes), matching the O(k(X+R)) analysis of Section 4.6 —
// plus DBSCAN-based detection, the simulator's tick rate, and the columnar
// SIMD kernels (DESIGN.md §12) as BM_*_Scalar / BM_*_Dispatch pairs whose
// ratio is the vector-unit speedup on this host.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>
#include <optional>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "common/simd/simd.h"
#include "core/anomaly_detector.h"
#include "core/predicate_generator.h"
#include "eval/experiment.h"
#include "simulator/dataset_gen.h"

namespace {

using namespace dbsherlock;
namespace simd = dbsherlock::common::simd;

const simulator::GeneratedDataset& SharedDataset() {
  static const simulator::GeneratedDataset* dataset = [] {
    simulator::DatasetGenOptions options;
    options.seed = 42;
    return new simulator::GeneratedDataset(simulator::GenerateAnomalyDataset(
        options, simulator::AnomalyKind::kWorkloadSpike, 60.0));
  }();
  return *dataset;
}

void BM_PredicateGeneration_Partitions(benchmark::State& state) {
  const simulator::GeneratedDataset& ds = SharedDataset();
  core::PredicateGenOptions options;
  options.num_partitions = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    auto result = core::GeneratePredicates(ds.data, ds.regions, options);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(ds.data.num_rows()));
}
BENCHMARK(BM_PredicateGeneration_Partitions)
    ->Arg(125)
    ->Arg(250)
    ->Arg(500)
    ->Arg(1000)
    ->Arg(2000);

simulator::GeneratedDataset RowsScaledDataset(int64_t normal_sec) {
  simulator::DatasetGenOptions options;
  options.seed = 7;
  options.normal_duration_sec = static_cast<double>(normal_sec);
  return simulator::GenerateAnomalyDataset(
      options, simulator::AnomalyKind::kIoSaturation,
      options.normal_duration_sec / 2.0);
}

void BM_PredicateGeneration_Rows(benchmark::State& state) {
  simulator::GeneratedDataset ds = RowsScaledDataset(state.range(0));
  core::PredicateGenOptions gen_options;
  for (auto _ : state) {
    auto result = core::GeneratePredicates(ds.data, ds.regions, gen_options);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(ds.data.num_rows()));
}
BENCHMARK(BM_PredicateGeneration_Rows)->Arg(120)->Arg(300)->Arg(600)->Arg(1800)->Arg(3600);

// The batch-kernel path pinned to the scalar table: what the dispatch path
// falls back to on hosts without AVX2. BM_PredicateGeneration_Rows /
// this = the vector-unit speedup of the diagnosis hot loop.
void BM_PredicateGeneration_Rows_Scalar(benchmark::State& state) {
  simulator::GeneratedDataset ds = RowsScaledDataset(state.range(0));
  core::PredicateGenOptions gen_options;
  simd::ScopedIsaOverride forced(simd::Isa::kScalar);
  for (auto _ : state) {
    auto result = core::GeneratePredicates(ds.data, ds.regions, gen_options);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(ds.data.num_rows()));
}
BENCHMARK(BM_PredicateGeneration_Rows_Scalar)
    ->Arg(120)
    ->Arg(300)
    ->Arg(600)
    ->Arg(1800)
    ->Arg(3600);

// Thread-count sweep of the fused per-attribute loop (1/2/4/8 lanes; the
// speedup relative to Arg(1) measures the parallel efficiency of the
// diagnosis engine on this machine).
void BM_PredicateGeneration_Threads(benchmark::State& state) {
  const simulator::GeneratedDataset& ds = SharedDataset();
  core::PredicateGenOptions options;
  options.parallelism = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    auto result = core::GeneratePredicates(ds.data, ds.regions, options);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(ds.data.num_rows()));
}
BENCHMARK(BM_PredicateGeneration_Threads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// A merged-style repository over all 10 anomaly classes (two source
// datasets per class, kept unmerged so the repository holds 20 models with
// heavily overlapping attributes — the shape that made per-model
// partition-space rebuilding quadratic before PartitionSpaceCache).
const core::ModelRepository& SharedRepository() {
  static const core::ModelRepository* repo = [] {
    auto* r = new core::ModelRepository();
    core::PredicateGenOptions options;
    for (uint64_t round = 0; round < 2; ++round) {
      simulator::DatasetGenOptions gen;
      gen.seed = 1000 + round;
      for (simulator::AnomalyKind kind : simulator::AllAnomalyKinds()) {
        simulator::GeneratedDataset ds =
            simulator::GenerateAnomalyDataset(gen, kind, 60.0);
        r->AddUnmerged(eval::BuildCausalModel(
            ds, simulator::AnomalyKindName(kind), options));
      }
    }
    return r;
  }();
  return *repo;
}

void BM_RepositoryRank(benchmark::State& state) {
  const core::ModelRepository& repo = SharedRepository();
  const simulator::GeneratedDataset& ds = SharedDataset();
  core::PredicateGenOptions options;
  options.parallelism = static_cast<size_t>(state.range(0));
  tsdata::LabeledRows rows = SplitRows(ds.data, ds.regions);
  for (auto _ : state) {
    auto ranked = repo.Rank(ds.data, rows, options, 20.0);
    benchmark::DoNotOptimize(ranked);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(repo.size()));
}
BENCHMARK(BM_RepositoryRank)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// The seed's Rank loop: one ModelConfidence per model, each over its own
// one-model cache, i.e. every model rebuilds every referenced attribute's
// partition space. The ratio BM_RepositoryRank_NoCache /
// BM_RepositoryRank(1) is the shared cache's win at equal thread count.
void BM_RepositoryRank_NoCache(benchmark::State& state) {
  const core::ModelRepository& repo = SharedRepository();
  const simulator::GeneratedDataset& ds = SharedDataset();
  core::PredicateGenOptions options;
  tsdata::LabeledRows rows = SplitRows(ds.data, ds.regions);
  for (auto _ : state) {
    double sum = 0.0;
    for (const core::CausalModel& m : repo.models()) {
      sum += core::ModelConfidence(m, ds.data, rows, options);
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(repo.size()));
}
BENCHMARK(BM_RepositoryRank_NoCache);

void BM_ModelConfidence(benchmark::State& state) {
  const simulator::GeneratedDataset& ds = SharedDataset();
  core::PredicateGenOptions options;
  core::CausalModel model =
      eval::BuildCausalModel(ds, "Workload Spike", options);
  tsdata::LabeledRows rows = SplitRows(ds.data, ds.regions);
  for (auto _ : state) {
    double conf = core::ModelConfidence(model, ds.data, rows, options);
    benchmark::DoNotOptimize(conf);
  }
}
BENCHMARK(BM_ModelConfidence);

void BM_AutomaticAnomalyDetection(benchmark::State& state) {
  const simulator::GeneratedDataset& ds = SharedDataset();
  core::AnomalyDetectorOptions options;
  for (auto _ : state) {
    auto result = core::DetectAnomalies(ds.data, options);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_AutomaticAnomalyDetection);

void BM_SimulatorTick(benchmark::State& state) {
  simulator::ServerSimulator sim(simulator::ServerConfig{},
                                 simulator::MakeTpccWorkload(), 42);
  std::vector<simulator::AnomalyEvent> events;
  for (auto _ : state) {
    simulator::Metrics m = sim.Tick(events);
    benchmark::DoNotOptimize(m);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimulatorTick);

// ---------------------------------------------------------------------------
// Columnar kernel microbenchmarks (DESIGN.md §12). Each kernel runs as a
// _Scalar / _Dispatch pair over the same column; the dispatch variant uses
// whatever ISA the host resolved (see the "simd_isa" context key in the
// JSON report). The column carries ~1/64 NaN cells so the finite-mask path
// is exercised, matching real telemetry.
// ---------------------------------------------------------------------------

constexpr size_t kMaxKernelRows = 1 << 16;

const std::vector<double>& KernelColumn() {
  static const std::vector<double>* column = [] {
    common::Pcg32 rng(1234);
    auto* c = new std::vector<double>(kMaxKernelRows);
    for (double& v : *c) {
      v = rng.NextDouble() < 1.0 / 64.0
              ? std::numeric_limits<double>::quiet_NaN()
              : rng.NextGaussian(50.0, 20.0);
    }
    return c;
  }();
  return *column;
}

template <typename Fn>
void RunKernelBench(benchmark::State& state, bool force_scalar, Fn&& body) {
  std::optional<simd::ScopedIsaOverride> forced;
  if (force_scalar) forced.emplace(simd::Isa::kScalar);
  size_t n = std::min<size_t>(static_cast<size_t>(state.range(0)),
                              KernelColumn().size());
  for (auto _ : state) body(n);
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}

void ProfileSpanBody(size_t n) {
  simd::SpanProfile p = simd::ProfileSpan(KernelColumn().data(), n);
  benchmark::DoNotOptimize(p);
}
void BM_ProfileSpan_Scalar(benchmark::State& state) {
  RunKernelBench(state, true, ProfileSpanBody);
}
void BM_ProfileSpan_Dispatch(benchmark::State& state) {
  RunKernelBench(state, false, ProfileSpanBody);
}
BENCHMARK(BM_ProfileSpan_Scalar)->Arg(4096)->Arg(65536);
BENCHMARK(BM_ProfileSpan_Dispatch)->Arg(4096)->Arg(65536);

void CountMatchesBody(size_t n) {
  uint64_t c = simd::CountMatches(KernelColumn().data(), n,
                                  simd::CmpKind::kInRange, 30.0, 70.0);
  benchmark::DoNotOptimize(c);
}
void BM_CountMatches_Scalar(benchmark::State& state) {
  RunKernelBench(state, true, CountMatchesBody);
}
void BM_CountMatches_Dispatch(benchmark::State& state) {
  RunKernelBench(state, false, CountMatchesBody);
}
BENCHMARK(BM_CountMatches_Scalar)->Arg(4096)->Arg(65536);
BENCHMARK(BM_CountMatches_Dispatch)->Arg(4096)->Arg(65536);

void PartitionIndicesBody(size_t n) {
  static std::vector<uint32_t> out(kMaxKernelRows);
  simd::PartitionIndices(KernelColumn().data(), n, -30.0, 0.5, 250,
                         out.data());
  benchmark::DoNotOptimize(out.data());
}
void BM_PartitionIndices_Scalar(benchmark::State& state) {
  RunKernelBench(state, true, PartitionIndicesBody);
}
void BM_PartitionIndices_Dispatch(benchmark::State& state) {
  RunKernelBench(state, false, PartitionIndicesBody);
}
BENCHMARK(BM_PartitionIndices_Scalar)->Arg(4096)->Arg(65536);
BENCHMARK(BM_PartitionIndices_Dispatch)->Arg(4096)->Arg(65536);

void NormalizeSpanBody(size_t n) {
  static std::vector<double> out(kMaxKernelRows);
  simd::NormalizeSpan(KernelColumn().data(), n, -30.0, 130.0, 0.0,
                      out.data());
  benchmark::DoNotOptimize(out.data());
}
void BM_NormalizeSpan_Scalar(benchmark::State& state) {
  RunKernelBench(state, true, NormalizeSpanBody);
}
void BM_NormalizeSpan_Dispatch(benchmark::State& state) {
  RunKernelBench(state, false, NormalizeSpanBody);
}
BENCHMARK(BM_NormalizeSpan_Scalar)->Arg(4096)->Arg(65536);
BENCHMARK(BM_NormalizeSpan_Dispatch)->Arg(4096)->Arg(65536);

// DBSCAN's inner loop: one query point against n points in 8 dimensions
// (dimension-major, as anomaly_detector lays columns out).
void SquaredDistancesBody(size_t n) {
  constexpr size_t kDims = 8;
  const std::vector<double>& col = KernelColumn();
  static std::vector<double> out(kMaxKernelRows);
  const double* cols[kDims];
  for (size_t k = 0; k < kDims; ++k) {
    // Offset views into the shared column stand in for per-metric columns.
    cols[k] = col.data() + k * 16;
  }
  simd::SquaredDistancesToAll(cols, kDims, n, n / 2, out.data());
  benchmark::DoNotOptimize(out.data());
}
void BM_SquaredDistances_Scalar(benchmark::State& state) {
  RunKernelBench(state, true, SquaredDistancesBody);
}
void BM_SquaredDistances_Dispatch(benchmark::State& state) {
  RunKernelBench(state, false, SquaredDistancesBody);
}
BENCHMARK(BM_SquaredDistances_Scalar)->Arg(4096)->Arg(32768);
BENCHMARK(BM_SquaredDistances_Dispatch)->Arg(4096)->Arg(32768);

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): records the build type and the
// resolved SIMD ISA in the JSON context block (run_benchmarks.sh refuses
// debug reports without --allow-debug), and answers --print-build-info for
// scripts that want those facts without running anything.
int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--print-build-info") == 0) {
      std::printf("build_type=%s simd_isa=%s simd_best_isa=%s\n",
                  dbsherlock::bench::BuildType(),
                  simd::IsaName(simd::ActiveIsa()),
                  simd::IsaName(simd::BestSupportedIsa()));
      return 0;
    }
  }
  benchmark::AddCustomContext("dbsherlock_build_type",
                              dbsherlock::bench::BuildType());
  benchmark::AddCustomContext("simd_isa", simd::IsaName(simd::ActiveIsa()));
  benchmark::AddCustomContext("simd_best_isa",
                              simd::IsaName(simd::BestSupportedIsa()));
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
