// Embedded time-series store benchmark (run_benchmarks.sh --store):
// streams simulator telemetry through a TenantStore and reports append
// throughput (rows/s, including automatic seals), scan latency as the
// requested range grows, the on-disk compression ratio against the raw
// CSV encoding of the same rows, the retained-history scan curve (a
// fixed window scanned as history grows: zone-map pushdown keeps the
// cost flat while a full decode grows linearly — DESIGN.md §14), and a
// predicate-pushdown demo whose output is checked bit-identical against
// the prune-free full-decode scan. Optionally writes the report as JSON
// (BENCH_store.json); the exit status is nonzero when the compression
// ratio misses the <= 0.35x acceptance bound from DESIGN.md §11 or the
// pushdown parity check fails.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/json.h"
#include "simulator/dataset_gen.h"
#include "store/tenant_store.h"
#include "tsdata/dataset_io.h"

namespace {

using namespace dbsherlock;

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

int Main(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  int64_t rows = flags.Int("rows", 20000, "telemetry rows to stream");
  int64_t seal_rows = flags.Int("seal_rows", 512, "segment seal threshold");
  int64_t seed = flags.Int("seed", 20260805, "simulator seed");
  int64_t fsync = flags.Int("fsync", 0, "fsync on seal (0/1)");
  int64_t scan_iters = flags.Int("scan_iters", 20, "scans per range length");
  std::string dir = flags.String(
      "dir", "", "store directory (empty = fresh tmp dir, removed after)");
  std::string json_out = flags.String(
      "json_out", "", "write the report as JSON to this path");
  flags.Validate();

  bench::PrintBanner(
      "Store", "DESIGN.md §11",
      "Append throughput, scan latency vs range length, and compression "
      "ratio of the segment codec on simulator telemetry.");

  bool scratch = dir.empty();
  if (scratch) {
    dir = "/tmp/dbsherlock_bench_store_" + std::to_string(getpid());
    std::string cleanup = "rm -rf '" + dir + "'";
    (void)std::system(cleanup.c_str());
  }

  // One simulated second per row: the anomaly keeps the traces from being
  // trivially constant, so the ratio reflects realistic telemetry.
  simulator::DatasetGenOptions gen;
  gen.normal_duration_sec = static_cast<double>(rows);
  gen.seed = static_cast<uint64_t>(seed);
  auto generated = simulator::GenerateAnomalyDataset(
      gen, simulator::AnomalyKind::kCpuSaturation,
      /*anomaly_duration_sec=*/60.0);
  const tsdata::Dataset& data = generated.data;
  if (data.num_rows() < 100) {
    std::fprintf(stderr, "error: simulator produced %zu rows\n",
                 data.num_rows());
    return 1;
  }

  store::TenantStore::Options options;
  options.dir = dir;
  options.schema = data.schema();
  options.seal_rows = static_cast<size_t>(seal_rows);
  options.fsync_on_seal = fsync != 0;
  auto store = store::TenantStore::Open(options);
  if (!store.ok()) {
    std::fprintf(stderr, "error: %s\n", store.status().ToString().c_str());
    return 1;
  }

  // --- Append throughput (automatic seals included) -------------------
  std::vector<tsdata::Cell> cells;
  auto t0 = std::chrono::steady_clock::now();
  for (size_t r = 0; r < data.num_rows(); ++r) {
    data.RowCells(r, &cells);
    common::Status status =
        (*store)->Append(data.timestamp(r), cells);
    if (!status.ok()) {
      std::fprintf(stderr, "error: append row %zu: %s\n", r,
                   status.ToString().c_str());
      return 1;
    }
  }
  double append_sec = SecondsSince(t0);
  t0 = std::chrono::steady_clock::now();
  common::Status sealed = (*store)->Seal();
  if (!sealed.ok()) {
    std::fprintf(stderr, "error: %s\n", sealed.ToString().c_str());
    return 1;
  }
  double seal_sec = SecondsSince(t0);
  double append_rows_per_sec =
      static_cast<double>(data.num_rows()) / (append_sec + seal_sec);

  // --- Compression vs the raw CSV of the same rows --------------------
  uint64_t raw_bytes = tsdata::DatasetToCsv(data).size();
  uint64_t disk_bytes = (*store)->sealed_bytes();
  double ratio = (*store)->compression_ratio();

  std::printf("\nrows %zu   segments %zu   append %.0f rows/s\n",
              data.num_rows(), (*store)->num_segments(),
              append_rows_per_sec);
  std::printf("raw csv %llu B   on disk %llu B   compression %.3fx\n",
              static_cast<unsigned long long>(raw_bytes),
              static_cast<unsigned long long>(disk_bytes), ratio);

  // --- Scan latency vs range length -----------------------------------
  double first_ts = data.timestamp(0);
  double last_ts = data.timestamp(data.num_rows() - 1);
  bench::TablePrinter table({"Range rows", "Mean ms", "Scan rows/s"},
                            {12, 10, 14});
  std::printf("\n");
  table.PrintHeader();
  common::JsonValue::Array scan_rows_json;
  for (size_t range : {60u, 600u, 6000u}) {
    if (range > data.num_rows()) break;
    // Start mid-history so every scan stitches across segment boundaries.
    double scan_t0 = first_ts + (last_ts - first_ts) * 0.25;
    double scan_t1 = scan_t0 + static_cast<double>(range);
    double total_sec = 0.0;
    size_t rows_out = 0;
    for (int64_t i = 0; i < scan_iters; ++i) {
      auto start = std::chrono::steady_clock::now();
      auto slice = (*store)->Scan(scan_t0, scan_t1);
      total_sec += SecondsSince(start);
      if (!slice.ok()) {
        std::fprintf(stderr, "error: %s\n",
                     slice.status().ToString().c_str());
        return 1;
      }
      rows_out = slice->num_rows();
    }
    double mean_ms = 1000.0 * total_sec / static_cast<double>(scan_iters);
    double scan_rows_per_sec =
        static_cast<double>(rows_out) * static_cast<double>(scan_iters) /
        total_sec;
    table.PrintRow({std::to_string(rows_out), bench::Num(mean_ms, 3),
                    bench::Num(scan_rows_per_sec, 0)});
    common::JsonValue::Object entry;
    entry["range_rows"] = static_cast<double>(rows_out);
    entry["mean_ms"] = mean_ms;
    entry["rows_per_sec"] = scan_rows_per_sec;
    scan_rows_json.push_back(common::JsonValue(std::move(entry)));
  }

  // --- Retained-history scan curve (zone-map pushdown) ----------------
  // Rebuild the history incrementally in a second scratch store and scan
  // the SAME fixed early window after each growth step. With pushdown the
  // planner skips every segment outside the window (time zones), so the
  // decoded-segment count — and the latency — stays flat as retained
  // bytes grow; the prune-free full decode grows with the history.
  common::JsonValue::Array curve_json;
  {
    std::string curve_dir = dir + "_curve";
    std::string cleanup = "rm -rf '" + curve_dir + "'";
    (void)std::system(cleanup.c_str());
    store::TenantStore::Options curve_options = options;
    curve_options.dir = curve_dir;
    auto curve_store = store::TenantStore::Open(curve_options);
    if (!curve_store.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   curve_store.status().ToString().c_str());
      return 1;
    }
    double window_t0 = first_ts;
    double window_t1 = first_ts + 600.0;
    bench::TablePrinter curve_table(
        {"Retained rows", "Retained B", "Push ms", "Full ms", "Skip",
         "Decode"},
        {14, 12, 10, 10, 6, 7});
    std::printf("\nretained-history scan of the fixed window [%.0f, %.0f)\n",
                window_t0, window_t1);
    curve_table.PrintHeader();
    const double fractions[] = {0.125, 0.25, 0.5, 0.75, 1.0};
    size_t appended = 0;
    for (double fraction : fractions) {
      size_t target = static_cast<size_t>(
          fraction * static_cast<double>(data.num_rows()));
      for (; appended < target; ++appended) {
        data.RowCells(appended, &cells);
        common::Status status =
            (*curve_store)->Append(data.timestamp(appended), cells);
        if (!status.ok()) {
          std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
          return 1;
        }
      }
      common::Status step_sealed = (*curve_store)->Seal();
      if (!step_sealed.ok()) {
        std::fprintf(stderr, "error: %s\n",
                     step_sealed.ToString().c_str());
        return 1;
      }

      store::ScanOptions push;
      push.t0 = window_t0;
      push.t1 = window_t1;
      store::ScanStats push_stats;
      double push_sec = 0.0;
      for (int64_t i = 0; i < scan_iters; ++i) {
        auto start = std::chrono::steady_clock::now();
        auto slice = (*curve_store)->ScanWithOptions(push, &push_stats);
        push_sec += SecondsSince(start);
        if (!slice.ok()) {
          std::fprintf(stderr, "error: %s\n",
                       slice.status().ToString().c_str());
          return 1;
        }
      }
      store::ScanOptions full = push;
      full.prune = false;
      store::ScanStats full_stats;
      double full_sec = 0.0;
      for (int64_t i = 0; i < scan_iters; ++i) {
        auto start = std::chrono::steady_clock::now();
        auto slice = (*curve_store)->ScanWithOptions(full, &full_stats);
        full_sec += SecondsSince(start);
        if (!slice.ok()) {
          std::fprintf(stderr, "error: %s\n",
                       slice.status().ToString().c_str());
          return 1;
        }
      }
      double push_ms = 1000.0 * push_sec / static_cast<double>(scan_iters);
      double full_ms = 1000.0 * full_sec / static_cast<double>(scan_iters);
      uint64_t skipped = push_stats.segments_skipped_time +
                         push_stats.segments_skipped_zone;
      uint64_t retained = (*curve_store)->sealed_bytes();
      curve_table.PrintRow(
          {std::to_string(appended), std::to_string(retained),
           bench::Num(push_ms, 3), bench::Num(full_ms, 3),
           std::to_string(skipped),
           std::to_string(push_stats.segments_decoded)});
      common::JsonValue::Object point;
      point["retained_rows"] = static_cast<double>(appended);
      point["retained_bytes"] = static_cast<double>(retained);
      point["pushdown_mean_ms"] = push_ms;
      point["full_decode_mean_ms"] = full_ms;
      point["segments"] = static_cast<double>(push_stats.segments_total);
      point["segments_skipped"] = static_cast<double>(skipped);
      point["segments_decoded"] =
          static_cast<double>(push_stats.segments_decoded);
      curve_json.push_back(common::JsonValue(std::move(point)));
    }
    (void)std::system(cleanup.c_str());
  }

  // --- Predicate pushdown vs full decode (parity checked) -------------
  // A WHERE bound selecting only the anomaly's saturated-CPU rows: most
  // segments' zone maps exclude the bound, so the planner skips them
  // without I/O. The pruned result must be bit-identical to the
  // prune-free full decode.
  bool parity_ok = true;
  common::JsonValue::Object pushdown_json;
  {
    std::string bound_attr;
    for (size_t a = 0; a < data.num_attributes(); ++a) {
      if (data.schema().attribute(a).kind ==
          tsdata::AttributeKind::kNumeric) {
        bound_attr = data.schema().attribute(a).name;
        if (bound_attr == "os_cpu_usage") break;
      }
    }
    if (bound_attr.empty()) {
      std::fprintf(stderr, "error: no numeric attribute for pushdown\n");
      return 1;
    }
    const tsdata::Column& column =
        data.column(*data.schema().IndexOf(bound_attr));
    double lo = column.numeric(0), hi = column.numeric(0);
    for (size_t r = 1; r < data.num_rows(); ++r) {
      lo = std::min(lo, column.numeric(r));
      hi = std::max(hi, column.numeric(r));
    }
    double bound_lo = lo + 0.95 * (hi - lo);

    store::ScanOptions push;
    push.bounds.push_back({bound_attr, bound_lo,
                           std::numeric_limits<double>::infinity()});
    store::ScanStats push_stats;
    auto start = std::chrono::steady_clock::now();
    auto pruned = (*store)->ScanWithOptions(push, &push_stats);
    double push_ms = 1000.0 * SecondsSince(start);
    store::ScanOptions full = push;
    full.prune = false;
    store::ScanStats full_stats;
    start = std::chrono::steady_clock::now();
    auto everything = (*store)->ScanWithOptions(full, &full_stats);
    double full_ms = 1000.0 * SecondsSince(start);
    if (!pruned.ok() || !everything.ok()) {
      std::fprintf(stderr, "error: pushdown scan failed\n");
      return 1;
    }
    parity_ok = tsdata::DatasetToCsv(*pruned) ==
                tsdata::DatasetToCsv(*everything);
    std::printf(
        "\npushdown %s >= %.3f: %llu/%llu segment(s) zone-skipped, "
        "%zu row(s), %.3f ms vs %.3f ms full decode, parity %s\n",
        bound_attr.c_str(), bound_lo,
        static_cast<unsigned long long>(push_stats.segments_skipped_zone),
        static_cast<unsigned long long>(push_stats.segments_total),
        pruned->num_rows(), push_ms, full_ms, parity_ok ? "ok" : "FAIL");
    pushdown_json["attribute"] = bound_attr;
    pushdown_json["bound_lo"] = bound_lo;
    pushdown_json["segments_total"] =
        static_cast<double>(push_stats.segments_total);
    pushdown_json["segments_skipped_zone"] =
        static_cast<double>(push_stats.segments_skipped_zone);
    pushdown_json["segments_decoded"] =
        static_cast<double>(push_stats.segments_decoded);
    pushdown_json["rows_out"] = static_cast<double>(pruned->num_rows());
    pushdown_json["pushdown_ms"] = push_ms;
    pushdown_json["full_decode_ms"] = full_ms;
    pushdown_json["parity_ok"] = parity_ok;
  }

  constexpr double kRatioBound = 0.35;
  bool ratio_ok = ratio > 0.0 && ratio <= kRatioBound;
  std::printf("\ncompression bound <= %.2fx: %s\n", kRatioBound,
              ratio_ok ? "pass" : "FAIL");

  if (!json_out.empty()) {
    common::JsonValue::Object report;
    report["rows"] = static_cast<double>(data.num_rows());
    report["seal_rows"] = static_cast<double>(seal_rows);
    report["segments"] = static_cast<double>((*store)->num_segments());
    report["append_rows_per_sec"] = append_rows_per_sec;
    report["raw_csv_bytes"] = static_cast<double>(raw_bytes);
    report["disk_bytes"] = static_cast<double>(disk_bytes);
    report["compression_ratio"] = ratio;
    report["compression_bound"] = kRatioBound;
    report["scans"] = common::JsonValue(std::move(scan_rows_json));
    report["retained_scan_curve"] = common::JsonValue(std::move(curve_json));
    report["pushdown"] = common::JsonValue(std::move(pushdown_json));
    report["build_info"] = bench::BuildInfoJson();
    std::ofstream out(json_out);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", json_out.c_str());
      return 1;
    }
    out << common::JsonValue(std::move(report)).Dump(2) << "\n";
    std::printf("wrote %s\n", json_out.c_str());
  }

  if (scratch) {
    std::string cleanup = "rm -rf '" + dir + "'";
    (void)std::system(cleanup.c_str());
  }
  return (ratio_ok && parity_ok) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) { return Main(argc, argv); }
