#include "eval/query_sweep.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <limits>
#include <memory>
#include <vector>

#include "common/stats.h"
#include "core/explainer.h"
#include "eval/chaos.h"
#include "query/compiler.h"
#include "query/executor.h"
#include "query/parser.h"
#include "service/client.h"
#include "simulator/dataset_gen.h"
#include "store/tenant_store.h"
#include "tsdata/dataset.h"

namespace dbsherlock::eval {

namespace {

using common::Result;
using common::Status;

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

common::JsonValue QuerySweepResult::ToJson() const {
  common::JsonValue out = common::JsonValue::Object();
  auto& o = out.as_object();
  o["rows"] = static_cast<double>(rows);
  o["statement"] = statement;

  common::JsonValue frontend = common::JsonValue::Object();
  auto& f = frontend.as_object();
  f["parse_us_mean"] = parse_us_mean;
  f["parse_us_p99"] = parse_us_p99;
  f["compile_us_mean"] = compile_us_mean;
  f["compile_us_p99"] = compile_us_p99;
  f["quantile_segments_total"] = static_cast<double>(quantile_segments_total);
  f["quantile_segments_decoded"] =
      static_cast<double>(quantile_segments_decoded);
  o["frontend"] = std::move(frontend);

  common::JsonValue discovery = common::JsonValue::Object();
  auto& d = discovery.as_object();
  d["segments_total"] = static_cast<double>(segments_total);
  d["pushdown_segments_decoded"] =
      static_cast<double>(pushdown_segments_decoded);
  d["fullscan_segments_decoded"] =
      static_cast<double>(fullscan_segments_decoded);
  d["pushdown_ms"] = pushdown_ms;
  d["fullscan_ms"] = fullscan_ms;
  d["matched_rows"] = static_cast<double>(matched_rows);
  o["discovery"] = std::move(discovery);

  common::JsonValue e2e = common::JsonValue::Object();
  auto& e = e2e.as_object();
  e["queries"] = static_cast<double>(e2e_queries);
  e["explainq_p50_ms"] = e2e_p50_ms;
  e["explainq_p99_ms"] = e2e_p99_ms;
  o["explainq"] = std::move(e2e);
  return out;
}

Result<QuerySweepResult> RunQuerySweep(const QuerySweepOptions& options) {
  QuerySweepResult result;
  result.rows = options.rows;

  std::string root = options.dir;
  if (root.empty()) {
    root = "/tmp/dbsherlock_query_sweep_" + std::to_string(getpid());
  }
  std::string cleanup = "rm -rf '" + root + "'";
  (void)std::system(cleanup.c_str());
  // TenantStore::Open creates only the leaf directory, not parents.
  std::string mkdir = "mkdir -p '" + root + "'";
  (void)std::system(mkdir.c_str());

  // One simulated second per row; the injected cpu plateau gives the
  // high percentile something real to land on.
  simulator::DatasetGenOptions gen;
  gen.normal_duration_sec = static_cast<double>(options.rows);
  gen.seed = options.seed;
  simulator::GeneratedDataset run = simulator::GenerateAnomalyDataset(
      gen, simulator::AnomalyKind::kCpuSaturation,
      /*anomaly_duration_sec=*/60.0);
  const tsdata::Dataset& data = run.data;
  if (data.num_rows() == 0) return Status::Internal("simulator produced 0 rows");

  store::TenantStore::Options store_options;
  store_options.dir = root + "/store";
  store_options.schema = data.schema();
  store_options.seal_rows = options.seal_rows;
  store_options.fsync_on_seal = false;
  auto open = store::TenantStore::Open(std::move(store_options));
  if (!open.ok()) return open.status();
  std::unique_ptr<store::TenantStore> store = std::move(*open);
  std::vector<tsdata::Cell> cells;
  for (size_t row = 0; row < data.num_rows(); ++row) {
    data.RowCells(row, &cells);
    common::Status appended = store->Append(data.timestamp(row), cells);
    if (!appended.ok()) return appended;
  }
  common::Status sealed = store->Seal();
  if (!sealed.ok()) return sealed;

  double t_end = data.timestamp(data.num_rows() - 1) + 1.0;
  result.statement = "EXPLAIN WHERE cpu > p99.8 BETWEEN 0 " +
                     query::FormatNumber(t_end) +
                     " RANK BY confidence TOP 3";

  // --- Section 1: front-end latency ----------------------------------
  std::vector<double> parse_us;
  parse_us.reserve(options.parse_iters);
  for (size_t i = 0; i < options.parse_iters; ++i) {
    auto t0 = std::chrono::steady_clock::now();
    auto parsed = query::Parse(result.statement);
    parse_us.push_back(SecondsSince(t0) * 1e6);
    if (!parsed.ok()) return parsed.status();
  }
  result.parse_us_mean = common::Mean(parse_us);
  result.parse_us_p99 = common::Quantile(parse_us, 0.99);

  auto parsed = query::Parse(result.statement);
  if (!parsed.ok()) return parsed.status();
  query::CompileContext compile_context;
  tsdata::Schema schema = data.schema();
  compile_context.schema = &schema;
  compile_context.history = store.get();
  std::vector<double> compile_us;
  compile_us.reserve(options.compile_iters);
  query::CompiledQuery compiled;
  for (size_t i = 0; i < options.compile_iters; ++i) {
    auto t0 = std::chrono::steady_clock::now();
    auto c = query::Compile(*parsed, result.statement, compile_context);
    compile_us.push_back(SecondsSince(t0) * 1e6);
    if (!c.ok()) return c.status();
    compiled = std::move(*c);
  }
  result.compile_us_mean = common::Mean(compile_us);
  result.compile_us_p99 = common::Quantile(compile_us, 0.99);
  result.quantile_segments_total = compiled.quantile_stats.segments_total;
  result.quantile_segments_decoded = compiled.quantile_stats.segments_decoded;

  // --- Section 2: discovery pushdown vs full decode ------------------
  store::ScanOptions scan;
  scan.t0 = 0.0;
  scan.t1 = t_end;
  for (const query::CompiledCondition& condition : compiled.conditions) {
    scan.bounds.push_back(condition.bound);
  }
  store::ScanStats pushdown_stats, full_stats;
  double best_pushdown = std::numeric_limits<double>::infinity();
  double best_full = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < std::max<size_t>(options.scan_iters, 1); ++i) {
    scan.prune = true;
    auto t0 = std::chrono::steady_clock::now();
    auto pruned = store->ScanWithOptions(scan, &pushdown_stats);
    best_pushdown = std::min(best_pushdown, SecondsSince(t0) * 1e3);
    if (!pruned.ok()) return pruned.status();
    result.matched_rows = pushdown_stats.rows_out;

    scan.prune = false;
    t0 = std::chrono::steady_clock::now();
    auto full = store->ScanWithOptions(scan, &full_stats);
    best_full = std::min(best_full, SecondsSince(t0) * 1e3);
    if (!full.ok()) return full.status();
    if (pruned->num_rows() != full->num_rows()) {
      return Status::Internal("pushdown scan disagrees with full decode");
    }
  }
  result.segments_total = pushdown_stats.segments_total;
  result.pushdown_segments_decoded = pushdown_stats.segments_decoded;
  result.fullscan_segments_decoded = full_stats.segments_decoded;
  result.pushdown_ms = best_pushdown;
  result.fullscan_ms = best_full;

  // --- Section 3: end-to-end EXPLAINQ over the socket ----------------
  if (options.daemon_binary.empty() || options.e2e_queries == 0) {
    return result;
  }
  DaemonProcess daemon;
  DaemonProcess::Options daemon_options;
  daemon_options.binary = options.daemon_binary;
  daemon_options.command = "serve";
  daemon_options.args = {"--port", "0",
                         "--wal-dir", root + "/wal",
                         "--store-dir", root + "/daemon-store",
                         "--seal-rows", std::to_string(options.seal_rows)};
  common::Status started = daemon.Start(daemon_options);
  if (!started.ok()) return started;

  auto client = service::Client::Connect("127.0.0.1", daemon.port());
  if (!client.ok()) return client.status();
  common::Status hello = (*client)->Hello("bench", schema);
  if (!hello.ok()) return hello;
  size_t e2e_rows = std::min(options.e2e_rows, data.num_rows());
  // The tail keeps the injected anomaly (it sits at the end of the run).
  size_t first = data.num_rows() - e2e_rows;
  for (size_t row = first; row < data.num_rows(); ++row) {
    data.RowCells(row, &cells);
    common::Status appended =
        (*client)->AppendRetrying("bench", data.timestamp(row), cells);
    if (!appended.ok()) return appended;
  }
  common::Status flushed = (*client)->Flush("bench");
  if (!flushed.ok()) return flushed;

  std::string e2e_statement =
      "EXPLAIN WHERE cpu > p99.8 BETWEEN " +
      query::FormatNumber(data.timestamp(first)) + " " +
      query::FormatNumber(t_end) + " RANK BY confidence TOP 3";
  std::vector<double> e2e_ms;
  e2e_ms.reserve(options.e2e_queries);
  for (size_t i = 0; i < options.e2e_queries; ++i) {
    auto t0 = std::chrono::steady_clock::now();
    auto report = (*client)->Explain("bench", e2e_statement);
    e2e_ms.push_back(SecondsSince(t0) * 1e3);
    if (!report.ok()) return report.status();
  }
  result.e2e_queries = e2e_ms.size();
  result.e2e_p50_ms = common::Quantile(e2e_ms, 0.50);
  result.e2e_p99_ms = common::Quantile(e2e_ms, 0.99);
  (void)(*client)->Quit();
  (void)std::system(cleanup.c_str());
  return result;
}

}  // namespace dbsherlock::eval
