// The `dbsherlock` command-line tool: the full workflow of the paper's
// Figure 2 from a shell. Subcommands:
//
//   simulate  generate a telemetry CSV with an injected anomaly
//   plot      render an attribute as an ASCII (or SVG) chart
//   detect    find abnormal regions automatically (Section 7)
//   diagnose  explain an abnormal region (predicates + ranked causes)
//   teach     confirm a cause for a region and store/merge its causal model
//   models    list the causal models in a model file
//   client    drive a running dbsherlockd (append, query, diagnose-range)
//   store-inspect  print the manifest of an on-disk telemetry history dir
//
// Examples:
//   dbsherlock simulate --anomaly lock_contention --out incident.csv
//   dbsherlock plot --data incident.csv --attribute avg_latency_ms
//       --abnormal 60:120
//   dbsherlock diagnose --data incident.csv --abnormal 60:120
//       --models models.json
//   dbsherlock teach --data incident.csv --abnormal 60:120
//       --cause "Lock Contention" --action "spread hot district"
//       --models models.json

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "common/cli.h"
#include "common/metrics.h"
#include "common/strings.h"
#include "common/trace.h"
#include "core/explainer.h"
#include "core/model_io.h"
#include "service/client.h"
#include "service/wire.h"
#include "simulator/dataset_gen.h"
#include "simulator/fault_injector.h"
#include "store/tenant_store.h"
#include "tsdata/data_quality.h"
#include "tsdata/dataset_io.h"
#include "viz/chart.h"
#include "viz/incident_report.h"

namespace {

using namespace dbsherlock;
using common::Args;
using common::Die;

/// Loads --data with the hostile-input flags shared by every data-reading
/// subcommand: --allow-unsorted ingests out-of-order/duplicate timestamps
/// instead of rejecting them, --repair runs the data-quality repair
/// pipeline (implies --allow-unsorted: a corrupted file is exactly what
/// repair exists for), and --quality-report prints the audit (as JSON with
/// --quality-report json).
tsdata::Dataset LoadData(const Args& args) {
  std::string path = args.Get("data");
  if (path.empty()) {
    std::fprintf(stderr, "error: --data <csv> is required\n");
    std::exit(2);
  }
  tsdata::DatasetCsvOptions csv_options;
  csv_options.allow_unsorted = args.Has("allow-unsorted") || args.Has("repair");
  auto dataset = tsdata::ReadDatasetFile(path, csv_options);
  if (!dataset.ok()) Die(dataset.status());

  if (args.Has("quality-report")) {
    auto report = tsdata::AuditDataset(*dataset);
    if (!report.ok()) Die(report.status());
    if (args.Get("quality-report") == "json") {
      std::printf("%s\n", report->ToJson().Dump(2).c_str());
    } else {
      std::fputs(report->ToString().c_str(), stdout);
    }
  }
  if (args.Has("repair")) {
    // The interactive --repair opts into spike masking (the library
    // default is invariant-restoring only; see QualityOptions): an
    // operator handing the CLI a corrupted file wants glitches gone, and
    // a single wild sample left in place would stretch min-max
    // normalization enough to squash every real predicate below theta.
    tsdata::QualityOptions quality;
    quality.max_spike_run = 2;
    auto repaired = tsdata::RepairDataset(*dataset, quality);
    if (!repaired.ok()) Die(repaired.status());
    if (repaired->summary.total_changes() > 0) {
      std::fprintf(stderr,
                   "repair: dropped %zu bad-timestamp + %zu duplicate rows, "
                   "reordered %zu, interpolated %zu cells, masked %zu Inf + "
                   "%zu spikes, left %zu NaN\n",
                   repaired->summary.rows_dropped_non_finite_ts,
                   repaired->summary.rows_dropped_duplicate_ts,
                   repaired->summary.rows_reordered,
                   repaired->summary.cells_interpolated,
                   repaired->summary.cells_masked_inf,
                   repaired->summary.cells_masked_spike,
                   repaired->summary.cells_left_nan);
    }
    return std::move(repaired->data);
  }
  return std::move(*dataset);
}

tsdata::DiagnosisRegions ParseRegions(const Args& args) {
  std::string spec = args.Get("abnormal");
  if (spec.empty()) {
    std::fprintf(stderr,
                 "error: --abnormal <start:end>[,<start:end>...] required\n");
    std::exit(2);
  }
  tsdata::DiagnosisRegions regions;
  for (const std::string& part : common::Split(spec, ',')) {
    std::vector<std::string> bounds = common::Split(part, ':');
    auto fail = [&]() {
      std::fprintf(stderr, "error: bad region '%s' (want start:end)\n",
                   part.c_str());
      std::exit(2);
    };
    if (bounds.size() != 2) fail();
    auto start = common::ParseDouble(bounds[0]);
    auto end = common::ParseDouble(bounds[1]);
    if (!start.ok() || !end.ok() || *end <= *start) fail();
    regions.abnormal.Add(*start, *end);
  }
  return regions;
}

core::ModelRepository LoadModelsIfAny(const Args& args) {
  std::string path = args.Get("models");
  if (path.empty()) return {};
  auto repo = core::LoadRepository(path);
  if (repo.ok()) return std::move(*repo);
  if (repo.status().code() == common::StatusCode::kIoError) {
    return {};  // not created yet; `teach` will write it
  }
  Die(repo.status());
}

int CmdSimulate(const Args& args) {
  std::string anomaly_id = args.Get("anomaly", "workload_spike");
  std::string out_path = args.Get("out", "dbsherlock_dataset.csv");
  double duration = args.GetDouble("duration", 60.0);
  uint64_t seed = static_cast<uint64_t>(args.GetDouble("seed", 42.0));

  const simulator::AnomalyKind* found = nullptr;
  for (const simulator::AnomalyKind& kind : simulator::AllAnomalyKinds()) {
    if (simulator::AnomalyKindId(kind) == anomaly_id) found = &kind;
  }
  if (found == nullptr) {
    std::fprintf(stderr, "unknown anomaly '%s'; options:\n",
                 anomaly_id.c_str());
    for (simulator::AnomalyKind kind : simulator::AllAnomalyKinds()) {
      std::fprintf(stderr, "  %-22s (%s)\n",
                   simulator::AnomalyKindId(kind).c_str(),
                   simulator::AnomalyKindName(kind).c_str());
    }
    return 2;
  }

  simulator::DatasetGenOptions options;
  options.seed = seed;
  simulator::GeneratedDataset run =
      simulator::GenerateAnomalyDataset(options, *found, duration);

  // --inject-faults corrupts the telemetry the way a hostile collector
  // would, for exercising --repair / --quality-report downstream. The
  // output may hold duplicate/out-of-order timestamps; reading it back
  // requires --allow-unsorted (or --repair).
  if (args.Has("inject-faults")) {
    simulator::FaultInjectorConfig faults;
    faults.corruption_rate = args.GetDouble("fault-rate", 0.05);
    faults.seed = static_cast<uint64_t>(args.GetDouble("fault-seed", 1234.0));
    auto faulted = simulator::InjectFaults(run.data, faults);
    if (!faulted.ok()) Die(faulted.status());
    run.data = std::move(faulted->data);
    std::printf("%s\n", faulted->counts.ToString().c_str());
  }

  common::Status status = tsdata::WriteDatasetFile(run.data, out_path);
  if (!status.ok()) Die(status);
  const tsdata::TimeRange& truth = run.regions.abnormal.ranges()[0];
  std::printf("Wrote %zu rows x %zu attributes to %s\n", run.data.num_rows(),
              run.data.num_attributes(), out_path.c_str());
  std::printf("Injected anomaly: %s at [%.0f, %.0f)\n", run.label.c_str(),
              truth.start, truth.end);
  return 0;
}

int CmdPlot(const Args& args) {
  tsdata::Dataset data = LoadData(args);
  std::string attribute = args.Get("attribute", "avg_latency_ms");
  tsdata::RegionSpec abnormal;
  if (args.Has("abnormal")) abnormal = ParseRegions(args).abnormal;

  if (args.Has("svg")) {
    viz::SvgChartOptions options;
    options.title = attribute;
    auto svg = viz::RenderSvgChart(data, {{attribute}}, abnormal, options);
    if (!svg.ok()) Die(svg.status());
    std::string path = args.Get("svg");
    FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    std::fwrite(svg->data(), 1, svg->size(), f);
    std::fclose(f);
    std::printf("Wrote %s\n", path.c_str());
    return 0;
  }

  viz::AsciiChartOptions options;
  options.title = attribute;
  auto chart = viz::RenderAsciiChart(data, attribute, abnormal, options);
  if (!chart.ok()) Die(chart.status());
  std::fputs(chart->c_str(), stdout);
  return 0;
}

int CmdDetect(const Args& args) {
  tsdata::Dataset data = LoadData(args);
  core::AnomalyDetectorOptions options;
  core::DetectionResult result = core::DetectAnomalies(data, options);
  if (result.abnormal.empty()) {
    std::printf("No anomaly detected.\n");
    return 0;
  }
  std::printf("Features: %s\n",
              common::Join(result.selected_attributes, ", ").c_str());
  std::printf("Detected abnormal region(s):\n");
  for (const auto& range : result.abnormal.ranges()) {
    std::printf("  %.0f:%.0f\n", range.start, range.end);
  }
  return 0;
}

void PrintExplanation(const core::Explanation& explanation) {
  if (explanation.predicates.empty()) {
    std::printf("No attribute separates the regions.\n");
    return;
  }
  std::printf("Predicates:\n");
  for (const auto& diag : explanation.predicates) {
    std::printf("  %-55s (separation power %.2f)\n",
                diag.predicate.ToString().c_str(), diag.separation_power);
  }
  if (!explanation.causes.empty()) {
    std::printf("\nLikely causes:\n");
    for (const auto& cause : explanation.causes) {
      std::printf("  %-28s %.1f%%", cause.cause.c_str(), cause.confidence);
      if (!cause.suggested_action.empty()) {
        std::printf("   [last fix: %s]", cause.suggested_action.c_str());
      }
      std::printf("\n");
    }
  }
  if (!explanation.warnings.empty()) {
    std::printf("\nData-quality warnings:\n");
    for (const auto& warning : explanation.warnings) {
      std::printf("  %-28s %s\n", warning.attribute.c_str(),
                  warning.reason.c_str());
    }
  }
}

core::Explainer MakeExplainer(const Args& args) {
  core::Explainer::Options options;
  options.predicate_options.normalized_diff_threshold =
      args.GetDouble("theta", 0.2);
  options.predicate_options.num_partitions =
      static_cast<size_t>(args.GetDouble("partitions", 250.0));
  options.predicate_options.anomaly_distance_multiplier =
      args.GetDouble("delta", 10.0);
  // Clamp before the unsigned cast: negative-double-to-size_t is UB.
  options.predicate_options.parallelism =
      static_cast<size_t>(std::max(0.0, args.GetDouble("threads", 0.0)));
  options.confidence_threshold = args.GetDouble("lambda", 20.0);
  core::Explainer sherlock(options);
  // Note: keep the repository in a named variable; iterating
  // `LoadModelsIfAny(args).models()` directly would dangle (the range-for
  // temporary-lifetime fix only lands in C++23).
  core::ModelRepository loaded = LoadModelsIfAny(args);
  for (const core::CausalModel& m : loaded.models()) {
    sherlock.repository().AddUnmerged(m);
  }
  return sherlock;
}

int CmdDiagnose(const Args& args) {
  tsdata::Dataset data = LoadData(args);
  core::Explainer sherlock = MakeExplainer(args);
  core::Explanation explanation;
  if (args.Has("abnormal")) {
    explanation = sherlock.Diagnose(data, ParseRegions(args));
  } else {
    core::DetectionResult detected;
    explanation = sherlock.DiagnoseAuto(data, &detected);
    if (detected.abnormal.empty()) {
      std::printf("No anomaly detected; pass --abnormal start:end to force "
                  "a region.\n");
      return 0;
    }
    std::printf("Auto-detected abnormal region(s):");
    for (const auto& r : detected.abnormal.ranges()) {
      std::printf(" %.0f:%.0f", r.start, r.end);
    }
    std::printf("\n\n");
  }
  PrintExplanation(explanation);
  return 0;
}

int CmdTeach(const Args& args) {
  std::string cause = args.Get("cause");
  std::string models_path = args.Get("models");
  if (cause.empty() || models_path.empty()) {
    std::fprintf(stderr, "error: --cause and --models are required\n");
    return 2;
  }
  tsdata::Dataset data = LoadData(args);
  core::Explainer sherlock = MakeExplainer(args);
  core::Explanation explanation = sherlock.Diagnose(data, ParseRegions(args));
  if (explanation.predicates.empty()) {
    std::fprintf(stderr, "error: no predicates found; nothing to store\n");
    return 1;
  }
  sherlock.AcceptDiagnosis(cause, explanation, args.Get("action"));
  common::Status status =
      core::SaveRepository(sherlock.repository(), models_path);
  if (!status.ok()) Die(status);
  const core::CausalModel* model = sherlock.repository().Find(cause);
  std::printf("Stored causal model '%s' (%zu predicates, %d diagnoses) in "
              "%s\n",
              cause.c_str(), model->predicates.size(), model->num_sources,
              models_path.c_str());
  return 0;
}

int CmdReport(const Args& args) {
  std::string out_path = args.Get("out", "incident_report.html");
  tsdata::Dataset data = LoadData(args);
  tsdata::DiagnosisRegions regions = ParseRegions(args);
  core::Explainer sherlock = MakeExplainer(args);
  core::Explanation explanation = sherlock.Diagnose(data, regions);

  viz::IncidentReportOptions report_options;
  report_options.title = args.Get("title", "DBSherlock incident report");
  auto html =
      viz::RenderIncidentReport(data, regions, explanation, report_options);
  if (!html.ok()) Die(html.status());
  FILE* f = std::fopen(out_path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fwrite(html->data(), 1, html->size(), f);
  std::fclose(f);
  std::printf("Wrote %s (%zu predicates, %zu causes).\n", out_path.c_str(),
              explanation.predicates.size(), explanation.causes.size());
  return 0;
}

int CmdModels(const Args& args) {
  std::string path = args.Get("models");
  if (path.empty()) {
    std::fprintf(stderr, "error: --models <file> is required\n");
    return 2;
  }
  auto repo = core::LoadRepository(path);
  if (!repo.ok()) Die(repo.status());
  std::printf("%zu causal model(s) in %s\n", repo->size(), path.c_str());
  for (const core::CausalModel& m : repo->models()) {
    std::printf("\n%s  (%zu predicates, %d diagnoses%s%s)\n",
                m.cause.c_str(), m.predicates.size(), m.num_sources,
                m.suggested_action.empty() ? "" : ", action: ",
                m.suggested_action.c_str());
    for (const core::Predicate& p : m.predicates) {
      std::printf("  %s\n", p.ToString().c_str());
    }
  }
  return 0;
}

/// `dbsherlock client`: drive a running dbsherlockd over its wire protocol
/// (see src/service/wire.h and README "Running the daemon"). One action
/// per invocation:
///   --ping | --stats | --models | --modelsync [SEQ] | --health
///   --hello --tenant T --schema "cpu:num,mode:cat"
///   --append-csv f.csv --tenant T   (HELLOs with the CSV's schema, then
///                                    streams every row, honoring
///                                    RETRY_AFTER backpressure)
///   --teach m.json                  (teaches every model in the file)
///   --diagnoses --tenant T | --flush --tenant T
///   --raw "LINE"                    (send one raw request line)
int CmdClient(const Args& args) {
  auto endpoint =
      service::ParseHostPort(args.Get("connect", "127.0.0.1:7379"));
  if (!endpoint.ok()) {
    std::fprintf(stderr, "--connect wants host:port\n");
    return 2;
  }
  service::Client::Options client_options;
  client_options.connect_timeout_ms =
      static_cast<int>(args.GetDouble("connect-timeout-ms", 0));
  client_options.deadline_ms =
      static_cast<int>(args.GetDouble("deadline-ms", 0));
  auto client = service::Client::Connect(endpoint->host, endpoint->port,
                                         client_options);
  if (!client.ok()) Die(client.status());

  if (args.Has("health")) {
    auto json = (*client)->Health();
    if (!json.ok()) Die(json.status());
    std::printf("%s\n", json->Dump(2).c_str());
    return 0;
  }
  if (args.Has("ping")) {
    common::Status status = (*client)->Ping();
    if (!status.ok()) Die(status);
    std::printf("pong\n");
    return 0;
  }
  if (args.Has("raw")) {
    auto response = (*client)->Call(args.Get("raw"));
    if (!response.ok()) Die(response.status());
    switch (response->kind) {
      case service::Response::Kind::kOk:
        std::printf("OK %s\n", response->detail.c_str());
        return 0;
      case service::Response::Kind::kRetryAfter:
        std::printf("RETRY_AFTER %d\n", response->retry_after_ms);
        return 0;
      case service::Response::Kind::kErr:
        Die(response->error);
    }
    return 9;
  }
  if (args.Has("stats") || args.Has("models")) {
    auto json = args.Has("stats") ? (*client)->Stats() : (*client)->Models();
    if (!json.ok()) Die(json.status());
    std::printf("%s\n", json->Dump(2).c_str());
    return 0;
  }
  if (args.Has("modelsync")) {
    // The replication pull a shard peer would make: model corpus with
    // store seq + CRC (see fleet/model_sync.h).
    auto since = common::ParseInt64(args.Get("modelsync", "0"));
    if (!since.ok() || *since < 0) {
      std::fprintf(stderr, "--modelsync wants a since-seq >= 0\n");
      return 2;
    }
    auto json = (*client)->ModelSync(static_cast<uint64_t>(*since));
    if (!json.ok()) Die(json.status());
    std::printf("%s\n", json->Dump(2).c_str());
    return 0;
  }
  if (args.Has("hello")) {
    auto schema = service::ParseSchemaSpec(args.Get("schema"));
    if (!schema.ok()) Die(schema.status());
    common::Status status = (*client)->Hello(args.Get("tenant"), *schema);
    if (!status.ok()) Die(status);
    std::printf("hello %s\n", args.Get("tenant").c_str());
    return 0;
  }
  if (args.Has("teach")) {
    auto repo = core::LoadRepository(args.Get("teach"));
    if (!repo.ok()) Die(repo.status());
    for (const core::CausalModel& model : repo->models()) {
      common::Status status = (*client)->Teach(model);
      if (!status.ok()) Die(status);
    }
    std::printf("taught %zu model(s)\n", repo->size());
    return 0;
  }
  if (args.Has("flush") || args.Has("diagnoses")) {
    std::string tenant = args.Get("tenant");
    if (args.Has("flush")) {
      common::Status status = (*client)->Flush(tenant);
      if (!status.ok()) Die(status);
      if (!args.Has("diagnoses")) {
        std::printf("flushed %s\n", tenant.c_str());
        return 0;
      }
    }
    auto json = (*client)->Diagnoses(tenant);
    if (!json.ok()) Die(json.status());
    std::printf("%s\n", json->Dump(2).c_str());
    return 0;
  }
  if (args.Has("append-csv")) {
    std::string tenant = args.Get("tenant");
    std::string path = args.Get("append-csv");
    // Stream the file in bounded batches instead of materializing the
    // whole dataset: each batch is re-parsed with the real CSV parser
    // (header + batch lines), so quoting/typing match ReadDatasetFile
    // while memory stays O(batch). Arbitrarily long replay files work.
    constexpr size_t kBatchRows = 512;
    std::ifstream in(path);
    if (!in) {
      Die(common::Status::IoError("cannot read " + path));
    }
    std::string header;
    if (!std::getline(in, header)) {
      Die(common::Status::ParseError(path + ": empty file"));
    }
    bool said_hello = false;
    size_t total_rows = 0;
    size_t retries = 0;
    bool done = false;
    while (!done) {
      std::string text = header + "\n";
      size_t batch_rows = 0;
      std::string line;
      while (batch_rows < kBatchRows && std::getline(in, line)) {
        if (common::Trim(line).empty()) continue;
        text += line;
        text += '\n';
        ++batch_rows;
      }
      if (batch_rows < kBatchRows) done = true;
      if (batch_rows == 0) break;
      // Cross-batch ordering is the server's job; within a batch the
      // parser still rejects garbage timestamps.
      tsdata::DatasetCsvOptions csv_options;
      csv_options.allow_unsorted = true;
      auto batch = tsdata::DatasetFromCsv(text, csv_options);
      if (!batch.ok()) Die(batch.status());
      if (!said_hello) {
        common::Status status = (*client)->Hello(tenant, batch->schema());
        if (!status.ok()) Die(status);
        said_hello = true;
      }
      std::vector<tsdata::Cell> cells;
      for (size_t row = 0; row < batch->num_rows(); ++row) {
        batch->RowCells(row, &cells);
        common::Status status =
            (*client)->AppendRetrying(tenant, batch->timestamp(row), cells,
                                      /*max_retries=*/10000, &retries);
        if (!status.ok()) Die(status);
      }
      total_rows += batch->num_rows();
    }
    if (!said_hello) {
      Die(common::Status::ParseError(path + ": no data rows"));
    }
    std::printf("appended %zu row(s) to %s (%zu backpressure retries)\n",
                total_rows, tenant.c_str(), retries);
    return 0;
  }
  if (args.Has("explain")) {
    std::string tenant = args.Get("tenant");
    std::string statement = args.Get("explain");
    if (common::Trim(statement).empty()) {
      std::fprintf(stderr,
                   "--explain wants a DQL statement, e.g. "
                   "\"EXPLAIN WHERE latency > p99 BETWEEN 100 160\"\n");
      return 2;
    }
    std::string format = args.Get("report", "md");
    if (format != "md" && format != "json") {
      std::fprintf(stderr, "--report wants md or json\n");
      return 2;
    }
    auto json = (*client)->Explain(tenant, statement);
    if (!json.ok()) Die(json.status());
    if (format == "json") {
      std::printf("%s\n", json->Dump(2).c_str());
      return 0;
    }
    auto markdown = json->GetString("markdown");
    if (!markdown.ok()) Die(markdown.status());
    std::printf("%s\n", markdown->c_str());
    return 0;
  }
  if (args.Has("query") || args.Has("diagnose-range")) {
    std::string tenant = args.Get("tenant");
    bool query = args.Has("query");
    std::string spec = query ? args.Get("query") : args.Get("diagnose-range");
    std::vector<std::string> parts = common::Split(spec, ':');
    if (parts.size() != 2) {
      std::fprintf(stderr, "--%s wants T0:T1 (seconds)\n",
                   query ? "query" : "diagnose-range");
      return 2;
    }
    auto t0 = common::ParseDouble(parts[0]);
    if (!t0.ok()) Die(t0.status());
    auto t1 = common::ParseDouble(parts[1]);
    if (!t1.ok()) Die(t1.status());
    auto json = query ? (*client)->Query(tenant, *t0, *t1, args.Get("where"))
                      : (*client)->DiagnoseRange(tenant, *t0, *t1);
    if (!json.ok()) Die(json.status());
    if (query && args.Has("csv-out")) {
      // Peel the CSV payload out of the JSON envelope for shell pipelines.
      auto csv = json->GetString("csv");
      if (!csv.ok()) Die(csv.status());
      std::printf("%s", csv->c_str());
      return 0;
    }
    std::printf("%s\n", json->Dump(2).c_str());
    return 0;
  }
  std::fprintf(stderr,
               "client: pick one of --ping --hello --append-csv --teach "
               "--diagnoses --flush --query --diagnose-range --explain "
               "--stats --models --modelsync --health --raw\n");
  return 2;
}

/// `dbsherlock store-inspect`: open a tenant's on-disk telemetry history
/// directory (one dir per tenant under dbsherlockd's --store-dir) and
/// print its recovery report, schema, and segment manifest. Opening runs
/// the store's normal crash recovery, so a torn tail left by kill -9 is
/// truncated here exactly as the daemon would on restart. --dump prints
/// every stored row as CSV instead.
int CmdStoreInspect(const Args& args) {
  std::string dir = args.Get("dir");
  if (dir.empty()) {
    std::fprintf(stderr, "error: --dir <tenant history dir> is required\n");
    return 2;
  }
  store::TenantStore::Options options;
  options.dir = dir;  // empty schema: adopt whatever is on disk
  auto open = store::TenantStore::Open(options);
  if (!open.ok()) Die(open.status());
  store::TenantStore& tenant_store = **open;

  if (args.Has("dump")) {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    auto all = tenant_store.Scan(-kInf, kInf);
    if (!all.ok()) Die(all.status());
    std::fputs(tsdata::DatasetToCsv(*all).c_str(), stdout);
    return 0;
  }

  const store::RecoveryReport& rec = tenant_store.recovery();
  std::printf("%s: %zu segment(s), %llu sealed row(s), %llu byte(s)\n",
              dir.c_str(), tenant_store.num_segments(),
              static_cast<unsigned long long>(tenant_store.sealed_rows()),
              static_cast<unsigned long long>(tenant_store.sealed_bytes()));
  std::printf(
      "recovery: %zu segment(s) ok, %zu dropped (%llu torn byte(s))\n",
      rec.segments_recovered, rec.segments_dropped,
      static_cast<unsigned long long>(rec.bytes_dropped));
  std::printf("schema: %s\n",
              service::FormatSchemaSpec(tenant_store.schema()).c_str());
  if (tenant_store.compression_ratio() > 0.0) {
    std::printf("compression: %.3fx of raw CSV\n",
                tenant_store.compression_ratio());
  }
  const bool show_zones = args.Has("zones");
  const tsdata::Schema& schema = tenant_store.schema();
  for (const store::SegmentInfo& seg : tenant_store.Manifest()) {
    std::printf("  seg %08llu  rows %8llu  bytes %8llu  [%.3f, %.3f]  %s\n",
                static_cast<unsigned long long>(seg.seq),
                static_cast<unsigned long long>(seg.rows),
                static_cast<unsigned long long>(seg.bytes), seg.min_ts,
                seg.max_ts, seg.path.c_str());
    if (!show_zones) continue;
    // Per-attribute zone maps (what the scan planner prunes against).
    for (size_t i = 0; i < seg.zones.attrs.size(); ++i) {
      const store::AttrZone& zone = seg.zones.attrs[i];
      std::string name = i < schema.num_attributes()
                             ? schema.attribute(i).name
                             : common::StrFormat("attr%zu", i);
      if (zone.non_nan_count == 0) {
        std::printf("      zone %-20s  all-NaN\n", name.c_str());
      } else if (zone.min > zone.max) {
        // Categorical column: counted, but no numeric range to prune on.
        std::printf("      zone %-20s  no numeric range  rows %llu\n",
                    name.c_str(),
                    static_cast<unsigned long long>(zone.non_nan_count));
      } else {
        std::printf(
            "      zone %-20s  [%.6g, %.6g]  non_nan %llu  finite %llu\n",
            name.c_str(), zone.min, zone.max,
            static_cast<unsigned long long>(zone.non_nan_count),
            static_cast<unsigned long long>(zone.finite_count));
      }
    }
  }
  return 0;
}

common::Status WriteTextFile(const std::string& path,
                             const std::string& content) {
  FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return common::Status::IoError("cannot write " + path);
  }
  std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
  return common::Status::OK();
}

/// Pre-registers the pipeline's well-known counters so a metrics snapshot
/// always carries the full taxonomy: a 0 means "never happened" while an
/// absent key would be ambiguous with "not instrumented" — and subsystems
/// this command never touched (e.g. the streaming monitor during a batch
/// diagnose) still show up for scripts diffing snapshots across runs.
void PreRegisterPipelineMetrics() {
  static const char* const kCounters[] = {
      "explainer.diagnoses",
      "detect.runs",
      "predgen.predicates_emitted",
      "predgen.attributes_skipped_quality",
      "repository.models_scored",
      "parallel.tasks_submitted",
      "partition_cache.hits",
      "partition_cache.misses",
      "partition_cache.entries_built",
      "partition_cache.evictions",
      "streaming_monitor.rows_appended",
      "streaming_monitor.rows_dropped_late",
      "streaming_monitor.rows_dropped_duplicate",
      "streaming_monitor.rows_dropped_non_finite",
      "streaming_monitor.detections_run",
      "streaming_monitor.alerts_raised",
  };
  for (const char* name : kCounters) {
    common::MetricsRegistry::Global().GetCounter(name);
  }
}

/// Observability flags, accepted by every subcommand (DESIGN.md §9):
///   --trace-out f.json   record spans for the whole run, write a
///                        chrome://tracing file (plus a per-span summary
///                        table on stderr)
///   --metrics-out f.json write the process metrics snapshot as JSON
///   --print-metrics      print the flat metrics snapshot to stderr
/// Reports are written after the command finishes, win or lose, so a
/// failing diagnosis still leaves its trace behind.
int EmitObservability(const Args& args, int command_rc) {
  int rc = command_rc;
  if (args.Has("trace-out")) {
    common::Tracer& tracer = common::Tracer::Global();
    tracer.Disable();
    common::Status status =
        WriteTextFile(args.Get("trace-out"), tracer.ExportChromeJson());
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
      if (rc == 0) rc = common::ExitCodeFor(status);
    } else {
      std::fprintf(stderr, "trace: %zu span(s) -> %s (%zu dropped)\n",
                   tracer.events_recorded() - tracer.events_dropped(),
                   args.Get("trace-out").c_str(), tracer.events_dropped());
      std::fputs(tracer.SummaryText().c_str(), stderr);
    }
  }
  if (args.Has("metrics-out")) {
    common::Status status =
        WriteTextFile(args.Get("metrics-out"),
                      common::MetricsRegistry::Global().SnapshotJson().Dump(2));
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
      if (rc == 0) rc = common::ExitCodeFor(status);
    } else {
      std::fprintf(stderr, "metrics: snapshot -> %s\n",
                   args.Get("metrics-out").c_str());
    }
  }
  if (args.Has("print-metrics")) {
    std::fputs(common::MetricsRegistry::Global().SnapshotText().c_str(),
               stderr);
  }
  return rc;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: dbsherlock <command> [flags]\n"
      "commands:\n"
      "  simulate  --anomaly <id> [--duration N] [--seed S] [--out f.csv]\n"
      "            [--inject-faults [--fault-rate R] [--fault-seed S]]\n"
      "  plot      --data f.csv --attribute <name> [--abnormal a:b]\n"
      "            [--svg out.svg]\n"
      "  detect    --data f.csv\n"
      "  diagnose  --data f.csv [--abnormal a:b[,c:d]] [--models m.json]\n"
      "            [--theta T] [--delta D] [--partitions R] [--lambda L]\n"
      "            [--threads N]  (0 = one per core, 1 = serial)\n"
      "  teach     --data f.csv --abnormal a:b --cause NAME --models m.json\n"
      "            [--action TEXT]\n"
      "  report    --data f.csv --abnormal a:b [--models m.json]\n"
      "            [--out report.html] [--title TEXT]\n"
      "  models    --models m.json\n"
      "  client    --connect host:port  (drive a running dbsherlockd)\n"
      "            [--connect-timeout-ms N] [--deadline-ms N]  (0 = wait\n"
      "              forever; a missed deadline exits 10)\n"
      "            --ping | --stats | --models | --modelsync [SEQ] |\n"
      "            --health | --raw \"LINE\"\n"
      "            | --hello --tenant T --schema \"a:num,b:cat\"\n"
      "            | --append-csv f.csv --tenant T  (streams in bounded\n"
      "              batches, honoring RETRY_AFTER backpressure)\n"
      "            | --teach m.json | --diagnoses --tenant T\n"
      "            | --flush --tenant T\n"
      "            | --query T0:T1 --tenant T [--csv-out]\n"
      "              [--where \"attr>=v;attr<=v\"]  (zone-map pushdown)\n"
      "            | --diagnose-range T0:T1 --tenant T\n"
      "            | --explain \"DQL\" --tenant T [--report md|json]\n"
      "              (e.g. \"EXPLAIN WHERE latency > p99 BETWEEN 100 160\n"
      "              RANK BY confidence TOP 3\"; md prints the incident\n"
      "              report, json the full structured object)\n"
      "  store-inspect --dir DIR  (tenant history dir: recovery report,\n"
      "            schema, segment manifest; --dump prints rows as CSV;\n"
      "            --zones prints per-attribute zone maps per segment)\n"
      "data flags (plot/detect/diagnose/teach/report):\n"
      "  --allow-unsorted  ingest duplicate/out-of-order timestamps\n"
      "  --repair          run the data-quality repair pipeline after load\n"
      "                    (implies --allow-unsorted)\n"
      "  --quality-report [json]  print the data-quality audit\n"
      "observability flags (all commands):\n"
      "  --trace-out f.json    record pipeline spans, write a\n"
      "                        chrome://tracing file + summary on stderr\n"
      "  --metrics-out f.json  write the metrics snapshot (counters,\n"
      "                        gauges, latency histograms) as JSON\n"
      "  --print-metrics       print the flat metrics snapshot to stderr\n"
      "exit codes: 0 ok, 2 usage, 3 invalid argument, 4 not found,\n"
      "  5 out of range, 6 failed precondition, 7 I/O error, 8 parse\n"
      "  error, 9 internal error, 10 deadline exceeded, 11 resource\n"
      "  exhausted\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string command = argv[1];
  Args args(argc, argv, 2);
  // Tracing must be live before the command runs; it is torn down (and the
  // files are written) in EmitObservability.
  if (args.Has("trace-out")) dbsherlock::common::Tracer::Global().Enable();
  if (args.Has("metrics-out") || args.Has("print-metrics")) {
    PreRegisterPipelineMetrics();
  }
  int rc;
  if (command == "simulate") rc = CmdSimulate(args);
  else if (command == "plot") rc = CmdPlot(args);
  else if (command == "detect") rc = CmdDetect(args);
  else if (command == "diagnose") rc = CmdDiagnose(args);
  else if (command == "teach") rc = CmdTeach(args);
  else if (command == "report") rc = CmdReport(args);
  else if (command == "models") rc = CmdModels(args);
  else if (command == "client") rc = CmdClient(args);
  else if (command == "store-inspect") rc = CmdStoreInspect(args);
  else return Usage();
  return EmitObservability(args, rc);
}
