// The traced run's per-layer numbers: the run's own operations replayed
// in-process through each layer's public functions, with a span around
// every call. Each operation gets a root span (`op.<type>`) whose children
// are the layer calls the daemon makes for it, in the daemon's order, so
// a root's self time is the glue between layers. Functions that a layer
// calls internally (GeneratePredicates inside Explainer::Diagnose,
// ResolveQuantile inside Compile, DetectAnomalies inside Execute) are
// timed by separate probe calls on the same inputs, outside the op roots.

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/anomaly_detector.h"
#include "core/explainer.h"
#include "core/model_repository.h"
#include "core/predicate_generator.h"
#include "core/streaming_monitor.h"
#include "query/compiler.h"
#include "query/executor.h"
#include "query/parser.h"
#include "query/report.h"
#include "service/model_store.h"
#include "service/service.h"
#include "service/wire.h"
#include "spans.h"
#include "stats.h"
#include "store/segment.h"
#include "store/tenant_store.h"
#include "tsdata/dataset_io.h"
#include "tsdata/region.h"
#include "workloads.h"

namespace perfbench {

namespace fs = std::filesystem;
namespace core = dbsherlock::core;
namespace query = dbsherlock::query;
namespace store = dbsherlock::store;
namespace tsdata = dbsherlock::tsdata;
namespace service = dbsherlock::service;

namespace {

// Replay sizes: enough calls for stable medians, small enough that the
// replay takes a few seconds.
constexpr size_t kAppendLines = 20000;
constexpr size_t kMonitorTenants = 4;
constexpr size_t kMonitorRows = 3000;
constexpr size_t kReadsPerKind = 12;
constexpr double kContextFactor = 8.0;  // the service's range_context_factor

/// Per-call measurements by metric name: times, counts and per-unit costs.
struct Samples {
  std::map<std::string, std::vector<double>> values;
  void Add(const std::string& k, double v) { values[k].push_back(v); }
};

template <typename F>
auto Timed(const char* name, double* us, F&& fn) {
  double t0 = NowUs();
  Scoped span(name);
  auto result = fn();
  *us = NowUs() - t0;
  return result;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

Status ReplayAppends(const Corpus& corpus, const WorkloadRun& run,
                     Samples* samples) {
  const auto& streams = run.leftovers.streams;
  auto model_store = service::DurableModelStore::Open({});
  if (!model_store.ok()) return model_store.status();
  service::Service::Options options;
  options.store = model_store->get();
  service::Service svc(options);
  size_t tenants = std::min<size_t>(streams.size(), 16);
  for (size_t t = 0; t < tenants; ++t) {
    DBSHERLOCK_RETURN_NOT_OK(svc.Hello(streams[t].name, corpus.schema));
  }
  // Rows go in tenant-interleaved order and at most one queue's worth per
  // tenant between flushes, as the writers send them.
  size_t per_tenant = std::min<size_t>(kAppendLines / tenants, run.leftovers.rows_sent[0]);
  for (size_t base = 0; base < per_tenant; base += kQueueCapacity) {
    for (size_t r = base; r < std::min(per_tenant, base + kQueueCapacity); ++r) {
      for (size_t t = 0; t < tenants; ++t) {
        const TenantStream& s = streams[t];
        std::string line = "APPENDSEQ " + s.name + " " + std::to_string(r + 1) +
                           " " + std::to_string(static_cast<long long>(s.Timestamp(r))) +
                           " " + s.CellText(r);
        Scoped op("op.append");
        double us = 0;
        auto parsed = Timed("wire.parse", &us,
                            [&] { return service::ParseRequestLine(line); });
        if (!parsed.ok()) return parsed.status();
        samples->Add("wire.parse_append_us", us);
        auto outcome = Timed("service.append", &us, [&] {
          return svc.Append(s.name, s.Timestamp(r), s.Cells(r),
                            parsed->client_seq);
        });
        if (!outcome.ok()) return outcome.status();
        samples->Add("service.append_us", us);
      }
    }
    DBSHERLOCK_RETURN_NOT_OK(svc.FlushAll());
  }
  svc.Stop();
  return Status::OK();
}

Status ReplayMonitorAndStore(const Env& env, const Corpus& corpus,
                             const WorkloadRun& run, Samples* samples) {
  const auto& streams = run.leftovers.streams;
  core::StreamingMonitor::Options monitor_options;  // daemon defaults
  monitor_options.diagnose_inline = false;
  for (size_t t = 0; t < std::min(kMonitorTenants, streams.size()); ++t) {
    const TenantStream& s = streams[t];
    core::StreamingMonitor monitor(corpus.schema, monitor_options);
    store::TenantStore::Options store_options;
    store_options.dir = env.work_dir + "/replay-store-" + std::to_string(t);
    store_options.schema = corpus.schema;
    store_options.seal_rows = kSealRows;
    auto history = store::TenantStore::Open(store_options);
    if (!history.ok()) return history.status();
    size_t rows = std::min(kMonitorRows, run.leftovers.rows_sent[t]);
    size_t since_detect = 0;
    for (size_t r = 0; r < rows; ++r) {
      std::vector<Cell> cells = s.Cells(r);
      ++since_detect;
      bool detects = r + 1 >= monitor_options.warmup_rows &&
                     since_detect >= monitor_options.detect_every;
      if (detects) since_detect = 0;
      double us = 0;
      Timed(detects ? "monitor.detect" : "monitor.append", &us,
            [&] { return monitor.Append(s.Timestamp(r), cells); });
      samples->Add(detects ? "monitor.detect_ms" : "monitor.append_us",
                   detects ? us / 1000.0 : us);
      size_t before = (*history)->num_segments();
      Status appended = Status::OK();
      double t0 = NowUs();
      {
        Scoped span("store.append");
        appended = (*history)->Append(s.Timestamp(r), cells);
      }
      us = NowUs() - t0;
      if (!appended.ok()) return appended;
      if ((*history)->num_segments() != before) {
        samples->Add("store.seal_ms", us / 1000.0);
      } else {
        samples->Add("store.append_us", us);
      }
    }
    fs::remove_all(store_options.dir);
  }
  // EncodeSegment on seal-sized slices of the streams.
  for (size_t t = 0; t < std::min(kMonitorTenants, streams.size()); ++t) {
    const TenantStream& s = streams[t];
    for (size_t base = 0; base + kSealRows <= std::min(kMonitorRows, run.leftovers.rows_sent[t]);
         base += kSealRows) {
      tsdata::Dataset data(corpus.schema);
      for (size_t r = base; r < base + kSealRows; ++r) {
        DBSHERLOCK_RETURN_NOT_OK(data.AppendRow(s.Timestamp(r), s.Cells(r)));
      }
      double us = 0;
      std::string blob = Timed("segment.encode", &us,
                               [&] { return store::EncodeSegment(data); });
      double values = static_cast<double>(kSealRows * corpus.schema.num_attributes());
      samples->Add("segment.encode_ns_per_value", us * 1000.0 / values);
      samples->Add("store.bytes_per_row",
                   static_cast<double>(blob.size()) / static_cast<double>(kSealRows));
    }
  }
  return Status::OK();
}

struct OpenStores {
  std::vector<std::unique_ptr<store::TenantStore>> stores;  // per stream
};

Status ReplayOpenAndDecode(const Corpus& corpus, const WorkloadRun& run,
                           OpenStores* open, Samples* samples) {
  for (const std::string& dir : run.leftovers.store_dirs) {
    store::TenantStore::Options options;
    options.dir = dir;
    options.schema = corpus.schema;
    options.seal_rows = kSealRows;
    double us = 0;
    auto opened = Timed("store.open", &us,
                        [&] { return store::TenantStore::Open(options); });
    if (!opened.ok()) return opened.status();
    samples->Add("store.open_ms", us / 1000.0);
    for (const store::SegmentInfo& seg : (*opened)->Manifest()) {
      std::string bytes = ReadFile(seg.path);
      auto decoded = Timed("segment.decode", &us,
                           [&] { return store::DecodeSegment(bytes); });
      if (!decoded.ok()) return decoded.status();
      double values = static_cast<double>(decoded->num_rows() * decoded->num_attributes());
      samples->Add("segment.decode_ns_per_value", us * 1000.0 / values);
    }
    open->stores.push_back(std::move(*opened));
  }
  return Status::OK();
}

/// Splits "VERB tenant rest..." into its fields.
std::vector<std::string> Fields(const std::string& line, size_t n) {
  std::vector<std::string> out;
  size_t pos = 0;
  while (out.size() + 1 < n) {
    size_t sp = line.find(' ', pos);
    out.push_back(line.substr(pos, sp - pos));
    pos = sp + 1;
  }
  out.push_back(line.substr(pos));
  return out;
}

Status ReplayReads(const Corpus& corpus, const WorkloadRun& run,
                   const OpenStores& open, Samples* samples) {
  core::Explainer::Options explainer_options;
  core::Explainer explainer(explainer_options);
  core::ModelRepository repository;
  for (const CausalModel& model : corpus.models) repository.Add(model);
  auto rank = [&](const tsdata::Dataset& window,
                  const tsdata::DiagnosisRegions& regions) {
    tsdata::LabeledRows rows = tsdata::SplitRows(window, regions);
    return repository.Rank(window, rows, explainer_options.predicate_options,
                           20.0);
  };
  // DIAGNOSE_RANGE windows kept for the GeneratePredicates probe.
  std::vector<std::pair<tsdata::Dataset, tsdata::DiagnosisRegions>> probes;
  std::map<std::string, size_t> done;
  for (const Leftovers::Read& read : run.leftovers.reads) {
    if (done[read.kind]++ >= kReadsPerKind) continue;
    const store::TenantStore& history = *open.stores[read.stream];
    double us = 0;
    if (read.kind == "diagnose_range" || read.kind == "query") {
      std::vector<std::string> f = Fields(read.line, read.kind == "query" ? 6 : 4);
      double t0 = std::strtod(f[2].c_str(), nullptr);
      double t1 = std::strtod(f[3].c_str(), nullptr);
      store::ScanOptions scan;
      store::ScanStats stats;
      Scoped op(read.kind == "query" ? "op.query" : "op.diagnose_range");
      if (read.kind == "query") {
        // f[5] is "attr>=value".
        size_t ge = f[5].find(">=");
        store::AttributeBound bound;
        bound.attribute = f[5].substr(0, ge);
        bound.lo = std::strtod(f[5].c_str() + ge + 2, nullptr);
        scan.t0 = t0;
        scan.t1 = t1;
        scan.bounds = {bound};
        scan.max_rows = 5000;  // the service's max_query_rows
        auto rows = Timed("store.scan", &us,
                          [&] { return history.ScanWithOptions(scan, &stats); });
        if (!rows.ok()) return rows.status();
        samples->Add("store.scan_ms", us / 1000.0);
        samples->Add("store.scan_segments_decoded", static_cast<double>(stats.segments_decoded));
        if (stats.rows_out > 0) {
          samples->Add("store.decoded_rows_per_returned_row",
                       static_cast<double>(stats.segments_decoded * kSealRows) /
                           static_cast<double>(stats.rows_out));
        }
        Timed("service.render", &us, [&] { return tsdata::DatasetToCsv(*rows); });
        continue;
      }
      double context = (t1 - t0) * kContextFactor;
      scan.t0 = t0 - context;
      scan.t1 = t1 + context;
      tsdata::DiagnosisRegions regions;
      regions.abnormal = tsdata::RegionSpec({tsdata::TimeRange{t0, t1}});
      auto window = Timed("store.scan", &us,
                          [&] { return history.ScanWithOptions(scan, &stats); });
      if (!window.ok()) return window.status();
      samples->Add("store.scan_ms", us / 1000.0);
      samples->Add("store.scan_segments_decoded", static_cast<double>(stats.segments_decoded));
      Timed("explainer.diagnose", &us,
            [&] { return explainer.Diagnose(*window, regions); });
      samples->Add("explainer.diagnose_ms", us / 1000.0);
      Timed("repository.rank", &us, [&] { return rank(*window, regions); });
      samples->Add("repository.rank_ms", us / 1000.0);
      probes.push_back({std::move(*window), std::move(regions)});
      continue;
    }
    // EXPLAINQ: Parse -> Compile -> Execute -> render, as the service does.
    std::vector<std::string> f = Fields(read.line, 3);
    const std::string& text = f[2];
    query::CompileContext compile_context;
    compile_context.schema = &corpus.schema;
    compile_context.history = &history;
    query::ExecutionContext exec_context;
    exec_context.schema = &corpus.schema;
    exec_context.history = &history;
    exec_context.explainer = &explainer;
    exec_context.rank = rank;
    exec_context.models = corpus.models.size();
    query::ExecutorOptions exec_options;
    exec_options.range_context_factor = kContextFactor;
    exec_options.detector = explainer_options.detector_options;
    exec_options.parallelism = explainer_options.predicate_options.parallelism;
    query::CompiledQuery compiled_copy;
    query::IncidentReport report_copy;
    {
      Scoped op(read.kind == "explainq_pn" ? "op.explainq_pn" : "op.explainq_abs");
      auto parsed = Timed("query.parse", &us, [&] { return query::Parse(text); });
      if (!parsed.ok()) return parsed.status();
      samples->Add("query.parse_us", us);
      auto compiled = Timed("query.compile", &us, [&] {
        return query::Compile(*parsed, text, compile_context);
      });
      if (!compiled.ok()) return compiled.status();
      samples->Add("query.compile_ms", us / 1000.0);
      auto report = Timed("query.execute", &us, [&] {
        return query::Execute(*compiled, exec_context, exec_options);
      });
      if (!report.ok()) return report.status();
      samples->Add("query.execute_ms", us / 1000.0);
      double render_us = 0;
      Timed("query.render", &render_us, [&] {
        auto json = query::ReportToJson(*report);
        json.as_object()["markdown"] = query::RenderMarkdown(*report);
        return json.Dump().size();
      });
      samples->Add("query.render_ms", render_us / 1000.0);
      compiled_copy = std::move(*compiled);
      report_copy = std::move(*report);
    }
    // Probes on the same inputs: the quantile resolution Compile did, and
    // the detector run Execute did on each finding's window.
    Scoped probe("probe");
    for (const query::CompiledCondition& c : compiled_copy.conditions) {
      if (!c.source.threshold.is_percentile) continue;
      store::QuantileStats qs;
      auto value = Timed("store.quantile", &us, [&] {
        return history.ResolveQuantile(c.attribute, c.source.threshold.percentile / 100.0, &qs);
      });
      if (!value.ok()) return value.status();
      samples->Add("store.quantile_ms", us / 1000.0);
      samples->Add("store.quantile_segments_decoded", static_cast<double>(qs.segments_decoded));
    }
    for (const query::RegionFinding& finding : report_copy.findings) {
      double len = finding.region.end - finding.region.start;
      store::ScanOptions scan;
      scan.t0 = finding.region.start - len * kContextFactor;
      scan.t1 = finding.region.end + len * kContextFactor;
      store::ScanStats stats;
      auto window = history.ScanWithOptions(scan, &stats);
      if (!window.ok()) return window.status();
      Timed("detector.detect", &us, [&] {
        return core::DetectAnomalies(*window, exec_options.detector);
      });
      samples->Add("detector.detect_ms", us / 1000.0);
    }
  }
  Scoped probe("probe");
  for (const auto& [window, regions] : probes) {
    double us = 0;
    Timed("predicates.generate", &us, [&] {
      return core::GeneratePredicates(window, regions,
                                      explainer_options.predicate_options);
    });
    samples->Add("predicates.generate_ms", us / 1000.0);
  }
  return Status::OK();
}

}  // namespace

Status ReplayLayers(const Env& env, const Corpus& corpus,
                    const WorkloadRun& run,
                    std::map<std::string, double>* layers,
                    JsonValue* accounting, std::vector<Span>* spans_out) {
  SpanRecorder::Global().Take();
  SpanRecorder::Global().SetEnabled(true);
  Samples samples;
  OpenStores open;
  Status status = ReplayAppends(corpus, run, &samples);
  if (status.ok()) status = ReplayMonitorAndStore(env, corpus, run, &samples);
  if (status.ok()) status = ReplayOpenAndDecode(corpus, run, &open, &samples);
  if (status.ok()) status = ReplayReads(corpus, run, open, &samples);
  SpanRecorder::Global().SetEnabled(false);
  std::vector<Span> spans = SpanRecorder::Global().Take();
  DBSHERLOCK_RETURN_NOT_OK(status);

  for (const auto& [name, values] : samples.values) {
    (*layers)[name] = Median(values);
  }

  // Per operation type: median in-process time, each layer's median self
  // time, and the root's own share (glue between the layer calls).
  std::vector<double> self = SelfTimesUs(spans);
  std::map<uint32_t, size_t> index;
  for (size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::map<std::string, std::map<std::string, std::vector<double>>> per_op;
  std::map<std::string, std::vector<double>> totals;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::string name = s.name;
    if (s.parent == 0) {
      if (name.rfind("op.", 0) == 0) {
        totals[name.substr(3)].push_back((s.end_us - s.start_us) / 1000.0);
        per_op[name.substr(3)]["(op glue)"].push_back(self[i] / 1000.0);
      }
      continue;
    }
    const Span& root = spans[index[s.trace]];
    std::string root_name = root.name;
    if (root_name.rfind("op.", 0) != 0) continue;
    per_op[root_name.substr(3)][name].push_back(self[i] / 1000.0);
  }
  JsonValue::Object acc;
  for (const auto& [op, by_layer] : per_op) {
    JsonValue::Object entry;
    JsonValue::Object layer_ms;
    double sum = 0;
    size_t ops = totals[op].size();
    for (const auto& [layer, values] : by_layer) {
      // Self time per operation: total over the op's calls / op count.
      double total = 0;
      for (double v : values) total += v;
      double per = ops > 0 ? total / static_cast<double>(ops) : 0.0;
      layer_ms[layer] = per;
      sum += per;
    }
    entry["ops_replayed"] = static_cast<double>(ops);
    entry["layer_self_ms"] = JsonValue(std::move(layer_ms));
    entry["in_process_ms"] = sum;
    acc[op] = JsonValue(std::move(entry));
  }
  *accounting = JsonValue(std::move(acc));
  *spans_out = std::move(spans);
  return Status::OK();
}

}  // namespace perfbench
