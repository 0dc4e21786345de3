// perfbench_loadgen: runs one benchmark workload against real dbsherlockd
// processes and writes its result as JSON.
//
//   perfbench_loadgen --workload ingest --seed 7 --seconds 10 --trace 0
//       --daemon .bench_build/dbsherlockd --work-dir DIR --out result.json
//
// --trace 0 measures the end-to-end metrics. --trace 1 runs the workload
// twice at half length, untraced and then with spans around every client
// call (the difference is the tracing overhead), and then replays the
// run's operations in-process through each layer for the per-layer
// numbers. Exit status: 0 when the run completed (wrong answers are
// counted in the result), 1 on an infrastructure failure, 2 on bad usage.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>

#include "spans.h"
#include "stats.h"
#include "telemetry.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Metric {
  double value = 0.0;
  const char* unit = "";
  size_t samples = 0;
};

using MetricMap = std::map<std::string, Metric>;

void P50(MetricMap* out, const std::string& name,
         const std::vector<double>& ms) {
  (*out)[name] = Metric{Median(ms), "ms", ms.size()};
}

/// The end-to-end metrics of one wire run. Tails are block medians
/// (BlockTail). Returns false when a tail percentile lacks ten samples
/// beyond it even in one block (the run was too short).
bool EndToEnd(const Measured& m, MetricMap* out, std::string* why) {
  std::vector<double> reads;
  for (const auto& [op, ms] : m.op_ms) {
    if (op != "append") reads.insert(reads.end(), ms.begin(), ms.end());
  }
  auto op = [&](const char* name) -> const std::vector<double>& {
    static const std::vector<double> none;
    auto it = m.op_ms.find(name);
    return it == m.op_ms.end() ? none : it->second;
  };
  (*out)["setup_s"] = Metric{Median(m.setup_s), "s", m.setup_s.size()};
  (*out)["daemon_rss_mb"] = Metric{m.daemon_rss_mb, "MB", 1};
  (*out)["ingest_rows_per_s"] =
      Metric{m.ingest_rows_per_s, "rows/s", op("append").size()};
  P50(out, "append_p50_ms", op("append"));
  TailPoint p99 = BlockTail(op("append"), 99.0);
  (*out)["append_p99_ms"] = Metric{p99.value, "ms", p99.samples};
  P50(out, "diagnosis_p50_ms", m.diagnosis_ms);
  (*out)["store_bytes_ratio"] = Metric{m.store_bytes_ratio, "ratio", 1};
  for (const char* read : {"explainq_pn", "explainq_abs", "diagnose_range", "query"}) {
    auto lines = m.op_line.find(read);
    (*out)[std::string(read) + "_p50_ms"] = Metric{
        MedianOfFastest(op(read), lines == m.op_line.end() ? std::vector<uint64_t>{}
                                                           : lines->second),
        "ms", op(read).size()};
  }
  TailPoint p95 = BlockTail(reads, 95.0);
  (*out)["read_p95_ms"] = Metric{p95.value, "ms", p95.samples};
  if (!p99.ok || !p95.ok) {
    *why = "too few samples for a tail percentile";
    return false;
  }
  for (const auto& [name, metric] : *out) {
    if (metric.samples == 0) {
      *why = name + " has no samples";
      return false;
    }
  }
  return true;
}

JsonValue MetricsJson(const MetricMap& metrics) {
  JsonValue::Object out;
  for (const auto& [name, m] : metrics) {
    JsonValue::Object entry;
    entry["value"] = m.value;
    entry["unit"] = std::string(m.unit);
    entry["samples"] = static_cast<double>(m.samples);
    out[name] = JsonValue(std::move(entry));
  }
  return JsonValue(std::move(out));
}

JsonValue CountsJson(const std::map<std::string, uint64_t>& counts) {
  JsonValue::Object out;
  for (const auto& [k, v] : counts) out[k] = static_cast<double>(v);
  return JsonValue(std::move(out));
}

Status RunWorkload(const std::string& workload, const Env& env,
                   const Corpus& corpus, Tally* tally, WorkloadRun* run) {
  if (workload == "ingest") return RunIngest(env, corpus, tally, run);
  if (workload == "investigate") return RunInvestigate(env, corpus, tally, run);
  return RunFleetMixed(env, corpus, tally, run);
}

int Main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) break;
    args[argv[i] + 2] = argv[i + 1];
  }
  const char* required[] = {"workload", "seed", "seconds", "trace",
                            "daemon", "work-dir", "out"};
  for (const char* key : required) {
    if (!args.contains(key)) {
      std::fprintf(stderr, "missing --%s\n", key);
      return 2;
    }
  }
  std::string workload = args["workload"];
  if (workload != "ingest" && workload != "investigate" &&
      workload != "fleet_mixed") {
    std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
    return 2;
  }
  Env env;
  env.daemon = args["daemon"];
  env.work_dir = args["work-dir"];
  env.seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
  env.seconds = std::strtod(args["seconds"].c_str(), nullptr);
  bool traced = args["trace"] == "1";

  CorpusOptions corpus_options;
  corpus_options.seed = env.seed;
  Corpus corpus = BuildCorpus(corpus_options);

  Tally tally;
  JsonValue::Object result;
  result["workload"] = workload;
  result["seed"] = static_cast<double>(env.seed);
  result["seconds"] = env.seconds;
  result["trace"] = traced;
  MetricMap e2e;
  std::string why;

  WorkloadRun run;
  if (!traced) {
    Status status = RunWorkload(workload, env, corpus, &tally, &run);
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
      return 1;
    }
    if (!EndToEnd(run.measured, &e2e, &why)) {
      std::fprintf(stderr, "error: %s\n", why.c_str());
      return 1;
    }
    result["metrics"] = MetricsJson(e2e);
  } else {
    // Untraced and traced passes at half length each.
    Env half = env;
    half.seconds = env.seconds / 2;
    half.work_dir = env.work_dir + "/untraced";
    WorkloadRun untraced;
    Status status = RunWorkload(workload, half, corpus, &tally, &untraced);
    // The traced pass also samples STATS and measures the router hop.
    half.trace = true;
    half.work_dir = env.work_dir + "/traced";
    SpanRecorder::Global().SetEnabled(true);
    if (status.ok()) status = RunWorkload(workload, half, corpus, &tally, &run);
    SpanRecorder::Global().SetEnabled(false);
    std::vector<Span> wire_spans = SpanRecorder::Global().Take();
    std::map<std::string, double> layers;
    JsonValue accounting;
    std::vector<Span> layer_spans;
    if (status.ok()) {
      status = ReplayLayers(half, corpus, run, &layers, &accounting, &layer_spans);
    }
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
      return 1;
    }
    const Measured& m = run.measured;
    // Tracing overhead: within the traced pass, the median latency of
    // the operations that carried a span over those that did not, minus
    // one, averaged over operation types.
    double overhead = 0.0;
    size_t types = 0;
    for (const auto& [op, split] : m.split_ms) {
      if (split[0].empty() || split[1].empty()) continue;
      overhead += Median(split[0]) / Median(split[1]) - 1.0;
      ++types;
    }
    layers["trace.overhead_frac"] = types > 0 ? overhead / types : 0.0;
    layers["trace.wire_spans"] = static_cast<double>(wire_spans.size());
    layers["service.shed_frac"] = m.shed_frac;
    layers["service.queue_depth_p50"] = Median(m.queue_depth);
    layers["service.flush_ms"] = Median(m.flush_ms);
    layers["service.dedup_frac"] = m.dedup_frac;
    layers["service.diag_wait_ms"] =
        Median(m.diagnosis_ms) - layers["explainer.diagnose_ms"];
    layers["router.hop_us"] = m.router_hop_us;
    layers["router.shard_imbalance"] = m.shard_imbalance;
    layers["loadgen.late_ms_p99"] =
        SummarizeLateness(m.late_due_us, m.late_sent_us).p99_ms;
    for (const auto& [op, bytes] : m.response_bytes) {
      auto it = m.op_ms.find(op);
      size_t n = it == m.op_ms.end() ? 0 : it->second.size();
      layers["response.bytes." + op] =
          n > 0 ? static_cast<double>(bytes) / static_cast<double>(n) : 0.0;
    }
    // Beside each operation type's in-process layer total: the untraced
    // wire median and the remainder no layer span accounts for (socket,
    // server threads, request dispatch, JSON encoding).
    for (auto& [op, entry] : accounting.as_object()) {
      auto it = untraced.measured.op_ms.find(op);
      double wire = it == untraced.measured.op_ms.end() ? 0.0 : Median(it->second);
      double in_process = entry.GetNumber("in_process_ms").ValueOr(0.0);
      entry.as_object()["untraced_p50_ms"] = wire;
      entry.as_object()["unattributed_ms"] = wire - in_process;
    }
    result["accounting"] = std::move(accounting);
    // The spans, written out once the run is over (load the file at
    // ui.perfetto.dev): the wire pass's, then the replay's.
    wire_spans.insert(wire_spans.end(), layer_spans.begin(), layer_spans.end());
    std::ofstream trace_out(args["out"] + ".spans.json");
    trace_out << ChromeTraceJson(wire_spans);
    JsonValue::Object layer_json;
    for (const auto& [k, v] : layers) layer_json[k] = v;
    result["layers"] = JsonValue(std::move(layer_json));
    EndToEnd(untraced.measured, &e2e, &why);
    result["untraced"] = MetricsJson(e2e);
    MetricMap traced_e2e;
    EndToEnd(m, &traced_e2e, &why);
    result["traced"] = MetricsJson(traced_e2e);
  }

  const Measured& m = run.measured;
  // Quartiles of every operation type's latency, beside the medians the
  // metrics report.
  JsonValue::Object quartiles;
  for (const auto& [op, ms] : m.op_ms) {
    std::array<double, 3> q = Quartiles(ms);
    quartiles[op] = JsonValue(JsonValue::Array{q[0], q[1], q[2]});
  }
  result["op_quartiles_ms"] = JsonValue(std::move(quartiles));
  result["counts"] = CountsJson(m.counts);
  result["prepare_s"] = m.prepare_s;
  JsonValue::Array setups;
  for (double v : m.setup_s) setups.push_back(v);
  result["setup_s_reps"] = JsonValue(std::move(setups));
  result["volatile_counts"] = CountsJson(m.volatile_counts);
  result["simd_isa"] = m.simd_isa;
  if (!m.late_due_us.empty()) {
    LatenessReport late = SummarizeLateness(m.late_due_us, m.late_sent_us);
    JsonValue::Object l;
    l["ops"] = static_cast<double>(late.ops);
    l["late_ops"] = static_cast<double>(late.late_ops);
    l["p50_ms"] = late.p50_ms;
    l["p99_ms"] = late.p99_ms;
    l["max_ms"] = late.max_ms;
    result["lateness"] = JsonValue(std::move(l));
  }
  result["attempted"] = static_cast<double>(tally.attempted());
  result["failed"] = static_cast<double>(tally.failed());
  result["error_rate"] =
      tally.attempted() > 0
          ? static_cast<double>(tally.failed()) / static_cast<double>(tally.attempted())
          : 0.0;
  JsonValue::Array failures;
  for (const std::string& f : tally.failures()) failures.push_back(f);
  result["failures"] = JsonValue(std::move(failures));

  std::ofstream out(args["out"]);
  out << JsonValue(std::move(result)).Dump(2) << "\n";
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", args["out"].c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
