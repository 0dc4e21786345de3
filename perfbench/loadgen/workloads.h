#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/status.h"
#include "spans.h"
#include "telemetry.h"

namespace perfbench {

using dbsherlock::common::JsonValue;
using dbsherlock::common::Status;

/// Daemon defaults the benchmark mirrors when it sizes rounds and predicts
/// what the store holds. They are the defaults in tools/dbsherlockd_main.cc;
/// the daemon is never told them.
inline constexpr size_t kSealRows = 512;
inline constexpr size_t kQueueCapacity = 1024;

struct Env {
  std::string daemon;    // dbsherlockd binary
  std::string work_dir;  // root for this run's stores, WALs and logs
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Operation outcome accounting shared by every load thread.
class Tally {
 public:
  void Attempt(uint64_t n = 1);
  /// A failed, refused-past-budget or wrong operation.
  void Fail(const std::string& what);
  uint64_t attempted() const;
  uint64_t failed() const;
  std::vector<std::string> failures() const;

 private:
  mutable std::mutex mu_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> failures_;  // first few, for the report
};

/// Latencies of the traced pass split by whether the operation carried a
/// span: [0] traced, [1] untraced.
using SplitSamples = std::array<std::vector<double>, 2>;

/// Latency samples per operation type (milliseconds) plus everything the
/// workload measured, ready for main to turn into metrics.
struct Measured {
  std::map<std::string, std::vector<double>> op_ms;  // append, explainq_pn...
  // Reads only, beside op_ms: which request line each sample sent.
  std::map<std::string, std::vector<uint64_t>> op_line;
  std::map<std::string, SplitSamples> split_ms;       // traced pass only
  std::map<std::string, uint64_t> response_bytes;    // summed per op type
  std::map<std::string, uint64_t> counts;            // exact, deterministic
  std::map<std::string, uint64_t> volatile_counts;   // exact, timing-dependent
  std::vector<double> setup_s;
  double prepare_s = 0.0;  // writing the preloaded history (not set-up)
  std::vector<double> diagnosis_ms;
  std::vector<double> flush_ms;
  std::vector<double> queue_depth;
  std::vector<double> late_due_us, late_sent_us;
  double ingest_rows_per_s = 0.0;
  double store_bytes_ratio = 0.0;
  double daemon_rss_mb = 0.0;
  double shed_frac = 0.0;
  double dedup_frac = 0.0;
  double shard_imbalance = 1.0;
  double router_hop_us = 0.0;
  std::string simd_isa;
};

/// The store directories the workload left behind, for the in-process
/// layer replay of the traced run.
struct Leftovers {
  std::vector<TenantStream> streams;    // what was streamed, per tenant
  std::vector<uint64_t> rows_sent;      // per stream
  std::vector<std::string> store_dirs;  // per stream: its history directory
  struct Read {
    std::string kind;  // explainq_pn, explainq_abs, diagnose_range, query
    size_t stream = 0;
    std::string line;  // the request as sent
  };
  std::vector<Read> reads;  // one of each request the run sent, in order
};

struct WorkloadRun {
  Measured measured;
  Leftovers leftovers;
};

/// The three workloads (see perfbench/README.md). Each runs its own
/// set-up, measured phase and output checks against real daemons.
Status RunIngest(const Env& env, const Corpus& corpus, Tally* tally,
                 WorkloadRun* run);
Status RunInvestigate(const Env& env, const Corpus& corpus, Tally* tally,
                      WorkloadRun* run);
Status RunFleetMixed(const Env& env, const Corpus& corpus, Tally* tally,
                     WorkloadRun* run);

/// In-process replay of the run's operations through each layer's public
/// functions, with spans around every call (the traced run's per-layer
/// numbers). Fills `layers`, `accounting` and the recorded spans.
Status ReplayLayers(const Env& env, const Corpus& corpus,
                    const WorkloadRun& run,
                    std::map<std::string, double>* layers,
                    JsonValue* accounting, std::vector<Span>* spans);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
