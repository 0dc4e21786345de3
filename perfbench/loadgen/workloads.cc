// The three wire workloads. Every request goes over TCP to a real
// dbsherlockd child (or `dbsherlockd route` in front of two shards); the
// only in-process work here is generating inputs, writing the preloaded
// histories before the daemon opens them, and checking answers.

#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>
#include <random>
#include <thread>

#include "daemon.h"
#include "fleet/hash_ring.h"
#include "service/client.h"
#include "service/wire.h"
#include "spans.h"
#include "stats.h"
#include "store/tenant_store.h"

namespace perfbench {

namespace fs = std::filesystem;
using dbsherlock::common::ParseJson;
using dbsherlock::common::Result;
using dbsherlock::service::Client;
using dbsherlock::service::Response;

// ---------------------------------------------------------------------------
// Accounting

void Tally::Attempt(uint64_t n) {
  std::lock_guard lock(mu_);
  attempted_ += n;
}

void Tally::Fail(const std::string& what) {
  std::lock_guard lock(mu_);
  ++failed_;
  if (failures_.size() < 20) failures_.push_back(what);
}

uint64_t Tally::attempted() const {
  std::lock_guard lock(mu_);
  return attempted_;
}
uint64_t Tally::failed() const {
  std::lock_guard lock(mu_);
  return failed_;
}
std::vector<std::string> Tally::failures() const {
  std::lock_guard lock(mu_);
  return failures_;
}

namespace {

// ---------------------------------------------------------------------------
// Shapes of the three workloads (README.md explains each choice).

// Set-up repeats: at least kSetupReps, and more (up to kSetupMaxReps)
// while they have taken under kSetupBudgetS, so a cheap set-up is
// sampled often enough for a steady median.
constexpr int kSetupReps = 7;
constexpr int kSetupMaxReps = 25;
constexpr double kSetupBudgetS = 2.0;

// ingest: a catch-up replay in rounds.
constexpr size_t kIngestTenants = 48;
constexpr size_t kIngestWriters = 4;
// Rows per second the timed round count is sized with, so a run lasts
// about --seconds on a 4-core host. Fixed, so a given seed always sends
// the same rows.
constexpr double kIngestNominalRowsPerS = 1400.0;
// Rows each tenant gets per round: well under the queue capacity, so a
// round never sheds.
constexpr size_t kIngestRoundRows = 85;
// Untimed rounds that fill the monitor's window (up to 664 rows).
constexpr size_t kIngestWarmRounds = 8;
// The ingest run's read probe: static tenants, read between rounds.
constexpr size_t kIngestProbeTenants = 8;
constexpr size_t kIngestProbeChunks = 3;
constexpr size_t kProbeReads = 480;

// investigate: static history, 2 readers.
constexpr size_t kInvestigateTenants = 8;
constexpr size_t kInvestigateChunks = 59;  // ~20k rows per tenant
constexpr size_t kInvestigateReaders = 2;
constexpr double kInvestigateNominalOpsPerS = 48.0;
constexpr size_t kProbeTenants = 8;  // the investigate run's write probe
constexpr size_t kProbeRounds = 7;  // chunk-sized rounds
constexpr size_t kProbeWarmRounds = 2;

// fleet_mixed: 2 shards behind the router, live open-loop writers.
constexpr size_t kFleetShards = 2;
constexpr size_t kFleetTenants = 32;
constexpr size_t kFleetWriters = 3;
constexpr size_t kFleetPrefixChunks = 2;  // history written before HELLO
// The open-loop rate (rows/s, all writers together). BENCHMARK.json's
// fleet_mixed "why" records it; it sits far below the ingest capacity.
constexpr double kFleetRowsPerS = 1000.0;

// Read targets (planted anomalies) per run: few enough that every request
// line repeats many times.
constexpr size_t kReadTargets = 16;

constexpr double kReadMarginSec = 60.0;    // EXPLAIN WHERE window margin
constexpr double kQueryMarginSec = 600.0;  // QUERY window margin

std::string Fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

Status MakeDirs(const std::string& dir) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) return Status::IoError("mkdir " + dir + ": " + ec.message());
  return Status::OK();
}

/// One request/response exchange; returns the parsed response and adds
/// the raw response size to `*bytes`.
Result<Response> Exchange(Client* client, const std::string& line,
                          uint64_t* bytes) {
  auto raw = client->CallRaw(line);
  if (!raw.ok()) return raw.status();
  if (bytes != nullptr) *bytes += raw->size() + 1;
  return dbsherlock::service::ParseResponseLine(*raw);
}

Result<std::unique_ptr<Client>> Connect(int port) {
  Client::Options options;
  options.connect_timeout_ms = 5000;
  options.deadline_ms = 60000;
  return Client::Connect("127.0.0.1", port, options);
}

Result<JsonValue> CallJson(Client* client, const std::string& line) {
  auto response = Exchange(client, line, nullptr);
  if (!response.ok()) return response.status();
  if (response->kind != Response::Kind::kOk) {
    return Status::Internal(line.substr(0, 40) + ": " +
                            (response->kind == Response::Kind::kErr
                                 ? response->error.ToString()
                                 : std::string("RETRY_AFTER")));
  }
  return ParseJson(response->detail);
}

/// In the traced pass every other operation of each type gets a span (the
/// rest run exactly as untraced), so the tracing overhead is read within
/// one pass as the traced half's median latency over the untraced half's.
const char* SpanName(const char* name, uint64_t k) {
  return k % 2 == 0 ? name : nullptr;
}

void Split(double ms, uint64_t k, SplitSamples* split) {
  if (SpanRecorder::Global().enabled()) (*split)[k % 2].push_back(ms);
}

/// Runs `fn(w)` for w in [0, n) on n threads, the calling thread taking
/// w = 0, so the generator never holds more threads than connections.
void RunOn(size_t n, const std::function<void(size_t)>& fn) {
  std::vector<std::thread> threads;
  for (size_t w = 1; w < n; ++w) threads.emplace_back(fn, w);
  fn(0);
  for (auto& t : threads) t.join();
}

// ---------------------------------------------------------------------------
// Daemons

/// One deployment: a single daemon, or shards plus a router in front.
/// `port` is where clients connect.
struct Deployment {
  std::vector<std::unique_ptr<Daemon>> shards;
  std::unique_ptr<Daemon> router;
  std::vector<std::string> store_dirs;  // per shard
  std::vector<std::string> addresses;   // per shard, ring order
  int port = 0;

  double PeakRssMb() const {
    double mb = router != nullptr ? router->PeakRssMb() : 0.0;
    for (const auto& s : shards) mb += s->PeakRssMb();
    return mb;
  }
  size_t ShardOf(const std::string& tenant) const {
    if (shards.size() == 1) return 0;
    return dbsherlock::fleet::HashRing(addresses).ShardFor(tenant);
  }
  Status Stop() {
    Status status = Status::OK();
    if (router != nullptr) {
      Status s = router->Stop();
      if (!s.ok()) status = s;
    }
    for (auto& shard : shards) {
      Status s = shard->Stop();
      if (!s.ok()) status = s;
    }
    return status;
  }
};

Status StartDeployment(const Env& env, const std::string& dir, size_t shards,
                       Deployment* out) {
  for (size_t i = 0; i < shards; ++i) {
    std::string base = dir + "/shard" + std::to_string(i);
    std::string store = base + "/store", wal = base + "/wal";
    DBSHERLOCK_RETURN_NOT_OK(MakeDirs(store));
    DBSHERLOCK_RETURN_NOT_OK(MakeDirs(wal));
    std::vector<std::string> args = {"serve", "--port", "0", "--store-dir",
                                     store, "--wal-dir", wal};
    // Replication pulls from the shards started before this one (a shard
    // learns its own port only once it listens).
    if (i > 0) {
      std::string peers;
      for (const std::string& a : out->addresses) {
        peers += (peers.empty() ? "" : ",") + a;
      }
      args.push_back("--peers");
      args.push_back(peers);
    }
    auto daemon = std::make_unique<Daemon>();
    DBSHERLOCK_RETURN_NOT_OK(
        daemon->Start(env.daemon, args, base + "/daemon.log"));
    out->addresses.push_back(daemon->address());
    out->store_dirs.push_back(store);
    out->shards.push_back(std::move(daemon));
  }
  out->port = out->shards.front()->port();
  if (shards > 1) {
    std::string list;
    for (const std::string& a : out->addresses) {
      list += (list.empty() ? "" : ",") + a;
    }
    out->router = std::make_unique<Daemon>();
    DBSHERLOCK_RETURN_NOT_OK(out->router->Start(
        env.daemon, {"route", "--port", "0", "--shards", list},
        dir + "/router.log"));
    out->port = out->router->port();
  }
  return Status::OK();
}

/// Writes rows [0, rows) of every stream into `dir`/<tenant> in the
/// daemon's format and seal size, four tenants at a time. This is the
/// benchmark's input, prepared once per run before any daemon starts; each
/// set-up copies it into place.
Status PrepareHistory(const Corpus& corpus,
                      const std::vector<TenantStream>& streams, size_t rows,
                      const std::string& dir, Measured* measured) {
  double t0 = NowUs();
  DBSHERLOCK_RETURN_NOT_OK(MakeDirs(dir));
  std::vector<Status> status(streams.size(), Status::OK());
  RunOn(4, [&](size_t w) {
    for (size_t i = w; i < streams.size(); i += 4) {
      const TenantStream& s = streams[i];
      dbsherlock::store::TenantStore::Options options;
      options.dir = dir + "/" + s.name;
      options.schema = corpus.schema;
      options.seal_rows = kSealRows;
      options.fsync_on_seal = false;
      auto store = dbsherlock::store::TenantStore::Open(options);
      if (!store.ok()) {
        status[i] = store.status();
        continue;
      }
      for (size_t r = 0; r < rows && status[i].ok(); ++r) {
        status[i] = (*store)->Append(s.Timestamp(r), s.Cells(r));
      }
      // The active tail lives only in memory; seal it so the daemon
      // finds every row.
      if (status[i].ok()) status[i] = (*store)->Seal();
    }
  });
  for (const Status& st : status) DBSHERLOCK_RETURN_NOT_OK(st);
  measured->counts["history.rows_prepared"] = rows * streams.size();
  measured->prepare_s = (NowUs() - t0) / 1e6;
  return Status::OK();
}

/// Set-up, timed: start the daemons, TEACH every pre-trained model to
/// every shard, copy each preloaded tenant's prepared history into its
/// owning shard's store, then HELLO every tenant through the entry port,
/// which opens and recovers those histories.
Status SetUp(const Env& env, const Corpus& corpus, const std::string& dir,
             size_t shards, const std::vector<TenantStream>& fresh,
             const std::vector<TenantStream>& preloaded,
             const std::string& history, Deployment* out, double* seconds) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  double t0 = NowUs();
  DBSHERLOCK_RETURN_NOT_OK(StartDeployment(env, dir, shards, out));
  for (const auto& shard : out->shards) {
    auto client = Connect(shard->port());
    if (!client.ok()) return client.status();
    for (const CausalModel& model : corpus.models) {
      DBSHERLOCK_RETURN_NOT_OK((*client)->Teach(model));
    }
  }
  for (const TenantStream& s : preloaded) {
    fs::copy(history + "/" + s.name,
             out->store_dirs[out->ShardOf(s.name)] + "/" + s.name,
             fs::copy_options::recursive, ec);
    if (ec) return Status::IoError("copy history: " + ec.message());
  }
  auto client = Connect(out->port);
  if (!client.ok()) return client.status();
  for (const auto* group : {&fresh, &preloaded}) {
    for (const TenantStream& s : *group) {
      DBSHERLOCK_RETURN_NOT_OK((*client)->Hello(s.name, corpus.schema));
    }
  }
  *seconds = (NowUs() - t0) / 1e6;
  return Status::OK();
}

/// Runs the set-up repeatedly on fresh directories and keeps the last
/// deployment running; set-up time is the median of the repeats. The
/// `preloaded` tenants get `preload_rows` rows of history each, prepared
/// once; the `fresh` ones start empty.
Status SetUpRepeated(const Env& env, const Corpus& corpus,
                     const std::string& name, size_t shards,
                     const std::vector<TenantStream>& fresh,
                     const std::vector<TenantStream>& preloaded,
                     size_t preload_rows, Deployment* out,
                     Measured* measured) {
  std::string history;
  if (!preloaded.empty()) {
    history = env.work_dir + "/" + name + "-history";
    DBSHERLOCK_RETURN_NOT_OK(
        PrepareHistory(corpus, preloaded, preload_rows, history, measured));
  }
  double spent = 0.0;
  for (int rep = 0;; ++rep) {
    Deployment deployment;
    double seconds = 0.0;
    std::string dir = env.work_dir + "/" + name + std::to_string(rep);
    DBSHERLOCK_RETURN_NOT_OK(SetUp(env, corpus, dir, shards, fresh, preloaded,
                                   history, &deployment, &seconds));
    measured->setup_s.push_back(seconds);
    spent += seconds;
    bool more = rep + 1 < kSetupReps ||
                (rep + 1 < kSetupMaxReps && spent < kSetupBudgetS);
    if (more) {
      DBSHERLOCK_RETURN_NOT_OK(deployment.Stop());
      fs::remove_all(dir);
    } else {
      *out = std::move(deployment);
      break;
    }
  }
  if (!history.empty()) fs::remove_all(history);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Streams

/// Builds `tenants` streams of `chunks` chunks each. Tenant i's anomalies
/// are all of class i % kinds, or all of class `only_kind` when that is
/// given; `planted(i, c)` says whether chunk c of tenant i carries one.
std::vector<TenantStream> MakeStreams(
    const Corpus& corpus, const std::string& prefix, size_t tenants,
    size_t chunks, uint64_t seed,
    const std::function<bool(size_t, size_t)>& planted, int only_kind = -1) {
  std::mt19937_64 rng(seed);
  std::vector<TenantStream> streams(tenants);
  for (size_t i = 0; i < tenants; ++i) {
    streams[i].name = prefix + std::to_string(i);
    int kind = only_kind >= 0 ? only_kind
                              : static_cast<int>(i % corpus.kinds.size());
    for (size_t c = 0; c < chunks; ++c) {
      uint64_t pick = rng();
      streams[i].AddChunk(planted(i, c) ? corpus.Anomalous(kind, pick)
                                        : corpus.Normal(pick));
    }
  }
  return streams;
}

std::string AppendLine(const TenantStream& s, size_t row) {
  std::string line = "APPENDSEQ ";
  line += s.name;
  line += ' ';
  line += std::to_string(row + 1);
  line += ' ';
  line += Fmt(s.Timestamp(row));
  line += ' ';
  line += s.CellText(row);
  return line;
}

/// Sends one APPENDSEQ and waits for its ack, honouring RETRY_AFTER.
/// Returns false (after recording the failure) when the row was not acked.
bool AppendOne(Client* client, const std::string& line, Tally* tally,
               uint64_t* retries, uint64_t* bytes) {
  for (int attempt = 0; attempt < 1000; ++attempt) {
    auto response = Exchange(client, line, bytes);
    if (!response.ok()) {
      tally->Fail("append: " + response.status().ToString());
      return false;
    }
    if (response->kind == Response::Kind::kOk) return true;
    if (response->kind == Response::Kind::kErr) {
      tally->Fail("append: " + response->error.ToString());
      return false;
    }
    ++*retries;
    std::this_thread::sleep_for(
        std::chrono::milliseconds(std::max(1, response->retry_after_ms)));
  }
  tally->Fail("append: shed past the retry budget");
  return false;
}

struct WriterResult {
  std::vector<double> append_ms;
  SplitSamples split;
  std::vector<double> flush_ms;
  std::vector<double> queue_depth;
  uint64_t rows = 0;
  uint64_t retries = 0;
  uint64_t bytes = 0;
};

/// One round of closed-loop writers: writer w sends rows
/// [round*round_rows, (round+1)*round_rows) of each of its tenants (w,
/// w+writers, ...), interleaved row by row, then FLUSHes each of them. A
/// round never puts more than round_rows (< the queue capacity) into a
/// tenant's queue, so no row is shed and throughput measures drain
/// capacity, not RETRY_AFTER sleeps. Adds to `(*results)[w]` (append
/// latencies only when `timed`); returns false when a writer failed. When `sample_stats`, writer 0 samples STATS
/// queue depths once it has sent its rows, before it FLUSHes: the backlog
/// the round leaves to drain.
bool WriterRound(int port, const std::vector<TenantStream>& streams,
                 size_t writers, size_t round, size_t round_rows,
                 bool timed, bool sample_stats, Tally* tally,
                 std::vector<WriterResult>* results) {
  results->resize(writers);
  std::atomic<bool> ok{true};
  RunOn(writers, [&](size_t w) {
    WriterResult& out = (*results)[w];
    auto client = Connect(port);
    if (!client.ok()) {
      tally->Fail("connect: " + client.status().ToString());
      ok = false;
      return;
    }
    std::vector<const TenantStream*> mine;
    for (size_t i = w; i < streams.size(); i += writers) {
      mine.push_back(&streams[i]);
    }
    for (size_t j = round * round_rows; j < (round + 1) * round_rows; ++j) {
      for (const TenantStream* s : mine) {
        std::string line = AppendLine(*s, j);
        tally->Attempt();
        double t0 = NowUs();
        {
          Scoped span(SpanName("op.append", out.rows));
          uint64_t untimed_bytes = 0;
          if (!AppendOne(client->get(), line, tally, &out.retries,
                         timed ? &out.bytes : &untimed_bytes)) {
            ok = false;
            return;
          }
        }
        if (timed) {
          out.append_ms.push_back((NowUs() - t0) / 1000.0);
          Split(out.append_ms.back(), out.rows, &out.split);
        }
        ++out.rows;
      }
    }
    if (sample_stats && w == 0) {
      auto stats = CallJson(client->get(), "STATS");
      if (stats.ok()) {
        const JsonValue* tenants = stats->Find("tenants");
        if (tenants != nullptr && tenants->is_object()) {
          for (const auto& [name, t] : tenants->as_object()) {
            out.queue_depth.push_back(t.GetNumber("queue_depth").ValueOr(0.0));
          }
        }
      }
    }
    for (const TenantStream* s : mine) {
      double t0 = NowUs();
      Status flushed = (*client)->Flush(s->name);
      if (!flushed.ok()) {
        tally->Fail("flush: " + flushed.ToString());
        ok = false;
        return;
      }
      out.flush_ms.push_back((NowUs() - t0) / 1000.0);
    }
  });
  return ok.load();
}

/// `rounds` writer rounds. The first `warm_rounds` fill the monitors'
/// windows (a monitor runs no detection before its window is full, so
/// those rounds drain several times faster, and appends see idler cores)
/// and are not timed; the rows of the others over their summed wall time
/// is `*rows_per_s`, and only their appends are kept as latencies. After every
/// round but the last, `between(r)` runs while no writer is connected (it
/// is not part of any round's time).
void WriterRounds(int port, const std::vector<TenantStream>& streams,
                  size_t writers, size_t rounds, size_t warm_rounds,
                  size_t round_rows, bool sample_stats,
                  const std::function<void(size_t)>& between, Tally* tally,
                  std::vector<WriterResult>* results, double* rows_per_s) {
  results->assign(writers, {});
  double timed_us = 0.0;
  for (size_t r = 0; r < rounds; ++r) {
    double t0 = NowUs();
    if (!WriterRound(port, streams, writers, r, round_rows, r >= warm_rounds,
                     sample_stats, tally, results)) {
      return;
    }
    if (r >= warm_rounds) timed_us += NowUs() - t0;
    if (between && r + 1 < rounds) between(r);
  }
  double timed_rows =
      static_cast<double>((rounds - warm_rounds) * round_rows * streams.size());
  *rows_per_s = timed_us > 0 ? timed_rows / (timed_us / 1e6) : 0.0;
}

// ---------------------------------------------------------------------------
// Reads

/// The read requests aimed at one planted anomaly, with what each must
/// answer. A request whose line is empty was not eligible (its threshold
/// would not isolate the anomaly on this data).
struct Target {
  size_t stream = 0;
  int kind = 0;
  std::string pn_line, abs_line, region_line, range_line, query_line;
  uint64_t query_rows = 0;
};

/// Plans reads over every planted anomaly whose window lies in the first
/// `visible_min` rows. For fleet_mixed the history grows to `visible_max`
/// rows while it is read; a pN threshold is used only if it isolates the
/// anomaly for every history length in between.
std::vector<Target> PlanTargets(const Corpus& corpus,
                                const std::vector<TenantStream>& streams,
                                size_t visible_min, size_t visible_max) {
  static const double kPercentiles[] = {99.9, 99.8, 99.7, 99.5, 99.3, 99.0,
                                        98.5, 98.0, 97.5, 97.0, 96.5, 96.0,
                                        95.5, 95.0, 94.0, 93.0, 92.0, 90.0};
  std::vector<Target> targets;
  for (size_t si = 0; si < streams.size(); ++si) {
    const TenantStream& s = streams[si];
    const double last_ts = s.Timestamp(visible_min - 1);
    struct Pending {
      Target target;
      // An absolute threshold must fall in (lo, hi), a pN one in
      // (lo, pn_hi): above every normal row of the window and below a
      // quarter (absolute) or half (pN) of the anomaly's core rows.
      double lo = 0.0, hi = 0.0, pn_hi = 0.0;
      std::vector<bool> pn_ok;
    };
    std::vector<Pending> pending;
    for (const Planted& p : s.planted) {
      if (p.end + kReadMarginSec > last_ts) continue;
      Pending pd;
      Target& t = pd.target;
      t.stream = si;
      t.kind = p.kind;
      t.region_line = "EXPLAINQ " + s.name + " EXPLAIN REGION " +
                      Fmt(p.start) + " " + Fmt(p.end);
      t.range_line =
          "DIAGNOSE_RANGE " + s.name + " " + Fmt(p.start) + " " + Fmt(p.end);
      const std::string& attr = corpus.signal_attr[p.kind];
      size_t a = static_cast<size_t>(AttrIndex(corpus.schema, attr));
      double w0 = p.start - kReadMarginSec, w1 = p.end + kReadMarginSec;
      double normal_max = -INFINITY;
      std::vector<double> core;
      for (size_t r = static_cast<size_t>(w0) - 1;
           r + 1 < static_cast<size_t>(w1); ++r) {
        double ts = s.Timestamp(r), v = NumericAt(s, a, r);
        if (ts < p.start || ts >= p.end) {
          normal_max = std::max(normal_max, v);
        } else if (ts >= p.start + 10 && ts < p.end - 6) {
          core.push_back(v);
        }
      }
      std::sort(core.begin(), core.end());
      double q25 = core.empty() ? -INFINITY : core[core.size() / 4];
      if (q25 > normal_max) {
        std::string text = Fmt(0.5 * (normal_max + q25));
        double v = std::strtod(text.c_str(), nullptr);
        pd.lo = normal_max;
        pd.hi = q25;
        pd.pn_hi = core[core.size() / 2];
        t.abs_line = "EXPLAINQ " + s.name + " EXPLAIN WHERE " + attr + " > " +
                     text + " BETWEEN " + Fmt(w0) + " " + Fmt(w1);
        double q0 = std::max(1.0, p.start - kQueryMarginSec);
        double q1 = std::min(last_ts + 1, p.end + kQueryMarginSec);
        for (size_t r = static_cast<size_t>(q0) - 1;
             r + 1 < static_cast<size_t>(q1); ++r) {
          if (NumericAt(s, a, r) >= v) ++t.query_rows;
        }
        t.query_line = "QUERY " + s.name + " " + Fmt(q0) + " " + Fmt(q1) +
                       " WHERE " + attr + ">=" + text;
        pd.pn_ok.assign(std::size(kPercentiles), true);
      }
      pending.push_back(std::move(pd));
    }
    // pN: the daemon ranks every stored value of the attribute, so check
    // each candidate's order statistic for every visible history length
    // (and its neighbours, against rounding in the rank).
    std::map<size_t, std::vector<Pending*>> by_attr;
    for (Pending& pd : pending) {
      if (pd.pn_ok.empty()) continue;
      by_attr[static_cast<size_t>(AttrIndex(
                  corpus.schema, corpus.signal_attr[pd.target.kind]))]
          .push_back(&pd);
    }
    for (auto& [a, group] : by_attr) {
      std::vector<double> sorted;
      for (size_t r = 0; r < visible_min; ++r) {
        double v = NumericAt(s, a, r);
        if (!std::isnan(v)) sorted.push_back(v);
      }
      std::sort(sorted.begin(), sorted.end());
      for (size_t rows = visible_min;; ++rows) {
        size_t n = sorted.size();
        for (size_t c = 0; c < std::size(kPercentiles); ++c) {
          double q = kPercentiles[c] / 100.0;
          size_t k = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
          for (size_t kk = (k > 1 ? k - 1 : 1); kk <= std::min(k + 1, n); ++kk) {
            double v = sorted[kk - 1];
            for (Pending* pd : group) {
              if (!(v > pd->lo && v < pd->pn_hi)) pd->pn_ok[c] = false;
            }
          }
        }
        if (rows >= visible_max) break;
        double v = NumericAt(s, a, rows);
        if (!std::isnan(v)) {
          sorted.insert(std::upper_bound(sorted.begin(), sorted.end(), v), v);
        }
      }
      for (Pending* pd : group) {
        for (size_t c = 0; c < std::size(kPercentiles); ++c) {
          if (!pd->pn_ok[c]) continue;
          const std::string& attr = corpus.signal_attr[pd->target.kind];
          size_t between = pd->target.abs_line.find(" BETWEEN ");
          pd->target.pn_line = "EXPLAINQ " + s.name + " EXPLAIN WHERE " +
                               attr + " > p" + Fmt(kPercentiles[c]) +
                               pd->target.abs_line.substr(between);
          break;
        }
      }
    }
    for (Pending& pd : pending) targets.push_back(std::move(pd.target));
  }
  return targets;
}

/// A seeded choice of at most `count` targets, those eligible for every
/// read kind first. Few targets means each request line is sent many
/// times over a run, which EndToEnd needs (it takes a line's latency as
/// its fastest repeat).
std::vector<Target> PickTargets(std::vector<Target> targets, uint64_t seed,
                                size_t count) {
  std::mt19937_64 rng(seed);
  std::shuffle(targets.begin(), targets.end(), rng);
  std::stable_partition(targets.begin(), targets.end(), [](const Target& t) {
    return !t.pn_line.empty() && !t.abs_line.empty() && !t.query_line.empty();
  });
  if (targets.size() > count) targets.resize(count);
  return targets;
}

/// Read operation kinds; explainq_abs pools EXPLAIN WHERE with absolute
/// thresholds and EXPLAIN REGION.
enum class ReadKind { kPn, kAbs, kRegion, kRange, kQuery };
constexpr ReadKind kReadKinds[] = {ReadKind::kPn, ReadKind::kAbs,
                                   ReadKind::kRegion, ReadKind::kRange,
                                   ReadKind::kQuery};

const char* MetricOf(ReadKind kind) {
  switch (kind) {
    case ReadKind::kPn: return "explainq_pn";
    case ReadKind::kAbs:
    case ReadKind::kRegion: return "explainq_abs";
    case ReadKind::kRange: return "diagnose_range";
    case ReadKind::kQuery: return "query";
  }
  return "";
}

const std::string& LineOf(const Target& t, ReadKind kind) {
  switch (kind) {
    case ReadKind::kPn: return t.pn_line;
    case ReadKind::kAbs: return t.abs_line;
    case ReadKind::kRegion: return t.region_line;
    case ReadKind::kRange: return t.range_line;
    case ReadKind::kQuery: return t.query_line;
  }
  return t.region_line;
}

struct ReadOp {
  ReadKind kind;
  const Target* target;
  uint64_t line;  // which request line: target index * kinds + kind
};

/// A seeded request mix: the kinds take turns from a seeded first one, and
/// each kind cycles through its eligible targets in a seeded order, so
/// tenants and windows rotate and every target gets the same share of its
/// kind's requests (a random draw would let the seed tilt a median towards
/// the costlier targets).
std::vector<ReadOp> MakeReadOps(const std::vector<Target>& targets,
                                uint64_t seed, size_t count) {
  std::mt19937_64 rng(seed);
  constexpr size_t kKinds = std::size(kReadKinds);
  std::vector<std::vector<const Target*>> eligible(kKinds);
  for (size_t k = 0; k < kKinds; ++k) {
    for (const Target& t : targets) {
      if (!LineOf(t, kReadKinds[k]).empty()) eligible[k].push_back(&t);
    }
    std::shuffle(eligible[k].begin(), eligible[k].end(), rng);
  }
  std::vector<ReadOp> ops;
  std::vector<size_t> next(kKinds, 0);
  size_t first = rng() % kKinds;
  for (size_t i = 0; ops.size() < count && i < count * kKinds; ++i) {
    size_t k = (first + i) % kKinds;
    if (eligible[k].empty()) continue;
    const Target* t = eligible[k][next[k]++ % eligible[k].size()];
    ops.push_back(ReadOp{kReadKinds[k], t,
                         static_cast<uint64_t>(t - targets.data()) * kKinds + k});
  }
  return ops;
}

/// Checks one read answer. Returns "" when right, else what was wrong.
std::string CheckRead(const Corpus& corpus, const ReadOp& op,
                      const JsonValue& json, Measured* counts) {
  const std::string& want = corpus.causes[op.target->kind];
  auto top_of = [](const JsonValue* causes) -> std::string {
    if (causes == nullptr || !causes->is_array() || causes->as_array().empty())
      return "";
    return causes->as_array().front().GetString("cause").ValueOr("");
  };
  const char* metric = MetricOf(op.kind);
  auto count = [&](const std::string& key, const JsonValue* obj,
                   const char* field) {
    if (obj == nullptr) return;
    counts->counts[std::string("segments_decoded.") + metric + key] +=
        static_cast<uint64_t>(obj->GetNumber(field).ValueOr(0.0));
  };
  switch (op.kind) {
    case ReadKind::kRange: {
      count("", json.Find("scan"), "segments_decoded");
      std::string got = top_of(json.Find("causes"));
      return got == want ? "" : "diagnose_range top-1 '" + got + "' != '" + want + "'";
    }
    case ReadKind::kQuery: {
      count("", json.Find("scan"), "segments_decoded");
      uint64_t rows = static_cast<uint64_t>(json.GetNumber("rows").ValueOr(-1));
      return rows == op.target->query_rows
                 ? ""
                 : "query rows " + std::to_string(rows) + " != " +
                       std::to_string(op.target->query_rows);
    }
    default: {
      count("", json.Find("discovery"), "segments_decoded");
      if (op.kind == ReadKind::kPn) {
        count(".quantile", json.Find("quantiles"), "segments_decoded");
      }
      const JsonValue* findings = json.Find("findings");
      if (findings == nullptr || !findings->is_array() ||
          findings->as_array().empty()) {
        return std::string(metric) + ": no findings";
      }
      const JsonValue* best = nullptr;
      double best_rows = -1;
      for (const JsonValue& f : findings->as_array()) {
        double rows = f.GetNumber("abnormal_rows").ValueOr(0.0);
        if (rows > best_rows) {
          best_rows = rows;
          best = &f;
        }
      }
      std::string got = top_of(best->Find("causes"));
      return got == want ? "" : std::string(metric) + " top-1 '" + got + "' != '" + want + "'";
    }
  }
}

/// Sends one read and checks its answer. `sent` numbers each metric's
/// requests on this connection (every other one carries a span in the
/// traced pass). Returns false when the connection failed.
bool ReadOne(Client* client, const Corpus& corpus, const ReadOp& op,
             std::map<std::string, uint64_t>* sent, Tally* tally,
             Measured* out) {
  const std::string& line = LineOf(*op.target, op.kind);
  const char* metric = MetricOf(op.kind);
  uint64_t k = (*sent)[metric]++;
  tally->Attempt();
  uint64_t bytes = 0;
  double t0 = NowUs();
  Result<Response> response = [&] {
    Scoped span(SpanName(metric, k));
    return Exchange(client, line, &bytes);
  }();
  double ms = (NowUs() - t0) / 1000.0;
  if (!response.ok()) {
    tally->Fail(std::string(metric) + ": " + response.status().ToString());
    return false;
  }
  if (response->kind != Response::Kind::kOk) {
    tally->Fail(std::string(metric) + ": " + response->error.ToString());
    return true;
  }
  out->op_ms[metric].push_back(ms);
  out->op_line[metric].push_back(op.line);
  Split(ms, k, &out->split_ms[metric]);
  out->response_bytes[metric] += bytes;
  auto json = ParseJson(response->detail);
  std::string wrong =
      json.ok() ? CheckRead(corpus, op, *json, out) : "unparseable reply";
  if (!wrong.empty()) tally->Fail(wrong);
  return true;
}

/// Closed-loop readers: each connection runs its own op sequence; when
/// `stop` is given the loop also ends once it is set (fleet_mixed reads
/// only while the writers run).
void Readers(int port, const Corpus& corpus,
             const std::vector<std::vector<ReadOp>>& per_conn,
             const std::atomic<bool>* stop, Tally* tally,
             std::vector<Measured>* results) {
  results->assign(per_conn.size(), {});
  RunOn(per_conn.size(), [&](size_t c) {
    Measured& out = (*results)[c];
    auto client = Connect(port);
    if (!client.ok()) {
      tally->Fail("connect: " + client.status().ToString());
      return;
    }
    std::map<std::string, uint64_t> sent;
    for (const ReadOp& op : per_conn[c]) {
      if (stop != nullptr && stop->load()) break;
      if (!ReadOne(client->get(), corpus, op, &sent, tally, &out)) return;
    }
  });
}

void Append(const SplitSamples& from, SplitSamples* to) {
  for (int i = 0; i < 2; ++i) {
    (*to)[i].insert((*to)[i].end(), from[i].begin(), from[i].end());
  }
}

void Merge(const std::vector<Measured>& parts, Measured* into) {
  for (const Measured& m : parts) {
    for (const auto& [k, v] : m.op_ms) {
      auto& dst = into->op_ms[k];
      dst.insert(dst.end(), v.begin(), v.end());
    }
    for (const auto& [k, v] : m.op_line) {
      auto& dst = into->op_line[k];
      dst.insert(dst.end(), v.begin(), v.end());
    }
    for (const auto& [k, v] : m.split_ms) Append(v, &into->split_ms[k]);
    for (const auto& [k, v] : m.response_bytes) into->response_bytes[k] += v;
    for (const auto& [k, v] : m.counts) into->counts[k] += v;
  }
}

void MergeWriters(const std::vector<WriterResult>& parts, Measured* into,
                  uint64_t* rows, uint64_t* retries) {
  for (const WriterResult& w : parts) {
    Append(w.split, &into->split_ms["append"]);
    auto& dst = into->op_ms["append"];
    dst.insert(dst.end(), w.append_ms.begin(), w.append_ms.end());
    into->flush_ms.insert(into->flush_ms.end(), w.flush_ms.begin(),
                          w.flush_ms.end());
    into->queue_depth.insert(into->queue_depth.end(), w.queue_depth.begin(),
                             w.queue_depth.end());
    into->response_bytes["append"] += w.bytes;
    *rows += w.rows;
    *retries += w.retries;
  }
}

// ---------------------------------------------------------------------------
// Output checks after the traffic

/// Exactly-once audit per tenant: the monitor processed every row sent
/// over the wire, and the history holds those plus the `preloaded` rows
/// written before HELLO, each exactly once. Also sums the history and
/// background-diagnosis accounting into `measured`.
Status Audit(const Deployment& deployment,
             const std::vector<TenantStream>& streams,
             const std::vector<uint64_t>& rows_sent, uint64_t preloaded,
             const std::string& label, Tally* tally, Measured* measured) {
  uint64_t sealed_bytes = 0, sealed_raw = 0, alerts = 0, deduped = 0,
           diagnoses = 0, shed = 0, acked = 0;
  std::vector<double> shard_rows;
  std::map<std::string, const JsonValue*> by_tenant;
  std::vector<JsonValue> stats;
  for (const auto& shard : deployment.shards) {
    auto client = Connect(shard->port());
    if (!client.ok()) return client.status();
    auto s = CallJson(client->get(), "STATS");
    if (!s.ok()) return s.status();
    stats.push_back(std::move(*s));
  }
  for (const JsonValue& s : stats) {
    if (measured->simd_isa.empty()) measured->simd_isa = s.GetString("simd_isa").ValueOr("");
    alerts += static_cast<uint64_t>(s.GetNumber("alerts").ValueOr(0));
    deduped += static_cast<uint64_t>(s.GetNumber("diagnoses_deduped").ValueOr(0));
    shed += static_cast<uint64_t>(s.GetNumber("shed").ValueOr(0));
    acked += static_cast<uint64_t>(s.GetNumber("acked").ValueOr(0));
    double rows = 0;
    if (const JsonValue* t = s.Find("tenants"); t != nullptr && t->is_object()) {
      for (const auto& [name, entry] : t->as_object()) {
        by_tenant[name] = &entry;
        rows += entry.GetNumber("processed").ValueOr(0);
      }
    }
    shard_rows.push_back(rows);
  }
  for (size_t i = 0; i < streams.size(); ++i) {
    const TenantStream& s = streams[i];
    auto it = by_tenant.find(s.name);
    if (it == by_tenant.end()) {
      tally->Fail("audit: tenant " + s.name + " missing from STATS");
      continue;
    }
    const JsonValue& e = *it->second;
    uint64_t processed = static_cast<uint64_t>(e.GetNumber("processed").ValueOr(0));
    const JsonValue* h = e.Find("history");
    uint64_t sealed = h ? static_cast<uint64_t>(h->GetNumber("sealed_rows").ValueOr(0)) : 0;
    uint64_t active = h ? static_cast<uint64_t>(h->GetNumber("active_rows").ValueOr(0)) : 0;
    if (processed + preloaded != rows_sent[i] || sealed + active != rows_sent[i]) {
      tally->Fail("audit: " + s.name + " sent " + std::to_string(rows_sent[i]) +
                  ", processed " + std::to_string(processed) + ", stored " +
                  std::to_string(sealed + active));
    }
    sealed_bytes += h ? static_cast<uint64_t>(h->GetNumber("sealed_bytes").ValueOr(0)) : 0;
    for (size_t r = 0; r < sealed; ++r) {
      sealed_raw += Fmt(s.Timestamp(r)).size() + 1 + s.CellText(r).size() + 1;
    }
    diagnoses += static_cast<uint64_t>(e.GetNumber("diagnoses").ValueOr(0));
  }
  measured->store_bytes_ratio =
      sealed_raw > 0 ? static_cast<double>(sealed_bytes) / static_cast<double>(sealed_raw) : 0.0;
  measured->counts[label + ".sealed_bytes"] = sealed_bytes;
  measured->counts[label + ".alerts"] = alerts;
  measured->counts[label + ".diagnoses"] = diagnoses;
  measured->counts[label + ".diagnoses_deduped"] = deduped;
  measured->volatile_counts[label + ".shed"] = shed;
  measured->shed_frac = acked + shed > 0 ? static_cast<double>(shed) / static_cast<double>(acked + shed) : 0.0;
  measured->dedup_frac = alerts > 0 ? static_cast<double>(deduped) / static_cast<double>(alerts) : 0.0;
  if (shard_rows.size() > 1) {
    double sum = 0, mx = 0;
    for (double r : shard_rows) {
      sum += r;
      mx = std::max(mx, r);
    }
    measured->shard_imbalance = sum > 0 ? mx / (sum / static_cast<double>(shard_rows.size())) : 1.0;
  }
  return Status::OK();
}

/// Every background diagnosis of a planted anomaly — its region covers at
/// least half of the planted region — must rank the planted cause first;
/// naming no cause is as wrong as naming another. (The workloads keep a
/// tenant's planted anomalies further apart than the monitor's window, so
/// no diagnosis takes an earlier anomaly for normal rows, which leaves it
/// no predicate to find.) An alert raised on an anomaly's first seconds
/// diagnoses only its onset (a quarter to a half of it), where the ramp-up
/// can look like another class: those are counted, with how many named
/// the planted cause, but not checked. Alerts on unplanted stretches (the
/// detector also fires on ordinary variation) are counted only. Latencies
/// feed diagnosis_p50_ms.
Status CheckDiagnoses(const Corpus& corpus, int port,
                      const std::vector<TenantStream>& streams,
                      const std::string& label, Tally* tally,
                      Measured* measured) {
  auto client = Connect(port);
  if (!client.ok()) return client.status();
  uint64_t planted_hits = 0, unplanted = 0, onset = 0, onset_agree = 0;
  for (const TenantStream& s : streams) {
    auto list = CallJson(client->get(), "DIAGNOSES " + s.name);
    if (!list.ok()) return list.status();
    for (const JsonValue& d : list->as_array()) {
      measured->diagnosis_ms.push_back(d.GetNumber("latency_us").ValueOr(0) / 1000.0);
      const JsonValue* region = d.Find("region");
      double start = region ? region->GetNumber("start").ValueOr(0) : 0;
      double end = region ? region->GetNumber("end").ValueOr(0) : 0;
      const Planted* hit = nullptr;
      double share = 0.0;
      for (const Planted& p : s.planted) {
        double overlap = std::min(end, p.end) - std::max(start, p.start);
        if (overlap / (p.end - p.start) > share) {
          share = overlap / (p.end - p.start);
          hit = &p;
        }
      }
      if (hit == nullptr || share < 0.25) {
        ++unplanted;
        continue;
      }
      const JsonValue* causes = d.Find("causes");
      std::string got =
          causes && causes->is_array() && !causes->as_array().empty()
              ? causes->as_array().front().GetString("cause").ValueOr("")
              : "";
      if (share < 0.5) {
        ++onset;
        if (got == corpus.causes[hit->kind]) ++onset_agree;
        continue;
      }
      ++planted_hits;
      tally->Attempt();
      if (got != corpus.causes[hit->kind]) {
        tally->Fail("diagnosis of " + s.name + " [" + Fmt(start) + "," + Fmt(end) +
                    "] top-1 '" + got + "' != '" + corpus.causes[hit->kind] + "'");
      }
    }
  }
  measured->counts[label + ".diagnoses_of_planted"] = planted_hits;
  measured->counts[label + ".diagnoses_unplanted"] = unplanted;
  measured->counts[label + ".diagnoses_onset"] = onset;
  measured->counts[label + ".diagnoses_onset_agree"] = onset_agree;
  return Status::OK();
}

/// Median FLUSH round trip through the router minus the same request sent
/// straight to the tenant's shard (queues are empty, so FLUSH is the
/// cheapest tenant-routed verb). Without a router, one is started in
/// front of the single daemon for the measurement.
Status MeasureRouterHop(const Env& env, const Deployment& deployment,
                        const std::string& tenant, Measured* measured) {
  Daemon extra;
  int router_port = deployment.port;
  if (deployment.router == nullptr) {
    DBSHERLOCK_RETURN_NOT_OK(extra.Start(
        env.daemon, {"route", "--port", "0", "--shards", deployment.addresses[0]},
        env.work_dir + "/hop-router.log"));
    router_port = extra.port();
  }
  auto via = Connect(router_port);
  if (!via.ok()) return via.status();
  auto direct = Connect(deployment.shards[deployment.ShardOf(tenant)]->port());
  if (!direct.ok()) return direct.status();
  std::vector<double> via_us, direct_us;
  std::string line = "FLUSH " + tenant;
  for (int i = 0; i < 400; ++i) {
    for (Client* c : {via->get(), direct->get()}) {
      double t0 = NowUs();
      auto r = Exchange(c, line, nullptr);
      if (!r.ok()) return r.status();
      (c == via->get() ? via_us : direct_us).push_back(NowUs() - t0);
    }
  }
  measured->router_hop_us = Median(via_us) - Median(direct_us);
  return extra.Stop();
}

/// Reads the daemons' peak memory, measures the router hop in the traced
/// run, and stops the deployment.
Status Finish(const Env& env, Deployment* deployment,
              const std::vector<TenantStream>& streams, Measured* measured) {
  measured->daemon_rss_mb = deployment->PeakRssMb();
  if (env.trace) {
    DBSHERLOCK_RETURN_NOT_OK(
        MeasureRouterHop(env, *deployment, streams.front().name, measured));
  }
  return deployment->Stop();
}

}  // namespace

// ---------------------------------------------------------------------------
// ingest

Status RunIngest(const Env& env, const Corpus& corpus, Tally* tally,
                 WorkloadRun* run) {
  Measured& m = run->measured;
  size_t chunk = corpus.normal.front()->rows();
  // The warm-up rounds, then at least three timed ones (the traced run's
  // passes are half length).
  size_t rounds = kIngestWarmRounds + std::max<size_t>(
      3, static_cast<size_t>(std::lround(env.seconds * kIngestNominalRowsPerS /
                                         (kIngestTenants * kIngestRoundRows))));
  size_t rows_per_tenant = rounds * kIngestRoundRows;
  // A quarter of the tenants carry a planted anomaly in each chunk after
  // the first (the monitor needs a warm window before it can detect), a
  // tenant's four chunks apart.
  std::vector<TenantStream> streams = MakeStreams(
      corpus, "ing", kIngestTenants, (rows_per_tenant + chunk - 1) / chunk,
      env.seed ^ 0x1A,
      [](size_t i, size_t c) { return c >= 1 && (i + c) % 4 == 0; });
  // The read probe's tenants: static history, one anomaly each, all of one
  // class (the classes' requests differ in cost by up to 2x, so over a mix
  // the medians would jump between them as the seed shifts eligibility).
  // The class is the first, in class order, for which a pN threshold
  // isolates at least two of the anomalies; on some seeds none does for a
  // class's simulated variants.
  size_t probe_rows = kIngestProbeChunks * chunk;
  std::vector<TenantStream> probe;
  std::vector<Target> probe_targets;
  for (int kind = 0;; ++kind) {
    if (kind == static_cast<int>(corpus.kinds.size())) {
      return Status::Internal("no class gives the ingest probe a pN target");
    }
    probe = MakeStreams(corpus, "iprobe", kIngestProbeTenants,
                        kIngestProbeChunks, env.seed ^ 0x5E,
                        [](size_t, size_t c) { return c == 1; }, kind);
    probe_targets = PlanTargets(corpus, probe, probe_rows, probe_rows);
    if (std::count_if(probe_targets.begin(), probe_targets.end(),
                      [](const Target& t) { return !t.pn_line.empty(); }) >= 2) {
      break;
    }
  }

  Deployment deployment;
  DBSHERLOCK_RETURN_NOT_OK(SetUpRepeated(env, corpus, "ingest", 1, streams,
                                         probe, probe_rows, &deployment, &m));
  std::vector<Target> targets =
      PickTargets(std::move(probe_targets), env.seed * 29, kReadTargets);
  // The probe reads run in slices between the rounds, on one connection
  // (so no read waits for cores behind another), while no writer is
  // connected: the write path decodes no segment, and the reads are spread
  // over the whole run.
  size_t per_slice = kProbeReads / (rounds - 1);
  std::vector<ReadOp> ops =
      MakeReadOps(targets, env.seed * 31, per_slice * (rounds - 1));
  std::vector<Measured> reads;
  auto slice = [&](size_t r) {
    std::vector<std::vector<ReadOp>> part = {
        {ops.begin() + r * per_slice, ops.begin() + (r + 1) * per_slice}};
    std::vector<Measured> out;
    Readers(deployment.port, corpus, part, nullptr, tally, &out);
    reads.insert(reads.end(), out.begin(), out.end());
  };
  std::vector<WriterResult> writers;
  WriterRounds(deployment.port, streams, kIngestWriters, rounds,
               kIngestWarmRounds, kIngestRoundRows, env.trace, slice, tally,
               &writers, &m.ingest_rows_per_s);
  uint64_t rows = 0, retries = 0;
  MergeWriters(writers, &m, &rows, &retries);
  Merge(reads, &m);
  m.counts["ingest.rows"] = rows;
  m.volatile_counts["ingest.retry_after"] = retries;

  std::vector<uint64_t> sent(streams.size(), rows_per_tenant);
  DBSHERLOCK_RETURN_NOT_OK(Audit(deployment, streams, sent, 0, "ingest", tally, &m));
  DBSHERLOCK_RETURN_NOT_OK(
      CheckDiagnoses(corpus, deployment.port, streams, "ingest", tally, &m));

  DBSHERLOCK_RETURN_NOT_OK(Finish(env, &deployment, streams, &m));
  run->leftovers.streams = std::move(streams);
  run->leftovers.rows_sent = sent;
  // The replay opens the ingested histories and then the probe's, which
  // the reads address after the ingest streams.
  for (const auto* group : {&run->leftovers.streams, &probe}) {
    for (const TenantStream& s : *group) {
      run->leftovers.store_dirs.push_back(deployment.store_dirs[0] + "/" + s.name);
    }
  }
  for (const ReadOp& op : ops) {
    run->leftovers.reads.push_back({MetricOf(op.kind),
                                    kIngestTenants + op.target->stream,
                                    LineOf(*op.target, op.kind)});
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// investigate

Status RunInvestigate(const Env& env, const Corpus& corpus, Tally* tally,
                      WorkloadRun* run) {
  Measured& m = run->measured;
  size_t chunk = corpus.normal.front()->rows();
  std::vector<TenantStream> streams = MakeStreams(
      corpus, "inv", kInvestigateTenants, kInvestigateChunks, env.seed ^ 0x2B,
      [](size_t i, size_t c) { return c % 6 == 3 + (i % 2); });
  size_t history = kInvestigateChunks * chunk;

  // The write probe's fresh tenants, HELLOed in set-up: the investigated
  // histories stay untouched, and the write-path metrics still get
  // samples. Anomalies are planted three chunks apart, further than the
  // monitor's window reaches back.
  std::vector<TenantStream> probe = MakeStreams(
      corpus, "probe", kProbeTenants, kProbeRounds, env.seed ^ 0x3C,
      [](size_t, size_t r) { return r % 3 == 1; });

  Deployment deployment;
  DBSHERLOCK_RETURN_NOT_OK(SetUpRepeated(env, corpus, "investigate", 1, probe,
                                         streams, history, &deployment, &m));
  std::vector<Target> targets = PickTargets(
      PlanTargets(corpus, streams, history, history), env.seed * 37, kReadTargets);
  size_t per_conn = std::max<size_t>(
      110, static_cast<size_t>(std::lround(env.seconds * kInvestigateNominalOpsPerS /
                                           kInvestigateReaders)));
  std::vector<std::vector<ReadOp>> ops;
  for (size_t c = 0; c < kInvestigateReaders; ++c) {
    ops.push_back(MakeReadOps(targets, env.seed * 131 + c, per_conn));
  }
  // The reads run in kProbeRounds + 1 parts with one write-probe round
  // between each two, so neither side sits in one stretch of the run.
  std::vector<Measured> readers;
  auto read_part = [&](size_t p) {
    std::vector<std::vector<ReadOp>> part;
    for (const auto& conn : ops) {
      part.emplace_back(conn.begin() + p * per_conn / (kProbeRounds + 1),
                        conn.begin() + (p + 1) * per_conn / (kProbeRounds + 1));
    }
    std::vector<Measured> out;
    Readers(deployment.port, corpus, part, nullptr, tally, &out);
    readers.insert(readers.end(), out.begin(), out.end());
  };
  read_part(0);
  std::vector<WriterResult> writers;
  WriterRounds(deployment.port, probe, 4, kProbeRounds, kProbeWarmRounds,
               chunk, env.trace, [&](size_t r) { read_part(r + 1); }, tally,
               &writers, &m.ingest_rows_per_s);
  read_part(kProbeRounds);
  Merge(readers, &m);
  uint64_t rows = 0, retries = 0;
  MergeWriters(writers, &m, &rows, &retries);

  std::vector<uint64_t> sent(streams.size(), history);
  DBSHERLOCK_RETURN_NOT_OK(Audit(deployment, streams, sent, history, "investigate", tally, &m));
  double ratio = m.store_bytes_ratio;
  Measured probe_m;
  std::vector<uint64_t> probe_sent(probe.size(), kProbeRounds * chunk);
  DBSHERLOCK_RETURN_NOT_OK(Audit(deployment, probe, probe_sent, 0, "probe", tally, &probe_m));
  DBSHERLOCK_RETURN_NOT_OK(CheckDiagnoses(corpus, deployment.port, probe, "probe", tally, &m));
  m.store_bytes_ratio = ratio;  // the investigated history's
  m.shed_frac = probe_m.shed_frac;
  m.dedup_frac = probe_m.dedup_frac;
  for (const auto& [k, v] : probe_m.counts) m.counts[k] = v;
  m.counts["probe.rows"] = rows;

  DBSHERLOCK_RETURN_NOT_OK(Finish(env, &deployment, streams, &m));
  run->leftovers.streams = std::move(streams);
  run->leftovers.rows_sent = sent;
  for (const TenantStream& s : run->leftovers.streams) {
    run->leftovers.store_dirs.push_back(deployment.store_dirs[0] + "/" + s.name);
  }
  for (const auto& conn : ops) {
    for (const ReadOp& op : conn) {
      run->leftovers.reads.push_back(
          {MetricOf(op.kind), op.target->stream, LineOf(*op.target, op.kind)});
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// fleet_mixed

Status RunFleetMixed(const Env& env, const Corpus& corpus, Tally* tally,
                     WorkloadRun* run) {
  Measured& m = run->measured;
  size_t chunk = corpus.normal.front()->rows();
  uint64_t total_rows = static_cast<uint64_t>(std::llround(kFleetRowsPerS * env.seconds));
  size_t live_per_tenant = (total_rows + kFleetTenants - 1) / kFleetTenants;
  size_t chunks = kFleetPrefixChunks + (live_per_tenant + chunk - 1) / chunk;
  // Every third chunk of every tenant is planted: chunk 0 in the history
  // (the readers' targets), then live ones, diagnosed in the background.
  // Three chunks apart, an anomaly is out of the monitor's window by the
  // time the next one is diagnosed.
  std::vector<TenantStream> streams = MakeStreams(
      corpus, "flt", kFleetTenants, chunks, env.seed ^ 0x4D,
      [](size_t, size_t c) { return c % 3 == 0; });
  size_t prefix = kFleetPrefixChunks * chunk;

  Deployment deployment;
  DBSHERLOCK_RETURN_NOT_OK(SetUpRepeated(env, corpus, "fleet", kFleetShards, {},
                                         streams, prefix, &deployment, &m));
  std::vector<Target> targets =
      PickTargets(PlanTargets(corpus, streams, prefix, prefix + live_per_tenant),
                  env.seed * 41, kReadTargets);

  // Writers: writer w owns tenants w, w+3, ...; its k-th append is due at
  // start + k / (rate / writers) and goes to its tenants in turn.
  std::vector<uint64_t> sent(streams.size(), prefix);
  std::vector<WriterResult> writers(kFleetWriters);
  std::vector<std::vector<double>> due(kFleetWriters), sent_at(kFleetWriters);
  std::atomic<bool> writers_done{false};
  std::vector<Measured> readers(1);
  double start = NowUs() + 20000.0;
  std::vector<std::vector<ReadOp>> read_ops = {
      MakeReadOps(targets, env.seed * 17, 100000)};
  RunOn(kFleetWriters + 1, [&](size_t w) {
    if (w == kFleetWriters) {
      std::vector<Measured> out;
      Readers(deployment.port, corpus, read_ops, &writers_done, tally, &out);
      readers = std::move(out);
      return;
    }
    WriterResult& out = writers[w];
    auto client = Connect(deployment.port);
    if (!client.ok()) {
      tally->Fail("connect: " + client.status().ToString());
      return;
    }
    std::vector<size_t> mine;
    for (size_t i = w; i < streams.size(); i += kFleetWriters) mine.push_back(i);
    uint64_t n = 0;
    for (size_t j = 0; j < live_per_tenant; ++j) n += mine.size();
    OpenLoopSchedule schedule(start, kFleetRowsPerS / kFleetWriters);
    for (uint64_t k = 0; k < n; ++k) {
      size_t tenant = mine[k % mine.size()];
      size_t row = prefix + k / mine.size();
      std::string line = AppendLine(streams[tenant], row);
      double due_us = schedule.Due(k);
      double now = NowUs();
      if (now < due_us) {
        std::this_thread::sleep_for(std::chrono::microseconds(
            static_cast<int64_t>(due_us - now)));
      }
      double sent_us = NowUs();
      tally->Attempt();
      {
        Scoped span(SpanName("op.append", k));
        if (!AppendOne(client->get(), line, tally, &out.retries, &out.bytes)) {
          break;
        }
      }
      out.append_ms.push_back(LatencyFromDue(due_us, NowUs()) / 1000.0);
      Split(out.append_ms.back(), k, &out.split);
      due[w].push_back(due_us);
      sent_at[w].push_back(sent_us);
      ++out.rows;
    }
    if (w == 0) {
      // The other writers run about as long; the reader stops with the
      // first writer to finish.
      writers_done = true;
    }
  });
  writers_done = true;
  uint64_t rows = 0, retries = 0;
  MergeWriters(writers, &m, &rows, &retries);
  Merge(readers, &m);
  // The reads run against a history that is still growing, so what they
  // decode depends on timing: those counts are not repeatable.
  for (auto it = m.counts.begin(); it != m.counts.end();) {
    if (it->first.rfind("segments_decoded.", 0) == 0) {
      m.volatile_counts[it->first] = it->second;
      it = m.counts.erase(it);
    } else {
      ++it;
    }
  }
  for (size_t w = 0; w < kFleetWriters; ++w) {
    m.late_due_us.insert(m.late_due_us.end(), due[w].begin(), due[w].end());
    m.late_sent_us.insert(m.late_sent_us.end(), sent_at[w].begin(), sent_at[w].end());
  }
  double wall = m.late_due_us.empty()
                    ? 1.0
                    : (*std::max_element(m.late_sent_us.begin(), m.late_sent_us.end()) - start) / 1e6;
  m.ingest_rows_per_s = static_cast<double>(rows) / std::max(wall, 1e-3);
  m.counts["fleet.rows"] = rows;
  m.volatile_counts["fleet.retry_after"] = retries;
  for (size_t i = 0; i < streams.size(); ++i) sent[i] = prefix + live_per_tenant;

  // Drain, then audit every shard and check every background diagnosis.
  {
    auto client = Connect(deployment.port);
    if (!client.ok()) return client.status();
    for (const TenantStream& s : streams) {
      DBSHERLOCK_RETURN_NOT_OK((*client)->Flush(s.name));
    }
  }
  DBSHERLOCK_RETURN_NOT_OK(Audit(deployment, streams, sent, prefix, "fleet", tally, &m));
  DBSHERLOCK_RETURN_NOT_OK(
      CheckDiagnoses(corpus, deployment.port, streams, "fleet", tally, &m));
  DBSHERLOCK_RETURN_NOT_OK(Finish(env, &deployment, streams, &m));
  run->leftovers.streams = std::move(streams);
  run->leftovers.rows_sent = sent;
  for (const TenantStream& s : run->leftovers.streams) {
    run->leftovers.store_dirs.push_back(
        deployment.store_dirs[deployment.ShardOf(s.name)] + "/" + s.name);
  }
  size_t done = 0;
  for (const auto& [k, v] : m.op_ms) {
    if (k != "append") done += v.size();
  }
  for (size_t i = 0; i < std::min(done, read_ops[0].size()); ++i) {
    const ReadOp& op = read_ops[0][i];
    run->leftovers.reads.push_back(
        {MetricOf(op.kind), op.target->stream, LineOf(*op.target, op.kind)});
  }
  return Status::OK();
}

}  // namespace perfbench
