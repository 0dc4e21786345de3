#include "fleet/fleet_replay.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/strings.h"
#include "service/client.h"
#include "tsdata/schema.h"

namespace dbsherlock::fleet {

namespace {

using common::Result;
using common::Status;
using service::Client;
using service::Response;

constexpr const char* kHost = "127.0.0.1";
constexpr size_t kAttributes = 4;
/// Give up on one row after this many reconnect+re-HELLO cycles.
constexpr int kMaxRecoveriesPerRow = 50;
const service::RetryPolicy kRetry{};

/// Deterministic numeric row for (tenant, row, attribute) — reproducible
/// across runs and cheap to generate under load.
std::vector<tsdata::Cell> MakeRow(size_t tenant, size_t row) {
  std::vector<tsdata::Cell> cells;
  cells.reserve(kAttributes);
  for (size_t a = 0; a < kAttributes; ++a) {
    cells.emplace_back(
        static_cast<double>((tenant * 131 + row * 31 + a * 7) % 97));
  }
  return cells;
}

struct SharedCounters {
  std::atomic<uint64_t> rows_acked{0};
  std::atomic<uint64_t> rows_failed{0};
  std::atomic<uint64_t> rehellos{0};
};

class ReplayWorker {
 public:
  ReplayWorker(const FleetReplayOptions& options, size_t worker_index,
               SharedCounters* counters)
      : options_(options),
        worker_(worker_index),
        counters_(counters),
        rng_(kRetry.seed + worker_index, worker_index * 2 + 1) {
    std::vector<tsdata::AttributeSpec> attrs;
    for (size_t a = 0; a < kAttributes; ++a) {
      tsdata::AttributeSpec spec;
      spec.name = common::StrFormat("m%zu", a);
      spec.kind = tsdata::AttributeKind::kNumeric;
      attrs.push_back(std::move(spec));
    }
    schema_ = tsdata::Schema(std::move(attrs));
  }

  void Run() {
    for (size_t t = worker_; t < options_.tenants;
         t += options_.client_threads) {
      ReplayTenant(t);
    }
    if (client_ != nullptr) (void)client_->Quit();
  }

 private:
  /// Sleeps the retry policy's jittered backoff for attempt `attempt`.
  void Backoff(int attempt, int hint_ms) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(service::BackoffSleepMs(
            kRetry, attempt, hint_ms, rng_.NextDouble())));
  }

  /// (Re)connects to the endpoint, backing off between attempts. False
  /// only when the recovery budget for the current row is exhausted.
  bool EnsureConnected(int* recoveries) {
    int attempt = 0;
    while (*recoveries < kMaxRecoveriesPerRow) {
      if (client_ == nullptr) {
        Client::Options client_options;
        client_options.connect_timeout_ms = 2000;
        client_options.deadline_ms = options_.deadline_ms;
        auto client = Client::Connect(kHost, options_.port, client_options);
        if (client.ok()) {
          client_ = std::move(*client);
          return true;
        }
      } else if (client_->Reconnect().ok()) {
        return true;
      }
      ++*recoveries;
      Backoff(attempt++, 0);
    }
    return false;
  }

  /// HELLO (with resume): returns the first row index (1-based) still
  /// missing from the tenant's durable history, or 0 on failure.
  size_t HelloResume(const std::string& tenant, int* recoveries) {
    int attempt = 0;
    while (*recoveries < kMaxRecoveriesPerRow) {
      if (client_ == nullptr && !EnsureConnected(recoveries)) return 0;
      auto resume = client_->HelloResume(tenant, schema_);
      if (resume.ok()) {
        // Row timestamps are their 1-based indices, so the durable
        // high-water timestamp IS the last landed row index.
        if (!resume->has_value()) return 1;
        return static_cast<size_t>(**resume) + 1;
      }
      ++*recoveries;
      // ERR (e.g. every shard down mid-failover) and dropped connections
      // both back off; a dead connection additionally reconnects.
      if (!EnsureConnected(recoveries)) return 0;
      Backoff(attempt++, 0);
    }
    return 0;
  }

  void ReplayTenant(size_t tenant_index) {
    std::string tenant = common::StrFormat("t%zu", tenant_index);
    int recoveries = 0;
    size_t next = HelloResume(tenant, &recoveries);
    if (next == 0) {
      counters_->rows_failed.fetch_add(options_.rows_per_tenant,
                                       std::memory_order_relaxed);
      return;
    }
    while (next <= options_.rows_per_tenant) {
      std::vector<tsdata::Cell> cells = MakeRow(tenant_index, next);
      bool acked = false;
      while (!acked) {
        auto response = client_ == nullptr
                            ? Result<Response>(Status::IoError("no conn"))
                            : client_->AppendSeq(
                                  tenant, next,
                                  static_cast<double>(next), cells);
        if (response.ok() && response->kind == Response::Kind::kOk) {
          acked = true;
          break;
        }
        if (response.ok() &&
            response->kind == Response::Kind::kRetryAfter) {
          // Poll at the server's hint (jittered, NOT grown): a drain
          // slot frees within a few ms, and geometric growth would
          // overshoot it.
          Backoff(/*attempt=*/0, response->retry_after_ms);
          continue;
        }
        // ERR from the router (shard died, retries exhausted) or a
        // dropped connection: recover via the idempotent resume
        // protocol — reconnect if needed, re-HELLO (the router re-places
        // the tenant on a survivor), and rewind to the first row the new
        // shard is missing. Replayed seqs ack without re-ingesting.
        ++recoveries;
        if (recoveries >= kMaxRecoveriesPerRow) break;
        bool was_err =
            response.ok() && response->kind == Response::Kind::kErr;
        if (!was_err && !EnsureConnected(&recoveries)) break;
        counters_->rehellos.fetch_add(1, std::memory_order_relaxed);
        size_t resume = HelloResume(tenant, &recoveries);
        if (resume == 0) break;
        if (resume < next) {
          // The survivor is missing earlier rows (they died with the old
          // shard's window): rewind and resend them all — idempotent.
          next = resume;
          break;
        }
        if (resume > next) {
          // Already durable on the (same) shard; the lost ack is
          // replayed by moving on.
          acked = true;
          next = resume - 1;  // incremented below
          break;
        }
      }
      if (acked) {
        counters_->rows_acked.fetch_add(1, std::memory_order_relaxed);
        ++next;
      } else if (recoveries >= kMaxRecoveriesPerRow) {
        counters_->rows_failed.fetch_add(
            options_.rows_per_tenant - next + 1,
            std::memory_order_relaxed);
        return;
      }
      // else: rewound to an earlier row; loop continues from `next`.
    }
    (void)client_->Flush(tenant);
  }

  const FleetReplayOptions& options_;
  size_t worker_;
  SharedCounters* counters_;
  common::Pcg32 rng_;
  tsdata::Schema schema_;
  std::unique_ptr<Client> client_;
};

}  // namespace

Result<FleetReplayResult> RunFleetReplay(const FleetReplayOptions& options) {
  if (options.tenants == 0 || options.rows_per_tenant == 0) {
    return Status::InvalidArgument("fleet replay needs tenants and rows");
  }
  FleetReplayOptions effective = options;
  effective.client_threads =
      std::max<size_t>(1, std::min(options.client_threads, options.tenants));

  SharedCounters counters;
  {
    std::vector<std::thread> threads;
    threads.reserve(effective.client_threads);
    std::vector<std::unique_ptr<ReplayWorker>> workers;
    for (size_t w = 0; w < effective.client_threads; ++w) {
      workers.push_back(
          std::make_unique<ReplayWorker>(effective, w, &counters));
      threads.emplace_back([worker = workers.back().get()] {
        worker->Run();
      });
    }
    for (std::thread& t : threads) t.join();
  }

  FleetReplayResult result;
  result.rows_acked = counters.rows_acked.load();
  result.rows_failed = counters.rows_failed.load();
  result.rehellos = counters.rehellos.load();
  return result;
}

}  // namespace dbsherlock::fleet
