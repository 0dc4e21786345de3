#include "fleet/router.h"

#include <chrono>
#include <thread>

#include "common/json.h"
#include "common/metrics.h"
#include "service/wire.h"

namespace dbsherlock::fleet {

namespace {

using common::Result;
using common::Status;

int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Ranks HEALTH states for the merged worst-of verdict.
int HealthRank(const std::string& state) {
  if (state == "ok") return 0;
  if (state == "degraded") return 1;
  return 2;  // draining / unreachable / unknown
}

}  // namespace

Router::Router(Options options)
    : options_(std::move(options)),
      ring_(options_.shards, options_.vnodes_per_shard),
      rng_(options_.retry.seed, 77) {}

Result<std::unique_ptr<Router>> Router::Start(Options options) {
  if (options.shards.empty()) {
    return Status::InvalidArgument("route needs at least one shard");
  }
  auto router = std::unique_ptr<Router>(new Router(std::move(options)));
  auto& metrics = common::MetricsRegistry::Global();
  for (const std::string& address : router->options_.shards) {
    auto endpoint = service::ParseHostPort(address);
    if (!endpoint.ok()) return endpoint.status();
    auto shard = std::make_unique<Shard>();
    shard->address = address;
    shard->host = endpoint->host;
    shard->port = endpoint->port;
    shard->requests_metric =
        metrics.GetCounter("router.shard." + address + ".requests");
    shard->retries_metric =
        metrics.GetCounter("router.shard." + address + ".retries");
    shard->failures_metric =
        metrics.GetCounter("router.shard." + address + ".failures");
    router->shards_.push_back(std::move(shard));
  }

  service::Server::Options server_options;
  server_options.host = router->options_.host;
  server_options.port = router->options_.port;
  server_options.max_connections = router->options_.max_connections;
  server_options.max_line_bytes = router->options_.max_line_bytes;
  server_options.idle_timeout_ms = router->options_.idle_timeout_ms;
  server_options.handler = [raw = router.get()](const std::string& line,
                                                bool* quit) {
    return raw->HandleLine(line, quit);
  };
  auto server = service::Server::Start(std::move(server_options));
  if (!server.ok()) return server.status();
  router->server_ = std::move(*server);
  return router;
}

Router::~Router() { Stop(); }

void Router::Stop() {
  if (server_ != nullptr) server_->Stop();
}

std::vector<Router::ShardStats> Router::shard_stats() const {
  std::vector<ShardStats> out;
  out.reserve(shards_.size());
  for (const auto& shard : shards_) {
    ShardStats stats;
    stats.address = shard->address;
    stats.requests = shard->requests.load();
    stats.retries = shard->retries.load();
    stats.failures = shard->failures.load();
    stats.down = IsDown(*shard);
    out.push_back(std::move(stats));
  }
  return out;
}

int Router::AssignedShard(const std::string& tenant) const {
  std::lock_guard lock(assign_mu_);
  auto it = tenant_shard_.find(tenant);
  return it == tenant_shard_.end() ? -1 : static_cast<int>(it->second);
}

bool Router::IsDown(const Shard& shard) const {
  return shard.down_until_us.load(std::memory_order_relaxed) > NowMicros();
}

void Router::MarkDown(Shard& shard) {
  shard.down_until_us.store(
      NowMicros() + int64_t{options_.down_cooldown_ms} * 1000,
      std::memory_order_relaxed);
}

void Router::MarkUp(Shard& shard) {
  shard.down_until_us.store(0, std::memory_order_relaxed);
}

std::vector<bool> Router::DownVector() const {
  std::vector<bool> down(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) down[i] = IsDown(*shards_[i]);
  return down;
}

double Router::NextUniform() {
  std::lock_guard lock(rng_mu_);
  return rng_.NextDouble();
}

Result<std::unique_ptr<service::Client>> Router::Acquire(Shard& shard) {
  {
    std::lock_guard lock(shard.pool_mu);
    if (!shard.pool.empty()) {
      auto client = std::move(shard.pool.back());
      shard.pool.pop_back();
      return client;
    }
  }
  service::Client::Options client_options;
  client_options.connect_timeout_ms = options_.upstream_connect_timeout_ms;
  client_options.deadline_ms = options_.upstream_deadline_ms;
  return service::Client::Connect(shard.host, shard.port, client_options);
}

void Router::Release(Shard& shard, std::unique_ptr<service::Client> client) {
  std::lock_guard lock(shard.pool_mu);
  if (shard.pool.size() < options_.pool_per_shard) {
    shard.pool.push_back(std::move(client));
  }
  // else: drop; the destructor closes the socket.
}

size_t Router::AssignShard(const std::string& tenant, bool is_hello) {
  std::lock_guard lock(assign_mu_);
  auto it = tenant_shard_.find(tenant);
  if (it != tenant_shard_.end()) {
    // Sticky while the shard lives (its history store has the tenant's
    // rows); a HELLO re-places only when the current owner is down.
    if (!is_hello || !IsDown(*shards_[it->second])) return it->second;
  }
  size_t idx = ring_.ShardFor(tenant, DownVector());
  tenant_shard_[tenant] = idx;
  return idx;
}

std::string Router::Proxy(size_t idx, const std::string& line,
                          bool idempotent,
                          const std::string& failover_tenant) {
  int attempts = std::max(1, options_.max_upstream_attempts);
  Status last = Status::IoError("no upstream attempt made");
  for (int attempt = 0; attempt < attempts; ++attempt) {
    Shard& shard = *shards_[idx];
    if (attempt > 0) {
      shard.retries.fetch_add(1, std::memory_order_relaxed);
      shard.retries_metric->Increment();
      std::this_thread::sleep_for(std::chrono::milliseconds(
          service::BackoffSleepMs(options_.retry, attempt - 1, 0,
                                  NextUniform())));
    }
    shard.requests.fetch_add(1, std::memory_order_relaxed);
    shard.requests_metric->Increment();
    if (IsDown(shard)) {
      // Circuit breaker open: fail fast instead of eating a connect
      // timeout per request while the shard is known-dead.
      last = Status::IoError("shard " + shard.address + " is down");
    } else {
      auto client = Acquire(shard);
      if (client.ok()) {
        auto raw = (*client)->CallRaw(line);
        if (raw.ok()) {
          MarkUp(shard);
          Release(shard, std::move(*client));
          return *raw;
        }
        last = raw.status();  // broken connection: let the client drop
      } else {
        last = client.status();
      }
      shard.failures.fetch_add(1, std::memory_order_relaxed);
      shard.failures_metric->Increment();
      MarkDown(shard);
    }
    if (!idempotent) break;
    if (!failover_tenant.empty()) {
      // HELLO: re-place on the ring with the dead shard excluded, so the
      // retry (and the tenant's future traffic) lands on a survivor.
      size_t next = ring_.ShardFor(failover_tenant, DownVector());
      std::lock_guard lock(assign_mu_);
      tenant_shard_[failover_tenant] = next;
      idx = next;
    }
  }
  return service::ErrLine(last);
}

std::string Router::HandleLine(const std::string& line, bool* quit) {
  auto parsed = service::ParseRequestLine(line);
  if (!parsed.ok()) return service::ErrLine(parsed.status());
  service::Request& request = *parsed;

  using service::RequestOp;
  switch (request.op) {
    case RequestOp::kPing:
      return service::OkLine("pong");
    case RequestOp::kQuit:
      *quit = true;
      return service::OkLine("bye");
    case RequestOp::kStats:
      return service::OkLine(MergedStats());
    case RequestOp::kHealth:
      return service::OkLine(MergedHealth());
    case RequestOp::kModels:
      return service::OkLine(MergedModels());
    case RequestOp::kModelSync:
      // Replication is shard-to-shard; the router holds no model store.
      return service::ErrLine(Status::FailedPrecondition(
          "MODELSYNC is answered by shards, not the router"));
    case RequestOp::kTeach: {
      // Deterministic placement by cause; MODELSYNC replication spreads
      // the model to the rest of the fleet. Teaching the same model
      // twice merges to the same corpus, so retries are safe.
      size_t idx = ring_.ShardFor(request.model.cause, DownVector());
      return Proxy(idx, line, /*idempotent=*/true, /*failover_tenant=*/"");
    }
    case RequestOp::kHello: {
      size_t idx = AssignShard(request.tenant, /*is_hello=*/true);
      return Proxy(idx, line, /*idempotent=*/true, request.tenant);
    }
    case RequestOp::kAppend: {
      size_t idx = AssignShard(request.tenant, /*is_hello=*/false);
      // APPENDSEQ is idempotent by construction; a plain APPEND that
      // failed mid-call may or may not have landed, so it is not retried
      // — the writer decides.
      return Proxy(idx, line, request.has_client_seq,
                   /*failover_tenant=*/"");
    }
    case RequestOp::kFlush:
    case RequestOp::kDiagnoses:
    case RequestOp::kQuery:
    case RequestOp::kDiagnoseRange:
    case RequestOp::kExplainQuery: {
      size_t idx = AssignShard(request.tenant, /*is_hello=*/false);
      return Proxy(idx, line, /*idempotent=*/true, /*failover_tenant=*/"");
    }
  }
  return service::ErrLine(Status::Internal("unhandled request op"));
}

Result<common::JsonValue> Router::ShardJson(size_t idx,
                                            const std::string& verb) {
  std::string raw = Proxy(idx, verb, /*idempotent=*/true, "");
  auto response = service::ParseResponseLine(raw);
  if (response.ok() && response->kind == service::Response::Kind::kOk) {
    auto json = common::ParseJson(response->detail);
    if (json.ok()) return json;
  }
  return Status::IoError(raw);
}

std::string Router::MergedStats() {
  common::JsonValue::Object router;
  router["shards"] = static_cast<double>(shards_.size());
  {
    std::lock_guard lock(assign_mu_);
    router["tenants"] = static_cast<double>(tenant_shard_.size());
  }
  common::JsonValue::Object per_shard;
  common::JsonValue::Object upstream;
  for (size_t i = 0; i < shards_.size(); ++i) {
    Shard& shard = *shards_[i];
    common::JsonValue::Object entry;
    entry["requests"] = static_cast<double>(shard.requests.load());
    entry["retries"] = static_cast<double>(shard.retries.load());
    entry["failures"] = static_cast<double>(shard.failures.load());
    entry["down"] = IsDown(shard);
    per_shard[shard.address] = common::JsonValue(std::move(entry));

    auto json = ShardJson(i, "STATS");
    if (json.ok()) {
      upstream[shard.address] = std::move(*json);
      continue;
    }
    common::JsonValue::Object error;
    error["error"] = json.status().message();
    upstream[shard.address] = common::JsonValue(std::move(error));
  }
  router["per_shard"] = common::JsonValue(std::move(per_shard));
  common::JsonValue::Object out;
  out["router"] = common::JsonValue(std::move(router));
  out["shards"] = common::JsonValue(std::move(upstream));
  return common::JsonValue(std::move(out)).Dump();
}

std::string Router::MergedHealth() {
  common::JsonValue::Object upstream;
  int worst = 0;
  for (size_t i = 0; i < shards_.size(); ++i) {
    Shard& shard = *shards_[i];
    auto json = ShardJson(i, "HEALTH");
    if (json.ok()) {
      auto state = json->GetString("state");
      worst = std::max(worst, HealthRank(state.ok() ? *state : "unknown"));
      upstream[shard.address] = std::move(*json);
      continue;
    }
    worst = std::max(worst, HealthRank("unreachable"));
    common::JsonValue::Object entry;
    entry["state"] = "unreachable";
    entry["reason"] = json.status().message();
    upstream[shard.address] = common::JsonValue(std::move(entry));
  }
  common::JsonValue::Object out;
  out["state"] = worst == 0 ? "ok" : (worst == 1 ? "degraded" : "draining");
  out["shards"] = common::JsonValue(std::move(upstream));
  return common::JsonValue(std::move(out)).Dump();
}

std::string Router::MergedModels() {
  // Union of every reachable shard's corpus, deduplicated by exact
  // serialized form (MODELSYNC replication makes shards converge, so the
  // union usually collapses to one shard's list).
  common::JsonValue::Array models;
  std::vector<std::string> seen;
  size_t reporting = 0;
  for (size_t i = 0; i < shards_.size(); ++i) {
    auto json = ShardJson(i, "MODELS");
    if (!json.ok()) continue;
    ++reporting;
    const common::JsonValue* list = json->Find("models");
    if (list == nullptr || !list->is_array()) continue;
    for (const common::JsonValue& model : list->as_array()) {
      std::string fingerprint = model.Dump();
      bool duplicate = false;
      for (const std::string& s : seen) {
        if (s == fingerprint) {
          duplicate = true;
          break;
        }
      }
      if (duplicate) continue;
      seen.push_back(std::move(fingerprint));
      models.push_back(model);
    }
  }
  common::JsonValue::Object out;
  out["version"] = 1;
  out["shards_reporting"] = static_cast<double>(reporting);
  out["models"] = common::JsonValue(std::move(models));
  return common::JsonValue(std::move(out)).Dump();
}

}  // namespace dbsherlock::fleet
