#include "service/tenant_manager.h"

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/metrics.h"

namespace dbsherlock::service {

using common::Result;
using common::Status;

TenantManager::TenantManager(Options options)
    : options_(std::move(options)) {
  auto& metrics = common::MetricsRegistry::Global();
  metrics.GetGauge("service.tenants")->Set(0.0);
  metrics.GetCounter("service.tenant_evictions");
}

Result<std::shared_ptr<Tenant>> TenantManager::Hello(
    const std::string& name, const tsdata::Schema& schema,
    const std::optional<Retention>& retain) {
  if (schema.num_attributes() == 0) {
    return Status::InvalidArgument("tenant schema must not be empty");
  }
  std::lock_guard lock(map_mu_);
  auto it = tenants_.find(name);
  if (it != tenants_.end()) {
    if (!(it->second->schema == schema)) {
      return Status::FailedPrecondition(
          "tenant '" + name + "' already registered with a different schema");
    }
    if (retain.has_value() && it->second->history != nullptr) {
      it->second->history->SetRetention(retain->bytes, retain->age_sec);
    }
    it->second->last_used.store(clock_.fetch_add(1) + 1,
                                std::memory_order_relaxed);
    return it->second;
  }

  auto tenant = std::make_shared<Tenant>(name);
  tenant->schema = schema;
  core::StreamingMonitor::Options monitor_options = options_.monitor;
  // The service diagnoses on its own worker pool; the drain thread must
  // never block on a full Diagnose.
  monitor_options.diagnose_inline = false;
  tenant->monitor =
      std::make_unique<core::StreamingMonitor>(schema, monitor_options);
  if (!options_.store.dir.empty()) {
    // Tenant names are path-safe by ValidTenantName ([A-Za-z0-9_.-]).
    if (::mkdir(options_.store.dir.c_str(), 0755) != 0 && errno != EEXIST) {
      return Status::IoError("mkdir " + options_.store.dir + ": " +
                             std::strerror(errno));
    }
    store::TenantStore::Options store_options = options_.store;
    store_options.dir = options_.store.dir + "/" + name;
    store_options.schema = schema;
    if (retain.has_value()) {
      store_options.retain_bytes = retain->bytes;
      store_options.retain_age_sec = retain->age_sec;
    }
    auto history = store::TenantStore::Open(std::move(store_options));
    if (!history.ok()) return history.status();
    tenant->history = std::move(*history);
    // Restart continuity: refill the sliding window from stored history
    // so detection context (and STATS window size) survives the restart.
    auto tail = tenant->history->ScanTail(options_.monitor.window_rows);
    if (!tail.ok()) return tail.status();
    if (tail->num_rows() > 0) {
      DBSHERLOCK_RETURN_NOT_OK(tenant->monitor->Hydrate(*tail));
    }
  }
  tenant->last_used.store(clock_.fetch_add(1) + 1, std::memory_order_relaxed);
  tenants_[name] = tenant;
  EvictLocked();
  common::MetricsRegistry::Global().GetGauge("service.tenants")
      ->Set(static_cast<double>(tenants_.size()));
  return tenant;
}

Result<std::shared_ptr<Tenant>> TenantManager::Find(const std::string& name) {
  std::lock_guard lock(map_mu_);
  auto it = tenants_.find(name);
  if (it == tenants_.end()) {
    return Status::NotFound("unknown tenant '" + name +
                            "' (HELLO first, or it was evicted)");
  }
  it->second->last_used.store(clock_.fetch_add(1) + 1,
                              std::memory_order_relaxed);
  return it->second;
}

std::vector<std::shared_ptr<Tenant>> TenantManager::Live() const {
  std::lock_guard lock(map_mu_);
  std::vector<std::shared_ptr<Tenant>> live;
  live.reserve(tenants_.size());
  for (const auto& [name, tenant] : tenants_) live.push_back(tenant);
  return live;
}

size_t TenantManager::size() const {
  std::lock_guard lock(map_mu_);
  return tenants_.size();
}

void TenantManager::EvictLocked() {
  while (tenants_.size() > options_.max_tenants) {
    // Pick the least-recently-used tenant that is idle end to end. Anyone
    // mid-drain or mid-diagnosis is skipped: eviction must never yank a
    // monitor out from under the worker that owns it.
    std::shared_ptr<Tenant> victim;
    uint64_t oldest = UINT64_MAX;
    for (const auto& [name, tenant] : tenants_) {
      uint64_t used = tenant->last_used.load(std::memory_order_relaxed);
      if (used >= oldest) continue;
      bool idle;
      {
        std::lock_guard ingest_lock(tenant->mu);
        idle = tenant->queue.empty() && !tenant->scheduled &&
               tenant->in_process == 0;
      }
      if (idle) {
        std::lock_guard diag_lock(tenant->diag_mu);
        idle = tenant->diag_pending == 0 && tenant->diag_in_flight == 0;
      }
      if (idle) {
        victim = tenant;
        oldest = used;
      }
    }
    if (!victim) return;  // everyone is busy; overshoot the soft cap
    {
      std::lock_guard ingest_lock(victim->mu);
      victim->evicted = true;
    }
    tenants_.erase(victim->name);
    evictions_.fetch_add(1, std::memory_order_relaxed);
    common::MetricsRegistry::Global()
        .GetCounter("service.tenant_evictions")
        ->Increment();
  }
}

}  // namespace dbsherlock::service
