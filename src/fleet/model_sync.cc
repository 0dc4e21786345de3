#include "fleet/model_sync.h"

#include <chrono>
#include <unordered_map>
#include <unordered_set>

#include "common/crc32.h"
#include "common/json.h"
#include "core/causal_model.h"
#include "common/metrics.h"
#include "core/model_io.h"
#include "service/model_store.h"

namespace dbsherlock::fleet {

namespace {

using common::Result;
using common::Status;

}  // namespace

ModelSyncPuller::ModelSyncPuller(Options options)
    : options_(std::move(options)) {}

Result<std::unique_ptr<ModelSyncPuller>> ModelSyncPuller::Start(
    Options options) {
  if (options.service == nullptr) {
    return Status::InvalidArgument("ModelSyncPuller needs a Service");
  }
  auto puller =
      std::unique_ptr<ModelSyncPuller>(new ModelSyncPuller(std::move(options)));
  for (const std::string& address : puller->options_.peers) {
    auto endpoint = service::ParseHostPort(address);
    if (!endpoint.ok()) return endpoint.status();
    Peer peer;
    peer.host = endpoint->host;
    peer.port = endpoint->port;
    peer.stats.address = address;
    puller->peers_.push_back(std::move(peer));
  }
  if (!puller->peers_.empty() && puller->options_.interval_ms > 0) {
    puller->thread_ = std::thread([raw = puller.get()] { raw->Run(); });
  }
  return puller;
}

ModelSyncPuller::~ModelSyncPuller() { Stop(); }

void ModelSyncPuller::Stop() {
  {
    std::lock_guard lock(mu_);
    if (stop_) return;
    stop_ = true;
  }
  stop_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void ModelSyncPuller::Run() {
  for (;;) {
    {
      std::unique_lock lock(mu_);
      stop_cv_.wait_for(lock,
                        std::chrono::milliseconds(options_.interval_ms),
                        [this] { return stop_; });
      if (stop_) return;
    }
    RunOnce();
  }
}

void ModelSyncPuller::RunOnce() {
  // Peers are pulled under the lock (RunOnce may be driven by a test
  // thread while stats readers poll); the network calls dominate, and a
  // pull round is infrequent, so the coarse lock is fine.
  std::lock_guard lock(mu_);
  for (Peer& peer : peers_) PullPeer(peer);
}

void ModelSyncPuller::PullPeer(Peer& peer) {
  auto& metrics = common::MetricsRegistry::Global();
  if (peer.client == nullptr) {
    service::Client::Options client_options;
    client_options.connect_timeout_ms = options_.connect_timeout_ms;
    client_options.deadline_ms = options_.deadline_ms;
    auto client =
        service::Client::Connect(peer.host, peer.port, client_options);
    if (!client.ok()) {
      ++peer.stats.errors;
      metrics.GetCounter("modelsync.errors")->Increment();
      return;
    }
    peer.client = std::move(*client);
  }

  auto response = peer.client->ModelSync(peer.stats.last_seq);
  if (!response.ok()) {
    ++peer.stats.errors;
    metrics.GetCounter("modelsync.errors")->Increment();
    peer.client.reset();  // reconnect next round
    return;
  }

  auto last_seq = response->GetNumber("last_seq");
  auto crc = response->GetNumber("crc");
  const common::JsonValue* models = response->Find("models");
  if (!last_seq.ok() || !crc.ok() || models == nullptr ||
      !models->is_array()) {
    ++peer.stats.errors;
    metrics.GetCounter("modelsync.errors")->Increment();
    return;
  }

  // Verify the transfer before touching the store: Dump() is canonical
  // (ordered keys, round-trip numbers), so re-serializing the parsed
  // array reproduces the sender's exact bytes.
  std::string text = models->Dump();
  if (static_cast<uint32_t>(*crc) !=
      common::Crc32(text.data(), text.size())) {
    ++peer.stats.crc_failures;
    metrics.GetCounter("modelsync.crc_failures")->Increment();
    return;
  }

  if (!models->as_array().empty()) {
    // Fingerprint the local corpus once: byte-identical models are
    // skipped, and same-cause models whose merge changes nothing are
    // skipped too — otherwise mutual pulls would append a WAL record per
    // round forever and the fleet's seqs would never settle.
    std::unordered_set<std::string> fingerprints;
    std::unordered_map<std::string, const core::CausalModel*> by_cause;
    core::ModelRepository local;
    if (options_.service->options().store != nullptr) {
      local = options_.service->options().store->SnapshotRepository();
    }
    for (const core::CausalModel& model : local.models()) {
      fingerprints.insert(core::CausalModelToJson(model).Dump());
      by_cause[model.cause] = &model;
    }
    for (const common::JsonValue& json : models->as_array()) {
      std::string fingerprint = json.Dump();
      if (fingerprints.count(fingerprint) > 0) {
        ++peer.stats.skipped;
        metrics.GetCounter("modelsync.skipped")->Increment();
        continue;
      }
      auto model = core::CausalModelFromJson(json);
      if (!model.ok()) {
        ++peer.stats.errors;
        metrics.GetCounter("modelsync.errors")->Increment();
        continue;
      }
      auto it = by_cause.find(model->cause);
      if (it != by_cause.end()) {
        auto merged = core::MergeCausalModels(*it->second, *model);
        if (merged.ok() && !merged->predicates.empty() &&
            core::CausalModelToJson(*merged).Dump() ==
                core::CausalModelToJson(*it->second).Dump()) {
          ++peer.stats.skipped;  // merge is a no-op; don't grow the WAL
          metrics.GetCounter("modelsync.skipped")->Increment();
          continue;
        }
      }
      Status status = options_.service->Teach(*model);
      if (!status.ok()) {
        ++peer.stats.errors;
        metrics.GetCounter("modelsync.errors")->Increment();
        continue;
      }
      ++peer.stats.applied;
      metrics.GetCounter("modelsync.applied")->Increment();
    }
  }

  peer.stats.last_seq = static_cast<uint64_t>(*last_seq);
  ++peer.stats.pulls;
  metrics.GetCounter("modelsync.pulls")->Increment();
}

std::vector<ModelSyncPuller::PeerStats> ModelSyncPuller::peer_stats() const {
  std::lock_guard lock(mu_);
  std::vector<PeerStats> out;
  out.reserve(peers_.size());
  for (const Peer& peer : peers_) out.push_back(peer.stats);
  return out;
}

}  // namespace dbsherlock::fleet
