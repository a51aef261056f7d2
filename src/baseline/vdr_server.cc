#include "baseline/vdr_server.h"

#include <algorithm>
#include <limits>
#include <string>
#include <tuple>
#include <utility>

#include "util/check.h"

namespace stagger {

Status VdrConfig::Validate() const {
  if (num_clusters < 1) {
    return Status::InvalidArgument("VDR needs at least one cluster");
  }
  if (cluster_degree < 1) {
    return Status::InvalidArgument("cluster degree must be >= 1");
  }
  if (interval <= SimTime::Zero()) {
    return Status::InvalidArgument("interval must be positive");
  }
  if (objects_per_cluster < 1) {
    return Status::InvalidArgument("objects per cluster must be >= 1");
  }
  if (replication_wait_threshold < 1) {
    return Status::InvalidArgument("replication threshold must be >= 1");
  }
  if (preload_objects < 0) {
    return Status::InvalidArgument("preload count must be >= 0");
  }
  if (!preload_replicas.empty() && objects_per_cluster != 1) {
    // Round-robin replica installation assumes one object per cluster;
    // otherwise two replicas of one object could land in one cluster.
    return Status::InvalidArgument(
        "preload_replicas requires objects_per_cluster == 1");
  }
  if (fragment_size.bytes() <= 0) {
    return Status::InvalidArgument("fragment size must be positive");
  }
  return Status::OK();
}

Result<std::unique_ptr<VdrServer>> VdrServer::Create(Simulator* sim,
                                                     const Catalog* catalog,
                                                     MaterializationService* tertiary,
                                                     const VdrConfig& config) {
  STAGGER_RETURN_NOT_OK(config.Validate());
  auto server = std::unique_ptr<VdrServer>(
      new VdrServer(sim, catalog, tertiary, config));
  const int32_t capacity = config.num_clusters * config.objects_per_cluster;
  int32_t slot = 0;
  auto install = [&](ObjectId id) {
    if (slot >= capacity) return false;
    server->InstallReplica(id, slot % config.num_clusters);
    ++slot;
    return true;
  };
  if (!config.preload_replicas.empty()) {
    // Demand-proportional warm start: breadth first (one replica per
    // object wanting any), then surplus replicas by ascending id
    // (descending popularity) while capacity remains.
    const auto n = static_cast<ObjectId>(std::min<size_t>(
        config.preload_replicas.size(), static_cast<size_t>(catalog->size())));
    for (ObjectId id = 0; id < n; ++id) {
      if (config.preload_replicas[static_cast<size_t>(id)] > 0 &&
          !install(id)) {
        break;
      }
    }
    for (ObjectId id = 0; id < n && slot < capacity; ++id) {
      for (int32_t r = 1;
           r < config.preload_replicas[static_cast<size_t>(id)]; ++r) {
        if (!install(id)) break;
      }
    }
  } else {
    const int32_t preload =
        std::min({config.preload_objects, capacity, catalog->size()});
    for (ObjectId id = 0; id < preload; ++id) install(id);
  }
  return server;
}

VdrServer::VdrServer(Simulator* sim, const Catalog* catalog,
                     MaterializationService* tertiary, VdrConfig config)
    : sim_(sim), catalog_(catalog), tertiary_(tertiary), config_(config),
      clusters_(static_cast<size_t>(config.num_clusters)),
      objects_(static_cast<size_t>(catalog->size())) {}

SimTime VdrServer::DisplayTime(ObjectId object) const {
  return config_.interval * catalog_->Get(object).num_subobjects;
}

DataSize VdrServer::ObjectSize(ObjectId object) const {
  return config_.fragment_size * (catalog_->Get(object).num_subobjects *
                                  config_.cluster_degree);
}

Status VdrServer::RequestDisplay(ObjectId object, StartedFn on_started,
                                 CompletedFn on_completed,
                                 InterruptedFn /*on_interrupted*/) {
  // VDR never gives up on an accepted display: a cluster outage
  // re-queues it for a surviving replica (or rematerialization), and a
  // tertiary read always lands.  So on_interrupted never fires.
  if (!catalog_->Contains(object)) {
    return Status::NotFound("object " + std::to_string(object) +
                            " not in catalog");
  }
  ObjectState& os = objects_[static_cast<size_t>(object)];
  ++os.access_count;
  os.last_access = sim_->Now();
  ++os.waiting;
  queue_.push_back(Pending{object, sim_->Now(), std::move(on_started),
                           std::move(on_completed)});
  metrics_.queue_length.Set(sim_->Now(), static_cast<double>(queue_.size()));
  Dispatch();
  return Status::OK();
}

void VdrServer::Dispatch() {
  if (dispatching_) return;
  dispatching_ = true;
  while (DispatchOnce()) {
  }
  dispatching_ = false;
  metrics_.queue_length.Set(sim_->Now(), static_cast<double>(queue_.size()));
#ifdef STAGGER_AUDIT
  // Self-check after every dispatch round: replica bookkeeping must be
  // bidirectionally consistent (see AuditInvariants).
  STAGGER_CHECK_OK(AuditInvariants());
#endif
}

Status VdrServer::AuditInvariants() const {
  // Cluster -> object references, capacity, and busy-time sanity.
  std::vector<int64_t> replicas_seen(objects_.size(), 0);
  for (size_t c = 0; c < clusters_.size(); ++c) {
    const ClusterState& cs = clusters_[c];
    STAGGER_AUDIT_VERIFY(static_cast<int32_t>(cs.resident.size()) <=
                         config_.objects_per_cluster)
        << "; cluster " << c << " holds " << cs.resident.size()
        << " objects, capacity " << config_.objects_per_cluster;
    for (ObjectId o : cs.resident) {
      STAGGER_AUDIT_VERIFY(o >= 0 &&
                           o < static_cast<ObjectId>(objects_.size()))
          << "; cluster " << c << " claims nonexistent object " << o;
      const auto& owners = objects_[static_cast<size_t>(o)].clusters;
      STAGGER_AUDIT_VERIFY(std::count(owners.begin(), owners.end(),
                                      static_cast<int32_t>(c)) == 1)
          << "; cluster " << c << " holds object " << o
          << " but the object does not point back exactly once";
      ++replicas_seen[static_cast<size_t>(o)];
    }
  }

  // Object -> cluster references and replica-count bounds.
  int64_t total_waiting = 0;
  for (size_t o = 0; o < objects_.size(); ++o) {
    const ObjectState& os = objects_[o];
    STAGGER_AUDIT_VERIFY(static_cast<int32_t>(os.clusters.size()) <=
                         config_.num_clusters)
        << "; object " << o << " has " << os.clusters.size()
        << " replicas but only " << config_.num_clusters << " clusters exist";
    STAGGER_AUDIT_VERIFY(static_cast<int64_t>(os.clusters.size()) ==
                         replicas_seen[o])
        << "; object " << o << " lists " << os.clusters.size()
        << " replicas but clusters hold " << replicas_seen[o];
    for (int32_t c : os.clusters) {
      STAGGER_AUDIT_VERIFY(c >= 0 && c < config_.num_clusters)
          << "; object " << o << " claims nonexistent cluster " << c;
    }
    STAGGER_AUDIT_VERIFY(os.waiting >= 0)
        << "; object " << o << " has negative waiting count " << os.waiting;
    total_waiting += os.waiting;
  }

  // Every queued request is accounted in its object's waiting count.
  STAGGER_AUDIT_VERIFY(total_waiting == static_cast<int64_t>(queue_.size()))
      << "; waiting counters sum to " << total_waiting << " but "
      << queue_.size() << " requests are queued";

  // Fault-state rules: an out-of-service cluster carries no activity,
  // and the active-display table matches the kDisplay clusters exactly
  // (with each piggyback destination in kCopyDest).
  int64_t display_clusters = 0;
  for (size_t c = 0; c < clusters_.size(); ++c) {
    const ClusterState& cs = clusters_[c];
    STAGGER_AUDIT_VERIFY(cs.down_disks >= 0 &&
                         cs.down_disks <= config_.cluster_degree)
        << "; cluster " << c << " records " << cs.down_disks
        << " disks down of " << config_.cluster_degree;
    STAGGER_AUDIT_VERIFY(cs.down_disks == 0 ||
                         cs.activity == ClusterActivity::kIdle)
        << "; cluster " << c << " has " << cs.down_disks
        << " disks down yet is still active";
    if (cs.activity == ClusterActivity::kDisplay) ++display_clusters;
  }
  STAGGER_AUDIT_VERIFY(static_cast<int64_t>(active_displays_.size()) ==
                       display_clusters)
      << "; " << active_displays_.size() << " active-display records but "
      << display_clusters << " clusters are displaying";
  // stagger-lint: allow(determinism-unordered-iter) -- audit-only verification; every record is checked independently, so visit order cannot affect the outcome
  for (const auto& [c, ad] : active_displays_) {
    STAGGER_AUDIT_VERIFY(
        clusters_[static_cast<size_t>(c)].activity == ClusterActivity::kDisplay)
        << "; active-display record on cluster " << c
        << " which is not displaying";
    STAGGER_AUDIT_VERIFY(ad.copy_dst < 0 ||
                         clusters_[static_cast<size_t>(ad.copy_dst)].activity ==
                             ClusterActivity::kCopyDest)
        << "; display on cluster " << c << " claims copy destination "
        << ad.copy_dst << " which is not receiving a copy";
  }
  return Status::OK();
}

bool VdrServer::DispatchOnce() {
  for (size_t i = 0; i < queue_.size(); ++i) {
    const ObjectId object = queue_[i].object;
    ObjectState& os = objects_[static_cast<size_t>(object)];

    const int32_t idle = FindIdleReplica(object);
    if (idle >= 0) {
      StartDisplay(i, idle);
      return true;
    }

    if (os.clusters.empty() && !os.materializing) {
      const int32_t dst = ClaimDestination(/*for_replication=*/false);
      if (dst >= 0) {
        StartMaterialization(object, dst);
        return true;
      }
    }
    // Otherwise this request keeps waiting (for the tertiary, or for a
    // replica to come free); later requests may still be servable.
  }
  return false;
}

int32_t VdrServer::FindIdleReplica(ObjectId object) const {
  for (int32_t c : objects_[static_cast<size_t>(object)].clusters) {
    if (clusters_[static_cast<size_t>(c)].activity == ClusterActivity::kIdle &&
        ClusterUp(c)) {
      return c;
    }
  }
  return -1;
}

int32_t VdrServer::ClaimDestination(bool for_replication, ObjectId for_object) {
  const auto holds = [this, for_object](int32_t c) {
    if (for_object == kInvalidObject) return false;
    const auto& resident = clusters_[static_cast<size_t>(c)].resident;
    return std::find(resident.begin(), resident.end(), for_object) !=
           resident.end();
  };
  // Prefer an idle, in-service cluster with spare capacity.
  for (int32_t c = 0; c < config_.num_clusters; ++c) {
    ClusterState& cs = clusters_[static_cast<size_t>(c)];
    if (cs.activity == ClusterActivity::kIdle && ClusterUp(c) && !holds(c) &&
        static_cast<int32_t>(cs.resident.size()) < config_.objects_per_cluster) {
      return c;
    }
  }
  // Otherwise evict from an idle cluster whose resident has no queued
  // demand.  Victim preference (least response-time damage first):
  //   1. never-accessed objects (highest id — arbitrary but stable);
  //   2. surplus replicas, least-demanded per replica first;
  //   3. sole replicas, LFU with LRU tie-break.
  int32_t best_cluster = -1;
  ObjectId best_object = kInvalidObject;
  std::tuple<int32_t, double, int64_t, int64_t> best_key{
      std::numeric_limits<int32_t>::max(), 0.0, 0, 0};
  for (int32_t c = 0; c < config_.num_clusters; ++c) {
    ClusterState& cs = clusters_[static_cast<size_t>(c)];
    if (cs.activity != ClusterActivity::kIdle || !ClusterUp(c) || holds(c)) {
      continue;
    }
    for (ObjectId o : cs.resident) {
      const ObjectState& os = objects_[static_cast<size_t>(o)];
      if (os.waiting > 0) continue;
      const auto replicas = static_cast<double>(os.clusters.size());
      std::tuple<int32_t, double, int64_t, int64_t> key;
      if (os.access_count == 0) {
        key = {0, 0.0, -static_cast<int64_t>(o), 0};
      } else if (os.clusters.size() > 1) {
        key = {1, static_cast<double>(os.access_count) / replicas,
               os.last_access.micros(), o};
      } else {
        if (for_replication) continue;  // never displace a sole replica
        key = {2, static_cast<double>(os.access_count),
               os.last_access.micros(), o};
      }
      if (best_cluster < 0 || key < best_key) {
        best_key = key;
        best_cluster = c;
        best_object = o;
      }
    }
  }
  if (best_cluster < 0) return -1;

  ClusterState& cs = clusters_[static_cast<size_t>(best_cluster)];
  cs.resident.erase(
      std::find(cs.resident.begin(), cs.resident.end(), best_object));
  ObjectState& os = objects_[static_cast<size_t>(best_object)];
  os.clusters.erase(
      std::find(os.clusters.begin(), os.clusters.end(), best_cluster));
  ++metrics_.evictions;
  return best_cluster;
}

void VdrServer::SetActivity(int32_t cluster, ClusterActivity activity) {
  ClusterState& cs = clusters_[static_cast<size_t>(cluster)];
  const bool was_idle = cs.activity == ClusterActivity::kIdle;
  const bool now_idle = activity == ClusterActivity::kIdle;
  if (was_idle && !now_idle) {
    cs.busy_since = sim_->Now();
  } else if (!was_idle && now_idle) {
    cs.busy_total += sim_->Now() - cs.busy_since;
  }
  cs.activity = activity;
}

void VdrServer::InstallReplica(ObjectId object, int32_t cluster) {
  clusters_[static_cast<size_t>(cluster)].resident.push_back(object);
  objects_[static_cast<size_t>(object)].clusters.push_back(cluster);
}

void VdrServer::StartDisplay(size_t queue_index, int32_t cluster) {
  Pending p = std::move(queue_[static_cast<size_t>(queue_index)]);
  queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(queue_index));
  ObjectState& os = objects_[static_cast<size_t>(p.object)];
  STAGGER_CHECK(os.waiting > 0);
  --os.waiting;

  SetActivity(cluster, ClusterActivity::kDisplay);
  if (!p.resumed) {
    const SimTime latency = sim_->Now() - p.arrival;
    metrics_.startup_latency_sec.Add(latency.seconds());
    if (p.on_started) p.on_started(latency);
  }

  // Piggyback replication: if demand for the object still outstrips its
  // replicas, multicast this display's cluster read into a destination
  // cluster; the copy lands when the display ends.
  // Demand must persistently outstrip supply: with R replicas, another
  // copy is spawned only while R + threshold requests are still queued.
  // Transient pair-collisions under near-uniform access therefore do
  // not trade library breadth for replicas.
  int32_t copy_dst = -1;
  if (config_.enable_replication &&
      os.waiting >= static_cast<int32_t>(os.clusters.size()) +
                        config_.replication_wait_threshold &&
      static_cast<int32_t>(os.clusters.size()) < config_.num_clusters) {
    copy_dst = ClaimDestination(/*for_replication=*/true, p.object);
    if (copy_dst >= 0) SetActivity(copy_dst, ClusterActivity::kCopyDest);
  }

  ActiveDisplay ad;
  ad.object = p.object;
  ad.copy_dst = copy_dst;
  ad.on_completed = std::move(p.on_completed);
  ad.completion = sim_->ScheduleAfter(DisplayTime(p.object),
                                      [this, cluster] {
                                        CompleteDisplay(cluster);
                                      });
  active_displays_[cluster] = std::move(ad);
}

void VdrServer::CompleteDisplay(int32_t cluster) {
  auto node = active_displays_.extract(cluster);
  STAGGER_CHECK(!node.empty()) << "no active display on cluster " << cluster;
  ActiveDisplay& ad = node.mapped();
  SetActivity(cluster, ClusterActivity::kIdle);
  if (ad.copy_dst >= 0) {
    InstallReplica(ad.object, ad.copy_dst);
    SetActivity(ad.copy_dst, ClusterActivity::kIdle);
    ++metrics_.replications;
  }
  ++metrics_.displays_completed;
  if (ad.on_completed) ad.on_completed();
  Dispatch();
}

void VdrServer::StartMaterialization(ObjectId object, int32_t dst) {
  SetActivity(dst, ClusterActivity::kMaterializing);
  ObjectState& os = objects_[static_cast<size_t>(object)];
  os.materializing = true;
  ++metrics_.materializations;
  // An outage bumps the destination's epoch, voiding this landing: the
  // transfer's bits went to a dead cluster and the object must re-queue.
  const int64_t epoch = clusters_[static_cast<size_t>(dst)].epoch;
  tertiary_->Enqueue(
      object, ObjectSize(object),
      [this, dst, epoch](ObjectId done) {
        objects_[static_cast<size_t>(done)].materializing = false;
        ClusterState& cs = clusters_[static_cast<size_t>(dst)];
        if (cs.epoch == epoch) {
          STAGGER_CHECK(cs.activity == ClusterActivity::kMaterializing);
          InstallReplica(done, dst);
          SetActivity(dst, ClusterActivity::kIdle);
        }
        Dispatch();
      },
      /*on_start=*/nullptr);
}

void VdrServer::OnDiskDown(int32_t disk, bool media_lost) {
  if (disk < 0) return;
  const int32_t cluster = disk / config_.cluster_degree;
  if (cluster >= config_.num_clusters) return;  // spare disk
  ClusterState& cs = clusters_[static_cast<size_t>(cluster)];
  ++cs.down_disks;
  // The first down disk takes the cluster out of service; a later
  // media-losing failure on an already-down cluster still drops its
  // replicas (OnClusterDown is idempotent on an idle cluster).
  if (cs.down_disks == 1 || media_lost) OnClusterDown(cluster, media_lost);
}

void VdrServer::OnDiskUp(int32_t disk) {
  if (disk < 0) return;
  const int32_t cluster = disk / config_.cluster_degree;
  if (cluster >= config_.num_clusters) return;  // spare disk
  ClusterState& cs = clusters_[static_cast<size_t>(cluster)];
  STAGGER_CHECK(cs.down_disks > 0)
      << "disk-up on cluster " << cluster << " with no disks down";
  --cs.down_disks;
  // Back in service: the head of the queue may now be servable.
  if (cs.down_disks == 0) Dispatch();
}

void VdrServer::OnClusterDown(int32_t cluster, bool media_lost) {
  ClusterState& cs = clusters_[static_cast<size_t>(cluster)];
  ++cs.epoch;
  switch (cs.activity) {
    case ClusterActivity::kDisplay: {
      // Fail over: cut the display short and re-queue it at the head so
      // the next dispatch lands it on a surviving replica (or starts a
      // fresh materialization if this was the last copy).
      auto node = active_displays_.extract(cluster);
      STAGGER_CHECK(!node.empty())
          << "display cluster " << cluster << " has no active record";
      ActiveDisplay& ad = node.mapped();
      sim_->Cancel(ad.completion);
      if (ad.copy_dst >= 0) {
        SetActivity(ad.copy_dst, ClusterActivity::kIdle);
        ++metrics_.replications_aborted;
      }
      SetActivity(cluster, ClusterActivity::kIdle);
      ++metrics_.displays_interrupted;
      ++metrics_.failovers;
      Pending retry;
      retry.object = ad.object;
      retry.arrival = sim_->Now();
      retry.on_completed = std::move(ad.on_completed);
      retry.resumed = true;
      ++objects_[static_cast<size_t>(ad.object)].waiting;
      queue_.push_front(std::move(retry));
      break;
    }
    case ClusterActivity::kCopyDest: {
      // Abort the inbound copy; the source display is unaffected.
      // stagger-lint: allow(determinism-unordered-iter) -- find-one-and-break scan: at most one record matches copy_dst, so visit order cannot affect the outcome
      for (auto& [src, ad] : active_displays_) {
        if (ad.copy_dst == cluster) {
          ad.copy_dst = -1;
          break;
        }
      }
      SetActivity(cluster, ClusterActivity::kIdle);
      ++metrics_.replications_aborted;
      break;
    }
    case ClusterActivity::kMaterializing:
      // The in-flight tertiary landing is voided by the epoch bump; its
      // completion callback re-dispatches the still-waiting request.
      SetActivity(cluster, ClusterActivity::kIdle);
      break;
    case ClusterActivity::kCopySource:
    case ClusterActivity::kIdle:
      break;
  }
  if (media_lost) {
    for (ObjectId o : cs.resident) {
      auto& owners = objects_[static_cast<size_t>(o)].clusters;
      owners.erase(std::find(owners.begin(), owners.end(), cluster));
      ++metrics_.replicas_lost;
    }
    cs.resident.clear();
  }
  Dispatch();
}

int32_t VdrServer::ResidentObjectCount() const {
  int32_t count = 0;
  for (const ObjectState& os : objects_) {
    if (!os.clusters.empty()) ++count;
  }
  return count;
}

double VdrServer::MeanClusterUtilization() const {
  const SimTime now = sim_->Now();
  if (now <= SimTime::Zero()) return 0.0;
  double total = 0.0;
  for (const ClusterState& cs : clusters_) {
    SimTime busy = cs.busy_total;
    if (cs.activity != ClusterActivity::kIdle) busy += now - cs.busy_since;
    total += busy.seconds() / now.seconds();
  }
  return total / static_cast<double>(clusters_.size());
}

}  // namespace stagger
