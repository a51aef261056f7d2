// Virtual data replication baseline ([GS93], summarized in Section 2).
//
// The D disks are partitioned into R = D/M physical clusters; an object
// is declustered across the disks of exactly one cluster, so a cluster
// delivers one display at a time for the object's whole duration.  To
// keep a popular object's cluster from becoming the bottleneck, the
// server dynamically *replicates* frequently accessed objects onto
// additional clusters (and eviction reclaims replicas of cold objects).
//
// The replication trigger approximates [GS93]'s MRT state-transition
// policy: when at least `replication_wait_threshold` requests remain
// queued for an object as one of its replicas begins a display, the
// display's cluster read is multicast into a claimable destination
// cluster ("piggyback" replication) — the new replica comes online when
// the display completes, at no extra source-bandwidth cost.  Eviction
// reclaims replicas of cold objects LFU-first.  See DESIGN.md
// (Substitutions).

#ifndef STAGGER_BASELINE_VDR_SERVER_H_
#define STAGGER_BASELINE_VDR_SERVER_H_

#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "sim/simulator.h"
#include "storage/catalog.h"
#include "tertiary/tertiary_manager.h"
#include "util/result.h"
#include "util/stats.h"
#include "workload/media_service.h"

namespace stagger {

/// \brief VDR server configuration.
struct VdrConfig {
  int32_t num_clusters = 0;       ///< R = D / M
  int32_t cluster_degree = 0;     ///< M, disks per cluster
  SimTime interval;               ///< S(C_i), per-subobject delivery time
  /// Per-disk transfer unit; object size = n * M * fragment_size.
  DataSize fragment_size = DataSize::MB(1.512);
  /// Whole objects storable per cluster (1 under Table 3 parameters).
  int32_t objects_per_cluster = 1;
  /// Master switch for dynamic replication.
  bool enable_replication = true;
  /// Damping for replica growth: a display spawns a piggyback replica
  /// only while waiting >= threshold * current-replica-count, so replica
  /// sets stop growing once supply matches queued demand.
  int32_t replication_wait_threshold = 1;
  /// Objects (by id, ascending) installed one-per-cluster-slot before
  /// the run starts, skipping the cold-start transient.
  int32_t preload_objects = 0;
  /// Optional demand-proportional preload: replica count per object id.
  /// When non-empty this overrides preload_objects; installation stops
  /// when cluster capacity runs out.
  std::vector<int32_t> preload_replicas;

  Status Validate() const;
};

/// \brief What each cluster is doing.
enum class ClusterActivity {
  kIdle,
  kDisplay,
  kCopySource,
  kCopyDest,
  kMaterializing,
};

/// \brief Counters reported by the VDR server.
struct VdrMetrics {
  int64_t displays_completed = 0;
  int64_t replications = 0;
  int64_t materializations = 0;
  int64_t evictions = 0;
  // --- fault handling (src/fault/) -------------------------------------
  /// Displays cut short by a cluster outage (each is also re-queued,
  /// so it is not lost unless its station gives up).
  int64_t displays_interrupted = 0;
  /// Interrupted displays re-queued onto the surviving replica set.
  int64_t failovers = 0;
  /// Resident replicas dropped because their cluster lost media.
  int64_t replicas_lost = 0;
  /// Piggyback copies aborted by a destination-cluster outage.
  int64_t replications_aborted = 0;
  StreamingStats startup_latency_sec;
  TimeWeighted queue_length;
};

/// \brief The virtual-data-replication media server.
class VdrServer : public MediaService {
 public:
  /// \param sim      simulation kernel; outlives the server.
  /// \param catalog  database; outlives the server.
  /// \param tertiary shared tertiary manager; outlives the server.
  static Result<std::unique_ptr<VdrServer>> Create(Simulator* sim,
                                                   const Catalog* catalog,
                                                   MaterializationService* tertiary,
                                                   const VdrConfig& config);

  Status RequestDisplay(ObjectId object, StartedFn on_started,
                        CompletedFn on_completed,
                        InterruptedFn on_interrupted = nullptr) override;

  /// \name Fault wiring (FaultInjector listeners)
  /// Disks map onto clusters by index: cluster = disk / M; disks beyond
  /// R * M are spares and are ignored.  A cluster with any disk down is
  /// out of service — its in-flight display fails over to another
  /// replica (re-queued at the head of the queue), an inbound copy or
  /// materialization landing is aborted, and, when the outage lost
  /// media (`media_lost`), its resident replicas are dropped.
  /// @{
  void OnDiskDown(int32_t disk, bool media_lost);
  void OnDiskUp(int32_t disk);
  /// @}

  /// True when every disk of `cluster` is in service.
  bool ClusterUp(int32_t cluster) const {
    return clusters_[static_cast<size_t>(cluster)].down_disks == 0;
  }

  const VdrMetrics& metrics() const { return metrics_; }
  const VdrConfig& config() const { return config_; }

  /// Replica/cluster bookkeeping audit: object->cluster and
  /// cluster->object references agree bidirectionally, per-cluster
  /// residency respects capacity, replica counts never exceed R, and
  /// waiting counts sum to the queue length.  Returns the first
  /// violation; invoked after every dispatch round when STAGGER_AUDIT
  /// is on.
  Status AuditInvariants() const;

  /// Replicas of `object` currently resident.
  int32_t ReplicaCount(ObjectId object) const {
    return static_cast<int32_t>(
        objects_[static_cast<size_t>(object)].clusters.size());
  }
  int32_t ResidentObjectCount() const;
  size_t pending_requests() const { return queue_.size(); }
  /// Fraction of elapsed time the mean cluster spent non-idle.
  double MeanClusterUtilization() const;

 private:
  struct ClusterState {
    ClusterActivity activity = ClusterActivity::kIdle;
    std::vector<ObjectId> resident;
    SimTime busy_since;
    SimTime busy_total;
    /// Disks of this cluster currently failed or stalled; the cluster
    /// serves displays only at zero (all M disks must stream).
    int32_t down_disks = 0;
    /// Bumped on every outage; voids stale completion callbacks (a
    /// tertiary landing scheduled before the outage must not install).
    int64_t epoch = 0;
  };
  struct ObjectState {
    std::vector<int32_t> clusters;  ///< replica locations
    int64_t access_count = 0;
    SimTime last_access;
    int32_t waiting = 0;
    bool materializing = false;
  };
  struct Pending {
    ObjectId object;
    SimTime arrival;
    StartedFn on_started;
    CompletedFn on_completed;
    /// True when this entry re-queues a display interrupted by a
    /// cluster outage; on_started and the startup-latency sample fired
    /// at the original start and must not repeat.
    bool resumed = false;
  };
  /// In-flight display on one cluster, interruptible by an outage.
  struct ActiveDisplay {
    ObjectId object = kInvalidObject;
    int32_t copy_dst = -1;  ///< piggyback destination, or -1
    CompletedFn on_completed;
    EventHandle completion;
  };

  VdrServer(Simulator* sim, const Catalog* catalog, MaterializationService* tertiary,
            VdrConfig config);

  void Dispatch();
  /// FIFO pass over the queue; true if any action was taken.
  bool DispatchOnce();
  /// Idle cluster holding `object`, or -1.
  int32_t FindIdleReplica(ObjectId object) const;
  /// Claims a destination cluster (idle, spare capacity or evictable
  /// content); evicts as needed.  Returns -1 when none is claimable.
  /// Replication destinations may only displace never-accessed objects
  /// or surplus replicas — growing a replica set never shrinks the set
  /// of unique resident objects; materializations may displace anything
  /// evictable.  Clusters already holding `for_object` are never
  /// claimed: a second replica in the same cluster adds no parallelism.
  int32_t ClaimDestination(bool for_replication,
                           ObjectId for_object = kInvalidObject);
  void StartDisplay(size_t queue_index, int32_t cluster);
  void CompleteDisplay(int32_t cluster);
  void StartMaterialization(ObjectId object, int32_t dst);
  void OnClusterDown(int32_t cluster, bool media_lost);
  void SetActivity(int32_t cluster, ClusterActivity activity);
  void InstallReplica(ObjectId object, int32_t cluster);
  SimTime DisplayTime(ObjectId object) const;
  DataSize ObjectSize(ObjectId object) const;

  Simulator* sim_;
  const Catalog* catalog_;
  MaterializationService* tertiary_;
  VdrConfig config_;
  std::vector<ClusterState> clusters_;
  std::vector<ObjectState> objects_;
  std::deque<Pending> queue_;
  /// Keyed by the cluster running the display.
  std::unordered_map<int32_t, ActiveDisplay> active_displays_;
  VdrMetrics metrics_;
  bool dispatching_ = false;
};

}  // namespace stagger

#endif  // STAGGER_BASELINE_VDR_SERVER_H_
