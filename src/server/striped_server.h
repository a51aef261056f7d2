// The striping media server: ties the interval scheduler (core), object
// manager (storage), and tertiary manager together behind the
// MediaService interface.  Simple striping is the stride = M
// configuration; any other stride gives general staggered striping.
//
// Request lifecycle:
//   resident object  -> pin -> scheduler admission -> display -> unpin
//                       (the server hears the display's start and end
//                       from the scheduler by request id)
//   absent object    -> queue behind a single materialization; when the
//                       tertiary finishes, the object lands via the
//                       object manager (evicting LFU victims) and every
//                       waiter is submitted.  If all resident objects
//                       are pinned, the landing retries as pins drain.

#ifndef STAGGER_SERVER_STRIPED_SERVER_H_
#define STAGGER_SERVER_STRIPED_SERVER_H_

#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "background/background_budget.h"
#include "core/interval_scheduler.h"
#include "disk/disk_array.h"
#include "rebuild/rebuild_manager.h"
#include "scrub/scrubber.h"
#include "storage/catalog.h"
#include "storage/object_manager.h"
#include "tertiary/tertiary_manager.h"
#include "util/result.h"
#include "workload/batcher.h"
#include "workload/media_service.h"

namespace stagger {

/// \brief Striped-server configuration.
struct StripedConfig {
  int32_t stride = 1;  ///< k; set equal to M for simple striping
  SimTime interval = SimTime::Millis(605);
  DataSize fragment_size = DataSize::MB(1.512);
  int64_t fragment_cylinders = 1;
  AdmissionPolicy policy = AdmissionPolicy::kContiguous;
  bool coalesce = false;
  int64_t fragmented_lookahead = 16;
  /// Objects (by id, ascending) made resident before the run starts —
  /// skips the cold-start transient.
  int32_t preload_objects = 0;
  /// Charge the disk-side write load of materializations (Section
  /// 3.2.4): while the tertiary streams an object in, a write stream of
  /// floor(B_Tertiary / B_Disk) disks walks the object's layout through
  /// the regular scheduler.  Off by default (2 of 1000 disks in the
  /// Table 3 system).
  bool charge_materialization_writes = false;
  /// B_Tertiary, used to size the write stream when charging.
  Bandwidth tertiary_bandwidth = Bandwidth::Mbps(40);
  /// Reaction to reads landing on failed or stalled disks (src/fault/);
  /// forwarded to the scheduler together with the pause cap below.
  DegradedPolicy degraded_policy = DegradedPolicy::kRemapOrPause;
  int64_t max_pause_intervals = 4096;
  /// Store a per-subobject parity fragment on the disk after each
  /// stripe (fault-tolerance layer): enables kReconstruct degraded
  /// reads and online rebuild, at one extra fragment per stripe of
  /// storage.  Objects whose M_X + 1 exceeds D fall back to
  /// parity-less layouts.
  bool parity = false;
  /// Rebuild rate cap forwarded to RebuildManager: at most one fragment
  /// per failed disk every this many intervals.  Rebuild runs when the
  /// array has hot spares (DiskArray num_spares > 0) and parity is on.
  int64_t rebuild_intervals_per_fragment = 1;
  /// Run the background scrubber (src/scrub/): cycle over resident
  /// stripes on idle bandwidth verifying content words, surfacing and
  /// repairing latent sector errors.  Registered below rebuild priority
  /// on the shared background budget.
  bool scrub = false;
  /// Scrub pacing (ScrubConfig::intervals_per_stripe): at 1 the
  /// scrubber uses whatever idle bandwidth its grant allows; at N > 1
  /// it verifies at most one stripe every N intervals.
  int64_t scrub_intervals_per_stripe = 1;
  /// Per-interval idle-read caps handed to the background budget;
  /// 0 = uncapped (bounded only by measured idle bandwidth).
  int64_t rebuild_reads_per_interval = 0;
  int64_t scrub_reads_per_interval = 0;
  /// Starvation floor: if the scrubber has work but makes no progress
  /// for this many intervals (a rebuild storm is eating every grant),
  /// it is served first once.  0 disables the floor.
  int64_t scrub_starvation_floor_intervals = 64;
  /// Stream batching (workload/batcher.h): requests for the same object
  /// arriving within `batch_window` share one physical stream, so N
  /// stations ride one stripe's bandwidth.  Strictly opt-in: with
  /// `batch` false admission is untouched, and `batch_window` zero is a
  /// proven pass-through (bit-identical schedules either way).
  bool batch = false;
  SimTime batch_window = SimTime::Zero();
  /// Stations per physical stream (0 = unlimited).
  int32_t max_batch_fanout = 0;
  /// Forwarded to SchedulerConfig::read_observer (schedule tracing).
  std::function<void(int64_t, ObjectId, int64_t, int32_t, int32_t)>
      read_observer;

  Status Validate() const;
};

/// \brief Server-level counters (scheduler metrics live in the
/// scheduler; tertiary metrics in the tertiary manager).
struct StripedMetrics {
  int64_t requests = 0;
  int64_t resident_hits = 0;
  int64_t materializations_started = 0;
  int64_t landings_deferred = 0;  ///< MakeResident retries due to pins
};

/// \brief Staggered/simple striping media server.
class StripedServer : public MediaService, private DisplayListener {
 public:
  /// All pointees must outlive the server.
  static Result<std::unique_ptr<StripedServer>> Create(
      Simulator* sim, const Catalog* catalog, DiskArray* disks,
      MaterializationService* tertiary, const StripedConfig& config);

  Status RequestDisplay(ObjectId object, StartedFn on_started,
                        CompletedFn on_completed,
                        InterruptedFn on_interrupted = nullptr) override;

  /// Full invariant sweep (core/invariants.h): catalog sanity, the
  /// staggered layout of every resident object, and the scheduler's
  /// per-interval state.  Returns the first violation found.  Invoked
  /// automatically at preload and every landing when STAGGER_AUDIT is on.
  Status AuditInvariants() const;

  /// Fault-injector listeners (fault/fault_injector.h OnDown / OnUp):
  /// a permanent failure starts an online rebuild of the slot's lost
  /// fragments onto a hot spare; a natural recovery cancels it.  No-ops
  /// unless the server owns a rebuild manager (parity on + spares).
  void OnDiskDown(DiskId disk, SimTime now);
  void OnDiskUp(DiskId disk, SimTime now);

  const StripedMetrics& metrics() const { return metrics_; }
  /// Stream batcher, or nullptr when batching is off.
  const StreamBatcher* batcher() const { return batcher_.get(); }
  const SchedulerMetrics& scheduler_metrics() const {
    return scheduler_->metrics();
  }
  const ObjectManager& object_manager() const { return *objects_; }
  IntervalScheduler* scheduler() { return scheduler_.get(); }
  /// Rebuild subsystem, or nullptr when parity/spares are off.
  RebuildManager* rebuild() { return rebuild_.get(); }
  const RebuildManager* rebuild() const { return rebuild_.get(); }
  /// Scrubbing subsystem, or nullptr when `scrub` is off.
  Scrubber* scrubber() { return scrubber_.get(); }
  const Scrubber* scrubber() const { return scrubber_.get(); }
  /// Shared idle-bandwidth arbiter, or nullptr when neither rebuild nor
  /// scrub is configured.
  BackgroundBudget* background_budget() { return budget_.get(); }
  const BackgroundBudget* background_budget() const { return budget_.get(); }
  /// Effective per-disk bandwidth implied by fragment size and interval.
  Bandwidth EffectiveDiskBandwidth() const;

 private:
  /// One requested display: its object, pinned while the scheduler
  /// serves it, and the requester's continuations.
  struct Display {
    ObjectId object;
    StartedFn on_started;
    CompletedFn on_completed;
    InterruptedFn on_interrupted;
  };

  StripedServer(Simulator* sim, const Catalog* catalog, DiskArray* disks,
                MaterializationService* tertiary, StripedConfig config);

  Status Preload();
  /// Admits one physical display: resident objects go straight to the
  /// scheduler, absent ones queue behind a materialization.  With
  /// batching on this is the batcher's downstream hook and runs once
  /// per physical stream; otherwise RequestDisplay calls it directly.
  void AdmitDisplay(Display display);
  /// Picks the start disk for a newly landing object.
  int32_t NextStartDisk();
  StaggeredLayout MakeLayout(ObjectId object);
  /// The layout a materializing object will land with (planned at
  /// enqueue so the write stream matches the final placement).
  const StaggeredLayout& PlannedLayout(ObjectId object);
  void SubmitDisplay(Display display);
  // DisplayListener: the scheduler's events for the displays in
  // displays_; other ids (write streams) are ignored.
  void OnStarted(RequestId id, SimTime latency) override;
  void OnCompleted(RequestId id) override;
  void OnInterrupted(RequestId id) override;
  void EndDisplay(RequestId id, bool completed);
  /// Submits the Section 3.2.4 disk-side write stream.
  void SubmitWriteStream(ObjectId object);
  void OnMaterialized(ObjectId object);
  void Land(ObjectId object);
  /// Lands any deferred objects whose space is now reclaimable.
  void RetryLandings();

  /// Every fragment resident objects store on `slot`, parity included —
  /// the rebuild work list for a failed slot.
  std::vector<LostFragment> LostFragmentsOn(DiskId slot) const;
  /// Layout of every resident object — the scrubber's work source,
  /// re-queried at each pass boundary.
  std::vector<ScrubTarget> ScrubTargets() const;

  Simulator* sim_;
  const Catalog* catalog_;
  DiskArray* disks_;
  MaterializationService* tertiary_;
  StripedConfig config_;
  std::unique_ptr<ObjectManager> objects_;
  std::unique_ptr<IntervalScheduler> scheduler_;
  std::unique_ptr<RebuildManager> rebuild_;
  std::unique_ptr<Scrubber> scrubber_;
  /// Shared idle-bandwidth arbiter; rebuild and scrub both draw from it
  /// (priority rebuild > scrub).  Must outlive neither consumer, so it
  /// is declared after them (destroyed first).
  std::unique_ptr<BackgroundBudget> budget_;
  std::unique_ptr<StreamBatcher> batcher_;
  std::unordered_map<ObjectId, std::vector<Display>> waiters_;
  /// Displays in the scheduler, by the request id Submit returned.
  std::unordered_map<RequestId, Display> displays_;
  std::vector<char> materializing_;
  std::unordered_map<ObjectId, StaggeredLayout> planned_layouts_;
  std::deque<ObjectId> pending_landings_;
  int64_t placement_counter_ = 0;
  StripedMetrics metrics_;

  friend class StripedServerTestPeer;
};

}  // namespace stagger

#endif  // STAGGER_SERVER_STRIPED_SERVER_H_
