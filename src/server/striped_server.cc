#include "server/striped_server.h"

#include <algorithm>
#include <string>
#include <utility>

#include "core/invariants.h"
#include "util/check.h"

namespace stagger {

Status StripedConfig::Validate() const {
  if (stride < 1) return Status::InvalidArgument("stride must be >= 1");
  if (interval <= SimTime::Zero()) {
    return Status::InvalidArgument("interval must be positive");
  }
  if (fragment_size.bytes() <= 0) {
    return Status::InvalidArgument("fragment size must be positive");
  }
  if (fragment_cylinders < 1) {
    return Status::InvalidArgument("fragment must span >= 1 cylinder");
  }
  if (preload_objects < 0) {
    return Status::InvalidArgument("preload count must be >= 0");
  }
  if (policy == AdmissionPolicy::kFragmented && fragmented_lookahead <= 0) {
    // Lookahead zero degenerates kFragmented to contiguous admission
    // while still paying Algorithm 1's bookkeeping; reject the
    // misconfiguration instead of silently running it.
    return Status::InvalidArgument(
        "fragmented admission requires a positive lookahead");
  }
  if (coalesce && policy != AdmissionPolicy::kFragmented) {
    return Status::InvalidArgument(
        "coalescing (Algorithm 2) requires the fragmented policy");
  }
  if (rebuild_intervals_per_fragment < 1) {
    return Status::InvalidArgument(
        "rebuild rate cap must be >= 1 interval per fragment");
  }
  if (scrub_intervals_per_stripe < 1) {
    return Status::InvalidArgument(
        "scrub rate must be >= 1 interval per stripe");
  }
  if (rebuild_reads_per_interval < 0 || scrub_reads_per_interval < 0) {
    return Status::InvalidArgument(
        "background read caps must be >= 0 (0 = uncapped)");
  }
  if (scrub_starvation_floor_intervals < 0) {
    return Status::InvalidArgument(
        "scrub starvation floor must be >= 0 (0 = disabled)");
  }
  if (degraded_policy == DegradedPolicy::kReconstruct && !parity) {
    return Status::InvalidArgument(
        "kReconstruct requires parity layouts to reconstruct from");
  }
  if (!batch && (batch_window != SimTime::Zero() || max_batch_fanout != 0)) {
    return Status::InvalidArgument(
        "batch window / fanout knobs require batching to be enabled");
  }
  if (batch && batch_window < SimTime::Zero()) {
    return Status::InvalidArgument("batch window must be >= 0");
  }
  if (batch && max_batch_fanout < 0) {
    return Status::InvalidArgument("max batch fanout must be >= 0");
  }
  return Status::OK();
}

Result<std::unique_ptr<StripedServer>> StripedServer::Create(
    Simulator* sim, const Catalog* catalog, DiskArray* disks,
    MaterializationService* tertiary, const StripedConfig& config) {
  STAGGER_RETURN_NOT_OK(config.Validate());
  if (config.stride > disks->num_disks()) {
    return Status::InvalidArgument("stride exceeds the number of disks");
  }
  auto server = std::unique_ptr<StripedServer>(
      new StripedServer(sim, catalog, disks, tertiary, config));

  SchedulerConfig sched;
  sched.stride = config.stride;
  sched.interval = config.interval;
  sched.policy = config.policy;
  sched.coalesce = config.coalesce;
  sched.fragmented_lookahead = config.fragmented_lookahead;
  sched.degraded_policy = config.degraded_policy;
  sched.max_pause_intervals = config.max_pause_intervals;
  sched.read_observer = config.read_observer;
  STAGGER_ASSIGN_OR_RETURN(
      server->scheduler_,
      IntervalScheduler::Create(sim, disks, sched, server.get()));
  const bool want_rebuild = config.parity && disks->num_spares() > 0;
  if (want_rebuild || config.scrub) {
    // Both idle-bandwidth consumers draw from one shared budget; the
    // arbiter serves rebuild (priority 0) before scrub (priority 1)
    // and is the scheduler's single idle hook.
    server->budget_ = std::make_unique<BackgroundBudget>(disks);
    if (want_rebuild) {
      RebuildConfig rc;
      rc.rebuild_intervals_per_fragment = config.rebuild_intervals_per_fragment;
      STAGGER_ASSIGN_OR_RETURN(server->rebuild_,
                               RebuildManager::Create(disks, rc));
      BackgroundConsumerConfig bcc;
      bcc.priority = 0;
      bcc.max_reads_per_interval = config.rebuild_reads_per_interval;
      server->budget_->Register(server->rebuild_.get(), bcc);
    }
    if (config.scrub) {
      ScrubConfig sc;
      sc.intervals_per_stripe = config.scrub_intervals_per_stripe;
      StripedServer* s = server.get();
      STAGGER_ASSIGN_OR_RETURN(
          server->scrubber_,
          Scrubber::Create(disks, sc, [s] { return s->ScrubTargets(); }));
      BackgroundConsumerConfig bcc;
      bcc.priority = 1;
      bcc.max_reads_per_interval = config.scrub_reads_per_interval;
      bcc.starvation_floor_intervals = config.scrub_starvation_floor_intervals;
      server->budget_->Register(server->scrubber_.get(), bcc);
    }
    BackgroundBudget* budget = server->budget_.get();
    server->scheduler_->SetIdleBandwidthHook(
        [budget](int64_t interval) { budget->OnIdleInterval(interval); });
  }
  if (config.batch) {
    BatcherConfig bc;
    bc.window = config.batch_window;
    bc.max_fanout = config.max_batch_fanout;
    StripedServer* s = server.get();
    server->batcher_ = std::make_unique<StreamBatcher>(
        sim, bc,
        [s](ObjectId object, StartedFn on_started, CompletedFn on_completed,
            InterruptedFn on_interrupted) {
          s->AdmitDisplay(Display{object, std::move(on_started),
                                  std::move(on_completed),
                                  std::move(on_interrupted)});
        });
  }
  STAGGER_RETURN_NOT_OK(server->Preload());
  return server;
}

StripedServer::StripedServer(Simulator* sim, const Catalog* catalog,
                             DiskArray* disks, MaterializationService* tertiary,
                             StripedConfig config)
    : sim_(sim), catalog_(catalog), disks_(disks), tertiary_(tertiary),
      config_(config),
      objects_(std::make_unique<ObjectManager>(catalog, disks,
                                               config.fragment_cylinders)),
      materializing_(static_cast<size_t>(catalog->size()), 0) {}

Bandwidth StripedServer::EffectiveDiskBandwidth() const {
  return Bandwidth::BitsPerSec(config_.fragment_size.bits() /
                               config_.interval.seconds());
}

Status StripedServer::Preload() {
  const int32_t count =
      std::min(config_.preload_objects, catalog_->size());
  for (ObjectId id = 0; id < count; ++id) {
    // Never evict here: every access count is still 0, so LFU would
    // pick the lowest id, the most popular title.
    Status st = objects_->TryMakeResident(id, MakeLayout(id));
    if (st.IsResourceExhausted()) break;  // disk farm is full
    STAGGER_RETURN_NOT_OK(st);
  }
#ifdef STAGGER_AUDIT
  STAGGER_RETURN_NOT_OK(AuditInvariants());
#endif
  return Status::OK();
}

Status StripedServer::AuditInvariants() const {
  STAGGER_RETURN_NOT_OK(InvariantAuditor::AuditCatalog(
      *catalog_, EffectiveDiskBandwidth(), disks_->num_disks()));
  for (ObjectId id = 0; id < catalog_->size(); ++id) {
    if (!objects_->IsResident(id)) continue;
    STAGGER_RETURN_NOT_OK(InvariantAuditor::AuditLayout(
        objects_->LayoutOf(id), catalog_->Get(id).num_subobjects));
  }
  if (rebuild_) STAGGER_RETURN_NOT_OK(rebuild_->AuditState());
  if (scrubber_) STAGGER_RETURN_NOT_OK(scrubber_->AuditState());
  if (budget_) STAGGER_RETURN_NOT_OK(budget_->AuditState());
  return InvariantAuditor::AuditScheduler(*scheduler_);
}

std::vector<LostFragment> StripedServer::LostFragmentsOn(DiskId slot) const {
  std::vector<LostFragment> lost;
  for (ObjectId id = 0; id < catalog_->size(); ++id) {
    if (!objects_->IsResident(id)) continue;
    const StaggeredLayout& layout = objects_->LayoutOf(id);
    const int64_t n = catalog_->Get(id).num_subobjects;
    // `slot` holds at most one fragment of each row.
    for (int64_t i = 0; i < n; ++i) {
      const Stripe stripe = layout.StripeOf(i);
      const int32_t j = stripe.FragmentOn(slot);
      if (j >= 0) lost.push_back(LostFragment{id, i, j, stripe});
    }
  }
  return lost;
}

std::vector<ScrubTarget> StripedServer::ScrubTargets() const {
  std::vector<ScrubTarget> targets;
  for (ObjectId id = 0; id < catalog_->size(); ++id) {
    if (!objects_->IsResident(id)) continue;
    targets.push_back(ScrubTarget{id, catalog_->Get(id).num_subobjects,
                                  objects_->LayoutOf(id)});
  }
  return targets;
}

void StripedServer::OnDiskDown(DiskId disk, SimTime /*now*/) {
  if (!rebuild_) return;
  // A stall on a rebuild *source* disk pauses the affected jobs at
  // their current stripe cursor (they resume in OnDiskUp); this must
  // run before the health filter below, which only admits failures.
  rebuild_->OnSourceDown(disk, disks_->disk(disk).health());
  // Stalls recover by themselves; only a permanent failure is worth a
  // spare.  A slot already rebuilding keeps its job.
  if (disks_->disk(disk).health() != DiskHealth::kFailed) return;
  if (rebuild_->rebuilding(disk)) return;
  // With every spare held, StartRebuild would refuse (ResourceExhausted)
  // before touching any state; skip the lost-fragment walk it would
  // throw away.  A correlated-domain failure downs many disks at once,
  // and only the first few can get a spare.
  if (disks_->FreeSpareCount() == 0) return;
  Status st = rebuild_->StartRebuild(disk, LostFragmentsOn(disk));
  // An exhausted spare pool, or a fragment of a parity-less fallback
  // layout (M + 1 > D) that nothing can rebuild (InvalidArgument, no
  // spare claimed), leaves the slot to the degraded-read path.
  STAGGER_CHECK(st.ok() || st.IsResourceExhausted() || st.IsInvalidArgument())
      << st.ToString();
}

void StripedServer::OnDiskUp(DiskId disk, SimTime /*now*/) {
  if (!rebuild_) return;
  rebuild_->OnSourceUp(disk);
  // The original drive came back before the rebuild finished: abandon
  // the job and return the spare.  After a promotion the slot is no
  // longer rebuilding, so a late plan `recover` event lands here as a
  // no-op.
  if (rebuild_->rebuilding(disk)) {
    STAGGER_CHECK_OK(rebuild_->CancelRebuild(disk));
  }
}

int32_t StripedServer::NextStartDisk() {
  // Deterministic rotation over multiples of the stride, which makes
  // the k = M configuration behave exactly like physically clustered
  // simple striping; the multiplier spreads consecutive objects far
  // apart so concurrent displays rarely start on the same disks.
  const int64_t step = config_.stride;
  const int64_t slots = disks_->num_disks() / step;
  const int64_t slot = (placement_counter_++ * 7919) % slots;
  return static_cast<int32_t>(slot * step);
}

StaggeredLayout StripedServer::MakeLayout(ObjectId object) {
  const MediaObject& obj = catalog_->Get(object);
  const int32_t degree = obj.DegreeOfDeclustering(EffectiveDiskBandwidth());
  // Parity needs a disk disjoint from the stripe; a full-width object
  // (M = D) falls back to a parity-less layout.
  const bool parity = config_.parity && degree + 1 <= disks_->num_disks();
  auto layout = StaggeredLayout::Create(disks_->num_disks(),
                                        NextStartDisk(),
                                        config_.stride, degree, parity);
  STAGGER_CHECK(layout.ok()) << layout.status().ToString();
  return *std::move(layout);
}

Status StripedServer::RequestDisplay(ObjectId object, StartedFn on_started,
                                     CompletedFn on_completed,
                                     InterruptedFn on_interrupted) {
  if (!catalog_->Contains(object)) {
    return Status::NotFound("object " + std::to_string(object) +
                            " not in catalog");
  }
  ++metrics_.requests;
  objects_->RecordAccess(object);

  if (batcher_) {
    // The batcher merges same-object requests inside the admission
    // window and calls AdmitDisplay once per physical stream.
    batcher_->Request(object, std::move(on_started), std::move(on_completed),
                      std::move(on_interrupted));
    return Status::OK();
  }
  AdmitDisplay(Display{object, std::move(on_started), std::move(on_completed),
                       std::move(on_interrupted)});
  return Status::OK();
}

void StripedServer::AdmitDisplay(Display display) {
  const ObjectId object = display.object;
  if (objects_->IsResident(object)) {
    ++metrics_.resident_hits;
    SubmitDisplay(std::move(display));
    return;
  }

  waiters_[object].push_back(std::move(display));
  if (!materializing_[static_cast<size_t>(object)]) {
    materializing_[static_cast<size_t>(object)] = 1;
    ++metrics_.materializations_started;
    const MediaObject& obj = catalog_->Get(object);
    const DataSize size =
        config_.fragment_size *
        obj.NumFragments(EffectiveDiskBandwidth());
    TertiaryManager::ServiceStartFn on_start;
    if (config_.charge_materialization_writes) {
      on_start = [this](ObjectId started, SimTime) {
        SubmitWriteStream(started);
      };
    }
    tertiary_->Enqueue(object, size,
                       [this](ObjectId done) { OnMaterialized(done); },
                       std::move(on_start));
  }
}

const StaggeredLayout& StripedServer::PlannedLayout(ObjectId object) {
  auto it = planned_layouts_.find(object);
  if (it == planned_layouts_.end()) {
    it = planned_layouts_.emplace(object, MakeLayout(object)).first;
  }
  return it->second;
}

void StripedServer::SubmitWriteStream(ObjectId object) {
  // One stream of floor(B_Tertiary / B_Disk) disks walks the object's
  // planned layout for the whole transfer, charging the exact aggregate
  // write load (n * M fragment-writes).
  const MediaObject& obj = catalog_->Get(object);
  const StaggeredLayout& layout = PlannedLayout(object);
  const int32_t width = std::max<int32_t>(
      1, std::min<int32_t>(
             disks_->num_disks(),
             static_cast<int32_t>(config_.tertiary_bandwidth.bits_per_sec() /
                                  EffectiveDiskBandwidth().bits_per_sec())));
  DisplayRequest pass;
  pass.object = object;
  pass.degree = width;
  pass.start_disk = layout.start_disk();
  pass.num_subobjects =
      CeilDiv(obj.NumFragments(EffectiveDiskBandwidth()), width);
  auto id = scheduler_->Submit(std::move(pass));
  STAGGER_CHECK(id.ok()) << id.status();
}

void StripedServer::SubmitDisplay(Display display) {
  const StaggeredLayout& layout = objects_->LayoutOf(display.object);
  const MediaObject& obj = catalog_->Get(display.object);
  objects_->Pin(display.object);

  Result<RequestId> id = scheduler_->Submit(
      {.object = display.object,
       .start_disk = layout.start_disk(),
       .degree = layout.degree(),
       .num_subobjects = obj.num_subobjects,
       .parity = layout.has_parity()});
  STAGGER_CHECK(id.ok()) << id.status().ToString();
  displays_.emplace(*id, std::move(display));
}

void StripedServer::OnStarted(RequestId id, SimTime latency) {
  auto it = displays_.find(id);
  if (it != displays_.end() && it->second.on_started) {
    it->second.on_started(latency);
  }
}

void StripedServer::OnCompleted(RequestId id) {
  EndDisplay(id, /*completed=*/true);
}

void StripedServer::OnInterrupted(RequestId id) {
  // An abandoned display must release its pin too, or the object could
  // never be evicted and deferred landings would wedge.
  EndDisplay(id, /*completed=*/false);
}

void StripedServer::EndDisplay(RequestId id, bool completed) {
  auto node = displays_.extract(id);
  if (node.empty()) return;
  Display& display = node.mapped();
  objects_->Unpin(display.object);
  const auto& done =
      completed ? display.on_completed : display.on_interrupted;
  if (done) done();
  RetryLandings();
}

void StripedServer::OnMaterialized(ObjectId object) {
  Status st = objects_->MakeResident(object, PlannedLayout(object));
  if (st.IsResourceExhausted()) {
    // Every resident object is pinned; land when a display finishes.
    ++metrics_.landings_deferred;
    pending_landings_.push_back(object);
    return;
  }
  STAGGER_CHECK(st.ok()) << st.ToString();
  Land(object);
}

void StripedServer::Land(ObjectId object) {
#ifdef STAGGER_AUDIT
  // Every landing re-verifies the placement the object came to rest
  // with: contiguity, stride progression, and gcd skew bounds.
  STAGGER_CHECK_OK(InvariantAuditor::AuditLayout(
      objects_->LayoutOf(object), catalog_->Get(object).num_subobjects));
#endif
  materializing_[static_cast<size_t>(object)] = 0;
  planned_layouts_.erase(object);
  // The resident set changed (this landing, plus any evictions it
  // forced): the scrubber's target list is stale.
  if (scrubber_) scrubber_->Invalidate();
  auto node = waiters_.extract(object);
  if (node.empty()) return;
  for (Display& d : node.mapped()) SubmitDisplay(std::move(d));
}

void StripedServer::RetryLandings() {
  while (!pending_landings_.empty()) {
    const ObjectId object = pending_landings_.front();
    Status st = objects_->MakeResident(object, PlannedLayout(object));
    if (!st.ok()) return;  // still no space; keep waiting
    pending_landings_.pop_front();
    Land(object);
  }
}

}  // namespace stagger
