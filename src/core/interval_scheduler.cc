#include "core/interval_scheduler.h"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <string>
#include <utility>

#include "core/invariants.h"
#include "util/check.h"
#include "util/hot_path.h"

namespace stagger {

namespace {

// A paused stream's first re-admission attempt comes this many
// intervals after the pause; each failed attempt doubles the wait, up
// to the cap.
constexpr int64_t kRetryBackoffIntervals = 1;
constexpr int64_t kMaxRetryBackoffIntervals = 64;

using IdSlots = std::vector<std::pair<StreamId, int32_t>>;

IdSlots::iterator LowerBound(IdSlots* v, StreamId id) {
  return std::lower_bound(
      v->begin(), v->end(), id,
      [](const std::pair<StreamId, int32_t>& e, StreamId x) {
        return e.first < x;
      });
}

// Inserts (id, slot) keeping `v` sorted by id.  Ids are usually
// monotonic (fresh requests), so push_back is the fast path; a resumed
// paused stream re-enters with its original smaller id.
void InsertSorted(IdSlots* v, StreamId id, int32_t slot) {
  if (v->empty() || v->back().first < id) {
    v->emplace_back(id, slot);
    return;
  }
  auto it = LowerBound(v, id);
  STAGGER_DCHECK(it == v->end() || it->first != id);
  v->insert(it, {id, slot});
}

// Erases `id` from `v` when it is listed.
void EraseSorted(IdSlots* v, StreamId id) {
  auto it = LowerBound(v, id);
  if (it != v->end() && it->first == id) v->erase(it);
}

}  // namespace

Result<std::unique_ptr<IntervalScheduler>> IntervalScheduler::Create(
    Simulator* sim, DiskArray* disks, const SchedulerConfig& config,
    DisplayListener* listener) {
  if (config.interval <= SimTime::Zero()) {
    return Status::InvalidArgument("scheduler interval must be positive");
  }
  if (config.fragmented_lookahead < 0) {
    return Status::InvalidArgument("fragmented lookahead must be >= 0");
  }
  STAGGER_ASSIGN_OR_RETURN(VirtualDiskFrame frame,
                           VirtualDiskFrame::Create(disks->num_disks(),
                                                    config.stride));
  auto scheduler = std::unique_ptr<IntervalScheduler>(
      new IntervalScheduler(sim, disks, config, frame, listener));
  return scheduler;
}

IntervalScheduler::IntervalScheduler(Simulator* sim, DiskArray* disks,
                                     SchedulerConfig config,
                                     VirtualDiskFrame frame,
                                     DisplayListener* listener)
    : sim_(sim), disks_(disks), config_(config), listener_(listener),
      frame_(frame),
      epoch_(sim->Now()),
      vdisk_slot_(static_cast<size_t>(disks->num_disks()), kNoSlot),
      vdisk_occupied_(frame),
      failed_admissions_(kFailedAdmissionSlots) {
  scratch_taken_.Resize(disks->num_disks());
  claimed_.Resize(disks->num_disks());
  reading_.Resize(disks->num_disks());
  ticker_ = std::make_unique<PeriodicTicker>(
      sim_, epoch_, config_.interval, [this](int64_t tick) { Tick(tick); },
      [this](int64_t n) { SkipQuietIntervals(n); });
  // Without the listener a health change could not wake the ticker, so
  // a scheduler sharing its array with another never sleeps.
  holds_health_listener_ = disks_->SetHealthListener([this] { Wake(); });
}

IntervalScheduler::~IntervalScheduler() {
  if (holds_health_listener_) disks_->SetHealthListener(nullptr);
}

Result<RequestId> IntervalScheduler::Submit(DisplayRequest request) {
  if (request.degree < 1 || request.degree > frame_.num_disks()) {
    return Status::InvalidArgument("display degree must be in [1, D]");
  }
  if (request.num_subobjects < 1) {
    return Status::InvalidArgument("display must cover at least one subobject");
  }
  if (request.start_disk < 0 || request.start_disk >= frame_.num_disks()) {
    return Status::InvalidArgument("start disk out of range");
  }
  if (request.parity && request.degree + 1 > frame_.num_disks()) {
    return Status::InvalidArgument("parity needs degree + 1 <= D");
  }
  const RequestId id = next_request_id_++;
  queue_.push_back(Pending{id, std::move(request), sim_->Now()});
  ++metrics_.displays_requested;
  Wake();
  return id;
}

Status IntervalScheduler::Cancel(RequestId id) {
  // A live handle is its stream's id and sits in exactly one of the
  // active set, the queue, or the streams parked by the degraded policy.
  const auto has_id = [id](const Pending& entry) { return entry.id == id; };
  if (SlotOf(id) >= 0) {
    FinishStream(id, /*completed=*/false);
  } else if (auto q = std::find_if(queue_.begin(), queue_.end(), has_id);
             q != queue_.end()) {
    queue_.erase(q);
  } else if (auto p = std::find_if(paused_.begin(), paused_.end(), has_id);
             p != paused_.end()) {
    paused_.erase(p);
  } else {
    return Status::NotFound("unknown request " + std::to_string(id));
  }
  ++metrics_.displays_cancelled;
  Wake();
  return Status::OK();
}

Result<RequestId> IntervalScheduler::Seek(RequestId id, int64_t target_row,
                                          int64_t new_num_subobjects) {
  Stream* s = FindStream(id);
  if (s == nullptr) {
    return Status::FailedPrecondition("Seek requires an active stream");
  }
  if (target_row < 0 || new_num_subobjects < 1) {
    return Status::InvalidArgument("seek target out of range");
  }
  // The remainder re-enters the queue as the same display, the way
  // RetryPaused re-admits a paused stream, and reads from the target
  // row on, on the disks the object's layout puts it.
  queue_.push_back(Remainder(*s, next_request_id_++,
                             RowStripe(*s, target_row - s->first_row).first,
                             target_row, new_num_subobjects));
  FinishStream(id, /*completed=*/false);
  Wake();
  return queue_.back().id;
}

IntervalScheduler::Pending IntervalScheduler::Remainder(
    const Stream& s, RequestId id, int32_t start_disk, int64_t first_row,
    int64_t num_subobjects) const {
  // It was requested and admitted once, and its startup sample fired if
  // it had started.
  const bool started =
      s.DeliveredBy(interval_index_) > 0 || s.resumed_mid_display;
  return Pending{id, {s.object, start_disk, s.degree, num_subobjects, s.parity},
                 s.arrival_time, first_row, /*resumed=*/true, started};
}

int32_t IntervalScheduler::idle_virtual_disks() const {
  return frame_.num_disks() - vdisk_occupied_.CountSet();
}

int32_t IntervalScheduler::SlotOf(StreamId id) const {
  auto it = std::lower_bound(
      active_.begin(), active_.end(), id,
      [](const std::pair<StreamId, int32_t>& e, StreamId v) {
        return e.first < v;
      });
  if (it == active_.end() || it->first != id) return -1;
  return it->second;
}

Stream* IntervalScheduler::FindStream(StreamId id) {
  const int32_t slot = SlotOf(id);
  return slot < 0 ? nullptr : &slots_[static_cast<size_t>(slot)];
}

int32_t IntervalScheduler::AllocSlot() {
  if (!free_slots_.empty()) {
    const int32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  slots_.emplace_back();
  coalesce_misses_.push_back(-1);
  return static_cast<int32_t>(slots_.size()) - 1;
}

STAGGER_HOT_PATH void IntervalScheduler::Tick(int64_t tick_index) {
  interval_index_ = tick_index;
  RetryPaused();
  TryAdmissions();
  AdvanceStreams();
  UpdateIntervalStats();
#ifdef STAGGER_AUDIT
  // Self-check every simulated interval: occupancy, delivery clock,
  // buffer accounting, and non-underflow (see core/invariants.h).
  STAGGER_CHECK_OK(InvariantAuditor::AuditScheduler(*this));
#endif
  // Whatever slack remains after display reads is genuinely idle
  // bandwidth: the rebuild hook may consume it before the interval
  // closes.  It runs after the audit so display-path invariants are
  // checked against display reads alone.
  if (idle_hook_) idle_hook_(interval_index_);
  // Interval close-out runs after the audit so the degraded-state rules
  // can inspect this interval's busy flags (a failed disk carries zero
  // load).
  disks_->EndInterval();
  if (Quiet()) {
    ticker_->SleepUntil(calendar_.empty() ? PeriodicTicker::kNever
                                          : calendar_.front().tick);
  }
}

bool IntervalScheduler::Quiet() const {
  // Nothing to admit or resume, no stream the tick visits, and nothing
  // between ticks that a health check or a hook would see: the coming
  // ticks reserve exactly reading_ until a calendar event falls due.
  return holds_health_listener_ && queue_.empty() && paused_.empty() &&
         unsteady_.empty() && buffered_fragments_ == 0 && !idle_hook_ &&
         !config_.read_observer && disks_->Healthy();
}

void IntervalScheduler::SkipQuietIntervals(int64_t n) {
  // Each skipped tick would have reserved reading_ rotated onto the
  // array and closed the interval.  The queue-length and buffer signals
  // stay at zero, whose time-weighted sums a Set would not move.
  interval_index_ += n;
  disks_->SkipIntervals(n, reading_.CountSet());
#ifdef STAGGER_AUDIT
  STAGGER_CHECK_OK(InvariantAuditor::AuditScheduler(*this));
#endif
}

void IntervalScheduler::Wake() {
  if (ticker_->sleeping()) ticker_->Wake();
}

STAGGER_HOT_PATH void IntervalScheduler::TryAdmissions() {
  // Scan FIFO; requests behind a blocked head may be admitted (the
  // paper's Figure 3: "idle time intervals would be used to service the
  // new request").
  //
  // Within a tick a plan depends on the request only through its (start
  // disk, degree, parity), and on scheduler state only a successful
  // admission changes: disk health changes between ticks, and the
  // fragmented plan's scratch is clear after every attempt.  So a key
  // that failed fails again until the next admission, which starts a
  // new pass; queued requests sharing a failed key are skipped.
  ++admission_pass_;
  for (Pending& p : queue_) {
    const DisplayRequest& req = p.req;
    const int32_t shape = req.degree * 2 + (req.parity ? 1 : 0);
    const uint32_t hash =
        static_cast<uint32_t>(req.start_disk) * 0x9E3779B1u ^
        static_cast<uint32_t>(shape) * 0x85EBCA77u;
    static_assert(kFailedAdmissionSlots == 256);
    FailedAdmission& failed = failed_admissions_[hash >> 24];
    if (failed.pass == admission_pass_ &&
        failed.start_disk == req.start_disk && failed.shape == shape) {
#ifdef STAGGER_AUDIT
      STAGGER_CHECK(!PlanAdmission(req).has_value())
          << "request " << p.id << " skipped as a failed key would start";
#endif
    } else if (TryAdmit(p)) {
      ++admission_pass_;
      p.admitted = true;
    } else {
      failed = FailedAdmission{admission_pass_, req.start_disk, shape};
    }
  }
  std::erase_if(queue_, [](const Pending& p) { return p.admitted; });
}

STAGGER_HOT_PATH bool IntervalScheduler::TryAdmit(const Pending& p) {
  std::optional<AdmitPlan> plan = PlanAdmission(p.req);
  if (!plan.has_value()) return false;
  AdmitStream(p, std::move(*plan));
  return true;
}

STAGGER_HOT_PATH std::optional<IntervalScheduler::AdmitPlan>
IntervalScheduler::PlanAdmission(const DisplayRequest& req) {
  std::optional<AdmitPlan> plan = PlanContiguous(req);
  if (!plan.has_value() && config_.policy == AdmissionPolicy::kFragmented) {
    plan = PlanFragmented(req);
  }
  return plan;
}

STAGGER_HOT_PATH std::optional<IntervalScheduler::AdmitPlan>
IntervalScheduler::PlanContiguous(const DisplayRequest& req) const {
  // The request starts only when the virtual disks *currently over* its
  // first fragments are all idle (alignment delay zero): one modular
  // window test over the occupancy bitmap.
  const int32_t v0 = frame_.VirtualOf(req.start_disk, interval_index_);
  const int32_t m = req.degree;
  if (!vdisk_occupied_.WindowClear(v0, m)) return std::nullopt;
  if (config_.degraded_policy != DegradedPolicy::kNone &&
      disks_->UnavailableCount() > 0) {
    // The stream reads its first stripe immediately — refuse to start a
    // display whose first reads land on unavailable disks (it would
    // pause on its very first interval).  Under kReconstruct a single
    // lost fragment is tolerable when the stripe's parity disk can
    // stand in for it.
    const Stripe stripe =
        Stripe::At(frame_.num_disks(), req.start_disk, m, req.parity);
    int32_t down = 0;
    for (int32_t j = 0; j < m; ++j) {
      if (!disks_->IsAvailable(stripe.Slot(j))) ++down;
    }
    if (down > 0) {
      const bool reconstructable =
          config_.degraded_policy == DegradedPolicy::kReconstruct &&
          req.parity && down == 1 && disks_->IsAvailable(stripe.parity);
      if (!reconstructable) return std::nullopt;
    }
  }
  // One lane: the M fragments read together from M adjacent disks.
  std::optional<AdmitPlan> plan(std::in_place);
  plan->lanes.Assign(1);
  plan->lanes[0].vdisk = v0;
  plan->lanes[0].width = m;
  return plan;
}

STAGGER_HOT_PATH std::optional<IntervalScheduler::AdmitPlan>
IntervalScheduler::PlanFragmented(const DisplayRequest& req) {
  const int32_t m = req.degree;
  const bool check_health = config_.degraded_policy != DegradedPolicy::kNone &&
                            disks_->UnavailableCount() > 0;
  const Stripe stripe =
      Stripe::At(frame_.num_disks(), req.start_disk, m, req.parity);
  std::optional<AdmitPlan> plan(std::in_place);
  LaneArray& lanes = plan->lanes;
  lanes.Assign(m);
  int64_t delta_max = 0;

  // scratch_taken_ carries the virtual disks tentatively picked for
  // earlier lanes of this attempt, in orbit order (the search's view);
  // set bits are recorded so teardown is O(m), not O(D).
  STAGGER_DCHECK(scratch_taken_bits_.empty());
  bool ok = true;
  for (int32_t j = 0; j < m; ++j) {
    const int32_t target = stripe.Slot(j);
    // A lane with alignment delay zero reads `target` this interval;
    // skip such candidates while the disk is down (later-aligned lanes
    // are still fine — health at their read time is unknowable).
    const bool target_down = check_health && !disks_->IsAvailable(target);
    const auto found = frame_.FindEarliestFreeVdisk(
        vdisk_occupied_, scratch_taken_, interval_index_, target,
        config_.fragmented_lookahead, target_down);
    if (!found.has_value()) {
      ok = false;
      break;
    }
    const int32_t taken_pos = frame_.OrbitPos(found->first);
    scratch_taken_.Set(taken_pos);
    // stagger-lint: allow(hot-path-alloc) -- scratch_taken_bits_ keeps its capacity across admissions (clear(), never shrink), so this amortizes to zero allocations in steady state
    scratch_taken_bits_.push_back(taken_pos);
    lanes[static_cast<size_t>(j)].vdisk = found->first;
    lanes[static_cast<size_t>(j)].next_read_tau = found->second;
    delta_max = std::max(delta_max, found->second);
  }
  for (int32_t pos : scratch_taken_bits_) scratch_taken_.Clear(pos);
  scratch_taken_bits_.clear();
  if (!ok) return std::nullopt;

  // A lane aligned before delta_max reads ahead into buffer, which
  // makes the stream fragmented (Algorithm 1).
  plan->delta_max = delta_max;
  for (int32_t j = 0; j < m; ++j) {
    plan->fragmented |= lanes[static_cast<size_t>(j)].next_read_tau < delta_max;
  }
  return plan;
}

void IntervalScheduler::AdmitStream(const Pending& p, AdmitPlan&& plan) {
  const bool fragmented = plan.fragmented;
  const int64_t delta_max = plan.delta_max;
  const int32_t slot = AllocSlot();
  Stream& s = slots_[static_cast<size_t>(slot)];
  s.id = p.id;
  s.object = p.req.object;
  s.degree = p.req.degree;
  s.num_subobjects = p.req.num_subobjects;
  s.first_row = p.first_row;
  s.start_disk = p.req.start_disk;
  s.admit_interval = interval_index_;
  s.delta_max = delta_max;
  s.arrival_time = p.arrival;
  s.lanes = std::move(plan.lanes);
  s.delivered = 0;
  s.fragmented = fragmented;
  s.steady = !fragmented;
  s.admission = next_admission_++;
  s.parity = p.req.parity;
  s.resumed_mid_display = p.started;
  coalesce_misses_[static_cast<size_t>(slot)] = -1;

  for (const FragmentLane& lane : s.lanes) {
    for (int32_t f = 0, v = lane.vdisk; f < lane.width;
         ++f, v = v + 1 == frame_.num_disks() ? 0 : v + 1) {
      STAGGER_DCHECK(vdisk_slot_[static_cast<size_t>(v)] == kNoSlot);
      vdisk_slot_[static_cast<size_t>(v)] = slot;
      vdisk_occupied_.Set(v);
    }
  }
  // A resumed stream continues a display counted at first admission.
  if (!p.resumed) ++metrics_.displays_admitted;
  if (fragmented) ++metrics_.fragmented_admissions;
  InsertSorted(&active_, s.id, slot);
  if (!s.steady) {
    InsertSorted(&unsteady_, s.id, slot);
    return;
  }
  // A steady stream is visited only on its events: its first read and
  // delivery, and its last read.  Reads that start now join this tick's
  // rotated reservation directly.
  const int64_t first = interval_index_ + delta_max;
  const int64_t last = first + s.num_subobjects - 1;
  PushEvent(s, slot, first);
  if (last != first) PushEvent(s, slot, last);
  if (delta_max == 0) MarkReading(s);
}

void IntervalScheduler::PushEvent(const Stream& s, int32_t slot, int64_t tick) {
  calendar_.push_back(CalendarEvent{tick, s.id, s.admission, slot});
  std::push_heap(calendar_.begin(), calendar_.end(), CalendarEvent::Later);
  // Entries of a cancelled, sought or paused admission linger until
  // their tick.  Once they could outnumber the live ones (at most two
  // per steady stream), drop them, so the calendar stays proportional
  // to the active streams rather than to the interruptions of the run.
  const size_t steady = active_.size() - unsteady_.size();
  if (calendar_.size() <= 2 * steady + 64) return;
  std::erase_if(calendar_, [this](const CalendarEvent& e) {
    const Stream& holder = slots_[static_cast<size_t>(e.slot)];
    return holder.id != e.id || holder.admission != e.admission;
  });
  std::make_heap(calendar_.begin(), calendar_.end(), CalendarEvent::Later);
}

STAGGER_HOT_PATH void IntervalScheduler::MarkReading(const Stream& s) {
  const int32_t d = frame_.num_disks();
  for (const FragmentLane& lane : s.lanes) {
    if (lane.released()) continue;
    for (int32_t f = 0, v = lane.vdisk; f < lane.width;
         ++f, v = v + 1 == d ? 0 : v + 1) {
      reading_.Set(v);
    }
  }
}

IntervalScheduler::FaultySlots IntervalScheduler::Faults() const {
  // Latent sector errors trip the same degraded ladder as down disks: a
  // read whose checksum fails is as unusable as a read off a failed
  // disk.  The O(1) active() test keeps the no-corruption common case
  // free.
  FaultySlots faulty;
  if (config_.degraded_policy != DegradedPolicy::kNone &&
      disks_->UnavailableCount() > 0) {
    faulty.unavailable = &disks_->unavailable_slots();
  }
  if (disks_->latent_errors().active()) {
    faulty.latent = &disks_->latent_errors();
  }
  return faulty;
}

STAGGER_HOT_PATH void IntervalScheduler::AdvanceStreams() {
  const int32_t d = frame_.num_disks();
  // Physical disk under virtual disk v this interval is v + rot (mod D);
  // hoisting the rotation turns the per-lane mapping into an add and a
  // conditional subtract.
  const int32_t rot = frame_.RotationAt(interval_index_);
  const FaultySlots faulty = Faults();
  const bool faulty_tick = faulty.any();
  // Hoisted out of the lane loop: testing a std::function loads its
  // target pointer every time.
  const bool observe = static_cast<bool>(config_.read_observer);
  PopCalendarEvents();

  if (!faulty_tick) {
    // Every steady lane reads every interval from its first read to its
    // release, so all of them are reserved at once: reading_ rotated
    // onto the physical disks.
    disks_->ReserveRotated(reading_, rot);
  } else {
    ReserveSteadyReads(rot, faulty, observe);
    // Physical disks some active lane is due to read this interval.  A
    // degraded remap may only borrow a disk no stream is about to use,
    // or a later stream's read would find its disk already reserved.
    // (A coalescing migration either keeps the same read target this
    // interval or postpones the read, so the precomputed set stays
    // sound.)  The due steady lanes are the rotated reading_, already in
    // claimed_; the rest are the non-steady streams' lanes whose read
    // time has come.  Disk health only changes between ticks (fault
    // events), so on a healthy array the set is never consulted and not
    // built.
    if (config_.degraded_policy != DegradedPolicy::kNone) {
      for (const auto& [id, slot] : unsteady_) {
        const Stream& s = slots_[static_cast<size_t>(slot)];
        const int64_t tau = s.Tau(interval_index_);
        for (const FragmentLane& lane : s.lanes) {
          if (lane.released() || lane.reads_done >= s.num_subobjects) continue;
          if (tau < lane.next_read_tau) continue;
          int32_t first = lane.vdisk + rot;
          if (first >= d) first -= d;
          claimed_.SetWindow(first, lane.width);
        }
      }
    }
  }
  CollectDueStreams(observe);

  STAGGER_DCHECK(scratch_finished_.empty() && scratch_to_pause_.empty());
  // The buffered-fragments counter is a member the compiler cannot keep
  // in a register across calls.  The local delta is committed right
  // after the loop, before the pause / finish fix-ups below read the
  // member.
  int64_t buffered_delta = 0;
  // scratch_due_ is sorted by id, giving the deterministic ascending-id
  // processing order directly.  No admissions run inside this loop, so
  // slots_ is stable and index-based iteration is safe.
  for (const DueStream& due : scratch_due_) {
    const StreamId id = due.id;
    Stream& s = slots_[static_cast<size_t>(due.slot)];
    STAGGER_DCHECK(s.id == id);
    // The masked pass already reserved a steady stream's reads on
    // healthy slots.
    const bool covered = s.steady;
    if (s.steady) {
      // Bring the closed-form cursors into the stored fields the body
      // below advances: the state after the previous interval.
      const int64_t progress = s.SteadyProgress(interval_index_ - 1);
      s.delivered = progress;
      for (FragmentLane& l : s.lanes) {
        l.reads_done = progress;
        l.next_read_tau = s.delta_max + progress;
      }
    }
    const int64_t tau = s.Tau(interval_index_);

    if (config_.coalesce && s.fragmented) TryCoalesce(&s, due.slot);

    // Reads: each lane reads its run of fragments when its disks are
    // aligned.  min_reads tracks the least-advanced unreleased lane so
    // the delivery step below can skip its per-lane hiccup scan on the
    // (overwhelmingly common) on-schedule path.  Released lanes are
    // excluded: they finished all their reads, so they never hiccup.
    bool pausing = false;
    int64_t min_reads = std::numeric_limits<int64_t>::max();
    FragmentLane* lane = s.lanes.data();
    FragmentLane* const lanes_end = lane + s.lanes.size();
    // Fragment index of the lane's first disk within the stripe.
    int32_t fragment = 0;
    for (; lane != lanes_end; fragment += lane->width, ++lane) {
      if (lane->released()) continue;
      if (lane->reads_done >= s.num_subobjects || tau < lane->next_read_tau) {
        min_reads = std::min(min_reads, lane->reads_done);
        continue;
      }
      const int32_t width = lane->width;
      int32_t first = lane->vdisk + rot;
      if (first >= d) first -= d;
#ifdef STAGGER_AUDIT
      STAGGER_CHECK(first == RowStripe(s, lane->reads_done).Slot(fragment))
          << "lane misalignment: stream " << s.id << " fragment " << fragment;
#endif
      // A run clear of faulty slots reads exactly as on a healthy array:
      // one masked range-reserve, unless the masked pass made it already.
      // A run touching one sends each faulty slot's fragment through the
      // degraded ladder on its own, in fragment order.
      const bool clean = !faulty_tick || faulty.WindowClear(first, width);
      if (!covered && clean) disks_->ReserveRun(first, width);
      if (!clean || observe) {
        const int32_t f =
            ReadLaneByFragment(s, *lane, fragment, first, clean, faulty);
        if (f < width) {
          // The stream cannot read its due fragment: park it before the
          // output clock would record a hiccup.  Reads already issued
          // this interval are wasted bandwidth, which is the honest cost
          // of the mid-stripe failure; the masked pass's reservations of
          // the reads after it go back.  Fragments read on the stream's
          // last row are done with their disks, which go back now.
          if (covered) {
            GiveBackReads(s, lane->reads_done, fragment + f, rot, faulty);
          }
          if (f > 0 && lane->reads_done + 1 >= s.num_subobjects) {
            ReleaseLane(s, lane, f);
          }
          // A steady stream that misses a read leaves the closed form:
          // its stored cursors, current since this visit, now stand.
          s.steady = false;
          pausing = true;
          break;
        }
      }
      ++lane->reads_done;
      buffered_delta += width;
      lane->next_read_tau = tau + 1;
      min_reads = std::min(min_reads, lane->reads_done);
      if (lane->reads_done >= s.num_subobjects) ReleaseLane(s, lane, width);
    }
    if (pausing) {
      // stagger-lint: allow(hot-path-alloc) -- scratch_to_pause_ keeps its capacity across ticks (clear(), never shrink), so this amortizes to zero allocations in steady state
      scratch_to_pause_.push_back(id);
      continue;
    }

    // Output: subobject `delivered` is transmitted at tau == delta_max +
    // delivered, synchronized across lanes (Algorithm 1).
    if (tau >= s.delta_max && s.delivered < s.num_subobjects) {
      const int64_t due = s.delivered;
      if (min_reads <= due) {
        // Some lane fell behind the output clock: charge one hiccup per
        // late fragment, exactly as the full scan would.
        for (const FragmentLane& l : s.lanes) {
          if (l.reads_done <= due) metrics_.hiccups += l.width;
        }
      }
      ++s.delivered;
      buffered_delta -= s.degree;
      if (s.delivered == 1 && !s.resumed_mid_display) {
        const SimTime latency = IntervalStart(interval_index_) - s.arrival_time;
        metrics_.startup_latency_sec.Add(latency.seconds());
        if (listener_) listener_->OnStarted(id, latency);
      }
      // stagger-lint: allow(hot-path-alloc) -- scratch_finished_ keeps its capacity across ticks (clear(), never shrink), so this amortizes to zero allocations in steady state
      if (s.delivered == s.num_subobjects) scratch_finished_.push_back(id);
    }

    // A stream Algorithm 2 has fully drained reads and delivers in
    // lockstep on every lane: from here on it is steady.
    if (!s.steady && !s.fragmented && tau >= s.delta_max &&
        s.delivered < s.num_subobjects &&
        std::all_of(s.lanes.begin(), s.lanes.end(),
                    [&](const FragmentLane& l) {
                      return !l.released() && l.reads_done == s.delivered &&
                             l.next_read_tau == tau + 1;
                    })) {
      MakeSteady(&s, due.slot);
    }
  }
  buffered_fragments_ += buffered_delta;

  for (StreamId id : scratch_to_pause_) PauseStream(id);
  scratch_to_pause_.clear();
  for (StreamId id : scratch_finished_) {
    if (SlotOf(id) < 0) continue;
    FinishStream(id, /*completed=*/true);
  }
  scratch_finished_.clear();
}

STAGGER_HOT_PATH int32_t IntervalScheduler::ReadLaneByFragment(
    const Stream& s, const FragmentLane& lane, int32_t fragment,
    int32_t first, bool clean, const FaultySlots& faulty) {
  const int32_t d = frame_.num_disks();
  const bool covered = s.steady;
  int32_t f = 0;
  for (int32_t disk = first; f < lane.width;
       ++f, disk = disk + 1 == d ? 0 : disk + 1) {
    // A clean run is reserved already (by ReserveRun, or by
    // ReserveSteadyReads); so is a steady read the ladder need not serve.
    int32_t read_disk = disk;
    if (!clean && !covered && !faulty.Test(disk)) {
      disks_->ReserveSlot(disk);
    } else if (!clean &&
               (!covered ||
                faulty.NeedsLadder(disk, s.first_row + lane.reads_done))) {
      read_disk = DegradedRead(s, lane.reads_done, disk);
      if (read_disk < 0) break;
    }
    if (config_.read_observer) {
      config_.read_observer(interval_index_, s.object,
                            s.first_row + lane.reads_done, fragment + f,
                            read_disk);
    }
  }
  return f;
}

STAGGER_HOT_PATH void IntervalScheduler::PopCalendarEvents() {
  // This tick's calendar events pop in ascending id.  An entry whose
  // slot now holds another admission is stale: the stream was
  // cancelled, sought or paused (a resumed stream keeps its id).
  scratch_events_.clear();
  while (!calendar_.empty() && calendar_.front().tick <= interval_index_) {
    const CalendarEvent ev = calendar_.front();
    std::pop_heap(calendar_.begin(), calendar_.end(), CalendarEvent::Later);
    calendar_.pop_back();
    STAGGER_DCHECK(ev.tick == interval_index_);
    const Stream& s = slots_[static_cast<size_t>(ev.slot)];
    if (s.id != ev.id || s.admission != ev.admission) continue;
    // Reads that start after admission join the rotated reservation now.
    if (s.delta_max > 0 && s.Tau(interval_index_) == s.delta_max) {
      MarkReading(s);
    }
    // stagger-lint: allow(hot-path-alloc) -- scratch_events_ keeps its capacity across ticks (clear(), never shrink), so this amortizes to zero allocations in steady state
    scratch_events_.push_back(DueStream{ev.id, ev.slot});
  }
}

STAGGER_HOT_PATH void IntervalScheduler::CollectDueStreams(bool observe) {
  scratch_due_.clear();
  // Merge the calendar's events with the streams due every tick: the
  // non-steady ones, or all of them while an observer wants every read.
  const IdSlots& every = observe ? active_ : unsteady_;
  size_t e = 0;
  for (const auto& [id, slot] : every) {
    while (e < scratch_events_.size() && scratch_events_[e].id < id) {
      // stagger-lint: allow(hot-path-alloc) -- scratch_due_ keeps its capacity across ticks (clear(), never shrink), so this amortizes to zero allocations in steady state
      scratch_due_.push_back(scratch_events_[e++]);
    }
    if (e < scratch_events_.size() && scratch_events_[e].id == id) ++e;
    // stagger-lint: allow(hot-path-alloc) -- scratch_due_ keeps its capacity across ticks (clear(), never shrink), so this amortizes to zero allocations in steady state
    scratch_due_.push_back(DueStream{id, slot});
  }
  // stagger-lint: allow(hot-path-alloc) -- scratch_due_ keeps its capacity across ticks (clear(), never shrink), so this amortizes to zero allocations in steady state
  scratch_due_.insert(scratch_due_.end(), scratch_events_.begin() + e,
                      scratch_events_.end());
}

STAGGER_HOT_PATH void IntervalScheduler::ReserveSteadyReads(
    int32_t rot, const FaultySlots& faulty, bool observe) {
  const int32_t d = frame_.num_disks();
  const size_t events = scratch_events_.size();
  claimed_.ClearAll();
  claimed_.OrRotated(reading_, rot);
  disks_->ReserveUnlessFaulty(
      claimed_, [&](int32_t w) { return faulty.Word(w); },
      [&](int32_t disk) {
        const int32_t v = disk >= rot ? disk - rot : disk - rot + d;
        const int32_t slot = vdisk_slot_[static_cast<size_t>(v)];
        const Stream& s = slots_[static_cast<size_t>(slot)];
        // A clean cell on a corrupt drive reads as on a healthy array.
        // Every due read is in claimed_, so reserving it ahead of the
        // ladder's picks changes none of them.
        if (!faulty.NeedsLadder(
                disk, s.first_row + s.SteadyProgress(interval_index_ - 1))) {
          disks_->ReserveSlot(disk);
          return;
        }
        // Under an observer every stream is visited anyway.
        if (observe) return;
        // stagger-lint: allow(hot-path-alloc) -- scratch_events_ keeps its capacity across ticks (clear(), never shrink), so this amortizes to zero allocations in steady state
        scratch_events_.push_back(DueStream{s.id, slot});
      });
  if (scratch_events_.size() == events) return;
  // The streams come in slot order, a stream once per read; the visits
  // take them in ascending id, each once, as every stream's ladder reads
  // would be reached by a walk of all of them.
  std::sort(scratch_events_.begin(), scratch_events_.end(),
            [](const DueStream& a, const DueStream& b) { return a.id < b.id; });
  scratch_events_.erase(
      std::unique(scratch_events_.begin(), scratch_events_.end(),
                  [](const DueStream& a, const DueStream& b) {
                    return a.id == b.id;
                  }),
      scratch_events_.end());
}

void IntervalScheduler::GiveBackReads(const Stream& s, int64_t row,
                                      int32_t failed, int32_t rot,
                                      const FaultySlots& faulty) {
  const int32_t d = frame_.num_disks();
  int32_t fragment = 0;
  for (const FragmentLane& lane : s.lanes) {
    if (!lane.released() && fragment + lane.width > failed + 1) {
      int32_t disk = lane.vdisk + rot;
      if (disk >= d) disk -= d;
      for (int32_t f = 0; f < lane.width;
           ++f, disk = disk + 1 == d ? 0 : disk + 1) {
        if (fragment + f > failed &&
            !faulty.NeedsLadder(disk, s.first_row + row)) {
          disks_->UnreserveSlot(disk);
        }
      }
    }
    fragment += lane.width;
  }
}

STAGGER_HOT_PATH int32_t IntervalScheduler::DegradedRead(const Stream& s,
                                                         int64_t row,
                                                         int32_t physical) {
  const bool degraded = config_.degraded_policy != DegradedPolicy::kNone;
  const LatentErrorMap& latent = disks_->latent_errors();
  // Cells are keyed by the layout row, which a resumed stream reaches at
  // a smaller row of its own.
  const int64_t cell = s.first_row + row;
  const bool down = degraded && !disks_->IsAvailable(physical);
  const bool corrupt =
      !down && latent.active() && latent.IsCorrupt(physical, cell);
  if (!down && !(corrupt && degraded)) {
    // DegradedPolicy::kNone verifies nothing: the corrupt fragment ships
    // to the viewer.  Counted so fault-aware configurations can pin this
    // to zero.
    if (corrupt) ++metrics_.corrupt_frames_delivered;
    disks_->ReserveSlot(physical);
    return physical;
  }
  if (corrupt) {
    // The checksum rejects the transfer before it completes, so the
    // corrupt read is not charged against the disk's slack; the fragment
    // is served through the ladder below instead.
    disks_->latent_errors().MarkDetected(physical, cell);
    ++metrics_.corrupt_reads_detected;
  }
  const Stripe stripe = RowStripe(s, row);
  int32_t read_disk = -1;
  if (config_.degraded_policy == DegradedPolicy::kReconstruct && s.parity) {
    // Read the stripe's parity fragment in place of the lost one: the
    // M-1 surviving fragments plus parity reconstruct it in buffer.  The
    // extra read is charged against the parity disk's slack this
    // interval.
    const int32_t parity_disk = stripe.parity;
    if (disks_->IsAvailable(parity_disk) && !disks_->SlotBusy(parity_disk) &&
        !claimed_.Test(parity_disk) &&
        !(latent.active() && latent.IsCorrupt(parity_disk, cell))) {
      read_disk = parity_disk;
      ++metrics_.reconstructed_reads;
    }
  }
  if (read_disk < 0 && config_.degraded_policy != DegradedPolicy::kPause) {
    // kRemapOrPause, or kReconstruct falling down its ladder when parity
    // offers no slack (or the stream carries none).  The substitute
    // models a replica read off another disk's copy, so the original
    // cell's corruption does not follow it.
    read_disk = FindDegradedSubstitute(stripe);
    if (read_disk >= 0) ++metrics_.degraded_reads;
  }
  if (read_disk < 0) return -1;
  claimed_.Set(read_disk);
  disks_->ReserveSlot(read_disk);
  return read_disk;
}

STAGGER_HOT_PATH int32_t IntervalScheduler::FindDegradedSubstitute(
    const Stripe& stripe) const {
  // Surviving disks of the subobject's own stripe first — they hold the
  // sibling fragments a stripe-level replica reconstructs from — then
  // the lowest-numbered disk with slack this interval, found by one
  // word scan of unavailable | busy | claimed.
  for (int32_t j = 0; j < stripe.degree; ++j) {
    const int32_t cand = stripe.Slot(j);
    if (disks_->IsAvailable(cand) && !disks_->SlotBusy(cand) &&
        !claimed_.Test(cand)) {
      return cand;
    }
  }
  return disks_->FirstIdleAvailableSlot(claimed_);
}

Stripe IntervalScheduler::RowStripe(const Stream& s, int64_t row) const {
  const auto first = static_cast<int32_t>(PositiveMod(
      static_cast<int64_t>(s.start_disk) + row * config_.stride,
      frame_.num_disks()));
  return Stripe::At(frame_.num_disks(), first, s.degree, s.parity);
}

void IntervalScheduler::PauseStream(StreamId id) {
  Stream* sp = FindStream(id);
  STAGGER_CHECK(sp != nullptr) << "unknown stream " << id;
  Stream& s = *sp;
  const int64_t delivered = s.DeliveredBy(interval_index_);
  STAGGER_DCHECK(delivered < s.num_subobjects);

  // Resume from the first undelivered subobject; buffered read-ahead is
  // dropped (those fragments will be re-read after recovery).
  PausedStream p{Remainder(s, s.id, RowStripe(s, delivered).first,
                           s.first_row + delivered,
                           s.num_subobjects - delivered),
                 sim_->Now(), interval_index_,
                 interval_index_ + kRetryBackoffIntervals,
                 kRetryBackoffIntervals};

  ++metrics_.streams_paused;
  FinishStream(id, /*completed=*/false);
  paused_.push_back(std::move(p));
}

void IntervalScheduler::RetryPaused() {
  for (auto it = paused_.begin(); it != paused_.end();) {
    PausedStream& p = *it;
    if (interval_index_ < p.retry_at_interval) {
      ++it;
      continue;
    }
    if (config_.max_pause_intervals > 0 &&
        interval_index_ - p.paused_at_interval > config_.max_pause_intervals) {
      // Give up: the viewer's display is interrupted for good.  The
      // owner is told so it can release per-display state (pins) and a
      // closed-loop station is not left waiting forever.
      ++metrics_.displays_interrupted;
      ++metrics_.displays_cancelled;
      const RequestId id = p.id;
      it = paused_.erase(it);
      if (listener_) listener_->OnInterrupted(id);
      continue;
    }
    // A failed attempt grows the backoff, so max_pause_intervals can give
    // up a remainder that only a repair would let through.
    if (!FirstRowUnreadable(p) && TryAdmit(p)) {
      ++metrics_.streams_resumed;
      metrics_.resume_latency_sec.Add((sim_->Now() - p.paused_at).seconds());
      it = paused_.erase(it);
    } else {
      p.backoff = std::min(p.backoff * 2, kMaxRetryBackoffIntervals);
      p.retry_at_interval = interval_index_ + p.backoff;
      ++it;
    }
  }
}

bool IntervalScheduler::FirstRowUnreadable(const Pending& p) const {
  const LatentErrorMap& latent = disks_->latent_errors();
  if (config_.degraded_policy != DegradedPolicy::kPause || !latent.active()) {
    return false;
  }
  const Stripe stripe = Stripe::At(frame_.num_disks(), p.req.start_disk,
                                   p.req.degree, p.req.parity);
  for (int32_t j = 0; j < p.req.degree; ++j) {
    if (latent.IsCorrupt(stripe.Slot(j), p.first_row)) return true;
  }
  return false;
}

STAGGER_HOT_PATH void IntervalScheduler::TryCoalesce(Stream* s,
                                                     int32_t slot) {
  // One migration per stream per interval (Algorithm 2 admits a new
  // coalesce request only after the previous one completes).
  const int64_t tau = s->Tau(interval_index_);
  // While every unfinished lane reads each interval, each lane's lead is
  // fixed, so the same lane is picked, and its search asks the same
  // question: the target and its virtual disk both advance by k, and
  // the resume window and the delay to beat stay put.  A lane stops
  // reading only by finishing or migrating, both of which free a disk,
  // and taking a disk only removes candidates.  So a search that failed
  // with every lane reading fails again until a virtual disk is freed.
  int64_t& miss = coalesce_misses_[static_cast<size_t>(slot)];
  const bool known_to_fail = miss == vdisk_frees_;
#ifndef STAGGER_AUDIT
  if (known_to_fail) return;
#endif

  // Pick the lane with the largest lead (biggest buffer backlog).  A
  // fragmented stream's lanes are one fragment wide, so lane j carries
  // fragment j.
  int32_t pick = -1;
  int64_t pick_lead = 0;
  bool all_reading = true;
  for (int32_t j = 0; j < s->degree; ++j) {
    const FragmentLane& lane = s->lanes[static_cast<size_t>(j)];
    STAGGER_DCHECK(lane.width == 1);
    if (lane.released() || lane.reads_done >= s->num_subobjects) continue;
    // Not aligned yet, or mid-gap from a prior migration.
    if (lane.next_read_tau > tau) {
      all_reading = false;
      continue;
    }
    const int64_t effective_delta = lane.next_read_tau - lane.reads_done;
    const int64_t lead = s->delta_max - effective_delta;
    if (lead > pick_lead) {
      pick_lead = lead;
      pick = j;
    }
  }
  if (pick < 0) return;

  FragmentLane& lane = s->lanes[static_cast<size_t>(pick)];
  const int32_t target = RowStripe(*s, lane.reads_done).Slot(pick);
  const int64_t cur_effective = lane.next_read_tau - lane.reads_done;
  // Latest safe resume: outputs reach subobject reads_done exactly when
  // the new disk takes over (backlog fully drained, no hiccup).
  const int64_t max_resume = lane.reads_done + s->delta_max;

  // The free virtual disk with the largest safe resume: one masked scan
  // of the orbit-order occupancy in strictly decreasing resume order.
  const auto found = frame_.FindLatestFreeVdisk(vdisk_occupied_,
                                                interval_index_, target, tau,
                                                max_resume);
  // No free disk, or none that shrinks the buffer.
  if (!found.has_value() || found->second - lane.reads_done <= cur_effective) {
    if (all_reading) miss = vdisk_frees_;
    return;
  }
#ifdef STAGGER_AUDIT
  STAGGER_CHECK(!known_to_fail)
      << "stream " << s->id << " lane " << pick
      << ": a coalescing search skipped as failing finds virtual disk "
      << found->first;
#endif
  const int32_t best_v = found->first;
  const int64_t best_resume = found->second;

  // Migrate: release the old disk now; reads resume on the new one.
  ++vdisk_frees_;
  vdisk_slot_[static_cast<size_t>(lane.vdisk)] = kNoSlot;
  vdisk_occupied_.Clear(lane.vdisk);
  vdisk_slot_[static_cast<size_t>(best_v)] = slot;
  vdisk_occupied_.Set(best_v);
  lane.vdisk = best_v;
  lane.next_read_tau = best_resume;
  ++metrics_.coalesce_migrations;

  // The stream stays fragmented while any unfinished lane leads.
  s->fragmented = false;
  for (const FragmentLane& l : s->lanes) {
    if (l.reads_done < s->num_subobjects &&
        s->delta_max > l.next_read_tau - l.reads_done) {
      s->fragmented = true;
      break;
    }
  }
}

void IntervalScheduler::MakeSteady(Stream* s, int32_t slot) {
  // Its first read is past; the last read is its only event ahead.
  s->steady = true;
  EraseSorted(&unsteady_, s->id);
  MarkReading(*s);
  PushEvent(*s, slot, s->admit_interval + s->delta_max + s->num_subobjects - 1);
}

void IntervalScheduler::ReleaseLane(const Stream& s, FragmentLane* lane,
                                    int32_t count) {
  if (lane->released()) return;
  // Only a contiguous lane is wider than one fragment, and it buffers
  // nothing between intervals, so shrinking it keeps the buffer count.
  STAGGER_DCHECK(count > 0 && count <= lane->width &&
                 (count == lane->width || lane->reads_done == s.delivered));
  ++vdisk_frees_;
  const int32_t d = frame_.num_disks();
  int32_t v = lane->vdisk;
  for (int32_t f = 0; f < count; ++f, v = v + 1 == d ? 0 : v + 1) {
    STAGGER_DCHECK(vdisk_slot_[static_cast<size_t>(v)] != kNoSlot &&
                   slots_[static_cast<size_t>(
                       vdisk_slot_[static_cast<size_t>(v)])].id == s.id);
    vdisk_slot_[static_cast<size_t>(v)] = kNoSlot;
    vdisk_occupied_.Clear(v);
    reading_.Clear(v);
  }
  if (count == lane->width) {
    // Released lanes keep their width: it still sizes their buffered
    // read-ahead, and the advance loop and the audit count fragments
    // by it.
    lane->vdisk = FragmentLane::kReleased;
  } else {
    lane->vdisk = v;
    lane->width -= count;
  }
}

void IntervalScheduler::FinishStream(StreamId id, bool completed) {
  const int32_t slot = SlotOf(id);
  STAGGER_CHECK(slot >= 0) << "unknown stream " << id;
  Stream& s = slots_[static_cast<size_t>(slot)];
  buffered_fragments_ -= s.TotalBufferedFragments();
  for (FragmentLane& lane : s.lanes) ReleaseLane(s, &lane, lane.width);
  // Reset the slot for reuse.
  s.id = kNoStream;
  s.lanes.clear();
  EraseSorted(&active_, id);
  EraseSorted(&unsteady_, id);
  free_slots_.push_back(slot);
  if (completed) {
    ++metrics_.displays_completed;
    if (listener_) listener_->OnCompleted(id);
  }
}

void IntervalScheduler::UpdateIntervalStats() {
  const SimTime now = sim_->Now();
  metrics_.queue_length.Set(now, static_cast<double>(queue_.size()));
  metrics_.buffered_fragments.Set(now,
                                  static_cast<double>(buffered_fragments_));
  metrics_.peak_buffered_fragments =
      std::max(metrics_.peak_buffered_fragments, buffered_fragments_);
}

}  // namespace stagger
