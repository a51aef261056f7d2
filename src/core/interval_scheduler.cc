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

using IdSlots = std::vector<StreamSlot>;

// Position of the first entry of `v` above `id`.
size_t UpperBound(const IdSlots& v, StreamId id) {
  return static_cast<size_t>(
      std::ranges::upper_bound(v, id, {}, &StreamSlot::id) - v.begin());
}

// Inserts (id, slot) keeping `v` sorted by id.  Ids are usually
// monotonic (fresh requests), so push_back is the fast path; a resumed
// paused stream re-enters with its original smaller id.
void InsertSorted(IdSlots* v, StreamId id, int32_t slot) {
  if (v->empty() || v->back().id < id) {
    v->push_back({id, slot});
    return;
  }
  auto it = std::ranges::lower_bound(*v, id, {}, &StreamSlot::id);
  STAGGER_DCHECK(it == v->end() || it->id != id);
  v->insert(it, {id, slot});
}

// Erases `id` from `v` when it is listed.
void EraseSorted(IdSlots* v, StreamId id) {
  auto it = std::ranges::lower_bound(*v, id, {}, &StreamSlot::id);
  if (it != v->end() && it->id == id) v->erase(it);
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
      admission_(frame, vdisk_occupied_, *disks, config.policy,
                 config.fragmented_lookahead, config.degraded_policy,
                 config.max_pause_intervals) {
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
  admission_.Push({.id = id, .req = request, .arrival = sim_->Now()});
  ++metrics_.displays_requested;
  Wake();
  return id;
}

Status IntervalScheduler::Cancel(RequestId id) {
  // A live handle is its stream's id and sits in exactly one of the
  // active set and the admission queue.
  if (SlotOf(id) >= 0) {
    FinishStream(id, /*completed=*/false);
  } else if (!admission_.Erase(id)) {
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
  // The remainder re-enters the queue as the same display, the way a
  // paused stream's does.
  const RequestId moved = next_request_id_++;
  admission_.Push(Remainder(*s, moved, target_row, new_num_subobjects));
  FinishStream(id, /*completed=*/false);
  Wake();
  return moved;
}

AdmissionQueue::Entry IntervalScheduler::Remainder(
    const Stream& s, RequestId id, int64_t first_row,
    int64_t num_subobjects) const {
  // It was requested and admitted once, and its startup sample fired if
  // it had started.  Its first stripe lies where the stream's own stride
  // walk puts the row.
  const int32_t start_disk = RowStripe(s, first_row - s.first_row).first;
  const bool started =
      s.DeliveredBy(interval_index_) > 0 || s.resumed_mid_display;
  return {.id = id,
          .req = {s.object, start_disk, s.degree, num_subobjects, s.parity},
          .arrival = s.arrival_time, .first_row = first_row,
          .resumed = true, .started = started};
}

int32_t IntervalScheduler::idle_virtual_disks() const {
  return frame_.num_disks() - vdisk_occupied_.CountSet();
}

int32_t IntervalScheduler::SlotOf(StreamId id) const {
  auto it = std::ranges::lower_bound(active_, id, {}, &StreamSlot::id);
  return it == active_.end() || it->id != id ? -1 : it->slot;
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
  coalesce_misses_.emplace_back();
  return static_cast<int32_t>(slots_.size()) - 1;
}

STAGGER_HOT_PATH void IntervalScheduler::Tick(int64_t tick_index) {
  interval_index_ = tick_index;
  Admit();
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
  return holds_health_listener_ && admission_.empty() && unsteady_.empty() &&
         buffered_fragments_ == 0 && !idle_hook_ && disks_->Healthy();
}

void IntervalScheduler::SkipQuietIntervals(int64_t n) {
  // Each skipped tick would have reserved reading_ rotated onto the
  // array and closed the interval.  The queue-length and buffer signals
  // stay at zero, whose time-weighted sums a Set would not move.
  if (config_.read_listener != nullptr) {
    scratch_due_.clear();  // a skipped tick visits no stream
    ReportSteadyReads(interval_index_ + 1, n);
  }
  interval_index_ += n;
  disks_->SkipIntervals(n, reading_.CountSet());
#ifdef STAGGER_AUDIT
  STAGGER_CHECK_OK(InvariantAuditor::AuditScheduler(*this));
#endif
}

void IntervalScheduler::Wake() {
  if (ticker_->sleeping()) ticker_->Wake();
}

STAGGER_HOT_PATH void IntervalScheduler::Admit() {
  if (admission_.empty()) return;
  admission_.BeginPass(interval_index_);
  std::optional<AdmitPlan> plan;
  while (const AdmissionQueue::Entry* p = admission_.Next(&plan)) {
    if (!plan.has_value()) {
      // Given up.  The owner is told so it can release per-display state
      // (pins) and a closed-loop station is not left waiting forever.
      ++metrics_.displays_interrupted;
      ++metrics_.displays_cancelled;
      if (listener_) listener_->OnInterrupted(p->id);
    } else {
      if (p->paused()) {
        ++metrics_.streams_resumed;
        metrics_.resume_latency_sec.Add(
            (config_.interval * (interval_index_ - p->paused_at_interval))
                .seconds());
      }
      AdmitStream(*p, std::move(*plan));
    }
  }
}

void IntervalScheduler::AdmitStream(const AdmissionQueue::Entry& p,
                                    AdmitPlan&& plan) {
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
  s.epoch = next_epoch_++;
  s.parity = p.req.parity;
  s.resumed_mid_display = p.started;
  coalesce_misses_[static_cast<size_t>(slot)] = CoalesceMiss{};

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
  calendar_.push_back(CalendarEvent{tick, s.id, s.epoch, slot});
  std::push_heap(calendar_.begin(), calendar_.end(), CalendarEvent::Later);
  // Entries of a cancelled, sought or paused admission, and of a steady
  // period a migration or a finished lane ended, linger until their
  // tick.  Once they could outnumber the live ones (at most two per
  // steady stream: a first read still ahead, and the earliest lane's
  // last read), drop them, so the calendar stays proportional to the
  // active streams rather than to the interruptions of the run.
  const size_t steady = active_.size() - unsteady_.size();
  if (calendar_.size() <= 2 * steady + 64) return;
  std::erase_if(calendar_,
                [this](const CalendarEvent& e) { return !LiveEvent(e); });
  std::make_heap(calendar_.begin(), calendar_.end(), CalendarEvent::Later);
}

bool IntervalScheduler::LiveEvent(const CalendarEvent& e) const {
  const Stream& holder = slots_[static_cast<size_t>(e.slot)];
  return holder.id == e.id && holder.epoch == e.epoch && holder.steady;
}

STAGGER_HOT_PATH void IntervalScheduler::MarkReading(const Stream& s) {
  for (const FragmentLane& lane : s.lanes) {
    if (!lane.released()) reading_.SetWindow(lane.vdisk, lane.width);
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
  ReadListener* const listener = config_.read_listener;
  PopCalendarEvents();

  if (!faulty_tick) {
    // Every steady lane reads every interval from its first read to its
    // release, so all of them are reserved at once: reading_ rotated
    // onto the physical disks.
    disks_->ReserveRotated(reading_, rot);
  } else {
    ReserveSteadyReads(rot, faulty);
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
  CollectDueStreams();

  STAGGER_DCHECK(scratch_finished_.empty() && scratch_to_pause_.empty());
  // The buffered-fragments counter is a member the compiler cannot keep
  // in a register across calls.  The local delta is committed right
  // after the loop, before the pause / finish fix-ups below read the
  // member.
  int64_t buffered_delta = 0;
  // The walk takes scratch_due_ merged with coalescing_ (both sorted by
  // id), each stream once, in ascending id.  A stream of coalescing_
  // that is not due otherwise is visited only when the walk reaches it
  // with a virtual disk of its last coalescing miss's window freed since
  // that miss, by a lower-id stream earlier in this walk included: the
  // visits in which a walk of every stream would have its search find a
  // disk, and elsewhere that walk's visit changes nothing.  While no
  // virtual disk has been freed since a walk that left every miss
  // current, the walk passes over coalescing_ until its first free.  No
  // admissions run inside this loop, so slots_ is stable and index-based
  // iteration is safe; a visit changes coalescing_ only at its own
  // stream's entry.
  const int64_t walk_frees = vdisk_occupied_.frees();
  bool pass_over = walk_frees == coalescing_current_;
#ifdef STAGGER_AUDIT
  if (pass_over) {
    for (const auto& [cid, cslot] : coalescing_) {
      STAGGER_CHECK(MissCurrent(cslot))
          << "steady stream " << cid << " passed over with a stale miss";
      CheckSkippedSearch(&slots_[static_cast<size_t>(cslot)]);
    }
  }
#endif
  size_t next_due = 0;
  size_t next_coalescing = pass_over ? coalescing_.size() : 0;
  size_t coalescing_seen = coalescing_.size();
  StreamId last_id = kNoStream;
#ifdef STAGGER_AUDIT
  // The stream whose visit made the walk's last free, and the count then.
  StreamId last_freer = kNoStream;
  int64_t frees_seen = walk_frees;
#endif
  for (;;) {
#ifdef STAGGER_AUDIT
    if (vdisk_occupied_.frees() != frees_seen) {
      last_freer = last_id;
      frees_seen = vdisk_occupied_.frees();
    }
#endif
    if (coalescing_.size() != coalescing_seen ||
        (pass_over && vdisk_occupied_.frees() != walk_frees)) {
      // The stream visited last joined or left coalescing_, or freed the
      // first virtual disk of the walk.
      coalescing_seen = coalescing_.size();
      pass_over = pass_over && vdisk_occupied_.frees() == walk_frees;
      next_coalescing =
          pass_over ? coalescing_seen : UpperBound(coalescing_, last_id);
    }
    const bool more_due = next_due < scratch_due_.size();
    StreamSlot due;
    // Set when only the stream's stale coalescing miss makes it due.
    bool stale_miss = false;
    if (next_coalescing < coalescing_.size() &&
        (!more_due ||
         coalescing_[next_coalescing].id < scratch_due_[next_due].id)) {
      const auto [cid, cslot] = coalescing_[next_coalescing++];
      if (MissHolds(cslot)) {
#ifdef STAGGER_AUDIT
        CheckSkippedSearch(&slots_[static_cast<size_t>(cslot)]);
#endif
        continue;
      }
      due = StreamSlot{cid, cslot};
      stale_miss = true;
    } else if (more_due) {
      due = scratch_due_[next_due++];
      if (next_coalescing < coalescing_.size() &&
          coalescing_[next_coalescing].id == due.id) {
        ++next_coalescing;
      }
    } else {
      break;
    }
    const StreamId id = due.id;
    last_id = id;
    Stream& s = slots_[static_cast<size_t>(due.slot)];
    STAGGER_DCHECK(s.id == id);
    // The masked pass already reserved a steady stream's reads on
    // healthy slots.
    const bool covered = s.steady;
    // Bring the closed-form cursors into the stored fields the body
    // below advances: the state after the previous interval.
    if (covered) SyncSteadyCursors(&s);
    const int64_t tau = s.Tau(interval_index_);

    const bool migrated = config_.coalesce && s.fragmented &&
                          TryCoalesce(&s, due.slot, rot, faulty);
    // Unless a lane migrates, such a stream reads and delivers at its
    // offsets, all reserved, with no event due: nothing else changes.
    if (stale_miss && !migrated) continue;

    // Reads: each lane reads its run of fragments when its disks are
    // aligned.  min_reads tracks the least-advanced unreleased lane so
    // the delivery step below can skip its per-lane hiccup scan on the
    // (overwhelmingly common) on-schedule path.  Released lanes are
    // excluded: they finished all their reads, so they never hiccup.
    bool pausing = false;
    bool lane_finished = false;
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
      if (!faulty_tick || faulty.WindowClear(first, width)) {
        if (!covered) disks_->ReserveRun(first, width);
        if (listener != nullptr) {
          ReportReads(s, interval_index_, lane->reads_done, fragment, first,
                      width);
        }
      } else {
        const int32_t f = ReadLaneByFragment(s, *lane, fragment, first, faulty);
        if (f < width) {
          // The stream cannot read its due fragment: park it before the
          // output clock would record a hiccup.  Reads already issued
          // this interval are wasted bandwidth, which is the honest cost
          // of the mid-stripe failure; the masked pass's reservations of
          // the reads after it go back.  Fragments read on the stream's
          // last row are done with their disks, which go back now.
          if (covered) GiveBackReads(s, fragment + f, rot, faulty);
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
      if (lane->reads_done >= s.num_subobjects) {
        ReleaseLane(s, lane, width);
        lane_finished = true;
      }
    }
    if (pausing) {
      // stagger-lint: allow(hot-path-alloc) -- scratch_to_pause_ keeps its capacity across ticks (clear(), never shrink), so this amortizes to zero allocations in steady state
      scratch_to_pause_.push_back(id);
      continue;
    }

    // Output: subobject `delivered` is transmitted at tau == delta_max +
    // delivered, synchronized across lanes (Algorithm 1).
    if (tau >= s.delta_max && s.delivered < s.num_subobjects) {
      const int64_t due_row = s.delivered;
      if (min_reads <= due_row) {
        // Some lane fell behind the output clock: charge one hiccup per
        // late fragment, exactly as the full scan would.
        for (const FragmentLane& l : s.lanes) {
          if (l.reads_done <= due_row) metrics_.hiccups += l.width;
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

    if (s.steady) {
      // A lane that migrated is in its gap, and one that finished ahead
      // of the others reads no more: the closed form ends there.  A
      // stream that delivered its last row finishes below instead.
      if ((migrated || lane_finished) && s.delivered < s.num_subobjects) {
        LeaveSteady(&s, due.slot);
      }
    } else if (tau >= s.delta_max &&
               (!config_.coalesce || !s.fragmented || MissHolds(due.slot)) &&
               std::all_of(s.lanes.begin(), s.lanes.end(),
                           [&](const FragmentLane& l) {
                             return !l.released() &&
                                    l.next_read_tau == tau + 1;
                           })) {
      // Every lane read this interval and none has finished, output
      // runs, and no coalescing search can succeed before a virtual disk
      // of its window is freed: each lane reads at its offset from here
      // on.
      EnterSteady(&s, due.slot);
    }
  }
  buffered_fragments_ += buffered_delta;
  // The steady streams the walk did not visit read at their offsets.
  if (listener != nullptr) ReportSteadyReads(interval_index_, 1);
#ifdef STAGGER_AUDIT
  if (vdisk_occupied_.frees() != frees_seen) last_freer = last_id;
  // The walk visited every stream of coalescing_ above its last free
  // whose miss was stale, so each of them holds a current one.  (A
  // stream that pauses, no longer steady, leaves coalescing_ below; a
  // lane it finished before its failed read may have freed a disk.)
  for (const auto& [cid, cslot] : coalescing_) {
    STAGGER_CHECK(cid < last_freer ||
                  !slots_[static_cast<size_t>(cslot)].steady ||
                  MissCurrent(cslot))
        << "steady stream " << cid << " passed over with a stale miss after"
        << " the free of stream " << last_freer;
  }
#endif
  // With no free in the walk, it left every stream of coalescing_
  // current: visited with a stale miss (its search missing again, as no
  // lane could migrate), or passed over with a current one.
  if (vdisk_occupied_.frees() == walk_frees) coalescing_current_ = walk_frees;

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
    int32_t first, const FaultySlots& faulty) {
  const int32_t d = frame_.num_disks();
  int32_t f = 0;
  for (int32_t disk = first; f < lane.width;
       ++f, disk = disk + 1 == d ? 0 : disk + 1) {
    // ReserveSteadyReads reserved a steady read the ladder need not serve.
    int32_t read_disk = disk;
    if (faulty.NeedsLadder(disk, s.first_row + lane.reads_done)) {
      read_disk = DegradedRead(s, lane.reads_done, disk);
      if (read_disk < 0) break;
    } else if (!s.steady) {
      disks_->ReserveSlot(disk);
    }
    if (config_.read_listener != nullptr) {
      ReportReads(s, interval_index_, lane.reads_done, fragment + f,
                  read_disk, 1);
    }
  }
  return f;
}

void IntervalScheduler::ReportReads(const Stream& s, int64_t t, int64_t row,
                                    int32_t fragment, int32_t disk,
                                    int32_t count) const {
  const int32_t d = frame_.num_disks();
  for (int32_t f = 0; f < count; ++f, disk = disk + 1 == d ? 0 : disk + 1) {
    config_.read_listener->OnRead(t, s.object, s.first_row + row,
                                  fragment + f, disk);
  }
}

void IntervalScheduler::ReportSteadyReads(int64_t t, int64_t n) const {
  for (const int64_t end = t + n; t < end; ++t) {
    const int32_t rot = frame_.RotationAt(t);
    reading_.ForEachSet([&](int32_t v) {
      const Stream& s =
          slots_[static_cast<size_t>(vdisk_slot_[static_cast<size_t>(v)])];
      if (std::ranges::binary_search(scratch_due_, s.id, {}, &StreamSlot::id)) {
        return;
      }
      // Each lane reports its run at its first virtual disk.
      int32_t fragment = 0;
      for (const FragmentLane& lane : s.lanes) {
        if (lane.vdisk == v) {
          ReportReads(s, t, s.SteadyReads(lane, t - 1), fragment,
                      (v + rot) % frame_.num_disks(), lane.width);
        }
        fragment += lane.width;
      }
    });
  }
}

STAGGER_HOT_PATH void IntervalScheduler::PopCalendarEvents() {
  // This tick's calendar events pop in ascending id.  An entry whose
  // slot now holds another admission or steady period is stale: the
  // stream was cancelled, sought or paused (a resumed stream keeps its
  // id), or it left the steady path, and is visited every tick now or
  // steady again with events of its own.
  scratch_events_.clear();
  while (!calendar_.empty() && calendar_.front().tick <= interval_index_) {
    const CalendarEvent ev = calendar_.front();
    std::pop_heap(calendar_.begin(), calendar_.end(), CalendarEvent::Later);
    calendar_.pop_back();
    STAGGER_DCHECK(ev.tick == interval_index_);
    if (!LiveEvent(ev)) continue;
    const Stream& s = slots_[static_cast<size_t>(ev.slot)];
    // Reads that start after admission join the rotated reservation now.
    if (s.delta_max > 0 && s.Tau(interval_index_) == s.delta_max) {
      MarkReading(s);
    }
    // stagger-lint: allow(hot-path-alloc) -- scratch_events_ keeps its capacity across ticks (clear(), never shrink), so this amortizes to zero allocations in steady state
    scratch_events_.push_back(StreamSlot{ev.id, ev.slot});
  }
}

STAGGER_HOT_PATH void IntervalScheduler::CollectDueStreams() {
  scratch_due_.clear();
  // Merge the calendar's events with the streams due every tick, the
  // non-steady ones.
  size_t e = 0;
  for (const auto& [id, slot] : unsteady_) {
    while (e < scratch_events_.size() && scratch_events_[e].id < id) {
      // stagger-lint: allow(hot-path-alloc) -- scratch_due_ keeps its capacity across ticks (clear(), never shrink), so this amortizes to zero allocations in steady state
      scratch_due_.push_back(scratch_events_[e++]);
    }
    if (e < scratch_events_.size() && scratch_events_[e].id == id) ++e;
    // stagger-lint: allow(hot-path-alloc) -- scratch_due_ keeps its capacity across ticks (clear(), never shrink), so this amortizes to zero allocations in steady state
    scratch_due_.push_back(StreamSlot{id, slot});
  }
  // stagger-lint: allow(hot-path-alloc) -- scratch_due_ keeps its capacity across ticks (clear(), never shrink), so this amortizes to zero allocations in steady state
  scratch_due_.insert(scratch_due_.end(), scratch_events_.begin() + e,
                      scratch_events_.end());
}

STAGGER_HOT_PATH void IntervalScheduler::ReserveSteadyReads(
    int32_t rot, const FaultySlots& faulty) {
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
        // The row the lane over `v` reads now: every lane's, unless the
        // stream reads ahead on one-fragment lanes at their own offsets.
        int64_t row = s.SteadyProgress(interval_index_ - 1);
        if (s.fragmented) {
          for (const FragmentLane& lane : s.lanes) {
            if (lane.vdisk == v) row = s.SteadyReads(lane, interval_index_ - 1);
          }
        }
        // A clean cell on a corrupt drive reads as on a healthy array.
        // Every due read is in claimed_, so reserving it ahead of the
        // ladder's picks changes none of them.
        if (!faulty.NeedsLadder(disk, s.first_row + row)) {
          disks_->ReserveSlot(disk);
          return;
        }
        // stagger-lint: allow(hot-path-alloc) -- scratch_events_ keeps its capacity across ticks (clear(), never shrink), so this amortizes to zero allocations in steady state
        scratch_events_.push_back(StreamSlot{s.id, slot});
      });
  if (scratch_events_.size() == events) return;
  // The streams come in slot order, a stream once per read; the visits
  // take them in ascending id, each once, as every stream's ladder reads
  // would be reached by a walk of all of them.
  std::sort(scratch_events_.begin(), scratch_events_.end(),
            [](const StreamSlot& a, const StreamSlot& b) { return a.id < b.id; });
  scratch_events_.erase(
      std::unique(scratch_events_.begin(), scratch_events_.end(),
                  [](const StreamSlot& a, const StreamSlot& b) {
                    return a.id == b.id;
                  }),
      scratch_events_.end());
}

void IntervalScheduler::GiveBackReads(const Stream& s, int32_t failed,
                                      int32_t rot, const FaultySlots& faulty) {
  // The lanes from the failed fragment on have not read yet this visit:
  // each one's reads_done is the row it was due to read.
  int32_t fragment = 0;
  for (const FragmentLane& lane : s.lanes) {
    for (int32_t f = 0; f < lane.width; ++f, ++fragment) {
      if (lane.released() || fragment <= failed) continue;
      GiveBackRead((lane.vdisk + rot + f) % frame_.num_disks(),
                   s.first_row + lane.reads_done, faulty);
    }
  }
}

void IntervalScheduler::GiveBackRead(int32_t disk, int64_t cell,
                                     const FaultySlots& faulty) {
  if (!faulty.NeedsLadder(disk, cell)) disks_->UnreserveSlot(disk);
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
  AdmissionQueue::Entry p = Remainder(s, s.id, s.first_row + delivered,
                                      s.num_subobjects - delivered);
  // Pauses and retries both run inside a tick, whose time is its
  // interval's start, so the resume latency is exact in intervals.
  STAGGER_DCHECK(sim_->Now() == IntervalStart(interval_index_));
  ++metrics_.streams_paused;
  FinishStream(id, /*completed=*/false);
  admission_.PushPaused(p, interval_index_);
}

void IntervalScheduler::SyncSteadyCursors(Stream* s) {
  const int64_t t = interval_index_ - 1;
  s->delivered = s->SteadyProgress(t);
  for (FragmentLane& l : s->lanes) {
    const int64_t offset = l.offset();
    l.reads_done = s->SteadyReads(l, t);
    l.next_read_tau = offset + l.reads_done;
  }
}

STAGGER_HOT_PATH std::optional<IntervalScheduler::CoalesceMove>
IntervalScheduler::FindCoalesceMove(const Stream& s,
                                    CoalesceMiss* miss) const {
  const int64_t tau = s.Tau(interval_index_);
  // Pick the lane with the largest lead (biggest buffer backlog).  A
  // fragmented stream's lanes are one fragment wide, so lane j carries
  // fragment j.
  int32_t pick = -1;
  int64_t pick_lead = 0;
  bool all_reading = true;
  for (int32_t j = 0; j < s.degree; ++j) {
    const FragmentLane& lane = s.lanes[static_cast<size_t>(j)];
    STAGGER_DCHECK(lane.width == 1);
    if (lane.released() || lane.reads_done >= s.num_subobjects) continue;
    // Not aligned yet, or mid-gap from a prior migration.
    if (lane.next_read_tau > tau) {
      all_reading = false;
      continue;
    }
    const int64_t lead = s.delta_max - lane.offset();
    if (lead > pick_lead) {
      pick_lead = lead;
      pick = j;
    }
  }
  if (pick < 0) return std::nullopt;

  const FragmentLane& lane = s.lanes[static_cast<size_t>(pick)];
  const int32_t target = RowStripe(s, lane.reads_done).Slot(pick);
  // Latest safe resume: outputs reach subobject reads_done exactly when
  // the new disk takes over (backlog fully drained, no hiccup).
  const int64_t max_resume = lane.reads_done + s.delta_max;

  // The free virtual disk with the largest safe resume: one masked scan
  // of the orbit-order occupancy in strictly decreasing resume order.
  const auto found = frame_.FindLatestFreeVdisk(vdisk_occupied_,
                                                interval_index_, target, tau,
                                                max_resume);
  // No free disk, or none that shrinks the buffer.
  if (!found.has_value() ||
      found->second - lane.reads_done <= lane.offset()) {
    if (all_reading) {
      // The scan's c-th candidate, virtual disk VirtualOf(target, t +
      // max_resume - tau) + c*k, resumes at max_resume - c, which shrinks
      // the buffer only for c < pick_lead; the scan stops at c = P or
      // past max_resume - tau.  The window runs from the first of those
      // candidates to the last, and holds no other disk for k = 1.
      const int64_t slack = max_resume - tau;
      const int64_t width = std::min<int64_t>(
          {pick_lead, slack + 1, frame_.period()});
      const int32_t d = frame_.num_disks();
      *miss = CoalesceMiss{
          vdisk_occupied_.frees(),
          frame_.VirtualOf(target, interval_index_ + slack),
          static_cast<int32_t>(std::min<int64_t>(
              width <= 0 ? 0 : (width - 1) * config_.stride + 1, d))};
    }
    return std::nullopt;
  }
  return CoalesceMove{pick, found->first, found->second};
}

STAGGER_HOT_PATH bool IntervalScheduler::TryCoalesce(
    Stream* s, int32_t slot, int32_t rot, const FaultySlots& faulty) {
  // One migration per stream per interval (Algorithm 2 admits a new
  // coalesce request only after the previous one completes).
  //
  // While every unfinished lane reads each interval, each lane's lead is
  // fixed, so the same lane is picked, and its search asks the same
  // question: the target and its virtual disk both advance by k, and
  // the resume window and the delay to beat stay put.  A lane stops
  // reading only by finishing or migrating, both of which drop the
  // stream's record, and taking a disk only removes candidates.  So a
  // search that failed with every lane reading fails again until a
  // virtual disk of the window it scanned is freed.
  const bool known_to_fail = MissHolds(slot);
#ifndef STAGGER_AUDIT
  if (known_to_fail) return false;
#endif
  CoalesceMiss miss;
  const std::optional<CoalesceMove> move = FindCoalesceMove(*s, &miss);
  if (!move.has_value()) {
    if (!known_to_fail) coalesce_misses_[static_cast<size_t>(slot)] = miss;
    return false;
  }
#ifdef STAGGER_AUDIT
  STAGGER_CHECK(!known_to_fail)
      << "stream " << s->id << " lane " << move->lane
      << ": a coalescing search skipped as failing finds virtual disk "
      << move->vdisk;
#endif
  FragmentLane& lane = s->lanes[static_cast<size_t>(move->lane)];
  if (s->steady) {
    // The masked pass reserved this interval's read on the old disk,
    // which the lane, in its gap from now, does not issue.
    reading_.Clear(lane.vdisk);
    GiveBackRead((lane.vdisk + rot) % frame_.num_disks(),
                 s->first_row + lane.reads_done, faulty);
  }

  // Migrate: release the old disk now; reads resume on the new one.  (The
  // search ran, so the stream holds no recorded miss.)
  vdisk_slot_[static_cast<size_t>(lane.vdisk)] = kNoSlot;
  vdisk_occupied_.Clear(lane.vdisk);
  vdisk_slot_[static_cast<size_t>(move->vdisk)] = slot;
  vdisk_occupied_.Set(move->vdisk);
  lane.vdisk = move->vdisk;
  lane.next_read_tau = move->resume;
  ++metrics_.coalesce_migrations;

  // The stream stays fragmented while any unfinished lane leads.
  s->fragmented = false;
  for (const FragmentLane& l : s->lanes) {
    if (l.reads_done < s->num_subobjects && s->delta_max > l.offset()) {
      s->fragmented = true;
      break;
    }
  }
  return true;
}

bool IntervalScheduler::MissHolds(int32_t slot) {
  CoalesceMiss& miss = coalesce_misses_[static_cast<size_t>(slot)];
  miss.frees = MissCurrent(slot) ? vdisk_occupied_.frees() : -1;
  return miss.frees >= 0;
}

bool IntervalScheduler::MissCurrent(int32_t slot) const {
  const CoalesceMiss& miss = coalesce_misses_[static_cast<size_t>(slot)];
  return miss.frees >= 0 &&
         !vdisk_occupied_.FreedSince(miss.frees, miss.first, miss.len);
}

void IntervalScheduler::CheckSkippedSearch(Stream* s) {
  // A steady stream's stored cursors may be set to any interval's closed
  // form: set them to the state its visit would start from.
  SyncSteadyCursors(s);
  CoalesceMiss miss;
  const std::optional<CoalesceMove> move = FindCoalesceMove(*s, &miss);
  STAGGER_CHECK(!move.has_value())
      << "steady stream " << s->id << " lane " << move->lane
      << ": a coalescing search skipped as failing finds virtual disk "
      << move->vdisk;
}

void IntervalScheduler::EnterSteady(Stream* s, int32_t slot) {
  // A new steady period: earlier periods' calendar entries go stale.
  s->steady = true;
  s->epoch = next_epoch_++;
  EraseSorted(&unsteady_, s->id);
  if (config_.coalesce && s->fragmented) {
    InsertSorted(&coalescing_, s->id, slot);
  }
  MarkReading(*s);
  // Its reads are under way; the lane with the smallest offset reads
  // the last row first, and the closed form ends there.
  int64_t first_offset = s->delta_max;
  for (const FragmentLane& l : s->lanes) {
    first_offset = std::min(first_offset, l.offset());
  }
  PushEvent(*s, slot, s->admit_interval + first_offset + s->num_subobjects - 1);
}

void IntervalScheduler::LeaveSteady(Stream* s, int32_t slot) {
  // Its queued event goes stale with the steady flag.
  s->steady = false;
  InsertSorted(&unsteady_, s->id, slot);
  EraseSorted(&coalescing_, s->id);
  const int32_t d = frame_.num_disks();
  for (const FragmentLane& lane : s->lanes) {
    if (lane.released()) continue;
    for (int32_t f = 0, v = lane.vdisk; f < lane.width;
         ++f, v = v + 1 == d ? 0 : v + 1) {
      reading_.Clear(v);
    }
  }
}

void IntervalScheduler::ReleaseLane(const Stream& s, FragmentLane* lane,
                                    int32_t count) {
  if (lane->released()) return;
  // Only a contiguous lane is wider than one fragment, and it buffers
  // nothing between intervals, so shrinking it keeps the buffer count.
  STAGGER_DCHECK(count > 0 && count <= lane->width &&
                 (count == lane->width || lane->reads_done == s.delivered));
  const int32_t d = frame_.num_disks();
  int32_t v = lane->vdisk;
  // The stream's search picks among its other lanes from here on.
  coalesce_misses_[static_cast<size_t>(vdisk_slot_[static_cast<size_t>(v)])] =
      CoalesceMiss{};
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
  EraseSorted(&coalescing_, id);
  free_slots_.push_back(slot);
  if (completed) {
    ++metrics_.displays_completed;
    if (listener_) listener_->OnCompleted(id);
  }
}

void IntervalScheduler::UpdateIntervalStats() {
  const SimTime now = sim_->Now();
  metrics_.queue_length.Set(now,
                            static_cast<double>(admission_.queued()));
  metrics_.buffered_fragments.Set(now,
                                  static_cast<double>(buffered_fragments_));
  metrics_.peak_buffered_fragments =
      std::max(metrics_.peak_buffered_fragments, buffered_fragments_);
}

}  // namespace stagger
