#include "wiring.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "baseline/vdr_server.h"
#include "core/fast_forward.h"
#include "disk/disk_array.h"
#include "fault/fault_injector.h"
#include "server/striped_server.h"
#include "sim/simulator.h"
#include "storage/catalog.h"
#include "tertiary/tertiary_pool.h"
#include "util/distributions.h"
#include "workload/display_station.h"

namespace stagger::e2e {

void Tally::Max(const std::string& key, double value) {
  auto [it, inserted] = maxima_.emplace(key, value);
  if (!inserted) it->second = std::max(it->second, value);
}

void Tally::Merge(const Tally& other) {
  for (const auto& [key, value] : other.sums_) Add(key, value);
  for (const auto& [key, value] : other.maxima_) Max(key, value);
}

std::vector<std::string> Tally::DifferingKeys(const Tally& other) const {
  std::vector<std::string> keys;
  for (const auto* maps : {&sums_, &maxima_, &other.sums_, &other.maxima_}) {
    for (const auto& [key, value] : *maps) {
      if ((*this)[key] != other[key] &&
          std::find(keys.begin(), keys.end(), key) == keys.end()) {
        keys.push_back(key);
      }
    }
  }
  return keys;
}

double Tally::operator[](const std::string& key) const {
  if (auto it = sums_.find(key); it != sums_.end()) return it->second;
  if (auto it = maxima_.find(key); it != maxima_.end()) return it->second;
  return 0.0;
}

namespace {

double Seconds(int64_t from_ns, int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) * 1e-9;
}

/// Wraps a callback in a span; a null callback stays null, because the
/// servers branch on whether one was given.
template <typename Fn>
Fn Spanned(Tracer* tracer, Layer layer, Fn fn) {
  if (!fn) return fn;
  return [tracer, layer, fn = std::move(fn)](auto... args) {
    ScopedSpan span(tracer, layer);
    fn(args...);
  };
}

/// Times RequestDisplay (server) and the callbacks it hands back
/// (workload code run by the server).
class TracedService : public MediaService {
 public:
  TracedService(MediaService* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  Status RequestDisplay(ObjectId object, StartedFn on_started,
                        CompletedFn on_completed,
                        InterruptedFn on_interrupted) override {
    ScopedSpan span(tracer_, Layer::kRequest);
    return inner_->RequestDisplay(
        object, Spanned(tracer_, Layer::kCallback, std::move(on_started)),
        Spanned(tracer_, Layer::kCallback, std::move(on_completed)),
        Spanned(tracer_, Layer::kCallback, std::move(on_interrupted)));
  }

 private:
  MediaService* inner_;
  Tracer* tracer_;
};

/// Times Enqueue (tertiary) and the server code its start / completion
/// callbacks run; counts requests in the tertiary over time.
class TracedTertiary : public MaterializationService {
 public:
  TracedTertiary(const Simulator* sim, MaterializationService* inner,
                 Tracer* tracer)
      : sim_(sim), inner_(inner), tracer_(tracer) {}

  void Enqueue(ObjectId object, DataSize size,
               MaterializationCompletionFn on_complete,
               MaterializationStartFn on_start) override {
    ScopedSpan span(tracer_, Layer::kEnqueue);
    ++enqueues_;
    outstanding_.Set(sim_->Now(), static_cast<double>(++in_system_));
    inner_->Enqueue(
        object, size,
        [this, fn = std::move(on_complete)](ObjectId done) {
          outstanding_.Set(sim_->Now(), static_cast<double>(--in_system_));
          ScopedSpan landing(tracer_, Layer::kLanding);
          if (fn) fn(done);
        },
        Spanned(tracer_, Layer::kLanding, std::move(on_start)));
  }
  int64_t completed() const override { return inner_->completed(); }
  size_t queue_length() const override { return inner_->queue_length(); }
  double Utilization(SimTime now) const override {
    return inner_->Utilization(now);
  }

  int64_t enqueues() const { return enqueues_; }
  /// Time-average of requests waiting or in service.
  double MeanInSystem(SimTime now) const { return outstanding_.Average(now); }

 private:
  const Simulator* sim_;
  MaterializationService* inner_;
  Tracer* tracer_;
  int64_t enqueues_ = 0;
  int64_t in_system_ = 0;
  TimeWeighted outstanding_;
};

/// Brackets every kTickSampleStride-th scheduler tick with two probe
/// events on its interval instant.  The open probe runs at priority -1,
/// before the priority-0 tick; fault events run at -100, outside the
/// bracket.  It schedules the close probe at the tick's own priority 0:
/// the ticker armed the tick one interval earlier, so the close probe's
/// later sequence number runs it right after the tick, in the tick's own
/// kernel batch, and no probe dispatch falls inside the span.  The open
/// probe re-arms before its span opens.  Bracketing every tick cost as
/// much as a lightly loaded tick itself (40% more run time on
/// fig8_matrix); the stride is prime so it does not alias with the
/// model's periods (stride k, degree M, the fragmented lookahead).
class TickProbes {
 public:
  static constexpr int64_t kTickSampleStride = 7;

  TickProbes(Simulator* sim, const IntervalScheduler* scheduler,
             Tracer* tracer)
      : sim_(sim), scheduler_(scheduler), tracer_(tracer) {
    ArmOpen(0);
  }
  TickProbes(const TickProbes&) = delete;
  TickProbes& operator=(const TickProbes&) = delete;

  /// Probe events executed, to discount from the kernel's counters.
  int64_t fired() const { return opened_ + ticks_; }
  /// Kernel batches the probes added: one per open probe.
  int64_t batches() const { return opened_; }
  /// Ticks bracketed, and sums over them of the scheduler's state.
  int64_t ticks() const { return ticks_; }
  double active_streams() const { return active_streams_; }
  double idle_vdisks() const { return idle_vdisks_; }

 private:
  void ArmOpen(int64_t k) {
    sim_->ScheduleAt(scheduler_->IntervalStart(k), [this, k] {
      ++opened_;
      ArmOpen(k + kTickSampleStride);
      ArmClose(k);
      tracer_->Begin(Layer::kTick);
    }, -1);
  }
  void ArmClose(int64_t k) {
    sim_->ScheduleAt(scheduler_->IntervalStart(k), [this] {
      tracer_->End(Layer::kTick);
      ++ticks_;
      active_streams_ += static_cast<double>(scheduler_->active_streams());
      idle_vdisks_ += scheduler_->idle_virtual_disks();
    });
  }

  Simulator* sim_;
  const IntervalScheduler* scheduler_;
  Tracer* tracer_;
  int64_t opened_ = 0;
  int64_t ticks_ = 0;
  double active_streams_ = 0.0;
  double idle_vdisks_ = 0.0;
};

/// One assembled experiment.  Members are declared in construction
/// order, so the workload goes first and the simulator last.
struct System {
  Simulator sim;
  Catalog catalog;
  std::vector<ObjectId> scan_replica;
  std::optional<TruncatedGeometric> popularity;
  std::unique_ptr<ZipfDistribution> zipf;
  const DiscreteDistribution* pop = nullptr;
  std::optional<DiskArray> disks;
  std::unique_ptr<TertiaryPool> tertiary_pool;
  std::unique_ptr<TracedTertiary> traced_tertiary;
  MaterializationService* tertiary = nullptr;
  std::unique_ptr<StripedServer> striped;
  std::unique_ptr<VdrServer> vdr;
  std::unique_ptr<TracedService> traced_service;
  MediaService* service = nullptr;
  std::unique_ptr<FaultInjector> injector;
  std::unique_ptr<StationPool> stations;
  std::unique_ptr<OpenArrivals> arrivals;
};

/// Set-up phase boundaries of one Build, in NowNs() time.
struct SetupClock {
  int64_t begin = 0;
  int64_t catalog = 0;
  int64_t disks = 0;
  int64_t tertiary = 0;
  int64_t end = 0;
};

// Mirrors RunExperiment's construction step for step; keep the two in
// sync.  The benchmark's --check mode compares every result field.
Result<std::unique_ptr<System>> Build(const ExperimentConfig& config,
                                      Tracer* tracer, SetupClock* clock) {
  const bool vdr_scheme = config.scheme == Scheme::kVdr;
  clock->begin = NowNs();
  auto s = std::make_unique<System>();
  s->catalog = Catalog::Uniform(config.num_objects,
                                config.subobjects_per_object,
                                config.display_bandwidth);
  if (config.open_arrivals && config.scan_probability > 0.0) {
    STAGGER_ASSIGN_OR_RETURN(
        s->scan_replica,
        AddFastForwardReplicas(&s->catalog, config.scan_speedup));
  }
  STAGGER_ASSIGN_OR_RETURN(
      TruncatedGeometric popularity,
      TruncatedGeometric::FromMean(config.num_objects, config.geometric_mean));
  s->popularity.emplace(std::move(popularity));
  s->pop = &*s->popularity;
  if (config.open_arrivals && config.zipf_theta > 0.0) {
    STAGGER_ASSIGN_OR_RETURN(
        ZipfDistribution z,
        ZipfDistribution::Create(config.num_objects, config.zipf_theta));
    s->zipf = std::make_unique<ZipfDistribution>(std::move(z));
    s->pop = s->zipf.get();
  }

  clock->catalog = NowNs();
  STAGGER_ASSIGN_OR_RETURN(
      DiskArray disks,
      DiskArray::Create(config.num_disks, config.disk, config.num_spares));
  s->disks.emplace(std::move(disks));

  clock->disks = NowNs();
  STAGGER_ASSIGN_OR_RETURN(
      s->tertiary_pool,
      TertiaryPool::Create(&s->sim, TertiaryDevice(config.tertiary),
                           config.num_tertiary_devices));
  s->tertiary = s->tertiary_pool.get();
  if (tracer != nullptr) {
    s->traced_tertiary = std::make_unique<TracedTertiary>(
        &s->sim, s->tertiary_pool.get(), tracer);
    s->tertiary = s->traced_tertiary.get();
  }

  clock->tertiary = NowNs();
  if (vdr_scheme) {
    VdrConfig vc;
    vc.num_clusters = config.num_disks / config.Degree();
    vc.cluster_degree = config.Degree();
    vc.interval = config.Interval();
    vc.fragment_size = config.FragmentSize();
    const int64_t per_disk_cylinders = config.disk.num_cylinders;
    const int64_t object_cylinders_per_disk =
        config.subobjects_per_object * config.fragment_cylinders;
    vc.objects_per_cluster = static_cast<int32_t>(std::max<int64_t>(
        1, per_disk_cylinders / object_cylinders_per_disk));
    vc.enable_replication = config.enable_replication;
    vc.replication_wait_threshold = config.replication_wait_threshold;
    vc.preload_objects = config.preload_objects;
    STAGGER_ASSIGN_OR_RETURN(
        s->vdr, VdrServer::Create(&s->sim, &s->catalog, s->tertiary, vc));
    s->service = s->vdr.get();
  } else {
    // Sharding and ring knobs stay at their defaults: no workload sets
    // them, and they may be deleted from the simulator.
    StripedConfig sc;
    sc.stride = config.scheme == Scheme::kSimpleStriping ? config.Degree()
                                                         : config.stride;
    sc.interval = config.Interval();
    sc.fragment_size = config.FragmentSize();
    sc.fragment_cylinders = config.fragment_cylinders;
    sc.policy = config.policy;
    sc.coalesce = config.coalesce;
    sc.preload_objects = config.preload_objects;
    sc.charge_materialization_writes = config.charge_materialization_writes;
    sc.tertiary_bandwidth = config.tertiary.bandwidth;
    sc.degraded_policy = config.degraded_policy;
    sc.parity = config.parity;
    sc.rebuild_intervals_per_fragment = config.rebuild_intervals_per_fragment;
    sc.scrub = config.scrub;
    sc.scrub_intervals_per_stripe = config.scrub_intervals_per_stripe;
    sc.rebuild_reads_per_interval = config.rebuild_reads_per_interval;
    sc.scrub_reads_per_interval = config.scrub_reads_per_interval;
    sc.scrub_starvation_floor_intervals =
        config.scrub_starvation_floor_intervals;
    sc.batch = config.batch;
    sc.batch_window = config.batch_window;
    sc.max_batch_fanout = config.max_batch_fanout;
    STAGGER_ASSIGN_OR_RETURN(
        s->striped, StripedServer::Create(&s->sim, &s->catalog, &*s->disks,
                                          s->tertiary, sc));
    s->service = s->striped.get();
  }
  if (tracer != nullptr) {
    s->traced_service = std::make_unique<TracedService>(s->service, tracer);
    s->service = s->traced_service.get();
  }

  if (!config.fault_plan.events().empty()) {
    STAGGER_ASSIGN_OR_RETURN(
        s->injector,
        FaultInjector::Create(&s->sim, &*s->disks, config.fault_plan));
    if (vdr_scheme) {
      VdrServer* v = s->vdr.get();
      DiskArray* d = &*s->disks;
      s->injector->OnDown([v, d](DiskId disk, SimTime) {
        v->OnDiskDown(disk, d->disk(disk).health() == DiskHealth::kFailed);
      });
      s->injector->OnUp([v](DiskId disk, SimTime) { v->OnDiskUp(disk); });
    } else {
      StripedServer* srv = s->striped.get();
      s->injector->OnDown(
          [srv](DiskId disk, SimTime now) { srv->OnDiskDown(disk, now); });
      s->injector->OnUp(
          [srv](DiskId disk, SimTime now) { srv->OnDiskUp(disk, now); });
    }
  }

  if (config.open_arrivals) {
    OpenArrivalsConfig oc;
    oc.mean_interarrival = config.mean_interarrival;
    oc.seed = config.seed;
    oc.diurnal_amplitude = config.diurnal_amplitude;
    oc.diurnal_period = config.diurnal_period;
    oc.flash_crowds = config.flash_crowds;
    oc.scan_probability =
        s->scan_replica.empty() ? 0.0 : config.scan_probability;
    oc.pause_probability = config.pause_probability;
    oc.mean_pause = config.mean_pause;
    oc.scan_replica = std::move(s->scan_replica);
    oc.measure_start = config.warmup;
    STAGGER_RETURN_NOT_OK(oc.Validate());
    s->arrivals = std::make_unique<OpenArrivals>(&s->sim, s->service, s->pop,
                                                 std::move(oc));
  } else {
    s->stations = std::make_unique<StationPool>(&s->sim, s->service, s->pop,
                                                config.stations, config.seed);
    s->stations->SetMeasurementWindowStart(config.warmup);
    s->stations->SetMeanThinkTime(config.mean_think_time);
  }
  clock->end = NowNs();
  return s;
}

// Builds kSetupRepeats times and reports the median of each set-up
// phase: a set-up of a few milliseconds, timed once in a fresh process,
// varied by a third between runs.  The last build runs.
constexpr int kSetupRepeats = 3;

double MedianSeconds(std::vector<int64_t> ns) {
  std::sort(ns.begin(), ns.end());
  return static_cast<double>(ns[ns.size() / 2]) * 1e-9;
}

}  // namespace

Result<CellRun> RunCell(const ExperimentConfig& config, Tracer* tracer) {
  STAGGER_RETURN_NOT_OK(config.Validate());
  CellRun out;
  const bool vdr_scheme = config.scheme == Scheme::kVdr;

  std::vector<SetupClock> clocks(kSetupRepeats);
  std::unique_ptr<System> system;
  for (SetupClock& clock : clocks) {
    system.reset();
    STAGGER_ASSIGN_OR_RETURN(system, Build(config, tracer, &clock));
  }
  auto phase = [&](int64_t SetupClock::*from, int64_t SetupClock::*to) {
    std::vector<int64_t> ns;
    for (const SetupClock& c : clocks) ns.push_back(c.*to - c.*from);
    return MedianSeconds(std::move(ns));
  };
  Tally& host = out.host;
  host.Add("setup_s", phase(&SetupClock::begin, &SetupClock::end));
  host.Add("setup.catalog_s", phase(&SetupClock::begin, &SetupClock::catalog));
  host.Add("setup.disks_s", phase(&SetupClock::catalog, &SetupClock::disks));
  host.Add("setup.tertiary_s", phase(&SetupClock::disks, &SetupClock::tertiary));
  host.Add("setup.server_s", phase(&SetupClock::tertiary, &SetupClock::end));

  Simulator& sim = system->sim;
  DiskArray& disks = *system->disks;
  MaterializationService* tertiary = system->tertiary;
  StripedServer* striped = system->striped.get();
  VdrServer* vdr = system->vdr.get();
  FaultInjector* injector = system->injector.get();
  StationPool* stations = system->stations.get();
  OpenArrivals* arrivals = system->arrivals.get();
  const TracedTertiary* traced_tertiary = system->traced_tertiary.get();

  // The first requests issued by Start() are run work, not set-up.
  const int64_t t_setup = NowNs();
  std::unique_ptr<TickProbes> probes;
  if (tracer != nullptr && striped != nullptr) {
    probes = std::make_unique<TickProbes>(&sim, striped->scheduler(), tracer);
  }
  if (arrivals) {
    arrivals->Start();
  } else {
    stations->Start();
  }
  sim.RunUntil(config.warmup + config.measure);

  // Result read-out, field for field as RunExperiment does it.
  ExperimentResult& result = out.result;
  int64_t requests = 0;
  int64_t completed = 0;
  int64_t interrupted = 0;
  if (arrivals) {
    const double window_sec = (sim.Now() - config.warmup).seconds();
    result.displays_completed = arrivals->completed_in_window();
    result.displays_per_hour =
        window_sec > 0.0
            ? static_cast<double>(result.displays_completed) * 3600.0 /
                  window_sec
            : 0.0;
    result.mean_startup_latency_sec = arrivals->startup_latency_sec().mean();
    result.requests_issued = arrivals->requests_issued();
    result.vcr_scans = arrivals->vcr_scans();
    result.vcr_resumes = arrivals->vcr_resumes();
    result.flash_redirects = arrivals->flash_redirects();
    const QuantileTracker& admission = arrivals->admission_latency_sec();
    result.admission_latency_p50_sec = admission.p50();
    result.admission_latency_p95_sec = admission.p95();
    result.admission_latency_p99_sec = admission.p99();
    out.startup_sec = admission;
    requests = arrivals->requests_issued();
    completed = arrivals->displays_completed();
    interrupted = arrivals->displays_interrupted();
  } else {
    const WorkloadMetrics& wm = stations->metrics();
    result.displays_per_hour = wm.ThroughputPerHour(config.warmup, sim.Now());
    result.displays_completed = wm.displays_completed_in_window;
    result.mean_startup_latency_sec = wm.startup_latency_sec_in_window.mean();
    result.requests_issued = wm.requests_issued;
    result.unique_objects_referenced = stations->UniqueObjectsReferenced();
    const QuantileTracker& startup = wm.startup_latency_quantiles_sec;
    result.admission_latency_p50_sec = startup.p50();
    result.admission_latency_p95_sec = startup.p95();
    result.admission_latency_p99_sec = startup.p99();
    out.startup_sec = startup;
    requests = wm.requests_issued;
    completed = wm.displays_completed;
    interrupted = wm.displays_interrupted;
  }
  result.tertiary_utilization = tertiary->Utilization(sim.Now());
  result.tertiary_queue_end = static_cast<int64_t>(tertiary->queue_length());
  result.materializations = tertiary->completed();
  const LatentErrorMetrics& lm = disks.latent_errors().metrics();
  result.latent_errors_injected = lm.injected;
  result.latent_errors_detected = lm.detected;
  result.latent_errors_repaired = lm.repaired + lm.repaired_by_rebuild;
  result.latent_errors_unrepaired = disks.latent_errors().ActiveCells();
  result.mean_time_to_repair_sec =
      lm.time_to_repair_intervals.count() > 0
          ? lm.time_to_repair_intervals.mean() * config.Interval().seconds()
          : 0.0;
  result.degraded_disk_intervals = disks.degraded_disk_intervals();

  const StreamBatcher* batcher = nullptr;
  if (vdr_scheme) {
    result.disk_utilization = vdr->MeanClusterUtilization();
    result.replications = vdr->metrics().replications;
    result.evictions = vdr->metrics().evictions;
    result.resident_objects_end = vdr->ResidentObjectCount();
    result.displays_interrupted = vdr->metrics().displays_interrupted;
    result.failovers = vdr->metrics().failovers;
  } else {
    result.disk_utilization = disks.MeanUtilization();
    result.hiccups = striped->scheduler_metrics().hiccups;
    result.evictions = striped->object_manager().evictions();
    result.resident_objects_end = striped->object_manager().ResidentCount();
    const SchedulerMetrics& sm = striped->scheduler_metrics();
    result.degraded_reads = sm.degraded_reads;
    result.reconstructed_reads = sm.reconstructed_reads;
    result.streams_paused = sm.streams_paused;
    result.streams_resumed = sm.streams_resumed;
    result.displays_interrupted = sm.displays_interrupted;
    result.mean_resume_latency_sec = sm.resume_latency_sec.mean();
    result.corrupt_reads_detected = sm.corrupt_reads_detected;
    result.corrupt_frames_delivered = sm.corrupt_frames_delivered;
    if (const RebuildManager* rebuild = striped->rebuild()) {
      result.rebuilds_completed = rebuild->metrics().rebuilds_completed;
      result.fragments_rebuilt = rebuild->metrics().fragments_rebuilt;
    }
    if (const Scrubber* scrubber = striped->scrubber()) {
      result.scrub_stripes_verified = scrubber->metrics().stripes_scrubbed;
      result.scrub_passes = scrubber->metrics().passes_completed;
    }
    if (const BackgroundBudget* budget = striped->background_budget()) {
      result.background_reads_granted = budget->metrics().reads_granted;
      result.background_budget_violations =
          budget->metrics().budget_violations;
    }
    batcher = striped->batcher();
    if (batcher != nullptr) {
      const BatcherMetrics& bm = batcher->metrics();
      result.physical_streams = bm.physical_streams;
      result.window_joins = bm.window_joins;
      result.piggyback_joins = bm.piggyback_joins;
      result.mean_fanout = bm.fanout.mean();
      result.max_start_offset_sec = bm.start_offset_sec.max();
      if (!config.open_arrivals) {
        result.admission_latency_p50_sec = bm.admission_latency_sec.p50();
        result.admission_latency_p95_sec = bm.admission_latency_sec.p95();
        result.admission_latency_p99_sec = bm.admission_latency_sec.p99();
        out.startup_sec = bm.admission_latency_sec;
      }
    }
  }
  const int64_t t_end = NowNs();

  host.Add("run_s", Seconds(t_setup, t_end));

  // Simulated outcomes.  Probe events are discounted so the kernel
  // counters read the same traced or not.
  Tally& m = out.model;
  const int64_t probe_events = probes ? probes->fired() : 0;
  const int64_t probe_batches = probes ? probes->batches() : 0;
  m.Add("cells", 1);
  m.Add("window_hours", (sim.Now() - config.warmup).hours());
  m.Add("completed_in_window", static_cast<double>(result.displays_completed));
  m.Add("requests", static_cast<double>(requests));
  m.Add("interrupted", static_cast<double>(interrupted));
  m.Add("startup_samples", static_cast<double>(out.startup_sec.count()));
  m.Add("sim.events",
        static_cast<double>(sim.events_executed()) - static_cast<double>(probe_events));
  m.Add("sim.batches",
        static_cast<double>(sim.batches_dispatched()) - static_cast<double>(probe_batches));
  m.Add("tertiary.completed", static_cast<double>(result.materializations));
  m.Add("tertiary.utilization_sum", result.tertiary_utilization);
  m.Add("disk.degraded_disk_intervals",
        static_cast<double>(result.degraded_disk_intervals));
  m.Add("disk.latent_injected", static_cast<double>(result.latent_errors_injected));
  m.Add("disk.latent_repaired", static_cast<double>(result.latent_errors_repaired));
  m.Add("disk.latent_unrepaired",
        static_cast<double>(result.latent_errors_unrepaired));
  m.Add("disk.repairs", static_cast<double>(lm.time_to_repair_intervals.count()));
  m.Add("disk.repair_s_sum",
        lm.time_to_repair_intervals.sum() * config.Interval().seconds());
  if (injector) {
    const FaultInjectorMetrics& fm = injector->metrics();
    m.Add("fault.events",
          static_cast<double>(fm.failures_injected + fm.stalls_injected +
                              fm.degrades_injected + fm.latent_errors_injected +
                              fm.recoveries_injected));
  }
  if (arrivals) {
    m.Add("workload.vcr_scans", static_cast<double>(result.vcr_scans));
    m.Add("workload.flash_redirects", static_cast<double>(result.flash_redirects));
  }

  if (vdr_scheme) {
    m.Add("cells.vdr", 1);
    m.Add("baseline.replications", static_cast<double>(result.replications));
    m.Add("baseline.evictions", static_cast<double>(result.evictions));
    m.Add("baseline.cluster_utilization_sum", result.disk_utilization);
  } else {
    const SchedulerMetrics& sm = striped->scheduler_metrics();
    const IntervalScheduler& sched = *striped->scheduler();
    const StripedMetrics& srv = striped->metrics();
    m.Add("cells.striped", 1);
    m.Add("core.ticks", static_cast<double>(disks.intervals()));
    m.Add("core.admitted", static_cast<double>(sm.displays_admitted));
    m.Add("core.completed", static_cast<double>(sm.displays_completed));
    m.Add("core.fragmented_admissions", static_cast<double>(sm.fragmented_admissions));
    m.Add("core.coalesce_migrations", static_cast<double>(sm.coalesce_migrations));
    m.Add("core.degraded_reads", static_cast<double>(sm.degraded_reads));
    m.Add("core.reconstructed_reads", static_cast<double>(sm.reconstructed_reads));
    m.Add("core.streams_paused", static_cast<double>(sm.streams_paused));
    m.Add("core.streams_resumed", static_cast<double>(sm.streams_resumed));
    m.Max("core.peak_buffered_fragments",
          static_cast<double>(sm.peak_buffered_fragments));
    m.Add("core.hiccups", static_cast<double>(sm.hiccups));
    m.Add("core.queue_len_mean_sum", sm.queue_length.Average(sim.Now()));
    m.Add("server.requests", static_cast<double>(srv.requests));
    m.Add("server.resident_hits", static_cast<double>(srv.resident_hits));
    m.Add("server.materializations_started",
          static_cast<double>(srv.materializations_started));
    m.Add("server.landings_deferred", static_cast<double>(srv.landings_deferred));
    m.Add("storage.evictions", static_cast<double>(result.evictions));
    m.Add("storage.resident_end", static_cast<double>(result.resident_objects_end));
    m.Add("disk.utilization_sum", result.disk_utilization);
    m.Add("rebuild.fragments_rebuilt", static_cast<double>(result.fragments_rebuilt));
    m.Add("rebuild.completed", static_cast<double>(result.rebuilds_completed));
    m.Add("scrub.stripes_verified",
          static_cast<double>(result.scrub_stripes_verified));
    m.Add("scrub.passes", static_cast<double>(result.scrub_passes));
    m.Add("background.reads_granted",
          static_cast<double>(result.background_reads_granted));
    m.Add("background.violations",
          static_cast<double>(result.background_budget_violations));
    if (batcher != nullptr) {
      m.Add("workload.batch_requests",
            static_cast<double>(batcher->metrics().requests));
      m.Add("workload.batch_streams", static_cast<double>(result.physical_streams));
      m.Add("workload.window_joins", static_cast<double>(result.window_joins));
      m.Add("workload.piggyback_joins", static_cast<double>(result.piggyback_joins));
    }

    // Every stream the scheduler accepted is completed, cancelled, or
    // still active, queued, or paused.
    const int64_t resolved = sm.displays_completed + sm.displays_cancelled +
                             static_cast<int64_t>(sched.active_streams() +
                                                  sched.pending_requests() +
                                                  sched.paused_streams());
    if (sm.displays_requested != resolved) {
      out.errors.push_back("scheduler accounting: requested " +
                           std::to_string(sm.displays_requested) + " != " +
                           std::to_string(resolved));
    }
  }
  if (probes) {
    out.probe.Add("ticks", static_cast<double>(probes->ticks()));
    out.probe.Add("active_streams", probes->active_streams());
    out.probe.Add("idle_vdisks", probes->idle_vdisks());
  }
  if (traced_tertiary) {
    out.probe.Add("tertiary.enqueues",
                  static_cast<double>(traced_tertiary->enqueues()));
    out.probe.Add("tertiary.queue_mean_sum",
                  traced_tertiary->MeanInSystem(sim.Now()));
  }

  // Run invariants.
  const int64_t in_flight = requests - completed - interrupted;
  if (in_flight < 0 || (stations && in_flight > config.stations)) {
    out.errors.push_back("request accounting: requests " +
                         std::to_string(requests) + " != completed " +
                         std::to_string(completed) + " + interrupted " +
                         std::to_string(interrupted) + " + in flight " +
                         std::to_string(in_flight));
  }
  if (result.hiccups != 0) {
    out.errors.push_back("hiccups: " + std::to_string(result.hiccups));
  }
  if (result.corrupt_frames_delivered != 0) {
    out.errors.push_back("corrupt frames delivered: " +
                         std::to_string(result.corrupt_frames_delivered));
  }
  if (result.background_budget_violations != 0) {
    out.errors.push_back("background budget violations: " +
                         std::to_string(result.background_budget_violations));
  }
  if (tracer != nullptr && !tracer->idle()) {
    out.errors.push_back("a span was left open at the end of the run");
  }
  return out;
}

// Model fields of ExperimentResult.  The sharding and ring fields are
// left out: they are zero with the default knobs and may be deleted.
#define STAGGER_E2E_RESULT_FIELDS(X)                                       \
  X(displays_per_hour) X(displays_completed) X(mean_startup_latency_sec)   \
  X(disk_utilization) X(tertiary_utilization) X(tertiary_queue_end)        \
  X(materializations) X(replications) X(evictions) X(hiccups)              \
  X(unique_objects_referenced) X(resident_objects_end) X(degraded_reads)   \
  X(reconstructed_reads) X(streams_paused) X(streams_resumed)              \
  X(displays_interrupted) X(failovers) X(mean_resume_latency_sec)          \
  X(rebuilds_completed) X(fragments_rebuilt) X(latent_errors_injected)     \
  X(latent_errors_detected) X(latent_errors_repaired)                      \
  X(latent_errors_unrepaired) X(mean_time_to_repair_sec)                   \
  X(corrupt_reads_detected) X(corrupt_frames_delivered)                    \
  X(scrub_stripes_verified) X(scrub_passes) X(degraded_disk_intervals)     \
  X(background_reads_granted) X(background_budget_violations)              \
  X(admission_latency_p50_sec) X(admission_latency_p95_sec)                \
  X(admission_latency_p99_sec) X(requests_issued) X(vcr_scans)             \
  X(vcr_resumes) X(flash_redirects) X(physical_streams) X(window_joins)    \
  X(piggyback_joins) X(mean_fanout) X(max_start_offset_sec)

std::vector<std::string> DiffResults(const ExperimentResult& a,
                                     const ExperimentResult& b) {
  std::vector<std::string> differing;
#define STAGGER_E2E_DIFF(field) \
  if (!(a.field == b.field)) differing.push_back(#field);
  STAGGER_E2E_RESULT_FIELDS(STAGGER_E2E_DIFF)
#undef STAGGER_E2E_DIFF
  return differing;
}

}  // namespace stagger::e2e
