#include "server/experiment.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <thread>
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
#include "util/thread_annotations.h"
#include "workload/display_station.h"

namespace stagger {

std::string SchemeName(Scheme scheme) {
  switch (scheme) {
    case Scheme::kSimpleStriping: return "simple-striping";
    case Scheme::kStaggered: return "staggered-striping";
    case Scheme::kVdr: return "virtual-data-replication";
  }
  return "unknown";
}

Status ExperimentConfig::Validate() const {
  if (num_disks < 1) return Status::InvalidArgument("need at least one disk");
  STAGGER_RETURN_NOT_OK(disk.Validate());
  STAGGER_RETURN_NOT_OK(tertiary.Validate());
  if (fragment_cylinders < 1) {
    return Status::InvalidArgument("fragment must span >= 1 cylinder");
  }
  if (num_objects < 1) return Status::InvalidArgument("need objects");
  if (subobjects_per_object < 1) {
    return Status::InvalidArgument("objects need subobjects");
  }
  if (display_bandwidth.bits_per_sec() <= 0) {
    return Status::InvalidArgument("display bandwidth must be positive");
  }
  if (num_tertiary_devices < 1) {
    return Status::InvalidArgument("need at least one tertiary device");
  }
  if (stations < 1) return Status::InvalidArgument("need stations");
  if (geometric_mean <= 0) {
    return Status::InvalidArgument("geometric mean must be positive");
  }
  if (warmup < SimTime::Zero()) {
    return Status::InvalidArgument("warmup must be >= 0");
  }
  if (measure <= SimTime::Zero()) {
    return Status::InvalidArgument("measurement window must be positive");
  }
  if (Degree() < 1) {
    return Status::InvalidArgument(
        "display bandwidth gives a degree of declustering below 1");
  }
  if (Degree() > num_disks) {
    return Status::InvalidArgument("degree of declustering exceeds D");
  }
  if (open_arrivals) {
    if (mean_interarrival <= SimTime::Zero()) {
      return Status::InvalidArgument("mean interarrival must be positive");
    }
    if (zipf_theta < 0.0) {
      return Status::InvalidArgument("zipf theta must be >= 0");
    }
    if (scan_probability > 0.0 && scan_speedup < 1) {
      return Status::InvalidArgument("scan speedup must be >= 1");
    }
  }
  if (batch && scheme == Scheme::kVdr) {
    return Status::InvalidArgument(
        "stream batching is a striped-server feature");
  }
  if (scrub && scheme == Scheme::kVdr) {
    return Status::InvalidArgument(
        "stripe scrubbing is a striped-server feature");
  }
  return Status::OK();
}

int32_t ExperimentConfig::Degree() const {
  return static_cast<int32_t>(std::ceil(display_bandwidth.bits_per_sec() /
                                            EffectiveDiskBandwidth().bits_per_sec() -
                                        1e-9));
}

Bandwidth ExperimentConfig::EffectiveDiskBandwidth() const {
  // Table 3 gives B_Disk directly as the (effective) transfer rate; the
  // interval is one fragment at that rate, so the two are consistent.
  return disk.transfer_rate;
}

SimTime ExperimentConfig::Interval() const {
  return TransferTime(FragmentSize(), EffectiveDiskBandwidth());
}

Result<ExperimentResult> RunExperiment(const ExperimentConfig& config) {
  STAGGER_RETURN_NOT_OK(config.Validate());

  Simulator sim;
  Catalog catalog = Catalog::Uniform(config.num_objects,
                                     config.subobjects_per_object,
                                     config.display_bandwidth);
  STAGGER_ASSIGN_OR_RETURN(
      DiskArray disks,
      DiskArray::Create(config.num_disks, config.disk, config.num_spares));
  STAGGER_ASSIGN_OR_RETURN(
      std::unique_ptr<TertiaryPool> tertiary_pool,
      TertiaryPool::Create(&sim, TertiaryDevice(config.tertiary),
                           config.num_tertiary_devices));
  MaterializationService& tertiary = *tertiary_pool;
  // Fast-forward scan replicas join the catalog before any server sees
  // it, so server-side per-object state covers them too.
  std::vector<ObjectId> scan_replica;
  if (config.open_arrivals && config.scan_probability > 0.0) {
    STAGGER_ASSIGN_OR_RETURN(
        scan_replica, AddFastForwardReplicas(&catalog, config.scan_speedup));
  }
  STAGGER_ASSIGN_OR_RETURN(
      TruncatedGeometric popularity,
      TruncatedGeometric::FromMean(config.num_objects, config.geometric_mean));
  // The popularity distribution only ever names original objects;
  // replicas are reached through the scan_replica map.
  std::unique_ptr<ZipfDistribution> zipf;
  const DiscreteDistribution* pop = &popularity;
  if (config.open_arrivals && config.zipf_theta > 0.0) {
    STAGGER_ASSIGN_OR_RETURN(
        ZipfDistribution z,
        ZipfDistribution::Create(config.num_objects, config.zipf_theta));
    zipf = std::make_unique<ZipfDistribution>(std::move(z));
    pop = zipf.get();
  }

  std::unique_ptr<StripedServer> striped;
  std::unique_ptr<VdrServer> vdr;
  MediaService* service = nullptr;

  if (config.scheme == Scheme::kVdr) {
    VdrConfig vc;
    vc.num_clusters = config.num_disks / config.Degree();
    vc.cluster_degree = config.Degree();
    vc.interval = config.Interval();
    vc.fragment_size = config.FragmentSize();
    // Whole objects per cluster under the disk capacities.
    const int64_t per_disk_cylinders = config.disk.num_cylinders;
    const int64_t object_cylinders_per_disk =
        config.subobjects_per_object * config.fragment_cylinders;
    vc.objects_per_cluster = static_cast<int32_t>(std::max<int64_t>(
        1, per_disk_cylinders / object_cylinders_per_disk));
    vc.enable_replication = config.enable_replication;
    vc.replication_wait_threshold = config.replication_wait_threshold;
    vc.preload_objects = config.preload_objects;
    // Breadth-first preload (one replica per object, most popular
    // first).  Depth-first alternatives (surplus replicas for hot
    // objects at the cost of library coverage) measurably hurt: a miss
    // costs a multi-thousand-second tertiary fetch, far more than any
    // collision wait.  The run-time replication policy grows replica
    // sets where demand persists.
    STAGGER_ASSIGN_OR_RETURN(vdr,
                             VdrServer::Create(&sim, &catalog, &tertiary, vc));
    service = vdr.get();
  } else {
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
        striped,
        StripedServer::Create(&sim, &catalog, &disks, &tertiary, sc));
    service = striped.get();
  }

  // Fault injection: the striped scheduler reacts through per-interval
  // disk-health checks; VDR maps disk outages onto cluster failovers
  // via listeners.  A failure loses the cluster's media, a stall does
  // not.
  std::unique_ptr<FaultInjector> injector;
  if (!config.fault_plan.events().empty()) {
    STAGGER_ASSIGN_OR_RETURN(
        injector, FaultInjector::Create(&sim, &disks, config.fault_plan));
    if (config.scheme == Scheme::kVdr) {
      VdrServer* v = vdr.get();
      DiskArray* d = &disks;
      injector->OnDown([v, d](DiskId disk, SimTime) {
        v->OnDiskDown(disk,
                      d->disk(disk).health() == DiskHealth::kFailed);
      });
      injector->OnUp([v](DiskId disk, SimTime) { v->OnDiskUp(disk); });
    } else {
      // The striped scheduler notices outages via per-interval health
      // checks, but the rebuild subsystem needs the failure edge to
      // claim a spare (and the recovery edge to return it).
      StripedServer* s = striped.get();
      injector->OnDown(
          [s](DiskId disk, SimTime now) { s->OnDiskDown(disk, now); });
      injector->OnUp(
          [s](DiskId disk, SimTime now) { s->OnDiskUp(disk, now); });
    }
  }

  std::unique_ptr<StationPool> stations;
  std::unique_ptr<OpenArrivals> arrivals;
  if (config.open_arrivals) {
    OpenArrivalsConfig oc;
    oc.mean_interarrival = config.mean_interarrival;
    oc.seed = config.seed;
    oc.diurnal_amplitude = config.diurnal_amplitude;
    oc.diurnal_period = config.diurnal_period;
    oc.flash_crowds = config.flash_crowds;
    oc.scan_probability = scan_replica.empty() ? 0.0 : config.scan_probability;
    oc.pause_probability = config.pause_probability;
    oc.mean_pause = config.mean_pause;
    oc.scan_replica = std::move(scan_replica);
    oc.measure_start = config.warmup;
    STAGGER_RETURN_NOT_OK(oc.Validate());
    arrivals =
        std::make_unique<OpenArrivals>(&sim, service, pop, std::move(oc));
    arrivals->Start();
  } else {
    stations = std::make_unique<StationPool>(&sim, service, pop,
                                             config.stations, config.seed);
    stations->SetMeasurementWindowStart(config.warmup);
    stations->SetMeanThinkTime(config.mean_think_time);
    stations->Start();
  }
  sim.RunUntil(config.warmup + config.measure);

  ExperimentResult result;
  if (config.open_arrivals) {
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
  } else {
    result.displays_per_hour =
        stations->metrics().ThroughputPerHour(config.warmup, sim.Now());
    result.displays_completed =
        stations->metrics().displays_completed_in_window;
    result.mean_startup_latency_sec =
        stations->metrics().startup_latency_sec_in_window.mean();
    result.requests_issued = stations->metrics().requests_issued;
    result.unique_objects_referenced = stations->UniqueObjectsReferenced();
    const QuantileTracker& startup =
        stations->metrics().startup_latency_quantiles_sec;
    result.admission_latency_p50_sec = startup.p50();
    result.admission_latency_p95_sec = startup.p95();
    result.admission_latency_p99_sec = startup.p99();
  }
  result.tertiary_utilization = tertiary.Utilization(sim.Now());
  result.tertiary_queue_end = static_cast<int64_t>(tertiary.queue_length());
  result.materializations = tertiary.completed();

  // Latent-error outcomes live in the disk array and so apply to every
  // scheme: a VDR run with latent events truthfully reports them as
  // injected-but-never-repaired (it has no scrubber).
  {
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
  }

  if (config.scheme == Scheme::kVdr) {
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
    if (const StreamBatcher* batcher = striped->batcher()) {
      const BatcherMetrics& bm = batcher->metrics();
      result.physical_streams = bm.physical_streams;
      result.window_joins = bm.window_joins;
      result.piggyback_joins = bm.piggyback_joins;
      result.mean_fanout = bm.fanout.mean();
      result.max_start_offset_sec = bm.start_offset_sec.max();
      if (!config.open_arrivals) {
        // Closed-loop runs have no arrival-side tracker; the batcher
        // sees every logical request and records exact latencies.
        result.admission_latency_p50_sec = bm.admission_latency_sec.p50();
        result.admission_latency_p95_sec = bm.admission_latency_sec.p95();
        result.admission_latency_p99_sec = bm.admission_latency_sec.p99();
      }
    }
  }
  return result;
}

namespace {

// Shared state of the RunMany worker pool: the claim cursor and the
// result slots, behind one mutex so clang's -Wthread-safety analysis
// can prove every cross-thread access synchronized.  The lock is taken
// once per claimed configuration and once per finished simulation —
// noise next to the simulation that runs in between — and slots stay
// keyed by configuration index, so the unwrap order (and every
// aggregate built from it) is bit-identical to a serial sweep no
// matter how many threads ran.
class ResultSink {
 public:
  explicit ResultSink(size_t n) {
    runs_.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      runs_.emplace_back(Status::Internal("experiment not run"));
    }
  }

  /// Claims the next unstarted configuration index; indices past the
  /// sweep size mean "done".
  size_t Claim() STAGGER_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return next_++;
  }

  void Store(size_t i, Result<ExperimentResult> run) STAGGER_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    runs_[i] = std::move(run);
  }

  /// Moves the slots out; call only after every worker has joined.
  std::vector<Result<ExperimentResult>> Take() STAGGER_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return std::move(runs_);
  }

 private:
  Mutex mu_;
  size_t next_ STAGGER_GUARDED_BY(mu_) = 0;
  std::vector<Result<ExperimentResult>> runs_ STAGGER_GUARDED_BY(mu_);
};

}  // namespace

Result<std::vector<ExperimentResult>> RunMany(
    const std::vector<ExperimentConfig>& configs, int32_t threads) {
  const size_t n = configs.size();
  ResultSink sink(n);

  const int32_t workers =
      std::min<int32_t>(threads, static_cast<int32_t>(n));
  if (workers <= 1) {
    for (size_t i = 0; i < n; ++i) sink.Store(i, RunExperiment(configs[i]));
  } else {
    auto worker = [&] {
      for (size_t i = sink.Claim(); i < n; i = sink.Claim()) {
        sink.Store(i, RunExperiment(configs[i]));
      }
    };
    std::vector<std::thread> pool;
    pool.reserve(static_cast<size_t>(workers));
    for (int32_t t = 0; t < workers; ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }

  std::vector<Result<ExperimentResult>> runs = sink.Take();
  // Report the lowest-indexed failure — what a serial sweep would have
  // hit first — and otherwise unwrap in input order.
  std::vector<ExperimentResult> results;
  results.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (!runs[i].ok()) return runs[i].status();
    results.push_back(*std::move(runs[i]));
  }
  return results;
}

Result<ReplicatedResult> RunReplicated(const ExperimentConfig& config,
                                       int32_t replications,
                                       int32_t threads) {
  if (replications < 1) {
    return Status::InvalidArgument("need at least one replication");
  }
  std::vector<ExperimentConfig> configs(static_cast<size_t>(replications),
                                        config);
  for (int32_t r = 0; r < replications; ++r) {
    configs[static_cast<size_t>(r)].seed =
        config.seed + static_cast<uint64_t>(r);
  }
  STAGGER_ASSIGN_OR_RETURN(std::vector<ExperimentResult> results,
                           RunMany(configs, threads));
  // Accumulate in seed order so the aggregate is bit-identical to a
  // serial sweep no matter how many threads ran the replications.
  ReplicatedResult aggregate;
  aggregate.replications = replications;
  for (const ExperimentResult& result : results) {
    aggregate.displays_per_hour.Add(result.displays_per_hour);
    aggregate.mean_startup_latency_sec.Add(result.mean_startup_latency_sec);
    aggregate.disk_utilization.Add(result.disk_utilization);
  }
  return aggregate;
}

}  // namespace stagger
