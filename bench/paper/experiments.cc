#include "paper/experiments.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <numeric>
#include <unordered_map>
#include <utility>

#include "core/interval_scheduler.h"
#include "core/logical_scheduler.h"
#include "core/low_bandwidth.h"
#include "disk/disk_array.h"
#include "disk/disk_sim.h"
#include "sim/simulator.h"
#include "storage/layout.h"
#include "tertiary/tertiary_device.h"
#include "util/rng.h"

namespace stagger::paper {
namespace {

std::vector<ExperimentResult> RunAll(
    const std::vector<ExperimentConfig>& configs) {
  auto results = RunMany(configs, kThreads);
  STAGGER_CHECK(results.ok()) << results.status();
  return *std::move(results);
}

// The 1/10-scale Table 3 system of E12, E13 and E15: 100 disks, 200
// objects of ~121 s displays, 40 stations, skewed access.
ExperimentConfig SmallSystem(Scheme scheme, uint64_t seed) {
  ExperimentConfig cfg;
  cfg.scheme = scheme;
  cfg.num_disks = 100;
  cfg.num_objects = 200;
  cfg.subobjects_per_object = 200;  // ~121 s displays
  cfg.preload_objects = 30;         // farm capacity: 100*3000/1000 = 300
  cfg.stations = 40;
  cfg.geometric_mean = 8.0;
  cfg.warmup = SimTime::Minutes(30);
  cfg.measure = SimTime::Hours(2);
  cfg.seed = seed;
  return cfg;
}

}  // namespace

bool ParseBenchArgs(int argc, char** argv, bool* csv) {
  for (int i = 1; i < argc; ++i) {
    if (csv != nullptr && std::strcmp(argv[i], "--csv") == 0) {
      *csv = true;
      continue;
    }
    std::fprintf(stderr, "unknown argument '%s'\nusage: %s%s\n", argv[i],
                 argv[0], csv != nullptr ? " [--csv]" : "");
    return false;
  }
  return true;
}

// --- E1 / E2 ------------------------------------------------------------

ExperimentConfig Fig8Config(Scheme scheme, double mean, int32_t stations,
                            uint64_t seed) {
  ExperimentConfig config;
  config.scheme = scheme;
  config.geometric_mean = mean;
  config.stations = stations;
  config.seed = seed;
  return config;
}

double Fig8Cell::ImprovementPct() const {
  return vdr.displays_per_hour <= 0.0
             ? 0.0
             : 100.0 * (striping.displays_per_hour / vdr.displays_per_hour -
                        1.0);
}

std::vector<Fig8Cell> Fig8(uint64_t seed) {
  std::vector<ExperimentConfig> configs;
  for (double mean : kFig8Means) {
    for (int32_t n : kFig8Stations) {
      configs.push_back(Fig8Config(Scheme::kSimpleStriping, mean, n, seed));
      configs.push_back(Fig8Config(Scheme::kVdr, mean, n, seed));
    }
  }
  const std::vector<ExperimentResult> results = RunAll(configs);
  std::vector<Fig8Cell> cells;
  for (size_t c = 0; c < configs.size(); c += 2) {
    cells.push_back(Fig8Cell{configs[c].geometric_mean, configs[c].stations,
                             results[c], results[c + 1]});
  }
  return cells;
}

std::array<std::array<double, 3>, 4> Table4(
    const std::vector<Fig8Cell>& fig8) {
  std::array<std::array<double, 3>, 4> table{};
  for (const Fig8Cell& cell : fig8) {
    for (size_t s = 0; s < kTable4Stations.size(); ++s) {
      for (size_t g = 0; g < kFig8Means.size(); ++g) {
        if (cell.stations == kTable4Stations[s] && cell.mean == kFig8Means[g]) {
          table[s][g] = cell.ImprovementPct();
        }
      }
    }
  }
  return table;
}

// --- E4 -----------------------------------------------------------------

FragmentSize FragmentSizeAnalysis() {
  const DiskParameters sabre = DiskParameters::Sabre1_2GB();
  FragmentSize out;
  out.t_switch_ms = sabre.TSwitch().millis();
  out.cylinder_read_ms = sabre.CylinderReadTime().millis();
  for (int64_t cyl = 1; cyl <= 8; ++cyl) {
    const SimTime service = sabre.ServiceTime(cyl);
    const DataSize buffer =
        sabre.MinBufferMemory(sabre.cylinder_capacity * cyl);
    // 90 disks / 30 clusters: a new request waits at most (R-1)
    // service times for the cluster holding X_0 (Section 3.1).
    out.rows.push_back(FragmentSizeRow{
        cyl, service.millis(), sabre.WastedBandwidthFraction(cyl),
        sabre.EffectiveBandwidthCylinders(cyl).mbps(),
        static_cast<double>(buffer.bytes()) / 1000.0,
        service.seconds() * (30 - 1)});
  }
  return out;
}

// --- E5 -----------------------------------------------------------------

namespace {

/// Submits X then Y with the same start disk on D = 10, M = 4; returns
/// Y's startup latency next to X's display time.
CollisionRow MeasureCollision(int32_t stride, AdmissionPolicy policy) {
  constexpr int32_t kDisks = 10;
  constexpr int32_t kDegree = 4;
  constexpr int64_t kSubobjects = 50;

  Simulator sim;
  auto disks = DiskArray::Create(kDisks, DiskParameters::Evaluation());
  STAGGER_CHECK(disks.ok());
  SchedulerConfig config;
  config.stride = stride;
  config.interval = SimTime::Millis(605);
  config.policy = policy;
  // Y's startup latency: the wait behind X.
  struct YLatency : DisplayListener {
    RequestId y = 0;
    double seconds = -1.0;  // never started
    void OnStarted(RequestId id, SimTime latency) override {
      if (id == y) seconds = latency.seconds();
    }
  } y_latency;
  auto sched = IntervalScheduler::Create(&sim, &*disks, config, &y_latency);
  STAGGER_CHECK(sched.ok());

  for (int i = 0; i < 2; ++i) {
    DisplayRequest req;
    req.object = i;
    req.degree = kDegree;
    req.start_disk = 0;
    req.num_subobjects = kSubobjects;
    auto id = (*sched)->Submit(req);
    STAGGER_CHECK(id.ok());
    if (i == 1) y_latency.y = *id;
  }
  sim.RunUntil(SimTime::Hours(1));
  return CollisionRow{stride, policy, y_latency.seconds,
                      (config.interval * kSubobjects).seconds()};
}

}  // namespace

Stride StrideAnalysis() {
  Stride out;
  for (int32_t k : {1, 4, 10}) {
    for (AdmissionPolicy policy :
         {AdmissionPolicy::kContiguous, AdmissionPolicy::kFragmented}) {
      out.collisions.push_back(MeasureCollision(k, policy));
    }
  }
  for (int32_t k : {1, 2, 4, 100}) {
    auto layout = StaggeredLayout::Create(100, 0, k, 4);
    STAGGER_CHECK(layout.ok());
    out.spread.push_back(SpreadRow{k, layout->UniqueDisksUsed(25)});
  }
  for (int32_t k = 1; k <= 10; ++k) {
    auto layout = StaggeredLayout::Create(10, 0, k, 4);
    STAGGER_CHECK(layout.ok());
    const std::vector<int64_t> counts = layout->FragmentsPerDisk(40);
    const auto [lo, hi] = std::minmax_element(counts.begin(), counts.end());
    out.skew.push_back(SkewRow{k, std::gcd(int64_t{10}, int64_t{k}), *lo, *hi,
                               layout->IsSkewFree(40)});
  }
  return out;
}

// --- E6 -----------------------------------------------------------------

namespace {

/// A 16-disk farm (stride 1) whose eight degree-1 blockers hold every
/// second disk for 20 intervals, then a degree-4 request X of 60
/// subobjects.
CoalescingRow RunFragmented(const char* label, AdmissionPolicy policy,
                            bool coalesce) {
  constexpr int32_t kDisks = 16;
  constexpr int64_t kBlockerLen = 20;
  constexpr int64_t kXLen = 60;

  Simulator sim;
  auto disks = DiskArray::Create(kDisks, DiskParameters::Evaluation());
  STAGGER_CHECK(disks.ok());
  SchedulerConfig config;
  config.stride = 1;
  config.interval = SimTime::Millis(605);
  config.policy = policy;
  config.coalesce = coalesce;
  config.fragmented_lookahead = 16;
  CoalescingRow row;
  row.policy = label;
  // X's startup latency, and every completion.
  struct Outcome : DisplayListener {
    explicit Outcome(CoalescingRow* r) : row(r) {}
    CoalescingRow* row;
    RequestId x = 0;
    void OnStarted(RequestId id, SimTime latency) override {
      if (id == x) row->x_startup_s = latency.seconds();
    }
    void OnCompleted(RequestId /*id*/) override { ++row->completed; }
  } outcome(&row);
  auto sched = IntervalScheduler::Create(&sim, &*disks, config, &outcome);
  STAGGER_CHECK(sched.ok());

  for (int32_t b = 0; b < 8; ++b) {
    DisplayRequest req;
    req.object = b;
    req.degree = 1;
    req.start_disk = 2 * b;
    req.num_subobjects = kBlockerLen;
    STAGGER_CHECK((*sched)->Submit(std::move(req)).ok());
  }
  DisplayRequest x;
  x.object = 100;
  x.degree = 4;
  x.start_disk = 0;
  x.num_subobjects = kXLen;
  auto x_id = (*sched)->Submit(x);
  STAGGER_CHECK(x_id.ok());
  outcome.x = *x_id;

  sim.RunUntil(SimTime::Minutes(5));
  const SchedulerMetrics& m = (*sched)->metrics();
  row.peak_buffer = m.peak_buffered_fragments;
  row.avg_buffer = m.buffered_fragments.Average(sim.Now());
  row.migrations = m.coalesce_migrations;
  row.hiccups = m.hiccups;
  return row;
}

}  // namespace

std::vector<CoalescingRow> Coalescing() {
  return {RunFragmented("contiguous-only", AdmissionPolicy::kContiguous, false),
          RunFragmented("algorithm-1 (fragmented)",
                        AdmissionPolicy::kFragmented, false),
          RunFragmented("algorithms-1+2 (coalescing)",
                        AdmissionPolicy::kFragmented, true)};
}

// --- E7 -----------------------------------------------------------------

namespace {

/// Closed-loop throughput of 30 mbps displays on a 12-disk farm of
/// 20 mbps disks over two simulated hours, at a given logical split.
/// With L = 1 each display rounds up to 2 whole disks (6 concurrent);
/// with L = 2 it takes exactly 3 half-disk units and displays pair up
/// Figure 7-style (8 concurrent).
double SimulateThroughput(int32_t logical_per_disk, int32_t stations) {
  Simulator sim;
  LogicalSchedulerConfig config;
  config.num_disks = 12;
  config.stride = 1;
  config.logical_per_disk = logical_per_disk;
  config.interval = SimTime::Millis(605);
  // Closed loop: a station asks for its next display when one completes.
  struct Stations : DisplayListener {
    std::unordered_map<RequestId, int32_t> station_of;
    std::function<void(int32_t)> request_next;
    int64_t completed = 0;
    void OnCompleted(RequestId id) override {
      const int32_t station = station_of.extract(id).mapped();
      ++completed;
      request_next(station);
    }
  } stations_loop;
  auto sched = LogicalDiskScheduler::Create(&sim, config, &stations_loop);
  STAGGER_CHECK(sched.ok()) << sched.status();

  auto alloc = AllocateLogical(Bandwidth::Mbps(30), Bandwidth::Mbps(20),
                               logical_per_disk);
  STAGGER_CHECK(alloc.ok());

  stations_loop.request_next = [&](int32_t station) {
    LogicalRequest req;
    req.object = station;
    req.units = alloc->units;
    req.start_disk = (station * 3) % config.num_disks;
    req.num_subobjects = 100;  // ~60 s displays
    // Alternate the partial-lane side so fractional displays pair up.
    req.partial_lane_first = (station % 2) == 1;
    auto id = (*sched)->Submit(req);
    STAGGER_CHECK(id.ok());
    stations_loop.station_of[*id] = station;
  };
  for (int32_t s = 0; s < stations; ++s) stations_loop.request_next(s);
  sim.RunUntil(SimTime::Hours(2));
  return static_cast<double>(stations_loop.completed) / 2.0;
}

}  // namespace

LowBandwidth LowBandwidthAnalysis() {
  const Bandwidth disk = Bandwidth::Mbps(20);
  LowBandwidth out;
  for (double mbps : {5, 10, 15, 30, 45, 50, 70, 90, 110}) {
    const Bandwidth display = Bandwidth::Mbps(mbps);
    auto l2 = AllocateLogical(display, disk, 2);
    auto l4 = AllocateLogical(display, disk, 4);
    STAGGER_CHECK(l2.ok() && l4.ok());
    out.allocations.push_back(AllocationRow{
        mbps, IntegralDiskWaste(display, disk), l2->units, l2->disks,
        l2->wasted_fraction, l2->buffer_subobject_fraction,
        l4->wasted_fraction});
  }
  out.l1_displays_per_hour = SimulateThroughput(1, 10);
  out.l2_displays_per_hour = SimulateThroughput(2, 10);
  return out;
}

// --- E8 -----------------------------------------------------------------

TapeLayout TertiaryLayout() {
  // Paper example: 80 mbps object, 40 mbps tertiary, 20 mbps disks.
  // Each burst delivers (40/80) of a subobject before the head must
  // reposition under the sequential layout.
  const DataSize fragment = DataSize::MB(1.512);
  const DataSize subobject = fragment * 4;  // 80 / 20
  const DataSize object = subobject * 3000;
  const DataSize burst = DataSize::Bytes(subobject.bytes() / 2);  // 40/80
  TapeLayout out;
  out.subobject_mb = subobject.megabytes();
  for (double repo_s : {0.1, 0.5, 1.0, 2.0, 5.0, 10.0}) {
    TertiaryParameters params;
    params.bandwidth = Bandwidth::Mbps(40);
    params.reposition = SimTime::Seconds(repo_s);
    const TertiaryDevice device(params);
    out.rows.push_back(TapeLayoutRow{
        repo_s, device.StripedLayoutTime(object).seconds(),
        device.SequentialLayoutTime(object, burst).seconds(),
        device.SequentialLayoutEfficiency(object, burst)});
  }
  const DataSize table3_object = fragment * (3000 * 5);
  out.table3_striped_s =
      TertiaryDevice(TertiaryParameters{}).StripedLayoutTime(table3_object)
          .seconds();
  out.table3_bits = table3_object.bits();
  return out;
}

// --- E10 ----------------------------------------------------------------

namespace {

/// Closed loop: `y_stations` stations watching Y (120 mbps, M = 6) and
/// `z_stations` watching Z (60 mbps, M = 3) for two hours on 36 disks.
/// The naive design reserves a whole 6-disk cluster for either.
MixedMediaRow RunMixed(bool naive, int32_t y_stations, int32_t z_stations) {
  constexpr int32_t kDisks = 36;
  constexpr int64_t kSubobjects = 120;  // ~73 s displays

  Simulator sim;
  auto disks = DiskArray::Create(kDisks, DiskParameters::Evaluation());
  STAGGER_CHECK(disks.ok());
  SchedulerConfig config;
  config.stride = naive ? 6 : 3;  // gcd with degrees stays clean
  config.interval = SimTime::Millis(605);
  MixedMediaRow row{naive, y_stations, z_stations};
  struct Station {
    int32_t id;
    bool is_y;
  };
  struct Stations : DisplayListener {
    std::unordered_map<RequestId, Station> station_of;
    std::function<void(int32_t, bool)> request_next;
    MixedMediaRow* row = nullptr;
    void OnCompleted(RequestId id) override {
      const Station s = station_of.extract(id).mapped();
      ++(s.is_y ? row->y_displays : row->z_displays);
      request_next(s.id, s.is_y);
    }
  } stations_loop;
  stations_loop.row = &row;
  auto sched = IntervalScheduler::Create(&sim, &*disks, config, &stations_loop);
  STAGGER_CHECK(sched.ok());

  stations_loop.request_next = [&](int32_t station, bool is_y) {
    DisplayRequest req;
    req.object = station;
    req.degree = is_y ? 6 : (naive ? 6 : 3);
    req.start_disk = (station * config.stride) % kDisks;
    req.num_subobjects = kSubobjects;
    auto id = (*sched)->Submit(req);
    STAGGER_CHECK(id.ok());
    stations_loop.station_of[*id] = Station{station, is_y};
  };
  for (int32_t s = 0; s < y_stations; ++s) stations_loop.request_next(s, true);
  for (int32_t s = 0; s < z_stations; ++s) {
    stations_loop.request_next(100 + s, false);
  }

  sim.RunUntil(SimTime::Hours(2));
  row.hiccups = (*sched)->metrics().hiccups;
  // Useful bandwidth actually delivered to stations, per disk.
  const double mbits =
      (static_cast<double>(row.y_displays) * 6 +
       static_cast<double>(row.z_displays) * 3) *
      static_cast<double>(kSubobjects) * DataSize::MB(1.512).megabits();
  row.useful_mbps_per_disk = mbits / kDisks / SimTime::Hours(2).seconds();
  return row;
}

}  // namespace

std::vector<MixedMediaRow> MixedMedia() {
  std::vector<MixedMediaRow> rows;
  for (const auto& [y, z] : {std::pair<int32_t, int32_t>{3, 8},
                             std::pair<int32_t, int32_t>{0, 12},
                             std::pair<int32_t, int32_t>{6, 0}}) {
    rows.push_back(RunMixed(true, y, z));
    rows.push_back(RunMixed(false, y, z));
  }
  return rows;
}

// --- E11 ----------------------------------------------------------------

namespace {

/// Runs `reads` one-cylinder reads with the given placement policy:
///  "random"   — uniform cylinders (staggered striping's steady state),
///  "half"     — uniform over half the platter (partitioned layout),
///  "adjacent" — sequential cylinders (k = D clustering).
SeekRow Drive(const DiskParameters& params, const std::string& policy,
              int reads) {
  Simulator sim;
  SimulatedDisk disk(&sim, params, /*seed=*/7);
  Rng rng(13);
  int64_t next = 0;
  for (int i = 0; i < reads; ++i) {
    int64_t cylinder = 0;
    if (policy == "random") {
      cylinder = static_cast<int64_t>(
          rng.NextBounded(static_cast<uint64_t>(params.num_cylinders - 1)));
    } else if (policy == "half") {
      cylinder = static_cast<int64_t>(
          rng.NextBounded(static_cast<uint64_t>(params.num_cylinders / 2)));
    } else {  // adjacent
      cylinder = next;
      next = (next + 1) % (params.num_cylinders - 1);
    }
    const Status st = disk.SubmitRead(cylinder, 1, nullptr);
    STAGGER_CHECK(st.ok()) << st;
  }
  sim.Run();
  return SeekRow{policy, disk.MeasuredEffectiveBandwidth().mbps(),
                 disk.service_stats().mean() * 1e3,
                 disk.service_stats().max() * 1e3};
}

}  // namespace

SeekModel SeekBudget() {
  const DiskParameters sabre = DiskParameters::Sabre1_2GB();
  SeekModel out;
  out.reads = 20000;
  for (const char* policy : {"random", "half", "adjacent"}) {
    out.rows.push_back(Drive(sabre, policy, out.reads));
  }
  out.worst_case_mbps = sabre.EffectiveBandwidthCylinders(1).mbps();
  // Average-case analytical model: avg seek + avg latency per read.
  out.average_case_mbps =
      sabre.cylinder_capacity.megabits() /
      (sabre.CylinderReadTime().seconds() +
       (sabre.avg_seek + sabre.avg_latency).seconds());
  out.transfer_mbps = sabre.transfer_rate.mbps();
  out.interval_ms = sabre.ServiceTime(1).millis();
  return out;
}

// --- E12 ----------------------------------------------------------------

PolicyAblation Ablations(uint64_t seed) {
  ExperimentConfig base = SmallSystem(Scheme::kSimpleStriping, seed);
  base.measure = SimTime::Hours(3);
  std::vector<ExperimentConfig> configs(7, base);
  configs[1].policy = AdmissionPolicy::kFragmented;
  configs[2].policy = AdmissionPolicy::kFragmented;
  configs[2].coalesce = true;
  configs[3].scheme = Scheme::kVdr;
  configs[4].scheme = Scheme::kVdr;
  configs[4].enable_replication = false;
  configs[5].preload_objects = 0;
  configs[5].warmup = SimTime::Hours(3);  // give the cold farm time to fill
  const std::vector<ExperimentResult> r = RunAll(configs);
  return PolicyAblation{r[0], r[1], r[2], r[3], r[4], r[5], r[6]};
}

// --- E13 ----------------------------------------------------------------

namespace {

// One disk lost for 30 minutes, mid-measurement.
FaultPlan SingleLoss() {
  FaultPlan plan;
  plan.FailAt(13, SimTime::Minutes(60)).RecoverAt(13, SimTime::Minutes(90));
  return plan;
}

// Three staggered outages plus short stalls across the farm.
FaultPlan Storm() {
  FaultPlan plan;
  plan.FailAt(13, SimTime::Minutes(45)).RecoverAt(13, SimTime::Minutes(75));
  plan.FailAt(47, SimTime::Minutes(60)).RecoverAt(47, SimTime::Minutes(100));
  plan.FailAt(81, SimTime::Minutes(90)).RecoverAt(81, SimTime::Minutes(110));
  plan.StallAt(5, SimTime::Minutes(50), SimTime::Seconds(30));
  plan.StallAt(29, SimTime::Minutes(70), SimTime::Seconds(45));
  plan.StallAt(62, SimTime::Minutes(95), SimTime::Seconds(30));
  return plan;
}

}  // namespace

FaultDegradation Degradation(uint64_t seed) {
  const ExperimentConfig striped = SmallSystem(Scheme::kSimpleStriping, seed);
  ExperimentConfig pause = striped;
  pause.degraded_policy = DegradedPolicy::kPause;
  // Parity + reconstruction: degraded reads re-derive the lost fragment
  // from survivors + parity inside the same interval, and failed slots
  // rebuild onto hot spares on idle bandwidth.
  ExperimentConfig reconstruct = striped;
  reconstruct.parity = true;
  reconstruct.num_spares = 2;
  reconstruct.degraded_policy = DegradedPolicy::kReconstruct;
  // VDR: the same outages become cluster failovers.
  const ExperimentConfig vdr = SmallSystem(Scheme::kVdr, seed);

  // FaultDegradation's order; the pause and reconstruct ablations skip
  // the healthy run.
  std::vector<ExperimentConfig> configs = {
      striped,     striped,     striped, pause, pause,
      reconstruct, reconstruct, vdr,     vdr,   vdr};
  for (int i : {1, 3, 5, 8}) configs[i].fault_plan = SingleLoss();
  for (int i : {2, 4, 6, 9}) configs[i].fault_plan = Storm();
  const std::vector<ExperimentResult> r = RunAll(configs);
  return FaultDegradation{r[0], r[1], r[2], r[3], r[4],
                          r[5], r[6], r[7], r[8], r[9]};
}

// --- E14 ----------------------------------------------------------------

ExperimentConfig CrowdConfig(double window_s, uint64_t seed) {
  ExperimentConfig config;
  config.scheme = Scheme::kSimpleStriping;
  config.open_arrivals = true;
  // Demand beyond the physical ceiling: one logical request every 6 s
  // is 600/hour against a ~397/hour stripe capacity.
  config.mean_interarrival = SimTime::Seconds(6);
  // A crowd spanning the whole run sends 80% of arrivals to object 0
  // (rate_multiplier 1: the *mix* is hot, the rate is the base rate).
  FlashCrowd crowd;
  crowd.start = SimTime::Zero();
  crowd.duration = SimTime::Hours(48);
  crowd.object = 0;
  crowd.hot_fraction = 0.8;
  crowd.rate_multiplier = 1.0;
  config.flash_crowds.push_back(crowd);
  config.warmup = SimTime::Hours(2);
  config.measure = SimTime::Hours(8);
  config.seed = seed;
  if (window_s >= 0.0) {
    config.batch = true;
    config.batch_window = SimTime::Seconds(window_s);
  }
  return config;
}

std::vector<ExperimentResult> Batching(uint64_t seed) {
  std::vector<ExperimentConfig> configs;
  for (double window : kBatchWindows) {
    configs.push_back(CrowdConfig(window, seed));
  }
  return RunAll(configs);
}

// --- E15 ----------------------------------------------------------------

ExperimentConfig LatentConfig(LatentVariant variant, uint64_t seed) {
  ExperimentConfig cfg = SmallSystem(Scheme::kSimpleStriping, seed);
  // Moderate load, not the E13 saturation point: a scrubber confined to
  // idle bandwidth needs idle bandwidth to exist.  (At 40-station
  // saturation every disk-slot is taken every interval and scrub
  // progress truthfully drops toward zero — that starvation behavior is
  // covered by the budget-arbiter unit tests, not measured here.)
  cfg.stations = 16;
  // A burst of media corruptions shortly after warmup: twenty cells on
  // twenty disks, spread across the subobject space.  No outages — the
  // scenario isolates the latent-error path.
  for (int32_t i = 0; i < 20; ++i) {
    const DiskId disk = (7 * i + 3) % 100;
    const int64_t row = (17 * i) % 200;
    cfg.fault_plan.LatentAt(
        disk, SimTime::Minutes(20) + SimTime::Seconds(30 * i), row, row);
  }
  // The unverified ablation ships whatever the media returns.
  if (variant != LatentVariant::kUnverified) {
    cfg.parity = true;
    cfg.num_spares = 2;
    cfg.degraded_policy = DegradedPolicy::kReconstruct;
  } else {
    cfg.degraded_policy = DegradedPolicy::kNone;
  }
  cfg.scrub = variant == LatentVariant::kScrubOn;
  return cfg;
}

LatentScrub Latent(uint64_t seed) {
  const std::vector<ExperimentResult> r =
      RunAll({LatentConfig(LatentVariant::kScrubOff, seed),
              LatentConfig(LatentVariant::kScrubOn, seed),
              LatentConfig(LatentVariant::kUnverified, seed)});
  return LatentScrub{r[0], r[1], r[2]};
}

}  // namespace stagger::paper
