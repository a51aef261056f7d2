// stagger_sim — command-line driver for the Table 3 experiment runner.
//
//   $ stagger_sim --scheme=striping --stations=64 --mean=10
//   $ stagger_sim --scheme=vdr --stations=256 --mean=43.5 --csv
//   $ stagger_sim --help
//
// Every knob of ExperimentConfig is exposed; defaults reproduce the
// paper's Table 3 system.

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <system_error>
#include <type_traits>

#include "server/experiment.h"
#include "util/rng.h"
#include "util/table.h"

namespace stagger {
namespace {

void PrintUsage() {
  std::printf(R"(stagger_sim — staggered-striping media-server simulator

Usage: stagger_sim [flags]

  --scheme=NAME       striping | staggered | vdr        [striping]
  --stations=N        closed-loop display stations      [16]
  --mean=X            geometric popularity mean         [10]
  --disks=N           number of disks D                 [1000]
  --objects=N         catalog size                      [2000]
  --subobjects=N      subobjects per object             [3000]
  --display-mbps=X    B_Display                         [100]
  --tertiary-mbps=X   B_Tertiary                        [40]
  --stride=N          stride k (staggered scheme)       [5]
  --fragmented        enable Algorithm-1 admission
  --coalesce          enable Algorithm-2 coalescing
  --no-replication    disable VDR dynamic replication
  --preload=N         objects resident at t=0           [200]
  --warmup-hours=X    excluded from throughput          [2]
  --measure-hours=X   measurement window                [10]
  --seed=N            workload seed                     [20240101]
  --replications=N    independent runs, seeds seed..seed+N-1  [1]
  --threads=N         concurrent replications           [1]
  --parity            store per-subobject parity fragments
  --spares=N          hot-spare drives (enables rebuild with --parity)
  --scrub             run the background latent-error scrubber
  --degraded=NAME     none | pause | remap | reconstruct  [remap]
  --chaos-seed=N      generate a chaos fault plan (prints it for replay)
  --chaos-mtbf-hours=X   per-disk failure MTBF           [200]
  --chaos-mttr-hours=X   mean repair/outage duration     [0.5]
  --chaos-domains=N   correlated failure domains        [0]
  --fault-plan=FILE   replay a fault plan (the text --chaos-seed prints)
  --csv               machine-readable one-line output
  --help              this text

With --replications=N > 1 the tool reports mean and sample stddev
across the runs; --threads=N runs replications concurrently.  Results
are bit-identical whatever the thread count.
)");
}

bool ParseFlag(const char* arg, const char* name, std::string* value) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0) return false;
  if (arg[len] == '\0') {
    *value = "";
    return true;
  }
  if (arg[len] != '=') return false;
  *value = arg + len + 1;
  return true;
}

// Parses the whole of `v` as a T; false when any of it is not part of
// the number, the number does not fit T, or a real is not finite (the
// SimTime and Bandwidth conversions would overflow).  `*out` is set
// only on success.
template <typename T>
bool ParseNumber(const std::string& v, T* out) {
  T parsed{};
  const char* end = v.data() + v.size();
  const auto [ptr, ec] = std::from_chars(v.data(), end, parsed);
  if (ec != std::errc() || ptr != end) return false;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(parsed)) return false;
  }
  *out = parsed;
  return true;
}

int Run(int argc, char** argv) {
  ExperimentConfig cfg;
  bool csv = false;
  int32_t replications = 1;
  int32_t threads = 1;
  bool chaos = false;
  uint64_t chaos_seed = 0;
  double chaos_mtbf_hours = 200.0;
  double chaos_mttr_hours = 0.5;
  int32_t chaos_domains = 0;
  bool replay = false;
  std::string fault_plan_file;
  for (int i = 1; i < argc; ++i) {
    std::string v;
    bool valid = true;
    auto number = [&v, &valid](auto* out) {
      valid = ParseNumber(v, out);
    };
    double real = 0.0;  // for flags whose field takes a unit
    if (ParseFlag(argv[i], "--help", &v)) {
      PrintUsage();
      return 0;
    } else if (ParseFlag(argv[i], "--scheme", &v)) {
      if (v == "striping") {
        cfg.scheme = Scheme::kSimpleStriping;
      } else if (v == "staggered") {
        cfg.scheme = Scheme::kStaggered;
      } else if (v == "vdr") {
        cfg.scheme = Scheme::kVdr;
      } else {
        std::fprintf(stderr, "unknown scheme '%s'\n", v.c_str());
        return 2;
      }
    } else if (ParseFlag(argv[i], "--stations", &v)) {
      number(&cfg.stations);
    } else if (ParseFlag(argv[i], "--mean", &v)) {
      number(&cfg.geometric_mean);
    } else if (ParseFlag(argv[i], "--disks", &v)) {
      number(&cfg.num_disks);
    } else if (ParseFlag(argv[i], "--objects", &v)) {
      number(&cfg.num_objects);
    } else if (ParseFlag(argv[i], "--subobjects", &v)) {
      number(&cfg.subobjects_per_object);
    } else if (ParseFlag(argv[i], "--display-mbps", &v)) {
      number(&real);
      cfg.display_bandwidth = Bandwidth::Mbps(real);
    } else if (ParseFlag(argv[i], "--tertiary-mbps", &v)) {
      number(&real);
      cfg.tertiary.bandwidth = Bandwidth::Mbps(real);
    } else if (ParseFlag(argv[i], "--stride", &v)) {
      number(&cfg.stride);
    } else if (ParseFlag(argv[i], "--fragmented", &v)) {
      cfg.policy = AdmissionPolicy::kFragmented;
    } else if (ParseFlag(argv[i], "--coalesce", &v)) {
      cfg.policy = AdmissionPolicy::kFragmented;
      cfg.coalesce = true;
    } else if (ParseFlag(argv[i], "--no-replication", &v)) {
      cfg.enable_replication = false;
    } else if (ParseFlag(argv[i], "--preload", &v)) {
      number(&cfg.preload_objects);
    } else if (ParseFlag(argv[i], "--warmup-hours", &v)) {
      number(&real);
      cfg.warmup = SimTime::Hours(real);
    } else if (ParseFlag(argv[i], "--measure-hours", &v)) {
      number(&real);
      cfg.measure = SimTime::Hours(real);
    } else if (ParseFlag(argv[i], "--seed", &v)) {
      number(&cfg.seed);
    } else if (ParseFlag(argv[i], "--replications", &v)) {
      number(&replications);
    } else if (ParseFlag(argv[i], "--threads", &v)) {
      number(&threads);
    } else if (ParseFlag(argv[i], "--parity", &v)) {
      cfg.parity = true;
    } else if (ParseFlag(argv[i], "--spares", &v)) {
      number(&cfg.num_spares);
    } else if (ParseFlag(argv[i], "--scrub", &v)) {
      cfg.scrub = true;
    } else if (ParseFlag(argv[i], "--degraded", &v)) {
      if (v == "none") {
        cfg.degraded_policy = DegradedPolicy::kNone;
      } else if (v == "pause") {
        cfg.degraded_policy = DegradedPolicy::kPause;
      } else if (v == "remap") {
        cfg.degraded_policy = DegradedPolicy::kRemapOrPause;
      } else if (v == "reconstruct") {
        cfg.degraded_policy = DegradedPolicy::kReconstruct;
      } else {
        std::fprintf(stderr, "unknown degraded policy '%s'\n", v.c_str());
        return 2;
      }
    } else if (ParseFlag(argv[i], "--chaos-seed", &v)) {
      chaos = true;
      number(&chaos_seed);
    } else if (ParseFlag(argv[i], "--chaos-mtbf-hours", &v)) {
      chaos = true;
      number(&chaos_mtbf_hours);
    } else if (ParseFlag(argv[i], "--chaos-mttr-hours", &v)) {
      chaos = true;
      number(&chaos_mttr_hours);
    } else if (ParseFlag(argv[i], "--chaos-domains", &v)) {
      chaos = true;
      number(&chaos_domains);
    } else if (ParseFlag(argv[i], "--fault-plan", &v)) {
      replay = true;
      fault_plan_file = v;
    } else if (ParseFlag(argv[i], "--csv", &v)) {
      csv = true;
    } else {
      std::fprintf(stderr, "unknown flag '%s' (try --help)\n", argv[i]);
      return 2;
    }
    if (!valid) {
      std::fprintf(stderr, "invalid number in '%s' (try --help)\n", argv[i]);
      return 2;
    }
  }

  if (Status st = cfg.Validate(); !st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 1;
  }
  // Checked here, not left to the run: a count below one would silently
  // fall through to a single unreplicated run.
  if (replications < 1 || threads < 1) {
    const Status st = Status::InvalidArgument(
        replications < 1 ? "replications must be >= 1" : "threads must be >= 1");
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 1;
  }
  if (chaos && replay) {
    std::fprintf(stderr,
                 "error: --fault-plan replays a plan; it takes no --chaos-* "
                 "flag\n");
    return 1;
  }
  if (replay) {
    std::ifstream in(fault_plan_file);
    std::ostringstream text;
    text << in.rdbuf();
    if (!in) {
      std::fprintf(stderr, "error: cannot read fault plan '%s'\n",
                   fault_plan_file.c_str());
      return 1;
    }
    auto plan = FaultPlan::Parse(text.str());
    if (!plan.ok()) {
      std::fprintf(stderr, "error: %s: %s\n", fault_plan_file.c_str(),
                   plan.status().ToString().c_str());
      return 1;
    }
    cfg.fault_plan = *std::move(plan);
  }
  if (chaos) {
    // Seeded chaos plan over the whole run; the serialized form is
    // printed so any run can be replayed exactly with --fault-plan.
    ChaosParams cp;
    cp.horizon = cfg.warmup + cfg.measure;
    cp.mtbf = SimTime::Hours(chaos_mtbf_hours);
    cp.mttr = SimTime::Hours(chaos_mttr_hours);
    cp.stall_mtbf = SimTime::Hours(chaos_mtbf_hours);
    cp.mean_stall = SimTime::Hours(chaos_mttr_hours / 4.0);
    cp.degrade_mtbf = SimTime::Hours(chaos_mtbf_hours);
    cp.mean_degrade = SimTime::Hours(chaos_mttr_hours);
    cp.latent_mtbf = SimTime::Hours(chaos_mtbf_hours / 2.0);
    cp.subobject_space = cfg.subobjects_per_object;
    cp.num_domains = chaos_domains;
    if (Status st = cp.Validate(cfg.num_disks); !st.ok()) {
      std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
      return 1;
    }
    Rng rng(chaos_seed);
    cfg.fault_plan = FaultPlan::Generate(&rng, cfg.num_disks, cp);
    std::fprintf(stderr, "# chaos plan (seed %llu) — replayable:\n%s",
                 static_cast<unsigned long long>(chaos_seed),
                 cfg.fault_plan.ToString().c_str());
  }

  if (replications > 1) {
    auto replicated = RunReplicated(cfg, replications, threads);
    if (!replicated.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   replicated.status().ToString().c_str());
      return 1;
    }
    if (csv) {
      Table table({"scheme", "stations", "mean", "replications", "threads",
                   "displays_per_hour_mean", "displays_per_hour_stddev",
                   "latency_s_mean", "latency_s_stddev", "disk_util_mean",
                   "disk_util_stddev"});
      table.AddRowValues(SchemeName(cfg.scheme),
                         static_cast<int64_t>(cfg.stations),
                         cfg.geometric_mean,
                         static_cast<int64_t>(replicated->replications),
                         static_cast<int64_t>(threads),
                         replicated->displays_per_hour.mean(),
                         replicated->displays_per_hour.stddev(),
                         replicated->mean_startup_latency_sec.mean(),
                         replicated->mean_startup_latency_sec.stddev(),
                         replicated->disk_utilization.mean(),
                         replicated->disk_utilization.stddev());
      table.PrintCsv(std::cout);
      return 0;
    }
    std::printf("scheme                %s\n", SchemeName(cfg.scheme).c_str());
    std::printf("stations              %d\n", cfg.stations);
    std::printf("popularity mean       %.1f\n", cfg.geometric_mean);
    std::printf("replications          %d (seeds %llu..%llu, %d thread%s)\n",
                replicated->replications,
                static_cast<unsigned long long>(cfg.seed),
                static_cast<unsigned long long>(
                    cfg.seed + static_cast<uint64_t>(replications) - 1),
                threads, threads == 1 ? "" : "s");
    std::printf("throughput            %.1f +/- %.1f displays/hour\n",
                replicated->displays_per_hour.mean(),
                replicated->displays_per_hour.stddev());
    std::printf("mean startup latency  %.1f +/- %.1f s\n",
                replicated->mean_startup_latency_sec.mean(),
                replicated->mean_startup_latency_sec.stddev());
    std::printf("disk utilization      %.1f +/- %.1f %%\n",
                100.0 * replicated->disk_utilization.mean(),
                100.0 * replicated->disk_utilization.stddev());
    return 0;
  }

  auto result = RunExperiment(cfg);
  if (!result.ok()) {
    std::fprintf(stderr, "error: %s\n", result.status().ToString().c_str());
    return 1;
  }

  if (csv) {
    Table table({"scheme", "stations", "mean", "displays_per_hour",
                 "mean_latency_s", "disk_util", "tertiary_util",
                 "materializations", "replications", "evictions", "hiccups",
                 "resident"});
    table.AddRowValues(SchemeName(cfg.scheme),
                       static_cast<int64_t>(cfg.stations), cfg.geometric_mean,
                       result->displays_per_hour,
                       result->mean_startup_latency_sec,
                       result->disk_utilization, result->tertiary_utilization,
                       result->materializations, result->replications,
                       result->evictions, result->hiccups,
                       static_cast<int64_t>(result->resident_objects_end));
    table.PrintCsv(std::cout);
    return 0;
  }

  std::printf("scheme                %s\n", SchemeName(cfg.scheme).c_str());
  std::printf("stations              %d\n", cfg.stations);
  std::printf("popularity mean       %.1f (unique referenced: %lld)\n",
              cfg.geometric_mean,
              static_cast<long long>(result->unique_objects_referenced));
  std::printf("throughput            %.1f displays/hour\n",
              result->displays_per_hour);
  std::printf("completed displays    %lld\n",
              static_cast<long long>(result->displays_completed));
  std::printf("mean startup latency  %.1f s\n",
              result->mean_startup_latency_sec);
  std::printf("disk utilization      %.1f %%\n",
              100.0 * result->disk_utilization);
  std::printf("tertiary utilization  %.1f %% (%lld materializations, queue "
              "%lld)\n",
              100.0 * result->tertiary_utilization,
              static_cast<long long>(result->materializations),
              static_cast<long long>(result->tertiary_queue_end));
  std::printf("replications          %lld\n",
              static_cast<long long>(result->replications));
  std::printf("evictions             %lld\n",
              static_cast<long long>(result->evictions));
  std::printf("resident objects      %d\n", result->resident_objects_end);
  std::printf("hiccups               %lld\n",
              static_cast<long long>(result->hiccups));
  if (cfg.scheme != Scheme::kVdr &&
      cfg.policy == AdmissionPolicy::kFragmented) {
    std::printf("fragmented admissions %lld (%lld coalesce migrations)\n",
                static_cast<long long>(result->fragmented_admissions),
                static_cast<long long>(result->coalesce_migrations));
  }
  if (!cfg.fault_plan.events().empty()) {
    std::printf("degraded reads        %lld (+%lld reconstructed)\n",
                static_cast<long long>(result->degraded_reads),
                static_cast<long long>(result->reconstructed_reads));
    std::printf("degraded intervals    %lld disk-intervals\n",
                static_cast<long long>(result->degraded_disk_intervals));
    std::printf("latent errors         %lld injected, %lld detected, %lld "
                "repaired, %lld unrepaired\n",
                static_cast<long long>(result->latent_errors_injected),
                static_cast<long long>(result->latent_errors_detected),
                static_cast<long long>(result->latent_errors_repaired),
                static_cast<long long>(result->latent_errors_unrepaired));
    std::printf("corrupt frames        %lld delivered, %lld caught\n",
                static_cast<long long>(result->corrupt_frames_delivered),
                static_cast<long long>(result->corrupt_reads_detected));
    std::printf("mean time to repair   %.1f s\n",
                result->mean_time_to_repair_sec);
  }
  if (cfg.num_spares > 0) {
    std::printf("rebuilds              %lld completed, %lld fragments rebuilt\n",
                static_cast<long long>(result->rebuilds_completed),
                static_cast<long long>(result->fragments_rebuilt));
  }
  if (cfg.scrub) {
    std::printf("scrub                 %lld stripes verified, %lld passes\n",
                static_cast<long long>(result->scrub_stripes_verified),
                static_cast<long long>(result->scrub_passes));
    std::printf("background budget     %lld reads granted, %lld violations\n",
                static_cast<long long>(result->background_reads_granted),
                static_cast<long long>(result->background_budget_violations));
  }
  return result->hiccups == 0 ? 0 : 1;
}

}  // namespace
}  // namespace stagger

int main(int argc, char** argv) { return stagger::Run(argc, argv); }
