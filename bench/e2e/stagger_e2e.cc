// stagger_e2e — one process runs one workload once and prints one JSON
// line; bench/e2e/run.py drives it.
//
//   stagger_e2e --workload=NAME --seed=N [--smoke] [--trace-out=FILE]
//   stagger_e2e --workload=NAME --seed=N --check
//
// A run reports host times ("host"), simulated outcomes ("model"), and,
// with --trace-out, per-layer span times ("trace"), and writes the span
// ring to FILE as Chrome trace-event JSON.  --check is the correctness
// gate: at shortened horizons, for every cell, the benchmark's wiring
// must reproduce RunExperiment field for field, the traced run must
// reproduce the untraced one, and the run invariants must hold.  The
// exit code is 0 only when every check passed.

#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "trace.h"
#include "wiring.h"
#include "workloads.h"

namespace stagger::e2e {
namespace {

// Raw spans kept for the Chrome trace: the most recent 2^16.
constexpr size_t kTraceRing = size_t{1} << 16;

class JsonObject {
 public:
  void Number(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    Raw(key, buf);
  }
  void String(const std::string& key, const std::string& value) {
    Raw(key, Quote(value));
  }
  void Strings(const std::string& key, const std::vector<std::string>& values) {
    std::string list = "[";
    for (size_t i = 0; i < values.size(); ++i) {
      list += (i == 0 ? "" : ",") + Quote(values[i]);
    }
    Raw(key, list + "]");
  }
  void Raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ",") + Quote(key) + ":" + json;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  static std::string Quote(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        out += ' ';
      } else {
        out += c;
      }
    }
    return out + "\"";
  }
  std::string body_;
};

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Mean of the tracker's samples.  QuantileTracker exposes samples only
/// through Quantile(); q = i / (n - 1) lands on the i-th order statistic.
double Mean(const QuantileTracker& t) {
  const int64_t n = t.count();
  if (n < 2) return n == 0 ? 0.0 : t.p50();
  double sum = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    sum += t.Quantile(static_cast<double>(i) / static_cast<double>(n - 1));
  }
  return sum / static_cast<double>(n);
}

/// Peak resident set of this process image.  ru_maxrss would do, but
/// Linux carries it across exec, so a child of a larger parent reports
/// the parent's peak; VmHWM starts afresh with the new image.
double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f != nullptr) {
    char line[256];
    long kib = -1;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
    }
    std::fclose(f);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Combined outputs of a workload's cells.
struct WorkloadRun {
  Tally model;
  Tally probe;
  Tally host;
  QuantileTracker startup_sec;
  std::vector<std::string> errors;
};

JsonObject ModelMetrics(const WorkloadRun& run) {
  const Tally& m = run.model;
  const double striped = m["cells.striped"];
  JsonObject j;
  j.Number("displays_per_hour",
           Ratio(m["completed_in_window"], m["window_hours"]));
  j.Number("uninterrupted_frac", 1.0 - Ratio(m["interrupted"], m["requests"]));
  j.Number("sim.events", m["sim.events"]);
  j.Number("sim.batches", m["sim.batches"]);
  j.Number("sim.events_per_batch", Ratio(m["sim.events"], m["sim.batches"]));
  for (const char* key :
       {"core.ticks", "core.admitted", "core.completed",
        "core.fragmented_admissions", "core.coalesce_migrations",
        "core.degraded_reads", "core.reconstructed_reads",
        "core.streams_paused", "core.streams_resumed",
        "core.peak_buffered_fragments", "core.hiccups", "server.requests",
        "server.materializations_started", "server.landings_deferred",
        "storage.evictions", "storage.resident_end", "tertiary.completed",
        "workload.window_joins", "workload.piggyback_joins",
        "workload.vcr_scans", "workload.flash_redirects",
        "disk.degraded_disk_intervals", "disk.latent_injected",
        "disk.latent_repaired", "disk.latent_unrepaired", "fault.events",
        "rebuild.fragments_rebuilt", "rebuild.completed",
        "scrub.stripes_verified", "scrub.passes", "background.reads_granted",
        "background.violations", "baseline.replications",
        "baseline.evictions"}) {
    j.Number(key, m[key]);
  }
  j.Number("core.queue_len_mean", Ratio(m["core.queue_len_mean_sum"], striped));
  j.Number("server.resident_hit_ratio",
           Ratio(m["server.resident_hits"], m["server.requests"]));
  j.Number("tertiary.utilization",
           Ratio(m["tertiary.utilization_sum"], m["cells"]));
  j.Number("workload.requests", m["requests"]);
  j.Number("workload.startup_samples", m["startup_samples"]);
  j.Number("workload.startup_p50_s", run.startup_sec.p50());
  j.Number("workload.startup_mean_s", Mean(run.startup_sec));
  j.Number("workload.startup_p99_s", run.startup_sec.p99());
  // Physical streams per logical request through the batcher; 1 when
  // nothing batches.
  j.Number("workload.batch_streams_per_request",
           m["workload.batch_requests"] > 0.0
               ? m["workload.batch_streams"] / m["workload.batch_requests"]
               : 1.0);
  j.Number("disk.utilization", Ratio(m["disk.utilization_sum"], striped));
  j.Number("disk.mttr_s", Ratio(m["disk.repair_s_sum"], m["disk.repairs"]));
  j.Number("baseline.cluster_utilization",
           Ratio(m["baseline.cluster_utilization_sum"], m["cells.vdr"]));
  return j;
}

JsonObject TraceMetrics(const WorkloadRun& run, const Tracer& tracer) {
  // Only sampled ticks are bracketed: scale their self time up to all
  // ticks, and take the unbracketed ticks' share out of the time no span
  // covers.  Where ticks are nearly all of the run (coalesce_d1k) the
  // estimate's error can exceed the remainder; read that as zero.
  const double sampled_tick_s = tracer.self_s(Layer::kTick);
  const double tick_s = sampled_tick_s *
                        Ratio(run.model["core.ticks"], run.probe["ticks"]);
  const double other_s = std::max(
      0.0, run.host["run_s"] - tracer.covered_s() - (tick_s - sampled_tick_s));
  JsonObject j;
  j.Number("sim.other_s", other_s);
  j.Number("sim.ns_per_event", Ratio(other_s * 1e9, run.model["sim.events"]));
  j.Number("core.tick_s", tick_s);
  j.Number("core.tick_us_p50", tracer.tick_self_us().p50());
  j.Number("core.tick_us_p99", tracer.tick_self_us().p99());
  j.Number("core.ns_per_stream_tick",
           Ratio(sampled_tick_s * 1e9, run.probe["active_streams"]));
  j.Number("core.active_streams_mean",
           Ratio(run.probe["active_streams"], run.probe["ticks"]));
  j.Number("core.idle_vdisks_mean",
           Ratio(run.probe["idle_vdisks"], run.probe["ticks"]));
  j.Number("server.request_s", tracer.self_s(Layer::kRequest));
  j.Number("server.landing_s", tracer.self_s(Layer::kLanding));
  j.Number("tertiary.enqueues", run.probe["tertiary.enqueues"]);
  j.Number("tertiary.enqueue_s", tracer.self_s(Layer::kEnqueue));
  j.Number("tertiary.queue_mean",
           Ratio(run.probe["tertiary.queue_mean_sum"], run.model["cells"]));
  j.Number("workload.callback_s", tracer.self_s(Layer::kCallback));
  j.Number("min_self_ns", static_cast<double>(tracer.min_self_ns()));
  return j;
}

int Check(const std::string& workload, uint64_t seed,
          const std::vector<ExperimentConfig>& cells) {
  std::vector<std::string> errors;
  auto fail = [&](size_t cell, const std::string& what) {
    errors.push_back("cell " + std::to_string(cell) + ": " + what);
  };
  for (size_t i = 0; i < cells.size(); ++i) {
    Result<ExperimentResult> reference = RunExperiment(cells[i]);
    Result<CellRun> untraced = RunCell(cells[i], nullptr);
    Tracer tracer(1024);
    Result<CellRun> traced = RunCell(cells[i], &tracer);
    if (!reference.ok() || !untraced.ok() || !traced.ok()) {
      const Status bad = !reference.ok() ? reference.status()
                         : !untraced.ok() ? untraced.status()
                                          : traced.status();
      fail(i, "run failed: " + bad.ToString());
      continue;
    }
    for (const std::string& field : DiffResults(*reference, untraced->result)) {
      fail(i, "wiring differs from RunExperiment on " + field);
    }
    for (const std::string& field :
         DiffResults(untraced->result, traced->result)) {
      fail(i, "traced run differs on " + field);
    }
    for (const std::string& key : untraced->model.DifferingKeys(traced->model)) {
      fail(i, "traced run differs on " + key);
    }
    if (tracer.min_self_ns() < 0) fail(i, "negative span self time");
    for (const std::string& e : untraced->errors) fail(i, e);
    for (const std::string& e : traced->errors) fail(i, "traced: " + e);
  }
  JsonObject j;
  j.String("workload", workload);
  j.Raw("seed", std::to_string(seed));
  j.String("mode", "check");
  j.Number("cells", static_cast<double>(cells.size()));
  j.Raw("ok", errors.empty() ? "true" : "false");
  j.Strings("errors", errors);
  std::printf("%s\n", j.str().c_str());
  return errors.empty() ? 0 : 1;
}

// A p99 means little with fewer samples than this.
constexpr int64_t kMinStartupSamples = 1000;

int Run(const std::string& workload, uint64_t seed,
        const std::vector<ExperimentConfig>& cells, bool shortened,
        const std::string& trace_out) {
  std::unique_ptr<Tracer> tracer;
  if (!trace_out.empty()) tracer = std::make_unique<Tracer>(kTraceRing);
  WorkloadRun run;
  for (const ExperimentConfig& cell : cells) {
    Result<CellRun> r = RunCell(cell, tracer.get());
    if (!r.ok()) {
      std::fprintf(stderr, "error: %s\n", r.status().ToString().c_str());
      return 1;
    }
    run.model.Merge(r->model);
    run.probe.Merge(r->probe);
    run.host.Merge(r->host);
    run.startup_sec.Merge(r->startup_sec);
    run.errors.insert(run.errors.end(), r->errors.begin(), r->errors.end());
  }
  if (!shortened && run.startup_sec.count() < kMinStartupSamples) {
    run.errors.push_back("only " + std::to_string(run.startup_sec.count()) +
                         " startup samples for a p99");
  }

  JsonObject host;
  for (const char* key : {"setup_s", "run_s", "setup.catalog_s",
                          "setup.disks_s", "setup.tertiary_s",
                          "setup.server_s"}) {
    host.Number(key, run.host[key]);
  }
  host.Number("peak_rss_mb", PeakRssMb());

  JsonObject j;
  j.String("workload", workload);
  j.Raw("seed", std::to_string(seed));
  j.Raw("traced", tracer ? "true" : "false");
  j.Raw("host", host.str());
  j.Raw("model", ModelMetrics(run).str());
  if (tracer) {
    j.Raw("trace", TraceMetrics(run, *tracer).str());
    if (!tracer->WriteChromeTrace(trace_out)) {
      run.errors.push_back("cannot write " + trace_out);
    }
  }
  j.Raw("ok", run.errors.empty() ? "true" : "false");
  j.Strings("errors", run.errors);
  std::printf("%s\n", j.str().c_str());
  return run.errors.empty() ? 0 : 1;
}

bool Flag(const char* arg, const char* name, std::string* value) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0) return false;
  if (arg[len] == '\0') {
    value->clear();
    return true;
  }
  if (arg[len] != '=') return false;
  *value = arg + len + 1;
  return true;
}

int Main(int argc, char** argv) {
  std::string workload;
  std::string seed_text = "20240101";
  std::string trace_out;
  bool check = false;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (Flag(argv[i], "--workload", &v)) {
      workload = v;
    } else if (Flag(argv[i], "--seed", &v)) {
      seed_text = v;
    } else if (Flag(argv[i], "--trace-out", &v)) {
      trace_out = v;
    } else if (Flag(argv[i], "--check", &v)) {
      check = true;
    } else if (Flag(argv[i], "--smoke", &v)) {
      smoke = true;
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", argv[i]);
      return 2;
    }
  }
  errno = 0;
  const uint64_t seed = std::strtoull(seed_text.c_str(), nullptr, 10);
  if (seed_text.empty() ||
      seed_text.find_first_not_of("0123456789") != std::string::npos ||
      errno == ERANGE) {
    std::fprintf(stderr, "--seed needs a non-negative 64-bit integer\n");
    return 2;
  }
  Result<std::vector<ExperimentConfig>> cells =
      MakeWorkload(workload, seed, check || smoke);
  if (!cells.ok()) {
    std::fprintf(stderr, "%s\n", cells.status().ToString().c_str());
    return 2;
  }
  return check ? Check(workload, seed, *cells)
               : Run(workload, seed, *cells, smoke, trace_out);
}

}  // namespace
}  // namespace stagger::e2e

int main(int argc, char** argv) { return stagger::e2e::Main(argc, argv); }
