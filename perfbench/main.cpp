// perfbench: the SAGE simulator benchmark.
//
//   sage_perfbench --workload <bulk_stage|geo_stream|sharded_plane>
//                  --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//
// Repeats the workload's batch job for --seconds of wall time (after one
// warm-up repetition that is checked but not timed) and prints, as its last
// stdout line, one JSON object: correctness, operations attempted and
// failed, and the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). README.md defines every metric.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "meter.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

#if defined(__OPTIMIZE__) && defined(NDEBUG)
constexpr bool kOptimisedBuild = true;
#else
constexpr bool kOptimisedBuild = false;
#endif

/// Repetitions of each kind a run needs at least, and the slice samples
/// the slice p99 needs (ten beyond it).
constexpr std::size_t kMinReps = 3;
constexpr std::size_t kMinSlices = 1000;
/// Hard stop for the repetition loop, well inside the 180 s run limit.
constexpr double kMaxLoopSeconds = 120.0;

struct Metric {
  const char* name;
  const char* unit;
  const char* better;
};

const Metric kEndToEnd[] = {
    {"wall_s", "s", "lower"},          {"cpu_s", "s", "lower"},
    {"setup_s", "s", "lower"},         {"peak_rss_mb", "MB", "lower"},
    {"ops_per_wall_s", "1/s", "higher"}, {"slice_ms_p50", "ms", "lower"},
    {"slice_ms_p99", "ms", "lower"},   {"ok_ratio", "ratio", "higher"},
};

const Metric kPerLayer[] = {
    {"simcore.events_scheduled", "count", "lower"},
    {"simcore.events_fired", "count", "lower"},
    {"simcore.events_cancelled", "count", "lower"},
    {"simcore.cancelled_ratio", "ratio", "lower"},
    {"cloud.flows_started", "count", "lower"},
    {"cloud.settle_rounds", "count", "lower"},
    {"cloud.settle_flows", "count", "lower"},
    {"cloud.settles_per_flow", "ratio", "lower"},
    {"cloud.bytes_moved_gb", "GB", "lower"},
    {"net.transfers_started", "count", "lower"},
    {"net.chunks_delivered", "count", "lower"},
    {"net.retransmissions", "count", "lower"},
    {"net.hop_failures", "count", "lower"},
    {"control.send_calls", "count", "lower"},
    {"control.send_us_p50", "us", "lower"},
    {"control.send_us_p99", "us", "lower"},
    {"control.send_s_total", "s", "lower"},
    {"monitor.snapshots_cached", "count", "higher"},
    {"monitor.snapshots_rebuilt", "count", "lower"},
    {"sched.plan_calls", "count", "lower"},
    {"sched.plan_cache_hit_ratio", "ratio", "higher"},
    {"model.resolve_cache_hit_ratio", "ratio", "higher"},
    {"sched.replans_skipped", "count", "higher"},
    {"stream.records_produced", "count", "higher"},
    {"stream.records_consumed", "count", "lower"},
    {"stream.fused_stages", "count", "lower"},
    {"stream.wan_batches", "count", "lower"},
    {"stream.wan_mb", "MB", "lower"},
    {"stream.backlog_end", "count", "lower"},
    {"loop.run_s", "s", "lower"},
    {"loop.self_s", "s", "lower"},
    {"loop.slices", "count", "higher"},
    {"loop.accounted_ratio", "ratio", "higher"},
    {"shard.windows", "count", "lower"},
    {"shard.cross_posts", "count", "lower"},
    {"shard.cpu_per_wall", "ratio", "higher"},
    {"shard.serial_wall_s", "s", "lower"},
    {"shard.parallel_wall_s", "s", "lower"},
    {"shard.parallel_speedup", "ratio", "higher"},
    {"chaos.faults_applied", "count", "higher"},
    {"chaos.reverts_applied", "count", "higher"},
    {"outcome.makespan_s", "s", "lower"},
    {"outcome.cost_usd", "USD", "lower"},
    {"outcome.sends_ok", "count", "higher"},
    {"outcome.sends_failed", "count", "lower"},
    {"outcome.pred_err_p50", "ratio", "lower"},
    {"outcome.sink_latency_p50_ms", "ms", "lower"},
    {"outcome.sink_latency_p99_ms", "ms", "lower"},
    {"trace.overhead_ratio", "ratio", "lower"},
};

struct WorkloadEntry {
  const char* name;
  WorkloadFn fn;
  bool sharded;
};

const WorkloadEntry kWorkloads[] = {
    {"bulk_stage", bulk_stage, false},
    {"geo_stream", geo_stream, false},
    {"sharded_plane", sharded_plane, true},
};

// kPlain repetitions give the end-to-end metrics, kTraced the per-layer
// ones; kParallel (sharded_plane only) runs the lanes on the worker pool.
enum class Kind { kWarm, kPlain, kTraced, kParallel };

struct Rep {
  Kind kind = Kind::kPlain;
  RepTiming timing;
  RepResult result;
  std::size_t span_from = 0;  // this repetition's spans in the meter's log
  std::size_t span_to = 0;
  std::uint64_t failed = 0;
};

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (xs[hi] - xs[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& xs) { return quantile(xs, 0.5); }

template <typename F>
std::vector<double> collect(const std::vector<const Rep*>& reps, F&& f) {
  std::vector<double> out;
  for (const Rep* r : reps) out.push_back(f(*r));
  return out;
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "sage_perfbench: %s\nusage: sage_perfbench --workload "
               "<bulk_stage|geo_stream|sharded_plane> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-out <file>]\n",
               msg);
  return 2;
}

int run(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const char* val = argv[++i];
    if (arg == "--workload") {
      workload = val;
    } else if (arg == "--seed") {
      seed = std::strtoull(val, nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::strtod(val, nullptr);
    } else if (arg == "--trace") {
      trace = std::atoi(val);
    } else if (arg == "--trace-out") {
      trace_out = val;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  const WorkloadEntry* entry = nullptr;
  for (const WorkloadEntry& w : kWorkloads) {
    if (workload == w.name) entry = &w;
  }
  if (entry == nullptr) return usage(("unknown workload '" + workload + "'").c_str());
  if (!(seconds > 0.0) || (trace != 0 && trace != 1)) return usage("bad --seconds or --trace");

  const std::string flags = PERFBENCH_FLAGS;
  if (!kOptimisedBuild || flags.find("-O") == std::string::npos ||
      flags.find("-DNDEBUG") == std::string::npos) {
    std::fprintf(stderr,
                 "sage_perfbench: refusing to time an unoptimised or assert-enabled "
                 "build (flags: %s)\n",
                 flags.c_str());
    return 3;
  }

  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  const std::size_t workers = entry->sharded ? std::min<std::size_t>(kShardLanes, nproc) : 0;
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n", entry->name,
              static_cast<unsigned long long>(seed), seconds, trace);
  std::printf("# build: compiler=\"%s\" flags=\"%s\" nproc=%u timed_threads=1 "
              "pool_workers=%zu lanes=%zu\n",
              PERFBENCH_COMPILER, flags.c_str(), nproc, workers,
              entry->sharded ? kShardLanes : std::size_t{1});

  std::vector<Kind> cycle = {Kind::kPlain};
  if (trace == 1) cycle.push_back(Kind::kTraced);
  if (trace == 1 && entry->sharded) cycle.push_back(Kind::kParallel);

  Meter meter;
  std::vector<Rep> reps;
  std::uint64_t ref_fingerprint = 0;
  std::optional<std::map<std::string, double>> ref_counts;
  std::uint64_t last_attempted = 1;
  std::vector<std::string> problems;

  const auto run_rep = [&](Kind kind) {
    Rep rep;
    rep.kind = kind;
    RepOptions opts;
    opts.seed = seed;
    opts.traced = kind == Kind::kTraced;
    opts.pool_workers = kind == Kind::kParallel ? workers : 0;
    meter.begin_rep(reps.size(), opts.traced);
    rep.span_from = meter.spans().size();
    try {
      rep.result = entry->fn(opts, meter);
      last_attempted = rep.result.ops_attempted;
    } catch (const std::exception& e) {
      rep.result.ops_attempted = last_attempted;
      rep.result.violations.push_back(std::string("exception: ") + e.what());
    }
    rep.timing = meter.end_rep();
    RepResult& r = rep.result;
    // Determinism: every repetition of a seed, traced or not, with lanes
    // inline or on the pool, must produce the same simulated results.
    if (reps.empty()) {
      ref_fingerprint = r.fingerprint;
    } else if (r.fingerprint != ref_fingerprint) {
      r.violations.push_back("outcome fingerprint differs from the first repetition");
    }
    if (kind == Kind::kTraced) {
      if (!ref_counts) {
        ref_counts = r.counts;
      } else if (r.counts != *ref_counts) {
        r.violations.push_back("per-layer counts differ between traced repetitions");
      }
    }
    rep.span_to = meter.spans().size();
    rep.failed = r.violations.empty() ? r.ops_attempted - r.ops_reported : r.ops_attempted;
    for (const std::string& v : r.violations) problems.push_back(v);
    reps.push_back(std::move(rep));
  };

  run_rep(Kind::kWarm);
  const double start = wall_now();
  std::map<Kind, std::size_t> done;
  std::size_t slices = 0;
  for (std::size_t i = 0;; ++i) {
    const Kind kind = cycle[i % cycle.size()];
    run_rep(kind);
    ++done[kind];
    if (kind == Kind::kPlain) slices += reps.back().timing.slice_ms.size();
    const double elapsed = wall_now() - start;
    bool enough = elapsed >= seconds && slices >= kMinSlices;
    for (Kind k : cycle) enough = enough && done[k] >= kMinReps;
    if (enough || elapsed >= kMaxLoopSeconds) break;
  }
  // Peak memory of the timed configuration, before the pool starts threads.
  const double rss_mb = peak_rss_mb();
  // The determinism check between lanes inline and lanes on the pool.
  if (entry->sharded && trace == 0) run_rep(Kind::kParallel);

  std::vector<const Rep*> plain, traced, pooled;
  std::uint64_t attempted = 0, failed = 0;
  for (const Rep& r : reps) {
    attempted += r.result.ops_attempted;
    failed += r.failed;
    if (r.kind == Kind::kPlain) plain.push_back(&r);
    if (r.kind == Kind::kTraced) traced.push_back(&r);
    if (r.kind == Kind::kParallel) pooled.push_back(&r);
  }
  attempted = std::max<std::uint64_t>(attempted, 1);

  std::vector<double> slice_ms;
  for (const Rep* r : plain) {
    slice_ms.insert(slice_ms.end(), r->timing.slice_ms.begin(), r->timing.slice_ms.end());
  }
  const double plain_wall = median(collect(plain, [](const Rep& r) { return r.timing.wall_s; }));

  std::map<std::string, double> values;
  const Metric* metrics_begin = nullptr;
  std::size_t metrics_count = 0;
  if (trace == 0) {
    metrics_begin = kEndToEnd;
    metrics_count = std::size(kEndToEnd);
    values["wall_s"] = plain_wall;
    values["cpu_s"] = median(collect(plain, [](const Rep& r) { return r.timing.cpu_s; }));
    values["setup_s"] = median(collect(plain, [](const Rep& r) { return r.timing.setup_s; }));
    values["peak_rss_mb"] = rss_mb;
    values["ops_per_wall_s"] = median(collect(plain, [](const Rep& r) {
      return static_cast<double>(r.result.ops_attempted) / r.timing.wall_s;
    }));
    values["slice_ms_p50"] = quantile(slice_ms, 0.50);
    values["slice_ms_p99"] = quantile(slice_ms, 0.99);
    values["ok_ratio"] =
        static_cast<double>(attempted - failed) / static_cast<double>(attempted);
  } else {
    metrics_begin = kPerLayer;
    metrics_count = std::size(kPerLayer);
    for (const Metric& m : kPerLayer) values[m.name] = 0.0;
    if (!traced.empty()) {
      const Rep& first = *traced.front();
      for (const auto& [k, v] : first.result.counts) values[k] = v;
      for (const auto& [k, v] : first.result.outcome) values[k] = v;
      std::vector<double> send_us;
      for (const Rep* r : traced) {
        send_us.insert(send_us.end(), r->timing.send_us.begin(), r->timing.send_us.end());
      }
      values["control.send_calls"] = static_cast<double>(first.timing.send_us.size());
      values["control.send_us_p50"] = quantile(send_us, 0.50);
      values["control.send_us_p99"] = quantile(send_us, 0.99);
      values["control.send_s_total"] =
          median(collect(traced, [](const Rep& r) { return r.timing.send_s_total; }));
      values["loop.run_s"] = median(collect(traced, [](const Rep& r) { return r.timing.run_s; }));
      // Self time of the drive loop's run calls, from the span tree: their
      // duration minus the control-plane sends nested inside them.
      const auto loop_self = [&](const Rep& r) {
        double self = 0.0;
        for (const Meter::SelfTime& st : meter.self_times(r.span_from, r.span_to)) {
          if (st.name == "run_until" || st.name == "run_for") self += st.self_s;
        }
        return self;
      };
      values["loop.self_s"] = median(collect(traced, loop_self));
      values["loop.slices"] = static_cast<double>(first.timing.slice_ms.size());
      values["loop.accounted_ratio"] = median(collect(traced, [&](const Rep& r) {
        return (loop_self(r) + r.timing.send_s_total) / r.timing.wall_s;
      }));
      values["trace.overhead_ratio"] =
          median(collect(traced, [](const Rep& r) { return r.timing.wall_s; })) / plain_wall;
    }
    if (!pooled.empty()) {
      const double parallel =
          median(collect(pooled, [](const Rep& r) { return r.timing.wall_s; }));
      values["shard.serial_wall_s"] = plain_wall;
      values["shard.parallel_wall_s"] = parallel;
      values["shard.parallel_speedup"] = plain_wall / parallel;
      values["shard.cpu_per_wall"] =
          median(collect(pooled, [](const Rep& r) { return r.timing.cpu_s / r.timing.wall_s; }));
    }
  }

  std::printf("# repetitions: warm-up 1, timed %zu, traced %zu, lanes on the pool %zu; "
              "slice samples %zu (%zu beyond p99)\n",
              plain.size(), traced.size(), pooled.size(), slice_ms.size(),
              slice_ms.size() / 100);
  std::printf("# timed repetition walls (s):");
  for (const Rep* r : plain) std::printf(" %.4f", r->timing.wall_s);
  std::printf("\n");
  for (const std::string& p : problems) std::printf("# CHECK FAILED: %s\n", p.c_str());
  for (std::size_t i = 0; i < metrics_count; ++i) {
    const Metric& m = metrics_begin[i];
    std::printf("%-32s %.9g %s (%s is better)\n", m.name, values[m.name], m.unit, m.better);
  }

  if (!traced.empty() && !trace_out.empty()) {
    if (!meter.write(trace_out)) {
      std::fprintf(stderr, "sage_perfbench: cannot write %s\n", trace_out.c_str());
      return 1;
    }
    std::printf("# spans: %zu written to %s\n", meter.spans().size(), trace_out.c_str());
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              failed == 0 ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics_count; ++i) {
    const Metric& m = metrics_begin[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ", m.name,
                values[m.name], m.unit);
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(argc, argv); }
