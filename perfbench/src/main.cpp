// perfbench: runs one workload of the repository benchmark and prints its
// metrics. The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// same rounds run again with spans recorded around every layer call, and
// the metrics are the per-layer ones (spans written to --trace-out). Every
// workload reports every metric of BENCHMARK.json (kEndToEnd, kPerLayer).
//
//   perfbench --workload plan_scale --seed 1 --seconds 10 --trace 0
//   perfbench --selftest
//   perfbench --manifest      (the metrics every run reports, one per line)
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common.hpp"

namespace perfbench {
int run_selftest();
}  // namespace perfbench

namespace {

using namespace perfbench;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The metrics of BENCHMARK.json, in its order. A run's JSON line carries
// exactly these; whatever else a workload measures is printed above it.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"round_s", "s"},
    {"quality", "ratio"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"engine.plan_calls", "count"},
    {"engine.plan_ms", "ms"},
    {"engine.plan_failed", "count"},
    {"engine.cache_hits", "count"},
    {"engine.cache_misses", "count"},
    {"core.acyclic_ms", "ms"},
    {"baselines.chain_ms", "ms"},
    {"baselines.tree_ms", "ms"},
    {"flow.verify_calls", "count"},
    {"flow.verify_ms", "ms"},
    {"flow.tier_sweep", "count"},
    {"flow.tier_maxflow", "count"},
    {"flow.maxflow_solves", "count"},
    {"flow.bfs_rounds", "count"},
    {"dataplane.delivered", "count"},
    {"dataplane.retransmits", "count"},
    {"dataplane.duplicates", "count"},
    {"dataplane.hol_stalls", "count"},
    {"runtime.events", "count"},
    {"session.repairs_incremental", "count"},
    {"session.repairs_full", "count"},
    {"control.samples", "count"},
    {"control.demotions", "count"},
    {"control.replans", "count"},
    {"fault.crashes_detected", "count"},
    {"machine.ref_ms", "ms"},
    {"trace.coverage", "ratio"},
    {"trace.overhead", "ratio"},
};

/// setup_s and round_s are scaled to a host on which one pass of the
/// reference kernel takes this long (its median on the 4-vCPU host the
/// bounds were measured on, in a quiet phase). That host has slow phases
/// lasting minutes that slow the workloads by up to three quarters, more
/// than any bound; the kernel's median over the run slows with them
/// (README.md, Steadiness). The wall times are printed beside them.
constexpr double kNominalRefMs = 27.0;

/// The manifest's metrics, taken from what the workload reported. A count
/// the workload did not report is 0: its rounds did no such work (no
/// chunks in a plan request). Any other metric it did not report, or
/// reported in another unit, is a failed check.
template <std::size_t N>
std::vector<Metric> manifest_metrics(const MetricSpec (&specs)[N],
                                     const std::vector<Metric>& reported,
                                     Result& result) {
  std::vector<Metric> out;
  for (const MetricSpec& spec : specs) {
    const auto found = std::find_if(reported.begin(), reported.end(),
                                    [&](const Metric& m) { return m.name == spec.name; });
    if (found == reported.end()) {
      if (std::string(spec.unit) != "count") {
        result.problems.push_back(std::string("metric ") + spec.name + " not measured");
      }
      out.push_back({spec.name, 0.0, spec.unit});
    } else {
      if (found->unit != spec.unit) {
        result.problems.push_back(std::string("metric ") + spec.name + " reported in " +
                                  found->unit + ", not " + spec.unit);
      }
      out.push_back({spec.name, found->value, spec.unit});
    }
  }
  return out;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "{plan_scale|verify_cyclic|stream_wan|churn_adaptive} --seed N "
               "--seconds S --trace {0|1} [--trace-out FILE]\n"
               "       perfbench --selftest | --manifest\n",
               why);
  std::exit(2);
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "plan_scale") return make_plan_scale();
  if (name == "verify_cyclic") return make_verify_cyclic();
  if (name == "stream_wan") return make_stream_wan();
  if (name == "churn_adaptive") return make_churn_adaptive();
  return nullptr;
}

Options parse(int argc, char** argv) {
  Options options;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int k = 1; k < argc; ++k) {
    const std::string flag = argv[k];
    if (k + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++k];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && options.seconds > 0.0;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      options.trace = value == "1";
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (options.workload.empty() || !have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  return options;
}

void print_metrics(const std::vector<Metric>& metrics) {
  for (const Metric& metric : metrics) {
    std::printf("  %-32s %.6g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
}

void print_json(const Result& result, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              result.correct() ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  for (std::size_t k = 0; k < metrics.size(); ++k) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", k == 0 ? "" : ", ",
                metrics[k].name.c_str(), metrics[k].value, metrics[k].unit.c_str());
  }
  std::printf("}}\n");
}

int run(const Options& options) {
  std::unique_ptr<Workload> workload = make_workload(options.workload);
  if (!workload) usage(("unknown workload " + options.workload).c_str());

  workload->setup(options);
  const double setup_s = process_seconds();

  // The reference kernel runs once before the rounds, and after each round
  // once plus once per second the round took, so that its median
  // (machine.ref_ms) reads the host's speed over the whole run.
  ReferenceKernel kernel;
  std::vector<double> ref_ms{kernel.sample_ms()};

  const Clock::time_point start = Clock::now();
  int rounds = 0;
  std::string round_walls;
  std::vector<double> walls;
  while (rounds < 2 || seconds_since(start) < options.seconds) {
    const Clock::time_point round_start = Clock::now();
    workload->round(nullptr);
    ++rounds;
    walls.push_back(seconds_since(round_start));
    round_walls += " " + std::to_string(walls.back());
    for (int pass = 0; pass <= static_cast<int>(walls.back()); ++pass) {
      ref_ms.push_back(kernel.sample_ms());
    }
  }
  const double wall = seconds_since(start);

  // Traced run: the same rounds again with spans, for a quarter of the run
  // length (at least two rounds). Overhead compares the median traced round
  // with the median untraced one.
  Tracer tracer;
  std::vector<double> traced_walls;
  int measure = -1;
  if (options.trace) {
    workload->begin_traced();
    const Clock::time_point traced_start = Clock::now();
    measure = tracer.open("measure");
    for (int k = 0; k < rounds && (k < 2 || seconds_since(traced_start) < options.seconds / 4);
         ++k) {
      const Clock::time_point round_start = Clock::now();
      workload->round(&tracer);
      traced_walls.push_back(seconds_since(round_start));
    }
    tracer.close(measure);
    const int extras = tracer.open("extras");
    workload->trace_extras(tracer);
    tracer.close(extras);
  }
  const double rss_mb = peak_rss_mb();
  std::string ref_list;
  for (double ms : ref_ms) ref_list += " " + std::to_string(ms);

  Result result;
  const double speed = kNominalRefMs / median(ref_ms);
  result.add_e2e("setup_s", setup_s * speed, "s");
  result.add_e2e("setup_wall_s", setup_s, "s");
  workload->finish(result, options.trace ? &tracer : nullptr);
  const auto round_wall = std::find_if(result.end_to_end.begin(), result.end_to_end.end(),
                                       [](const Metric& m) { return m.name == "round_wall_s"; });
  if (round_wall != result.end_to_end.end()) {
    const double round_s = round_wall->value * speed;
    result.add_e2e("round_s", round_s, "s");
  }
  result.add_e2e("peak_rss_mb", rss_mb, "MB");
  if (options.trace) {
    result.end_to_end.clear();
    result.add_layer("machine.ref_ms", median(ref_ms), "ms");
    result.add_layer("trace.coverage", tracer.child_coverage(measure), "ratio");
    result.add_layer("trace.overhead", median(traced_walls) / median(walls) - 1.0, "ratio");
    if (!options.trace_out.empty() && !tracer.write(options.trace_out)) {
      result.problems.push_back("could not write " + options.trace_out);
    }
  }

  const std::vector<Metric>& reported =
      options.trace ? result.per_layer : result.end_to_end;
  const std::vector<Metric> metrics =
      options.trace ? manifest_metrics(kPerLayer, reported, result)
                    : manifest_metrics(kEndToEnd, reported, result);
  std::printf("workload %s, seed %llu: %d rounds in %.3f s\n"
              "  round walls (s):%s\n  reference kernel (ms, machine.ref_ms is the median):%s\n",
              options.workload.c_str(), static_cast<unsigned long long>(options.seed),
              rounds, wall, round_walls.c_str(), ref_list.c_str());
  print_metrics(reported);
  std::printf("  attempted %llu, failed %llu\n",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  for (const std::string& problem : result.problems) {
    std::printf("CHECK FAILED: %s\n", problem.c_str());
  }
  std::printf("checks: %s\n", result.correct() ? "all passed" : "FAILED");
  print_json(result, metrics);
  std::fflush(stdout);
  return result.correct() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--selftest") == 0) {
    return perfbench::run_selftest();
  }
  if (argc == 2 && std::strcmp(argv[1], "--manifest") == 0) {
    for (const MetricSpec& spec : kEndToEnd) std::printf("end_to_end %s %s\n", spec.name, spec.unit);
    for (const MetricSpec& spec : kPerLayer) std::printf("per_layer %s %s\n", spec.name, spec.unit);
    return 0;
  }
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
