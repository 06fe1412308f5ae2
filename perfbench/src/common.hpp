// Shared pieces of the benchmark driver: the run options, the result every
// workload fills in, an in-memory span recorder for traced runs, and the
// small statistics the metrics are built from.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bmp/core/instance.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds since the process started (static initialisation time).
double process_seconds();

/// Seconds elapsed since `start`.
double seconds_since(Clock::time_point start);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< span file of a traced run ("" = not written)
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports. `problems` lists every failed correctness check;
/// any entry makes the run incorrect.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> problems;

  [[nodiscard]] bool correct() const { return problems.empty(); }
  /// Records each problem, prefixed with where it was found.
  void require(const std::vector<std::string>& found, const std::string& where);
  void add_e2e(std::string name, double value, std::string unit);
  void add_layer(std::string name, double value, std::string unit);
};

/// One recorded span: a named interval with the span that encloses it.
struct Span {
  std::string name;
  int parent = -1;
  double start = 0.0;  ///< process_seconds() at open
  double end = 0.0;
};

/// Spans are kept in memory during the traced phase and written out when
/// the run ends. Nesting follows open/close order on one thread.
class Tracer {
 public:
  int open(std::string name);
  void close(int id);

  [[nodiscard]] double duration(int id) const;
  /// Durations (seconds) of every span named `name`.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;
  /// Median duration of the spans named `name`, in ms (0 when none).
  [[nodiscard]] double median_ms(const std::string& name) const;
  /// Share of span `root` covered by its direct children.
  [[nodiscard]] double child_coverage(int root) const;
  /// Writes the spans as Chrome trace events plus per-name self time
  /// (a span's duration minus the time its children cover).
  bool write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span; a null tracer records nothing and costs one branch.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, std::string name)
      : tracer_(tracer), id_(tracer ? tracer->open(std::move(name)) : -1) {}
  ~SpanScope() {
    if (tracer_ != nullptr) tracer_->close(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

/// A workload: inputs built in setup(), then whole rounds of the same
/// operations, then metrics and checks. The driver times setup, repeats
/// rounds for the run length (at least two) and, in a traced run, repeats
/// some of them again with a tracer.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds inputs and constructs what the measured phase needs.
  virtual void setup(const Options& options) = 0;
  /// One round of operations. `tracer` is null in the measured phase.
  virtual void round(Tracer* tracer) = 0;
  /// Traced run only: called once before the traced rounds.
  virtual void begin_traced() {}
  /// Traced run only: extra per-layer timings outside the measured rounds.
  virtual void trace_extras(Tracer& /*tracer*/) {}
  /// Fills attempted/failed, the metrics of the mode, and the checks.
  virtual void finish(Result& result, const Tracer* tracer) = 0;
};

/// Traced run only: times kAuto's candidates one by one on `platform`
/// under the spans core.acyclic (Planner::plan_uncached(kAcyclic)),
/// baselines.chain and baselines.tree (baselines::kary_tree, arity 1..8).
void time_candidates(Tracer& tracer, const bmp::Instance& platform, int max_out_degree);
/// core.acyclic_ms, baselines.chain_ms and baselines.tree_ms from those spans.
void add_candidate_metrics(Result& result, const Tracer& tracer);

std::unique_ptr<Workload> make_plan_scale();
std::unique_ptr<Workload> make_verify_cyclic();
std::unique_ptr<Workload> make_stream_wan();
std::unique_ptr<Workload> make_churn_adaptive();

[[nodiscard]] double median(std::vector<double> values);
[[nodiscard]] double mean(const std::vector<double>& values);
/// Peak resident set size of this process, in MB.
[[nodiscard]] double peak_rss_mb();
/// A fixed compute kernel whose wall time moves only with the speed of the
/// machine, so a slow phase of the host shows in it: a dependent chain of
/// integer mixes and square roots, then a dependent walk of one random
/// cycle through 8 MiB (four times a core's L2), flushed from the caches
/// before every pass (x86).
class ReferenceKernel {
 public:
  ReferenceKernel();
  /// Wall time of one pass, in ms.
  double sample_ms();

 private:
  std::vector<std::uint32_t> next_;
  std::uint64_t passes_ = 0;
};

}  // namespace perfbench
