// churn_adaptive: the whole loop. A multi-channel runtime with chunk
// execution and the adaptive control plane on replays one seeded scenario:
// Poisson channel arrivals, a flash crowd, diurnal churn, a brownout, a
// correlated failure, periodic renegotiation, and a random fault storm.
// Every round replays the same script on a fresh Runtime (the first one is
// constructed in setup), stepping it one event at a time, then drains the
// streams. The traced rounds hand the runtime an obs::Profiler, whose
// planner and verifier phases give the engine and flow layers' times.
//
// The inputs do not depend on --seed. Across script seeds (scenario and
// fault plan) the run time ranges from seconds to minutes: the dataplane
// spins when a stream cannot make progress (see the benchmark's README), so
// a seeded script would measure which script it drew. Every pipe loses 1%
// of its transmissions, with 5 ms of latency, from a fixed loss seed.
#include <algorithm>
#include <array>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "bmp/engine/plan_cache.hpp"
#include "bmp/fault/injector.hpp"
#include "bmp/obs/profiler.hpp"
#include "bmp/runtime/runtime.hpp"
#include "bmp/runtime/scenario.hpp"
#include "checks.hpp"
#include "common.hpp"

namespace perfbench {

namespace {

constexpr int kPeers = 500;
constexpr double kHorizon = 10.0;
/// Chunk size in bandwidth units x s: each channel emits hundreds of chunks
/// over the horizon.
constexpr double kChunkSize = 1.0;
constexpr std::uint64_t kSeed = 7;  ///< scenario, fault plan and losses
constexpr double kLoss = 0.01;
constexpr double kLatency = 0.005;
/// Interleaved control-on / control-off replays behind control.wall_s.
constexpr int kControlPairs = 5;

using bmp::runtime::EventType;

constexpr std::array<const char*, 7> kStepSpan = {
    "runtime.step.channel_open", "runtime.step.channel_close",
    "runtime.step.join",         "runtime.step.leave",
    "runtime.step.renegotiate",  "runtime.step.degrade",
    "runtime.step.fault",
};

bmp::runtime::ScenarioScript make_script(std::uint64_t seed) {
  using namespace bmp::runtime;
  Scenario scenario(kHorizon, seed);
  BrownoutSpec brownout;
  brownout.time = kHorizon * 0.4;
  brownout.duration = kHorizon * 0.2;
  brownout.fraction = 0.10;
  brownout.capacity_factor = 0.25;
  scenario.source(2000.0)
      .population({kPeers * 3 / 5, 0.7, bmp::gen::Dist::kUnif100})
      .population({kPeers * 2 / 5, 0.3, bmp::gen::Dist::kLogNormal1})
      .channel({0.0, -1.0, /*weight=*/2.0, /*fraction=*/0.4})
      .channel({0.0, -1.0, 1.0, 0.2})
      .channel({0.2, -1.0, 1.0, 0.15})
      .poisson_channels({0.8, kHorizon / 4.0, 1.0, 0.1})
      .flash_crowd({kHorizon * 0.3, kPeers / 5,
                    {0, 0.8, bmp::gen::Dist::kUnif100}, 0.7, kHorizon * 0.2})
      .diurnal_churn({kHorizon / 2.0, 0.8, 8.0, 0.45,
                      {0, 0.5, bmp::gen::Dist::kUnif100}})
      .brownout(brownout)
      .correlated_failure({kHorizon * 0.75, 0.10})
      .renegotiate_every(kHorizon / 5.0, 0.95);
  ScenarioScript script = scenario.build();
  bmp::fault::RandomPlanOptions faults;
  faults.num_nodes = static_cast<int>(script.initial_peers.size());
  faults.horizon = kHorizon;
  bmp::fault::Injector::inject(script,
                               bmp::fault::Injector::random_plan(seed, faults));
  return script;
}

/// `profiler` (traced rounds only) also turns on the verifier's timing,
/// which its wall times need; timing.* series stay out of the snapshot.
bmp::runtime::RuntimeConfig make_config(bool control,
                                        bmp::obs::Profiler* profiler = nullptr) {
  bmp::runtime::RuntimeConfig config;
  config.planner.threads = 1;
  // Serial sink sweeps: by default sessions verify large cyclic overlays
  // on the shared verify pool, one thread per core.
  config.session.verify.auto_pool = false;
  config.broker_headroom = 0.05;
  config.collect_timing = profiler != nullptr;
  config.profiler = profiler;
  config.dataplane.execute = true;
  config.dataplane.execution.chunk_size = kChunkSize;
  config.dataplane.execution.loss_rate = kLoss;
  config.dataplane.execution.latency = kLatency;
  config.dataplane.execution.seed = kSeed;
  config.control.enabled = control;
  return config;
}

/// What one replay of the script produced.
struct Replay {
  std::uint64_t stepped = 0;
  std::string error;
  double wall = 0.0;
  double drain_s = 0.0;
  std::vector<double> step_ms;
  ChurnOutcome outcome;
  double worst_sustained = 1.0;
  std::uint64_t delivered = 0;
  std::unique_ptr<bmp::runtime::Runtime> runtime;
};

class ChurnAdaptive : public Workload {
 public:
  void setup(const Options& /*options*/) override {
    script_ = make_script(kSeed);
    // The first round replays on this Runtime; every later round constructs
    // its own, so that each replays the script from scratch.
    prepared_ = construct(make_config(true), nullptr);
  }

  void round(Tracer* tracer) override {
    Replay replay = play(make_config(true, tracer ? &profiler_ : nullptr), tracer,
                         std::move(prepared_));
    if (!replay.error.empty()) errors_.push_back(replay.error);
    (tracer ? traced_steps_ : steps_) += replay.outcome.events;
    if (tracer != nullptr) ++traced_rounds_;
    (tracer ? traced_failed_ : failed_) += replay.outcome.events - replay.stepped;
    if (tracer == nullptr) {
      // Every round replays the same events: keep each event's quickest
      // step and the quickest drain, the ones the host's slow phases
      // touched least.
      best_step_ms_.resize(replay.step_ms.size(), std::numeric_limits<double>::infinity());
      for (std::size_t k = 0; k < replay.step_ms.size(); ++k) {
        best_step_ms_[k] = std::min(best_step_ms_[k], replay.step_ms[k]);
      }
      best_drain_s_ = std::min(best_drain_s_, replay.drain_s);
    }
    if (first_ == nullptr) {
      first_ = std::make_unique<Replay>(std::move(replay));
    } else if (replayed_snapshot_.empty() ||
               replay.outcome.snapshot != first_->outcome.snapshot) {
      // Kept for check_churn: a later round's snapshot, the first one that
      // differs from the first round's if any does.
      replayed_snapshot_ = std::move(replay.outcome.snapshot);
    }
  }

  void trace_extras(Tracer& tracer) override {
    // The control plane's cost: the median over interleaved pairs of the
    // same script replayed with the control plane on and off, so that both
    // sides of each difference see the same phase of the host.
    std::vector<double> differences;
    for (int pair = 0; pair < kControlPairs; ++pair) {
      const int on_span = tracer.open("control_on.replay");
      const Replay on = play(make_config(true), nullptr, nullptr);
      tracer.close(on_span);
      const int off_span = tracer.open("control_off.replay");
      const Replay off = play(make_config(false), nullptr, nullptr);
      tracer.close(off_span);
      for (const std::string& error : {on.error, off.error}) {
        if (!error.empty()) errors_.push_back(error);
      }
      differences.push_back(on.wall - off.wall);
    }
    control_wall_s_ = median(differences);
    time_candidates(tracer, initial_platform(), 8);
  }

  void finish(Result& result, const Tracer* tracer) override {
    result.attempted = tracer ? traced_steps_ : steps_;
    result.failed = tracer ? traced_failed_ : failed_;
    result.require(errors_, "runtime");
    ChurnOutcome outcome = first_->outcome;
    outcome.first_snapshot = first_->outcome.snapshot;
    outcome.snapshot = replayed_snapshot_;
    result.require(check_churn(outcome), "churn");
    if (tracer == nullptr) {
      const double best_wall =
          1e-3 * std::accumulate(best_step_ms_.begin(), best_step_ms_.end(), 0.0) +
          best_drain_s_;
      result.add_e2e("round_wall_s", best_wall, "s");
      result.add_e2e("quality", first_->worst_sustained, "ratio");
      result.add_e2e("event_ms", median(best_step_ms_), "ms");
      result.add_e2e("chunks_per_s", static_cast<double>(first_->delivered) / best_wall,
                     "chunks/s");
      return;
    }
    const bmp::runtime::Runtime& rt = *first_->runtime;
    const auto& metrics = rt.metrics();
    const auto counter = [&](const char* name) {
      return static_cast<double>(metrics.counter(name));
    };
    for (const char* name : kStepSpan) {
      const std::string metric = std::string("runtime.step_ms.") + (name + 13);
      result.add_layer(metric, 1e3 * median(tracer->durations(name)), "ms");
    }
    result.add_layer("runtime.drain_s", median(tracer->durations("runtime.drain")), "s");
    result.add_layer("runtime.events", static_cast<double>(first_->outcome.events), "count");
    const bmp::engine::CacheStats cache = rt.planner().cache_stats();
    result.add_layer("engine.plan_calls", static_cast<double>(cache.hits + cache.misses), "count");
    result.add_layer("engine.cache_hits", static_cast<double>(cache.hits), "count");
    result.add_layer("engine.cache_misses", static_cast<double>(cache.misses), "count");
    add_profiled_layers(result);
    add_candidate_metrics(result, *tracer);
    result.add_layer("session.repairs_incremental", counter("repairs.incremental"), "count");
    result.add_layer("session.repairs_full", counter("repairs.full"), "count");
    result.add_layer("control.samples", counter("control.samples"), "count");
    result.add_layer("control.demotions", counter("control.demotions"), "count");
    result.add_layer("control.replans", counter("control.replans"), "count");
    result.add_layer("control.wall_s", control_wall_s_, "s");
    result.add_layer("fault.crashes_detected", counter("fault.crashes_detected"), "count");
    const double delivered = counter("dataplane.delivered");
    const double duplicates = counter("dataplane.duplicates");
    const double retransmits = counter("dataplane.retransmits");
    result.add_layer("dataplane.delivered", delivered, "count");
    result.add_layer("dataplane.retransmits", retransmits, "count");
    result.add_layer("dataplane.duplicates", duplicates, "count");
    result.add_layer("dataplane.hol_stalls", counter("dataplane.hol_stalls"), "count");
    result.add_layer("dataplane.useful_ratio",
                     delivered / (delivered + duplicates + retransmits), "ratio");
  }

 private:
  /// The engine and flow layers inside the runtime, from the profiler of
  /// the traced rounds: times per call, counts per round.
  void add_profiled_layers(Result& result) const {
    const bmp::obs::Profiler& prof = profiler_;
    const double rounds = static_cast<double>(traced_rounds_);
    const std::uint64_t computed = prof.calls("planner/compute");
    result.add_layer("engine.plan_ms",
                     computed ? 1e-3 * prof.wall_us("planner/compute") / computed : 0.0,
                     "ms");
    constexpr std::array<const char*, 3> kTiers = {
        "verify/tier1_sweep", "verify/tier2_maxflow", "verify/oracle"};
    std::uint64_t calls = 0, solves = 0, bfs = 0;
    double wall_us = 0.0;
    for (const char* tier : kTiers) {
      calls += prof.calls(tier);
      solves += prof.counter(tier, "solves");
      bfs += prof.counter(tier, "bfs_rounds");
      wall_us += prof.wall_us(tier);
    }
    const std::uint64_t sweeps = prof.calls(kTiers[0]);
    result.add_layer("flow.verify_calls", static_cast<double>(calls) / rounds, "count");
    result.add_layer("flow.verify_ms", calls ? 1e-3 * wall_us / calls : 0.0, "ms");
    result.add_layer("flow.tier_sweep", static_cast<double>(sweeps) / rounds, "count");
    result.add_layer("flow.tier_maxflow", static_cast<double>(calls - sweeps) / rounds,
                     "count");
    result.add_layer("flow.maxflow_solves", static_cast<double>(solves) / rounds, "count");
    result.add_layer("flow.bfs_rounds", static_cast<double>(bfs) / rounds, "count");
  }

  /// The script's platform at time 0: the source and the initial peers.
  bmp::Instance initial_platform() const {
    std::vector<double> open;
    std::vector<double> guarded;
    for (const bmp::runtime::NodeSpec& peer : script_.initial_peers) {
      (peer.guarded ? guarded : open).push_back(peer.bandwidth);
    }
    return bmp::Instance(script_.source_bandwidth, std::move(open), std::move(guarded));
  }

  std::unique_ptr<bmp::runtime::Runtime> construct(
      const bmp::runtime::RuntimeConfig& config, Tracer* tracer) const {
    SpanScope span(tracer, "runtime.construct");
    return std::make_unique<bmp::runtime::Runtime>(config, script_.source_bandwidth,
                                                   script_.initial_peers);
  }

  /// Replays the script on `prepared`, or on a Runtime constructed here
  /// when it is null. `wall` covers the steps and the drain only.
  Replay play(const bmp::runtime::RuntimeConfig& config, Tracer* tracer,
              std::unique_ptr<bmp::runtime::Runtime> prepared) const {
    Replay replay;
    replay.outcome.events = script_.events.size();
    replay.step_ms.reserve(script_.events.size());
    replay.runtime = prepared ? std::move(prepared) : construct(config, tracer);
    const Clock::time_point start = Clock::now();
    bmp::runtime::Runtime& rt = *replay.runtime;
    try {
      for (const bmp::runtime::Event& event : script_.events) {
        const Clock::time_point step_start = Clock::now();
        {
          SpanScope span(tracer, kStepSpan[static_cast<std::size_t>(event.type)]);
          rt.step(event);
        }
        replay.step_ms.push_back(1e3 * seconds_since(step_start));
        ++replay.stepped;
      }
      const Clock::time_point drain_start = Clock::now();
      SpanScope span(tracer, "runtime.drain");
      (void)rt.drain(std::max(kHorizon, rt.now()));
      replay.drain_s = seconds_since(drain_start);
    } catch (const std::exception& e) {
      replay.error = std::string("step ") + std::to_string(replay.stepped) +
                     " threw: " + e.what();
    }
    replay.wall = seconds_since(start);
    replay.outcome.events_stepped = replay.stepped;
    for (const bmp::runtime::StreamReport& report : rt.stream_log()) {
      replay.outcome.streams.push_back(
          {report.delivered_chunks, report.achieved_rate, report.verified_rate});
      replay.delivered += report.delivered_chunks;
      replay.worst_sustained = std::min(replay.worst_sustained, report.sustained_ratio);
    }
    replay.outcome.delivered_counter = rt.metrics().counter("dataplane.delivered");
    replay.outcome.validate = rt.validate();
    replay.outcome.snapshot = rt.metrics().snapshot().to_string(false);
    return replay;
  }

  bmp::runtime::ScenarioScript script_;
  std::unique_ptr<bmp::runtime::Runtime> prepared_;  ///< the first round's
  std::unique_ptr<Replay> first_;
  std::string replayed_snapshot_;
  std::vector<std::string> errors_;
  std::vector<double> best_step_ms_;  ///< per event, over untraced rounds
  double best_drain_s_ = std::numeric_limits<double>::infinity();
  double control_wall_s_ = 0.0;
  bmp::obs::Profiler profiler_{bmp::obs::ProfilerConfig{true}};  ///< traced rounds
  std::uint64_t steps_ = 0, failed_ = 0;
  std::uint64_t traced_steps_ = 0, traced_failed_ = 0, traced_rounds_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_churn_adaptive() {
  return std::make_unique<ChurnAdaptive>();
}

}  // namespace perfbench
