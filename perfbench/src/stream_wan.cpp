// stream_wan: one planned overlay streams paced chunks through lossy,
// latent pipes (dataplane::Execution). The planner runs once, in setup;
// every round replays the same stream on a fresh Execution (the first one
// is constructed in setup). The traced run times the planner, the verifier
// and kAuto's candidates on the stream's platform outside the rounds.
//
// The inputs do not depend on --seed: the platform and the loss draws are
// fixed. The cost per delivery differs by up to a fifth between 2,000-peer
// platforms, and the worst node's rate by up to a fifth between loss draws,
// which would swamp the run-to-run comparison.
#include <algorithm>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "bmp/dataplane/execution.hpp"
#include "bmp/engine/planner.hpp"
#include "bmp/flow/verify.hpp"
#include "bmp/gen/generator.hpp"
#include "bmp/util/rng.hpp"
#include "checks.hpp"
#include "common.hpp"

namespace perfbench {

namespace {

constexpr int kPeers = 2000;
constexpr int kChunks = 1000;
constexpr std::uint64_t kPlatformSeed = 2026;
constexpr std::uint64_t kLossSeed = 7;
constexpr double kLoss = 0.02;
constexpr double kLatency = 0.010;
/// Timed slices of the emission period; round_s sums each slice's
/// quickest time over the rounds.
constexpr int kSlices = 50;
/// Traced run: plan and verify requests timed on the stream's platform.
constexpr int kLayerRepeats = 3;

struct RoundCounts {
  std::uint64_t delivered = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t hol_stalls = 0;
  double achieved = 0.0;
};

class StreamWan : public Workload {
 public:
  void setup(const Options& /*options*/) override {
    bmp::util::Xoshiro256 rng(kPlatformSeed);
    platform_ = std::make_unique<bmp::Instance>(bmp::gen::random_instance(
        {kPeers, 0.5, bmp::gen::Dist::kUnif100}, rng));
    scheme_ = plan(nullptr);
    verified_ = verify(*scheme_, nullptr);
    config_.chunk_size = verified_ * 0.05;
    config_.total_chunks = kChunks;
    config_.emission_rate = verified_;
    config_.warmup_chunks = kChunks / 5;
    config_.loss_rate = kLoss;
    config_.latency = kLatency;
    config_.seed = kLossSeed;
    prepared_ = construct(nullptr);
  }

  void round(Tracer* tracer) override {
    // The round's wall time covers the stream and its report, not the
    // Execution's construction.
    std::unique_ptr<bmp::dataplane::Execution> execution =
        prepared_ ? std::move(prepared_) : construct(tracer);
    // The stream runs in kSlices equal slices of its emission period, then
    // drains; each slice (and the report) is timed on its own.
    std::vector<double> slice_s;
    slice_s.reserve(kSlices + 2);
    const double emission_end =
        kChunks * config_.chunk_size / config_.emission_rate;
    {
      SpanScope span(tracer, "dataplane.run");
      for (int k = 1; k <= kSlices + 1; ++k) {
        const Clock::time_point start = Clock::now();
        if (k <= kSlices) {
          execution->run_until(emission_end * k / kSlices);
        } else {
          execution->run_to_completion();
        }
        slice_s.push_back(seconds_since(start));
      }
    }
    bmp::dataplane::ExecutionReport report;
    {
      SpanScope span(tracer, "dataplane.report");
      const Clock::time_point start = Clock::now();
      report = execution->report(verified_);
      slice_s.push_back(seconds_since(start));
    }
    const RoundCounts counts{report.delivered_chunks, report.retransmits,
                             report.duplicates, report.hol_stalls,
                             report.achieved_rate};
    if (!first_) {
      first_ = std::make_unique<RoundCounts>(counts);
      stream_.emitted = report.emitted;
      for (std::size_t id = 1; id < report.nodes.size(); ++id) {
        stream_.receiver_delivered.push_back(report.nodes[id].delivered);
      }
      stream_.delivered_total = report.delivered_chunks;
      stream_.achieved = report.achieved_rate;
      stream_.verified = verified_;
      stream_.validate = execution->validate();
    } else if (counts.delivered != first_->delivered ||
               counts.retransmits != first_->retransmits ||
               counts.achieved != first_->achieved) {
      mismatches_.push_back("a replayed stream diverged from the first");
    }
    if (tracer == nullptr) {
      // Every round replays the same stream: keep each slice's quickest
      // time, the one the host's slow phases touched least.
      best_slice_s_.resize(slice_s.size(), std::numeric_limits<double>::infinity());
      for (std::size_t k = 0; k < slice_s.size(); ++k) {
        best_slice_s_[k] = std::min(best_slice_s_[k], slice_s[k]);
      }
    }
    ++(tracer ? traced_rounds_ : rounds_);
  }

  void trace_extras(Tracer& tracer) override {
    for (int k = 0; k < kLayerRepeats; ++k) {
      const std::shared_ptr<const bmp::BroadcastScheme> again = plan(&tracer);
      if (again->edge_count() != scheme_->edge_count() ||
          verify(*again, &tracer) != verified_) {
        mismatches_.push_back("a re-planned overlay differs from the streamed one");
      }
    }
    time_candidates(tracer, *platform_, 8);
  }

  void finish(Result& result, const Tracer* tracer) override {
    result.attempted = tracer ? traced_rounds_ : rounds_;
    result.failed = 0;
    result.require(mismatches_, "replay");
    result.require(check_stream(stream_), "stream");
    if (tracer == nullptr) {
      const double best_wall =
          std::accumulate(best_slice_s_.begin(), best_slice_s_.end(), 0.0);
      result.add_e2e("round_wall_s", best_wall, "s");
      result.add_e2e("quality", first_->achieved / verified_, "ratio");
      result.add_e2e("chunks_per_s", static_cast<double>(first_->delivered) / best_wall,
                     "chunks/s");
      return;
    }
    result.add_layer("engine.plan_ms", tracer->median_ms("engine.plan"), "ms");
    result.add_layer("flow.verify_ms", tracer->median_ms("flow.verify"), "ms");
    add_candidate_metrics(result, *tracer);
    const double useful =
        static_cast<double>(first_->delivered) /
        static_cast<double>(first_->delivered + first_->duplicates + first_->retransmits);
    result.add_layer("dataplane.run_s", median(tracer->durations("dataplane.run")), "s");
    result.add_layer("dataplane.delivered", static_cast<double>(first_->delivered), "count");
    result.add_layer("dataplane.retransmits", static_cast<double>(first_->retransmits), "count");
    result.add_layer("dataplane.duplicates", static_cast<double>(first_->duplicates), "count");
    result.add_layer("dataplane.hol_stalls", static_cast<double>(first_->hol_stalls), "count");
    result.add_layer("dataplane.useful_ratio", useful, "ratio");
  }

 private:
  /// kAuto with out-degree bound 8, single-threaded, no cache.
  std::shared_ptr<const bmp::BroadcastScheme> plan(Tracer* tracer) const {
    bmp::engine::PlannerConfig config;
    config.threads = 1;
    config.cache_capacity = 0;
    config.verify_plans = false;  // verified by verify(), serially
    bmp::engine::Planner planner(config);
    SpanScope span(tracer, "engine.plan");
    return planner.plan(*platform_, bmp::engine::Algorithm::kAuto, 8).scheme;
  }

  /// Verified throughput of `scheme`, serial sink sweep.
  static double verify(const bmp::BroadcastScheme& scheme, Tracer* tracer) {
    bmp::flow::VerifyOptions options;
    options.auto_pool = false;
    bmp::flow::Verifier verifier(options);
    SpanScope span(tracer, "flow.verify");
    return verifier.verify(scheme).throughput;
  }

  std::unique_ptr<bmp::dataplane::Execution> construct(Tracer* tracer) const {
    SpanScope span(tracer, "dataplane.build");
    return std::make_unique<bmp::dataplane::Execution>(*platform_, *scheme_, config_);
  }

  std::unique_ptr<bmp::Instance> platform_;
  std::shared_ptr<const bmp::BroadcastScheme> scheme_;
  double verified_ = 0.0;
  bmp::dataplane::ExecutionConfig config_;
  std::unique_ptr<bmp::dataplane::Execution> prepared_;  ///< the first round's

  std::unique_ptr<RoundCounts> first_;
  StreamOutcome stream_;
  std::vector<std::string> mismatches_;
  std::vector<double> best_slice_s_;  ///< per slice, over untraced rounds
  std::uint64_t rounds_ = 0;
  std::uint64_t traced_rounds_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_stream_wan() { return std::make_unique<StreamWan>(); }

}  // namespace perfbench
