// plan_scale and verify_cyclic: a stream of plan requests, each timed from
// the request to a verified overlay (engine::Planner::plan, then
// flow::Verifier::verify), or to the planner's throw. The planner runs
// single-threaded with its cache off, so every request is planned from
// scratch; the verifier runs serially. Both workloads run whole rounds over
// a fixed list of platforms.
#include <algorithm>
#include <cmath>
#include <limits>
#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "bmp/baselines/baselines.hpp"
#include "bmp/engine/plan_cache.hpp"
#include "bmp/engine/planner.hpp"
#include "bmp/flow/maxflow.hpp"
#include "bmp/flow/verify.hpp"
#include "bmp/gen/generator.hpp"
#include "bmp/util/rng.hpp"
#include "checks.hpp"
#include "common.hpp"

namespace perfbench {

namespace {

using bmp::engine::Algorithm;

struct PlanSettings {
  Algorithm algorithm = Algorithm::kAuto;
  int max_out_degree = 0;
  /// Cross-check one verified overlay against the tier-3 oracle.
  bool oracle_check = false;
};

/// One answered request of the first round, kept for the checks.
struct Answer {
  bool ok = false;
  std::string error;
  std::shared_ptr<const bmp::BroadcastScheme> scheme;
  Algorithm algorithm = Algorithm::kAuto;
  double verified = 0.0;
};

class PlanWorkload : public Workload {
 public:
  explicit PlanWorkload(PlanSettings settings) : settings_(settings) {}

  void round(Tracer* tracer) override {
    const bool first = answers_.empty();
    for (std::size_t k : order_) {
      const bmp::Instance& platform = platforms_[k];
      ++(tracer ? traced_requests_ : requests_);
      const Clock::time_point start = Clock::now();
      std::optional<bmp::engine::PlanResponse> response;
      std::string error;
      {
        SpanScope span(tracer, "engine.plan");
        try {
          response = planner_->plan(platform, settings_.algorithm,
                                    settings_.max_out_degree);
        } catch (const std::exception& e) {
          error = e.what();
        }
      }
      if (!response) {
        if (tracer == nullptr) best_ms_[k] = std::min(best_ms_[k], 1e3 * seconds_since(start));
        ++(tracer ? traced_failed_ : failed_);
        if (first) {
          answers_.push_back({false, error, nullptr, Algorithm::kAuto, 0.0});
        } else if (answers_[k].ok) {
          mismatches_.push_back("request " + std::to_string(k) +
                                " failed after succeeding: " + error);
        }
        continue;
      }
      bmp::flow::VerifyResult verified;
      {
        SpanScope span(tracer, "flow.verify");
        verified = verifier_->verify(*response->scheme);
      }
      const double ms = 1e3 * seconds_since(start);
      if (tracer == nullptr) best_ms_[k] = std::min(best_ms_[k], ms);
      if (first) {
        answers_.push_back({true, "", response->scheme, response->algorithm,
                            verified.throughput});
      } else if (!answers_[k].ok || answers_[k].verified != verified.throughput) {
        mismatches_.push_back("request " + std::to_string(k) +
                              " answered differently on a later round");
      }
    }
    if (first) {
      // answers_ was filled in request order; index it by platform.
      std::vector<Answer> by_platform(answers_.size());
      for (std::size_t i = 0; i < order_.size(); ++i) {
        by_platform[order_[i]] = std::move(answers_[i]);
      }
      answers_ = std::move(by_platform);
    }
    ++(tracer ? traced_rounds_ : rounds_);
  }

  void trace_extras(Tracer& tracer) override {
    for (std::size_t k : order_) {
      time_candidates(tracer, platforms_[k], settings_.max_out_degree);
    }
  }

  void finish(Result& result, const Tracer* tracer) override {
    result.attempted = tracer ? traced_requests_ : requests_;
    result.failed = tracer ? traced_failed_ : failed_;
    result.require(mismatches_, "replay");
    std::vector<double> quality;
    for (std::size_t k = 0; k < answers_.size(); ++k) {
      const Answer& answer = answers_[k];
      if (!answer.ok) continue;
      const Platform platform = platform_of(platforms_[k]);
      const std::vector<Edge> edges = edges_of(*answer.scheme);
      const std::string where = "platform " + std::to_string(k);
      result.require(check_plan(platform, edges, answer.verified,
                                answer.algorithm == Algorithm::kAcyclic,
                                settings_.max_out_degree),
                     where);
      if (settings_.algorithm == Algorithm::kCyclic) {
        result.require(check_cyclic_open(platform, edges, answer.verified), where);
      }
      quality.push_back(answer.verified / lemma51_bound(platform));
    }
    if (quality.empty()) result.require({"no request succeeded"}, "plan");
    if (settings_.oracle_check && !quality.empty()) {
      const auto first_ok = std::find_if(answers_.begin(), answers_.end(),
                                         [](const Answer& a) { return a.ok; });
      result.require(check_oracle(first_ok->verified,
                                  bmp::flow::scheme_throughput_oracle(
                                      *first_ok->scheme)),
                     "oracle");
    }
    for (std::size_t k = 0; k < answers_.size(); ++k) {
      if (!answers_[k].ok) {
        std::fprintf(stderr, "platform %zu: plan request failed: %s\n", k,
                     answers_[k].error.c_str());
      }
    }

    if (tracer == nullptr) {
      // Best of the rounds per request, summed over the round's requests:
      // the host's slow phases inflate some rounds, not the quickest one.
      std::vector<double> ok_ms;
      double round_ms = 0.0;
      for (std::size_t k = 0; k < best_ms_.size(); ++k) {
        round_ms += best_ms_[k];
        if (answers_[k].ok) ok_ms.push_back(best_ms_[k]);
      }
      result.add_e2e("round_wall_s", 1e-3 * round_ms, "s");
      result.add_e2e("quality", mean(quality), "ratio");
      result.add_e2e("plan_ms", median(ok_ms), "ms");
      return;
    }
    const double rounds = static_cast<double>(traced_rounds_);
    const auto per_round = [&](std::uint64_t total, std::uint64_t before) {
      return static_cast<double>(total - before) / rounds;
    };
    const bmp::engine::CacheStats cache = planner_->cache_stats();
    const bmp::flow::VerifyStats& flow = verifier_->stats();
    result.add_layer("engine.plan_calls", per_round(traced_requests_, 0), "count");
    result.add_layer("engine.plan_ms", tracer->median_ms("engine.plan"), "ms");
    result.add_layer("engine.plan_failed", per_round(traced_failed_, 0), "count");
    result.add_layer("engine.cache_hits", per_round(cache.hits, hits_before_), "count");
    result.add_layer("engine.cache_misses", per_round(cache.misses, misses_before_), "count");
    add_candidate_metrics(result, *tracer);
    result.add_layer("flow.verify_calls", per_round(flow.calls, flow_before_.calls), "count");
    result.add_layer("flow.verify_ms", tracer->median_ms("flow.verify"), "ms");
    result.add_layer("flow.tier_sweep", per_round(flow.tier_sweep, flow_before_.tier_sweep),
                     "count");
    result.add_layer("flow.tier_maxflow",
                     per_round(flow.tier_maxflow, flow_before_.tier_maxflow), "count");
    result.add_layer("flow.maxflow_solves",
                     per_round(flow.maxflow_solves, flow_before_.maxflow_solves), "count");
    result.add_layer("flow.bfs_rounds", per_round(flow.bfs_rounds, flow_before_.bfs_rounds),
                     "count");
  }

  /// Counters before the traced phase, so per-layer counts cover it alone.
  void begin_traced() override {
    const bmp::engine::CacheStats cache = planner_->cache_stats();
    hits_before_ = cache.hits;
    misses_before_ = cache.misses;
    flow_before_ = verifier_->stats();
  }

 protected:
  void build(std::vector<bmp::Instance> platforms, std::uint64_t order_seed) {
    platforms_ = std::move(platforms);
    best_ms_.assign(platforms_.size(), std::numeric_limits<double>::infinity());
    order_.resize(platforms_.size());
    for (std::size_t k = 0; k < order_.size(); ++k) order_[k] = k;
    bmp::util::Xoshiro256 rng(order_seed);
    for (std::size_t k = order_.size(); k > 1; --k) {
      std::swap(order_[k - 1], order_[rng.below(k)]);
    }
    bmp::engine::PlannerConfig config;
    config.threads = 1;
    config.cache_capacity = 0;
    config.verify_plans = false;  // verified below, by the benchmark's Verifier
    planner_ = std::make_unique<bmp::engine::Planner>(config);
    // Serial sink sweep: on a shared host a thread pool's rounds spread
    // twice as wide as a single thread's.
    bmp::flow::VerifyOptions options;
    options.auto_pool = false;
    verifier_ = std::make_unique<bmp::flow::Verifier>(options);
  }

 private:
  PlanSettings settings_;
  std::vector<bmp::Instance> platforms_;
  std::vector<std::size_t> order_;
  std::unique_ptr<bmp::engine::Planner> planner_;
  std::unique_ptr<bmp::flow::Verifier> verifier_;

  std::vector<Answer> answers_;
  std::vector<std::string> mismatches_;
  std::vector<double> best_ms_;  ///< per platform, over untraced rounds (throws too)
  std::uint64_t requests_ = 0, failed_ = 0, rounds_ = 0;
  std::uint64_t traced_requests_ = 0, traced_failed_ = 0, traced_rounds_ = 0;
  std::uint64_t hits_before_ = 0, misses_before_ = 0;
  bmp::flow::VerifyStats flow_before_;
};

// plan_scale: kAuto, out-degree bound 8, on about 20k-peer Unif100 platforms
// with p_open 0.5. The platforms come from fixed seeds, not from --seed, so
// the requests the planner throws on are the same in every run; --seed
// orders the requests.
constexpr int kScalePeers = 20000;
constexpr int kScalePlatforms = 10;
constexpr std::uint64_t kScaleSeedBase = 1;

class PlanScale : public PlanWorkload {
 public:
  PlanScale() : PlanWorkload({Algorithm::kAuto, 8, false}) {}
  void setup(const Options& options) override {
    std::vector<bmp::Instance> platforms;
    for (int k = 0; k < kScalePlatforms; ++k) {
      bmp::util::Xoshiro256 rng(kScaleSeedBase + static_cast<std::uint64_t>(k));
      platforms.push_back(bmp::gen::random_instance(
          {kScalePeers, 0.5, bmp::gen::Dist::kUnif100}, rng));
    }
    build(std::move(platforms), options.seed);
  }
};

// verify_cyclic: kCyclic on open-only platforms drawn from --seed. Planning
// is near-free; the tier-2 warm max-flow sweep (one Dinic solve per sink)
// does the work.
constexpr int kCyclicPeers = 2000;
constexpr int kCyclicPlatforms = 16;

class VerifyCyclic : public PlanWorkload {
 public:
  VerifyCyclic() : PlanWorkload({Algorithm::kCyclic, 0, true}) {}
  void setup(const Options& options) override {
    const bmp::util::Xoshiro256 base(options.seed);
    std::vector<bmp::Instance> platforms;
    for (int k = 0; k < kCyclicPlatforms; ++k) {
      bmp::util::Xoshiro256 rng = base.fork(static_cast<std::uint64_t>(k));
      platforms.push_back(bmp::gen::random_instance(
          {kCyclicPeers, 1.0, bmp::gen::Dist::kUnif100}, rng));
    }
    build(std::move(platforms), options.seed);
  }
};

}  // namespace

void time_candidates(Tracer& tracer, const bmp::Instance& platform, int max_out_degree) {
  {
    SpanScope span(&tracer, "core.acyclic");
    try {
      (void)bmp::engine::Planner::plan_uncached(platform, Algorithm::kAcyclic,
                                                max_out_degree);
    } catch (const std::exception&) {
      // plan_scale's failing platforms fail here too; counted in its rounds.
    }
  }
  {
    SpanScope span(&tracer, "baselines.chain");
    (void)bmp::baselines::chain(platform);
  }
  SpanScope span(&tracer, "baselines.tree");
  for (int arity = 1; arity <= 8; ++arity) {
    (void)bmp::baselines::kary_tree(platform, arity);
  }
}

void add_candidate_metrics(Result& result, const Tracer& tracer) {
  result.add_layer("core.acyclic_ms", tracer.median_ms("core.acyclic"), "ms");
  result.add_layer("baselines.chain_ms", tracer.median_ms("baselines.chain"), "ms");
  result.add_layer("baselines.tree_ms", tracer.median_ms("baselines.tree"), "ms");
}

std::unique_ptr<Workload> make_plan_scale() { return std::make_unique<PlanScale>(); }
std::unique_ptr<Workload> make_verify_cyclic() { return std::make_unique<VerifyCyclic>(); }

}  // namespace perfbench
