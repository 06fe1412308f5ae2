// Self-test of the correctness checks: each check must accept a real output
// of the program and refuse the same output broken in one way.
//   perfbench --selftest      (exit 0 = every check behaved)
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bmp/dataplane/execution.hpp"
#include "bmp/engine/planner.hpp"
#include "bmp/flow/verify.hpp"
#include "bmp/gen/generator.hpp"
#include "bmp/util/rng.hpp"
#include "checks.hpp"

namespace perfbench {

namespace {

/// A check run on one output; `refusal` is empty when the check must
/// accept it, else a phrase the check's first problem must contain.
struct Case {
  std::string name;
  std::string refusal;
  std::function<std::vector<std::string>()> run;
};

struct PlannedCase {
  Platform platform;
  std::vector<Edge> edges;
  double verified = 0.0;
  bool acyclic_pick = false;
};

PlannedCase planned(double p_open, bmp::engine::Algorithm algorithm, int bound) {
  bmp::util::Xoshiro256 rng(11);
  const bmp::Instance instance =
      bmp::gen::random_instance({60, p_open, bmp::gen::Dist::kUnif100}, rng);
  const bmp::engine::PlanResponse plan =
      bmp::engine::Planner::plan_uncached(instance, algorithm, bound);
  return {platform_of(instance), edges_of(*plan.scheme),
          bmp::flow::verify_throughput(*plan.scheme).throughput,
          plan.algorithm == bmp::engine::Algorithm::kAcyclic};
}

StreamOutcome streamed() {
  bmp::util::Xoshiro256 rng(12);
  const bmp::Instance instance =
      bmp::gen::random_instance({40, 0.5, bmp::gen::Dist::kUnif100}, rng);
  const bmp::engine::PlanResponse plan = bmp::engine::Planner::plan_uncached(
      instance, bmp::engine::Algorithm::kAcyclic, 0);
  const double verified = bmp::flow::verify_throughput(*plan.scheme).throughput;
  bmp::dataplane::ExecutionConfig config;
  config.chunk_size = verified * 0.05;
  config.total_chunks = 100;
  config.emission_rate = verified;
  config.warmup_chunks = 20;
  config.loss_rate = 0.02;
  config.latency = 0.01;
  bmp::dataplane::Execution execution(instance, *plan.scheme, config);
  execution.run_to_completion();
  const bmp::dataplane::ExecutionReport report = execution.report(verified);
  StreamOutcome stream;
  stream.emitted = report.emitted;
  for (std::size_t id = 1; id < report.nodes.size(); ++id) {
    stream.receiver_delivered.push_back(report.nodes[id].delivered);
  }
  stream.delivered_total = report.delivered_chunks;
  stream.achieved = report.achieved_rate;
  stream.verified = verified;
  stream.validate = execution.validate();
  return stream;
}

ChurnOutcome churned() {
  ChurnOutcome run;
  run.events = 40;
  run.events_stepped = 40;
  run.streams = {{300, 9.5, 10.0}, {200, 4.0, 4.0}};
  run.delivered_counter = 500;
  run.snapshot = "counter dataplane.delivered 500\n";
  run.first_snapshot = run.snapshot;
  return run;
}

/// Raises the source's first out-edge by the source's whole bandwidth.
std::vector<Edge> over_budget(const PlannedCase& plan) {
  std::vector<Edge> edges = plan.edges;
  for (Edge& e : edges) {
    if (e.from == 0) {
      e.rate += plan.platform.b[0];
      break;
    }
  }
  return edges;
}

}  // namespace

int run_selftest() {
  const PlannedCase autoplan = planned(0.5, bmp::engine::Algorithm::kAuto, 8);
  const PlannedCase acyclic = planned(0.5, bmp::engine::Algorithm::kAcyclic, 0);
  const PlannedCase cyclic = planned(1.0, bmp::engine::Algorithm::kCyclic, 0);
  const StreamOutcome stream = streamed();

  std::vector<Case> cases = {
      {"plan: real kAuto overlay passes", "",
       [&] { return check_plan(autoplan.platform, autoplan.edges, autoplan.verified, autoplan.acyclic_pick, 8); }},
      {"plan: edge rate past its sender's bandwidth", "past its bandwidth",
       [&] { return check_plan(autoplan.platform, over_budget(autoplan), autoplan.verified, autoplan.acyclic_pick, 8); }},
      {"plan: out-degree above the bound", "out-degree",
       [&] { return check_plan(autoplan.platform, autoplan.edges, autoplan.verified, autoplan.acyclic_pick, 1); }},
      {"plan: guarded peer sends to a guarded peer", "sends to guarded",
       [&] {
         std::vector<Edge> edges = autoplan.edges;
         const int g = autoplan.platform.n + 1;
         edges.push_back({g, g + 1, 1e-6});
         return check_plan(autoplan.platform, edges, autoplan.verified, autoplan.acyclic_pick, 0);
       }},
      {"plan: verified T differs from the min in-rate", "min in-rate",
       [&] { return check_plan(acyclic.platform, acyclic.edges, acyclic.verified * 0.99, true, 0); }},
      {"plan: verified T above the Lemma 5.1 bound", "above the Lemma 5.1",
       [&] {
         // A cyclic overlay, so the min in-rate identity does not apply.
         const double above = lemma51_bound(cyclic.platform) * 1.01;
         return check_plan(cyclic.platform, cyclic.edges, above, false, 0);
       }},
      {"plan: acyclic pick below 5/7 of the bound", "below 5/7",
       [&] {
         const double low = lemma51_bound(cyclic.platform) * 0.70;
         return check_plan(cyclic.platform, cyclic.edges, low, true, 0);
       }},
      {"cyclic: real kCyclic overlay passes", "",
       [&] { return check_cyclic_open(cyclic.platform, cyclic.edges, cyclic.verified); }},
      {"cyclic: verified T off the Theorem 5.2 optimum", "Theorem 5.2",
       [&] { return check_cyclic_open(cyclic.platform, cyclic.edges, cyclic.verified * (1 - 1e-6)); }},
      {"oracle: agreeing values pass", "", [] { return check_oracle(5.0, 5.0); }},
      {"oracle: disagreeing values", "oracle disagrees", [] { return check_oracle(5.0, 4.999); }},
      {"stream: real execution passes", "", [&] { return check_stream(stream); }},
      {"stream: a receiver misses one chunk", "miss chunks",
       [&] {
         StreamOutcome s = stream;
         --s.receiver_delivered.back();
         --s.delivered_total;
         return check_stream(s);
       }},
      {"stream: per-node counts do not sum to the total", "sum to",
       [&] {
         StreamOutcome s = stream;
         ++s.delivered_total;
         return check_stream(s);
       }},
      {"stream: achieved rate above verified", "above verified",
       [&] {
         StreamOutcome s = stream;
         s.achieved = s.verified * 1.001;
         return check_stream(s);
       }},
      {"stream: execution audit reports a violation", "oversubscribed",
       [&] {
         StreamOutcome s = stream;
         s.validate.push_back("node 3 oversubscribed");
         return check_stream(s);
       }},
      {"churn: consistent run passes", "", [] { return check_churn(churned()); }},
      {"churn: an event did not step", "did not step",
       [] {
         ChurnOutcome r = churned();
         --r.events_stepped;
         return check_churn(r);
       }},
      {"churn: runtime audit reports a violation", "above budget",
       [] {
         ChurnOutcome r = churned();
         r.validate.push_back("node 7 allocation above budget");
         return check_churn(r);
       }},
      {"churn: a stream achieved more than verified", "above verified",
       [] {
         ChurnOutcome r = churned();
         r.streams[1].achieved = 4.1;
         return check_churn(r);
       }},
      {"churn: stream deliveries differ from the counter", "dataplane.delivered says",
       [] {
         ChurnOutcome r = churned();
         ++r.delivered_counter;
         return check_churn(r);
       }},
      {"churn: replay snapshot differs", "replay did not",
       [] {
         ChurnOutcome r = churned();
         r.snapshot = "counter dataplane.delivered 501\n";
         return check_churn(r);
       }},
  };

  int wrong = 0;
  for (const Case& c : cases) {
    const std::vector<std::string> problems = c.run();
    const bool passed = problems.empty();
    const bool as_expected =
        c.refusal.empty() ? passed
                          : !passed && problems.front().find(c.refusal) != std::string::npos;
    if (!as_expected) ++wrong;
    std::printf("%s %s -> %s\n", as_expected ? "ok  " : "FAIL", c.name.c_str(),
                passed ? "accepted" : ("refused: " + problems.front()).c_str());
  }
  std::printf("selftest: %zu cases, %d wrong\n", cases.size(), wrong);
  return wrong == 0 ? 0 : 1;
}

}  // namespace perfbench
