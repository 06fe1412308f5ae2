#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

namespace perfbench {

namespace {

constexpr double kRelTol = 1e-9;

bool close_rel(double a, double b) {
  return std::abs(a - b) <= kRelTol * std::max({std::abs(a), std::abs(b), 1e-300});
}

std::string describe(const std::string& what, double got, double want) {
  std::ostringstream out;
  out.precision(17);
  out << what << " (" << got << " vs " << want << ")";
  return out.str();
}

}  // namespace

Platform platform_of(const bmp::Instance& instance) {
  Platform platform;
  platform.n = instance.n();
  platform.m = instance.m();
  platform.b.reserve(static_cast<std::size_t>(instance.size()));
  for (int i = 0; i < instance.size(); ++i) platform.b.push_back(instance.b(i));
  return platform;
}

std::vector<Edge> edges_of(const bmp::BroadcastScheme& scheme) {
  std::vector<Edge> edges;
  for (int from = 0; from < scheme.num_nodes(); ++from) {
    for (const auto& [to, rate] : scheme.out_edges(from)) {
      edges.push_back({from, to, rate});
    }
  }
  return edges;
}

double lemma51_bound(const Platform& platform) {
  double open = 0.0;
  double guarded = 0.0;
  for (int i = 1; i <= platform.n; ++i) open += platform.b[static_cast<std::size_t>(i)];
  for (int i = platform.n + 1; i <= platform.n + platform.m; ++i) {
    guarded += platform.b[static_cast<std::size_t>(i)];
  }
  const double b0 = platform.b[0];
  double bound = b0;
  if (platform.m > 0) bound = std::min(bound, (b0 + open) / platform.m);
  if (platform.n + platform.m > 0) {
    bound = std::min(bound, (b0 + open + guarded) / (platform.n + platform.m));
  }
  return bound;
}

double thm52_optimum(const Platform& platform) {
  double open = 0.0;
  for (int i = 1; i <= platform.n; ++i) open += platform.b[static_cast<std::size_t>(i)];
  const double b0 = platform.b[0];
  return platform.n == 0 ? b0 : std::min(b0, (b0 + open) / platform.n);
}

bool is_acyclic(int nodes, const std::vector<Edge>& edges) {
  std::vector<int> indegree(static_cast<std::size_t>(nodes), 0);
  std::vector<std::vector<int>> out(static_cast<std::size_t>(nodes));
  for (const Edge& e : edges) {
    out[static_cast<std::size_t>(e.from)].push_back(e.to);
    ++indegree[static_cast<std::size_t>(e.to)];
  }
  std::vector<int> ready;
  for (int v = 0; v < nodes; ++v) {
    if (indegree[static_cast<std::size_t>(v)] == 0) ready.push_back(v);
  }
  int seen = 0;
  while (!ready.empty()) {
    const int v = ready.back();
    ready.pop_back();
    ++seen;
    for (int w : out[static_cast<std::size_t>(v)]) {
      if (--indegree[static_cast<std::size_t>(w)] == 0) ready.push_back(w);
    }
  }
  return seen == nodes;
}

double min_in_rate(int nodes, const std::vector<Edge>& edges) {
  std::vector<double> in(static_cast<std::size_t>(nodes), 0.0);
  for (const Edge& e : edges) in[static_cast<std::size_t>(e.to)] += e.rate;
  double least = std::numeric_limits<double>::infinity();
  for (int v = 1; v < nodes; ++v) least = std::min(least, in[static_cast<std::size_t>(v)]);
  return least;
}

std::vector<std::string> check_budgets(const Platform& platform,
                                       const std::vector<Edge>& edges,
                                       int max_degree) {
  std::vector<std::string> problems;
  const int nodes = static_cast<int>(platform.b.size());
  std::vector<double> out_rate(platform.b.size(), 0.0);
  std::vector<int> out_degree(platform.b.size(), 0);
  for (const Edge& e : edges) {
    if (e.from < 0 || e.from >= nodes || e.to < 0 || e.to >= nodes ||
        e.from == e.to) {
      problems.push_back("edge " + std::to_string(e.from) + "->" +
                         std::to_string(e.to) + " outside the platform");
      continue;
    }
    if (!(e.rate > 0.0) || !std::isfinite(e.rate)) {
      problems.push_back(describe("edge " + std::to_string(e.from) + "->" +
                                      std::to_string(e.to) + " rate not positive",
                                  e.rate, 0.0));
    }
    if (e.from > platform.n && e.to > platform.n) {
      problems.push_back("guarded peer " + std::to_string(e.from) +
                         " sends to guarded peer " + std::to_string(e.to));
    }
    out_rate[static_cast<std::size_t>(e.from)] += e.rate;
    ++out_degree[static_cast<std::size_t>(e.from)];
  }
  for (int i = 0; i < nodes; ++i) {
    const double budget = platform.b[static_cast<std::size_t>(i)];
    const double used = out_rate[static_cast<std::size_t>(i)];
    if (used > budget * (1.0 + kRelTol) + 1e-12) {
      problems.push_back(describe("node " + std::to_string(i) +
                                      " sends past its bandwidth",
                                  used, budget));
    }
    if (max_degree > 0 && out_degree[static_cast<std::size_t>(i)] > max_degree) {
      problems.push_back("node " + std::to_string(i) + " out-degree " +
                         std::to_string(out_degree[static_cast<std::size_t>(i)]) +
                         " > " + std::to_string(max_degree));
    }
  }
  return problems;
}

std::vector<std::string> check_plan(const Platform& platform,
                                    const std::vector<Edge>& edges,
                                    double verified, bool acyclic_pick,
                                    int max_degree) {
  std::vector<std::string> problems = check_budgets(platform, edges, max_degree);
  const int nodes = static_cast<int>(platform.b.size());
  if (is_acyclic(nodes, edges)) {
    const double least = min_in_rate(nodes, edges);
    if (!close_rel(least, verified)) {
      problems.push_back(describe("acyclic overlay: min in-rate differs from "
                                  "verified throughput",
                                  least, verified));
    }
  }
  const double bound = lemma51_bound(platform);
  if (verified > bound * (1.0 + kRelTol)) {
    problems.push_back(describe("verified throughput above the Lemma 5.1 bound",
                                verified, bound));
  }
  if (acyclic_pick && verified < (5.0 / 7.0) * bound * (1.0 - kRelTol)) {
    problems.push_back(describe("acyclic pick below 5/7 of the Lemma 5.1 bound",
                                verified, (5.0 / 7.0) * bound));
  }
  return problems;
}

std::vector<std::string> check_cyclic_open(const Platform& platform,
                                           const std::vector<Edge>& edges,
                                           double verified) {
  std::vector<std::string> problems = check_budgets(platform, edges, 0);
  if (platform.m != 0) problems.push_back("platform has guarded peers");
  const double optimum = thm52_optimum(platform);
  if (!close_rel(verified, optimum)) {
    problems.push_back(describe("verified throughput differs from the "
                                "Theorem 5.2 optimum",
                                verified, optimum));
  }
  return problems;
}

std::vector<std::string> check_oracle(double verified, double oracle) {
  if (close_rel(verified, oracle)) return {};
  return {describe("tier-3 oracle disagrees with the verifier", oracle, verified)};
}

std::vector<std::string> check_stream(const StreamOutcome& stream) {
  std::vector<std::string> problems = stream.validate;
  std::uint64_t sum = 0;
  int short_nodes = 0;
  for (int delivered : stream.receiver_delivered) {
    sum += static_cast<std::uint64_t>(delivered);
    if (delivered != stream.emitted) ++short_nodes;
  }
  if (stream.emitted <= 0) problems.push_back("no chunk emitted");
  if (short_nodes > 0) {
    problems.push_back(std::to_string(short_nodes) +
                       " receivers miss chunks of " +
                       std::to_string(stream.emitted));
  }
  if (sum != stream.delivered_total) {
    problems.push_back("per-node deliveries sum to " + std::to_string(sum) +
                       ", the report says " +
                       std::to_string(stream.delivered_total));
  }
  if (stream.achieved > stream.verified * (1.0 + kRelTol)) {
    problems.push_back(describe("achieved rate above verified throughput",
                                stream.achieved, stream.verified));
  }
  return problems;
}

std::vector<std::string> check_churn(const ChurnOutcome& run) {
  std::vector<std::string> problems = run.validate;
  if (run.events_stepped != run.events) {
    problems.push_back(std::to_string(run.events - run.events_stepped) +
                       " of " + std::to_string(run.events) +
                       " events did not step");
  }
  std::uint64_t sum = 0;
  for (std::size_t k = 0; k < run.streams.size(); ++k) {
    const ChannelOutcome& stream = run.streams[k];
    sum += stream.delivered;
    if (stream.achieved > stream.verified * (1.0 + kRelTol)) {
      problems.push_back(describe("stream " + std::to_string(k) +
                                      ": achieved rate above verified",
                                  stream.achieved, stream.verified));
    }
  }
  if (run.streams.empty()) problems.push_back("no stream reported");
  if (sum != run.delivered_counter) {
    problems.push_back("stream deliveries sum to " + std::to_string(sum) +
                       ", dataplane.delivered says " +
                       std::to_string(run.delivered_counter));
  }
  if (run.snapshot != run.first_snapshot) {
    problems.push_back("replay did not reproduce the metrics snapshot");
  }
  return problems;
}

}  // namespace perfbench
