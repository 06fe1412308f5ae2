// Correctness checks of the benchmark's outputs. Every bound here is
// computed from the platform's bandwidths and the overlay's edge list
// alone: nothing calls core/bounds.hpp or the flow verifier, so a fault in
// either cannot hide itself. Each check returns the problems it found
// (empty = passed); selftest.cpp feeds every check a broken output.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bmp/core/instance.hpp"
#include "bmp/core/scheme.hpp"

namespace perfbench {

/// Bandwidths by node index: 0 is the source, 1..n open peers, n+1..n+m
/// guarded peers (the order of bmp::Instance).
struct Platform {
  std::vector<double> b;
  int n = 0;
  int m = 0;
};

struct Edge {
  int from = 0;
  int to = 0;
  double rate = 0.0;
};

[[nodiscard]] Platform platform_of(const bmp::Instance& instance);
[[nodiscard]] std::vector<Edge> edges_of(const bmp::BroadcastScheme& scheme);

/// Lemma 5.1: min(b0, (b0+O)/m, (b0+O+G)/(n+m)), vacuous terms skipped.
[[nodiscard]] double lemma51_bound(const Platform& platform);
/// Theorem 5.2, open-only platforms: min(b0, (b0+O)/n).
[[nodiscard]] double thm52_optimum(const Platform& platform);
[[nodiscard]] bool is_acyclic(int nodes, const std::vector<Edge>& edges);
/// Smallest summed in-rate over the non-source nodes.
[[nodiscard]] double min_in_rate(int nodes, const std::vector<Edge>& edges);

/// Every edge joins two nodes of the platform with a positive rate, no
/// guarded peer sends to a guarded peer, each sender's out-rate is at most
/// its bandwidth and, when `max_degree` > 0, each out-degree at most that.
[[nodiscard]] std::vector<std::string> check_budgets(
    const Platform& platform, const std::vector<Edge>& edges, int max_degree);

/// A planned overlay: budgets; for acyclic overlays the minimum in-rate
/// equals the verified throughput; verified throughput at most the Lemma
/// 5.1 bound; an acyclic pick (`acyclic_pick`) at least 5/7 of it
/// (Theorem 6.2).
[[nodiscard]] std::vector<std::string> check_plan(
    const Platform& platform, const std::vector<Edge>& edges, double verified,
    bool acyclic_pick, int max_degree);

/// A cyclic plan on an open-only platform: budgets, and verified
/// throughput equal to the Theorem 5.2 optimum.
[[nodiscard]] std::vector<std::string> check_cyclic_open(
    const Platform& platform, const std::vector<Edge>& edges, double verified);

/// The tier-3 oracle and the verifier agree.
[[nodiscard]] std::vector<std::string> check_oracle(double verified,
                                                    double oracle);

/// One finished chunk stream on a fixed overlay.
struct StreamOutcome {
  int emitted = 0;
  std::vector<int> receiver_delivered;  ///< per non-source node
  std::uint64_t delivered_total = 0;    ///< the report's delivered_chunks
  double achieved = 0.0;
  double verified = 0.0;
  std::vector<std::string> validate;  ///< Execution::validate()
};

/// Every receiver holds every chunk, the per-node counts sum to the
/// report's total, achieved rate at most verified, and the execution's own
/// audit is clean.
[[nodiscard]] std::vector<std::string> check_stream(const StreamOutcome& stream);

/// One channel of an adaptive run, as its StreamReport gives it.
struct ChannelOutcome {
  std::uint64_t delivered = 0;
  double achieved = 0.0;
  double verified = 0.0;
};

/// The whole-loop run: every event stepped, Runtime::validate() clean,
/// achieved at most verified on every stream, stream deliveries summing to
/// the dataplane.delivered counter, and the replay's metrics snapshot
/// byte-identical to the first run's.
struct ChurnOutcome {
  std::uint64_t events = 0;
  std::uint64_t events_stepped = 0;
  std::vector<std::string> validate;
  std::vector<ChannelOutcome> streams;
  std::uint64_t delivered_counter = 0;
  std::string snapshot;
  std::string first_snapshot;
};

[[nodiscard]] std::vector<std::string> check_churn(const ChurnOutcome& run);

}  // namespace perfbench
