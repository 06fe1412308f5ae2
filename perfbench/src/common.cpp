#include "common.hpp"

#include <sys/resource.h>
#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <map>
#include <numeric>

namespace perfbench {

namespace {

const Clock::time_point kProcessStart = Clock::now();

}  // namespace

double process_seconds() { return seconds_since(kProcessStart); }

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

void Result::require(const std::vector<std::string>& found,
                     const std::string& where) {
  for (const std::string& problem : found) {
    problems.push_back(where + ": " + problem);
  }
}

void Result::add_e2e(std::string name, double value, std::string unit) {
  end_to_end.push_back({std::move(name), value, std::move(unit)});
}

void Result::add_layer(std::string name, double value, std::string unit) {
  per_layer.push_back({std::move(name), value, std::move(unit)});
}

int Tracer::open(std::string name) {
  const int id = static_cast<int>(spans_.size());
  spans_.push_back({std::move(name), stack_.empty() ? -1 : stack_.back(),
                    process_seconds(), 0.0});
  stack_.push_back(id);
  return id;
}

void Tracer::close(int id) {
  spans_[static_cast<std::size_t>(id)].end = process_seconds();
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

double Tracer::duration(int id) const {
  const Span& span = spans_[static_cast<std::size_t>(id)];
  return span.end - span.start;
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name) out.push_back(span.end - span.start);
  }
  return out;
}

double Tracer::median_ms(const std::string& name) const {
  return 1e3 * median(durations(name));
}

double Tracer::child_coverage(int root) const {
  double covered = 0.0;
  for (const Span& span : spans_) {
    if (span.parent == root) covered += span.end - span.start;
  }
  const double total = duration(root);
  return total > 0.0 ? covered / total : 0.0;
}

bool Tracer::write(const std::string& path) const {
  std::vector<double> child_time(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_time[static_cast<std::size_t>(span.parent)] += span.end - span.start;
    }
  }
  std::map<std::string, std::pair<double, std::uint64_t>> self;  // ms, count
  for (std::size_t k = 0; k < spans_.size(); ++k) {
    auto& [ms, count] = self[spans_[k].name];
    ms += 1e3 * (spans_[k].end - spans_[k].start - child_time[k]);
    ++count;
  }
  std::ofstream out(path);
  out << std::setprecision(17) << "{\"traceEvents\":[";
  for (std::size_t k = 0; k < spans_.size(); ++k) {
    const Span& span = spans_[k];
    out << (k == 0 ? "" : ",") << "\n{\"name\":\"" << span.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << 1e6 * span.start
        << ",\"dur\":" << 1e6 * (span.end - span.start)
        << ",\"args\":{\"id\":" << k << ",\"parent\":" << span.parent << "}}";
  }
  out << "\n],\"self_ms\":{";
  bool first = true;
  for (const auto& [name, entry] : self) {
    out << (first ? "" : ",") << "\n\"" << name << "\":{\"ms\":" << entry.first
        << ",\"count\":" << entry.second << "}";
    first = false;
  }
  out << "\n}}\n";
  return static_cast<bool>(out);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

ReferenceKernel::ReferenceKernel() : next_(std::size_t{1} << 21) {
  std::iota(next_.begin(), next_.end(), 0U);
  std::uint64_t state = 0x2545F4914F6CDD1DULL;
  for (std::size_t k = next_.size() - 1; k > 0; --k) {  // Sattolo: a single cycle
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    std::swap(next_[k], next_[(state >> 33) % k]);
  }
}

double ReferenceKernel::sample_ms() {
#if defined(__x86_64__) || defined(__i386__)
  // Every pass walks the cycle from memory, whatever the rounds before it
  // left in the caches: the kernel must not read the program's footprint.
  const char* bytes = reinterpret_cast<const char*>(next_.data());
  for (std::size_t at = 0; at < next_.size() * sizeof(next_[0]); at += 64) {
    _mm_clflush(bytes + at);
  }
  _mm_mfence();
#endif
  const Clock::time_point start = Clock::now();
  std::uint64_t x = 0x9E3779B97F4A7C15ULL + passes_++;
  double acc = 0.0;
  for (int i = 0; i < 2'500'000; ++i) {
    x ^= x >> 31;
    x *= 0xBF58476D1CE4E5B9ULL;
    acc += std::sqrt(static_cast<double>(x >> 11));
  }
  std::uint32_t at = 0;
  for (std::size_t i = 0; i < next_.size() / 8; ++i) at = next_[at];
  volatile double sink = acc + at;
  (void)sink;
  return 1e3 * seconds_since(start);
}

}  // namespace perfbench
