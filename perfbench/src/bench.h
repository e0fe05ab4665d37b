#pragma once
// Shared machinery of the end-to-end benchmark: the clock, output
// digests, quantiles, benchmark-side layer spans, and the result record
// each workload fills in.
//
// Every workload times the library through its public calls only. A run
// is a fixed number of passes; each pass builds its inputs from the seed
// (set-up), then does a fixed number of rounds, jobs or ticks (the timed
// phase). The amount of work therefore depends on (seed, --seconds) and
// never on the wall clock, and every pass must reproduce the same output
// digest.

#include <cstdint>
#include <string>
#include <vector>

#include "core/rate_plan.h"

namespace perfbench {

/// Monotonic wall clock in nanoseconds.
[[nodiscard]] std::int64_t now_ns();

[[nodiscard]] inline double ms_between(std::int64_t t0, std::int64_t t1) {
  return static_cast<double>(t1 - t0) * 1e-6;
}

/// FNV-1a over exact bit patterns: two runs agree only if every planned
/// rate, verdict and health state agrees bit for bit.
class Digest {
 public:
  void add(std::uint64_t v);
  void add(double v);
  void add(const std::vector<double>& v);
  /// Feasibility, y, x and shaper programs of one plan.
  void add(const meshopt::RatePlan& plan);
  [[nodiscard]] std::uint64_t value() const { return h_; }
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Linearly interpolated quantile (q in [0, 1]); 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

[[nodiscard]] double mean(const std::vector<double>& v);

/// Median over passes of each pass's q-quantile: one pass that a noisy
/// neighbour slowed moves it no more than any other pass.
[[nodiscard]] double median_of_quantiles(
    const std::vector<std::vector<double>>& per_pass, double q);

/// Proportional-fair objective of one plan: sum of ln(y_s) over its flows,
/// with y in bits/s (positive for any flow above 1 bit/s).
[[nodiscard]] double pf_utility(const std::vector<double>& y);

/// Benchmark-side spans, kept in memory and written out when the run
/// ends. A span records the layer it times, the span that caused it, and
/// its start and end.
class Tracer {
 public:
  struct Span {
    int layer = 0;
    int parent = -1;
    std::int64_t t0 = 0;
    std::int64_t t1 = 0;
  };

  /// Id of a named layer (registered on first use).
  int layer(const std::string& name);
  int begin(int layer, int parent = -1);
  void end(int span);

  /// Durations (ms) of every span of `layer`.
  [[nodiscard]] std::vector<double> durations_ms(int layer) const;
  /// Summed duration (ns) of every span of the given layers.
  [[nodiscard]] std::int64_t total_ns(const std::vector<int>& layers) const;

  /// Write one line per span: layer, parent, start and end (ns).
  void write(const std::string& path) const;

 private:
  std::vector<std::string> names_;
  std::vector<Span> spans_;
};

/// RAII span; a null tracer records nothing.
class Scope {
 public:
  Scope(Tracer* tracer, int layer, int parent = -1)
      : tracer_(tracer), id_(tracer ? tracer->begin(layer, parent) : -1) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  [[nodiscard]] int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports.
struct Result {
  bool correct = true;
  std::vector<std::string> errors;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::string digest;      ///< output digest, identical on every pass
  double utility = 0.0;    ///< mean PF objective of the plans produced
  std::uint64_t repaired = 0;  ///< poisoned inputs the guard repaired
  int passes = 0;
  double timed_s = 0.0;    ///< wall time of the timed phases

  void check(bool ok, const std::string& what);
  void metric(const std::string& name, double value, const std::string& unit);
  /// trace.span_coverage: the share of the traced timed phases that layer
  /// spans cover, which must be at least 95%.
  void coverage(double layer_ns, double timed_ns);
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;    ///< where a traced run writes its spans
  std::string scratch_dir;   ///< where a workload may write files
};

/// One stderr line per pass (set-up, timed phase, rate, latency quantiles),
/// so a run's within-run noise can be inspected.
void log_pass(const char* workload, double setup_s, double timed_s,
              double work, const std::vector<double>& latency_ms);

/// Seed of one pass. Passes draw distinct inputs, so the medians of a run
/// average over many input draws; a run stays a pure function of (seed,
/// pass count).
[[nodiscard]] std::uint64_t pass_seed(std::uint64_t seed, int pass);

/// Passes a run makes: enough that the timed phases last about `seconds`
/// on the reference host, and at least `min_passes` for stable medians.
[[nodiscard]] int pass_count(double seconds, double nominal_pass_s,
                             int min_passes = 3);

Result run_live_gateway(const Options& opt);
Result run_replay_city(const Options& opt);
Result run_serve_mixed(const Options& opt);

}  // namespace perfbench
