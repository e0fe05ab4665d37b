#include "bench.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "util/rng.h"

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Digest::add(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xffU;
    h_ *= 0x100000001b3ULL;
  }
}

void Digest::add(double v) { add(std::bit_cast<std::uint64_t>(v)); }

void Digest::add(const std::vector<double>& v) {
  add(static_cast<std::uint64_t>(v.size()));
  for (const double d : v) add(d);
}

void Digest::add(const meshopt::RatePlan& plan) {
  add(static_cast<std::uint64_t>(plan.ok));
  add(plan.y);
  add(plan.x);
  for (const meshopt::ShaperProgram& s : plan.shapers) {
    add(static_cast<std::uint64_t>(s.flow_id));
    add(s.x_bps);
  }
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double median_of_quantiles(const std::vector<std::vector<double>>& per_pass,
                           double q) {
  std::vector<double> per;
  for (const std::vector<double>& v : per_pass) per.push_back(quantile(v, q));
  return median(per);
}

double pf_utility(const std::vector<double>& y) {
  double u = 0.0;
  for (const double v : y) u += std::log(std::max(v, 1.0));
  return u;
}

int Tracer::layer(const std::string& name) {
  const auto it = std::find(names_.begin(), names_.end(), name);
  if (it != names_.end()) return static_cast<int>(it - names_.begin());
  names_.push_back(name);
  return static_cast<int>(names_.size() - 1);
}

int Tracer::begin(int layer, int parent) {
  spans_.push_back({layer, parent, now_ns(), 0});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::end(int span) {
  spans_[static_cast<std::size_t>(span)].t1 = now_ns();
}

std::vector<double> Tracer::durations_ms(int layer) const {
  std::vector<double> out;
  for (const Span& s : spans_)
    if (s.layer == layer) out.push_back(ms_between(s.t0, s.t1));
  return out;
}

std::int64_t Tracer::total_ns(const std::vector<int>& layers) const {
  std::int64_t total = 0;
  for (const Span& s : spans_)
    if (std::find(layers.begin(), layers.end(), s.layer) != layers.end())
      total += s.t1 - s.t0;
  return total;
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  out << "# layer\tparent\tstart_ns\tend_ns\n";
  for (const Span& s : spans_)
    out << names_[static_cast<std::size_t>(s.layer)] << '\t' << s.parent
        << '\t' << s.t0 << '\t' << s.t1 << '\n';
}

void Result::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  errors.push_back(what);
}

void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics.push_back({name, value, unit});
}

void log_pass(const char* workload, double setup_s, double timed_s,
              double work, const std::vector<double>& latency_ms) {
  std::fprintf(stderr,
               "pass %s setup_s=%.6f timed_s=%.6f per_s=%.3f p50_ms=%.6f "
               "p99_ms=%.6f\n",
               workload, setup_s, timed_s, work / timed_s,
               quantile(latency_ms, 0.50), quantile(latency_ms, 0.99));
}

void Result::coverage(double layer_ns, double timed_ns) {
  const double share = layer_ns / timed_ns;
  metric("trace.span_coverage", share, "ratio");
  check(share >= 0.95, "layer spans cover only " + std::to_string(share) +
                           " of the traced wall time");
}

std::uint64_t pass_seed(std::uint64_t seed, int pass) {
  return meshopt::RngStream::mix(seed, static_cast<std::uint64_t>(pass));
}

int pass_count(double seconds, double nominal_pass_s, int min_passes) {
  const int n = static_cast<int>(std::ceil(seconds / nominal_pass_s - 1e-9));
  return std::max(min_passes, n);
}

}  // namespace perfbench
