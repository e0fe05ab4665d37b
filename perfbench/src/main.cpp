// meshbench — the end-to-end benchmark program. perfbench/run.py builds
// and drives it; it can also be run by hand:
//
//   meshbench --workload live_gateway|replay_city|serve_mixed --seed N
//             --seconds S --trace 0|1 [--spans PATH] [--scratch DIR]
//
// It prints one JSON object on its last line: the workload's metrics
// (end-to-end with --trace 0, per-layer with --trace 1), the attempted
// and failed operation counts, the output digest and utility, and the
// process's CPU time and peak RSS. Exit status 0 means every output check
// passed.

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.h"

namespace {

using perfbench::Options;
using perfbench::Result;

void usage() {
  std::fprintf(stderr,
               "usage: meshbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--spans PATH] [--scratch DIR]\n");
  std::exit(2);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

void print_number(double v) {
  if (std::isfinite(v))
    std::printf("%.17g", v);
  else
    std::printf("null");
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload")
      opt.workload = val;
    else if (key == "--seed")
      opt.seed = std::strtoull(val.c_str(), nullptr, 10);
    else if (key == "--seconds")
      opt.seconds = std::atof(val.c_str());
    else if (key == "--trace")
      opt.trace = val == "1";
    else if (key == "--spans")
      opt.spans_path = val;
    else if (key == "--scratch")
      opt.scratch_dir = val;
    else
      usage();
  }
  if (argc % 2 == 0 || opt.seconds <= 0.0) usage();

  Result res;
  try {
    if (opt.workload == "live_gateway")
      res = perfbench::run_live_gateway(opt);
    else if (opt.workload == "replay_city")
      res = perfbench::run_replay_city(opt);
    else if (opt.workload == "serve_mixed")
      res = perfbench::run_serve_mixed(opt);
    else
      usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "meshbench: %s\n", e.what());
    return 1;
  }

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double cpu_s =
      static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
      1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
  if (!opt.trace)
    res.metric("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0,
               "MB");

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, ",
              res.correct ? "true" : "false",
              static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed));
  std::printf("\"digest\": \"%s\", \"utility\": ", res.digest.c_str());
  print_number(res.utility);
  std::printf(", \"repaired\": %llu, \"passes\": %d, \"timed_s\": ",
              static_cast<unsigned long long>(res.repaired), res.passes);
  print_number(res.timed_s);
  std::printf(", \"cpu_s\": ");
  print_number(cpu_s);
  std::printf(", \"errors\": [");
  for (std::size_t i = 0; i < res.errors.size(); ++i)
    std::printf("%s\"%s\"", i ? ", " : "", json_escape(res.errors[i]).c_str());
  std::printf("], \"metrics\": {");
  for (std::size_t i = 0; i < res.metrics.size(); ++i) {
    const perfbench::Metric& m = res.metrics[i];
    std::printf("%s\"%s\": {\"value\": ", i ? ", " : "", m.name.c_str());
    print_number(m.value);
    std::printf(", \"unit\": \"%s\"}", m.unit.c_str());
  }
  std::printf("}}\n");
  return res.correct ? 0 : 1;
}
