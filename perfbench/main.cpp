// perfbench: the service benchmark's binary.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --workdir DIR
//
// Runs one workload (analytics-flat, analytics-tiered, serve-ingest,
// dist-scatter), checks its answers outside the clock, prints every metric
// by name and unit, and ends with a "RESULT {json}" line that run.py
// filters down to the metric set BENCHMARK.json names.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>

#include "bench.hpp"

namespace perfbench {

namespace {
const Clock::time_point kStart = Clock::now();
}

double now_ms() { return ms_between(kStart, Clock::now()); }

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double harmonic_mean(const std::vector<double>& v) {
  double inv = 0;
  for (double x : v) inv += 1.0 / x;
  return v.empty() || inv == 0 ? 0.0 : static_cast<double>(v.size()) / inv;
}

double analytic_mean(const std::vector<double>& wcc_ms,
                     const std::vector<double>& pagerank_ms) {
  return (mean(wcc_ms) + mean(pagerank_ms)) / 2.0;
}

double peak_rss_mb(int pid) {
  const std::string path =
      pid == 0 ? std::string("/proc/self/status")
               : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    unsigned long kb = 0;
    if (std::sscanf(line.c_str(), "VmHWM: %lu kB", &kb) == 1) {
      return static_cast<double>(kb) / 1024.0;
    }
  }
  return 0.0;
}

const char* layer_name(Layer l) {
  switch (l) {
    case Layer::kGraph: return "graph";
    case Layer::kEngine: return "engine";
    case Layer::kKernels: return "kernels";
    case Layer::kStore: return "store";
    case Layer::kServer: return "server";
    case Layer::kDist: return "dist";
    case Layer::kObs: return "obs";
    case Layer::kNone: return "none";
  }
  return "?";
}

int Lane::open(const char* name, Layer layer, std::uint64_t trace_id) {
  spans_.push_back({name, layer, now_ms(), 0.0, cur_, trace_id});
  cur_ = static_cast<int>(spans_.size()) - 1;
  return cur_;
}

void Lane::close(int id) {
  spans_[id].end_ms = now_ms();
  cur_ = spans_[id].parent;
}

void Lane::interval(int parent, const char* name, Layer layer,
                    double start_ms, double end_ms, std::uint64_t trace_id) {
  if (!on_ || parent < 0) return;
  const Span& p = spans_[parent];
  start_ms = std::max(start_ms, p.start_ms);
  if (p.end_ms > 0) end_ms = std::min(end_ms, p.end_ms);
  spans_.push_back({name, layer, start_ms, std::max(start_ms, end_ms), parent,
                    trace_id});
}

Lane& SpanLog::lane(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  lanes_.emplace_back(name, Lane(on_));
  return lanes_.back().second;
}

Rollup SpanLog::rollup() const {
  std::lock_guard<std::mutex> lk(mu_);
  Rollup r;
  for (const auto& [name, lane] : lanes_) {
    const auto& s = lane.spans();
    std::vector<double> child_ms(s.size(), 0.0);
    for (const Span& sp : s) {
      if (sp.parent >= 0) child_ms[sp.parent] += sp.end_ms - sp.start_ms;
    }
    for (std::size_t i = 0; i < s.size(); ++i) {
      const double dur = s[i].end_ms - s[i].start_ms;
      const double self = dur - child_ms[i];
      if (s[i].parent < 0) r.wall_ms += dur;
      if (s[i].layer == Layer::kNone) {
        r.unattributed_ms += self;
      } else {
        r.self_ms[static_cast<int>(s[i].layer)] += self;
      }
    }
  }
  return r;
}

void SpanLog::write(const std::string& path) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  for (const auto& [name, lane] : lanes_) {
    const auto& s = lane.spans();
    for (std::size_t i = 0; i < s.size(); ++i) {
      std::fprintf(f,
                   "{\"lane\":\"%s\",\"id\":%zu,\"parent\":%d,\"trace\":%llu,"
                   "\"name\":\"%s\",\"layer\":\"%s\",\"start_ms\":%.6f,"
                   "\"end_ms\":%.6f}\n",
                   name.c_str(), i, s[i].parent,
                   static_cast<unsigned long long>(s[i].trace_id), s[i].name,
                   layer_name(s[i].layer), s[i].start_ms, s[i].end_ms);
    }
  }
  std::fclose(f);
}

void Report::add(const std::string& name, double value,
                 const std::string& unit) {
  if (!std::isfinite(value)) {
    check_failed("metric " + name + " is not finite");
    value = 0.0;
  }
  values_[name] = {value, unit};
}

void Report::check_failed(const std::string& what) {
  ++check_failures_;
  std::printf("CHECK FAILED: %s\n", what.c_str());
}

void Report::add_rollup(const Rollup& r) {
  const double wall = r.wall_ms > 0 ? r.wall_ms : 1.0;
  double sum = r.unattributed_ms;
  for (int l = 0; l < kNumLayers; ++l) {
    add(std::string("span.self_share.") + layer_name(static_cast<Layer>(l)),
        r.self_ms[l] / wall, "ratio");
    sum += r.self_ms[l];
  }
  add("span.unattributed_share", r.unattributed_ms / wall, "ratio");
  std::printf("span ledger: self times sum to %.3f of %.1f ms traced wall\n",
              sum / wall, r.wall_ms);
}

void Report::print() const {
  std::printf("%-34s %16s  %s\n", "metric", "value", "unit");
  for (const auto& [name, v] : values_) {
    std::printf("%-34s %16.6g  %s\n", name.c_str(), v.v, v.unit.c_str());
  }
  const double failed_frac =
      attempted_ ? static_cast<double>(failed_) / attempted_ : 0.0;
  std::printf("%-34s %16.6g  %s  (%llu of %llu operations)\n", "failed_frac",
              failed_frac, "ratio", static_cast<unsigned long long>(failed_),
              static_cast<unsigned long long>(attempted_));
  std::printf("RESULT {\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              check_failures_ == 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
  bool first = true;
  for (const auto& [name, v] : values_) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), v.v, v.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

double tail_quantile(const std::string& workload) {
  if (workload == "serve-ingest") return 0.99;
  if (workload == "analytics-tiered") return 0.75;
  return 0.90;
}

}  // namespace perfbench

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload analytics-flat|analytics-tiered|"
               "serve-ingest|dist-scatter --seed N --seconds S --trace 0|1 "
               "--workdir DIR\n",
               argv0);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      args.workload = v;
    } else if (k == "--seed") {
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      args.seconds = std::atof(v);
    } else if (k == "--trace") {
      args.trace = std::atoi(v) != 0;
    } else if (k == "--workdir") {
      args.workdir = v;
    } else {
      usage(argv[0]);
      return 2;
    }
  }
  if (argc % 2 == 0 || args.workdir.empty() || args.seconds <= 0) {
    usage(argv[0]);
    return 2;
  }
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  try {
    std::filesystem::create_directories(args.workdir);
    Report rep;
    if (args.workload == "analytics-flat") {
      run_analytics(args, /*tiered=*/false, rep);
    } else if (args.workload == "analytics-tiered") {
      run_analytics(args, /*tiered=*/true, rep);
    } else if (args.workload == "serve-ingest") {
      run_serve_ingest(args, rep);
    } else if (args.workload == "dist-scatter") {
      run_dist_scatter(args, rep);
    } else {
      usage(argv[0]);
      return 2;
    }
    rep.print();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: fatal: %s\n", e.what());
    return 1;
  }
  return 0;
}
