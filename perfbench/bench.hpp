// Shared pieces of the service benchmark: the command line, the clock,
// sample statistics, the in-memory span log behind the traced run, and the
// metric report whose "RESULT" line run.py turns into the final JSON.
//
// Layers are measured from outside: every span is recorded here, around a
// call into one module's public API, never inside src/.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Milliseconds since the process started (the zero of every span).
double now_ms();
inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Generator seed of every workload's input graph. As in the GAP suite, the
/// graph is fixed and --seed drives everything drawn from it: roots, query
/// mix, update batches. Runs with different seeds then differ only in the
/// drawn stream, not in which graph they measure.
inline constexpr std::uint64_t kGraphSeed = 27491095;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;  // scratch space inside the checkout
};

// --- sample statistics -----------------------------------------------------

/// Linearly interpolated percentile, q in [0, 1]; 0 for an empty sample.
double percentile(std::vector<double> v, double q);
inline double median(std::vector<double> v) {
  return percentile(std::move(v), 0.5);
}
double mean(const std::vector<double>& v);
/// n / sum(1/x): the Graph500/GAP rule for averaging rates.
double harmonic_mean(const std::vector<double>& v);
/// analytic_mean_ms: the average of the WCC and the PageRank mean latency.
/// A median of whole-graph queries sits between latency clusters (WCC and
/// PageRank; warm and batch WCC) and jumps with the split a run draws.
double analytic_mean(const std::vector<double>& wcc_ms,
                     const std::vector<double>& pagerank_ms);

/// VmHWM of `pid` (0 = this process) in MiB; 0 when unreadable.
double peak_rss_mb(int pid = 0);

// --- spans -----------------------------------------------------------------

enum class Layer : std::uint8_t {
  kGraph, kEngine, kKernels, kStore, kServer, kDist, kObs,
  kNone,  // the benchmark's own code: what no layer span covers
};
inline constexpr int kNumLayers = 7;  // excluding kNone
const char* layer_name(Layer l);

struct Span {
  const char* name;
  Layer layer;
  double start_ms;
  double end_ms;
  int parent;  // index in the same lane, -1 for a root
  std::uint64_t trace_id;
};

/// One thread's span stack. Spans nest by call order, so a lane needs no
/// lock; a disabled lane records nothing.
class Lane {
 public:
  explicit Lane(bool on) : on_(on) {}
  bool on() const { return on_; }
  int open(const char* name, Layer layer, std::uint64_t trace_id);
  void close(int id);
  /// A finished child of span `parent` whose interval comes from a
  /// module's own accounting, e.g. the queue wait a server reports in its
  /// result. Clipped to the parent's interval.
  void interval(int parent, const char* name, Layer layer, double start_ms,
                double end_ms, std::uint64_t trace_id);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool on_;
  int cur_ = -1;
  std::vector<Span> spans_;
};

/// RAII span; a no-op on a null or disabled lane.
class Scope {
 public:
  Scope(Lane* lane, const char* name, Layer layer, std::uint64_t trace_id = 0)
      : lane_(lane && lane->on() ? lane : nullptr),
        id_(lane_ ? lane_->open(name, layer, trace_id) : -1) {}
  ~Scope() { end(); }
  void end() {
    if (lane_) lane_->close(id_);
    lane_ = nullptr;
  }
  int id() const { return id_; }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Lane* lane_;
  int id_;
};

/// Self time per layer over every lane. Roots are the benchmark's own
/// spans, so the self times of all spans sum to the roots' total.
struct Rollup {
  double self_ms[kNumLayers] = {};
  double unattributed_ms = 0;
  double wall_ms = 0;  // sum of root-span durations over all lanes
};

class SpanLog {
 public:
  explicit SpanLog(bool on) : on_(on) {}
  /// A new lane; the reference stays valid for the log's lifetime.
  Lane& lane(const std::string& name);
  Rollup rollup() const;
  /// One JSON object per span, one per line.
  void write(const std::string& path) const;

 private:
  bool on_;
  mutable std::mutex mu_;
  std::deque<std::pair<std::string, Lane>> lanes_;
};

// --- report ----------------------------------------------------------------

class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  /// Count one operation; `ok == false` also counts it failed.
  void op(bool ok) {
    ++attempted_;
    failed_ += !ok;
  }
  void ops(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  /// Records a failed correctness check (counted as a failed operation by
  /// the caller) and prints it.
  void check_failed(const std::string& what);
  void add_rollup(const Rollup& r);
  /// Prints every metric, then the RESULT line.
  void print() const;

 private:
  struct Value {
    double v;
    std::string unit;
  };
  std::map<std::string, Value> values_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t check_failures_ = 0;
};

/// The latency-tail percentile of a workload, fixed so it never changes
/// between runs: the highest of p90/p99/p99.9 with at least ten samples
/// beyond it at a 15 s run (p99 for serve-ingest, p90 for analytics-flat
/// and dist-scatter). analytics-tiered completes only ~48 BFS, where no
/// listed percentile has ten beyond; it uses p75, which has twelve.
double tail_quantile(const std::string& workload);

// Workload entry points (analytics.cpp, serve.cpp, dist.cpp).
void run_analytics(const Args& args, bool tiered, Report& rep);
void run_serve_ingest(const Args& args, Report& rep);
void run_dist_scatter(const Args& args, Report& rep);

}  // namespace perfbench
