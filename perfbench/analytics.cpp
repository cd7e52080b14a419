// analytics-flat and analytics-tiered: one closed-loop client runs a seeded
// sequence of registry kernels (16 BFS : 2 WCC : 1 PageRank per cycle) over
// a static kron18 graph, either on flat CSR or on a two-tier store whose
// hot budget is 25% of the flat adjacency. Both workloads run the identical
// sequence for a given seed, so their difference is the tier's cost.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/prng.hpp"
#include "graph/generators.hpp"
#include "kernels/bfs.hpp"
#include "kernels/connected_components.hpp"
#include "kernels/pagerank.hpp"
#include "kernels/registry.hpp"
#include "kernels/verify.hpp"
#include "obs/metrics.hpp"
#include "store/graph_view.hpp"
#include "store/tiered.hpp"

namespace perfbench {

namespace {

using ga::vid_t;
namespace gk = ga::kernels;
namespace gs = ga::store;

constexpr unsigned kScale = 18;
constexpr int kSetups = 3;          // setup_s is the median of these
constexpr std::size_t kBfsTrees = 4;  // BFS trees re-verified in full

enum Kind { kBfs, kWcc, kPageRank };
const char* const kKernelName[] = {"bfs", "wcc", "pagerank"};

struct Query {
  Kind kind;
  vid_t root;
};

/// Seeded query stream: each cycle holds 16 BFS from uniformly drawn
/// degree>0 roots, 2 WCC and 1 PageRank, shuffled.
class QueryStream {
 public:
  QueryStream(const ga::graph::CSRGraph& g, std::uint64_t seed)
      : rng_(seed * 0x9E3779B97F4A7C15ULL + 17) {
    for (vid_t v = 0; v < g.num_vertices(); ++v) {
      if (g.out_degree(v) > 0) roots_.push_back(v);
    }
  }
  std::vector<Query> next_cycle() {
    std::vector<Query> c;
    for (int i = 0; i < 16; ++i) {
      c.push_back({kBfs, roots_[rng_.next_below(roots_.size())]});
    }
    c.push_back({kWcc, 0});
    c.push_back({kWcc, 0});
    c.push_back({kPageRank, 0});
    std::shuffle(c.begin(), c.end(), rng_);
    return c;
  }

 private:
  ga::core::Xoshiro256 rng_;
  std::vector<vid_t> roots_;
};

struct Setup {
  std::shared_ptr<const ga::graph::CSRGraph> g;
  std::shared_ptr<const gs::TieredGraph> tiers;
  gs::GraphView view;
  double graph_s = 0, tier_s = 0, total_s = 0;
};

Setup set_up(bool tiered, Lane* lane) {
  Setup s;
  const double t0 = now_ms();
  {
    Scope span(lane, "graph.make_rmat", Layer::kGraph);
    s.g = std::make_shared<const ga::graph::CSRGraph>(ga::graph::make_rmat(
        {.scale = kScale, .edge_factor = 16, .seed = kGraphSeed}));
  }
  const double t1 = now_ms();
  if (tiered) {
    Scope span(lane, "store.tier.build", Layer::kStore);
    // The budget is a share of what flat CSR would occupy.
    const std::size_t flat =
        (std::size_t{s.g->num_vertices()} + 1) * sizeof(ga::eid_t) +
        std::size_t{s.g->num_arcs()} * sizeof(vid_t);
    s.tiers = gs::TieredGraph::build(*s.g, {.budget_bytes = flat / 4});
    s.view = gs::GraphView::over_tiers(s.tiers);
  } else {
    s.view = gs::GraphView::of(s.g);
  }
  const double t2 = now_ms();
  s.graph_s = (t1 - t0) / 1e3;
  s.tier_s = (t2 - t1) / 1e3;
  s.total_s = (t2 - t0) / 1e3;
  return s;
}

struct Sample {
  Query q;
  double ms = 0;
  std::string summary;
  std::uint64_t edges = 0, steps = 0, pulls = 0;
};

struct Phase {
  std::vector<Sample> samples;
  double elapsed_ms = 0;
  gs::TierStats tier_before, tier_after;
  double qps() const { return samples.size() / (elapsed_ms / 1e3); }
};

/// Closed loop over whole cycles until `seconds` have passed, so every run
/// measures the same query mix. Engine counters are read around each call;
/// with one client thread their deltas belong to that call.
Phase measure(const Setup& s, QueryStream stream, double seconds,
              Lane* lane) {
  auto& reg = ga::obs::MetricsRegistry::global();
  ga::obs::Counter& c_edges = reg.counter("engine.edges_traversed_total");
  ga::obs::Counter& c_steps = reg.counter("engine.steps_total");
  ga::obs::Counter& c_pulls = reg.counter("engine.pull_steps_total");
  ga::obs::Histogram& h_step = reg.histogram("engine.step_us");
  const gk::KernelInfo* info[3];
  for (int k = 0; k < 3; ++k) {
    info[k] = gk::find_kernel(kKernelName[k]);
    GA_CHECK(info[k] != nullptr, "kernel missing from the registry");
  }

  Phase p;
  if (s.tiers) p.tier_before = s.tiers->stats();
  Scope root(lane, "bench.analytics_phase", Layer::kNone);
  const double start = now_ms();
  std::uint64_t trace_id = 0;
  while (now_ms() - start < seconds * 1e3) {
    for (const Query& q : stream.next_cycle()) {
      ++trace_id;
      Sample smp;
      smp.q = q;
      std::uint64_t e0, s0, p0;
      double step_us0;
      {
        Scope span(lane, "obs.read_counters", Layer::kObs, trace_id);
        e0 = c_edges.value();
        s0 = c_steps.value();
        p0 = c_pulls.value();
        step_us0 = h_step.sum();
      }
      gk::KernelRunSpec spec = gk::KernelRunSpec::of(s.view);
      spec.seed = q.root;
      Scope k(lane, "kernels.run_kernel", Layer::kKernels, trace_id);
      const double t0 = now_ms();
      smp.summary = gk::run_kernel(*info[q.kind], spec).summary;
      const double t1 = now_ms();
      k.end();
      smp.ms = t1 - t0;
      {
        Scope span(lane, "obs.read_counters", Layer::kObs, trace_id);
        smp.edges = c_edges.value() - e0;
        smp.steps = c_steps.value() - s0;
        smp.pulls = c_pulls.value() - p0;
        // Engine super-steps inside the call, from the engine's own
        // step-time histogram: the kernel span's engine share.
        const double engine_ms = (h_step.sum() - step_us0) / 1e3;
        if (lane) {
          lane->interval(k.id(), "engine.steps", Layer::kEngine,
                         t1 - engine_ms, t1, trace_id);
        }
      }
      p.samples.push_back(std::move(smp));
    }
  }
  p.elapsed_ms = now_ms() - start;
  root.end();
  if (s.tiers) p.tier_after = s.tiers->stats();
  return p;
}

std::vector<double> latencies(const Phase& p, Kind k) {
  std::vector<double> v;
  for (const Sample& s : p.samples) {
    if (s.q.kind == k) v.push_back(s.ms);
  }
  return v;
}

/// Checks every answer of `p` against references computed on flat CSR,
/// outside the clock, and adds one operation per query to the report. BFS
/// rates use the edges of the root's component (Graph500 TEPS) and cover
/// roots in the largest component: a root in a two-vertex component times
/// call overhead, and would dominate a harmonic mean. `bfs_mteps` may be
/// null.
void verify(const Setup& s, const Phase& p, Report& rep,
            std::vector<double>* bfs_mteps) {
  const ga::graph::CSRGraph& g = *s.g;
  auto cc = gk::run(g, gk::ComponentsOptions{});
  const auto cc_ok = gk::verify_components(g, cc);
  if (!cc_ok.ok) rep.check_failed("reference components: " + cc_ok.error);
  std::vector<std::uint64_t> comp_size(g.num_vertices(), 0);
  std::vector<std::uint64_t> comp_arcs(g.num_vertices(), 0);
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    ++comp_size[cc.label[v]];
    comp_arcs[cc.label[v]] += g.out_degree(v);
  }
  const vid_t giant = static_cast<vid_t>(
      std::max_element(comp_size.begin(), comp_size.end()) - comp_size.begin());
  const auto pr = gk::run(gs::GraphView::of(s.g), gk::PageRankOptions{});
  const auto pr_ok = gk::verify_pagerank(g, pr);
  if (!pr_ok.ok) rep.check_failed("reference pagerank: " + pr_ok.error);
  const vid_t top = gk::pagerank_topk(pr, 1).at(0).second;

  std::set<vid_t> tree_checked;
  for (const Sample& smp : p.samples) {
    std::string want;
    switch (smp.q.kind) {
      case kBfs:
        want = "reached=" + std::to_string(comp_size[cc.label[smp.q.root]]);
        break;
      case kWcc:
        want = "components=" + std::to_string(cc.num_components);
        break;
      case kPageRank: want = "top vertex=" + std::to_string(top); break;
    }
    bool ok = smp.summary == want;
    if (!ok) {
      rep.check_failed(std::string(kKernelName[smp.q.kind]) + " answered '" +
                       smp.summary + "', flat reference says '" + want + "'");
    }
    if (smp.q.kind == kBfs && ok && tree_checked.size() < kBfsTrees &&
        tree_checked.insert(smp.q.root).second) {
      // Full parent-tree check of the answer this view gives, and for a
      // tiered view, distances identical to flat CSR.
      const auto r = gk::bfs(s.view, smp.q.root);
      const auto vr = gk::verify_bfs(g, smp.q.root, r);
      if (!vr.ok) rep.check_failed("bfs tree: " + vr.error);
      ok = vr.ok;
      if (ok && s.tiers && r.dist != gk::bfs(g, smp.q.root).dist) {
        rep.check_failed("tiered bfs distances differ from flat");
        ok = false;
      }
    }
    if (bfs_mteps && smp.q.kind == kBfs && cc.label[smp.q.root] == giant) {
      bfs_mteps->push_back(comp_arcs[giant] / 2.0 / (smp.ms * 1e3));
    }
    rep.op(ok);
  }
}

}  // namespace

void run_analytics(const Args& args, bool tiered, Report& rep) {
  SpanLog log(args.trace);
  Lane* traced = args.trace ? &log.lane("client") : nullptr;

  // Untraced runs set up several times and report the median; the traced
  // run sets up once, inside its span ledger.
  std::vector<double> setup_s;
  Setup s;
  for (int i = 0; i < (args.trace ? 1 : kSetups); ++i) {
    s = Setup{};  // release the previous graph before building the next
    Scope root(traced, "bench.setup", Layer::kNone);
    s = set_up(tiered, traced);
    setup_s.push_back(s.total_s);
  }
  std::printf("kron%u: %u vertices, %llu arcs%s\n", kScale, s.g->num_vertices(),
              static_cast<unsigned long long>(s.g->num_arcs()),
              tiered ? ", tiered at 25% budget" : ", flat CSR");
  const QueryStream stream(*s.g, args.seed);

  const Phase p = measure(s, stream, args.seconds, nullptr);
  const double rss = peak_rss_mb();
  std::vector<double> mteps;
  verify(s, p, rep, &mteps);

  const auto bfs = latencies(p, kBfs);
  rep.add("setup_s", median(setup_s), "s");
  rep.add("throughput_qps", p.qps(), "1/s");
  rep.add("interactive_p50_ms", median(bfs), "ms");
  const double q = tail_quantile(args.workload);
  rep.add("interactive_tail_ms", percentile(bfs, q), "ms");
  auto analytic = latencies(p, kWcc);
  const auto pagerank = latencies(p, kPageRank);
  rep.add("analytic_mean_ms", analytic_mean(analytic, pagerank), "ms");
  analytic.insert(analytic.end(), pagerank.begin(), pagerank.end());
  rep.add("analytic_p50_ms", median(analytic), "ms");
  rep.add("bfs_mteps", harmonic_mean(mteps), "MTEPS");
  rep.add("peak_rss_mb", rss, "MiB");
  std::printf("measured %zu queries in %.1f ms (%zu BFS; tail = p%g)\n",
              p.samples.size(), p.elapsed_ms, bfs.size(), q * 100);
  if (!args.trace) return;

  // Traced phase over the same sequence: per-layer numbers come from here.
  const Phase t = measure(s, stream, args.seconds, traced);
  verify(s, t, rep, nullptr);
  rep.add("obs.trace_overhead_ratio", t.qps() / p.qps(), "ratio");
  rep.add("graph.build_s", s.graph_s, "s");
  rep.add("kernels.bfs_ms_p50", median(latencies(t, kBfs)), "ms");
  rep.add("kernels.wcc_ms_p50", median(latencies(t, kWcc)), "ms");
  rep.add("kernels.pagerank_ms_p50",
          median(latencies(t, kPageRank)), "ms");
  double edges = 0, steps = 0, pulls = 0, n_bfs = 0;
  for (const Sample& smp : t.samples) {
    if (smp.q.kind != kBfs) continue;
    edges += smp.edges;
    steps += smp.steps;
    pulls += smp.pulls;
    ++n_bfs;
  }
  rep.add("engine.edges_per_bfs", edges / n_bfs, "count");
  rep.add("engine.steps_per_bfs", steps / n_bfs, "count");
  rep.add("engine.pull_step_share", steps ? pulls / steps : 0.0, "ratio");
  if (tiered) {
    const auto& a = t.tier_before;
    const auto& b = t.tier_after;
    const double nq = static_cast<double>(t.samples.size());
    const double accesses = static_cast<double>(b.accesses - a.accesses);
    const double faults = static_cast<double>(b.faults - a.faults);
    rep.add("store.tier.build_s", s.tier_s, "s");
    rep.add("store.tier.faults_per_query", faults / nq, "count");
    rep.add("store.tier.evictions_per_query",
            static_cast<double>(b.evictions - a.evictions) / nq, "count");
    rep.add("store.tier.hit_ratio", accesses ? 1.0 - faults / accesses : 1.0,
            "ratio");
    rep.add("store.tier.promotions",
            static_cast<double>(b.promotions - a.promotions), "count");
    rep.add("store.tier.peak_over_budget",
            static_cast<double>(b.peak_resident_bytes) / b.budget_bytes,
            "ratio");
  }
  rep.add_rollup(log.rollup());
  log.write(args.workdir + "/spans.jsonl");
}

}  // namespace perfbench
