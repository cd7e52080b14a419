// dist-scatter: a dist::Coordinator over kron14 with two shard processes
// (hash partitioning, fsync on). One closed-loop client issues 8 BFS : 1 WCC
// : 1 PageRank per cycle and applies a 256-update batch after every cycle.
// The same sequence is then replayed in-process, serially (each shard runs
// its kernels on one thread), on a store given the same batches: that
// replay is both the digest oracle and the like-for-like baseline.
#include <algorithm>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/hash.hpp"
#include "core/prng.hpp"
#include "dist/coordinator.hpp"
#include "graph/generators.hpp"
#include "kernels/bfs.hpp"
#include "kernels/connected_components.hpp"
#include "kernels/pagerank.hpp"
#include "store/recovery.hpp"
#include "store/versioned_store.hpp"

#ifndef PERFBENCH_SHARD_BIN
#error "PERFBENCH_SHARD_BIN must name the ga_shard executable"
#endif

namespace perfbench {

namespace {

using ga::vid_t;
namespace gk = ga::kernels;
namespace gs = ga::store;
namespace gd = ga::dist;

constexpr unsigned kScale = 14;
constexpr int kSetups = 3;
constexpr std::uint32_t kShards = 2;
constexpr int kUpdatesPerApply = 256;
constexpr unsigned kPageRankIters = 20;
constexpr double kDamping = 0.85;

enum Kind { kBfs, kWcc, kPageRank, kApply };
const char* const kKindName[] = {"bfs", "wcc", "pagerank", "apply"};

struct Op {
  Kind kind;
  vid_t root = 0;
  std::uint64_t batch = 0;  // kApply: batch index
  double ms = 0;
  std::uint32_t rounds = 0;
  std::uint64_t digest = 0;
  bool ok = false;
};

template <typename T>
std::uint64_t digest(const std::vector<T>& v) {
  std::uint64_t h = ga::core::mix64(v.size());
  for (const T& x : v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof(T));
    h = ga::core::hash_combine(h, bits);
  }
  return h;
}

gs::DeltaBatch make_batch(vid_t n, std::uint64_t seed, std::uint64_t k) {
  ga::core::Xoshiro256 rng(seed * 0x9E3779B97F4A7C15ULL + 31 * k + 5);
  gs::DeltaBatch b;
  for (int i = 0; i < kUpdatesPerApply; ++i) {
    const vid_t u = rng.next_vid(n);
    vid_t v = rng.next_vid(n);
    if (v == u) v = (v + 1) % n;
    b.insert_edge(u, v);
  }
  return b;
}

struct Fleet {
  std::shared_ptr<const ga::graph::CSRGraph> g;
  std::unique_ptr<gd::Coordinator> coord;
  double setup_s = 0, graph_s = 0, start_s = 0;
};

Fleet set_up(const Args& args, int index, Lane* lane) {
  Fleet f;
  const double t0 = now_ms();
  {
    Scope span(lane, "graph.make_rmat", Layer::kGraph);
    f.g = std::make_shared<const ga::graph::CSRGraph>(ga::graph::make_rmat(
        {.scale = kScale, .edge_factor = 16, .seed = kGraphSeed}));
  }
  const double t1 = now_ms();
  gd::CoordinatorOptions o;
  o.shards = kShards;
  o.method = gd::PartitionMethod::kHash;
  o.root_dir = args.workdir + "/dist-" + std::to_string(index);
  std::filesystem::remove_all(o.root_dir);
  o.sync_each_append = true;
  o.process_isolation = true;
  o.shard_binary = PERFBENCH_SHARD_BIN;
  f.coord = std::make_unique<gd::Coordinator>(o);
  {
    Scope span(lane, "dist.start", Layer::kDist);
    f.coord->start(*f.g).or_throw();
  }
  const double t2 = now_ms();
  f.graph_s = (t1 - t0) / 1e3;
  f.start_s = (t2 - t1) / 1e3;
  f.setup_s = (t2 - t0) / 1e3;
  return f;
}

/// Closed loop over whole cycles until `seconds` have passed.
std::vector<Op> measure(gd::Coordinator& coord, vid_t n,
                        const std::vector<vid_t>& roots, std::uint64_t seed,
                        double seconds, Lane* lane, double* elapsed_ms,
                        std::uint64_t* next_batch) {
  ga::core::Xoshiro256 rng(seed * 0x9E3779B97F4A7C15ULL + 3 + *next_batch);
  std::vector<Op> ops;
  Scope root(lane, "bench.dist_phase", Layer::kNone);
  const double start = now_ms();
  std::uint64_t trace_id = 0;
  while (now_ms() - start < seconds * 1e3) {
    std::vector<Op> cycle;
    for (int i = 0; i < 8; ++i) {
      cycle.push_back({kBfs, roots[rng.next_below(roots.size())]});
    }
    cycle.push_back({kWcc});
    cycle.push_back({kPageRank});
    std::shuffle(cycle.begin(), cycle.end(), rng);
    cycle.push_back({kApply, 0, (*next_batch)++});
    for (Op& op : cycle) {
      ++trace_id;
      const gs::DeltaBatch batch =
          op.kind == kApply ? make_batch(n, seed, op.batch) : gs::DeltaBatch{};
      const double t0 = now_ms();
      switch (op.kind) {
        case kBfs: {
          Scope span(lane, "dist.bfs", Layer::kDist, trace_id);
          const auto r = coord.bfs(op.root);
          op.ms = now_ms() - t0;
          span.end();
          if ((op.ok = r.ok())) {
            op.rounds = r->rounds;
            op.digest = digest(r->dist);
          }
          break;
        }
        case kWcc: {
          Scope span(lane, "dist.wcc", Layer::kDist, trace_id);
          const auto r = coord.wcc();
          op.ms = now_ms() - t0;
          span.end();
          if ((op.ok = r.ok())) {
            op.rounds = r->rounds;
            op.digest = digest(r->label);
          }
          break;
        }
        case kPageRank: {
          Scope span(lane, "dist.pagerank", Layer::kDist, trace_id);
          const auto r = coord.pagerank(kDamping, kPageRankIters);
          op.ms = now_ms() - t0;
          span.end();
          if ((op.ok = r.ok())) op.digest = digest(r->rank);
          break;
        }
        case kApply: {
          Scope span(lane, "dist.apply", Layer::kDist, trace_id);
          op.ok = coord.apply(batch).ok();
          op.ms = now_ms() - t0;
          break;
        }
      }
      ops.push_back(op);
    }
  }
  *elapsed_ms = now_ms() - start;
  return ops;
}

/// Replays `ops` in-process on `shadow`, timing each query with the
/// single-process kernel doing the same work, and checks each dist answer
/// against it. Returns the in-process latencies by kind.
std::vector<std::vector<double>> replay(gs::VersionedGraphStore& shadow,
                                        const std::vector<Op>& ops,
                                        std::uint64_t seed, Report& rep) {
  std::vector<std::vector<double>> ms(3);
  gk::PageRankOptions po;
  po.damping = kDamping;
  po.tolerance = 0.0;
  po.max_iters = kPageRankIters;
  for (const Op& op : ops) {
    if (op.kind == kApply) {
      if (op.ok) {
        shadow.apply(make_batch(shadow.view().num_vertices(), seed, op.batch));
      }
      rep.op(op.ok);
      continue;
    }
    // Fold the chain outside the clock: each shard also reads a flat slab.
    const gs::GraphView view = shadow.view();
    const ga::graph::CSRGraph& g = view.csr();
    std::uint64_t want = 0;
    const double t0 = now_ms();
    double t1 = t0;
    switch (op.kind) {
      case kBfs: {
        const auto r = gk::bfs(g, op.root);
        t1 = now_ms();
        want = digest(r.dist);
        break;
      }
      case kWcc: {
        auto r = gk::wcc_label_propagation(g);
        t1 = now_ms();
        gk::canonicalize_labels(r.label);
        want = digest(r.label);
        break;
      }
      case kPageRank: {
        const auto r = gk::pagerank(g, po);
        t1 = now_ms();
        want = digest(r.rank);
        break;
      }
      case kApply: break;
    }
    ms[op.kind].push_back(t1 - t0);
    const bool ok = op.ok && op.digest == want;
    if (op.ok && !ok) {
      rep.check_failed(std::string("dist ") + kKindName[op.kind] +
                       " differs from the single-process kernel");
    }
    rep.op(ok);
  }
  return ms;
}

std::vector<double> op_ms(const std::vector<Op>& ops, Kind a, Kind b) {
  std::vector<double> v;
  for (const Op& op : ops) {
    if (op.ok && (op.kind == a || op.kind == b)) v.push_back(op.ms);
  }
  return v;
}

}  // namespace

void run_dist_scatter(const Args& args, Report& rep) {
  SpanLog log(args.trace);
  Lane* lane = args.trace ? &log.lane("client") : nullptr;

  std::vector<double> setup_s;
  Fleet f;
  for (int i = 0; i < (args.trace ? 1 : kSetups); ++i) {
    if (f.coord) f.coord->stop();
    f = Fleet{};
    Scope root(lane, "bench.setup", Layer::kNone);
    f = set_up(args, i, lane);
    setup_s.push_back(f.setup_s);
  }
  const vid_t n = f.g->num_vertices();
  std::vector<vid_t> roots;
  for (vid_t v = 0; v < n; ++v) {
    if (f.g->out_degree(v) > 0) roots.push_back(v);
  }
  // Graph500 denominator over roots in the largest component, as in
  // analytics.cpp; applies add ~1.5% more edges over a run.
  std::vector<double> comp_arcs(n, 0);
  const auto cc0 = gk::run(*f.g, gk::ComponentsOptions{});
  for (vid_t v = 0; v < n; ++v) comp_arcs[cc0.label[v]] += f.g->out_degree(v);
  const vid_t giant = static_cast<vid_t>(
      std::max_element(comp_arcs.begin(), comp_arcs.end()) - comp_arcs.begin());

  std::uint64_t next_batch = 0;
  double elapsed = 0;
  const std::vector<Op> ops = measure(*f.coord, n, roots, args.seed,
                                      args.seconds, nullptr, &elapsed,
                                      &next_batch);
  double rss = peak_rss_mb();
  for (std::uint32_t i = 0; i < kShards; ++i) {
    rss += peak_rss_mb(f.coord->shard_pid(i));
  }
  std::vector<Op> traced;
  double traced_elapsed = 0;
  if (args.trace) {
    traced = measure(*f.coord, n, roots, args.seed, args.seconds, lane,
                     &traced_elapsed, &next_batch);
  }
  const gd::CoordinatorStats cs = f.coord->stats();
  const auto fetched = f.coord->fetch_view();

  // Oracle and baseline: replay both phases on a single-process store.
  gs::VersionedGraphStore shadow(f.g);
  const auto base_ms = replay(shadow, ops, args.seed, rep);
  replay(shadow, traced, args.seed, rep);
  const bool fleet_ok = fetched.ok() && gs::view_digest(*fetched) ==
                                            gs::view_digest(shadow.view());
  if (!fleet_ok) rep.check_failed("fleet graph differs from the shadow store");
  rep.op(fleet_ok);
  f.coord->stop();

  std::vector<double> mteps;
  std::size_t queries = 0;
  for (const Op& op : ops) {
    queries += op.kind != kApply && op.ok;
    if (op.kind == kBfs && op.ok && cc0.label[op.root] == giant) {
      mteps.push_back(comp_arcs[giant] / 2.0 / (op.ms * 1e3));
    }
  }
  const auto bfs = op_ms(ops, kBfs, kBfs);
  rep.add("setup_s", median(setup_s), "s");
  rep.add("throughput_qps", queries / (elapsed / 1e3), "1/s");
  rep.add("interactive_p50_ms", median(bfs), "ms");
  rep.add("interactive_tail_ms", percentile(bfs, tail_quantile(args.workload)),
          "ms");
  rep.add("analytic_mean_ms",
          analytic_mean(op_ms(ops, kWcc, kWcc),
                        op_ms(ops, kPageRank, kPageRank)),
          "ms");
  rep.add("analytic_p50_ms", median(op_ms(ops, kWcc, kPageRank)), "ms");
  rep.add("bfs_mteps", harmonic_mean(mteps), "MTEPS");
  rep.add("peak_rss_mb", rss, "MiB");
  std::printf("measured %zu operations (%zu BFS) in %.1f ms on %u shards\n",
              ops.size(), bfs.size(), elapsed, kShards);
  if (!args.trace) return;

  std::size_t traced_queries = 0;
  for (const Op& op : traced) traced_queries += op.kind != kApply && op.ok;
  rep.add("obs.trace_overhead_ratio",
          (traced_queries / traced_elapsed) / (queries / elapsed), "ratio");
  rep.add("graph.build_s", f.graph_s, "s");
  rep.add("dist.start_s", f.start_s, "s");
  double bfs_ms = 0, bfs_rounds = 0, wcc_rounds = 0, n_bfs = 0, n_wcc = 0;
  for (const Op& op : traced) {
    if (!op.ok) continue;
    if (op.kind == kBfs) {
      bfs_ms += op.ms;
      bfs_rounds += op.rounds;
      ++n_bfs;
    } else if (op.kind == kWcc) {
      wcc_rounds += op.rounds;
      ++n_wcc;
    }
  }
  const double d_bfs = median(op_ms(traced, kBfs, kBfs));
  const double d_wcc = median(op_ms(traced, kWcc, kWcc));
  const double d_pr = median(op_ms(traced, kPageRank, kPageRank));
  rep.add("dist.bfs_ms_p50", d_bfs, "ms");
  rep.add("dist.ms_per_round_bfs", bfs_rounds ? bfs_ms / bfs_rounds : 0.0,
          "ms");
  rep.add("dist.wcc_ms_p50", d_wcc, "ms");
  rep.add("dist.pagerank_ms_p50", d_pr, "ms");
  rep.add("dist.apply_ms_p50", median(op_ms(traced, kApply, kApply)), "ms");
  rep.add("dist.rounds_per_bfs", n_bfs ? bfs_rounds / n_bfs : 0.0, "count");
  rep.add("dist.rounds_per_wcc", n_wcc ? wcc_rounds / n_wcc : 0.0, "count");
  rep.add("dist.op_retries", static_cast<double>(cs.op_retries), "count");
  rep.add("dist.unavailable", static_cast<double>(cs.unavailable), "count");
  // Both sides of the like-for-like ratio come from untraced runs.
  for (const Kind k : {kBfs, kWcc, kPageRank}) {
    rep.add(std::string("dist.overhead_ratio.") + kKindName[k],
            median(op_ms(ops, k, k)) / median(base_ms[k]), "ratio");
  }
  rep.add_rollup(log.rollup());
  log.write(args.workdir + "/spans.jsonl");
}

}  // namespace perfbench
