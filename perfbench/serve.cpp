// serve-ingest: an AnalyticsServer over a kron16 VersionedGraphStore whose
// epochs are fsync'd to an EpochLog (checkpoint every 64 epochs) while the
// background compactor runs. Three closed-loop readers issue a Zipf(1)
// seeded mix (60% BFS, 15% 2-hop subgraph, 15% Jaccard, 5% WCC, 5%
// PageRank top-10); one open-loop writer applies a 1,000-update batch every
// 50 ms, timed from its scheduled send time. After the measured phase the
// store is rebuilt from the log directory with store::recover.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "core/prng.hpp"
#include "graph/generators.hpp"
#include "kernels/bfs.hpp"
#include "kernels/connected_components.hpp"
#include "kernels/jaccard.hpp"
#include "kernels/pagerank.hpp"
#include "server/server.hpp"
#include "store/epoch_log.hpp"
#include "store/recovery.hpp"
#include "store/versioned_store.hpp"

namespace perfbench {

namespace {

using ga::vid_t;
namespace gk = ga::kernels;
namespace gs = ga::store;
namespace sv = ga::server;

constexpr unsigned kScale = 16;
constexpr int kSetups = 3;
constexpr int kReaders = 3;
constexpr double kEpochMs = 50.0;  // 20 epochs/s
constexpr int kUpdatesPerEpoch = 1000;
constexpr double kWarmupSeconds = 1.5;
constexpr int kRecoveries = 3;
// ~20 acks/s x 15 s: p90 is the highest tail with ten acks beyond it.
constexpr double kIngestTail = 0.90;
constexpr std::size_t kSampleEvery = 50;  // re-check every 50th answer...
constexpr std::size_t kSamplesPerReader = 4;  // ...up to this many
constexpr std::size_t kRecentViews = 16;

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  return seed * 0x9E3779B97F4A7C15ULL + a * 0xBF58476D1CE4E5B9ULL + b + 1;
}

/// Zipf(1) over a fixed random popularity order of the degree>0 vertices.
/// The order belongs to the input, like the graph: rank 1 draws ~9% of all
/// seeds, so which vertex holds it would otherwise set a run's cost.
class ZipfSeeds {
 public:
  explicit ZipfSeeds(const ga::graph::CSRGraph& g) {
    for (vid_t v = 0; v < g.num_vertices(); ++v) {
      if (g.out_degree(v) > 0) verts_.push_back(v);
    }
    ga::core::Xoshiro256 rng(kGraphSeed);
    std::shuffle(verts_.begin(), verts_.end(), rng);
    double h = 0;
    for (std::size_t i = 0; i < verts_.size(); ++i) {
      h += 1.0 / static_cast<double>(i + 1);
      cdf_.push_back(h);
    }
  }
  vid_t draw(ga::core::Xoshiro256& rng) const {
    const double u = rng.next_double() * cdf_.back();
    const auto i = std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin();
    return verts_[std::min<std::size_t>(i, verts_.size() - 1)];
  }

 private:
  std::vector<vid_t> verts_;
  std::vector<double> cdf_;
};

sv::QueryDesc make_query(const ZipfSeeds& seeds, ga::core::Xoshiro256& rng) {
  sv::QueryDesc d;
  const auto pick = rng.next_below(100);
  d.seed = seeds.draw(rng);
  d.klass = sv::QueryClass::kInteractive;
  if (pick < 60) {
    d.kind = sv::QueryKind::kBfs;
  } else if (pick < 75) {
    d.kind = sv::QueryKind::kSubgraphExtract;
    d.depth = 2;
  } else if (pick < 90) {
    d.kind = sv::QueryKind::kJaccardNeighbors;
    d.threshold = 0.1;
    d.k = 10;
  } else {
    d.kind = pick < 95 ? sv::QueryKind::kWcc : sv::QueryKind::kPageRankTopK;
    d.klass = sv::QueryClass::kStandard;
    d.seed = 0;
    d.k = 10;
  }
  return d;
}

bool interactive(sv::QueryKind k) {
  return k == sv::QueryKind::kBfs || k == sv::QueryKind::kSubgraphExtract ||
         k == sv::QueryKind::kJaccardNeighbors;
}

struct Read {
  sv::QueryDesc desc;
  double ms = 0;
  sv::QueryResult r;  // payload dropped unless sampled
};

struct Sampled {
  sv::QueryDesc desc;
  sv::QueryResult r;
  gs::GraphView view;  // the view published for r.epoch
};

struct Write {
  double ack_ms = 0;  // scheduled send -> durable apply returned
  double lag_ms = 0;  // actual send - scheduled send
  double apply_self_ms = 0;
  double append_ms = 0;  // EpochLog::stats().last_append_us
  bool ok = false;
  bool backlogged = false;  // due before the deadline, sent after it
};

/// One set-up service instance: store + log + server, wired through the
/// store's hooks so the benchmark can time each layer's part of an apply.
class Service {
 public:
  Service(const Args& args, int index, Lane* lane) {
    const double t0 = now_ms();
    dir_ = args.workdir + "/serve-log-" + std::to_string(index);
    std::filesystem::remove_all(dir_);
    std::shared_ptr<const ga::graph::CSRGraph> g;
    {
      Scope span(lane, "graph.make_rmat", Layer::kGraph);
      g = std::make_shared<const ga::graph::CSRGraph>(ga::graph::make_rmat(
          {.scale = kScale, .edge_factor = 16, .seed = kGraphSeed}));
    }
    graph_s_ = (now_ms() - t0) / 1e3;
    initial_ = g;
    {
      Scope span(lane, "store.open", Layer::kStore);
      store_ = std::make_unique<gs::VersionedGraphStore>(g);
      log_ = std::make_unique<gs::EpochLog>(gs::EpochLogOptions{
          .dir = dir_, .checkpoint_every = 64, .sync_each_append = true});
      store_->set_durability_hook([this](std::uint64_t e,
                                         const gs::DeltaBatch& b,
                                         const gs::DeltaSummary& s) {
        Scope span(writer_lane_, "store.log.append", Layer::kStore);
        const double t = now_ms();
        log_->append(e, b, s);
        nested_ms_ += now_ms() - t;
      });
      store_->set_post_publish_hook([this](const gs::GraphView& v) {
        Scope span(writer_lane_, "store.log.maybe_checkpoint", Layer::kStore);
        const double t = now_ms();
        log_->maybe_checkpoint(v);
        nested_ms_ += now_ms() - t;
      });
      log_->checkpoint(store_->view());
    }
    server_ = std::make_unique<sv::AnalyticsServer>();
    writer_tid_ = std::this_thread::get_id();
    writer_lane_ = lane;
    publish(store_->view());
    store_->set_view_listener(
        [this](gs::GraphView v) { publish(std::move(v)); });
    store_->start_compactor();
    writer_lane_ = nullptr;
    setup_s_ = (now_ms() - t0) / 1e3;
  }

  ~Service() {
    store_->stop_compactor();
    store_->set_view_listener({});
    store_->set_durability_hook({});
    store_->set_post_publish_hook({});
    server_.reset();
    log_.reset();
    store_.reset();
    std::filesystem::remove_all(dir_);
  }
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  double setup_s() const { return setup_s_; }
  double graph_s() const { return graph_s_; }
  const ga::graph::CSRGraph& initial() const { return *initial_; }
  sv::AnalyticsServer& server() { return *server_; }
  gs::VersionedGraphStore& store() { return *store_; }
  gs::EpochLog& log() { return *log_; }
  const std::string& dir() const { return dir_; }

  /// The writer thread's apply: returns its self time (the apply span
  /// minus the log and publish work nested in it).
  double apply(const gs::DeltaBatch& b, Lane* lane) {
    writer_lane_ = lane;
    writer_tid_ = std::this_thread::get_id();
    nested_ms_ = 0;
    Scope span(lane, "store.apply", Layer::kStore);
    const double t = now_ms();
    store_->apply(b);
    const double total_ms = now_ms() - t;
    span.end();
    writer_lane_ = nullptr;
    return total_ms - nested_ms_;
  }

  /// View published for server epoch `e`, if still among the recent ones.
  bool view_for(std::uint64_t e, gs::GraphView* out) {
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = recent_.find(e);
    if (it == recent_.end()) return false;
    *out = it->second;
    return true;
  }

  std::vector<double> take_publish_ms() {
    std::lock_guard<std::mutex> lk(mu_);
    return std::exchange(publish_ms_, {});
  }

 private:
  // Runs on the writer thread (apply) and on the compactor thread (fold);
  // only the writer's publishes nest in its apply span.
  void publish(gs::GraphView v) {
    const bool writer = std::this_thread::get_id() == writer_tid_;
    Scope span(writer ? writer_lane_ : nullptr, "server.publish",
               Layer::kServer);
    const double t = now_ms();
    const std::uint64_t e = server_->publish(v);
    const double ms = now_ms() - t;
    if (writer) nested_ms_ += ms;
    std::lock_guard<std::mutex> lk(mu_);
    publish_ms_.push_back(ms);
    recent_[e] = std::move(v);
    while (recent_.size() > kRecentViews) recent_.erase(recent_.begin());
  }

  std::string dir_;
  double setup_s_ = 0, graph_s_ = 0;
  std::shared_ptr<const ga::graph::CSRGraph> initial_;
  // Writer-thread state, touched only by the thread that calls apply().
  Lane* writer_lane_ = nullptr;
  std::atomic<std::thread::id> writer_tid_;
  double nested_ms_ = 0;

  std::mutex mu_;  // guards publish_ms_ and recent_
  std::vector<double> publish_ms_;
  std::map<std::uint64_t, gs::GraphView> recent_;

  std::unique_ptr<gs::VersionedGraphStore> store_;
  std::unique_ptr<gs::EpochLog> log_;
  std::unique_ptr<sv::AnalyticsServer> server_;
};

/// Epoch k's batch: 1,000 random undirected inserts; every eighth epoch
/// turns 10% of them into deletes of edges present in the current view.
gs::DeltaBatch make_batch(const gs::GraphView& view, std::uint64_t seed,
                          std::uint64_t k) {
  ga::core::Xoshiro256 rng(mix_seed(seed, 11, k));
  const vid_t n = view.num_vertices();
  const int deletes = k % 8 == 7 ? kUpdatesPerEpoch / 10 : 0;
  gs::DeltaBatch b;
  for (int i = 0; i < kUpdatesPerEpoch - deletes; ++i) {
    const vid_t u = rng.next_vid(n);
    vid_t v = rng.next_vid(n);
    if (v == u) v = (v + 1) % n;
    b.insert_edge(u, v);
  }
  for (int i = 0; i < deletes;) {
    const vid_t u = rng.next_vid(n);
    const auto out = view.out_edges_copy(u);
    if (out.empty()) continue;
    b.delete_edge(u, out[rng.next_below(out.size())].first);
    ++i;
  }
  return b;
}

struct PhaseResult {
  std::vector<Read> reads;
  std::vector<Sampled> samples;
  std::vector<Write> writes;
  std::vector<double> checkpoint_ms, compact_ms, chain_depth, read_amp;
  std::vector<double> publish_ms;
  double elapsed_ms = 0;
  std::uint64_t backlog_end = 0;
  std::uint64_t updates = 0, log_bytes = 0, compactions = 0;
  sv::SchedulerStats sched0, sched1;
  ga::server::CacheStats cache0, cache1;
  double memory_amplification = 0;
};

/// One phase of `seconds`: readers and the writer start together and stop
/// issuing at the deadline; in-flight work completes and is counted.
PhaseResult run_phase(Service& svc, const ZipfSeeds& seeds,
                      std::uint64_t seed, std::uint64_t phase,
                      std::uint64_t* next_epoch, double seconds,
                      SpanLog* log) {
  PhaseResult pr;
  pr.sched0 = svc.server().scheduler().stats();
  pr.cache0 = svc.server().scheduler().cache().stats();
  const std::uint64_t log_bytes0 = svc.log().stats().bytes_appended;
  const std::uint64_t compactions0 = svc.store().stats().compactions;
  svc.take_publish_ms();

  const Clock::time_point start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::vector<Read>> reads(kReaders);
  std::vector<std::vector<Sampled>> samples(kReaders);
  std::vector<Lane*> lanes(kReaders + 1, nullptr);
  if (log != nullptr) {
    for (int r = 0; r < kReaders; ++r) {
      lanes[r] = &log->lane("reader-" + std::to_string(r));
    }
    lanes[kReaders] = &log->lane("writer");
  }

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      ga::core::Xoshiro256 rng(mix_seed(seed, 100 + phase, r));
      Lane* lane = lanes[r];
      Scope root(lane, "bench.reader", Layer::kNone);
      std::uint64_t trace_id = static_cast<std::uint64_t>(r) << 40;
      while (Clock::now() < deadline) {
        Read rd;
        rd.desc = make_query(seeds, rng);
        Scope span(lane, "server.submit", Layer::kServer, ++trace_id);
        const Clock::time_point t0 = Clock::now();
        try {
          rd.r = svc.server().submit(rd.desc).get();
        } catch (const std::exception& e) {
          rd.r.error = e.what();  // status stays kFailed
        }
        rd.ms = ms_between(t0, Clock::now());
        if (lane && rd.r.exec_ms > 0) {
          const double end = now_ms();
          lane->interval(span.id(), "kernels.exec", Layer::kKernels,
                         end - rd.r.exec_ms, end, trace_id);
        }
        span.end();
        const std::size_t i = reads[r].size();
        if (i % kSampleEvery == kSampleEvery - 1 &&
            samples[r].size() < kSamplesPerReader && rd.r.ok()) {
          Sampled s{rd.desc, rd.r, {}};
          if (svc.view_for(rd.r.epoch, &s.view)) {
            samples[r].push_back(std::move(s));
          }
        }
        rd.r.dist.clear();
        rd.r.dist.shrink_to_fit();
        rd.r.members.clear();
        rd.r.members.shrink_to_fit();
        rd.r.footprint = {};
        reads[r].push_back(std::move(rd));
      }
    });
  }

  std::thread writer([&] {
    Lane* lane = lanes[kReaders];
    std::uint64_t k = *next_epoch;
    std::uint64_t last_compactions = svc.store().stats().compactions;
    std::uint64_t last_checkpoints = svc.log().stats().checkpoints;
    for (std::uint64_t i = 0;; ++i, ++k) {
      const Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double, std::milli>(i * kEpochMs));
      if (due >= deadline) break;
      // Built ahead of its send time; only this thread changes the store.
      const gs::DeltaBatch b = make_batch(svc.store().view(), seed, k);
      std::this_thread::sleep_until(due);
      Scope root(lane, "bench.epoch", Layer::kNone, k);
      const Clock::time_point sent = Clock::now();
      Write w;
      w.lag_ms = ms_between(due, sent);
      w.backlogged = sent >= deadline;
      try {
        w.apply_self_ms = svc.apply(b, lane);
        w.ok = true;
      } catch (const std::exception& e) {
        std::printf("apply of epoch batch %llu failed: %s\n",
                    static_cast<unsigned long long>(k), e.what());
      }
      w.ack_ms = ms_between(due, Clock::now());
      pr.updates += b.num_ops();
      {
        Scope span(lane, "store.read_stats", Layer::kStore, k);
        const auto ls = svc.log().stats();
        w.append_ms = ls.last_append_us / 1e3;
        if (ls.checkpoints != last_checkpoints) {
          pr.checkpoint_ms.push_back(ls.last_checkpoint_ms);
          last_checkpoints = ls.checkpoints;
        }
        const auto ss = svc.store().stats();
        if (ss.compactions != last_compactions) {
          pr.compact_ms.push_back(ss.last_compact_ms);
          last_compactions = ss.compactions;
        }
        pr.chain_depth.push_back(static_cast<double>(ss.chain_depth));
        pr.read_amp.push_back(ss.read_amplification);
      }
      pr.writes.push_back(w);
    }
    for (const Write& w : pr.writes) pr.backlog_end += w.backlogged;
    *next_epoch = k;
  });

  for (auto& t : readers) t.join();
  writer.join();
  pr.elapsed_ms = ms_between(start, Clock::now());
  for (int r = 0; r < kReaders; ++r) {
    for (auto& rd : reads[r]) pr.reads.push_back(std::move(rd));
    for (auto& s : samples[r]) pr.samples.push_back(std::move(s));
  }
  pr.publish_ms = svc.take_publish_ms();
  pr.sched1 = svc.server().scheduler().stats();
  pr.cache1 = svc.server().scheduler().cache().stats();
  pr.log_bytes = svc.log().stats().bytes_appended - log_bytes0;
  pr.compactions = svc.store().stats().compactions - compactions0;
  pr.memory_amplification =
      svc.server().snapshots().stats().memory_amplification;
  return pr;
}

/// Re-runs a sampled answer against the view published for its epoch.
bool check_answer(const Sampled& s, std::string* why) {
  const gs::GraphView& v = s.view;
  const sv::QueryResult& r = s.r;
  switch (s.desc.kind) {
    case sv::QueryKind::kBfs:
      if (gk::bfs(v, s.desc.seed).dist == r.dist) return true;
      *why = "bfs distances";
      return false;
    case sv::QueryKind::kSubgraphExtract:
      if (gk::khop_neighborhood(v, {s.desc.seed}, s.desc.depth) == r.members) {
        return true;
      }
      *why = "subgraph members";
      return false;
    case sv::QueryKind::kJaccardNeighbors: {
      auto ref = gk::jaccard_query(v, s.desc.seed, s.desc.threshold);
      if (ref.size() > s.desc.k) ref.resize(s.desc.k);
      bool same = ref.size() == r.neighbors.size();
      for (std::size_t i = 0; same && i < ref.size(); ++i) {
        same = ref[i].v == r.neighbors[i].v &&
               std::abs(ref[i].coefficient - r.neighbors[i].coefficient) <
                   1e-12;
      }
      if (!same) *why = "jaccard neighbours";
      return same;
    }
    case sv::QueryKind::kWcc: {
      const auto ref = gk::wcc_label_propagation(v);
      if (ref.num_components == r.num_components &&
          ref.largest_size == r.largest_component) {
        return true;
      }
      *why = "component counts";
      return false;
    }
    case sv::QueryKind::kPageRankTopK: {
      // Served ranks may come from warm refinement, which stays within the
      // batch tolerance; compare scores, not tie order.
      gk::PageRankOptions o;
      o.tolerance = 1e-6;
      o.max_iters = 50;
      const auto ref = gk::pagerank(v.csr(), o);
      const auto top = gk::pagerank_topk(ref, s.desc.k);
      constexpr double kTol = 1e-5;
      bool ok = r.topk.size() == top.size();
      for (std::size_t i = 0; ok && i < top.size(); ++i) {
        ok = std::abs(r.topk[i].first - ref.rank[r.topk[i].second]) < kTol &&
             r.topk[i].first > top.back().first - kTol;
      }
      if (!ok) *why = "pagerank top-k";
      return ok;
    }
  }
  *why = "unknown query kind";
  return false;
}

std::vector<double> read_ms(const PhaseResult& p, bool want_interactive) {
  std::vector<double> v;
  for (const Read& rd : p.reads) {
    if (interactive(rd.desc.kind) == want_interactive) v.push_back(rd.ms);
  }
  return v;
}

std::vector<double> read_ms(const PhaseResult& p, sv::QueryKind k) {
  std::vector<double> v;
  for (const Read& rd : p.reads) {
    if (rd.desc.kind == k) v.push_back(rd.ms);
  }
  return v;
}

double completed_qps(const PhaseResult& p) {
  std::size_t ok = 0;
  for (const Read& rd : p.reads) ok += rd.r.ok();
  return ok / (p.elapsed_ms / 1e3);
}

/// Counts the phase's operations and checks its sampled answers.
void account(const PhaseResult& p, Report& rep) {
  for (const Read& rd : p.reads) {
    if (!rd.r.ok()) {
      std::printf("query %s: %s %s\n", sv::query_kind_name(rd.desc.kind),
                  sv::query_status_name(rd.r.status), rd.r.error.c_str());
    }
    rep.op(rd.r.ok());
  }
  for (const Write& w : p.writes) rep.op(w.ok);
  for (const Sampled& s : p.samples) {
    std::string why;
    if (!check_answer(s, &why)) {
      rep.check_failed(std::string("served ") +
                       sv::query_kind_name(s.desc.kind) + " at epoch " +
                       std::to_string(s.r.epoch) + ": " + why);
      rep.ops(0, 1);  // the read itself was counted above
    }
  }
}

}  // namespace

void run_serve_ingest(const Args& args, Report& rep) {
  SpanLog log(args.trace);
  Lane* setup_lane = args.trace ? &log.lane("setup") : nullptr;

  std::vector<double> setup_s;
  std::unique_ptr<Service> svc;
  for (int i = 0; i < (args.trace ? 1 : kSetups); ++i) {
    svc.reset();
    Scope root(setup_lane, "bench.setup", Layer::kNone);
    svc = std::make_unique<Service>(args, i, setup_lane);
    setup_s.push_back(svc->setup_s());
  }
  const ZipfSeeds seeds(svc->initial());

  // Graph500 denominator: edges of the largest component of the initial
  // graph (each epoch changes ~0.1% of the edges); other roots are skipped
  // as in analytics.cpp.
  const auto& g0 = svc->initial();
  const auto cc0 = gk::run(g0, gk::ComponentsOptions{});
  std::vector<double> comp_arcs(g0.num_vertices(), 0);
  for (vid_t v = 0; v < g0.num_vertices(); ++v) {
    comp_arcs[cc0.label[v]] += static_cast<double>(g0.out_degree(v));
  }
  const vid_t giant = static_cast<vid_t>(
      std::max_element(comp_arcs.begin(), comp_arcs.end()) - comp_arcs.begin());

  std::uint64_t next_epoch = 0;
  run_phase(*svc, seeds, args.seed, 0, &next_epoch, kWarmupSeconds, nullptr);
  const PhaseResult p =
      run_phase(*svc, seeds, args.seed, 1, &next_epoch, args.seconds, nullptr);
  const double rss = peak_rss_mb();
  account(p, rep);

  std::vector<double> mteps;
  for (const Read& rd : p.reads) {
    if (rd.desc.kind != sv::QueryKind::kBfs || !rd.r.ok() || rd.r.cache_hit ||
        rd.r.exec_ms <= 0 || cc0.label[rd.desc.seed] != giant) {
      continue;
    }
    mteps.push_back(comp_arcs[giant] / 2.0 / (rd.r.exec_ms * 1e3));
  }
  const auto inter = read_ms(p, true);
  rep.add("setup_s", median(setup_s), "s");
  rep.add("throughput_qps", completed_qps(p), "1/s");
  rep.add("interactive_p50_ms", median(inter), "ms");
  rep.add("interactive_tail_ms",
          percentile(inter, tail_quantile(args.workload)),
          "ms");
  rep.add("analytic_mean_ms",
          analytic_mean(read_ms(p, sv::QueryKind::kWcc),
                        read_ms(p, sv::QueryKind::kPageRankTopK)),
          "ms");
  rep.add("analytic_p50_ms", median(read_ms(p, false)), "ms");
  rep.add("bfs_mteps", harmonic_mean(mteps), "MTEPS");
  rep.add("peak_rss_mb", rss, "MiB");
  std::printf("measured %zu reads (%zu interactive), %zu epochs in %.1f ms; "
              "%zu answers re-checked\n",
              p.reads.size(), inter.size(), p.writes.size(), p.elapsed_ms,
              p.samples.size());

  const PhaseResult* lp = &p;
  PhaseResult t;
  if (args.trace) {
    t = run_phase(*svc, seeds, args.seed, 2, &next_epoch, args.seconds, &log);
    account(t, rep);
    rep.add("obs.trace_overhead_ratio", completed_qps(t) / completed_qps(p),
            "ratio");
    lp = &t;
  }

  // Recovery from the log directory, against the live store's digest.
  Lane* rec_lane = args.trace ? &log.lane("recovery") : nullptr;
  const std::uint64_t live_digest = gs::view_digest(svc->store().view());
  const std::uint64_t live_epoch = svc->store().epoch();
  std::vector<double> recover_s;
  std::uint64_t replayed = 0;
  for (int i = 0; i < kRecoveries; ++i) {
    Scope root(rec_lane, "bench.recover", Layer::kNone);
    gs::RecoveryOptions ro;
    ro.dir = svc->dir();
    ro.truncate_torn_tail = false;
    const double t0 = now_ms();
    gs::RecoveredStore rs;
    {
      Scope span(rec_lane, "store.recover", Layer::kStore);
      rs = gs::recover(ro);
    }
    recover_s.push_back((now_ms() - t0) / 1e3);
    replayed = rs.report.replayed;
    const bool ok = rs.report.status().ok() &&
                    rs.report.recovered_epoch == live_epoch &&
                    gs::view_digest(rs.store->view()) == live_digest;
    if (!ok) rep.check_failed("recovered store differs from the live store");
    rep.op(ok);
  }

  const PhaseResult& L = *lp;
  std::vector<double> ack, lag, self, append;
  for (const Write& w : L.writes) {
    ack.push_back(w.ack_ms);
    lag.push_back(w.lag_ms);
    self.push_back(w.apply_self_ms);
    append.push_back(w.append_ms);
  }
  rep.add("ingest_ack_p50_ms", median(ack), "ms");
  rep.add("ingest_ack_tail_ms", percentile(ack, kIngestTail), "ms");
  rep.add("ingest.generator_lag_ms", mean(lag), "ms");
  rep.add("ingest.backlog_end", static_cast<double>(L.backlog_end), "count");
  rep.add("recover_s", median(recover_s), "s");
  if (!args.trace) return;

  rep.add("graph.build_s", svc->graph_s(), "s");
  rep.add("store.apply_ms_p50", median(self), "ms");
  rep.add("store.apply_ms_tail", percentile(self, kIngestTail), "ms");
  rep.add("store.log.append_ms_p50", median(append), "ms");
  rep.add("store.log.append_ms_tail", percentile(append, kIngestTail), "ms");
  rep.add("store.log.bytes_per_update",
          static_cast<double>(L.log_bytes) / static_cast<double>(L.updates),
          "B");
  rep.add("store.log.checkpoint_ms_p50", median(L.checkpoint_ms), "ms");
  rep.add("store.compactions", static_cast<double>(L.compactions), "count");
  rep.add("store.compact_ms_p50", median(L.compact_ms), "ms");
  rep.add("store.chain_depth_max",
          L.chain_depth.empty()
              ? 0.0
              : *std::max_element(L.chain_depth.begin(), L.chain_depth.end()),
          "count");
  rep.add("store.read_amp_mean", mean(L.read_amp), "ratio");
  rep.add("store.recovery.replayed_epochs", static_cast<double>(replayed),
          "count");

  rep.add("server.publish_ms_p50", median(L.publish_ms), "ms");
  std::vector<double> wait, err;
  std::map<sv::QueryKind, std::vector<double>> exec;
  std::size_t hits = 0, batched = 0;
  for (const Read& rd : L.reads) {
    hits += rd.r.cache_hit;
    batched += rd.r.batched;
    if (rd.r.cache_hit || !rd.r.ok()) continue;
    wait.push_back(rd.r.wait_ms);
    exec[rd.desc.kind].push_back(rd.r.exec_ms);
    if (rd.r.exec_ms > 0) {
      err.push_back(std::abs(rd.r.predicted_ms - rd.r.exec_ms) / rd.r.exec_ms);
    }
  }
  const double n = static_cast<double>(L.reads.size());
  rep.add("server.wait_ms_p50", median(wait), "ms");
  rep.add("server.wait_ms_tail",
          percentile(wait, tail_quantile(args.workload)),
          "ms");
  rep.add("server.exec_ms_p50.bfs", median(exec[sv::QueryKind::kBfs]), "ms");
  rep.add("server.exec_ms_p50.subgraph",
          median(exec[sv::QueryKind::kSubgraphExtract]), "ms");
  rep.add("server.exec_ms_p50.jaccard",
          median(exec[sv::QueryKind::kJaccardNeighbors]), "ms");
  rep.add("server.exec_ms_p50.wcc", median(exec[sv::QueryKind::kWcc]), "ms");
  rep.add("server.exec_ms_p50.pagerank",
          median(exec[sv::QueryKind::kPageRankTopK]), "ms");
  rep.add("server.cache_hit_ratio", hits / n, "ratio");
  rep.add("server.cache_carried",
          static_cast<double>(L.cache1.carried - L.cache0.carried), "count");
  rep.add("server.batched_share", batched / n, "ratio");
  const double served = static_cast<double>(L.sched1.incremental_served -
                                            L.sched0.incremental_served);
  const double fallbacks = static_cast<double>(
      L.sched1.incremental_fallbacks - L.sched0.incremental_fallbacks);
  rep.add("server.incremental_ratio",
          served + fallbacks > 0 ? served / (served + fallbacks) : 0.0,
          "ratio");
  rep.add("server.predict_err_p50", median(err), "ratio");
  rep.add("server.memory_amplification", L.memory_amplification, "ratio");
  rep.add_rollup(log.rollup());
  log.write(args.workdir + "/spans.jsonl");
}

}  // namespace perfbench
