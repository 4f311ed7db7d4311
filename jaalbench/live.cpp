// Live workloads (isp_steady, edge_fanout): closed-loop epochs through
// JaalController::ingest / close_epoch, and the traced layer-by-layer drive
// of the same epochs through the public per-layer entry points.
#include <algorithm>
#include <filesystem>
#include <future>
#include <memory>
#include <random>
#include <variant>

#include "bench.hpp"

namespace jaalbench {
namespace {

/// The RNG seed Summarizer::begin_epoch derives for (seed, epoch).
std::uint64_t summarizer_epoch_seed(std::uint64_t seed, std::uint64_t epoch) {
  const auto splitmix64 = [](std::uint64_t x) {
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
  };
  return splitmix64(seed ^ splitmix64(epoch));
}

/// One untraced pass: a fresh controller over every epoch of the traffic.
/// Each epoch is timed twice: wall clock, and CPU time of the whole process
/// (every thread), which a descheduled virtual CPU does not inflate.
struct LivePass {
  double wall_s = 0.0;  ///< Sum of ingest + close_epoch wall time.
  double cpu_s = 0.0;   ///< ... and its process CPU time.
  std::vector<double> close_ms, close_cpu_ms;
  std::vector<double> close_path_ms;  ///< Critical-path CPU (PathCpu).
  std::vector<double> query_ms, query_cpu_ms;  ///< Ingest + close, per epoch.
  Digest digest;
  std::uint64_t packets = 0;
  std::uint64_t summary_bytes = 0;
  std::uint64_t feedback_bytes = 0;
  std::uint64_t store_bytes = 0;
  std::optional<runtime::RuntimeStatsSnapshot> runtime;
};

LivePass live_pass(const WorkloadSpec& spec, const std::vector<Epoch>& traffic,
                   const std::string& store_dir, OpCount& ops) {
  LivePass p;
  std::filesystem::remove_all(store_dir);
  auto ctl = std::make_unique<core::JaalController>(
      deployment_config(spec, spec.threads, spec.feedback, store_dir),
      ruleset());
  PathCpu path;  // After the controller, so it sees the pool's threads.

  std::uint64_t not_aggregated = 0;
  std::uint64_t produced = 0;
  for (const Epoch& ep : traffic) {
    const auto a = Clock::now();
    const double ca = cpu_ms();
    for (const auto& pkt : ep.packets) ctl->ingest(pkt);
    const auto b = Clock::now();
    const double cb = cpu_ms();
    path.start();
    const core::EpochResult r = ctl->close_epoch(ep.end_time);
    p.close_path_ms.push_back(path.stop());
    const auto c = Clock::now();
    const double cc = cpu_ms();
    p.close_ms.push_back(ms_between(b, c));
    p.close_cpu_ms.push_back(cc - cb);
    p.query_ms.push_back(ms_between(a, c));
    p.query_cpu_ms.push_back(cc - ca);
    p.wall_s += ms_between(a, c) / 1000.0;
    p.cpu_s += (cc - ca) / 1000.0;
    p.packets += ep.packets.size();
    p.digest.push_back(digest_of(r.alerts));
    const std::uint64_t lost =
        r.summaries_dropped + r.summaries_late + r.summaries_lost_shard;
    not_aggregated += lost;
    produced += r.monitors_reporting + lost;
  }
  std::uint64_t malformed = 0;
  for (const auto& m : ctl->monitors()) {
    malformed += m.packets_malformed() + m.packets_oversized();
  }
  p.summary_bytes = ctl->comm().summary_bytes;
  p.feedback_bytes = ctl->comm().feedback_bytes;
  p.runtime = ctl->runtime_stats();
  const store::DeploymentStore& st = *ctl->store();
  const auto last = st.last_committed_epoch();
  const std::uint64_t committed = st.failed() || !last ? 0 : *last + 1;
  ctl.reset();  // Finalizes the store shards before they are measured.
  p.store_bytes = dir_bytes(store_dir);
  std::filesystem::remove_all(store_dir);

  ops.attempted += p.packets + produced + traffic.size();
  ops.fail(malformed, "packets rejected as malformed");
  ops.fail(not_aggregated, "summaries not aggregated");
  ops.fail(traffic.size() - committed, "epochs whose store commit failed");
  return p;
}

/// Samples gathered by the traced drive, pooled over traced passes.
struct TracedSamples {
  std::vector<double> ingest_ns_per_pkt;
  std::vector<double> flush_ms_med, flush_ms_max, monitor_skew;
  std::size_t flushes = 0, silent = 0;
  std::vector<double> batch_ms, normalize_ms, svd_ms, kmeans_ms,
      unattributed_ms;
  std::vector<double> kmeans_iters, dist_evals, svd_sweeps, summary_bytes;
  std::vector<double> aggregate_ms, rows, infer_ms, health_ms;
  std::vector<double> append_ms, commit_ms;
  std::uint64_t feedback_requests = 0, feedback_raw_pkts = 0,
                feedback_confirmed = 0, feedback_bytes = 0, packets = 0;
  std::vector<double> store_bytes_per_epoch;
  std::vector<double> traced_pkts_per_cpu_s;
  std::size_t questions = 0;
  std::size_t reruns = 0;
  std::size_t rerun_mismatches = 0;  ///< k-means counts != the summary's.
};

/// One traced pass: the calls close_epoch makes, in its order, each
/// wrapped in a span.  After each epoch, outside the traced close, every
/// flushed batch is re-run through Summarizer::summarize and then through
/// its steps one by one.
Digest traced_pass(const WorkloadSpec& spec, const std::vector<Epoch>& traffic,
                   const std::string& store_dir, Tracer& tracer,
                   std::uint64_t epoch_base, TracedSamples& s) {
  std::filesystem::remove_all(store_dir);
  const core::JaalConfig cfg =
      deployment_config(spec, spec.threads, spec.feedback, store_dir);
  std::shared_ptr<runtime::ThreadPool> pool;
  if (spec.threads > 1) {
    pool = std::make_shared<runtime::ThreadPool>(spec.threads);
  }
  std::vector<core::Monitor> monitors;
  monitors.reserve(spec.monitors);
  for (std::size_t i = 0; i < spec.monitors; ++i) {
    summarize::SummarizerConfig scfg = cfg.summarizer;
    scfg.seed = cfg.summarizer.seed + i;  // The controller's seeding.
    monitors.emplace_back(static_cast<summarize::MonitorId>(i), scfg);
    if (pool) monitors.back().set_pool(pool);
  }
  inference::EngineConfig ecfg = cfg.engine;
  ecfg.record_provenance = ecfg.record_provenance && cfg.observe.provenance;
  shard::InferenceTier tier(cfg.sharding, ruleset(), ecfg, cfg.aggregation);
  if (pool) tier.set_pool(pool);
  observe::HealthTracker health(cfg.observe, spec.monitors);
  auto st = std::make_unique<store::DeploymentStore>(
      store::StoreConfig{store_dir, cfg.store_epochs_per_shard},
      /*writable=*/true);
  s.questions = tier.engine().questions().size();
  const auto stats_before = tier.engine().stats();

  const std::size_t p = packet::kFieldCount;
  const std::size_t r = cfg.summarizer.rank;
  const std::size_t k = cfg.summarizer.centroids;
  const bool split = r * (k + p + 1) + k < k * (p + 1);

  Digest digest;
  double cpu_total_ms = 0.0;  // Steps 1-4 only: the traced close_epoch.
  std::vector<std::vector<packet::PacketRecord>> pending(spec.monitors);
  for (std::size_t e = 0; e < traffic.size(); ++e) {
    const Epoch& ep = traffic[e];
    const std::uint64_t tid = epoch_base + e;  // Span epoch id.
    Span root(tracer, "bench.epoch", 0, tid);
    const double epoch_cpu = cpu_ms();

    // 1. Route with the controller's flow hash, observe.
    {
      Span sp(tracer, "core.ingest", root.id(), tid);
      const auto a = Clock::now();
      for (const auto& pkt : ep.packets) {
        monitors[packet::FlowKeyHash{}(pkt.flow()) % monitors.size()].observe(
            pkt);
      }
      s.ingest_ns_per_pkt.push_back(ms_between(a, Clock::now()) * 1e6 /
                                    static_cast<double>(ep.packets.size()));
    }

    // 2. Flush every monitor (on the pool when the workload has one).
    for (auto& m : monitors) m.begin_epoch(e);
    tier.begin_epoch(e);
    std::vector<std::optional<summarize::MonitorSummary>> slots(
        spec.monitors);
    std::vector<double> flush_ms(spec.monitors, 0.0);
    const auto flush_one = [&](std::size_t i) {
      Span sp(tracer, "core.flush", root.id(), tid, i);
      const auto a = Clock::now();
      slots[i] = monitors[i].flush_epoch();
      flush_ms[i] = ms_between(a, Clock::now());
    };
    if (pool) {
      std::vector<std::future<void>> done;
      for (std::size_t i = 0; i < spec.monitors; ++i) {
        done.push_back(pool->submit([&, i] { flush_one(i); }));
      }
      for (auto& f : done) f.get();
    } else {
      for (std::size_t i = 0; i < spec.monitors; ++i) flush_one(i);
    }
    std::vector<double> live_flush;
    for (std::size_t i = 0; i < spec.monitors; ++i) {
      ++s.flushes;
      if (!slots[i]) {
        ++s.silent;
        continue;
      }
      live_flush.push_back(flush_ms[i]);
      s.summary_bytes.push_back(
          static_cast<double>(summarize::wire_bytes(*slots[i])));
    }
    if (!live_flush.empty()) {
      s.flush_ms_med.push_back(median(live_flush));
      s.flush_ms_max.push_back(
          *std::max_element(live_flush.begin(), live_flush.end()));
    }

    // Drift monitoring, in monitor order, before inference.
    {
      Span sp(tracer, "observe.health", root.id(), tid);
      const auto a = Clock::now();
      for (std::size_t i = 0; i < spec.monitors; ++i) {
        if (!slots[i]) continue;
        if (const auto& f = monitors[i].last_fidelity()) {
          observe::FidelityStats fs = *f;
          fs.epoch = e;
          health.observe_fidelity(fs);
        }
      }
      s.health_ms.push_back(ms_between(a, Clock::now()));
    }

    // 3. Aggregate and infer, feedback wired to the monitors.
    double append_ms = 0.0;
    {
      Span sp(tracer, "shard.add_summary", root.id(), tid);
      for (std::size_t i = 0; i < spec.monitors; ++i) {
        if (slots[i]) (void)tier.add_summary(*slots[i]);
      }
    }
    {
      // 4a. Persist the accepted summaries in aggregation order.
      Span sp(tracer, "store.append", root.id(), tid);
      const auto a = Clock::now();
      for (std::size_t i = 0; i < spec.monitors; ++i) {
        if (slots[i]) st->put_summary(e, *slots[i]);
      }
      append_ms += ms_between(a, Clock::now());
    }
    const double caution = health.caution();
    tier.set_caution(caution);
    std::vector<inference::Alert> alerts;
    if (tier.pending() > 0) {
      {
        Span sp(tracer, "shard.aggregate", root.id(), tid);
        const auto a = Clock::now();
        const inference::AggregatedSummary& agg = tier.aggregate_epoch();
        s.aggregate_ms.push_back(ms_between(a, Clock::now()));
        s.rows.push_back(static_cast<double>(agg.rows()));
      }
      tier.set_tau_c_scale(cfg.engine.tau_c_scale *
                           static_cast<double>(ep.packets.size()) / 2000.0);
      tier.set_report_fraction(1.0);
      Span sp(tracer, "inference.infer", root.id(), tid);
      const std::uint64_t infer_id = sp.id();
      const inference::RawPacketFetcher fetch =
          [&](summarize::MonitorId id,
              const std::vector<std::size_t>& centroids) -> inference::RawFetch {
        Span fsp(tracer, "core.fetch", infer_id, tid, id);
        return monitors.at(id).raw_packets_for(centroids);
      };
      const auto a = Clock::now();
      alerts = tier.infer_epoch(fetch);
      s.infer_ms.push_back(ms_between(a, Clock::now()));
    }
    observe::HealthTracker::EpochDegradation deg;
    deg.alerts = alerts.size();
    (void)health.end_epoch(e, deg);
    for (const auto& al : alerts) {
      if (al.via_feedback) ++s.feedback_confirmed;
    }

    // 4b. Alerts, provenance, then the commit record.
    {
      Span sp(tracer, "store.append", root.id(), tid);
      const auto a = Clock::now();
      for (const auto& al : alerts) {
        st->put_alert(e, al, ep.end_time);
        if (al.provenance) st->put_provenance(e, al.sid, *al.provenance);
      }
      append_ms += ms_between(a, Clock::now());
    }
    s.append_ms.push_back(append_ms);
    {
      Span sp(tracer, "store.commit", root.id(), tid);
      const auto a = Clock::now();
      store::EpochMeta meta{e, ep.end_time, ep.packets.size(), 1.0, caution};
      meta.shard_count = tier.shard_count();
      st->commit_epoch(meta);
      s.commit_ms.push_back(ms_between(a, Clock::now()));
    }
    root.finish();
    cpu_total_ms += cpu_ms() - epoch_cpu;
    s.packets += ep.packets.size();
    digest.push_back(digest_of(alerts));

    // Mirror each monitor's buffer (outside the timed drive) so the re-run
    // below sees exactly the batches the flush summarized.
    std::vector<std::size_t> routed(spec.monitors, 0);
    for (const auto& pkt : ep.packets) {
      const std::size_t m = packet::FlowKeyHash{}(pkt.flow()) % monitors.size();
      pending[m].push_back(pkt);
      ++routed[m];
    }
    s.monitor_skew.push_back(
        static_cast<double>(*std::max_element(routed.begin(), routed.end())) *
        static_cast<double>(spec.monitors) /
        static_cast<double>(ep.packets.size()));

    // 5. Re-run each flushed batch, whole through Summarizer::summarize and
    // then step by step, with the seeding, options and pool the flush had.
    // Both runs happen here, one batch at a time, so batch - steps is the
    // summarizer's own work.  The step-by-step k-means counts must equal
    // the flushed summary's: the steps are the computation the flush made.
    Span rerun(tracer, "bench.rerun", 0, tid);
    for (std::size_t i = 0; i < spec.monitors; ++i) {
      if (!slots[i]) continue;  // Silent: the packets stay buffered.
      const std::vector<packet::PacketRecord> batch = std::move(pending[i]);
      pending[i].clear();
      summarize::SummarizerConfig scfg = cfg.summarizer;
      scfg.seed = cfg.summarizer.seed + i;
      double batch_ms = 0.0;
      {
        summarize::Summarizer whole(scfg,
                                    static_cast<summarize::MonitorId>(i));
        whole.set_pool(pool);
        whole.begin_epoch(e);
        const auto a = Clock::now();
        (void)whole.summarize(batch);
        batch_ms = ms_between(a, Clock::now());
        s.batch_ms.push_back(batch_ms);
      }
      double steps_ms = 0.0;
      linalg::Matrix x;
      {
        Span sp(tracer, "summarize.normalize", rerun.id(), tid, i);
        const auto a = Clock::now();
        x = summarize::to_normalized_matrix(batch);
        const double ms = ms_between(a, Clock::now());
        s.normalize_ms.push_back(ms);
        steps_ms += ms;
      }
      linalg::SvdResult svd;
      {
        Span sp(tracer, "linalg.svd", rerun.id(), tid, i);
        const auto a = Clock::now();
        svd = linalg::truncated_svd(x, std::min(r, batch.size()));
        const double ms = ms_between(a, Clock::now());
        s.svd_ms.push_back(ms);
        s.svd_sweeps.push_back(svd.sweeps);
        steps_ms += ms;
      }
      {
        const linalg::Matrix points = split ? svd.u : svd.reconstruct();
        std::mt19937_64 rng(summarizer_epoch_seed(scfg.seed, e));
        summarize::KMeansOptions km_opts = cfg.summarizer.kmeans;
        km_opts.pool = pool.get();
        Span sp(tracer, "summarize.kmeans", rerun.id(), tid, i);
        const auto a = Clock::now();
        const summarize::KMeansResult km =
            summarize::kmeans(points, k, rng, km_opts);
        const double ms = ms_between(a, Clock::now());
        s.kmeans_ms.push_back(ms);
        s.kmeans_iters.push_back(static_cast<double>(km.iterations));
        const double nk = static_cast<double>(batch.size()) *
                          static_cast<double>(std::min(k, batch.size()));
        s.dist_evals.push_back(nk +
                               nk * static_cast<double>(km.iterations));
        steps_ms += ms;
        const auto& counts = std::visit(
            [](const auto& m) -> const std::vector<std::uint64_t>& {
              return m.counts;
            },
            *slots[i]);
        ++s.reruns;
        if (km.counts != counts) ++s.rerun_mismatches;
      }
      s.unattributed_ms.push_back(batch_ms - steps_ms);
    }
  }
  s.traced_pkts_per_cpu_s.push_back(
      static_cast<double>(traffic.size() * traffic.front().packets.size()) *
      1000.0 / cpu_total_ms);
  const auto& stats_after = tier.engine().stats();
  s.feedback_requests +=
      stats_after.feedback_requests - stats_before.feedback_requests;
  s.feedback_raw_pkts +=
      stats_after.raw_packets_fetched - stats_before.raw_packets_fetched;
  s.feedback_bytes +=
      stats_after.raw_bytes_fetched - stats_before.raw_bytes_fetched;
  st.reset();
  s.store_bytes_per_epoch.push_back(static_cast<double>(dir_bytes(store_dir)) /
                                    static_cast<double>(traffic.size()));
  std::filesystem::remove_all(store_dir);
  return digest;
}

}  // namespace

std::vector<Metric> run_live(const WorkloadSpec& spec, const RunOptions& opt,
                             OpCount& ops) {
  const std::vector<Epoch> traffic = make_traffic(spec, opt.seed);
  const std::string store_dir = opt.workdir + "/store-" + spec.name;
  // The traffic is the benchmark's own; peak_rss_mb counts what is above it.
  const double baseline_rss_mb = reset_peak_rss_mb();

  // Reference: the same epochs at threads = 1 (the determinism contract).
  Digest reference = run_controller(
      deployment_config(spec, 1, spec.feedback, ""), ruleset(), traffic);
  if (opt.corrupt_reference) reference.front().emplace_back(0xBADu, 1);
  const auto check = [&](const Digest& got, const char* what) {
    ops.attempted += 1;
    if (got != reference) {
      ops.fail(1, std::string(what) +
                      " alerts differ from the threads=1 reference");
    }
  };

  // Set-up time: the controller (rule translation, pool, store open),
  // constructed before every pass so the samples span the whole run.
  std::vector<double> setup;
  const auto time_setup = [&] {
    for (int i = 0; i < kSetupsPerRound; ++i) {
      std::filesystem::remove_all(store_dir);
      const double a = cpu_ms();
      const core::JaalController ctl(
          deployment_config(spec, spec.threads, spec.feedback, store_dir),
          ruleset());
      setup.push_back((cpu_ms() - a) / 1000.0);
    }
  };

  std::vector<LivePass> passes;
  Tracer tracer;
  TracedSamples ts;
  std::size_t traced_passes = 0;
  const auto start = Clock::now();
  do {
    time_setup();
    passes.push_back(live_pass(spec, traffic, store_dir, ops));
    check(passes.back().digest, "untraced");
    if (opt.trace) {
      check(traced_pass(spec, traffic, store_dir, tracer,
                        traced_passes * traffic.size(), ts),
            "traced");
      ++traced_passes;
    }
  } while (ms_between(start, Clock::now()) < opt.seconds * 1000.0 &&
           ops.failed == 0);
  ops.attempted += ts.reruns;
  ops.fail(ts.rerun_mismatches,
           "re-run k-means counts differ from the flushed summary");

  std::vector<Metric> out;
  const auto put = [&](const std::string& name, double v,
                       const std::string& unit, std::size_t n = 0) {
    out.push_back({name, v, unit, n});
  };
  if (!opt.trace) {
    std::vector<double> pps, pps_cpu, close, close_cpu, close_path, query,
        query_cpu, sbpp, store_bpe;
    std::uint64_t feedback_bytes = 0, packets = 0;
    for (const LivePass& p : passes) {
      pps.push_back(static_cast<double>(p.packets) / p.wall_s);
      pps_cpu.push_back(static_cast<double>(p.packets) / p.cpu_s);
      close.insert(close.end(), p.close_ms.begin(), p.close_ms.end());
      close_cpu.insert(close_cpu.end(), p.close_cpu_ms.begin(),
                       p.close_cpu_ms.end());
      close_path.insert(close_path.end(), p.close_path_ms.begin(),
                        p.close_path_ms.end());
      query.insert(query.end(), p.query_ms.begin(), p.query_ms.end());
      query_cpu.insert(query_cpu.end(), p.query_cpu_ms.begin(),
                       p.query_cpu_ms.end());
      sbpp.push_back(static_cast<double>(p.summary_bytes) /
                     static_cast<double>(p.packets));
      store_bpe.push_back(static_cast<double>(p.store_bytes) /
                          static_cast<double>(traffic.size()));
      feedback_bytes += p.feedback_bytes;
      packets += p.packets;
    }
    const Detection det = score(traffic, reference);
    det.print();
    put("pkts_per_cpu_s", median(pps_cpu), "pkt/s", pps_cpu.size());
    put("epoch_close_cpu_ms_p50", percentile(close_cpu, 0.50), "ms",
        close_cpu.size());
    put("epoch_close_cpu_ms_p95", percentile(close_cpu, 0.95), "ms",
        close_cpu.size());
    put("epoch_close_path_cpu_ms_p50", percentile(close_path, 0.50), "ms",
        close_path.size());
    put("query_cpu_ms_p50", percentile(query_cpu, 0.50), "ms",
        query_cpu.size());
    put("query_cpu_ms_p95", percentile(query_cpu, 0.95), "ms",
        query_cpu.size());
    put("summary_bytes_per_pkt", median(sbpp), "bytes/pkt", sbpp.size());
    put("store_bytes_per_epoch", median(store_bpe), "bytes", store_bpe.size());
    put("detect_tpr", det.tpr(), "frac", det.attack_pairs);
    put("setup_s", median(setup), "s", setup.size());
    put("peak_rss_mb", peak_rss_mb() - baseline_rss_mb, "MB");
    // Reported, not bounded: wall clock on a shared host, and measures that
    // are 0 on some workloads or seeds.
    put("baseline_rss_mb", baseline_rss_mb, "MB");
    put("pkts_per_s", median(pps), "pkt/s", pps.size());
    put("epoch_close_ms_p50", percentile(close, 0.50), "ms", close.size());
    put("epoch_close_ms_p95", percentile(close, 0.95), "ms", close.size());
    put("query_ms_p50", percentile(query, 0.50), "ms", query.size());
    put("query_ms_p95", percentile(query, 0.95), "ms", query.size());
    put("detect_fpr", det.fpr(), "frac", det.clean_epochs);
    put("feedback_bytes_per_pkt",
        static_cast<double>(feedback_bytes) / static_cast<double>(packets),
        "bytes/pkt");
    return out;
  }

  // Traced run: per-layer numbers from the spans and counters.
  const double epochs = static_cast<double>(traced_passes * traffic.size());
  put("core.ingest_ns_per_pkt", median(ts.ingest_ns_per_pkt), "ns/pkt",
      ts.ingest_ns_per_pkt.size());
  put("core.flush_ms_med", median(ts.flush_ms_med), "ms", ts.flush_ms_med.size());
  put("core.flush_ms_max", median(ts.flush_ms_max), "ms", ts.flush_ms_max.size());
  put("core.monitor_skew", median(ts.monitor_skew), "ratio",
      ts.monitor_skew.size());
  put("core.silent_frac",
      static_cast<double>(ts.silent) / static_cast<double>(ts.flushes), "frac",
      ts.flushes);
  put("summarize.batch_ms", median(ts.batch_ms), "ms", ts.batch_ms.size());
  put("summarize.normalize_ms", median(ts.normalize_ms), "ms",
      ts.normalize_ms.size());
  put("summarize.unattributed_ms", median(ts.unattributed_ms), "ms",
      ts.unattributed_ms.size());
  put("summarize.kmeans_ms", median(ts.kmeans_ms), "ms", ts.kmeans_ms.size());
  put("summarize.kmeans_iters", mean(ts.kmeans_iters), "count",
      ts.kmeans_iters.size());
  put("summarize.kmeans_dist_evals", mean(ts.dist_evals), "count",
      ts.dist_evals.size());
  put("summarize.summary_bytes", mean(ts.summary_bytes), "bytes",
      ts.summary_bytes.size());
  put("linalg.svd_ms", median(ts.svd_ms), "ms", ts.svd_ms.size());
  put("linalg.svd_sweeps", mean(ts.svd_sweeps), "count", ts.svd_sweeps.size());
  put("shard.aggregate_ms", median(ts.aggregate_ms), "ms",
      ts.aggregate_ms.size());
  put("shard.rows", mean(ts.rows), "count", ts.rows.size());
  put("inference.infer_ms", median(ts.infer_ms), "ms", ts.infer_ms.size());
  put("inference.questions", static_cast<double>(ts.questions), "count");
  put("inference.feedback_requests",
      static_cast<double>(ts.feedback_requests) / epochs, "count");
  put("inference.feedback_raw_pkts",
      static_cast<double>(ts.feedback_raw_pkts) / epochs, "count");
  put("inference.feedback_useful_frac",
      ts.feedback_requests == 0
          ? 0.0
          : static_cast<double>(ts.feedback_confirmed) /
                static_cast<double>(ts.feedback_requests),
      "frac");
  put("inference.feedback_bytes_per_pkt",
      static_cast<double>(ts.feedback_bytes) / static_cast<double>(ts.packets),
      "bytes/pkt");
  put("store.append_ms", median(ts.append_ms), "ms", ts.append_ms.size());
  put("store.commit_ms", median(ts.commit_ms), "ms", ts.commit_ms.size());
  put("store.bytes_written", median(ts.store_bytes_per_epoch), "bytes");
  put("observe.health_ms", median(ts.health_ms), "ms", ts.health_ms.size());
  {
    double tasks = 0.0, high_water = 0.0;
    for (const LivePass& p : passes) {
      if (!p.runtime) continue;
      tasks += static_cast<double>(p.runtime->tasks_submitted);
      high_water = std::max(
          high_water, static_cast<double>(p.runtime->queue_depth_high_water));
    }
    put("runtime.tasks",
        tasks / static_cast<double>(passes.size() * traffic.size()), "count");
    put("runtime.queue_high_water", high_water, "count");
  }
  for (const auto& [layer, by_epoch] : self_time_by_layer(tracer.spans())) {
    std::vector<double> per_epoch;
    for (const auto& [epoch, ms] : by_epoch) per_epoch.push_back(ms);
    // Layers absent from an epoch spent nothing in it.
    per_epoch.resize(static_cast<std::size_t>(epochs), 0.0);
    put("self." + layer + "_ms", median(per_epoch), "ms", per_epoch.size());
  }
  std::vector<double> untraced;
  for (const LivePass& p : passes) {
    untraced.push_back(static_cast<double>(p.packets) / p.cpu_s);
  }
  const double traced_pps = median(ts.traced_pkts_per_cpu_s);
  const double untraced_pps = median(untraced);
  put("trace.pkts_per_cpu_s_traced", traced_pps, "pkt/s",
      ts.traced_pkts_per_cpu_s.size());
  put("trace.pkts_per_cpu_s_untraced", untraced_pps, "pkt/s", untraced.size());
  put("trace.overhead_frac", 1.0 - traced_pps / untraced_pps, "frac");
  tracer.write_jsonl(opt.workdir + "/spans-" + spec.name + "-" +
                     std::to_string(opt.seed) + ".jsonl");
  return out;
}

}  // namespace jaalbench
