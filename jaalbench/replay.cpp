// retro_replay: a store written once by an untimed isp_steady-shaped live
// run that lacks the port-scan rule, then timed queries that each open a
// store::StoreReplayer and replay the full ruleset over every committed
// epoch (the examples/retroactive_query operation).  The traced run drives
// the same replay through the store read path, the aggregator and the
// engine, with a span around each call.
#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>

#include "bench.hpp"

namespace jaalbench {
namespace {

inference::EngineConfig replay_engine_config(const WorkloadSpec& spec) {
  // Replay is feedback-free (the raw packets are gone), so it runs at the
  // single-threshold operating point the evaluation uses without feedback.
  const core::JaalConfig cfg = deployment_config(spec, 1, false, "");
  inference::EngineConfig e = cfg.engine;
  e.default_thresholds = {0.015, 0.015};
  e.record_provenance = e.record_provenance && cfg.observe.provenance;
  return e;
}

struct TracedReplay {
  std::vector<double> open_ms, scan_mb_per_s, aggregate_ms, rows, infer_ms;
  std::vector<double> pkts_per_cpu_s;
};

Digest traced_query(const store::StoreConfig& scfg, std::uint64_t query,
                    inference::InferenceEngine& engine,
                    std::uint64_t summary_payload_bytes, Tracer& tracer,
                    TracedReplay& t) {
  const double start = cpu_ms();
  Span root(tracer, "bench.query", 0, query);
  std::unique_ptr<store::DeploymentStore> st;
  {
    Span sp(tracer, "store.open", root.id(), query);
    const auto a = Clock::now();
    st = std::make_unique<store::DeploymentStore>(scfg, /*writable=*/false);
    t.open_ms.push_back(ms_between(a, Clock::now()));
  }
  std::map<std::uint64_t, std::vector<summarize::MonitorSummary>> by_epoch;
  {
    Span sp(tracer, "store.scan", root.id(), query);
    const auto a = Clock::now();
    st->each_summary([&](std::uint64_t epoch, std::uint32_t,
                         const summarize::MonitorSummary& s) {
      by_epoch[epoch].push_back(s);
      return true;
    });
    t.scan_mb_per_s.push_back(static_cast<double>(summary_payload_bytes) /
                              1e6 / (ms_between(a, Clock::now()) / 1000.0));
  }
  std::vector<store::EpochMeta> metas;
  {
    Span sp(tracer, "store.meta", root.id(), query);
    st->each_epoch_meta([&](const store::EpochMeta& m) {
      metas.push_back(m);
      return true;
    });
  }
  Digest digest;
  std::uint64_t packets = 0;
  for (const store::EpochMeta& meta : metas) {
    packets += meta.packets;
    engine.set_tau_c_scale(static_cast<double>(meta.packets) / 2000.0);
    engine.set_report_fraction(meta.report_fraction);
    engine.set_caution(meta.caution);
    const auto it = by_epoch.find(meta.epoch);
    if (it == by_epoch.end() || it->second.empty()) {
      digest.emplace_back();
      continue;
    }
    inference::AggregatedSummary aggregate;
    {
      Span sp(tracer, "shard.aggregate", root.id(), query);
      const auto a = Clock::now();
      inference::Aggregator aggregator;
      for (const auto& s : it->second) aggregator.add(s);
      aggregate = aggregator.take();
      t.aggregate_ms.push_back(ms_between(a, Clock::now()));
      t.rows.push_back(static_cast<double>(aggregate.rows()));
    }
    Span sp(tracer, "inference.infer", root.id(), query);
    const auto a = Clock::now();
    digest.push_back(digest_of(engine.infer(aggregate, nullptr)));
    t.infer_ms.push_back(ms_between(a, Clock::now()));
  }
  root.finish();
  t.pkts_per_cpu_s.push_back(static_cast<double>(packets) * 1000.0 /
                             (cpu_ms() - start));
  return digest;
}

}  // namespace

std::vector<Metric> run_replay(const WorkloadSpec& spec, const RunOptions& opt,
                               OpCount& ops) {
  const std::vector<Epoch> traffic = make_traffic(spec, opt.seed);
  const std::string store_dir = opt.workdir + "/store-" + spec.name;
  const store::StoreConfig scfg{store_dir, 64};

  // Preparation (untimed): the store, written by a deployment without the
  // port-scan rule, and the reference — a feedback-disabled live run with
  // the full ruleset at threads = 1 (the StoreReplayer contract).
  std::filesystem::remove_all(store_dir);
  (void)run_controller(
      deployment_config(spec, spec.threads, spec.feedback, store_dir),
      ruleset(kPortScanSid), traffic);
  core::JaalConfig ref_cfg = deployment_config(spec, 1, false, "");
  ref_cfg.engine = replay_engine_config(spec);
  Digest reference = run_controller(ref_cfg, ruleset(), traffic);
  if (opt.corrupt_reference) reference.front().emplace_back(0xBADu, 1);

  std::uint64_t committed = 0, packets = 0, summary_bytes = 0,
                summary_payload_bytes = 0;
  {
    const store::DeploymentStore st(scfg, /*writable=*/false);
    if (const auto last = st.last_committed_epoch()) committed = *last + 1;
    st.each_epoch_meta([&](const store::EpochMeta& m) {
      packets += m.packets;
      return true;
    });
    st.each_summary([&](std::uint64_t, std::uint32_t,
                        const summarize::MonitorSummary& s) {
      summary_bytes += summarize::wire_bytes(s);
      return true;
    });
    st.summaries_log().for_each([&](const store::RecordView& rec) {
      if (rec.kind == store::RecordKind::kSummary) {
        summary_payload_bytes += rec.payload.size();
      }
      return true;
    });
  }
  ops.attempted += traffic.size();
  ops.fail(traffic.size() - committed, "epochs whose store commit failed");
  const double store_bytes_per_epoch =
      static_cast<double>(dir_bytes(store_dir)) /
      static_cast<double>(std::max<std::uint64_t>(committed, 1));
  // The traffic and the preparation are the benchmark's own; peak_rss_mb
  // counts what the queries add above them.
  const double baseline_rss_mb = reset_peak_rss_mb();

  // Set-up: the engine a query drives (rule translation included),
  // constructed before every query so the samples span the whole run; the
  // latest one serves the query.
  const inference::EngineConfig ecfg = replay_engine_config(spec);
  std::vector<double> setup;
  std::unique_ptr<shard::InferenceTier> tier;
  const auto time_setup = [&] {
    const double a = cpu_ms();
    tier = std::make_unique<shard::InferenceTier>(shard::ShardingConfig{},
                                                  ruleset(), ecfg);
    setup.push_back((cpu_ms() - a) / 1000.0);
  };

  std::vector<double> query_ms, query_cpu_ms, epoch_ms, epoch_cpu_ms,
      epoch_path_ms, replay_ms, pps, pps_cpu;
  PathCpu path;
  Tracer tracer;
  TracedReplay tr;
  const auto check = [&](const Digest& got, const char* what) {
    ops.attempted += 1;
    if (got != reference) {
      ops.fail(1, std::string(what) +
                      " replay alerts differ from the feedback-disabled "
                      "live run");
    }
  };
  std::uint64_t queries = 0;
  const auto start = Clock::now();
  do {
    time_setup();
    inference::InferenceEngine& engine = tier->engine();
    const auto a = Clock::now();
    const double ca = cpu_ms();
    path.start();
    const store::StoreReplayer replayer(scfg);
    const auto b = Clock::now();
    const std::vector<store::ReplayEpoch> replayed =
        replayer.replay(engine, ecfg.tau_c_scale);
    const double path_ms = path.stop();
    const auto c = Clock::now();
    const double cpu = cpu_ms() - ca;
    const double ms = ms_between(a, c);
    const double epochs =
        static_cast<double>(std::max<std::size_t>(replayed.size(), 1));
    query_ms.push_back(ms);
    query_cpu_ms.push_back(cpu);
    replay_ms.push_back(ms_between(b, c));
    epoch_ms.push_back(ms / epochs);
    epoch_cpu_ms.push_back(cpu / epochs);
    epoch_path_ms.push_back(path_ms / epochs);
    std::uint64_t covered = 0;
    Digest got;
    for (const auto& e : replayed) {
      covered += e.packets;
      got.push_back(digest_of(e.alerts));
    }
    pps.push_back(static_cast<double>(covered) * 1000.0 / ms);
    pps_cpu.push_back(static_cast<double>(covered) * 1000.0 / cpu);
    ops.attempted += committed;
    ops.fail(committed - std::min<std::uint64_t>(committed, replayed.size()),
             "committed epochs missing from a replay");
    check(got, "untraced");
    if (opt.trace) {
      check(traced_query(scfg, queries, engine, summary_payload_bytes, tracer,
                         tr),
            "traced");
    }
    ++queries;
  } while (ms_between(start, Clock::now()) < opt.seconds * 1000.0 &&
           ops.failed == 0);
  std::filesystem::remove_all(store_dir);

  std::vector<Metric> out;
  const auto put = [&](const std::string& name, double v,
                       const std::string& unit, std::size_t n = 0) {
    out.push_back({name, v, unit, n});
  };
  if (!opt.trace) {
    const Detection det = score(traffic, reference);
    det.print();
    put("pkts_per_cpu_s", median(pps_cpu), "pkt/s", pps_cpu.size());
    put("epoch_close_cpu_ms_p50", percentile(epoch_cpu_ms, 0.50), "ms",
        epoch_cpu_ms.size());
    put("epoch_close_cpu_ms_p95", percentile(epoch_cpu_ms, 0.95), "ms",
        epoch_cpu_ms.size());
    put("epoch_close_path_cpu_ms_p50", percentile(epoch_path_ms, 0.50), "ms",
        epoch_path_ms.size());
    put("query_cpu_ms_p50", percentile(query_cpu_ms, 0.50), "ms",
        query_cpu_ms.size());
    put("query_cpu_ms_p95", percentile(query_cpu_ms, 0.95), "ms",
        query_cpu_ms.size());
    put("summary_bytes_per_pkt",
        static_cast<double>(summary_bytes) / static_cast<double>(packets),
        "bytes/pkt");
    put("store_bytes_per_epoch", store_bytes_per_epoch, "bytes");
    put("detect_tpr", det.tpr(), "frac", det.attack_pairs);
    put("setup_s", median(setup), "s", setup.size());
    put("peak_rss_mb", peak_rss_mb() - baseline_rss_mb, "MB");
    // Reported, not bounded: wall clock on a shared host, and a rate that
    // is 0 on some seeds.
    put("baseline_rss_mb", baseline_rss_mb, "MB");
    put("pkts_per_s", median(pps), "pkt/s", pps.size());
    put("epoch_close_ms_p50", percentile(epoch_ms, 0.50), "ms", epoch_ms.size());
    put("epoch_close_ms_p95", percentile(epoch_ms, 0.95), "ms", epoch_ms.size());
    put("query_ms_p50", percentile(query_ms, 0.50), "ms", query_ms.size());
    put("query_ms_p95", percentile(query_ms, 0.95), "ms", query_ms.size());
    put("detect_fpr", det.fpr(), "frac", det.clean_epochs);
    return out;
  }

  put("shard.aggregate_ms", median(tr.aggregate_ms), "ms",
      tr.aggregate_ms.size());
  put("shard.rows", mean(tr.rows), "count", tr.rows.size());
  put("inference.infer_ms", median(tr.infer_ms), "ms", tr.infer_ms.size());
  put("inference.questions",
      static_cast<double>(tier->engine().questions().size()), "count");
  put("store.open_ms", median(tr.open_ms), "ms", tr.open_ms.size());
  put("store.scan_mb_per_s", median(tr.scan_mb_per_s), "MB/s",
      tr.scan_mb_per_s.size());
  put("store.replay_ms", median(replay_ms), "ms", replay_ms.size());
  put("store.bytes_written", store_bytes_per_epoch, "bytes");
  for (const auto& [layer, by_query] : self_time_by_layer(tracer.spans())) {
    std::vector<double> per_query;
    for (const auto& [q, ms] : by_query) per_query.push_back(ms);
    per_query.resize(queries, 0.0);
    put("self." + layer + "_ms", median(per_query), "ms", per_query.size());
  }
  const double traced_pps = median(tr.pkts_per_cpu_s);
  const double untraced_pps = median(pps_cpu);
  put("trace.pkts_per_cpu_s_traced", traced_pps, "pkt/s",
      tr.pkts_per_cpu_s.size());
  put("trace.pkts_per_cpu_s_untraced", untraced_pps, "pkt/s", pps_cpu.size());
  put("trace.overhead_frac", 1.0 - traced_pps / untraced_pps, "frac");
  tracer.write_jsonl(opt.workdir + "/spans-" + spec.name + "-" +
                     std::to_string(opt.seed) + ".jsonl");
  return out;
}

}  // namespace jaalbench
