#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <random>
#include <sstream>
#include <thread>

#include <malloc.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include "bench.hpp"

namespace jaalbench {

namespace {

constexpr double kAttackCap = 0.10;  // The paper's injection share (§8).

std::unique_ptr<attack::AttackSource> make_attack(packet::AttackType type,
                                                  double rate_pps,
                                                  double start_time,
                                                  std::uint64_t seed) {
  attack::AttackConfig acfg;
  acfg.victim_ip = core::evaluation_victim_ip();
  acfg.packets_per_second = rate_pps;
  acfg.start_time = start_time;
  acfg.seed = seed;
  switch (type) {
    case packet::AttackType::kSynFlood:
      acfg.source_count = 1;
      return std::make_unique<attack::SynFlood>(acfg);
    case packet::AttackType::kDistributedSynFlood:
      return std::make_unique<attack::DistributedSynFlood>(acfg);
    case packet::AttackType::kPortScan:
      return std::make_unique<attack::PortScan>(acfg);
    case packet::AttackType::kSshBruteForce:
      return std::make_unique<attack::SshBruteForce>(acfg);
    case packet::AttackType::kSockstress:
      // Low-rate by design (§8: the cap is not needed).
      acfg.packets_per_second = rate_pps / 8.0;
      return std::make_unique<attack::Sockstress>(acfg);
    default:
      return nullptr;
  }
}

std::size_t default_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw == 0 ? 1 : hw, 1, 4);
}

}  // namespace

std::optional<WorkloadSpec> workload_spec(const std::string& name,
                                          std::size_t epochs_override) {
  WorkloadSpec s;
  s.name = name;
  s.summarizer.rank = 12;
  if (name == "isp_steady" || name == "retro_replay") {
    // The paper operating point at 8 monitors.
    s.profile = trace::trace1_profile();
    s.monitors = 8;
    s.summarizer.batch_size = 1000;
    s.summarizer.min_batch = 500;
    s.summarizer.centroids = 200;
    s.threads = default_threads();
    s.replay = name == "retro_replay";
    // A query walks every stored epoch: 50 keep over 200 queries in a 30 s
    // run, enough for a p95 with ten samples above it.  A larger attack
    // share keeps 35 (attack epoch, attack) pairs, as the live workloads
    // have, so detect_tpr varies as little from seed to seed.
    s.epochs = s.replay ? 50 : 70;
    if (s.replay) s.attack_epoch_share = 0.7;
  } else if (name == "edge_fanout") {
    // Many lightly loaded PoPs, serial runtime.
    s.profile = trace::trace2_profile();
    s.monitors = 32;
    s.summarizer.batch_size = 250;
    s.summarizer.min_batch = 125;
    s.summarizer.centroids = 50;
    s.threads = 1;
    s.epochs = 70;
  } else {
    return std::nullopt;
  }
  if (epochs_override > 0) s.epochs = epochs_override;
  return s;
}

std::vector<Epoch> make_traffic(const WorkloadSpec& spec, std::uint64_t seed) {
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ULL + 0x1A4ULL);
  // Attack schedule: a seeded subset of epochs, attacks dealt round-robin
  // from a seeded order so each of the five gets an equal share.
  const std::size_t attack_epochs = static_cast<std::size_t>(
      std::lround(static_cast<double>(spec.epochs) * spec.attack_epoch_share));
  std::vector<std::size_t> order(spec.epochs);
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::shuffle(order.begin(), order.end(), rng);
  std::vector<packet::AttackType> attacks(core::evaluation_attacks().begin(),
                                          core::evaluation_attacks().end());
  std::shuffle(attacks.begin(), attacks.end(), rng);
  std::vector<packet::AttackType> planned(spec.epochs,
                                          packet::AttackType::kNone);
  for (std::size_t i = 0; i < attack_epochs && i < order.size(); ++i) {
    planned[order[i]] = attacks[i % attacks.size()];
  }

  trace::BackgroundTraffic background(spec.profile, seed);
  const std::size_t per_epoch = spec.monitors * spec.summarizer.batch_size;
  // Attacks run at the paper's share: a rate that makes them 10% of the
  // stream, with the mix's quota holding them to it.
  const double attack_pps =
      spec.profile.packets_per_second * kAttackCap / (1.0 - kAttackCap);
  std::vector<Epoch> epochs(spec.epochs);
  for (std::size_t e = 0; e < spec.epochs; ++e) {
    Epoch& out = epochs[e];
    out.packets.reserve(per_epoch);
    auto attacker = make_attack(planned[e], attack_pps, background.peek_time(),
                                seed ^ (0xA77AC4ULL + 7919ULL * e));
    if (attacker) {
      trace::TrafficMix mix(background, {attacker.get()}, kAttackCap);
      for (std::size_t i = 0; i < per_epoch; ++i) {
        out.packets.push_back(mix.next());
      }
    } else {
      for (std::size_t i = 0; i < per_epoch; ++i) {
        out.packets.push_back(background.next());
      }
    }
    for (const auto& p : out.packets) {
      if (p.label != packet::AttackType::kNone) {
        out.attack = p.label;
        break;
      }
    }
    out.end_time = out.packets.back().timestamp;
  }
  return epochs;
}

core::JaalConfig deployment_config(const WorkloadSpec& spec,
                                   std::size_t threads, bool feedback,
                                   const std::string& store_dir) {
  core::JaalConfig cfg;
  cfg.monitor_count = spec.monitors;
  cfg.summarizer = spec.summarizer;
  cfg.threads = threads;
  cfg.engine.default_thresholds = {0.008, 0.03};
  cfg.engine.feedback_enabled = feedback;
  cfg.store_dir = store_dir;
  return cfg;
}

std::vector<rules::Rule> ruleset(std::uint32_t drop_sid) {
  std::vector<rules::Rule> out;
  for (auto& r : rules::parse_rules(rules::default_ruleset_text(),
                                    core::evaluation_rule_vars())) {
    if (r.sid != drop_sid) out.push_back(std::move(r));
  }
  return out;
}

EpochDigest digest_of(const std::vector<inference::Alert>& alerts) {
  EpochDigest d;
  d.reserve(alerts.size());
  for (const auto& a : alerts) d.emplace_back(a.sid, a.matched_packets);
  return d;
}

Digest run_controller(const core::JaalConfig& cfg,
                      std::vector<rules::Rule> rules,
                      const std::vector<Epoch>& traffic) {
  core::JaalController ctl(cfg, std::move(rules));
  Digest d;
  for (const Epoch& ep : traffic) {
    for (const auto& pkt : ep.packets) ctl.ingest(pkt);
    d.push_back(digest_of(ctl.close_epoch(ep.end_time).alerts));
  }
  return d;
}

Detection score(const std::vector<Epoch>& traffic, const Digest& digest) {
  Detection det;
  for (std::size_t e = 0; e < traffic.size() && e < digest.size(); ++e) {
    if (traffic[e].attack == packet::AttackType::kNone) {
      ++det.clean_epochs;
      if (!digest[e].empty()) ++det.clean_alerting;
      continue;
    }
    ++det.attack_pairs;
    const auto& sids = core::sids_for(traffic[e].attack);
    const bool hit = std::any_of(
        digest[e].begin(), digest[e].end(), [&](const auto& a) {
          return std::find(sids.begin(), sids.end(), a.first) != sids.end();
        });
    if (hit) ++det.attack_detected;
    auto& [hits, pairs] = det.by_attack[traffic[e].attack];
    hits += hit ? 1 : 0;
    ++pairs;
  }
  return det;
}

double Detection::tpr() const {
  return static_cast<double>(attack_detected) /
         static_cast<double>(std::max<std::size_t>(attack_pairs, 1));
}

double Detection::fpr() const {
  return static_cast<double>(clean_alerting) /
         static_cast<double>(std::max<std::size_t>(clean_epochs, 1));
}

void Detection::print() const {
  for (const auto& [type, hp] : by_attack) {
    std::printf("detect %s %zu/%zu\n", packet::attack_name(type), hp.first,
                hp.second);
  }
  std::printf("detect clean_alerting %zu/%zu\n", clean_alerting,
              clean_epochs);
}

// ---------------------------------------------------------------------------
// Tracer

std::uint64_t Tracer::open(const char* name, std::uint64_t parent,
                           std::uint64_t epoch, std::uint64_t key) {
  const double now = ms_between(origin_, Clock::now());
  std::lock_guard lock(mu_);
  SpanRecord r;
  r.name = name;
  r.start_ms = now;
  r.end_ms = now;
  r.id = spans_.size() + 1;
  r.parent = parent;
  r.epoch = epoch;
  r.key = key;
  spans_.push_back(r);
  return r.id;
}

void Tracer::close(std::uint64_t id) {
  const double now = ms_between(origin_, Clock::now());
  std::lock_guard lock(mu_);
  spans_[id - 1].end_ms = now;
}

void Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  for (const SpanRecord& s : spans_) {
    out << "{\"name\":\"" << s.name << "\",\"start_ms\":" << s.start_ms
        << ",\"end_ms\":" << s.end_ms << ",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"epoch\":" << s.epoch
        << ",\"key\":" << s.key << "}\n";
  }
}

std::map<std::string, std::map<std::uint64_t, double>> self_time_by_layer(
    const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size() + 1);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    children[spans[i].parent].push_back(i);
  }
  std::map<std::string, std::map<std::uint64_t, double>> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::vector<std::pair<double, double>> iv;
    for (std::size_t c : children[s.id]) {
      const double a = std::max(s.start_ms, spans[c].start_ms);
      const double b = std::min(s.end_ms, spans[c].end_ms);
      if (b > a) iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0.0, cur_a = 0.0, cur_b = -1.0;
    for (const auto& [a, b] : iv) {
      if (a > cur_b) {
        if (cur_b > cur_a) covered += cur_b - cur_a;
        cur_a = a;
        cur_b = b;
      } else {
        cur_b = std::max(cur_b, b);
      }
    }
    if (cur_b > cur_a) covered += cur_b - cur_a;
    const std::string name(s.name);
    const std::string layer = name.substr(0, name.find('.'));
    out[layer][s.epoch] += std::max(0.0, s.end_ms - s.start_ms - covered);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Statistics and host

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

namespace {

/// Thread CPU clock of another thread of this process: the clock id
/// pthread_getcpuclockid builds from a kernel thread id (CPUCLOCK_SCHED,
/// per-thread).
double thread_cpu_ms(int tid) {
  const clockid_t clock = static_cast<clockid_t>((~tid) << 3) | 6;
  timespec ts{};
  if (clock_gettime(clock, &ts) != 0) return 0.0;  // The thread has exited.
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

double own_thread_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

/// A "<key>: <n> kB" line of /proc/self/status, MB.
double status_mb(const std::string& key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(key + ":", 0) == 0) {
      std::istringstream in(line.substr(key.size() + 1));
      double kb = 0.0;
      in >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace

PathCpu::PathCpu() {
  const int self = static_cast<int>(syscall(SYS_gettid));
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task", ec)) {
    const int tid = std::atoi(entry.path().filename().c_str());
    if (tid > 0 && tid != self) tids_.push_back(tid);
  }
  before_.resize(tids_.size());
}

void PathCpu::start() {
  for (std::size_t i = 0; i < tids_.size(); ++i) {
    before_[i] = thread_cpu_ms(tids_[i]);
  }
  own_before_ = own_thread_cpu_ms();
}

double PathCpu::stop() {
  const double own = own_thread_cpu_ms() - own_before_;
  double busiest = 0.0;
  for (std::size_t i = 0; i < tids_.size(); ++i) {
    busiest = std::max(busiest, thread_cpu_ms(tids_[i]) - before_[i]);
  }
  return own + busiest;
}

double reset_peak_rss_mb() {
  malloc_trim(0);
  // "5" resets VmHWM to the current VmRSS (proc(5), clear_refs).
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.close();
  if (!clear) {
    std::fprintf(stderr, "jaalbench: cannot reset the peak resident set\n");
  }
  return status_mb("VmRSS");
}

double peak_rss_mb() { return status_mb("VmHWM"); }

std::uint64_t dir_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

const std::vector<std::pair<std::string, std::string>>&
per_layer_metric_units() {
  static const std::vector<std::pair<std::string, std::string>> kUnits = {
      {"core.ingest_ns_per_pkt", "ns/pkt"},
      {"core.flush_ms_med", "ms"},
      {"core.flush_ms_max", "ms"},
      {"core.monitor_skew", "ratio"},
      {"core.silent_frac", "frac"},
      {"summarize.batch_ms", "ms"},
      {"summarize.normalize_ms", "ms"},
      {"summarize.unattributed_ms", "ms"},
      {"summarize.kmeans_ms", "ms"},
      {"summarize.kmeans_iters", "count"},
      {"summarize.kmeans_dist_evals", "count"},
      {"summarize.summary_bytes", "bytes"},
      {"linalg.svd_ms", "ms"},
      {"linalg.svd_sweeps", "count"},
      {"shard.aggregate_ms", "ms"},
      {"shard.rows", "count"},
      {"inference.infer_ms", "ms"},
      {"inference.questions", "count"},
      {"inference.feedback_requests", "count"},
      {"inference.feedback_raw_pkts", "count"},
      {"inference.feedback_useful_frac", "frac"},
      {"inference.feedback_bytes_per_pkt", "bytes/pkt"},
      {"store.append_ms", "ms"},
      {"store.commit_ms", "ms"},
      {"store.bytes_written", "bytes"},
      {"store.open_ms", "ms"},
      {"store.scan_mb_per_s", "MB/s"},
      {"store.replay_ms", "ms"},
      {"observe.health_ms", "ms"},
      {"runtime.tasks", "count"},
      {"runtime.queue_high_water", "count"},
      {"self.bench_ms", "ms"},
      {"self.core_ms", "ms"},
      {"self.summarize_ms", "ms"},
      {"self.linalg_ms", "ms"},
      {"self.shard_ms", "ms"},
      {"self.inference_ms", "ms"},
      {"self.observe_ms", "ms"},
      {"self.store_ms", "ms"},
      {"trace.pkts_per_cpu_s_traced", "pkt/s"},
      {"trace.pkts_per_cpu_s_untraced", "pkt/s"},
      {"trace.overhead_frac", "frac"},
  };
  return kUnits;
}

std::vector<Metric> complete_per_layer(const std::vector<Metric>& measured) {
  std::vector<Metric> out;
  for (const auto& [name, unit] : per_layer_metric_units()) {
    Metric m{name, 0.0, unit, 0};
    for (const Metric& x : measured) {
      if (x.name == name) m = x;
    }
    out.push_back(m);
  }
  return out;
}

}  // namespace jaalbench
