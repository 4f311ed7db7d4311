// Shared pieces of the Jaal benchmark: workload shapes, seeded traffic,
// alert digests, the span recorder of the traced run, and the statistics
// every metric is reported with.
//
// The benchmark drives the library only through its public surface
// (jaal.hpp).  End-to-end numbers come from untraced runs; the traced run
// re-drives the same epochs layer by layer with spans recorded around each
// public call (see live.cpp / replay.cpp).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "jaal.hpp"

namespace jaalbench {

using namespace jaal;
using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// CPU time of the whole process (every thread), ms.  Bounded timings use
/// it: on a shared host a descheduled virtual CPU inflates wall time by up
/// to 2x, but not CPU time.
[[nodiscard]] double cpu_ms();

/// Critical-path CPU time of a section the calling thread runs with help
/// from the process's other threads (the thread pool): the caller's own CPU
/// time plus the largest CPU time any one other thread spent in it.  Total
/// CPU time cannot see where the work ran; this can.  Serialising parallel
/// work onto one thread, or one slow monitor, raises it; spreading the same
/// work over more threads lowers it.  With no other threads it is the
/// caller's CPU time.  Threads are listed at construction, so construct it
/// after the pool under test.
class PathCpu {
 public:
  PathCpu();
  void start();
  /// ms since start().
  [[nodiscard]] double stop();

 private:
  std::vector<int> tids_;  ///< Kernel ids of the other threads.
  std::vector<double> before_;
  double own_before_ = 0.0;
};

// ---------------------------------------------------------------------------
// Workloads

struct WorkloadSpec {
  std::string name;
  trace::TraceProfile profile;
  std::size_t monitors = 8;
  summarize::SummarizerConfig summarizer;
  std::size_t threads = 1;
  bool feedback = true;
  /// Distinct epochs per pass; every pass replays the same seeded epochs.
  std::size_t epochs = 64;
  /// Share of epochs carrying one of the five §8 attacks.
  double attack_epoch_share = 0.5;
  /// True for retro_replay: the timed operation is a store replay.
  bool replay = false;
};

/// The named workload, or nullopt.  `epochs` > 0 overrides the epoch count
/// (the self-test runs a few epochs only).
[[nodiscard]] std::optional<WorkloadSpec> workload_spec(
    const std::string& name, std::size_t epochs_override);

/// One pre-generated epoch of traffic and its ground truth.
struct Epoch {
  std::vector<packet::PacketRecord> packets;
  packet::AttackType attack = packet::AttackType::kNone;  ///< From labels.
  double end_time = 0.0;
};

/// Seeded traffic: background from the workload's trace profile, and on a
/// seeded schedule one attack per attack epoch, throttled to at most 10% of
/// the epoch's packets (the paper's injection cap).
[[nodiscard]] std::vector<Epoch> make_traffic(const WorkloadSpec& spec,
                                              std::uint64_t seed);

/// The controller configuration a workload runs with.
[[nodiscard]] core::JaalConfig deployment_config(const WorkloadSpec& spec,
                                                 std::size_t threads,
                                                 bool feedback,
                                                 const std::string& store_dir);

/// Full evaluation ruleset, optionally without one sid (the retro_replay
/// store is written by a deployment that lacks the port-scan rule).
[[nodiscard]] std::vector<rules::Rule> ruleset(std::uint32_t drop_sid = 0);

inline constexpr std::uint32_t kPortScanSid = 1000003;

/// Live workloads time this many controller set-ups before every pass; the
/// median over the run is reported.
inline constexpr int kSetupsPerRound = 9;

// ---------------------------------------------------------------------------
// Alert digests (the output check)

/// Per epoch: (sid, matched packets) of every alert, in alert order.
using EpochDigest = std::vector<std::pair<std::uint32_t, std::uint64_t>>;
using Digest = std::vector<EpochDigest>;

[[nodiscard]] EpochDigest digest_of(const std::vector<inference::Alert>& alerts);

/// Runs every epoch through one fresh controller; returns the alert digest.
[[nodiscard]] Digest run_controller(const core::JaalConfig& cfg,
                                    std::vector<rules::Rule> rules,
                                    const std::vector<Epoch>& traffic);

/// Detection quality of one pass against the traffic's ground truth.
struct Detection {
  std::size_t attack_pairs = 0;     ///< (attack epoch, attack) pairs.
  std::size_t attack_detected = 0;  ///< ... raising a sids_for(attack) alert.
  std::size_t clean_epochs = 0;
  std::size_t clean_alerting = 0;   ///< Clean epochs raising any alert.
  /// Per attack type: (detected, pairs).
  std::map<packet::AttackType, std::pair<std::size_t, std::size_t>> by_attack;

  [[nodiscard]] double tpr() const;
  [[nodiscard]] double fpr() const;
  /// Prints one "detect ..." line per attack type and the clean epochs.
  void print() const;
};

[[nodiscard]] Detection score(const std::vector<Epoch>& traffic,
                              const Digest& digest);

// ---------------------------------------------------------------------------
// Span recorder (traced run only)

struct SpanRecord {
  const char* name = "";  ///< "<layer>.<operation>"; static storage.
  double start_ms = 0.0;  ///< Since the recorder's origin.
  double end_ms = 0.0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 for a root span.
  std::uint64_t epoch = 0;   ///< Spans of one epoch share it.
  std::uint64_t key = 0;     ///< Monitor id where one applies.
};

/// Keeps every span in memory; thread-safe (flushes run on the pool).
class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  [[nodiscard]] std::uint64_t open(const char* name, std::uint64_t parent,
                                   std::uint64_t epoch, std::uint64_t key = 0);
  void close(std::uint64_t id);

  [[nodiscard]] const std::vector<SpanRecord>& spans() const { return spans_; }
  void write_jsonl(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::mutex mu_;
  std::vector<SpanRecord> spans_;  ///< Indexed by id - 1.
};

/// RAII span: opened at construction, closed at destruction or finish().
class Span {
 public:
  Span(Tracer& t, const char* name, std::uint64_t parent, std::uint64_t epoch,
       std::uint64_t key = 0)
      : tracer_(&t), id_(t.open(name, parent, epoch, key)) {}
  ~Span() { finish(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void finish() {
    if (tracer_ != nullptr) tracer_->close(id_);
    tracer_ = nullptr;
  }
  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

 private:
  Tracer* tracer_;
  std::uint64_t id_;
};

/// Self time per layer and epoch: each span's duration minus the union of
/// its children's intervals, summed by layer (the name before the dot).
[[nodiscard]] std::map<std::string, std::map<std::uint64_t, double>>
self_time_by_layer(const std::vector<SpanRecord>& spans);

// ---------------------------------------------------------------------------
// Statistics and output

[[nodiscard]] double median(std::vector<double> v);
/// Nearest-rank percentile, q in (0, 1].
[[nodiscard]] double percentile(std::vector<double> v, double q);
[[nodiscard]] double mean(const std::vector<double>& v);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  ///< 0 when not a sampled statistic.
};

/// Operation accounting behind the result line's attempted/failed.
struct OpCount {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< Human-readable reasons.

  void fail(std::uint64_t n, const std::string& why) {
    if (n == 0) return;
    failed += n;
    failures.push_back(why);
  }
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir = ".bench_build/run";
  std::size_t epochs = 0;          ///< 0 = the workload's own count.
  bool corrupt_reference = false;  ///< Self-test: the check must fail.
};

/// Runs a live workload (isp_steady, edge_fanout); returns its metrics.
[[nodiscard]] std::vector<Metric> run_live(const WorkloadSpec& spec,
                                           const RunOptions& opt,
                                           OpCount& ops);
/// Runs retro_replay; returns its metrics.
[[nodiscard]] std::vector<Metric> run_replay(const WorkloadSpec& spec,
                                             const RunOptions& opt,
                                             OpCount& ops);

/// Returns freed heap to the OS and restarts the process's peak resident
/// set count from its current resident set; returns that set, MB (VmRSS).
/// Call it once the benchmark's own inputs are in memory: peak_rss_mb()
/// minus this value is then the program's share.
[[nodiscard]] double reset_peak_rss_mb();

/// Peak resident set size of this process since reset_peak_rss_mb(), MB
/// (VmHWM).
[[nodiscard]] double peak_rss_mb();

/// Total size of the regular files under `dir`, bytes.
[[nodiscard]] std::uint64_t dir_bytes(const std::string& dir);

/// Names every per-layer metric reports, in output order.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
per_layer_metric_units();

/// Fills the per-layer metrics a workload leaves untouched with 0 (a layer
/// the workload bypasses does no work), in per_layer_metric_units() order.
[[nodiscard]] std::vector<Metric> complete_per_layer(
    const std::vector<Metric>& measured);

}  // namespace jaalbench
