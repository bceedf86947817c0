// perfbench: the repository benchmark's measurement program.
//
// Runs one named workload through the public API only
// (ScenarioRegistry::builder, plan_workload, SystemBuilder::build,
// wl::build_workload, System::run / System::run_open_loop and the stats
// accessors on System), serially in this one process, repeating whole
// passes over the workload until the requested wall time has elapsed.
// Every pass re-checks every output; the first pass's simulated results
// are the reference every later pass must reproduce exactly.
//
//   perfbench --workload {paper-sram|dram-ch4|open-loop} --seed N
//             --seconds S [--trace-file PATH]
//
// Host time is the measuring thread's CPU time (cpu_now), scaled to a
// reference host speed by a memory-latency probe timed before each job
// (SpeedProbe). Without --trace-file every pass is untraced and the
// host-time figures are end-to-end measurements. With it, untraced and
// traced passes alternate: traced passes record spans (scenario, build,
// gen, run, verify, stats, naive) from this file around each call into
// the simulator, re-run every job on the naive (ungated) kernel, and their
// per-layer counters and span self times are reported; the Chrome
// trace-event JSON of the last traced pass is written to PATH.
//
// Output: one JSON object on stdout (the Python wrapper run.py turns it
// into the benchmark's metric line). Exit status is 0 even when checks
// fail; failures are counted in "failed" and listed in "errors".
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "energy/power_model.hpp"
#include "systems/runner.hpp"
#include "systems/scenario.hpp"
#include "systems/system.hpp"
#include "util/histogram.hpp"
#include "util/json.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace axipack;
using Clock = std::chrono::steady_clock;

// ------------------------------------------------------------ workloads

constexpr wl::KernelKind kKernels[] = {
    wl::KernelKind::ismt, wl::KernelKind::gemv,  wl::KernelKind::trmv,
    wl::KernelKind::spmv, wl::KernelKind::prank, wl::KernelKind::sssp};

/// Open-loop sweep (requests per 100k cycles), the reference rate the
/// latency percentiles are read at, and the p99 SLO defining the knee.
constexpr unsigned kRates[] = {40, 60, 80, 120, 160, 240, 320};
constexpr unsigned kRefRate = 80;
constexpr double kSloP99 = 5000.0;
/// Expected in-window arrivals per open-loop point. The window length is
/// scaled to the rate so every point resolves its p99 equally, which keeps
/// the knee steady across seeds.
constexpr std::uint64_t kWindowSamples = 1200;
/// The reference-rate points carry the reported percentiles: a window 4x
/// longer keeps the p99's seed-to-seed spread small and leaves ~48 samples
/// beyond it (at least 10 are required).
constexpr std::uint64_t kRefWindowSamples = 4 * kWindowSamples;
constexpr sim::Cycle kWarmupCycles = 20000;  // TrafficConfig default

/// One simulated system run of a workload pass.
struct Job {
  std::string scenario;  ///< registry name the builder resolves from
  std::string role;      ///< "base", "pack" or "ideal"
  wl::KernelKind kernel = wl::KernelKind::ismt;  ///< closed-loop jobs
  unsigned rate = 0;     ///< open-loop jobs (0 = closed loop)
};

bool is_workload(const std::string& w) {
  return w == "paper-sram" || w == "dram-ch4" || w == "open-loop";
}

std::vector<Job> workload_jobs(const std::string& workload) {
  std::vector<Job> jobs;
  if (workload == "paper-sram") {
    // Kernel-major, base/pack/ideal: the job order of BENCH_kernel.json.
    for (const auto k : kKernels) {
      for (const auto kind : {sys::SystemKind::base, sys::SystemKind::pack,
                              sys::SystemKind::ideal}) {
        jobs.push_back({sys::scenario_name(kind), sys::system_name(kind), k});
      }
    }
  } else if (workload == "dram-ch4") {
    for (const auto k : kKernels) {
      jobs.push_back({"base-256-dram-ch4", "base", k});
      jobs.push_back({"pack-256-dram-ch4-x512-g16", "pack", k});
    }
  } else {
    for (const unsigned rate : kRates) {
      jobs.push_back({"pack-256-dram-x512-g16", "pack", {}, rate});
    }
    for (const unsigned rate : kRates) {
      jobs.push_back({"base-256-dram", "base", {}, rate});
    }
  }
  return jobs;
}

// ------------------------------------------------------------ tracing

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// CPU seconds of the calling thread. Every host time the benchmark reports
/// is read from this clock: the simulator is serial, so its CPU time is its
/// wall time less the time the thread was not running. On a shared virtual
/// machine that excludes the hypervisor's steal time, which wall time
/// includes and which varies with other guests' load, not with this program.
double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

// ------------------------------------------------------------ host speed

/// Fixed host-speed probe, timed just before every job. On a shared
/// machine the simulator's CPU time moves by up to 2x within minutes while
/// cache and memory latencies move by 10-20%: the simulator is bound by
/// instruction throughput, and other tenants take a share of the core's
/// execution resources. The probe is throughput-bound integer arithmetic
/// (four independent xorshift streams), so its time moves with the same
/// share, and a job's CPU time scaled by kRefSeconds over the probe's time
/// varies less between runs (README.md). The probe is frozen here, outside
/// the simulator: a change to the simulator cannot move it.
class SpeedProbe {
 public:
  /// Probe time the host times are scaled to: about the probe's median
  /// time on the 4-vCPU KVM box (Xeon) the benchmark was tuned on, so
  /// scaled times read close to CPU times there.
  static constexpr double kRefSeconds = 0.005;

  /// CPU seconds of one probe at this moment.
  double seconds() {
    const double t0 = cpu_now();
    std::uint64_t a = state_ | 1, b = a * 3, c = a * 5, d = a * 7;
    for (int i = 0; i < kSteps; ++i) {
      a ^= a << 13, a ^= a >> 7, a ^= a << 17;
      b ^= b << 13, b ^= b >> 7, b ^= b << 17;
      c ^= c << 13, c ^= c >> 7, c ^= c << 17;
      d ^= d << 13, d ^= d >> 7, d ^= d << 17;
    }
    state_ += a + b + c + d;  // keeps the loop from being optimized away
    return cpu_now() - t0;
  }

 private:
  static constexpr int kSteps = 1200000;
  std::uint64_t state_ = 0x9E3779B97F4A7C15ull;
};

/// In-memory span recorder. Spans nest by parent index; the spans of one
/// job share its job id. Disabled tracers record nothing.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0.0;  ///< CPU seconds since the tracer's origin
    double end = 0.0;
    int parent = -1;
    int job = -1;
  };

  Tracer(bool enabled, double origin)
      : enabled_(enabled), origin_(origin) {}

  bool enabled() const { return enabled_; }

  int begin(std::string name, int parent, int job) {
    if (!enabled_) return -1;
    spans_.push_back({std::move(name), now(), 0.0, parent, job});
    return static_cast<int>(spans_.size()) - 1;
  }
  void end(int id) {
    if (id >= 0) spans_[id].end = now();
  }

  /// Times `fn` (always), adds the elapsed seconds to `acc` and records a
  /// span named `name` under `parent` when tracing is on.
  template <class F>
  auto timed(const char* name, int parent, int job, double& acc, F&& fn) {
    const int id = begin(name, parent, job);
    const double t0 = cpu_now();
    struct Stop {  // runs after fn's result is materialized
      Tracer& tr;
      int id;
      double t0;
      double& acc;
      ~Stop() {
        acc += cpu_now() - t0;
        tr.end(id);
      }
    } stop{*this, id, t0, acc};
    return fn();
  }

  /// Self time per span name: duration minus the time its children cover.
  std::map<std::string, double> self_times() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child[s.parent] += s.end - s.start;
    }
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[spans_[i].name] += spans_[i].end - spans_[i].start - child[i];
    }
    return self;
  }

  /// Chrome trace-event JSON ("X" complete events, microseconds).
  std::string chrome_json() const {
    util::JsonWriter w;
    w.begin_object();
    w.key("traceEvents").begin_array();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      w.begin_object();
      w.key("name").value(s.name);
      w.key("ph").value("X");
      w.key("ts").value(s.start * 1e6);
      w.key("dur").value((s.end - s.start) * 1e6);
      w.key("pid").value(1);
      w.key("tid").value(1);
      w.key("args").begin_object();
      w.key("id").value(static_cast<int>(i));
      w.key("parent").value(s.parent);
      w.key("job").value(s.job);
      w.end_object();
      w.end_object();
    }
    w.end_array();
    w.key("displayTimeUnit").value("ms");
    w.end_object();
    return w.str();
  }

 private:
  double now() const { return cpu_now() - origin_; }

  bool enabled_;
  double origin_;
  std::vector<Span> spans_;
};

// ------------------------------------------------------------ one job

/// Per-layer counters of one job, keyed by metric name without the role
/// suffix. Counts are summed over a role's jobs; ratios are derived from
/// the sums afterwards (see derive_layers).
using Counters = std::map<std::string, double>;

/// Host seconds (scaled CPU seconds, see SpeedProbe) spent in each step of
/// one job, or summed over a pass.
struct Times {
  double scenario = 0.0;
  double build = 0.0;
  double gen = 0.0;
  double run = 0.0;
  double verify = 0.0;
  double stats = 0.0;
  double naive_run = 0.0;  ///< naive-kernel run calls (traced passes)
  double naive = 0.0;      ///< whole naive re-run step (traced passes)
  std::uint64_t sim_cycles = 0;
  double probe_s = 0.0;  ///< the speed probe's time before the job

  double setup() const { return scenario + build + gen; }
  /// Everything but the naive re-run: what an untraced pass spends.
  double total() const { return setup() + run + verify + stats; }

  Times& operator+=(const Times& o) {
    scenario += o.scenario;
    build += o.build;
    gen += o.gen;
    run += o.run;
    verify += o.verify;
    stats += o.stats;
    naive_run += o.naive_run;
    naive += o.naive;
    sim_cycles += o.sim_cycles;
    return *this;
  }

  void scale(double k) {
    for (double* f :
         {&scenario, &build, &gen, &run, &verify, &stats, &naive_run, &naive}) {
      *f *= k;
    }
  }
};

struct Outcome {
  const Job* job = nullptr;
  sys::RunResult run;
  Counters layers;
  Times t;
  energy::PowerEstimate power;
  bool naive_identical = true;
  std::vector<std::string> errors;
};

/// Reads every per-layer counter of `system` after `job`'s run and checks
/// that the counters agree with each other and with the RunResult.
void collect(const Job& job, sys::System& system, Outcome& out) {
  const sys::RunResult& r = out.run;
  Counters& c = out.layers;
  auto fail = [&](const std::string& what) {
    out.errors.push_back(job.scenario + "/" +
                         (job.rate ? "p" + std::to_string(job.rate)
                                   : wl::kernel_name(job.kernel)) +
                         ": " + what);
  };

  // vproc: the processor's counters over the run (closed loop: the run's
  // activity diff; open loop: the idle processor's lifetime counters).
  const sim::Counters* act = &r.activity;
  if (job.rate != 0 && system.num_masters() > 0 && system.is_processor(0)) {
    act = &system.processor(0).counters();
  }
  const std::pair<const char*, const char*> vproc_keys[] = {
      {"vproc.dispatches", "proc.dispatches"},
      {"vproc.scalar_cycles", "proc.scalar_cycles"},
      {"vproc.ar", "vlsu.ar"},
      {"vproc.aw", "vlsu.aw"},
      {"vproc.beats_rx", "vlsu.beats_rx"},
      {"vproc.bytes_rx", "vlsu.bytes_rx"},
      {"vproc.vfu_elems", "vfu.elems"}};
  double vproc_total = 0.0;
  for (const auto& [metric, counter] : vproc_keys) {
    const double v = static_cast<double>(act->get(counter));
    c[metric] += v;
    vproc_total += v;
  }
  if (job.rate != 0 && vproc_total != 0.0) {
    fail("vproc counters non-zero on an open-loop run");
  }

  // energy: the power model over the run (cycle-weighted when summed).
  const double cycles = static_cast<double>(r.cycles);
  out.power = energy::estimate(r);
  c["power_x_cycles"] += out.power.power_mw * cycles;

  // axi: the monitored links, read per channel through the accessors.
  const double capacity = cycles * system.bus_bytes();
  c["capacity"] += capacity;
  c["cycles"] += cycles;
  c["bus_bytes"] = system.bus_bytes();
  axi::BusStats bus;
  double ch_util_sum = 0.0;
  for (unsigned ch = 0; system.has_fabric() && ch < system.num_channels();
       ++ch) {
    const axi::BusStats* s = system.bus_stats(ch);
    if (s == nullptr) continue;
    bus += *s;
    c["ch" + std::to_string(ch) + ".r_payload_bytes"] +=
        static_cast<double>(s->r_payload_bytes);
    if (ch < r.per_channel.size()) ch_util_sum += r.per_channel[ch].r_util;
  }
  c["axi.ar"] += static_cast<double>(bus.ar_handshakes);
  c["axi.aw"] += static_cast<double>(bus.aw_handshakes);
  c["axi.r_beats"] += static_cast<double>(bus.r_beats);
  c["axi.w_beats"] += static_cast<double>(bus.w_beats);
  c["axi.r_payload_bytes"] += static_cast<double>(bus.r_payload_bytes);
  c["axi.r_index_bytes"] += static_cast<double>(bus.r_index_bytes);
  c["axi.w_payload_bytes"] += static_cast<double>(bus.w_payload_bytes);
  c["axi.protocol_violations"] +=
      static_cast<double>(r.protocol_violations);
  if (system.has_fabric()) {
    // A fresh system ran only this job, so the accessors' lifetime
    // counters must equal the run's diffs, and the channels must sum to
    // the aggregate.
    if (bus.r_payload_bytes != r.bus.r_payload_bytes ||
        bus.r_beats != r.bus.r_beats ||
        bus.ar_handshakes != r.bus.ar_handshakes) {
      fail("per-channel link counters do not sum to the aggregate");
    }
    const double agg = static_cast<double>(bus.r_payload_bytes) / capacity;
    if (std::fabs(agg - r.r_util) > 1e-9 * std::max(1.0, r.r_util) ||
        std::fabs(ch_util_sum - r.r_util) > 1e-9 * std::max(1.0, r.r_util)) {
      fail("per-channel R utilization does not sum to the aggregate");
    }
    if (bus.r_beats != 0 &&
        bus.r_payload_bytes >
            bus.r_beats * static_cast<std::uint64_t>(system.bus_bytes())) {
      fail("R payload exceeds R beats x bus width (packing ratio > 1)");
    }
  }

  // pack: adapter burst counts, indirect word counts, coalescing unit.
  for (unsigned ch = 0; system.has_fabric() && ch < system.num_channels();
       ++ch) {
    const pack::AdapterStats& a = system.adapter(ch).stats();
    c["pack.base_reads"] += static_cast<double>(a.base_reads);
    c["pack.strided_reads"] += static_cast<double>(a.strided_reads);
    c["pack.indirect_reads"] += static_cast<double>(a.indirect_reads);
  }
  c["pack.idx_words"] += static_cast<double>(r.indirect_idx_words);
  c["pack.elem_words"] += static_cast<double>(r.indirect_elem_words);
  c["pack.coalesce_merged"] += static_cast<double>(r.coalesce_merged);
  c["pack.coalesce_unique"] += static_cast<double>(r.coalesce_unique);
  c["pack.coalesce_row_groups"] += static_cast<double>(r.coalesce_row_groups);
  c["pack.coalesce_peak_pending"] =
      std::max(c["pack.coalesce_peak_pending"],
               static_cast<double>(r.coalesce_peak_pending));
  const bool coalesced =
      system.has_fabric() && system.adapter().coalescer() != nullptr;
  if (coalesced &&
      r.coalesce_unique + r.coalesce_merged < r.indirect_elem_words) {
    fail("coalesce_unique + coalesce_merged < indirect elem_words");
  }
  if (!coalesced && r.coalesce_unique + r.coalesce_merged != 0) {
    fail("coalescer counters non-zero with the unit disabled");
  }

  // mem: every channel's backend, which must sum to the run's counters.
  mem::MemoryBackendStats m;
  for (unsigned ch = 0; system.has_fabric() && ch < system.num_channels();
       ++ch) {
    const mem::MemoryBackendStats s = system.memory_backend(ch)->stats();
    m.grants += s.grants;
    m.conflict_losses += s.conflict_losses;
    m.row_hits += s.row_hits;
    m.row_misses += s.row_misses;
    m.refresh_stall_cycles += s.refresh_stall_cycles;
    m.row_batch_defer_cycles += s.row_batch_defer_cycles;
    m.row_starved_grants += s.row_starved_grants;
  }
  std::uint64_t ch_hits = 0, ch_misses = 0;
  for (const sys::ChannelRunStats& cs : r.per_channel) {
    ch_hits += cs.row_hits;
    ch_misses += cs.row_misses;
  }
  if (system.has_fabric() &&
      (m.row_hits != r.row_hits || m.row_misses != r.row_misses ||
       ch_hits != r.row_hits || ch_misses != r.row_misses ||
       m.grants != r.bank_grants)) {
    fail("per-channel memory counters do not sum to the aggregate");
  }
  c["mem.grants"] += static_cast<double>(m.grants);
  c["mem.conflict_losses"] += static_cast<double>(m.conflict_losses);
  c["mem.row_hits"] += static_cast<double>(m.row_hits);
  c["mem.row_misses"] += static_cast<double>(m.row_misses);
  c["mem.refresh_stall_cycles"] += static_cast<double>(m.refresh_stall_cycles);
  c["mem.batch_defer_cycles"] +=
      static_cast<double>(m.row_batch_defer_cycles);
  c["mem.starved_grants"] += static_cast<double>(m.row_starved_grants);
  const bool dram =
      system.has_fabric() && system.memory_backend()->name() == "dram";
  if (!dram && m.row_hits + m.row_misses + m.refresh_stall_cycles +
                       m.row_batch_defer_cycles + m.row_starved_grants !=
                   0) {
    fail("DRAM row counters non-zero without a DRAM backend");
  }

  // dma: every DMA master (the open-loop scatter-gather engine).
  for (sys::MasterId id = 0; id < system.num_masters(); ++id) {
    if (!system.is_dma(id)) continue;
    const dma::DmaEngine& e = system.dma(id);
    c["dma.descriptors_done"] +=
        static_cast<double>(e.stats().descriptors_done);
    c["dma.bytes_moved"] += static_cast<double>(e.stats().bytes_moved);
    c["dma.busy_cycles"] += static_cast<double>(e.stats().busy_cycles);
    c["dma.desc_fetch_bytes"] +=
        static_cast<double>(e.stats().desc_fetch_bytes);
    c["dma.retries"] += static_cast<double>(e.retry_stats().retries);
  }

  // traffic: the open-loop driver.
  if (job.rate != 0) {
    const traffic::OpenLoopDriver* d = system.traffic_driver();
    const auto& s = d->stats();
    c["traffic.arrivals"] += static_cast<double>(s.arrivals);
    c["traffic.completed"] += static_cast<double>(s.completed);
    c["traffic.failed"] += static_cast<double>(s.failed);
    c["traffic.queue_peak"] =
        std::max(c["traffic.queue_peak"], static_cast<double>(s.queue_peak));
    c["traffic.offered"] += r.offered_rate;
    c["traffic.achieved"] += r.achieved_rate;
    if (s.completed != s.arrivals) {
      fail("completed requests != arrivals after draining");
    }
    // Window completions may include requests that arrived during warmup,
    // so the window's achieved rate can exceed its offered rate by at most
    // the requests already in the system when the window opened.
    if (s.window_completions > s.window_arrivals + s.queue_peak) {
      fail("achieved rate exceeds offered rate");
    }
  }

  const util::Histogram& lat = r.latency;
  if (lat.count() != 0 &&
      !(lat.percentile(50) <= lat.percentile(99) &&
        lat.percentile(99) <= static_cast<double>(lat.max()))) {
    fail("latency percentiles out of order (p50 <= p99 <= max)");
  }
}

/// Builds, generates, runs, verifies and measures one job, recording its
/// spans under `parent`.
Outcome run_job(const Job& job, std::uint64_t seed, Tracer& tr, int parent,
                int job_id, SpeedProbe& probe) {
  const double probe_s = probe.seconds();
  Outcome out;
  out.job = &job;
  Times& t = out.t;
  const std::string label =
      job.scenario + (job.rate ? "/p" + std::to_string(job.rate)
                               : std::string("/") +
                                     wl::kernel_name(job.kernel));
  const int span = tr.begin("job " + label, parent, job_id);

  // scenario: resolve the builder and the workload / traffic config.
  wl::WorkloadConfig cfg;
  const sim::Cycle measure =
      job.rate ? kWarmupCycles + (job.rate == kRefRate ? kRefWindowSamples
                                                       : kWindowSamples) *
                                      100000 / job.rate
               : 0;
  sys::SystemBuilder builder = tr.timed("scenario", span, job_id, t.scenario,
                                        [&] {
    sys::SystemBuilder b =
        sys::ScenarioRegistry::instance().builder(job.scenario);
    if (job.rate == 0) {
      cfg = sys::plan_workload(job.kernel, b);
      cfg.seed = seed;
    }
    return b;
  });
  if (job.rate != 0) {
    // Open-loop generation is the arrival stream's configuration; the
    // driver writes its data region into the store inside build().
    tr.timed("gen", span, job_id, t.gen, [&] {
      traffic::TrafficConfig tc;
      tc.arrival.kind = traffic::ArrivalKind::poisson;
      tc.arrival.rate_per_100k = job.rate;
      tc.arrival.seed = seed;
      tc.dma.use_pack = job.role == "pack";
      tc.warmup_cycles = kWarmupCycles;
      builder.traffic(tc);
    });
  }

  std::unique_ptr<sys::System> system =
      tr.timed("build", span, job_id, t.build, [&] { return builder.build(); });

  // gen (closed loop) + run + verify.
  std::string msg;
  bool verified = false;
  if (job.rate == 0) {
    const wl::WorkloadInstance inst = tr.timed("gen", span, job_id, t.gen, [&] {
      return wl::build_workload(system->store(), cfg);
    });
    out.run = tr.timed("run", span, job_id, t.run,
                       [&] { return system->run(inst); });
    verified = tr.timed("verify", span, job_id, t.verify,
                        [&] { return inst.check(system->store(), msg); });
  } else {
    out.run = tr.timed("run", span, job_id, t.run,
                       [&] { return system->run_open_loop(measure); });
    verified = tr.timed("verify", span, job_id, t.verify, [&] {
      return system->traffic_driver()->verify(msg);
    });
  }
  t.sim_cycles += out.run.cycles;
  if (!out.run.correct) out.errors.push_back(label + ": " + out.run.error);
  if (!verified) out.errors.push_back(label + ": verify: " + msg);
  if (out.run.protocol_violations != 0) {
    out.errors.push_back(label + ": protocol violations");
  }

  // stats: per-layer counters, cross-checks and the energy estimate.
  tr.timed("stats", span, job_id, t.stats,
           [&] { collect(job, *system, out); });
  system.reset();

  // naive (traced passes): the same job on the ungated kernel must take
  // identical cycles and produce identical latencies.
  if (tr.enabled()) {
    tr.timed("naive", span, job_id, t.naive, [&] {
      sys::SystemBuilder nb = builder;
      nb.naive_kernel(true);
      const std::unique_ptr<sys::System> ns = nb.build();
      wl::WorkloadInstance inst;
      if (job.rate == 0) inst = wl::build_workload(ns->store(), cfg);
      const double r0 = cpu_now();
      const sys::RunResult nr =
          job.rate == 0 ? ns->run(inst) : ns->run_open_loop(measure);
      t.naive_run += cpu_now() - r0;
      out.naive_identical =
          nr.correct && nr.cycles == out.run.cycles &&
          nr.latency.count() == out.run.latency.count() &&
          nr.latency.sum() == out.run.latency.sum() &&
          nr.bus.r_beats == out.run.bus.r_beats;
      if (!out.naive_identical) {
        out.errors.push_back(label + ": naive kernel diverged from gated");
      }
    });
  }
  t.scale(SpeedProbe::kRefSeconds / probe_s);
  t.probe_s = probe_s;
  tr.end(span);
  return out;
}

struct Pass {
  Times t;  ///< summed over the jobs
  std::vector<Outcome> outcomes;
};

Pass run_pass(const std::vector<Job>& jobs, std::uint64_t seed, Tracer& tr,
              SpeedProbe& probe) {
  Pass p;
  const int span = tr.begin("pass", -1, -1);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    p.outcomes.push_back(
        run_job(jobs[i], seed, tr, span, static_cast<int>(i), probe));
    p.t += p.outcomes.back().t;
  }
  tr.end(span);
  return p;
}

// ------------------------------------------------------------ metrics

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

/// The closed-loop job of `role` running `kernel`, or null.
const Outcome* kernel_job(const Pass& p, const std::string& role,
                          wl::KernelKind kernel) {
  for (const Outcome& o : p.outcomes) {
    if (o.job->role == role && o.job->rate == 0 && o.job->kernel == kernel) {
      return &o;
    }
  }
  return nullptr;
}

/// The open-loop point of `role` at `rate` (every swept point exists).
const Outcome& rate_point(const Pass& p, const std::string& role,
                          unsigned rate) {
  for (const Outcome& o : p.outcomes) {
    if (o.job->role == role && o.job->rate == rate) return o;
  }
  std::fprintf(stderr, "perfbench: no %s point at rate %u\n", role.c_str(),
               rate);
  std::abort();
}

/// Whether an open-loop point meets the SLO without a growing backlog.
bool meets_slo(const sys::RunResult& r) {
  return r.latency.count() != 0 && r.latency.percentile(99) <= kSloP99 &&
         r.achieved_rate >= 0.95 * r.offered_rate;
}

/// SLO knee of `role`'s latency curve: the highest swept rate meeting the
/// SLO (0 when none does), refined towards the next swept rate by where
/// log(p99) interpolated between the two reaches the SLO. The refinement
/// keeps the knee continuous: a bare swept rate jumps a whole grid step
/// when one point's p99 lands on the other side of the SLO.
double knee_rate(const Pass& p, const std::string& role) {
  constexpr std::size_t kNumRates = std::size(kRates);
  std::size_t best = kNumRates;
  for (std::size_t i = 0; i < kNumRates; ++i) {
    if (meets_slo(rate_point(p, role, kRates[i]).run)) best = i;
  }
  if (best == kNumRates) return 0.0;
  const double knee = kRates[best];
  if (best + 1 == kNumRates) return knee;
  const double p0 =
      rate_point(p, role, kRates[best]).run.latency.percentile(99);
  const double p1 = std::max(
      kSloP99,
      rate_point(p, role, kRates[best + 1]).run.latency.percentile(99));
  const double frac = p1 > p0 ? std::log(kSloP99 / p0) / std::log(p1 / p0)
                              : 0.0;
  return knee + (kRates[best + 1] - kRates[best]) * std::clamp(frac, 0.0, 1.0);
}

/// Paper claims the repository already holds (bench/headline_summary.cpp,
/// bench/fig4c_energy.cpp) and the measured value of each.
struct Claim {
  const char* name;
  double paper;
  double measured;
};

struct SimMetrics {
  std::map<std::string, double> e2e;  ///< simulated end-to-end metrics
  std::vector<Claim> claims;
  std::uint64_t p99_samples = 0;       ///< latency samples behind the p99
  std::uint64_t p99_tail_samples = 0;  ///< of which beyond the p99
};

std::uint64_t tail_beyond_p99(const util::Histogram& h) {
  const auto at_or_below =
      static_cast<std::uint64_t>(
          std::ceil(0.99 * static_cast<double>(h.count())));
  return h.count() - std::min(h.count(), at_or_below);
}

/// Sentinel for an end-to-end metric whose subject the workload does not
/// exercise (every workload reports every metric; see README.md).
constexpr double kNotExercised = 1.0;

SimMetrics sim_metrics(const std::string& workload, const Pass& p) {
  SimMetrics s;
  double cycles = 0.0;
  for (const Outcome& o : p.outcomes) {
    cycles += static_cast<double>(o.run.cycles);
  }
  s.e2e["sim_cycles"] = cycles;

  if (workload == "open-loop") {
    const Outcome& ref = rate_point(p, "pack", kRefRate);
    const Outcome& base_ref = rate_point(p, "base", kRefRate);
    const util::Histogram& lat = ref.run.latency;
    s.e2e["p50_latency_cycles"] = lat.percentile(50);
    s.e2e["p99_latency_cycles"] = lat.percentile(99);
    s.p99_samples = lat.count();
    s.p99_tail_samples = tail_beyond_p99(lat);
    s.e2e["slo_knee_rate"] = knee_rate(p, "pack");
    // Unloaded gather service time, base over pack, at the lowest rate.
    s.e2e["speedup_indirect"] =
        rate_point(p, "base", kRates[0]).run.latency.percentile(50) /
        rate_point(p, "pack", kRates[0]).run.latency.percentile(50);
    double peak = 0.0;
    for (const Outcome& o : p.outcomes) {
      if (o.job->role == "pack") peak = std::max(peak, o.run.r_util);
    }
    s.e2e["r_util_indirect"] = peak;
    // Same arrival stream on both systems: energy base / pack.
    s.e2e["energy_gain"] = energy::efficiency_gain(
        base_ref.power, base_ref.run.cycles, ref.power, ref.run.cycles);
    s.e2e["speedup_strided"] = kNotExercised;
    s.e2e["r_util_strided"] = kNotExercised;
    s.e2e["paper_err"] = kNotExercised;
    return s;
  }

  // Closed loop: per-kernel base/pack comparisons.
  std::vector<double> sp_str, sp_ind, gains;
  double peak_sp_str = 0, peak_sp_ind = 0, util_str = 0, util_ind = 0;
  double eff_str = 0, eff_ind = 0, ideal_ratio_sum = 0;
  int ideal_n = 0;
  util::Histogram pack_lat;
  for (const auto k : kKernels) {
    const Outcome* base = kernel_job(p, "base", k);
    const Outcome* pack = kernel_job(p, "pack", k);
    const Outcome* ideal = kernel_job(p, "ideal", k);
    const double sp = static_cast<double>(base->run.cycles) /
                      static_cast<double>(pack->run.cycles);
    const double gain = energy::efficiency_gain(
        base->power, base->run.cycles, pack->power, pack->run.cycles);
    gains.push_back(gain);
    pack_lat.merge(pack->run.latency);
    if (ideal != nullptr) {
      ideal_ratio_sum += static_cast<double>(ideal->run.cycles) /
                         static_cast<double>(pack->run.cycles);
      ++ideal_n;
    }
    if (wl::kernel_is_indirect(k)) {
      sp_ind.push_back(sp);
      peak_sp_ind = std::max(peak_sp_ind, sp);
      util_ind = std::max(util_ind, pack->run.r_util);
      eff_ind = std::max(eff_ind, gain);
    } else {
      sp_str.push_back(sp);
      peak_sp_str = std::max(peak_sp_str, sp);
      util_str = std::max(util_str, pack->run.r_util);
      eff_str = std::max(eff_str, gain);
    }
  }
  s.e2e["speedup_strided"] = geomean(sp_str);
  s.e2e["speedup_indirect"] = geomean(sp_ind);
  s.e2e["r_util_strided"] = util_str;
  s.e2e["r_util_indirect"] = util_ind;
  s.e2e["energy_gain"] = geomean(gains);
  s.e2e["p50_latency_cycles"] = pack_lat.percentile(50);
  s.e2e["p99_latency_cycles"] = pack_lat.percentile(99);
  s.p99_tail_samples = tail_beyond_p99(pack_lat);
  s.p99_samples = pack_lat.count();
  s.e2e["slo_knee_rate"] = kNotExercised;

  s.claims = {{"peak strided speedup (x)", 5.4, peak_sp_str},
              {"peak strided R-bus utilization", 0.87, util_str},
              {"peak indirect speedup (x)", 2.4, peak_sp_ind},
              {"peak indirect R-bus utilization", 0.39, util_ind}};
  if (ideal_n != 0) {
    s.claims.push_back({"PACK vs IDEAL performance", 0.97,
                        ideal_ratio_sum / ideal_n});
  }
  s.claims.push_back({"peak strided energy-eff. gain (x)", 5.3, eff_str});
  s.claims.push_back({"peak indirect energy-eff. gain (x)", 2.1, eff_ind});
  double err = 0.0;
  for (const Claim& c : s.claims) err += std::fabs(c.measured / c.paper - 1.0);
  s.e2e["paper_err"] = err / static_cast<double>(s.claims.size());
  return s;
}

/// Role-suffixed per-layer metrics, summed over a role's jobs (closed
/// loop) or read at the reference-rate point (open loop).
std::map<std::string, double> derive_layers(const std::string& workload,
                                            const Pass& p) {
  std::map<std::string, Counters> by_role;
  for (const std::string role : {"base", "pack", "ideal"}) by_role[role];
  for (const Outcome& o : p.outcomes) {
    if (o.job->rate != 0 && o.job->rate != kRefRate) continue;
    Counters& c = by_role[o.job->role];
    for (const auto& [k, v] : o.layers) {
      if (k == "pack.coalesce_peak_pending" || k == "traffic.queue_peak") {
        c[k] = std::max(c[k], v);
      } else if (k == "bus_bytes") {
        c[k] = v;
      } else {
        c[k] += v;
      }
    }
  }

  std::map<std::string, double> m;
  auto ratio = [](double a, double b) { return b == 0.0 ? 0.0 : a / b; };
  for (auto& [role, c] : by_role) {
    const std::string sfx = "." + role;
    for (const char* k :
         {"vproc.dispatches", "vproc.scalar_cycles", "vproc.ar", "vproc.aw",
          "vproc.beats_rx", "vproc.bytes_rx", "vproc.vfu_elems"}) {
      m[k + sfx] = c[k];
    }
    m["vproc.bytes_per_beat_rx" + sfx] =
        ratio(c["vproc.bytes_rx"], c["vproc.beats_rx"]);
    m["energy.power_mw" + sfx] = ratio(c["power_x_cycles"], c["cycles"]);
    if (role == "ideal") continue;  // no fabric, memory or DMA

    for (const char* k :
         {"axi.ar", "axi.aw", "axi.r_beats", "axi.w_beats",
          "axi.r_payload_bytes", "axi.r_index_bytes",
          "axi.protocol_violations", "pack.base_reads", "pack.strided_reads",
          "pack.indirect_reads", "pack.idx_words", "pack.elem_words",
          "pack.coalesce_merged", "pack.coalesce_unique",
          "pack.coalesce_peak_pending", "pack.coalesce_row_groups",
          "mem.grants", "mem.conflict_losses", "mem.row_hits",
          "mem.row_misses", "mem.refresh_stall_cycles",
          "mem.batch_defer_cycles", "mem.starved_grants",
          "dma.descriptors_done", "dma.bytes_moved", "dma.busy_cycles",
          "dma.desc_fetch_bytes", "dma.retries", "traffic.arrivals",
          "traffic.completed", "traffic.failed", "traffic.queue_peak"}) {
      m[k + sfx] = c[k];
    }
    m["axi.r_util" + sfx] = ratio(c["axi.r_payload_bytes"], c["capacity"]);
    m["axi.w_util" + sfx] = ratio(c["axi.w_payload_bytes"], c["capacity"]);
    double ch_min = 0.0, ch_max = 0.0;
    for (unsigned ch = 0;; ++ch) {
      const auto it = c.find("ch" + std::to_string(ch) + ".r_payload_bytes");
      if (it == c.end()) break;
      const double u = ratio(it->second, c["capacity"]);
      ch_min = ch == 0 ? u : std::min(ch_min, u);
      ch_max = std::max(ch_max, u);
    }
    m["axi.r_util_ch_min" + sfx] = ch_min;
    m["axi.r_util_ch_max" + sfx] = ch_max;
    m["pack.r_pack_eff" + sfx] = ratio(c["axi.r_payload_bytes"],
                                       c["axi.r_beats"] * c["bus_bytes"]);
    m["pack.coalesce_merge_ratio" + sfx] =
        ratio(c["pack.coalesce_merged"],
              c["pack.coalesce_merged"] + c["pack.coalesce_unique"]);
    m["mem.conflict_ratio" + sfx] =
        ratio(c["mem.conflict_losses"],
              c["mem.grants"] + c["mem.conflict_losses"]);
    m["mem.row_hit_ratio" + sfx] =
        ratio(c["mem.row_hits"], c["mem.row_hits"] + c["mem.row_misses"]);
    m["traffic.achieved_over_offered" + sfx] =
        ratio(c["traffic.achieved"], c["traffic.offered"]);
  }
  m["traffic.base_knee_rate"] =
      workload == "open-loop" ? knee_rate(p, "base") : 0.0;
  return m;
}

/// Simulated results of a pass reduced to one comparable string.
std::string fingerprint(const Pass& p) {
  std::string s;
  for (const Outcome& o : p.outcomes) {
    s += std::to_string(o.run.cycles) + ":" +
         std::to_string(o.run.latency.sum()) + ":" +
         std::to_string(o.run.bus.r_beats) + ";";
  }
  return s;
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Host-time estimate of one pass from its repetitions: each job's median
/// over the passes of `field`, summed over the jobs. Each repetition is
/// already scaled by the speed probe timed just before it; the median
/// discards the repetitions the scaling did not straighten out.
double host_time(const std::vector<Pass>& ps, double (*field)(const Times&)) {
  double sum = 0.0;
  std::vector<double> v;
  for (std::size_t j = 0; j < ps.front().outcomes.size(); ++j) {
    v.clear();
    for (const Pass& p : ps) v.push_back(field(p.outcomes[j].t));
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    sum += n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
  }
  return sum;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload {paper-sram|dram-ch4|open-loop} "
               "--seed N --seconds S [--trace-file PATH]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, trace_file;
  std::uint64_t seed = 0;
  double seconds = -1.0;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = argv[i + 1];
    } else if (flag == "--seed") {
      seed = std::strtoull(argv[i + 1], &end, 10);
      have_seed = end != argv[i + 1] && *end == '\0';
    } else if (flag == "--seconds") {
      seconds = std::strtod(argv[i + 1], &end);
      if (end == argv[i + 1] || *end != '\0') seconds = -1.0;
    } else if (flag == "--trace-file") {
      trace_file = argv[i + 1];
    } else {
      return usage(argv[0]);
    }
  }
  if (argc % 2 != 1 || !is_workload(workload) || !have_seed || seconds < 0) {
    return usage(argv[0]);
  }

  const Clock::time_point start = Clock::now();
  const double cpu_start = cpu_now();
  const std::vector<Job> jobs = workload_jobs(workload);
  const bool tracing = !trace_file.empty();
  std::vector<Pass> plain, traced;
  std::map<std::string, std::vector<double>> span_self;
  Tracer last_trace(false, cpu_start);
  SpeedProbe probe;
  std::string reference;
  std::vector<std::string> errors;
  std::uint64_t attempted = 0, failed = 0;

  auto account = [&](const Pass& p) {
    const std::string fp = fingerprint(p);
    if (reference.empty()) reference = fp;
    for (const Outcome& o : p.outcomes) {
      // Operations: each closed-loop job and each open-loop request. A run
      // with a failed check counts its failed requests, and at least one.
      const bool open = o.job->rate != 0;
      attempted += open ? static_cast<std::uint64_t>(
                              std::max(1.0, o.layers.at("traffic.arrivals")))
                        : 1;
      if (!o.errors.empty()) {
        failed += open ? static_cast<std::uint64_t>(
                             std::max(1.0, o.layers.at("traffic.failed")))
                       : 1;
        errors.insert(errors.end(), o.errors.begin(), o.errors.end());
      }
    }
    if (fp != reference) {
      ++failed;
      errors.push_back("simulated results differ between passes");
    }
  };

  // Iterations repeat until the next one would end past the deadline, so a
  // run lasts about --seconds (at least one iteration) instead of
  // overrunning it by up to a whole iteration.
  double iteration_s = 0.0;
  do {
    const Clock::time_point it0 = Clock::now();
    Tracer off(false, cpu_start);
    plain.push_back(run_pass(jobs, seed, off, probe));
    account(plain.back());
    if (tracing) {
      Tracer tr(true, cpu_start);
      traced.push_back(run_pass(jobs, seed, tr, probe));
      account(traced.back());
      for (const auto& [name, v] : tr.self_times()) {
        span_self[name].push_back(v);
      }
      last_trace = std::move(tr);
    }
    iteration_s = seconds_between(it0, Clock::now());
  } while (seconds_between(start, Clock::now()) + iteration_s < seconds);

  const Pass& ref = plain.front();
  const SimMetrics sim = sim_metrics(workload, ref);

  util::JsonWriter w;
  w.begin_object();
  w.key("workload").value(workload);
  w.key("seed").value(seed);
  w.key("passes").value(static_cast<std::uint64_t>(plain.size()));
  w.key("traced_passes").value(static_cast<std::uint64_t>(traced.size()));
  w.key("probe_ref_ms").value(SpeedProbe::kRefSeconds * 1e3);
  w.key("attempted").value(attempted);
  w.key("failed").value(failed);
  w.key("errors").begin_array();
  for (std::size_t i = 0; i < errors.size() && i < 20; ++i) w.value(errors[i]);
  w.end_array();

  w.key("end_to_end").begin_object();
  w.key("pass_s")
      .value(host_time(plain, [](const Times& t) { return t.total(); }));
  w.key("setup_s")
      .value(host_time(plain, [](const Times& t) { return t.setup(); }));
  w.key("sim_cycles_per_s")
      .value(static_cast<double>(ref.t.sim_cycles) /
             host_time(plain, [](const Times& t) { return t.run; }));
  w.key("peak_rss_mb").value(peak_rss_mb());
  for (const auto& [k, v] : sim.e2e) w.key(k).value(v);
  w.end_object();

  w.key("detail").begin_object();
  w.key("p99_tail_samples").value(sim.p99_tail_samples);
  w.key("p99_samples").value(sim.p99_samples);
  std::vector<double> probe_ms;
  double cpu_s = 0.0;  // unscaled CPU seconds of every untraced pass
  for (const Pass& p : plain) {
    for (const Outcome& o : p.outcomes) {
      probe_ms.push_back(o.t.probe_s * 1e3);
      cpu_s += o.t.total() * o.t.probe_s / SpeedProbe::kRefSeconds;
    }
  }
  std::sort(probe_ms.begin(), probe_ms.end());
  w.key("probe_ms_min").value(probe_ms.front());
  w.key("probe_ms_median").value(probe_ms[probe_ms.size() / 2]);
  w.key("probe_ms_max").value(probe_ms.back());
  w.key("mean_pass_cpu_s").value(cpu_s / static_cast<double>(plain.size()));
  w.end_object();

  w.key("claims").begin_array();
  for (const Claim& c : sim.claims) {
    w.begin_object();
    w.key("claim").value(c.name);
    w.key("paper").value(c.paper);
    w.key("measured").value(c.measured);
    w.end_object();
  }
  w.end_array();

  w.key("jobs").begin_array();
  for (const Outcome& o : ref.outcomes) {
    w.begin_object();
    w.key("scenario").value(o.job->scenario);
    w.key("kernel").value(o.job->rate ? "open-loop"
                                      : wl::kernel_name(o.job->kernel));
    w.key("rate").value(o.job->rate);
    w.key("cycles").value(o.run.cycles);
    if (o.job->rate != 0) {
      w.key("p99").value(o.run.latency.percentile(99));
      w.key("achieved_over_offered")
          .value(o.run.achieved_rate / o.run.offered_rate);
    }
    w.end_object();
  }
  w.end_array();

  if (tracing) {
    const Pass& tp = traced.back();
    std::map<std::string, double> layers = derive_layers(workload, tp);
    layers["systems.build_s"] =
        host_time(traced, [](const Times& t) { return t.build; });
    layers["workloads.gen_s"] =
        host_time(traced, [](const Times& t) { return t.gen; });
    layers["workloads.verify_s"] =
        host_time(traced, [](const Times& t) { return t.verify; });
    const double run_s =
        host_time(traced, [](const Times& t) { return t.run; });
    layers["sim.run_s"] = run_s;
    layers["sim.host_ns_per_cycle"] =
        run_s * 1e9 / static_cast<double>(ref.t.sim_cycles);
    layers["sim.gating_speedup"] =
        host_time(traced, [](const Times& t) { return t.naive_run; }) / run_s;
    bool identical = true;
    for (const Pass& p : traced) {
      for (const Outcome& o : p.outcomes) {
        identical = identical && o.naive_identical;
      }
    }
    layers["sim.naive_identical"] = identical ? 1.0 : 0.0;
    layers["latency.p99_tail_samples"] =
        static_cast<double>(sim.p99_tail_samples);
    for (const char* name :
         {"scenario", "build", "gen", "run", "verify", "stats", "naive"}) {
      const std::vector<double>& v = span_self[name];
      layers[std::string("span.") + name + "_s"] =
          v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
    }
    // Tracing overhead: a traced pass, less its naive re-runs, minus an
    // untraced pass.
    layers["trace.overhead_s"] =
        host_time(traced, [](const Times& t) { return t.total(); }) -
        host_time(plain, [](const Times& t) { return t.total(); });
    w.key("per_layer").begin_object();
    for (const auto& [k, v] : layers) w.key(k).value(v);
    w.end_object();

    std::ofstream f(trace_file);
    f << last_trace.chrome_json() << "\n";
    if (!f) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", trace_file.c_str());
      return 1;
    }
  }
  w.end_object();
  std::printf("%s\n", w.str().c_str());
  return 0;
}
