// Performance ledger benchmark program: runs one workload in this process and
// prints one flat JSON object on stdout. bench/ledger/run.py builds it,
// checks the object and reports the metrics (bench/ledger/README.md has the
// glossary).
//
// A run, all of it on state built from --seed:
//   prepare  warm-up, then pin_span more slots; the state digest and loss
//            ratio at their end are what bench/ledger/pins.json pins;
//   measure  kSegments segments, each: an untimed set-up and
//            kSetupPerSegment timed ones, a closed-loop stretch (traffic ->
//            step -> record, one slot after the other) and an open-loop
//            stretch (one request of request_slots slots issued every
//            period_ns, each timed from when it was due). --seconds covers
//            the stretches: kClosedShare of it closed, the rest open.
//            Latency quantiles are taken per part of the run and reported
//            as the quiet quartile of the parts (see quiet_quartile);
//            throughput is the median over short closed-loop windows (see
//            kRateWindowNs); the peak resident set is read at its end;
//   recover  kChains checkpoint chains (each one full frame and three
//            deltas) written by a fleet of the workload's fabric, resumed
//            kRecoverRounds times in turn, with their own host-speed probes;
//   trace    the same seed on fresh state with a TraceRecorder attached, up
//            to the pinned slot and at least 1/8 of the closed-loop slots,
//            for the per-layer breakdown and the traced-digest check.
//
// The program calls only the public entry points the ledger promises to keep
// measuring across refactors: Interconnect construction, step,
// input_channel_busy_into and the queue-depth accessors;
// TrafficGenerator::next_slot_into; MetricsCollector; the Fleet serving and
// checkpoint surface; state_digest; register_fleet_metrics and
// write_prometheus; TraceRecorder.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <map>
#include <memory>
#include <new>
#include <numeric>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/registry.hpp"
#include "obs/telemetry.hpp"
#include "sim/checkpoint.hpp"
#include "sim/fleet.hpp"
#include "sim/interconnect.hpp"
#include "sim/metrics.hpp"
#include "sim/obs_export.hpp"
#include "sim/traffic.hpp"
#include "util/timer.hpp"

// Counting allocator: every heap allocation in the process, on any thread.
// interconnect.allocs_per_slot divides the count taken across measured
// slots by the slots.
namespace {
std::atomic<std::uint64_t> g_allocations{0};
volatile std::uint64_t g_chain_sink = 0;
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace wdm;
namespace fs = std::filesystem;

constexpr std::uint64_t kDefaultSeed = 1;
constexpr std::uint64_t kEarlySlot = 16;         // seed-sensitivity digest
constexpr std::size_t kSegments = 32;            // measure-phase segments
// The first set-up after a serving stretch finds the caches that stretch
// left; its time swung 2-3x between runs, so it warms up and is not timed.
// The next few still get faster, one after the other; with two timed, the
// median of a run swung by a fifth between runs on overload_mix.
constexpr std::size_t kSetupPerSegment = 8;      // timed setup_s samples
constexpr std::size_t kSegmentMinSamples = 1000; // per latency quantile
constexpr double kClosedShare = 0.6;             // of --seconds
// Closed-loop busy time per request-rate window. A host stall spoils the
// few windows it falls in, not the whole stretch, so the median window is
// the program's own rate.
constexpr std::uint64_t kRateWindowNs = 2000000;
constexpr std::size_t kChains = 4;               // checkpoint chains resumed
constexpr std::uint64_t kCheckpointFrames = 4;   // 1 full + 3 delta frames
constexpr std::uint64_t kCheckpointEvery = 256;  // frame spacing, slots
constexpr std::size_t kRecoverRounds = 64;       // recover_ms samples
constexpr std::uint64_t kFleetChunk = 64;        // closed-loop fleet.run()
constexpr std::uint64_t kExportEvery = 512;      // fleet Prometheus export
constexpr std::uint64_t kWindow = 256;           // traced slots per drain
constexpr std::size_t kTraceRing = std::size_t{1} << 17;
constexpr std::size_t kFlightRing = std::size_t{1} << 15;

// ---------------------------------------------------------------- workloads

struct Workload {
  std::string_view name;
  sim::InterconnectConfig fabric;
  sim::TrafficConfig traffic;
  std::size_t shards = 0;        // > 0: served by a sim::Fleet
  std::uint64_t warmup = 0;      // slots before anything is measured
  std::uint64_t pin_span = 0;    // slots after warm-up to the pinned digest
  std::uint64_t period_ns = 0;   // open-loop issue period of one request
  std::uint64_t request_slots = 1;  // slots one open-loop request runs

  /// Threads runnable at once: the caller and one driver thread per shard.
  std::size_t threads() const { return 1 + shards; }
};

sim::InterconnectConfig bfa_fabric() {
  sim::InterconnectConfig c;
  c.n_fibers = 64;
  c.scheme = core::ConversionScheme::circular(16, 1, 1);  // d = 3: exact BFA
  c.arbitration = core::Arbitration::kFifo;
  return c;
}

sim::TrafficConfig bfa_traffic() {
  sim::TrafficConfig t;
  t.load = 0.8;
  t.holding = sim::HoldingTime::kGeometric;
  t.mean_holding = 3.0;
  return t;
}

// Open-loop periods put each single fabric at roughly 55-60% of the slot
// rate its closed loop sustains on the 4-CPU capture host, and the fleet at
// about 25%: at 55% a single host stall left a backlog that decided the
// fleet's paced p99 on its own.
std::vector<Workload> workloads() {
  std::vector<Workload> out;

  Workload bfa;
  bfa.name = "bfa_steady";
  bfa.fabric = bfa_fabric();
  bfa.traffic = bfa_traffic();
  bfa.warmup = 2048;
  bfa.pin_span = 4096;
  bfa.period_ns = 80000;
  out.push_back(bfa);

  Workload fa;
  fa.name = "fa_wide";
  fa.fabric.n_fibers = 128;
  // k = 80: two mask words with k % 64 != 0; non-circular d = 5 is First
  // Available, O(k) per port.
  fa.fabric.scheme = core::ConversionScheme::non_circular(80, 2, 2);
  fa.fabric.arbitration = core::Arbitration::kFifo;
  fa.traffic.load = 0.5;
  // The fan-out runs serially. On a pool, every slot wakes a worker, and
  // how much of the fan-out it takes depends on how fast the host resumes
  // an idle CPU: throughput then measured the host.
  fa.warmup = 512;
  // Its loss ratio is about 0.002, so the pinned stretch is long enough
  // for the loss to vary across seeds by about 1%.
  fa.pin_span = 8192;
  fa.period_ns = 800000;
  out.push_back(fa);

  Workload ov;
  ov.name = "overload_mix";
  ov.fabric.n_fibers = 64;
  ov.fabric.scheme = core::ConversionScheme::circular(16, 2, 2);  // d = 5
  ov.fabric.arbitration = core::Arbitration::kFifo;
  ov.fabric.admission.enabled = true;
  // Tokens, op budget and retry backoff are tuned so that about a quarter
  // of fresh arrivals are shed, about 40% of slots degrade (with exact and
  // approximate ports both running), and the retry queue is non-empty on
  // about two thirds of slots.
  ov.fabric.admission.tokens_per_slot = 8.0;
  ov.fabric.admission.bucket_depth = 32.0;
  ov.fabric.admission.queue_capacity = 128;
  ov.fabric.admission.drop_policy = sim::DropPolicy::kPriorityShed;
  ov.fabric.degrade.op_budget = 13600;
  ov.fabric.degrade.recovery_slots = 4;
  ov.fabric.faults.channels = {500.0, 20.0};
  ov.fabric.faults.converters = {500.0, 20.0};
  ov.fabric.faults.fibers = {5000.0, 50.0};
  ov.fabric.retry.max_retries = 3;
  ov.fabric.retry.backoff_base = 16;
  // On-off traffic needs load <= b / (b + 1); 0.8 is inside it for b = 8.
  ov.traffic.arrivals = sim::ArrivalProcess::kOnOff;
  ov.traffic.mean_burst_length = 8.0;
  ov.traffic.load = 0.8;
  ov.traffic.destinations = sim::DestinationPattern::kHotspot;
  ov.traffic.hotspot_alpha = 0.8;
  ov.traffic.holding = sim::HoldingTime::kGeometric;
  ov.traffic.mean_holding = 2.0;
  ov.traffic.class_mix = {0.2, 0.3, 0.5};
  ov.warmup = 5120;
  ov.pin_span = 4096;
  ov.period_ns = 170000;
  out.push_back(ov);

  Workload fleet;
  fleet.name = "fleet_serve";
  fleet.fabric = bfa_fabric();
  fleet.traffic = bfa_traffic();
  fleet.shards = 2;
  fleet.warmup = 2048;
  fleet.pin_span = 4096;
  // A request is a barrier interval of 8 slots, not one step(): each
  // barrier wakes idle CPUs, and a single step's time swung by a third
  // between runs with how fast the host resumed them. 16-slot requests at
  // the same utilisation halved the samples, and the paced p99 spread twice
  // as much between runs.
  fleet.request_slots = 8;
  fleet.period_ns = fleet.request_slots * 200000;
  out.push_back(fleet);
  return out;
}

// ------------------------------------------------------------------ helpers

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

bool conserves(const sim::SlotStats& s) {
  return s.granted + s.rejected + s.deferred_faulted + s.deferred_overload ==
         s.arrivals + s.retry_attempts + s.ingress_releases;
}

/// The same law summed over a run: offered trials end granted, lost, or
/// deferred into one of the two queues.
bool conserves(const sim::MetricsCollector& m) {
  return m.granted() + m.losses() + m.deferred_faulted() +
             m.deferred_overload() ==
         m.arrivals();
}

double us(std::uint64_t ns) { return static_cast<double>(ns) / 1e3; }
double ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }
double secs(std::uint64_t ns) { return static_cast<double>(ns) / 1e9; }
double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }
double ratio(std::uint64_t num, std::uint64_t den) {
  return ratio(static_cast<double>(num), static_cast<double>(den));
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

/// Nearest-rank quantile of already sorted samples.
template <typename T>
T quantile(const std::vector<T>& sorted, double q) {
  if (sorted.empty()) return T{};
  const auto n = static_cast<double>(sorted.size());
  const auto rank = static_cast<std::size_t>(std::ceil(q * n));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

/// The quiet quartile of per-part latencies: their lower quartile. Host
/// interference comes and goes within a run and only ever adds time, so
/// the parts it spared measure the workload; the median of parts moved
/// with the host by up to twice as much between runs.
double quiet_quartile(std::vector<double> parts) {
  std::sort(parts.begin(), parts.end());
  return quantile(parts, 0.25);
}

/// Fresh requests per second over consecutive windows of kRateWindowNs
/// busy time.
struct RateWindows {
  std::vector<double>* rates;
  std::uint64_t fresh;    // fresh arrivals offered when the window opened
  std::uint64_t ns = 0;   // busy time in the window so far

  /// Adds `dt` of busy time after which `fresh_now` arrivals had been
  /// offered; closes the window once it is full.
  void add(std::uint64_t dt, std::uint64_t fresh_now) {
    ns += dt;
    if (ns < kRateWindowNs) return;
    rates->push_back(ratio(static_cast<double>(fresh_now - fresh), secs(ns)));
    fresh = fresh_now;
    ns = 0;
  }
};

/// Untraced over traced request rate, minus one, with the same statistic
/// on both sides: the median of per-window rates.
double trace_overhead(const std::vector<double>& untraced,
                      const std::vector<double>& traced) {
  return ratio(median(untraced), median(traced)) - 1.0;
}

/// Quantile `q` of each of up to kSegments consecutive parts of `samples`
/// (in time order, at least kSegmentMinSamples each, so a p99 has ten
/// samples beyond it), then their quiet quartile, in microseconds.
double segmented_quantile_us(const std::vector<std::uint64_t>& samples,
                             double q) {
  const std::size_t parts = std::clamp<std::size_t>(
      samples.size() / kSegmentMinSamples, 1, kSegments);
  std::vector<double> per_part;
  std::vector<std::uint64_t> part;
  for (std::size_t p = 0; p < parts; ++p) {
    part.assign(samples.begin() +
                    static_cast<std::ptrdiff_t>(p * samples.size() / parts),
                samples.begin() + static_cast<std::ptrdiff_t>(
                                      (p + 1) * samples.size() / parts));
    std::sort(part.begin(), part.end());
    per_part.push_back(us(quantile(part, q)));
  }
  return quiet_quartile(std::move(per_part));
}

/// Peak resident set of this process so far, in MiB, less `samples_bytes`:
/// the benchmark's own latency samples, whose number grows with the slots
/// a faster build runs. VmHWM, not ru_maxrss: the latter keeps the
/// high-water mark of whatever process exec'd this one. It is read before
/// the recover phase: there a single fabric's resumes each build a
/// one-shard fleet on a fresh thread, which nearly doubled the peak, by an
/// amount that varied 9% with the seed.
double peak_rss_mb(std::uint64_t samples_bytes) {
  double kib = -1.0;
  std::ifstream status("/proc/self/status");
  std::string line;
  while (kib < 0.0 && std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      kib = std::strtod(line.c_str() + 6, nullptr);
    }
  }
  if (kib < 0.0) {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    kib = static_cast<double>(usage.ru_maxrss);
  }
  return (kib - static_cast<double>(samples_bytes) / 1024.0) / 1024.0;
}

void spin_until(std::uint64_t due_ns) {
  while (util::now_ns() < due_ns) {
  }
}

std::uint64_t seconds_ns(double seconds) {
  return static_cast<std::uint64_t>(std::max(0.0, seconds) * 1e9);
}

/// The host's speed relative to the capture host. A shared host's clock
/// follows its load: the same code ran 10-15% slower in some runs than in
/// others, all of a run's slots alike, fastest ones included. A fixed
/// xorshift chain, pure register arithmetic and none of the program's code,
/// is timed at every measure segment; run.py scales each timed metric by
/// the speed, which took the spread of medians between runs from 4-7% to
/// 1-2%.
struct HostClock {
  static constexpr int kChainSteps = 200000;
  static constexpr int kChainRepeats = 5;
  /// The chain's usual time on the capture host (AMD EPYC, 4 vCPUs).
  static constexpr double kReferenceChainNs = 250000.0;

  std::vector<double> chain_ns;  // fastest of kChainRepeats, per probe
  std::uint64_t state;           // carries each chain into the next

  explicit HostClock(std::uint64_t seed) : state(splitmix64(seed) | 1) {}

  void probe() {
    std::uint64_t best = ~std::uint64_t{0};
    for (int rep = 0; rep < kChainRepeats; ++rep) {
      std::uint64_t x = state;
      const std::uint64_t t0 = util::now_ns();
      for (int i = 0; i < kChainSteps; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
      }
      best = std::min(best, util::now_ns() - t0);
      state = x;
    }
    g_chain_sink = state;  // keeps the chains from being optimised away
    chain_ns.push_back(static_cast<double>(best));
  }

  double speed() const { return kReferenceChainNs / median(chain_ns); }
};

// ------------------------------------------------------------------- report

struct Report {
  std::vector<std::pair<std::string, double>> metrics;
  std::vector<std::pair<std::string, bool>> checks;
  std::vector<std::pair<std::string, std::string>> facts;
  std::vector<std::pair<std::string, std::pair<double, double>>> stages;
  std::uint64_t slots = 0;         // slots stepped while measuring/tracing
  std::uint64_t failed_slots = 0;  // slots that broke conservation

  void metric(std::string name, double value) {
    metrics.emplace_back(std::move(name), value);
  }
  void check(std::string name, bool ok) {
    checks.emplace_back(std::move(name), ok);
  }
  void fact(std::string name, std::string value) {
    facts.emplace_back(std::move(name), std::move(value));
  }
  /// Metrics a workload never exercises read 0, so every run reports the
  /// same names.
  void absent(std::initializer_list<const char*> names) {
    for (const char* name : names) metric(name, 0.0);
  }
};

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64, v);
  return buf;
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

void print_report(const Workload& w, std::uint64_t seed, const Report& r) {
  std::ostringstream os;
  os << "{\"workload\": " << quoted(w.name) << ", \"seed\": " << seed
     << ", \"threads\": " << w.threads() << ", \"slots\": " << r.slots
     << ", \"failed_slots\": " << r.failed_slots;
  for (const auto& [name, value] : r.facts) {
    os << ", " << quoted(name) << ": " << quoted(value);
  }
  os << ", \"checks\": {";
  const char* sep = "";
  for (const auto& [name, ok] : r.checks) {
    os << sep << quoted(name) << ": " << (ok ? "true" : "false");
    sep = ", ";
  }
  os << "}, \"stages\": {";
  sep = "";
  for (const auto& [name, v] : r.stages) {
    os << sep << quoted(name) << ": {\"total_us\": " << num(v.first)
       << ", \"self_us\": " << num(v.second) << "}";
    sep = ", ";
  }
  os << "}, \"metrics\": {";
  sep = "";
  for (const auto& [name, value] : r.metrics) {
    os << sep << quoted(name) << ": " << num(value);
    sep = ", ";
  }
  os << "}}";
  std::cout << os.str() << "\n";
}

/// The facts bench/ledger/run.py checks against pins.json and repeats.
struct Pin {
  std::uint64_t slot = 0;
  std::uint64_t digest = 0;
  std::uint64_t early = 0;  // digest at kEarlySlot
  double loss = 0.0;        // loss ratio over [warmup, slot)

  void report(Report& r) const {
    r.metric("loss_ratio", loss);
    r.fact("pin_slot", std::to_string(slot));
    r.fact("digest", hex(digest));
    r.fact("digest_early", hex(early));
    r.fact("loss_ratio_exact", num(loss));
  }
};

// ------------------------------------------------------ end-to-end samples

/// End-to-end samples gathered over the measure phase's segments.
struct Samples {
  std::vector<double> setup_s;
  std::vector<double> rate;             // fresh requests/s per window
  std::vector<std::uint64_t> slot_ns;   // per-slot latency, in time order
  std::vector<std::uint64_t> paced_ns;  // completion - due, in time order
  std::vector<std::uint64_t> lag_ns;    // issue - due, in time order
  std::uint64_t late = 0;  // finished after the next request was due

  /// Reserved up front, so that storing a sample never allocates: the
  /// allocation count and the peak resident set stay the program's.
  void reserve(std::uint64_t windows, std::uint64_t slot_samples,
               std::uint64_t open_samples) {
    rate.reserve(windows);
    slot_ns.reserve(slot_samples);
    paced_ns.reserve(open_samples);
    lag_ns.reserve(open_samples);
  }

  /// Bytes of samples stored; reserved pages nothing was written to are
  /// not resident.
  std::uint64_t stored_bytes() const {
    return sizeof(double) * rate.size() +
           sizeof(std::uint64_t) *
               (slot_ns.size() + paced_ns.size() + lag_ns.size());
  }

  /// One open-loop stretch: `request` runs `slots` slots, `after` runs off
  /// the clock once they completed. With `service`, each request's own
  /// duration per slot is kept too.
  template <typename Request, typename After>
  void open_stretch(std::uint64_t requests, std::uint64_t slots,
                    std::uint64_t period, Request&& request, After&& after,
                    std::vector<std::uint64_t>* service) {
    const std::uint64_t start = util::now_ns() + period;
    for (std::uint64_t i = 0; i < requests; ++i) {
      const std::uint64_t due = start + i * period;
      spin_until(due);
      const std::uint64_t issued = util::now_ns();
      request();
      const std::uint64_t done = util::now_ns();
      lag_ns.push_back(issued - due);
      paced_ns.push_back(done - due);
      late += done > due + period ? 1 : 0;
      if (service != nullptr) service->push_back((done - issued) / slots);
      after();
    }
  }

  void report(Report& r) const {
    r.metric("setup_s", median(setup_s));
    r.metric("req_per_s", median(rate));
    r.metric("slot_p50_us", segmented_quantile_us(slot_ns, 0.50));
    r.metric("slot_p99_us", segmented_quantile_us(slot_ns, 0.99));
    r.metric("paced_p50_us", segmented_quantile_us(paced_ns, 0.50));
    r.metric("paced_p99_us", segmented_quantile_us(paced_ns, 0.99));
    r.metric("pacer.lag_p99_us", segmented_quantile_us(lag_ns, 0.99));
    r.metric("pacer.late_share", ratio(late, paced_ns.size()));
    // The highest percentile of the whole run with ten samples beyond it.
    std::vector<std::uint64_t> sorted = slot_ns;
    std::sort(sorted.begin(), sorted.end());
    const std::size_t n = sorted.size();
    const bool tail = n > 10;
    r.metric("slot.tail_us", tail ? us(sorted[n - 11]) : 0.0);
    r.metric("slot.tail_pct", tail ? 100.0 * static_cast<double>(n - 10) /
                                         static_cast<double>(n)
                                   : 0.0);
    r.metric("slot.samples", static_cast<double>(n));
  }
};

// ------------------------------------------------- span containment analysis

constexpr std::size_t kStages = static_cast<std::size_t>(obs::Stage::kCount);
// The benchmark's own spans around the public calls, numbered after the
// program's stages.
enum LoopSpan : std::uint8_t {
  kLoopSlot = kStages,  // one whole closed-loop slot
  kLoopTraffic,         // input_channel_busy_into + next_slot_into
  kLoopStep,            // Interconnect::step
  kLoopRecord,          // MetricsCollector::record_slot
  kKinds,
};

const char* kind_name(std::size_t kind) {
  switch (kind) {
    case kLoopSlot: return "ledger.slot";
    case kLoopTraffic: return "ledger.traffic";
    case kLoopStep: return "ledger.step";
    case kLoopRecord: return "ledger.record";
    default: return obs::to_string(static_cast<obs::Stage>(kind));
  }
}

struct Options;

struct Span {
  std::uint64_t lane = 0;  // shard; spans of different lanes may overlap
  std::uint64_t slot = 0;
  std::uint64_t t0 = 0;
  std::uint64_t t1 = 0;
  std::size_t kind = 0;
};

/// Per-layer totals over the traced slots. A span's self time is its
/// duration minus the durations of the spans it directly contains, so
/// kRetry and kIngress do not absorb the partition and fan-out spans they
/// run. Per-fiber schedule spans are kept out of the containment tree;
/// they feed the port statistics instead.
struct LayerTotals {
  std::array<std::uint64_t, kKinds> total{};
  std::array<std::uint64_t, kKinds> self{};
  std::uint64_t ports_exact = 0;
  std::uint64_t ports_degraded = 0;
  std::uint64_t exact_ns = 0;
  std::uint64_t degraded_ns = 0;
  std::uint64_t lane_slots = 0;  // slots summed over lanes
  std::vector<Span> spans;       // the current window
  std::vector<std::uint64_t> child_ns;
  std::vector<std::size_t> stack;
  std::ostringstream chrome;     // first window, as Chrome trace events
  bool chrome_open = true;

  void add_event(std::uint64_t lane, const obs::TraceEvent& e) {
    if (e.kind == obs::EventKind::kStage && e.detail < kStages) {
      spans.push_back({lane, e.slot, e.ts_ns, e.ts_ns + e.dur_ns, e.detail});
    } else if (e.kind == obs::EventKind::kFiberSchedule) {
      (e.detail != 0 ? ports_degraded : ports_exact) += 1;
      (e.detail != 0 ? degraded_ns : exact_ns) += e.dur_ns;
      if (chrome_open) {
        chrome_event("fiber", lane, e.tid, e.slot, e.ts_ns, e.dur_ns,
                     obs::to_string(obs::Stage::kFanout));
      }
    }
  }

  void chrome_event(const char* name, std::uint64_t lane, std::uint64_t tid,
                    std::uint64_t slot, std::uint64_t t0, std::uint64_t dur,
                    const char* parent) {
    chrome << (chrome.tellp() > 0 ? ",\n" : "") << "{\"name\": \"" << name
           << "\", \"ph\": \"X\", \"pid\": " << lane << ", \"tid\": " << tid
           << ", \"ts\": " << num(us(t0)) << ", \"dur\": " << num(us(dur))
           << ", \"args\": {\"slot\": " << slot << ", \"parent\": \""
           << parent << "\"}}";
  }

  /// Attributes the window's spans and clears it.
  void close_window(std::uint64_t window_lane_slots) {
    lane_slots += window_lane_slots;
    std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
      if (a.lane != b.lane) return a.lane < b.lane;
      if (a.slot != b.slot) return a.slot < b.slot;
      if (a.t0 != b.t0) return a.t0 < b.t0;
      return a.t1 > b.t1;  // the enclosing span first
    });
    child_ns.assign(spans.size(), 0);
    stack.clear();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      while (!stack.empty()) {
        const Span& top = spans[stack.back()];
        if (top.lane == s.lane && top.slot == s.slot && top.t0 <= s.t0 &&
            s.t1 <= top.t1) {
          break;
        }
        stack.pop_back();
      }
      const char* parent = "";
      if (!stack.empty()) {
        child_ns[stack.back()] += s.t1 - s.t0;
        parent = kind_name(spans[stack.back()].kind);
      }
      if (chrome_open) {
        chrome_event(kind_name(s.kind), s.lane, 0, s.slot, s.t0, s.t1 - s.t0,
                     parent);
      }
      stack.push_back(i);
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const std::uint64_t dur = spans[i].t1 - spans[i].t0;
      total[spans[i].kind] += dur;
      self[spans[i].kind] += dur > child_ns[i] ? dur - child_ns[i] : 0;
    }
    spans.clear();
    chrome_open = false;
  }

  double per_slot_us(const std::array<std::uint64_t, kKinds>& a,
                     std::size_t kind) const {
    return ratio(us(a[kind]), static_cast<double>(lane_slots));
  }

  void report(Report& r) const {
    auto at = [](obs::Stage s) { return static_cast<std::size_t>(s); };
    using obs::Stage;
    r.metric("interconnect.slot_span_us", per_slot_us(total, at(Stage::kSlot)));
    r.metric("interconnect.unattributed_us",
             per_slot_us(self, at(Stage::kSlot)));
    r.metric("interconnect.aging_self_us",
             per_slot_us(self, at(Stage::kAging)));
    r.metric("faults.self_us", per_slot_us(self, at(Stage::kFaults)));
    r.metric("retry.self_us", per_slot_us(self, at(Stage::kRetry)));
    r.metric("ingress.self_us", per_slot_us(self, at(Stage::kIngress)));
    r.metric("admission.self_us", per_slot_us(self, at(Stage::kAdmission)));
    r.metric("core.partition_self_us",
             per_slot_us(self, at(Stage::kPartition)));
    r.metric("core.fanout_us", per_slot_us(total, at(Stage::kFanout)));
    r.metric("core.port_exact_ns", ratio(exact_ns, ports_exact));
    r.metric("core.port_degraded_ns", ratio(degraded_ns, ports_degraded));
    r.metric("core.degraded_share",
             ratio(ports_degraded, ports_exact + ports_degraded));
    r.metric("core.ports_per_slot",
             ratio(ports_exact + ports_degraded, lane_slots));
    r.metric("traffic.gen_us", per_slot_us(total, kLoopTraffic));
    r.metric("interconnect.step_us", per_slot_us(total, kLoopStep));
    r.metric("metrics.record_us", per_slot_us(total, kLoopRecord));
    for (std::size_t k = 0; k < kKinds; ++k) {
      r.stages.emplace_back(kind_name(k), std::make_pair(per_slot_us(total, k),
                                                         per_slot_us(self, k)));
    }
  }

  void write_chrome(const Options& o) const;
};

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  std::string work_dir = ".";

  std::uint64_t closed_ns_per_segment() const {
    return seconds_ns(kClosedShare * seconds) / kSegments;
  }
  std::uint64_t rate_windows() const {
    return seconds_ns(kClosedShare * seconds) / kRateWindowNs + kSegments;
  }
  std::uint64_t open_requests_per_segment(const Workload& w) const {
    return seconds_ns((1.0 - kClosedShare) * seconds) / kSegments /
           w.period_ns;
  }
  std::string path(const std::string& leaf) const {
    return (fs::path(work_dir) / leaf).string();
  }
  /// A fresh directory for this process's checkpoint frames.
  std::string scratch_dir(const std::string& tag) const {
    const std::string dir = path("ckpt-" + workload + "-" +
                                 std::to_string(::getpid()) + "-" + tag);
    fs::remove_all(dir);
    return dir;
  }
};

void LayerTotals::write_chrome(const Options& o) const {
  std::ofstream os(o.path("ledger-" + o.workload + ".trace.json"));
  os << "{\"traceEvents\": [\n" << chrome.str() << "\n]}\n";
}

// ------------------------------------------------------ fleets, recovery

sim::FleetConfig fleet_config(const Workload& w, std::uint64_t seed) {
  sim::FleetConfig c;
  c.shards = std::max<std::size_t>(1, w.shards);
  c.threads_per_shard = 1;
  c.seed = seed;
  c.interconnect = w.fabric;
  c.traffic = w.traffic;
  c.supervision.enabled = true;
  return c;
}

sim::CheckpointPolicy checkpoint_policy(const std::string& dir) {
  sim::CheckpointPolicy p;
  p.dir = dir;
  p.full_every = 8;
  return p;
}

std::map<std::string, std::uintmax_t> list_files(const std::string& dir) {
  std::map<std::string, std::uintmax_t> out;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) out[entry.path().string()] = entry.file_size();
  }
  return out;
}

/// A fleet of the workload's fabric (one shard for a single-fabric
/// workload) writes kChains checkpoint chains one after the other, each one
/// full frame and three deltas kCheckpointEvery slots apart; then fresh
/// fleets resume the chains in turn, and each resume must reproduce the
/// slot and fleet digest of its chain's last write. Chains from four points
/// of the run keep recover_ms from resting on one snapshot of the state.
/// Checkpoints are written here rather than while serving because every
/// frame is fsync'd, which on a disk-backed checkout costs up to tens of
/// milliseconds and would turn the serving metrics into a disk benchmark.
///
/// run.py scales every time by `run_speed`, the measure phase's host
/// speed. The host's clock drifts in the seconds between that phase and
/// this one, so the resumes get their own probes, and recover_ms is
/// reported at `run_speed` rather than at the speed it was timed at.
void checkpoint_and_recover(const Workload& w, const Options& o,
                            double run_speed, Report& r) {
  struct Chain {
    std::string dir;
    std::uint64_t slot = 0;
    std::uint64_t digest = 0;
  };
  const sim::FleetConfig config = fleet_config(w, o.seed);
  std::vector<Chain> chains;
  {
    sim::Fleet fleet(config);
    std::uint64_t slot = 0;
    std::vector<double> write_ms;
    std::vector<double> frame_kb;
    for (std::size_t c = 0; c < kChains; ++c) {
      const std::string dir = o.scratch_dir("chain" + std::to_string(c));
      fleet.open_checkpoints(checkpoint_policy(dir));
      for (std::uint64_t i = 0; i < kCheckpointFrames; ++i) {
        fleet.run(kCheckpointEvery);
        slot += kCheckpointEvery;
        const auto before = list_files(dir);
        const std::uint64_t t0 = util::now_ns();
        fleet.write_checkpoint();
        write_ms.push_back(ms(util::now_ns() - t0));
        std::uintmax_t bytes = 0;
        for (const auto& [path, size] : list_files(dir)) {
          if (before.count(path) == 0) bytes += size;
        }
        frame_kb.push_back(static_cast<double>(bytes) / 1024.0 /
                           static_cast<double>(fleet.shards()));
      }
      chains.push_back({dir, slot, fleet.fleet_digest()});
    }
    r.metric("checkpoint.write_ms", median(write_ms));
    r.metric("checkpoint.frame_kb", mean(frame_kb));
  }
  std::vector<double> resume_ms;
  bool exact = true;
  HostClock clock(o.seed);
  for (std::size_t i = 0; i < kRecoverRounds; ++i) {
    if (i % kChains == 0) clock.probe();
    const Chain& chain = chains[i % chains.size()];
    sim::Fleet fresh(config);
    const std::uint64_t t0 = util::now_ns();
    const sim::FleetRecovery rec = fresh.resume_from(chain.dir);
    resume_ms.push_back(ms(util::now_ns() - t0));
    exact = exact && rec.recovered && rec.slot == chain.slot &&
            fresh.fleet_digest() == chain.digest;
  }
  r.metric("recover_ms", median(resume_ms) * clock.speed() / run_speed);
  r.check("resume_reproduces_digest", exact);
  for (const Chain& chain : chains) fs::remove_all(chain.dir);
}

// ------------------------------------------------------ single fabric

/// Seeding mirrors run_simulation: the fabric stream, then the traffic
/// stream, drawn in that order from the workload seed.
struct Seeds {
  explicit Seeds(std::uint64_t seed)
      : fabric(splitmix64(seed)), traffic(splitmix64(seed)) {}
  std::uint64_t fabric;
  std::uint64_t traffic;
};

struct Fabric {
  Fabric(const Workload& w, std::uint64_t seed) : Fabric(w, Seeds(seed)) {}

  sim::Interconnect ic;
  sim::TrafficGenerator traffic;
  sim::MetricsCollector metrics;
  std::vector<std::uint8_t> busy;
  std::vector<core::SlotRequest> arrivals;
  std::uint64_t slot = 0;          // slots stepped since construction
  std::uint64_t fresh = 0;         // fresh arrivals offered so far
  std::uint64_t failed_slots = 0;  // slots that broke conservation

  /// One closed-loop slot. With `spans`, the benchmark records its own span
  /// around each public call.
  void run_slot(std::vector<Span>* spans = nullptr) {
    const bool traced = spans != nullptr;
    const std::uint64_t t0 = traced ? util::now_ns() : 0;
    ic.input_channel_busy_into(busy);
    traffic.next_slot_into(busy, arrivals);
    const std::uint64_t t1 = traced ? util::now_ns() : 0;
    const sim::SlotStats stats = ic.step(arrivals);
    const std::uint64_t t2 = traced ? util::now_ns() : 0;
    // record_slot enforces the same law by throwing; a broken slot is
    // counted here instead so the report says how many there were.
    const bool ok = conserves(stats);
    if (ok) metrics.record_slot(stats);
    failed_slots += ok ? 0 : 1;
    fresh += stats.arrivals;
    if (traced) {
      const std::uint64_t t3 = util::now_ns();
      spans->push_back({0, slot, t0, t3, kLoopSlot});
      spans->push_back({0, slot, t0, t1, kLoopTraffic});
      spans->push_back({0, slot, t1, t2, kLoopStep});
      spans->push_back({0, slot, t2, t3, kLoopRecord});
    }
    slot += 1;
  }

  /// Warm-up, then the pinned stretch. The warm-up is not measured, so the
  /// collector starts afresh after it and the pinned loss covers the
  /// pinned stretch only.
  Pin prepare(const Workload& w) {
    Pin pin;
    while (slot < w.warmup) {
      run_slot();
      if (slot == kEarlySlot) pin.early = sim::state_digest(ic);
    }
    metrics = sim::MetricsCollector(w.fabric.n_fibers, w.fabric.scheme.k());
    pin.slot = w.warmup + w.pin_span;
    while (slot < pin.slot) run_slot();
    pin.digest = sim::state_digest(ic);
    pin.loss = metrics.loss_probability();
    return pin;
  }

 private:
  Fabric(const Workload& w, Seeds seeds)
      : ic(seeded(w.fabric, seeds.fabric)),
        traffic(w.fabric.n_fibers, w.fabric.scheme.k(), w.traffic,
                seeds.traffic),
        metrics(w.fabric.n_fibers, w.fabric.scheme.k()) {}

  static sim::InterconnectConfig seeded(sim::InterconnectConfig c,
                                        std::uint64_t seed) {
    c.seed = seed;
    return c;
  }
};

void run_fabric(const Workload& w, const Options& o, Report& r) {
  Fabric f(w, o.seed);
  const std::uint64_t prepare0 = util::now_ns();
  const Pin pin = f.prepare(w);
  const std::uint64_t prepare_ns = util::now_ns() - prepare0;
  pin.report(r);

  Samples s;
  const std::uint64_t open_requests = o.open_requests_per_segment(w);
  // Four times the closed-loop slots prepare's pace predicts.
  s.reserve(o.rate_windows(),
            4 * kSegments * o.closed_ns_per_segment() * pin.slot /
                std::max<std::uint64_t>(prepare_ns, 1),
            open_requests * kSegments);
  std::uint64_t closed_slots = 0;
  std::uint64_t closed_allocs = 0;
  std::uint64_t ingress_depth = 0;
  std::uint64_t retry_depth = 0;
  std::uint64_t retry_busy_slots = 0;
  HostClock clock(o.seed);
  for (std::size_t seg = 0; seg < kSegments; ++seg) {
    clock.probe();
    for (std::size_t i = 0; i <= kSetupPerSegment; ++i) {
      const std::uint64_t t0 = util::now_ns();
      auto fresh = std::make_unique<Fabric>(w, o.seed);
      if (i > 0) s.setup_s.push_back(secs(util::now_ns() - t0));
    }

    std::uint64_t busy_ns = 0;
    RateWindows windows{&s.rate, f.fresh};
    while (busy_ns < o.closed_ns_per_segment()) {
      const std::uint64_t allocs0 =
          g_allocations.load(std::memory_order_relaxed);
      const std::uint64_t t0 = util::now_ns();
      f.run_slot();
      const std::uint64_t dt = util::now_ns() - t0;
      closed_allocs += g_allocations.load(std::memory_order_relaxed) - allocs0;
      s.slot_ns.push_back(dt);
      busy_ns += dt;
      closed_slots += 1;
      ingress_depth += f.ic.ingress_queue_depth();
      const std::size_t depth = f.ic.retry_queue_depth();
      retry_depth += depth;
      retry_busy_slots += depth > 0 ? 1 : 0;
      windows.add(dt, f.fresh);
    }

    s.open_stretch(
        open_requests, w.request_slots, w.period_ns, [&] { f.run_slot(); },
        [] {}, nullptr);
  }
  r.metric("host.speed", clock.speed());
  const sim::MetricsCollector& m = f.metrics;
  r.check("conservation_total", conserves(m));
  r.metric("interconnect.allocs_per_slot", ratio(closed_allocs, closed_slots));
  r.metric("admission.shed_share", ratio(m.shed_overload(), m.raw_arrivals()));
  r.metric("ingress.depth", ratio(ingress_depth, closed_slots));
  r.metric("retry.depth", ratio(retry_depth, closed_slots));
  r.metric("retry.success_share",
           ratio(m.retry_successes(), m.retry_attempts()));
  r.metric("faults.rejected_share", ratio(m.rejected_faulted(), m.arrivals()));
  r.metric("overload.degraded_slot_share",
           ratio(m.degraded_slots(), m.slots()));
  r.metric("overload.retry_busy_share", ratio(retry_busy_slots, closed_slots));

  // Before the recover phase (see peak_rss_mb) and before s.report, which
  // copies the samples to sort them.
  r.metric("peak_rss_mb", peak_rss_mb(s.stored_bytes()));
  checkpoint_and_recover(w, o, clock.speed(), r);
  s.report(r);

  // Traced: the same seed on fresh state, recorder attached after warm-up.
  Fabric t(w, o.seed);
  while (t.slot < w.warmup) t.run_slot();
  t.metrics = sim::MetricsCollector(w.fabric.n_fibers, w.fabric.scheme.k());
  obs::TraceRecorder recorder(obs::TraceDetail::kFibers, kTraceRing);
  t.ic.set_telemetry(&recorder);
  LayerTotals layers;
  std::vector<obs::TraceEvent> events;
  const std::uint64_t traced_end =
      w.warmup + std::max(w.pin_span, closed_slots / 8);
  std::vector<double> traced_rate;
  RateWindows traced_windows{&traced_rate, t.fresh};
  bool ring_whole = true;
  Pin traced_pin;
  while (t.slot < traced_end) {
    for (std::uint64_t i = 0; i < kWindow; ++i) {
      const std::uint64_t t0 = util::now_ns();
      t.run_slot(&layers.spans);
      traced_windows.add(util::now_ns() - t0, t.fresh);
      if (t.slot == pin.slot) {
        traced_pin.digest = sim::state_digest(t.ic);
        traced_pin.loss = t.metrics.loss_probability();
      }
    }
    ring_whole = ring_whole && recorder.dropped() == 0;
    recorder.drain(events);
    for (const obs::TraceEvent& e : events) layers.add_event(0, e);
    layers.close_window(kWindow);
  }
  t.ic.set_telemetry(nullptr);
  layers.report(r);
  layers.write_chrome(o);
  r.metric("trace.overhead", trace_overhead(s.rate, traced_rate));
  r.check("trace_ring_never_wrapped", ring_whole);
  r.check("traced_digest_matches", traced_pin.digest == pin.digest);
  r.check("traced_loss_matches", traced_pin.loss == pin.loss);

  Fabric other(w, o.seed + 1);
  while (other.slot < kEarlySlot) other.run_slot();
  r.check("seed_changes_digest", sim::state_digest(other.ic) != pin.early);

  r.slots = closed_slots + open_requests * kSegments + (t.slot - w.warmup);
  r.failed_slots = f.failed_slots + t.failed_slots + other.failed_slots;
  r.fact("closed_slots", std::to_string(closed_slots));
  r.fact("traced_slots", std::to_string(t.slot - w.warmup));
  r.absent({"fleet.step_us", "fleet.shard_slot_us", "fleet.shard_skew_us",
            "fleet.outside_step_us", "export.publish_ms", "export.body_kb"});
}

// ------------------------------------------------------------ fleet_serve

/// Prometheus export of a fleet, rendered to a string as a scrape would,
/// every kExportEvery fleet slots.
struct Exporter {
  std::uint64_t next = kExportEvery;
  std::vector<double> publish_ms;
  std::vector<double> body_kb;

  void maybe_publish(const sim::Fleet& fleet, std::uint64_t slot) {
    if (slot < next) return;
    next = (slot / kExportEvery + 1) * kExportEvery;
    const std::uint64_t t0 = util::now_ns();
    obs::Registry registry;
    sim::register_fleet_metrics(registry, fleet);
    std::ostringstream body;
    obs::write_prometheus(body, registry);
    const std::string text = body.str();
    publish_ms.push_back(ms(util::now_ns() - t0));
    body_kb.push_back(static_cast<double>(text.size()) / 1024.0);
  }
};

/// The shards' kSlot spans over the open-loop stretches, read from the
/// always-on flight recorders' stage histograms (count, sum per shard).
struct ShardSlotClock {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> spent;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> mark;

  static std::pair<std::uint64_t, std::uint64_t> read(const sim::Fleet& fleet,
                                                      std::size_t shard) {
    const obs::FlightRecorder* flight = fleet.shard_flight(shard);
    if (flight == nullptr) return {0, 0};
    const obs::Histogram& h =
        flight->recorder().stage_histogram(obs::Stage::kSlot);
    return {h.count(), h.sum()};
  }

  void start(const sim::Fleet& fleet) {
    mark.clear();
    for (std::size_t i = 0; i < fleet.shards(); ++i) {
      mark.push_back(read(fleet, i));
    }
    spent.resize(mark.size());
  }

  void stop(const sim::Fleet& fleet) {
    for (std::size_t i = 0; i < mark.size(); ++i) {
      const auto [count, sum] = read(fleet, i);
      spent[i].first += count - mark[i].first;
      spent[i].second += sum - mark[i].second;
    }
  }

  /// {slowest shard's mean, slowest minus fastest}, in microseconds.
  std::pair<double, double> report() const {
    std::vector<double> means;
    for (const auto& [count, sum] : spent) {
      means.push_back(ratio(us(sum), static_cast<double>(count)));
    }
    const auto [lo, hi] = std::minmax_element(means.begin(), means.end());
    return means.empty() ? std::make_pair(0.0, 0.0)
                         : std::make_pair(*hi, *hi - *lo);
  }
};

/// Loss over a stretch of fleet slots: the merged collector only grows, so
/// the stretch is the difference of two snapshots.
double loss_between(const sim::MetricsCollector& before,
                    const sim::MetricsCollector& after) {
  return ratio(after.losses() - before.losses(),
               after.arrivals() - before.arrivals());
}

std::uint64_t fresh_between(const sim::MetricsCollector& before,
                            const sim::MetricsCollector& after) {
  return after.raw_arrivals() - before.raw_arrivals();
}

void run_fleet(const Workload& w, const Options& o, Report& r) {
  const sim::FleetConfig config = fleet_config(w, o.seed);
  sim::Fleet fleet(config);
  Pin pin;
  fleet.run(kEarlySlot);
  pin.early = fleet.fleet_digest();
  fleet.run(w.warmup - kEarlySlot);
  const sim::MetricsCollector m0 = fleet.merged_metrics();
  fleet.run(w.pin_span);
  pin.slot = w.warmup + w.pin_span;
  pin.digest = fleet.fleet_digest();
  pin.loss = loss_between(m0, fleet.merged_metrics());
  pin.report(r);

  Samples s;
  const std::uint64_t open_requests = o.open_requests_per_segment(w);
  s.reserve(o.rate_windows(), open_requests * kSegments,
            open_requests * kSegments);
  Exporter exporter;
  ShardSlotClock shard_clock;
  std::uint64_t request_allocs = 0;
  std::uint64_t slot = pin.slot;
  std::uint64_t closed_slots = 0;
  const std::string setup_dir = o.scratch_dir("setup");
  HostClock clock(o.seed);
  for (std::size_t seg = 0; seg < kSegments; ++seg) {
    clock.probe();
    for (std::size_t i = 0; i <= kSetupPerSegment; ++i) {
      const std::uint64_t t0 = util::now_ns();
      auto fresh = std::make_unique<sim::Fleet>(config);
      fresh->open_checkpoints(checkpoint_policy(setup_dir));
      if (i > 0) s.setup_s.push_back(secs(util::now_ns() - t0));
    }

    // Phase A: each run() chunk and the export it may trigger is one rate
    // window.
    sim::MetricsCollector before = fleet.merged_metrics();
    const std::uint64_t start = util::now_ns();
    while (util::now_ns() - start < o.closed_ns_per_segment()) {
      const std::uint64_t t0 = util::now_ns();
      fleet.run(kFleetChunk);
      slot += kFleetChunk;
      closed_slots += kFleetChunk;
      exporter.maybe_publish(fleet, slot);
      const std::uint64_t window_ns = util::now_ns() - t0;
      sim::MetricsCollector after = fleet.merged_metrics();
      s.rate.push_back(ratio(static_cast<double>(fresh_between(before, after)),
                             secs(window_ns)));
      before = std::move(after);
    }

    // Phase B: a request's per-slot time is its barrier interval's wall
    // time over its slots; per-slot times do not exist inside run().
    shard_clock.start(fleet);
    s.open_stretch(
        open_requests, w.request_slots, w.period_ns,
        [&] {
          const std::uint64_t a0 =
              g_allocations.load(std::memory_order_relaxed);
          fleet.run(w.request_slots);
          request_allocs += g_allocations.load(std::memory_order_relaxed) - a0;
        },
        [&] { exporter.maybe_publish(fleet, slot += w.request_slots); },
        &s.slot_ns);
    shard_clock.stop(fleet);
  }
  fs::remove_all(setup_dir);
  r.metric("host.speed", clock.speed());
  r.check("conservation_total", conserves(fleet.merged_metrics()));
  const double step_us = ratio(
      us(std::accumulate(s.slot_ns.begin(), s.slot_ns.end(), std::uint64_t{0})),
      static_cast<double>(s.slot_ns.size()));
  const auto [shard_slot_us, shard_skew_us] = shard_clock.report();
  r.metric("fleet.step_us", step_us);
  r.metric("fleet.shard_slot_us", shard_slot_us);
  r.metric("fleet.shard_skew_us", shard_skew_us);
  r.metric("fleet.outside_step_us", step_us - shard_slot_us);
  r.metric("interconnect.allocs_per_slot",
           ratio(request_allocs, s.slot_ns.size() * w.request_slots));
  r.metric("export.publish_ms", median(exporter.publish_ms));
  r.metric("export.body_kb", mean(exporter.body_kb));

  r.metric("peak_rss_mb", peak_rss_mb(s.stored_bytes()));
  checkpoint_and_recover(w, o, clock.speed(), r);
  s.report(r);

  // Traced: the same seed with fiber-level flight recorders, read from the
  // shard rings between barriers. Export stays on its cadence so the traced
  // loop does the closed loop's work.
  sim::FleetConfig traced_config = config;
  traced_config.flight.detail = obs::TraceDetail::kFibers;
  traced_config.flight.capacity = kFlightRing;
  sim::Fleet t(traced_config);
  obs::TraceRecorder supervision(obs::TraceDetail::kSlots, 1024);
  t.set_telemetry(&supervision);
  t.run(w.warmup);
  Exporter traced_exporter;
  LayerTotals layers;
  std::vector<obs::TraceEvent> events;
  const sim::MetricsCollector warm = t.merged_metrics();
  const std::uint64_t traced_end =
      w.warmup + std::max(w.pin_span, closed_slots / 8);
  std::uint64_t traced_slot = w.warmup;
  std::vector<double> traced_rate;  // fresh requests/s per chunk
  bool ring_whole = true;
  Pin traced_pin;
  while (traced_slot < traced_end) {
    const std::uint64_t lo = traced_slot;
    for (std::uint64_t i = 0; i < kWindow / kFleetChunk; ++i) {
      const sim::MetricsCollector before = t.merged_metrics();
      const std::uint64_t t0 = util::now_ns();
      t.run(kFleetChunk);
      traced_slot += kFleetChunk;
      traced_exporter.maybe_publish(t, traced_slot);
      const std::uint64_t window_ns = util::now_ns() - t0;
      traced_rate.push_back(ratio(
          static_cast<double>(fresh_between(before, t.merged_metrics())),
          secs(window_ns)));
    }
    for (std::size_t shard = 0; shard < t.shards(); ++shard) {
      const obs::FlightRecorder* flight = t.shard_flight(shard);
      if (flight == nullptr) {
        ring_whole = false;
        continue;
      }
      flight->recorder().snapshot(events);
      std::uint64_t slot_spans = 0;
      for (const obs::TraceEvent& e : events) {
        if (e.slot < lo || e.slot >= traced_slot) continue;
        layers.add_event(shard, e);
        const bool slot_span =
            e.kind == obs::EventKind::kStage &&
            e.detail == static_cast<std::uint8_t>(obs::Stage::kSlot);
        slot_spans += slot_span ? 1 : 0;
      }
      // Every slot of the window still in the ring: it did not wrap.
      ring_whole = ring_whole && slot_spans == kWindow;
    }
    layers.close_window(kWindow * t.shards());
    if (traced_slot == pin.slot) {
      traced_pin.digest = t.fleet_digest();
      traced_pin.loss = loss_between(warm, t.merged_metrics());
    }
  }
  layers.report(r);
  layers.write_chrome(o);
  r.metric("trace.overhead", trace_overhead(s.rate, traced_rate));
  r.check("trace_ring_never_wrapped", ring_whole);
  r.check("traced_digest_matches", traced_pin.digest == pin.digest);
  r.check("traced_loss_matches", traced_pin.loss == pin.loss);
  r.check("no_supervision_events", supervision.recorded() == 0);

  sim::Fleet other(fleet_config(w, o.seed + 1));
  other.run(kEarlySlot);
  r.check("seed_changes_digest", other.fleet_digest() != pin.early);

  r.slots = closed_slots + s.slot_ns.size() * w.request_slots +
            (traced_slot - w.warmup);
  r.fact("closed_slots", std::to_string(closed_slots));
  r.fact("traced_slots", std::to_string(traced_slot - w.warmup));
  // Per-slot loop spans and the control plane do not exist here.
  r.absent({"admission.shed_share", "ingress.depth", "retry.depth",
            "retry.success_share", "faults.rejected_share",
            "overload.degraded_slot_share", "overload.retry_busy_share"});
}

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      o.workload = value;
    } else if (key == "--seed") {
      o.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      o.seconds = std::strtod(value, nullptr);
    } else if (key == "--work-dir") {
      o.work_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !o.workload.empty() && o.seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!parse(argc, argv, o)) {
    std::cerr << "usage: bench_ledger --workload NAME [--seed N] "
                 "[--seconds S] [--work-dir DIR]\n";
    return 2;
  }
  for (const Workload& w : workloads()) {
    if (w.name != o.workload) continue;
    fs::create_directories(o.work_dir);
    Report r;
    if (w.shards > 0) {
      run_fleet(w, o, r);
    } else {
      run_fabric(w, o, r);
    }
    print_report(w, o.seed, r);
    return 0;
  }
  std::cerr << "bench_ledger: unknown workload '" << o.workload << "'\n";
  return 2;
}
