// scg_bench — the repo benchmark: the two end-to-end paths of the library,
// measured in repeated trials, checked for correctness, and optionally
// traced at every layer boundary the benchmark can see from outside.
//
//   scg_bench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out FILE] [--golden FILE] [--out FILE] [--sha SHA]
//
// Workloads (see benchmark/README.md for why each exists):
//   serve-miss     RouteService closed loop, uniform pairs: route-cache misses
//   serve-hit      RouteService closed loop, 64 fixed displacements: cache hits
//   serve-poisson  RouteService open loop, Poisson arrivals at 150k qps
//   sim-mcmp       simulate_events lazy entry, MS(3,2), 126k random packets
//
// Run shape: set-up, a discarded warm-up, then kTrials trials splitting
// --seconds evenly, with further timed set-ups after every trial.  Every
// metric is the median of its per-trial values.  With --trace 0 the last
// stdout line carries the end-to-end metrics; with --trace 1 untraced and
// traced trials alternate, the per-layer metrics come from the traced ones
// and from probes, spans are written as Chrome trace-event JSON, and the
// last line carries the per-layer metrics every workload measures
// (including the trace overhead).  The layer metrics of one path only
// (serve.*, sim.*) are printed and written to --out, not to the last line.
//
// The program under test only ever receives the generated pairs; it is
// reached through its public API.  Exit status: 0 when every check passed
// and no request or packet failed, 1 otherwise, 2 on a usage error.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <future>
#include <memory>
#include <optional>
#include <random>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/perm_kernels.hpp"
#include "core/permutation.hpp"
#include "networks/route_engine.hpp"
#include "networks/route_policy.hpp"
#include "networks/router.hpp"
#include "networks/super_cayley.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/batcher.hpp"
#include "sim/event_core.hpp"
#include "sim/stats.hpp"
#include "sim/workloads.hpp"
#include "topology/metrics.hpp"

namespace {

using scg::serve_now_ns;  // the serving layer's steady-clock timebase

constexpr int kTrials = 10;
constexpr int kSetupsPerTrial = 2;             ///< extra set-ups timed per trial
constexpr std::size_t kPairPool = 1 << 18;     ///< generated serving pairs
constexpr std::size_t kWindow = 64;            ///< closed-loop outstanding requests
constexpr std::uint64_t kSampleEvery = 1024;   ///< word check + span sampling
constexpr double kPoissonQps = 150'000;
constexpr int kShiftDisplacements = 64;
constexpr int kSimPacketsPerNode = 25;         ///< 25 x 5040 = 126,000 packets
constexpr std::size_t kProbeChunk = 4096;      ///< sim route chunk size
constexpr double kProbeSeconds = 0.3;

double ns_to_us(double ns) { return ns * 1e-3; }

double median_of(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// p-th percentile of exact samples by the repo's one rank convention
/// (sim/stats.hpp).  Sorts in place.
double pct(std::vector<std::uint64_t>& v, std::uint64_t q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return static_cast<double>(
      scg::sorted_percentile(std::span<const std::uint64_t>(v), q));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Returns `make()`, appending the seconds it took to `times`.  Set-up is
/// timed again after every trial, so that its median covers the host's
/// state over the whole run as every other metric's does.
template <typename Make>
auto timed_setup(std::vector<double>& times, Make&& make) {
  const std::uint64_t t0 = serve_now_ns();
  auto made = make();
  times.push_back(static_cast<double>(serve_now_ns() - t0) * 1e-9);
  return made;
}

// ---------------------------------------------------------------------------
// Metrics: one value per trial, reported as the median.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  std::vector<double> trials;
  std::uint64_t samples = 0;  ///< raw samples behind the per-trial values
  bool detail = false;        ///< measured on one path only: not in the JSON line
};

class Report {
 public:
  void add(const std::string& name, const std::string& unit, double value,
           std::uint64_t samples = 0) {
    Metric& m = slot(name, unit);
    m.trials.push_back(std::isfinite(value) ? value : 0.0);
    m.samples += samples;
  }
  /// A layer metric that only the serving or only the simulation path has.
  void add_detail(const std::string& name, const std::string& unit, double value,
                  std::uint64_t samples = 0) {
    add(name, unit, value, samples);
    slot(name, unit).detail = true;
  }
  const std::vector<Metric>& metrics() const { return metrics_; }
  const Metric* find(const std::string& name) const {
    for (const Metric& m : metrics_)
      if (m.name == name) return &m;
    return nullptr;
  }

 private:
  Metric& slot(const std::string& name, const std::string& unit) {
    for (Metric& m : metrics_)
      if (m.name == name) return m;
    metrics_.push_back({name, unit, {}, 0, false});
    return metrics_.back();
  }
  std::vector<Metric> metrics_;
};

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

// ---------------------------------------------------------------------------
// Tracer: in-memory spans, written at exit as Chrome trace-event JSON.  A
// span names its parent span; all spans of one request share its id.
// ---------------------------------------------------------------------------

class Tracer {
 public:
  bool on = false;

  std::uint64_t next_id() { return ++last_id_; }

  void span(const char* name, std::uint64_t id, const char* parent,
            std::uint64_t start_ns, std::uint64_t end_ns) {
    if (on) spans_.push_back({name, parent, id, start_ns, std::max(start_ns, end_ns)});
  }

  std::size_t size() const { return spans_.size(); }

  bool write(const std::string& path) const {
    std::ofstream f(path);
    if (!f) return false;
    std::uint64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
    for (const Span& s : spans_) base = std::min(base, s.start_ns);
    f << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      f << (i ? ",\n" : "") << "{\"name\": " << quoted(s.name)
        << ", \"cat\": \"scg_bench\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1"
        << ", \"ts\": " << num(static_cast<double>(s.start_ns - base) * 1e-3)
        << ", \"dur\": " << num(static_cast<double>(s.end_ns - s.start_ns) * 1e-3)
        << ", \"args\": {\"id\": " << s.id << ", \"parent\": "
        << (s.parent ? quoted(s.parent) : std::string("null")) << "}}";
    }
    f << "\n]}\n";
    return static_cast<bool>(f);
  }

 private:
  struct Span {
    const char* name;
    const char* parent;
    std::uint64_t id;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
  };
  std::vector<Span> spans_;
  std::uint64_t last_id_ = 0;
};

/// Runs `body()` for at least kProbeSeconds in repetitions of at least 1 ms
/// (and at least three); returns the median ns of one call.  Each
/// repetition is traced as one `name` span.
template <typename Body>
double probe_ns(Tracer& tracer, const char* name, Body&& body) {
  std::vector<double> reps;
  std::uint64_t calls = 1;
  const std::uint64_t until =
      serve_now_ns() + static_cast<std::uint64_t>(kProbeSeconds * 1e9);
  while (reps.size() < 3 || serve_now_ns() < until) {
    const std::uint64_t t0 = serve_now_ns();
    for (std::uint64_t i = 0; i < calls; ++i) body();
    const std::uint64_t t1 = serve_now_ns();
    if (t1 - t0 < 1'000'000 && reps.empty()) {
      calls *= 2;  // still calibrating the repetition length
      continue;
    }
    tracer.span(name, tracer.next_id(), nullptr, t0, t1);
    reps.push_back(static_cast<double>(t1 - t0) / static_cast<double>(calls));
  }
  return median_of(reps);
}

// ---------------------------------------------------------------------------
// Run context shared by every workload.
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 25;
  bool trace = false;
  std::string trace_out;
  std::string golden;
  std::string out;
  std::string sha = "unknown";
};

struct Run {
  Options opt;
  Report report;
  Tracer tracer;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> violations;

  void violation(const std::string& what) {
    if (violations.size() < 20) violations.push_back(what);
  }
  double warmup_s() const { return std::clamp(opt.seconds / 10, 0.5, 2.0); }
  double trial_s() const { return opt.seconds / kTrials; }
};

// ---------------------------------------------------------------------------
// Serving workloads: one client thread sends and harvests; the service runs
// two micro-batch workers.  Batches stay <= 256 requests, so route_batch
// solves inline on the workers and the global pool is never touched.
// ---------------------------------------------------------------------------

std::vector<scg::TrafficPair> uniform_pairs(std::uint64_t nodes,
                                            std::size_t count,
                                            std::mt19937_64& rng) {
  std::vector<scg::TrafficPair> pairs(count);
  for (scg::TrafficPair& p : pairs) {
    p.src = rng() % nodes;
    p.dst = rng() % (nodes - 1);
    if (p.dst >= p.src) ++p.dst;
  }
  return pairs;
}

/// "Shift" traffic, like the phases of an all-to-all: random sources, each
/// destination chosen so that V^{-1}∘U — the route-cache key — is one of
/// `displacements` fixed relative permutations.
std::vector<scg::TrafficPair> shift_pairs(const scg::NetworkSpec& net,
                                          std::size_t count, int displacements,
                                          std::mt19937_64& rng) {
  const int k = net.k();
  const std::uint64_t nodes = net.num_nodes();
  std::vector<scg::Permutation> shifts;
  while (shifts.size() < static_cast<std::size_t>(displacements)) {
    const scg::Permutation d = scg::Permutation::unrank(k, rng() % nodes);
    if (!d.is_identity()) shifts.push_back(d);
  }
  std::vector<scg::TrafficPair> pairs(count);
  for (scg::TrafficPair& p : pairs) {
    const scg::Permutation u = scg::Permutation::unrank(k, rng() % nodes);
    const scg::Permutation& d = shifts[rng() % shifts.size()];
    // W = V^{-1}∘U = D  <=>  V^{-1} = D∘U^{-1} as symbol maps.
    const scg::Permutation v = u.inverse().relabel_symbols(d).inverse();
    p.src = u.rank();
    p.dst = v.rank();
  }
  return pairs;
}

struct ServeShape {
  bool open;                   ///< Poisson open loop, else closed loop
  bool shift;                  ///< shift traffic, else uniform pairs
  std::uint64_t linger_us;
  std::size_t queue_capacity;  ///< per worker
};

constexpr ServeShape kServeMiss{.open = false, .shift = false, .linger_us = 0,
                                .queue_capacity = 1024};
constexpr ServeShape kServeHit{.open = false, .shift = true, .linger_us = 0,
                               .queue_capacity = 1024};
// Deep queues: a host stall of tens of ms must queue, not shed.
constexpr ServeShape kServePoisson{.open = true, .shift = false, .linger_us = 100,
                                   .queue_capacity = std::size_t{1} << 14};

scg::RouteServiceConfig service_config(const ServeShape& s) {
  scg::RouteServiceConfig cfg;  // workers = 2, max_batch = 128, 32k-entry cache
  cfg.linger_us = s.linger_us;
  cfg.queue_capacity = s.queue_capacity;
  return cfg;
}

/// What a ServeClient run records.  A warm-up keeps no samples, so the peak
/// RSS read after it holds no benchmark buffers sized by throughput.
enum class Phase { kWarmup, kMeasure, kTrace };

/// One trial's tallies.  The stage vectors are filled in traced trials only.
struct ServeTrial {
  std::uint64_t offered = 0, ok = 0, shed = 0, closed = 0;
  double elapsed_s = 0;
  std::vector<std::uint64_t> latency, submit_call, keying, queue, batch, reply,
      wake, late;

  void clear() {
    offered = ok = shed = closed = 0;
    elapsed_s = 0;
    for (auto* v : {&latency, &submit_call, &keying, &queue, &batch, &reply,
                    &wake, &late}) {
      v->clear();
    }
  }
};

class ServeClient {
 public:
  ServeClient(scg::RouteService& svc, std::span<const scg::TrafficPair> pairs,
              bool open, std::uint64_t seed, Tracer& tracer)
      : svc_(svc), pairs_(pairs), open_(open), tracer_(tracer), rng_(seed) {}

  /// Drives the service for `seconds`, then waits for every reply.
  void run(double seconds, Phase phase, ServeTrial& tr) {
    tr.clear();
    phase_ = phase;
    tr_ = &tr;
    const std::uint64_t t0 = serve_now_ns();
    const std::uint64_t deadline = t0 + static_cast<std::uint64_t>(seconds * 1e9);
    open_ ? run_open(deadline) : run_closed(deadline);
    tr.elapsed_s = static_cast<double>(serve_now_ns() - t0) * 1e-9;
  }

  /// Compares every sampled OK word byte for byte with scalar route();
  /// returns the mismatches and forgets the samples.
  std::uint64_t check_words() {
    const scg::NetworkSpec& net = svc_.spec();
    std::uint64_t wrong = 0;
    for (const Sample& s : samples_) {
      const scg::TrafficPair& p = pairs_[s.pair];
      const std::vector<scg::Generator> want =
          scg::route(net, scg::Permutation::unrank(net.k(), p.src),
                     scg::Permutation::unrank(net.k(), p.dst));
      if (s.word != want) ++wrong;
    }
    samples_.clear();
    return wrong;
  }

  std::uint64_t offered_total() const { return offered_total_; }

 private:
  struct Outstanding {
    std::future<scg::RouteReply> fut;
    std::size_t pair = 0;
    std::uint64_t due = 0;  ///< when the request was due to be sent
    std::uint64_t t0 = 0;   ///< submit call entered
    std::uint64_t t1 = 0;   ///< submit call returned (traced trials)
  };
  struct Sample {
    std::size_t pair;
    std::vector<scg::Generator> word;
  };

  void send(Outstanding& o, std::uint64_t due) {
    o.pair = cursor_;
    cursor_ = (cursor_ + 1) % pairs_.size();
    const scg::TrafficPair& p = pairs_[o.pair];
    o.due = due;
    o.t0 = serve_now_ns();
    // The open loop must not slow down for a full queue: a refusal comes
    // back as an explicit shed reply instead.
    o.fut = open_ ? svc_.try_submit(p.src, p.dst) : svc_.submit(p.src, p.dst);
    o.t1 = phase_ == Phase::kTrace ? serve_now_ns() : o.t0;
    ++tr_->offered;
    ++offered_total_;
  }

  void finish(const Outstanding& o, const scg::RouteReply& reply,
              std::uint64_t t_done) {
    ServeTrial& tr = *tr_;
    if (reply.status != scg::ServeStatus::kOk) {
      ++(reply.status == scg::ServeStatus::kClosed ? tr.closed : tr.shed);
      return;
    }
    ++tr.ok;
    // Closed loop: client-observed round trip.  Open loop: from the due
    // time to the reply, so a stall also charges the requests it delayed.
    const std::uint64_t start = open_ ? o.due : o.t0;
    const std::uint64_t end = open_ ? reply.t.complete_ns : t_done;
    const bool sampled = ++completed_ % kSampleEvery == 0;
    if (sampled) samples_.push_back({o.pair, reply.word});
    if (phase_ == Phase::kWarmup) return;
    tr.latency.push_back(end - start);
    if (phase_ != Phase::kTrace) return;

    const scg::ServeTimestamps& t = reply.t;
    tr.submit_call.push_back(o.t1 - o.t0);
    tr.keying.push_back(t.enqueue_ns - t.submit_ns);
    tr.queue.push_back(t.batch_ns - t.enqueue_ns);
    tr.batch.push_back(t.solved_ns - t.batch_ns);
    tr.reply.push_back(t.complete_ns - t.solved_ns);
    tr.wake.push_back(t_done - t.complete_ns);
    tr.late.push_back(o.t0 - o.due);
    if (!sampled) return;
    const std::uint64_t id = tracer_.next_id();
    tracer_.span("request", id, nullptr, start, end);
    if (open_) tracer_.span("late", id, "request", o.due, o.t0);
    // The children tile the request.  The tail of the submit call (the
    // queue push) runs while the request already waits in the queue, so
    // the span ends at enqueue; serve.submit_call_us times the whole call.
    tracer_.span("submit_call", id, "request", o.t0, t.enqueue_ns);
    tracer_.span("keying", id, "submit_call", t.submit_ns, t.enqueue_ns);
    tracer_.span("queue", id, "request", t.enqueue_ns, t.batch_ns);
    tracer_.span("batch", id, "request", t.batch_ns, t.solved_ns);
    tracer_.span("reply", id, "request", t.solved_ns, t.complete_ns);
    if (!open_) tracer_.span("wake", id, "request", t.complete_ns, t_done);
  }

  /// kWindow requests outstanding; each reply (harvested oldest first)
  /// frees the slot for the next request.
  void run_closed(std::uint64_t deadline) {
    std::vector<Outstanding> ring(kWindow);
    for (Outstanding& o : ring) send(o, serve_now_ns());
    std::size_t live = kWindow;
    bool sending = true;
    for (std::size_t head = 0; live > 0; head = (head + 1) % kWindow) {
      Outstanding& o = ring[head];
      const scg::RouteReply reply = o.fut.get();
      const std::uint64_t t_done = serve_now_ns();
      finish(o, reply, t_done);
      sending = sending && t_done < deadline;
      if (sending) {
        send(o, t_done);
      } else {
        --live;
      }
    }
  }

  /// Poisson arrivals at kPoissonQps; between arrivals the same thread
  /// harvests replies that are ready.
  void run_open(std::uint64_t deadline) {
    std::deque<Outstanding> q;
    auto gap_ns = [this] {
      return static_cast<std::uint64_t>(gap_s_(rng_) * 1e9);
    };
    std::uint64_t due = serve_now_ns() + gap_ns();
    for (;;) {
      const bool sending = due < deadline;
      if (sending && serve_now_ns() >= due) {
        q.emplace_back();
        send(q.back(), due);
        due += gap_ns();
        continue;
      }
      if (q.empty()) {
        if (!sending) break;
        continue;
      }
      if (!sending || q.front().fut.wait_for(std::chrono::seconds(0)) ==
                          std::future_status::ready) {
        const scg::RouteReply reply = q.front().fut.get();
        finish(q.front(), reply, serve_now_ns());
        q.pop_front();
      }
    }
  }

  scg::RouteService& svc_;
  std::span<const scg::TrafficPair> pairs_;
  bool open_;
  Tracer& tracer_;
  std::mt19937_64 rng_;
  std::exponential_distribution<double> gap_s_{kPoissonQps};
  Phase phase_ = Phase::kMeasure;
  ServeTrial* tr_ = nullptr;  ///< the trial of the current run()
  std::size_t cursor_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t offered_total_ = 0;
  std::vector<Sample> samples_;
};

/// Checks one trial (conservation, sampled words) and counts its failures.
void account(Run& run, ServeClient& client, const ServeTrial& tr) {
  run.attempted += tr.offered;
  run.failed += tr.shed + tr.closed;
  if (tr.offered != tr.ok + tr.shed + tr.closed) {
    run.violation("trial conservation: offered != ok + shed + closed");
  }
  const std::uint64_t wrong = client.check_words();
  if (wrong > 0) {
    run.failed += wrong;
    run.violation(std::to_string(wrong) + " served words differ from route()");
  }
}

/// The serve-layer metrics of one traced trial, with the service counters
/// before and after it.
void add_serve_layer(Run& run, ServeTrial& tr,
                     const scg::ServiceStatsSnapshot& b,
                     const scg::ServiceStatsSnapshot& a) {
  Report& r = run.report;
  const std::uint64_t n = tr.submit_call.size();
  r.add_detail("serve.submit_call_us", "us", ns_to_us(pct(tr.submit_call, 50)), n);
  r.add_detail("serve.keying_us", "us", ns_to_us(pct(tr.keying, 50)), n);
  r.add_detail("serve.queue_wait_us.p50", "us", ns_to_us(pct(tr.queue, 50)), n);
  r.add_detail("serve.queue_wait_us.p99", "us", ns_to_us(pct(tr.queue, 99)), n);
  r.add_detail("serve.batch_us", "us", ns_to_us(pct(tr.batch, 50)), n);
  r.add_detail("serve.reply_us", "us", ns_to_us(pct(tr.reply, 50)), n);
  r.add_detail("serve.wake_us", "us", ns_to_us(pct(tr.wake, 50)), n);
  r.add_detail("serve.gen_late_us.p99", "us", ns_to_us(pct(tr.late, 99)), n);

  const double batches = static_cast<double>(a.batches - b.batches);
  const double batched = a.occupancy_mean * static_cast<double>(a.batches) -
                         b.occupancy_mean * static_cast<double>(b.batches);
  r.add_detail("serve.batch_occupancy", "requests", batches > 0 ? batched / batches : 0);
  r.add_detail("serve.coalesced_fraction", "fraction",
               batched > 0 ? static_cast<double>(a.coalesced - b.coalesced) / batched : 0);
  r.add_detail("serve.queue_high_water", "requests",
               static_cast<double>(a.queue_high_water));
}

// ---------------------------------------------------------------------------
// Layer probes: each layer called directly on the workload's own network and
// pairs, so a later change to one layer shows in its own number.
// ---------------------------------------------------------------------------

/// Steps through `n`-element windows of [0, size), wrapping at the end.
struct Cursor {
  std::size_t size;
  std::size_t at = 0;
  std::size_t next(std::size_t n) {
    if (at + n > size) at = 0;
    const std::size_t lo = at;
    at += n;
    return lo;
  }
};

void layer_probes(Run& run, const scg::NetworkSpec& net,
                  std::span<const scg::TrafficPair> pairs,
                  std::size_t occupancy) {
  Report& r = run.report;
  Tracer& tracer = run.tracer;
  const int k = net.k();
  const std::uint64_t identity = scg::Permutation::identity(k).rank();
  std::vector<std::uint64_t> src(pairs.size()), dst(pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    src[i] = pairs[i].src;
    dst[i] = pairs[i].dst;
  }

  // core: scalar vs kernel keying (unrank x2, inverse, relabel, rank).
  std::vector<std::uint64_t> keys(pairs.size());
  const std::size_t n = std::min(pairs.size(), kProbeChunk);
  auto scalar_key = [&](std::size_t i) {
    const scg::Permutation u = scg::Permutation::unrank(k, src[i]);
    const scg::Permutation v = scg::Permutation::unrank(k, dst[i]);
    keys[i] = u.relabel_symbols(v.inverse()).rank();
  };
  const double scalar_ns = probe_ns(tracer, "probe.scalar_key", [&] {
    for (std::size_t i = 0; i < n; ++i) scalar_key(i);
  });
  r.add("core.scalar_key_ns", "ns", scalar_ns / static_cast<double>(n), n);
  for (std::size_t i = n; i < pairs.size(); ++i) scalar_key(i);

  std::vector<std::uint64_t> batch_keys(n);
  scg::PermBlock us, vs, vinv, rel;
  constexpr std::size_t kBlock = 256;  // route_batch's chunk grain
  const double batch_ns = probe_ns(tracer, "probe.batch_key", [&] {
    for (std::size_t lo = 0; lo < n; lo += kBlock) {
      const std::size_t m = std::min(kBlock, n - lo);
      scg::perm_kernels::unrank(k, std::span(src).subspan(lo, m), us);
      scg::perm_kernels::unrank(k, std::span(dst).subspan(lo, m), vs);
      scg::perm_kernels::inverse(vs, vinv);
      scg::perm_kernels::relabel(us, vinv, rel);
      scg::perm_kernels::rank(rel, std::span(batch_keys).subspan(lo, m));
    }
  });
  r.add("core.batch_key_ns_per_pair", "ns", batch_ns / static_cast<double>(n), n);
  if (!std::equal(batch_keys.begin(), batch_keys.end(), keys.begin())) {
    run.violation("perm_kernels keys differ from scalar Permutation keys");
  }

  // networks: one-thread route_batch over the relative keys at the observed
  // batch size, walking the pair pool so the cache sees the workload's reuse.
  scg::ThreadPool one(1);
  {
    scg::RouteEngine engine(net);
    scg::RouteBatch out;
    const std::vector<std::uint64_t> ids(occupancy, identity);
    Cursor c{keys.size()};
    auto step = [&] {
      engine.route_batch(std::span(keys).subspan(c.next(occupancy), occupancy),
                         ids, out, &one);
    };
    for (std::size_t done = 0; done < (std::size_t{1} << 15); done += occupancy) step();
    const double ns = probe_ns(tracer, "probe.route_batch", step);
    r.add("networks.route_batch_ns_per_pair", "ns",
          ns / static_cast<double>(occupancy));
  }

  // networks: GamePolicy::route_paths in sim-sized chunks (global pool).
  {
    scg::GamePolicy policy(net);
    scg::PathArena arena;
    const std::size_t chunk = std::min(kProbeChunk, pairs.size());
    Cursor c{pairs.size()};
    auto step = [&] {
      const std::size_t lo = c.next(chunk);
      policy.route_paths(std::span(src).subspan(lo, chunk),
                         std::span(dst).subspan(lo, chunk), arena);
    };
    for (std::size_t done = 0; done < (std::size_t{1} << 15); done += chunk) step();
    const double ns = probe_ns(tracer, "probe.route_paths", step);
    r.add("networks.route_paths_ns_per_pkt", "ns", ns / static_cast<double>(chunk));
  }

  // parallel: the same route_batch chunks on the global pool vs one thread,
  // alternating chunk by chunk.
  {
    scg::RouteEngine engine(net);
    scg::RouteBatch out;
    const std::size_t chunk = std::min(kProbeChunk, pairs.size());
    Cursor c{pairs.size()};
    std::vector<double> arm[2];
    const std::uint64_t until =
        serve_now_ns() + static_cast<std::uint64_t>(2 * kProbeSeconds * 1e9);
    for (std::size_t i = 0; i < 6 || serve_now_ns() < until; ++i) {
      const std::size_t lo = c.next(chunk);
      const std::uint64_t t0 = serve_now_ns();
      engine.route_batch(std::span(src).subspan(lo, chunk),
                         std::span(dst).subspan(lo, chunk), out,
                         i % 2 ? &one : nullptr);
      const std::uint64_t t1 = serve_now_ns();
      tracer.span(i % 2 ? "probe.pool_one_thread" : "probe.pool_global",
                  tracer.next_id(), nullptr, t0, t1);
      arm[i % 2].push_back(static_cast<double>(t1 - t0));
    }
    r.add("parallel.pool_speedup", "ratio", median_of(arm[1]) / median_of(arm[0]));
  }
}

// ---------------------------------------------------------------------------
// Simulation workload: the lazy simulate_events entry with the game policy.
// ---------------------------------------------------------------------------

/// Everything a simulation needs besides its traffic; built once per run.
struct SimSetup {
  scg::NetworkSpec net;
  scg::Graph g;
  scg::OffchipTable offchip;
  scg::EventSimConfig cfg;

  explicit SimSetup(scg::NetworkSpec spec)
      : net(std::move(spec)),
        g(scg::materialize(net)),
        offchip(scg::mcmp_offchip_table(net, g)) {
    cfg.offchip_cycles_per_flit = std::max(1, net.intercluster_degree());
  }
};

/// The statistics of the simulated network (not of the host): they repeat
/// exactly for a given seed.
struct SimStats {
  std::uint64_t completion_cycles = 0, total_hops = 0, events_processed = 0,
                queue_peak = 0, route_chunks = 0;
  bool operator==(const SimStats&) const = default;
};

SimStats sim_stats(const scg::EventSimResult& r) {
  return {r.completion_cycles, r.total_hops, r.telemetry.events_processed,
          r.telemetry.queue_peak, r.telemetry.route_chunks};
}

/// One simulation as a user of the lazy entry point runs it: a fresh policy
/// (cold route cache), then simulate_events.
struct SimOnce {
  scg::EventSimResult r;
  scg::RouteCacheStats cache;
  std::uint64_t t0 = 0, t1 = 0, t2 = 0;

  double wall_ns() const { return static_cast<double>(t2 - t0); }
};

SimOnce simulate_once(const SimSetup& s, std::span<const scg::TrafficPair> pairs,
                      Tracer& tracer) {
  SimOnce o;
  o.t0 = serve_now_ns();
  scg::GamePolicy policy(s.net);
  o.t1 = serve_now_ns();
  o.r = scg::simulate_events(s.g, s.offchip, pairs, policy, s.cfg);
  o.t2 = serve_now_ns();
  o.cache = policy.cache_stats();
  const std::uint64_t id = tracer.next_id();
  tracer.span("simulation", id, nullptr, o.t0, o.t2);
  tracer.span("policy", id, "simulation", o.t0, o.t1);
  tracer.span("simulate_events", id, "simulation", o.t1, o.t2);
  return o;
}

/// The route-hop total the scalar router predicts for `pairs` — an
/// independent check of the simulator's total_hops for any seed.
std::uint64_t scalar_hops(const scg::NetworkSpec& net,
                          std::span<const scg::TrafficPair> pairs) {
  std::uint64_t hops = 0;
  for (const scg::TrafficPair& p : pairs) {
    hops += static_cast<std::uint64_t>(
        scg::route_length(net, scg::Permutation::unrank(net.k(), p.src),
                          scg::Permutation::unrank(net.k(), p.dst)));
  }
  return hops;
}

/// The sim-layer metrics of one simulation.
void add_sim_layer(Run& run, const SimOnce& o) {
  Report& r = run.report;
  const std::uint64_t events = std::max<std::uint64_t>(1, o.r.telemetry.events_processed);
  const double wall = o.wall_ns();
  r.add_detail("sim.host_ns_per_event", "ns", wall / static_cast<double>(events));
  r.add_detail("sim.routing_share", "fraction",
               static_cast<double>(o.r.telemetry.routing_ns) / wall);
  const SimStats s = sim_stats(o.r);
  r.add_detail("sim.events_processed", "count", static_cast<double>(s.events_processed));
  r.add_detail("sim.queue_peak", "count", static_cast<double>(s.queue_peak));
  r.add_detail("sim.route_chunks", "count", static_cast<double>(s.route_chunks));
  r.add_detail("sim.completion_cycles", "cycles", static_cast<double>(s.completion_cycles));
  r.add_detail("sim.total_hops", "hops", static_cast<double>(s.total_hops));
}

/// Golden simulated statistics for one seed, from benchmark/golden.json.
std::optional<SimStats> load_golden(const std::string& path, std::uint64_t seed) {
  if (path.empty()) return std::nullopt;
  std::ifstream f(path);
  std::stringstream ss;
  ss << f.rdbuf();
  const std::string text = ss.str();
  auto field = [&](const char* key) -> std::optional<std::uint64_t> {
    const std::string k = std::string("\"") + key + "\"";
    const std::size_t at = text.find(k);
    if (at == std::string::npos) return std::nullopt;
    const std::size_t colon = text.find(':', at + k.size());
    if (colon == std::string::npos) return std::nullopt;
    return std::strtoull(text.c_str() + colon + 1, nullptr, 10);
  };
  const auto g_seed = field("seed");
  const auto cycles = field("completion_cycles");
  const auto hops = field("total_hops");
  const auto events = field("events_processed");
  if (!g_seed || !cycles || !hops || !events) {
    std::fprintf(stderr, "scg_bench: %s lacks seed/completion_cycles/"
                 "total_hops/events_processed\n", path.c_str());
    std::exit(2);
  }
  if (*g_seed != seed) return std::nullopt;
  SimStats s;
  s.completion_cycles = *cycles;
  s.total_hops = *hops;
  s.events_processed = *events;
  return s;
}

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

void serve_workload(Run& run, const ServeShape& shape) {
  const scg::NetworkSpec net = scg::make_complete_rotation_star(3, 3);
  std::mt19937_64 rng(run.opt.seed);
  const std::vector<scg::TrafficPair> pairs =
      shape.shift ? shift_pairs(net, kPairPool, kShiftDisplacements, rng)
                  : uniform_pairs(net.num_nodes(), kPairPool, rng);

  std::vector<double> setup;
  auto set_up = [&] {
    return timed_setup(setup, [&] {
      return std::make_unique<scg::RouteService>(net, service_config(shape));
    });
  };
  const std::unique_ptr<scg::RouteService> svc = set_up();
  ServeClient client(*svc, pairs, shape.open, rng(), run.tracer);
  ServeTrial tr;
  client.run(run.warmup_s(), Phase::kWarmup, tr);  // fills the cache
  account(run, client, tr);
  const double rss = peak_rss_mb();

  Report& r = run.report;
  std::vector<double> untraced_p50, traced_p50;
  const double trial_s = run.opt.trace ? run.trial_s() / 2 : run.trial_s();
  for (int t = 0; t < kTrials; ++t) {
    for (int i = 0; i < kSetupsPerTrial; ++i) set_up();
    client.run(trial_s, Phase::kMeasure, tr);
    account(run, client, tr);
    const std::uint64_t n = tr.latency.size();
    untraced_p50.push_back(ns_to_us(pct(tr.latency, 50)));
    if (!run.opt.trace) {
      r.add("throughput_per_s", "1/s", static_cast<double>(tr.ok) / tr.elapsed_s, tr.ok);
      r.add("latency_p50_us", "us", untraced_p50.back(), n);
      r.add("latency_p99_us", "us", ns_to_us(pct(tr.latency, 99)), n);
      continue;
    }
    run.tracer.on = true;
    const scg::ServiceStatsSnapshot before = svc->snapshot();
    client.run(trial_s, Phase::kTrace, tr);
    const scg::ServiceStatsSnapshot after = svc->snapshot();
    run.tracer.on = false;
    account(run, client, tr);
    traced_p50.push_back(ns_to_us(pct(tr.latency, 50)));
    add_serve_layer(run, tr, before, after);
    const double hits = static_cast<double>(after.cache.hits - before.cache.hits);
    const double misses = static_cast<double>(after.cache.misses - before.cache.misses);
    r.add("networks.cache_hit_rate", "fraction", hits / std::max(1.0, hits + misses));
    r.add("networks.cache_evictions_per_req", "1/req",
          static_cast<double>(after.cache.evictions - before.cache.evictions) /
              static_cast<double>(std::max<std::uint64_t>(1, tr.offered)));
  }

  svc->drain();
  const scg::ServiceStatsSnapshot snap = svc->snapshot();
  if (snap.offered != client.offered_total() || snap.in_flight != 0 ||
      snap.offered != snap.completed_ok + snap.shed_load + snap.shed_rate +
                          snap.rejected_closed) {
    run.violation("service conservation: offered != ok + shed + closed");
  }

  if (!run.opt.trace) {
    r.add("setup_s", "s", median_of(setup), setup.size());
    r.add("peak_rss_mb", "MB", rss);
    return;
  }
  r.add("trace_overhead", "fraction",
        median_of(traced_p50) / median_of(untraced_p50) - 1);
  run.tracer.on = true;
  const double occupancy = median_of(r.find("serve.batch_occupancy")->trials);
  layer_probes(run, net, pairs,
               static_cast<std::size_t>(std::clamp(std::lround(occupancy), 1L, 256L)));
  run.tracer.on = false;
}

void sim_workload(Run& run) {
  // Set-up: network, materialized graph and link classification.
  std::vector<double> setup;
  auto set_up = [&] {
    return timed_setup(setup, [] {
      return std::make_unique<SimSetup>(scg::make_macro_star(3, 2));
    });
  };
  const std::unique_ptr<SimSetup> s = set_up();
  const std::vector<scg::TrafficPair> pairs = scg::random_traffic_pairs(
      s->net.num_nodes(), kSimPacketsPerNode, run.opt.seed);
  const std::uint64_t want_hops = scalar_hops(s->net, pairs);
  const std::optional<SimStats> golden = load_golden(run.opt.golden, run.opt.seed);
  std::optional<SimStats> first;

  auto check = [&](const SimOnce& o) {
    const scg::EventSimResult& res = o.r;
    run.attempted += res.packets;
    run.failed += res.dropped;
    if (res.packets != pairs.size() || res.delivered != res.packets || res.truncated) {
      run.violation("simulation did not deliver every packet");
    }
    if (res.total_hops != want_hops) {
      run.violation("total_hops differs from the scalar router's hop count");
    }
    const SimStats st = sim_stats(res);
    if (!first) first = st;
    if (st != *first) run.violation("simulated statistics changed between repeats");
    if (golden && (st.completion_cycles != golden->completion_cycles ||
                   st.total_hops != golden->total_hops ||
                   st.events_processed != golden->events_processed)) {
      run.violation("simulated statistics differ from golden.json");
    }
  };
  /// Simulations back to back for `seconds` (at least one).
  auto trial = [&](double seconds, std::vector<SimOnce>& sims) {
    sims.clear();
    const std::uint64_t t0 = serve_now_ns();
    const std::uint64_t deadline = t0 + static_cast<std::uint64_t>(seconds * 1e9);
    do {
      sims.push_back(simulate_once(*s, pairs, run.tracer));
      check(sims.back());
    } while (serve_now_ns() < deadline);
    return static_cast<double>(serve_now_ns() - t0) * 1e-9;
  };
  auto wall_pct = [](const std::vector<SimOnce>& sims, std::uint64_t q) {
    std::vector<std::uint64_t> walls;
    for (const SimOnce& o : sims) walls.push_back(o.t2 - o.t0);
    return ns_to_us(pct(walls, q));
  };

  std::vector<SimOnce> sims;
  trial(run.warmup_s(), sims);
  const double rss = peak_rss_mb();

  Report& r = run.report;
  std::vector<double> untraced_p50, traced_p50;
  const double trial_s = run.opt.trace ? run.trial_s() / 2 : run.trial_s();
  for (int t = 0; t < kTrials; ++t) {
    for (int i = 0; i < kSetupsPerTrial; ++i) set_up();
    const double elapsed = trial(trial_s, sims);
    untraced_p50.push_back(wall_pct(sims, 50));
    if (!run.opt.trace) {
      const double packets = static_cast<double>(sims.size() * pairs.size());
      r.add("throughput_per_s", "1/s", packets / elapsed, sims.size());
      r.add("latency_p50_us", "us", untraced_p50.back(), sims.size());
      r.add("latency_p99_us", "us", wall_pct(sims, 99), sims.size());
      continue;
    }
    run.tracer.on = true;
    trial(trial_s, sims);
    run.tracer.on = false;
    traced_p50.push_back(wall_pct(sims, 50));
    for (const SimOnce& o : sims) {
      add_sim_layer(run, o);
      r.add("networks.cache_hit_rate", "fraction", o.r.telemetry.cache_hit_rate());
      r.add("networks.cache_evictions_per_req", "1/req",
            static_cast<double>(o.cache.evictions) / static_cast<double>(pairs.size()));
    }
  }

  if (!run.opt.trace) {
    r.add("setup_s", "s", median_of(setup), setup.size());
    r.add("peak_rss_mb", "MB", rss);
    return;
  }
  r.add("trace_overhead", "fraction",
        median_of(traced_p50) / median_of(untraced_p50) - 1);
  run.tracer.on = true;
  layer_probes(run, s->net, pairs, kProbeChunk);
  run.tracer.on = false;
}

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  for (std::string line; std::getline(f, line);) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// The full result document: every metric with its trial values, the
/// failed checks, and the host stamp.
bool write_result(const Run& run, bool correct, const std::string& path) {
#ifdef SCG_BENCH_CXX_FLAGS
  const char* flags = SCG_BENCH_CXX_FLAGS;
#else
  const char* flags = "";
#endif
  std::ofstream f(path);
  f << "{\n  \"workload\": " << quoted(run.opt.workload)
    << ",\n  \"seed\": " << run.opt.seed
    << ",\n  \"seconds\": " << num(run.opt.seconds)
    << ",\n  \"trace\": " << (run.opt.trace ? 1 : 0)
    << ",\n  \"correct\": " << (correct ? "true" : "false")
    << ",\n  \"attempted\": " << run.attempted
    << ",\n  \"failed\": " << run.failed << ",\n  \"violations\": [";
  for (std::size_t i = 0; i < run.violations.size(); ++i) {
    f << (i ? ", " : "") << quoted(run.violations[i]);
  }
  f << "],\n  \"metrics\": {";
  const std::vector<Metric>& ms = run.report.metrics();
  for (std::size_t i = 0; i < ms.size(); ++i) {
    const Metric& m = ms[i];
    f << (i ? "," : "") << "\n    " << quoted(m.name) << ": {\"value\": "
      << num(median_of(m.trials)) << ", \"unit\": " << quoted(m.unit)
      << ", \"min\": " << num(*std::min_element(m.trials.begin(), m.trials.end()))
      << ", \"max\": " << num(*std::max_element(m.trials.begin(), m.trials.end()))
      << ", \"samples\": " << m.samples << ", \"trials\": [";
    for (std::size_t t = 0; t < m.trials.size(); ++t) {
      f << (t ? ", " : "") << num(m.trials[t]);
    }
    f << "]}";
  }
  f << "\n  },\n  \"meta\": {\"nproc\": " << std::thread::hardware_concurrency()
    << ", \"cpu_model\": " << quoted(cpu_model())
    << ", \"compiler\": " << quoted(__VERSION__)
    << ", \"flags\": " << quoted(flags)
    << ", \"kernel_tier\": " << quoted(scg::kernel_tier_name(scg::active_kernel_tier()))
    << ", \"git_sha\": " << quoted(run.opt.sha)
    << ", \"seed\": " << run.opt.seed << "}\n}\n";
  return static_cast<bool>(f);
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "scg_bench: %s\nusage: scg_bench --workload "
               "serve-miss|serve-hit|serve-poisson|sim-mcmp --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE] [--golden FILE] "
               "[--out FILE] [--sha SHA]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0' || v.empty()) usage("--seed takes a whole number");
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(opt.seconds > 0 && opt.seconds <= 3600)) {
        usage("--seconds takes a number in (0, 3600]");
      }
    } else if (a == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      opt.trace = v == "1";
    } else if (a == "--trace-out") {
      opt.trace_out = v;
    } else if (a == "--golden") {
      opt.golden = v;
    } else if (a == "--out") {
      opt.out = v;
    } else if (a == "--sha") {
      opt.sha = v;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (opt.trace && opt.trace_out.empty()) {
    opt.trace_out = "trace-" + opt.workload + ".json";
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  Run run;
  run.opt = parse(argc, argv);
  const std::string& w = run.opt.workload;
  try {
    if (w == "serve-miss") {
      serve_workload(run, kServeMiss);
    } else if (w == "serve-hit") {
      serve_workload(run, kServeHit);
    } else if (w == "serve-poisson") {
      serve_workload(run, kServePoisson);
    } else if (w == "sim-mcmp") {
      sim_workload(run);
    } else {
      usage(("unknown workload '" + w + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "scg_bench: %s\n", e.what());
    return 1;
  }
  if (run.opt.trace) {
    if (run.tracer.write(run.opt.trace_out)) {
      std::printf("%s trace %s (%zu spans)\n", w.c_str(),
                  run.opt.trace_out.c_str(), run.tracer.size());
    } else {
      run.violation("cannot write " + run.opt.trace_out);
    }
  }

  // A shed, closed or wrong reply or a dropped packet fails the run as a
  // failed check does: no workload may fail an operation.
  const bool correct = run.violations.empty() && run.failed == 0;
  for (const std::string& v : run.violations) {
    std::fprintf(stderr, "scg_bench: check failed: %s\n", v.c_str());
  }
  if (run.failed > 0) {
    std::fprintf(stderr, "scg_bench: %llu of %llu operations failed\n",
                 static_cast<unsigned long long>(run.failed),
                 static_cast<unsigned long long>(run.attempted));
  }
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(run.attempted) +
                     ", \"failed\": " + std::to_string(run.failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : run.report.metrics()) {
    const double value = median_of(m.trials);
    std::printf("%s %s %s %s (min %s, max %s, trials %zu, samples %llu)\n",
                w.c_str(), m.name.c_str(), num(value).c_str(), m.unit.c_str(),
                num(*std::min_element(m.trials.begin(), m.trials.end())).c_str(),
                num(*std::max_element(m.trials.begin(), m.trials.end())).c_str(),
                m.trials.size(), static_cast<unsigned long long>(m.samples));
    if (m.detail) continue;
    json += (first ? "" : ", ") + quoted(m.name) + ": {\"value\": " + num(value) +
            ", \"unit\": " + quoted(m.unit) + "}";
    first = false;
  }
  std::printf("%s error_rate %s fraction (failed %llu of %llu attempted)\n",
              w.c_str(),
              num(static_cast<double>(run.failed) /
                  static_cast<double>(std::max<std::uint64_t>(1, run.attempted)))
                  .c_str(),
              static_cast<unsigned long long>(run.failed),
              static_cast<unsigned long long>(run.attempted));
  if (!run.opt.out.empty() && !write_result(run, correct, run.opt.out)) {
    std::fprintf(stderr, "scg_bench: cannot write %s\n", run.opt.out.c_str());
    return 1;
  }
  std::printf("%s}}\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
