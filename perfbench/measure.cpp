// pb_measure — the benchmark's measuring process (perfbench/run.py builds
// and runs it; see perfbench/NOTES.md for the workloads and metrics).
//
//   pb_measure --workload NAME --seed S --seconds T --trace 0|1
//             --node-bin PATH [--t0-ns NS] [--trace-out PATH] [--setup-only]
//
// One closed-loop client runs one agreement instance at a time. Instance
// i runs at seed offset instance_offset(S, i); the program only ever sees
// the generated (spec, seed_offset). Before any timing counts, the
// workload's pinned fingerprint at seed offset 0 is reproduced (for
// tcp_fleet: oracle parity plus the pinned oracle fingerprint).
//
// --trace 0 measures the end-to-end metrics for T seconds (and at least
// kBitsInstances instances). --trace 1 re-runs the first kBitsInstances
// instances with spans recorded from this file around the calls into each
// layer, probes the crypto, pool and net layers directly, writes the
// Chrome trace-event file and reports the per-layer metrics. No tracing
// lives inside the program: the layers are reached only through public
// hooks (TournamentObserver, Transport + ScopedRunEnv, launch_local).
//
// Output: one JSON line {"correct", "attempted", "failed", "setup_s",
// "metrics", "errors", "info"}; exit code 0 when every gate held.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "adversary/strategies.h"
#include "common/pool.h"
#include "common/simd.h"
#include "core/a2e.h"
#include "core/almost_everywhere.h"
#include "crypto/scheme_cache.h"
#include "net/network.h"
#include "sim/protocol.h"
#include "sim/report.h"
#include "sim/scenario.h"
#include "trace.h"
#include "transport/launch.h"
#include "transport/transport.h"

namespace {

using perfbench::Clock;
using perfbench::Tracer;
using namespace ba;

// ------------------------------------------------------------ workloads --

struct Workload {
  const char* name;
  const char* scenario;  ///< registry base
  std::vector<std::pair<const char*, const char*>> overrides;
  std::size_t workers;     ///< pool workers (per node for tcp_fleet)
  std::uint64_t pinned_fp; ///< run_scenario fingerprint at seed offset 0
  std::size_t nodes;       ///< ba_node processes; 0 = in-process
};

// Fingerprints are the in-process simulator's at seed offset 0: quickstart
// is the repository's pinned parity value, and the n=64 quickstart is the
// transport parity test's oracle fingerprint.
const Workload kWorkloads[] = {
    {"everywhere_lying", "quickstart", {}, 4, 0x34195f488c14c1b7ULL, 0},
    {"tcp_fleet", "quickstart", {{"n", "64"}}, 1, 0xcc0336754bc0c7c2ULL, 4},
};

/// The first kBitsInstances seeded instances always run: the bit metrics
/// are their mean, so they are a pure function of --seed, and the traced
/// run replays exactly these instances.
constexpr std::size_t kBitsInstances = 10;
/// Instances the traced run also times at 1 and at 4 pool workers.
constexpr std::size_t kSpeedupInstances = 2;
/// Election levels reported as core.level_ms.<L>: levels 2..kMaxLevel.
constexpr std::size_t kMaxLevel = 3;
/// Committee shape of every share flow (leaf k1 = uplink d_up = 12, t = 3).
constexpr std::size_t kCommittee = 12;
constexpr std::size_t kPrivacyT = 3;
/// Words per reconstruct/deal call in the crypto probes.
constexpr std::size_t kProbeWords = 32;
/// Envelopes of the busiest round kept for the delivery replay.
constexpr std::size_t kCaptureCap = 200000;
constexpr int kFleetTimeoutMs = 20000;

std::uint64_t instance_offset(std::uint64_t seed, std::size_t i) {
  std::uint64_t st = seed * 0x9E3779B97F4A7C15ULL + i + 1;
  return 1 + splitmix64(st) % 1000000;
}

sim::ScenarioSpec workload_spec(const Workload& w) {
  sim::ScenarioSpec s = sim::ScenarioRegistry::get(w.scenario);
  for (const auto& kv : w.overrides) s.apply(kv.first, kv.second);
  s.workers = w.workers;
  return s;
}

// ------------------------------------------------------------- helpers --

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double cpu_seconds(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Repeats `body` (which does `units` units of work) in batches of at
/// least 20 ms and returns the median nanoseconds per unit over 7 batches.
template <typename Body>
double ns_per_unit(std::size_t units, Body&& body) {
  body();  // warm caches and lazy precompute
  std::vector<double> per;
  for (int batch = 0; batch < 7; ++batch) {
    std::size_t reps = 0;
    const auto t0 = Clock::now();
    do {
      body();
      ++reps;
    } while (seconds_since(t0) < 0.02);
    per.push_back(1e9 * seconds_since(t0) /
                  static_cast<double>(reps * units));
  }
  return median(per);
}

// ------------------------------------------------------ layer hooks --

/// net probe: a Transport that keeps delivery untouched, counts on_send
/// calls, timestamps every sync_round barrier and keeps a copy of the
/// busiest round's envelopes (up to kCaptureCap) for the delivery replay.
class NetProbe final : public Transport {
 public:
  const char* backend_name() const override { return "perfbench-probe"; }
  void on_attach(std::size_t) override {}
  void on_send(const Envelope& e) override {
    ++envelopes_;
    ++round_count_;
    if (round_.size() < kCaptureCap) round_.push_back(e);
  }
  void sync_round(std::uint64_t, std::vector<std::vector<Envelope>>&) override {
    barriers.push_back(Clock::now());
    if (round_count_ > busiest_count_) {
      busiest_count_ = round_count_;
      busiest.swap(round_);
    }
    round_.clear();
    round_count_ = 0;
  }
  const TransportStats& stats() const override { return stats_; }

  std::uint64_t envelopes() const { return envelopes_; }

  std::vector<Clock::time_point> barriers;
  std::vector<Envelope> busiest;

 private:
  TransportStats stats_;
  std::uint64_t envelopes_ = 0;
  std::uint64_t round_count_ = 0;
  std::uint64_t busiest_count_ = 0;
  std::vector<Envelope> round_;
};

/// tree/election probe: the workload's own adversary class plus a no-op
/// TournamentObserver that timestamps each elected level.
class LevelClock final : public StaticMaliciousAdversary,
                         public TournamentObserver {
 public:
  using StaticMaliciousAdversary::StaticMaliciousAdversary;
  void on_level_elected(const TournamentTree&, std::size_t level,
                        const std::vector<std::vector<std::uint32_t>>&,
                        Network&) override {
    marks.emplace_back(level, Clock::now());
  }

  std::vector<std::pair<std::size_t, Clock::time_point>> marks;
};

// ------------------------------------------------- untraced instances --

struct Instance {
  std::uint64_t offset = 0;
  double decide_s = 0.0;  ///< wall per agreement (tcp: slowest node)
  double cpu_s = 0.0;     ///< all threads (tcp: all node processes)
  bool ok = false;        ///< all-good agreement + validity (+ parity)
  std::uint64_t fingerprint = 0;
  std::uint64_t max_bits = 0;
  std::uint64_t total_bits = 0;
  std::uint64_t total_msgs = 0;
  std::uint64_t node_peak_rss_kb = 0;  ///< tcp: largest node
  // tcp_fleet only
  double launch_ms = 0.0;
  double oracle_ms = 0.0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t frames_sent = 0;
};

bool report_ok(const sim::RunReport& r) {
  return r.all_good_agree == 1 && r.validity != 0;
}

double extra(const sim::RunReport& r, const char* key) {
  for (const auto& kv : r.extras)
    if (kv.first == key) return kv.second;
  return 0.0;
}

struct Context {
  const Workload* w = nullptr;
  sim::ScenarioSpec spec;
  std::string node_bin;
  std::vector<std::string> errors;  ///< failed gates: the run is incorrect
  std::vector<std::string> notes;   ///< failed instances, for diagnosis
};

Instance run_in_process(const sim::ScenarioSpec& spec, std::uint64_t off) {
  Instance in;
  in.offset = off;
  const double c0 = cpu_seconds(RUSAGE_SELF);
  const auto t0 = Clock::now();
  const sim::RunReport r = sim::run_scenario(spec, off);
  in.decide_s = seconds_since(t0);
  in.cpu_s = cpu_seconds(RUSAGE_SELF) - c0;
  in.ok = report_ok(r);
  in.fingerprint = r.fingerprint;
  in.max_bits = r.max_bits_good;
  in.total_bits = r.total_bits_good;
  in.total_msgs = r.total_msgs_good;
  return in;
}

Instance run_fleet(Context& ctx, std::uint64_t off, std::size_t launch_no) {
  transport::LaunchConfig cfg;
  cfg.node_bin = ctx.node_bin;
  cfg.nodes = ctx.w->nodes;
  cfg.spec = ctx.spec;
  cfg.seed_offset = off;
  // A fresh port block per launch, so no launch waits on the previous
  // one's sockets, kept below Linux's default ephemeral range
  // (32768-60999) so no outgoing connection can already hold it.
  cfg.port_base = static_cast<std::uint16_t>(
      10000 + (static_cast<std::uint32_t>(::getpid()) * 131u +
               8u * static_cast<std::uint32_t>(launch_no)) % 22000u);
  cfg.timeout_ms = kFleetTimeoutMs;
  cfg.timing = true;

  Instance in;
  in.offset = off;
  const double c0 = cpu_seconds(RUSAGE_CHILDREN);
  const auto t0 = Clock::now();
  const transport::LaunchOutcome o = transport::launch_local(cfg);
  in.launch_ms = 1e3 * seconds_since(t0);
  in.cpu_s = cpu_seconds(RUSAGE_CHILDREN) - c0;
  bool nodes_ok = true;
  for (const auto& node : o.nodes) {
    nodes_ok = nodes_ok && node.parsed && node.exit_code == 0 && !node.timed_out;
    in.decide_s = std::max(in.decide_s, node.report.wall_ms / 1e3);
    in.node_peak_rss_kb = std::max(in.node_peak_rss_kb, node.report.peak_rss_kb);
    in.bytes_sent += static_cast<std::uint64_t>(extra(node.report, "transport_bytes_sent"));
    in.frames_sent += static_cast<std::uint64_t>(extra(node.report, "transport_frames_sent"));
  }
  in.oracle_ms = o.oracle.wall_ms;
  in.ok = nodes_ok && o.parity() && report_ok(o.oracle);
  in.fingerprint = o.oracle.fingerprint;
  in.max_bits = o.oracle.max_bits_good;
  in.total_bits = o.oracle.total_bits_good;
  in.total_msgs = o.oracle.total_msgs_good;
  // A node that crashed or timed out is a failed instance; nodes that all
  // finished yet disagree with the oracle are a correctness failure.
  for (const std::string& e : o.errors)
    (nodes_ok ? ctx.errors : ctx.notes)
        .push_back("tcp_fleet seed_offset " + std::to_string(off) + ": " + e);
  return in;
}

Instance run_instance(Context& ctx, std::uint64_t off, std::size_t i) {
  return ctx.w->nodes > 0 ? run_fleet(ctx, off, i)
                          : run_in_process(ctx.spec, off);
}

/// The correctness gate every run passes before timing: the pinned
/// fingerprint at seed offset 0, reached with agreement.
Instance gate(Context& ctx) {
  const Instance g = run_instance(ctx, 0, 0);
  if (g.fingerprint != ctx.w->pinned_fp)
    ctx.errors.push_back(std::string(ctx.w->name) +
                         ": fingerprint at seed offset 0 is " +
                         hex(g.fingerprint) + ", pinned " +
                         hex(ctx.w->pinned_fp));
  if (!g.ok)
    ctx.errors.push_back(std::string(ctx.w->name) +
                         ": gate instance at seed offset 0 did not agree");
  return g;
}

// --------------------------------------------------- traced instances --

struct Traced {
  std::uint64_t offset = 0;
  bool ok = false;  ///< all-good agreement + validity
  double ae_ms = 0.0, root_ms = 0.0, a2e_ms = 0.0, wall_ms = 0.0;
  double cpu_s = 0.0;
  std::map<std::size_t, double> level_ms;
  std::uint64_t ae_total_bits = 0, a2e_total_bits = 0, a2e_max_bits = 0;
  std::uint64_t max_bits = 0, total_bits = 0, total_msgs = 0;
  std::uint64_t fingerprint = 0, rounds = 0, envelopes = 0;
  std::vector<double> round_ms;
  double deliver_ns = 0.0;  ///< replay of the busiest captured round
};

/// Round spans between consecutive sync_round barriers, cut at the
/// phase/level boundaries so every span nests inside its level.
void emit_rounds(Tracer& tr, const std::vector<Clock::time_point>& barriers,
                 std::vector<Clock::time_point> cuts, Clock::time_point begin,
                 std::uint64_t id, std::uint64_t off, std::vector<double>& round_ms) {
  std::sort(cuts.begin(), cuts.end());
  Clock::time_point prev = begin;
  std::size_t c = 0;
  for (std::size_t r = 0; r < barriers.size(); ++r) {
    round_ms.push_back(ms_between(prev, barriers[r]));
    const std::string name = "round " + std::to_string(r);
    Clock::time_point from = prev;
    while (c < cuts.size() && cuts[c] <= barriers[r]) {
      if (cuts[c] > from) {
        tr.span(name, "round", from, cuts[c], Tracer::kInstanceTrack, id, off);
        from = cuts[c];
      }
      ++c;
    }
    tr.span(name, "round", from, barriers[r], Tracer::kInstanceTrack, id, off);
    prev = barriers[r];
  }
}

/// Captured traffic replayed through Network::send + advance_round.
double deliver_ns_per_envelope(std::size_t n, const std::vector<Envelope>& env) {
  if (env.empty()) return 0.0;
  std::vector<double> per;
  for (int rep = 0; rep < 7; ++rep) {
    Network net(n, 0);
    std::vector<Payload> payloads;
    payloads.reserve(env.size());
    for (const Envelope& e : env) payloads.push_back(e.payload);
    const auto t0 = Clock::now();
    for (std::size_t k = 0; k < env.size(); ++k)
      net.send(env[k].from, env[k].to, std::move(payloads[k]));
    net.advance_round();
    per.push_back(1e9 * seconds_since(t0) / static_cast<double>(env.size()));
  }
  return median(per);
}

/// Algorithm 4 composed from its two phases on one Network, exactly as
/// EverywhereBA::run wires them, with the adapter's fingerprint digest.
Traced run_composed(const Context& ctx, std::uint64_t off, std::uint64_t id,
                    Tracer& tr) {
  const sim::ScenarioSpec& s = ctx.spec;
  BA_REQUIRE(s.scheduler == sim::SchedulerKind::kLockstep,
             "the traced composition covers lockstep specs only");
  Pool::set_threads(s.workers);
  NetProbe probe;
  ScopedRunEnv env(RunEnv{&probe, nullptr});
  Traced t;
  t.offset = off;

  const double c0 = cpu_seconds(RUSAGE_SELF);
  const auto t_begin = Clock::now();
  Network net(s.n, s.n / s.budget_div);
  net.set_transport(current_run_env()->transport);
  BA_REQUIRE(s.adversary == sim::AdversaryKind::kStaticMalicious,
             "the traced composition covers the static-malicious adversary");
  LevelClock adversary(s.corrupt_fraction, s.adversary_seed + off);
  const std::vector<std::uint8_t> inputs = sim::make_bit_inputs(s, off);
  const std::uint64_t seed = s.protocol_seed + off;

  AlmostEverywhereBA ae_proto(sim::tournament_params(s), seed);
  const AeResult ae = ae_proto.run(net, adversary, inputs, true);
  const auto t_ae = Clock::now();

  std::vector<std::uint64_t> ae_bits(s.n);
  for (ProcId p = 0; p < s.n; ++p) ae_bits[p] = net.ledger().bits_sent(p);

  A2EParams a2e_params = A2EParams::laptop_scale(s.n);
  a2e_params.repeats = std::min(
      a2e_params.repeats,
      ae.seq_views.empty() ? std::size_t{1} : ae.seq_views.size());
  std::vector<std::uint64_t> beliefs(s.n);
  for (ProcId p = 0; p < s.n; ++p) beliefs[p] = ae.decision[p];
  const auto* views = &ae.seq_views;
  auto label_view = [views](std::size_t loop, ProcId p) -> std::uint64_t {
    if (views->empty()) return 0;
    return (*views)[loop % views->size()][p];
  };
  AlmostToEverywhere a2e_proto(a2e_params, seed ^ 0xA2E);
  const A2EResult a2e = a2e_proto.run(net, adversary, beliefs,
                                      ae.decided_bit ? 1 : 0, label_view);
  const auto t_end = Clock::now();
  t.cpu_s = cpu_seconds(RUSAGE_SELF) - c0;

  const bool all_good_agree = a2e.all_good_agree;
  sim::RunDigest d;
  d.mix(ae.decided_bit ? 1 : 0);
  d.mix(all_good_agree ? 1 : 0);
  d.mix(ae.validity ? 1 : 0);
  d.mix(net.round());
  d.mix_double(ae.agreement_fraction);
  for (auto bit : ae.decision) d.mix(bit);
  for (auto m : a2e.message) d.mix(m);
  sim::mix_run_ledger(d, net);
  t.fingerprint = d.h;
  t.ok = all_good_agree && ae.validity;

  const auto& mask = net.corrupt_mask();
  const BitLedger& ledger = net.ledger();
  t.max_bits = ledger.max_bits_sent(mask, false);
  t.total_bits = ledger.total_bits_sent(mask, false);
  t.total_msgs = ledger.total_msgs_sent(mask, false);
  for (ProcId p = 0; p < s.n; ++p) {
    if (mask[p]) continue;
    const std::uint64_t later = ledger.bits_sent(p) - ae_bits[p];
    t.ae_total_bits += ae_bits[p];
    t.a2e_total_bits += later;
    t.a2e_max_bits = std::max(t.a2e_max_bits, later);
  }
  t.rounds = net.round();
  t.envelopes = probe.envelopes();

  // Spans: instance > phase (ae, a2e) > level (2..L-1, root) > round.
  t.wall_ms = ms_between(t_begin, t_end);
  t.ae_ms = ms_between(t_begin, t_ae);
  t.a2e_ms = ms_between(t_ae, t_end);
  tr.span("instance", "instance", t_begin, t_end, Tracer::kInstanceTrack, id, off);
  tr.span("ae", "phase", t_begin, t_ae, Tracer::kInstanceTrack, id, off);
  tr.span("a2e", "phase", t_ae, t_end, Tracer::kInstanceTrack, id, off);
  std::vector<Clock::time_point> cuts{t_ae};
  Clock::time_point from = t_begin;
  for (const auto& [level, at] : adversary.marks) {
    t.level_ms[level] = ms_between(from, at);
    tr.span("level " + std::to_string(level), "level", from, at,
            Tracer::kInstanceTrack, id, off);
    cuts.push_back(at);
    from = at;
  }
  t.root_ms = ms_between(from, t_ae);
  tr.span("root", "level", from, t_ae, Tracer::kInstanceTrack, id, off);
  emit_rounds(tr, probe.barriers, cuts, t_begin, id, off, t.round_ms);

  const auto r0 = Clock::now();
  t.deliver_ns = deliver_ns_per_envelope(s.n, probe.busiest);
  tr.span("delivery replay", "net", r0, Clock::now(), Tracer::kProbeTrack, id, off);
  return t;
}

// ---------------------------------------------------------- probes --

struct CryptoProbe {
  double dirty_ns = 0.0, clean_ns = 0.0, deal_ns = 0.0;
};

/// RobustDecoder::reconstruct_into and CachedScheme dealing at the share
/// flows' committee shape; `lying` share positions carry garbage in every
/// word of the dirty probe. Decoded words are checked against the secret.
CryptoProbe probe_crypto(std::size_t lying, Context& ctx) {
  Rng rng(0xC0DE);
  const CachedScheme scheme(kCommittee, kPrivacyT);
  std::vector<Fp> secret(kProbeWords);
  for (auto& f : secret) f = Fp(rng.next());
  std::vector<VectorShare> shares;
  scheme.deal_into(secret, rng, shares);

  std::vector<Fp> xs(kCommittee);
  for (std::size_t i = 0; i < kCommittee; ++i) xs[i] = Fp(shares[i].x);
  const RobustDecoder decoder(xs, kPrivacyT);
  std::vector<VectorShare> dirty = shares;
  for (std::size_t pos : rng.sample_without_replacement(kCommittee, lying))
    for (auto& y : dirty[pos].ys) y = Fp(rng.next());

  RobustDecoder::Scratch scratch;
  std::vector<Fp> out(kProbeWords);
  auto decode = [&](const std::vector<VectorShare>& sh) {
    std::vector<FpSpan> spans(kCommittee);
    for (std::size_t i = 0; i < kCommittee; ++i)
      spans[i] = FpSpan{sh[i].ys.data(), sh[i].ys.size()};
    return [&decoder, &scratch, &out, spans] {
      if (!decoder.reconstruct_into(spans.data(), spans.size(), kProbeWords,
                                    out.data(), scratch))
        out.assign(kProbeWords, Fp(0));
    };
  };
  auto check = [&](const char* what) {
    if (out != secret)
      ctx.errors.push_back(std::string("crypto probe: ") + what +
                           " decode returned the wrong secret");
  };

  CryptoProbe p;
  auto clean_call = decode(shares);
  p.clean_ns = ns_per_unit(kProbeWords, clean_call);
  check("clean");
  auto dirty_call = decode(dirty);
  p.dirty_ns = ns_per_unit(kProbeWords, dirty_call);
  check("dirty");
  CachedScheme::DealScratch deal_scratch;
  std::vector<VectorShare> dealt;
  p.deal_ns = ns_per_unit(kProbeWords, [&] {
    scheme.deal_into(secret, rng, dealt, deal_scratch);
  });
  return p;
}

/// Network::charge_batch, the accounting-only path A2E and the share
/// flows use instead of materialised envelopes: sender-major charges to
/// random receivers, flushed by advance_round. Nanoseconds per message.
double probe_charge_ns_per_msg(std::size_t n) {
  constexpr std::size_t kPerSender = 64;
  Rng rng(0xC4A2);
  std::vector<ProcId> to(n * kPerSender);
  for (auto& q : to) q = static_cast<ProcId>(rng.below(n));
  Network net(n, 0);
  return ns_per_unit(to.size(), [&] {
    for (std::size_t k = 0; k < to.size(); ++k)
      net.charge_batch(static_cast<ProcId>(k / kPerSender), to[k], 64);
    net.advance_round();
  });
}

/// Pool::for_each dispatch cost with a trivial body, microseconds per call.
double probe_pool_dispatch_us(std::size_t workers) {
  Pool::set_threads(workers);
  std::vector<std::uint64_t> sink(256, 0);
  return 1e-3 * ns_per_unit(1, [&sink] {
    Pool::for_each(sink.size(), [&sink](std::size_t i, std::size_t) {
      sink[i] += i;
    });
  });
}

// ------------------------------------------------------------ output --

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string metrics_json(const std::vector<Metric>& ms) {
  std::ostringstream os;
  os << '{';
  for (std::size_t i = 0; i < ms.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", ms[i].value);
    os << (i ? "," : "") << '"' << ms[i].name << "\":{\"value\":" << buf
       << ",\"unit\":\"" << ms[i].unit << "\"}";
  }
  os << '}';
  return os.str();
}

std::string json_escape(const std::string& s) {
  std::string o;
  for (char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      o += ' ';
      continue;
    }
    o += c;
  }
  return o;
}

void print_result(const Context& ctx, std::size_t attempted, std::size_t failed,
                  double setup_s, const std::vector<Metric>& metrics,
                  const std::string& info) {
  std::ostringstream os;
  char setup[64];
  std::snprintf(setup, sizeof setup, "%.17g", setup_s);
  os << "{\"correct\":" << (ctx.errors.empty() ? "true" : "false")
     << ",\"attempted\":" << attempted << ",\"failed\":" << failed
     << ",\"setup_s\":" << setup << ",\"metrics\":" << metrics_json(metrics)
     << ",\"errors\":[";
  for (std::size_t i = 0; i < ctx.errors.size(); ++i)
    os << (i ? "," : "") << '"' << json_escape(ctx.errors[i]) << '"';
  os << "],\"notes\":[";
  for (std::size_t i = 0; i < ctx.notes.size(); ++i)
    os << (i ? "," : "") << '"' << json_escape(ctx.notes[i]) << '"';
  os << "],\"info\":" << info << "}\n";
  std::fputs(os.str().c_str(), stdout);
  std::fflush(stdout);
}

/// The info object: measured host facts, the workload's shape, then
/// `extra` (comma-separated JSON members, may be empty).
std::string info_json(const Context& ctx, const std::string& extra) {
  std::ostringstream os;
  os << "{\"workload\":\"" << ctx.w->name << "\",\"nproc\":"
     << sysconf(_SC_NPROCESSORS_ONLN) << ",\"simd\":\"" << simd::backend()
     << "\",\"build_type\":\"" << PB_BUILD_TYPE << "\",\"workers\":"
     << ctx.w->workers << ",\"nodes\":" << ctx.w->nodes
     << (extra.empty() ? "" : ",") << extra << '}';
  return os.str();
}

// ------------------------------------------------------------ modes --

int run_untraced(Context& ctx, std::uint64_t seed, double seconds,
                 double setup_s, bool setup_only) {
  if (setup_only) {
    print_result(ctx, 1, 0, setup_s, {}, info_json(ctx, ""));
    return ctx.errors.empty() ? 0 : 1;
  }
  std::vector<Instance> done;
  const auto loop_start = Clock::now();
  for (std::size_t i = 0;
       i < kBitsInstances || seconds_since(loop_start) < seconds; ++i)
    done.push_back(run_instance(ctx, instance_offset(seed, i), i + 1));
  const double loop_s = seconds_since(loop_start);

  std::size_t ok = 0;
  std::vector<double> decide, cpu, node_rss;
  const double completed = static_cast<double>(done.size());
  for (const Instance& in : done) {
    ok += in.ok ? 1 : 0;
    decide.push_back(in.decide_s);
    cpu.push_back(in.cpu_s);
    node_rss.push_back(static_cast<double>(in.node_peak_rss_kb));
  }
  std::uint64_t max_bits = 0, total_bits = 0;
  for (std::size_t i = 0; i < kBitsInstances; ++i) {
    max_bits += done[i].max_bits;
    total_bits += done[i].total_bits;
  }
  const double k = static_cast<double>(kBitsInstances);
  const double rss_kb = ctx.w->nodes > 0
                            ? median(node_rss)
                            : static_cast<double>(sim::current_peak_rss_kb());
  const std::vector<Metric> metrics = {
      {"agreements_per_s", completed / loop_s, "1/s"},
      {"decide_s_p50", median(decide), "s"},
      {"cpu_s_per_agreement", median(cpu), "s"},
      {"max_bits_good", static_cast<double>(max_bits) / k, "bits"},
      {"total_bits_good", static_cast<double>(total_bits) / k, "bits"},
      {"peak_rss_mb", rss_kb / 1024.0, "MB"},
      {"setup_s", setup_s, "s"},
  };
  // fail_rate rides in the info block: as a metric it would read 0 on
  // most runs, and the result's failed/attempted counts already carry it.
  // The failed seed offsets make each miss replayable with ba_run.
  std::ostringstream extra;
  extra.precision(17);
  extra << "\"fail_rate\":{\"value\":"
        << static_cast<double>(done.size() - ok) / completed
        << ",\"unit\":\"share\"},\"failed_offsets\":[";
  bool first = true;
  for (const Instance& in : done)
    if (!in.ok) {
      extra << (first ? "" : ",") << in.offset;
      first = false;
    }
  extra << ']';
  print_result(ctx, done.size(), done.size() - ok, setup_s, metrics,
               info_json(ctx, extra.str()));
  return ctx.errors.empty() ? 0 : 1;
}

int run_traced_mode(Context& ctx, std::uint64_t seed, const Instance& g,
                    const std::string& trace_out) {
  Tracer tr;
  // The traced path must reproduce run_scenario at seed offset 0.
  {
    Tracer scratch;
    const Traced t0 = run_composed(ctx, 0, 0, scratch);
    if (t0.fingerprint != g.fingerprint || t0.max_bits != g.max_bits ||
        t0.total_bits != g.total_bits || t0.total_msgs != g.total_msgs)
      ctx.errors.push_back("traced path at seed offset 0 diverges from "
                           "run_scenario: fingerprint " + hex(t0.fingerprint) +
                           " vs " + hex(g.fingerprint));
  }

  std::vector<Traced> runs;
  std::vector<Instance> fleet;
  std::vector<double> t1, t4, overhead_s;
  for (std::size_t i = 0; i < kBitsInstances; ++i) {
    const std::uint64_t off = instance_offset(seed, i);
    runs.push_back(run_composed(ctx, off, i, tr));
    const Traced& t = runs.back();
    if (t.ae_total_bits + t.a2e_total_bits != t.total_bits)
      ctx.errors.push_back("per-phase bits do not sum to total_bits_good at "
                           "seed offset " + std::to_string(off));
    // Untraced twins right after the traced instance: at the workload's
    // worker count for the tracing overhead, and for the first
    // kSpeedupInstances at 1 and at 4 workers for the pool speedup.
    std::vector<std::size_t> counts{ctx.spec.workers};
    if (i < kSpeedupInstances) counts = {1, 4};
    for (std::size_t workers : counts) {
      sim::ScenarioSpec s = ctx.spec;
      s.workers = workers;
      const auto a = Clock::now();
      const sim::RunReport r = sim::run_scenario(s, off);
      const double wall = seconds_since(a);
      if (i < kSpeedupInstances) (workers == 1 ? t1 : t4).push_back(wall);
      if (workers == ctx.spec.workers)
        overhead_s.push_back(t.wall_ms / 1e3 - wall);
      tr.span("untraced run, " + std::to_string(workers) + " worker(s)",
              "pool", a, Clock::now(), Tracer::kProbeTrack, i, off);
      if (r.fingerprint != t.fingerprint)
        ctx.errors.push_back("untraced run at " + std::to_string(workers) +
                             " worker(s) disagrees with the traced path at "
                             "seed offset " + std::to_string(off));
    }
    if (ctx.w->nodes > 0) {
      const auto f0 = Clock::now();
      fleet.push_back(run_fleet(ctx, off, i + 1));
      tr.span("tcp launch", "transport", f0, Clock::now(),
              Tracer::kInstanceTrack, i, off);
      if (fleet.back().fingerprint != t.fingerprint)
        ctx.errors.push_back("tcp oracle and traced path disagree at seed "
                             "offset " + std::to_string(off));
    }
  }

  const double trace_overhead_s = median(overhead_s);

  const std::size_t lying = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::lround(ctx.spec.corrupt_fraction * kCommittee)));
  auto p0 = Clock::now();
  const CryptoProbe crypto = probe_crypto(lying, ctx);
  tr.span("crypto probe", "crypto", p0, Clock::now(), Tracer::kProbeTrack, 0, 0);
  p0 = Clock::now();
  const double dispatch_us = probe_pool_dispatch_us(ctx.spec.workers);
  tr.span("pool dispatch probe", "pool", p0, Clock::now(), Tracer::kProbeTrack, 0, 0);
  p0 = Clock::now();
  Pool::set_threads(ctx.spec.workers);
  const double charge_ns = probe_charge_ns_per_msg(ctx.spec.n);
  tr.span("charge_batch probe", "net", p0, Clock::now(), Tracer::kProbeTrack, 0, 0);

  auto med = [&runs](auto field) {
    std::vector<double> v;
    for (const Traced& t : runs) v.push_back(field(t));
    return median(v);
  };
  const double k = static_cast<double>(runs.size());
  std::uint64_t ae_bits = 0, a2e_bits = 0, a2e_max = 0, max_bits = 0,
                total_bits = 0;
  double cpu = 0.0, wall = 0.0;
  std::vector<double> round_ms;
  for (const Traced& t : runs) {
    ae_bits += t.ae_total_bits;
    a2e_bits += t.a2e_total_bits;
    a2e_max += t.a2e_max_bits;
    max_bits += t.max_bits;
    total_bits += t.total_bits;
    cpu += t.cpu_s;
    wall += t.wall_ms / 1e3;
    round_ms.insert(round_ms.end(), t.round_ms.begin(), t.round_ms.end());
  }
  std::vector<Metric> m = {
      {"core.ae_ms", med([](const Traced& t) { return t.ae_ms; }), "ms"}};
  for (std::size_t lvl = 2; lvl <= kMaxLevel; ++lvl)
    m.push_back({"core.level_ms." + std::to_string(lvl), med([lvl](const Traced& t) {
                   auto it = t.level_ms.find(lvl);
                   return it == t.level_ms.end() ? 0.0 : it->second;
                 }),
                 "ms"});
  for (const Traced& t : runs)
    for (const auto& lv : t.level_ms)
      if (lv.first > kMaxLevel)
        ctx.errors.push_back("tree has election level " +
                             std::to_string(lv.first) +
                             " beyond the reported core.level_ms set");
  const double envelopes = med([](const Traced& t) { return double(t.envelopes); });
  const double msgs = med([](const Traced& t) { return double(t.total_msgs); });
  m.insert(m.end(), {
      {"core.root_ms", med([](const Traced& t) { return t.root_ms; }), "ms"},
      {"core.a2e_ms", med([](const Traced& t) { return t.a2e_ms; }), "ms"},
      {"core.a2e_max_bits", static_cast<double>(a2e_max) / k, "bits"},
      {"core.ae_total_bits", static_cast<double>(ae_bits) / k, "bits"},
      {"core.a2e_total_bits", static_cast<double>(a2e_bits) / k, "bits"},
      {"net.rounds", med([](const Traced& t) { return double(t.rounds); }), "count"},
      {"net.round_ms_p50", median(round_ms), "ms"},
      {"net.round_ms_max",
       round_ms.empty() ? 0.0 : *std::max_element(round_ms.begin(), round_ms.end()),
       "ms"},
      {"net.envelopes", envelopes, "count"},
      {"net.envelope_share", msgs > 0 ? envelopes / msgs : 0.0, "ratio"},
      {"net.deliver_ns_per_envelope", med([](const Traced& t) { return t.deliver_ns; }), "ns"},
      {"net.charge_ns_per_msg", charge_ns, "ns"},
      {"crypto.decode_dirty_ns_per_word", crypto.dirty_ns, "ns"},
      {"crypto.decode_clean_ns_per_word", crypto.clean_ns, "ns"},
      {"crypto.deal_ns_per_word", crypto.deal_ns, "ns"},
      {"pool.cpu_util",
       wall > 0 ? cpu / (wall * static_cast<double>(ctx.spec.workers)) : 0.0,
       "ratio"},
      {"pool.speedup_4v1", median(t4) > 0 ? median(t1) / median(t4) : 0.0, "x"},
      {"pool.dispatch_us", dispatch_us, "us"},
  });
  std::vector<double> node_ms, overhead_ms, spawn_ms, bytes, frames;
  for (const Instance& f : fleet) {
    node_ms.push_back(1e3 * f.decide_s);
    overhead_ms.push_back(1e3 * f.decide_s - f.oracle_ms);
    spawn_ms.push_back(f.launch_ms - f.oracle_ms - 1e3 * f.decide_s);
    bytes.push_back(static_cast<double>(f.bytes_sent));
    frames.push_back(static_cast<double>(f.frames_sent));
  }
  m.insert(m.end(), {
      {"transport.node_ms", median(node_ms), "ms"},
      {"transport.overhead_ms", median(overhead_ms), "ms"},
      {"transport.bytes_sent", median(bytes), "bytes"},
      {"transport.frames_sent", median(frames), "count"},
      {"transport.spawn_ms", median(spawn_ms), "ms"},
  });

  if (!trace_out.empty() && !tr.write(trace_out))
    ctx.errors.push_back("cannot write trace file " + trace_out);

  char extra[192];
  std::snprintf(extra, sizeof extra,
                "\"max_bits_good\":%.17g,\"total_bits_good\":%.17g,"
                "\"trace_overhead_s\":%.17g",
                static_cast<double>(max_bits) / k,
                static_cast<double>(total_bits) / k, trace_overhead_s);
  std::size_t failed = 0;
  for (std::size_t i = 0; i < runs.size(); ++i)
    failed += runs[i].ok && (fleet.empty() || fleet[i].ok) ? 0 : 1;
  print_result(ctx, runs.size(), failed, 0.0, m, info_json(ctx, extra));
  return ctx.errors.empty() ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: pb_measure --workload NAME --seed S --seconds T "
               "--trace 0|1 --node-bin PATH [--t0-ns NS] [--trace-out PATH] "
               "[--setup-only]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const auto process_start = Clock::now();
  std::string workload, node_bin, trace_out;
  std::uint64_t seed = 0;
  double seconds = -1.0;
  int trace = -1;
  long long t0_ns = -1;
  bool setup_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : ""; };
    if (a == "--workload") workload = value();
    else if (a == "--seed") seed = std::strtoull(value(), nullptr, 10);
    else if (a == "--seconds") seconds = std::atof(value());
    else if (a == "--trace") trace = std::atoi(value());
    else if (a == "--node-bin") node_bin = value();
    else if (a == "--trace-out") trace_out = value();
    else if (a == "--t0-ns") t0_ns = std::atoll(value());
    else if (a == "--setup-only") setup_only = true;
    else return usage();
  }
  Context ctx;
  for (const Workload& w : kWorkloads)
    if (workload == w.name) ctx.w = &w;
  if (ctx.w == nullptr || seconds < 0 || (trace != 0 && trace != 1) ||
      node_bin.empty())
    return usage();

  try {
    ctx.spec = workload_spec(*ctx.w);
    ctx.node_bin = node_bin;
    const Instance g = gate(ctx);
    // Set-up: process start (the caller's pre-spawn timestamp when given)
    // to the start of the first timed instance, gate included.
    const auto ready = Clock::now();
    const double setup_s =
        t0_ns >= 0 ? 1e-9 * static_cast<double>(
                                std::chrono::duration_cast<std::chrono::nanoseconds>(
                                    ready.time_since_epoch()).count() - t0_ns)
                   : std::chrono::duration<double>(ready - process_start).count();
    if (trace == 1) return run_traced_mode(ctx, seed, g, trace_out);
    return run_untraced(ctx, seed, seconds, setup_s, setup_only);
  } catch (const std::exception& e) {
    ctx.errors.push_back(std::string("exception: ") + e.what());
    print_result(ctx, 1, 1, 0.0, {}, "{}");
    return 1;
  }
}
