#include "sim/sweep.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <ostream>
#include <sstream>
#include <variant>

#include "common/check.h"
#include "sim/protocol.h"

namespace ba::sim {

// --------------------------------------------------- job line artifact --

namespace {

bool needs_escape(char c) {
  return c == '%' || c == ' ' || c == '\t' || c == '\r' || c == '\n';
}

std::string escape_value(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    if (needs_escape(c)) {
      char buf[4];
      std::snprintf(buf, sizeof buf, "%%%02X",
                    static_cast<unsigned char>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string unescape_value(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (v[i] != '%') {
      out += v[i];
      continue;
    }
    BA_REQUIRE(i + 2 < v.size() && std::isxdigit(v[i + 1]) &&
                   std::isxdigit(v[i + 2]),
               "job line: bad %XX escape in value");
    out += static_cast<char>(
        std::strtoul(v.substr(i + 1, 2).c_str(), nullptr, 16));
    i += 2;
  }
  return out;
}

}  // namespace

std::string format_job_line(const SweepJob& job) {
  std::string line = "seed_offset=" + std::to_string(job.seed_offset);
  for (const auto& [key, value] : job.spec.to_kv()) {
    line += ' ';
    line += key;
    line += '=';
    line += escape_value(value);
  }
  return line;
}

SweepJob parse_job_line(const std::string& line) {
  SweepJob job;
  bool saw_offset = false;
  std::vector<std::pair<std::string, std::string>> kv;
  std::size_t pos = 0;
  while (pos < line.size()) {
    std::size_t end = line.find(' ', pos);
    if (end == std::string::npos) end = line.size();
    if (end > pos) {
      const std::string token = line.substr(pos, end - pos);
      const std::size_t eq = token.find('=');
      BA_REQUIRE(eq != std::string::npos && eq > 0,
                 "job line: token is not key=value: " + token);
      std::string key = token.substr(0, eq);
      std::string value = unescape_value(token.substr(eq + 1));
      if (key == "seed_offset") {
        BA_REQUIRE(!saw_offset, "job line: duplicate seed_offset");
        saw_offset = true;
        char* endp = nullptr;
        job.seed_offset = std::strtoull(value.c_str(), &endp, 10);
        BA_REQUIRE(endp != value.c_str() && *endp == '\0',
                   "job line: seed_offset must be an unsigned integer");
      } else {
        kv.emplace_back(std::move(key), std::move(value));
      }
    }
    pos = end + 1;
  }
  job.spec = ScenarioSpec::from_kv(kv);  // rejects duplicate/unknown keys
  return job;
}

// -------------------------------------------------------------- grids --

std::vector<SweepJob> expand_grid(const std::vector<GridAxis>& axes) {
  std::vector<SweepJob> jobs;
  for (const GridAxis& axis : axes) {
    ScenarioSpec base = ScenarioRegistry::get(axis.scenario);
    for (const auto& [key, value] : axis.overrides) base.apply(key, value);
    const std::vector<std::size_t> ns =
        axis.n_values.empty() ? std::vector<std::size_t>{base.n}
                              : axis.n_values;
    const std::vector<std::size_t> workers =
        axis.workers.empty() ? std::vector<std::size_t>{0} : axis.workers;
    for (std::size_t n : ns)
      for (std::size_t w : workers)
        for (std::size_t s = 0; s < axis.seeds; ++s)
          jobs.push_back(
              SweepJob{base.with_n(n).with_workers(w), s});
  }
  return jobs;
}

std::vector<GridAxis> default_grid() {
  std::vector<GridAxis> g;
  // The exponent-fit family: everywhere BA (the full Thm 1 pipeline) over
  // a decade and a half of n. The aggregator fits max-bits-per-processor
  // vs n on this scenario's medians; the 384/512 points anchor the tail
  // where the polylog factors stop dominating the √n term.
  g.push_back({"quickstart", {},
               {16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512}, {}, 6});
  // Worker axis: parity pins byte-identical reports across pool widths;
  // relabeled so the duplicate metrics do not fold into the fit family.
  g.push_back({"quickstart", {{"name", "quickstart_workers"}}, {64}, {1, 2},
               3});
  // Baselines and the remaining protocol families, pulled to laptop n.
  g.push_back({"e9_benor_small", {}, {}, {}, 24});
  g.push_back({"matrix_benor", {}, {}, {}, 12});
  g.push_back({"e9_benor", {}, {64}, {}, 8});
  g.push_back({"e9_rabin", {}, {64}, {}, 8});
  g.push_back({"e3_aeba", {}, {64}, {}, 8});
  g.push_back({"e7_informed", {}, {64}, {}, 8});
  g.push_back({"e1_a2e_phase", {}, {64}, {}, 8});
  g.push_back({"e4_cost", {}, {64}, {}, 8});
  g.push_back({"e2_almost_everywhere", {}, {64}, {}, 8});
  g.push_back({"e11_coins", {}, {64}, {}, 6});
  g.push_back({"e13_universe_small", {}, {}, {}, 6});
  g.push_back({"e10_proc_static", {}, {64}, {}, 8});
  // Partial synchrony rides the same cloud: both scheduler modes, the
  // Ben-Or grace-window contrast, and the delta_max = 12 breaking point.
  g.push_back({"benor_delay", {}, {}, {}, 12});
  g.push_back({"benor_rush", {}, {}, {}, 12});
  g.push_back({"everywhere_delay", {}, {}, {}, 6});
  g.push_back({"everywhere_delay_break", {}, {}, {}, 6});
  return g;
}

// -------------------------------------------------------- paper grids --
//
// The E-series experiment tables as data. Every axis relabels its jobs
// (a "name" override), so each table reads exactly the runs of its label.

namespace {

using R = const PaperRun&;
using Kv = std::vector<std::pair<std::string, std::string>>;
using Line = std::function<std::vector<Cell>(const PaperContext&)>;
constexpr PaperAgg kKey = PaperAgg::kKey, kMean = PaperAgg::kMean,
                   kMin = PaperAgg::kMin, kMax = PaperAgg::kMax,
                   kSum = PaperAgg::kSum;

double as_double(const Cell& c) {
  const auto* i = std::get_if<std::int64_t>(&c);
  return i != nullptr ? static_cast<double>(*i) : std::get<double>(c);
}
Cell integer(std::size_t v) { return static_cast<std::int64_t>(v); }
template <std::size_t ScenarioSpec::*F>
Cell spec_int(R r) { return integer(r.spec->*F); }
template <double ScenarioSpec::*F>
Cell spec_real(R r) { return r.spec->*F; }
template <std::size_t AeLevelStats::*F>
Cell level_int(R r) { return integer(r.level->*F); }
double nd(R r) { return static_cast<double>(r.report->n); }
double lg(R r) { return std::log2(nd(r)); }
const RunDetail& detail(R r) { return *r.report->detail; }
double extra(R r, const char* key) {
  for (const auto& [k, v] : r.report->extras)
    if (k == key) return v;
  return 0.0;
}
Cell n_of(R r) { return integer(r.report->n); }
double frac(R r) { return r.report->agreement_fraction; }
double bits(R r) { return static_cast<double>(r.report->max_bits_good); }
double total(R r) { return static_cast<double>(r.report->total_bits_good); }
double rounds(R r) { return static_cast<double>(r.report->rounds); }
double valid(R r) { return r.report->validity == 1 ? 1.0 : 0.0; }
double log2_sq(R r) { return lg(r) * lg(r); }
double allowance(R r) { return 1.0 - 1.5 / lg(r); }
double c2_log(R r) { return 1.5 / lg(r); }
double min_informed(R r) { return detail(r).aeba->min_informed_fraction; }
double mean_informed(R r) { return detail(r).aeba->mean_informed_fraction; }
const SequenceQuality& quality(R r) { return *detail(r).sequence_quality; }
const UniverseResult& universe(R r) { return *detail(r).universe; }
double committee_good(R r) { return universe(r).good_fraction_at_sampling; }
constexpr auto corrupt = spec_real<&ScenarioSpec::corrupt_fraction>;

GridAxis axis(std::string scenario, std::string label, Kv overrides = {},
              std::vector<std::size_t> ns = {}, std::size_t seeds = 1) {
  overrides.insert(overrides.begin(), {"name", std::move(label)});
  return {std::move(scenario), std::move(overrides), std::move(ns), {},
          seeds};
}
PaperTable derived(std::string caption, std::vector<std::string> header,
                   std::vector<Line> lines) {
  return {std::move(caption), {}, {}, false, std::move(header),
          std::move(lines)};
}
std::vector<double> column_of(const Table& t, const std::string& header) {
  const auto it = std::find(t.header().begin(), t.header().end(), header);
  BA_REQUIRE(it != t.header().end(), "paper table: no column " + header);
  std::vector<double> out;
  for (const auto& row : t.rows())
    out.push_back(as_double(row[it - t.header().begin()]));
  return out;
}
/// A line: the fitted exponent of column `y` vs column "n" of `table`.
Line fit(std::string series, std::size_t table, std::string y,
         std::string reference) {
  return [=](const PaperContext& c) -> std::vector<Cell> {
    const Table& t = c.tables.at(table);
    return {series, fit_log_log_exponent(column_of(t, "n"), column_of(t, y)),
            reference};
  };
}
PaperTable fits(std::string caption, std::vector<Line> lines) {
  return derived(std::move(caption),
                 {"series", "measured_b", "paper_reference"}, std::move(lines));
}

PaperGrid grid_e1() {
  const std::vector<std::size_t> ns = {64, 256, 512, 1024};
  PaperGrid g{"e1",
              {axis("e1_everywhere", "e1", {}, ns, 2),
               axis("e1_a2e_phase", "e1_a2e", {}, ns, 2)},
              {}};
  g.tables.push_back(
      {"E1 / Theorem 1 — everywhere BA: agreement w.h.p., polylog rounds, "
       "per-processor bits (10% malicious — the tree phase's supported "
       "regime at laptop-scale share parameters, see E12f)",
       "e1",
       {{"n", n_of, kKey},
        {"agree_rate",
         [](R r) { return r.report->all_good_agree == 1 ? 1.0 : 0.0; }},
        {"validity", valid}, {"rounds", rounds}, {"log2(n)^2", log2_sq, kKey},
        {"max_bits/proc", bits}, {"a2e_bits/proc", bits, kMean, "e1_a2e"},
        {"a2e_bits/sqrt(n)", [](R r) { return bits(r) / std::sqrt(nd(r)); },
         kMean, "e1_a2e"}}});
  g.tables.push_back(fits(
      "E1 — fitted scaling exponents (y ~ n^b)",
      {fit("a2e bits/proc", 0, "a2e_bits/proc", "0.5 (Theorem 4: O~(sqrt n))"),
       fit("total bits/proc", 0, "max_bits/proc",
           "<= 1 (tournament constants dominate at small n; "
           "Theorem 2: O~(n^{4/delta}))"),
       fit("rounds", 0, "rounds", "~0 (polylog; Theorem 1)")}));
  return g;
}

double election_agree(R r) {
  const auto& levels = detail(r).ae->levels;
  double e = 0;
  for (const auto& lvl : levels) e += lvl.mean_bin_agreement;
  return levels.empty() ? 1.0 : e / levels.size();
}

PaperGrid grid_e2() {
  PaperGrid g{"e2", {axis("e2_almost_everywhere", "e2", {}, {64, 256, 512}, 3)},
              {}};
  g.tables.push_back(
      {"E2 / Theorem 2 — almost-everywhere BA via the tournament "
       "(10% malicious): agreement >= 1 - 1/log n, polylog rounds",
       "e2",
       {{"n", n_of, kKey}, {"agree_frac", frac},
        {"1-1/log n", [](R r) { return 1.0 - 1.0 / lg(r); }, kKey},
        {"validity", valid}, {"rounds", rounds}, {"log2(n)^2", log2_sq, kKey},
        {"max_bits/proc", bits}, {"mean_election_agree", election_agree}}});
  g.tables.push_back(fits(
      "E2 — fitted scaling exponents (y ~ n^b)",
      {fit("rounds", 0, "rounds", "~0 (polylog: O(log^{4+d} n / log log n))"),
       fit("bits/proc", 0, "max_bits/proc",
           "O~(n^{4/delta}) — sublinear for delta > 4")}));
  return g;
}

/// E3 validity: a unanimous input kept at near-everywhere agreement.
double kept(R r) {
  return r.report->decided_bit == 1 && frac(r) >= 0.95 ? 1.0 : 0.0;
}

PaperGrid grid_e3() {
  // Each case pairs a split-input agreement run with a unanimous-input
  // validity run (label + "_u") at the same swept value.
  PaperGrid g{"e3", {}, {}};
  const auto pair = [&g](const std::string& label, Kv kv,
                         std::vector<std::size_t> ns) {
    g.axes.push_back(axis("e3_aeba", label, kv, ns, 4));
    g.axes.push_back(axis("e3_aeba_unanimous", label + "_u", kv, ns, 4));
  };
  for (double c : {0.0, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30})
    pair("e3a", {{"corrupt_fraction", json_double(c)}}, {});
  for (double b : {0.0, 0.2, 1.0 / 3.0, 0.5, 0.7, 0.9})
    pair("e3b", {{"bad_coin_fraction", json_double(b)}}, {});
  pair("e3c", {}, {128, 256, 512, 1024});
  g.tables.push_back(
      {"E3a / Theorem 5 — AEBA agreement vs corruption fraction "
       "(random 2 log n-regular graph, 1/3 of coins adversarial)",
       "e3a",
       {{"corrupt", corrupt, kKey}, {"agreement", frac},
        {"allowance 1-C2/log n", allowance, kKey},
        {"validity", kept, kMean, "e3a_u"}, {"min_informed", min_informed}}});
  g.tables.push_back(
      {"E3b / Theorem 3 — AEBA agreement vs fraction of adversarial coin "
       "rounds (20% corruption; the theorem needs only t honest rounds)",
       "e3b",
       {{"bad_coin_frac", spec_real<&ScenarioSpec::bad_coin_fraction>, kKey},
        {"agreement", frac}, {"validity", kept, kMean, "e3b_u"}}});
  g.tables.push_back(
      {"E3c / Theorem 5 — AEBA agreement vs n (20% corruption, 1/3 bad "
       "coins): deficit shrinks like C2/log n",
       "e3c",
       {{"n", n_of, kKey}, {"agreement", frac},
        {"deficit", [](R r) { return 1.0 - frac(r); }},
        {"C2/log n (C2=1.5)", c2_log, kKey}}});
  return g;
}

double wrong_frac(R r) {
  return extra(r, "wrong_count") /
         static_cast<double>(r.report->n - r.report->corrupt_count);
}

PaperGrid grid_e4() {
  PaperGrid g{"e4", {}, {}};
  for (const char* k : {"0.55", "0.65", "0.75", "0.85", "0.95"})
    g.axes.push_back(axis("e4_a2e", "e4a", {{"input_fraction", k}}, {}, 3));
  for (const char* f : {"0", "64", "256", "1024"})
    g.axes.push_back(
        axis("e4_flooding", "e4b", {{"flood_per_pair", f}}, {}, 3));
  g.axes.push_back(axis("e4_cost", "e4c", {}, {256, 1024, 4096}));
  g.tables.push_back(
      {"E4a / Lemmas 7-8 — A2E vs knowledgeable fraction (20% corrupt "
       "responders answer wrongly): loop success and wrong decisions",
       "e4a",
       {{"knowledgeable", spec_real<&ScenarioSpec::input_fraction>, kKey},
        {"first_loop_success",
         [](R r) { return extra(r, "first_loop_success"); }},
        {"final_agree_frac", frac}, {"wrong_frac", wrong_frac},
        {"paper_bound 1-4/(eps*log n)",
         [](R r) { return 1.0 - 4.0 / (0.1 * lg(r)); }, kKey}}});
  g.tables.push_back(
      {"E4b / Lemma 9 — knowledgeable processors overloaded per loop "
       "under request flooding (bound: (eps/4) n w.p. 1 - 4/(eps log n))",
       "e4b",
       {{"flood_per_pair", spec_int<&ScenarioSpec::flood_per_pair>, kKey},
        {"max_overloaded",
         [](R r) { return integer(extra(r, "max_overloaded")); }, kMax},
        {"bound (eps/4)n", [](R r) { return nd(r) * 0.1 / 4.0; }, kKey}}});
  g.tables.push_back(
      {"E4c / Theorem 4 — A2E per-processor bits ~ O~(sqrt n)", "e4c",
       {{"n", n_of, kKey}, {"max_bits/proc", bits},
        {"bits/(sqrt(n)*log2(n)^2)",
         [](R r) { return bits(r) / (std::sqrt(nd(r)) * lg(r) * lg(r)); }}}});
  g.tables.push_back(fits("E4c — fitted exponent",
                          {fit("a2e bits/proc", 2, "max_bits/proc",
                               "0.5 + o(1) (Theorem 4)")}));
  return g;
}

/// E6's good-winner fraction pools the level's counts over seeds.
Cell pooled_good_frac(const PaperRuns& rs) {
  std::size_t good = 0, all = 0;
  for (const PaperRun& r : rs) {
    good += r.level->winners_good;
    all += r.level->winners_total;
  }
  return all == 0 ? 1.0 : static_cast<double>(good) / static_cast<double>(all);
}

PaperGrid grid_e6() {
  // Rows are tournament levels: one PaperRun per (run, level).
  PaperGrid g{"e6", {}, {}};
  for (double c : {0.0, 0.05, 0.10, 0.15}) {
    const std::string label = "e6_c" + json_double(c);
    g.axes.push_back(axis("e6_survival", label,
                          {{"corrupt_fraction", json_double(c)}}, {}, 3));
    g.tables.push_back(
        {"E6 / Lemma 6 — good winning-array fraction per level, n=512, "
         "corrupt=" + std::to_string(c),
         label,
         {{"level", level_int<&AeLevelStats::level>, kKey},
          {"elections", level_int<&AeLevelStats::elections>, kSum},
          {"winners", level_int<&AeLevelStats::winners_total>, kSum},
          {"good_winners", level_int<&AeLevelStats::winners_good>, kSum},
          {"good_frac", {}, kMean, {}, pooled_good_frac},
          {"bound 2/3-7l/log n",
           [](R r) { return 2.0 / 3.0 - 7.0 * r.level->level / lg(r); }, kKey},
          {"election_agreement",
           [](R r) { return r.level->mean_bin_agreement; }}},
         true});
  }
  return g;
}

/// E7a's degree multipliers k: degree = max(3, k log2 n).
constexpr double kE7Multipliers[] = {0.5, 1.0, 2.0, 3.0, 4.0};
std::size_t e7_degree(double k, std::size_t n) {
  return std::max<std::size_t>(3, static_cast<std::size_t>(k * std::log2(n)));
}
double e7_multiplier(R r) {
  for (double k : kE7Multipliers)
    if (e7_degree(k, r.report->n) == r.spec->aeba_degree) return k;
  return 0.0;
}

PaperGrid grid_e7() {
  PaperGrid g{"e7", {}, {}};
  for (double k : kE7Multipliers)
    g.axes.push_back(axis("e7_informed", "e7a",
                          {{"aeba_degree", std::to_string(e7_degree(k, 512))}},
                          {}, 3));
  // E7b keeps the registry's default degree, 2 floor(log2 n).
  g.axes.push_back(axis("e7_informed", "e7b", {}, {128, 512, 2048}, 3));
  g.tables.push_back(
      {"E7a / Lemma 11 — informed fraction vs degree multiplier k "
       "(degree = k log2 n, 20% malicious), n=512",
       "e7a",
       {{"k", e7_multiplier, kKey},
        {"degree", spec_int<&ScenarioSpec::aeba_degree>, kKey},
        {"mean_informed", mean_informed}, {"min_informed", min_informed, kMin},
        {"allowance 1-C2/log n", allowance, kKey}}});
  g.tables.push_back(
      {"E7b / Lemma 11 — mean informed fraction vs n (degree 2 log2 n, "
       "20% malicious): deficit tracks C2/log n",
       "e7b",
       {{"n", n_of, kKey}, {"mean_informed", mean_informed},
        {"deficit", [](R r) { return 1.0 - mean_informed(r); }},
        {"C2/log n (C2=1.5)", c2_log, kKey}}});
  return g;
}

/// E9: where the fitted total-bit curves cross, each anchored at its
/// largest-n point: log(a1) + b1 log n = log(a2) + b2 log n.
std::vector<Cell> e9_crossover(const PaperContext& c) {
  const auto xs = column_of(c.tables[0], "n");
  const auto rabin = column_of(c.tables[0], "rabin_total");
  const auto ks = column_of(c.tables[0], "kingsaia_total");
  const double b_r = fit_log_log_exponent(xs, rabin);
  const double b_k = fit_log_log_exponent(xs, ks);
  const double la_r = std::log(rabin.back()) - b_r * std::log(xs.back());
  const double la_k = std::log(ks.back()) - b_k * std::log(xs.back());
  if (b_r > b_k)
    return {std::string("King-Saia beats Rabin at n >="),
            std::exp((la_k - la_r) / (b_r - b_k))};
  return {std::string("no crossover in range (check exponents)"), 0.0};
}

PaperGrid grid_e9() {
  const std::vector<std::size_t> ns = {64, 256, 512, 1024};
  PaperGrid g{"e9",
              {axis("e9_rabin", "e9_rabin", {}, ns),
               axis("e9_benor", "e9_benor", {}, ns),
               axis("e9_kingsaia", "e9_kingsaia", {}, ns)},
              {}};
  g.tables.push_back(
      {"E9 — total bits, same simulator: quadratic baselines vs King-Saia "
       "(10% malicious; Ben-Or vs 10% crash, its classic t<n/5 regime)",
       "e9_rabin",
       {{"n", n_of, kKey}, {"rabin_total", total},
        {"benor_total", total, kMean, "e9_benor"},
        {"kingsaia_total", total, kMean, "e9_kingsaia"},
        {"rabin_max/proc", bits},
        {"kingsaia_max/proc", bits, kMean, "e9_kingsaia"}}});
  g.tables.push_back(fits(
      "E9 — fitted total-bit exponents (total ~ n^b) and crossover",
      {fit("Rabin all-to-all", 0, "rabin_total", "2.0 (the O(n^2) barrier)"),
       fit("Ben-Or all-to-all", 0, "benor_total", "2.0"),
       fit("King-Saia everywhere BA", 0, "kingsaia_total",
           "1.5 (n x O~(sqrt n)); laptop constants are large")}));
  g.tables.push_back(derived("E9 — projected crossover (from fitted curves)",
                             {"pair", "crossover_n"}, {e9_crossover}));
  return g;
}

Cell e10_protocol(R r) {
  return r.report->protocol == ProtocolKind::kProcessorElection
             ? "processor-election"
             : "array-election (King-Saia)";
}
Cell e10_adversary(R r) {
  return r.spec->adversary == AdversaryKind::kAdaptiveTakeover
             ? "adaptive-takeover"
             : "static-10%";
}
/// E10: array runs elect no processor committee — the winning arrays were
/// secret-shared and erased, so there is nothing to take over.
double committee_corrupt(R r) {
  const auto& e = detail(r).election;
  return !e || e->committee.empty()
             ? 0.0
             : static_cast<double>(e->committee_corrupt) /
                   static_cast<double>(e->committee.size());
}

PaperGrid grid_e10() {
  PaperGrid g{"e10", {}, {}};
  for (const char* s : {"e10_proc_static", "e10_array_static",
                        "e10_proc_adaptive", "e10_array_adaptive"})
    g.axes.push_back(axis(s, "e10", {}, {}, 4));
  g.tables.push_back(
      {"E10 / §1.3 — adaptive winner takeover: electing processors "
       "(KSSV'06-style baseline) vs electing secret-shared arrays "
       "(this paper), n=256",
       "e10",
       {{"protocol", e10_protocol, kKey}, {"adversary", e10_adversary, kKey},
        {"agree_frac", frac},
        {"validity_rate",
         [](R r) { return r.report->decided_bit == 1 ? valid(r) : 0.0; }},
        {"committee_corrupt_frac", committee_corrupt}}});
  g.tables.push_back(derived(
      "E10 — reading", {"observation"},
      {[](const PaperContext&) {
        return std::vector<Cell>{std::string(
            "The adaptive adversary corrupts 100% of the baseline committee "
            "the moment it is elected and splits the network; the same "
            "adversary corrupting winning-array owners gains nothing: their "
            "arrays were secret-shared across whole nodes and erased "
            "(Section 1.3).")};
      }}));
  return g;
}

/// E11b: serial correlation of the released good words' low bits.
std::vector<Cell> e11_serial_match(const PaperContext& c) {
  const AeResult& res = *detail(c.runs("e11b").at(0)).ae;
  std::vector<int> low;
  for (std::size_t i = 0; i < res.seq_views.size(); ++i)
    if (res.seq_word_good[i])
      low.push_back(static_cast<int>(res.seq_truth[i] & 1));
  double serial = 0;
  for (std::size_t i = 1; i < low.size(); ++i)
    serial += low[i] == low[i - 1] ? 1.0 : 0.0;
  std::vector<Cell> line{integer(low.size())};
  line.push_back(low.size() > 1 ? serial / static_cast<double>(low.size() - 1)
                                : 0.5);
  return line;
}

PaperGrid grid_e11() {
  PaperGrid g{"e11",
              {axis("e11_coins", "e11", {}, {256, 512}, 3),
               axis("e11_coins", "e11b",
                    {{"adversary_seed", "900"}, {"protocol_seed", "901"},
                     {"input_seed", "902"}, {"coin_words", "8"}},
                    {512})},
              {}};
  g.tables.push_back(
      {"E11 / §3.5 — global coin subsequence quality (10% malicious): "
       "usable fraction vs the (s, 2s/3) claim",
       "e11",
       {{"n", n_of, kKey},
        {"seq_len", [](R r) { return integer(quality(r).length); }, kMax},
        {"good_frac",
         [](R r) {
           return static_cast<double>(quality(r).good_words) /
                  static_cast<double>(quality(r).length);
         }},
        {"ref 2/3", [](R) { return 2.0 / 3.0; }, kKey},
        {"ref 2/3-5/loglog n",
         [](R r) { return 2.0 / 3.0 - 5.0 / (std::log2(lg(r)) * 4.0); }, kKey},
        {"min_agreement", [](R r) { return quality(r).min_good_agreement; }},
        {"bit_bias", [](R r) { return quality(r).good_bit_bias; }}}});
  g.tables.push_back(
      derived("E11b — randomness sanity of the good subsequence, n=512",
              {"good_words", "serial_match_rate (expect ~0.5)"},
              {e11_serial_match}));
  return g;
}

Cell e12_lock(R r) { return r.spec->lock_rule_off ? "off" : "0.85/0.75"; }

PaperGrid grid_e12() {
  // Each ablation overrides one knob of the e12_ablation base (n = 512,
  // 10% malicious).
  PaperGrid g{"e12", {}, {}};
  const auto knob = [&g](const char* label, const char* field,
                         std::initializer_list<const char*> values) {
    for (const char* v : values)
      g.axes.push_back(axis("e12_ablation", label, {{field, v}}, {}, 2));
  };
  knob("e12a", "q", {"4", "8", "16"});
  knob("e12b", "w", {"1", "2", "3"});
  knob("e12c", "d_up", {"6", "9", "12", "15"});
  knob("e12d", "g_intra", {"4", "8", "12", "16"});
  knob("e12e", "lock_rule_off", {"0", "1"});
  knob("e12f", "corrupt_fraction",
       {"0.05", "0.1", "0.15", "0.2", "0.25", "0.3"});
  const PaperColumn agree{"agree", frac}, ok{"valid", valid},
      cost{"max_bits/proc", bits}, time{"rounds", rounds};
  g.tables = {
      {"E12a — branching factor q (tree depth vs election width), n=512",
       "e12a",
       {{"q", spec_int<&ScenarioSpec::q>, kKey}, agree, ok, cost, time}},
      {"E12b — winners per election w (candidate pool size)", "e12b",
       {{"w", spec_int<&ScenarioSpec::w>, kKey}, agree, ok, cost, time}},
      {"E12c — uplink degree d_up: share blowup (cost) vs Berlekamp-Welch "
       "margin (robustness). t = d/4, corrects (d - d/4 - 1)/2",
       "e12c",
       {{"d_up", spec_int<&ScenarioSpec::d_up>, kKey}, agree, ok, cost}},
      {"E12d — intra-node vote-graph out-degree (Lemma 11's k)", "e12d",
       {{"g_intra", spec_int<&ScenarioSpec::g_intra>, kKey}, agree, ok, cost}},
      {"E12e — Rabin decide/lock rule: on (default) vs paper-literal "
       "commit-at-end (lock disabled)",
       "e12e", {{"lock", e12_lock, kKey}, agree, ok}},
      {"E12f — corruption tolerance at laptop-scale parameters "
       "(docs/ARCHITECTURE.md: the binomial-tail limit)",
       "e12f", {{"corrupt", corrupt, kKey}, agree, ok}}};
  return g;
}

/// E13c: the committee's corrupt fraction once it is public and an
/// adaptive adversary spends its remaining budget on it (replayed on the
/// run's final corruption state) — why agreement must elect arrays.
double corrupt_after_publication(R r) {
  std::vector<bool> corrupt = detail(r).corrupt_mask;
  std::size_t budget_left =
      r.spec->n / r.spec->budget_div - r.report->corrupt_count;
  std::size_t corrupted = 0;
  for (ProcId p : universe(r).committee) {
    if (!corrupt[p] && budget_left > 0) {
      corrupt[p] = true;
      --budget_left;
    }
    corrupted += corrupt[p] ? 1 : 0;
  }
  return static_cast<double>(corrupted) /
         static_cast<double>(universe(r).committee.size());
}

/// An E13c line: `label` and the mean of `f` over the e13c runs.
Line e13_moment(const char* label, double (*f)(R)) {
  return [=](const PaperContext& c) -> std::vector<Cell> {
    double sum = 0;
    const PaperRuns runs = c.runs("e13c");
    for (const PaperRun& r : runs) sum += f(r);
    return {std::string(label), sum / static_cast<double>(runs.size())};
  };
}

PaperGrid grid_e13() {
  PaperGrid g{"e13", {}, {}};
  for (const char* c : {"0", "0.05", "0.1"})
    g.axes.push_back(
        axis("e13_universe", "e13a", {{"corrupt_fraction", c}}, {}, 3));
  for (const char* s : {"4", "8", "16", "32"})  // 8 words cover size 32
    g.axes.push_back(axis("e13_universe", "e13b",
                          {{"adversary_seed", "300"}, {"protocol_seed", "400"},
                           {"coin_words", "8"}, {"committee_size", s}},
                          {}, 3));
  g.axes.push_back(axis("e13_universe", "e13c",
                        {{"adversary_seed", "500"}, {"protocol_seed", "600"}},
                        {}, 3));
  const PaperColumn good{"committee_good_frac", committee_good},
      population{"population_good_frac",
                 [](R r) { return universe(r).population_good_fraction; }};
  constexpr auto size = spec_int<&ScenarioSpec::committee_size>;
  g.tables = {
      {"E13a / §1 — universe reduction: committee good-fraction vs "
       "population (representative sampling), n=256",
       "e13a",
       {{"corrupt", corrupt, kKey}, {"committee", size, kKey}, good, population,
        {"view_agreement", [](R r) { return universe(r).view_agreement; }}}},
      {"E13b — committee size sweep (10% malicious): sampling stays "
       "representative as the committee grows",
       "e13b", {{"committee_size", size, kKey}, good, population}},
      derived("E13c — the adaptive caveat: committee corruption before vs "
              "after publication, n=256",
              {"moment", "committee_corrupt_frac"},
              {e13_moment("at sampling",
                          [](R r) { return 1.0 - committee_good(r); }),
               e13_moment("after publication (adaptive)",
                          corrupt_after_publication)})};
  return g;
}

/// One value cell: the seed-order sum (or extremum), a mean dividing once
/// at the end as the seed loops always did, so cells stay bit-identical.
/// Integral metrics stay integers.
Cell reduce(const PaperColumn& c, const PaperRuns& runs) {
  if (c.reduce) return c.reduce(runs);
  double acc = c.agg == kMin ? HUGE_VAL : c.agg == kMax ? -HUGE_VAL : 0.0;
  bool integral = true;
  for (const PaperRun& r : runs) {
    const Cell v = c.metric(r);
    integral = integral && std::holds_alternative<std::int64_t>(v);
    const double x = as_double(v);
    acc = c.agg == kMin   ? std::min(acc, x)
          : c.agg == kMax ? std::max(acc, x)
                          : acc + x;
  }
  if (c.agg == kMean) return acc / static_cast<double>(runs.size());
  return integral ? Cell(static_cast<std::int64_t>(acc)) : Cell(acc);
}

}  // namespace

const std::vector<PaperGrid>& paper_grids() {
  static const std::vector<PaperGrid> grids = {
      grid_e1(), grid_e2(),  grid_e3(),  grid_e4(),  grid_e6(), grid_e7(),
      grid_e9(), grid_e10(), grid_e11(), grid_e12(), grid_e13()};
  return grids;
}

const PaperGrid* find_paper_grid(const std::string& name) {
  for (const PaperGrid& g : paper_grids())
    if (g.name == name) return &g;
  return nullptr;
}

std::vector<Table> render_paper_tables(const PaperGrid& grid,
                                       const std::vector<SweepJob>& jobs,
                                       const std::vector<RunReport>& reports) {
  BA_REQUIRE(jobs.size() == reports.size(), "one report per job");
  const auto runs_of = [&](const std::string& label, bool per_level) {
    PaperRuns out;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (reports[i].scenario != label) continue;
      BA_REQUIRE(reports[i].detail != nullptr,
                 "paper tables read the detail block: run in process");
      if (!per_level) out.push_back({&jobs[i].spec, &reports[i], nullptr});
      else
        for (const AeLevelStats& lvl : reports[i].detail->ae->levels)
          out.push_back({&jobs[i].spec, &reports[i], &lvl});
    }
    return out;
  };
  std::vector<Table> tables;
  for (const PaperTable& spec : grid.tables) {
    Table t(spec.caption);
    if (!spec.lines.empty()) {
      t.header(spec.header);
      const PaperContext ctx{
          tables, [&](const std::string& l) { return runs_of(l, false); }};
      for (const auto& line : spec.lines) t.row(line(ctx));
      tables.push_back(std::move(t));
      continue;
    }
    std::vector<std::string> header;
    for (const PaperColumn& c : spec.columns) header.push_back(c.header);
    t.header(std::move(header));
    // A run's key cells, in column position (value columns left empty).
    const auto key_of = [&spec](R r) {
      std::vector<Cell> key;
      for (const PaperColumn& c : spec.columns)
        key.push_back(c.agg == kKey ? c.metric(r) : Cell());
      return key;
    };
    std::vector<std::pair<std::vector<Cell>, PaperRuns>> rows;  // job order
    for (const PaperRun& r : runs_of(spec.scenario, spec.per_level)) {
      std::vector<Cell> key = key_of(r);
      auto it = std::find_if(rows.begin(), rows.end(), [&key](const auto& row) {
        return row.first == key;
      });
      if (it == rows.end()) it = rows.insert(it, {std::move(key), {}});
      it->second.push_back(r);
    }
    BA_REQUIRE(!rows.empty(), "paper table without runs: " + spec.caption);
    for (auto& [cells, runs] : rows) {
      const std::vector<Cell> key = cells;
      for (std::size_t i = 0; i < cells.size(); ++i) {
        const PaperColumn& c = spec.columns[i];
        if (c.agg == kKey) continue;
        PaperRuns source = runs;
        if (!c.source.empty()) {
          source.clear();
          for (const PaperRun& r : runs_of(c.source, spec.per_level))
            if (key_of(r) == key) source.push_back(r);
        }
        BA_REQUIRE(!source.empty(), "paper column without runs: " + c.header);
        cells[i] = reduce(c, source);
      }
      t.row(std::move(cells));
    }
    tables.push_back(std::move(t));
  }
  return tables;
}

// ----------------------------------------------------- NDJSON reading --

namespace {

/// Sequential cursor over one write_json line. The schema is fixed, so
/// the parser simply expects each literal in emission order — any
/// deviation is a loud error, and a successful parse re-emits byte for
/// byte.
class JsonCursor {
 public:
  explicit JsonCursor(const std::string& s) : s_(s) {}

  void expect(const char* lit) {
    const std::size_t len = std::strlen(lit);
    BA_REQUIRE(s_.compare(pos_, len, lit) == 0,
               std::string("report JSON: expected '") + lit +
                   "' at offset " + std::to_string(pos_));
    pos_ += len;
  }

  bool peek(const char* lit) const {
    return s_.compare(pos_, std::strlen(lit), lit) == 0;
  }

  std::string string_value() {
    expect("\"");
    std::string out;
    while (true) {
      BA_REQUIRE(pos_ < s_.size(), "report JSON: unterminated string");
      const char c = s_[pos_];
      if (c == '"') {
        ++pos_;
        return out;
      }
      if (c == '\\') {
        BA_REQUIRE(pos_ + 1 < s_.size(), "report JSON: dangling escape");
        const char e = s_[pos_ + 1];
        if (e == '"' || e == '\\') {
          out += e;
          pos_ += 2;
        } else if (e == 'u') {
          BA_REQUIRE(pos_ + 5 < s_.size(),
                     "report JSON: truncated \\u escape");
          const std::string hex = s_.substr(pos_ + 2, 4);
          char* end = nullptr;
          const unsigned long v = std::strtoul(hex.c_str(), &end, 16);
          BA_REQUIRE(end == hex.c_str() + 4 && v < 0x80,
                     "report JSON: unsupported \\u escape");
          out += static_cast<char>(v);
          pos_ += 6;
        } else {
          BA_REQUIRE(false, "report JSON: unknown escape");
        }
      } else {
        out += c;
        ++pos_;
      }
    }
  }

  std::uint64_t u64_value() {
    BA_REQUIRE(pos_ < s_.size() && std::isdigit(s_[pos_]),
               "report JSON: expected unsigned integer at offset " +
                   std::to_string(pos_));
    char* end = nullptr;
    const std::uint64_t v = std::strtoull(s_.c_str() + pos_, &end, 10);
    pos_ = static_cast<std::size_t>(end - s_.c_str());
    return v;
  }

  int int_value() {
    const bool neg = pos_ < s_.size() && s_[pos_] == '-';
    if (neg) ++pos_;
    const std::uint64_t mag = u64_value();
    BA_REQUIRE(mag <= 1u << 30, "report JSON: integer out of range");
    return neg ? -static_cast<int>(mag) : static_cast<int>(mag);
  }

  double double_value() {
    char* end = nullptr;
    const double v = std::strtod(s_.c_str() + pos_, &end);
    BA_REQUIRE(end != s_.c_str() + pos_,
               "report JSON: expected number at offset " +
                   std::to_string(pos_));
    pos_ = static_cast<std::size_t>(end - s_.c_str());
    return v;
  }

  bool done() const { return pos_ == s_.size(); }

 private:
  const std::string& s_;
  std::size_t pos_ = 0;
};

ProtocolKind protocol_kind_from_name(const std::string& name) {
  static constexpr ProtocolKind kKinds[] = {
      ProtocolKind::kEverywhere,        ProtocolKind::kAlmostEverywhere,
      ProtocolKind::kAeba,              ProtocolKind::kBenOr,
      ProtocolKind::kRabin,             ProtocolKind::kA2E,
      ProtocolKind::kUniverseReduction, ProtocolKind::kProcessorElection,
  };
  for (ProtocolKind k : kKinds)
    if (name == to_string(k)) return k;
  BA_REQUIRE(false, "report JSON: unknown protocol name: " + name);
  return ProtocolKind::kEverywhere;
}

}  // namespace

RunReport parse_report_json(const std::string& line, bool* had_timing) {
  RunReport r;
  JsonCursor c(line);
  c.expect("{\"scenario\":");
  r.scenario = c.string_value();
  c.expect(",\"protocol\":");
  r.protocol = protocol_kind_from_name(c.string_value());
  c.expect(",\"n\":");
  r.n = static_cast<std::size_t>(c.u64_value());
  c.expect(",\"seed_offset\":");
  r.seed_offset = c.u64_value();
  c.expect(",\"workers\":");
  r.workers = static_cast<std::size_t>(c.u64_value());
  c.expect(",\"corrupt_count\":");
  r.corrupt_count = static_cast<std::size_t>(c.u64_value());
  c.expect(",\"decided_bit\":");
  r.decided_bit = c.int_value();
  c.expect(",\"validity\":");
  r.validity = c.int_value();
  c.expect(",\"all_good_agree\":");
  r.all_good_agree = c.int_value();
  c.expect(",\"agreement_fraction\":");
  r.agreement_fraction = c.double_value();
  c.expect(",\"rounds\":");
  r.rounds = c.u64_value();
  c.expect(",\"max_bits_good\":");
  r.max_bits_good = c.u64_value();
  c.expect(",\"total_bits_good\":");
  r.total_bits_good = c.u64_value();
  c.expect(",\"total_msgs_good\":");
  r.total_msgs_good = c.u64_value();
  c.expect(",\"fingerprint\":");
  {
    const std::string fp = c.string_value();
    BA_REQUIRE(fp.size() == 16 &&
                   fp.find_first_not_of("0123456789abcdef") ==
                       std::string::npos,
               "report JSON: fingerprint must be 16 lowercase hex digits");
    r.fingerprint = std::strtoull(fp.c_str(), nullptr, 16);
  }
  c.expect(",\"extras\":{");
  if (!c.peek("}")) {
    while (true) {
      std::string key = c.string_value();
      c.expect(":");
      const double value = c.double_value();
      r.extras.emplace_back(std::move(key), value);
      if (c.peek(",")) {
        c.expect(",");
        continue;
      }
      break;
    }
  }
  c.expect("}");
  const bool timing = c.peek(",\"wall_ms\":");
  if (had_timing != nullptr) *had_timing = timing;
  if (timing) {
    c.expect(",\"wall_ms\":");
    r.wall_ms = c.double_value();
    c.expect(",\"peak_rss_kb\":");
    r.peak_rss_kb = c.u64_value();
  }
  c.expect("}");
  BA_REQUIRE(c.done(), "report JSON: trailing bytes after object");
  return r;
}

// -------------------------------------------------------- aggregation --

namespace {

std::uint64_t median_u64(std::vector<std::uint64_t>& v) {
  BA_REQUIRE(!v.empty(), "median of an empty sample");
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  // Even sample: lower-median — keeps the statistic an integer a run
  // actually produced (exact across platforms, unlike an averaged .5).
  return v.size() % 2 == 1 ? v[mid] : v[mid - 1];
}

struct FitInput {
  std::vector<double> x, y;
};

double slope_of(const std::vector<double>& x, const std::vector<double>& y) {
  const double n = static_cast<double>(x.size());
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sx += x[i];
    sy += y[i];
    sxx += x[i] * x[i];
    sxy += x[i] * y[i];
  }
  const double var = sxx - sx * sx / n;
  BA_REQUIRE(var > 0, "exponent fit needs at least two distinct n");
  return (sxy - sx * sy / n) / var;
}

double r2_of(const std::vector<double>& x, const std::vector<double>& y) {
  const double n = static_cast<double>(x.size());
  double sx = 0, sy = 0, sxx = 0, syy = 0, sxy = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sx += x[i];
    sy += y[i];
    sxx += x[i] * x[i];
    syy += y[i] * y[i];
    sxy += x[i] * y[i];
  }
  const double cov = sxy - sx * sy / n;
  const double vx = sxx - sx * sx / n;
  const double vy = syy - sy * sy / n;
  return vy > 0 && vx > 0 ? (cov * cov) / (vx * vy) : 1.0;
}

}  // namespace

ProtocolLedger aggregate_reports(const std::vector<RunReport>& reports) {
  ProtocolLedger ledger;
  ledger.jobs = reports.size();

  // Group by (scenario, n), keeping first-seen order until the final
  // deterministic sort.
  struct Group {
    std::string scenario;
    std::string protocol;
    std::size_t n = 0;
    std::vector<const RunReport*> runs;
  };
  std::vector<Group> groups;
  for (const RunReport& r : reports) {
    ledger.wall_ms_total += r.wall_ms;
    Group* g = nullptr;
    for (Group& cand : groups)
      if (cand.scenario == r.scenario && cand.n == r.n) {
        g = &cand;
        break;
      }
    if (g == nullptr) {
      groups.push_back(Group{r.scenario, to_string(r.protocol), r.n, {}});
      g = &groups.back();
    }
    BA_REQUIRE(g->protocol == to_string(r.protocol),
               "aggregate: one (scenario, n) group mixes protocols");
    g->runs.push_back(&r);
  }
  std::sort(groups.begin(), groups.end(), [](const Group& a, const Group& b) {
    return a.scenario != b.scenario ? a.scenario < b.scenario : a.n < b.n;
  });

  for (const Group& g : groups) {
    ScenarioAggregate agg;
    agg.scenario = g.scenario;
    agg.protocol = g.protocol;
    agg.n = g.n;
    agg.runs = g.runs.size();
    std::size_t agree_meaningful = 0, agree_yes = 0;
    std::size_t validity_meaningful = 0, validity_yes = 0;
    std::vector<std::uint64_t> max_bits, total_bits;
    double frac_sum = 0.0, rounds_sum = 0.0;
    for (const RunReport* r : g.runs) {
      if (r->all_good_agree != -1) {
        ++agree_meaningful;
        agree_yes += r->all_good_agree != 0 ? 1 : 0;
      }
      if (r->validity != -1) {
        ++validity_meaningful;
        validity_yes += r->validity != 0 ? 1 : 0;
      }
      frac_sum += r->agreement_fraction;
      rounds_sum += static_cast<double>(r->rounds);
      max_bits.push_back(r->max_bits_good);
      total_bits.push_back(r->total_bits_good);
      agg.max_max_bits_good = std::max(agg.max_max_bits_good,
                                       r->max_bits_good);
      agg.max_rounds = std::max(agg.max_rounds, r->rounds);
      agg.wall_ms += r->wall_ms;
    }
    if (agree_meaningful > 0)
      agg.agreement_rate = static_cast<double>(agree_yes) /
                           static_cast<double>(agree_meaningful);
    if (validity_meaningful > 0)
      agg.validity_rate = static_cast<double>(validity_yes) /
                          static_cast<double>(validity_meaningful);
    agg.mean_agreement_fraction =
        frac_sum / static_cast<double>(g.runs.size());
    agg.mean_rounds = rounds_sum / static_cast<double>(g.runs.size());
    agg.median_max_bits_good = median_u64(max_bits);
    agg.median_total_bits_good = median_u64(total_bits);
    ledger.scenarios.push_back(std::move(agg));
  }

  // Fit family: the everywhere-protocol scenario with the most distinct
  // n values (ties broken by name, so the choice is deterministic).
  std::string family;
  std::size_t family_points = 0;
  for (const ScenarioAggregate& a : ledger.scenarios) {
    if (a.protocol != to_string(ProtocolKind::kEverywhere)) continue;
    std::size_t points = 0;
    for (const ScenarioAggregate& b : ledger.scenarios)
      if (b.scenario == a.scenario) ++points;
    if (points > family_points ||
        (points == family_points && a.scenario < family)) {
      family = a.scenario;
      family_points = points;
    }
  }
  if (family_points >= 3) {
    ExponentFit fit;
    fit.family = family;
    FitInput raw, log3;
    for (const ScenarioAggregate& a : ledger.scenarios) {
      if (a.scenario != family) continue;
      fit.points.emplace_back(a.n, a.median_max_bits_good);
      const double x = std::log(static_cast<double>(a.n));
      const double y =
          std::log(static_cast<double>(a.median_max_bits_good));
      raw.x.push_back(x);
      raw.y.push_back(y);
      log3.x.push_back(x);
      // log(bits / log2(n)^3): Õ(√n) with the Õ taken literally.
      log3.y.push_back(y - 3.0 * std::log(x / std::log(2.0)));
    }
    fit.exponent = slope_of(raw.x, raw.y);
    fit.log3_exponent = slope_of(log3.x, log3.y);
    fit.r2 = r2_of(raw.x, raw.y);
    ledger.fit = std::move(fit);
  }
  return ledger;
}

void write_ledger_json(std::ostream& os, const ProtocolLedger& ledger) {
  os << "{\n";
  os << "  \"schema\": \"ba.bench_protocol.v1\",\n";
  os << "  \"grid\": \"" << ledger.grid << "\",\n";
  os << "  \"jobs\": " << ledger.jobs << ",\n";
  os << "  \"wall_ms_total\": " << json_double(ledger.wall_ms_total)
     << ",\n";
  if (ledger.fit.has_value()) {
    const ExponentFit& fit = *ledger.fit;
    os << "  \"fit\": {\n";
    os << "    \"family\": \"" << fit.family << "\",\n";
    os << "    \"metric\": \"median max_bits_good vs n\",\n";
    os << "    \"exponent\": " << json_double(fit.exponent) << ",\n";
    os << "    \"log3_exponent\": " << json_double(fit.log3_exponent)
       << ",\n";
    os << "    \"log3_ceiling\": " << json_double(kLog3ExponentCeiling)
       << ",\n";
    os << "    \"r2\": " << json_double(fit.r2) << ",\n";
    os << "    \"points\": [";
    for (std::size_t i = 0; i < fit.points.size(); ++i) {
      if (i) os << ", ";
      os << "{\"n\": " << fit.points[i].first
         << ", \"median_max_bits_good\": " << fit.points[i].second << "}";
    }
    os << "]\n  },\n";
  } else {
    os << "  \"fit\": null,\n";
  }
  os << "  \"scenarios\": [\n";
  for (std::size_t i = 0; i < ledger.scenarios.size(); ++i) {
    const ScenarioAggregate& a = ledger.scenarios[i];
    os << "    {\"scenario\": \"" << a.scenario << "\", \"protocol\": \""
       << a.protocol << "\", \"n\": " << a.n << ", \"runs\": " << a.runs
       << ", \"agreement_rate\": " << json_double(a.agreement_rate)
       << ", \"validity_rate\": " << json_double(a.validity_rate)
       << ", \"mean_agreement_fraction\": "
       << json_double(a.mean_agreement_fraction)
       << ", \"median_max_bits_good\": " << a.median_max_bits_good
       << ", \"max_max_bits_good\": " << a.max_max_bits_good
       << ", \"median_total_bits_good\": " << a.median_total_bits_good
       << ", \"mean_rounds\": " << json_double(a.mean_rounds)
       << ", \"max_rounds\": " << a.max_rounds
       << ", \"wall_ms\": " << json_double(a.wall_ms) << "}"
       << (i + 1 < ledger.scenarios.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

// -------------------------------------------------------------- fuzzer --

namespace {

template <typename T, std::size_t N>
T pick(Rng& rng, const T (&options)[N]) {
  return options[rng.below(N)];
}

bool is_tournament_kind(ProtocolKind k) {
  return k == ProtocolKind::kEverywhere ||
         k == ProtocolKind::kAlmostEverywhere ||
         k == ProtocolKind::kUniverseReduction ||
         k == ProtocolKind::kProcessorElection;
}

}  // namespace

ScenarioSpec random_spec(Rng& rng) {
  ScenarioSpec s;
  s.name = "fuzz";
  s.note.clear();

  static constexpr ProtocolKind kKinds[] = {
      ProtocolKind::kEverywhere,        ProtocolKind::kAlmostEverywhere,
      ProtocolKind::kAeba,              ProtocolKind::kBenOr,
      ProtocolKind::kRabin,             ProtocolKind::kA2E,
      ProtocolKind::kUniverseReduction, ProtocolKind::kProcessorElection,
  };
  s.protocol = pick(rng, kKinds);
  const bool tournament = is_tournament_kind(s.protocol);

  // n: the tournament tree needs n >= 4q (16 with the laptop default
  // q = 4). Even values keep every kind's graph/committee construction
  // trivially satisfiable. Tournament kinds stay small — they dominate
  // the fuzz wall clock (two full runs per spec).
  if (tournament) {
    static constexpr std::size_t kNs[] = {16, 20, 24, 32, 40, 48};
    s.n = pick(rng, kNs);
  } else {
    static constexpr std::size_t kNs[] = {8, 12, 16, 24, 32, 48, 64, 96};
    s.n = pick(rng, kNs);
  }
  static constexpr std::size_t kDivs[] = {2, 3, 4, 6, 8};
  s.budget_div = pick(rng, kDivs);
  s.workers = rng.below(10) == 0 ? 1 + rng.below(2) : 0;

  static constexpr AdversaryKind kAdversaries[] = {
      AdversaryKind::kPassive,         AdversaryKind::kStaticMalicious,
      AdversaryKind::kCrash,           AdversaryKind::kAdaptiveTakeover,
      AdversaryKind::kA2EFlooding,
  };
  s.adversary = pick(rng, kAdversaries);
  static constexpr double kFractions[] = {0.0, 0.05, 0.1, 0.2, 0.3};
  s.corrupt_fraction = pick(rng, kFractions);
  s.adversary_seed = rng.below(1u << 20);
  s.takeover_share_holders = rng.flip();
  s.flood_per_pair = 8 + rng.below(57);

  if (s.protocol == ProtocolKind::kAeba) {
    s.inputs = rng.flip() ? InputPattern::kUnanimous : InputPattern::kRandom;
  } else if (s.protocol == ProtocolKind::kA2E) {
    s.inputs =
        rng.flip() ? InputPattern::kUnanimous : InputPattern::kSampledOnes;
  } else {
    static constexpr InputPattern kPatterns[] = {
        InputPattern::kAlternating, InputPattern::kUnanimous,
        InputPattern::kRandom,      InputPattern::kBernoulli,
        InputPattern::kSampledOnes,
    };
    s.inputs = pick(rng, kPatterns);
  }
  s.input_value = static_cast<std::uint8_t>(rng.below(2));
  s.input_fraction = 0.1 * static_cast<double>(1 + rng.below(9));
  s.input_seed = rng.below(1u << 20);
  s.protocol_seed = rng.below(1u << 20);

  if (tournament) {
    s.coin_words = rng.below(4);  // 0 keeps the laptop default
    if (rng.below(3) == 0) {
      // One E12-style knob tweak per third of the tournament specs.
      switch (rng.below(6)) {
        case 0: s.q = s.n >= 32 && rng.flip() ? 8 : 4; break;
        case 1: s.w = 2 + rng.below(2); break;
        case 2: {
          static constexpr std::size_t kK1[] = {2, 4, 8};
          s.k1 = pick(rng, kK1);
          break;
        }
        case 3: s.d_up = 2 + rng.below(2); break;
        case 4: {
          static constexpr std::size_t kG[] = {4, 8, 12};
          s.g_intra = pick(rng, kG);
          break;
        }
        default: s.lock_rule_off = true; break;
      }
    }
  }
  if (s.protocol == ProtocolKind::kAlmostEverywhere)
    s.release_sequence = rng.flip();
  if (s.protocol == ProtocolKind::kUniverseReduction) {
    s.committee_size = 4 + rng.below(5);
    if (s.coin_words != 0 && s.coin_words < 3) s.coin_words = 3;
  }
  if (s.protocol == ProtocolKind::kAeba) {
    s.aeba_rounds = 4 + rng.below(21);
    s.aeba_instances = 1 + rng.below(3);
    s.aeba_degree = rng.flip() ? 0 : 4 + rng.below(5);
    s.aeba_shared_coins = rng.flip();
    static constexpr double kBad[] = {0.0, 0.2, 1.0 / 3.0};
    s.bad_coin_fraction = pick(rng, kBad);
    s.graph_seed = rng.below(1u << 20);
    s.bad_round_seed = rng.below(1u << 20);
  }
  s.coin_seed = rng.below(1u << 20);  // AEBA shared coins and Rabin
  if (s.protocol == ProtocolKind::kBenOr ||
      s.protocol == ProtocolKind::kRabin)
    s.max_rounds = 20 + rng.below(181);
  if (s.protocol == ProtocolKind::kA2E) {
    s.label_rule = rng.flip() ? LabelRule::kSplitmix : LabelRule::kLinear;
    s.label_seed = rng.below(1u << 20);
    s.a2e_repeats = rng.below(3);
    s.truth_message = rng.flip() ? 1 : 1 + rng.below(1u << 16);
  }

  const std::uint64_t sched = rng.below(10);
  if (sched >= 5) {
    s.scheduler = sched < 8 ? SchedulerKind::kBoundedDelay
                            : SchedulerKind::kReorderRush;
    s.delta_max = rng.below(5);
    s.rush_depth =
        s.scheduler == SchedulerKind::kReorderRush && rng.flip() ? 1 : 0;
    s.scheduler_seed = rng.below(1u << 20);
  }
  return s;
}

namespace {

std::string json_line_of(const RunReport& r) {
  std::ostringstream os;
  r.write_json(os, /*include_timing=*/false);
  return os.str();
}

std::size_t good_count(const RunReport& r) {
  return r.n - r.corrupt_count;
}

/// Is `fraction` expressible as a/good for an integer a in [0, good]?
/// Every reported agreement fraction is such a ratio; the check pins the
/// report to the detail-block arithmetic without re-deriving `a`.
bool fraction_over(double fraction, std::size_t good) {
  if (good == 0) return fraction == 1.0 || fraction == 0.0;
  const double scaled = fraction * static_cast<double>(good);
  const auto a = static_cast<long long>(std::llround(scaled));
  if (a < 0 || static_cast<std::size_t>(a) > good) return false;
  return static_cast<double>(a) / static_cast<double>(good) == fraction;
}

/// Recompute a root-committee agreement fraction from the per-processor
/// decision vector: majority bit over good processors, then the fraction
/// agreeing with it — the exact arithmetic of
/// AebaMachine::agreement_fraction, so the comparison is bit-exact.
struct Recomputed {
  bool majority = false;
  double fraction = 1.0;
};

Recomputed recompute_agreement(const std::vector<std::uint8_t>& decision,
                               const std::vector<bool>& corrupt) {
  std::size_t good = 0, ones = 0;
  for (std::size_t p = 0; p < decision.size(); ++p) {
    if (corrupt[p]) continue;
    ++good;
    ones += decision[p] != 0 ? 1 : 0;
  }
  Recomputed out;
  out.majority = 2 * ones >= good;
  std::size_t agree = 0;
  for (std::size_t p = 0; p < decision.size(); ++p) {
    if (corrupt[p]) continue;
    agree += (decision[p] != 0) == out.majority ? 1 : 0;
  }
  out.fraction = good == 0 ? 1.0
                           : static_cast<double>(agree) /
                                 static_cast<double>(good);
  return out;
}

/// AE-family validity: the decided bit matches some good processor's
/// input (core/almost_everywhere.cpp's exact rule).
bool ae_validity(const std::vector<std::uint8_t>& inputs,
                 const std::vector<bool>& corrupt, bool decided) {
  for (std::size_t p = 0; p < inputs.size(); ++p)
    if (!corrupt[p] && (inputs[p] != 0) == decided) return true;
  return false;
}

}  // namespace

std::vector<FuzzFailure> check_job(const SweepJob& job, std::ostream* ndjson) {
  std::vector<FuzzFailure> fails;
  const std::string artifact = format_job_line(job);
  auto fail = [&fails, &artifact](const char* invariant, std::string msg) {
    fails.push_back(FuzzFailure{invariant, std::move(msg), artifact});
  };

  // --- invariant: the spec round-trips byte-identically ---------------
  try {
    if (ScenarioSpec::from_kv(job.spec.to_kv()) != job.spec)
      fail("kv_round_trip", "from_kv(to_kv()) reconstructs a different spec");
    const SweepJob parsed = parse_job_line(artifact);
    if (parsed.seed_offset != job.seed_offset || parsed.spec != job.spec ||
        format_job_line(parsed) != artifact)
      fail("kv_round_trip", "job line does not round-trip byte-identically");
  } catch (const std::exception& e) {
    fail("kv_round_trip", e.what());
  }

  // --- the run itself (twice, for the reproducibility invariant) ------
  RunReport r1, r2;
  try {
    r1 = run_scenario(job.spec, job.seed_offset);
    r2 = run_scenario(job.spec, job.seed_offset);
  } catch (const std::exception& e) {
    fail("run_throws", e.what());
    return fails;
  }
  if (ndjson != nullptr) {
    r1.write_json(*ndjson, /*include_timing=*/true);
    *ndjson << '\n';
  }

  // --- invariant: fingerprints are reproducible at a fixed seed -------
  if (r1.fingerprint != r2.fingerprint)
    fail("reproducibility", "fingerprints differ across identical runs");
  if (json_line_of(r1) != json_line_of(r2))
    fail("reproducibility", "no-timing JSON differs across identical runs");

  // --- invariant: the budget ledger is never violated -----------------
  const std::size_t budget = job.spec.n / job.spec.budget_div;
  if (r1.corrupt_count > budget)
    fail("budget", "corrupt_count " + std::to_string(r1.corrupt_count) +
                       " exceeds budget " + std::to_string(budget));
  BA_ENSURE(r1.detail != nullptr, "run_scenario reports carry detail");
  const std::vector<bool>& mask = r1.detail->corrupt_mask;
  if (mask.size() != job.spec.n) {
    fail("budget", "corrupt mask size != n");
    return fails;
  }
  std::size_t mask_count = 0;
  for (bool b : mask) mask_count += b ? 1 : 0;
  if (mask_count != r1.corrupt_count)
    fail("budget", "corrupt mask popcount != corrupt_count");
  if (job.spec.adversary == AdversaryKind::kPassive && r1.corrupt_count != 0)
    fail("budget", "passive adversary corrupted processors");

  // --- invariant: validity under unanimity with zero corruptions ------
  // The paper's validity property: if every (good) processor starts with
  // the same bit and nobody is corrupted, the protocol decides that bit.
  // Scoped to the kinds whose spec inputs are per-processor bits
  // (standalone A2E seeds beliefs, universe reduction takes no inputs)
  // and to the paper's synchronous model: a delay scheduler can starve a
  // tally entirely, and an empty tally defaults to majority 1 — a
  // legitimate decision flip the partial-synchrony suite studies, not an
  // invariant violation.
  if (job.spec.inputs == InputPattern::kUnanimous &&
      r1.corrupt_count == 0 &&
      job.spec.scheduler == SchedulerKind::kLockstep &&
      job.spec.protocol != ProtocolKind::kA2E &&
      job.spec.protocol != ProtocolKind::kUniverseReduction) {
    const int want = job.spec.input_value != 0 ? 1 : 0;
    if (r1.decided_bit != want)
      fail("validity", "unanimous input " + std::to_string(want) +
                           " but decided " +
                           std::to_string(r1.decided_bit));
    if (r1.validity != -1 && r1.validity != 1)
      fail("validity", "validity flag is 0 under unanimity with zero "
                       "corruptions");
    if (job.spec.protocol == ProtocolKind::kAeba &&
        r1.agreement_fraction != 1.0)
      fail("validity", "AEBA agreement fraction < 1 under unanimity with "
                       "zero corruptions");
  }

  // --- invariant: agreement is consistent with the detail block -------
  const std::size_t good = good_count(r1);
  switch (job.spec.protocol) {
    case ProtocolKind::kEverywhere: {
      const auto& d = r1.detail->everywhere;
      if (!d.has_value()) {
        fail("agreement", "everywhere detail missing");
        break;
      }
      const Recomputed re = recompute_agreement(d->ae.decision, mask);
      if (re.fraction != r1.agreement_fraction)
        fail("agreement", "phase-1 agreement fraction does not match the "
                          "decision vector");
      if ((d->ae.decided_bit ? 1 : 0) != (re.majority ? 1 : 0))
        fail("agreement", "phase-1 decided bit is not the good majority");
      if ((r1.all_good_agree != 0) != (d->a2e.wrong_count == 0))
        fail("agreement", "all_good_agree inconsistent with A2E wrong "
                          "count");
      std::size_t agree = 0;
      for (std::size_t p = 0; p < d->a2e.message.size(); ++p)
        if (!mask[p] &&
            d->a2e.message[p] == static_cast<std::uint64_t>(
                                     d->decided_bit ? 1 : 0))
          ++agree;
      if (agree != d->a2e.agree_count)
        fail("agreement", "A2E agree_count does not match the message "
                          "vector");
      if (d->a2e.agree_count + d->a2e.wrong_count != good)
        fail("agreement", "A2E agree + wrong counts do not cover the good "
                          "set");
      if (r1.validity !=
          (ae_validity(make_bit_inputs(job.spec, job.seed_offset), mask,
                       d->ae.decided_bit)
               ? 1
               : 0))
        fail("agreement", "validity flag does not match the input vector");
      break;
    }
    case ProtocolKind::kAlmostEverywhere: {
      const auto& d = r1.detail->ae;
      if (!d.has_value()) {
        fail("agreement", "ae detail missing");
        break;
      }
      const Recomputed re = recompute_agreement(d->decision, mask);
      if (re.fraction != r1.agreement_fraction)
        fail("agreement", "agreement fraction does not match the decision "
                          "vector");
      if ((d->decided_bit ? 1 : 0) != (re.majority ? 1 : 0))
        fail("agreement", "decided bit is not the good majority");
      if ((r1.all_good_agree != 0) != (r1.agreement_fraction >= 1.0))
        fail("agreement", "all_good_agree inconsistent with the fraction");
      if (r1.validity !=
          (ae_validity(make_bit_inputs(job.spec, job.seed_offset), mask,
                       d->decided_bit)
               ? 1
               : 0))
        fail("agreement", "validity flag does not match the input vector");
      break;
    }
    case ProtocolKind::kBenOr:
    case ProtocolKind::kRabin:
    case ProtocolKind::kProcessorElection: {
      const BaselineResult* b = nullptr;
      if (r1.detail->baseline.has_value()) b = &*r1.detail->baseline;
      if (r1.detail->election.has_value()) b = &r1.detail->election->ba;
      if (b == nullptr) {
        fail("agreement", "baseline detail missing");
        break;
      }
      if ((r1.all_good_agree != 0) != (r1.agreement_fraction == 1.0))
        fail("agreement", "all_good_agree inconsistent with the fraction");
      if (!fraction_over(r1.agreement_fraction, good))
        fail("agreement", "agreement fraction is not a good-count ratio");
      if (b->agreement_fraction != r1.agreement_fraction)
        fail("agreement", "report fraction differs from the detail block");
      break;
    }
    case ProtocolKind::kA2E: {
      const auto& d = r1.detail->a2e;
      if (!d.has_value()) {
        fail("agreement", "a2e detail missing");
        break;
      }
      std::size_t agree = 0, wrong = 0;
      for (std::size_t p = 0; p < d->message.size(); ++p) {
        if (mask[p]) continue;
        if (d->message[p] == job.spec.truth_message)
          ++agree;
        else
          ++wrong;
      }
      if (agree != d->agree_count || wrong != d->wrong_count)
        fail("agreement", "A2E agree/wrong counts do not match the message "
                          "vector");
      if ((r1.all_good_agree != 0) != (d->wrong_count == 0))
        fail("agreement", "all_good_agree inconsistent with wrong_count");
      const double expect =
          good > 0 ? static_cast<double>(d->agree_count) /
                         static_cast<double>(good)
                   : 0.0;
      if (r1.agreement_fraction != expect)
        fail("agreement", "agreement fraction is not agree_count / good");
      break;
    }
    case ProtocolKind::kAeba: {
      const auto& d = r1.detail->aeba;
      if (!d.has_value()) {
        fail("agreement", "aeba detail missing");
        break;
      }
      if (d->decided.size() != job.spec.aeba_instances ||
          d->agreement.size() != job.spec.aeba_instances) {
        fail("agreement", "AEBA per-instance vectors have the wrong size");
        break;
      }
      if (r1.decided_bit != (d->decided[0] ? 1 : 0) ||
          r1.agreement_fraction != d->agreement[0])
        fail("agreement", "report does not mirror AEBA instance 0");
      for (double a : d->agreement)
        if (!(a >= 0.0 && a <= 1.0) || !fraction_over(a, good))
          fail("agreement", "AEBA agreement fraction is not a good-count "
                            "ratio");
      break;
    }
    case ProtocolKind::kUniverseReduction: {
      const auto& d = r1.detail->universe;
      if (!d.has_value()) {
        fail("agreement", "universe detail missing");
        break;
      }
      if (r1.agreement_fraction != d->view_agreement)
        fail("agreement", "report does not mirror the view agreement");
      if (d->committee.size() != job.spec.committee_size)
        fail("agreement", "committee size differs from the spec");
      for (ProcId p : d->committee)
        if (p >= job.spec.n)
          fail("agreement", "committee member out of range");
      break;
    }
  }
  return fails;
}

FuzzSummary run_fuzz(std::uint64_t seed, std::size_t count,
                     std::ostream* ndjson, std::ostream& err) {
  FuzzSummary summary;
  const Rng master(seed);
  for (std::size_t i = 0; i < count; ++i) {
    Rng stream = master.fork(i);
    SweepJob job;
    job.spec = random_spec(stream);
    job.spec.name =
        "fuzz_" + std::to_string(seed) + "_" + std::to_string(i);
    const std::vector<FuzzFailure> fails = check_job(job, ndjson);
    ++summary.specs;
    if (!fails.empty()) {
      ++summary.failed_specs;
      for (const FuzzFailure& f : fails) {
        err << "FUZZ-FAIL[" << f.invariant << "] " << f.message << "\n"
            << "  replay: " << f.artifact << "\n";
        summary.failures.push_back(f);
      }
    }
  }
  return summary;
}

}  // namespace ba::sim
