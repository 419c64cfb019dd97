// The sweep layer's contract tests (sim/sweep.h):
//
//  * job-line artifacts — format/parse round-trips byte-identically for
//    every registry spec, and malformed lines (duplicate keys, unknown
//    keys, bad escapes) are rejected loudly;
//  * NDJSON reader — parse → re-emit is byte-identical against the
//    committed golden files (both the stable and the timed form), and
//    schema deviations throw;
//  * grid expansion — every named grid (the default ledger grid and the
//    e1 … e13 paper grids) expands deterministically into registry
//    scenarios and replayable job lines; the default grid is ≥ 200 jobs
//    (the committed BENCH_protocol.json's job cloud), and the cheapest
//    paper grid renders its tables end to end;
//  * aggregation — rates/medians over a synthetic report set, and the
//    exponent fit recovers a planted √n · log³ curve;
//  * the fuzzer itself — a bounded smoke sweep (the CI job runs 1000+)
//    with every invariant holding.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/protocol.h"
#include "sim/sweep.h"

namespace ba {
namespace {

using sim::RunReport;
using sim::ScenarioRegistry;
using sim::ScenarioSpec;
using sim::SweepJob;

std::string read_golden(const std::string& name) {
  const std::string path =
      std::string(BA_REPO_DIR) + "/tests/golden/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden file: " << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::string strip_newline(std::string s) {
  if (!s.empty() && s.back() == '\n') s.pop_back();
  return s;
}

std::string reemit(const RunReport& r, bool timing) {
  std::ostringstream os;
  r.write_json(os, timing);
  return os.str();
}

TEST(JobLine, RoundTripsForEveryRegistrySpec) {
  for (const ScenarioSpec& spec : ScenarioRegistry::all()) {
    const SweepJob job{spec, 3};
    const std::string line = sim::format_job_line(job);
    const SweepJob parsed = sim::parse_job_line(line);
    EXPECT_EQ(parsed.seed_offset, 3u);
    EXPECT_EQ(parsed.spec, spec) << spec.name;
    EXPECT_EQ(sim::format_job_line(parsed), line) << spec.name;
  }
}

TEST(JobLine, EscapesFreeTextFields) {
  ScenarioSpec spec = ScenarioRegistry::get("quickstart");
  spec.note = "100% spaces\tand\nnewlines";
  const std::string line = sim::format_job_line(SweepJob{spec, 0});
  // The escaped note must not smuggle separators into the line grammar.
  EXPECT_EQ(line.find('\n'), std::string::npos);
  EXPECT_EQ(line.find('\t'), std::string::npos);
  const SweepJob parsed = sim::parse_job_line(line);
  EXPECT_EQ(parsed.spec.note, spec.note);
}

TEST(JobLine, RejectsMalformedArtifacts) {
  const std::string line =
      sim::format_job_line(SweepJob{ScenarioRegistry::get("quickstart"), 0});
  EXPECT_THROW(sim::parse_job_line(line + " n=32"), std::logic_error)
      << "duplicate spec key";
  EXPECT_THROW(sim::parse_job_line(line + " seed_offset=1"),
               std::logic_error)
      << "duplicate seed_offset";
  EXPECT_THROW(sim::parse_job_line(line + " bogus_key=1"), std::logic_error)
      << "unknown key";
  EXPECT_THROW(sim::parse_job_line(line + " malformed-token"),
               std::logic_error)
      << "token without =";
  EXPECT_THROW(sim::parse_job_line("seed_offset=x n=16"), std::logic_error)
      << "non-numeric seed_offset";
  EXPECT_THROW(sim::parse_job_line(line + " note=bad%G0escape"),
               std::logic_error)
      << "bad percent escape";
}

TEST(NdjsonReader, GoldenReportsRoundTripByteIdentically) {
  for (const char* name :
       {"quickstart_n64.json", "randomness_beacon_n64.json"}) {
    const std::string golden = strip_newline(read_golden(name));
    bool had_timing = true;
    const RunReport parsed = sim::parse_report_json(golden, &had_timing);
    EXPECT_FALSE(had_timing) << name;
    EXPECT_EQ(reemit(parsed, false), golden) << name;
  }
}

TEST(NdjsonReader, TimedReportRoundTripsByteIdentically) {
  const RunReport report =
      sim::run_scenario(ScenarioRegistry::get("e9_benor_small"));
  const std::string timed = reemit(report, true);
  bool had_timing = false;
  const RunReport parsed = sim::parse_report_json(timed, &had_timing);
  EXPECT_TRUE(had_timing);
  EXPECT_EQ(reemit(parsed, true), timed);
  EXPECT_EQ(parsed.fingerprint, report.fingerprint);
  EXPECT_EQ(parsed.wall_ms, report.wall_ms);
}

TEST(NdjsonReader, RejectsSchemaDeviations) {
  const std::string good = strip_newline(read_golden("quickstart_n64.json"));
  EXPECT_THROW(sim::parse_report_json(good + " "), std::logic_error)
      << "trailing bytes";
  EXPECT_THROW(sim::parse_report_json(good.substr(0, good.size() - 1)),
               std::logic_error)
      << "truncated object";
  std::string reordered = good;
  const auto pos = reordered.find("\"rounds\":");
  reordered.replace(pos, 9, "\"Rounds\":");
  EXPECT_THROW(sim::parse_report_json(reordered), std::logic_error)
      << "unexpected key";
}

TEST(Grid, EveryNamedGridIsDeterministicAndReplayable) {
  std::vector<std::pair<std::string, std::vector<sim::GridAxis>>> grids = {
      {"default", sim::default_grid()}};
  for (const sim::PaperGrid& g : sim::paper_grids()) {
    EXPECT_EQ(sim::find_paper_grid(g.name), &g);
    grids.emplace_back(g.name, g.axes);
  }
  EXPECT_EQ(grids.size(), 12u);
  EXPECT_EQ(sim::find_paper_grid("default"), nullptr);
  for (const auto& [name, axes] : grids) {
    SCOPED_TRACE(name);
    for (const sim::GridAxis& axis : axes)
      EXPECT_NE(ScenarioRegistry::find(axis.scenario), nullptr)
          << axis.scenario;
    const auto jobs = sim::expand_grid(axes);
    ASSERT_FALSE(jobs.empty());
    const auto again = sim::expand_grid(axes);
    ASSERT_EQ(jobs.size(), again.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const std::string line = sim::format_job_line(jobs[i]);
      EXPECT_EQ(line, sim::format_job_line(again[i]));
      EXPECT_EQ(sim::format_job_line(sim::parse_job_line(line)), line);
    }
  }

  const auto jobs = sim::expand_grid(sim::default_grid());
  EXPECT_GE(jobs.size(), 200u);
  // The exponent-fit family must span 3+ distinct n of everywhere runs.
  std::vector<std::size_t> fit_ns;
  for (const SweepJob& job : jobs)
    if (job.spec.name == "quickstart" &&
        job.spec.protocol == sim::ProtocolKind::kEverywhere) {
      bool seen = false;
      for (std::size_t n : fit_ns) seen = seen || n == job.spec.n;
      if (!seen) fit_ns.push_back(job.spec.n);
    }
  EXPECT_GE(fit_ns.size(), 3u);
}

TEST(Grid, CheapestPaperGridRendersItsTables) {
  // e4: row tables with key bounds, a kMax integer column, and a derived
  // exponent-fit table over an earlier table.
  const sim::PaperGrid& grid = *sim::find_paper_grid("e4");
  const auto jobs = sim::expand_grid(grid.axes);
  std::vector<RunReport> reports;
  for (const SweepJob& job : jobs)
    reports.push_back(sim::run_scenario(job.spec, job.seed_offset));
  const std::vector<Table> tables =
      sim::render_paper_tables(grid, jobs, reports);
  ASSERT_EQ(tables.size(), grid.tables.size());
  const std::vector<std::size_t> rows = {5, 4, 3, 1};
  ASSERT_EQ(tables.size(), rows.size());
  for (std::size_t i = 0; i < tables.size(); ++i) {
    SCOPED_TRACE(tables[i].caption());
    EXPECT_EQ(tables[i].caption(), grid.tables[i].caption);
    std::vector<std::string> header = grid.tables[i].header;
    for (const sim::PaperColumn& c : grid.tables[i].columns)
      header.push_back(c.header);
    EXPECT_EQ(tables[i].header(), header);
    EXPECT_EQ(tables[i].num_rows(), rows[i]);
  }
  // Key cells keep their type: E4b's flood_per_pair and max_overloaded
  // are integers, E4c's n column feeds the fit.
  EXPECT_EQ(std::get<std::int64_t>(tables[1].rows()[3][0]), 1024);
  EXPECT_TRUE(std::holds_alternative<std::int64_t>(tables[1].rows()[0][1]));
  EXPECT_EQ(std::get<std::int64_t>(tables[2].rows()[0][0]), 256);
  EXPECT_GT(std::get<double>(tables[3].rows()[0][1]), 0.0);
}

TEST(Grid, ExpandAppliesOverridesAndRelabels) {
  sim::GridAxis axis;
  axis.scenario = "quickstart";
  axis.overrides = {{"name", "relabeled"}, {"corrupt_fraction", "0.2"}};
  axis.n_values = {16, 32};
  axis.workers = {1, 2};
  axis.seeds = 3;
  const auto jobs = sim::expand_grid({axis});
  ASSERT_EQ(jobs.size(), 2u * 2u * 3u);
  for (const SweepJob& job : jobs) {
    EXPECT_EQ(job.spec.name, "relabeled");
    EXPECT_EQ(job.spec.corrupt_fraction, 0.2);
  }
  EXPECT_EQ(jobs[0].spec.n, 16u);
  EXPECT_EQ(jobs.back().spec.n, 32u);
  EXPECT_EQ(jobs[0].seed_offset, 0u);
  EXPECT_EQ(jobs[2].seed_offset, 2u);
}

RunReport synthetic_report(const std::string& scenario, std::size_t n,
                           std::uint64_t seed, std::uint64_t max_bits,
                           int agree) {
  RunReport r;
  r.scenario = scenario;
  r.protocol = sim::ProtocolKind::kEverywhere;
  r.n = n;
  r.seed_offset = seed;
  r.workers = 1;
  r.decided_bit = 1;
  r.validity = 1;
  r.all_good_agree = agree;
  r.agreement_fraction = agree == 1 ? 1.0 : 0.9;
  r.rounds = 10;
  r.max_bits_good = max_bits;
  r.total_bits_good = max_bits * n;
  r.total_msgs_good = n;
  return r;
}

TEST(Aggregate, RatesAndMediansOverSeeds) {
  std::vector<RunReport> reports;
  reports.push_back(synthetic_report("s", 64, 0, 100, 1));
  reports.push_back(synthetic_report("s", 64, 1, 300, 1));
  reports.push_back(synthetic_report("s", 64, 2, 200, 0));
  reports.back().validity = -1;
  const sim::ProtocolLedger ledger = sim::aggregate_reports(reports);
  ASSERT_EQ(ledger.scenarios.size(), 1u);
  const sim::ScenarioAggregate& a = ledger.scenarios[0];
  EXPECT_EQ(a.runs, 3u);
  EXPECT_DOUBLE_EQ(a.agreement_rate, 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(a.validity_rate, 1.0);  // over the 2 meaningful runs
  EXPECT_EQ(a.median_max_bits_good, 200u);
  EXPECT_EQ(a.max_max_bits_good, 300u);
  EXPECT_FALSE(ledger.fit.has_value()) << "one n cannot fit an exponent";
}

TEST(Aggregate, FitRecoversPlantedSqrtNLog3Curve) {
  // max_bits = 1000 · √n · log2(n)³ — the literal Õ(√n) shape. The
  // log3-corrected slope must come out ≈ 0.5 and the raw slope well
  // above it (the polylog dominates at these n).
  std::vector<RunReport> reports;
  for (std::size_t n : {16, 32, 64, 128, 256}) {
    const double lg = std::log2(static_cast<double>(n));
    const auto bits = static_cast<std::uint64_t>(
        1000.0 * std::sqrt(static_cast<double>(n)) * lg * lg * lg);
    reports.push_back(synthetic_report("curve", n, 0, bits, 1));
  }
  const sim::ProtocolLedger ledger = sim::aggregate_reports(reports);
  ASSERT_TRUE(ledger.fit.has_value());
  const sim::ExponentFit& fit = *ledger.fit;
  EXPECT_EQ(fit.family, "curve");
  EXPECT_EQ(fit.points.size(), 5u);
  EXPECT_NEAR(fit.log3_exponent, 0.5, 0.01);
  EXPECT_GT(fit.exponent, fit.log3_exponent);
  EXPECT_GT(fit.r2, 0.99);
  EXPECT_LE(fit.log3_exponent, sim::kLog3ExponentCeiling);
}

TEST(Aggregate, LedgerJsonHasTheGateFields) {
  std::vector<RunReport> reports;
  reports.push_back(synthetic_report("s", 64, 0, 100, 1));
  sim::ProtocolLedger ledger = sim::aggregate_reports(reports);
  ledger.grid = "default";
  std::ostringstream os;
  sim::write_ledger_json(os, ledger);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"schema\": \"ba.bench_protocol.v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"agreement_rate\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"median_max_bits_good\": 100"), std::string::npos);
  EXPECT_NE(json.find("\"fit\": null"), std::string::npos);
}

TEST(CheckJob, RegistrySpecSatisfiesEveryInvariant) {
  const SweepJob job{ScenarioRegistry::get("quickstart").with_n(16), 0};
  const auto fails = sim::check_job(job, nullptr);
  for (const auto& f : fails)
    ADD_FAILURE() << f.invariant << ": " << f.message << "\n  replay: "
                  << f.artifact;
}

TEST(Fuzz, BoundedSmokeSweepHoldsEveryInvariant) {
  // The CI job runs 1000+ specs; this bounded sweep keeps the invariant
  // machinery honest inside the tier-1 suite.
  std::ostringstream sink, err;
  const sim::FuzzSummary summary = sim::run_fuzz(42, 60, &sink, err);
  EXPECT_EQ(summary.specs, 60u);
  EXPECT_EQ(summary.failed_specs, 0u) << err.str();
  // One timed NDJSON line per spec reached the stream.
  std::size_t lines = 0;
  std::string line;
  std::istringstream in(sink.str());
  while (std::getline(in, line)) {
    ++lines;
    bool had_timing = false;
    const RunReport r = sim::parse_report_json(line, &had_timing);
    EXPECT_TRUE(had_timing);
    EXPECT_EQ(reemit(r, true), line);
  }
  EXPECT_EQ(lines, 60u);
}

TEST(Fuzz, PrefixReproducibility) {
  // Spec i is a pure function of (seed, i): re-running a shorter sweep
  // reproduces the same prefix — what makes any fuzz failure replayable
  // from just (seed, count).
  const Rng a(99);
  const Rng b(99);
  for (std::size_t i = 0; i < 8; ++i) {
    Rng sa = a.fork(i);
    Rng sb = b.fork(i);
    const ScenarioSpec sp1 = sim::random_spec(sa);
    const ScenarioSpec sp2 = sim::random_spec(sb);
    EXPECT_EQ(sp1, sp2) << i;
  }
}

}  // namespace
}  // namespace ba
