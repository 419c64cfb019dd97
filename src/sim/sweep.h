// The sweep layer: scenario grids, the NDJSON report stream, the
// protocol-level perf ledger, and the ScenarioSpec fuzzer.
//
// `ba_run` executes one scenario; the paper's headline claim is a *curve*
// — Õ(√n) bits per processor as n grows — and the follow-up literature
// (Dufoulon–Pandurangan 2025, Cohen–Keidar–Spiegelman 2022; PAPERS.md) is
// evaluated as bit-complexity and round curves over n. This module turns
// the scenario layer into curve machinery:
//
//  * SweepJob + the key=value job line — ONE replayable artifact format
//    shared by grid shard files, `ba_run --jobs-file`, fuzz failure
//    artifacts and `ba_sweep --replay`. A job line is the spec's full
//    `to_kv()` plus the run's `seed_offset`, percent-escaped so the
//    free-text fields survive the space-separated grammar byte-exactly.
//  * expand_grid / default_grid — (scenario × n × workers × seed-range)
//    axes expanded into the deterministic job list behind the committed
//    BENCH_protocol.json (the "default" grid: 200+ jobs, everywhere-BA
//    n-curve 16..256 plus every protocol family and scheduler mode).
//  * paper_grids / render_paper_tables — the E-series experiment tables
//    as data: named grids (e1 … e13) whose table specs reduce in-process
//    runs, detail blocks included, into ba::Table rows and exponent fits
//    (`ba_sweep --grid e1`).
//  * parse_report_json — a strict reader for RunReport::write_json's
//    NDJSON schema. Parse → re-emit is byte-identical (the golden-file
//    round-trip test pins it), which is what lets the aggregator consume
//    shard outputs without a JSON dependency.
//  * aggregate_reports / write_ledger_json — per-(scenario, n) medians,
//    agreement/validity rates over seeds, and the least-squares fitted
//    exponent of max-bits vs n for the everywhere-BA family. The raw
//    log-log exponent at laptop scale is dominated by the Õ's hidden
//    polylog factors, so the ledger records both the raw slope and the
//    slope after dividing out log2(n)^3 — the latter is the √n claim with
//    Õ taken literally and must stay under kLog3ExponentCeiling.
//  * random_spec / check_job / run_fuzz — the spec fuzzer: thousands of
//    random valid ScenarioSpecs driven through to_kv/from_kv/apply and
//    run_scenario, asserting the cross-cutting invariants (byte-identical
//    round-trip, budget-ledger compliance, validity under unanimity with
//    zero corruptions, agreement consistent with the per-processor detail
//    block, fingerprint reproducibility). Every failure carries its job
//    line, so `ba_sweep --replay '<line>'` reproduces it exactly.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/table.h"
#include "sim/report.h"
#include "sim/scenario.h"

namespace ba::sim {

// --------------------------------------------------- job line artifact --

/// One grid/fuzz job: a fully-resolved spec plus the run's seed offset.
struct SweepJob {
  ScenarioSpec spec;
  std::uint64_t seed_offset = 0;
};

/// "seed_offset=K key=value key=value ..." — the spec's full to_kv() in
/// declaration order. Values are percent-escaped ('%', space, tab, CR,
/// LF) so free-text fields round-trip through the space-separated
/// grammar. parse(format(job)) is byte-identical.
std::string format_job_line(const SweepJob& job);

/// Inverse of format_job_line. Accepts the pairs in any order but rejects
/// (BA_REQUIRE) duplicated keys, unknown keys, bad escapes and malformed
/// tokens — a fuzz artifact must be unambiguous.
SweepJob parse_job_line(const std::string& line);

// -------------------------------------------------------------- grids --

/// One grid axis: a registry scenario crossed with n-overrides, worker
/// counts and a seed range (run_scenario's seed_offset, the historical
/// `base + s` sweep). `overrides` are spec.apply key=value pairs applied
/// first — including "name=..." to relabel the aggregation group.
struct GridAxis {
  std::string scenario;
  std::vector<std::pair<std::string, std::string>> overrides;
  std::vector<std::size_t> n_values;  ///< empty = keep the spec's n
  std::vector<std::size_t> workers;   ///< empty = {0} (ambient pool)
  std::size_t seeds = 1;              ///< seed offsets 0..seeds-1
};

/// Expand axes into the job list, in deterministic (axis, n, workers,
/// seed) order.
std::vector<SweepJob> expand_grid(const std::vector<GridAxis>& axes);

/// The committed "default" grid behind BENCH_protocol.json: the
/// everywhere-BA n-curve (16..256, the exponent-fit family) plus every
/// protocol family and scheduler mode at laptop scale, 200+ jobs.
std::vector<GridAxis> default_grid();

// -------------------------------------------------------- paper grids --

/// One finished run as a paper table reads it. Per-level tables see one
/// PaperRun per tournament level of the run, with `level` set.
struct PaperRun {
  const ScenarioSpec* spec = nullptr;
  const RunReport* report = nullptr;  ///< detail block engaged
  const AeLevelStats* level = nullptr;
};
using PaperRuns = std::vector<PaperRun>;

/// How a column reduces a row's runs (in job, i.e. seed, order). A rate
/// is the mean of a 0/1 metric.
enum class PaperAgg { kKey, kMean, kMin, kMax, kSum };

/// One column of a row table. Key columns select the row: runs whose key
/// cells all match form one row (so per-row constants such as bounds are
/// keys too). The other columns reduce the row's runs, or, with a
/// `source` label, that group's runs with the same key cells. `reduce`
/// replaces metric and agg for a one-off reduction.
struct PaperColumn {
  std::string header;
  std::function<Cell(const PaperRun&)> metric;
  PaperAgg agg = PaperAgg::kMean;
  std::string source = {};
  std::function<Cell(const PaperRuns&)> reduce = {};
};

/// What a derived line reads: the grid's tables rendered so far, and the
/// runs of any group label.
struct PaperContext {
  const std::vector<Table>& tables;
  std::function<PaperRuns(const std::string&)> runs;
};

/// A row table reads the runs whose report.scenario is `scenario` (an
/// axis relabeled by a "name" override). A derived table (`lines` set)
/// has an explicit header and computes each line from the context: the
/// exponent fits, E9's projected crossover, the few one-off tables.
struct PaperTable {
  std::string caption;
  std::string scenario;
  std::vector<PaperColumn> columns;
  bool per_level = false;  ///< rows over each run's AeLevelStats entries
  std::vector<std::string> header = {};
  std::vector<std::function<std::vector<Cell>(const PaperContext&)>> lines =
      {};
};

/// A named paper grid (`ba_sweep --grid e1`): one E-series experiment's
/// axes, seed offsets 0..k-1, plus the tables it prints.
struct PaperGrid {
  std::string name;
  std::vector<GridAxis> axes;
  std::vector<PaperTable> tables;
};

/// e1, e2, e3, e4, e6, e7, e9, e10, e11, e12 and e13.
const std::vector<PaperGrid>& paper_grids();

/// nullptr for names that are not paper grids ("default" included).
const PaperGrid* find_paper_grid(const std::string& name);

/// The grid's tables from its runs: `reports[i]` is job i's report with
/// its detail block (run_scenario in process).
std::vector<Table> render_paper_tables(const PaperGrid& grid,
                                       const std::vector<SweepJob>& jobs,
                                       const std::vector<RunReport>& reports);

// ----------------------------------------------------- NDJSON reading --

/// Strict parser for one RunReport::write_json line (either the timed or
/// the --no-timing form; `*had_timing` reports which). The schema is
/// validated field by field in emission order, so re-emitting the parsed
/// report reproduces the input byte for byte. Throws BA_REQUIRE on any
/// deviation. The returned report carries no detail block.
RunReport parse_report_json(const std::string& line,
                            bool* had_timing = nullptr);

// -------------------------------------------------------- aggregation --

/// Per-(scenario, n) aggregate over the seed sweep. Rates are over the
/// runs where the tri-state field was meaningful (!= -1); -1 when no run
/// reported the field (e.g. all_good_agree for standalone AEBA).
struct ScenarioAggregate {
  std::string scenario;
  std::string protocol;
  std::size_t n = 0;
  std::size_t runs = 0;
  double agreement_rate = -1.0;  ///< all_good_agree over meaningful runs
  double validity_rate = -1.0;   ///< validity over meaningful runs
  double mean_agreement_fraction = 0.0;
  std::uint64_t median_max_bits_good = 0;
  std::uint64_t max_max_bits_good = 0;
  std::uint64_t median_total_bits_good = 0;
  double mean_rounds = 0.0;
  std::uint64_t max_rounds = 0;
  double wall_ms = 0.0;  ///< summed over the group's runs
};

/// Least-squares fit of log(median max_bits_good) vs log(n) over the
/// fitted family's (n, median) points.
struct ExponentFit {
  std::string family;  ///< scenario name whose n-sweep was fitted
  std::vector<std::pair<std::size_t, std::uint64_t>> points;
  double exponent = 0.0;       ///< raw log-log slope
  double log3_exponent = 0.0;  ///< slope of log(median / log2(n)^3)
  double r2 = 0.0;             ///< of the raw fit
};

/// The Õ(√n) gate: max bits per processor divided by log2(n)^3 must grow
/// no faster than n^(0.5 + slack). The raw slope at laptop scale (n ≤
/// 256) is ≈ 0.9 — the polylog factors dominate there, which is exactly
/// why the gate divides them out before comparing against 1/2.
inline constexpr double kLog3ExponentCeiling = 0.6;

struct ProtocolLedger {
  std::string grid;  ///< grid name the jobs came from ("default", "fuzz")
  std::size_t jobs = 0;
  double wall_ms_total = 0.0;
  std::vector<ScenarioAggregate> scenarios;  ///< sorted by (scenario, n)
  std::optional<ExponentFit> fit;
};

/// Group reports by (scenario, n), compute the aggregates, and fit the
/// everywhere-protocol scenario with the most distinct n values (3+
/// required for a fit).
ProtocolLedger aggregate_reports(const std::vector<RunReport>& reports);

/// BENCH_protocol.json, pretty-printed with a stable key order. All
/// fields except wall_ms* are deterministic functions of the job list —
/// the CI gate diffs them exactly.
void write_ledger_json(std::ostream& os, const ProtocolLedger& ledger);

// -------------------------------------------------------------- fuzzer --

/// A random valid ScenarioSpec drawn from the full dimension space:
/// every protocol kind, adversary kind/fraction, input pattern (within
/// each kind's supported set), scheduler mode/delta_max/rush_depth, and
/// the tournament/AEBA/A2E knobs, with n kept at fuzz scale (tournament
/// kinds need n >= 4q = 16).
ScenarioSpec random_spec(Rng& rng);

struct FuzzFailure {
  std::string invariant;  ///< which invariant broke
  std::string message;    ///< what was observed
  std::string artifact;   ///< replayable job line (ba_sweep --replay)
};

/// Run one job through every invariant: kv round-trip, two full runs
/// (fingerprint + byte-identical no-timing JSON), budget ledger, validity
/// under unanimity with zero corruptions, and per-kind agreement
/// consistency against the detail block. The first run's timed report is
/// streamed to `ndjson` when non-null. Returns the violated invariants
/// (empty = pass); a throwing run is itself a failure.
std::vector<FuzzFailure> check_job(const SweepJob& job, std::ostream* ndjson);

struct FuzzSummary {
  std::size_t specs = 0;
  std::size_t failed_specs = 0;
  std::vector<FuzzFailure> failures;
};

/// Generate `count` random specs from Rng(seed) (one forked stream per
/// spec, so any prefix of the sweep is reproducible) and check_job each.
/// Failures are echoed to `err` with their replay artifact as they occur.
FuzzSummary run_fuzz(std::uint64_t seed, std::size_t count,
                     std::ostream* ndjson, std::ostream& err);

}  // namespace ba::sim
