// Aligned-text table output for the paper tables.
//
// Every paper table — the `ba_sweep --grid eN` grids (sim/sweep.h) and
// the library Monte-Carlo benches in bench/ — prints in the same format:
// a caption naming the paper claim, a header row, then data rows. The
// README's "Paper tables" section maps each table to its grid.
#pragma once

#include <iosfwd>
#include <string>
#include <variant>
#include <vector>

namespace ba {

/// One cell: string, integer or double (printed with %.4g-style precision).
using Cell = std::variant<std::string, std::int64_t, double>;

class Table {
 public:
  explicit Table(std::string caption);

  Table& header(std::vector<std::string> cols);
  Table& row(std::vector<Cell> cells);

  /// Aligned plain-text rendering with the caption on top.
  void print(std::ostream& os) const;

  std::size_t num_rows() const { return rows_.size(); }
  const std::string& caption() const { return caption_; }
  const std::vector<std::string>& header() const { return header_; }
  const std::vector<std::vector<Cell>>& rows() const { return rows_; }

 private:
  static std::string render(const Cell& c);
  std::string caption_;
  std::vector<std::string> header_;
  std::vector<std::vector<Cell>> rows_;
};

/// Least-squares slope of log(y) vs log(x): the fitted exponent b in
/// y ≈ a·x^b. Used by the paper tables to report scaling shape. Ignores
/// pairs with non-positive coordinates; requires at least two usable
/// points.
double fit_log_log_exponent(const std::vector<double>& xs,
                            const std::vector<double>& ys);

}  // namespace ba
