// Berlekamp–Welch robust decoding over GF(2^61 - 1).
//
// The paper's scheme is non-verifiable: wrong shares injected by corrupted
// processors make a plain Lagrange reconstruction wrong, and the protocol
// compensates with node-level majorities (sendOpen, Section 3.2.3). This
// decoder is the library's *extension* (Conclusion: "can the techniques be
// made practical?"): with m shares of a degree-t polynomial it corrects up
// to (m - t - 1) / 2 arbitrary share corruptions. The protocols decode
// with Gao (crypto/gao.h) behind robust_reconstruct(); berlekamp_welch()
// and BatchedBerlekampWelch are the tests' differential oracle for it.
#pragma once

#include <optional>
#include <vector>

#include "common/field.h"
#include "crypto/shamir.h"

namespace ba {

/// Solve A z = b over GF(p) by fraction-free Gaussian elimination (one
/// batched pivot inversion for the whole solve). A is row-major
/// rows x cols; returns any solution (free variables set to zero) or
/// nullopt if inconsistent.
std::optional<std::vector<Fp>> solve_linear(std::vector<std::vector<Fp>> a,
                                            std::vector<Fp> b);

/// Decode the unique polynomial of degree <= degree passing through all but
/// at most `max_errors` of the points (xs[i], ys[i]). Returns coefficients
/// (constant term first) or nullopt when decoding fails (too many errors).
/// Requires xs distinct and xs.size() >= degree + 1 + 2 * max_errors.
std::optional<std::vector<Fp>> berlekamp_welch(const std::vector<Fp>& xs,
                                               const std::vector<Fp>& ys,
                                               std::size_t degree,
                                               std::size_t max_errors);

/// Shared-factorization Berlekamp–Welch over a word batch — the
/// differential-testing oracle for the Gao decoder (ROADMAP: "batched BW
/// as a cross-check").
///
/// The BW linear system [V | -y∘V_e] (Q coefficients | E coefficients)
/// splits into a Vandermonde block V that depends only on the point set
/// and y-scaled columns that change per word. This class eliminates V
/// once at construction — recording the fraction-free row operations
/// (pivots and multipliers; no row swaps needed, every leading minor of a
/// distinct-point Vandermonde is nonsingular) — and per word only replays
/// those operations over the max_errors + 1 y-dependent columns, solves
/// the (m - qn) x max_errors tail system, and back-substitutes. Per-word
/// cost is O(m * qn * max_errors) instead of the O(m * (qn + e)^2)
/// full Gaussian solve, and the accept/reject contract is identical to
/// berlekamp_welch(): same decoded polynomial inside the budget, nullopt
/// beyond it.
///
/// Requires distinct xs (the degenerate duplicated-point sets stay with
/// plain berlekamp_welch()) and xs.size() >= degree + 1 + 2 * max_errors.
class BatchedBerlekampWelch {
 public:
  /// Per-word replay scratch; own one per worker for concurrent decoding.
  struct Scratch {
    std::vector<Fp> cols;  ///< row-major m x (max_errors + 1) replay block
    std::vector<Fp> q, e;
  };

  BatchedBerlekampWelch(std::vector<Fp> xs, std::size_t degree,
                        std::size_t max_errors);

  const std::vector<Fp>& points() const { return xs_; }
  std::size_t degree() const { return degree_; }
  std::size_t max_errors() const { return max_errors_; }

  /// Decode one word against the shared factorization. Same contract as
  /// berlekamp_welch(xs, ys, degree, max_errors). Uses the internal
  /// scratch: single caller at a time.
  std::optional<std::vector<Fp>> decode(const std::vector<Fp>& ys) const;

  /// Scratch-explicit decode: touches only the immutable factorization
  /// besides `scratch`, so concurrent calls with distinct scratches are
  /// safe.
  std::optional<std::vector<Fp>> decode(const std::vector<Fp>& ys,
                                        Scratch& scratch) const;

  /// The word-batch entry point: decode every ys vector of the batch,
  /// sharing the factorization (and one scratch) across words.
  std::vector<std::optional<std::vector<Fp>>> decode_words(
      const std::vector<std::vector<Fp>>& words) const;

 private:
  std::size_t m_, degree_, max_errors_;
  std::size_t qn_;            ///< Q columns = degree + max_errors + 1
  std::vector<Fp> xs_;
  std::vector<Fp> xpow_;      ///< row-major m x (max_errors + 1): x_i^j
  std::vector<Fp> upper_;     ///< row-major qn x qn eliminated V block
  std::vector<Fp> pivots_;    ///< upper_[r][r], r < qn
  std::vector<Fp> pivot_inv_; ///< batch-inverted pivots
  /// factors_[r] holds the step-r multipliers for rows r+1 .. m-1.
  std::vector<std::vector<Fp>> factors_;
  mutable Scratch scratch_;   ///< backs the scratch-less overload
};

/// Robust word-vector reconstruction with the largest error budget the
/// share count allows — the single entry point over the tiered decoder
/// (crypto/scheme_cache.h): a word costs O(m * (m - t)) multiplications
/// and no inversions per head tried against precomputed barycentric rows
/// (head 0 settles clean words, disjoint heads most damaged ones), and a
/// word no head explains is decoded by Gao's extended-Euclid algorithm
/// (O(m^2), crypto/gao.h). Share x values must
/// be distinct (BA_REQUIRE). Returns nullopt if any word fails to decode.
std::optional<std::vector<Fp>> robust_reconstruct(
    const std::vector<VectorShare>& shares, std::size_t privacy_threshold);

}  // namespace ba
