// Gao decoding of Reed–Solomon / Shamir words over GF(2^61 - 1).
//
// Berlekamp–Welch (crypto/berlekamp_welch.h) recovers a damaged word by
// building and solving a fresh (m x (q+e)) linear system per word — O(m^3)
// field multiplications each. Gao's decoder (S. Gao, "A new algorithm for
// decoding Reed-Solomon codes", 2003) gets the same unique decoding radius
// from a partial extended Euclid run on
//
//   g0(x) = prod_i (x - x_i)        and
//   g1(x) = the interpolant through all m points,
//
// stopping at the first remainder r with deg r < (m + degree + 1) / 2 and
// returning f = r / v (u*g0 + v*g1 = r). Everything is O(m^2) per word,
// and the expensive per-point-set work — g0 and the inverted Newton
// divided-difference denominators for g1 — depends only on xs, so a
// GaoContext amortizes it across every word sharing the point set (the
// share pipeline's fallback for damaged words no head explains).
#pragma once

#include <optional>
#include <vector>

#include "common/field.h"

namespace ba {

/// Per-point-set precompute for Gao decoding: g0(x) = prod (x - x_i) and
/// the inverted Newton denominators. Requires distinct xs (throws
/// std::logic_error otherwise). Reusable across any number of ys vectors.
/// Immutable after construction: decode() keeps its working polynomials
/// in a caller-owned Scratch, so one context may serve concurrent pool
/// workers that each own their scratch.
class GaoContext {
 public:
  /// Working polynomials of one decode. Reused across words, a decode
  /// allocates nothing once the buffers have reached the point set's size.
  struct Scratch {
    std::vector<Fp> newton, prev;   ///< divided-difference levels
    std::vector<Fp> r_prev, r_cur;  ///< Euclid remainders
    std::vector<Fp> v_prev, v_cur;  ///< their v Bezout coefficients
    std::vector<Fp> evals;          ///< verification sweep
    std::vector<Fp> p;              ///< decoded polynomial on success
  };

  explicit GaoContext(std::vector<Fp> xs);

  const std::vector<Fp>& points() const { return xs_; }

  /// Decode the unique polynomial of degree <= `degree` passing through
  /// all but at most `max_errors` of (xs[i], ys[i]). Same contract as
  /// berlekamp_welch(): returns coefficients (constant term first, at most
  /// degree + 1 of them) or nullopt when decoding fails. Requires
  /// ys.size() == points().size() >= degree + 1 + 2 * max_errors.
  std::optional<std::vector<Fp>> decode(const std::vector<Fp>& ys,
                                        std::size_t degree,
                                        std::size_t max_errors) const;

  /// Scratch-explicit decode: on success the coefficients are left in
  /// scratch.p and the call returns true; same contract otherwise. The
  /// Euclid run uses pseudo-division, so the only field inversion per
  /// word is the final exact division f = r / v.
  bool decode(const std::vector<Fp>& ys, std::size_t degree,
              std::size_t max_errors, Scratch& scratch) const;

 private:
  /// Newton interpolation through all points with the cached inverted
  /// denominators into scratch.r_cur: O(m^2) multiplications, zero
  /// inversions.
  void interpolate_all(const std::vector<Fp>& ys, Scratch& scratch) const;

  std::vector<Fp> xs_;
  std::vector<Fp> g0_;        ///< prod_i (x - x_i), constant term first
  std::vector<Fp> inv_dens_;  ///< inverted divided-difference denominators
};

/// One-shot convenience wrapper: build a GaoContext and decode once.
/// Drop-in alternative to berlekamp_welch() for distinct xs.
std::optional<std::vector<Fp>> gao_decode(const std::vector<Fp>& xs,
                                          const std::vector<Fp>& ys,
                                          std::size_t degree,
                                          std::size_t max_errors);

}  // namespace ba
