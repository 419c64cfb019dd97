// Arithmetic in GF(p) with p = 2^61 - 1 (a Mersenne prime).
//
// This is the algebra under the Shamir threshold scheme in `crypto/`.
// The paper (Section 3.1) assumes any (n, t+1) non-verifiable threshold
// scheme; Shamir over a ~61-bit prime field makes one "word" of the paper's
// arrays exactly one field element, so share sizes equal secret sizes
// (shares of size proportional to the message, as the paper requires).
//
// All operations are total and constant-time-ish; invariants: every Fp
// value is canonical in [0, p).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/check.h"

namespace ba {

/// Bits in one field word — the unit of the paper's bit accounting.
inline constexpr std::size_t kWordBits = 61;

/// A value in GF(2^61 - 1). Regular value type.
class Fp {
 public:
  static constexpr std::uint64_t kP = (1ULL << 61) - 1;

  constexpr Fp() : v_(0) {}
  /// Reduces any 64-bit value into the field.
  constexpr explicit Fp(std::uint64_t v) : v_(reduce64(v)) {}

  constexpr std::uint64_t value() const { return v_; }

  friend constexpr bool operator==(Fp a, Fp b) { return a.v_ == b.v_; }
  friend constexpr bool operator!=(Fp a, Fp b) { return a.v_ != b.v_; }

  friend constexpr Fp operator+(Fp a, Fp b) {
    std::uint64_t s = a.v_ + b.v_;  // < 2^62, no overflow
    if (s >= kP) s -= kP;
    return from_canonical(s);
  }
  friend constexpr Fp operator-(Fp a, Fp b) {
    std::uint64_t s = a.v_ + kP - b.v_;
    if (s >= kP) s -= kP;
    return from_canonical(s);
  }
  friend Fp operator*(Fp a, Fp b) {
    unsigned __int128 prod =
        static_cast<unsigned __int128>(a.v_) * static_cast<unsigned __int128>(b.v_);
    // Mersenne reduction: x = hi*2^61 + lo ≡ hi + lo (mod 2^61 - 1).
    std::uint64_t lo = static_cast<std::uint64_t>(prod) & kP;
    std::uint64_t hi = static_cast<std::uint64_t>(prod >> 61);
    std::uint64_t s = lo + hi;
    if (s >= kP) s -= kP;
    return from_canonical(s);
  }

  Fp& operator+=(Fp o) { return *this = *this + o; }
  Fp& operator-=(Fp o) { return *this = *this - o; }
  Fp& operator*=(Fp o) { return *this = *this * o; }

  /// a^e by square-and-multiply.
  Fp pow(std::uint64_t e) const;

  /// Multiplicative inverse. Requires non-zero.
  Fp inverse() const;

  constexpr bool is_zero() const { return v_ == 0; }

 private:
  static constexpr Fp from_canonical(std::uint64_t v) {
    Fp f;
    f.v_ = v;
    return f;
  }
  static constexpr std::uint64_t reduce64(std::uint64_t v) {
    std::uint64_t r = (v & kP) + (v >> 61);
    if (r >= kP) r -= kP;
    return r;
  }
  std::uint64_t v_;
};

/// Evaluate polynomial with coefficients `coeffs` (constant term first) at x.
Fp poly_eval(const std::vector<Fp>& coeffs, Fp x);

/// Lagrange interpolation at x = 0 from points (xs[i], ys[i]).
/// Requires distinct xs and xs.size() == ys.size() >= 1.
Fp lagrange_at_zero(const std::vector<Fp>& xs, const std::vector<Fp>& ys);

/// Divide polynomial num by den (coefficients constant-term first).
/// Returns the quotient iff the division is exact (zero remainder),
/// nullopt otherwise or when den is the zero polynomial.
std::optional<std::vector<Fp>> poly_divide_exact(std::vector<Fp> num,
                                                 const std::vector<Fp>& den);

/// In-place form of poly_divide_exact for reused buffers: divides num
/// (clobbered) by den, writes the quotient into `quot` and returns true
/// iff the division is exact. Allocates nothing once `quot` has capacity.
bool poly_divide_exact(std::vector<Fp>& num, const std::vector<Fp>& den,
                       std::vector<Fp>& quot);

/// Montgomery batch inversion: replaces every v[i] with v[i]^-1 using
/// 3(n-1) multiplications and a single Fermat exponentiation (instead of
/// one ~90-multiplication exponentiation per element). Requires all
/// entries non-zero.
void batch_inverse(Fp* v, std::size_t n);
inline void batch_inverse(std::vector<Fp>& v) { batch_inverse(v.data(), v.size()); }

/// Monomial coefficients (constant term first, exactly xs.size() of them)
/// of the unique polynomial of degree < xs.size() through (xs[i], ys[i]).
/// Newton divided differences with one batched inversion for all
/// denominators: O(m^2) multiplications, one Fermat exponentiation.
/// Requires distinct xs and xs.size() == ys.size() >= 1.
std::vector<Fp> interpolate_coeffs(const std::vector<Fp>& xs,
                                   const std::vector<Fp>& ys);

/// Lagrange interpolation over a *fixed* point set, amortized across many
/// evaluations. Construction costs O(m^2) multiplications plus a single
/// batched inversion; every subsequent evaluation at 0 is m multiplications
/// and zero inversions. This is the reconstruction hot path: Shamir
/// word-vector secrets share one point set across all words, so the seed's
/// per-word O(m^2)-with-m-inverses `lagrange_at_zero` collapses to O(m).
class BarycentricInterpolator {
 public:
  /// Requires distinct xs (throws std::logic_error otherwise), size >= 1.
  explicit BarycentricInterpolator(std::vector<Fp> xs);

  std::size_t size() const { return xs_.size(); }
  const std::vector<Fp>& points() const { return xs_; }

  /// The row of Lagrange basis values L_i(0); eval_at_zero is its dot
  /// product with ys.
  const std::vector<Fp>& zero_row() const { return zero_row_; }

  /// p(0) for the interpolant through (xs[i], ys[i]). Exact match with
  /// lagrange_at_zero(xs, ys). O(m) multiplications, no inversions.
  Fp eval_at_zero(const std::vector<Fp>& ys) const;

  /// The row of Lagrange basis values L_i(z): p(z) = sum_i row[i] * ys[i].
  /// One batched inversion; reuse the row to verify many word-vectors
  /// against the same redundant point. Handles z equal to a node exactly.
  std::vector<Fp> row_at(Fp z) const;

  /// row_at for many points at once, row-major zs.size() x size(), with
  /// one batched inversion for every row.
  std::vector<Fp> rows_at(const std::vector<Fp>& zs) const;

  /// Dot product helper: p(z) given a precomputed row from row_at.
  static Fp eval_row(const std::vector<Fp>& row, const std::vector<Fp>& ys);

 private:
  std::vector<Fp> xs_;
  std::vector<Fp> w_;         ///< barycentric weights 1 / prod_{j!=i}(x_i - x_j)
  std::vector<Fp> zero_row_;  ///< L_i(0)
};

}  // namespace ba
