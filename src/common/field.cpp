#include "common/field.h"

#include <algorithm>

#include "common/simd.h"

namespace ba {

Fp Fp::pow(std::uint64_t e) const {
  Fp base = *this;
  Fp acc(1);
  while (e != 0) {
    if (e & 1) acc *= base;
    base *= base;
    e >>= 1;
  }
  return acc;
}

Fp Fp::inverse() const {
  BA_REQUIRE(!is_zero(), "zero has no multiplicative inverse");
  // Fermat: a^(p-2) mod p.
  return pow(kP - 2);
}

Fp poly_eval(const std::vector<Fp>& coeffs, Fp x) {
  Fp acc(0);
  for (auto it = coeffs.rbegin(); it != coeffs.rend(); ++it) {
    acc = acc * x + *it;  // Horner
  }
  return acc;
}

Fp lagrange_at_zero(const std::vector<Fp>& xs, const std::vector<Fp>& ys) {
  BA_REQUIRE(!xs.empty() && xs.size() == ys.size(),
             "need matching non-empty point vectors");
  const std::size_t m = xs.size();
  Fp acc(0);
  for (std::size_t i = 0; i < m; ++i) {
    Fp num(1);
    Fp den(1);
    for (std::size_t j = 0; j < m; ++j) {
      if (j == i) continue;
      BA_REQUIRE(xs[i] != xs[j], "interpolation points must be distinct");
      num *= Fp(0) - xs[j];        // (0 - x_j)
      den *= xs[i] - xs[j];        // (x_i - x_j)
    }
    acc += ys[i] * num * den.inverse();
  }
  return acc;
}

std::optional<std::vector<Fp>> poly_divide_exact(std::vector<Fp> num,
                                                 const std::vector<Fp>& den) {
  std::vector<Fp> quot;
  if (!poly_divide_exact(num, den, quot)) return std::nullopt;
  return quot;
}

bool poly_divide_exact(std::vector<Fp>& num, const std::vector<Fp>& den,
                       std::vector<Fp>& quot) {
  // Trim leading zeros of den.
  std::size_t dd = den.size();
  while (dd > 0 && den[dd - 1].is_zero()) --dd;
  if (dd == 0) return false;  // division by zero polynomial
  if (num.size() < dd) {
    // num must be the zero polynomial for exactness.
    for (const Fp& c : num)
      if (!c.is_zero()) return false;
    quot.assign(1, Fp(0));
    return true;
  }
  const Fp lead_inv = den[dd - 1].inverse();
  quot.assign(num.size() - dd + 1, Fp(0));
  for (std::size_t qi = quot.size(); qi-- > 0;) {
    const Fp coef = num[qi + dd - 1] * lead_inv;
    quot[qi] = coef;
    if (coef.is_zero()) continue;
    simd::fnma_mod_p(&num[qi], den.data(), coef, dd);
  }
  for (const Fp& c : num)
    if (!c.is_zero()) return false;  // non-zero remainder
  return true;
}

void batch_inverse(Fp* v, std::size_t n) {
  if (n == 0) return;
  // Montgomery's trick: prefix[i] = v[0] * ... * v[i]; invert the full
  // product once, then peel inverses off the back.
  std::vector<Fp> prefix(n);
  Fp acc(1);
  for (std::size_t i = 0; i < n; ++i) {
    BA_REQUIRE(!v[i].is_zero(), "zero has no multiplicative inverse");
    acc *= v[i];
    prefix[i] = acc;
  }
  Fp inv = acc.inverse();
  for (std::size_t i = n; i-- > 1;) {
    const Fp vi = v[i];
    v[i] = inv * prefix[i - 1];
    inv *= vi;
  }
  v[0] = inv;
}

std::vector<Fp> interpolate_coeffs(const std::vector<Fp>& xs,
                                   const std::vector<Fp>& ys) {
  BA_REQUIRE(!xs.empty() && xs.size() == ys.size(),
             "need matching non-empty point vectors");
  const std::size_t m = xs.size();
  // All divided-difference denominators x_{i} - x_{i-k}, batched into one
  // inversion. A zero denominator is a duplicated interpolation point.
  std::vector<Fp> dens;
  dens.reserve(m * (m - 1) / 2);
  for (std::size_t k = 1; k < m; ++k)
    for (std::size_t i = m; i-- > k;) {
      const Fp d = xs[i] - xs[i - k];
      BA_REQUIRE(!d.is_zero(), "interpolation points must be distinct");
      dens.push_back(d);
    }
  batch_inverse(dens);
  // Newton coefficients in place: a[i] = f[x_{i-k} .. x_i] at level k.
  std::vector<Fp> a = ys;
  std::size_t di = 0;
  for (std::size_t k = 1; k < m; ++k)
    for (std::size_t i = m; i-- > k;)
      a[i] = (a[i] - a[i - 1]) * dens[di++];
  // Expand Newton form to monomial coefficients (Horner over the nodes).
  std::vector<Fp> out(m, Fp(0));
  out[0] = a[m - 1];
  std::size_t deg = 0;
  for (std::size_t i = m - 1; i-- > 0;) {
    // out = out * (x - xs[i]) + a[i]
    out[deg + 1] = out[deg];
    for (std::size_t c = deg; c >= 1; --c)
      out[c] = out[c - 1] - xs[i] * out[c];
    out[0] = a[i] - xs[i] * out[0];
    ++deg;
  }
  return out;
}

BarycentricInterpolator::BarycentricInterpolator(std::vector<Fp> xs)
    : xs_(std::move(xs)) {
  BA_REQUIRE(!xs_.empty(), "need at least one interpolation point");
  const std::size_t m = xs_.size();
  // Barycentric weights w_i = 1 / prod_{j != i} (x_i - x_j).
  w_.assign(m, Fp(1));
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < m; ++j) {
      if (j == i) continue;
      const Fp d = xs_[i] - xs_[j];
      BA_REQUIRE(!d.is_zero(), "interpolation points must be distinct");
      w_[i] *= d;
    }
  batch_inverse(w_);
  // L_i(0) = w_i * prod_{j != i} (0 - x_j), with the products shared via
  // prefix/suffix sweeps. A zero node degenerates to the indicator row.
  zero_row_.assign(m, Fp(0));
  std::size_t zero_at = m;
  for (std::size_t i = 0; i < m; ++i)
    if (xs_[i].is_zero()) zero_at = i;
  if (zero_at != m) {
    zero_row_[zero_at] = Fp(1);
    return;
  }
  std::vector<Fp> suffix(m + 1, Fp(1));
  for (std::size_t i = m; i-- > 0;)
    suffix[i] = suffix[i + 1] * (Fp(0) - xs_[i]);
  Fp prefix(1);
  for (std::size_t i = 0; i < m; ++i) {
    zero_row_[i] = w_[i] * prefix * suffix[i + 1];
    prefix *= Fp(0) - xs_[i];
  }
}

Fp BarycentricInterpolator::eval_at_zero(const std::vector<Fp>& ys) const {
  return eval_row(zero_row_, ys);
}

std::vector<Fp> BarycentricInterpolator::row_at(Fp z) const {
  return rows_at({z});
}

std::vector<Fp> BarycentricInterpolator::rows_at(
    const std::vector<Fp>& zs) const {
  const std::size_t m = xs_.size();
  std::vector<Fp> rows(zs.size() * m, Fp(0));
  // Every (z - x_i) of every row goes through one batch_inverse; a row
  // whose z hits a node is the indicator row and keeps placeholder ones
  // there (nothing to invert).
  std::vector<Fp> diffs(zs.size() * m);
  std::vector<Fp> ells(zs.size(), Fp(1));  // ell(z) = prod_i (z - x_i)
  std::vector<std::size_t> node_at(zs.size(), m);
  for (std::size_t r = 0; r < zs.size(); ++r) {
    Fp* d = &diffs[r * m];
    for (std::size_t i = 0; i < m; ++i) {
      d[i] = zs[r] - xs_[i];
      if (d[i].is_zero()) node_at[r] = i;
      ells[r] *= d[i];
    }
    if (node_at[r] != m) std::fill(d, d + m, Fp(1));
  }
  batch_inverse(diffs);
  for (std::size_t r = 0; r < zs.size(); ++r) {
    Fp* row = &rows[r * m];
    if (node_at[r] != m) {
      row[node_at[r]] = Fp(1);
      continue;
    }
    for (std::size_t i = 0; i < m; ++i)
      row[i] = ells[r] * w_[i] * diffs[r * m + i];
  }
  return rows;
}

Fp BarycentricInterpolator::eval_row(const std::vector<Fp>& row,
                                     const std::vector<Fp>& ys) {
  BA_REQUIRE(row.size() == ys.size(), "row/value size mismatch");
  // Deferred-reduction dot kernel (common/simd.h): exact canonical mod-p
  // result, byte-identical to the per-term Fp operator chain.
  return Fp(simd::dot_mod_p(row.data(), ys.data(), row.size(), 0));
}

}  // namespace ba
