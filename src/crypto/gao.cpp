#include "crypto/gao.h"

#include <algorithm>

#include "common/simd.h"

namespace ba {

namespace {

/// Degree of a coefficient vector (constant term first); kZeroPoly for the
/// zero polynomial.
constexpr std::size_t kZeroPoly = static_cast<std::size_t>(-1);

std::size_t poly_deg(const std::vector<Fp>& p) {
  for (std::size_t i = p.size(); i-- > 0;)
    if (!p[i].is_zero()) return i;
  return kZeroPoly;
}

/// One inversion-free extended-Euclid step. Pseudo-divides r_prev by
/// r_cur (degree dc): every quotient step scales the dividend by
/// lead(r_cur) instead of dividing by it, leaving
/// r_prev <- lambda * r_prev - Q * r_cur for one nonzero lambda. v_prev
/// gets the same scaling and quotient steps, v_prev <- lambda * v_prev -
/// Q * v_cur, so the pair is the textbook Euclid pair times lambda: the
/// degrees (and with them the stop rule) and r / v are unchanged.
void euclid_step(std::vector<Fp>& r_prev, const std::vector<Fp>& r_cur,
                 std::size_t dc, std::vector<Fp>& v_prev,
                 const std::vector<Fp>& v_cur) {
  const std::size_t nd = poly_deg(r_prev);
  if (nd == kZeroPoly || nd < dc) return;
  const Fp lead = r_cur[dc];
  const std::size_t vd = poly_deg(v_cur);
  const std::size_t quot_len = nd - dc + 1;
  if (vd != kZeroPoly)
    v_prev.resize(std::max(v_prev.size(), quot_len + vd), Fp(0));
  for (std::size_t qi = quot_len; qi-- > 0;) {
    const Fp coef = r_prev[qi + dc];
    if (coef.is_zero()) continue;
    // Coefficients above qi + dc are already eliminated.
    for (std::size_t c = 0; c <= qi + dc; ++c) r_prev[c] *= lead;
    simd::fnma_mod_p(&r_prev[qi], r_cur.data(), coef, dc + 1);
    for (Fp& c : v_prev) c *= lead;
    if (vd != kZeroPoly)
      simd::fnma_mod_p(&v_prev[qi], v_cur.data(), coef, vd + 1);
  }
}

}  // namespace

GaoContext::GaoContext(std::vector<Fp> xs) : xs_(std::move(xs)) {
  BA_REQUIRE(!xs_.empty(), "need at least one interpolation point");
  const std::size_t m = xs_.size();
  // g0 = prod (x - x_i), built incrementally: O(m^2).
  g0_.assign(m + 1, Fp(0));
  g0_[0] = Fp(1);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t c = i + 1; c-- > 0;) {
      g0_[c + 1] += g0_[c];
      g0_[c] *= Fp(0) - xs_[i];
    }
  }
  // Inverted Newton denominators, one batched inversion shared by every
  // later interpolate_all call. Stored level-major with i *ascending*
  // within each level so the level sweep reads them contiguously
  // (batch_inverse maps each element to its exact inverse regardless of
  // position, so the values are unchanged by the ordering).
  inv_dens_.reserve(m * (m - 1) / 2);
  for (std::size_t k = 1; k < m; ++k)
    for (std::size_t i = k; i < m; ++i) {
      const Fp d = xs_[i] - xs_[i - k];
      BA_REQUIRE(!d.is_zero(), "interpolation points must be distinct");
      inv_dens_.push_back(d);
    }
  batch_inverse(inv_dens_);
}

void GaoContext::interpolate_all(const std::vector<Fp>& ys,
                                 Scratch& scratch) const {
  const std::size_t m = xs_.size();
  std::vector<Fp>& a = scratch.newton;
  std::vector<Fp>& prev = scratch.prev;
  a.assign(ys.begin(), ys.end());
  prev.resize(m);
  // Each level reads the previous level's a[i] and a[i-1]: snapshot the
  // level, then the whole sweep is one elementwise (a[i] - a[i-1]) * inv
  // kernel (new a[i] must not be visible to the a[i+1] update, which the
  // snapshot guarantees just like the seed's descending-i loop did).
  std::size_t di = 0;
  for (std::size_t k = 1; k < m; ++k) {
    std::copy(a.begin() + static_cast<std::ptrdiff_t>(k - 1), a.end(),
              prev.begin() + static_cast<std::ptrdiff_t>(k - 1));
    simd::sub_mul_mod_p(&a[k], &prev[k], &prev[k - 1], &inv_dens_[di],
                        m - k);
    di += m - k;
  }
  // Expand Newton form to monomial coefficients.
  std::vector<Fp>& out = scratch.r_cur;
  out.assign(m, Fp(0));
  out[0] = a[m - 1];
  std::size_t deg = 0;
  for (std::size_t i = m - 1; i-- > 0;) {
    out[deg + 1] = out[deg];
    for (std::size_t c = deg; c >= 1; --c)
      out[c] = out[c - 1] - xs_[i] * out[c];
    out[0] = a[i] - xs_[i] * out[0];
    ++deg;
  }
}

std::optional<std::vector<Fp>> GaoContext::decode(
    const std::vector<Fp>& ys, std::size_t degree,
    std::size_t max_errors) const {
  Scratch scratch;
  if (!decode(ys, degree, max_errors, scratch)) return std::nullopt;
  return std::move(scratch.p);
}

bool GaoContext::decode(const std::vector<Fp>& ys, std::size_t degree,
                        std::size_t max_errors, Scratch& scratch) const {
  const std::size_t m = xs_.size();
  BA_REQUIRE(ys.size() == m, "point vectors must pair up");
  BA_REQUIRE(m >= degree + 1 + 2 * max_errors,
             "not enough points for this error budget");

  std::vector<Fp>& p = scratch.p;  // decoded candidate, constant term first
  interpolate_all(ys, scratch);    // g1 -> scratch.r_cur
  const std::size_t g1_deg = poly_deg(scratch.r_cur);
  if (g1_deg == kZeroPoly || g1_deg <= degree) {
    // The interpolant already has low degree: zero errors.
    std::swap(p, scratch.r_cur);
  } else {
    // Partial extended Euclid on (g0, g1), tracking only the v Bezout
    // coefficient; stop at the first remainder r with
    // deg r < (m + degree + 1) / 2.
    std::vector<Fp>& r_prev = scratch.r_prev;
    std::vector<Fp>& r_cur = scratch.r_cur;
    std::vector<Fp>& v_prev = scratch.v_prev;
    std::vector<Fp>& v_cur = scratch.v_cur;
    r_prev.assign(g0_.begin(), g0_.end());
    v_prev.assign(1, Fp(0));
    v_cur.assign(1, Fp(1));
    bool zero_message = false;
    for (;;) {
      const std::size_t dc = poly_deg(r_cur);
      if (dc == kZeroPoly) {
        // Zero remainder: f = r / v vanishes, so the candidate message is
        // the zero polynomial (e.g. a zero codeword plus errors) — the
        // final verification below accepts or rejects it like any other.
        zero_message = true;
        break;
      }
      if (2 * dc < m + degree + 1) break;
      // euclid_step reduced r_prev in place to the (scaled) remainder;
      // rotate so (r_prev, r_cur) = (old r_cur, remainder), and
      // likewise for v.
      euclid_step(r_prev, r_cur, dc, v_prev, v_cur);
      std::swap(r_prev, r_cur);
      std::swap(v_prev, v_cur);
    }
    if (zero_message) {
      p.assign(1, Fp(0));
    } else if (!poly_divide_exact(r_cur, v_cur, p)) {
      return false;  // v does not divide r: too many errors
    }
  }

  const std::size_t pd = poly_deg(p);
  if (pd != kZeroPoly && pd > degree) return false;
  if (p.size() > degree + 1) p.resize(degree + 1);
  // Final verification, identical to Berlekamp–Welch's: at most
  // max_errors disagreements. Horner runs point-parallel — one lane per
  // evaluation point, one step per coefficient.
  std::vector<Fp>& evals = scratch.evals;
  evals.assign(m, Fp(0));
  for (std::size_t c = p.size(); c-- > 0;)
    simd::horner_step_mod_p(evals.data(), xs_.data(), p[c], m);
  std::size_t errors = 0;
  for (std::size_t i = 0; i < m; ++i)
    if (evals[i] != ys[i]) ++errors;
  return errors <= max_errors;
}

std::optional<std::vector<Fp>> gao_decode(const std::vector<Fp>& xs,
                                          const std::vector<Fp>& ys,
                                          std::size_t degree,
                                          std::size_t max_errors) {
  return GaoContext(xs).decode(ys, degree, max_errors);
}

}  // namespace ba
