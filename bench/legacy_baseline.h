// Bench-only copies of the seed's hot-path implementations, kept verbatim
// so BENCH_micro.json can report before/after numbers for the same build.
// These are NOT used by the library — src/ holds the optimized versions —
// and they must not be "improved": they are the measurement baseline.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/field.h"
#include "common/simd.h"
#include "crypto/shamir.h"
#include "net/stats.h"

namespace ba::legacy {

// --- seed field reconstruction: O(m^2) products + m Fermat inverses per
// word (src/common/field.cpp before the barycentric rework). ---
inline Fp lagrange_at_zero(const std::vector<Fp>& xs,
                           const std::vector<Fp>& ys) {
  const std::size_t m = xs.size();
  Fp acc(0);
  for (std::size_t i = 0; i < m; ++i) {
    Fp num(1);
    Fp den(1);
    for (std::size_t j = 0; j < m; ++j) {
      if (j == i) continue;
      num *= Fp(0) - xs[j];
      den *= xs[i] - xs[j];
    }
    acc += ys[i] * num * den.inverse();
  }
  return acc;
}

/// Seed ShamirScheme::deal: per-word Horner evaluation at every point,
/// with the coefficient vector rebuilt per word (and, at the seed call
/// sites, the scheme itself rebuilt per dealing). Draws randomness in the
/// same order as the current path, so outputs are comparable bit for bit.
inline std::vector<VectorShare> shamir_deal(const std::vector<Fp>& secret,
                                            std::size_t n, std::size_t t,
                                            Rng& rng) {
  std::vector<VectorShare> shares(n);
  for (std::size_t i = 0; i < n; ++i) {
    shares[i].x = static_cast<std::uint32_t>(i + 1);
    shares[i].ys.resize(secret.size());
  }
  std::vector<Fp> coeffs(t + 1);
  for (std::size_t w = 0; w < secret.size(); ++w) {
    coeffs[0] = secret[w];
    for (std::size_t j = 1; j <= t; ++j) coeffs[j] = Fp(rng.next());
    for (std::size_t i = 0; i < n; ++i)
      shares[i].ys[w] = poly_eval(coeffs, Fp(shares[i].x));
  }
  return shares;
}

// --- seed damaged-word decoding: a fresh (m x (q+e)) Berlekamp–Welch
// system built and solved per word, with classic Gaussian elimination
// (one Fermat inversion per pivot row) — the pre-Gao path. ---

inline std::optional<std::vector<Fp>> solve_linear(
    std::vector<std::vector<Fp>> a, std::vector<Fp> b) {
  const std::size_t rows = a.size();
  const std::size_t cols = rows == 0 ? 0 : a[0].size();
  std::vector<std::size_t> pivot_col_of_row;
  std::size_t row = 0;
  for (std::size_t col = 0; col < cols && row < rows; ++col) {
    std::size_t pr = row;
    while (pr < rows && a[pr][col].is_zero()) ++pr;
    if (pr == rows) continue;
    std::swap(a[pr], a[row]);
    std::swap(b[pr], b[row]);
    const Fp inv = a[row][col].inverse();  // one inversion per pivot
    for (std::size_t c = col; c < cols; ++c) a[row][c] *= inv;
    b[row] *= inv;
    for (std::size_t r = row + 1; r < rows; ++r) {
      if (a[r][col].is_zero()) continue;
      const Fp f = a[r][col];
      for (std::size_t c = col; c < cols; ++c) a[r][c] -= f * a[row][c];
      b[r] -= f * b[row];
    }
    pivot_col_of_row.push_back(col);
    ++row;
  }
  for (std::size_t r = row; r < rows; ++r)
    if (!b[r].is_zero()) return std::nullopt;
  std::vector<Fp> z(cols, Fp(0));
  for (std::size_t r = pivot_col_of_row.size(); r-- > 0;) {
    const std::size_t pc = pivot_col_of_row[r];
    Fp s = b[r];
    for (std::size_t c = pc + 1; c < cols; ++c) s -= a[r][c] * z[c];
    z[pc] = s;  // pivot rows are normalized
  }
  return z;
}

inline std::optional<std::vector<Fp>> berlekamp_welch(
    const std::vector<Fp>& xs, const std::vector<Fp>& ys, std::size_t degree,
    std::size_t max_errors) {
  const std::size_t m = xs.size();
  const std::size_t qn = degree + max_errors + 1;
  const std::size_t en = max_errors;
  std::vector<std::vector<Fp>> a(m, std::vector<Fp>(qn + en, Fp(0)));
  std::vector<Fp> b(m);
  for (std::size_t i = 0; i < m; ++i) {
    Fp pw(1);
    for (std::size_t j = 0; j < qn; ++j) {
      a[i][j] = pw;
      pw *= xs[i];
    }
    pw = Fp(1);
    for (std::size_t j = 0; j < en; ++j) {
      a[i][qn + j] = Fp(0) - ys[i] * pw;
      pw *= xs[i];
    }
    b[i] = ys[i] * pw;
  }
  auto sol = legacy::solve_linear(std::move(a), std::move(b));
  if (!sol) return std::nullopt;
  std::vector<Fp> q(sol->begin(), sol->begin() + qn);
  std::vector<Fp> e(sol->begin() + qn, sol->end());
  e.push_back(Fp(1));
  auto p = poly_divide_exact(std::move(q), e);
  if (!p) return std::nullopt;
  if (p->size() > degree + 1) {
    for (std::size_t j = degree + 1; j < p->size(); ++j)
      if (!(*p)[j].is_zero()) return std::nullopt;
    p->resize(degree + 1);
  }
  std::size_t errors = 0;
  for (std::size_t i = 0; i < m; ++i)
    if (poly_eval(*p, xs[i]) != ys[i]) ++errors;
  if (errors > max_errors) return std::nullopt;
  return p;
}

/// Seed robust word-vector reconstruction of a *damaged* share vector:
/// every word pays for a full system build + solve.
inline std::optional<std::vector<Fp>> robust_reconstruct_damaged(
    const std::vector<VectorShare>& shares, std::size_t t) {
  const std::size_t m = shares.size();
  const std::size_t max_errors = (m - t - 1) / 2;
  const std::size_t words = shares.front().ys.size();
  std::vector<Fp> xs(m), ys(m);
  for (std::size_t i = 0; i < m; ++i) xs[i] = Fp(shares[i].x);
  std::vector<Fp> secret(words);
  for (std::size_t w = 0; w < words; ++w) {
    for (std::size_t i = 0; i < m; ++i) ys[i] = shares[i].ys[w];
    auto p = legacy::berlekamp_welch(xs, ys, t, max_errors);
    if (!p) return std::nullopt;
    secret[w] = (*p)[0];
  }
  return secret;
}

// --- per-word Gao decoding: the robust decoder before head search. A
// word failing the exact check on the first t+1 points went straight to
// Gao, whose Euclid run inverted the divisor's leading coefficient at
// every step and allocated its working polynomials per word
// (src/crypto/{gao,scheme_cache}.cpp before the head search). ---

inline constexpr std::size_t kZeroPoly = static_cast<std::size_t>(-1);

inline std::size_t poly_deg(const std::vector<Fp>& p) {
  for (std::size_t i = p.size(); i-- > 0;)
    if (!p[i].is_zero()) return i;
  return kZeroPoly;
}

inline std::vector<Fp> poly_divmod(std::vector<Fp>& num,
                                   const std::vector<Fp>& den,
                                   std::size_t den_deg) {
  const std::size_t nd = poly_deg(num);
  if (nd == kZeroPoly || nd < den_deg) return {};
  const Fp lead_inv = den[den_deg].inverse();
  std::vector<Fp> quot(nd - den_deg + 1, Fp(0));
  for (std::size_t qi = quot.size(); qi-- > 0;) {
    const Fp coef = num[qi + den_deg] * lead_inv;
    if (coef.is_zero()) continue;
    quot[qi] = coef;
    simd::fnma_mod_p(&num[qi], den.data(), coef, den_deg + 1);
  }
  return quot;
}

class GaoContext {
 public:
  explicit GaoContext(std::vector<Fp> xs) : xs_(std::move(xs)) {
    const std::size_t m = xs_.size();
    g0_.assign(m + 1, Fp(0));
    g0_[0] = Fp(1);
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t c = i + 1; c-- > 0;) {
        g0_[c + 1] += g0_[c];
        g0_[c] *= Fp(0) - xs_[i];
      }
    }
    inv_dens_.reserve(m * (m - 1) / 2);
    for (std::size_t k = 1; k < m; ++k)
      for (std::size_t i = k; i < m; ++i)
        inv_dens_.push_back(xs_[i] - xs_[i - k]);
    batch_inverse(inv_dens_);
  }

  std::optional<std::vector<Fp>> decode(const std::vector<Fp>& ys,
                                        std::size_t degree,
                                        std::size_t max_errors) const {
    const std::size_t m = xs_.size();
    std::vector<Fp> p;
    std::vector<Fp> g1 = interpolate_all(ys);
    if (poly_deg(g1) == kZeroPoly || poly_deg(g1) <= degree) {
      p = std::move(g1);
    } else {
      std::vector<Fp> r_prev = g0_, r_cur = std::move(g1);
      std::vector<Fp> v_prev{Fp(0)}, v_cur{Fp(1)};
      bool zero_message = false;
      for (;;) {
        const std::size_t dc = poly_deg(r_cur);
        if (dc == kZeroPoly) {
          zero_message = true;
          break;
        }
        if (2 * dc < m + degree + 1) break;
        std::vector<Fp> quot = poly_divmod(r_prev, r_cur, dc);
        const std::size_t vd = poly_deg(v_cur);
        if (vd != kZeroPoly && !quot.empty()) {
          v_prev.resize(std::max(v_prev.size(), quot.size() + vd + 1),
                        Fp(0));
          for (std::size_t qi = 0; qi < quot.size(); ++qi) {
            if (quot[qi].is_zero()) continue;
            simd::fnma_mod_p(&v_prev[qi], v_cur.data(), quot[qi], vd + 1);
          }
        }
        std::swap(r_prev, r_cur);
        std::swap(v_prev, v_cur);
      }
      if (zero_message) {
        p.assign(1, Fp(0));
      } else {
        auto f = poly_divide_exact(std::move(r_cur), v_cur);
        if (!f) return std::nullopt;
        p = std::move(*f);
      }
    }
    const std::size_t pd = poly_deg(p);
    if (pd != kZeroPoly && pd > degree) return std::nullopt;
    if (p.size() > degree + 1) p.resize(degree + 1);
    std::vector<Fp> evals(m, Fp(0));
    for (std::size_t c = p.size(); c-- > 0;)
      simd::horner_step_mod_p(evals.data(), xs_.data(), p[c], m);
    std::size_t errors = 0;
    for (std::size_t i = 0; i < m; ++i)
      if (evals[i] != ys[i]) ++errors;
    if (errors > max_errors) return std::nullopt;
    return p;
  }

 private:
  std::vector<Fp> interpolate_all(const std::vector<Fp>& ys) const {
    const std::size_t m = xs_.size();
    std::vector<Fp> a = ys;
    std::vector<Fp> prev(m);
    std::size_t di = 0;
    for (std::size_t k = 1; k < m; ++k) {
      prev = a;
      simd::sub_mul_mod_p(&a[k], &prev[k], &prev[k - 1], &inv_dens_[di],
                          m - k);
      di += m - k;
    }
    std::vector<Fp> out(m, Fp(0));
    out[0] = a[m - 1];
    std::size_t deg = 0;
    for (std::size_t i = m - 1; i-- > 0;) {
      out[deg + 1] = out[deg];
      for (std::size_t c = deg; c >= 1; --c)
        out[c] = out[c - 1] - xs_[i] * out[c];
      out[0] = a[i] - xs_[i] * out[0];
      ++deg;
    }
    return out;
  }

  std::vector<Fp> xs_;
  std::vector<Fp> g0_;
  std::vector<Fp> inv_dens_;
};

/// The decoder itself: exact head-0 check (one barycentric row per
/// redundant point), else per-word Gao. Precompute is built once, like
/// the cached decoder it measures against.
class PerWordGaoDecoder {
 public:
  PerWordGaoDecoder(std::vector<Fp> xs, std::size_t t)
      : t_(t),
        max_errors_((xs.size() - t - 1) / 2),
        interp_(std::vector<Fp>(
            xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(t + 1))),
        gao_(xs) {
    for (std::size_t i = t + 1; i < xs.size(); ++i)
      check_rows_.push_back(interp_.row_at(xs[i]));
  }

  std::optional<std::vector<Fp>> reconstruct(
      const std::vector<VectorShare>& shares) const {
    const std::size_t m = shares.size(), k = t_ + 1;
    const std::size_t words = shares.front().ys.size();
    std::vector<Fp> secret(words), ys(m), head(k);
    for (std::size_t w = 0; w < words; ++w) {
      for (std::size_t i = 0; i < m; ++i) ys[i] = shares[i].ys[w];
      std::copy(ys.begin(), ys.begin() + static_cast<std::ptrdiff_t>(k),
                head.begin());
      bool clean = true;
      for (std::size_t i = 0; clean && i < check_rows_.size(); ++i)
        clean = BarycentricInterpolator::eval_row(check_rows_[i], head) ==
                ys[k + i];
      if (clean) {
        secret[w] = interp_.eval_at_zero(head);
        continue;
      }
      if (max_errors_ == 0) return std::nullopt;
      auto p = gao_.decode(ys, t_, max_errors_);
      if (!p) return std::nullopt;
      secret[w] = (*p)[0];
    }
    return secret;
  }

 private:
  std::size_t t_, max_errors_;
  BarycentricInterpolator interp_;
  std::vector<std::vector<Fp>> check_rows_;
  GaoContext gao_;
};

/// Seed ShamirScheme::reconstruct: fresh Lagrange interpolation per word.
inline std::vector<Fp> shamir_reconstruct(
    const std::vector<VectorShare>& shares, std::size_t shares_needed) {
  const std::size_t m = shares_needed;
  const std::size_t words = shares.front().ys.size();
  std::vector<Fp> xs(m);
  for (std::size_t i = 0; i < m; ++i) xs[i] = Fp(shares[i].x);
  std::vector<Fp> secret(words);
  std::vector<Fp> ys(m);
  for (std::size_t w = 0; w < words; ++w) {
    for (std::size_t i = 0; i < m; ++i) ys[i] = shares[i].ys[w];
    secret[w] = legacy::lagrange_at_zero(xs, ys);
  }
  return secret;
}

// --- seed network: heap-allocating payloads, one global pending vector,
// and a comparison stable_sort of every inbox every round
// (src/net/{message,network}.{h,cpp} before the bucketed rework). ---

struct Payload {
  std::uint32_t tag = 0;
  std::vector<std::uint64_t> words;
  std::size_t content_bits = 0;
  std::size_t bits() const { return content_bits + 16; }
};

inline Payload make_value_payload(std::uint32_t tag, std::uint64_t value,
                                  std::size_t bits) {
  Payload p;
  p.tag = tag;
  p.words = {value};
  p.content_bits = bits;
  return p;
}

struct Envelope {
  std::uint32_t from = 0;
  std::uint32_t to = 0;
  std::uint64_t round = 0;
  Payload payload;
};

class Network {
 public:
  Network(std::size_t n, std::size_t max_corrupt)
      : n_(n), max_corrupt_(max_corrupt), corrupt_(n, false), inboxes_(n),
        ledger_(n) {
    (void)max_corrupt_;
  }

  void send(std::uint32_t from, std::uint32_t to, Payload payload) {
    ledger_.charge_send(from, payload.bits());
    Envelope e;
    e.from = from;
    e.to = to;
    e.round = round_;
    e.payload = std::move(payload);
    pending_.push_back(std::move(e));
  }

  void advance_round() {
    for (auto& box : inboxes_) box.clear();
    for (auto& e : pending_) {
      ledger_.charge_recv(e.to, e.payload.bits());
      inboxes_[e.to].push_back(std::move(e));
    }
    pending_.clear();
    for (auto& box : inboxes_) {
      std::stable_sort(box.begin(), box.end(),
                       [](const Envelope& a, const Envelope& b) {
                         return a.from < b.from;
                       });
    }
    ++round_;
  }

  const std::vector<Envelope>& inbox(std::uint32_t p) const {
    return inboxes_[p];
  }
  BitLedger& ledger() { return ledger_; }

 private:
  std::size_t n_;
  std::size_t max_corrupt_;
  std::uint64_t round_ = 0;
  std::vector<bool> corrupt_;
  std::vector<Envelope> pending_;
  std::vector<std::vector<Envelope>> inboxes_;
  BitLedger ledger_;
};

}  // namespace ba::legacy
