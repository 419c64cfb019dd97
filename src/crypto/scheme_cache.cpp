#include "crypto/scheme_cache.h"

#include <algorithm>

#include "common/simd.h"

namespace ba {

// ------------------------------------------------------- CachedScheme --

CachedScheme::CachedScheme(std::size_t num_shares,
                           std::size_t privacy_threshold)
    : n_(num_shares), t_(privacy_threshold) {
  BA_REQUIRE(n_ >= 1, "need at least one share");
  BA_REQUIRE(t_ + 1 <= n_, "reconstruction must be possible from all shares");
  BA_REQUIRE(n_ < Fp::kP, "evaluation points must be distinct field elements");
  // vand_[i * t + j] = (i + 1)^{j + 1}: the non-constant monomials at the
  // canonical points. The constant column is implicit (always the secret).
  vand_.resize(n_ * t_);
  for (std::size_t i = 0; i < n_; ++i) {
    const Fp x(static_cast<std::uint64_t>(i + 1));
    Fp pw = x;
    for (std::size_t j = 0; j < t_; ++j) {
      vand_[i * t_ + j] = pw;
      pw *= x;
    }
  }
}

std::vector<VectorShare> CachedScheme::deal(const std::vector<Fp>& secret,
                                            Rng& rng) const {
  std::vector<VectorShare> shares;
  deal_into(secret, rng, shares);
  return shares;
}

void CachedScheme::deal_into(const std::vector<Fp>& secret, Rng& rng,
                             std::vector<VectorShare>& out) const {
  deal_into(secret, rng, out, scratch_);
}

std::uint64_t CachedScheme::precompute_fingerprint() const {
  Fnv1a d;
  d.mix(n_);
  d.mix(t_);
  for (const Fp& v : vand_) d.mix(v.value());
  return d.h;
}

void CachedScheme::deal_into(const std::vector<Fp>& secret, Rng& rng,
                             std::vector<VectorShare>& out,
                             DealScratch& scratch) const {
  draw_coeffs(secret.size(), rng, scratch.coeffs);
  deal_from_coeffs(secret, scratch.coeffs, out);
}

void CachedScheme::draw_coeffs(std::size_t words, Rng& rng,
                               std::vector<Fp>& coeffs) const {
  // The seed's draw order (word-major, degrees 1..t) — this keeps cached
  // dealing byte-identical to ShamirScheme::deal for the same Rng state.
  coeffs.resize(words * t_);
  for (std::size_t w = 0; w < words; ++w)
    for (std::size_t j = 0; j < t_; ++j) coeffs[w * t_ + j] = Fp(rng.next());
}

void CachedScheme::deal_from_coeffs(const std::vector<Fp>& secret,
                                    const std::vector<Fp>& coeffs,
                                    std::vector<VectorShare>& out) const {
  const std::size_t words = secret.size();
  out.resize(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    out[i].x = static_cast<std::uint32_t>(i + 1);
    out[i].ys.resize(words);
  }
  if (t_ == 0) {  // degenerate scheme: the share is the secret
    for (std::size_t i = 0; i < n_; ++i)
      std::copy(secret.begin(), secret.end(), out[i].ys.begin());
    return;
  }
  BA_REQUIRE(coeffs.size() == words * t_, "coefficient buffer wrong shape");
  // Y = secret + V * C, blocked four words at a time through the
  // deferred-reduction dot kernels (common/simd.h): raw products
  // accumulate unreduced and fold mod 2^61 - 1 once per chunk. Exact
  // field arithmetic, so the shares match the per-term-reducing Horner
  // path bit for bit whichever backend is compiled in.
  for (std::size_t i = 0; i < n_; ++i) {
    const Fp* vrow = &vand_[i * t_];
    std::vector<Fp>& ys = out[i].ys;
    std::size_t w = 0;
    std::uint64_t init[4];
    std::uint64_t folded[4];
    for (; w + 4 <= words; w += 4) {
      const Fp* c0 = &coeffs[w * t_];
      for (std::size_t k = 0; k < 4; ++k) init[k] = secret[w + k].value();
      simd::dot4_mod_p(vrow, c0, c0 + t_, c0 + 2 * t_, c0 + 3 * t_, t_, init,
                       folded);
      for (std::size_t k = 0; k < 4; ++k) ys[w + k] = Fp(folded[k]);
    }
    for (; w < words; ++w)
      ys[w] = Fp(simd::dot_mod_p(vrow, &coeffs[w * t_], t_,
                                 secret[w].value()));
  }
}

// ------------------------------------------------------ RobustDecoder --

RobustDecoder::RobustDecoder(std::vector<Fp> xs,
                             std::size_t privacy_threshold)
    : xs_(std::move(xs)), t_(privacy_threshold) {
  const std::size_t m = xs_.size();
  BA_REQUIRE(m >= t_ + 1, "not enough points for the threshold");
  // Distinct points by construction in ShareFlow: a group's points are
  // the last chain elements of distinct chains under one parent chain,
  // and a leaf's points are the distinct root elements plus one.
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = i + 1; j < m; ++j)
      BA_REQUIRE(xs_[i] != xs_[j], "decoder points must be distinct");
  max_errors_ = (m - t_ - 1) / 2;
  head0_ = make_head(0);
}

RobustDecoder::Head RobustDecoder::make_head(std::size_t begin) const {
  const std::size_t m = xs_.size();
  const std::size_t k = t_ + 1;
  const auto first = xs_.begin() + static_cast<std::ptrdiff_t>(begin);
  const BarycentricInterpolator interp(
      std::vector<Fp>(first, first + static_cast<std::ptrdiff_t>(k)));
  std::vector<Fp> others;
  others.reserve(m - k);
  for (std::size_t i = 0; i < m; ++i)
    if (i < begin || i >= begin + k) others.push_back(xs_[i]);
  return Head{begin, interp.zero_row(), interp.rows_at(others)};
}

std::uint64_t RobustDecoder::precompute_fingerprint() const {
  Fnv1a d;
  d.mix(t_);
  d.mix(max_errors_);
  for (const Fp& x : xs_) d.mix(x.value());
  for (const Fp& v : head0_.zero_row) d.mix(v.value());
  for (const Fp& v : head0_.rows) d.mix(v.value());
  return d.h;
}

const RobustDecoder::DamagedPath& RobustDecoder::damaged() const {
  // The first damaged word pays the setup; call_once makes the handoff
  // safe when workers race here, and the path is immutable afterwards.
  std::call_once(damaged_once_, [this] {
    const std::size_t k = t_ + 1;
    std::vector<Head> heads;
    for (std::size_t begin = k; begin + k <= xs_.size(); begin += k)
      heads.push_back(make_head(begin));
    damaged_.emplace(DamagedPath{std::move(heads), GaoContext(xs_)});
  });
  return *damaged_;
}

bool RobustDecoder::try_head(const Head& head, const Fp* ys,
                             Fp& secret) const {
  const std::size_t m = xs_.size();
  const std::size_t k = t_ + 1;
  const Fp* block = ys + head.begin;
  std::size_t misses = 0;
  for (std::size_t r = 0; r + k < m; ++r) {
    const std::size_t pos = r < head.begin ? r : r + k;
    const Fp* row = &head.rows[r * k];
    if (Fp(simd::dot_mod_p(row, block, k, 0)) != ys[pos] &&
        ++misses > max_errors_)
      return false;
  }
  secret = Fp(simd::dot_mod_p(head.zero_row.data(), block, k, 0));
  return true;
}

std::optional<std::vector<Fp>> RobustDecoder::reconstruct(
    const std::vector<VectorShare>& shares) const {
  return reconstruct(shares, scratch_);
}

std::optional<std::vector<Fp>> RobustDecoder::reconstruct(
    const std::vector<VectorShare>& shares, Scratch& scratch) const {
  const std::size_t m = xs_.size();
  BA_REQUIRE(shares.size() == m, "share count must match the point set");
  const std::size_t words = shares.empty() ? 0 : shares.front().ys.size();
  scratch.spans.resize(m);
  for (std::size_t i = 0; i < m; ++i)
    scratch.spans[i] = FpSpan{shares[i].ys.data(), shares[i].ys.size()};
  std::vector<Fp> secret(words);
  if (!reconstruct_into(scratch.spans.data(), m, words, secret.data(),
                        scratch))
    return std::nullopt;
  return secret;
}

bool RobustDecoder::reconstruct_into(const FpSpan* shares, std::size_t count,
                                     std::size_t words, Fp* out,
                                     Scratch& scratch) const {
  const std::size_t m = xs_.size();
  BA_REQUIRE(count == m, "share count must match the point set");
  for (std::size_t i = 0; i < m; ++i)
    BA_REQUIRE(shares[i].size() == words, "ragged share vectors");
  std::vector<Fp>& ys = scratch.ys;
  ys.resize(m);
  for (std::size_t w = 0; w < words; ++w) {
    for (std::size_t i = 0; i < m; ++i) ys[i] = shares[i][w];
    if (try_head(head0_, ys.data(), out[w])) continue;
    // With no error budget a word head 0 rejects is not a codeword.
    if (max_errors_ == 0) return false;
    const DamagedPath& path = damaged();
    const auto explains = [&](const Head& head) {
      return try_head(head, ys.data(), out[w]);
    };
    if (std::any_of(path.heads.begin(), path.heads.end(), explains))
      continue;
    if (!path.gao.decode(ys, t_, max_errors_, scratch.gao)) return false;
    out[w] = scratch.gao.p[0];
  }
  return true;
}

// -------------------------------------------------------- SchemeCache --
//
// The mutating scheme()/robust() conveniences are find + insert-on-miss
// over the same const finders the phase-2 workers use — one key/match
// definition, so the two paths cannot drift.

namespace {

std::uint64_t scheme_key(std::size_t num_shares,
                         std::size_t privacy_threshold) {
  return (static_cast<std::uint64_t>(num_shares) << 32) |
         static_cast<std::uint64_t>(privacy_threshold);
}

/// Bucket hash over (t, xs) — the one definition behind lookup and
/// insert.
std::uint64_t robust_key_hash(const Fp* xs, std::size_t count,
                              std::size_t privacy_threshold) {
  Fnv1a d;
  d.mix(privacy_threshold);
  for (std::size_t i = 0; i < count; ++i) d.mix(xs[i].value());
  return d.h;
}

}  // namespace

const CachedScheme& SchemeCache::scheme(std::size_t num_shares,
                                        std::size_t privacy_threshold) {
  if (const CachedScheme* hit = find_scheme(num_shares, privacy_threshold))
    return *hit;
  return *schemes_
              .emplace(scheme_key(num_shares, privacy_threshold),
                       std::make_unique<CachedScheme>(num_shares,
                                                      privacy_threshold))
              .first->second;
}

const RobustDecoder& SchemeCache::robust(const std::vector<Fp>& xs,
                                         std::size_t privacy_threshold) {
  if (const RobustDecoder* hit = find_robust(xs, privacy_threshold))
    return *hit;
  // Epoch reset (rebuilt on demand) — deferred to unpin_robust() while a
  // pre-warm batch holds references into the map.
  if (decoder_count_ >= kMaxDecoders && !robust_pinned_) {
    decoders_.clear();
    decoder_count_ = 0;
    ++robust_epoch_;
  }
  auto& bucket =
      decoders_[robust_key_hash(xs.data(), xs.size(), privacy_threshold)];
  bucket.push_back(
      std::make_unique<RobustDecoder>(xs, privacy_threshold));
  ++decoder_count_;
  return *bucket.back();
}

void SchemeCache::unpin_robust() {
  robust_pinned_ = false;
  if (decoder_count_ > kMaxDecoders) {  // the batch overflowed the bound
    decoders_.clear();
    decoder_count_ = 0;
    ++robust_epoch_;
  }
}

const CachedScheme* SchemeCache::find_scheme(
    std::size_t num_shares, std::size_t privacy_threshold) const {
  auto it = schemes_.find(scheme_key(num_shares, privacy_threshold));
  return it == schemes_.end() ? nullptr : it->second.get();
}

const RobustDecoder* SchemeCache::find_robust(
    const Fp* xs, std::size_t count, std::size_t privacy_threshold) const {
  auto it = decoders_.find(robust_key_hash(xs, count, privacy_threshold));
  if (it == decoders_.end()) return nullptr;
  for (const auto& dec : it->second) {
    if (dec->privacy_threshold() != privacy_threshold ||
        dec->points().size() != count)
      continue;
    bool match = true;
    for (std::size_t i = 0; match && i < count; ++i)
      match = dec->points()[i] == xs[i];
    if (match) return dec.get();
  }
  return nullptr;
}

}  // namespace ba
