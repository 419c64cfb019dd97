// Tests for the cached share-pipeline crypto (crypto/scheme_cache.h) and
// the Gao decoder (crypto/gao.h): cached dealing must be byte-identical to
// the reference Horner path, and Gao must agree with Berlekamp–Welch on
// every error pattern inside the unique-decoding budget.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/pool.h"
#include "crypto/berlekamp_welch.h"
#include "crypto/gao.h"
#include "crypto/iterated.h"
#include "crypto/scheme_cache.h"
#include "crypto/shamir.h"

namespace ba {
namespace {

std::vector<Fp> random_secret(Rng& rng, std::size_t words) {
  std::vector<Fp> s(words);
  for (auto& w : s) w = Fp(rng.next());
  return s;
}

// --------------------------------------------------------- CachedScheme --

TEST(SchemeCache, DealingByteIdenticalToHornerAcrossGrid) {
  // Same Rng seed through both paths: every share of every word must match
  // exactly, for word counts that exercise the blocked kernel (multiples
  // of four), its remainder loop, and the empty secret.
  SchemeCache cache;
  // {80, 70} exercises the deferred-reduction chunk boundary (> 60 terms).
  const std::size_t grid[][2] = {{1, 0}, {2, 1},  {4, 1},  {5, 2},
                                 {8, 2}, {9, 3},  {12, 3}, {16, 8},
                                 {32, 10}, {33, 16}, {48, 32}, {80, 70}};
  for (const auto& nt : grid) {
    const std::size_t n = nt[0], t = nt[1];
    for (std::size_t words : {0u, 1u, 3u, 4u, 7u, 64u}) {
      Rng seed_rng(1000 + n * 31 + t * 7 + words);
      auto secret = random_secret(seed_rng, words);
      Rng a(42 + n + t + words), b(42 + n + t + words);
      auto reference = ShamirScheme(n, t).deal(secret, a);
      auto cached = cache.scheme(n, t).deal(secret, b);
      ASSERT_EQ(reference.size(), cached.size());
      for (std::size_t i = 0; i < reference.size(); ++i) {
        EXPECT_EQ(reference[i].x, cached[i].x);
        ASSERT_EQ(reference[i].ys.size(), cached[i].ys.size());
        for (std::size_t w = 0; w < words; ++w)
          EXPECT_EQ(reference[i].ys[w].value(), cached[i].ys[w].value())
              << "n=" << n << " t=" << t << " share=" << i << " word=" << w;
      }
      // Both paths must leave the Rng in the same state.
      EXPECT_EQ(a.next(), b.next());
    }
  }
}

TEST(SchemeCache, DealIntoReusesStorage) {
  SchemeCache cache;
  const CachedScheme& scheme = cache.scheme(9, 3);
  Rng rng(7);
  std::vector<VectorShare> out;
  scheme.deal_into(random_secret(rng, 8), rng, out);
  ASSERT_EQ(out.size(), 9u);
  const Fp* storage = out[0].ys.data();
  scheme.deal_into(random_secret(rng, 8), rng, out);  // same shape: no realloc
  EXPECT_EQ(out[0].ys.data(), storage);
  EXPECT_EQ(out[0].ys.size(), 8u);
}

TEST(SchemeCache, ReturnsStableReferences) {
  SchemeCache cache;
  const CachedScheme* first = &cache.scheme(8, 2);
  for (std::size_t n = 2; n < 40; ++n) cache.scheme(n, n / 4 + 1);
  EXPECT_EQ(&cache.scheme(8, 2), first);
  // Decoder references are stable below the eviction bound.
  std::vector<Fp> xs{Fp(1), Fp(2), Fp(3), Fp(4), Fp(5)};
  const RobustDecoder* dec = &cache.robust(xs, 1);
  for (std::size_t i = 0; i < 30; ++i) {
    std::vector<Fp> other{Fp(10 + i), Fp(20 + i), Fp(30 + i)};
    cache.robust(other, 1);
  }
  EXPECT_EQ(&cache.robust(xs, 1), dec);
}

TEST(SchemeCache, DecoderMapEvictionStillDecodes) {
  // Push past kMaxDecoders distinct point sets: the map resets and keeps
  // working (entries rebuild on demand).
  SchemeCache cache;
  Rng rng(55);
  ShamirScheme scheme(5, 1);
  auto secret = random_secret(rng, 2);
  auto shares = scheme.deal(secret, rng);
  std::vector<Fp> xs(5);
  for (std::size_t i = 0; i < 5; ++i) xs[i] = Fp(shares[i].x);
  for (std::size_t i = 0; i < SchemeCache::kMaxDecoders + 8; ++i) {
    std::vector<Fp> other{Fp(2 + i), Fp(500000 + i), Fp(1000000 + i)};
    cache.robust(other, 1);
  }
  auto rec = cache.robust(xs, 1).reconstruct(shares);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(*rec, secret);
}

TEST(SchemeCache, CachedRedealMatchesPlainRedeal) {
  SchemeCache cache;
  Rng rng(11);
  VectorShare parent;
  parent.x = 3;
  parent.ys = random_secret(rng, 6);
  Rng a(5), b(5);
  auto plain = redeal(parent, 7, 3, a);
  auto cached = redeal(parent, 7, 3, b, cache);
  ASSERT_EQ(plain.size(), cached.size());
  for (std::size_t i = 0; i < plain.size(); ++i)
    EXPECT_EQ(plain[i].ys, cached[i].ys);
}

// ---------------------------------------------------------------- Gao --

TEST(Gao, AgreesWithBerlekampWelchOnRandomErrorPatterns) {
  Rng rng(21);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t degree = 1 + rng.below(6);
    const std::size_t budget = rng.below(5);
    const std::size_t m = degree + 1 + 2 * budget + rng.below(3);
    std::vector<Fp> coeffs(degree + 1);
    for (auto& c : coeffs) c = Fp(rng.next());
    std::vector<Fp> xs(m), ys(m);
    for (std::size_t i = 0; i < m; ++i) {
      xs[i] = Fp(i * 7 + 1);
      ys[i] = poly_eval(coeffs, xs[i]);
    }
    const std::size_t max_errors = (m - degree - 1) / 2;
    const std::size_t errors = rng.below(max_errors + 1);
    auto bad = rng.sample_without_replacement(m, errors);
    for (auto b : bad) ys[b] = Fp(rng.next());
    auto via_gao = gao_decode(xs, ys, degree, max_errors);
    auto via_bw = berlekamp_welch(xs, ys, degree, max_errors);
    ASSERT_TRUE(via_gao.has_value()) << "trial " << trial;
    ASSERT_TRUE(via_bw.has_value()) << "trial " << trial;
    // The unique decoded polynomial must agree coefficient by coefficient.
    for (std::size_t c = 0; c <= degree; ++c) {
      const Fp g = c < via_gao->size() ? (*via_gao)[c] : Fp(0);
      const Fp w = c < via_bw->size() ? (*via_bw)[c] : Fp(0);
      EXPECT_EQ(g.value(), w.value()) << "trial " << trial << " coeff " << c;
    }
  }
}

TEST(Gao, SharedContextAmortizesAcrossWords) {
  Rng rng(22);
  std::vector<Fp> xs(12);
  for (std::size_t i = 0; i < 12; ++i) xs[i] = Fp(i + 1);
  GaoContext ctx(xs);
  for (int word = 0; word < 20; ++word) {
    std::vector<Fp> coeffs(4);
    for (auto& c : coeffs) c = Fp(rng.next());
    std::vector<Fp> ys(12);
    for (std::size_t i = 0; i < 12; ++i) ys[i] = poly_eval(coeffs, xs[i]);
    auto bad = rng.sample_without_replacement(12, 3);
    for (auto b : bad) ys[b] = Fp(rng.next());
    auto p = ctx.decode(ys, 3, 4);
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ((*p)[0], coeffs[0]);
  }
}

TEST(Gao, RejectsBeyondBudgetLikeBerlekampWelch) {
  // With a budget below the actual error count, the final verification
  // must reject (same contract as berlekamp_welch).
  Rng rng(23);
  std::vector<Fp> coeffs{Fp(3), Fp(5)};
  const std::size_t m = 8;
  std::vector<Fp> xs(m), ys(m);
  for (std::size_t i = 0; i < m; ++i) {
    xs[i] = Fp(i + 1);
    ys[i] = poly_eval(coeffs, xs[i]);
  }
  ys[0] += Fp(1);
  ys[3] += Fp(2);
  EXPECT_FALSE(gao_decode(xs, ys, 1, 1).has_value());
  EXPECT_TRUE(gao_decode(xs, ys, 1, 2).has_value());
}

TEST(Gao, ZeroCodewordWithErrorsDecodes) {
  // Regression: f = 0 makes the Euclid remainder sequence bottom out at
  // the zero polynomial; the decoder must treat that as the zero-message
  // candidate (and verify it), not as a failure — Berlekamp–Welch decodes
  // these inputs.
  std::vector<Fp> xs{Fp(1), Fp(2), Fp(3), Fp(4), Fp(5)};
  std::vector<Fp> ys{Fp(0), Fp(7), Fp(0), Fp(0), Fp(0)};
  for (std::size_t degree : {0u, 1u}) {
    auto via_gao = gao_decode(xs, ys, degree, (5 - degree - 1) / 2);
    auto via_bw = berlekamp_welch(xs, ys, degree, (5 - degree - 1) / 2);
    ASSERT_TRUE(via_bw.has_value());
    ASSERT_TRUE(via_gao.has_value()) << "degree " << degree;
    EXPECT_EQ((*via_gao)[0], Fp(0));
    EXPECT_EQ((*via_bw)[0], Fp(0));
  }
  // Beyond the budget the zero candidate must still be rejected.
  std::vector<Fp> noisy{Fp(0), Fp(7), Fp(8), Fp(9), Fp(0)};
  EXPECT_FALSE(gao_decode(xs, noisy, 0, 2).has_value());
}

TEST(Gao, ZeroErrorsIsPlainInterpolation) {
  std::vector<Fp> coeffs{Fp(9), Fp(5), Fp(2)};
  std::vector<Fp> xs, ys;
  for (std::size_t i = 1; i <= 7; ++i) {
    xs.push_back(Fp(i));
    ys.push_back(poly_eval(coeffs, Fp(i)));
  }
  auto p = gao_decode(xs, ys, 2, 2);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ((*p)[0], Fp(9));
  EXPECT_EQ((*p)[1], Fp(5));
  EXPECT_EQ((*p)[2], Fp(2));
}

TEST(Gao, RejectsDuplicatePoints) {
  std::vector<Fp> xs{Fp(1), Fp(1), Fp(2)};
  std::vector<Fp> ys{Fp(1), Fp(1), Fp(2)};
  EXPECT_THROW(GaoContext ctx(xs), std::logic_error);
  (void)ys;
}

// ------------------------------------------------- BatchedBerlekampWelch --

TEST(BatchedBerlekampWelch, MatchesPlainBerlekampWelchPerWord) {
  // Same accept/reject and the same polynomial as the per-word solver,
  // across error weights from clean to beyond the budget.
  Rng rng(24);
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t degree = 1 + rng.below(5);
    const std::size_t budget = 1 + rng.below(4);
    const std::size_t m = degree + 1 + 2 * budget + rng.below(3);
    std::vector<Fp> xs(m);
    for (std::size_t i = 0; i < m; ++i) xs[i] = Fp(i * 11 + 3);
    const std::size_t max_errors = (m - degree - 1) / 2;
    BatchedBerlekampWelch batched(xs, degree, max_errors);
    for (int word = 0; word < 8; ++word) {
      std::vector<Fp> coeffs(degree + 1);
      for (auto& c : coeffs) c = Fp(rng.next());
      std::vector<Fp> ys(m);
      for (std::size_t i = 0; i < m; ++i) ys[i] = poly_eval(coeffs, xs[i]);
      const std::size_t errors = rng.below(max_errors + 2);
      for (auto b : rng.sample_without_replacement(m, errors))
        ys[b] = Fp(rng.next());
      auto via_plain = berlekamp_welch(xs, ys, degree, max_errors);
      auto via_batched = batched.decode(ys);
      ASSERT_EQ(via_plain.has_value(), via_batched.has_value())
          << "trial " << trial << " word " << word << " errors " << errors;
      if (!via_plain) continue;
      for (std::size_t c = 0; c <= degree; ++c) {
        const Fp p = c < via_plain->size() ? (*via_plain)[c] : Fp(0);
        const Fp b = c < via_batched->size() ? (*via_batched)[c] : Fp(0);
        EXPECT_EQ(p.value(), b.value()) << "trial " << trial;
      }
    }
  }
}

TEST(BatchedBerlekampWelch, ZeroCodewordAndDamagedWordsMatchGao) {
  // The regression shapes the Gao tests pin down, cross-checked through
  // the shared factorization: an all-zero message under errors decodes to
  // zero, and beyond-budget damage rejects.
  std::vector<Fp> xs{Fp(1), Fp(2), Fp(3), Fp(4), Fp(5)};
  for (std::size_t degree : {0u, 1u}) {
    const std::size_t max_errors = (5 - degree - 1) / 2;
    BatchedBerlekampWelch batched(xs, degree, max_errors);
    std::vector<Fp> ys{Fp(0), Fp(7), Fp(0), Fp(0), Fp(0)};
    auto via_batched = batched.decode(ys);
    auto via_gao = gao_decode(xs, ys, degree, max_errors);
    ASSERT_TRUE(via_batched.has_value()) << "degree " << degree;
    ASSERT_TRUE(via_gao.has_value());
    EXPECT_EQ((*via_batched)[0], Fp(0));
  }
  BatchedBerlekampWelch b0(xs, 0, 2);
  std::vector<Fp> noisy{Fp(0), Fp(7), Fp(8), Fp(9), Fp(0)};
  EXPECT_FALSE(b0.decode(noisy).has_value());
  EXPECT_FALSE(gao_decode(xs, noisy, 0, 2).has_value());
}

TEST(BatchedBerlekampWelch, RejectsDuplicatePoints) {
  std::vector<Fp> xs{Fp(1), Fp(1), Fp(2), Fp(3), Fp(4)};
  EXPECT_THROW(BatchedBerlekampWelch(xs, 0, 1), std::logic_error);
}

TEST(RobustDecoder, RejectsRepeatedPoints) {
  // ShareFlow's point sets are distinct by construction (distinct chains
  // under one parent), so the decoder has no repeated-point path: a
  // repeat among the first t+1 points or among the redundant ones is
  // rejected, and so is a share set with a repeated x.
  EXPECT_THROW(RobustDecoder({Fp(1), Fp(2), Fp(2), Fp(3), Fp(4)}, 1),
               std::logic_error);
  EXPECT_THROW(RobustDecoder({Fp(1), Fp(2), Fp(3), Fp(4), Fp(1)}, 1),
               std::logic_error);
  Rng rng(7);
  auto shares = ShamirScheme(5, 1).deal(random_secret(rng, 2), rng);
  shares[4].x = shares[0].x;
  EXPECT_THROW(robust_reconstruct(shares, 1), std::logic_error);
}

// -------------------------------------------------------- RobustDecoder --

TEST(RobustDecoder, MatchesRobustReconstructUnderCorruption) {
  Rng rng(31);
  SchemeCache cache;
  ShamirScheme scheme(9, 3);
  for (int trial = 0; trial < 40; ++trial) {
    auto secret = random_secret(rng, 5);
    auto shares = scheme.deal(secret, rng);
    const std::size_t errors = rng.below(3);  // budget is (9-4)/2 = 2
    auto bad = rng.sample_without_replacement(9, errors);
    for (auto b : bad)
      for (auto& y : shares[b].ys) y = Fp(rng.next());
    std::vector<Fp> xs(9);
    for (std::size_t i = 0; i < 9; ++i) xs[i] = Fp(shares[i].x);
    auto via_entry = robust_reconstruct(shares, 3);
    auto via_cache = cache.robust(xs, 3).reconstruct(shares);
    ASSERT_EQ(via_entry.has_value(), via_cache.has_value());
    ASSERT_TRUE(via_entry.has_value());
    EXPECT_EQ(*via_entry, *via_cache);
    EXPECT_EQ(*via_entry, secret);
  }
}

TEST(RobustDecoder, PrecomputeImmutableAfterConstruction) {
  // The const/scratch split's contract: no call path — clean fast-path
  // words, damaged words (which build the Gao context), scratch-explicit
  // or convenience overloads — may mutate the shared precompute. A worker
  // would otherwise read a torn dealing matrix or check row.
  Rng rng(33);
  SchemeCache cache;
  ShamirScheme scheme(11, 3);
  auto secret = random_secret(rng, 4);
  auto shares = scheme.deal(secret, rng);
  std::vector<Fp> xs(11);
  for (std::size_t i = 0; i < 11; ++i) xs[i] = Fp(shares[i].x);

  const RobustDecoder& dec = cache.robust(xs, 3);
  const std::uint64_t fp0 = dec.precompute_fingerprint();
  ASSERT_TRUE(dec.reconstruct(shares).has_value());  // clean path
  EXPECT_EQ(dec.precompute_fingerprint(), fp0);
  auto damaged = shares;
  for (auto& y : damaged[2].ys) y = Fp(rng.next());
  for (auto& y : damaged[6].ys) y = Fp(rng.next());
  ASSERT_TRUE(dec.reconstruct(damaged).has_value());  // builds Gao context
  EXPECT_EQ(dec.precompute_fingerprint(), fp0);
  RobustDecoder::Scratch scratch;
  ASSERT_TRUE(dec.reconstruct(damaged, scratch).has_value());
  EXPECT_EQ(dec.precompute_fingerprint(), fp0);

  const CachedScheme& cs = cache.scheme(11, 3);
  const std::uint64_t sfp0 = cs.precompute_fingerprint();
  Rng deal_rng(5);
  std::vector<VectorShare> out;
  cs.deal_into(secret, deal_rng, out);
  CachedScheme::DealScratch deal_scratch;
  cs.deal_into(secret, deal_rng, out, deal_scratch);
  EXPECT_EQ(cs.precompute_fingerprint(), sfp0);
}

TEST(RobustDecoder, ScratchExplicitReconstructMatchesConvenience) {
  Rng rng(34);
  ShamirScheme scheme(9, 2);
  auto secret = random_secret(rng, 6);
  auto shares = scheme.deal(secret, rng);
  for (auto& y : shares[4].ys) y = Fp(rng.next());
  std::vector<Fp> xs(9);
  for (std::size_t i = 0; i < 9; ++i) xs[i] = Fp(shares[i].x);
  RobustDecoder dec(xs, 2);
  RobustDecoder::Scratch scratch;
  auto a = dec.reconstruct(shares);
  auto b = dec.reconstruct(shares, scratch);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(*a, *b);
  EXPECT_EQ(*a, secret);
}

TEST(RobustDecoder, PermutedPointSetStillDecodes) {
  // send_down groups arrive in chain order, not sorted order; the decoder
  // must handle any point ordering.
  Rng rng(32);
  ShamirScheme scheme(9, 3);
  auto secret = random_secret(rng, 3);
  auto shares = scheme.deal(secret, rng);
  std::swap(shares[0], shares[7]);
  std::swap(shares[2], shares[5]);
  for (auto& y : shares[4].ys) y = Fp(rng.next());
  auto rec = robust_reconstruct(shares, 3);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(*rec, secret);
}

// ------------------------------------------------- head-search decoding --

/// The decoder before head search: every word through Gao, p[0] per word,
/// and failure at the first word Gao rejects.
bool per_word_gao(const std::vector<Fp>& xs, std::size_t t,
                  const std::vector<std::vector<Fp>>& words,
                  std::vector<Fp>& out) {
  const GaoContext gao(xs);
  const std::size_t max_errors = (xs.size() - t - 1) / 2;
  out.clear();
  for (const auto& ys : words) {
    auto p = gao.decode(ys, t, max_errors);
    if (!p) return false;
    out.push_back((*p)[0]);
  }
  return true;
}

/// Head search through reconstruct_into over word-major `words`.
bool head_search(const RobustDecoder& dec,
                 const std::vector<std::vector<Fp>>& words,
                 std::vector<Fp>& out, RobustDecoder::Scratch& scratch) {
  const std::size_t m = dec.points().size();
  std::vector<std::vector<Fp>> share_major(m,
                                           std::vector<Fp>(words.size()));
  for (std::size_t w = 0; w < words.size(); ++w)
    for (std::size_t i = 0; i < m; ++i) share_major[i][w] = words[w][i];
  std::vector<FpSpan> spans(m);
  for (std::size_t i = 0; i < m; ++i)
    spans[i] = FpSpan{share_major[i].data(), words.size()};
  out.assign(words.size(), Fp(0));
  return dec.reconstruct_into(spans.data(), m, words.size(), out.data(),
                              scratch);
}

/// Error positions for one word. Modes: 0 clean, 1 the call's fixed set,
/// 2 inside head 0, 3 one per disjoint head, 4 a fresh random set.
/// Weights run one past the budget so beyond-budget words occur.
std::vector<std::size_t> error_positions(
    Rng& rng, int mode, std::size_t m, std::size_t t,
    const std::vector<std::size_t>& fixed) {
  const std::size_t k = t + 1;
  const std::size_t weight = rng.below((m - k) / 2 + 2);
  std::vector<std::size_t> pos;
  switch (mode) {
    case 1:
      return fixed;
    case 2:
      for (auto p : rng.sample_without_replacement(k, std::min(weight, k)))
        pos.push_back(static_cast<std::size_t>(p));
      return pos;
    case 3:
      for (std::size_t begin = 0; begin + k <= m && pos.size() < weight;
           begin += k)
        pos.push_back(begin + static_cast<std::size_t>(rng.below(k)));
      return pos;
    case 4:
      for (auto p : rng.sample_without_replacement(m, std::min(weight, m)))
        pos.push_back(static_cast<std::size_t>(p));
      return pos;
    default:
      return pos;
  }
}

TEST(RobustDecoder, HeadSearchMatchesPerWordGao) {
  // Head search must return exactly what per-word Gao returned — the
  // same secret words on success, and failure on the same calls — for
  // every shape and error pattern: m from t+1 (no error budget) to 48,
  // t from 0 to 12, errors fixed across a call, inside head 0, spread one
  // per head, or fresh per word, beyond-budget words, zero codewords and
  // all-clean calls.
  Rng rng(2024);
  std::size_t calls = 0, failed = 0, zero_budget = 0, damaged_words = 0;
  std::vector<std::size_t> mode_calls(5, 0);
  for (std::size_t set = 0; set < 600; ++set) {
    const std::size_t t = rng.below(13);
    const std::size_t m = t + 1 + rng.below(48 - t);
    std::vector<Fp> xs;
    while (xs.size() < m) {
      const Fp x(rng.below(1u << 20));
      if (std::find(xs.begin(), xs.end(), x) == xs.end()) xs.push_back(x);
    }
    const RobustDecoder dec(xs, t);
    zero_budget += dec.max_errors() == 0 ? 1 : 0;
    RobustDecoder::Scratch scratch;
    for (int call = 0; call < 5; ++call) {
      const int mode = static_cast<int>(rng.below(5));
      ++mode_calls[mode];
      std::vector<std::size_t> fixed;
      for (auto p : rng.sample_without_replacement(
               m, std::min<std::size_t>(rng.below(dec.max_errors() + 2), m)))
        fixed.push_back(static_cast<std::size_t>(p));
      const std::size_t num_words = 1 + rng.below(6);
      std::vector<std::vector<Fp>> words(num_words);
      for (auto& ys : words) {
        std::vector<Fp> coeffs(t + 1);
        const bool zero_word = rng.bernoulli(0.1);
        for (auto& c : coeffs) c = zero_word ? Fp(0) : Fp(rng.next());
        ys.resize(m);
        for (std::size_t i = 0; i < m; ++i) ys[i] = poly_eval(coeffs, xs[i]);
        const auto bad = error_positions(rng, mode, m, t, fixed);
        for (auto b : bad) ys[b] += Fp(1 + rng.below(Fp::kP - 1));
        damaged_words += bad.empty() ? 0 : 1;
      }
      std::vector<Fp> expected, got;
      const bool ok_ref = per_word_gao(xs, t, words, expected);
      const bool ok = head_search(dec, words, got, scratch);
      ASSERT_EQ(ok, ok_ref) << "set " << set << " call " << call << " m=" << m
                            << " t=" << t << " mode " << mode;
      if (ok) {
        EXPECT_EQ(got, expected) << "set " << set << " call " << call;
      }
      failed += ok ? 0 : 1;
      ++calls;
    }
  }
  // The sweep must have reached every region it claims to cover.
  EXPECT_EQ(calls, 3000u);
  EXPECT_GT(failed, 100u);
  EXPECT_GT(zero_budget, 10u);
  EXPECT_GT(damaged_words, 3000u);
  for (std::size_t mode = 0; mode < mode_calls.size(); ++mode)
    EXPECT_GT(mode_calls[mode], 400u) << "mode " << mode;
}

TEST(RobustDecoder, ConcurrentFirstDamagedWordMatchesSerial) {
  // The alternate heads and the Gao context are built on a decoder's
  // first damaged word. Eight pool workers reaching that word of a fresh
  // shared decoder together must get exactly the serial results (the
  // sanitizer jobs race the lazy build here).
  const std::size_t kShares = 12, kT = 3, kWords = 4, kItems = 64;
  std::vector<Fp> xs(kShares);
  for (std::size_t i = 0; i < kShares; ++i) xs[i] = Fp(i + 1);
  ShamirScheme scheme(kShares, kT);
  std::vector<std::vector<VectorShare>> items(kItems);
  for (std::size_t i = 0; i < kItems; ++i) {
    Rng rng = Rng(77).fork(i);
    items[i] = scheme.deal(random_secret(rng, kWords), rng);
    // Errors inside head 0 (so the lazy path is needed), and on some
    // items beyond the budget of 4 (so Gao runs and fails too).
    const std::size_t errors = 1 + rng.below(i % 8 == 0 ? 6 : 4);
    for (auto b : rng.sample_without_replacement(kShares, errors))
      items[i][b].ys[rng.below(kWords)] += Fp(1);
    items[i][rng.below(kT + 1)].ys[0] += Fp(1);
  }
  std::vector<std::optional<std::vector<Fp>>> serial(kItems);
  {
    const RobustDecoder dec(xs, kT);
    RobustDecoder::Scratch scratch;
    for (std::size_t i = 0; i < kItems; ++i)
      serial[i] = dec.reconstruct(items[i], scratch);
  }
  for (int trial = 0; trial < 8; ++trial) {
    const RobustDecoder dec(xs, kT);
    const std::uint64_t fp = dec.precompute_fingerprint();
    Pool::set_threads(8);
    std::vector<std::optional<std::vector<Fp>>> stormed(kItems);
    std::vector<RobustDecoder::Scratch> scratch(Pool::num_threads());
    Pool::for_each(kItems, [&](std::size_t i, std::size_t worker) {
      stormed[i] = dec.reconstruct(items[i], scratch[worker]);
    });
    Pool::set_threads(0);
    for (std::size_t i = 0; i < kItems; ++i)
      EXPECT_EQ(stormed[i], serial[i]) << "trial " << trial << " item " << i;
    EXPECT_EQ(dec.precompute_fingerprint(), fp);
  }
}

// ------------------------------------------- two-phase prewarm protocol --

TEST(SchemeCache, PrewarmMakesLookupsConstUnderWorkerStorm) {
  // Phase 1 (driver): pre-warm every shape and point set a round needs.
  // Phase 2 (workers): find_scheme / find_robust are const lookups — a
  // multi-worker deal/reconstruct storm must leave every precompute
  // fingerprint unchanged, hit on every lookup, and produce exactly the
  // serial results (per-item forked Rng streams, per-worker scratch).
  SchemeCache cache;
  const std::size_t kShares = 12, kT = 3, kWords = 6;
  const CachedScheme& scheme = cache.prewarm(kShares, kT);
  std::vector<Fp> xs(kShares);
  for (std::size_t i = 0; i < kShares; ++i) xs[i] = Fp(i + 1);
  // A second survivor pattern: shares 0..8 only (a dropped tail).
  std::vector<Fp> xs_partial(xs.begin(), xs.begin() + 9);
  SchemeCache::RobustPin pin(cache);
  const RobustDecoder& dec_full = cache.prewarm_points(xs, kT);
  const RobustDecoder& dec_partial = cache.prewarm_points(xs_partial, kT);
  const std::uint64_t scheme_fp = scheme.precompute_fingerprint();
  const std::uint64_t full_fp = dec_full.precompute_fingerprint();
  const std::uint64_t partial_fp = dec_partial.precompute_fingerprint();
  const std::uint64_t epoch = cache.robust_epoch();

  // One storm item: fork an Rng, deal, damage two shares, reconstruct
  // through both decoders, digest everything.
  const auto run_item = [&](std::size_t item, const CachedScheme& s,
                            const RobustDecoder& full,
                            const RobustDecoder& partial,
                            CachedScheme::DealScratch& ds,
                            RobustDecoder::Scratch& rs) {
    Rng rng = Rng(4242).fork(item);
    std::vector<Fp> secret(kWords);
    for (auto& w : secret) w = Fp(rng.next());
    std::vector<VectorShare> shares;
    s.deal_into(secret, rng, shares, ds);
    for (auto& y : shares[1].ys) y = Fp(rng.next());
    for (auto& y : shares[7].ys) y = Fp(rng.next());
    Fnv1a digest;
    auto v = full.reconstruct(shares, rs);
    digest.mix(v.has_value() ? 1 : 0);
    if (v)
      for (const Fp& w : *v) digest.mix(w.value());
    shares.resize(9);
    auto p = partial.reconstruct(shares, rs);
    digest.mix(p.has_value() ? 1 : 0);
    if (p)
      for (const Fp& w : *p) digest.mix(w.value());
    return digest.h;
  };

  const std::size_t kItems = 256;
  std::vector<std::uint64_t> serial(kItems);
  {
    CachedScheme::DealScratch ds;
    RobustDecoder::Scratch rs;
    for (std::size_t i = 0; i < kItems; ++i)
      serial[i] = run_item(i, scheme, dec_full, dec_partial, ds, rs);
  }

  Pool::set_threads(8);
  std::vector<std::uint64_t> stormed(kItems, 0);
  std::vector<std::uint8_t> lookup_hit(kItems, 0);
  std::vector<CachedScheme::DealScratch> deal_scratch(Pool::num_threads());
  std::vector<RobustDecoder::Scratch> rec_scratch(Pool::num_threads());
  Pool::for_each(kItems, [&](std::size_t i, std::size_t worker) {
    const CachedScheme* s = cache.find_scheme(kShares, kT);
    const RobustDecoder* full = cache.find_robust(xs, kT);
    const RobustDecoder* partial = cache.find_robust(xs_partial, kT);
    if (s == nullptr || full == nullptr || partial == nullptr) return;
    lookup_hit[i] = 1;
    stormed[i] = run_item(i, *s, *full, *partial, deal_scratch[worker],
                          rec_scratch[worker]);
  });
  Pool::set_threads(0);

  for (std::size_t i = 0; i < kItems; ++i) {
    ASSERT_TRUE(lookup_hit[i]) << "phase-2 lookup missed for item " << i;
    EXPECT_EQ(stormed[i], serial[i]) << "item " << i;
  }
  // The storm was const: fingerprints, identities and epoch unchanged.
  EXPECT_EQ(scheme.precompute_fingerprint(), scheme_fp);
  EXPECT_EQ(dec_full.precompute_fingerprint(), full_fp);
  EXPECT_EQ(dec_partial.precompute_fingerprint(), partial_fp);
  EXPECT_EQ(cache.robust_epoch(), epoch);
  EXPECT_EQ(cache.find_scheme(kShares, kT), &scheme);
  EXPECT_EQ(cache.find_robust(xs, kT), &dec_full);
  EXPECT_EQ(cache.find_robust(xs_partial, kT), &dec_partial);
  // Misses return null rather than inserting.
  EXPECT_EQ(cache.find_scheme(99, 3), nullptr);
  std::vector<Fp> unseen{Fp(3), Fp(1), Fp(4), Fp(1)};
  EXPECT_EQ(cache.find_robust(unseen, 1), nullptr);
}

TEST(SchemeCache, RobustPinDefersEpochResetUntilUnpin) {
  // While a pre-warm batch is pinned, inserting past kMaxDecoders must
  // not reset the map (references collected during the batch stay
  // valid); the overflow is settled when the pin drops.
  SchemeCache cache;
  std::vector<Fp> first{Fp(1), Fp(2), Fp(3)};
  std::vector<const RobustDecoder*> held;
  const std::uint64_t epoch0 = cache.robust_epoch();
  {
    SchemeCache::RobustPin pin(cache);
    held.push_back(&cache.prewarm_points(first, 1));
    for (std::size_t i = 0; i <= SchemeCache::kMaxDecoders; ++i) {
      // Distinct point sets, enough to overflow the bounded map.
      std::vector<Fp> xs{Fp(i + 10), Fp(i + 11), Fp(i + 12)};
      held.push_back(&cache.prewarm_points(xs, 1));
    }
    // No reset happened mid-batch: the epoch is stable and the very
    // first reference still resolves.
    EXPECT_EQ(cache.robust_epoch(), epoch0);
    EXPECT_EQ(cache.find_robust(first, 1), held.front());
  }
  // The pin dropped with the map over its bound: one deferred reset.
  EXPECT_NE(cache.robust_epoch(), epoch0);
  EXPECT_EQ(cache.find_robust(first, 1), nullptr);
  // A batch that stays within the bound keeps the cache warm across
  // pins — no preemptive wipe.
  const RobustDecoder& again = cache.prewarm_points(first, 1);
  const std::uint64_t epoch1 = cache.robust_epoch();
  {
    SchemeCache::RobustPin pin(cache);
    EXPECT_EQ(&cache.prewarm_points(first, 1), &again);
  }
  EXPECT_EQ(cache.robust_epoch(), epoch1);
  EXPECT_EQ(cache.find_robust(first, 1), &again);
}

}  // namespace
}  // namespace ba
