// Cached share-pipeline crypto: amortized Shamir dealing and robust
// word-vector decoding.
//
// The share pipeline (ShareFlow, Section 3.2.3) uses a small, fixed set of
// scheme shapes over and over: one (k1, t1) scheme per leaf dealing, one
// (d_up, t_up) scheme per uplink re-dealing, and the mirrored point sets on
// the way back down. The seed constructed a fresh ShamirScheme — and with
// it, per-word Horner evaluation and per-call interpolation setup — at
// every call site. This header owns the amortization:
//
//  * CachedScheme, keyed by (n, t): a precomputed Vandermonde dealing
//    matrix V[i][j] = x_i^{j+1} for x_i = 1..n. Dealing a w-word secret is
//    then one (n x t) x (t x w) matrix product, blocked over words so the
//    independent products pipeline (Horner's chain is latency-bound on the
//    128-bit Mersenne multiply). Randomness is drawn word-major, degrees
//    1..t, exactly like ShamirScheme::deal — cached dealing is
//    byte-identical to the seed path for the same Rng state.
//
//  * RobustDecoder, keyed by (point set, t): decodes each word by head
//    search. A head is a block of t+1 consecutive share positions; its
//    interpolant (degree <= t) is evaluated at every other position
//    through precomputed Lagrange rows, and the head explains the word
//    when at most max_errors = (m - t - 1) / 2 of those values disagree
//    (the count stops early once it passes the budget). Head 0 — the
//    first t+1 positions — is built eagerly and settles every clean word
//    and every word whose errors all lie outside it. The other
//    floor(m / (t+1)) - 1 disjoint heads are tried next; with e errors
//    and more than e heads one head is error-free. Only a word no head
//    explains goes to Gao decoding, which includes every word beyond the
//    budget, so failures are reported exactly as before. The alternate
//    heads (rows batch-inverted per head) and the GaoContext are built
//    together, lazily, on the decoder's first damaged word: most
//    decoders never see one.
//
//    Head order cannot change the answer. An accepted interpolant has
//    degree <= t and differs from the word in at most max_errors places,
//    and 2 * max_errors + t + 1 <= m: two such polynomials would agree
//    on at least t+1 points and so coincide. It is therefore the unique
//    codeword within the budget — the polynomial Gao returns.
//    robust_reconstruct() in berlekamp_welch.h is the uncached entry
//    point over the same code.
//
//  * SchemeCache: owns both maps. Entries are allocated once and have
//    stable addresses; a ShareFlow holds one cache for its lifetime, so
//    every dealing after the first per shape is free of setup cost.
//
// Threading (the parallel round engine, common/pool.h): precompute and
// per-call scratch are split explicitly. Everything computed at
// construction — dealing matrices, head 0's barycentric rows — is
// immutable afterwards (asserted via precompute_fingerprint() in the
// tests), and so is a decoder's damaged-word path once its call_once
// has built it: all of it is safe to share read-only across workers.
// Per-call scratch is the caller's: the deal_into / reconstruct
// overloads taking an explicit Scratch are const and thread-safe when
// each worker owns its Scratch. The scratch-less
// convenience overloads fall back to one internal buffer and stay
// single-threaded.
//
// SchemeCache itself follows a two-phase protocol per parallel batch
// (this is what lets ShareFlow fan deal / reconstruct batches across the
// pool without per-worker caches):
//   1. Pre-warm (driver-side, serial): prewarm(n, t) and
//      prewarm_points(xs, t) materialize every entry the batch will
//      need. These mutate the maps and must not run concurrently with
//      anything. Hold a RobustPin across the batch: while pinned the
//      bounded decoder map never hits its epoch reset (which would
//      invalidate references mid-batch); unpinning restores the bound.
//   2. Fan-out (workers, concurrent): find_scheme / find_robust are
//      const, touch the maps read-only, and are safe from any number of
//      workers — as are references captured during the pre-warm pass.
// The mutating scheme() / robust() conveniences remain the serial-path
// API; never call them while phase 2 is in flight.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/arena.h"
#include "common/field.h"
#include "common/rng.h"
#include "crypto/gao.h"
#include "crypto/shamir.h"

namespace ba {

/// A (n, t) Shamir scheme with its dealing matrix precomputed. Evaluation
/// points are the scheme's canonical x = 1..n.
class CachedScheme {
 public:
  /// Per-call coefficient-draw scratch; own one per worker for concurrent
  /// dealing against a shared scheme.
  struct DealScratch {
    std::vector<Fp> coeffs;  ///< word-major draws (words x t)
  };

  CachedScheme(std::size_t num_shares, std::size_t privacy_threshold);

  std::size_t num_shares() const { return n_; }
  std::size_t privacy_threshold() const { return t_; }
  std::size_t shares_needed() const { return t_ + 1; }

  /// Deal shares of `secret`; byte-identical to
  /// ShamirScheme(n, t).deal(secret, rng) for the same rng state.
  std::vector<VectorShare> deal(const std::vector<Fp>& secret,
                                Rng& rng) const;

  /// Deal into a reused share vector (resized/overwritten) — the
  /// zero-allocation steady state for tight re-dealing loops. Uses the
  /// internal scratch: single caller at a time.
  void deal_into(const std::vector<Fp>& secret, Rng& rng,
                 std::vector<VectorShare>& out) const;

  /// Scratch-explicit dealing: touches no member state besides the
  /// immutable precompute, so concurrent calls with distinct scratches
  /// (and distinct Rngs) are safe.
  void deal_into(const std::vector<Fp>& secret, Rng& rng,
                 std::vector<VectorShare>& out, DealScratch& scratch) const;

  /// The two halves of deal_into, split so the randomness draw (serial —
  /// draw order is the protocols' byte-parity anchor) can be separated
  /// from the Vandermonde product (parallel; see ShareFlow):
  ///
  /// draw_coeffs consumes exactly the draws deal_into would (word-major,
  /// degrees 1..t) into `coeffs`; deal_from_coeffs is pure compute over
  /// the immutable precompute — const, no scratch, safe from any worker.
  /// deal_from_coeffs(s, c, out) after draw_coeffs(s.size(), rng, c) is
  /// byte-identical to deal_into(s, rng, out).
  void draw_coeffs(std::size_t words, Rng& rng,
                   std::vector<Fp>& coeffs) const;
  void deal_from_coeffs(const std::vector<Fp>& secret,
                        const std::vector<Fp>& coeffs,
                        std::vector<VectorShare>& out) const;

  /// Order-independent digest of the precompute (the dealing matrix).
  /// Stable for the lifetime of the scheme; tests assert no call path
  /// mutates it.
  std::uint64_t precompute_fingerprint() const;

 private:
  std::size_t n_;
  std::size_t t_;
  std::vector<Fp> vand_;  ///< row-major n x t: vand_[i*t + j] = (i+1)^{j+1}
  mutable DealScratch scratch_;  ///< backs the scratch-less overload
};

/// Robust word-vector decoding over one fixed point set by head search
/// (see the header comment), with Gao decoding as the fallback for words
/// no head explains. Point order matters (shares must be passed in the
/// same order as `xs`).
class RobustDecoder {
 public:
  /// Per-word value scratch; own one per worker for concurrent decoding
  /// against a shared decoder.
  struct Scratch {
    std::vector<Fp> ys;         ///< all m values of the current word
    std::vector<FpSpan> spans;  ///< share views for the vector overload
    GaoContext::Scratch gao;    ///< fallback decoder's working polynomials
  };

  /// `xs` are the shares' evaluation points in share order, pairwise
  /// distinct (BA_REQUIRE); `t` the privacy threshold. The error budget is
  /// (xs.size() - t - 1) / 2, as in robust_reconstruct().
  RobustDecoder(std::vector<Fp> xs, std::size_t privacy_threshold);

  const std::vector<Fp>& points() const { return xs_; }
  std::size_t privacy_threshold() const { return t_; }
  std::size_t max_errors() const { return max_errors_; }

  /// Per-word robust reconstruction of shares (whose x values must match
  /// points(), in order). Returns nullopt if any word fails to decode.
  /// Uses the internal scratch: single caller at a time.
  std::optional<std::vector<Fp>> reconstruct(
      const std::vector<VectorShare>& shares) const;

  /// Scratch-explicit reconstruction: besides `scratch`, only the
  /// immutable precompute is touched (the lazily built damaged-word path
  /// is guarded by std::call_once and immutable once built), so
  /// concurrent calls with distinct scratches are safe.
  std::optional<std::vector<Fp>> reconstruct(
      const std::vector<VectorShare>& shares, Scratch& scratch) const;

  /// Span-based reconstruction for the arena-backed share flows:
  /// shares[i] holds the word values for points()[i] (same order
  /// contract as the vector overload), every span `words` long. On
  /// success writes the secret into out[0..words) and returns true.
  /// Thread-safe under the same distinct-scratch rule; `out` runs of
  /// concurrent calls must not overlap.
  bool reconstruct_into(const FpSpan* shares, std::size_t count,
                        std::size_t words, Fp* out, Scratch& scratch) const;

  /// Order-independent digest of the eager precompute (points and head
  /// 0's rows). Stable for the decoder's lifetime; tests assert no call
  /// path mutates it.
  std::uint64_t precompute_fingerprint() const;

 private:
  /// A block of t+1 consecutive share positions and the Lagrange rows of
  /// its interpolant: at zero (the secret) and at every position outside
  /// the block, in ascending position order.
  struct Head {
    std::size_t begin = 0;      ///< the block is [begin, begin + t + 1)
    std::vector<Fp> zero_row;   ///< t+1 entries
    std::vector<Fp> rows;       ///< row-major (m - t - 1) x (t + 1)
  };
  /// What only damaged words need, built together on the first one.
  struct DamagedPath {
    std::vector<Head> heads;  ///< the disjoint blocks after head 0
    GaoContext gao;           ///< fallback for words no head explains
  };

  Head make_head(std::size_t begin) const;
  /// True when the head's interpolant disagrees with `ys` in at most
  /// max_errors positions; then writes its value at zero to `secret`.
  bool try_head(const Head& head, const Fp* ys, Fp& secret) const;
  const DamagedPath& damaged() const;  ///< built on first damaged word

  std::vector<Fp> xs_;
  std::size_t t_;
  std::size_t max_errors_;
  Head head0_;                                 ///< eager: the first t+1
  mutable std::once_flag damaged_once_;        ///< one-shot construction
  mutable std::optional<DamagedPath> damaged_;  ///< immutable once built
  mutable Scratch scratch_;  ///< backs the scratch-less overload
};

/// Owner of cached schemes and decoders. scheme() references stay valid
/// for the cache's lifetime. robust() references stay valid until a
/// later robust() call evicts (the decoder map is bounded — under
/// adaptive corruption the survivor point sets keep changing, and an
/// unbounded map would grow for the lifetime of a long run); use them
/// immediately rather than retaining them.
class SchemeCache {
 public:
  /// Decoders cached before the map is reset and rebuilt on demand. Far
  /// above any realistic distinct-survivor-pattern count per flow; the
  /// bound only exists to cap pathological runs.
  static constexpr std::size_t kMaxDecoders = 4096;

  /// The (n, t) scheme over canonical points 1..n.
  const CachedScheme& scheme(std::size_t num_shares,
                             std::size_t privacy_threshold);

  /// The decoder for an explicit, ordered point set.
  const RobustDecoder& robust(const std::vector<Fp>& xs,
                              std::size_t privacy_threshold);

  // ---- two-phase API (see the header comment) ----

  /// Phase 1, driver-side: materialize entries ahead of a parallel
  /// batch. Aliases of scheme()/robust() under the pre-warm name — the
  /// returned references obey the same stability rules.
  const CachedScheme& prewarm(std::size_t num_shares,
                              std::size_t privacy_threshold) {
    return scheme(num_shares, privacy_threshold);
  }
  const RobustDecoder& prewarm_points(const std::vector<Fp>& xs,
                                      std::size_t privacy_threshold) {
    return robust(xs, privacy_threshold);
  }

  /// Phase 1 guard: while pinned, prewarm_points()/robust() never
  /// epoch-reset the bounded decoder map (it may temporarily exceed
  /// kMaxDecoders), so every reference collected during the batch stays
  /// valid — no miss counting, no preemptive wipe of a warm cache.
  /// unpin_robust() restores the bound, clearing the map only if the
  /// batch actually pushed it past the cap. RobustPin is the RAII form.
  void pin_robust() { robust_pinned_ = true; }
  void unpin_robust();
  class RobustPin {
   public:
    explicit RobustPin(SchemeCache& cache) : cache_(cache) {
      cache_.pin_robust();
    }
    ~RobustPin() { cache_.unpin_robust(); }
    RobustPin(const RobustPin&) = delete;
    RobustPin& operator=(const RobustPin&) = delete;

   private:
    SchemeCache& cache_;
  };

  /// Bumped every time the decoder map resets. A pre-warm pass that
  /// captures references asserts the epoch is unchanged afterwards.
  std::uint64_t robust_epoch() const { return robust_epoch_; }

  /// Phase 2, worker-side: lock-free const lookups. Read the maps
  /// without mutating; return nullptr on miss (a miss in phase 2 is a
  /// driver bug — the pre-warm pass should have covered it).
  const CachedScheme* find_scheme(std::size_t num_shares,
                                  std::size_t privacy_threshold) const;
  const RobustDecoder* find_robust(const Fp* xs, std::size_t count,
                                   std::size_t privacy_threshold) const;
  const RobustDecoder* find_robust(const std::vector<Fp>& xs,
                                   std::size_t privacy_threshold) const {
    return find_robust(xs.data(), xs.size(), privacy_threshold);
  }

 private:
  std::unordered_map<std::uint64_t, std::unique_ptr<CachedScheme>> schemes_;
  // Decoders bucketed by a hash of (xs, t); each bucket is scanned for an
  // exact point-set match, so hash collisions only cost a comparison.
  std::unordered_map<std::uint64_t,
                     std::vector<std::unique_ptr<RobustDecoder>>>
      decoders_;
  std::size_t decoder_count_ = 0;
  std::uint64_t robust_epoch_ = 0;
  bool robust_pinned_ = false;
};

}  // namespace ba
