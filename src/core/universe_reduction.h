// Universe reduction — the paper's §1 companion claim: "Our techniques
// also lead to solutions with Õ(n^1/2) bit complexity for universe
// reduction" (reducing the n processors to a polylog-size set whose
// good fraction is representative of the population).
//
// Construction, from the paper's own toolbox: run the tournament (§3) and
// release the global coin subsequence (§3.5); the agreed random words then
// *publicly* sample the committee. Because the words were secret-shared
// before any election outcome was known and are only revealed at the end,
// the sample is unbiased: the adversary could not steer which processors
// get picked.
//
// Adaptive-security caveat, faithfully inherited from §1.3: once the
// committee is public, an adaptive adversary can corrupt it. Universe
// reduction therefore guarantees representativeness *at sampling time* —
// downstream designs must use the committee immediately, or hand it no
// secrets (exactly the observation that motivates electing arrays instead
// of processors for agreement itself). The E13 grid measures both sides:
// representativeness at sampling time, and what an adaptive takeover does
// afterwards.
#pragma once

#include <cstdint>
#include <vector>

#include "core/almost_everywhere.h"

namespace ba {

struct UniverseResult {
  /// The committee by plurality view, one slot per sequence word used
  /// (slots from bad arrays' words may repeat or be adversary-chosen;
  /// representativeness is a statement about the honest slots).
  std::vector<ProcId> committee;
  /// Mean over slots of the fraction of good processors whose derived
  /// slot matches the plurality slot. Slots are derived independently per
  /// word, so one divergent (bad-array) word view only desynchronises its
  /// own slot — the same reason Algorithm 4 consumes the sequence one
  /// number at a time.
  double view_agreement = 0.0;
  /// Good fraction of the committee the moment it was sampled.
  double good_fraction_at_sampling = 0.0;
  /// Good fraction of the whole population at the same moment.
  double population_good_fraction = 0.0;
  /// The tournament run that fuelled the sampling.
  AeResult ae;
};

class UniverseReduction {
 public:
  /// Reduce to `committee_size` distinct processors. The protocol draws
  /// one committee member per released sequence word, so committee_size
  /// must not exceed the sequence length (coin_words * r_root; raise
  /// params.coin_words for larger committees).
  UniverseReduction(const ProtocolParams& params, std::size_t committee_size,
                    std::uint64_t seed);

  UniverseResult run(Network& net, Adversary& adversary);

  /// The committee a processor with these word views derives: slot i is
  /// processor (word_i mod n), independently per word (so divergent views
  /// stay local to their slot). Slots may repeat — the committee is a
  /// multiset sample, exactly like sampling with replacement.
  static std::vector<ProcId> sample_committee(
      const std::vector<std::uint64_t>& word_views, std::size_t n,
      std::size_t size);

 private:
  ProtocolParams params_;
  std::size_t committee_size_;
  std::uint64_t seed_;
};

}  // namespace ba
