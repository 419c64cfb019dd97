// Protocol parameters and the candidate-array word layout.
//
// The paper's constants are asymptotic (k1 = log^3 n, w = 5c log^3 n,
// q = log^delta n, ...) and exceed n at laptop scale; every theorem holds
// "for n sufficiently large". ProtocolParams keeps the structural
// relations and lets experiments sweep the constants (via the scenario
// spec's tournament knobs — docs/ARCHITECTURE.md, "Scenario layer"). The
// E12 ablation grid (`ba_sweep --grid e12`) quantifies each knob.
//
// Array layout (Algorithm 2 step 1 + Definition 4 + §3.5): processor i's
// array has one block per election level, then the root coin block, then
// the global-coin-subsequence block:
//
//   block l (2 <= l <= L-1):  [ bin choice | r_l coin words ]
//   root block:               [ kRootWords coin words ]  (round i of the
//                             root agreement uses a word of candidate
//                             i mod r_root, "F_i(2)"; multiple words per
//                             candidate buy the root extra coin rounds)
//   sequence block:           [ coin_words words ]    (§3.5)
//
// where r_2 = q (leaf children contribute one array each) and
// r_l = q * w for l >= 3 (each child forwards w winners).
#pragma once

#include <cstdint>
#include <vector>

#include "aeba/aeba_with_coins.h"
#include "tree/tournament_tree.h"

namespace ba {

struct ProtocolParams {
  TreeParams tree;
  AebaParams aeba;

  std::size_t w = 2;            ///< winners per election (paper: 5c log^3 n)
  std::size_t g_intra = 8;      ///< intra-node vote-graph out-degree
  std::size_t coin_words = 2;   ///< §3.5 sequence words per root candidate

  /// Secret-sharing privacy threshold as a fraction denominator:
  /// t = d / share_threshold_div. The paper allows any t in [n/3, 2n/3]
  /// and leans on node-level majorities for correctness; we trade some
  /// privacy margin (t = d/4) for Berlekamp–Welch error correction of
  /// (d - t - 1)/2 = d/3 wrong shares per dealing, which is what makes
  /// reconstruction concrete (docs/ARCHITECTURE.md, "Cost accounting").
  std::size_t share_threshold_div = 4;

  /// Sensible defaults for a given n; q chosen so trees have 3-5 levels.
  static ProtocolParams laptop_scale(std::size_t n);

  std::size_t privacy_threshold(std::size_t num_shares) const {
    std::size_t t = num_shares / share_threshold_div;
    return t == 0 ? 1 : t;
  }
};

/// Word layout of one candidate array, derived from the tree shape.
class ArrayLayout {
 public:
  ArrayLayout(const ProtocolParams& params, const TournamentTree& tree);

  std::size_t num_levels() const { return num_levels_; }
  std::size_t total_words() const { return total_words_; }

  /// Candidates per election at a level (2..num_levels-1), assuming a full
  /// node; ragged nodes have fewer.
  std::size_t r_at(std::size_t level) const;
  /// Rounds (= candidate count) of the root agreement.
  std::size_t r_root() const { return r_root_; }

  /// Word offsets within the array.
  std::size_t block_offset(std::size_t level) const;      // election block
  std::size_t bin_word(std::size_t level) const {         // B(0)
    return block_offset(level);
  }
  /// Coin word used at AEBA round j (by the round-j candidate) for
  /// deciding candidate c's bin: B_j(c) — word c+1 of the block.
  std::size_t coin_word(std::size_t level, std::size_t candidate) const {
    return block_offset(level) + 1 + candidate;
  }
  /// Words in each candidate's root block; the root agreement runs
  /// kRootWords * r_root coin rounds.
  static constexpr std::size_t kRootWords = 2;
  std::size_t root_rounds() const { return kRootWords * r_root_; }
  std::size_t root_block_offset() const { return root_offset_; }
  std::size_t seq_block_offset() const { return seq_offset_; }
  std::size_t seq_words() const { return seq_words_; }

  /// First still-secret word once level l's election has consumed its
  /// block: the suffix re-shared upward by sendSecretUp.
  std::size_t offset_after_level(std::size_t level) const;

 private:
  std::size_t num_levels_;
  std::size_t q_, w_;
  std::size_t r_root_;
  std::vector<std::size_t> block_offsets_;  // index by level (2..L-1)
  std::size_t root_offset_;
  std::size_t seq_offset_;
  std::size_t seq_words_;
  std::size_t total_words_;
};

}  // namespace ba
