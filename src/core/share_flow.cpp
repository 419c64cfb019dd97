#include "core/share_flow.h"

#include <algorithm>
#include <unordered_map>

#include "common/plurality.h"
#include "common/pool.h"

namespace ba {

namespace {

/// Holder member position of a share with the given chain (length `len`)
/// inside its level-`len` node: walk the positional uplink samplers.
std::uint32_t chain_pos(const TournamentTree& tree, Chain c,
                        std::size_t len) {
  std::uint32_t pos = chain_elem(c, 0);
  for (std::size_t i = 1; i < len; ++i)
    pos = tree.uplinks(i).at(pos)[chain_elem(c, i) - 1];
  return pos;
}

}  // namespace

ShareFlow::ShareFlow(const ProtocolParams& params, const TournamentTree& tree,
                     Network& net, Rng rng)
    : params_(params), tree_(tree), net_(net), rng_(rng) {}

void ShareFlow::ensure_worker_scratch() {
  const std::size_t w = Pool::num_threads();
  if (decode_scratch_.size() < w) {
    decode_scratch_.resize(w);
    span_scratch_.resize(w);
    deal_out_scratch_.resize(w);
    slice_scratch_.resize(w);
    leaf_tally_scratch_.resize(w);
    node_tally_scratch_.resize(w);
  }
}

void ShareFlow::open_tally(const TreeNode& node, const OpenPlan& plan,
                           const LeafViews& views, std::uint64_t salt,
                           MemberViews& out) {
  ensure_worker_scratch();
  const std::size_t nwords = views.nwords();
  const Rng salted(salt);
  open_receivers_ += node.members.size();
  open_tallies_ += 1;
  Pool::for_each(node.members.size(), [&](std::size_t pos,
                                          std::size_t worker) {
    // Per-receiver garbage stream: a function of (salt, pos) alone, so
    // lying-sender draws are identical at any worker count and never
    // touch rng_. Draw order within the stream is (word, leaf, sender).
    Rng garbage_stream = salted.fork(pos);
    PluralityCounter& leaf_tally = leaf_tally_scratch_[worker];
    PluralityCounter& node_tally = node_tally_scratch_[worker];
    const std::uint32_t lb = pos == 0 ? 0 : plan.pos_leaf_ends[pos - 1];
    const std::uint32_t le = plan.pos_leaf_ends[pos];
    const std::size_t s_begin = lb == 0 ? 0 : plan.leaf_ends[lb - 1];
    for (std::size_t w = 0; w < nwords; ++w) {
      node_tally.clear();
      std::size_t si = s_begin;
      for (std::size_t l = lb; l < le; ++l) {
        leaf_tally.clear();
        for (; si < plan.leaf_ends[l]; ++si) {
          const OpenSender& s = plan.senders[si];
          leaf_tally.add(s.lies
                             ? garbage_stream.next()
                             : views.at(s.leaf_rel, s.member_idx, w).value());
        }
        node_tally.add(leaf_tally.winner());
      }
      out.set(pos, w, Fp(node_tally.winner()));
    }
  });
}

void ShareFlow::optimistic_units(
    std::size_t count, const std::function<void(std::size_t)>& draw_inputs,
    const std::function<void(std::size_t, std::size_t)>& decode_range,
    const std::function<bool(std::size_t)>& failed,
    const std::function<void(std::size_t)>& fill_failure) {
  std::size_t done = 0;
  int restarts = 0;
  while (done < count) {
    if (restarts >= 2) {
      // Dense failures: fall back to unit-serial processing (work within
      // one unit still fans out via decode_range — a unit's failure
      // draws cannot interleave with its own input draws).
      for (std::size_t i = done; i < count; ++i) {
        draw_inputs(i);
        decode_range(i, i + 1);
        if (failed(i)) fill_failure(i);
      }
      return;
    }
    const Rng snapshot = rng_;
    for (std::size_t i = done; i < count; ++i) draw_inputs(i);
    decode_range(done, count);
    std::size_t fail = count;
    for (std::size_t i = done; i < count && fail == count; ++i)
      if (failed(i)) fail = i;
    if (fail == count) return;  // every unit decoded; no more draws
    // Rewind: replay input draws up to the failing unit (identical
    // values), take its failure draws at their serial position, then
    // restart after it.
    rng_ = snapshot;
    for (std::size_t i = done; i <= fail; ++i) draw_inputs(i);
    fill_failure(fail);
    done = fail + 1;
    ++restarts;
  }
}

std::vector<ShareRec> ShareFlow::deal_to_leaf(ProcId owner,
                                              std::size_t leaf_idx,
                                              const std::vector<Fp>& words) {
  DealJob job;
  job.owner = owner;
  job.leaf_idx = leaf_idx;
  job.words = &words;
  return std::move(deal_to_leaf_batch({job})[0]);
}

std::vector<std::vector<ShareRec>> ShareFlow::deal_to_leaf_batch(
    const std::vector<DealJob>& jobs) {
  ensure_worker_scratch();
  const std::size_t nj = jobs.size();
  std::vector<std::vector<ShareRec>> out(nj);
  std::vector<const CachedScheme*> scheme_of(nj, nullptr);
  std::vector<std::vector<Fp>> coeffs_of(nj);
  // Serial driver pass: draws (dealing coefficients / lying garbage) and
  // charges in job order — byte-identical to dealing job by job.
  for (std::size_t ji = 0; ji < nj; ++ji) {
    const DealJob& job = jobs[ji];
    const TreeNode& leaf = tree_.node(1, job.leaf_idx);
    const std::size_t k1 = leaf.members.size();
    const std::size_t t1 = params_.privacy_threshold(k1);
    if (silent(job.owner)) continue;  // crashed dealer: nobody gets anything
    std::vector<ShareRec>& recs = out[ji];
    recs.resize(k1);
    const bool lies = lying(job.owner);
    if (!lies) {
      const CachedScheme& scheme = cache_.prewarm(k1, t1);
      scheme_of[ji] = &scheme;
      scheme.draw_coeffs(job.words->size(), rng_, coeffs_of[ji]);
    }
    for (std::size_t pos = 0; pos < k1; ++pos) {
      recs[pos].chain = chain_root(static_cast<std::uint16_t>(pos));
      recs[pos].holder_pos = static_cast<std::uint32_t>(pos);
      if (lies) fill_garbage(recs[pos].ys, job.words->size(), rng_);
      net_.charge_batch(job.owner, leaf.members[pos],
                        job.words->size() * kWordBits);
    }
  }
  // Parallel pass: honest dealings are draw-free Vandermonde products
  // writing job-indexed records.
  Pool::for_each(nj, [&](std::size_t ji, std::size_t worker) {
    if (scheme_of[ji] == nullptr) return;
    std::vector<VectorShare>& dealt = deal_out_scratch_[worker];
    scheme_of[ji]->deal_from_coeffs(*jobs[ji].words, coeffs_of[ji], dealt);
    std::vector<ShareRec>& recs = out[ji];
    for (std::size_t pos = 0; pos < recs.size(); ++pos)
      recs[pos].ys = std::move(dealt[pos].ys);
  });
  return out;
}

void ShareFlow::send_secret_up(
    ArrayState& a, std::size_t new_offset,
    const std::function<bool(std::size_t)>& holder_forwards) {
  BA_REQUIRE(a.level + 1 <= tree_.num_levels(), "array already at the root");
  BA_REQUIRE(new_offset >= a.word_offset, "cannot grow the secret suffix");
  const TreeNode& c_node = tree_.node(a.level, a.node_idx);
  BA_REQUIRE(c_node.parent != SIZE_MAX, "node has no parent");
  const TreeNode& p_node = tree_.node(a.level + 1, c_node.parent);
  const Sampler& up = tree_.uplinks(a.level);
  const std::size_t d = up.degree();
  const std::size_t t = params_.privacy_threshold(d);
  const std::size_t drop = new_offset - a.word_offset;
  ensure_worker_scratch();

  const CachedScheme& scheme = cache_.prewarm(d, t);
  struct UpItem {
    std::uint32_t rec_idx;
    std::uint32_t base;  ///< index of its first output record in `next`
  };
  std::vector<UpItem> honest;
  std::vector<std::vector<Fp>> coeffs_of;  // parallel to `honest`
  std::vector<ShareRec> next;
  next.reserve(a.recs.size() * d);

  // Serial driver pass: inclusion, chains, draws and charges in record
  // order. Lying holders' garbage is terminal work and lands directly in
  // `next`; honest re-dealings pre-draw coefficients for the parallel
  // pass.
  for (std::size_t ri = 0; ri < a.recs.size(); ++ri) {
    const ShareRec& rec = a.recs[ri];
    const ProcId holder = c_node.members[rec.holder_pos];
    const bool corrupt = net_.is_corrupt(holder);
    if (silent(holder)) continue;
    if (!corrupt && !holder_forwards(rec.holder_pos)) continue;
    BA_REQUIRE(drop <= rec.ys.size(), "offset beyond stored words");
    const std::size_t slice_words = rec.ys.size() - drop;
    const bool lies = lying(holder);
    if (!lies) {
      honest.push_back({static_cast<std::uint32_t>(ri),
                        static_cast<std::uint32_t>(next.size())});
      coeffs_of.emplace_back();
      scheme.draw_coeffs(slice_words, rng_, coeffs_of.back());
    }
    const auto& targets = up.at(rec.holder_pos);
    for (std::size_t i = 0; i < d; ++i) {
      ShareRec nr;
      nr.chain = chain_extend(rec.chain, a.level,
                              static_cast<std::uint16_t>(i + 1));
      nr.holder_pos = targets[i];
      if (lies) fill_garbage(nr.ys, slice_words, rng_);
      next.push_back(std::move(nr));
    }
    for (std::size_t i = 0; i < d; ++i)
      net_.charge_batch(holder, p_node.members[targets[i]],
                        slice_words * kWordBits);
  }

  // Parallel pass: slice + Vandermonde product per honest record,
  // record-indexed writes.
  Pool::for_each(honest.size(), [&](std::size_t hi, std::size_t worker) {
    const UpItem& item = honest[hi];
    const ShareRec& rec = a.recs[item.rec_idx];
    std::vector<Fp>& slice = slice_scratch_[worker];
    slice.assign(rec.ys.begin() + drop, rec.ys.end());
    std::vector<VectorShare>& dealt = deal_out_scratch_[worker];
    scheme.deal_from_coeffs(slice, coeffs_of[hi], dealt);
    for (std::size_t i = 0; i < d; ++i)
      next[item.base + i].ys = std::move(dealt[i].ys);
  });

  a.recs = std::move(next);
  a.level += 1;
  a.node_idx = c_node.parent;
  a.word_offset = new_offset;
}

LeafViews ShareFlow::send_down(const ArrayState& a, std::size_t w0,
                               std::size_t w1) {
  BA_REQUIRE(a.level >= 2, "sendDown starts at level 2 or above");
  BA_REQUIRE(w0 >= a.word_offset && w1 > w0, "bad word range");
  const std::size_t nwords = w1 - w0;
  const std::size_t s0 = w0 - a.word_offset;
  const TreeNode& top = tree_.node(a.level, a.node_idx);
  const std::size_t k1 = tree_.node(1, top.leaf_begin).members.size();
  LeafViews views(top.leaf_begin, top.leaf_end - top.leaf_begin, k1, nwords);
  ensure_worker_scratch();
  arena_.reset();  // one exposure batch == one arena epoch
  // Pin the decoder map for the whole exposure: every reference the
  // pre-warm passes below collect stays valid (the bounded map defers
  // its epoch reset until the pin drops).
  SchemeCache::RobustPin pin(cache_);

  // Decoding a dealing group yields the same value for every sibling
  // receiver, so each node decodes once into an arena-backed batch and
  // the frontier hands every child a (node, batch id) pair — replication
  // is a span copy, never a word copy.
  std::vector<std::vector<DownRec>> batches;
  std::vector<std::pair<std::size_t, std::uint32_t>> frontier;
  {
    std::vector<DownRec> start;
    start.reserve(a.recs.size());
    for (const ShareRec& rec : a.recs) {
      BA_REQUIRE(s0 + nwords <= rec.ys.size(), "range beyond stored words");
      DownRec dr;
      dr.chain = rec.chain;
      dr.holder_pos = rec.holder_pos;
      Fp* buf = arena_.alloc(nwords);
      std::copy(rec.ys.begin() + s0, rec.ys.begin() + s0 + nwords, buf);
      dr.ys = FpSpan{buf, nwords};
      start.push_back(dr);
    }
    batches.push_back(std::move(start));
    frontier.emplace_back(a.node_idx, 0);
  }

  // One recombination group: the shares of one parent chain inside one
  // node, decoded once (ok == 1) or filled with garbage serially.
  struct Group {
    Chain pc = 0;
    std::uint32_t holder_pos = 0;
    std::uint32_t share_begin = 0, share_end = 0;  // into NodeWork::shares
    const RobustDecoder* dec = nullptr;
    Fp* out = nullptr;
    std::uint8_t ok = 0;
  };
  struct NodeWork {
    std::size_t ci = 0;
    std::uint32_t batch = 0;
    std::vector<FpSpan> sent;            // per rec: what the holder sends
    std::vector<std::uint8_t> dropped;   // per rec: silent holder
    std::vector<std::pair<std::uint32_t, Fp*>> lie_bufs;  // rec order
    std::vector<std::uint32_t> shares;   // rec indices, grouped contiguously
    std::vector<Group> groups;           // map-iteration order (see below)
    std::uint32_t decoded_batch = 0;
  };

  std::vector<Fp> xs;  // per-group point scratch for the decoder lookup
  for (std::size_t m = a.level; m >= 2; --m) {
    const std::size_t d_deal = tree_.uplinks(m - 1).degree();
    const std::size_t t = params_.privacy_threshold(d_deal);

    // ---- P0 (serial, draw-free): transmissions, groups, decoders.
    std::vector<NodeWork> nodes(frontier.size());
    for (std::size_t ni = 0; ni < frontier.size(); ++ni) {
      NodeWork& nw = nodes[ni];
      nw.ci = frontier[ni].first;
      nw.batch = frontier[ni].second;
      const std::vector<DownRec>& recs = batches[nw.batch];
      const TreeNode& c_node = tree_.node(m, nw.ci);
      nw.sent.resize(recs.size());
      nw.dropped.assign(recs.size(), 0);
      for (std::size_t ri = 0; ri < recs.size(); ++ri) {
        const ProcId sender = c_node.members[recs[ri].holder_pos];
        if (silent(sender)) {
          nw.dropped[ri] = 1;
        } else if (lying(sender)) {
          Fp* buf = arena_.alloc(nwords);  // filled by the draw pass
          nw.lie_bufs.emplace_back(static_cast<std::uint32_t>(ri), buf);
          nw.sent[ri] = FpSpan{buf, nwords};
        } else {
          nw.sent[ri] = recs[ri].ys;
        }
      }
      // Group by parent chain. The map's iteration order fixes the
      // decoded-record order (and with it all downstream draw order), as
      // it has since the serial pipeline — built identically here, it
      // iterates identically at every worker count.
      std::unordered_map<Chain, std::vector<std::uint32_t>> group_map;
      for (std::size_t ri = 0; ri < recs.size(); ++ri) {
        if (nw.dropped[ri]) continue;
        group_map[chain_parent(recs[ri].chain, m)].push_back(
            static_cast<std::uint32_t>(ri));
      }
      for (auto& [pc, members] : group_map) {
        if (members.size() < t + 1) continue;  // not enough survived
        Group g;
        g.pc = pc;
        g.holder_pos = chain_pos(tree_, pc, m - 1);
        g.share_begin = static_cast<std::uint32_t>(nw.shares.size());
        for (std::uint32_t ri : members) nw.shares.push_back(ri);
        g.share_end = static_cast<std::uint32_t>(nw.shares.size());
        g.out = arena_.alloc(nwords);
        nw.groups.push_back(g);
      }
    }
    // Pre-warm every decoder the level needs (phase 1 of the cache's
    // two-phase protocol); the pin keeps the references stable.
    const std::uint64_t epoch = cache_.robust_epoch();
    for (NodeWork& nw : nodes) {
      const std::vector<DownRec>& recs = batches[nw.batch];
      for (Group& g : nw.groups) {
        xs.clear();
        for (std::uint32_t si = g.share_begin; si < g.share_end; ++si)
          xs.push_back(Fp(chain_elem(recs[nw.shares[si]].chain, m - 1)));
        g.dec = &cache_.prewarm_points(xs, t);
      }
    }
    BA_ENSURE(cache_.robust_epoch() == epoch,
              "decoder map reset mid-level despite the pin");

    // ---- Draw + decode, optimistically across nodes (serial draw order
    // is preserved exactly; see the header comment).
    const auto draw_node_inputs = [&](NodeWork& nw) {
      for (auto& [ri, buf] : nw.lie_bufs) {
        (void)ri;
        fill_garbage_span(buf, nwords);
      }
    };
    const auto decode_groups_parallel = [&](std::size_t node_begin,
                                            std::size_t node_end) {
      std::vector<std::pair<std::uint32_t, std::uint32_t>> todo;
      for (std::size_t ni = node_begin; ni < node_end; ++ni)
        for (std::size_t gi = 0; gi < nodes[ni].groups.size(); ++gi)
          todo.emplace_back(static_cast<std::uint32_t>(ni),
                            static_cast<std::uint32_t>(gi));
      Pool::for_each(todo.size(), [&](std::size_t wi, std::size_t worker) {
        NodeWork& nw = nodes[todo[wi].first];
        Group& g = nw.groups[todo[wi].second];
        std::vector<FpSpan>& spans = span_scratch_[worker];
        spans.clear();
        for (std::uint32_t si = g.share_begin; si < g.share_end; ++si)
          spans.push_back(nw.sent[nw.shares[si]]);
        g.ok = g.dec->reconstruct_into(spans.data(), spans.size(), nwords,
                                       g.out, decode_scratch_[worker])
                   ? 1
                   : 0;
      });
    };
    const auto fill_node_failures = [&](NodeWork& nw) {
      for (Group& g : nw.groups)
        if (!g.ok) fill_garbage_span(g.out, nwords);
    };

    optimistic_units(
        nodes.size(),
        [&](std::size_t ni) { draw_node_inputs(nodes[ni]); },
        decode_groups_parallel,
        [&](std::size_t ni) -> bool {
          for (const Group& g : nodes[ni].groups)
            if (!g.ok) return true;
          return false;
        },
        [&](std::size_t ni) { fill_node_failures(nodes[ni]); });

    // ---- P4 (serial, draw-free): decoded batches, charges, frontier.
    std::vector<std::pair<std::size_t, std::uint32_t>> next;
    for (NodeWork& nw : nodes) {
      std::vector<DownRec> decoded;
      decoded.reserve(nw.groups.size());
      for (const Group& g : nw.groups) {
        DownRec dr;
        dr.chain = g.pc;
        dr.holder_pos = g.holder_pos;
        dr.ys = FpSpan{g.out, nwords};
        decoded.push_back(dr);
      }
      nw.decoded_batch = static_cast<std::uint32_t>(batches.size());
      batches.push_back(std::move(decoded));
      const std::vector<DownRec>& recs = batches[nw.batch];
      const TreeNode& c_node = tree_.node(m, nw.ci);
      // Charge one message per share per child and hand each child the
      // decoded batch.
      for (std::size_t child : c_node.children) {
        const TreeNode& d_node = tree_.node(m - 1, child);
        for (std::size_t ri = 0; ri < recs.size(); ++ri) {
          if (nw.dropped[ri]) continue;
          const ProcId sender = c_node.members[recs[ri].holder_pos];
          const std::uint32_t rpos =
              chain_pos(tree_, chain_parent(recs[ri].chain, m), m - 1);
          net_.charge_batch(sender, d_node.members[rpos],
                            nwords * kWordBits);
        }
        next.emplace_back(child, nw.decoded_batch);
      }
    }
    frontier = std::move(next);
  }

  // ---- Leaf exchange: members of each leaf node swap their
  // reconstructed 1-shares and recover the exposed words. Same
  // optimistic draw/decode split, one recombination per leaf.
  const std::size_t t1 = params_.privacy_threshold(k1);
  struct LeafWork {
    std::size_t leaf_idx = 0;
    std::vector<FpSpan> shares;  // per surviving sender, record order
    std::vector<Fp> xs;          // their evaluation points, same order
    std::vector<Fp*> lie_bufs;   // record order
    const RobustDecoder* dec = nullptr;  // nullptr: not enough survived
    Fp* secret = nullptr;
    std::uint8_t ok = 0;
  };
  std::vector<LeafWork> leaves(frontier.size());
  for (std::size_t li = 0; li < frontier.size(); ++li) {
    LeafWork& lw = leaves[li];
    lw.leaf_idx = frontier[li].first;
    const std::vector<DownRec>& recs = batches[frontier[li].second];
    const TreeNode& leaf = tree_.node(1, lw.leaf_idx);
    for (const DownRec& rec : recs) {
      const ProcId sender = leaf.members[rec.holder_pos];
      if (silent(sender)) continue;
      if (lying(sender)) {
        Fp* buf = arena_.alloc(nwords);  // filled by the draw pass
        lw.lie_bufs.push_back(buf);
        lw.shares.push_back(FpSpan{buf, nwords});
      } else {
        lw.shares.push_back(rec.ys);
      }
      lw.xs.push_back(Fp(chain_elem(rec.chain, 0) + 1));
      for (std::size_t pos = 0; pos < leaf.members.size(); ++pos)
        net_.charge_batch(sender, leaf.members[pos], nwords * kWordBits);
    }
  }
  // Pre-warm pass; the pin keeps every captured reference stable across
  // the batch.
  const std::uint64_t leaf_epoch = cache_.robust_epoch();
  for (LeafWork& lw : leaves) {
    if (lw.shares.size() < t1 + 1) continue;
    lw.dec = &cache_.prewarm_points(lw.xs, t1);
    lw.secret = arena_.alloc(nwords);
  }
  BA_ENSURE(cache_.robust_epoch() == leaf_epoch,
            "decoder map reset mid-exchange despite the pin");

  const auto fill_leaf_failure = [&](const LeafWork& lw) {
    const TreeNode& leaf = tree_.node(1, lw.leaf_idx);
    const std::size_t rel = lw.leaf_idx - top.leaf_begin;
    for (std::size_t pos = 0; pos < leaf.members.size(); ++pos)
      for (std::size_t w = 0; w < nwords; ++w)
        views.set(rel, pos, w, garbage());
  };
  const auto decode_leaves_parallel = [&](std::size_t begin,
                                          std::size_t end) {
    Pool::for_each(end - begin, [&](std::size_t i, std::size_t worker) {
      LeafWork& lw = leaves[begin + i];
      if (lw.dec == nullptr) return;  // finalized by the draw pass
      lw.ok = lw.dec->reconstruct_into(lw.shares.data(), lw.shares.size(),
                                       nwords, lw.secret,
                                       decode_scratch_[worker])
                  ? 1
                  : 0;
      if (lw.ok) {
        const TreeNode& leaf = tree_.node(1, lw.leaf_idx);
        const std::size_t rel = lw.leaf_idx - top.leaf_begin;
        for (std::size_t pos = 0; pos < leaf.members.size(); ++pos)
          for (std::size_t w = 0; w < nwords; ++w)
            views.set(rel, pos, w, lw.secret[w]);
      }
    });
  };
  const auto draw_leaf_inputs = [&](LeafWork& lw) {
    for (Fp* buf : lw.lie_bufs) fill_garbage_span(buf, nwords);
    // A leaf without enough surviving shares fails deterministically:
    // its failure draws belong right here in the serial order, need no
    // decode result, and must not burn the optimistic restart budget.
    // Replays from a rewound rng_ redraw identical values.
    if (lw.dec == nullptr) fill_leaf_failure(lw);
  };

  optimistic_units(
      leaves.size(),
      [&](std::size_t li) { draw_leaf_inputs(leaves[li]); },
      decode_leaves_parallel,
      [&](std::size_t li) {
        return leaves[li].dec != nullptr && leaves[li].ok == 0;
      },
      [&](std::size_t li) { fill_leaf_failure(leaves[li]); });
  return views;
}

MemberViews ShareFlow::send_open(std::size_t level, std::size_t node_idx,
                                 const LeafViews& views) {
  const TreeNode& node = tree_.node(level, node_idx);
  const std::size_t nwords = views.nwords();
  MemberViews out(node.members.size(), nwords);
  // Structural pass (serial, draw-free): the surviving (leaf, member)
  // sender set, each sender's lying flag, and the ledger charges depend
  // only on identities, not on words — computed once per receiver (the
  // seed re-walked every leaf member per word and recounted pluralities
  // with an O(k^2) nested loop).
  OpenPlan& plan = open_plan_scratch_;
  plan.clear();
  for (std::size_t pos = 0; pos < node.members.size(); ++pos) {
    const ProcId receiver = node.members[pos];
    for (std::uint32_t leaf_abs : node.ell[pos]) {
      const TreeNode& leaf = tree_.node(1, leaf_abs);
      const auto rel =
          static_cast<std::uint32_t>(leaf_abs - views.leaf_begin());
      for (std::size_t i = 0; i < leaf.members.size(); ++i) {
        const ProcId sender = leaf.members[i];
        if (silent(sender)) continue;
        plan.senders.push_back({rel, static_cast<std::uint16_t>(i),
                                static_cast<std::uint8_t>(lying(sender))});
        net_.charge_batch(sender, receiver, nwords * kWordBits);
      }
      plan.leaf_ends.push_back(
          static_cast<std::uint32_t>(plan.senders.size()));
    }
    plan.pos_leaf_ends.push_back(
        static_cast<std::uint32_t>(plan.leaf_ends.size()));
  }
  // One salt draw at the call's serial rng_ position seeds every
  // receiver's forked garbage stream; the per-receiver tallies then run
  // draw-free on the pool.
  const std::uint64_t salt = rng_.next();
  open_tally(node, plan, views, salt, out);
  return out;
}

}  // namespace ba
