#include "oracle.h"

#include <algorithm>
#include <set>

namespace perfbench {
namespace {

// Grows `adj` to hold index `i`.
void Ensure(std::vector<std::vector<uint32_t>>* adj, uint32_t i) {
  if (adj->size() <= i) adj->resize(i + 1);
}

std::vector<uint32_t> Closure(const std::vector<std::vector<uint32_t>>& adj,
                              std::vector<uint32_t> frontier) {
  std::set<uint32_t> seen(frontier.begin(), frontier.end());
  while (!frontier.empty()) {
    uint32_t v = frontier.back();
    frontier.pop_back();
    if (v >= adj.size()) continue;
    for (uint32_t w : adj[v]) {
      if (seen.insert(w).second) frontier.push_back(w);
    }
  }
  return {seen.begin(), seen.end()};
}

}  // namespace

Oracle::Oracle(const Edb& edb) {
  for (auto [p, q] : edb.friend_) {
    Ensure(&friend_, p);
    friend_[p].push_back(q);
  }
  for (auto [p, q] : edb.idol) {
    Ensure(&idol_, p);
    idol_[p].push_back(q);
  }
  for (auto [p, i] : edb.perfect) {
    Ensure(&perfect_, p);
    perfect_[p].push_back(i);
  }
  // cheaper(Y, W): whoever buys W also buys the cheaper Y.
  for (auto [y, w] : edb.cheaper) {
    Ensure(&cheaper_rev_, w);
    cheaper_rev_[w].push_back(y);
  }
  for (const Edb::A& a : edb.a) {
    a_out_[PairKey(a.c, a.y)].push_back(PairKey(a.c2, a.y2));
    if (tags_of_cell_.size() <= a.c) tags_of_cell_.resize(a.c + 1);
    tags_of_cell_[a.c].push_back(a.y);
  }
  for (const Edb::T0& t : edb.t0) {
    t0_of_[PairKey(t.c, t.y)].push_back(t.z);
    if (tags_of_cell_.size() <= t.c) tags_of_cell_.resize(t.c + 1);
    tags_of_cell_[t.c].push_back(t.y);
  }
  for (auto& tags : tags_of_cell_) {
    std::sort(tags.begin(), tags.end());
    tags.erase(std::unique(tags.begin(), tags.end()), tags.end());
  }
  for (auto [z, z2] : edb.b) {
    Ensure(&b_out_, z);
    b_out_[z].push_back(z2);
  }
  for (auto [c, p] : edb.up) {
    Ensure(&up_, c);
    up_[c].push_back(p);
  }
  for (auto [p, c] : edb.down) {
    Ensure(&down_, p);
    down_[p].push_back(c);
  }
  for (auto [n, m] : edb.flat) {
    Ensure(&flat_, n);
    flat_[n].push_back(m);
  }
}

std::vector<uint32_t> Oracle::Reach(uint32_t person, bool with_idol,
                                    const LiveRows& live) const {
  std::set<uint32_t> seen{person};
  std::vector<uint32_t> frontier{person};
  auto visit = [&](uint32_t w) {
    if (seen.insert(w).second) frontier.push_back(w);
  };
  while (!frontier.empty()) {
    uint32_t v = frontier.back();
    frontier.pop_back();
    if (v < friend_.size()) {
      for (uint32_t w : friend_[v]) visit(w);
    }
    if (with_idol && v < idol_.size()) {
      for (uint32_t w : idol_[v]) visit(w);
    }
    for (const Mutation& m : live) {
      if (m.relation == "friend" && m.from == v) visit(m.to);
    }
  }
  return {seen.begin(), seen.end()};
}

// Example 1.1 (wants = false): items perfect for anyone reachable over
// friend and idol. Example 1.2 (wants = true): reachable over friend only,
// then closed under "cheaper than something bought".
std::vector<std::string> Oracle::Buys(uint32_t person, const LiveRows& live,
                                      bool wants) const {
  std::vector<uint32_t> items;
  std::set<uint32_t> fresh;
  for (uint32_t p : Reach(person, !wants, live)) {
    if (p < perfect_.size()) {
      items.insert(items.end(), perfect_[p].begin(), perfect_[p].end());
    }
    for (const Mutation& m : live) {
      if (m.relation == "perfectFor" && m.from == p) fresh.insert(m.to);
    }
  }
  if (wants) items = Closure(cheaper_rev_, std::move(items));
  std::set<std::string> out;
  const std::string head = "(" + Person(person) + ", ";
  for (uint32_t i : items) out.insert(head + Item(i) + ")");
  for (uint32_t x : fresh) out.insert(head + Fresh(x) + ")");
  return {out.begin(), out.end()};
}

// Example 2.4, t(c, Y, Z): for every tag y paired with c, follow a-edges
// from (c, y), take t0's z of every pair reached, close z under b.
std::vector<std::string> Oracle::Partial(uint32_t cell) const {
  std::set<std::string> out;
  if (cell >= tags_of_cell_.size()) return {};
  for (uint32_t y : tags_of_cell_[cell]) {
    std::set<uint64_t> seen{PairKey(cell, y)};
    std::vector<uint64_t> frontier{PairKey(cell, y)};
    std::vector<uint32_t> zs;
    while (!frontier.empty()) {
      uint64_t pair = frontier.back();
      frontier.pop_back();
      if (auto it = t0_of_.find(pair); it != t0_of_.end()) {
        zs.insert(zs.end(), it->second.begin(), it->second.end());
      }
      if (auto it = a_out_.find(pair); it != a_out_.end()) {
        for (uint64_t next : it->second) {
          if (seen.insert(next).second) frontier.push_back(next);
        }
      }
    }
    const std::string head = "(" + Cell(cell) + ", " + Tag(y) + ", ";
    for (uint32_t z : Closure(b_out_, std::move(zs))) {
      out.insert(head + Zone(z) + ")");
    }
  }
  return {out.begin(), out.end()};
}

// sg(n, Y): Y in down^k(flat(up^k(n))) for some k >= 0.
std::vector<std::string> Oracle::SameGen(uint32_t node) const {
  auto step = [](const std::vector<std::vector<uint32_t>>& adj,
                 const std::set<uint32_t>& from) {
    std::set<uint32_t> to;
    for (uint32_t v : from) {
      if (v < adj.size()) to.insert(adj[v].begin(), adj[v].end());
    }
    return to;
  };
  std::set<uint32_t> answers;
  std::set<uint32_t> level{node};
  // up is a forest, so the ancestor levels run out after its depth.
  for (size_t k = 0; !level.empty(); ++k) {
    std::set<uint32_t> below = step(flat_, level);
    for (size_t j = 0; j < k && !below.empty(); ++j) below = step(down_, below);
    answers.insert(below.begin(), below.end());
    level = step(up_, level);
  }
  std::vector<std::string> out;
  const std::string head = "(" + Node(node) + ", ";
  for (uint32_t m : answers) out.push_back(head + Node(m) + ")");
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> Oracle::Answer(const Selection& sel,
                                        const LiveRows& live) const {
  switch (sel.shape) {
    case Shape::kBuys:
      return Buys(sel.key, live, /*wants=*/false);
    case Shape::kWants:
      return Buys(sel.key, live, /*wants=*/true);
    case Shape::kPartial:
      return Partial(sel.key);
    case Shape::kSameGen:
      return SameGen(sel.key);
  }
  return {};
}

}  // namespace perfbench
