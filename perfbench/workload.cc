#include "workload.h"

#include <algorithm>
#include <set>

#include "json_lite.h"
#include "oracle.h"

namespace perfbench {

const char* ShapeName(Shape shape) {
  switch (shape) {
    case Shape::kBuys:
      return "example11";
    case Shape::kWants:
      return "example12";
    case Shape::kPartial:
      return "example24";
    case Shape::kSameGen:
      return "samegen";
  }
  return "?";
}

const std::string& ProgramText(Shape shape) {
  static const std::string kBuys =
      "buys(X, Y) :- friend(X, W) & buys(W, Y).\n"
      "buys(X, Y) :- idol(X, W) & buys(W, Y).\n"
      "buys(X, Y) :- perfectFor(X, Y).\n";
  static const std::string kWants =
      "wants(X, Y) :- friend(X, W) & wants(W, Y).\n"
      "wants(X, Y) :- wants(X, W) & cheaper(Y, W).\n"
      "wants(X, Y) :- perfectFor(X, Y).\n";
  static const std::string kPartial =
      "t(X, Y, Z) :- a(X, Y, U, V) & t(U, V, Z).\n"
      "t(X, Y, Z) :- t(X, Y, W) & b(W, Z).\n"
      "t(X, Y, Z) :- t0(X, Y, Z).\n";
  static const std::string kSameGen =
      "sg(X, Y) :- up(X, U) & sg(U, V) & down(V, Y).\n"
      "sg(X, Y) :- flat(X, Y).\n";
  switch (shape) {
    case Shape::kBuys:
      return kBuys;
    case Shape::kWants:
      return kWants;
    case Shape::kPartial:
      return kPartial;
    case Shape::kSameGen:
      return kSameGen;
  }
  return kBuys;
}

const char* QueryPredicate(Shape shape) {
  switch (shape) {
    case Shape::kBuys:
      return "buys";
    case Shape::kWants:
      return "wants";
    case Shape::kPartial:
      return "t";
    case Shape::kSameGen:
      return "sg";
  }
  return "?";
}

std::string Person(uint32_t id) { return "p" + std::to_string(id); }
std::string Item(uint32_t id) { return "i" + std::to_string(id); }
std::string Cell(uint32_t id) { return "c" + std::to_string(id); }
std::string Tag(uint32_t id) { return "y" + std::to_string(id); }
std::string Zone(uint32_t id) { return "z" + std::to_string(id); }
std::string Node(uint32_t id) { return "n" + std::to_string(id); }
std::string Fresh(uint32_t id) { return "x" + std::to_string(id); }

std::string QueryText(const Selection& sel) {
  switch (sel.shape) {
    case Shape::kBuys:
      return "buys(" + Person(sel.key) + ", Y)";
    case Shape::kWants:
      return "wants(" + Person(sel.key) + ", Y)";
    case Shape::kPartial:
      return "t(" + Cell(sel.key) + ", Y, Z)";
    case Shape::kSameGen:
      return "sg(" + Node(sel.key) + ", Y)";
  }
  return "";
}

namespace {

// Adds (from, to) unless already present; keeps generation duplicate-free
// so every bulk-loaded row is new and the load acks are exact.
void AddEdge(std::set<std::pair<uint32_t, uint32_t>>* seen,
             std::vector<std::pair<uint32_t, uint32_t>>* out, uint32_t from,
             uint32_t to) {
  if (seen->insert({from, to}).second) out->push_back({from, to});
}

// A random earlier member of the block of `block` ids holding `id`, or id
// itself for the block's first member (the root).
uint32_t EarlierInBlock(Rng* rng, uint32_t id, uint32_t block) {
  uint32_t offset = id % block;
  if (offset == 0) return id;
  return id - offset + static_cast<uint32_t>(rng->Below(offset));
}

}  // namespace

Edb GenerateEdb(const Sizes& sizes, uint64_t seed) {
  Rng rng(seed * 0x100000001b3ULL + 17);
  Edb edb;
  const uint32_t celeb_people = sizes.celeb_groups * sizes.group;
  // Example 1.1: friend edges inside a person's group (the group is one
  // strongly connected neighbourhood); a few idol edges into the celebrity
  // groups, which have no idols of their own. A selection's closure is
  // therefore its group plus a couple of celebrity groups, whatever the
  // seed.
  {
    std::set<std::pair<uint32_t, uint32_t>> seen;
    for (uint32_t p = 0; p < sizes.people; ++p) {
      uint32_t base = p - p % sizes.group;
      for (int k = 0; k < 2; ++k) {
        uint32_t q = base + static_cast<uint32_t>(rng.Below(sizes.group));
        if (q != p && q < sizes.people) AddEdge(&seen, &edb.friend_, p, q);
      }
    }
  }
  {
    std::set<std::pair<uint32_t, uint32_t>> seen;
    for (uint32_t p = celeb_people; p < sizes.people; ++p) {
      if (rng.Chance(1, 16)) {
        AddEdge(&seen, &edb.idol, p,
                static_cast<uint32_t>(rng.Below(celeb_people)));
      }
    }
  }
  {
    std::set<std::pair<uint32_t, uint32_t>> seen;
    for (uint32_t p = 0; p < sizes.people; ++p) {
      int n = 1 + static_cast<int>(rng.Below(2));
      for (int k = 0; k < n; ++k) {
        AddEdge(&seen, &edb.perfect, p,
                static_cast<uint32_t>(rng.Below(sizes.items)));
      }
    }
  }
  if (!sizes.paper_extras) return edb;

  // Example 1.2: cheaper(Y, W) forms shallow trees over blocks of items.
  for (uint32_t w = 0; w < sizes.items; ++w) {
    uint32_t y = EarlierInBlock(&rng, w, 30);
    if (y != w) edb.cheaper.push_back({y, w});
  }

  // Example 2.4: each cell carries one or two tags; a-edges walk a pair
  // to an earlier pair of the same block of 25 cells; block roots (and a
  // third of the other pairs) have t0 facts; b walks zones up shallow
  // trees.
  std::vector<std::vector<uint32_t>> tags(sizes.cells);
  for (uint32_t c = 0; c < sizes.cells; ++c) {
    uint32_t first = static_cast<uint32_t>(rng.Below(4));
    tags[c].push_back(first);
    if (rng.Chance(1, 2)) tags[c].push_back((first + 1) % 4);
  }
  for (uint32_t c = 0; c < sizes.cells; ++c) {
    for (uint32_t y : tags[c]) {
      uint32_t c2 = EarlierInBlock(&rng, c, 25);
      bool root = c2 == c;
      if (!root && rng.Chance(3, 4)) {
        const std::vector<uint32_t>& t2 = tags[c2];
        edb.a.push_back({c, y, c2, t2[rng.Below(t2.size())]});
      }
      if (root || rng.Chance(1, 3)) {
        edb.t0.push_back(
            {c, y, static_cast<uint32_t>(rng.Below(sizes.zones))});
      }
    }
  }
  for (uint32_t z = 0; z < sizes.zones; ++z) {
    uint32_t z2 = EarlierInBlock(&rng, z, 20);
    if (z2 != z) edb.b.push_back({z, z2});
  }

  // Same-generation: a forest of random recursive trees of 30 nodes, with
  // flat edges between trees.
  for (uint32_t n = 0; n < sizes.nodes; ++n) {
    uint32_t parent = EarlierInBlock(&rng, n, 30);
    if (parent != n) {
      edb.up.push_back({n, parent});
      edb.down.push_back({parent, n});
    }
  }
  {
    std::set<std::pair<uint32_t, uint32_t>> seen;
    for (uint32_t n = 0; n < sizes.nodes; ++n) {
      if (rng.Chance(1, 4)) {
        AddEdge(&seen, &edb.flat, n,
                static_cast<uint32_t>(rng.Below(sizes.nodes)));
      }
    }
  }
  return edb;
}

std::map<std::string, std::vector<std::vector<std::string>>> Edb::Render()
    const {
  std::map<std::string, std::vector<std::vector<std::string>>> out;
  for (auto [p, q] : friend_) out["friend"].push_back({Person(p), Person(q)});
  for (auto [p, q] : idol) out["idol"].push_back({Person(p), Person(q)});
  for (auto [p, i] : perfect) {
    out["perfectFor"].push_back({Person(p), Item(i)});
  }
  for (auto [y, w] : cheaper) out["cheaper"].push_back({Item(y), Item(w)});
  for (const A& r : a) {
    out["a"].push_back({Cell(r.c), Tag(r.y), Cell(r.c2), Tag(r.y2)});
  }
  for (auto [z, z2] : b) out["b"].push_back({Zone(z), Zone(z2)});
  for (const T0& r : t0) {
    out["t0"].push_back({Cell(r.c), Tag(r.y), Zone(r.z)});
  }
  for (auto [c, p] : up) out["up"].push_back({Node(c), Node(p)});
  for (auto [p, c] : down) out["down"].push_back({Node(p), Node(c)});
  for (auto [n, m] : flat) out["flat"].push_back({Node(n), Node(m)});
  return out;
}

size_t Edb::TotalRows() const {
  return friend_.size() + idol.size() + perfect.size() + cheaper.size() +
         a.size() + b.size() + t0.size() + up.size() + down.size() +
         flat.size();
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {
      "warm_social", "cold_paper", "churn_subscribe"};
  return kNames;
}

namespace {

constexpr size_t kStreamLength = 1 << 16;
// The write probe's share of a query-only workload's measured time. A
// lone writer's latency follows the host's load from second to second
// more than the query clients' pooled samples do, so the probe gets half
// of the time.
constexpr double kProbeShare = 0.5;

// `n` distinct non-celebrity persons (celebrities sit in many closures,
// which would make the hot pool atypical), spread evenly over the reach
// distribution: 16n are drawn and every 16th by reach is kept. A pool's
// mean closure size then varies little from seed to seed, where a plain
// draw of 64 moved it by a fifth, and the query latencies with it.
std::vector<uint32_t> PickPersons(const Sizes& sizes, size_t n,
                                  const Oracle& oracle, Rng* rng) {
  constexpr size_t kStride = 16;
  std::set<uint32_t> picked;
  const uint32_t first = sizes.celeb_groups * sizes.group;
  while (picked.size() < n * kStride) {
    picked.insert(first +
                  static_cast<uint32_t>(rng->Below(sizes.people - first)));
  }
  std::vector<std::pair<size_t, uint32_t>> by_reach;
  for (uint32_t p : picked) {
    by_reach.push_back({oracle.Reach(p, true).size(), p});
  }
  std::sort(by_reach.begin(), by_reach.end());
  std::vector<uint32_t> out;
  for (size_t i = kStride / 2; i < by_reach.size(); i += kStride) {
    out.push_back(by_reach[i].second);
  }
  return out;
}

// The `n` persons of `pool` whose reach over friend/idol lies closest to
// the pool's median reach. Re-running a subscription costs in proportion
// to its person's closure, and one pool spans reaches from 1 to ~200
// persons; subscribing to typical persons keeps the write-side metrics
// from following a single draw from seed to seed.
std::vector<uint32_t> TypicalPersons(const Oracle& oracle,
                                     const std::vector<uint32_t>& pool,
                                     size_t n) {
  std::vector<std::pair<size_t, uint32_t>> by_reach;
  for (uint32_t p : pool) {
    by_reach.push_back({oracle.Reach(p, true).size(), p});
  }
  std::sort(by_reach.begin(), by_reach.end());
  const size_t median = by_reach[by_reach.size() / 2].first;
  for (auto& [reach, p] : by_reach) {
    reach = reach > median ? reach - median : median - reach;
  }
  std::sort(by_reach.begin(), by_reach.end());
  std::vector<uint32_t> out;
  for (size_t i = 0; i < n; ++i) out.push_back(by_reach[i].second);
  return out;
}

// The cold_paper mix, 20 slots long: 8 Example 1.1, 5 Example 1.2, 5
// Example 2.4 and 2 same-generation selections, in a seeded order that
// repeats. Every cached closure costs the service a set of scratch
// relations, and per-request cost grows with their number, so the mix is
// periodic rather than drawn per request: any window of recent requests
// then holds the same shares, and the cache's make-up does not drift
// within or between runs. The constants are still drawn uniformly.
std::vector<Shape> PaperPattern(Rng* rng) {
  std::vector<Shape> pattern;
  pattern.insert(pattern.end(), 8, Shape::kBuys);
  pattern.insert(pattern.end(), 5, Shape::kWants);
  pattern.insert(pattern.end(), 5, Shape::kPartial);
  pattern.insert(pattern.end(), 2, Shape::kSameGen);
  for (size_t i = pattern.size(); i > 1; --i) {
    std::swap(pattern[i - 1], pattern[rng->Below(i)]);
  }
  return pattern;
}

Selection RandomKey(Shape shape, const Sizes& sizes, Rng* rng) {
  switch (shape) {
    case Shape::kBuys:
    case Shape::kWants:
      return {shape, static_cast<uint32_t>(rng->Below(sizes.people))};
    case Shape::kPartial:
      return {shape, static_cast<uint32_t>(rng->Below(sizes.cells))};
    case Shape::kSameGen:
      return {shape, static_cast<uint32_t>(rng->Below(sizes.nodes))};
  }
  return {};
}

}  // namespace

bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out) {
  Workload w;
  w.name = name;
  Rng rng(seed ^ 0x5eed5eed5eedULL);
  constexpr size_t kHotPool = 64;
  // Every mutation re-runs every subscription on the writer's thread, so
  // the subscription count sets the mutation rate. The churn workload
  // holds 4, which leaves over 1000 mutations in a 20 s window beside two
  // readers; the write probe of the query-only workloads holds 1, so it
  // still gathers over 1000 mutations when every re-run costs a cold_paper
  // request.
  const size_t subscriptions = name == "churn_subscribe" ? 4 : 1;
  const bool social = name == "warm_social" || name == "churn_subscribe";
  if (!social && name != "cold_paper") return false;
  w.sizes.paper_extras = !social;
  const Oracle oracle(GenerateEdb(w.sizes, seed));
  w.hot = PickPersons(w.sizes, kHotPool, oracle, &rng);
  if (social) {
    for (uint32_t p : w.hot) w.warmup.push_back({Shape::kBuys, p});
    const bool churn = name == "churn_subscribe";
    w.query_clients = churn ? 2 : 4;
    w.concurrent_writer = churn;
    w.friend_mutations = churn;
    w.probe_share = churn ? 0 : kProbeShare;
    for (int c = 0; c < w.query_clients; ++c) {
      std::vector<Selection> stream;
      for (size_t i = 0; i < kStreamLength; ++i) {
        stream.push_back({Shape::kBuys, w.hot[rng.Below(w.hot.size())]});
      }
      w.streams.push_back(std::move(stream));
    }
  } else {
    w.query_clients = 1;
    w.probe_share = kProbeShare;
    // Warm-up runs the mix until it has stored more closures than the
    // cache holds: the window then starts in the eviction steady state
    // instead of timing the cache filling up.
    const std::vector<Shape> pattern = PaperPattern(&rng);
    for (size_t i = 0, stores = 0; stores < 320; ++i) {
      Shape shape = pattern[i % pattern.size()];
      w.warmup.push_back(RandomKey(shape, w.sizes, &rng));
      if (shape == Shape::kBuys || shape == Shape::kWants) ++stores;
    }
    std::vector<Selection> stream;
    for (size_t i = 0; i < kStreamLength; ++i) {
      stream.push_back(RandomKey(pattern[i % pattern.size()], w.sizes, &rng));
    }
    w.streams.push_back(std::move(stream));
  }
  for (uint32_t p : TypicalPersons(oracle, w.hot, subscriptions)) {
    w.subscriptions.push_back({Shape::kBuys, p});
  }
  *out = std::move(w);
  return true;
}

std::vector<Mutation> MakeMutations(const Workload& w, const Oracle& oracle,
                                    size_t count, uint64_t seed) {
  Rng rng(seed ^ 0x3a7e3a7e3a7eULL);
  const uint32_t first = w.sizes.celeb_groups * w.sizes.group;
  // Per subscribed person, a few new friends outside its reach whose
  // groups add items, so befriending one really changes the answer. DRed
  // patches the new friend's whole reach into the closure, so the few are
  // the ones of typical reach among a larger draw.
  constexpr size_t kCandidates = 8, kDrawn = 32;
  std::vector<std::vector<uint32_t>> friends(w.subscriptions.size());
  for (size_t s = 0; w.friend_mutations && s < w.subscriptions.size(); ++s) {
    const uint32_t target = w.subscriptions[s].key;
    std::vector<uint32_t> reach = oracle.Reach(target, true);
    std::vector<std::string> before = oracle.Answer({Shape::kBuys, target});
    std::set<uint32_t> drawn;
    while (drawn.size() < kDrawn) {
      uint32_t other =
          first + static_cast<uint32_t>(rng.Below(w.sizes.people - first));
      if (std::binary_search(reach.begin(), reach.end(), other)) continue;
      LiveRows live{{true, "friend", target, other}};
      if (oracle.Answer({Shape::kBuys, target}, live) != before) {
        drawn.insert(other);
      }
    }
    friends[s] = TypicalPersons(
        oracle, std::vector<uint32_t>(drawn.begin(), drawn.end()),
        kCandidates);
  }
  std::vector<Mutation> out;
  uint32_t fresh = 0;
  while (out.size() < count) {
    const size_t s = rng.Below(w.subscriptions.size());
    const uint32_t target = w.subscriptions[s].key;
    // Three pairs in four add a brand-new item perfect for a subscribed
    // person (a phase-2 change; phase-1 closures stay as they are). Every
    // fourth adds a friend, which DRed patches into every cached closure
    // (each costs about as much as the rest of the mutation together, so
    // this share keeps a 20 s churn window above 1000 mutations).
    Mutation ins =
        !w.friend_mutations || out.size() / 2 % 4 != 3
            ? Mutation{true, "perfectFor", target, fresh++}
            : Mutation{true, "friend", target,
                       friends[s][rng.Below(friends[s].size())]};
    out.push_back(ins);
    Mutation del = ins;
    del.insert = false;
    out.push_back(del);
  }
  return out;
}

std::string QueryLine(int64_t id, const Selection& sel) {
  return "{\"op\":\"query\",\"id\":" + std::to_string(id) +
         ",\"program\":" + JsonQuote(ProgramText(sel.shape)) +
         ",\"query\":" + JsonQuote(QueryText(sel)) + "}";
}

std::string MutationLine(int64_t id, const Mutation& m) {
  std::string to = m.relation == "friend" ? Person(m.to) : Fresh(m.to);
  return "{\"op\":\"load\",\"id\":" + std::to_string(id) +
         ",\"relation\":\"" + m.relation + "\",\"mode\":\"" +
         (m.insert ? "insert" : "delete") + "\",\"rows\":[[\"" +
         Person(m.from) + "\",\"" + to + "\"]]}";
}

uint64_t HashString(const std::string& s) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char ch : s) {
    h ^= ch;
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace perfbench
