// Seeded inputs of the service benchmark: the EDB rows, the programs, the
// selection mix of each workload and the writer's mutation script.
//
// Everything here is plain data derived from (workload, seed). The socket
// load generator sends exactly these rows and request lines to the server;
// the in-process layer harness replays the same requests against the
// library; the oracle (oracle.h) answers them from the same rows with its
// own graph searches. Nothing in this file links against seprec.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// splitmix64: tiny, portable, and identical on every platform, so a seed
// names the same inputs everywhere.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  // Uniform in [0, n); n > 0.
  uint64_t Below(uint64_t n) { return Next() % n; }
  // True with probability num/den.
  bool Chance(uint64_t num, uint64_t den) { return Below(den) < num; }

 private:
  uint64_t state_;
};

// The paper's program shapes the benchmark sends.
enum class Shape {
  kBuys,     // Example 1.1: one equivalence class, full selection
  kWants,    // Example 1.2: two equivalence classes, full selection
  kPartial,  // Example 2.4: partial selection (Lemma 2.1 rewrite)
  kSameGen,  // same-generation: not separable, `auto` falls to Magic
};
inline constexpr Shape kAllShapes[] = {Shape::kBuys, Shape::kWants,
                                       Shape::kPartial, Shape::kSameGen};

const char* ShapeName(Shape shape);
// Full Datalog source of the program for `shape` (rules only; the data
// lives in the server's EDB).
const std::string& ProgramText(Shape shape);
// Name of the queried IDB predicate.
const char* QueryPredicate(Shape shape);

// One selection: the shape plus its one bound constant (an entity id of
// the shape's key domain).
struct Selection {
  Shape shape = Shape::kBuys;
  uint32_t key = 0;
};
// "buys(p17, Y)", "t(c4, Y, Z)", ...
std::string QueryText(const Selection& sel);

// Entity naming: every constant is a symbol "<prefix><id>".
std::string Person(uint32_t id);    // p<id>
std::string Item(uint32_t id);      // i<id>
std::string Cell(uint32_t id);      // c<id>  (Example 2.4 origin column)
std::string Tag(uint32_t id);       // y<id>  (Example 2.4 second column)
std::string Zone(uint32_t id);      // z<id>  (Example 2.4 answer column)
std::string Node(uint32_t id);      // n<id>  (same-generation forest)
std::string Fresh(uint32_t id);     // x<id>  (items the writer invents)

// Sizes of the generated instance.
struct Sizes {
  uint32_t people = 20000;   // Example 1.1/1.2 persons
  uint32_t group = 40;       // friend edges stay inside a group
  uint32_t celeb_groups = 10;  // idol edges point into these groups
  uint32_t items = 6000;     // perfectFor / cheaper domain
  uint32_t cells = 12000;    // Example 2.4 origins
  uint32_t zones = 3000;     // Example 2.4 answer domain
  uint32_t nodes = 12000;    // same-generation forest
  bool paper_extras = true;  // cheaper, Example 2.4 and same-generation
};

// The EDB: relation name -> rows of symbol ids, per column typed by the
// relation (see Edb::Render).
struct Edb {
  // Example 1.1 / 1.2
  std::vector<std::pair<uint32_t, uint32_t>> friend_;   // (person, person)
  std::vector<std::pair<uint32_t, uint32_t>> idol;      // (person, person)
  std::vector<std::pair<uint32_t, uint32_t>> perfect;   // (person, item)
  std::vector<std::pair<uint32_t, uint32_t>> cheaper;   // (item, item)
  // Example 2.4: a(c, y, c', y'), b(z, z'), t0(c, y, z)
  struct A {
    uint32_t c, y, c2, y2;
  };
  struct T0 {
    uint32_t c, y, z;
  };
  std::vector<A> a;
  std::vector<std::pair<uint32_t, uint32_t>> b;
  std::vector<T0> t0;
  // same-generation: up(child, parent), down(parent, child), flat(n, n')
  std::vector<std::pair<uint32_t, uint32_t>> up;
  std::vector<std::pair<uint32_t, uint32_t>> down;
  std::vector<std::pair<uint32_t, uint32_t>> flat;

  // Every relation as rendered symbol rows, in load order.
  std::map<std::string, std::vector<std::vector<std::string>>> Render()
      const;
  size_t TotalRows() const;
};

Edb GenerateEdb(const Sizes& sizes, uint64_t seed);

// One mutation of the writer's script: insert or delete one row.
struct Mutation {
  bool insert = true;
  std::string relation;  // "friend" or "perfectFor"
  uint32_t from = 0;     // person id
  uint32_t to = 0;       // person id (friend) or fresh-item id (perfectFor)
};

// A workload: client counts, the selections each query client cycles
// through, the subscriptions, and the writer's mutations.
struct Workload {
  std::string name;
  Sizes sizes;
  int query_clients = 1;
  bool concurrent_writer = false;  // writer runs inside the timed window
  double probe_share = 0;          // else: the share of the measured time
                                   // the write probe gets
  // The writer also adds and removes friend edges (DRed patches phase-1
  // closures); otherwise it only touches perfectFor (a phase-2 relation).
  bool friend_mutations = false;
  // Selections sent during warm-up (fill plan and closure caches).
  std::vector<Selection> warmup;
  // The request stream: client k sends stream[k][0], [1], ... wrapping.
  std::vector<std::vector<Selection>> streams;
  // Subscribed selections (one subscriber connection holds them all).
  std::vector<Selection> subscriptions;
  // The persons the hot-pool streams draw from; the subscriptions (and so
  // the writer's targets) are those of typical reach among them.
  std::vector<uint32_t> hot;
};

// `name` is warm_social, cold_paper or churn_subscribe; false when unknown.
bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out);
const std::vector<std::string>& WorkloadNames();

// The writer's script: insert/delete pairs, so the EDB size stays steady.
// Every mutation changes at least one subscribed answer (the oracle picks
// the targets), so every mutation yields a delta-lag sample.
// `count` mutations are generated (rounded up to an even number).
class Oracle;
std::vector<Mutation> MakeMutations(const Workload& w, const Oracle& oracle,
                                    size_t count, uint64_t seed);

// The wire requests the benchmark sends for a selection and a mutation.
std::string QueryLine(int64_t id, const Selection& sel);
std::string MutationLine(int64_t id, const Mutation& m);

// FNV-1a over a string; tuple multisets hash as the wrapping sum of their
// members' hashes (order-independent, so streamed rows need no sorting).
uint64_t HashString(const std::string& s);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
