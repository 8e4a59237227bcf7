// The benchmark's independent correctness oracle: answers every selection
// the workloads send from the generated rows alone, with plain graph
// searches and joins. It shares no code with seprec, so a wrong answer from
// the server cannot be mirrored by a wrong expectation.
#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "workload.h"

namespace perfbench {

// Rows the writer has inserted and not (yet) deleted. The writer only ever
// deletes rows it inserted itself, so base EDB + this list is the whole
// live EDB at any generation.
using LiveRows = std::vector<Mutation>;

class Oracle {
 public:
  explicit Oracle(const Edb& edb);

  // The answer tuples of `sel`, rendered as the server renders them
  // ("(p1, i2)"), sorted.
  std::vector<std::string> Answer(const Selection& sel,
                                  const LiveRows& live = {}) const;

  // Persons reachable from `person` over friend/idol (itself included).
  std::vector<uint32_t> Reach(uint32_t person, bool with_idol,
                              const LiveRows& live = {}) const;

 private:
  std::vector<std::string> Buys(uint32_t person, const LiveRows& live,
                                bool wants) const;
  std::vector<std::string> Partial(uint32_t cell) const;
  std::vector<std::string> SameGen(uint32_t node) const;

  static uint64_t PairKey(uint32_t c, uint32_t y) {
    return (uint64_t{c} << 32) | y;
  }

  std::vector<std::vector<uint32_t>> friend_, idol_, perfect_, cheaper_rev_;
  std::unordered_map<uint64_t, std::vector<uint64_t>> a_out_;
  std::unordered_map<uint64_t, std::vector<uint32_t>> t0_of_;
  std::vector<std::vector<uint32_t>> tags_of_cell_;
  std::vector<std::vector<uint32_t>> b_out_;
  std::vector<std::vector<uint32_t>> up_, down_, flat_;
};

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
