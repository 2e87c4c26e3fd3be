#include "src/tds/adapters.hpp"

namespace rubic::tds {

std::size_t HashMapMap::range_scan(stm::Txn& tx, std::int64_t lo,
                                   std::int64_t hi, const ScanFn& fn) const {
  std::size_t visited = 0;
  for (std::int64_t k = lo; k < hi; ++k) {
    const auto v = map_.get(tx, k);
    if (v.has_value()) {
      fn(k, *v);
      ++visited;
    }
  }
  return visited;
}

}  // namespace rubic::tds
