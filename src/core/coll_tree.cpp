#include "core/coll_tree.h"

#include "common/error.h"
#include "core/support_internal.h"

namespace smi::core {

// The mask arithmetic is done in unsigned: for relative ranks >= 2^30 the
// probe `mask << 1` reaches 2^31, which overflows (UB) in int but is
// well-defined in unsigned. Ranks themselves stay within int range, so the
// final casts back are value-preserving.

int BinomialParent(int rel) {
  if (rel < 0) throw ConfigError("negative tree rank");
  if (rel == 0) return -1;
  const auto r = static_cast<unsigned>(rel);
  unsigned mask = 1;
  while ((mask << 1) <= r) mask <<= 1;  // highest set bit
  return static_cast<int>(r & ~mask);
}

std::vector<int> BinomialChildren(int rel, int n) {
  if (rel < 0 || rel >= n) throw ConfigError("tree rank out of range");
  std::vector<int> children;
  const auto r = static_cast<unsigned>(rel);
  const auto un = static_cast<unsigned>(n);
  // The first candidate mask is one above rel's highest set bit (1 for the
  // root).
  unsigned mask = 1;
  while (mask <= r) mask <<= 1;
  for (; mask < un; mask <<= 1) {
    const unsigned child = r | mask;
    if (child < un) children.push_back(static_cast<int>(child));
  }
  return children;
}

int BinomialDepth(int n) {
  if (n <= 1) return 0;
  int depth = 0;
  unsigned reach = 1;
  while (reach < static_cast<unsigned>(n)) {
    reach <<= 1;
    ++depth;
  }
  return depth;
}

CollTree::CollTree(const CollConfig& cfg, int my_comm, CollAlgo algo) {
  const int n = static_cast<int>(cfg.comm_global.size());
  const int rel = (my_comm - cfg.root_comm + n) % n;
  switch (algo) {
    case CollAlgo::kLinear:
      if (rel != 0) {
        parent = RelToGlobal(cfg, 0);
        return;
      }
      for (int r = 0; r < n; ++r) {
        if (r != cfg.root_comm) {
          children.push_back(cfg.comm_global[static_cast<std::size_t>(r)]);
        }
      }
      return;
    case CollAlgo::kTree:
      if (rel != 0) parent = RelToGlobal(cfg, BinomialParent(rel));
      for (const int child : BinomialChildren(rel, n)) {
        children.push_back(RelToGlobal(cfg, child));
      }
      return;
    case CollAlgo::kInnet: break;
  }
  throw ConfigError(
      "CollTree: the in-network reduce has no support-kernel tree (its fan "
      "tree follows the routes)");
}

}  // namespace smi::core
