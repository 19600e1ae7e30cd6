#ifndef SMI_CORE_COLL_TREE_H
#define SMI_CORE_COLL_TREE_H

/// \file coll_tree.h
/// The tree a Bcast, Reduce or Allreduce support kernel runs over. The
/// paper's §4.4 names tree-based schemes as an alternative shape of the same
/// support kernels ("they can also be exploited to offer different
/// implementations of collectives, such as tree-based schema for Bcast and
/// Reduce"), so the shape is a parameter of one kernel per collective:
///
///  * kLinear — a flat tree: the root parents every other rank, in
///    communicator order (the reference implementation's linear scheme);
///  * kTree — a binomial tree in root-relative communicator rank space:
///    node 0 is the root; node r's parent clears r's highest set bit; node
///    r's children are r | 2^j for the j above r's highest set bit. Fan-out
///    at the root is ceil(log2 n) instead of n-1, which is what beats the
///    linear scheme at scale.

#include <vector>

#include "core/coll_token.h"

namespace smi::core {

/// One rank's view of the tree of a channel open: its parent and children
/// as global ranks. Children are listed in the order the kernels serve them.
struct CollTree {
  /// `my_comm` is this rank's communicator rank in `cfg`. Throws ConfigError
  /// for an algo without a tree (kInnet routes its own).
  CollTree(const CollConfig& cfg, int my_comm, CollAlgo algo);

  int parent = -1;            ///< global rank; -1 at the root
  std::vector<int> children;  ///< global ranks

  bool is_root() const { return parent < 0; }
  bool is_leaf() const { return children.empty(); }
};

/// Parent of `rel` (root-relative rank) in the binomial tree; -1 for the
/// root itself.
int BinomialParent(int rel);

/// Children of `rel` in a binomial tree over `n` nodes, ascending.
std::vector<int> BinomialChildren(int rel, int n);

/// Depth of the binomial tree over `n` nodes (= ceil(log2 n)).
int BinomialDepth(int n);

}  // namespace smi::core

#endif  // SMI_CORE_COLL_TREE_H
