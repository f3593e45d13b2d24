// Flat per-block first-touch list used by the round walk.
//
// Each shard block keeps the listeners its walk touched this round, in
// first-touch order — that order *is* the reception dispatch order within the
// block (channel-v1). Capacity is fixed when the shard plan is built, to the
// block's node count: a listener is appended at most once per round, so the
// backing array never grows. That makes `push` a single unconditional store
// in every walk kernel.
//
// Each list fills its own cache line: a team member appends to the lists of
// the blocks it owns on every first touch, and adjacent blocks belong to
// different members, so two lists sharing a line would bounce it between
// cores.
#pragma once

#include <cstddef>
#include <vector>

#include "common/types.h"

namespace rn::radio {

class alignas(64) touch_list {
 public:
  /// (Re)allocates the backing array for a block of `capacity` nodes and
  /// empties the list. Called once per block when the shard plan is built.
  void reset(std::size_t capacity) {
    storage_.assign(capacity, 0);
    size_ = 0;
  }

  void push(node_id v) { storage_[size_++] = v; }
  void clear() { size_ = 0; }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] const node_id* begin() const { return storage_.data(); }
  [[nodiscard]] const node_id* end() const { return storage_.data() + size_; }

 private:
  std::vector<node_id> storage_;
  std::size_t size_ = 0;
};

}  // namespace rn::radio
