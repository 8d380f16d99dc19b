#include "check/state_space.hpp"

namespace mcsym::check {

bool VisitedStateStore::visit(std::uint64_t fp) {
  const auto it = map_.find(fp);
  if (it != map_.end()) {
    ++hits_;
    // Refresh: a re-seen state is hot and should outlive cold entries.
    lru_.splice(lru_.begin(), lru_, it->second);
    return true;
  }
  insert(fp);
  return false;
}

void VisitedStateStore::insert(std::uint64_t fp) {
  evict_to_capacity();
  lru_.push_front(fp);
  map_.emplace(fp, lru_.begin());
  ++inserts_;
}

void VisitedStateStore::evict_to_capacity() {
  if (capacity_ == 0) return;
  while (map_.size() >= capacity_) {
    map_.erase(lru_.back());
    lru_.pop_back();
    ++dropped_;
  }
}

void VisitedStateStore::clear() {
  lru_.clear();
  map_.clear();
  hits_ = 0;
  inserts_ = 0;
  dropped_ = 0;
}

StateSpaceStats StatefulSearch::stats() const {
  StateSpaceStats out = stats_;
  out.visited_states = store_.inserts();
  out.state_hits = store_.hits();
  out.states_dropped = store_.dropped();
  return out;
}

}  // namespace mcsym::check
