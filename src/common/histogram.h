// Bucketed histogram used by the MTM migration policy (§6.1 of the paper):
// "MTM builds a histogram to get the distribution of EMA of all regions. The
// histogram segments the range of EMA values into buckets, and tracks how
// many and what regions fall into each bucket."
//
// BucketedHistogram<T> keys arbitrary items by a double score into a fixed
// number of equal-width buckets over [min, max]; items can be updated
// incrementally as new scores arrive, and enumerated from the hottest bucket
// downward (promotion) or the coldest upward (demotion). OrderByBucket gives
// the same two enumerations of a whole score vector at once.
#pragma once

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "src/common/logging.h"
#include "src/common/types.h"

namespace mtm {

// The bucket of `value` among num_buckets equal-width buckets over
// [min_value, max_value]; values outside the range clamp to the end buckets.
inline u32 BucketIndex(double value, double min_value, double max_value, u32 num_buckets) {
  if (value <= min_value) {
    return 0;
  }
  if (value >= max_value) {
    return num_buckets - 1;
  }
  double frac = (value - min_value) / (max_value - min_value);
  u32 b = static_cast<u32>(frac * num_buckets);
  return std::min(b, num_buckets - 1);
}

template <typename ItemId>
class BucketedHistogram {
 public:
  BucketedHistogram(double min_value, double max_value, u32 num_buckets)
      : min_(min_value), max_(max_value), buckets_(num_buckets) {
    MTM_CHECK_GT(num_buckets, 0u);
    MTM_CHECK_LT(min_value, max_value);
  }

  u32 num_buckets() const { return static_cast<u32>(buckets_.size()); }

  u32 BucketFor(double value) const { return BucketIndex(value, min_, max_, num_buckets()); }

  // Inserts or moves `item` to the bucket for `value`. O(1) amortized plus
  // O(bucket) for removal from its previous bucket.
  void Update(ItemId item, double value) {
    auto it = position_.find(item);
    u32 target = BucketFor(value);
    if (it != position_.end()) {
      if (it->second == target) {
        return;
      }
      RemoveFromBucket(item, it->second);
      it->second = target;
    } else {
      position_.emplace(item, target);
    }
    buckets_[target].push_back(item);
  }

  void Remove(ItemId item) {
    auto it = position_.find(item);
    if (it == position_.end()) {
      return;
    }
    RemoveFromBucket(item, it->second);
    position_.erase(it);
  }

  bool Contains(ItemId item) const { return position_.count(item) > 0; }

  std::size_t size() const { return position_.size(); }

  const std::vector<ItemId>& bucket(u32 index) const {
    MTM_CHECK_LT(index, num_buckets());
    return buckets_[index];
  }

  // Items ordered from the hottest bucket down. Within a bucket, insertion
  // order is preserved.
  std::vector<ItemId> HottestFirst() const {
    std::vector<ItemId> out;
    out.reserve(position_.size());
    for (u32 b = num_buckets(); b-- > 0;) {
      for (const ItemId& item : buckets_[b]) {
        out.push_back(item);
      }
    }
    return out;
  }

  std::vector<ItemId> ColdestFirst() const {
    std::vector<ItemId> out;
    out.reserve(position_.size());
    for (u32 b = 0; b < num_buckets(); ++b) {
      for (const ItemId& item : buckets_[b]) {
        out.push_back(item);
      }
    }
    return out;
  }

  void Clear() {
    for (auto& bucket : buckets_) {
      bucket.clear();
    }
    position_.clear();
  }

 private:
  void RemoveFromBucket(const ItemId& item, u32 bucket) {
    auto& vec = buckets_[bucket];
    auto pos = std::find(vec.begin(), vec.end(), item);
    MTM_CHECK(pos != vec.end());
    vec.erase(pos);
  }

  double min_;
  double max_;
  std::vector<std::vector<ItemId>> buckets_;
  std::unordered_map<ItemId, u32> position_;
};

// The indices of a score vector, hottest bucket first and coldest bucket
// first, each bucket in index order.
struct BucketOrders {
  std::vector<std::size_t> hottest;
  std::vector<std::size_t> coldest;
};

// The orders BucketedHistogram<std::size_t>(min_value, max_value,
// num_buckets) gives through HottestFirst() and ColdestFirst() after
// Update(i, scores[i]) for i = 0, 1, ..., built by one counting pass over
// the scores instead of one hash-map insert per score.
inline BucketOrders OrderByBucket(const std::vector<double>& scores, double min_value,
                                  double max_value, u32 num_buckets) {
  MTM_CHECK_GT(num_buckets, 0u);
  MTM_CHECK_LT(min_value, max_value);
  std::vector<u32> bucket(scores.size());
  // first[b]: the coldest-first slot where bucket b begins; first[n]: the end.
  std::vector<std::size_t> first(num_buckets + 1, 0);
  for (std::size_t i = 0; i < scores.size(); ++i) {
    bucket[i] = BucketIndex(scores[i], min_value, max_value, num_buckets);
    ++first[bucket[i] + 1];
  }
  for (u32 b = 0; b < num_buckets; ++b) {
    first[b + 1] += first[b];
  }
  BucketOrders out;
  out.coldest.resize(scores.size());
  std::vector<std::size_t> next(first.begin(), first.end() - 1);
  for (std::size_t i = 0; i < scores.size(); ++i) {
    out.coldest[next[bucket[i]]++] = i;
  }
  out.hottest.reserve(scores.size());
  for (u32 b = num_buckets; b-- > 0;) {
    out.hottest.insert(out.hottest.end(), out.coldest.begin() + first[b],
                       out.coldest.begin() + first[b + 1]);
  }
  return out;
}

}  // namespace mtm
