/// \file small_vec.hpp
/// Fixed-inline-capacity vector for hot-path scratch data.
///
/// The classifier's lookup path produces short per-dimension label lists
/// (almost always 1-3 entries); materializing them as std::vector cost
/// several heap allocations per packet. SmallVec keeps up to N elements
/// inline on the stack and only touches the heap in the (rare) overflow
/// case, so steady-state classification allocates nothing.
///
/// Deliberately minimal: trivially-copyable element types only, no
/// erase/insert — exactly what scratch label lists need.
#pragma once

#include <algorithm>
#include <memory>
#include <type_traits>

#include "common/types.hpp"

namespace pclass {

template <typename T, usize N>
class SmallVec {
  static_assert(std::is_trivially_copyable_v<T>,
                "SmallVec is for trivially-copyable scratch data");
  static_assert(N > 0);

 public:
  SmallVec() = default;
  SmallVec(const SmallVec&) = delete;
  SmallVec& operator=(const SmallVec&) = delete;

  void push_back(const T& v) {
    if (size_ == capacity_) grow();
    data_[size_++] = v;
  }

  void clear() { size_ = 0; }

  [[nodiscard]] usize size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  /// True when the contents spilled past the inline capacity.
  [[nodiscard]] bool on_heap() const { return data_ != inline_; }

  [[nodiscard]] T& operator[](usize i) { return data_[i]; }
  [[nodiscard]] const T& operator[](usize i) const { return data_[i]; }
  [[nodiscard]] T& front() { return data_[0]; }
  [[nodiscard]] const T& front() const { return data_[0]; }

  [[nodiscard]] T* begin() { return data_; }
  [[nodiscard]] T* end() { return data_ + size_; }
  [[nodiscard]] const T* begin() const { return data_; }
  [[nodiscard]] const T* end() const { return data_ + size_; }

 private:
  void grow() {
    const usize new_cap = capacity_ * 2;
    auto bigger = std::make_unique<T[]>(new_cap);
    std::copy(data_, data_ + size_, bigger.get());
    heap_ = std::move(bigger);
    data_ = heap_.get();
    capacity_ = new_cap;
  }

  T inline_[N];
  T* data_ = inline_;
  usize size_ = 0;
  usize capacity_ = N;
  std::unique_ptr<T[]> heap_;
};

/// The lookup path's scratch label list. 8 inline slots cover the label
/// lists real filter sets produce (leaf-pushed trie lists rarely exceed
/// a handful of labels); longer lists spill to the heap, correctly.
using LabelVec = SmallVec<Label, 8>;

/// The priority bounds paired with a LabelVec, one per label.
using BoundVec = SmallVec<PriorityBound, 8>;

}  // namespace pclass
