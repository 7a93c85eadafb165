// Fixed-size array of trivially copyable values with inline storage for up
// to N elements: the pin lists of a netlist cell. Most cells have at most
// four inputs and one output, so their pins live inside the cell record and
// building or copying a netlist allocates nothing per cell for them; wider
// cells (ROM/RAM macros, wide C-element joins) spill to one heap block.
//
// The size is fixed at construction (cells never change their pin count);
// elements stay assignable. There is deliberately no conversion to
// std::vector, which would copy silently: read through std::span<const T>.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <new>
#include <span>
#include <type_traits>

namespace desyn {

template <typename T, uint32_t N>
class SmallVec {
  static_assert(std::is_trivially_copyable_v<T> && N > 0);

 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;

  SmallVec() = default;
  SmallVec(std::initializer_list<T> il) { init(il.begin(), il.size()); }
  explicit SmallVec(std::span<const T> s) { init(s.data(), s.size()); }
  SmallVec(const SmallVec& o) { init(o.data(), o.size_); }
  SmallVec(SmallVec&& o) noexcept { steal(o); }
  SmallVec& operator=(const SmallVec& o) {
    if (this != &o) {
      release();
      init(o.data(), o.size_);
    }
    return *this;
  }
  SmallVec& operator=(SmallVec&& o) noexcept {
    if (this != &o) {
      release();
      steal(o);
    }
    return *this;
  }
  ~SmallVec() { release(); }

  size_t size() const { return size_; }
  /// True when the elements live in a heap block rather than inline.
  bool on_heap() const { return size_ > N; }

  T* data() { return on_heap() ? heap_ : reinterpret_cast<T*>(inline_); }
  const T* data() const {
    return on_heap() ? heap_ : reinterpret_cast<const T*>(inline_);
  }
  T* begin() { return data(); }
  T* end() { return data() + size_; }
  const T* begin() const { return data(); }
  const T* end() const { return data() + size_; }
  T& operator[](size_t i) { return data()[i]; }
  const T& operator[](size_t i) const { return data()[i]; }

  friend bool operator==(const SmallVec& a, const SmallVec& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  void init(const T* src, size_t n) {
    size_ = static_cast<uint32_t>(n);
    if (on_heap()) {
      heap_ = static_cast<T*>(::operator new(n * sizeof(T)));
    }
    if (n) std::memcpy(data(), src, n * sizeof(T));
  }
  void steal(SmallVec& o) {
    size_ = o.size_;
    if (on_heap()) {
      heap_ = o.heap_;
    } else {
      std::memcpy(inline_, o.inline_, sizeof inline_);
    }
    o.size_ = 0;
  }
  void release() {
    if (on_heap()) ::operator delete(heap_);
    size_ = 0;
  }

  uint32_t size_ = 0;
  union {
    T* heap_;
    alignas(T) unsigned char inline_[N * sizeof(T)];
  };
};

}  // namespace desyn
