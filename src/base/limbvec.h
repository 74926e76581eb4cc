#ifndef TOPODB_BASE_LIMBVEC_H_
#define TOPODB_BASE_LIMBVEC_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>

namespace topodb {

// Small-buffer vector of base-2^32 limbs backing BigInt.
//
// The geometry pipeline overwhelmingly produces values of one or two limbs
// (coordinates, cross products of ~32-bit inputs), for which a
// std::vector's mandatory heap block is pure overhead: a malloc/free per
// 4-byte limb buffer would dominate small-integer arrangement construction.
// LimbVec stores up to kInlineCapacity limbs (256 bits — enough for
// products of two 128-bit values) directly in the object and spills to a
// heap block it owns beyond that. Copies and moves behave like
// std::vector's, so a value may outlive the scope that computed it.
//
// The representation is discriminated by capacity_: heap storage always has
// capacity strictly greater than kInlineCapacity, so
// capacity_ == kInlineCapacity identifies the inline state.
class LimbVec {
 public:
  static constexpr uint32_t kInlineCapacity = 8;

  LimbVec() = default;
  ~LimbVec() { FreeHeap(); }

  LimbVec(const LimbVec& other) { CopyFrom(other); }
  LimbVec(LimbVec&& other) noexcept { MoveFrom(&other); }

  LimbVec& operator=(const LimbVec& other) {
    if (this != &other) {
      FreeHeap();
      capacity_ = kInlineCapacity;
      CopyFrom(other);
    }
    return *this;
  }
  LimbVec& operator=(LimbVec&& other) noexcept {
    if (this != &other) {
      FreeHeap();
      capacity_ = kInlineCapacity;
      MoveFrom(&other);
    }
    return *this;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t capacity() const { return capacity_; }
  bool is_inline() const { return capacity_ == kInlineCapacity; }

  uint32_t* data() { return is_inline() ? u_.inline_limbs : u_.heap; }
  const uint32_t* data() const {
    return is_inline() ? u_.inline_limbs : u_.heap;
  }

  uint32_t& operator[](size_t i) { return data()[i]; }
  uint32_t operator[](size_t i) const { return data()[i]; }
  uint32_t& back() { return data()[size_ - 1]; }
  uint32_t back() const { return data()[size_ - 1]; }

  uint32_t* begin() { return data(); }
  uint32_t* end() { return data() + size_; }
  const uint32_t* begin() const { return data(); }
  const uint32_t* end() const { return data() + size_; }

  void clear() { size_ = 0; }
  void pop_back() { --size_; }

  void push_back(uint32_t v) {
    if (size_ == capacity_) Grow(size_t{size_} + 1);
    data()[size_++] = v;
  }

  void reserve(size_t n) {
    if (n > capacity_) Grow(n);
  }

  // Sets the contents to n copies of fill. Previous contents are discarded
  // (no copy is performed on reallocation).
  void assign(size_t n, uint32_t fill) {
    if (n > capacity_) GrowDiscard(n);
    uint32_t* d = data();
    for (size_t i = 0; i < n; ++i) d[i] = fill;
    size_ = static_cast<uint32_t>(n);
  }

  void resize(size_t n, uint32_t fill = 0) {
    if (n > capacity_) Grow(n);
    uint32_t* d = data();
    for (size_t i = size_; i < n; ++i) d[i] = fill;
    size_ = static_cast<uint32_t>(n);
  }

 private:
  static uint32_t* AllocateBlock(size_t n) {
    return static_cast<uint32_t*>(::operator new(n * sizeof(uint32_t)));
  }

  void FreeHeap() {
    if (!is_inline()) ::operator delete(u_.heap);
  }

  // Requires *this to be in the freshly-reset inline state.
  void CopyFrom(const LimbVec& other) {
    size_ = other.size_;
    if (other.size_ <= kInlineCapacity) {
      // Copies shrink back inline even when the source spilled to heap.
      std::memcpy(u_.inline_limbs, other.data(), other.size_ * sizeof(uint32_t));
    } else {
      u_.heap = AllocateBlock(other.size_);
      std::memcpy(u_.heap, other.data(), other.size_ * sizeof(uint32_t));
      capacity_ = other.size_;
    }
  }

  // Requires *this to be in the freshly-reset inline state.
  void MoveFrom(LimbVec* other) {
    size_ = other->size_;
    capacity_ = other->capacity_;
    if (other->is_inline()) {
      std::memcpy(u_.inline_limbs, other->u_.inline_limbs,
                  other->size_ * sizeof(uint32_t));
    } else {
      u_.heap = other->u_.heap;
    }
    other->size_ = 0;
    other->capacity_ = kInlineCapacity;
  }

  void Grow(size_t need) { GrowImpl(need, /*preserve=*/true); }
  void GrowDiscard(size_t need) { GrowImpl(need, /*preserve=*/false); }

  void GrowImpl(size_t need, bool preserve) {
    size_t new_cap = size_t{capacity_} * 2;
    if (new_cap < need) new_cap = need;
    uint32_t* block = AllocateBlock(new_cap);
    if (preserve && size_ > 0) {
      std::memcpy(block, data(), size_ * sizeof(uint32_t));
    }
    FreeHeap();
    u_.heap = block;
    capacity_ = static_cast<uint32_t>(new_cap);
  }

  uint32_t size_ = 0;
  uint32_t capacity_ = kInlineCapacity;
  union U {
    U() {}  // Leaves storage uninitialized; discriminated by capacity_.
    uint32_t inline_limbs[kInlineCapacity];
    uint32_t* heap;
  } u_;
};

}  // namespace topodb

#endif  // TOPODB_BASE_LIMBVEC_H_
