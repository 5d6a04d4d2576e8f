// Set of vCPU indices, analogous to the kernel's cpumask_t. Supports VMs of
// up to 64 vCPUs (the paper's largest VM has 32).
#ifndef SRC_GUEST_CPUMASK_H_
#define SRC_GUEST_CPUMASK_H_

#include <bit>
#include <cstdint>

#include "src/base/check.h"

namespace vsched {

class CpuMask {
 public:
  constexpr CpuMask() = default;
  constexpr explicit CpuMask(uint64_t bits) : bits_(bits) {}

  static constexpr CpuMask None() { return CpuMask(0); }
  static CpuMask FirstN(int n) {
    VSCHED_CHECK(n >= 0 && n <= 64);
    return n == 64 ? CpuMask(~0ULL) : CpuMask((1ULL << n) - 1);
  }
  static CpuMask Single(int cpu) {
    VSCHED_CHECK(cpu >= 0 && cpu < 64);
    return CpuMask(1ULL << cpu);
  }

  bool Test(int cpu) const {
    VSCHED_CHECK(cpu >= 0 && cpu < 64);
    return (bits_ >> cpu) & 1;
  }
  void Set(int cpu) { bits_ |= (1ULL << cpu); }
  void Clear(int cpu) { bits_ &= ~(1ULL << cpu); }
  void Assign(int cpu, bool on) {
    bits_ = (bits_ & ~(1ULL << cpu)) | (static_cast<uint64_t>(on) << cpu);
  }

  bool Empty() const { return bits_ == 0; }
  int Count() const { return std::popcount(bits_); }
  uint64_t bits() const { return bits_; }

  // Index of the lowest set bit, or -1 when empty.
  int First() const { return bits_ == 0 ? -1 : std::countr_zero(bits_); }

  // Index of the lowest set bit >= cpu, or -1.
  int NextFrom(int cpu) const {
    if (cpu >= 64) {
      return -1;
    }
    uint64_t masked = bits_ & (~0ULL << cpu);
    return masked == 0 ? -1 : std::countr_zero(masked);
  }

  friend CpuMask operator&(CpuMask a, CpuMask b) { return CpuMask(a.bits_ & b.bits_); }
  friend CpuMask operator|(CpuMask a, CpuMask b) { return CpuMask(a.bits_ | b.bits_); }
  friend CpuMask operator~(CpuMask a) { return CpuMask(~a.bits_); }
  friend bool operator==(CpuMask a, CpuMask b) { return a.bits_ == b.bits_; }

  // Iteration: for (int cpu : mask) { ... }
  class Iterator {
   public:
    Iterator(uint64_t bits) : bits_(bits) {}
    int operator*() const { return std::countr_zero(bits_); }
    Iterator& operator++() {
      bits_ &= bits_ - 1;
      return *this;
    }
    bool operator!=(const Iterator& other) const { return bits_ != other.bits_; }

   private:
    uint64_t bits_;
  };
  Iterator begin() const { return Iterator(bits_); }
  Iterator end() const { return Iterator(0); }

  // Rotated iteration: for (int cpu : mask.RotatedFrom(start)) visits the set
  // bits at or above `start` in ascending order, then the ones below it. For
  // a mask within FirstN(n) that is the order of the scan
  // `for (k = 0; k < n; ++k) cpu = (start + k) % n` restricted to the mask.
  class RotatedRange {
   public:
    class Iterator {
     public:
      Iterator(uint64_t rotated, int start) : rotated_(rotated), start_(start) {}
      int operator*() const { return (std::countr_zero(rotated_) + start_) & 63; }
      Iterator& operator++() {
        rotated_ &= rotated_ - 1;
        return *this;
      }
      bool operator!=(const Iterator& other) const { return rotated_ != other.rotated_; }

     private:
      uint64_t rotated_;
      int start_;
    };
    RotatedRange(uint64_t bits, int start) : rotated_(std::rotr(bits, start)), start_(start) {}
    Iterator begin() const { return Iterator(rotated_, start_); }
    Iterator end() const { return Iterator(0, start_); }

   private:
    uint64_t rotated_;
    int start_;
  };
  RotatedRange RotatedFrom(int start) const {
    VSCHED_CHECK(start >= 0 && start < 64);
    return RotatedRange(bits_, start);
  }

 private:
  uint64_t bits_ = 0;
};

}  // namespace vsched

#endif  // SRC_GUEST_CPUMASK_H_
