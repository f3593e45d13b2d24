// Dense linear algebra over GF(2): bit vectors and an online Gaussian
// eliminator. This is the arithmetic substrate of random linear network
// coding (paper section 3.3.1) and of the FEC inter-ring handoff (section 3.4).
//
// Inline words. A `gf2_vector` keeps up to 128 bits in two inline words and
// uses the heap only for wider vectors. An RLNC batch is L = ceil(log2 n̂)
// <= 64 messages wide, so the coefficients of coded packets and decoder rows
// need no heap block of their own.
//
// Reduced basis. `gf2_decoder` keeps one row per pivot, and every row is
// zero at every other row's pivot. Reducing an incoming vector c by the
// basis therefore adds row j exactly when c itself has bit pivot_j set
// (adding any other row leaves that bit alone). `insert` relies on this: it
// reduces the coefficients first, and copies and reduces the payload only
// when the row turns out to be innovative.
//
// Fair coins. `random_combination` draws one `rng()` word per basis row, in
// pivot order, and takes the row iff the word's top bit is 0. That is
// exactly `bernoulli(0.5)` (`uniform01() < 0.5`), without the call and the
// conversion to double.
#pragma once

#include <array>
#include <cstdint>
#include <cstddef>
#include <span>
#include <vector>

#include "common/rng.h"

namespace rn::coding {

/// Fixed-length bit vector over GF(2); addition is XOR.
class gf2_vector {
 public:
  gf2_vector() = default;
  explicit gf2_vector(std::size_t bits);

  /// The i-th unit vector of the given length.
  [[nodiscard]] static gf2_vector unit(std::size_t bits, std::size_t i);

  /// Uniformly random vector (each bit independent fair coin).
  [[nodiscard]] static gf2_vector random(std::size_t bits, rn::rng& r);

  /// Makes this the zero vector of `bits` bits, reusing its storage.
  void assign_zero(std::size_t bits);

  [[nodiscard]] std::size_t size() const { return bits_; }
  [[nodiscard]] bool get(std::size_t i) const;
  void set(std::size_t i, bool value);

  /// this += other (XOR); sizes must match.
  void add(const gf2_vector& other);

  /// Inner product over GF(2).
  [[nodiscard]] bool dot(const gf2_vector& other) const;

  [[nodiscard]] bool is_zero() const;

  /// Index of the lowest set bit, or size() if zero.
  [[nodiscard]] std::size_t leading_bit() const;

  /// The storage words, bit i in word i / 64; bits past size() are zero.
  [[nodiscard]] std::span<const std::uint64_t> words() const {
    return {data(), word_count()};
  }

  [[nodiscard]] bool operator==(const gf2_vector& other) const = default;

 private:
  static constexpr std::size_t kInlineWords = 2;

  [[nodiscard]] bool wide() const { return bits_ > kInlineWords * 64; }
  [[nodiscard]] std::size_t word_count() const { return (bits_ + 63) / 64; }
  [[nodiscard]] const std::uint64_t* data() const {
    return wide() ? heap_.data() : inline_.data();
  }
  [[nodiscard]] std::uint64_t* data() {
    return wide() ? heap_.data() : inline_.data();
  }

  std::size_t bits_ = 0;
  // Exactly one holds the words; the other stays zero (or empty), so the
  // defaulted == compares values.
  std::array<std::uint64_t, kInlineWords> inline_{};
  std::vector<std::uint64_t> heap_;
};

/// Online Gaussian elimination: feed coefficient rows (each with an attached
/// payload), query the span rank, and solve once full rank is reached.
///
/// Rows are kept fully reduced, one per pivot, so insertion is
/// O(rank * words) and, at full rank, row i is the unit vector e_i and its
/// payload is message i.
class gf2_decoder {
 public:
  /// `dimension` = number of source messages; `payload_size` = bytes per row.
  gf2_decoder(std::size_t dimension, std::size_t payload_size);

  [[nodiscard]] std::size_t dimension() const { return dimension_; }
  [[nodiscard]] std::size_t rank() const { return pivots_used_; }
  [[nodiscard]] bool complete() const { return pivots_used_ == dimension_; }

  /// Inserts a row; returns true iff it was innovative (increased the rank).
  /// Nothing is copied unless it was.
  bool insert(const gf2_vector& coeffs,
              const std::vector<std::uint8_t>& payload);

  /// True iff `coeffs` lies in the span of the received rows.
  [[nodiscard]] bool in_span(const gf2_vector& coeffs) const;

  /// Infection test (paper Definition 3.8): some received row is
  /// non-orthogonal to mu.
  [[nodiscard]] bool infected_by(const gf2_vector& mu) const;

  /// Reconstructs message i; requires complete().
  [[nodiscard]] std::vector<std::uint8_t> decode(std::size_t i) const;

  /// A fresh random combination of the received rows (RLNC re-encoding),
  /// never the zero vector, written into `coeffs` and `payload` (resized,
  /// storage reused). Requires rank() > 0.
  void random_combination(rn::rng& r, gf2_vector& coeffs,
                          std::vector<std::uint8_t>& payload) const;

  /// The basis row whose pivot is p, if there is one.
  [[nodiscard]] bool has_pivot(std::size_t p) const;
  [[nodiscard]] const gf2_vector& row_coeffs(std::size_t p) const;
  [[nodiscard]] std::span<const std::uint8_t> row_payload(std::size_t p) const;

 private:
  [[nodiscard]] std::span<const std::uint8_t> payload_at(std::size_t p) const;
  [[nodiscard]] std::span<std::uint8_t> payload_at(std::size_t p);

  std::size_t dimension_;
  std::size_t payload_size_;
  std::size_t pivots_used_ = 0;
  gf2_vector pivots_;                   // bit p set iff a row has pivot p
  std::vector<gf2_vector> coeffs_;      // the row with pivot p at index p
  std::vector<std::uint8_t> payloads_;  // its payload at p * payload_size_
};

/// XOR byte strings in place: a ^= b (sizes must match).
void xor_bytes(std::span<std::uint8_t> a, std::span<const std::uint8_t> b);

}  // namespace rn::coding
