#include "coding/gf2.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <utility>

#include "common/check.h"

namespace rn::coding {

namespace {
constexpr std::size_t kWordBits = 64;

/// Calls f(i) for every bit i set in both `a` and `b`, in increasing order.
template <class F>
void for_each_common_bit(std::span<const std::uint64_t> a,
                         std::span<const std::uint64_t> b, F&& f) {
  for (std::size_t w = 0; w < a.size(); ++w)
    for (std::uint64_t m = a[w] & b[w]; m != 0; m &= m - 1)
      f(w * kWordBits + static_cast<std::size_t>(std::countr_zero(m)));
}

template <class F>
void for_each_set_bit(std::span<const std::uint64_t> a, F&& f) {
  for_each_common_bit(a, a, std::forward<F>(f));
}
}  // namespace

gf2_vector::gf2_vector(std::size_t bits) { assign_zero(bits); }

gf2_vector gf2_vector::unit(std::size_t bits, std::size_t i) {
  RN_REQUIRE(i < bits, "unit vector index out of range");
  gf2_vector v(bits);
  v.set(i, true);
  return v;
}

gf2_vector gf2_vector::random(std::size_t bits, rn::rng& r) {
  gf2_vector v(bits);
  std::uint64_t* w = v.data();
  for (std::size_t i = 0; i < v.word_count(); ++i) w[i] = r();
  // Clear bits beyond the logical size so equality/is_zero stay exact.
  const std::size_t excess = v.word_count() * kWordBits - bits;
  if (excess > 0) w[v.word_count() - 1] &= (~0ULL >> excess);
  return v;
}

void gf2_vector::assign_zero(std::size_t bits) {
  bits_ = bits;
  inline_.fill(0);
  if (wide())
    heap_.assign(word_count(), 0);
  else
    heap_.clear();
}

bool gf2_vector::get(std::size_t i) const {
  RN_REQUIRE(i < bits_, "bit index out of range");
  return (data()[i / kWordBits] >> (i % kWordBits)) & 1ULL;
}

void gf2_vector::set(std::size_t i, bool value) {
  RN_REQUIRE(i < bits_, "bit index out of range");
  const std::uint64_t mask = 1ULL << (i % kWordBits);
  if (value)
    data()[i / kWordBits] |= mask;
  else
    data()[i / kWordBits] &= ~mask;
}

void gf2_vector::add(const gf2_vector& other) {
  RN_REQUIRE(bits_ == other.bits_, "gf2 vector size mismatch");
  std::uint64_t* w = data();
  const std::uint64_t* o = other.data();
  for (std::size_t i = 0; i < word_count(); ++i) w[i] ^= o[i];
}

bool gf2_vector::dot(const gf2_vector& other) const {
  RN_REQUIRE(bits_ == other.bits_, "gf2 vector size mismatch");
  const auto a = words();
  const auto b = other.words();
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < a.size(); ++i) acc ^= a[i] & b[i];
  return (std::popcount(acc) & 1) != 0;
}

bool gf2_vector::is_zero() const {
  const auto w = words();
  return std::all_of(w.begin(), w.end(), [](std::uint64_t x) { return x == 0; });
}

std::size_t gf2_vector::leading_bit() const {
  const auto w = words();
  for (std::size_t i = 0; i < w.size(); ++i) {
    if (w[i] != 0)
      return i * kWordBits + static_cast<std::size_t>(std::countr_zero(w[i]));
  }
  return bits_;
}

gf2_decoder::gf2_decoder(std::size_t dimension, std::size_t payload_size)
    : dimension_(dimension), payload_size_(payload_size), pivots_(dimension) {
  RN_REQUIRE(dimension >= 1, "decoder dimension must be >= 1");
}

bool gf2_decoder::insert(const gf2_vector& coeffs,
                         const std::vector<std::uint8_t>& payload) {
  RN_REQUIRE(coeffs.size() == dimension_, "coefficient width mismatch");
  RN_REQUIRE(payload.size() == payload_size_, "payload size mismatch");
  if (complete()) return false;
  // The rows that apply are those whose pivot bit `coeffs` has (the basis is
  // reduced), so the coefficients are reduced alone first.
  gf2_vector c = coeffs;
  for_each_common_bit(coeffs.words(), pivots_.words(),
                      [&](std::size_t j) { c.add(coeffs_[j]); });
  if (c.is_zero()) return false;
  if (coeffs_.empty()) {
    coeffs_.assign(dimension_, gf2_vector(dimension_));
    payloads_.assign(dimension_ * payload_size_, 0);
  }
  const std::size_t pivot = c.leading_bit();
  const std::span<std::uint8_t> p = payload_at(pivot);
  std::copy(payload.begin(), payload.end(), p.begin());
  for_each_common_bit(coeffs.words(), pivots_.words(),
                      [&](std::size_t j) { xor_bytes(p, payload_at(j)); });
  // Eliminate the new pivot from the other rows to keep the basis reduced.
  for_each_set_bit(pivots_.words(), [&](std::size_t j) {
    if (!coeffs_[j].get(pivot)) return;
    coeffs_[j].add(c);
    xor_bytes(payload_at(j), p);
  });
  coeffs_[pivot] = c;
  pivots_.set(pivot, true);
  pivots_used_ += 1;
  return true;
}

bool gf2_decoder::in_span(const gf2_vector& coeffs) const {
  RN_REQUIRE(coeffs.size() == dimension_, "coefficient width mismatch");
  gf2_vector c = coeffs;
  for_each_common_bit(coeffs.words(), pivots_.words(),
                      [&](std::size_t j) { c.add(coeffs_[j]); });
  return c.is_zero();
}

bool gf2_decoder::infected_by(const gf2_vector& mu) const {
  RN_REQUIRE(mu.size() == dimension_, "coefficient width mismatch");
  bool infected = false;
  for_each_set_bit(pivots_.words(), [&](std::size_t j) {
    infected = infected || coeffs_[j].dot(mu);
  });
  return infected;
}

std::vector<std::uint8_t> gf2_decoder::decode(std::size_t i) const {
  RN_REQUIRE(complete(), "decode requires full rank");
  RN_REQUIRE(i < dimension_, "message index out of range");
  // A fully reduced basis of full rank is the unit vectors: row i is e_i.
  RN_ASSERT(coeffs_[i] == gf2_vector::unit(dimension_, i));
  const auto p = payload_at(i);
  return {p.begin(), p.end()};
}

void gf2_decoder::random_combination(rn::rng& r, gf2_vector& coeffs,
                                     std::vector<std::uint8_t>& payload) const {
  RN_REQUIRE(pivots_used_ > 0, "cannot re-encode from empty subspace");
  // A fair coin per row, in pivot order. The rows are independent, so any
  // nonempty subset is nonzero; the (rare) empty draw is redrawn whole.
  bool any = false;
  while (!any) {
    coeffs.assign_zero(dimension_);
    payload.assign(payload_size_, 0);
    for_each_set_bit(pivots_.words(), [&](std::size_t j) {
      if ((r() >> 63) != 0) return;  // bernoulli(0.5): heads iff top bit 0
      coeffs.add(coeffs_[j]);
      xor_bytes(payload, payload_at(j));
      any = true;
    });
  }
}

bool gf2_decoder::has_pivot(std::size_t p) const {
  return p < dimension_ && pivots_.get(p);
}

const gf2_vector& gf2_decoder::row_coeffs(std::size_t p) const {
  RN_REQUIRE(has_pivot(p), "no basis row with this pivot");
  return coeffs_[p];
}

std::span<const std::uint8_t> gf2_decoder::row_payload(std::size_t p) const {
  RN_REQUIRE(has_pivot(p), "no basis row with this pivot");
  return payload_at(p);
}

std::span<const std::uint8_t> gf2_decoder::payload_at(std::size_t p) const {
  return {payloads_.data() + p * payload_size_, payload_size_};
}

std::span<std::uint8_t> gf2_decoder::payload_at(std::size_t p) {
  return {payloads_.data() + p * payload_size_, payload_size_};
}

void xor_bytes(std::span<std::uint8_t> a, std::span<const std::uint8_t> b) {
  RN_REQUIRE(a.size() == b.size(), "byte string size mismatch");
  // Eight bytes at a time (memcpy: no alignment or aliasing assumption),
  // then the tail byte by byte.
  std::size_t i = 0;
  for (; i + 8 <= a.size(); i += 8) {
    std::uint64_t x = 0;
    std::uint64_t y = 0;
    std::memcpy(&x, a.data() + i, 8);
    std::memcpy(&y, b.data() + i, 8);
    x ^= y;
    std::memcpy(a.data() + i, &x, 8);
  }
  for (; i < a.size(); ++i) a[i] ^= b[i];
}

}  // namespace rn::coding
