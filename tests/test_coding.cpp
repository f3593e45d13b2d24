#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "coding/gf2.h"
#include "coding/rlnc.h"
#include "common/check.h"
#include "common/rng.h"

namespace rn::coding {
namespace {

TEST(Gf2Vector, SetGet) {
  gf2_vector v(130);
  v.set(0, true);
  v.set(64, true);
  v.set(129, true);
  EXPECT_TRUE(v.get(0));
  EXPECT_TRUE(v.get(64));
  EXPECT_TRUE(v.get(129));
  EXPECT_FALSE(v.get(1));
  v.set(64, false);
  EXPECT_FALSE(v.get(64));
}

TEST(Gf2Vector, AddIsXor) {
  auto a = gf2_vector::unit(10, 3);
  auto b = gf2_vector::unit(10, 3);
  a.add(b);
  EXPECT_TRUE(a.is_zero());
}

TEST(Gf2Vector, DotProduct) {
  gf2_vector a(8), b(8);
  a.set(1, true);
  a.set(3, true);
  b.set(3, true);
  EXPECT_TRUE(a.dot(b));
  b.set(1, true);
  EXPECT_FALSE(a.dot(b));  // two overlaps -> even parity
}

TEST(Gf2Vector, DotBilinear) {
  rn::rng r(5);
  for (int trial = 0; trial < 50; ++trial) {
    auto a = gf2_vector::random(67, r);
    auto b = gf2_vector::random(67, r);
    auto c = gf2_vector::random(67, r);
    auto bc = b;
    bc.add(c);
    EXPECT_EQ(a.dot(bc), a.dot(b) != a.dot(c));
  }
}

TEST(Gf2Vector, LeadingBit) {
  gf2_vector v(100);
  EXPECT_EQ(v.leading_bit(), 100u);
  v.set(77, true);
  EXPECT_EQ(v.leading_bit(), 77u);
  v.set(5, true);
  EXPECT_EQ(v.leading_bit(), 5u);
}

TEST(Gf2Vector, RandomRespectsLength) {
  rn::rng r(6);
  for (int t = 0; t < 20; ++t) {
    auto v = gf2_vector::random(70, r);
    auto u = gf2_vector::unit(70, 69);
    v.add(u);  // must not throw and must stay consistent
    EXPECT_EQ(v.size(), 70u);
  }
}

TEST(Decoder, DecodesAtFullRank) {
  const std::size_t k = 5, sz = 8;
  const auto msgs = make_test_messages(k, sz, 42);
  gf2_decoder dec(k, sz);
  rn::rng r(1);
  // Feed random combinations until complete.
  gf2_decoder source(k, sz);
  for (std::size_t i = 0; i < k; ++i)
    source.insert(gf2_vector::unit(k, i), msgs[i]);
  gf2_vector coeffs;
  std::vector<std::uint8_t> payload;
  int packets = 0;
  while (!dec.complete() && packets < 200) {
    source.random_combination(r, coeffs, payload);
    dec.insert(coeffs, payload);
    ++packets;
  }
  ASSERT_TRUE(dec.complete());
  for (std::size_t i = 0; i < k; ++i) EXPECT_EQ(dec.decode(i), msgs[i]);
  // Coupon-collector-free: random GF(2) combos need only k + O(1) packets.
  EXPECT_LT(packets, 40);
}

TEST(Decoder, RejectsDependentRows) {
  gf2_decoder dec(3, 1);
  EXPECT_TRUE(dec.insert(gf2_vector::unit(3, 0), {1}));
  EXPECT_FALSE(dec.insert(gf2_vector::unit(3, 0), {1}));
  auto v = gf2_vector::unit(3, 0);
  v.add(gf2_vector::unit(3, 1));
  EXPECT_TRUE(dec.insert(v, {7}));
  EXPECT_EQ(dec.rank(), 2u);
}

TEST(Decoder, InSpan) {
  gf2_decoder dec(4, 1);
  dec.insert(gf2_vector::unit(4, 0), {0});
  dec.insert(gf2_vector::unit(4, 1), {0});
  auto v = gf2_vector::unit(4, 0);
  v.add(gf2_vector::unit(4, 1));
  EXPECT_TRUE(dec.in_span(v));
  EXPECT_FALSE(dec.in_span(gf2_vector::unit(4, 2)));
}

TEST(Decoder, InfectionDefinition) {
  // Definition 3.8: infected by mu iff some received coeff is non-orthogonal.
  gf2_decoder dec(3, 1);
  auto mu = gf2_vector::unit(3, 2);
  EXPECT_FALSE(dec.infected_by(mu));
  dec.insert(gf2_vector::unit(3, 0), {0});
  EXPECT_FALSE(dec.infected_by(mu));
  auto v = gf2_vector::unit(3, 1);
  v.add(gf2_vector::unit(3, 2));
  dec.insert(v, {0});
  EXPECT_TRUE(dec.infected_by(mu));
}

TEST(Decoder, PayloadFollowsCoefficients) {
  // payload(a ^ b) must equal payload(a) ^ payload(b).
  const auto msgs = make_test_messages(2, 4, 9);
  gf2_decoder src(2, 4);
  src.insert(gf2_vector::unit(2, 0), msgs[0]);
  src.insert(gf2_vector::unit(2, 1), msgs[1]);
  rn::rng r(3);
  gf2_vector coeffs;
  std::vector<std::uint8_t> payload;
  for (int t = 0; t < 30; ++t) {
    src.random_combination(r, coeffs, payload);
    std::vector<std::uint8_t> expect(4, 0);
    if (coeffs.get(0)) xor_bytes(expect, msgs[0]);
    if (coeffs.get(1)) xor_bytes(expect, msgs[1]);
    // expect currently holds the xor; compare
    EXPECT_EQ(payload, expect);
  }
}

TEST(Decoder, SizeMismatchThrows) {
  gf2_decoder dec(3, 2);
  EXPECT_THROW(dec.insert(gf2_vector(4), {0, 0}), rn::contract_error);
  EXPECT_THROW(dec.insert(gf2_vector(3), {0}), rn::contract_error);
  EXPECT_THROW(dec.decode(0), rn::contract_error);  // not complete
}

// The decoder as it was before `insert` learned to skip dependent payloads:
// rows sorted by pivot, and each incoming row reduced sequentially,
// coefficients and payload together, before it is inserted. It XORs bytes
// with its own loop, so a fault in xor_bytes cannot hide on both sides.
struct reference_decoder {
  struct row {
    gf2_vector coeffs;
    std::vector<std::uint8_t> payload;
    std::size_t pivot;
  };
  std::size_t dimension;
  std::size_t payload_size;
  std::vector<row> rows;

  static void xor_into(std::vector<std::uint8_t>& a,
                       const std::vector<std::uint8_t>& b) {
    for (std::size_t i = 0; i < a.size(); ++i) a[i] ^= b[i];
  }

  bool insert(gf2_vector c, std::vector<std::uint8_t> p) {
    if (rows.size() == dimension) return false;
    for (const row& r : rows) {
      if (c.get(r.pivot)) {
        c.add(r.coeffs);
        xor_into(p, r.payload);
      }
    }
    if (c.is_zero()) return false;
    const std::size_t pivot = c.leading_bit();
    for (row& r : rows) {
      if (r.coeffs.get(pivot)) {
        r.coeffs.add(c);
        xor_into(r.payload, p);
      }
    }
    const auto pos = std::find_if(rows.begin(), rows.end(),
                                  [&](const row& r) { return r.pivot > pivot; });
    rows.insert(pos, row{std::move(c), std::move(p), pivot});
    return true;
  }

  /// One bernoulli(0.5) per row in pivot order; an empty draw is redrawn.
  void random_combination(rn::rng& r, gf2_vector& c,
                          std::vector<std::uint8_t>& p) const {
    for (;;) {
      c = gf2_vector(dimension);
      p.assign(payload_size, 0);
      bool any = false;
      for (const row& x : rows) {
        if (r.bernoulli(0.5)) {
          c.add(x.coeffs);
          xor_into(p, x.payload);
          any = true;
        }
      }
      if (any && !c.is_zero()) return;
    }
  }
};

/// Same verdict, rank and basis rows (by pivot) in both decoders.
void expect_same_basis(const gf2_decoder& dec, const reference_decoder& ref) {
  ASSERT_EQ(dec.rank(), ref.rows.size());
  std::size_t next = 0;
  for (std::size_t p = 0; p < ref.dimension; ++p) {
    const bool want = next < ref.rows.size() && ref.rows[next].pivot == p;
    ASSERT_EQ(dec.has_pivot(p), want) << "pivot " << p;
    if (!want) continue;
    const auto& row = ref.rows[next++];
    ASSERT_EQ(dec.row_coeffs(p), row.coeffs) << "pivot " << p;
    const auto got = dec.row_payload(p);
    ASSERT_EQ(std::vector<std::uint8_t>(got.begin(), got.end()), row.payload)
        << "pivot " << p;
  }
}

TEST(Decoder, MatchesTheSequentialReference) {
  // Random row streams with dependent rows (sums of earlier rows, repeats,
  // zero), on both sides of the 128-bit inline limit and with payloads that
  // end on and off an 8-byte word. Each row's payload is the XOR of the
  // messages its coefficients pick, so full rank must decode the messages.
  gf2_vector coeffs;
  gf2_vector ref_coeffs;
  std::vector<std::uint8_t> payload;
  std::vector<std::uint8_t> ref_payload;
  for (const std::size_t w : {1, 63, 64, 65, 127, 128, 129, 130}) {
    for (const std::size_t size : {1, 7, 8, 13, 17}) {
      SCOPED_TRACE(::testing::Message() << "width " << w << " payload " << size);
      rn::rng gen(1000 * w + size);
      const auto msgs = make_test_messages(w, size, w * 31 + size);
      const auto payload_of = [&](const gf2_vector& c) {
        std::vector<std::uint8_t> p(size, 0);
        for (std::size_t i = 0; i < w; ++i)
          if (c.get(i)) reference_decoder::xor_into(p, msgs[i]);
        return p;
      };
      gf2_decoder dec(w, size);
      reference_decoder ref{w, size, {}};
      std::vector<gf2_vector> sent;
      int after_full = 0;
      for (std::size_t t = 0; after_full < 8 && t < 8 * w + 64; ++t) {
        gf2_vector c(w);
        switch (t % 5) {
          case 0:
          case 1:
            c = gf2_vector::random(w, gen);
            break;
          case 2:  // sparse: one or two unit vectors
            c.set(gen.uniform(w), true);
            c.add(gf2_vector::unit(w, gen.uniform(w)));
            break;
          default:  // dependent: the sum of two earlier rows, or zero
            if (!sent.empty()) {
              c = sent[gen.uniform(sent.size())];
              c.add(sent[gen.uniform(sent.size())]);
            }
            break;
        }
        sent.push_back(c);
        const auto p = payload_of(c);
        const bool want = ref.insert(c, p);
        ASSERT_EQ(dec.insert(c, p), want) << "row " << t;
        if (t % 5 >= 3) {
          EXPECT_FALSE(want) << "row " << t;
        }
        ASSERT_NO_FATAL_FAILURE(expect_same_basis(dec, ref));
        if (dec.complete()) ++after_full;
        if (dec.rank() == 0) continue;
        // Re-encoding: one fair coin per row from copies of the same stream.
        rn::rng a = gen;
        rn::rng b = gen;
        dec.random_combination(a, coeffs, payload);
        ref.random_combination(b, ref_coeffs, ref_payload);
        ASSERT_EQ(coeffs, ref_coeffs) << "row " << t;
        ASSERT_EQ(payload, ref_payload) << "row " << t;
        ASSERT_EQ(a(), b()) << "coin streams diverged at row " << t;
        ASSERT_EQ(payload, payload_of(coeffs));
        gen();
      }
      ASSERT_TRUE(dec.complete());
      for (std::size_t i = 0; i < w; ++i) {
        EXPECT_EQ(dec.decode(i), msgs[i]) << "message " << i;
        EXPECT_EQ(ref.rows[i].payload, msgs[i]) << "message " << i;
      }
    }
  }
}

class RlncDimsTest : public ::testing::TestWithParam<int> {};

TEST_P(RlncDimsTest, EndToEndRelayChain) {
  // source -> relay -> sink, all over re-encoded packets only.
  const std::size_t k = static_cast<std::size_t>(GetParam());
  const std::size_t sz = 16;
  const auto msgs = make_test_messages(k, sz, 100 + k);
  rlnc_node source(k, sz), relay(k, sz), sink(k, sz);
  for (std::size_t i = 0; i < k; ++i) source.load_source_message(i, msgs[i]);
  rn::rng r(17);
  gf2_vector coeffs;
  std::vector<std::uint8_t> payload;
  int steps = 0;
  while (!sink.can_decode() && steps < 500) {
    source.encode(r, coeffs, payload);
    relay.receive(coeffs, payload);
    if (relay.has_anything()) {
      relay.encode(r, coeffs, payload);
      sink.receive(coeffs, payload);
    }
    ++steps;
  }
  ASSERT_TRUE(sink.can_decode());
  const auto got = sink.decode_all();
  for (std::size_t i = 0; i < k; ++i) EXPECT_EQ(got[i], msgs[i]);
}

INSTANTIATE_TEST_SUITE_P(Dims, RlncDimsTest, ::testing::Values(1, 2, 3, 8, 20, 64));

TEST(Rlnc, SourceDoubleLoadThrows) {
  rlnc_node n(2, 4);
  n.load_source_message(0, {1, 2, 3, 4});
  EXPECT_THROW(n.load_source_message(0, {1, 2, 3, 4}), rn::contract_error);
}

TEST(BatchLayout, SplitsEvenly) {
  batch_layout bl{10, 4};
  EXPECT_EQ(bl.batch_count(), 3u);
  EXPECT_EQ(bl.size_of(0), 4u);
  EXPECT_EQ(bl.size_of(2), 2u);
  EXPECT_EQ(bl.batch_begin(1), 4u);
  EXPECT_EQ(bl.batch_end(2), 10u);
}

TEST(Messages, DistinctAndSized) {
  const auto m = make_test_messages(8, 32, 1);
  EXPECT_EQ(m.size(), 8u);
  for (const auto& x : m) EXPECT_EQ(x.size(), 32u);
  EXPECT_NE(m[0], m[1]);
  EXPECT_EQ(m[3][0], 3);  // index stamp
}

}  // namespace
}  // namespace rn::coding
