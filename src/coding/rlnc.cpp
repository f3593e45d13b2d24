#include "coding/rlnc.h"

namespace rn::coding {

std::vector<message> make_test_messages(std::size_t k, std::size_t size,
                                        std::uint64_t seed) {
  RN_REQUIRE(size >= 1, "messages must be non-empty");
  std::vector<message> out(k);
  rn::rng r(seed);
  for (std::size_t i = 0; i < k; ++i) {
    out[i].resize(size);
    for (auto& byte : out[i]) byte = static_cast<std::uint8_t>(r() & 0xff);
    // Stamp the index so any cross-wiring of messages fails loudly in tests.
    out[i][0] = static_cast<std::uint8_t>(i & 0xff);
  }
  return out;
}

rlnc_node::rlnc_node(std::size_t batch_size, std::size_t payload_size)
    : decoder_(batch_size, payload_size) {}

void rlnc_node::load_source_message(std::size_t i, const message& m) {
  const bool innovative =
      decoder_.insert(gf2_vector::unit(decoder_.dimension(), i), m);
  RN_REQUIRE(innovative, "source message loaded twice");
}

std::vector<message> rlnc_node::decode_all() const {
  RN_REQUIRE(can_decode(), "decode_all before full rank");
  std::vector<message> out(decoder_.dimension());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = decoder_.decode(i);
  return out;
}

}  // namespace rn::coding
