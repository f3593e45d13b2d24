// Random linear network coding over batches ("generations") of messages, plus
// the rateless fountain used as forward error correction between rings
// (paper sections 3.3.1 and 3.4).
#pragma once

#include <cstdint>
#include <vector>

#include "coding/gf2.h"
#include "common/check.h"
#include "common/rng.h"

namespace rn::coding {

/// A broadcast message: fixed-size byte payload.
using message = std::vector<std::uint8_t>;

/// Deterministic test fixture: k distinct messages of `size` bytes.
[[nodiscard]] std::vector<message> make_test_messages(std::size_t k,
                                                      std::size_t size,
                                                      std::uint64_t seed);

/// Node-local RLNC state for one batch: stores the received subspace, emits
/// fresh random combinations, decodes at full rank.
///
/// The source seeds its buffer with the plain messages (unit coefficient
/// vectors); every other node starts empty and accumulates innovative packets.
class rlnc_node {
 public:
  rlnc_node(std::size_t batch_size, std::size_t payload_size);

  /// Source-side: load message i of the batch in plain form.
  void load_source_message(std::size_t i, const message& m);

  /// Receive a coded packet; returns true iff innovative.
  bool receive(const gf2_vector& coeffs,
               const std::vector<std::uint8_t>& body) {
    return decoder_.insert(coeffs, body);
  }

  [[nodiscard]] bool has_anything() const { return decoder_.rank() > 0; }
  [[nodiscard]] bool can_decode() const { return decoder_.complete(); }
  [[nodiscard]] std::size_t rank() const { return decoder_.rank(); }

  /// Fresh random re-encoding of everything held, written into `coeffs` and
  /// `payload` with their storage reused (requires has_anything()).
  void encode(rn::rng& r, gf2_vector& coeffs,
              std::vector<std::uint8_t>& payload) const {
    decoder_.random_combination(r, coeffs, payload);
  }

  /// All decoded messages (requires can_decode()).
  [[nodiscard]] std::vector<message> decode_all() const;

  [[nodiscard]] const gf2_decoder& decoder() const { return decoder_; }

 private:
  gf2_decoder decoder_;
};

/// Splits k messages into batches of at most `batch_size` (the generations of
/// section 3.4; keeps coefficient headers at O(log n) bits).
struct batch_layout {
  std::size_t message_count = 0;
  std::size_t batch_size = 0;

  [[nodiscard]] std::size_t batch_count() const {
    return (message_count + batch_size - 1) / batch_size;
  }
  [[nodiscard]] std::size_t batch_begin(std::size_t b) const {
    return b * batch_size;
  }
  [[nodiscard]] std::size_t batch_end(std::size_t b) const {
    const std::size_t e = (b + 1) * batch_size;
    return e < message_count ? e : message_count;
  }
  [[nodiscard]] std::size_t size_of(std::size_t b) const {
    return batch_end(b) - batch_begin(b);
  }
};

}  // namespace rn::coding
