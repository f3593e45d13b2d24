// Radio packet model.
//
// The paper's model allows B = Omega(log n) bits per packet: a constant number
// of node ids plus O(log n) extra bits. Every packet kind we use fits that
// budget: at most two ids, one small integer field, and (for coded packets) a
// coefficient vector over a batch of Theta(log n) messages plus the payload
// body (message bodies are the Theta(B)-bit message content itself).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "coding/gf2.h"
#include "common/types.h"

namespace rn::radio {

/// Discriminates the wire format of a packet.
enum class packet_kind : std::uint8_t {
  empty,          ///< deliberately content-free transmission (occupies channel)
  noise,          ///< MMV framework: transmission by a node without the message
  beacon,         ///< a: sender id
  pair,           ///< a: blue id, b: red id (recruiting decay answers)
  echo,           ///< a: echoed blue id (recruiting round 3)
  sigma,          ///< recruiting "recruited >= 2" broadcast; a: sender id
  grow_intent,    ///< [DEV-2] class-1 red announcing it wants to grow; a: red id
  ack,            ///< [DEV-2] lone child acknowledging grow_intent; a: child, b: red
  rank_announce,  ///< a: sender id, x: rank (stage III / virtual distance)
  data,           ///< single-message broadcast payload; a: origin, body: message
  coded,          ///< RLNC packet; x: batch id, body: coeffs+payload
};

/// Payload of `coded` / `data` packets, shared to keep broadcast delivery O(1)
/// per receiver.
struct packet_body {
  coding::gf2_vector coeffs;       ///< RLNC coefficients (empty for plain data)
  std::vector<std::uint8_t> data;  ///< message bytes (or XOR-combination)
};

/// One radio transmission. Value type; `body` shared and immutable.
struct packet {
  packet_kind kind = packet_kind::empty;
  node_id a = no_node;
  node_id b = no_node;
  std::uint32_t x = 0;
  std::shared_ptr<const packet_body> body;

  [[nodiscard]] static packet make_empty() { return {}; }
  [[nodiscard]] static packet make_noise();
  [[nodiscard]] static packet make_beacon(node_id from);
  [[nodiscard]] static packet make_pair(node_id blue, node_id red);
  [[nodiscard]] static packet make_echo(node_id blue);
  [[nodiscard]] static packet make_sigma(node_id from);
  [[nodiscard]] static packet make_grow_intent(node_id red);
  [[nodiscard]] static packet make_ack(node_id child, node_id red);
  [[nodiscard]] static packet make_rank(node_id from, rank_t rank);
  [[nodiscard]] static packet make_data(node_id origin,
                                        std::shared_ptr<const packet_body> body);
  [[nodiscard]] static packet make_coded(std::uint32_t batch,
                                         std::shared_ptr<const packet_body> body);
};

}  // namespace rn::radio
