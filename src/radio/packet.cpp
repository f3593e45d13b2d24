#include "radio/packet.h"

namespace rn::radio {

packet packet::make_noise() {
  packet p;
  p.kind = packet_kind::noise;
  return p;
}

packet packet::make_beacon(node_id from) {
  packet p;
  p.kind = packet_kind::beacon;
  p.a = from;
  return p;
}

packet packet::make_pair(node_id blue, node_id red) {
  packet p;
  p.kind = packet_kind::pair;
  p.a = blue;
  p.b = red;
  return p;
}

packet packet::make_echo(node_id blue) {
  packet p;
  p.kind = packet_kind::echo;
  p.a = blue;
  return p;
}

packet packet::make_sigma(node_id from) {
  packet p;
  p.kind = packet_kind::sigma;
  p.a = from;
  return p;
}

packet packet::make_grow_intent(node_id red) {
  packet p;
  p.kind = packet_kind::grow_intent;
  p.a = red;
  return p;
}

packet packet::make_ack(node_id child, node_id red) {
  packet p;
  p.kind = packet_kind::ack;
  p.a = child;
  p.b = red;
  return p;
}

packet packet::make_rank(node_id from, rank_t rank) {
  packet p;
  p.kind = packet_kind::rank_announce;
  p.a = from;
  p.x = static_cast<std::uint32_t>(rank);
  return p;
}

packet packet::make_data(node_id origin,
                         std::shared_ptr<const packet_body> body) {
  packet p;
  p.kind = packet_kind::data;
  p.a = origin;
  p.body = std::move(body);
  return p;
}

packet packet::make_coded(std::uint32_t batch,
                          std::shared_ptr<const packet_body> body) {
  packet p;
  p.kind = packet_kind::coded;
  p.x = batch;
  p.body = std::move(body);
  return p;
}

}  // namespace rn::radio
