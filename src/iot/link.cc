#include "iot/link.h"

#include <stdexcept>

namespace prc::iot {

Link::Link(double frame_loss_probability, std::size_t max_attempts,
           const FaultConfig& faults, std::size_t node_count, Rng& master)
    : faults_(faults, node_count),
      frame_loss_probability_(frame_loss_probability),
      max_attempts_(max_attempts) {
  if (frame_loss_probability < 0.0 || frame_loss_probability >= 1.0) {
    throw std::invalid_argument("frame loss probability must be in [0, 1)");
  }
  channel_rngs_.reserve(node_count);
  for (std::size_t i = 0; i < node_count; ++i) {
    channel_rngs_.push_back(master.split());
  }
}

}  // namespace prc::iot
