// Test oracle: first-fit coloring of a sweep's footprint-conflict graph through an
// explicit event -> move incidence. Builds the incidence as CSR (count, then fill in move
// order), then colors moves in order, blocking every color held by a move that shares one
// of the current move's footprint events. This is the neighbor-walking form of the greedy
// coloring; model/conflict.cc's per-event color masks must reproduce its colors exactly.

#ifndef QNET_TESTS_SUPPORT_REFERENCE_COLORING_H_
#define QNET_TESTS_SUPPORT_REFERENCE_COLORING_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "qnet/model/conflict.h"
#include "qnet/model/event.h"

namespace qnet_testing {

inline qnet::MoveColoring ReferenceColorSweepMoves(const qnet::EventLog& log,
                                                   std::span<const qnet::SweepMove> moves) {
  const std::size_t n = moves.size();
  qnet::MoveColoring out;
  out.color.assign(n, -1);
  if (n == 0) {
    return out;
  }

  // Incidence: the moves touching event e are touch_moves[touch_offsets[e] ..
  // touch_offsets[e + 1]), in ascending move order.
  const std::size_t num_events = log.NumEvents();
  std::vector<qnet::MoveFootprint> footprints(n);
  std::vector<std::size_t> touch_offsets(num_events + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    footprints[i] = log.ComputeMoveFootprint(moves[i]);
    for (qnet::EventId e : footprints[i].Events()) {
      ++touch_offsets[static_cast<std::size_t>(e) + 1];
    }
  }
  for (std::size_t e = 0; e < num_events; ++e) {
    touch_offsets[e + 1] += touch_offsets[e];
  }
  std::vector<std::size_t> touch_cursor(touch_offsets.begin(), touch_offsets.end() - 1);
  std::vector<std::size_t> touch_moves(touch_offsets[num_events]);
  for (std::size_t i = 0; i < n; ++i) {
    for (qnet::EventId e : footprints[i].Events()) {
      touch_moves[touch_cursor[static_cast<std::size_t>(e)]++] = i;
    }
  }

  // First-fit in move order: blocked[c] == i + 1 marks color c used by a neighbor of i.
  std::vector<std::size_t> blocked;
  for (std::size_t i = 0; i < n; ++i) {
    for (qnet::EventId e : footprints[i].Events()) {
      const auto ei = static_cast<std::size_t>(e);
      for (std::size_t k = touch_offsets[ei]; k < touch_offsets[ei + 1]; ++k) {
        const int c = out.color[touch_moves[k]];
        if (c < 0) {
          continue;  // not colored yet (its index >= i in move order)
        }
        if (static_cast<std::size_t>(c) >= blocked.size()) {
          blocked.resize(static_cast<std::size_t>(c) + 1, 0);
        }
        blocked[static_cast<std::size_t>(c)] = i + 1;
      }
    }
    int c = 0;
    while (static_cast<std::size_t>(c) < blocked.size() &&
           blocked[static_cast<std::size_t>(c)] == i + 1) {
      ++c;
    }
    out.color[i] = c;
    out.num_colors = std::max(out.num_colors, c + 1);
  }
  return out;
}

}  // namespace qnet_testing

#endif  // QNET_TESTS_SUPPORT_REFERENCE_COLORING_H_
