#include "qnet/model/conflict.h"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "qnet/support/check.h"

namespace qnet {
namespace {

// Width of the per-event color mask. First-fit never needs more than 49 colors (see
// ColorSweepMovesInto in conflict.h), so reaching this means a corrupt link structure.
constexpr int kMaxMoveColors = 64;

}  // namespace

void ColorSweepMovesInto(const EventLog& log, std::span<const SweepMove> moves,
                         ColoringScratch& scratch, MoveColoring& out) {
  const std::size_t n = moves.size();
  out.color.assign(n, -1);
  out.num_colors = 0;
  if (n == 0) {
    return;
  }

  // First-fit in move order. event_colors[e] holds one bit per color already taken by an
  // earlier move whose footprint contains e; since two moves conflict exactly when their
  // footprints share an event, the OR over move i's footprint is the set of colors its
  // earlier neighbors hold, and its lowest zero bit is the first-fit color.
  scratch.event_colors.assign(log.NumEvents(), 0);
  for (std::size_t i = 0; i < n; ++i) {
    const MoveFootprint footprint = log.ComputeMoveFootprint(moves[i]);
    std::uint64_t taken = 0;
    for (EventId e : footprint.Events()) {
      taken |= scratch.event_colors[static_cast<std::size_t>(e)];
    }
    const int c = std::countr_one(taken);
    QNET_CHECK(c < kMaxMoveColors, "move ", i, " needs more than ", kMaxMoveColors,
               " colors; the footprint degree bound does not hold for this log");
    const std::uint64_t bit = std::uint64_t{1} << c;
    for (EventId e : footprint.Events()) {
      scratch.event_colors[static_cast<std::size_t>(e)] |= bit;
    }
    out.color[i] = c;
    out.num_colors = std::max(out.num_colors, c + 1);
  }
}

MoveColoring ColorSweepMoves(const EventLog& log, std::span<const SweepMove> moves) {
  ColoringScratch scratch;
  MoveColoring out;
  ColorSweepMovesInto(log, moves, scratch, out);
  return out;
}

}  // namespace qnet
