// Conflict graph and greedy coloring over a sweep's Gibbs moves.
//
// Two moves conflict when their footprints (EventLog::ComputeMoveFootprint) share an
// event: one may then read a time the other writes, so they must not run concurrently.
// Moves with disjoint footprints commute — this is the locality the paper's single-site
// conditionals provide (each move touches only the departure being moved, its queue
// predecessors/successors, and the downstream arrival), and it is what makes an
// intra-chain parallel sweep possible.
//
// ColorSweepMoves partitions a move list into conflict-free color classes with a greedy
// first-fit pass in move order. The result is a pure function of the link structure and
// the move order (times are never read), so a coloring computed once per trace stays
// valid for every subsequent sweep, and identical inputs color identically on every
// machine — the determinism the sharded sweep scheduler builds on.

#ifndef QNET_MODEL_CONFLICT_H_
#define QNET_MODEL_CONFLICT_H_

#include <cstdint>
#include <span>
#include <vector>

#include "qnet/model/event.h"

namespace qnet {

struct MoveColoring {
  // color[i] is the color class of moves[i]; classes are conflict-free by construction.
  std::vector<int> color;
  int num_colors = 0;
};

// Reusable buffers for ColorSweepMovesInto. Holding one of these across recolorings (the
// sharded sweep scheduler keeps one per instance) makes a same-shaped recoloring
// allocation-free: the vector is assign()ed, so capacity persists.
struct ColoringScratch {
  // event_colors[e] has bit c set when a move already colored c touches event e.
  std::vector<std::uint64_t> event_colors;
};

// Greedy first-fit coloring of the footprint-conflict graph. Deterministic; O(moves ×
// footprint). Colors are tracked as one 64-bit mask per event, which is enough by a wide
// margin: a footprint has at most 6 events, and an event x lies in at most 9 footprints —
// arrival moves on x, tau(x), nu(x), rho(x), tau(nu(x)), tau(rho(x)) and final-departure
// moves on x, nu(x), rho(x) — so a move has at most 6 × 8 = 48 neighbors and first-fit
// uses at most 49 colors (real traces need ~6–10). A log that would need a 65th color
// fails a QNET_CHECK.
MoveColoring ColorSweepMoves(const EventLog& log, std::span<const SweepMove> moves);

// In-place variant: identical colors, with all working memory drawn from `scratch` and the
// result written into `out` — no allocations once the buffers are warm.
void ColorSweepMovesInto(const EventLog& log, std::span<const SweepMove> moves,
                         ColoringScratch& scratch, MoveColoring& out);

}  // namespace qnet

#endif  // QNET_MODEL_CONFLICT_H_
