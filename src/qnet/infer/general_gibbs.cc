#include "qnet/infer/general_gibbs.h"

#include "qnet/support/check.h"

namespace qnet {

GeneralGibbsSampler::GeneralGibbsSampler(EventLog state, const Observation& obs,
                                         const QueueingNetwork& net,
                                         GeneralGibbsOptions options)
    : state_(std::move(state)), net_(net.Clone()), options_(options) {
  obs.Validate(state_);
  std::string why;
  QNET_CHECK(state_.IsFeasible(1e-6, &why), "initial state infeasible: ", why);
  num_arrival_moves_ = CollectLatentMoves(state_, obs, moves_);
}

void GeneralGibbsSampler::SetService(int queue, std::unique_ptr<ServiceDistribution> service) {
  net_.SetService(queue, std::move(service));
}

void GeneralGibbsSampler::Sweep(Rng& rng) {
  const GeneralMoveKernel kernel(net_, options_.slice);
  if (scheduler_ != nullptr) {
    scheduler_->Run(
        [&](const SweepMove& move, Rng& move_rng) { kernel.Apply(state_, move, move_rng); },
        rng.NextU64());
    return;
  }
  const std::span<const SweepMove> moves(moves_);
  RunSweep(state_, moves.first(num_arrival_moves_), kernel, rng);
  if (options_.resample_final_departures) {
    RunSweep(state_, moves.subspan(num_arrival_moves_), kernel, rng);
  }
}

void GeneralGibbsSampler::EnableShardedSweeps(const ShardedSweepOptions& options) {
  scheduler_ = std::make_unique<ShardedSweepScheduler>(state_, ScanMoves(), options);
}

std::vector<SweepMove> GeneralGibbsSampler::SweepMoves() const {
  const std::span<const SweepMove> moves = ScanMoves();
  return {moves.begin(), moves.end()};
}

}  // namespace qnet
