// Gibbs sampling with general (non-exponential) service distributions — the direction the
// paper flags in Section 2 ("this viewpoint is just as useful for more general service
// distributions, and we are currently generalizing the sampler to that case").
//
// The move geometry (which service times a move touches, and the feasible window) is
// identical to the M/M/1 case; only the density changes:
//     g(a) = f_qe(s_e(a)) * f_qpi(s_pi(a)) * f_qpi(s_nu(pi)(a)),
// which for arbitrary log-concave-or-not f has no closed-form inverse CDF, so each latent
// coordinate is updated with a slice sampler restricted to (L, U). That per-move logic is
// GeneralMoveKernel (infer/move_kernel.h); this class is the thin sweep driver over it,
// sequential by default or colored/sharded after EnableShardedSweeps — the same driver
// structure as the exponential GibbsSampler, with only the kernel swapped.

#ifndef QNET_INFER_GENERAL_GIBBS_H_
#define QNET_INFER_GENERAL_GIBBS_H_

#include <memory>
#include <vector>

#include "qnet/infer/move_kernel.h"
#include "qnet/infer/sharded_sweep.h"
#include "qnet/infer/slice.h"
#include "qnet/model/event.h"
#include "qnet/model/network.h"
#include "qnet/obs/observation.h"
#include "qnet/support/rng.h"

namespace qnet {

struct GeneralGibbsOptions {
  bool resample_final_departures = true;
  SliceOptions slice;
};

class GeneralGibbsSampler {
 public:
  // Deep-copies the network (service distributions included) so the caller may mutate or
  // drop theirs; `state` must be feasible and consistent with `obs`.
  GeneralGibbsSampler(EventLog state, const Observation& obs, const QueueingNetwork& net,
                      GeneralGibbsOptions options = {});

  const EventLog& State() const { return state_; }
  const QueueingNetwork& Network() const { return net_; }

  // Replaces the service distribution of one queue (general-StEM M-step hook).
  void SetService(int queue, std::unique_ptr<ServiceDistribution> service);

  void Sweep(Rng& rng);

  // Same contract as GibbsSampler::EnableShardedSweeps: bit-identical results for any
  // thread count, one NextU64 consumed per sharded sweep.
  void EnableShardedSweeps(const ShardedSweepOptions& options = {});
  bool ShardedSweepsEnabled() const { return scheduler_ != nullptr; }
  const ShardedSweepScheduler* Scheduler() const { return scheduler_.get(); }

  // The sweep's moves in sequential scan order (see GibbsSampler::SweepMoves).
  std::vector<SweepMove> SweepMoves() const;

  std::size_t NumLatentArrivals() const { return num_arrival_moves_; }

  // Current log joint density of all service times (continuous part of eq. (1)).
  double LogJoint() const { return state_.LogJointTimes(net_); }

 private:
  // The sweep's move list, viewed in place.
  std::span<const SweepMove> ScanMoves() const {
    return std::span<const SweepMove>(moves_).first(
        options_.resample_final_departures ? moves_.size() : num_arrival_moves_);
  }

  EventLog state_;
  QueueingNetwork net_;
  GeneralGibbsOptions options_;
  // Arrival moves, then final-departure moves (CollectLatentMoves' scan order).
  std::vector<SweepMove> moves_;
  std::size_t num_arrival_moves_ = 0;
  std::unique_ptr<ShardedSweepScheduler> scheduler_;
};

}  // namespace qnet

#endif  // QNET_INFER_GENERAL_GIBBS_H_
