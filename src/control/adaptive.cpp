#include "src/control/adaptive.hpp"

#include <stdexcept>

namespace rubic::control {

std::vector<std::string> default_backend_candidates() {
  // Must match stm::known_backends() order; pinned by
  // tests/test_backend_adapt.cpp (see backend_adapter.hpp for why this is
  // a duplicate and not an include).
  return {"orec_swiss", "norec", "tl2"};
}

AdaptiveController::AdaptiveController(std::unique_ptr<Controller> inner,
                                       std::vector<std::string> candidates,
                                       int initial)
    : inner_(std::move(inner)),
      candidates_(std::move(candidates)),
      initial_(initial),
      desired_(initial) {
  if (inner_ == nullptr) {
    throw std::invalid_argument("adaptive requires an inner controller");
  }
  if (candidates_.empty()) {
    throw std::invalid_argument("adaptive requires at least one backend");
  }
  if (initial_ < 0 || initial_ >= static_cast<int>(candidates_.size())) {
    throw std::invalid_argument("adaptive initial backend out of range");
  }
  name_ = "adaptive:";
  name_ += inner_->name();
}

int AdaptiveController::initial_level() const { return inner_->initial_level(); }

int AdaptiveController::on_sample(double throughput) {
  return inner_->on_sample(throughput);
}

void AdaptiveController::reset() {
  inner_->reset();
  phase_ = Phase::kWarmup;
  desired_ = initial_;
  rounds_in_phase_ = 0;
  probe_index_ = 0;
  probe_seen_ = 0;
  probe_sum_ = 0.0;
  scores_.clear();
  committed_score_ = 0.0;
  degrade_streak_ = 0;
}

std::string_view AdaptiveController::name() const { return name_; }

DecisionInfo AdaptiveController::decision_info() const {
  return inner_->decision_info();
}

void AdaptiveController::start_probe() {
  phase_ = Phase::kProbe;
  probe_index_ = 0;
  desired_ = 0;
  rounds_in_phase_ = 0;
  probe_seen_ = 0;
  probe_sum_ = 0.0;
  scores_.assign(candidates_.size(), 0.0);
}

void AdaptiveController::on_backend_signal(const BackendSignal& signal) {
  // Scoring uses throughput alone: it is the one signal that is comparable
  // across backends regardless of telemetry arming (abort_rate and
  // commit_lat_ns ride along in the audit record for observability and
  // future composite scores).
  switch (phase_) {
    case Phase::kWarmup:
      if (++rounds_in_phase_ >= kWarmupRounds) start_probe();
      break;
    case Phase::kProbe: {
      ++rounds_in_phase_;
      if (rounds_in_phase_ > kProbeSkip) {
        probe_sum_ += signal.throughput;
        ++probe_seen_;
      }
      if (probe_seen_ < kProbeRounds) break;
      scores_[static_cast<std::size_t>(probe_index_)] =
          probe_sum_ / kProbeRounds;
      ++probe_index_;
      if (probe_index_ < static_cast<int>(candidates_.size())) {
        desired_ = probe_index_;
        rounds_in_phase_ = 0;
        probe_seen_ = 0;
        probe_sum_ = 0.0;
        break;
      }
      // All candidates scored: commit to the argmax (first wins ties —
      // deterministic).
      int best = 0;
      for (int i = 1; i < static_cast<int>(scores_.size()); ++i) {
        if (scores_[static_cast<std::size_t>(i)] >
            scores_[static_cast<std::size_t>(best)]) {
          best = i;
        }
      }
      desired_ = best;
      committed_score_ = scores_[static_cast<std::size_t>(best)];
      phase_ = Phase::kHold;
      rounds_in_phase_ = 0;
      degrade_streak_ = 0;
      break;
    }
    case Phase::kHold:
      ++rounds_in_phase_;
      if (committed_score_ > 0.0 &&
          signal.throughput < kRetriggerFraction * committed_score_) {
        ++degrade_streak_;
      } else {
        degrade_streak_ = 0;
      }
      if (rounds_in_phase_ >= kHoldRounds || degrade_streak_ >= kDegradeRounds) {
        start_probe();
      }
      break;
  }
}

int AdaptiveController::desired_backend() const { return desired_; }

const std::vector<std::string>& AdaptiveController::candidates() const {
  return candidates_;
}

}  // namespace rubic::control
