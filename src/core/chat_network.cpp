#include "core/chat_network.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "par/seed.hpp"
#include "proto/async2.hpp"
#include "proto/asyncn.hpp"
#include "proto/ksegment.hpp"
#include "proto/sync2.hpp"
#include "proto/sync_sliced.hpp"
#include "sim/rng.hpp"

namespace stig::core {
namespace {

proto::NamingMode naming_for(const Capabilities& caps) {
  if (caps.visible_ids && caps.sense_of_direction) {
    return proto::NamingMode::by_ids;
  }
  if (caps.sense_of_direction) return proto::NamingMode::lexicographic;
  return proto::NamingMode::relative;
}

ProtocolKind resolve_protocol(const ChatNetworkOptions& opt, std::size_t n) {
  if (opt.protocol != ProtocolKind::automatic) return opt.protocol;
  if (opt.synchrony == Synchrony::synchronous) {
    return n == 2 ? ProtocolKind::sync2 : ProtocolKind::sliced;
  }
  return n == 2 ? ProtocolKind::async2 : ProtocolKind::asyncn;
}

std::unique_ptr<sim::Scheduler> make_base_scheduler(
    const ChatNetworkOptions& opt) {
  if (opt.replay_schedule != nullptr) {
    return std::make_unique<sim::ReplayScheduler>(opt.replay_schedule);
  }
  if (opt.synchrony == Synchrony::synchronous) {
    return std::make_unique<sim::SynchronousScheduler>();
  }
  switch (opt.scheduler) {
    case SchedulerKind::bernoulli:
      return std::make_unique<sim::BernoulliScheduler>(
          opt.activation_probability, opt.seed ^ 0xabcdef, opt.fairness_bound);
    case SchedulerKind::centralized:
      return std::make_unique<sim::CentralizedScheduler>();
    case SchedulerKind::ksubset:
      return std::make_unique<sim::KSubsetScheduler>(
          opt.subset_size, opt.seed ^ 0xabcdef, opt.fairness_bound);
    case SchedulerKind::adversarial:
      return std::make_unique<sim::AdversarialScheduler>(opt.fairness_bound);
  }
  throw std::logic_error("unknown scheduler kind");
}

std::unique_ptr<sim::Scheduler> make_scheduler(
    const ChatNetworkOptions& opt) {
  std::unique_ptr<sim::Scheduler> base = make_base_scheduler(opt);
  if (opt.record_schedule != nullptr) {
    return std::make_unique<sim::RecordingScheduler>(std::move(base),
                                                     opt.record_schedule);
  }
  return base;
}

}  // namespace

const char* protocol_kind_name(ProtocolKind kind) {
  switch (kind) {
    case ProtocolKind::automatic: return "auto";
    case ProtocolKind::sync2: return "sync2";
    case ProtocolKind::sliced: return "sliced";
    case ProtocolKind::ksegment: return "ksegment";
    case ProtocolKind::async2: return "async2";
    case ProtocolKind::asyncn: return "asyncn";
  }
  return "unknown";
}

bool has_granular_containment(ProtocolKind kind) {
  return kind == ProtocolKind::sliced || kind == ProtocolKind::ksegment ||
         kind == ProtocolKind::asyncn;
}

const char* scheduler_kind_name(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::bernoulli: return "bernoulli";
    case SchedulerKind::centralized: return "centralized";
    case SchedulerKind::ksubset: return "ksubset";
    case SchedulerKind::adversarial: return "adversarial";
  }
  return "unknown";
}

std::optional<ProtocolKind> protocol_from_name(std::string_view name) {
  using PK = ProtocolKind;
  for (PK k : {PK::automatic, PK::sync2, PK::sliced, PK::ksegment,
               PK::async2, PK::asyncn}) {
    if (name == protocol_kind_name(k)) return k;
  }
  return std::nullopt;
}

std::optional<SchedulerKind> scheduler_from_name(std::string_view name) {
  using SK = SchedulerKind;
  for (SK k : {SK::bernoulli, SK::centralized, SK::ksubset,
               SK::adversarial}) {
    if (name == scheduler_kind_name(k)) return k;
  }
  return std::nullopt;
}

ChatNetwork::ChatNetwork(std::vector<geom::Vec2> positions,
                         ChatNetworkOptions options)
    : options_(options) {
  const std::size_t n = positions.size();
  if (n < 2) {
    throw std::invalid_argument("ChatNetwork needs at least two robots");
  }
  if (options_.visibility_radius > 0.0) {
    // The paper's protocols assume every movement is observable by every
    // robot; under limited visibility (Section 5 open problem) we require
    // at least mutual visibility of the initial configuration.
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        if (geom::dist(positions[i], positions[j]) >
            options_.visibility_radius) {
          throw std::invalid_argument(
              "robots must be mutually visible at t0");
        }
      }
    }
  }
  kind_ = resolve_protocol(options_, n);
  const bool synchronous = options_.synchrony == Synchrony::synchronous;
  if ((kind_ == ProtocolKind::sync2 || kind_ == ProtocolKind::async2) &&
      n != 2) {
    throw std::invalid_argument("2-robot protocol with n != 2");
  }
  if ((kind_ == ProtocolKind::sync2 || kind_ == ProtocolKind::sliced ||
       kind_ == ProtocolKind::ksegment) != synchronous) {
    throw std::invalid_argument("protocol/synchrony mismatch");
  }

  // Robot frames: randomized within the declared capabilities.
  sim::Rng rng(options_.seed);
  std::vector<sim::RobotSpec> specs;
  specs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    sim::RobotSpec s;
    s.position = positions[i];
    s.sigma = options_.sigma;
    s.frame_unit = options_.randomize_frames ? rng.uniform(0.5, 2.0) : 1.0;
    s.frame_rotation =
        options_.caps.sense_of_direction || !options_.randomize_frames
            ? 0.0
            : rng.uniform(0.0, geom::kTwoPi);
    s.frame_mirrored = options_.mirrored_frames;  // Chirality: all equal.
    if (options_.caps.visible_ids) {
      // Arbitrary unique, deliberately not 0..n-1, so nothing can conflate
      // ids with simulator indices.
      s.id = static_cast<sim::VisibleId>(1000 + 7 * i);
    }
    specs.push_back(s);
  }

  const proto::NamingMode naming = naming_for(options_.caps);
  std::vector<std::unique_ptr<sim::Robot>> programs;
  programs.reserve(n);
  chat_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double sigma_local = options_.sigma / specs[i].frame_unit;
    std::unique_ptr<proto::ChatRobot> robot;
    switch (kind_) {
      case ProtocolKind::sync2: {
        proto::Sync2Options o;
        o.sigma_local = sigma_local;
        o.bits_per_symbol = options_.sync2_bits_per_symbol;
        robot = std::make_unique<proto::Sync2Robot>(o);
        break;
      }
      case ProtocolKind::sliced: {
        proto::SyncSlicedOptions o;
        o.naming = naming;
        o.sigma_local = sigma_local;
        o.flock_velocity =
            sim::Frame(geom::Vec2{0, 0}, specs[i].frame_rotation,
                       specs[i].frame_unit, specs[i].frame_mirrored)
                    .to_local(options_.flock_velocity);
        robot = std::make_unique<proto::SyncSlicedRobot>(o);
        break;
      }
      case ProtocolKind::ksegment: {
        proto::KSegmentOptions o;
        o.naming = naming;
        o.k = options_.ksegment_k;
        o.sigma_local = sigma_local;
        robot = std::make_unique<proto::KSegmentRobot>(o);
        break;
      }
      case ProtocolKind::async2: {
        proto::Async2Options o;
        o.sigma_local = sigma_local;
        o.ack_changes = 2 + 2 * options_.observation_delay;
        o.bound = options_.async2_banded ? proto::BoundKind::banded
                                         : proto::BoundKind::unbounded;
        robot = std::make_unique<proto::Async2Robot>(o);
        break;
      }
      case ProtocolKind::asyncn: {
        proto::AsyncNOptions o;
        o.naming = naming;
        o.sigma_local = sigma_local;
        o.ack_changes = 2 + 2 * options_.observation_delay;
        robot = std::make_unique<proto::AsyncNRobot>(o);
        break;
      }
      case ProtocolKind::automatic:
        throw std::logic_error("unresolved protocol kind");
    }
    chat_.push_back(robot.get());
    programs.push_back(std::move(robot));
  }

  sim::EngineOptions eopt;
  eopt.record_positions = options_.record_positions;
  eopt.observation_quantum = options_.observation_quantum;
  eopt.observation_delay = options_.observation_delay;
  eopt.visibility_radius = options_.visibility_radius;
  engine_ = std::make_unique<sim::Engine>(std::move(specs),
                                          std::move(programs),
                                          make_scheduler(options_), eopt);

  // slot <-> simulator-index translation, per robot.
  slot_to_engine_.assign(n, std::vector<sim::RobotIndex>(n));
  for (std::size_t i = 0; i < n; ++i) {
    const std::vector<sim::RobotIndex> order =
        engine_->initial_observation_order(i);
    for (std::size_t t0_index = 0; t0_index < n; ++t0_index) {
      const std::size_t slot = chat_[i]->slot_of_t0_index(t0_index);
      slot_to_engine_[i][slot] = order[t0_index];
    }
  }
  received_.assign(n, {});
  overheard_.assign(n, {});
}

void ChatNetwork::attach_event_sink(obs::EventSink* sink) {
  sink_ = sink;
  engine_->set_event_sink(sink);
  for (std::size_t i = 0; i < chat_.size(); ++i) {
    chat_[i]->set_telemetry(sink, i, &slot_to_engine_[i]);
  }
}

void ChatNetwork::attach_metrics(obs::MetricsRegistry* registry) {
  engine_->set_metrics(registry);
}

void ChatNetwork::attach_coverage(obs::cov::CovMap* map) {
  cov_ = map;
  engine_->set_coverage(map);
  const char* proto_name = protocol_kind_name(kind_);
  for (proto::ChatRobot* robot : chat_) {
    robot->set_coverage(map, proto_name);
  }
  if (cov_ == nullptr) return;
  // One configuration edge per run: which naming construction this
  // capability set resolved to. Baselines lose it when a protocol/naming
  // combination drops out of the corpus.
  const char* naming = "none";
  switch (naming_for(options_.caps)) {
    case proto::NamingMode::by_ids: naming = "by_ids"; break;
    case proto::NamingMode::lexicographic: naming = "lexicographic"; break;
    case proto::NamingMode::relative: naming = "relative"; break;
  }
  cov_->hit(obs::cov::Domain::proto, cov_->state(proto_name, "enter"),
            cov_->state("naming", naming));
}

void ChatNetwork::attach_profiler(obs::prof::Profiler* profiler) {
  prof_ = profiler;
  engine_->set_profiler(profiler);
  if (prof_ != nullptr) ph_collect_ = prof_->phase("net.collect");
}

obs::RunReport ChatNetwork::report() const {
  obs::RunReport r;
  r.protocol = protocol_kind_name(kind_);
  r.schedule = options_.synchrony == Synchrony::synchronous
                   ? "synchronous"
                   : scheduler_kind_name(options_.scheduler);
  r.seed = options_.seed;
  r.robots = chat_.size();
  r.instants = engine_->now();
  r.quiescent = quiescent();
  r.min_separation = engine_->trace().min_separation();
  for (const proto::ChatRobot* robot : chat_) {
    if (robot->decode_fault_pending()) ++r.unfired_decode_faults;
  }
  r.corruptions_applied = corrupt_next_;
  if (first_corrupt_t_ && converged_t_) {
    r.reconverged = true;
    r.convergence_instants = *converged_t_ - *first_corrupt_t_;
  }
  if (!corrupts_.empty()) {
    // Silence: trailing movement-signal-free rounds. After quiescence this
    // is how long the swarm has been silent — the recovery-efficiency
    // measure of the self-stabilization companions.
    const sim::Time end = engine_->now();
    r.silence_rounds = last_signal_t_ ? end - 1 - *last_signal_t_ : end;
  }
  if (cov_ != nullptr) {
    r.cov_edges = cov_->distinct_edges();
    r.cov_hits = cov_->total_hits();
  }
  r.per_robot.resize(chat_.size());
  for (std::size_t i = 0; i < chat_.size(); ++i) {
    const sim::MotionStats& m = engine_->trace().stats(i);
    const proto::ChatStats& c = chat_[i]->stats();
    obs::RobotReport& out = r.per_robot[i];
    out.activations = m.activations;
    out.moves = m.moves;
    out.distance = m.distance;
    out.idle_activations = c.idle_activations;
    out.idle_moves = c.idle_moves;
    out.bits_sent = c.bits_sent;
    out.bits_decoded = c.bits_decoded;
    out.messages_sent = c.messages_sent;
    out.messages_received = c.messages_received;
    out.messages_overheard = c.messages_overheard;
    r.bits_sent += c.bits_sent;
    r.idle_moves += c.idle_moves;
    r.total_distance += m.distance;
    r.messages_delivered += received_[i].size();
  }
  if (r.bits_sent > 0) {
    r.instants_per_bit = static_cast<double>(r.instants) /
                         static_cast<double>(r.bits_sent);
    r.distance_per_bit = r.total_distance /
                         static_cast<double>(r.bits_sent);
  }
  return r;
}

void ChatNetwork::send(sim::RobotIndex from, sim::RobotIndex to,
                       std::span<const std::uint8_t> payload) {
  if (from == to) throw std::invalid_argument("from == to");
  const std::vector<sim::RobotIndex>& slots = slot_to_engine_.at(from);
  const auto it = std::find(slots.begin(), slots.end(), to);
  if (it == slots.end()) {
    throw std::invalid_argument("send: unknown destination robot");
  }
  const auto slot = static_cast<std::size_t>(it - slots.begin());
  chat_.at(from)->send_message(slot, payload);
}

void ChatNetwork::broadcast(sim::RobotIndex from,
                            std::span<const std::uint8_t> payload) {
  chat_.at(from)->send_broadcast(payload);
}

void ChatNetwork::collect() {
  for (std::size_t i = 0; i < chat_.size(); ++i) {
    const std::vector<sim::RobotIndex>& slots = slot_to_engine_[i];
    for (auto& m : chat_[i]->take_inbox()) {
      received_[i].push_back(Delivery{slots[m.sender], slots[m.addressee],
                                      m.broadcast, std::move(m.payload)});
    }
    for (auto& m : chat_[i]->take_overheard()) {
      overheard_[i].push_back(Delivery{slots[m.sender], slots[m.addressee],
                                       m.broadcast, std::move(m.payload)});
    }
  }
}

void ChatNetwork::step() {
  engine_->step();
  {
    obs::prof::Scope s(prof_, ph_collect_);
    collect();
  }
  if (!corrupts_.empty()) track_stabilization();
}

void ChatNetwork::schedule_corruption(sim::RobotIndex i, sim::Time at,
                                      proto::CorruptKind kind) {
  if (i >= chat_.size()) {
    throw std::invalid_argument("schedule_corruption: unknown robot");
  }
  corrupts_.push_back(ScheduledCorruption{at, i, kind});
  std::stable_sort(corrupts_.begin(), corrupts_.end(),
                   [](const ScheduledCorruption& a,
                      const ScheduledCorruption& b) { return a.at < b.at; });
  corrupt_next_ = 0;
  // Every robot runs its recovery audits: the corrupted one to repair
  // itself, the others because a corrupted *peer* is indistinguishable
  // from own damage at the stream level.
  for (proto::ChatRobot* robot : chat_) robot->arm_stabilization();
}

void ChatNetwork::track_stabilization() {
  const sim::Time t = engine_->now() - 1;  // The instant just executed.
  while (corrupt_next_ < corrupts_.size() &&
         corrupts_[corrupt_next_].at <= t) {
    const ScheduledCorruption& c = corrupts_[corrupt_next_++];
    // Garbage is a pure function of (seed, robot, at, kind): replays of
    // the same configuration scramble the same bytes.
    sim::Rng grng(par::mix_seed(options_.seed ^ 0x5AB17C0DEULL ^
                                (static_cast<std::uint64_t>(c.robot) << 40) ^
                                (static_cast<std::uint64_t>(c.kind) << 56) ^
                                c.at));
    const std::uint64_t garbage = grng.uniform_int(
        0, std::numeric_limits<std::uint64_t>::max());
    chat_[c.robot]->corrupt_state(c.kind, garbage);
    if (!first_corrupt_t_) {
      first_corrupt_t_ = c.at;
      std::uint64_t delivered = 0;
      for (const auto& v : received_) delivered += v.size();
      deliveries_at_corrupt_ = delivered;
    }
    static constexpr const char* kLabels[] = {
        "corrupt_phase", "corrupt_cursor", "corrupt_parser",
        "corrupt_naming"};
    const char* label = kLabels[static_cast<std::size_t>(c.kind)];
    if (cov_ != nullptr) {
      cov_->hit(obs::cov::Domain::fault, cov_->state("fault", "plan"),
                cov_->state("fault", label));
    }
    if (sink_ != nullptr) {
      obs::Event e;
      e.type = obs::EventType::FaultInjected;
      e.t = t;
      e.robot = static_cast<std::int64_t>(c.robot);
      e.value = static_cast<double>(garbage % 1000003ULL);
      e.label = label;
      sink_->on_event(e);
    }
  }

  // Convergence/silence trackers.
  std::uint64_t bits = 0;
  for (const proto::ChatRobot* robot : chat_) bits += robot->stats().bits_sent;
  if (bits > bits_seen_) {
    bits_seen_ = bits;
    last_signal_t_ = t;
  }
  if (first_corrupt_t_ && !converged_t_) {
    std::uint64_t delivered = 0;
    for (const auto& v : received_) delivered += v.size();
    if (delivered > deliveries_at_corrupt_) converged_t_ = t;
  }
}

void ChatNetwork::run(sim::Time instants) {
  for (sim::Time k = 0; k < instants; ++k) step();
}

bool ChatNetwork::quiescent() const {
  const sim::Time now = engine_->now();
  for (std::size_t i = 0; i < chat_.size(); ++i) {
    if (interceptor_ != nullptr && interceptor_->crashed(i, now)) continue;
    if (!chat_[i]->send_queue_empty()) return false;
  }
  return true;
}

bool ChatNetwork::run_until_quiescent(sim::Time max_instants) {
  for (sim::Time k = 0; k < max_instants && !quiescent(); ++k) step();
  return quiescent();
}

}  // namespace stig::core
