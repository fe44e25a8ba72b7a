#include "proto/sync_sliced.hpp"

#include <algorithm>
#include <cassert>

namespace stig::proto {

namespace {
/// Consecutive at-center observations of a sender after which its streams
/// are reset to a frame boundary. A correct sender pauses at most one
/// instant between bits of a frame (the return step), so 3 is safe; after
/// a transient fault this is what heals misaligned streams.
constexpr std::uint8_t kResyncGap = 3;
}  // namespace

/// Moved-peer pass state, for swarms of sim::kMovedPeersMinRobots or more.
/// Both lists are sized at initialize, so the pass allocates nothing.
struct SyncSlicedRobot::MovedPass {
  /// The queue of due resyncs: every peer at rest whose idle counter still
  /// ticks (!peer_was_off_, peer_idle_ < kResyncGap). A full pass would
  /// advance each once per activation and reset its streams when it
  /// reaches kResyncGap; the moved-peer pass advances exactly these.
  std::vector<std::uint32_t> ticking;
  std::vector<std::uint32_t> next;  ///< `ticking` under construction.
  /// Per robot (t0 slot): its last known point is not deep inside its own
  /// granular. Kept from the lists alone, which name every robot that
  /// moved, starting from the t0 snapshot (every robot at its center).
  /// With none misplaced, association maps every point to the robot it
  /// belongs to — the slot the list names — so pos_scratch_ after such
  /// an activation holds each robot's point under its own slot.
  std::vector<std::uint8_t> misplaced;
  std::size_t misplaced_count = 0;
  /// False after an activation without a list: what moved then is
  /// unknown, so the moved-peer pass stays off.
  bool tracking = true;
  SlicedPassCounts counts;

  void set_misplaced(std::size_t g, bool bad) {
    if ((misplaced[g] != 0) == bad) return;
    misplaced[g] = bad ? 1 : 0;
    if (bad) {
      ++misplaced_count;
    } else {
      --misplaced_count;
    }
  }
};

SyncSlicedRobot::SyncSlicedRobot(SyncSlicedOptions options)
    : options_(options) {}

SyncSlicedRobot::~SyncSlicedRobot() = default;

void SyncSlicedRobot::initialize(const sim::Snapshot& snap) {
  core_ = SlicedCore(snap, options_.naming, snap.robots.size());
  const std::size_t n = core_.robot_count();
  peer_was_off_.assign(n, false);
  peer_idle_.assign(n, 0);
  pos_scratch_.clear();  // No point recorded yet (see decode_moved).
  moved_.reset();
  if (n >= sim::kMovedPeersMinRobots) {
    // The moved-peer pass starts from the t0 snapshot: every robot at its
    // center, every peer at rest with its resync counter about to tick.
    moved_ = std::make_unique<MovedPass>();
    moved_->ticking.reserve(n);
    moved_->next.reserve(n);
    for (std::size_t j = 0; j < n; ++j) {
      if (j != core_.self_index()) {
        moved_->ticking.push_back(static_cast<std::uint32_t>(j));
      }
    }
    moved_->misplaced.assign(n, 0);
  }
  size_stream_cache();
}

SlicedPassCounts SyncSlicedRobot::pass_counts() const {
  return moved_ != nullptr ? moved_->counts : SlicedPassCounts{};
}

inline void SyncSlicedRobot::update_peer(
    std::size_t j, const std::optional<Signal>& signal) {
  // A bit is emitted on the center -> off-center transition; the sender
  // names the addressee by the diameter label *in its own labeling*,
  // which we reconstruct.
  const std::size_t self = core_.self_index();
  if (signal && !peer_was_off_[j]) {
    const std::size_t addressee_robot =
        core_.robot_with_rank(j, signal->diameter);
    on_bit_decoded(core_.rank(self, j), core_.rank(self, addressee_robot),
                   signal->side == geom::DiameterSide::positive ? 0 : 1);
  }
  peer_was_off_[j] = signal.has_value();
  // Stream resynchronization (stabilization): a sender at rest for
  // several instants is at a frame boundary; drop any partial frame a
  // transient fault may have left in its streams.
  if (signal) {
    peer_idle_[j] = 0;
  } else if (peer_idle_[j] < kResyncGap && ++peer_idle_[j] == kResyncGap) {
    reset_streams_from(core_.rank(self, j));
  }
  if (moved_ != nullptr && !peer_was_off_[j] &&
      peer_idle_[j] < kResyncGap) {
    moved_->next.push_back(static_cast<std::uint32_t>(j));
  }
}

void SyncSlicedRobot::decode_all(const sim::Snapshot& snap,
                                 const geom::Vec2& drift) {
  // Undo the common flocking drift to recover protocol-space positions.
  std::vector<geom::Vec2>& pos = pos_scratch_;
  core_.associate_into(snap, pos, drift);
  if (moved_ != nullptr) moved_->next.clear();
  for (std::size_t j = 0; j < core_.robot_count(); ++j) {
    if (j == core_.self_index()) continue;
    update_peer(j, core_.classify(j, pos[j]));
  }
  if (moved_ != nullptr) moved_->ticking.swap(moved_->next);
}

bool SyncSlicedRobot::decode_moved(const sim::Snapshot& snap) {
  if (moved_ == nullptr) return false;
  MovedPass& m = *moved_;
  SlicedPassCounts& counts = m.counts;
  // Exactness needs: a complete list, every time; no corruption (it can
  // plant edge/idle state that disagrees with the peer's position; arming
  // lasts the run); no drift (every robot moves); and association
  // reducing to the listed slots — every point deep inside its own
  // granular, before and after this activation's moves.
  if (snap.moved == nullptr) m.tracking = false;
  if (!m.tracking) {
    ++counts.no_list;
    return false;
  }
  if (stabilization_armed()) {
    ++counts.armed;
    return false;
  }
  if (options_.flock_velocity != geom::Vec2{0.0, 0.0}) {
    ++counts.flocking;
    return false;
  }
  const std::size_t n = core_.robot_count();
  const std::size_t self = core_.self_index();
  const std::size_t before = m.misplaced_count;
  const sim::MovedPeers& moved = *snap.moved;
  for (const sim::MovedPeer p : moved) {
    if (p.slot >= n || p.slot == self) {  // Not a list this core can use.
      m.tracking = false;
      ++counts.no_list;
      return false;
    }
    m.set_misplaced(p.slot, !core_.deep_inside(p.slot, p.position));
  }
  m.set_misplaced(self, !core_.deep_inside(self, snap.self_robot().position));
  // The points the pass builds on come from the previous activation; the
  // first one runs the full pass to record them (and, as it always has,
  // sizes the association scratch there).
  if (before != 0 || pos_scratch_.empty()) {
    ++counts.incoherent;
    return false;
  }
  if (m.misplaced_count != 0) {
    ++counts.not_deep;
    return false;
  }
  ++counts.moved;

  // The listed peers, ascending by granular: the full pass's order, so
  // decoded bits, events and inbox order match it. Every peer left out
  // keeps its point, hence its classification, and the full pass would
  // leave its state as it is — except a due resync.
  std::vector<geom::Vec2>& pos = pos_scratch_;
  m.next.clear();
  for (const sim::MovedPeer p : moved) {
    pos[p.slot] = p.position;
    update_peer(p.slot, core_.classify(p.slot, p.position));
  }
  // Due resyncs of the peers still at rest that the list left out (a
  // listed one was re-queued above). A reset touches only its own
  // sender's streams and emits no event (at most a coverage count), so
  // running these after the listed peers changes no output of the pass.
  for (const std::uint32_t j : m.ticking) {
    if (moved.contains(j)) continue;
    if (++peer_idle_[j] == kResyncGap) {
      reset_streams_from(core_.rank(self, j));
    } else {
      m.next.push_back(j);
    }
  }
  m.ticking.swap(m.next);
  return true;
}

geom::Vec2 SyncSlicedRobot::on_activate(const sim::Snapshot& snap) {
  note_activation(snap);
  const std::size_t self = core_.self_index();
  // Stabilization: re-derive the flocking clock from observed time instead
  // of trusting the stored counter. In a synchronous system the two are
  // equal (bit-identical in a correct run); after a transient corruption
  // of step_ the drift estimate self-heals on the very next activation.
  step_ = snap.t;
  const geom::Vec2 drift = drift_at(step_);

  // Granular-naming audit (stabilization): only when a corruption is
  // scheduled this run — recomputing the tables allocates, and fault-free
  // runs must stay allocation-free. A detected repair also resets every
  // stream: a robot with corrupted names has been filing decoded bits
  // under the wrong (sender, addressee) keys, so all reassembly state is
  // suspect.
  if (stabilization_armed() && core_.audit_naming()) {
    for (std::size_t j = 0; j < core_.robot_count(); ++j) {
      reset_streams_from(j);
      peer_was_off_[j] = false;
      peer_idle_[j] = 0;
    }
  }

  // Decode every other robot's movement signal: only the peers that moved
  // when the snapshot lists them and that is exact, else all of them.
  if (!decode_moved(snap)) decode_all(snap, drift);

  // Our own move (protocol space), then re-apply drift for the next instant.
  geom::Vec2 target;
  if (displaced_) {
    note_phase("return");
    target = core_.center(self);
    displaced_ = false;
    advance_outbox();  // The out-and-back signal is now complete.
  } else if (const auto bit = peek_bit()) {
    note_phase("signal");
    const double headroom =
        std::max(0.0, options_.sigma_local - drift_speed());
    const double amp =
        std::min(0.8 * headroom,
                 options_.amplitude_fraction * core_.radius(self));
    assert(amp > 0.0 && "sigma too small to signal");
    const Signal s{bit->first, bit->second == 0
                                   ? geom::DiameterSide::positive
                                   : geom::DiameterSide::negative};
    target = core_.signal_point(s, amp);
    displaced_ = true;
  }
  else {
    // Silent — and self-healing: the rest position is the granular center,
    // so a robot displaced by a transient fault walks back instead of
    // resting wherever the fault left it. In a correct run this is a no-op.
    note_phase("idle");
    target = core_.center(self);
  }

  return target + drift_at(step_ + 1);
}

void SyncSlicedRobot::corrupt_protocol_state(CorruptKind kind,
                                             std::uint64_t garbage) {
  if (kind == CorruptKind::naming) {
    core_.scramble_naming(garbage);
    return;
  }
  // Recoverable phase envelope: a flipped mid-bit flag drops or repeats a
  // signal, scrambled edge/idle trackers miss, duplicate or spuriously
  // reset a stream — all frame content/alignment damage the CRC rejects
  // and the kResyncGap idle rule realigns once the sender rests. The
  // flocking clock heals on the next activation (re-derived from snap.t).
  displaced_ = (garbage & 1) != 0;
  step_ += (garbage >> 32) | 1;
  if (!peer_was_off_.empty()) {
    peer_was_off_[(garbage >> 8) % peer_was_off_.size()] =
        (garbage & 2) != 0;
    // Strictly below kResyncGap: the reset fires on the ++ == gap
    // transition, so a counter planted at the gap would suppress resyncs
    // for that stream instead of forcing one.
    peer_idle_[(garbage >> 16) % peer_idle_.size()] =
        static_cast<std::uint8_t>(garbage % kResyncGap);
  }
}

}  // namespace stig::proto
