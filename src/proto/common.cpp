#include "proto/common.hpp"

#include <cassert>
#include <cstring>

namespace stig::proto {

void ChatRobot::emit(obs::Event& e) const {
  e.t = now_;
  e.robot = static_cast<std::int64_t>(self_index_);
  sink_->on_event(e);
}

void ChatRobot::note_activation(const sim::Snapshot& snap) {
  now_ = snap.t;
  ++stats_.activations;
  const bool idle = outbox_.empty();
  if (idle) ++stats_.idle_activations;
  const geom::Vec2 self = snap.self_robot().position;
  if (last_pos_ && last_was_idle_ &&
      geom::dist(*last_pos_, self) > geom::kEps) {
    ++stats_.idle_moves;
  }
  last_pos_ = self;
  last_was_idle_ = idle;
}

void ChatRobot::note_phase(const char* phase) {
  if (phase == phase_name_ ||
      (phase != nullptr && phase_name_ != nullptr &&
       std::strcmp(phase, phase_name_) == 0)) {
    return;
  }
  if (cov_ != nullptr) {
    // The dedupe above means this is a genuine transition: record the
    // (previous phase -> new phase) edge in the protocol's state machine.
    cov_->hit(obs::cov::Domain::proto, cov_phase_id(phase_name_),
              cov_phase_id(phase));
  }
  phase_name_ = phase;
  if (sink_ == nullptr) return;
  obs::Event e;
  e.type = obs::EventType::PhaseEnter;
  e.label = phase;
  emit(e);
}

obs::cov::StateId ChatRobot::cov_phase_id(const char* phase) {
  if (phase == nullptr) return cov_enter_;
  for (std::size_t i = 0; i < cov_phase_cached_; ++i) {
    const auto& [p, id] = cov_phase_cache_[i];
    if (p == phase || std::strcmp(p, phase) == 0) return id;
  }
  const obs::cov::StateId id = cov_->state(cov_prefix_, phase);
  if (cov_phase_cached_ < cov_phase_cache_.size()) {
    cov_phase_cache_[cov_phase_cached_++] = {phase, id};
  }
  return id;
}

void ChatRobot::set_coverage(obs::cov::CovMap* map,
                             const char* protocol_name) {
  cov_ = map;
  cov_prefix_ = protocol_name;
  cov_phase_cached_ = 0;
  for (auto& [key, parser] : parsers_) parser.set_coverage(map);
  if (cov_ == nullptr) return;
  cov_enter_ = cov_->state(cov_prefix_, "enter");
}

void ChatRobot::note_ack(std::ptrdiff_t peer_slot) {
  if (sink_ == nullptr) return;
  obs::Event e;
  e.type = obs::EventType::AckObserved;
  if (peer_slot >= 0) e.peer = engine_index(static_cast<std::size_t>(peer_slot));
  e.value = static_cast<double>(now_ - ack_armed_t_);
  emit(e);
}

void ChatRobot::send_message(std::size_t to_slot,
                             std::span<const std::uint8_t> payload) {
  assert(to_slot != self_slot() && "a robot does not message itself");
  assert(to_slot < slot_count());
  OutMessage m;
  m.to = to_slot;
  m.bits = encode::encode_frame(payload);
  outbox_.push_back(std::move(m));
}

void ChatRobot::send_broadcast(std::span<const std::uint8_t> payload) {
  OutMessage m;
  m.to = self_slot();  // The sender's own slot is the broadcast lane.
  m.bits = encode::encode_frame(payload);
  outbox_.push_back(std::move(m));
}

std::vector<ReceivedMessage> ChatRobot::take_inbox() {
  std::vector<ReceivedMessage> out;
  out.swap(inbox_);
  return out;
}

std::vector<ReceivedMessage> ChatRobot::take_overheard() {
  std::vector<ReceivedMessage> out;
  out.swap(overheard_);
  return out;
}

void ChatRobot::corrupt_state(CorruptKind kind, std::uint64_t garbage) {
  switch (kind) {
    case CorruptKind::cursor: {
      if (outbox_.empty()) break;  // Nothing in flight: vacuously survived.
      OutMessage& m = outbox_.front();
      // Jump to an *earlier* byte boundary that keeps the cursor's phase
      // mod 8. Frames are whole bytes and every symbol width divides 8,
      // so the emitted stream stays bit- and symbol-aligned; backward
      // means the damage is byte-aligned *re-transmission* (insertion),
      // which completes the in-flight frame with garbled content —
      // CRC-rejected, then healed by the parser's resync scan once the
      // next frame arrives. A forward jump would instead *delete* bytes
      // and leave the receiver's parser starving mid-frame forever in the
      // asynchronous protocols, which have no idle window to realign
      // through — the same reasoning that pins the phase mod 8.
      const std::size_t bytes_done = m.cursor / 8 + 1;
      m.cursor = (m.cursor % 8) + 8 * (garbage % bytes_done);
      break;
    }
    case CorruptKind::parser: {
      if (!parsers_.empty()) {
        auto it = parsers_.begin();
        std::advance(it,
                     static_cast<std::ptrdiff_t>(garbage % parsers_.size()));
        it->second.scramble(garbage);
        break;
      }
      // No streams yet: plant a scrambled parser on a garbage stream, as a
      // transient fault would. Its fake partial buffer poisons the first
      // real frame on that stream; CRC + resync recover the next one.
      const std::size_t slots = slot_count() > 0 ? slot_count() : 1;
      const auto [it, created] =
          parsers_.try_emplace({garbage % slots, (garbage >> 8) % slots});
      if (created && cov_ != nullptr) it->second.set_coverage(cov_);
      it->second.scramble(garbage);
      break;
    }
    case CorruptKind::phase:
    case CorruptKind::naming:
      corrupt_protocol_state(kind, garbage);
      break;
  }
}

std::optional<std::pair<std::size_t, std::uint8_t>> ChatRobot::peek_bit()
    const {
  if (outbox_.empty()) return std::nullopt;
  const OutMessage& m = outbox_.front();
  return std::make_pair(m.to, m.bits[m.cursor]);
}

std::optional<std::pair<std::size_t, std::uint32_t>> ChatRobot::peek_symbol(
    unsigned bits) const {
  assert(bits >= 1 && 8 % bits == 0);
  if (outbox_.empty()) return std::nullopt;
  const OutMessage& m = outbox_.front();
  // Zero-pad past the end: a phase-corrupted driver can ask for a symbol
  // at a ragged tail; the padded symbol garbles content only, which the
  // frame CRC already absorbs.
  std::uint32_t symbol = 0;
  for (unsigned i = 0; i < bits; ++i) {
    const std::size_t idx = m.cursor + i;
    symbol = (symbol << 1) | (idx < m.bits.size() ? m.bits[idx] : 0);
  }
  return std::make_pair(m.to, symbol);
}

void ChatRobot::advance_outbox(unsigned bits) {
  // Graceful under transient corruption: a phase-scrambled driver may
  // complete a signal with nothing queued (drop it on the floor), and a
  // corrupted cursor may leave fewer bits than a full symbol (telemetry
  // emits only the bits that exist; the frame completes on overrun). In a
  // fault-free run both conditions are unreachable.
  if (outbox_.empty()) return;
  OutMessage& m = outbox_.front();
  if (sink_ != nullptr) {
    const bool broadcast = m.to == self_slot();
    obs::Event e;
    e.type = obs::EventType::BitEmitted;
    if (!broadcast) e.peer = engine_index(m.to);
    if (broadcast) e.label = "broadcast";
    for (unsigned b = 0; b < bits && m.cursor + b < m.bits.size(); ++b) {
      e.bit = m.bits[m.cursor + b];
      emit(e);
    }
  }
  m.cursor += bits;
  stats_.bits_sent += bits;
  if (m.cursor >= m.bits.size()) {
    ++stats_.messages_sent;
    outbox_.pop_front();
  }
}

void ChatRobot::reset_streams_from(std::size_t sender_slot) {
  for (auto& [key, parser] : parsers_) {
    if (key.first == sender_slot) parser.reset();
  }
}

void ChatRobot::on_bit_decoded(std::size_t sender_slot,
                               std::size_t addressee_slot, std::uint8_t bit) {
  if (fault_first_ && stats_.bits_decoded >= *fault_first_) {
    // Armed decode fault (fuzz/fault harness): this signal is misread. The
    // flip happens before telemetry so every downstream consumer — the
    // watchdog's framing replay included — sees the stream the robot saw.
    // Bursts corrupt consecutive decoded signals until exhausted.
    bit ^= 1U;
    if (--fault_bits_left_ == 0) fault_first_.reset();
  }
  ++stats_.bits_decoded;
  if (sink_ != nullptr) {
    obs::Event e;
    e.type = obs::EventType::BitDecoded;
    e.peer = engine_index(sender_slot);
    e.aux = engine_index(addressee_slot);
    e.bit = bit;
    emit(e);
  }
  // A sender keeps one addressee for a whole frame, so its cached stream
  // almost always matches; the map is searched only on a switch.
  assert(stream_cache_ == nullptr || sender_slot < slot_count());
  StreamRef* const cached =
      stream_cache_ != nullptr ? &stream_cache_[sender_slot] : nullptr;
  encode::FrameParser* stream =
      cached != nullptr && cached->parser != nullptr &&
              cached->addressee == addressee_slot
          ? cached->parser
          : nullptr;
  if (stream == nullptr) {
    const auto [parser_it, parser_created] =
        parsers_.try_emplace({sender_slot, addressee_slot});
    stream = &parser_it->second;
    if (parser_created && cov_ != nullptr) stream->set_coverage(cov_);
    if (cached != nullptr) *cached = StreamRef{addressee_slot, stream};
  }
  encode::FrameParser& parser = *stream;
  parser.push_bit(bit);
  for (auto& payload : parser.take_messages()) {
    ReceivedMessage msg;
    msg.sender = sender_slot;
    msg.addressee = addressee_slot;
    // A message a sender addresses to itself is by convention a broadcast:
    // the one diameter label unicast never uses.
    msg.broadcast = sender_slot == addressee_slot;
    msg.payload = std::move(payload);
    if (sink_ != nullptr) {
      obs::Event e;
      e.type = obs::EventType::FrameDelivered;
      e.peer = engine_index(sender_slot);
      e.aux = engine_index(addressee_slot);
      e.value = static_cast<double>(msg.payload.size());
      e.label = msg.broadcast
                    ? "broadcast"
                    : (addressee_slot == self_slot() ? "inbox" : "overheard");
      emit(e);
    }
    if (msg.broadcast || addressee_slot == self_slot()) {
      ++stats_.messages_received;
      inbox_.push_back(std::move(msg));
    } else {
      ++stats_.messages_overheard;
      overheard_.push_back(std::move(msg));
    }
  }
}

}  // namespace stig::proto
