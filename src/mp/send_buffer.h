// SendBuffer: sender-side batching over a QueueMesh.
//
// The mesh's receive side has been batched since the queues were built —
// Drain pops up to a cache line of messages per head publication — but a
// sender calling QueueMesh::Send still publishes its tail index once per
// message, so the coherence amortization of Section 3.1 only ran one way.
// SendBuffer closes that gap: each sender stages outgoing messages in a
// plain-memory array per (sender, receiver) pair and flushes them with one
// PushBatch — one tail publication and ~one payload-line transfer per
// staging-array's worth of messages instead of one publication each.
//
// The staging arrays are sender-private plain memory, so staging a message
// costs no modeled coherence traffic at all; the shared queue is touched
// only at flush time. Flush boundaries are sized from the measured burst
// depth: each (sender, receiver) pair keeps a BurstEstimator fed with the
// messages staged per scheduling quantum and flushes once its stage
// reaches the estimated depth, capped at the stage capacity (default: one
// payload line, the point past which a bigger batch buys no further line
// amortization). Shallow bursts — the common case for grant/ack traffic
// at low fan-in — then leave without waiting for the quantum end, while
// deep bursts grow the estimate back to the full line within a few
// quanta, so steady line-sized traffic keeps one publication per line.
// The owner must call FlushAll() at the end of each scheduling quantum:
// it is where bursts are measured, and staged messages must never outlive
// the sender's attention — an unflushed grant is a stalled transaction.
//
// Flush is blocking like QueueMesh::Send: queue capacities are provable
// bounds on outstanding messages (staging does not increase them — a
// staged message was "outstanding" the moment the protocol produced it),
// so a partial PushBatch retries until the receiver makes room and a
// queue that stays full is a protocol bug, not backpressure.
//
// MultiSendBuffer is the same staging layer over a MultiMesh: one staging
// array per receiver, flushed with MpscQueue::PushBatch (one CAS + one
// tail publication per flushed line instead of one per message). It is
// what an elastic sender population stages through; see MultiMesh's
// sender-lifecycle contract for the retire protocol. Both buffers share
// one implementation (detail::SendStaging); a concrete buffer only
// resolves which queue a receiver's stage flushes into.
#ifndef ORTHRUS_MP_SEND_BUFFER_H_
#define ORTHRUS_MP_SEND_BUFFER_H_

#include <cstdint>
#include <vector>

#include "common/macros.h"
#include "hal/hal.h"
#include "mp/multi_mesh.h"
#include "mp/queue_mesh.h"

namespace orthrus::mp {
namespace detail {

// Integer EWMA of per-quantum burst depths toward one receiver, used to
// size flush thresholds. Asymmetric rounding: estimates climb
// (ceil) faster than they decay (floor), so a workload returning to deep
// bursts recovers full-line staging in a few quanta while shallow phases
// still pull the threshold down. Deterministic — pure integer state fed
// only by observed counts.
class BurstEstimator {
 public:
  // Feed the number of messages staged toward the receiver during one
  // scheduling quantum (callers skip empty quanta).
  void Observe(std::size_t burst_depth) {
    ORTHRUS_DCHECK(burst_depth >= 1);
    if (est_ == 0) {
      est_ = burst_depth;
    } else if (burst_depth > est_) {
      est_ = (3 * est_ + burst_depth + 3) / 4;  // ceil: climb fast
    } else {
      est_ = (3 * est_ + burst_depth) / 4;  // floor: decay gradually
    }
    if (est_ < 1) est_ = 1;
  }

  // Flush threshold in [1, cap]; before the first observation the full
  // line (`cap`) is used.
  std::size_t Threshold(std::size_t cap) const {
    if (est_ == 0 || est_ >= cap) return cap;
    return est_;
  }

  std::size_t estimate() const { return est_; }

 private:
  std::size_t est_ = 0;
};

// The shared staging engine behind SendBuffer and MultiSendBuffer: the
// per-receiver staging matrix, burst-sized flush thresholds, quantum
// bookkeeping, and the message/publication counters. The derived
// buffer contributes exactly one thing through CRTP: `queue(receiver)`,
// the ring a receiver's stage flushes into.
template <typename T, typename Derived>
class SendStaging {
 public:
  std::size_t stage_capacity() const { return stage_; }

  // Stages `value` for `receiver`; flushes the pair once its stage reaches
  // the flush threshold (the measured burst depth, capped at the stage).
  void Send(int receiver, T value) {
    ORTHRUS_DCHECK(receiver >= 0 && receiver < receivers_);
    const std::size_t r = static_cast<std::size_t>(receiver);
    std::size_t& n = counts_[r];
    slots_[r * stage_ + n] = value;
    messages_++;
    quantum_msgs_[r]++;
    if (++n >= FlushThreshold(r)) Flush(receiver);
  }

  // Pushes everything staged for `receiver` into its queue, retrying
  // partial batches until the whole stage is enqueued.
  void Flush(int receiver) {
    std::size_t& n = counts_[static_cast<std::size_t>(receiver)];
    if (n == 0) return;
    const T* buf = &slots_[static_cast<std::size_t>(receiver) * stage_];
    auto& q = static_cast<Derived*>(this)->queue(receiver);
    std::size_t pushed = 0;
    detail::WedgeSpin spin;
    while (pushed < n) {
      const std::size_t k = q.PushBatch(buf + pushed, n - pushed);
      if (k == 0) {
        spin.Pause();
        continue;
      }
      publications_++;
      pushed += k;
    }
    n = 0;
  }

  // Flushes every pair, in ascending receiver order (deterministic under
  // the simulator). Call at the end of each scheduling quantum; this is
  // also where the thresholds observe the quantum's burst depths.
  void FlushAll() {
    for (int r = 0; r < receivers_; ++r) {
      Flush(r);
      const std::size_t i = static_cast<std::size_t>(r);
      if (quantum_msgs_[i] != 0) bursts_[i].Observe(quantum_msgs_[i]);
      quantum_msgs_[i] = 0;
    }
  }

  // Messages staged but not yet flushed (all receivers).
  std::size_t Pending() const {
    std::size_t total = 0;
    for (std::size_t n : counts_) total += n;
    return total;
  }

  // Total messages accepted by Send().
  std::uint64_t messages() const { return messages_; }

  // Tail-index publications performed (successful PushBatch calls). The
  // amortization the buffer exists for: messages() / publications() is the
  // average messages per publication, vs. exactly 1 for unbuffered Send.
  std::uint64_t publications() const { return publications_; }

  // Current flush threshold toward `receiver` (== stage_capacity() before
  // the first observation). Test observability.
  std::size_t FlushThreshold(std::size_t receiver) const {
    return bursts_[receiver].Threshold(stage_);
  }

 protected:
  SendStaging(int receivers, std::size_t stage_capacity)
      : receivers_(receivers),
        stage_(stage_capacity < 1 ? 1 : stage_capacity),
        slots_(static_cast<std::size_t>(receivers) * stage_),
        counts_(static_cast<std::size_t>(receivers), 0),
        quantum_msgs_(static_cast<std::size_t>(receivers), 0),
        bursts_(static_cast<std::size_t>(receivers)) {}

  SendStaging(const SendStaging&) = delete;
  SendStaging& operator=(const SendStaging&) = delete;

 private:
  const int receivers_;
  const std::size_t stage_;
  // Flat [receiver][stage_] staging matrix + per-receiver fill counts.
  // Plain memory: exactly one thread owns a buffer.
  std::vector<T> slots_;
  std::vector<std::size_t> counts_;
  // Messages staged per receiver in the current quantum (burst
  // measurement; reset by FlushAll).
  std::vector<std::size_t> quantum_msgs_;
  std::vector<BurstEstimator> bursts_;
  std::uint64_t messages_ = 0;
  std::uint64_t publications_ = 0;
};

}  // namespace detail

template <typename T>
class SendBuffer final
    : public detail::SendStaging<T, SendBuffer<T>> {
 public:
  // Stage one payload line per pair by default: flushes then publish the
  // tail once per line, matching the receive side's per-line pops.
  static constexpr std::size_t kDefaultStage = SpscQueue<T>::kMsgsPerLine;

  // `stage_capacity` caps the burst-sized flush threshold; 1 degrades to
  // exactly QueueMesh::Send's per-message publication behaviour.
  SendBuffer(QueueMesh<T>* mesh, int sender,
             std::size_t stage_capacity = kDefaultStage)
      : detail::SendStaging<T, SendBuffer<T>>(mesh->receivers(),
                                              stage_capacity),
        mesh_(mesh),
        sender_(sender) {
    ORTHRUS_CHECK(sender >= 0 && sender < mesh->senders());
  }

  int sender() const { return sender_; }

  SpscQueue<T>& queue(int receiver) { return mesh_->at(sender_, receiver); }

 private:
  QueueMesh<T>* mesh_;
  const int sender_;
};

// Sender-side staging over a MultiMesh. Senders are anonymous; a thread
// owns its buffer, and the MultiMesh retire protocol requires
// Pending() == 0 before the owner retires. `shard_hint` picks which of
// the mesh's per-receiver shards this sender flushes into (reduced modulo
// the shard count); it must stay fixed for the buffer's lifetime so the
// sender's own messages stay FIFO.
template <typename T>
class MultiSendBuffer final
    : public detail::SendStaging<T, MultiSendBuffer<T>> {
 public:
  static constexpr std::size_t kDefaultStage = MpscQueue<T>::kMsgsPerLine;

  explicit MultiSendBuffer(MultiMesh<T>* mesh, int shard_hint = 0,
                           std::size_t stage_capacity = kDefaultStage)
      : detail::SendStaging<T, MultiSendBuffer<T>>(mesh->receivers(),
                                                   stage_capacity),
        mesh_(mesh),
        hint_(shard_hint),
        // Resolve through the routing modulus even at construction: on an
        // adaptive mesh the raw allocated-ring count (kMaxAutoShards) can
        // exceed the drain high-water, and a ring above it would strand
        // anything sent before the first Rebind().
        shard_(mesh->RingForHint(shard_hint)) {}

  int shard() const { return shard_; }

  // Re-resolves the ring for this buffer's hint under the mesh's current
  // routing modulus. Call right after each RegisterSender on an adaptive
  // mesh: the modulus tracks the sender population, and the drain-to-empty
  // retire contract guarantees nothing of ours is left on the old ring.
  void Rebind() { shard_ = mesh_->RingForHint(hint_); }

  MpscQueue<T>& queue(int receiver) { return mesh_->at(receiver, shard_); }

 private:
  MultiMesh<T>* mesh_;
  const int hint_;
  int shard_;
};

}  // namespace orthrus::mp

#endif  // ORTHRUS_MP_SEND_BUFFER_H_
