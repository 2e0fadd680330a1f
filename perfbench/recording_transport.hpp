// Recording net::Transport decorator used by the engine workloads.
//
// It forwards every call to an inner transport (the in-memory Network)
// and records, per tag class (net::tag_class), the bytes and messages
// sent and the time receivers spent blocked in blocking_recv.  Bytes
// use Message::wire_size(), the same measure the inner transport
// meters, so the recorded sums must equal inner.traffic() exactly; the
// benchmark fails a run where they do not.
//
// It also timestamps the receives of chosen (actor, tag class) pairs,
// which is how the benchmark sees item boundaries inside one engine
// call from outside the program: a party receiving step k's input
// ("b/<k>/x") starts training step k.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "net/transport.hpp"

namespace perfbench {

struct ClassTotals {
  std::uint64_t bytes = 0;
  std::uint64_t messages = 0;
  std::uint64_t recv_wait_us = 0;
};

using Clock = std::chrono::steady_clock;

/// One watched event: `actor` finished receiving a message whose tag
/// is `tag`, at `at`.
struct TagEvent {
  Clock::time_point at;
  trustddl::net::PartyId actor = -1;
  std::string tag;
};

class RecordingTransport final : public trustddl::net::Transport {
 public:
  explicit RecordingTransport(trustddl::net::Transport& inner)
      : inner_(inner) {}

  /// Record a TagEvent whenever `actor` returns from a blocking
  /// receive of tag class `cls`.  Call before any traffic flows.
  void watch_receives(trustddl::net::PartyId actor, std::string cls);

  int num_parties() const override { return inner_.num_parties(); }
  std::chrono::milliseconds default_recv_timeout() const override {
    return inner_.default_recv_timeout();
  }

  void send(trustddl::net::Message message) override;
  trustddl::Bytes blocking_recv(trustddl::net::PartyId receiver,
                                trustddl::net::PartyId from,
                                const std::string& tag,
                                std::chrono::milliseconds timeout) override;
  bool probe(trustddl::net::PartyId receiver, trustddl::net::PartyId from,
             const std::string& tag, trustddl::Bytes& out) override;
  void set_fault_injector(
      std::shared_ptr<trustddl::net::FaultInjector> injector) override;
  trustddl::net::TrafficSnapshot traffic() const override;
  /// Resets the inner transport's counters and everything recorded
  /// here (the engine calls this at the start of every train/infer).
  void reset_traffic() override;

  std::map<std::string, ClassTotals> totals() const;
  std::vector<TagEvent> received_events() const;

 private:
  void note_wait(trustddl::net::PartyId receiver, const std::string& tag,
                 Clock::time_point start, bool received);

  trustddl::net::Transport& inner_;
  mutable std::mutex mu_;  ///< guards everything below
  std::map<std::string, ClassTotals> totals_;
  std::vector<std::pair<trustddl::net::PartyId, std::string>> watched_;
  std::vector<TagEvent> received_;
};

}  // namespace perfbench
