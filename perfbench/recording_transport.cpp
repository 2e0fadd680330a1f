#include "recording_transport.hpp"

#include <algorithm>

namespace perfbench {

namespace net = trustddl::net;

void RecordingTransport::watch_receives(net::PartyId actor, std::string cls) {
  const std::lock_guard<std::mutex> lock(mu_);
  watched_.emplace_back(actor, std::move(cls));
}

void RecordingTransport::send(net::Message message) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    ClassTotals& totals = totals_[net::tag_class(message.tag)];
    totals.bytes += message.wire_size();
    totals.messages += 1;
  }
  inner_.send(std::move(message));
}

trustddl::Bytes RecordingTransport::blocking_recv(
    net::PartyId receiver, net::PartyId from, const std::string& tag,
    std::chrono::milliseconds timeout) {
  const auto start = Clock::now();
  trustddl::Bytes payload;
  try {
    payload = inner_.blocking_recv(receiver, from, tag, timeout);
  } catch (...) {
    // A timed-out wait is still receive wait: it is what a silent
    // peer costs.
    note_wait(receiver, tag, start, /*received=*/false);
    throw;
  }
  note_wait(receiver, tag, start, /*received=*/true);
  return payload;
}

void RecordingTransport::note_wait(net::PartyId receiver,
                                   const std::string& tag,
                                   Clock::time_point start, bool received) {
  const auto end = Clock::now();
  const std::string cls = net::tag_class(tag);
  const std::lock_guard<std::mutex> lock(mu_);
  ClassTotals& totals = totals_[cls];
  totals.recv_wait_us += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(end - start)
          .count());
  if (received && std::find(watched_.begin(), watched_.end(),
                            std::make_pair(receiver, cls)) != watched_.end()) {
    received_.push_back({end, receiver, tag});
  }
}

bool RecordingTransport::probe(net::PartyId receiver, net::PartyId from,
                               const std::string& tag, trustddl::Bytes& out) {
  return inner_.probe(receiver, from, tag, out);
}

void RecordingTransport::set_fault_injector(
    std::shared_ptr<net::FaultInjector> injector) {
  inner_.set_fault_injector(std::move(injector));
}

net::TrafficSnapshot RecordingTransport::traffic() const {
  return inner_.traffic();
}

void RecordingTransport::reset_traffic() {
  const std::lock_guard<std::mutex> lock(mu_);
  inner_.reset_traffic();
  totals_.clear();
  received_.clear();
}

std::map<std::string, ClassTotals> RecordingTransport::totals() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return totals_;
}

std::vector<TagEvent> RecordingTransport::received_events() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return received_;
}

}  // namespace perfbench
