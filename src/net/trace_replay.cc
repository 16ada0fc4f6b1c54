#include "net/trace_replay.h"

#include <poll.h>

#include <bit>
#include <cerrno>
#include <deque>
#include <vector>

#include "online/online_partitioner.h"
#include "util/check.h"

namespace hetsched::net {

namespace {

// Generated traces number tasks densely from 0, but hand-written parsed
// traces may skip numbers — size the per-task table by the largest one.
std::size_t task_slot_count(const ChurnTrace& trace) {
  std::size_t n = 0;
  for (const ChurnEvent& ev : trace.events) {
    const auto need = static_cast<std::size_t>(ev.task) + 1;
    if (need > n) n = need;
  }
  return n;
}

}  // namespace

std::uint64_t offline_decision_checksum(const Platform& platform,
                                        const ChurnTrace& trace,
                                        AdmissionKind kind, double alpha,
                                        PartitionEngine engine,
                                        const admit::AdmitConfig& admit_cfg) {
  OnlinePartitioner ctl(platform, kind, alpha, engine, admit_cfg);
  ctl.reserve(trace.arrivals);
  std::uint64_t h = kFnv1aSeed;
  struct Slot {
    bool admitted = false;
    std::uint64_t server_id = 0;
  };
  std::vector<Slot> tasks(task_slot_count(trace));
  for (const ChurnEvent& ev : trace.events) {
    Slot& st = tasks[ev.task];
    if (ev.kind == ChurnEvent::Kind::kArrival) {
      const AdmitDecision d = ctl.admit(ev.params);
      h = fnv1a(h, d.admitted ? 1 : 0);
      h = fnv1a(h, d.admitted ? d.machine : 0);
      h = fnv1a(h, std::bit_cast<std::uint64_t>(d.utilization));
      st.admitted = d.admitted;
      st.server_id = d.id;
    } else if (st.admitted) {
      h = fnv1a(h, ctl.depart(st.server_id) ? 1 : 0);
      st.admitted = false;
    }
    // Departures of rejected arrivals fold nothing (see the header).
  }
  return h;
}

namespace {

// Resumable, non-blocking replay of one trace over one connection.
//
// Per step(): submit due trace events while the pipeline window has room
// (departures wait until their arrival's response assigned a server-side
// id), try_flush the queued frames, and drain every response the socket
// already holds.  step() never blocks; while it returns true, poll the
// client's fd for POLLIN when want_read() and POLLOUT when want_write(),
// then step again.
class PipelinedReplay {
 public:
  // The trace must outlive the replay.
  PipelinedReplay(const ChurnTrace& trace, std::uint16_t shard,
                  std::size_t window)
      : trace_(trace), shard_(shard), window_(window),
        tasks_(task_slot_count(trace)) {
    HETSCHED_CHECK(window >= 1);
  }

  // Advances as far as the socket allows right now; false once the trace
  // is fully replayed (summary().ok) or the transport failed.
  bool step(Client& client);

  bool want_read() const { return !pending_.empty(); }
  bool want_write() const { return unflushed_; }
  const ReplaySummary& summary() const { return sum_; }

 private:
  // Per-arrival outcome as the driver learns it from responses.
  enum class Outcome : std::uint8_t {
    kPending,  // admit request sent, response not yet seen
    kAdmitted,
    kLost,  // rejected, retried, or errored — no server-side id exists
  };
  struct TaskState {
    Outcome outcome = Outcome::kPending;
    std::uint64_t server_id = 0;
  };
  struct Pending {
    bool arrival = true;
    std::uint64_t task = 0;  // trace-local task number
  };

  bool resolve(const Response& resp);  // false on a protocol violation

  const ChurnTrace& trace_;
  std::uint16_t shard_;
  std::size_t window_;
  bool unflushed_ = false;
  std::size_t next_event_ = 0;
  std::uint64_t next_request_id_ = 0;
  ReplaySummary sum_;
  std::vector<TaskState> tasks_;
  std::deque<Pending> pending_;
};

// Folds the response for the pending-request FIFO head into the summary.
bool PipelinedReplay::resolve(const Response& resp) {
  if (pending_.empty()) return false;  // a response nothing asked for
  const Pending p = pending_.front();
  pending_.pop_front();
  if (resp.status == Status::kRetryLater) {
    ++sum_.retried;
    if (p.arrival) tasks_[p.task].outcome = Outcome::kLost;
    return true;
  }
  if (p.arrival) {
    sum_.checksum =
        fnv1a(sum_.checksum, resp.status == Status::kAdmitted ? 1 : 0);
    sum_.checksum = fnv1a(sum_.checksum,
                          resp.status == Status::kAdmitted ? resp.machine : 0);
    sum_.checksum = fnv1a(sum_.checksum, resp.value);
    TaskState& st = tasks_[p.task];
    if (resp.status == Status::kAdmitted) {
      ++sum_.admitted;
      st.outcome = Outcome::kAdmitted;
      st.server_id = resp.task_id;
    } else {
      if (resp.status == Status::kRejected) {
        ++sum_.rejected;
      } else {
        ++sum_.bad;
      }
      st.outcome = Outcome::kLost;
    }
  } else {
    sum_.checksum =
        fnv1a(sum_.checksum, resp.status == Status::kDeparted ? 1 : 0);
    if (resp.status == Status::kDeparted) {
      ++sum_.departed;
    } else if (resp.status == Status::kStaleId) {
      ++sum_.stale;
    } else {
      ++sum_.bad;
    }
  }
  return true;
}

bool PipelinedReplay::step(Client& client) {
  bool progressed = true;
  while (progressed) {
    progressed = false;
    // Submit due events while the window has room — but at most
    // kSubmitQuantum per pass, so a refill after a departure-blocked
    // stall interleaves with flush/drain below instead of committing a
    // full window in one burst (burst refills are what a pipelined
    // client's latency tail is made of).  A departure waits until its
    // arrival's response has assigned a server-side task id (responses
    // arrive in request order, so the wait terminates).
    constexpr std::size_t kSubmitQuantum = 64;
    std::size_t submitted = 0;
    while (next_event_ < trace_.events.size() && pending_.size() < window_ &&
           submitted < kSubmitQuantum) {
      const ChurnEvent& ev = trace_.events[next_event_];
      if (ev.kind == ChurnEvent::Kind::kArrival) {
        // A zero (implicit) deadline keeps the legacy frame image.
        client.queue_request(Request::admit(shard_, next_request_id_++,
                                            ev.params.exec, ev.params.period,
                                            ev.params.deadline));
        pending_.push_back(Pending{true, ev.task});
      } else {
        TaskState& st = tasks_[ev.task];
        if (st.outcome == Outcome::kPending) break;
        ++next_event_;
        if (st.outcome != Outcome::kAdmitted) continue;  // nothing to depart
        client.queue_request(
            Request::depart(shard_, next_request_id_++, st.server_id));
        pending_.push_back(Pending{false, ev.task});
        st.outcome = Outcome::kLost;  // at most one depart per task
        ++sum_.requests;
        ++submitted;
        unflushed_ = true;
        progressed = true;
        continue;
      }
      ++next_event_;
      ++sum_.requests;
      ++submitted;
      unflushed_ = true;
      progressed = true;
    }
    // Push queued frames as far as the socket accepts right now.
    if (unflushed_) {
      if (!client.try_flush()) return false;
      unflushed_ = client.pending_bytes() > 0;
    }
    // Drain every response already buffered or readable.
    while (!pending_.empty()) {
      Response resp;
      const int r = client.try_recv_response(&resp);
      if (r < 0 || (r > 0 && !resolve(resp))) return false;
      if (r == 0) break;
      progressed = true;
    }
  }
  sum_.ok =
      next_event_ >= trace_.events.size() && pending_.empty() && !unflushed_;
  return !sum_.ok;
}

}  // namespace

ReplaySummary replay_trace_over_client(Client& client, const ChurnTrace& trace,
                                       std::uint16_t shard, std::size_t window,
                                       int timeout_ms) {
  PipelinedReplay rp(trace, shard, window);
  while (rp.step(client)) {
    pollfd p{client.fd(), 0, 0};
    if (rp.want_read()) p.events |= POLLIN;
    if (rp.want_write()) p.events |= POLLOUT;
    if (p.events == 0) p.events = POLLIN;
    const int n = ::poll(&p, 1, timeout_ms);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // no server progress within the budget
  }
  return rp.summary();
}

}  // namespace hetsched::net
