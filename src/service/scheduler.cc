#include "service/scheduler.h"

#include <string>
#include <utility>

namespace s2::service {

std::string_view RequestKindToString(RequestKind kind) {
  switch (kind) {
    case RequestKind::kSimilarTo:
      return "similar_to";
    case RequestKind::kSimilarToDtw:
      return "similar_to_dtw";
    case RequestKind::kPeriodsOf:
      return "periods_of";
    case RequestKind::kBurstsOf:
      return "bursts_of";
    case RequestKind::kQueryByBurst:
      return "query_by_burst";
    case RequestKind::kApproxKnn:
      return "approx_knn";
  }
  return "unknown";
}

Scheduler::Scheduler(const Options& options,
                     std::function<QueryResponse(const QueryRequest&)> handler,
                     MetricsRegistry* metrics)
    : options_(options),
      handler_(std::move(handler)),
      pool_(options.threads) {
  if (metrics != nullptr) {
    accepted_ = metrics->counter("server_accepted");
    rejected_ = metrics->counter("server_rejected");
    completed_ = metrics->counter("server_completed");
    expired_ = metrics->counter("server_expired");
    cancelled_count_ = metrics->counter("server_cancelled");
    for (RequestKind kind :
         {RequestKind::kSimilarTo, RequestKind::kSimilarToDtw,
          RequestKind::kPeriodsOf, RequestKind::kBurstsOf,
          RequestKind::kQueryByBurst, RequestKind::kApproxKnn}) {
      kind_counters_[static_cast<size_t>(kind)] = metrics->counter(
          "server_requests_" + std::string(RequestKindToString(kind)));
    }
    latency_ = metrics->histogram("server_latency");
  }
}

Scheduler::~Scheduler() { Shutdown(); }

Result<RequestTicket> Scheduler::Submit(const QueryRequest& request) {
  if (shutdown_.load(std::memory_order_acquire)) {
    if (rejected_ != nullptr) rejected_->Increment();
    return Status::Unavailable("Scheduler: shut down");
  }
  // Claim a slot in the admission window. The compare-exchange never raises
  // in_flight_ while the window is full, so in_flight() never reads past
  // queue_capacity, not even for a submitter that is about to be rejected.
  size_t claimed = in_flight_.load(std::memory_order_relaxed);
  do {
    if (claimed >= options_.queue_capacity) {
      if (rejected_ != nullptr) rejected_->Increment();
      return Status::Unavailable("Scheduler: queue full (" +
                                 std::to_string(options_.queue_capacity) +
                                 " in flight)");
    }
  } while (!in_flight_.compare_exchange_weak(claimed, claimed + 1,
                                             std::memory_order_acq_rel,
                                             std::memory_order_relaxed));
  if (accepted_ != nullptr) accepted_->Increment();
  if (kind_counters_[static_cast<size_t>(request.kind)] != nullptr) {
    kind_counters_[static_cast<size_t>(request.kind)]->Increment();
  }

  auto promise = std::make_shared<std::promise<QueryResponse>>();
  auto cancelled = std::make_shared<std::atomic<bool>>(false);
  RequestTicket ticket;
  ticket.future_ = promise->get_future();
  ticket.cancelled_ = cancelled;

  using Clock = std::chrono::steady_clock;
  const Clock::time_point deadline = request.timeout.count() > 0
                                         ? Clock::now() + request.timeout
                                         : Clock::time_point::max();

  const bool enqueued = pool_.Submit([this, request, promise, cancelled,
                                      deadline] {
    QueryResponse response;
    if (cancelled->load(std::memory_order_relaxed)) {
      response.status = Status::Cancelled("Scheduler: cancelled before execution");
      if (cancelled_count_ != nullptr) cancelled_count_->Increment();
    } else if (Clock::now() > deadline) {
      response.status =
          Status::DeadlineExceeded("Scheduler: deadline passed in queue");
      if (expired_ != nullptr) expired_->Increment();
    } else {
      const Clock::time_point start = Clock::now();
      response = handler_(request);
      response.latency = std::chrono::duration_cast<std::chrono::microseconds>(
          Clock::now() - start);
      if (latency_ != nullptr) {
        latency_->Record(static_cast<uint64_t>(response.latency.count()));
      }
    }
    if (completed_ != nullptr) completed_->Increment();
    in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    promise->set_value(std::move(response));
  });

  if (!enqueued) {
    // Pool refused (shutdown raced the admission check): fail the request
    // ourselves so the future is never left broken.
    in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    if (rejected_ != nullptr) rejected_->Increment();
    QueryResponse response;
    response.status = Status::Unavailable("Scheduler: shut down");
    promise->set_value(std::move(response));
  }
  return ticket;
}

void Scheduler::Shutdown() {
  shutdown_.store(true, std::memory_order_release);
  pool_.Shutdown();
}

}  // namespace s2::service
