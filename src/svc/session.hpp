// Client sessions and the two-tier extraction cache topology. Every named
// client gets a private peec::ExtractionCache tier whose parent is the
// service's one shared read-mostly global tier: a session's jobs probe
// their own tier first, fall through to the global tier, and publish every
// computed value to the global root - so one client's expensive extraction
// is amortized across every later client asking for the same geometry.
//
// Sharing is safe by construction: cache values are pure functions of their
// keys (canonical pose + quadrature baked in), so the global
// tier can be populated by any mix of sessions in any order without
// changing a single result bit. That property is what lets the service
// promise "identical jobs are bit-identical regardless of queue
// interleaving" while still sharing work.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "src/core/thread_annotations.hpp"
#include "src/peec/extraction_cache.hpp"

namespace emi::svc {

class SessionManager {
 public:
  SessionManager() : global_(std::make_shared<peec::ExtractionCache>()) {}

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  // The client's private tier (created on first use), parented to the
  // global tier. The empty client name is the shared anonymous session.
  std::shared_ptr<peec::ExtractionCache> session_cache(const std::string& client);

  const std::shared_ptr<peec::ExtractionCache>& global_cache() const {
    return global_;
  }

  std::size_t session_count() const;

 private:
  std::shared_ptr<peec::ExtractionCache> global_;  // immutable after ctor
  mutable core::Mutex mu_;
  std::map<std::string, std::shared_ptr<peec::ExtractionCache>> sessions_
      EMI_GUARDED_BY(mu_);
};

}  // namespace emi::svc
