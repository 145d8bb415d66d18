#include "serve/session.hpp"

#include <algorithm>
#include <utility>

#include "common/ensure.hpp"

namespace flashabft::serve {

SessionTable::SessionTable(std::size_t max_active, std::size_t max_parked)
    : max_active_(max_active), max_parked_(max_parked) {
  FLASHABFT_ENSURE_MSG(max_active > 0,
                       "session table needs at least one slot");
}

GenerationSession* SessionTable::activate_locked(
    std::unique_ptr<GenerationSession> session) {
  session->key = next_key_++;
  GenerationSession* raw = session.get();
  active_.emplace(raw->key, std::move(session));
  peak_active_ = std::max(peak_active_, active_.size());
  return raw;
}

SessionAdmission SessionTable::admit(
    std::unique_ptr<GenerationSession> session) {
  FLASHABFT_ENSURE(session != nullptr);
  SessionAdmission admission;
  std::lock_guard lock(mutex_);
  if (active_.size() < max_active_) {
    if (parked_.empty()) {
      admission.activated = activate_locked(std::move(session));
    } else {
      // Starvation guard: the free slot goes to the oldest parked session
      // (age-based promotion); the fresh arrival parks behind it. Promoting
      // first also guarantees FIFO room for the newcomer.
      std::unique_ptr<GenerationSession> oldest = std::move(parked_.front());
      parked_.pop_front();
      admission.activated = activate_locked(std::move(oldest));
      parked_.push_back(std::move(session));
      admission.parked = true;
    }
  } else if (parked_.size() < max_parked_) {
    parked_.push_back(std::move(session));
    admission.parked = true;
  } else {
    admission.shed = std::move(session);
  }
  return admission;
}

std::unique_ptr<GenerationSession> SessionTable::release(std::uint64_t key) {
  std::lock_guard lock(mutex_);
  const auto it = active_.find(key);
  FLASHABFT_ENSURE_MSG(it != active_.end(), "unknown session " << key);
  std::unique_ptr<GenerationSession> finished = std::move(it->second);
  active_.erase(it);
  return finished;
}

GenerationSession* SessionTable::try_activate_parked() {
  std::lock_guard lock(mutex_);
  if (parked_.empty() || active_.size() >= max_active_) return nullptr;
  std::unique_ptr<GenerationSession> oldest = std::move(parked_.front());
  parked_.pop_front();
  return activate_locked(std::move(oldest));
}

std::size_t SessionTable::active() const {
  std::lock_guard lock(mutex_);
  return active_.size();
}

std::size_t SessionTable::parked() const {
  std::lock_guard lock(mutex_);
  return parked_.size();
}

std::size_t SessionTable::peak_active() const {
  std::lock_guard lock(mutex_);
  return peak_active_;
}

}  // namespace flashabft::serve
