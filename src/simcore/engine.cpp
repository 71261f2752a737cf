#include "simcore/engine.hpp"

#include <cstdlib>

#include "common/check.hpp"
#include "obs/obs.hpp"

namespace sage::sim {

SimEngine::SimEngine() = default;
SimEngine::~SimEngine() = default;

void EventHandle::cancel() {
  if (engine_ == nullptr || !engine_->live(slot_, gen_)) return;
  engine_->cancel_slot(slot_);
}

bool EventHandle::pending() const { return engine_ != nullptr && engine_->live(slot_, gen_); }

bool EventHandle::reschedule(SimTime t) {
  return pending() && reschedule(t, engine_->take_seq());
}

bool EventHandle::reschedule(SimTime t, std::uint64_t seq) {
  if (!pending()) return false;
  engine_->reschedule_slot(slot_, t, seq);
  return true;
}

EventHandle SimEngine::schedule_at(SimTime t, std::uint64_t seq, Callback fn) {
  SAGE_CHECK_MSG(t >= now_, "cannot schedule an event in the simulated past");
  SAGE_CHECK_MSG(seq < next_seq_, "sequence number was never handed out");
  SAGE_CHECK(fn != nullptr);
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  ++s.gen;  // even -> odd: live
  s.fn = std::move(fn);
  heap_.emplace_back();
  sift_up(heap_.size() - 1, Event{t, seq, slot});
  ++scheduled_;
  return EventHandle{this, slot, s.gen};
}

EventHandle SimEngine::schedule_after(SimDuration delay, Callback fn) {
  SAGE_CHECK_MSG(!delay.is_negative(), "negative delay");
  return schedule_at(now_ + delay, std::move(fn));
}

void SimEngine::release_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  ++s.gen;  // odd -> even: dead; stale handles now mismatch
  s.fn = nullptr;
  free_slots_.push_back(slot);
}

void SimEngine::cancel_slot(std::uint32_t slot) {
  remove_at(slots_[slot].pos);
  ++cancelled_;
  release_slot(slot);
}

void SimEngine::reschedule_slot(std::uint32_t slot, SimTime t, std::uint64_t seq) {
  SAGE_CHECK_MSG(t >= now_, "cannot reschedule an event into the simulated past");
  SAGE_CHECK_MSG(seq < next_seq_, "sequence number was never handed out");
  const std::size_t i = slots_[slot].pos;
  Event ev = heap_[i];
  ev.at = t;
  ev.seq = seq;
  restore(i, ev);
  ++rescheduled_;
}

// Hole-based sifts: `ev` is the entry being seated, index i the hole.
void SimEngine::sift_up(std::size_t i, Event ev) {
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!earlier(ev, heap_[parent])) break;
    place(i, heap_[parent]);
    i = parent;
  }
  place(i, ev);
}

void SimEngine::sift_down(std::size_t i, Event ev) {
  const std::size_t n = heap_.size();
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && earlier(heap_[child + 1], heap_[child])) ++child;
    if (!earlier(heap_[child], ev)) break;
    place(i, heap_[child]);
    i = child;
  }
  place(i, ev);
}

void SimEngine::restore(std::size_t i, const Event& ev) {
  if (i > 0 && earlier(ev, heap_[(i - 1) / 2])) {
    sift_up(i, ev);
  } else {
    sift_down(i, ev);
  }
}

void SimEngine::remove_at(std::size_t i) {
  const Event last = heap_.back();
  heap_.pop_back();
  if (i < heap_.size()) restore(i, last);
}

void SimEngine::enable_obs(const obs::ObsConfig& config) {
  if (obs_ == nullptr) obs_ = std::make_unique<obs::Observability>(config);
}

bool SimEngine::enable_obs_from_env() {
  const char* v = std::getenv("SAGE_OBS");
  if (v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0')) {
    enable_obs(obs::ObsConfig{});
  }
  return obs_ != nullptr;
}

void SimEngine::publish_obs_metrics() {
  if (obs_ == nullptr) return;
  auto& m = obs_->metrics();
  m.counter("sim.events.scheduled")->add(scheduled_ - pub_scheduled_);
  m.counter("sim.events.fired")->add(fired_ - pub_fired_);
  m.counter("sim.events.cancelled")->add(cancelled_ - pub_cancelled_);
  m.counter("sim.events.rescheduled")->add(rescheduled_ - pub_rescheduled_);
  pub_scheduled_ = scheduled_;
  pub_fired_ = fired_;
  pub_cancelled_ = cancelled_;
  pub_rescheduled_ = rescheduled_;
  m.gauge("sim.events.live")->set(static_cast<double>(live_events()));
  m.gauge("sim.time_seconds")->set(now_.to_seconds());
}

bool SimEngine::fire_next() {
  if (heap_.empty()) return false;
  const Event ev = heap_.front();
  remove_at(0);
  Callback fn = std::move(slots_[ev.slot].fn);
  release_slot(ev.slot);
  now_ = ev.at;
  ++fired_;
  fn();
  return true;
}

std::uint64_t SimEngine::run() {
  std::uint64_t n = 0;
  while (fire_next()) ++n;
  return n;
}

std::uint64_t SimEngine::run_until(SimTime t) {
  SAGE_CHECK(t >= now_);
  std::uint64_t n = 0;
  while (!heap_.empty() && heap_.front().at <= t) {
    fire_next();
    ++n;
  }
  now_ = t;
  return n;
}

bool SimEngine::step() { return fire_next(); }

bool SimEngine::peek_next_time(SimTime* t) const {
  if (heap_.empty()) return false;
  if (t != nullptr) *t = heap_.front().at;
  return true;
}

PeriodicTask::PeriodicTask(SimEngine& engine, SimDuration interval, SimEngine::Callback fn)
    : engine_(engine), interval_(interval), fn_(std::move(fn)) {
  SAGE_CHECK(interval_ > SimDuration::zero());
  SAGE_CHECK(fn_ != nullptr);
}

PeriodicTask::~PeriodicTask() { stop(); }

void PeriodicTask::start() {
  if (running_) return;
  running_ = true;
  arm();
}

void PeriodicTask::stop() {
  running_ = false;
  next_.cancel();
}

void PeriodicTask::arm() {
  next_ = engine_.schedule_after(interval_, [this] {
    if (!running_) return;
    fn_();
    if (running_) arm();
  });
}

}  // namespace sage::sim
