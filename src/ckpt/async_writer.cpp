#include "ckpt/async_writer.hpp"

namespace lck {

AsyncCheckpointWriter::AsyncCheckpointWriter()
    : worker_([this] { worker_loop(); }) {}

AsyncCheckpointWriter::~AsyncCheckpointWriter() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  worker_.join();
}

void AsyncCheckpointWriter::submit(int version, Job job, Help help) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    require(!done_.contains(version),
            "async writer: version already has an unfetched result");
    for (const auto& [v, j] : queue_)
      require(v != version, "async writer: version already queued");
    queue_.emplace_back(version, std::move(job));
    if (help) help_[version] = std::move(help);
  }
  cv_.notify_all();
}

CheckpointRecord AsyncCheckpointWriter::wait(int version) {
  std::unique_lock<std::mutex> lock(mu_);
  if (const auto it = help_.find(version); it != help_.end()) {
    const Help help = std::move(it->second);
    help_.erase(it);
    lock.unlock();
    help();
    lock.lock();
  }
  cv_.wait(lock, [&] { return done_.contains(version); });
  Outcome outcome = std::move(done_.at(version));
  done_.erase(version);
  if (outcome.error) std::rethrow_exception(outcome.error);
  return outcome.record;
}

bool AsyncCheckpointWriter::finished(int version) const {
  const std::lock_guard<std::mutex> lock(mu_);
  return done_.contains(version);
}

std::size_t AsyncCheckpointWriter::in_flight() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return queue_.size() + running_;
}

void AsyncCheckpointWriter::worker_loop() {
  for (;;) {
    std::pair<int, Job> next;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      // Drain every queued job before honoring stop_, so a destructor
      // racing a submit never strands a staged snapshot.
      if (queue_.empty()) return;
      next = std::move(queue_.front());
      queue_.pop_front();
      ++running_;
    }

    Outcome outcome;
    try {
      outcome.record = next.second();
    } catch (...) {
      outcome.error = std::current_exception();
    }

    {
      const std::lock_guard<std::mutex> lock(mu_);
      done_.emplace(next.first, std::move(outcome));
      --running_;
    }
    cv_.notify_all();
  }
}

// ----- DrainBoard -------------------------------------------------------------

bool DrainBoard::claimable() const noexcept {
  return !closed_ && drain_owns_ && helper_task_ == kNone &&
         next_ < tasks_.size();
}

void DrainBoard::publish(std::vector<Task> tasks) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    require(!published_, "drain board: tasks already published");
    tasks_ = std::move(tasks);
    published_ = true;
  }
  cv_.notify_all();
}

std::vector<byte_t> DrainBoard::take(std::size_t i) {
  std::unique_lock<std::mutex> lock(mu_);
  if (helper_task_ == i) {
    // The joiner's chunk: wait for it rather than compress it twice.
    drain_owns_ = false;
    cv_.wait(lock, [&] { return helper_done_; });
    std::vector<byte_t> payload = std::move(helper_payload_);
    const std::exception_ptr error = std::exchange(helper_error_, nullptr);
    helper_task_ = kNone;
    helper_done_ = false;
    if (error) std::rethrow_exception(error);
    return payload;
  }
  require(i == next_, "drain board: tasks must be taken in order");
  const Task task = tasks_[i];
  next_ = i + 1;
  drain_owns_ = true;  // the joiner may now claim task i + 1
  lock.unlock();
  cv_.notify_all();
  return task.comp->compress(task.slice);
}

void DrainBoard::close() {
  std::unique_lock<std::mutex> lock(mu_);
  closed_ = true;
  cv_.notify_all();
  cv_.wait(lock, [&] { return helper_task_ == kNone || helper_done_; });
}

std::size_t DrainBoard::help() {
  std::size_t helped = 0;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_.wait(lock, [&] {
      return closed_ || (published_ && next_ >= tasks_.size()) || claimable();
    });
    if (!claimable()) return helped;
    const std::size_t i = next_++;
    const Task task = tasks_[i];
    helper_task_ = i;
    lock.unlock();
    std::vector<byte_t> payload;
    std::exception_ptr error;
    try {
      payload = task.comp->compress(task.slice);
    } catch (...) {
      error = std::current_exception();
    }
    lock.lock();
    helper_payload_ = std::move(payload);
    helper_error_ = error;
    helper_done_ = true;
    if (!error) ++helped;
    cv_.notify_all();
  }
}

}  // namespace lck
