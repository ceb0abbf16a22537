#include "mdcd/views.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace synergy {

void ViewLog::add(MsgView view) {
  if (view.suspect) {
    suspects_.push_back(static_cast<std::uint32_t>(views_.size()));
  }
  views_.push_back(view);
}

template <typename Covered>
std::size_t ViewLog::upgrade(std::uint64_t epoch, Covered covered) {
  std::size_t kept = 0;
  for (const std::uint32_t i : suspects_) {
    MsgView& v = views_[i];
    if (covered(v)) {
      v.suspect = false;
      upgrades_.push_back(Upgrade{i, epoch});
    } else {
      suspects_[kept++] = i;
    }
  }
  const std::size_t changed = suspects_.size() - kept;
  suspects_.resize(kept);
  return changed;
}

std::size_t ViewLog::validate_all(std::uint64_t epoch) {
  return upgrade(epoch, [](const MsgView&) { return true; });
}

std::size_t ViewLog::validate_covered(MsgSeq watermark, std::uint64_t epoch) {
  return upgrade(epoch, [watermark](const MsgView& v) {
    return v.contam_sn <= watermark;
  });
}

ViewLog ViewLog::prefix_at(std::size_t len, std::uint64_t epoch) const {
  SYNERGY_EXPECTS(len <= views_.size());
  ViewLog out;
  out.views_.assign(views_.begin(), views_.begin() + len);
  for (const std::uint32_t i : suspects_) {
    if (i >= len) break;
    out.suspects_.push_back(i);
  }
  // Upgrades after `epoch` are a suffix of the journal.
  const auto late = std::partition_point(
      upgrades_.begin(), upgrades_.end(),
      [epoch](const Upgrade& u) { return u.epoch <= epoch; });
  for (auto it = late; it != upgrades_.end(); ++it) {
    if (it->index >= len) continue;
    out.views_[it->index].suspect = true;
    out.suspects_.push_back(it->index);
  }
  std::sort(out.suspects_.begin(), out.suspects_.end());
  return out;
}

void ViewHistory::validate_all() {
  ++epoch_;
  sent_.validate_all(epoch_);
  recv_.validate_all(epoch_);
}

void ViewHistory::validate_covered(MsgSeq watermark) {
  ++epoch_;
  sent_.validate_covered(watermark, epoch_);
  recv_.validate_covered(watermark, epoch_);
}

ViewMark ViewHistory::mark() const {
  return ViewMark{static_cast<std::uint32_t>(sent_.size()),
                  static_cast<std::uint32_t>(recv_.size()), epoch_};
}

ViewLog ViewHistory::sent_at(const ViewMark& mark) const {
  return sent_.prefix_at(mark.sent_len, mark.epoch);
}

ViewLog ViewHistory::recv_at(const ViewMark& mark) const {
  return recv_.prefix_at(mark.recv_len, mark.epoch);
}

std::shared_ptr<ViewHistory> ViewHistory::fork(const ViewMark& mark) const {
  auto copy = std::make_shared<ViewHistory>();
  copy->sent_ = sent_at(mark);
  copy->recv_ = recv_at(mark);
  copy->epoch_ = mark.epoch;
  return copy;
}

}  // namespace synergy
