#include "record/epoch.h"

#include <algorithm>
#include <limits>

#include "obs/metrics.h"
#include "record/sender_slots.h"
#include "support/check.h"

namespace cdc::record {

std::size_t find_clean_cut(std::span<const ReceiveEvent> events,
                           const PendingMins& pending_min,
                           std::size_t max_matched) {
  constexpr std::uint64_t kInf = std::numeric_limits<std::uint64_t>::max();

  // Matched events only, in observed order.
  std::vector<const ReceiveEvent*> matched;
  matched.reserve(events.size());
  for (const ReceiveEvent& e : events)
    if (e.flag) matched.push_back(&e);
  const std::size_t n = matched.size();
  const std::size_t cap = std::min(n, max_matched);

  // Flat per-sender state: sorted distinct senders, each event's slot, and
  // one CSR array of per-sender clocks in observed order (sender k owns
  // [first[k], first[k + 1])) whose suffix minima replace them in place.
  detail::SenderSlots senders;
  detail::assign_sender_slots(
      n, [&](std::size_t i) { return matched[i]->rank; }, senders);
  const std::size_t num_senders = senders.distinct.size();
  std::vector<std::uint32_t> first(num_senders + 1, 0);
  for (const std::uint32_t k : senders.slot) ++first[k + 1];
  for (std::size_t k = 0; k < num_senders; ++k) first[k + 1] += first[k];
  // next[k]: sender k's first CSR entry not yet inside the cut.
  std::vector<std::uint32_t> next(first.begin(), first.end() - 1);
  std::vector<std::uint64_t> suffix_min(n);
  for (std::size_t i = 0; i < n; ++i)
    suffix_min[next[senders.slot[i]]++] = matched[i]->clock;
  for (std::size_t k = 0; k < num_senders; ++k)
    for (std::uint32_t e = first[k + 1] - 1; e > first[k]; --e)
      suffix_min[e - 1] = std::min(suffix_min[e - 1], suffix_min[e]);
  std::copy(first.begin(), first.end() - 1, next.begin());

  // Pending minima of the buffer's senders (a merge of two sorted runs).
  std::vector<std::uint64_t> pending(num_senders, kInf);
  {
    auto it = pending_min.begin();
    for (std::size_t k = 0; k < num_senders && it != pending_min.end();) {
      if (it->first < senders.distinct[k]) {
        ++it;
      } else {
        if (it->first == senders.distinct[k]) pending[k] = it->second;
        ++k;
      }
    }
  }

  // Walk cut positions left to right, maintaining the number of senders
  // whose prefix max is not strictly below everything still outside.
  std::vector<std::uint64_t> prefix_max(num_senders, 0);
  std::vector<std::uint8_t> violating(num_senders, 0);
  std::size_t violations = 0;
  std::size_t best = 0;
  for (std::size_t cut = 1; cut <= cap; ++cut) {
    const ReceiveEvent& e = *matched[cut - 1];
    const std::uint32_t k = senders.slot[cut - 1];
    prefix_max[k] = std::max(prefix_max[k], e.clock);
    const std::uint32_t rest = ++next[k];
    const std::uint64_t outside =
        std::min(rest < first[k + 1] ? suffix_min[rest] : kInf, pending[k]);
    const std::uint8_t now_violating = prefix_max[k] >= outside ? 1 : 0;
    if (now_violating != violating[k]) {
      violating[k] = now_violating;
      violations += now_violating ? 1 : std::size_t(-1);
    }
    // A cut between a with_next event and its successor is illegal.
    if (violations == 0 && !e.with_next) best = cut;
  }
  static obs::Counter& cut_found = obs::counter("record.epoch.cut_found");
  static obs::Counter& cut_deferred =
      obs::counter("record.epoch.cut_deferred");
  (best > 0 ? cut_found : cut_deferred).add(1);
  return best;
}

std::vector<ReceiveEvent> take_cut(std::vector<ReceiveEvent>& events,
                                   std::size_t matched_count) {
  std::size_t seen = 0;
  std::size_t end = 0;
  for (; end < events.size() && seen < matched_count; ++end)
    if (events[end].flag) ++seen;
  CDC_CHECK_MSG(seen == matched_count, "cut exceeds buffered matched events");
  std::vector<ReceiveEvent> prefix(events.begin(),
                                   events.begin() + static_cast<long>(end));
  events.erase(events.begin(), events.begin() + static_cast<long>(end));
  return prefix;
}

}  // namespace cdc::record
