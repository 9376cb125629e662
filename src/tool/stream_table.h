// Per-(rank, callsite) stream table of the record and replay sessions.
//
// One row per rank, sized once at construction; a row holds that rank's
// streams sorted by callsite. Applications have a handful of receive
// callsites (MCB has three), so a lookup indexes the row and scans one to
// three entries. Visiting the rows in rank order yields the streams in
// runtime::StreamKey order, (rank, callsite), which fixes the flush order
// and with it the sealed container bytes.
//
// The table takes no lock. Only the owning rank's hooks touch a row, and
// the simulator runs one task per rank per window, so a row has a
// single writer at a time; the outer vector is never resized. Whole-table
// walks run while the workers are stopped (window barriers, finalize).
#pragma once

#include <cstddef>
#include <vector>

#include "minimpi/types.h"
#include "runtime/storage.h"

namespace cdc::tool {

template <typename Stream>
class StreamTable {
 public:
  explicit StreamTable(int num_ranks)
      : rows_(static_cast<std::size_t>(num_ranks)) {}

  /// The stream of (rank, callsite); `make()` builds it on first touch.
  template <typename Make>
  Stream& get(minimpi::Rank rank, minimpi::CallsiteId callsite, Make&& make) {
    std::vector<Entry>& row = rows_[static_cast<std::size_t>(rank)];
    auto it = row.begin();
    while (it != row.end() && it->callsite < callsite) ++it;
    if (it == row.end() || it->callsite != callsite)
      it = row.insert(it, Entry{callsite, make()});
    return it->stream;
  }

  /// Calls f(key, stream) for every stream of `rank`, in callsite order.
  template <typename F>
  void for_each_in_row(minimpi::Rank rank, F&& f) {
    const auto r = static_cast<std::size_t>(rank);
    for (Entry& e : rows_[r]) f(key(r, e), e.stream);
  }

  /// Calls f(key, stream) for every stream in (rank, callsite) order.
  template <typename F>
  void for_each(F&& f) {
    for (std::size_t r = 0; r < rows_.size(); ++r)
      for (Entry& e : rows_[r]) f(key(r, e), e.stream);
  }
  template <typename F>
  void for_each(F&& f) const {
    for (std::size_t r = 0; r < rows_.size(); ++r)
      for (const Entry& e : rows_[r]) f(key(r, e), e.stream);
  }

  [[nodiscard]] std::size_t size() const noexcept {
    std::size_t n = 0;
    for (const auto& row : rows_) n += row.size();
    return n;
  }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }

 private:
  struct Entry {
    minimpi::CallsiteId callsite;
    Stream stream;
  };

  static runtime::StreamKey key(std::size_t rank, const Entry& e) noexcept {
    return runtime::StreamKey{static_cast<minimpi::Rank>(rank), e.callsite};
  }

  std::vector<std::vector<Entry>> rows_;
};

}  // namespace cdc::tool
