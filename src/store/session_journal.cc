#include "store/session_journal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>

#include "compress/crc32.h"
#include "obs/metrics.h"
#include "support/binary.h"
#include "support/file.h"

namespace cdc::store {

namespace {

constexpr std::uint8_t kJournalMagic[8] = {'C', 'D', 'C', 'J',
                                           'R', 'N', 'L', '1'};
constexpr std::uint8_t kJournalVersion = 1;

/// Serializes one block: varint length, payload, CRC-32 of the payload.
std::vector<std::uint8_t> wrap_block(const support::ByteWriter& payload) {
  support::ByteWriter out;
  out.varint(payload.size());
  out.bytes(payload.view());
  out.u32(compress::crc32(payload.view()));
  return std::move(out).take();
}

/// Pulls the next block's payload off `in`; false on truncation or a CRC
/// mismatch (both mean "stop here, the prefix before this block stands").
bool next_block(support::ByteReader& in, std::span<const std::uint8_t>& out) {
  std::uint64_t len = 0;
  if (!in.try_varint(len) || len > (1ull << 30)) return false;
  if (!in.try_bytes(static_cast<std::size_t>(len), out)) return false;
  std::uint32_t crc = 0;
  if (!in.try_u32(crc)) return false;
  return compress::crc32(out) == crc;
}

bool write_all(int fd, std::span<const std::uint8_t> bytes) {
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

std::optional<JournalState> read_session_journal(const std::string& path) {
  const std::optional<std::vector<std::uint8_t>> file =
      support::read_file(path);
  if (!file.has_value() || file->size() < sizeof(kJournalMagic))
    return std::nullopt;
  const std::vector<std::uint8_t>& bytes = *file;
  for (std::size_t i = 0; i < sizeof(kJournalMagic); ++i)
    if (bytes[i] != kJournalMagic[i]) return std::nullopt;

  support::ByteReader reader(
      std::span<const std::uint8_t>(bytes).subspan(sizeof(kJournalMagic)));
  std::span<const std::uint8_t> block;
  if (!next_block(reader, block)) return std::nullopt;

  JournalState state;
  {
    support::ByteReader header(block);
    std::uint8_t version = 0;
    std::span<const std::uint8_t> tenant;
    std::span<const std::uint8_t> record;
    if (!header.try_u8(version) || version != kJournalVersion ||
        !header.try_sized_bytes(tenant) || !header.try_sized_bytes(record) ||
        !header.try_u8(state.level) || !header.exhausted())
      return std::nullopt;
    state.tenant.assign(reinterpret_cast<const char*>(tenant.data()),
                        tenant.size());
    state.record.assign(reinterpret_cast<const char*>(record.data()),
                        record.size());
  }

  // Batch entries: keep consuming until the first invalid block; everything
  // before it is the durable truth. Sequence numbers must advance, and a
  // snapshot's totals must never shrink — a violation means the tail was
  // scribbled on, so the prefix before it is all we trust.
  while (true) {
    if (!next_block(reader, block)) break;
    support::ByteReader entry(block);
    std::uint64_t seq = 0;
    std::uint64_t frames_total = 0;
    std::uint64_t raw_bytes_total = 0;
    std::uint64_t container_bytes = 0;
    std::uint64_t frames_in_batch = 0;
    if (!entry.try_varint(seq) || !entry.try_varint(frames_total) ||
        !entry.try_varint(raw_bytes_total) ||
        !entry.try_varint(container_bytes) ||
        !entry.try_varint(frames_in_batch))
      break;
    if (seq <= state.last_seq || frames_total < state.frames_total ||
        raw_bytes_total < state.raw_bytes_total ||
        container_bytes < state.container_bytes)
      break;
    if (frames_total - state.frames_total != frames_in_batch) break;
    std::vector<std::optional<runtime::EpochMeta>> metas;
    metas.reserve(static_cast<std::size_t>(frames_in_batch));
    bool ok = true;
    for (std::uint64_t i = 0; i < frames_in_batch; ++i) {
      std::uint8_t flag = 0;
      if (!entry.try_u8(flag) || flag > 1) {
        ok = false;
        break;
      }
      std::optional<runtime::EpochMeta> meta;
      if (flag == 1) {
        meta.emplace();
        if (!entry.try_varint(meta->matched) ||
            !entry.try_varint(meta->unmatched)) {
          ok = false;
          break;
        }
      }
      metas.push_back(meta);
    }
    if (!ok || !entry.exhausted()) break;
    state.last_seq = seq;
    state.frames_total = frames_total;
    state.raw_bytes_total = raw_bytes_total;
    state.container_bytes = container_bytes;
    state.metas.insert(state.metas.end(), metas.begin(), metas.end());
    ++state.entries;
  }
  return state;
}

std::unique_ptr<SessionJournal> SessionJournal::create(
    const std::string& path, const std::string& tenant,
    const std::string& record, std::uint8_t level) {
  const int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) return nullptr;
  support::ByteWriter header;
  header.u8(kJournalVersion);
  header.sized_bytes({reinterpret_cast<const std::uint8_t*>(tenant.data()),
                      tenant.size()});
  header.sized_bytes({reinterpret_cast<const std::uint8_t*>(record.data()),
                      record.size()});
  header.u8(level);
  std::vector<std::uint8_t> bytes(kJournalMagic,
                                  kJournalMagic + sizeof(kJournalMagic));
  const std::vector<std::uint8_t> block = wrap_block(header);
  bytes.insert(bytes.end(), block.begin(), block.end());
  if (!write_all(fd, bytes) || ::fsync(fd) != 0) {
    ::close(fd);
    ::unlink(path.c_str());
    return nullptr;
  }
  obs::counter("store.journal.created").add(1);
  return std::unique_ptr<SessionJournal>(new SessionJournal(path, fd));
}

std::unique_ptr<SessionJournal> SessionJournal::open_append(
    const std::string& path) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND);
  if (fd < 0) return nullptr;
  return std::unique_ptr<SessionJournal>(new SessionJournal(path, fd));
}

SessionJournal::~SessionJournal() {
  if (fd_ >= 0) ::close(fd_);
}

bool SessionJournal::append_batch(
    std::uint64_t seq,
    std::span<const std::optional<runtime::EpochMeta>> frames,
    std::uint64_t frames_total, std::uint64_t raw_bytes_total,
    std::uint64_t container_bytes) {
  support::ByteWriter entry;
  entry.varint(seq);
  entry.varint(frames_total);
  entry.varint(raw_bytes_total);
  entry.varint(container_bytes);
  entry.varint(frames.size());
  for (const std::optional<runtime::EpochMeta>& meta : frames) {
    entry.u8(meta.has_value() ? 1 : 0);
    if (meta.has_value()) {
      entry.varint(meta->matched);
      entry.varint(meta->unmatched);
    }
  }
  const std::vector<std::uint8_t> block = wrap_block(entry);
  if (!write_all(fd_, block) || ::fsync(fd_) != 0) return false;
  obs::counter("store.journal.entries").add(1);
  return true;
}

}  // namespace cdc::store
