#include "corpus/corpus.h"

#include <algorithm>
#include <set>
#include <utility>

#include "compress/crc32.h"
#include "compress/deflate.h"
#include "obs/metrics.h"
#include "support/binary.h"
#include "support/check.h"

namespace cdc::corpus {

namespace {

constexpr std::uint8_t kMemberMagic = 'M';
constexpr std::uint8_t kFamilyMagic = 'F';
constexpr std::uint8_t kFormatVersion = 1;
constexpr std::uint8_t kFlagReference = 0x01;
/// Entropy-coding level for delta payloads and the gzip candidate.
constexpr compress::DeflateLevel kLevel = compress::DeflateLevel::kDefault;

runtime::StreamKey meta_stream() {
  return runtime::StreamKey{kCorpusMetaRank, 0};
}
runtime::StreamKey member_stream(std::uint32_t ordinal) {
  return runtime::StreamKey{kCorpusMemberRank, ordinal};
}

struct Counters {
  obs::Counter& members = obs::counter("corpus.members");
  obs::Counter& streams = obs::counter("corpus.streams");
  obs::Counter& raw_bytes = obs::counter("corpus.raw_bytes");
  obs::Counter& stored_bytes = obs::counter("corpus.stored_bytes");
  obs::Counter& enc_correcting = obs::counter("corpus.enc.delta_correcting");
  obs::Counter& enc_gzip = obs::counter("corpus.enc.gzip");
  obs::Counter& enc_raw = obs::counter("corpus.enc.raw");
  obs::Counter& delta_copied = obs::counter("corpus.delta.copied_bytes");
  obs::Counter& delta_literal = obs::counter("corpus.delta.literal_bytes");
  obs::Counter& delta_corrections = obs::counter("corpus.delta.corrections");
  obs::Counter& read_streams = obs::counter("corpus.read.streams");
};

Counters& counters() {
  static Counters c;
  return c;
}

obs::Counter& encoding_counter(MemberEncoding encoding) {
  switch (encoding) {
    case MemberEncoding::kDeltaCorrecting: return counters().enc_correcting;
    case MemberEncoding::kSelfGzip: return counters().enc_gzip;
    case MemberEncoding::kRaw: return counters().enc_raw;
  }
  return counters().enc_raw;
}

}  // namespace

std::string_view to_string(MemberEncoding encoding) noexcept {
  switch (encoding) {
    case MemberEncoding::kDeltaCorrecting: return "delta-correcting";
    case MemberEncoding::kSelfGzip: return "gzip";
    case MemberEncoding::kRaw: return "raw";
  }
  return "?";
}

Corpus::Corpus(std::string path) : writer_(std::move(path)) {}

const std::string& Corpus::path() const noexcept { return writer_.path(); }

std::uint32_t Corpus::add_member(const std::string& family,
                                 const std::string& member_name,
                                 const runtime::RecordStore& record,
                                 bool pin_reference) {
  CDC_CHECK_MSG(!sealed_, "corpus already sealed");
  const std::uint32_t ordinal = next_member_++;
  auto [fam_it, fresh_family] = families_.try_emplace(family);
  FamilyState& fam = fam_it->second;
  const bool is_reference = fresh_family || pin_reference;
  const std::uint32_t delta_ref = is_reference ? ordinal : fam.reference;

  std::vector<runtime::StreamKey> keys = record.keys();
  std::sort(keys.begin(), keys.end());

  support::ByteWriter manifest;
  manifest.u8(kMemberMagic);
  manifest.u8(kFormatVersion);
  manifest.sized_bytes(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(family.data()), family.size()));
  manifest.sized_bytes(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(member_name.data()),
      member_name.size()));
  manifest.u8(is_reference ? kFlagReference : 0);
  manifest.varint(delta_ref);
  manifest.varint(keys.size());

  std::map<runtime::StreamKey, std::vector<std::uint8_t>> raw_streams;
  for (const runtime::StreamKey& key : keys) {
    std::vector<std::uint8_t> raw = record.read(key);
    stats_.raw_bytes += raw.size();
    counters().raw_bytes.add(raw.size());

    // ---- candidate encodings -------------------------------------------
    // Raw is always available; everything else must beat it.
    MemberEncoding best = MemberEncoding::kRaw;
    std::uint64_t best_cost = raw.size() + 2;

    const std::vector<std::uint8_t> gz = compress::gzip_compress(raw, kLevel);
    if (gz.size() + 2 < best_cost) {
      best = MemberEncoding::kSelfGzip;
      best_cost = gz.size() + 2;
    }

    // Delta candidate, when a reference stream with this key exists.
    const std::vector<std::uint8_t>* ref = nullptr;
    if (!is_reference) {
      const auto ref_it = fam.ref_streams.find(key);
      if (ref_it != fam.ref_streams.end()) ref = &ref_it->second;
    }
    std::vector<std::uint8_t> packed_delta;
    if (ref != nullptr) {
      DeltaStats dstats;
      packed_delta = compress::deflate_compress(
          encode_delta(*ref, raw, &dstats), kLevel);
      counters().delta_copied.add(dstats.copied_bytes);
      counters().delta_literal.add(dstats.literal_bytes);
      counters().delta_corrections.add(dstats.corrections);
      if (packed_delta.size() + 4 < best_cost) {
        best = MemberEncoding::kDeltaCorrecting;
        best_cost = packed_delta.size() + 4;
      }
    }

    // ---- commit the winner ---------------------------------------------
    manifest.svarint(key.rank);
    manifest.varint(key.callsite);
    manifest.varint(raw.size());
    manifest.u32(compress::crc32(raw));
    manifest.u8(static_cast<std::uint8_t>(best));
    switch (best) {
      case MemberEncoding::kRaw:
        manifest.sized_bytes(raw);
        break;
      case MemberEncoding::kSelfGzip:
        manifest.sized_bytes(gz);
        break;
      case MemberEncoding::kDeltaCorrecting:
        manifest.sized_bytes(packed_delta);
        break;
    }
    stats_.by_encoding[static_cast<std::size_t>(best)] += 1;
    encoding_counter(best).add(1);
    ++stats_.streams;
    counters().streams.add(1);
    if (is_reference) raw_streams.emplace(key, std::move(raw));
  }

  writer_.append_frame(member_stream(ordinal), manifest.view());
  stats_.stored_bytes += manifest.size();
  counters().stored_bytes.add(manifest.size());

  if (is_reference) {
    fam.reference = ordinal;
    fam.ref_streams = std::move(raw_streams);
  }
  ++fam.members;
  ++stats_.members;
  stats_.families = families_.size();
  counters().members.add(1);
  return ordinal;
}

void Corpus::write_family_table() {
  support::ByteWriter table;
  table.u8(kFamilyMagic);
  table.u8(kFormatVersion);
  table.varint(families_.size());
  for (const auto& [name, fam] : families_) {
    table.sized_bytes(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(name.data()), name.size()));
    table.varint(fam.reference);
    table.varint(fam.members);
  }
  writer_.append_frame(meta_stream(), table.view());
  stats_.stored_bytes += table.size();
}

void Corpus::flush() { writer_.flush(); }

void Corpus::seal() {
  if (sealed_) return;
  write_family_table();
  writer_.seal();
  sealed_ = true;
}

void Corpus::abandon() {
  writer_.abandon();
  sealed_ = true;
}

// ---------------------------------------------------------------------------
// CorpusStore
// ---------------------------------------------------------------------------

CorpusStore::CorpusStore(Corpus* corpus, std::string family,
                         std::string member_name, bool pin_reference)
    : corpus_(corpus), family_(std::move(family)),
      member_name_(std::move(member_name)), pin_reference_(pin_reference),
      buffer_(std::make_unique<runtime::MemoryStore>()) {
  CDC_CHECK_MSG(corpus_ != nullptr, "CorpusStore requires a corpus");
}

void CorpusStore::append(const runtime::StreamKey& key,
                         std::span<const std::uint8_t> bytes) {
  buffer_->append(key, bytes);
}

std::vector<std::uint8_t> CorpusStore::read(
    const runtime::StreamKey& key) const {
  return buffer_->read(key);
}

std::vector<runtime::StreamKey> CorpusStore::keys() const {
  return buffer_->keys();
}

std::uint64_t CorpusStore::total_bytes() const {
  return buffer_->total_bytes();
}

std::uint64_t CorpusStore::rank_bytes(minimpi::Rank rank) const {
  return buffer_->rank_bytes(rank);
}

void CorpusStore::sync() { corpus_->flush(); }

std::uint32_t CorpusStore::seal_member() {
  const std::uint32_t ordinal =
      corpus_->add_member(family_, member_name_, *buffer_, pin_reference_);
  buffer_ = std::make_unique<runtime::MemoryStore>();
  pin_reference_ = false;  // a pin applies to the member that carried it
  return ordinal;
}

// ---------------------------------------------------------------------------
// CorpusReader
// ---------------------------------------------------------------------------

std::unique_ptr<CorpusReader> CorpusReader::open(const std::string& path,
                                                 std::string* error) {
  auto set_error = [&](const std::string& message) {
    if (error != nullptr) *error = message;
  };
  std::string open_error;
  auto container = store::ContainerReader::open(path, &open_error);
  if (container == nullptr) {
    set_error(open_error);
    return nullptr;
  }
  if (!container->header_ok()) {
    set_error("not a corpus container: " + container->header_error());
    return nullptr;
  }
  if (!container->index_ok()) {
    set_error("corpus index unreadable (" + container->index_error() +
              ") — salvage with repack first");
    return nullptr;
  }

  auto reader = std::unique_ptr<CorpusReader>(new CorpusReader());
  reader->reader_ = std::move(container);

  // Member manifests.
  std::set<std::string> families;
  for (const runtime::StreamKey& key : reader->reader_->keys()) {
    if (key.rank != kCorpusMemberRank) continue;
    const auto manifest = reader->reader_->read_stream(key);
    if (manifest.empty()) continue;
    Member member;
    member.ordinal = key.callsite;
    MemberData data;
    support::ByteReader in(manifest);
    std::uint8_t magic = 0;
    std::uint8_t version = 0;
    std::uint8_t flags = 0;
    std::uint64_t delta_ref = 0;
    std::uint64_t stream_count = 0;
    std::span<const std::uint8_t> family_bytes;
    std::span<const std::uint8_t> name_bytes;
    bool ok = in.try_u8(magic) && magic == kMemberMagic &&
              in.try_u8(version) && version == kFormatVersion &&
              in.try_sized_bytes(family_bytes) &&
              in.try_sized_bytes(name_bytes) && in.try_u8(flags) &&
              in.try_varint(delta_ref) && in.try_varint(stream_count);
    if (ok) {
      member.family.assign(family_bytes.begin(), family_bytes.end());
      member.name.assign(name_bytes.begin(), name_bytes.end());
      member.is_reference = (flags & kFlagReference) != 0;
      member.delta_ref = static_cast<std::uint32_t>(delta_ref);
      for (std::uint64_t s = 0; ok && s < stream_count; ++s) {
        StreamEntry entry;
        std::int64_t rank = 0;
        std::uint64_t callsite = 0;
        std::uint64_t raw_len = 0;
        std::uint8_t encoding = 0;
        ok = in.try_svarint(rank) && in.try_varint(callsite) &&
             in.try_varint(raw_len) && in.try_u32(entry.crc) &&
             in.try_u8(encoding);
        if (!ok) break;
        entry.key = runtime::StreamKey{
            static_cast<minimpi::Rank>(rank),
            static_cast<minimpi::CallsiteId>(callsite)};
        entry.raw_len = raw_len;
        entry.encoding = static_cast<MemberEncoding>(encoding);
        switch (entry.encoding) {
          case MemberEncoding::kRaw:
          case MemberEncoding::kSelfGzip:
          case MemberEncoding::kDeltaCorrecting: {
            std::span<const std::uint8_t> body;
            ok = in.try_sized_bytes(body);
            if (ok) entry.payload.assign(body.begin(), body.end());
            break;
          }
          default:  // includes the retired tags 1 (chunks), 2 (onepass)
            ok = false;
            member.damage =
                "stream encoding " + std::to_string(encoding) + " unknown";
        }
        if (ok) data.streams.push_back(std::move(entry));
      }
    }
    if (!ok) {
      member.readable = false;
      if (member.damage.empty()) member.damage = "manifest unparseable";
    }
    if (!member.family.empty()) families.insert(member.family);
    reader->stats_.raw_bytes += [&] {
      std::uint64_t total = 0;
      for (const auto& entry : data.streams) total += entry.raw_len;
      return total;
    }();
    reader->stats_.streams += data.streams.size();
    for (const auto& entry : data.streams)
      reader->stats_.by_encoding[static_cast<std::size_t>(entry.encoding)] += 1;
    reader->data_.emplace(member.ordinal, std::move(data));
    reader->members_.push_back(std::move(member));
  }
  std::sort(reader->members_.begin(), reader->members_.end(),
            [](const Member& a, const Member& b) {
              return a.ordinal < b.ordinal;
            });

  // Members holding a delta stream need their reference member alive and
  // readable; raw and gzip streams stand alone.
  for (Member& member : reader->members_) {
    if (!member.readable || member.delta_ref == member.ordinal) continue;
    const auto& streams = reader->data_.at(member.ordinal).streams;
    if (std::none_of(streams.begin(), streams.end(), [](const auto& entry) {
          return entry.encoding == MemberEncoding::kDeltaCorrecting;
        }))
      continue;
    const Member* ref = reader->member(member.delta_ref);
    if (ref == nullptr || !ref->readable) {
      member.readable = false;
      member.damage = "reference member " + std::to_string(member.delta_ref) +
                      (ref == nullptr ? " lost to salvage" : " unreadable");
    }
  }

  reader->stats_.members = reader->members_.size();
  reader->stats_.families = families.size();
  for (const runtime::StreamKey& key : reader->reader_->keys()) {
    if (key.rank > kCorpusMetaRank) continue;  // corpus metadata ranks only
    const store::StreamIndexEntry* entry = reader->reader_->find(key);
    if (entry != nullptr) reader->stats_.stored_bytes += entry->payload_bytes;
  }
  return reader;
}

const CorpusReader::Member* CorpusReader::member(std::uint32_t ordinal) const {
  const auto it = std::lower_bound(
      members_.begin(), members_.end(), ordinal,
      [](const Member& m, std::uint32_t o) { return m.ordinal < o; });
  return it != members_.end() && it->ordinal == ordinal ? &*it : nullptr;
}

std::vector<runtime::StreamKey> CorpusReader::member_keys(
    std::uint32_t ordinal) const {
  std::vector<runtime::StreamKey> out;
  const auto it = data_.find(ordinal);
  if (it == data_.end()) return out;
  out.reserve(it->second.streams.size());
  for (const StreamEntry& entry : it->second.streams) out.push_back(entry.key);
  return out;
}

const std::vector<std::uint8_t>* CorpusReader::reference_stream(
    std::uint32_t ref_ordinal, const runtime::StreamKey& key) const {
  auto& cache = ref_cache_[ref_ordinal];
  const auto hit = cache.find(key);
  if (hit != cache.end()) return &hit->second;
  const auto data_it = data_.find(ref_ordinal);
  if (data_it == data_.end()) return nullptr;
  for (const StreamEntry& entry : data_it->second.streams) {
    if (entry.key != key) continue;
    // Reference streams are stored self-contained; a delta here would
    // mean a forged or mis-salvaged manifest.
    if (entry.encoding == MemberEncoding::kDeltaCorrecting) return nullptr;
    auto bytes = read_stream(ref_ordinal, key);
    if (!bytes.has_value()) return nullptr;
    return &cache.emplace(key, std::move(*bytes)).first->second;
  }
  return nullptr;
}

std::optional<std::vector<std::uint8_t>> CorpusReader::read_stream(
    std::uint32_t ordinal, const runtime::StreamKey& key) const {
  const Member* info = member(ordinal);
  const auto data_it = data_.find(ordinal);
  if (info == nullptr || !info->readable || data_it == data_.end())
    return std::nullopt;
  const StreamEntry* entry = nullptr;
  for (const StreamEntry& candidate : data_it->second.streams)
    if (candidate.key == key) {
      entry = &candidate;
      break;
    }
  if (entry == nullptr) return std::nullopt;

  counters().read_streams.add(1);
  std::optional<std::vector<std::uint8_t>> raw;
  switch (entry->encoding) {
    case MemberEncoding::kRaw:
      raw = entry->payload;
      break;
    case MemberEncoding::kSelfGzip:
      raw = compress::gzip_decompress(entry->payload);
      break;
    case MemberEncoding::kDeltaCorrecting: {
      const std::vector<std::uint8_t>* ref =
          reference_stream(info->delta_ref, key);
      if (ref == nullptr) return std::nullopt;
      const auto delta = compress::deflate_decompress(entry->payload);
      if (!delta.has_value()) return std::nullopt;
      raw = apply_delta(*ref, *delta);
      break;
    }
    default:
      return std::nullopt;
  }
  if (!raw.has_value()) return std::nullopt;
  if (raw->size() != entry->raw_len || compress::crc32(*raw) != entry->crc)
    return std::nullopt;
  return raw;
}

bool CorpusReader::load_member(std::uint32_t ordinal,
                               runtime::MemoryStore& out) const {
  const auto data_it = data_.find(ordinal);
  if (data_it == data_.end()) return false;
  for (const StreamEntry& entry : data_it->second.streams) {
    const auto raw = read_stream(ordinal, entry.key);
    if (!raw.has_value()) return false;
    out.append(entry.key, *raw);
  }
  return true;
}

std::uint64_t CorpusReader::file_bytes() const noexcept {
  return reader_ != nullptr ? reader_->file_bytes() : 0;
}

}  // namespace cdc::corpus
