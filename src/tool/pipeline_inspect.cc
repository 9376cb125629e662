#include "tool/pipeline_inspect.h"

#include "record/chunk.h"
#include "store/container_reader.h"
#include "support/binary.h"
#include "tool/frame.h"
#include "tool/options.h"

namespace cdc::tool {

bool fill_container_section(const std::string& path,
                            obs::PipelineReport& report,
                            std::string* error) {
  const auto reader = store::ContainerReader::open(path, error);
  if (reader == nullptr) return false;

  report.container.file_bytes = reader->file_bytes();
  report.container.sealed = reader->index_ok();

  for (const store::ContainerReader::GoodFrame& good :
       reader->scan_good_frames()) {
    // One container frame carries exactly one tool frame (the FrameSink
    // contract), so the container payload size IS the framed byte count
    // the encoder reported through record.frame.bytes_out.
    ++report.container.frames;
    report.container.stored_bytes += good.payload.size();

    support::ByteReader frame_reader(good.payload);
    auto frame = read_frame(frame_reader);
    if (!frame) continue;  // foreign or truncated payload: count bytes only
    report.container.raw_bytes += frame->payload.size();

    const auto codec = static_cast<RecordCodec>(frame->codec);
    ++report.container.codec_frames[codec_name(codec)];

    if (codec == RecordCodec::kCdcFull) {
      support::ByteReader payload(frame->payload);
      if (const auto chunk = record::read_chunk(payload)) {
        report.container.chunk_events += chunk->num_matched;
        report.container.chunk_values += chunk->value_count();
      }
    }
  }
  return true;
}

}  // namespace cdc::tool
