#include "market/wal.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <optional>
#include <span>
#include <sstream>
#include <utility>

#include "common/byte_codec.h"
#include "common/check.h"
#include "common/crash_point.h"
#include "common/telemetry.h"

namespace prc::market::wal {
namespace {

void write_fully(int fd, const std::uint8_t* data, std::size_t size,
                 const std::string& path) {
  std::size_t written = 0;
  while (written < size) {
    const ::ssize_t n = ::write(fd, data + written, size - written);
    if (n < 0 && errno == EINTR) continue;
    PRC_CHECK(n >= 0) << "wal: write to '" << path
                      << "' failed: " << std::strerror(errno);
    written += static_cast<std::size_t>(n);
  }
}

void fsync_or_die(int fd, const std::string& path) {
  PRC_CHECK(::fsync(fd) == 0)
      << "wal: fsync of '" << path << "' failed: " << std::strerror(errno);
}

/// Makes a rename in `path`'s directory durable: without this the new
/// directory entry lives only in the page cache and a power loss can
/// resurrect the pre-rename state (or worse, neither state).
void fsync_parent_directory(const std::string& path) {
  const auto slash = path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? "." : path.substr(0, std::max<std::size_t>(slash, 1));
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  PRC_CHECK(fd >= 0) << "wal: cannot open directory '" << dir
                     << "': " << std::strerror(errno);
  fsync_or_die(fd, dir);
  ::close(fd);
}

using Reader = ByteReader<FormatError>;

// Offset of the header's payload length, written once the payload is.
constexpr std::size_t kPayloadLengthOffset = 4;
// A checkpoint's consumer is at least its id length and two f64 totals.
constexpr std::size_t kMinConsumerBytes = 4 + 2 * 8;

void put_event(ByteWriter& out, const AuditEvent& event) {
  out.u8(event.degraded ? 1 : 0);
  out.str(event.consumer_id);
  for (const double value :
       {event.lower, event.upper, event.alpha.value(), event.delta.value(),
        event.epsilon.value(), event.price}) {
    out.f64(value);
  }
  out.u64(event.wal_sequence);
  out.u64(event.ledger_sequence);
  out.f64(event.coverage);
  out.str(event.detail);
}

AuditEvent read_event(Reader& in, AuditEventType type) {
  AuditEvent event;
  event.type = type;
  event.degraded = in.u8() != 0;
  event.consumer_id = in.str();
  event.lower = in.f64();
  event.upper = in.f64();
  event.alpha = in.f64();
  event.delta = in.f64();
  event.epsilon = in.f64();
  event.price = in.f64();
  event.wal_sequence = in.u64();
  event.ledger_sequence = in.u64();
  event.coverage = in.f64();
  event.detail = in.str();
  return event;
}

void put_snapshot(ByteWriter& out, const LedgerSnapshot& snapshot) {
  out.u64(snapshot.next_sequence);
  out.f64(snapshot.total_revenue);
  out.f64(snapshot.total_epsilon.value());
  out.f64(snapshot.orphaned_epsilon.value());
  out.u64(snapshot.degraded_sales);
  out.u32(static_cast<std::uint32_t>(snapshot.consumers.size()));
  for (const auto& totals : snapshot.consumers) {
    out.str(totals.consumer_id);
    out.f64(totals.spend);
    out.f64(totals.epsilon.value());
  }
}

LedgerSnapshot read_snapshot(Reader& in) {
  LedgerSnapshot snapshot;
  snapshot.next_sequence = in.u64();
  snapshot.total_revenue = in.f64();
  snapshot.total_epsilon = in.f64();
  snapshot.orphaned_epsilon = in.f64();
  snapshot.degraded_sales = in.u64();
  const std::uint32_t consumers = in.count(
      kMinConsumerBytes, "wal checkpoint consumer count exceeds its payload");
  snapshot.consumers.reserve(consumers);
  for (std::uint32_t i = 0; i < consumers; ++i) {
    LedgerConsumerTotals totals;
    totals.consumer_id = in.str();
    totals.spend = in.f64();
    totals.epsilon = in.f64();
    snapshot.consumers.push_back(std::move(totals));
  }
  return snapshot;
}

std::string version_error(std::uint8_t version) {
  return "wal format version " + std::to_string(version) +
         " unsupported (this build reads version " +
         std::to_string(kFormatVersion) + ")";
}

/// Encodes one record into `buffer`, replacing its contents.  The writer
/// reuses its buffer across appends, so a steady-state append allocates
/// nothing.
void encode_into(std::vector<std::uint8_t>& buffer, std::uint64_t wal_sequence,
                 const AuditEvent& event, const LedgerSnapshot& snapshot) {
  ByteWriter out(std::move(buffer));
  out.u8(kMagic);
  out.u8(kFormatVersion);
  out.u8(static_cast<std::uint8_t>(event.type));
  out.u8(0);  // flags, reserved
  out.u32(0);  // payload length
  out.u64(wal_sequence);
  put_event(out, event);
  if (event.type == AuditEventType::kCheckpoint) put_snapshot(out, snapshot);
  out.patch_u32(kPayloadLengthOffset,
                static_cast<std::uint32_t>(out.size() - kHeaderSize));
  // The CRC trails the bytes it covers.  It covers the header as well as
  // the payload: a flipped length or sequence is caught, not just payload
  // corruption.
  out.u32(crc32(out.bytes().data(), out.size()));
  buffer = std::move(out).take();
}

/// The whole log at `path`, or nothing when there is no file.  A log whose
/// FIRST record carries the magic but another format version is not a torn
/// tail: truncating it would recover, and compaction would then persist,
/// an empty ledger — the whole budget history under-counted.  It is refused
/// untouched.
std::optional<std::vector<std::uint8_t>> load_log(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return std::nullopt;
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  PRC_CHECK(bytes.size() < 2 || bytes[0] != kMagic ||
            bytes[1] == kFormatVersion)
      << "wal '" << path << "': " << version_error(bytes[1])
      << "; refusing to recover or truncate it";
  return bytes;
}

/// Hands each whole record of `bytes`, from the first on, to `visit`, and
/// returns the offset just past the last one: the first torn or corrupt
/// record ends the log.
template <typename Visit>
std::size_t for_each_record(const std::vector<std::uint8_t>& bytes,
                            Visit&& visit) {
  std::size_t offset = 0;
  while (offset < bytes.size()) {
    Record record;
    try {
      record = decode_record(bytes, offset);
    } catch (const FormatError&) {
      break;
    }
    offset += record.encoded_size;
    visit(std::move(record));
  }
  return offset;
}

/// True when every byte from `offset` on is zero: space the writer
/// reserved for its mapped window but never filled.  No record starts with
/// a zero byte (kMagic is not zero), so such a tail holds no record.
bool zero_tail(const std::vector<std::uint8_t>& bytes, std::size_t offset) {
  return std::all_of(bytes.begin() + static_cast<std::ptrdiff_t>(offset),
                     bytes.end(), [](std::uint8_t byte) { return byte == 0; });
}

}  // namespace

std::vector<std::uint8_t> encode_record(std::uint64_t wal_sequence,
                                        const AuditEvent& event,
                                        const LedgerSnapshot& snapshot) {
  std::vector<std::uint8_t> bytes;
  encode_into(bytes, wal_sequence, event, snapshot);
  return bytes;
}

Record decode_record(const std::vector<std::uint8_t>& bytes,
                     std::size_t offset) {
  PRC_CHECK(offset <= bytes.size()) << "wal decode offset out of range";
  const auto record_bytes = std::span(bytes).subspan(offset);
  if (record_bytes.size() < kHeaderSize) {
    throw FormatError("wal record header torn");
  }
  Reader in(record_bytes, "wal record payload torn");
  if (in.u8() != kMagic) throw FormatError("wal record magic mismatch");
  if (const std::uint8_t version = in.u8(); version != kFormatVersion) {
    throw FormatError(version_error(version));
  }
  const auto type = static_cast<AuditEventType>(in.u8());
  if (type != AuditEventType::kIntent && type != AuditEventType::kCommit &&
      type != AuditEventType::kCheckpoint) {
    throw FormatError("wal record type " +
                      std::to_string(static_cast<int>(type)) + " unknown");
  }
  in.u8();  // flags, reserved
  const std::uint32_t payload_size = in.u32();
  Record record;
  record.wal_sequence = in.u64();
  Reader payload(in.bytes(payload_size),
                 "wal payload shorter than its content");
  const std::size_t covered = kHeaderSize + payload_size;
  if (in.u32() != crc32(record_bytes.data(), covered)) {
    throw FormatError("wal record CRC mismatch");
  }
  record.encoded_size = covered + kCrcSize;
  record.event = read_event(payload, type);
  if (type == AuditEventType::kCheckpoint) {
    record.snapshot = read_snapshot(payload);
  }
  if (payload.remaining() != 0) {
    throw FormatError("wal record payload longer than its content");
  }
  return record;
}

RecoveryResult read_wal(const std::string& path) {
  RecoveryResult result;
  result.base.event.type = AuditEventType::kCheckpoint;
  result.base.event.detail = "recovery base: the wal holds no checkpoint";
  const auto loaded = load_log(path);
  if (!loaded) return result;  // no log yet: empty recovery
  const std::vector<std::uint8_t>& bytes = *loaded;

  // Intents still awaiting their commit, by wal sequence.  std::map keeps
  // orphans ordered by append time.
  std::map<std::uint64_t, AuditEvent> pending;
  // The first torn/corrupt record ends the scan: everything before it is
  // trusted, everything from it on dropped (a crash mid-append, or tail
  // damage) — unless it is all zeros, the unfilled rest of the writer's
  // last window, which is no damage at all.
  const std::size_t offset = for_each_record(bytes, [&](Record&& record) {
    ++result.stats.records_read;
    result.next_wal_sequence =
        std::max(result.next_wal_sequence, record.wal_sequence + 1);
    switch (record.event.type) {
      case AuditEventType::kIntent:
        pending.emplace(record.event.wal_sequence, std::move(record.event));
        break;
      case AuditEventType::kCommit:
        pending.erase(record.event.wal_sequence);
        result.commits.push_back(std::move(record.event));
        break;
      default:  // kCheckpoint; decode_record admits no other type
        ++result.stats.checkpoints_seen;
        result.base = {std::move(record.event), std::move(record.snapshot)};
        break;
    }
  });
  result.stats.valid_bytes = offset;
  result.stats.truncated_bytes =
      zero_tail(bytes, offset) ? 0 : bytes.size() - offset;

  // Commits the checkpoint already aggregates must not be replayed twice.
  // The filter runs AFTER the full scan, not at the checkpoint record:
  // the ledger and the log lock independently, so a checkpoint whose
  // next_sequence covers transaction N can reach the log BEFORE N's
  // commit record (the committing thread sat between its ledger update
  // and its WAL append while the checkpoint was taken).  Wherever such a
  // commit sits, its aggregates are in the checkpoint — replaying it
  // would double-charge, so it is dropped regardless of log position.
  // Pending intents stay pending either way: a checkpoint only absorbs
  // COMMITTED sales, so an unresolved intent is still a potential
  // pre-crash release.
  std::erase_if(result.commits, [&](const AuditEvent& commit) {
    return commit.ledger_sequence < result.base.snapshot.next_sequence;
  });
  std::sort(result.commits.begin(), result.commits.end(),
            [](const AuditEvent& a, const AuditEvent& b) {
              return a.ledger_sequence < b.ledger_sequence;
            });
  result.orphans.reserve(pending.size());
  for (auto& [sequence, intent] : pending) {
    result.stats.orphaned_epsilon += intent.epsilon.value();
    result.orphans.push_back(std::move(intent));
  }
  result.stats.orphaned_intents = result.orphans.size();
  result.stats.committed_sales = result.commits.size();

  telemetry::counter("market.wal_recovered_commits")
      .increment(result.stats.committed_sales);
  telemetry::counter("market.wal_orphaned_intents")
      .increment(result.stats.orphaned_intents);
  telemetry::gauge("market.wal_truncated_bytes")
      .set(static_cast<double>(result.stats.truncated_bytes));
  return result;
}

void apply_recovery(Ledger& ledger, const RecoveryResult& recovery) {
  ledger.restore(recovery.base);
  for (const auto& commit : recovery.commits) ledger.replay(commit);
  for (const auto& orphan : recovery.orphans) ledger.absorb_orphaned(orphan);
  const auto& stats = recovery.stats;
  std::ostringstream detail;
  detail.precision(std::numeric_limits<double>::max_digits10);
  detail << "recovered " << stats.committed_sales << " committed sale(s), "
         << stats.orphaned_intents << " orphaned intent(s) (orphaned epsilon "
         << stats.orphaned_epsilon << "), " << stats.truncated_bytes
         << " truncated byte(s)";
  ledger.conclude_recovery(detail.str());
}

WriteAheadLog::WriteAheadLog(std::string path, std::uint64_t next_sequence,
                             SyncMode sync_mode)
    : path_(std::move(path)),
      sync_mode_(sync_mode),
      next_sequence_(next_sequence) {
  // Appends continue right after the last whole record.  Never after a
  // zero tail: the reader stops at that gap and would lose every record
  // past it.  Damaged bytes after the last record are refused, not
  // overwritten: recovery (which compacts) is what decides to drop them.
  const auto bytes = load_log(path_).value_or(std::vector<std::uint8_t>{});
  end_offset_ = for_each_record(bytes, [](Record&&) {});
  PRC_CHECK(zero_tail(bytes, end_offset_))
      << "wal '" << path_ << "': " << bytes.size() - end_offset_
      << " damaged byte(s) after its last whole record at offset "
      << end_offset_ << "; recover the log before appending to it";
  fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  PRC_CHECK(fd_ >= 0) << "wal: cannot open '" << path_
                      << "' for appending: " << std::strerror(errno);
}

WriteAheadLog::~WriteAheadLog() {
  // The destructor runs with exclusive ownership; any concurrent append
  // while the log is being destroyed is already a use-after-free upstream.
  if (window_ != nullptr) ::munmap(window_, window_size_);
  if (fd_ < 0) return;
  // A cleanly closed log ends at its last record.  A failed truncate
  // leaves the zero tail a crash would have left, which readers skip.
  [[maybe_unused]] const int truncated =
      ::ftruncate(fd_, static_cast<::off_t>(end_offset_));
  ::close(fd_);
}

std::unique_ptr<WriteAheadLog> WriteAheadLog::open(
    const std::string& path, std::uint64_t next_sequence,
    SyncMode sync_mode) {
  return std::unique_ptr<WriteAheadLog>(
      new WriteAheadLog(path, next_sequence, sync_mode));
}

std::unique_ptr<WriteAheadLog> WriteAheadLog::compact(
    const std::string& path, const Checkpoint& checkpoint,
    std::uint64_t next_sequence, SyncMode sync_mode) {
  const std::string temp = path + ".compact.tmp";
  {
    const int fd =
        ::open(temp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    PRC_CHECK(fd >= 0) << "wal: cannot open '" << temp
                       << "' for compaction: " << std::strerror(errno);
    const auto bytes =
        encode_record(next_sequence, checkpoint.event, checkpoint.snapshot);
    write_fully(fd, bytes.data(), bytes.size(), temp);
    // The checkpoint's data blocks must be on media BEFORE the rename can
    // become durable: a journaled rename pointing at a torn checkpoint is
    // an empty log once the old one is gone — a recovery that
    // UNDER-counts released budget.  This fsync is unconditional; only
    // append durability is a policy choice.
    fsync_or_die(fd, temp);
    PRC_CHECK(::close(fd) == 0)
        << "wal: close of '" << temp << "' failed: " << std::strerror(errno);
  }
  // The rename is the commit point: before it the old log is intact, after
  // it (and the directory fsync below) the compacted one is — a crash on
  // either side recovers cleanly.
  PRC_CRASH_POINT("wal.pre_compact_rename");
  PRC_CHECK(std::rename(temp.c_str(), path.c_str()) == 0)
      << "wal: compaction rename to '" << path << "' failed";
  fsync_parent_directory(path);
  telemetry::counter("market.wal_compactions").increment();
  return open(path, next_sequence + 1, sync_mode);
}

void WriteAheadLog::map_window(std::size_t record_size) {
  static const auto page = static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
  if (window_ != nullptr) {
    PRC_CHECK(::munmap(window_, window_size_) == 0)
        << "wal: unmap of '" << path_ << "' failed: " << std::strerror(errno);
    window_ = nullptr;
  }
  const std::uint64_t start = end_offset_ / page * page;
  const std::uint64_t needed = end_offset_ - start + record_size;
  const std::size_t size = std::max<std::size_t>(
      kWindowBytes, static_cast<std::size_t>((needed + page - 1) / page * page));
  // Reserve the window's blocks before mapping them: a full disk fails
  // here, as a failed write(2) would, and not as SIGBUS on a later store.
  const int error = ::posix_fallocate(fd_, static_cast<::off_t>(start),
                                      static_cast<::off_t>(size));
  PRC_CHECK(error == 0) << "wal: cannot reserve " << size << " bytes of '"
                        << path_ << "' at offset " << start << ": "
                        << std::strerror(error);
  void* window = ::mmap(nullptr, size, PROT_READ | PROT_WRITE, MAP_SHARED,
                        fd_, static_cast<::off_t>(start));
  PRC_CHECK(window != MAP_FAILED) << "wal: cannot map '" << path_
                                  << "' at offset " << start << ": "
                                  << std::strerror(errno);
  window_ = static_cast<std::uint8_t*>(window);
  window_offset_ = start;
  window_size_ = size;
}

void WriteAheadLog::append_locked(std::uint64_t sequence,
                                  const AuditEvent& event,
                                  const LedgerSnapshot& snapshot) {
  static telemetry::Counter& wal_records =
      telemetry::counter("market.wal_records");
  static telemetry::Counter& wal_bytes = telemetry::counter("market.wal_bytes");
  encode_into(buffer_, sequence, event, snapshot);
  const std::size_t size = buffer_.size();
  if (end_offset_ + size > window_offset_ + window_size_) map_window(size);
  // A store into the shared mapping IS the spend-ahead discipline for
  // process death: it lands in the page cache, where it outlives the
  // process exactly as bytes handed to write(2) do, so after append_intent
  // returns the whole record is the kernel's problem, not this process's.
  // Power/kernel loss is covered only under kMediaDurable — the
  // per-record barrier is a policy choice because it dominates the sale's
  // latency on real disks.
  std::memcpy(window_ + (end_offset_ - window_offset_), buffer_.data(), size);
  end_offset_ += size;
  if (sync_mode_ == SyncMode::kMediaDurable) fsync_or_die(fd_, path_);
  ++records_appended_;
  bytes_appended_ += size;
  wal_records.increment();
  wal_bytes.increment(size);
}

std::uint64_t WriteAheadLog::append_intent(const IntentRecord& record) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t sequence = next_sequence_++;
  // The intent-before-mint barrier IS the hold: the durable write must
  // happen inside the same critical section that assigned the sequence
  // number, or a crash could mint noise for an intent that never reached
  // the disk.
  append_locked(  // lint:allow blocking
      sequence,
      sale_event(AuditEventType::kIntent, record.consumer_id, record.range,
                 record.spec, record.epsilon_amplified, sequence));
  return sequence;
}

void WriteAheadLog::append_commit(const CommitRecord& record) {
  const AuditEvent commit =
      commit_event(record.transaction, record.intent_sequence);
  std::lock_guard<std::mutex> lock(mutex_);
  // Commit records share the intent barrier's sequence lock; writing
  // outside it could durably reorder a commit ahead of its own intent.
  append_locked(next_sequence_++, commit);  // lint:allow blocking
}

void WriteAheadLog::append_checkpoint(const Checkpoint& checkpoint) {
  std::lock_guard<std::mutex> lock(mutex_);
  // A checkpoint must capture a sequence-point no append can cross;
  // staging it outside the lock would let records land between the
  // snapshot and its durable write.
  append_locked(  // lint:allow blocking
      next_sequence_++, checkpoint.event, checkpoint.snapshot);
  telemetry::counter("market.wal_checkpoints").increment();
}

}  // namespace prc::market::wal
