// Sweep result cache + journal: the persistence layer of the sweep
// orchestration subsystem (see sim/batch_runner.h).
//
// Both stores are keyed by the content-address job key of sim/job_key.h —
// a hash of (canonical spec, machine config, mode matrix, result schema
// version, code fingerprint) — and hold one opaque encoded-point blob
// (sim/sweep_codec.h) per key:
//
//   SweepCache    — content-addressed on-disk store (--cache-dir=D). One
//                   file per entry under D/<key[0:2]>/<key>.pt, written
//                   atomically (tmp + rename) so concurrent workers and
//                   concurrent sweeps never observe a torn entry. Every
//                   entry opens with a header line carrying the code
//                   fingerprint it was produced by; a mismatching header
//                   is reported as *stale* and treated as a miss, even if
//                   a foreign entry was copied under a matching key.
//
//   SweepJournal  — append-only per-sweep result journal (--journal=F).
//                   Each record is appended and flushed as its job
//                   retires, so a killed sweep leaves a well-formed
//                   prefix behind; reopening the journal replays that
//                   prefix and the sweep resumes where it died instead of
//                   restarting. Records are length-prefixed; a truncated
//                   tail (the record being written at the kill) is
//                   detected and ignored.
#pragma once

#include <cstdio>
#include <map>
#include <mutex>
#include <string>

#include "util/types.h"

namespace sempe::sim {

/// Per-sweep accounting of how each job's result was obtained. Rendered
/// on stderr by the sweep driver and exported as sweep.* metrics when an
/// obs session with metrics is installed.
struct CacheStats {
  u64 hits = 0;             // served from a valid cache entry
  u64 misses = 0;           // no cache entry; the job was executed
  u64 stale = 0;            // entry existed but its fingerprint header
                            // (or framing) did not match — counted as a
                            // miss for execution purposes
  u64 corrupt = 0;          // entry/journal blob failed to decode
  u64 stores = 0;           // freshly executed results written back
  u64 journal_hits = 0;     // served by replaying the journal
};

class SweepCache {
 public:
  /// Opens (creating on demand) the cache directory. `fingerprint` is the
  /// code fingerprint expected in entry headers — normally
  /// sempe::code_fingerprint(). Throws SimError when the directory cannot
  /// be created.
  SweepCache(std::string dir, std::string fingerprint);

  enum class Status {
    kHit,    // entry found, fingerprint matched; blob is valid
    kMiss,   // no entry under this key
    kStale,  // entry found but header/fingerprint mismatched
  };
  struct Lookup {
    Status status = Status::kMiss;
    std::string blob;  // the encoded point, only for kHit
  };

  Lookup lookup(const std::string& key) const;

  /// Write an entry atomically (tmp file + rename). I/O failures are
  /// diagnosed on stderr but non-fatal: a cache that cannot be written
  /// degrades to recompute-everything instead of killing the sweep.
  /// Returns false on failure. Thread-safe.
  bool store(const std::string& key, const std::string& blob) const;

 private:
  std::string entry_path(const std::string& key) const;

  std::string dir_;
  std::string fingerprint_;
};

class SweepJournal {
 public:
  /// Opens `path` for append, replaying any well-formed record prefix
  /// already present (the resume path). Throws SimError when the file
  /// cannot be opened for appending.
  explicit SweepJournal(const std::string& path);
  ~SweepJournal();
  SweepJournal(const SweepJournal&) = delete;
  SweepJournal& operator=(const SweepJournal&) = delete;

  /// The replayed blob for `key`, or nullptr. Replayed entries are fixed
  /// at open time; append() does not alter them.
  const std::string* find(const std::string& key) const;
  /// Number of well-formed records replayed at open.
  usize replayed() const { return entries_.size(); }
  /// True when the existing file ended in a truncated record (the
  /// signature of a sweep killed mid-append).
  bool truncated_tail() const { return truncated_tail_; }

  /// Append one record and flush it, so a kill after this call can never
  /// lose the result. Thread-safe. I/O failures are diagnosed on stderr
  /// and disable further appends (the sweep itself continues).
  void append(const std::string& key, const std::string& blob);

 private:
  std::string path_;
  std::FILE* file_ = nullptr;  // append handle; null after an I/O failure
  std::mutex mu_;
  std::map<std::string, std::string> entries_;  // replayed at open
  bool truncated_tail_ = false;
};

}  // namespace sempe::sim
