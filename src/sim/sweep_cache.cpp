#include "sim/sweep_cache.h"

#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "util/check.h"

namespace sempe::sim {

namespace {

// Entry header: "sempe-cache 1 <fingerprint>\n" ahead of the blob. The
// version is the on-disk framing version, not the result schema version —
// that one lives inside the job key.
constexpr const char* kCacheMagic = "sempe-cache 1 ";

// Journal record header: "sempe-journal 1 <key> <blob_bytes>\n" followed
// by exactly <blob_bytes> blob bytes and a closing newline.
constexpr const char* kJournalMagic = "sempe-journal 1 ";

std::string read_file(const std::string& path, bool* ok) {
  *ok = false;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return {};
  std::string out;
  char buf[1 << 14];
  for (;;) {
    const usize n = std::fread(buf, 1, sizeof buf, f);
    out.append(buf, n);
    if (n < sizeof buf) break;
  }
  *ok = std::ferror(f) == 0;
  std::fclose(f);
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// SweepCache

SweepCache::SweepCache(std::string dir, std::string fingerprint)
    : dir_(std::move(dir)), fingerprint_(std::move(fingerprint)) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec || !std::filesystem::is_directory(dir_))
    throw SimError("cannot create cache directory '" + dir_ +
                   "': " + ec.message());
}

std::string SweepCache::entry_path(const std::string& key) const {
  SEMPE_CHECK(key.size() >= 2);
  return dir_ + "/" + key.substr(0, 2) + "/" + key + ".pt";
}

SweepCache::Lookup SweepCache::lookup(const std::string& key) const {
  Lookup r;
  bool ok = false;
  const std::string text = read_file(entry_path(key), &ok);
  if (!ok) return r;  // kMiss: absent (or unreadable, same thing here)
  const std::string header = kCacheMagic + fingerprint_ + "\n";
  if (text.size() < header.size() ||
      std::memcmp(text.data(), header.data(), header.size()) != 0) {
    r.status = Status::kStale;
    return r;
  }
  r.status = Status::kHit;
  r.blob = text.substr(header.size());
  return r;
}

bool SweepCache::store(const std::string& key, const std::string& blob) const {
  const std::string path = entry_path(key);
  std::error_code ec;
  std::filesystem::create_directories(dir_ + "/" + key.substr(0, 2), ec);
  if (ec) {
    std::fprintf(stderr, "cache: cannot create the directory for '%s'\n",
                 key.c_str());
    return false;
  }
  // Unique tmp name per writer thread; rename() is atomic within the
  // directory, so readers only ever see absent or complete entries.
  const usize tid =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  const std::string tmp = path + ".tmp." + std::to_string(tid);
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "cache: cannot write '%s'\n", tmp.c_str());
    return false;
  }
  const std::string header = kCacheMagic + fingerprint_ + "\n";
  const bool wrote =
      std::fwrite(header.data(), 1, header.size(), f) == header.size() &&
      std::fwrite(blob.data(), 1, blob.size(), f) == blob.size();
  const bool closed = std::fclose(f) == 0;
  if (!wrote || !closed) {
    std::fprintf(stderr, "cache: short write to '%s'\n", tmp.c_str());
    std::remove(tmp.c_str());
    return false;
  }
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::fprintf(stderr, "cache: cannot publish '%s': %s\n", path.c_str(),
                 ec.message().c_str());
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// SweepJournal

SweepJournal::SweepJournal(const std::string& path) : path_(path) {
  // Replay pass: read whatever well-formed record prefix exists. The file
  // legitimately may not exist yet (fresh sweep).
  bool ok = false;
  const std::string text = read_file(path_, &ok);
  const usize magic_len = std::strlen(kJournalMagic);
  usize pos = 0;
  while (ok && pos < text.size()) {
    const usize eol = text.find('\n', pos);
    if (eol == std::string::npos ||
        text.compare(pos, magic_len, kJournalMagic) != 0) {
      truncated_tail_ = true;
      break;
    }
    const std::string head = text.substr(pos + magic_len, eol - pos - magic_len);
    const usize sp = head.find(' ');
    if (sp == std::string::npos) {
      truncated_tail_ = true;
      break;
    }
    const std::string key = head.substr(0, sp);
    char* end = nullptr;
    const unsigned long long len = std::strtoull(head.c_str() + sp + 1, &end, 10);
    if (end == head.c_str() + sp + 1 || *end != '\0') {
      truncated_tail_ = true;
      break;
    }
    const usize body = eol + 1;
    // A complete record carries `len` blob bytes plus the closing newline.
    if (body + len + 1 > text.size() || text[body + len] != '\n') {
      truncated_tail_ = true;
      break;
    }
    entries_[key] = text.substr(body, len);
    pos = body + len + 1;
  }
  if (truncated_tail_) {
    std::fprintf(stderr,
                 "journal: '%s' ends in a truncated record (killed sweep); "
                 "replaying %zu complete record(s)\n",
                 path_.c_str(), entries_.size());
    // Drop the torn tail before appending: `pos` is the end of the last
    // well-formed record, and anything appended after the partial bytes
    // would be unreadable on the next replay.
    std::error_code ec;
    std::filesystem::resize_file(path_, pos, ec);
    if (ec)
      throw SimError("cannot drop the truncated tail of journal '" + path_ +
                     "': " + ec.message());
  }

  file_ = std::fopen(path_.c_str(), "ab");
  if (file_ == nullptr)
    throw SimError("cannot open journal '" + path_ + "' for appending");
}

SweepJournal::~SweepJournal() {
  if (file_ != nullptr) std::fclose(file_);
}

const std::string* SweepJournal::find(const std::string& key) const {
  const auto it = entries_.find(key);
  return it == entries_.end() ? nullptr : &it->second;
}

void SweepJournal::append(const std::string& key, const std::string& blob) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (file_ == nullptr) return;  // an earlier I/O failure disabled appends
  const std::string head = std::string(kJournalMagic) + key + " " +
                           std::to_string(blob.size()) + "\n";
  const bool wrote =
      std::fwrite(head.data(), 1, head.size(), file_) == head.size() &&
      std::fwrite(blob.data(), 1, blob.size(), file_) == blob.size() &&
      std::fputc('\n', file_) != EOF && std::fflush(file_) == 0;
  if (!wrote) {
    std::fprintf(stderr,
                 "journal: write to '%s' failed; further results will not "
                 "be journaled\n",
                 path_.c_str());
    std::fclose(file_);
    file_ = nullptr;
  }
}

}  // namespace sempe::sim
