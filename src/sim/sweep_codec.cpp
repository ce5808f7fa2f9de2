#include "sim/sweep_codec.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "util/check.h"

namespace sempe::sim {

namespace {

constexpr const char* kBlobMagic = "sempe-point 1 ";

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      default: out += c;
    }
  }
  return out;
}

std::string unescape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (usize i = 0; i < s.size(); ++i) {
    if (s[i] != '\\' || i + 1 == s.size()) {
      out += s[i];
      continue;
    }
    ++i;
    switch (s[i]) {
      case '\\': out += '\\'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      default:
        throw SimError(std::string("point blob: bad escape '\\") + s[i] + "'");
    }
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// PointWriter / PointReader

PointWriter::PointWriter(const std::string& family) {
  out_ = kBlobMagic + family + "\n";
}

void PointWriter::put_u64(const std::string& key, u64 v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  out_ += "u " + prefix_ + key + " " + buf + "\n";
}

void PointWriter::put_f64(const std::string& key, double v) {
  // Hexfloat: lossless decimal-free round-trip through strtod.
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", v);
  out_ += "d " + prefix_ + key + " " + buf + "\n";
}

void PointWriter::put_str(const std::string& key, const std::string& v) {
  out_ += "s " + prefix_ + key + " " + escape(v) + "\n";
}

PointReader::PointReader(const std::string& family, const std::string& blob) {
  const std::string header = kBlobMagic + family + "\n";
  if (blob.compare(0, header.size(), header) != 0)
    throw SimError("point blob: bad header (want family '" + family + "')");
  usize pos = header.size();
  while (pos < blob.size()) {
    usize eol = blob.find('\n', pos);
    if (eol == std::string::npos) eol = blob.size();
    const std::string line = blob.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    if (line.size() < 4 || line[1] != ' ')
      throw SimError("point blob: malformed line '" + line + "'");
    const char type = line[0];
    if (type != 'u' && type != 'd' && type != 's')
      throw SimError("point blob: unknown field type in '" + line + "'");
    const usize sp = line.find(' ', 2);
    if (sp == std::string::npos)
      throw SimError("point blob: malformed line '" + line + "'");
    fields_[line.substr(2, sp - 2)] = {type, line.substr(sp + 1)};
  }
}

const std::string& PointReader::raw(const std::string& key, char type) const {
  const auto it = fields_.find(prefix_ + key);
  if (it == fields_.end())
    throw SimError("point blob: missing field '" + prefix_ + key + "'");
  if (it->second.first != type)
    throw SimError("point blob: field '" + prefix_ + key +
                   "' has wrong type");
  return it->second.second;
}

u64 PointReader::get_u64(const std::string& key) const {
  const std::string& v = raw(key, 'u');
  char* end = nullptr;
  const u64 n = std::strtoull(v.c_str(), &end, 10);
  if (end == v.c_str() || *end != '\0')
    throw SimError("point blob: bad u64 in field '" + prefix_ + key + "'");
  return n;
}

double PointReader::get_f64(const std::string& key) const {
  const std::string& v = raw(key, 'd');
  char* end = nullptr;
  const double d = std::strtod(v.c_str(), &end);
  if (end == v.c_str() || *end != '\0')
    throw SimError("point blob: bad double in field '" + prefix_ + key +
                   "'");
  return d;
}

std::string PointReader::get_str(const std::string& key) const {
  return unescape(raw(key, 's'));
}

}  // namespace sempe::sim
