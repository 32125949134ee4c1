#include "stream/stream_io.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <string>
#include <unordered_set>
#include <utility>

namespace ksir {

namespace {

// Splits `s` by `delim` (keeps empty fields).
std::vector<std::string_view> Split(std::string_view s, char delim) {
  std::vector<std::string_view> parts;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = s.find(delim, start);
    if (pos == std::string_view::npos) {
      parts.push_back(s.substr(start));
      break;
    }
    parts.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return parts;
}

template <typename T>
bool ParseInt(std::string_view s, T* out) {
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), *out);
  return ec == std::errc() && ptr == s.data() + s.size();
}

bool ParseDouble(std::string_view s, double* out) {
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), *out);
  return ec == std::errc() && ptr == s.data() + s.size();
}

}  // namespace

Status WriteStreamTsv(const std::vector<SocialElement>& elements,
                      std::ostream* out) {
  KSIR_CHECK(out != nullptr);
  out->precision(17);
  for (const SocialElement& e : elements) {
    (*out) << e.id << '\t' << e.ts << '\t';
    if (e.doc.empty()) {
      (*out) << '-';
    } else {
      bool first = true;
      for (const auto& [word, count] : e.doc.word_counts()) {
        if (!first) (*out) << ',';
        (*out) << word << ':' << count;
        first = false;
      }
    }
    (*out) << '\t';
    if (e.refs.empty()) {
      (*out) << '-';
    } else {
      for (std::size_t i = 0; i < e.refs.size(); ++i) {
        if (i > 0) (*out) << ',';
        (*out) << e.refs[i];
      }
    }
    (*out) << '\t';
    if (e.topics.empty()) {
      (*out) << '-';
    } else {
      bool first = true;
      for (const auto& [topic, prob] : e.topics.entries()) {
        if (!first) (*out) << ',';
        (*out) << topic << ':' << prob;
        first = false;
      }
    }
    (*out) << '\n';
  }
  if (!out->good()) return Status::IOError("failed writing stream");
  return Status::OK();
}

StatusOr<std::vector<SocialElement>> ReadStreamTsv(std::istream* in) {
  KSIR_CHECK(in != nullptr);
  std::vector<SocialElement> elements;
  std::unordered_set<ElementId> seen_ids;
  std::string line;
  std::size_t line_no = 0;
  Timestamp last_ts = kMinTimestamp;
  while (std::getline(*in, line)) {
    ++line_no;
    if (line.empty()) continue;
    const auto fields = Split(line, '\t');
    if (fields.size() != 5) {
      return Status::IOError("line " + std::to_string(line_no) +
                             ": expected 5 tab-separated fields");
    }
    SocialElement e;
    if (!ParseInt(fields[0], &e.id)) {
      return Status::IOError("line " + std::to_string(line_no) + ": bad id");
    }
    if (!seen_ids.insert(e.id).second) {
      return Status::IOError("line " + std::to_string(line_no) +
                             ": duplicate id");
    }
    if (!ParseInt(fields[1], &e.ts)) {
      return Status::IOError("line " + std::to_string(line_no) + ": bad ts");
    }
    if (e.ts < last_ts) {
      return Status::IOError("line " + std::to_string(line_no) +
                             ": timestamps must be non-decreasing");
    }
    last_ts = e.ts;

    if (fields[2] != "-") {
      // The bag is built from the (word, count) pairs directly, so memory
      // grows with the line, not with the counts. Repeated words merge.
      std::vector<std::pair<WordId, std::int64_t>> counts;
      for (std::string_view part : Split(fields[2], ',')) {
        const std::size_t colon = part.find(':');
        WordId word = kInvalidWordId;
        std::int32_t count = 0;
        if (colon == std::string_view::npos ||
            !ParseInt(part.substr(0, colon), &word) ||
            !ParseInt(part.substr(colon + 1), &count) || word < 0 ||
            count <= 0) {
          return Status::IOError("line " + std::to_string(line_no) +
                                 ": bad word:count token");
        }
        counts.emplace_back(word, count);
      }
      std::sort(counts.begin(), counts.end());
      std::vector<Document::WordCount> word_counts;
      std::int64_t total = 0;
      for (std::size_t i = 0; i < counts.size(); ++i) {
        total += counts[i].second;
        if (i + 1 < counts.size() && counts[i + 1].first == counts[i].first) {
          continue;
        }
        if (total > std::numeric_limits<std::int32_t>::max()) {
          return Status::IOError("line " + std::to_string(line_no) +
                                 ": count of word " +
                                 std::to_string(counts[i].first) +
                                 " overflows int32");
        }
        word_counts.emplace_back(counts[i].first,
                                 static_cast<std::int32_t>(total));
        total = 0;
      }
      e.doc = Document::FromWordCounts(std::move(word_counts));
    }
    if (fields[3] != "-") {
      for (std::string_view part : Split(fields[3], ',')) {
        ElementId ref = kInvalidElementId;
        if (!ParseInt(part, &ref)) {
          return Status::IOError("line " + std::to_string(line_no) +
                                 ": bad ref id");
        }
        e.refs.push_back(ref);
      }
    }
    if (fields[4] != "-") {
      std::vector<SparseVector::Entry> entries;
      for (std::string_view part : Split(fields[4], ',')) {
        const std::size_t colon = part.find(':');
        std::int32_t topic = -1;
        double prob = 0.0;
        if (colon == std::string_view::npos ||
            !ParseInt(part.substr(0, colon), &topic) ||
            !ParseDouble(part.substr(colon + 1), &prob) || topic < 0 ||
            !std::isfinite(prob) || prob <= 0.0) {
          return Status::IOError("line " + std::to_string(line_no) +
                                 ": bad topic:prob token");
        }
        entries.emplace_back(topic, prob);
      }
      e.topics = SparseVector::FromEntries(std::move(entries));
    }
    elements.push_back(std::move(e));
  }
  return elements;
}

}  // namespace ksir
