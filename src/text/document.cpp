#include "text/document.h"

#include <algorithm>

#include "common/check.h"

namespace ksir {

Document Document::FromWordIds(const std::vector<WordId>& word_ids) {
  std::vector<WordId> sorted = word_ids;
  std::sort(sorted.begin(), sorted.end());
  Document doc;
  for (WordId w : sorted) {
    KSIR_DCHECK(w >= 0);
    if (!doc.word_counts_.empty() && doc.word_counts_.back().first == w) {
      ++doc.word_counts_.back().second;
    } else {
      doc.word_counts_.emplace_back(w, 1);
    }
  }
  doc.num_tokens_ = static_cast<std::int64_t>(sorted.size());
  return doc;
}

Document Document::FromWordCounts(std::vector<WordCount> word_counts) {
  Document doc;
  for (std::size_t i = 0; i < word_counts.size(); ++i) {
    KSIR_DCHECK(word_counts[i].first >= 0 && word_counts[i].second > 0);
    KSIR_DCHECK(i == 0 || word_counts[i - 1].first < word_counts[i].first);
    doc.num_tokens_ += word_counts[i].second;
  }
  doc.word_counts_ = std::move(word_counts);
  return doc;
}

Document Document::FromText(std::string_view text, const Tokenizer& tokenizer,
                            const StopWordSet& stopwords, Vocabulary* vocab) {
  KSIR_CHECK(vocab != nullptr);
  std::vector<WordId> ids;
  for (const std::string& token : tokenizer.Tokenize(text)) {
    if (stopwords.Contains(token)) continue;
    const WordId id = vocab->GetOrAdd(token);
    vocab->AddOccurrences(id);
    ids.push_back(id);
  }
  return FromWordIds(ids);
}

std::int32_t Document::FrequencyOf(WordId word) const {
  const auto it = std::lower_bound(
      word_counts_.begin(), word_counts_.end(), word,
      [](const WordCount& wc, WordId w) { return wc.first < w; });
  if (it != word_counts_.end() && it->first == word) return it->second;
  return 0;
}

std::vector<WordId> Document::ToTokenList() const {
  std::vector<WordId> tokens;
  tokens.reserve(static_cast<std::size_t>(num_tokens_));
  for (const auto& [word, count] : word_counts_) {
    for (std::int32_t i = 0; i < count; ++i) tokens.push_back(word);
  }
  return tokens;
}

}  // namespace ksir
