// Bag-of-words document representation (e.doc of the paper: a multiset of
// words drawn from the vocabulary).
#ifndef KSIR_TEXT_DOCUMENT_H_
#define KSIR_TEXT_DOCUMENT_H_

#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

#include "common/types.h"
#include "text/stopwords.h"
#include "text/tokenizer.h"
#include "text/vocabulary.h"

namespace ksir {

/// Sorted (word, frequency) bag of words. gamma(w, e) of Eq. (3) is the
/// frequency stored here.
class Document {
 public:
  using WordCount = std::pair<WordId, std::int32_t>;

  Document() = default;

  /// Builds from raw word ids (unsorted, duplicates allowed).
  static Document FromWordIds(const std::vector<WordId>& word_ids);

  /// Builds from distinct (word, frequency) pairs sorted by WordId
  /// ascending, every frequency positive.
  static Document FromWordCounts(std::vector<WordCount> word_counts);

  /// Tokenizes raw text, removes stop words, interns surviving tokens into
  /// `vocab` (updating its occurrence counts) and builds the bag of words.
  static Document FromText(std::string_view text, const Tokenizer& tokenizer,
                           const StopWordSet& stopwords, Vocabulary* vocab);

  /// Distinct words with frequencies, sorted by WordId ascending.
  const std::vector<WordCount>& word_counts() const { return word_counts_; }

  /// Number of distinct words |V_e|.
  std::size_t num_distinct_words() const { return word_counts_.size(); }

  /// Total token count (document length after preprocessing).
  std::int64_t num_tokens() const { return num_tokens_; }

  bool empty() const { return word_counts_.empty(); }

  /// Frequency of `word` in this document (0 when absent). O(log |V_e|).
  std::int32_t FrequencyOf(WordId word) const;

  /// Expands to a flat token list (each word repeated by its frequency),
  /// as consumed by the Gibbs samplers.
  std::vector<WordId> ToTokenList() const;

  bool operator==(const Document& other) const {
    return word_counts_ == other.word_counts_;
  }

 private:
  std::vector<WordCount> word_counts_;
  std::int64_t num_tokens_ = 0;
};

}  // namespace ksir

#endif  // KSIR_TEXT_DOCUMENT_H_
