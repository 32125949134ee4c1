// Line-oriented TSV serialization of social streams so that users can feed
// real exported data (e.g., tweet dumps) into the engine.
//
// Format (one element per line, '\t'-separated fields):
//   id <TAB> ts <TAB> w:c[,w:c...] <TAB> ref[,ref...] <TAB> t:p[,t:p...]
// Empty ref / topic fields are written as "-". The raw text is not
// serialized (it is display-only).
#ifndef KSIR_STREAM_STREAM_IO_H_
#define KSIR_STREAM_STREAM_IO_H_

#include <iosfwd>
#include <vector>

#include "common/status.h"
#include "stream/element.h"

namespace ksir {

/// Writes `elements` to `out`, one line each.
Status WriteStreamTsv(const std::vector<SocialElement>& elements,
                      std::ostream* out);

/// Reads a stream previously written by WriteStreamTsv. Validates that ids
/// are unique, timestamps non-decreasing and topic probabilities finite and
/// positive; a violation is an IOError naming the line.
StatusOr<std::vector<SocialElement>> ReadStreamTsv(std::istream* in);

}  // namespace ksir

#endif  // KSIR_STREAM_STREAM_IO_H_
