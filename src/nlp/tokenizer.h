#ifndef KBQA_NLP_TOKENIZER_H_
#define KBQA_NLP_TOKENIZER_H_

#include <string>
#include <string_view>
#include <vector>

namespace kbqa::nlp {

/// Lowercased word tokenizer. Splits on whitespace, strips surrounding
/// punctuation (keeping internal apostrophes/hyphens: "obama's" stays one
/// token so possessive handling is explicit downstream), and keeps digit
/// runs as single tokens. Punctuation-only runs are dropped.
///
/// Lowercasing is UTF-8 aware: ASCII takes a branch-per-byte fast path;
/// Latin-1 Supplement and Latin Extended-A characters (everything the KB
/// can carry via N-Triples \uXXXX escapes in those blocks — "José",
/// "Čapek", "Łódź") case-fold to their lowercase forms, so gazetteer
/// lookups match regardless of the question's casing. Other scripts pass
/// through unchanged; malformed UTF-8 (stray or truncated sequences,
/// overlong forms, surrogates, code points above U+10FFFF) is copied
/// byte-for-byte, so no token ever contains a space or ASCII uppercase.
std::vector<std::string> Tokenize(std::string_view text);

/// Tokenizes and splits possessives: "obama's" -> ["obama", "s"]. Question
/// processing uses this form so an entity mention is a clean token span.
/// Equal to SplitTokens(NormalizeText(text)).
std::vector<std::string> TokenizeQuestion(std::string_view text);

/// Joins tokens with single spaces — the canonical surface form used as a
/// dictionary key for questions, patterns, and templates.
std::string JoinTokens(const std::vector<std::string>& tokens);

/// The tokens of canonical text (NormalizeText output): its pieces between
/// single spaces. The inverse of JoinTokens on tokenizer output.
std::vector<std::string> SplitTokens(std::string_view canonical);

/// Canonical form of a raw question: the TokenizeQuestion tokens joined by
/// single spaces, produced by one scan that writes straight into the
/// result. Idempotent: normalizing canonical text returns it unchanged.
std::string NormalizeText(std::string_view text);

}  // namespace kbqa::nlp

#endif  // KBQA_NLP_TOKENIZER_H_
