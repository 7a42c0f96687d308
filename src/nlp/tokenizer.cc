#include "nlp/tokenizer.h"

#include <algorithm>
#include <array>
#include <cstdint>

namespace kbqa::nlp {

namespace {

enum ByteClass : uint8_t {
  kSeparator = 0,
  kWord = 1,
  /// Apostrophe and hyphen: word content inside a word ("obama's",
  /// "twenty-one"), stripped at its edges ("'hello'", "-foo-").
  kEdge = 2,
};

/// ASCII letters and digits are word content, classified without the
/// locale (isalnum/tolower answer per locale). Bytes >= 0x80 are UTF-8
/// lead/continuation bytes: part of a multi-byte character, always word
/// content (a locale-dependent isalnum would split "josé" after the 's').
constexpr std::array<ByteClass, 256> kByteClasses = [] {
  std::array<ByteClass, 256> classes{};
  for (int c = 0; c < 256; ++c) {
    if (c >= 0x80 || (c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') ||
        (c >= 'A' && c <= 'Z')) {
      classes[c] = kWord;
    } else if (c == '\'' || c == '-') {
      classes[c] = kEdge;
    }
  }
  return classes;
}();

ByteClass ClassOf(char c) {
  return kByteClasses[static_cast<unsigned char>(c)];
}

/// Simple case folding for the scripts representable in the KB via
/// N-Triples \uXXXX escapes: ASCII, Latin-1 Supplement, and Latin
/// Extended-A. Everything else passes through unchanged (full Unicode
/// case folding needs tables this substrate doesn't carry).
uint32_t FoldCodepoint(uint32_t cp) {
  // Latin-1 Supplement: À..Þ → à..þ. U+00D7 is the multiplication sign,
  // not a letter; its +0x20 image U+00F7 is the division sign.
  if (cp >= 0xC0 && cp <= 0xDE && cp != 0xD7) return cp + 0x20;
  // Latin Extended-A pairs alternate upper/lower. İ (U+0130) is the
  // Turkish dotted capital I; fold to plain ASCII "i" (the combining dot
  // of the strict folding buys nothing for gazetteer keys). ı (U+0131)
  // is already lowercase.
  if (cp == 0x130) return 'i';
  if (cp >= 0x100 && cp <= 0x137) return cp % 2 == 0 ? cp + 1 : cp;
  if (cp >= 0x139 && cp <= 0x148) return cp % 2 == 1 ? cp + 1 : cp;
  if (cp >= 0x14A && cp <= 0x177) return cp % 2 == 0 ? cp + 1 : cp;
  if (cp == 0x178) return 0xFF;  // Ÿ → ÿ (the one pair split across blocks)
  if (cp == 0x179 || cp == 0x17B || cp == 0x17D) return cp + 1;
  return cp;
}

void AppendUtf8(uint32_t cp, std::string* out) {
  if (cp < 0x80) {
    out->push_back(static_cast<char>(cp));
  } else if (cp < 0x800) {
    out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else if (cp < 0x10000) {
    out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else {
    out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  }
}

/// Decodes the well-formed UTF-8 sequence starting at text[0] (a byte >=
/// 0x80) into `*cp` and returns its length, or returns 0 when it is
/// malformed: a stray continuation byte, a truncated sequence, an
/// overlong form (C0 A0 would otherwise decode to a space inside a word,
/// C1 81 to an uppercase 'A'), a surrogate, or a code point above
/// U+10FFFF.
size_t DecodeUtf8(std::string_view text, uint32_t* cp) {
  const unsigned char b0 = static_cast<unsigned char>(text[0]);
  size_t len = 0;
  uint32_t min_cp = 0;
  if ((b0 & 0xE0) == 0xC0) {
    len = 2;
    min_cp = 0x80;
    *cp = b0 & 0x1F;
  } else if ((b0 & 0xF0) == 0xE0) {
    len = 3;
    min_cp = 0x800;
    *cp = b0 & 0x0F;
  } else if ((b0 & 0xF8) == 0xF0) {
    len = 4;
    min_cp = 0x10000;
    *cp = b0 & 0x07;
  }
  if (len == 0 || len > text.size()) return 0;
  for (size_t k = 1; k < len; ++k) {
    const unsigned char bk = static_cast<unsigned char>(text[k]);
    if ((bk & 0xC0) != 0x80) return 0;
    *cp = (*cp << 6) | (bk & 0x3F);
  }
  if (*cp < min_cp || *cp > 0x10FFFF || (*cp >= 0xD800 && *cp <= 0xDFFF)) {
    return 0;
  }
  return len;
}

/// Appends `word` lowercased: one branch per byte on ASCII (the
/// overwhelmingly common case); multi-byte UTF-8 sequences are decoded,
/// folded via FoldCodepoint, and re-encoded. Malformed sequences are
/// copied through byte-for-byte so tokenization never mangles input it
/// doesn't understand.
void AppendLowered(std::string_view word, std::string* out) {
  size_t i = 0;
  while (i < word.size()) {
    const unsigned char b0 = static_cast<unsigned char>(word[i]);
    if (b0 < 0x80) {
      out->push_back(static_cast<char>(
          b0 >= 'A' && b0 <= 'Z' ? b0 + ('a' - 'A') : b0));
      ++i;
      continue;
    }
    uint32_t cp = 0;
    const size_t len = DecodeUtf8(word.substr(i), &cp);
    if (len == 0) {
      out->push_back(static_cast<char>(b0));
      ++i;
      continue;
    }
    AppendUtf8(FoldCodepoint(cp), out);
    i += len;
  }
}

/// Splits possessives off the word that starts at out[word]: "obama's"
/// becomes "obama s". The canonical possessive is a bare "s" token —
/// identical to what Tokenize produces for a detached " 's " written in a
/// pattern. Each split strips the stem's trailing apostrophes and hyphens
/// and looks again, so "x's's" becomes "x s s" and "a-'s" becomes "a s":
/// every piece tokenizes to itself, which keeps NormalizeText idempotent.
void SplitPossessives(size_t word, std::string* out) {
  size_t splits = 0;
  while (out->size() - word > 2 && out->ends_with("'s")) {
    out->resize(out->size() - 2);
    // A word never starts with an edge byte, so the stem never empties.
    while (ClassOf(out->back()) == kEdge) out->pop_back();
    ++splits;
  }
  for (; splits > 0; --splits) out->append(" s");
}

/// The one word scanner behind every entry point: appends the words of
/// `text` to `*out`, lowercased and separated by single spaces (the first
/// word gets no space). A word is a maximal run of word and edge bytes
/// with its edge bytes stripped from both ends; punctuation-only runs are
/// dropped.
void AppendWords(std::string_view text, bool split_possessives,
                 std::string* out) {
  const size_t begin = out->size();
  size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && ClassOf(text[i]) == kSeparator) ++i;
    size_t b = i;
    while (i < text.size() && ClassOf(text[i]) != kSeparator) ++i;
    size_t e = i;
    while (b < e && ClassOf(text[b]) == kEdge) ++b;
    while (e > b && ClassOf(text[e - 1]) == kEdge) --e;
    if (b == e) continue;
    if (out->size() > begin) out->push_back(' ');
    const size_t word = out->size();
    AppendLowered(text.substr(b, e - b), out);
    if (split_possessives) SplitPossessives(word, out);
  }
}

}  // namespace

std::vector<std::string> Tokenize(std::string_view text) {
  std::string words;
  words.reserve(text.size());
  AppendWords(text, /*split_possessives=*/false, &words);
  return SplitTokens(words);
}

std::vector<std::string> TokenizeQuestion(std::string_view text) {
  return SplitTokens(NormalizeText(text));
}

std::string JoinTokens(const std::vector<std::string>& tokens) {
  std::string out;
  for (size_t i = 0; i < tokens.size(); ++i) {
    if (i > 0) out += ' ';
    out += tokens[i];
  }
  return out;
}

std::vector<std::string> SplitTokens(std::string_view canonical) {
  std::vector<std::string> tokens;
  if (canonical.empty()) return tokens;
  tokens.reserve(
      static_cast<size_t>(std::count(canonical.begin(), canonical.end(), ' ')) +
      1);
  size_t start = 0;
  while (true) {
    const size_t end = canonical.find(' ', start);
    if (end == std::string_view::npos) {
      tokens.emplace_back(canonical.substr(start));
      return tokens;
    }
    tokens.emplace_back(canonical.substr(start, end - start));
    start = end + 1;
  }
}

std::string NormalizeText(std::string_view text) {
  // Canonical text is never longer than its input: lowercasing never
  // lengthens a character, every separating space replaces at least one
  // separator byte, and a split possessive "'s" becomes " s".
  std::string out;
  out.reserve(text.size());
  AppendWords(text, /*split_possessives=*/true, &out);
  return out;
}

}  // namespace kbqa::nlp
