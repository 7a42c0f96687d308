// Fuzz target: the question front end (registry: src/nlp/tokenizer.h).
// Oracle: NormalizeText's one scan equals a reference built from
// Tokenize, the possessive split and JoinTokens; its text is canonical —
// no ASCII uppercase, no empty or doubled spaces — splits at its spaces
// into exactly TokenizeQuestion's tokens, and normalizes to itself.

#include <string>
#include <string_view>
#include <vector>

#include "fuzz/fuzz_driver.h"
#include "nlp/tokenizer.h"

namespace {

bool IsEdge(char c) { return c == '\'' || c == '-'; }

/// The canonical text spelled out token by token: a Tokenize token that
/// ends in "'s" after a stem becomes the stem, with trailing apostrophes
/// and hyphens stripped, and a separate "s" — repeatedly.
std::string ReferenceNormalize(std::string_view text) {
  std::vector<std::string> pieces;
  for (std::string token : kbqa::nlp::Tokenize(text)) {
    size_t splits = 0;
    while (token.size() > 2 && token.ends_with("'s")) {
      token.resize(token.size() - 2);
      while (!token.empty() && IsEdge(token.back())) token.pop_back();
      ++splits;
    }
    pieces.push_back(token);
    pieces.insert(pieces.end(), splits, "s");
  }
  return kbqa::nlp::JoinTokens(pieces);
}

std::vector<std::string> SplitAtSpaces(const std::string& text) {
  std::vector<std::string> pieces;
  if (text.empty()) return pieces;
  std::string piece;
  for (char c : text) {
    if (c == ' ') {
      pieces.push_back(piece);
      piece.clear();
    } else {
      piece.push_back(c);
    }
  }
  pieces.push_back(piece);
  return pieces;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string_view text(reinterpret_cast<const char*>(data), size);
  const std::string canonical = kbqa::nlp::NormalizeText(text);
  if (canonical != ReferenceNormalize(text)) __builtin_trap();
  for (size_t i = 0; i < canonical.size(); ++i) {
    const char c = canonical[i];
    if (c >= 'A' && c <= 'Z') __builtin_trap();
    if (c == ' ' && (i == 0 || i + 1 == canonical.size() ||
                     canonical[i + 1] == ' ')) {
      __builtin_trap();  // an empty piece
    }
  }
  const std::vector<std::string> pieces = SplitAtSpaces(canonical);
  if (pieces != kbqa::nlp::TokenizeQuestion(text)) __builtin_trap();
  if (pieces != kbqa::nlp::SplitTokens(canonical)) __builtin_trap();
  if (kbqa::nlp::NormalizeText(canonical) != canonical) __builtin_trap();
  return 0;
}

namespace kbqa::fuzz {

std::vector<std::string> SeedInputs() {
  return {
      "who is the wife of barack obama",
      "When was Barack Obama's wife born?",
      "how many people are there in honolulu",
      "'hello' -world- twenty-one 390,000",
      "obama's's wife-'s friend''s AGE",
      "Où est JOSÉ García? İstanbul Ÿ 3×4",
      "МОСКВА 北京",
      std::string("ab") + '\x85' + "cd x" + '\xC3',
  };
}

std::vector<std::string> Dictionary() {
  return {"'s",           "'",        "-",        " ",
          "?",            "S",        "\xC3\x89", "\xC4\xB0",
          "\xC5\xB8",     "\xC0\xA0", "\xC1\x81", "\xE0\x80\xAF",
          "\xED\xA0\x80", "\xF4\x90\x80\x80"};
}

}  // namespace kbqa::fuzz
