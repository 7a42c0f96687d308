#include "rdf/ntriples.h"

#include <cctype>
#include <fstream>
#include <optional>
#include <string_view>

#include "util/strings.h"

namespace kbqa::rdf {

namespace {

std::string EscapeLiteral(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        out += c;
    }
  }
  return out;
}

/// Parses `digits` hex characters of `line` starting at `*pos`; advances
/// `*pos` past them. Returns nullopt on a short or non-hex sequence.
std::optional<uint32_t> ReadHexDigits(const std::string& line, size_t* pos,
                                      int digits) {
  uint32_t value = 0;
  for (int d = 0; d < digits; ++d) {
    if (*pos >= line.size()) return std::nullopt;
    const char c = line[*pos];
    uint32_t nibble;
    if (c >= '0' && c <= '9') {
      nibble = static_cast<uint32_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      nibble = static_cast<uint32_t>(c - 'a' + 10);
    } else if (c >= 'A' && c <= 'F') {
      nibble = static_cast<uint32_t>(c - 'A' + 10);
    } else {
      return std::nullopt;
    }
    value = (value << 4) | nibble;
    ++*pos;
  }
  return value;
}

/// Appends the UTF-8 encoding of `cp`. False for surrogate code points and
/// anything beyond U+10FFFF (not Unicode scalar values).
bool AppendUtf8(uint32_t cp, std::string* out) {
  if ((cp >= 0xD800 && cp <= 0xDFFF) || cp > 0x10FFFF) return false;
  if (cp < 0x80) {
    *out += static_cast<char>(cp);
  } else if (cp < 0x800) {
    *out += static_cast<char>(0xC0 | (cp >> 6));
    *out += static_cast<char>(0x80 | (cp & 0x3F));
  } else if (cp < 0x10000) {
    *out += static_cast<char>(0xE0 | (cp >> 12));
    *out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    *out += static_cast<char>(0x80 | (cp & 0x3F));
  } else {
    *out += static_cast<char>(0xF0 | (cp >> 18));
    *out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
    *out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    *out += static_cast<char>(0x80 | (cp & 0x3F));
  }
  return true;
}

/// Reads an angle-bracketed term starting at `pos`; advances `pos` past it.
Result<std::string> ReadIri(const std::string& line, size_t* pos) {
  if (*pos >= line.size() || line[*pos] != '<') {
    return Status::InvalidArgument("expected '<' at column " +
                                   std::to_string(*pos));
  }
  size_t close = line.find('>', *pos + 1);
  if (close == std::string::npos) {
    return Status::InvalidArgument("unterminated IRI");
  }
  std::string iri = line.substr(*pos + 1, close - *pos - 1);
  if (iri.empty()) return Status::InvalidArgument("empty IRI");
  *pos = close + 1;
  return iri;
}

/// Reads a quoted literal with escapes starting at `pos`.
Result<std::string> ReadLiteral(const std::string& line, size_t* pos) {
  std::string out;
  for (size_t i = *pos + 1; i < line.size(); ++i) {
    char c = line[i];
    if (c == '\\') {
      if (i + 1 >= line.size()) {
        return Status::InvalidArgument("dangling escape");
      }
      char next = line[++i];
      switch (next) {
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case 'u':
        case 'U': {
          // \uXXXX / \UXXXXXXXX numeric escapes (N-Triples spec UCHAR),
          // decoded to UTF-8 bytes.
          size_t hex_pos = i + 1;
          auto cp = ReadHexDigits(line, &hex_pos, next == 'u' ? 4 : 8);
          if (!cp || !AppendUtf8(*cp, &out)) {
            return Status::InvalidArgument(
                std::string("bad numeric escape \\") + next);
          }
          i = hex_pos - 1;  // The loop increment steps past the last digit.
          break;
        }
        default:
          return Status::InvalidArgument(std::string("bad escape \\") + next);
      }
    } else if (c == '"') {
      *pos = i + 1;
      return out;
    } else {
      out += c;
    }
  }
  return Status::InvalidArgument("unterminated literal");
}

void SkipSpace(const std::string& line, size_t* pos) {
  while (*pos < line.size() &&
         std::isspace(static_cast<unsigned char>(line[*pos]))) {
    ++*pos;
  }
}

}  // namespace

Result<NTriple> ParseNTripleLine(const std::string& line) {
  NTriple triple;
  size_t pos = 0;
  SkipSpace(line, &pos);

  auto subject = ReadIri(line, &pos);
  if (!subject.ok()) return subject.status();
  triple.subject = std::move(subject).value();
  SkipSpace(line, &pos);

  auto predicate = ReadIri(line, &pos);
  if (!predicate.ok()) return predicate.status();
  triple.predicate = std::move(predicate).value();
  SkipSpace(line, &pos);

  if (pos >= line.size()) return Status::InvalidArgument("missing object");
  if (line[pos] == '"') {
    auto literal = ReadLiteral(line, &pos);
    if (!literal.ok()) return literal.status();
    triple.object = std::move(literal).value();
    triple.object_is_literal = true;
  } else {
    auto object = ReadIri(line, &pos);
    if (!object.ok()) return object.status();
    triple.object = std::move(object).value();
  }
  SkipSpace(line, &pos);
  if (pos >= line.size() || line[pos] != '.') {
    return Status::InvalidArgument("missing terminating '.'");
  }
  ++pos;
  SkipSpace(line, &pos);
  if (pos != line.size()) {
    return Status::InvalidArgument("trailing content after '.'");
  }
  return triple;
}

std::string FormatNTripleLine(const NTriple& triple) {
  std::string out = "<" + triple.subject + "> <" + triple.predicate + "> ";
  if (triple.object_is_literal) {
    out += '"';
    out += EscapeLiteral(triple.object);
    out += '"';
  } else {
    out += "<" + triple.object + ">";
  }
  out += " .";
  return out;
}

Status ExportNTriples(const KnowledgeBase& kb, const std::string& path) {
  if (!kb.frozen()) {
    return Status::FailedPrecondition("ExportNTriples requires Freeze()");
  }
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open for write: " + path);
  out << "# exported by kbqa rdf::ExportNTriples — " << kb.num_triples()
      << " triples\n";
  for (TermId s = 0; s < kb.num_nodes(); ++s) {
    if (kb.IsLiteral(s)) continue;
    for (const auto& [p, o] : kb.Out(s)) {
      NTriple triple;
      triple.subject = kb.NodeString(s);
      triple.predicate = kb.PredicateString(p);
      triple.object = kb.NodeString(o);
      triple.object_is_literal = kb.IsLiteral(o);
      out << FormatNTripleLine(triple) << '\n';
    }
  }
  out.flush();
  if (!out) return Status::IoError("short write: " + path);
  return Status::Ok();
}

Result<KnowledgeBase> ImportNTriples(const std::string& path,
                                     const std::string& name_predicate) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open for read: " + path);
  KnowledgeBase kb;
  std::string line;
  for (size_t line_number = 1; std::getline(in, line); ++line_number) {
    const std::string_view trimmed = Trim(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    auto triple = ParseNTripleLine(line);
    if (!triple.ok()) {
      return Status::InvalidArgument(path + ":" + std::to_string(line_number) +
                                     ": " + triple.status().message());
    }
    const NTriple& t = triple.value();
    kb.AddTriple(t.subject, t.predicate, t.object, t.object_is_literal);
  }
  auto name_pred = kb.LookupPredicate(name_predicate);
  if (name_pred) kb.SetNamePredicate(*name_pred);
  kb.Freeze();
  return kb;
}

}  // namespace kbqa::rdf
