#ifndef KBQA_RDF_NTRIPLES_H_
#define KBQA_RDF_NTRIPLES_H_

#include <string>

#include "rdf/knowledge_base.h"
#include "util/status.h"

namespace kbqa::rdf {

/// N-Triples-style text interchange for the knowledge base, so real RDF
/// dumps (DBpedia extracts etc.) can be loaded and generated worlds can be
/// inspected with standard text tools.
///
/// Dialect: one triple per line,
///   <subject-iri> <predicate> "literal object" .
///   <subject-iri> <predicate> <object-iri> .
/// '#'-prefixed lines and blank lines are skipped. Literals support the
/// escapes \" \\ \n \r \t plus the numeric \uXXXX / \UXXXXXXXX forms
/// (decoded to UTF-8 bytes, so escaped entity names tokenize and
/// case-fold exactly like their raw UTF-8 forms — see nlp/tokenizer.h).
/// IRIs are free-form strings without whitespace or
/// angle brackets (the library's node strings are not required to be true
/// IRIs).

/// Writes a frozen KB as N-Triples text.
[[nodiscard]] Status ExportNTriples(const KnowledgeBase& kb, const std::string& path);

/// Parses an N-Triples file into a fresh, frozen knowledge base, one line
/// at a time in file order: ids are assigned in first-seen order, and a
/// bad line fails the import with its file line number. `name_predicate`
/// (default "name") is declared as the KB's name predicate when it occurs
/// in the data.
[[nodiscard]] Result<KnowledgeBase> ImportNTriples(
    const std::string& path, const std::string& name_predicate = "name");

/// Single-line parse/format helpers (exposed for tests and tooling).
struct NTriple {
  std::string subject;
  std::string predicate;
  std::string object;
  bool object_is_literal = false;
};
[[nodiscard]] Result<NTriple> ParseNTripleLine(const std::string& line);
std::string FormatNTripleLine(const NTriple& triple);

}  // namespace kbqa::rdf

#endif  // KBQA_RDF_NTRIPLES_H_
