#include "rdf/query.h"

#include <algorithm>
#include <cassert>
#include <cctype>

#include "util/strings.h"

namespace kbqa::rdf {

namespace {

/// Splits the body of a WHERE clause into whitespace-separated tokens,
/// keeping double-quoted literals (which may contain spaces) as single
/// tokens without the quotes.
Result<std::vector<std::string>> TokenizeBody(std::string_view body) {
  std::vector<std::string> tokens;
  size_t i = 0;
  while (i < body.size()) {
    while (i < body.size() && std::isspace(static_cast<unsigned char>(body[i]))) {
      ++i;
    }
    if (i >= body.size()) break;
    if (body[i] == '"') {
      size_t close = body.find('"', i + 1);
      if (close == std::string_view::npos) {
        return Status::InvalidArgument("unterminated quoted literal");
      }
      tokens.emplace_back(body.substr(i + 1, close - i - 1));
      i = close + 1;
    } else {
      size_t start = i;
      while (i < body.size() &&
             !std::isspace(static_cast<unsigned char>(body[i]))) {
        ++i;
      }
      tokens.emplace_back(body.substr(start, i - start));
    }
  }
  return tokens;
}

PatternTerm MakeTerm(const std::string& token) {
  if (!token.empty() && token[0] == '?') {
    return PatternTerm{true, token.substr(1)};
  }
  return PatternTerm{false, token};
}

std::string TermToString(const PatternTerm& term) {
  if (term.is_variable) return "?" + term.text;
  if (term.text.find(' ') != std::string::npos) return '"' + term.text + '"';
  return term.text;
}

/// Binding environment during evaluation.
using Bindings = std::unordered_map<std::string, TermId>;

/// Resolves a pattern term under current bindings. Returns true and sets
/// `out` when the term is concrete (bound variable or constant found in the
/// dictionary); `known` is false when a constant is absent from the KB
/// (query yields no rows through this pattern).
bool ResolveTerm(const KnowledgeBase& kb, const PatternTerm& term,
                 const Bindings& bindings, TermId* out, bool* known) {
  *known = true;
  if (term.is_variable) {
    auto it = bindings.find(term.text);
    if (it == bindings.end()) return false;
    *out = it->second;
    return true;
  }
  auto id = kb.LookupNode(term.text);
  if (!id) {
    *known = false;
    return true;  // concrete but unknown -> zero matches
  }
  *out = *id;
  return true;
}

/// Recursive nested-loop join over `patterns[index..]`.
void Evaluate(const KnowledgeBase& kb,
              const std::vector<TriplePattern>& patterns, size_t index,
              Bindings& bindings, const Query& query,
              std::vector<QueryRow>* rows, QueryStats* stats) {
  if (index == patterns.size()) {
    QueryRow row;
    row.reserve(query.select.size());
    for (const std::string& var : query.select) {
      auto it = bindings.find(var);
      row.push_back(it == bindings.end() ? kInvalidTerm : it->second);
    }
    rows->push_back(std::move(row));
    ++stats->bindings_produced;
    return;
  }

  const TriplePattern& pattern = patterns[index];
  ++stats->patterns_evaluated;

  auto pred = kb.LookupPredicate(pattern.predicate);
  if (!pred) return;  // unknown predicate: no matches

  TermId s = kInvalidTerm, o = kInvalidTerm;
  bool s_known = true, o_known = true;
  bool s_bound = ResolveTerm(kb, pattern.subject, bindings, &s, &s_known);
  bool o_bound = ResolveTerm(kb, pattern.object, bindings, &o, &o_known);
  if (!s_known || !o_known) return;

  auto bind_and_recurse = [&](const std::string& var, TermId value) {
    bindings[var] = value;
    Evaluate(kb, patterns, index + 1, bindings, query, rows, stats);
    bindings.erase(var);
  };

  if (s_bound && o_bound) {
    ++stats->index_lookups;
    if (kb.HasTriple(s, *pred, o)) {
      Evaluate(kb, patterns, index + 1, bindings, query, rows, stats);
    }
  } else if (s_bound) {
    ++stats->index_lookups;
    for (const auto& po : kb.ObjectsRange(s, *pred)) {
      bind_and_recurse(pattern.object.text, po.o);
    }
  } else if (o_bound) {
    ++stats->index_lookups;
    // In-CSR ranges are sorted by predicate, so the matching subjects are
    // one contiguous sub-range instead of a filtered scan of all in-edges.
    for (const auto& ps : kb.SubjectsRange(o, *pred)) {
      bind_and_recurse(pattern.subject.text, ps.o);
    }
  } else {
    // Neither side bound: full scan over subjects (the planner tries to
    // avoid ordering patterns this way).
    ++stats->full_scans;
    const bool same_variable =
        pattern.subject.is_variable && pattern.object.is_variable &&
        pattern.subject.text == pattern.object.text;
    for (TermId node = 0; node < kb.num_nodes(); ++node) {
      if (kb.IsLiteral(node)) continue;
      auto range = kb.ObjectsRange(node, *pred);
      if (range.empty()) continue;
      if (same_variable) {
        // Self-loop pattern "?x p ?x": one variable, one equality
        // constraint — only reflexive edges match.
        for (const auto& po : range) {
          if (po.o == node) {
            bind_and_recurse(pattern.subject.text, node);
            break;
          }
        }
        continue;
      }
      bindings[pattern.subject.text] = node;
      for (const auto& po : range) {
        bind_and_recurse(pattern.object.text, po.o);
      }
      bindings.erase(pattern.subject.text);
    }
  }
}

/// Greedy planner: repeatedly pick the pattern with the most terms bound
/// (constants or already-planned variables); ties broken by original order.
std::vector<TriplePattern> PlanPatterns(
    const std::vector<TriplePattern>& where) {
  std::vector<TriplePattern> planned;
  std::vector<bool> used(where.size(), false);
  std::unordered_map<std::string, bool> bound_vars;

  auto boundness = [&](const TriplePattern& p) {
    int score = 0;
    if (!p.subject.is_variable || bound_vars.count(p.subject.text)) score += 2;
    if (!p.object.is_variable || bound_vars.count(p.object.text)) score += 1;
    return score;
  };

  for (size_t step = 0; step < where.size(); ++step) {
    int best_score = -1;
    size_t best = 0;
    for (size_t i = 0; i < where.size(); ++i) {
      if (used[i]) continue;
      int score = boundness(where[i]);
      if (score > best_score) {
        best_score = score;
        best = i;
      }
    }
    used[best] = true;
    planned.push_back(where[best]);
    if (where[best].subject.is_variable) {
      bound_vars[where[best].subject.text] = true;
    }
    if (where[best].object.is_variable) {
      bound_vars[where[best].object.text] = true;
    }
  }
  return planned;
}

}  // namespace

Result<Query> ParseQuery(const std::string& text) {
  size_t select_pos = text.find("SELECT");
  size_t where_pos = text.find("WHERE");
  if (select_pos == std::string::npos || where_pos == std::string::npos ||
      where_pos < select_pos) {
    return Status::InvalidArgument("expected 'SELECT ... WHERE { ... }'");
  }
  size_t open = text.find('{', where_pos);
  size_t close = text.rfind('}');
  if (open == std::string::npos || close == std::string::npos ||
      close < open) {
    return Status::InvalidArgument("WHERE clause must be braced");
  }

  Query query;
  for (const std::string& tok : SplitWhitespace(
           text.substr(select_pos + 6, where_pos - select_pos - 6))) {
    if (tok.empty() || tok[0] != '?') {
      return Status::InvalidArgument("SELECT terms must be variables: " + tok);
    }
    query.select.push_back(tok.substr(1));
  }
  if (query.select.empty()) {
    return Status::InvalidArgument("SELECT needs at least one variable");
  }

  auto tokens = TokenizeBody(text.substr(open + 1, close - open - 1));
  if (!tokens.ok()) return tokens.status();

  std::vector<std::string> current;
  auto flush = [&]() -> Status {
    if (current.empty()) return Status::Ok();
    if (current.size() != 3) {
      return Status::InvalidArgument(
          "each pattern needs exactly 3 terms, got " +
          std::to_string(current.size()));
    }
    if (current[1][0] == '?') {
      return Status::InvalidArgument("predicate variables are unsupported");
    }
    query.where.push_back(TriplePattern{MakeTerm(current[0]), current[1],
                                        MakeTerm(current[2])});
    current.clear();
    return Status::Ok();
  };

  for (const std::string& tok : tokens.value()) {
    if (tok == ".") {
      KBQA_RETURN_IF_ERROR(flush());
    } else {
      current.push_back(tok);
    }
  }
  KBQA_RETURN_IF_ERROR(flush());
  if (query.where.empty()) {
    return Status::InvalidArgument("WHERE clause has no patterns");
  }
  return query;
}

std::string QueryToString(const Query& query) {
  std::string out = "SELECT";
  for (const std::string& var : query.select) out += " ?" + var;
  out += " WHERE {";
  for (size_t i = 0; i < query.where.size(); ++i) {
    if (i > 0) out += " .";
    const TriplePattern& p = query.where[i];
    out += ' ';
    out += TermToString(p.subject);
    out += ' ';
    out += p.predicate;
    out += ' ';
    out += TermToString(p.object);
  }
  out += " }";
  return out;
}

Result<std::vector<QueryRow>> ExecuteQuery(const KnowledgeBase& kb,
                                           const Query& query,
                                           QueryStats* stats) {
  if (!kb.frozen()) {
    return Status::FailedPrecondition("ExecuteQuery requires a frozen KB");
  }
  if (query.select.empty() || query.where.empty()) {
    return Status::InvalidArgument("query needs SELECT and WHERE parts");
  }
  QueryStats local_stats;
  if (stats == nullptr) stats = &local_stats;

  std::vector<TriplePattern> planned = PlanPatterns(query.where);
  std::vector<QueryRow> rows;
  Bindings bindings;
  Evaluate(kb, planned, 0, bindings, query, &rows, stats);

  // Deterministic output order + duplicate elimination (set semantics).
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  return rows;
}

Query BuildPathQuery(const KnowledgeBase& kb, TermId e,
                     const std::vector<PredId>& path) {
  assert(!path.empty());
  Query query;
  query.select = {"v"};
  PatternTerm subject{false, kb.NodeString(e)};
  for (size_t i = 0; i < path.size(); ++i) {
    const bool last = (i + 1 == path.size());
    PatternTerm object{true, last ? "v" : "x"};
    if (!last) object.text += std::to_string(i + 1);
    query.where.push_back(
        TriplePattern{subject, kb.PredicateString(path[i]), object});
    subject = object;
  }
  return query;
}

}  // namespace kbqa::rdf
