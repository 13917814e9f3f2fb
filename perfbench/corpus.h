// Seeded input generation for the benchmark, and the benchmark's own model
// of what it generated.
//
// Every generator writes XML text and, alongside it, a plain tree model of
// the elements the engine will see: attributes become leading child
// elements holding their value (the paper's convention, which the engine
// follows), and each element keeps the terms of its direct text, tokenized
// here as maximal runs of ASCII letters and digits, lower-cased. The checks
// in main.cc answer "does this element contain these keywords" from the
// model alone, never from the engine.
#ifndef XRANK_PERFBENCH_CORPUS_H_
#define XRANK_PERFBENCH_CORPUS_H_

#include <cstdint>
#include <random>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

namespace perfbench {

using Rng = std::mt19937_64;

inline uint64_t Uniform(Rng& rng, uint64_t n) { return rng() % n; }
inline bool Chance(Rng& rng, double p) {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53 < p;
}

// P(rank i) proportional to 1 / (i + 1)^s over [0, n).
class Zipf {
 public:
  Zipf(size_t n, double s);
  size_t Sample(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

// Maximal runs of ASCII alphanumerics, lower-cased.
std::vector<std::string> Tokenize(std::string_view text);

// Deterministic pronounceable word for an index (letters only, so it never
// collides with the digit-bearing keys and markers).
std::string Word(size_t index);

struct Elem {
  std::string tag;
  std::vector<std::string> terms;  // direct text only
  std::vector<uint32_t> children;  // attribute elements first
};

struct Doc {
  std::string uri;
  std::string text;         // the XML handed to the engine
  std::vector<Elem> elems;  // elems[0] is the root
};

// Appends XML to doc->text and mirrors it in doc->elems.
class DocWriter {
 public:
  explicit DocWriter(Doc* doc) : doc_(doc) {}
  void Open(std::string_view tag,
            const std::vector<std::pair<std::string, std::string>>& attrs = {});
  void Text(std::string_view text);
  void Close();
  void Leaf(std::string_view tag, std::string_view text) {
    Open(tag);
    Text(text);
    Close();
  }

 private:
  Doc* doc_;
  std::vector<uint32_t> stack_;
};

// Planted keyword sets after the paper's Fig. 10/11: the four terms of a
// high-correlation set always occur together in one title; the terms of a
// low-correlation set are each frequent but co-occur in about one paper in
// a thousand.
struct Planted {
  std::vector<std::vector<std::string>> high;
  std::vector<std::vector<std::string>> low;
};

struct DblpShape {
  size_t vocabulary = 6000;
  double zipf_s = 1.0;
  size_t title_words = 9;
  size_t author_pool = 2500;
  size_t venues = 40;
  size_t planted_sets = 8;
  double high_rate = 0.03;  // papers carrying a high-correlation set
  double low_rate = 0.10;   // papers carrying a low-correlation term
};

class DblpGenerator {
 public:
  DblpGenerator(const DblpShape& shape, uint64_t seed);
  // Paper `id` with URI <uri_prefix><id>; it cites up to six base papers
  // ("p<n>", generated earlier) by preferential attachment, so live papers
  // (another prefix) continue the numbering. `extra` (may be empty) is
  // appended as a <note> element.
  Doc Paper(size_t id, std::string_view uri_prefix, std::string_view extra);
  const Planted& planted() const { return planted_; }
  const std::vector<std::string>& authors() const { return authors_; }

 private:
  DblpShape shape_;
  Rng rng_;
  Zipf words_;
  Zipf author_zipf_;
  Planted planted_;
  std::vector<std::string> authors_;
  std::vector<size_t> cited_;  // preferential-attachment urn of paper ids
};

struct XmarkShape {
  size_t documents = 8;
  size_t items = 110;
  size_t people = 70;
  size_t open_auctions = 90;
  size_t closed_auctions = 45;
  size_t categories = 12;
  size_t vocabulary = 2500;
  double zipf_s = 1.0;
  size_t text_words = 14;
};

std::vector<Doc> GenerateXmark(const XmarkShape& shape, uint64_t seed);
// A small auction document of the same schema (live adds on the router).
Doc XmarkSmallDoc(const std::string& uri, Rng& rng, const XmarkShape& shape);

// --- independent answers from the model -----------------------------------

class ModelIndex {
 public:
  // `doc` must outlive the index; live documents are added as they come.
  void AddDoc(const Doc* doc);
  const Doc* FindDoc(const std::string& uri) const;
  // Element of `doc` at the Dewey components after the document id; null
  // when the path leaves the tree.
  static const Elem* Resolve(const Doc& doc, const std::vector<uint32_t>& path,
                             size_t first);
  // Whether the subtree of `elem` holds every keyword (conjunctive) or at
  // least one (disjunctive).
  static bool SubtreeHas(const Doc& doc, const Elem& elem,
                         const std::vector<std::string>& keywords, bool all);
  // Number of documents whose text holds every keyword.
  size_t DocsWithAll(const std::vector<std::string>& keywords,
                     const std::unordered_set<std::string>& excluded) const;

 private:
  std::unordered_map<std::string, const Doc*> by_uri_;
  std::unordered_map<std::string, std::vector<const Doc*>> docs_by_term_;
};

}  // namespace perfbench

#endif  // XRANK_PERFBENCH_CORPUS_H_
