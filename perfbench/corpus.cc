#include "corpus.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

Zipf::Zipf(size_t n, double s) : cdf_(n) {
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = total;
  }
  for (double& c : cdf_) c /= total;
}

size_t Zipf::Sample(Rng& rng) const {
  double u = static_cast<double>(rng() >> 11) * 0x1.0p-53;
  size_t i = static_cast<size_t>(
      std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  return std::min(i, cdf_.size() - 1);
}

std::vector<std::string> Tokenize(std::string_view text) {
  std::vector<std::string> out;
  std::string current;
  for (char c : text) {
    const bool alnum = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                       (c >= '0' && c <= '9');
    if (alnum) {
      current.push_back(
          static_cast<char>(c >= 'A' && c <= 'Z' ? c - 'A' + 'a' : c));
    } else if (!current.empty()) {
      out.push_back(std::move(current));
      current.clear();
    }
  }
  if (!current.empty()) out.push_back(std::move(current));
  return out;
}

std::string Word(size_t index) {
  static const char* const kSyllables[] = {
      "ba", "ce", "di", "fo", "gu", "ha", "je", "ki", "lo", "mu",
      "na", "pe", "ri", "so", "tu", "va", "we", "xi", "yo", "zu",
      "bra", "cle", "dri", "flo", "gru", "pla", "sme", "tri", "sto", "kru"};
  constexpr size_t kBase = sizeof(kSyllables) / sizeof(kSyllables[0]);
  std::string out;
  size_t v = index + kBase;  // at least two syllables
  while (v > 0) {
    out += kSyllables[v % kBase];
    v /= kBase;
  }
  return out;
}

void DocWriter::Open(
    std::string_view tag,
    const std::vector<std::pair<std::string, std::string>>& attrs) {
  std::vector<Elem>& elems = doc_->elems;
  const uint32_t index = static_cast<uint32_t>(elems.size());
  elems.push_back(Elem{std::string(tag), {}, {}});
  if (!stack_.empty()) elems[stack_.back()].children.push_back(index);
  std::string& out = doc_->text;
  out += '<';
  out += tag;
  for (const auto& [name, value] : attrs) {
    out += ' ';
    out += name;
    out += "=\"";
    out += value;
    out += '"';
    const uint32_t attr = static_cast<uint32_t>(elems.size());
    elems.push_back(Elem{name, Tokenize(value), {}});
    elems[index].children.push_back(attr);
  }
  out += '>';
  stack_.push_back(index);
}

void DocWriter::Text(std::string_view text) {
  doc_->text += text;
  std::vector<std::string> terms = Tokenize(text);
  std::vector<std::string>& into = doc_->elems[stack_.back()].terms;
  into.insert(into.end(), terms.begin(), terms.end());
}

void DocWriter::Close() {
  doc_->text += "</";
  doc_->text += doc_->elems[stack_.back()].tag;
  doc_->text += '>';
  stack_.pop_back();
}

// --- dblp -------------------------------------------------------------------

namespace {

std::string PlantedTerm(const char* prefix, size_t set, size_t position) {
  return std::string(prefix) + std::to_string(set) +
         static_cast<char>('a' + position);
}

}  // namespace

DblpGenerator::DblpGenerator(const DblpShape& shape, uint64_t seed)
    : shape_(shape),
      rng_(seed * 0x9E3779B97F4A7C15ULL + 17),
      words_(shape.vocabulary, shape.zipf_s),
      author_zipf_(shape.author_pool, 0.9) {
  for (size_t s = 0; s < shape.planted_sets; ++s) {
    std::vector<std::string> high, low;
    for (size_t k = 0; k < 4; ++k) {
      high.push_back(PlantedTerm("hc", s, k));
      low.push_back(PlantedTerm("lc", s, k));
    }
    planted_.high.push_back(std::move(high));
    planted_.low.push_back(std::move(low));
  }
  for (size_t a = 0; a < shape.author_pool; ++a) {
    authors_.push_back(Word(100000 + a % 300) + " " + Word(200000 + a));
  }
}

Doc DblpGenerator::Paper(size_t id, std::string_view uri_prefix,
                         std::string_view extra) {
  Doc doc;
  doc.uri = std::string(uri_prefix) + std::to_string(id);
  DocWriter w(&doc);
  const size_t year = 1985 + Uniform(rng_, 19);
  w.Open("inproceedings",
         {{"key", doc.uri},
          {"mdate", std::to_string(year) + "-" +
                        std::to_string(1 + Uniform(rng_, 12))}});
  const size_t author_count = 1 + Uniform(rng_, 4);
  for (size_t a = 0; a < author_count; ++a) {
    w.Leaf("author", authors_[author_zipf_.Sample(rng_)]);
  }
  std::string title;
  for (size_t i = 0; i < shape_.title_words; ++i) {
    if (!title.empty()) title += ' ';
    title += Word(words_.Sample(rng_));
  }
  for (size_t s = 0; s < planted_.high.size(); ++s) {
    if (Chance(rng_, shape_.high_rate / static_cast<double>(
                                           planted_.high.size()))) {
      for (const std::string& term : planted_.high[s]) title += " " + term;
    }
    // Low-correlation terms are partitioned by paper id, so a set co-occurs
    // only where it is planted whole (about one paper in a thousand).
    if (Chance(rng_, 0.001)) {
      for (const std::string& term : planted_.low[s]) title += " " + term;
    } else if (Chance(rng_, shape_.low_rate)) {
      title += " " + planted_.low[s][id % 4];
    }
  }
  w.Leaf("title", title);
  w.Leaf("booktitle", Word(300000 + Uniform(rng_, shape_.venues)) + " " +
                          std::to_string(year));
  w.Leaf("year", std::to_string(year));
  const size_t first_page = 1 + Uniform(rng_, 400);
  w.Leaf("pages", std::to_string(first_page) + "-" +
                      std::to_string(first_page + 4 + Uniform(rng_, 20)));
  if (!cited_.empty()) {
    const size_t cites = Uniform(rng_, 7);
    for (size_t c = 0; c < cites; ++c) {
      const size_t target = cited_[Uniform(rng_, cited_.size())];
      w.Open("cite", {{"xlink", "p" + std::to_string(target)}});
      w.Close();
      cited_.push_back(target);
    }
  }
  if (!extra.empty()) w.Leaf("note", extra);
  w.Close();
  if (uri_prefix == "p") cited_.push_back(id);
  return doc;
}

// --- xmark ------------------------------------------------------------------

namespace {

struct XmarkWriter {
  DocWriter& w;
  Rng& rng;
  const Zipf& words;
  const XmarkShape& shape;

  std::string Words(size_t n) {
    std::string out;
    for (size_t i = 0; i < n; ++i) {
      if (!out.empty()) out += ' ';
      out += Word(words.Sample(rng));
    }
    return out;
  }
  void TextBlock() {
    w.Open("text");
    w.Text(Words(shape.text_words / 2));
    w.Text(" ");
    w.Leaf("keyword", Words(2));
    w.Text(" ");
    w.Text(Words(shape.text_words / 2));
    w.Close();
  }
  // Nested parlist/listitem recursion: each level adds two to the depth.
  void Parlist(size_t depth) {
    w.Open("parlist");
    const size_t items = 1 + Uniform(rng, 3);
    for (size_t i = 0; i < items; ++i) {
      w.Open("listitem");
      if (depth > 1 && Chance(rng, 0.6)) {
        Parlist(depth - 1);
      } else {
        TextBlock();
      }
      w.Close();
    }
    w.Close();
  }
  void Description() {
    w.Open("description");
    if (Chance(rng, 0.7)) {
      Parlist(2 + Uniform(rng, 2));
    } else {
      TextBlock();
    }
    w.Close();
  }
};

void WriteAuction(XmarkWriter& x, const std::string& prefix, size_t doc,
                  size_t items, size_t people, size_t open, size_t closed,
                  size_t categories) {
  DocWriter& w = x.w;
  Rng& rng = x.rng;
  auto id = [&](const char* kind, size_t i) {
    // Dashes split the id into common tokens: unique id terms would each
    // cost a posting-list page and swamp the index.
    return prefix + kind + "-" + std::to_string(doc) + "-" + std::to_string(i);
  };
  w.Open("site");
  w.Open("regions");
  static const char* const kRegions[] = {"africa", "asia", "australia",
                                         "europe", "namerica", "samerica"};
  size_t item = 0;
  for (size_t r = 0; r < 6; ++r) {
    w.Open(kRegions[r]);
    const size_t here = r == 5 ? items - item : items / 6;
    for (size_t i = 0; i < here; ++i, ++item) {
      w.Open("item", {{"id", id("item", item)}});
      w.Leaf("location", x.Words(1));
      w.Leaf("quantity", std::to_string(1 + Uniform(rng, 5)));
      w.Leaf("name", x.Words(3));
      w.Leaf("payment", x.Words(2));
      x.Description();
      w.Leaf("shipping", x.Words(4));
      w.Open("incategory",
             {{"category", id("category", Uniform(rng, categories))}});
      w.Close();
      w.Open("mailbox");
      const size_t mails = Uniform(rng, 3);
      for (size_t m = 0; m < mails; ++m) {
        w.Open("mail");
        w.Leaf("from", x.Words(2));
        w.Leaf("to", x.Words(2));
        w.Leaf("date", std::to_string(1 + Uniform(rng, 28)) + " " +
                           std::to_string(1998 + Uniform(rng, 4)));
        x.TextBlock();
        w.Close();
      }
      w.Close();
      w.Close();
    }
    w.Close();
  }
  w.Close();
  w.Open("categories");
  for (size_t c = 0; c < categories; ++c) {
    w.Open("category", {{"id", id("category", c)}});
    w.Leaf("name", x.Words(2));
    x.Description();
    w.Close();
  }
  w.Close();
  w.Open("people");
  for (size_t p = 0; p < people; ++p) {
    w.Open("person", {{"id", id("person", p)}});
    w.Leaf("name", x.Words(2));
    w.Leaf("emailaddress", "mailto " + x.Words(2));
    w.Open("profile",
           {{"income", std::to_string(10000 + 5000 * Uniform(rng, 19))}});
    w.Leaf("education", x.Words(2));
    w.Leaf("business", Chance(rng, 0.5) ? "yes" : "no");
    w.Close();
    w.Open("watches");
    const size_t watches = Uniform(rng, 3);
    for (size_t i = 0; i < watches && open > 0; ++i) {
      w.Open("watch", {{"open_auction", id("open", Uniform(rng, open))}});
      w.Close();
    }
    w.Close();
    w.Close();
  }
  w.Close();
  auto annotation = [&]() {
    w.Open("annotation");
    w.Open("author", {{"person", id("person", Uniform(rng, people))}});
    w.Close();
    x.Description();
    w.Close();
  };
  w.Open("open_auctions");
  for (size_t a = 0; a < open; ++a) {
    w.Open("open_auction", {{"id", id("open", a)}});
    w.Leaf("initial", std::to_string(1 + Uniform(rng, 200)));
    const size_t bidders = Uniform(rng, 4);
    for (size_t b = 0; b < bidders; ++b) {
      w.Open("bidder");
      w.Leaf("date", std::to_string(1 + Uniform(rng, 28)) + " 2001");
      w.Open("personref", {{"person", id("person", Uniform(rng, people))}});
      w.Close();
      w.Leaf("increase", std::to_string(1 + Uniform(rng, 30)));
      w.Close();
    }
    w.Open("itemref", {{"item", id("item", Uniform(rng, items))}});
    w.Close();
    w.Open("seller", {{"person", id("person", Uniform(rng, people))}});
    w.Close();
    annotation();
    w.Close();
  }
  w.Close();
  w.Open("closed_auctions");
  for (size_t a = 0; a < closed; ++a) {
    w.Open("closed_auction");
    w.Open("seller", {{"person", id("person", Uniform(rng, people))}});
    w.Close();
    w.Open("buyer", {{"person", id("person", Uniform(rng, people))}});
    w.Close();
    w.Open("itemref", {{"item", id("item", Uniform(rng, items))}});
    w.Close();
    w.Leaf("price", std::to_string(1 + Uniform(rng, 500)));
    annotation();
    w.Close();
  }
  w.Close();
  w.Close();
}

}  // namespace

std::vector<Doc> GenerateXmark(const XmarkShape& shape, uint64_t seed) {
  Rng rng(seed * 0xD1B54A32D192ED03ULL + 5);
  Zipf words(shape.vocabulary, shape.zipf_s);
  std::vector<Doc> docs;
  for (size_t d = 0; d < shape.documents; ++d) {
    Doc doc;
    doc.uri = "auction" + std::to_string(d) + ".xml";
    DocWriter w(&doc);
    XmarkWriter x{w, rng, words, shape};
    WriteAuction(x, "", d, shape.items, shape.people, shape.open_auctions,
                 shape.closed_auctions, shape.categories);
    docs.push_back(std::move(doc));
  }
  return docs;
}

Doc XmarkSmallDoc(const std::string& uri, Rng& rng, const XmarkShape& shape) {
  static const Zipf words(shape.vocabulary, shape.zipf_s);
  Doc doc;
  doc.uri = uri;
  DocWriter w(&doc);
  XmarkWriter x{w, rng, words, shape};
  WriteAuction(x, uri + "z", 0, 2, 1, 1, 1, 1);
  return doc;
}

// --- model queries ----------------------------------------------------------

void ModelIndex::AddDoc(const Doc* doc) {
  by_uri_[doc->uri] = doc;
  std::unordered_set<std::string> seen;
  for (const Elem& elem : doc->elems) {
    for (const std::string& term : elem.terms) {
      if (seen.insert(term).second) docs_by_term_[term].push_back(doc);
    }
  }
}

const Doc* ModelIndex::FindDoc(const std::string& uri) const {
  auto it = by_uri_.find(uri);
  return it == by_uri_.end() ? nullptr : it->second;
}

const Elem* ModelIndex::Resolve(const Doc& doc,
                                const std::vector<uint32_t>& path,
                                size_t first) {
  const Elem* elem = &doc.elems[0];
  for (size_t i = first; i < path.size(); ++i) {
    if (path[i] >= elem->children.size()) return nullptr;
    elem = &doc.elems[elem->children[path[i]]];
  }
  return elem;
}

bool ModelIndex::SubtreeHas(const Doc& doc, const Elem& elem,
                            const std::vector<std::string>& keywords,
                            bool all) {
  std::vector<bool> found(keywords.size(), false);
  size_t remaining = keywords.size();
  std::vector<const Elem*> stack = {&elem};
  while (!stack.empty() && remaining > 0) {
    const Elem* e = stack.back();
    stack.pop_back();
    for (const std::string& term : e->terms) {
      for (size_t k = 0; k < keywords.size(); ++k) {
        if (!found[k] && term == keywords[k]) {
          found[k] = true;
          --remaining;
          if (!all) return true;
        }
      }
    }
    for (uint32_t child : e->children) stack.push_back(&doc.elems[child]);
  }
  return remaining == 0;
}

size_t ModelIndex::DocsWithAll(
    const std::vector<std::string>& keywords,
    const std::unordered_set<std::string>& excluded) const {
  if (keywords.empty()) return 0;
  std::vector<std::unordered_set<const Doc*>> sets;
  for (const std::string& keyword : keywords) {
    auto it = docs_by_term_.find(keyword);
    if (it == docs_by_term_.end()) return 0;
    sets.emplace_back(it->second.begin(), it->second.end());
  }
  size_t count = 0;
  for (const Doc* doc : sets[0]) {
    if (excluded.count(doc->uri) > 0) continue;
    bool all = true;
    for (size_t k = 1; k < sets.size() && all; ++k) all = sets[k].count(doc) > 0;
    if (all) ++count;
  }
  return count;
}

}  // namespace perfbench
