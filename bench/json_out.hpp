// The bench baselines: each bench binary builds its rows from typed fields
// and either writes them as its bench/baseline_*.json or checks a fresh run
// against that file.
//
//   bench_X                 run, then write the bench's baseline path
//                           (relative to the working directory: run it from
//                           the repo root to re-pin the committed file)
//   bench_X --check FILE    run, then compare with FILE; write nothing
//
// Every field is declared where the bench prints it:
//   exact  compared by its printed text, with no tolerance: identity fields,
//          seeded counters, flags and deterministic averages;
//   rate   machine speed (*_rps, *_speedup): passes if fresh >= 0.1 x
//          baseline, from one run;
//   info   written, never compared: timings, latencies, cache luck.
// Sections match by name and order, rows by position, and a key present on
// one side only fails.  finish() returns the exit status: 0 on a pass, 1 on
// a mismatch, 2 when the output cannot be written; an unreadable or
// malformed FILE exits 2 before the bench runs.
//
// The document is one object of named arrays of flat rows, plus a "meta"
// stamp (compiler, flags, detected kernel dispatch tier) that is written
// but never compared, so cross-machine differences stay diagnosable.
#pragma once

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <concepts>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/perm_kernels.hpp"

namespace benchjson {

/// Rates must reach this fraction of their baseline.
inline constexpr double kRateFloor = 0.1;

struct Field {
  enum Kind { kExact, kRate, kInfo };
  Kind kind;
  std::string key;
  std::string text;  // the value exactly as the JSON file spells it
};

inline std::string text_of(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}
template <std::integral T>
std::string text_of(T v) {
  return std::to_string(static_cast<unsigned long long>(v));
}
inline std::string text_of(const std::string& v) { return "\"" + v + "\""; }

template <typename T>
Field exact(const char* key, const T& v) {
  return {Field::kExact, key, text_of(v)};
}
inline Field rate(const char* key, double v) {
  return {Field::kRate, key, text_of(v)};
}
template <typename T>
Field info(const char* key, const T& v) {
  return {Field::kInfo, key, text_of(v)};
}

using Row = std::vector<Field>;

struct Section {
  std::string name;
  std::vector<Row> rows;
};

/// A baseline FILE that cannot be used, at its 1-based LINE.
struct Malformed {
  int line;
  std::string what;
};

/// Reads exactly what Json writes: one object of arrays of flat objects
/// whose values are strings or bare numbers, plus a "meta" object, which is
/// skipped.  Parsed fields keep their raw text and the kind kExact; only
/// the fresh run knows each field's kind.  Throws Malformed.
class Reader {
 public:
  explicit Reader(std::string text) : s_(std::move(text)) {}

  std::vector<Section> document() {
    std::vector<Section> sections;
    expect('{');
    if (!accept('}')) {
      do {
        std::string name = string_token();
        name = name.substr(1, name.size() - 2);
        expect(':');
        if (name == "meta") {
          object();
          continue;
        }
        Section& sec = sections.emplace_back(Section{name, {}});
        expect('[');
        if (!accept(']')) {
          do {
            sec.rows.push_back(object());
          } while (accept(','));
          expect(']');
        }
      } while (accept(','));
      expect('}');
    }
    skip_space();
    if (pos_ != s_.size()) fail("text after the closing '}'");
    return sections;
  }

 private:
  void skip_space() {
    while (pos_ < s_.size() && std::strchr(" \t\r\n", s_[pos_]) != nullptr) {
      if (s_[pos_++] == '\n') ++line_;
    }
  }
  bool accept(char c) {
    skip_space();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  void expect(char c) {
    if (!accept(c)) fail(std::string("expected '") + c + "'");
  }
  [[noreturn]] void fail(const std::string& what) const {
    if (pos_ < s_.size()) throw Malformed{line_, what};
    // An early end of file is reported on the last line that has text.
    const std::size_t last = s_.find_last_not_of(" \t\r\n");
    const auto end = s_.begin() + static_cast<std::ptrdiff_t>(
                                      last == std::string::npos ? 0 : last);
    throw Malformed{1 + static_cast<int>(std::count(s_.begin(), end, '\n')),
                    "unexpected end of file, " + what};
  }
  /// A quoted string, quotes included; Json writes no escapes.
  std::string string_token() {
    expect('"');
    const std::size_t start = pos_ - 1;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\' || s_[pos_] == '\n') {
        fail("escape or newline in a string");
      }
      ++pos_;
    }
    expect('"');
    return s_.substr(start, pos_ - start);
  }
  std::string value_token() {
    skip_space();
    if (pos_ < s_.size() && s_[pos_] == '"') return string_token();
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isalnum(static_cast<unsigned char>(s_[pos_])) ||
            std::strchr(".+-", s_[pos_]) != nullptr)) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a string or a number");
    return s_.substr(start, pos_ - start);
  }
  Row object() {
    Row row;
    expect('{');
    if (accept('}')) return row;
    do {
      std::string key = string_token();
      expect(':');
      row.push_back({Field::kExact, key.substr(1, key.size() - 2),
                     value_token()});
    } while (accept(','));
    expect('}');
    return row;
  }

  std::string s_;
  std::size_t pos_ = 0;
  int line_ = 1;
};

inline std::string render_fields(const Row& row) {
  std::string out;
  for (const Field& f : row) {
    if (!out.empty()) out += ", ";
    out += "\"" + f.key + "\": " + f.text;
  }
  return out;
}

/// The provenance stamp: compiler banner, the flags the bench CMake target
/// was built with (SCG_CXX_FLAGS compile definition, empty if absent), and
/// the kernel dispatch tier selected on this CPU at startup.
inline Row meta_fields() {
#ifdef SCG_CXX_FLAGS
  const char* flags = SCG_CXX_FLAGS;
#else
  const char* flags = "";
#endif
  return {info("compiler", std::string(__VERSION__)),
          info("flags", std::string(flags)),
          info("kernel_tier", std::string(scg::kernel_tier_name(
                                  scg::active_kernel_tier())))};
}

/// Prints one stderr line per difference between a fresh run and its
/// baseline; returns how many there were.
inline int compare(const std::string& bench, const std::vector<Section>& fresh,
                   const std::vector<Section>& base) {
  int failures = 0;
  const auto report = [&](const std::string& where, const std::string& what) {
    std::fprintf(stderr, "%s: %s: %s\n", bench.c_str(), where.c_str(),
                 what.c_str());
    ++failures;
  };
  for (std::size_t s = 0; s < std::max(fresh.size(), base.size()); ++s) {
    const std::string at = "section " + std::to_string(s + 1);
    if (s >= base.size()) {
      report(at, fresh[s].name + " is missing from the baseline");
      continue;
    }
    if (s >= fresh.size()) {
      report(at, base[s].name + " is missing from the fresh run");
      continue;
    }
    if (fresh[s].name != base[s].name) {
      report(at, fresh[s].name + " != " + base[s].name);
      continue;
    }
    const std::vector<Row>& fresh_rows = fresh[s].rows;
    const std::vector<Row>& base_rows = base[s].rows;
    for (std::size_t r = 0; r < std::max(fresh_rows.size(), base_rows.size());
         ++r) {
      const Row& named = r < fresh_rows.size() ? fresh_rows[r] : base_rows[r];
      std::string name = named.empty() ? "" : named.front().text;
      name.erase(std::remove(name.begin(), name.end(), '"'), name.end());
      const std::string row_at =
          fresh[s].name + "[" + std::to_string(r) + "] " + name;
      if (r >= base_rows.size()) {
        report(row_at, "row missing from the baseline");
        continue;
      }
      if (r >= fresh_rows.size()) {
        report(row_at, "row missing from the fresh run");
        continue;
      }
      const Row& base_row = base_rows[r];
      for (const Field& f : fresh_rows[r]) {
        const auto b = std::find_if(
            base_row.begin(), base_row.end(),
            [&](const Field& x) { return x.key == f.key; });
        const std::string where = row_at + " " + f.key;
        if (b == base_row.end()) {
          report(where, "missing from the baseline");
        } else if (f.kind == Field::kExact && f.text != b->text) {
          report(where, f.text + " != " + b->text);
        } else if (f.kind == Field::kRate &&
                   !(std::strtod(f.text.c_str(), nullptr) >=
                     kRateFloor * std::strtod(b->text.c_str(), nullptr))) {
          report(where, f.text + " < " + text_of(kRateFloor) + " x " + b->text);
        }
      }
      for (const Field& b : base_row) {
        const bool present = std::any_of(
            fresh_rows[r].begin(), fresh_rows[r].end(),
            [&](const Field& f) { return f.key == b.key; });
        if (!present) report(row_at + " " + b.key, "missing from the fresh run");
      }
    }
  }
  return failures;
}

class Json {
 public:
  /// Parses the bench's command line: no argument writes `baseline` when
  /// finish() runs; `--check FILE` reads FILE now, so a bad FILE or any
  /// other argument list exits 2 before the bench spends time running.
  Json(int argc, char** argv, const char* baseline) : path_(baseline) {
    bench_ = argv[0];
    bench_.erase(0, bench_.find_last_of('/') + 1);
    if (argc == 1) return;
    if (argc != 3 || std::strcmp(argv[1], "--check") != 0) {
      std::fprintf(stderr, "usage: %s [--check BASELINE]\n", bench_.c_str());
      std::exit(2);
    }
    check_ = true;
    path_ = argv[2];
    std::ifstream in(path_);
    if (!in) {
      std::fprintf(stderr, "%s: %s: cannot read: %s\n", bench_.c_str(),
                   path_.c_str(), std::strerror(errno));
      std::exit(2);
    }
    std::ostringstream text;
    text << in.rdbuf();
    try {
      baseline_ = Reader(text.str()).document();
    } catch (const Malformed& e) {
      std::fprintf(stderr, "%s: %s:%d: malformed baseline: %s\n",
                   bench_.c_str(), path_.c_str(), e.line, e.what.c_str());
      std::exit(2);
    }
  }

  void begin_array(const char* name) { sections_.push_back({name, {}}); }
  void row(Row fields) { sections_.back().rows.push_back(std::move(fields)); }

  /// Writes the document, or compares it with the --check baseline, and
  /// returns the bench's exit status.
  int finish() const {
    if (check_) {
      std::fflush(stdout);  // keep the report ahead of the stderr lines
      const int failures = compare(bench_, sections_, baseline_);
      if (failures > 0) {
        std::fprintf(stderr, "%s: %d mismatch(es) against %s\n",
                     bench_.c_str(), failures, path_.c_str());
        return 1;
      }
      int counts[3] = {0, 0, 0};
      for (const Section& s : sections_) {
        for (const Row& row : s.rows) {
          for (const Field& f : row) ++counts[f.kind];
        }
      }
      std::printf("\n%s: matches %s (%d exact, %d rate values; %d info "
                  "values not compared)\n",
                  bench_.c_str(), path_.c_str(), counts[Field::kExact],
                  counts[Field::kRate], counts[Field::kInfo]);
      return 0;
    }
    std::string out = "{\n";
    for (const Section& s : sections_) {
      out += "  \"" + s.name + "\": [\n";
      for (std::size_t r = 0; r < s.rows.size(); ++r) {
        out += (r ? ",\n    {" : "    {") + render_fields(s.rows[r]) + "}";
      }
      out += "\n  ],\n";
    }
    out += "  \"meta\": {" + render_fields(meta_fields()) + "}\n}\n";
    std::FILE* f = std::fopen(path_.c_str(), "w");
    bool ok = f != nullptr &&
              std::fwrite(out.data(), 1, out.size(), f) == out.size();
    if (f != nullptr) ok = std::fclose(f) == 0 && ok;
    if (!ok) {
      std::fprintf(stderr, "%s: cannot write %s: %s\n", bench_.c_str(),
                   path_.c_str(), std::strerror(errno));
      return 2;
    }
    std::printf("\nwrote %s\n", path_.c_str());
    return 0;
  }

 private:
  std::string bench_;
  std::string path_;
  bool check_ = false;
  std::vector<Section> baseline_;
  std::vector<Section> sections_;
};

}  // namespace benchjson
