#include "util/tunables.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <type_traits>

#include "util/cli.hpp"

namespace psdp::util {

namespace {

std::string to_env_name(const std::string& name) {
  std::string env = "PSDP_TUNE_";
  for (char c : name) {
    env += c == '-' ? '_' : static_cast<char>(std::toupper(c));
  }
  return env;
}

std::string to_flag_name(const std::string& name) {
  std::string flag = "tune-";
  for (char c : name) flag += c == '_' ? '-' : c;
  return flag;
}

std::string normalize(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    if (c == '-') c = '_';
  }
  return out;
}

// Exact-round-trip number formatting: whole
// values print as integers (the common case for Index tunables), anything
// else at max_digits10 so strtod recovers the bits.
std::string format_number(double v) {
  if (v == std::floor(v) && std::abs(v) < 9.0e15) {
    return str(static_cast<long long>(v));
  }
  std::ostringstream oss;
  oss << std::setprecision(std::numeric_limits<double>::max_digits10) << v;
  return oss.str();
}

// --- minimal JSON scanning, shared by from_json and the profile store ----
//
// The snapshots this file reads are the snapshots it writes (plus hand
// edits), so the parser accepts exactly the subset to_json emits: objects
// of "key": number pairs and the profile array. Errors carry enough of the
// offending text to locate a hand-edit typo.

std::size_t skip_ws(const std::string& text, std::size_t at) {
  while (at < text.size() &&
         std::isspace(static_cast<unsigned char>(text[at]))) {
    ++at;
  }
  return at;
}

std::size_t expect(const std::string& text, std::size_t at, char c) {
  at = skip_ws(text, at);
  PSDP_CHECK(at < text.size() && text[at] == c,
             str("tunables JSON: expected '", c, "' at offset ", at));
  return at + 1;
}

// Parses "quoted" at `at` (after whitespace); leaves `at` past the close
// quote. Snapshot keys never contain escapes.
std::string parse_quoted(const std::string& text, std::size_t& at) {
  at = expect(text, at, '"');
  const std::size_t close = text.find('"', at);
  PSDP_CHECK(close != std::string::npos,
             "tunables JSON: unterminated string");
  std::string out = text.substr(at, close - at);
  at = close + 1;
  return out;
}

double parse_number(const std::string& text, std::size_t& at) {
  at = skip_ws(text, at);
  const char* begin = text.c_str() + at;
  char* end = nullptr;
  const double v = std::strtod(begin, &end);
  PSDP_CHECK(end != begin,
             str("tunables JSON: expected a number at offset ", at));
  at += static_cast<std::size_t>(end - begin);
  return v;
}

// Parses {"key": number, ...} at `at` into `out`; leaves `at` past '}'.
void parse_number_object(const std::string& text, std::size_t& at,
                         std::vector<std::pair<std::string, double>>& out) {
  at = expect(text, at, '{');
  std::size_t probe = skip_ws(text, at);
  if (probe < text.size() && text[probe] == '}') {
    at = probe + 1;
    return;
  }
  while (true) {
    std::string key = parse_quoted(text, at);
    at = expect(text, at, ':');
    out.emplace_back(std::move(key), parse_number(text, at));
    at = skip_ws(text, at);
    PSDP_CHECK(at < text.size() && (text[at] == ',' || text[at] == '}'),
               str("tunables JSON: expected ',' or '}' at offset ", at));
    if (text[at++] == '}') return;
  }
}

std::array<TunableInfo, kTunableCount> make_info() {
  std::array<TunableInfo, kTunableCount> table;
  int at = 0;
#define PSDP_TUNABLE(name_, type_, value_, min_, max_, step_)      \
  table[at].name = #name_;                                         \
  table[at].env = to_env_name(#name_);                             \
  table[at].type_name = #type_;                                    \
  table[at].integral = std::is_integral_v<type_>;                  \
  table[at].default_value = static_cast<double>(value_);           \
  table[at].min = static_cast<double>(min_);                       \
  table[at].max = static_cast<double>(max_);                       \
  table[at].step = static_cast<double>(step_);                     \
  ++at;
  PSDP_TUNABLE_LIST(PSDP_TUNABLE)
#undef PSDP_TUNABLE
  return table;
}

}  // namespace

Tunables::Tunables(bool apply_env) {
  reset();
  if (apply_env) load_env();
}

const std::array<TunableInfo, kTunableCount>& Tunables::all() {
  static const std::array<TunableInfo, kTunableCount> table = make_info();
  return table;
}

const TunableInfo& Tunables::info(TunableId id) {
  return all()[static_cast<std::size_t>(id)];
}

bool Tunables::try_find(const std::string& name, TunableId& id) {
  const std::string key = normalize(name);
  for (std::size_t i = 0; i < all().size(); ++i) {
    if (all()[i].name == key) {
      id = static_cast<TunableId>(i);
      return true;
    }
  }
  return false;
}

TunableId Tunables::find(const std::string& name) {
  TunableId id;
  PSDP_CHECK(try_find(name, id), str("unknown tunable '", name, "'"));
  return id;
}

double Tunables::get(TunableId id) const {
  return values_[static_cast<std::size_t>(id)].load(
      std::memory_order_relaxed);
}

double Tunables::set(TunableId id, double value) {
  const TunableInfo& meta = info(id);
  double v = std::min(meta.max, std::max(meta.min, value));
  if (meta.integral) v = std::round(v);
  values_[static_cast<std::size_t>(id)].store(v, std::memory_order_relaxed);
  return v;
}

namespace {

void validate_value(const TunableInfo& meta, double value) {
  PSDP_CHECK(std::isfinite(value),
             str("tunable ", meta.name, ": value must be finite"));
  PSDP_CHECK(value >= meta.min && value <= meta.max,
             str("tunable ", meta.name, ": value ", format_number(value),
                 " outside range [", format_number(meta.min), ", ",
                 format_number(meta.max), "]"));
  PSDP_CHECK(!meta.integral || value == std::floor(value),
             str("tunable ", meta.name, ": value ", format_number(value),
                 " must be an integer"));
}

}  // namespace

void Tunables::set_checked(TunableId id, double value) {
  validate_value(info(id), value);
  values_[static_cast<std::size_t>(id)].store(value,
                                              std::memory_order_relaxed);
}

void Tunables::set_named(const std::string& name, const std::string& text) {
  const TunableId id = find(name);
  double value = 0;
  try {
    value = detail::parse_value<Real>(text);
  } catch (const InvalidArgument& e) {
    throw InvalidArgument(str("tunable ", info(id).name, ": ", e.what()));
  }
  set_checked(id, value);
}

bool Tunables::is_default(TunableId id) const {
  return get(id) == info(id).default_value;
}

void Tunables::reset(TunableId id) {
  values_[static_cast<std::size_t>(id)].store(info(id).default_value,
                                              std::memory_order_relaxed);
}

void Tunables::reset() {
  for (std::size_t i = 0; i < values_.size(); ++i) {
    reset(static_cast<TunableId>(i));
  }
}

std::string Tunables::to_json() const {
  std::ostringstream oss;
  oss << "{\"tunables\": {";
  for (std::size_t i = 0; i < all().size(); ++i) {
    if (i) oss << ", ";
    oss << '"' << all()[i].name
        << "\": " << format_number(get(static_cast<TunableId>(i)));
  }
  oss << "}}";
  return oss.str();
}

void Tunables::from_json(const std::string& text) {
  std::size_t at = expect(text, 0, '{');
  const std::string section = parse_quoted(text, at);
  PSDP_CHECK(section == "tunables",
             str("tunables JSON: expected key \"tunables\", got \"", section,
                 "\""));
  at = expect(text, at, ':');
  std::vector<std::pair<std::string, double>> pairs;
  parse_number_object(text, at, pairs);
  expect(text, at, '}');
  // Validate every key AND value before applying any: a typo or an
  // out-of-range entry must not leave the registry half-restored.
  for (const auto& [key, value] : pairs) validate_value(info(find(key)), value);
  for (const auto& [key, value] : pairs) set_checked(find(key), value);
}

int Tunables::load_env() {
  int applied = 0;
  for (std::size_t i = 0; i < all().size(); ++i) {
    const TunableInfo& meta = all()[i];
    const char* text = std::getenv(meta.env.c_str());
    if (text == nullptr) continue;
    try {
      set_named(meta.name, text);
    } catch (const InvalidArgument& e) {
      throw InvalidArgument(str(meta.env, ": ", e.what()));
    }
    ++applied;
  }
  return applied;
}

Tunables& tunables() {
  static Tunables instance{/*apply_env=*/true};
  return instance;
}

#define PSDP_TUNABLE(name, type, value, min, max, step)              \
  type tunable_##name() {                                            \
    return static_cast<type>(tunables().get(TunableId::k_##name));   \
  }
PSDP_TUNABLE_LIST(PSDP_TUNABLE)
#undef PSDP_TUNABLE

void add_tunable_flags(Cli& cli) {
  for (const TunableInfo& meta : Tunables::all()) {
    const std::string name = meta.name;  // value-captured per flag
    cli.flag_callback(
        to_flag_name(meta.name), format_number(meta.default_value),
        str("tunable ", meta.name, " in [", format_number(meta.min), ", ",
            format_number(meta.max), "]"),
        [name](const std::string& text) {
          tunables().set_named(name, text);
        });
  }
  cli.flag_callback("tunables", "",
                    "JSON tunables snapshot or profile file to apply",
                    [](const std::string& path) {
                      std::ifstream in(path);
                      PSDP_CHECK(in, str("cannot open '", path, "'"));
                      std::ostringstream text;
                      text << in.rdbuf();
                      tunables().from_json(text.str());
                    });
}

ShapeBucket ShapeBucket::of(Index nnz, Index rows, Index cols) {
  // Degenerate shapes (empty instances) bucket at 0 with 1-element ones.
  const auto bucket = [](Index n) { return n <= 1 ? 0 : ceil_log2(n); };
  ShapeBucket b;
  b.log2_nnz = bucket(nnz);
  b.log2_rows = bucket(rows);
  b.log2_cols = bucket(cols);
  return b;
}

void TunableProfileStore::put(
    const ShapeBucket& bucket,
    std::vector<std::pair<std::string, double>> values) {
  for (auto& entry : entries_) {
    if (entry.bucket == bucket) {
      entry.values = std::move(values);
      return;
    }
  }
  entries_.push_back(Entry{bucket, std::move(values)});
}

const std::vector<std::pair<std::string, double>>* TunableProfileStore::find(
    const ShapeBucket& bucket) const {
  for (const auto& entry : entries_) {
    if (entry.bucket == bucket) return &entry.values;
  }
  return nullptr;
}

bool TunableProfileStore::apply(const ShapeBucket& bucket,
                                Tunables& registry) const {
  const auto* values = find(bucket);
  if (values == nullptr) return false;
  for (const auto& [name, value] : *values) {
    registry.set_checked(Tunables::find(name), value);
  }
  return true;
}

std::string TunableProfileStore::to_json() const {
  std::ostringstream oss;
  oss << "{\"tunable_profiles\": [";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    if (i) oss << ", ";
    oss << "{\"log2_nnz\": " << e.bucket.log2_nnz
        << ", \"log2_rows\": " << e.bucket.log2_rows
        << ", \"log2_cols\": " << e.bucket.log2_cols << ", \"tunables\": {";
    for (std::size_t j = 0; j < e.values.size(); ++j) {
      if (j) oss << ", ";
      oss << '"' << e.values[j].first
          << "\": " << format_number(e.values[j].second);
    }
    oss << "}}";
  }
  oss << "]}";
  return oss.str();
}

TunableProfileStore TunableProfileStore::from_json(const std::string& text) {
  TunableProfileStore store;
  std::size_t at = expect(text, 0, '{');
  const std::string section = parse_quoted(text, at);
  PSDP_CHECK(section == "tunable_profiles",
             str("tunables JSON: expected key \"tunable_profiles\", got \"",
                 section, "\""));
  at = expect(text, at, ':');
  at = expect(text, at, '[');
  std::size_t probe = skip_ws(text, at);
  if (probe < text.size() && text[probe] == ']') return store;
  while (true) {
    at = expect(text, at, '{');
    Entry entry;
    std::vector<std::pair<std::string, double>> fields;
    // The three bucket coordinates, in any order, then "tunables".
    bool saw_tunables = false;
    while (true) {
      const std::string key = parse_quoted(text, at);
      at = expect(text, at, ':');
      if (key == "tunables") {
        parse_number_object(text, at, entry.values);
        saw_tunables = true;
      } else if (key == "log2_nnz") {
        entry.bucket.log2_nnz =
            static_cast<std::int64_t>(parse_number(text, at));
      } else if (key == "log2_rows") {
        entry.bucket.log2_rows =
            static_cast<std::int64_t>(parse_number(text, at));
      } else if (key == "log2_cols") {
        entry.bucket.log2_cols =
            static_cast<std::int64_t>(parse_number(text, at));
      } else {
        throw InvalidArgument(
            str("tunables JSON: unknown profile key \"", key, "\""));
      }
      at = skip_ws(text, at);
      PSDP_CHECK(at < text.size() && (text[at] == ',' || text[at] == '}'),
                 str("tunables JSON: expected ',' or '}' at offset ", at));
      if (text[at++] == '}') break;
    }
    PSDP_CHECK(saw_tunables,
               "tunables JSON: profile entry missing \"tunables\"");
    // Validate names eagerly so a corrupt profile fails at load, not at
    // the first apply() deep inside serve startup.
    for (const auto& [name, value] : entry.values) Tunables::find(name);
    store.entries_.push_back(std::move(entry));
    at = skip_ws(text, at);
    PSDP_CHECK(at < text.size() && (text[at] == ',' || text[at] == ']'),
               str("tunables JSON: expected ',' or ']' at offset ", at));
    if (text[at++] == ']') break;
  }
  return store;
}

TunableProfileStore TunableProfileStore::load(const std::string& path) {
  std::ifstream in(path);
  PSDP_CHECK(in, str("cannot open tunables profile '", path, "'"));
  std::ostringstream text;
  text << in.rdbuf();
  return from_json(text.str());
}

void TunableProfileStore::save(const std::string& path) const {
  std::ofstream out(path);
  PSDP_CHECK(out, str("cannot write tunables profile '", path, "'"));
  out << to_json() << "\n";
  PSDP_CHECK(out.good(), str("write to '", path, "' failed"));
}

}  // namespace psdp::util
