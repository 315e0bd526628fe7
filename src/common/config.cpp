#include "common/config.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>

namespace jbs {

void Config::Set(const std::string& key, std::string value) {
  entries_[key] = std::move(value);
}

void Config::SetInt(const std::string& key, int64_t value) {
  Set(key, std::to_string(value));
}

void Config::SetDouble(const std::string& key, double value) {
  Set(key, std::to_string(value));
}

void Config::SetBool(const std::string& key, bool value) {
  Set(key, value ? "true" : "false");
}

std::optional<std::string> Config::Get(const std::string& key) const {
  auto it = entries_.find(key);
  if (it == entries_.end()) return std::nullopt;
  return it->second;
}

std::string Config::GetOr(const std::string& key,
                          const std::string& def) const {
  return Get(key).value_or(def);
}

int64_t Config::GetInt(const std::string& key, int64_t def) const {
  auto v = Get(key);
  if (!v) return def;
  char* end = nullptr;
  const long long parsed = std::strtoll(v->c_str(), &end, 10);
  if (end == v->c_str()) return def;
  return parsed;
}

double Config::GetDouble(const std::string& key, double def) const {
  auto v = Get(key);
  if (!v) return def;
  char* end = nullptr;
  const double parsed = std::strtod(v->c_str(), &end);
  if (end == v->c_str()) return def;
  return parsed;
}

bool Config::GetBool(const std::string& key, bool def) const {
  auto v = Get(key);
  if (!v) return def;
  std::string lowered = *v;
  std::transform(lowered.begin(), lowered.end(), lowered.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (lowered == "true" || lowered == "1" || lowered == "yes") return true;
  if (lowered == "false" || lowered == "0" || lowered == "no") return false;
  return def;
}

int64_t Config::GetSize(const std::string& key, int64_t def) const {
  auto v = Get(key);
  if (!v) return def;
  return ParseSize(*v).value_or(def);
}

bool Config::Contains(const std::string& key) const {
  return entries_.count(key) > 0;
}

void Config::MergeFrom(const Config& other) {
  for (const auto& [k, v] : other.entries_) entries_[k] = v;
}

std::optional<int64_t> Config::ParseSize(const std::string& text) {
  if (text.empty()) return std::nullopt;
  char* end = nullptr;
  const double number = std::strtod(text.c_str(), &end);
  if (end == text.c_str()) return std::nullopt;
  std::string suffix(end);
  suffix.erase(std::remove_if(suffix.begin(), suffix.end(),
                              [](unsigned char c) { return std::isspace(c); }),
               suffix.end());
  std::transform(suffix.begin(), suffix.end(), suffix.begin(),
                 [](unsigned char c) { return std::toupper(c); });
  double multiplier = 1.0;
  if (suffix.empty() || suffix == "B") {
    multiplier = 1.0;
  } else if (suffix == "K" || suffix == "KB" || suffix == "KIB") {
    multiplier = 1024.0;
  } else if (suffix == "M" || suffix == "MB" || suffix == "MIB") {
    multiplier = 1024.0 * 1024.0;
  } else if (suffix == "G" || suffix == "GB" || suffix == "GIB") {
    multiplier = 1024.0 * 1024.0 * 1024.0;
  } else if (suffix == "T" || suffix == "TB" || suffix == "TIB") {
    multiplier = 1024.0 * 1024.0 * 1024.0 * 1024.0;
  } else {
    return std::nullopt;
  }
  const double bytes = number * multiplier;
  // Written so NaN fails too; 2^63 is the first double past int64_t, and
  // casting it (or inf) would be undefined behaviour.
  if (!(bytes >= 0.0 && bytes < 9223372036854775808.0)) return std::nullopt;
  return static_cast<int64_t>(bytes);
}

}  // namespace jbs
