#include "base/cli_args.h"

#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "base/common.h"

namespace desyn::cli {

std::vector<std::string> split_list(const std::string& list) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : list + ",") {
    if (c == ',') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  return out;
}

int parse_count(const std::string& s, const char* what) {
  try {
    size_t used = 0;
    int v = std::stoi(s, &used);
    if (used != s.size() || v <= 0) fail("");
    return v;
  } catch (...) {
    fail("malformed ", what, " '", s, "' (need a positive integer)");
  }
}

double parse_nonneg(const std::string& s, const char* what) {
  try {
    size_t used = 0;
    double v = std::stod(s, &used);
    if (used != s.size() || !(v >= 0)) fail("");
    return v;
  } catch (...) {
    fail("malformed ", what, " '", s, "' (need a non-negative number)");
  }
}

double parse_margin(const std::string& s) {
  try {
    size_t used = 0;
    double v = std::stod(s, &used);
    if (used != s.size() || !(v >= 1.0) || !(v <= 100.0)) fail("");
    return v;
  } catch (...) {
    fail("malformed margin '", s, "' (need a number in [1, 100])");
  }
}

std::vector<double> parse_margins(const std::string& list) {
  std::vector<double> out;
  for (const std::string& s : split_list(list)) out.push_back(parse_margin(s));
  if (out.empty()) fail("--margins needs at least one value");
  return out;
}

std::vector<flow::PartitionSpec> parse_strategies(const std::string& list) {
  std::vector<flow::PartitionSpec> out;
  for (const std::string& s : split_list(list)) {
    out.push_back(flow::PartitionSpec::parse(s));
  }
  if (out.empty()) fail("--strategies needs at least one value");
  return out;
}

std::string need_value(int argc, char** argv, int& i, const char* flag) {
  if (i + 1 >= argc) fail(flag, " needs a value");
  return argv[++i];
}

void parse_args_or_exit(const char* usage,
                        const std::function<void()>& parse) {
  try {
    parse();
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\nusage: %s\n", e.what(), usage);
    std::exit(2);
  }
}

}  // namespace desyn::cli
