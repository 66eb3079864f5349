#include "common.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <unordered_map>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Samples::Append(const Samples& other) {
  values.insert(values.end(), other.values.begin(), other.values.end());
}

std::optional<double> Samples::Percentile(double q) const {
  const size_t count = values.size();
  if (count == 0) return std::nullopt;
  // Nearest rank: the ceil(q*n)-th smallest value; the samples beyond it
  // are the n - rank larger ones.
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(count)));
  rank = std::clamp<size_t>(rank, 1, count);
  if (count - rank < 10) return std::nullopt;
  std::vector<double> sorted = values;
  std::nth_element(sorted.begin(), sorted.begin() + (rank - 1), sorted.end());
  return sorted[rank - 1];
}

double Samples::Median() const { return MedianOf(values); }

double MedianOf(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

void Report::Gate(const std::string& name, double value,
                  const std::string& unit) {
  gated_.push_back({name, value, unit});
  Info(name, value, unit, "gated");
}

void Report::Info(const std::string& name, double value,
                  const std::string& unit, const std::string& note) {
  std::string line = "metric " + name + " = " + Num(value) + " " + unit;
  if (!note.empty()) line += "  (" + note + ")";
  lines_.push_back(line);
}

void Report::Text(const std::string& key, const std::string& value) {
  lines_.push_back("info " + key + " = " + value);
}

void Report::Fail(const std::string& why) {
  ++failed_;
  if (errors_.size() < 8) errors_.push_back(why);
}

void Report::Print(bool correct) const {
  for (const std::string& line : lines_) std::printf("%s\n", line.c_str());
  for (const std::string& e : errors_) {
    std::printf("error %s\n", e.c_str());
  }
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  for (size_t i = 0; i < gated_.size(); ++i) {
    if (i > 0) out << ", ";
    const double v = std::isfinite(gated_[i].value) ? gated_[i].value : 0.0;
    out << "\"" << JsonEscape(gated_[i].name) << "\": {\"value\": " << Num(v)
        << ", \"unit\": \"" << JsonEscape(gated_[i].unit) << "\"}";
  }
  out << "}}";
  std::printf("%s\n", out.str().c_str());
  std::fflush(stdout);
}

void Tracer::Reserve(size_t spans) {
  if (!enabled_) return;
  const size_t used = spans_.size();
  spans_.reserve(used + spans);
  // Writing the new room once faults its pages in now.
  spans_.resize(used + spans);
  spans_.resize(used);
}

size_t Tracer::Begin(const char* name, uint64_t request) {
  Span span;
  span.id = ++next_;
  span.parent = open_.empty() ? 0 : spans_[open_.back()].id;
  span.request = request;
  span.name = name;
  spans_.push_back(span);
  open_.push_back(spans_.size() - 1);
  // Stamp the start last so the bookkeeping above is not inside the span.
  spans_.back().start_ns = NowNs();
  return spans_.size() - 1;
}

void Tracer::End(size_t index) {
  spans_[index].end_ns = NowNs();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

SelfTimes AnalyzeSpans(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, size_t> by_id;
  for (size_t i = 0; i < spans.size(); ++i) by_id[spans[i].id] = i;
  // Children of each span, to subtract the part of the interval they cover.
  std::vector<std::vector<size_t>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent == 0) continue;
    const auto it = by_id.find(spans[i].parent);
    if (it != by_id.end()) children[it->second].push_back(i);
  }
  SelfTimes out;
  std::unordered_map<uint64_t, double> self_sum_by_request;
  std::unordered_map<uint64_t, double> wall_by_request;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    // Union of child intervals clipped to the parent.
    std::vector<std::pair<int64_t, int64_t>> iv;
    for (const size_t c : children[i]) {
      const int64_t a = std::max(spans[c].start_ns, s.start_ns);
      const int64_t b = std::min(spans[c].end_ns, s.end_ns);
      if (b > a) iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0;
    int64_t cur_a = 0;
    int64_t cur_b = 0;
    bool open = false;
    for (const auto& [a, b] : iv) {
      if (!open || a > cur_b) {
        if (open) covered += cur_b - cur_a;
        cur_a = a;
        cur_b = b;
        open = true;
      } else {
        cur_b = std::max(cur_b, b);
      }
    }
    if (open) covered += cur_b - cur_a;
    const double self_us = UsBetween(0, s.end_ns - s.start_ns - covered);
    out.by_name[s.name].Add(self_us);
    self_sum_by_request[s.request] += self_us;
    if (s.parent == 0 && s.wall_ns > 0) {
      wall_by_request[s.request] = UsBetween(0, s.wall_ns);
    }
  }
  std::vector<double> errors;
  for (const auto& [request, wall_us] : wall_by_request) {
    ++out.requests;
    const double gap_us = std::abs(self_sum_by_request[request] - wall_us);
    const double err = gap_us / wall_us;
    errors.push_back(err);
    out.max_sum_error = std::max(out.max_sum_error, err);
    if (gap_us > std::max(kSelfSumTolerance * wall_us, kSelfSumSlackUs)) {
      ++out.sum_violations;
    }
  }
  out.median_sum_error = MedianOf(std::move(errors));
  return out;
}

bool WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                 "\"request\":%llu,\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"wall_ns\":%lld}\n",
                 s.name, static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.wall_ns));
  }
  return std::fclose(f) == 0;
}

double PeakRssMiB(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

uint64_t MixSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace perfbench
