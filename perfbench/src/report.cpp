#include "report.hpp"

#include <sched.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>

namespace perfbench {

namespace {

std::string layer_of(const std::string& span) {
  return span.substr(0, span.find('.'));
}

/// Shortest round-trip decimal form: every digit as measured.
std::string number(double v) {
  std::array<char, 64> buf{};
  const auto [ptr, ec] = std::to_chars(buf.data(), buf.data() + buf.size(), v);
  if (ec != std::errc()) {
    throw std::runtime_error("cannot format a metric value");
  }
  return {buf.data(), ptr};
}

}  // namespace

// ---- spans -----------------------------------------------------------------

Tracer::Span::~Span() {
  if (index_ >= 0) {
    tracer_->close(index_);
  }
}

Tracer::Span Tracer::span(const char* name) {
  if (!enabled_) {
    return {this, -1};
  }
  const int index = static_cast<int>(records_.size());
  records_.push_back({name, open_.empty() ? -1 : open_.back(), Clock::now(),
                      Clock::time_point{}});
  open_.push_back(index);
  return {this, index};
}

void Tracer::close(int index) {
  records_[static_cast<std::size_t>(index)].end = Clock::now();
  open_.pop_back();
}

void Tracer::record(const std::string& name, double seconds,
                    std::size_t calls) {
  if (enabled_) {
    external_.push_back({name, seconds, calls});
  }
}

void Tracer::print_table(std::ostream& os) const {
  struct Row {
    std::size_t calls = 0;
    double total = 0.0;
    double self = 0.0;
  };
  std::vector<double> self(records_.size());
  for (std::size_t i = 0; i < records_.size(); ++i) {
    self[i] = std::chrono::duration<double>(records_[i].end - records_[i].start)
                  .count();
  }
  for (std::size_t i = 0; i < records_.size(); ++i) {
    if (records_[i].parent >= 0) {
      self[static_cast<std::size_t>(records_[i].parent)] -=
          std::chrono::duration<double>(records_[i].end - records_[i].start)
              .count();
    }
  }
  std::map<std::string, Row> by_name;
  std::map<std::string, Row> by_layer;
  double all_self = 0.0;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const auto& r = records_[i];
    const double total =
        std::chrono::duration<double>(r.end - r.start).count();
    Row& n = by_name[r.name];
    ++n.calls;
    n.total += total;
    n.self += self[i];
    Row& l = by_layer[layer_of(r.name)];
    ++l.calls;
    l.self += self[i];
    // A layer's total counts only its outermost spans, so nested spans of
    // the same layer are not counted twice.
    const bool nested_in_layer =
        r.parent >= 0 &&
        layer_of(records_[static_cast<std::size_t>(r.parent)].name) ==
            layer_of(r.name);
    if (!nested_in_layer) {
      l.total += total;
    }
    all_self += self[i];
  }
  for (const auto& e : external_) {
    for (Row* row : {&by_name[e.name], &by_layer[layer_of(e.name)]}) {
      row->calls += e.calls;
      row->total += e.seconds;
      row->self += e.seconds;
    }
    all_self += e.seconds;
  }
  const auto print = [&](const char* title,
                         const std::map<std::string, Row>& rows) {
    os << std::left << std::setw(34) << title << std::right << std::setw(8)
       << "calls" << std::setw(14) << "total_s" << std::setw(14) << "self_s"
       << std::setw(9) << "self%" << "\n";
    for (const auto& [name, row] : rows) {
      os << std::left << std::setw(34) << name << std::right << std::setw(8)
         << row.calls << std::setw(14) << std::fixed << std::setprecision(6)
         << row.total << std::setw(14) << row.self << std::setw(9)
         << std::setprecision(2)
         << (all_self > 0.0 ? 100.0 * row.self / all_self : 0.0) << "\n";
      os.unsetf(std::ios::fixed);
    }
  };
  os << "\n== host time by span (self = total minus child spans) ==\n";
  print("span", by_name);
  os << "\n== host time by layer ==\n";
  print("layer", by_layer);
}

Tracer& tracer() {
  static Tracer t;
  return t;
}

// ---- statistics ------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) {
    throw std::logic_error("median of no samples");
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail tail(std::vector<double> v) {
  Tail t;
  if (v.size() <= 10) {
    return t;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  t.value = v[n - 11];
  t.percentile = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  t.defined = true;
  return t;
}

// ---- process facts ---------------------------------------------------------

unsigned nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return 1;
}

double peak_rss_mb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  throw std::runtime_error("no VmHWM for pid " + std::to_string(pid));
}

// ---- results ---------------------------------------------------------------

void Result::set(const std::string& name, double value, std::size_t samples) {
  if (!std::isfinite(value)) {
    throw std::runtime_error("metric " + name + " is not finite");
  }
  for (auto& m : metrics_) {
    if (m.name == name) {
      m = {name, value, samples};
      return;
    }
  }
  metrics_.push_back({name, value, samples});
}

void Result::check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::cerr << "perfbench: check failed: " << what << "\n";
  }
}

void Result::print(std::ostream& os) const {
  os << "{\"attempted\": " << attempted_ << ", \"failed\": " << failed_
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    os << (i == 0 ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
       << number(m.value) << ", \"samples\": " << m.samples << "}";
  }
  os << "}}" << std::endl;
}

}  // namespace perfbench
