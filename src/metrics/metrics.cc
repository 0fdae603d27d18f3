#include "metrics/metrics.h"

#include <cstdio>
#include <stdexcept>

namespace privapprox::metrics {

double Histogram::Percentile(double q) const {
  if (q < 0.0) {
    q = 0.0;
  }
  if (q > 1.0) {
    q = 1.0;
  }
  uint64_t counts[kNumBuckets];
  uint64_t total = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
    total += counts[i];
  }
  if (total == 0) {
    return 0.0;
  }
  uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(total));
  if (rank < 1) {
    rank = 1;
  }
  if (rank > total) {
    rank = total;
  }
  uint64_t cumulative = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    cumulative += counts[i];
    if (cumulative >= rank) {
      return static_cast<double>(BucketUpperBound(i) - 1);
    }
  }
  return static_cast<double>(BucketUpperBound(kNumBuckets - 1) - 1);
}

std::string RenderLabels(const Labels& labels) {
  std::string out;
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) {
      out += ',';
    }
    out += labels[i].first;
    out += "=\"";
    for (const char c : labels[i].second) {
      if (c == '\\' || c == '"') {
        out += '\\';
        out += c;
      } else if (c == '\n') {
        out += "\\n";
      } else {
        out += c;
      }
    }
    out += '"';
  }
  return out;
}

Registry::Family& Registry::GetFamily(const std::string& name,
                                      const std::string& help, Type type) {
  auto [it, inserted] = families_.try_emplace(name);
  if (inserted) {
    it->second.help = help;
    it->second.type = type;
  } else if (it->second.type != type) {
    throw std::logic_error("metrics::Registry: family '" + name +
                           "' re-registered with a different type");
  }
  return it->second;
}

Counter& Registry::GetCounter(const std::string& name, const std::string& help,
                              const Labels& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Family& family = GetFamily(name, help, Type::kCounter);
  auto& slot = family.counters[RenderLabels(labels)];
  if (slot == nullptr) {
    slot = std::make_unique<Counter>();
  }
  return *slot;
}

Gauge& Registry::GetGauge(const std::string& name, const std::string& help,
                          const Labels& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Family& family = GetFamily(name, help, Type::kGauge);
  auto& slot = family.gauges[RenderLabels(labels)];
  if (slot == nullptr) {
    slot = std::make_unique<Gauge>();
  }
  return *slot;
}

Histogram& Registry::GetHistogram(const std::string& name,
                                  const std::string& help,
                                  const Labels& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Family& family = GetFamily(name, help, Type::kHistogram);
  auto& slot = family.histograms[RenderLabels(labels)];
  if (slot == nullptr) {
    slot = std::make_unique<Histogram>();
  }
  return *slot;
}

void Registry::AddCollector(std::function<void()> collector) {
  std::lock_guard<std::mutex> lock(mu_);
  collectors_.push_back(std::move(collector));
}

void Registry::RunCollectors() {
  // Copy the callbacks out so collectors may register/set metrics (which
  // takes the mutex) without deadlocking.
  std::vector<std::function<void()>> collectors;
  {
    std::lock_guard<std::mutex> lock(mu_);
    collectors = collectors_;
  }
  for (const auto& collector : collectors) {
    collector();
  }
}

namespace {

void AppendSample(std::string& out, const std::string& name,
                  const std::string& labels, const std::string& extra_label,
                  double value, bool integral) {
  out += name;
  if (!labels.empty() || !extra_label.empty()) {
    out += '{';
    out += labels;
    if (!labels.empty() && !extra_label.empty()) {
      out += ',';
    }
    out += extra_label;
    out += '}';
  }
  char buf[32];
  if (integral) {
    std::snprintf(buf, sizeof(buf), " %lld\n",
                  static_cast<long long>(value));
  } else {
    std::snprintf(buf, sizeof(buf), " %.0f\n", value);
  }
  out += buf;
}

}  // namespace

std::string Registry::RenderText() {
  RunCollectors();
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& [name, family] : families_) {
    out += "# HELP " + name + " " + family.help + "\n";
    switch (family.type) {
      case Type::kCounter:
        out += "# TYPE " + name + " counter\n";
        for (const auto& [labels, counter] : family.counters) {
          AppendSample(out, name, labels, "",
                       static_cast<double>(counter->Value()), true);
        }
        break;
      case Type::kGauge:
        out += "# TYPE " + name + " gauge\n";
        for (const auto& [labels, gauge] : family.gauges) {
          AppendSample(out, name, labels, "",
                       static_cast<double>(gauge->Value()), true);
        }
        break;
      case Type::kHistogram:
        out += "# TYPE " + name + " summary\n";
        for (const auto& [labels, hist] : family.histograms) {
          AppendSample(out, name, labels, "quantile=\"0.5\"",
                       hist->Percentile(0.5), false);
          AppendSample(out, name, labels, "quantile=\"0.95\"",
                       hist->Percentile(0.95), false);
          AppendSample(out, name, labels, "quantile=\"0.99\"",
                       hist->Percentile(0.99), false);
          AppendSample(out, name + "_sum", labels, "",
                       static_cast<double>(hist->Sum()), true);
          AppendSample(out, name + "_count", labels, "",
                       static_cast<double>(hist->Count()), true);
        }
        break;
    }
  }
  return out;
}

namespace {

void AppendJsonEntry(std::string& out, bool& first, const std::string& name,
                     const std::string& labels, const std::string& value) {
  if (!first) {
    out += ',';
  }
  first = false;
  // The key is the text exposition's `name{labels}`, JSON-escaped: the
  // rendered labels carry '"' around values and '\\' from their own escapes,
  // and a peer-chosen value may hold any other control byte.
  const std::string key = labels.empty() ? name : name + '{' + labels + '}';
  out += '"';
  for (const char c : key) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char escape[8];
      std::snprintf(escape, sizeof(escape), "\\u%04x",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      out += escape;
    } else {
      out += c;
    }
  }
  out += "\":";
  out += value;
}

}  // namespace

std::string Registry::RenderJson() {
  RunCollectors();
  std::lock_guard<std::mutex> lock(mu_);
  char buf[160];
  std::string counters = "{";
  std::string gauges = "{";
  std::string histograms = "{";
  bool first_counter = true;
  bool first_gauge = true;
  bool first_hist = true;
  for (const auto& [name, family] : families_) {
    switch (family.type) {
      case Type::kCounter:
        for (const auto& [labels, counter] : family.counters) {
          std::snprintf(buf, sizeof(buf), "%llu",
                        static_cast<unsigned long long>(counter->Value()));
          AppendJsonEntry(counters, first_counter, name, labels, buf);
        }
        break;
      case Type::kGauge:
        for (const auto& [labels, gauge] : family.gauges) {
          std::snprintf(buf, sizeof(buf), "%lld",
                        static_cast<long long>(gauge->Value()));
          AppendJsonEntry(gauges, first_gauge, name, labels, buf);
        }
        break;
      case Type::kHistogram:
        for (const auto& [labels, hist] : family.histograms) {
          std::snprintf(
              buf, sizeof(buf),
              "{\"count\":%llu,\"sum\":%llu,\"p50\":%.0f,\"p95\":%.0f,"
              "\"p99\":%.0f}",
              static_cast<unsigned long long>(hist->Count()),
              static_cast<unsigned long long>(hist->Sum()),
              hist->Percentile(0.5), hist->Percentile(0.95),
              hist->Percentile(0.99));
          AppendJsonEntry(histograms, first_hist, name, labels, buf);
        }
        break;
    }
  }
  counters += '}';
  gauges += '}';
  histograms += '}';
  return "{\"counters\":" + counters + ",\"gauges\":" + gauges +
         ",\"histograms\":" + histograms + "}";
}

}  // namespace privapprox::metrics
