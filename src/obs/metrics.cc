#include "obs/metrics.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/logging.h"
#include "common/string_util.h"

namespace malleus {
namespace obs {

void Counter::Increment(double delta) {
  std::lock_guard<std::mutex> lock(mu_);
  value_ += delta;
}

double Counter::Value() const {
  std::lock_guard<std::mutex> lock(mu_);
  return value_;
}

void Counter::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  value_ = 0.0;
}

void Gauge::Set(double value) {
  std::lock_guard<std::mutex> lock(mu_);
  value_ = value;
}

void Gauge::Add(double delta) {
  std::lock_guard<std::mutex> lock(mu_);
  value_ += delta;
}

double Gauge::Value() const {
  std::lock_guard<std::mutex> lock(mu_);
  return value_;
}

void Gauge::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  value_ = 0.0;
}

Histogram::Histogram(HistogramOptions options)
    : options_(options), log_growth_(std::log(options.growth)) {
  MALLEUS_CHECK_GT(options_.min_bound, 0.0);
  MALLEUS_CHECK_GT(options_.growth, 1.0);
  MALLEUS_CHECK_GT(options_.num_buckets, 0);
  buckets_.assign(options_.num_buckets + 1, 0);
}

int Histogram::BucketIndex(double value) const {
  if (!(value > options_.min_bound)) return 0;  // Also catches NaN.
  // Bucket i holds (min_bound * growth^(i-1), min_bound * growth^i].
  const int idx = static_cast<int>(
      std::ceil(std::log(value / options_.min_bound) / log_growth_ - 1e-12));
  return std::min(std::max(idx, 0), options_.num_buckets);
}

double Histogram::BucketMid(int index) const {
  if (index == 0) {
    return options_.min_bound / std::sqrt(options_.growth);
  }
  // Geometric midpoint of (bound[index-1], bound[index]].
  return options_.min_bound *
         std::pow(options_.growth, index - 0.5);
}

void Histogram::Observe(double value) {
  std::lock_guard<std::mutex> lock(mu_);
  ++buckets_[BucketIndex(value)];
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
}

double Histogram::Quantile(double q) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (count_ == 0) return 0.0;
  q = std::min(std::max(q, 0.0), 1.0);
  // Rank of the requested quantile, 1-based (nearest-rank definition).
  const int64_t rank =
      std::max<int64_t>(1, static_cast<int64_t>(std::ceil(q * count_)));
  int64_t seen = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= rank) {
      // Clamp the estimate into the observed range so tiny samples do not
      // report values outside [min, max].
      const double mid = BucketMid(static_cast<int>(i));
      return std::min(std::max(mid, min_), max_);
    }
  }
  return max_;
}

int64_t Histogram::Count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return count_;
}

double Histogram::Sum() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sum_;
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snap.count = count_;
    snap.sum = sum_;
    snap.min = count_ > 0 ? min_ : 0.0;
    snap.max = count_ > 0 ? max_ : 0.0;
  }
  snap.p50 = Quantile(0.50);
  snap.p95 = Quantile(0.95);
  snap.p99 = Quantile(0.99);
  return snap;
}

void Histogram::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
  sum_ = 0.0;
  min_ = 0.0;
  max_ = 0.0;
}

namespace {

// Innermost MetricsScope override for this thread (null = Global()).
thread_local MetricsRegistry* current_registry = nullptr;

}  // namespace

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

MetricsRegistry& MetricsRegistry::Current() {
  return current_registry != nullptr ? *current_registry : Global();
}

MetricsScope::MetricsScope(MetricsRegistry* registry)
    : previous_(current_registry) {
  MALLEUS_CHECK(registry != nullptr) << "MetricsScope requires a registry";
  current_registry = registry;
}

MetricsScope::~MetricsScope() { current_registry = previous_; }

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  MALLEUS_CHECK(gauges_.count(name) == 0 && histograms_.count(name) == 0)
      << "metric '" << name << "' already registered as another kind";
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  MALLEUS_CHECK(counters_.count(name) == 0 && histograms_.count(name) == 0)
      << "metric '" << name << "' already registered as another kind";
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         HistogramOptions options) {
  std::lock_guard<std::mutex> lock(mu_);
  MALLEUS_CHECK(counters_.count(name) == 0 && gauges_.count(name) == 0)
      << "metric '" << name << "' already registered as another kind";
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>(options);
  return slot.get();
}

std::string MetricsRegistry::ToText() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& [name, counter] : counters_) {
    out += StrFormat("counter   %-44s %.6g\n", name.c_str(),
                     counter->Value());
  }
  for (const auto& [name, gauge] : gauges_) {
    out += StrFormat("gauge     %-44s %.6g\n", name.c_str(), gauge->Value());
  }
  for (const auto& [name, histogram] : histograms_) {
    const HistogramSnapshot s = histogram->Snapshot();
    out += StrFormat(
        "histogram %-44s count=%lld sum=%.6g min=%.6g p50=%.6g p95=%.6g "
        "p99=%.6g max=%.6g\n",
        name.c_str(), static_cast<long long>(s.count), s.sum, s.min, s.p50,
        s.p95, s.p99, s.max);
  }
  return out;
}

std::string MetricsRegistry::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  JsonWriter w;
  w.BeginObject().Key("counters").BeginObject();
  for (const auto& [name, counter] : counters_) {
    w.Key(name).Number(counter->Value());
  }
  w.EndObject().Key("gauges").BeginObject();
  for (const auto& [name, gauge] : gauges_) {
    w.Key(name).Number(gauge->Value());
  }
  w.EndObject().Key("histograms").BeginObject();
  for (const auto& [name, histogram] : histograms_) {
    const HistogramSnapshot s = histogram->Snapshot();
    w.Key(name).BeginObject().Key("count").Int(s.count);
    w.Key("sum").Number(s.sum).Key("min").Number(s.min);
    w.Key("max").Number(s.max).Key("p50").Number(s.p50);
    w.Key("p95").Number(s.p95).Key("p99").Number(s.p99).EndObject();
  }
  w.EndObject().EndObject();
  return w.str();
}

void MetricsRegistry::ResetAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& kv : counters_) kv.second->Reset();
  for (auto& kv : gauges_) kv.second->Reset();
  for (auto& kv : histograms_) kv.second->Reset();
}

namespace {

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

ScopedTimer::ScopedTimer(Histogram* histogram)
    : histogram_(histogram), start_ns_(NowNanos()) {}

double ScopedTimer::ElapsedSeconds() const {
  return static_cast<double>(NowNanos() - start_ns_) * 1e-9;
}

ScopedTimer::~ScopedTimer() {
  if (histogram_ != nullptr) histogram_->Observe(ElapsedSeconds());
}

}  // namespace obs
}  // namespace malleus
