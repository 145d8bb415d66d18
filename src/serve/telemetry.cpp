#include "serve/telemetry.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/table.hpp"

namespace flashabft::serve {

double percentile(std::span<const double> sorted_samples, double p) {
  if (sorted_samples.empty()) return 0.0;
  if (sorted_samples.size() == 1) return sorted_samples[0];
  const double clamped = std::clamp(p, 0.0, 1.0);
  const double rank = clamped * double(sorted_samples.size() - 1);
  const std::size_t lo = std::size_t(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, sorted_samples.size() - 1);
  const double frac = rank - double(lo);
  return sorted_samples[lo] * (1.0 - frac) + sorted_samples[hi] * frac;
}

void LatencyReservoir::record(double sample_us, Rng& rng) {
  ++seen_;
  if (samples_.size() < capacity_) {
    samples_.push_back(sample_us);
    return;
  }
  const std::uint64_t slot = rng.next_below(seen_);
  if (slot < capacity_) samples_[std::size_t(slot)] = sample_us;
}

const char* metric_type_name(MetricType type) {
  switch (type) {
    case MetricType::kCounter: return "counter";
    case MetricType::kGauge: return "gauge";
    case MetricType::kHistogram: return "histogram";
  }
  return "untyped";
}

void ServeTelemetry::record_reports(const ServeResponse& response) {
  // Per-op-kind accounting from the unified report stream. Escalations are
  // attributed to the escalating op's kind; the fallback op that replaced
  // it reports separately under kReferenceFallback.
  for (const OpReport& report : response.reports) {
    const std::size_t kind = std::size_t(report.kind);
    kind_checks_[kind].fetch_add(1, std::memory_order_relaxed);
    kind_alarms_[kind].fetch_add(report.alarms, std::memory_order_relaxed);
    if (report.recovery == RecoveryStatus::kRecovered) {
      kind_recovered_[kind].fetch_add(1, std::memory_order_relaxed);
    }
    if (report.recovery == RecoveryStatus::kEscalated &&
        report.kind != OpKind::kReferenceFallback) {
      kind_escalated_[kind].fetch_add(1, std::memory_order_relaxed);
    }
  }

  std::lock_guard lock(latency_mutex_);
  queue_us_.record(response.queue_us, reservoir_rng_);
  service_us_.record(response.service_us, reservoir_rng_);
  total_us_.record(response.total_us, reservoir_rng_);
}

void ServeTelemetry::record_ttft(double ttft_us) {
  std::lock_guard lock(latency_mutex_);
  ttft_us_.record(ttft_us, reservoir_rng_);
}

TelemetrySnapshot ServeTelemetry::snapshot() const {
  TelemetrySnapshot s;
  s.compute = compute_.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    s.*kCounterTable[i].field = counters_[i].load(std::memory_order_relaxed);
  }
  for (std::size_t k = 0; k < kOpKindCount; ++k) {
    s.per_kind[k].checks = kind_checks_[k].load(std::memory_order_relaxed);
    s.per_kind[k].alarms = kind_alarms_[k].load(std::memory_order_relaxed);
    s.per_kind[k].recovered =
        kind_recovered_[k].load(std::memory_order_relaxed);
    s.per_kind[k].escalated =
        kind_escalated_[k].load(std::memory_order_relaxed);
  }
  s.timing = op_profiler_.snapshot();

  std::vector<double> queue_us, service_us, total_us, ttft_us;
  {
    std::lock_guard lock(latency_mutex_);
    queue_us = queue_us_.samples();
    service_us = service_us_.samples();
    total_us = total_us_.samples();
    ttft_us = ttft_us_.samples();
  }
  std::sort(queue_us.begin(), queue_us.end());
  std::sort(service_us.begin(), service_us.end());
  std::sort(total_us.begin(), total_us.end());
  std::sort(ttft_us.begin(), ttft_us.end());
  s.queue_p50_us = percentile(queue_us, 0.50);
  s.queue_p99_us = percentile(queue_us, 0.99);
  s.service_p50_us = percentile(service_us, 0.50);
  s.service_p99_us = percentile(service_us, 0.99);
  s.total_p50_us = percentile(total_us, 0.50);
  s.total_p95_us = percentile(total_us, 0.95);
  s.total_p99_us = percentile(total_us, 0.99);
  s.total_max_us = total_us.empty() ? 0.0 : total_us.back();
  s.ttft_p50_us = percentile(ttft_us, 0.50);
  s.ttft_p99_us = percentile(ttft_us, 0.99);
  return s;
}

std::string TelemetrySnapshot::render(double wall_seconds) const {
  Table t({"metric", "value"});
  t.set_title("serving telemetry");
  const auto row = [&t](const char* name, double value, int precision = 1) {
    t.add_row({name, format_number(value, precision)});
  };
  t.add_row({"compute backend", backend_name(compute)});
  for (const CounterDescriptor& counter : kCounterTable) {
    const std::uint64_t value = this->*counter.field;
    if (value != 0) row(counter.label, double(value), 0);
  }
  // Derived rows, shown (like the counters) once they are non-zero.
  const auto derived = [&row](const char* name, double value,
                              int precision) {
    if (value != 0.0) row(name, value, precision);
  };
  derived("throughput (req/s)", throughput_rps(wall_seconds), 1);
  derived("tokens/sec", tokens_per_second(wall_seconds), 1);
  derived("ttft p50 (us)", ttft_p50_us, 1);
  derived("ttft p99 (us)", ttft_p99_us, 1);
  derived("batch occupancy", batch_occupancy(), 2);
  derived("peak page utilization", peak_page_utilization(), 2);
  for (std::size_t k = 0; k < kOpKindCount; ++k) {
    const OpKindStats& stats = per_kind[k];
    if (stats.checks == 0) continue;
    const std::string value =
        format_number(double(stats.checks), 0) + " checks, " +
        format_number(double(stats.alarms), 0) + " alarms, " +
        format_number(double(stats.recovered), 0) + " recovered, " +
        format_number(double(stats.escalated), 0) + " escalated";
    t.add_row({std::string("op[") + op_kind_name(OpKind(k)) + "]", value});
  }
  // ABFT overhead: where guarded execution's time went, per kind. The
  // percentage is verify+recovery over compute — the cost the protection
  // regime adds on top of the op it protects.
  for (std::size_t k = 0; k < kOpKindCount; ++k) {
    const OpKind kind = OpKind(k);
    if (timing.of(kind, obs::GuardPhase::kCompute).count == 0 &&
        timing.guard_ns(kind) == 0) {
      continue;
    }
    const std::string value =
        format_number(double(timing.compute_ns(kind)) * 1e-6, 2) +
        " ms compute, " +
        format_number(
            double(timing.of(kind, obs::GuardPhase::kVerify).total) * 1e-6,
            2) +
        " ms verify, " +
        format_number(
            double(timing.of(kind, obs::GuardPhase::kRecovery).total) * 1e-6,
            2) +
        " ms recovery (" + format_number(timing.overhead_pct(kind), 2) +
        "% overhead)";
    t.add_row({std::string("abft[") + op_kind_name(kind) + "]", value});
  }
  row("queue p50 (us)", queue_p50_us);
  row("queue p99 (us)", queue_p99_us);
  row("service p50 (us)", service_p50_us);
  row("service p99 (us)", service_p99_us);
  row("total p50 (us)", total_p50_us);
  row("total p95 (us)", total_p95_us);
  row("total p99 (us)", total_p99_us);
  row("total max (us)", total_max_us);
  return t.render();
}

std::string TelemetrySnapshot::prometheus_text(double wall_seconds) const {
  std::ostringstream out;
  const auto family = [&out](const char* name, MetricType type,
                             const char* help) {
    out << "# HELP flashabft_" << name << " " << help << "\n"
        << "# TYPE flashabft_" << name << " " << metric_type_name(type)
        << "\n";
  };
  for (const CounterDescriptor& counter : kCounterTable) {
    family(counter.family, counter.type, counter.help);
    out << "flashabft_" << counter.family << " " << this->*counter.field
        << "\n";
  }
  if (wall_seconds > 0.0) {
    family("throughput_rps", MetricType::kGauge,
           "completed requests per second");
    out << "flashabft_throughput_rps " << throughput_rps(wall_seconds)
        << "\n";
  }

  family("op_checks_total", MetricType::kCounter,
         "guarded ops reported, by kind");
  for (std::size_t k = 0; k < kOpKindCount; ++k) {
    if (per_kind[k].checks == 0) continue;
    out << "flashabft_op_checks_total{kind=\"" << op_kind_name(OpKind(k))
        << "\"} " << per_kind[k].checks << "\n";
  }
  family("op_alarms_total", MetricType::kCounter,
         "checksum alarms, by kind");
  for (std::size_t k = 0; k < kOpKindCount; ++k) {
    if (per_kind[k].checks == 0) continue;
    out << "flashabft_op_alarms_total{kind=\"" << op_kind_name(OpKind(k))
        << "\"} " << per_kind[k].alarms << "\n";
  }

  // Guard-phase timing: the ABFT overhead attribution as cumulative
  // histograms (bucket edges in seconds — the log-bucketed ns histograms
  // scaled by 1e-9), one series per active (kind, phase) cell.
  family("guard_phase_seconds_total", MetricType::kCounter,
         "guarded execution time split into compute/verify/recovery, by op "
         "kind");
  for (std::size_t k = 0; k < kOpKindCount; ++k) {
    for (std::size_t p = 0; p < obs::kGuardPhaseCount; ++p) {
      const obs::LogHistogram& h = timing.cells[k][p];
      if (h.count == 0) continue;
      out << "flashabft_guard_phase_seconds_total{kind=\""
          << op_kind_name(OpKind(k)) << "\",phase=\""
          << obs::guard_phase_name(obs::GuardPhase(p)) << "\"} "
          << double(h.total) * 1e-9 << "\n";
    }
  }
  family("guard_phase_duration_seconds", MetricType::kHistogram,
         "per-sample guard phase durations");
  for (std::size_t k = 0; k < kOpKindCount; ++k) {
    for (std::size_t p = 0; p < obs::kGuardPhaseCount; ++p) {
      const obs::LogHistogram& h = timing.cells[k][p];
      if (h.count == 0) continue;
      const std::string labels = std::string("kind=\"") +
                                 op_kind_name(OpKind(k)) + "\",phase=\"" +
                                 obs::guard_phase_name(obs::GuardPhase(p)) +
                                 "\"";
      std::uint64_t cumulative = 0;
      for (std::size_t b = 0; b < obs::LogHistogram::kBuckets; ++b) {
        if (h.buckets[b] == 0) continue;  // elide empty leading/inner edges.
        cumulative += h.buckets[b];
        out << "flashabft_guard_phase_duration_seconds_bucket{" << labels
            << ",le=\"" << double(obs::LogHistogram::bucket_ceiling(b)) * 1e-9
            << "\"} " << cumulative << "\n";
      }
      // +Inf and _count repeat the bucket sum rather than h.count: a live
      // snapshot loads the two separately, and a scrape must stay
      // cumulative even when a record lands between the loads.
      out << "flashabft_guard_phase_duration_seconds_bucket{" << labels
          << ",le=\"+Inf\"} " << cumulative << "\n"
          << "flashabft_guard_phase_duration_seconds_sum{" << labels << "} "
          << double(h.total) * 1e-9 << "\n"
          << "flashabft_guard_phase_duration_seconds_count{" << labels << "} "
          << cumulative << "\n";
    }
  }
  family("abft_overhead_pct", MetricType::kGauge,
         "verify+recovery time as a percentage of compute time, by op kind");
  for (std::size_t k = 0; k < kOpKindCount; ++k) {
    const OpKind kind = OpKind(k);
    if (timing.of(kind, obs::GuardPhase::kCompute).count == 0) continue;
    out << "flashabft_abft_overhead_pct{kind=\"" << op_kind_name(kind)
        << "\"} " << timing.overhead_pct(kind) << "\n";
  }
  return out.str();
}

}  // namespace flashabft::serve
