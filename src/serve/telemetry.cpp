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

void ServeTelemetry::on_response(const ServeResponse& response) {
  completed_.fetch_add(1, std::memory_order_relaxed);
  switch (response.path) {
    case ServePath::kGuardedClean:
      clean_first_try_.fetch_add(1, std::memory_order_relaxed);
      break;
    case ServePath::kGuardedRecovered:
      recovered_.fetch_add(1, std::memory_order_relaxed);
      break;
    case ServePath::kFallbackReference:
      fallback_.fetch_add(1, std::memory_order_relaxed);
      break;
  }
  alarm_events_.fetch_add(response.alarm_events, std::memory_order_relaxed);
  op_executions_.fetch_add(response.op_executions,
                           std::memory_order_relaxed);
  fallback_ops_.fetch_add(response.fallback_ops, std::memory_order_relaxed);
  meta_verifies_.fetch_add(response.meta_verifies,
                           std::memory_order_relaxed);
  dmr_compares_.fetch_add(response.dmr_compares, std::memory_order_relaxed);
  dmr_mismatches_.fetch_add(response.dmr_mismatches,
                            std::memory_order_relaxed);
  (response.checksum_clean ? checksum_clean_ : checksum_dirty_)
      .fetch_add(1, std::memory_order_relaxed);

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

void ServeTelemetry::on_session_complete(const ServeResponse& response) {
  sessions_completed_.fetch_add(1, std::memory_order_relaxed);
  tokens_generated_.fetch_add(response.tokens.size(),
                              std::memory_order_relaxed);
  decode_steps_.fetch_add(response.decode_steps, std::memory_order_relaxed);
  std::lock_guard lock(latency_mutex_);
  ttft_us_.record(response.ttft_us, reservoir_rng_);
}

TelemetrySnapshot ServeTelemetry::snapshot() const {
  TelemetrySnapshot s;
  s.compute = compute_.load(std::memory_order_relaxed);
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.clean_first_try = clean_first_try_.load(std::memory_order_relaxed);
  s.recovered = recovered_.load(std::memory_order_relaxed);
  s.fallback = fallback_.load(std::memory_order_relaxed);
  s.escalations = escalations_.load(std::memory_order_relaxed);
  s.breaker_trips = breaker_trips_.load(std::memory_order_relaxed);
  s.breaker_bypasses = breaker_bypasses_.load(std::memory_order_relaxed);
  s.alarm_events = alarm_events_.load(std::memory_order_relaxed);
  s.op_executions = op_executions_.load(std::memory_order_relaxed);
  s.fallback_ops = fallback_ops_.load(std::memory_order_relaxed);
  s.checksum_clean = checksum_clean_.load(std::memory_order_relaxed);
  s.checksum_dirty = checksum_dirty_.load(std::memory_order_relaxed);
  s.sessions_started = sessions_started_.load(std::memory_order_relaxed);
  s.sessions_completed =
      sessions_completed_.load(std::memory_order_relaxed);
  s.sessions_parked = sessions_parked_.load(std::memory_order_relaxed);
  s.tokens_generated = tokens_generated_.load(std::memory_order_relaxed);
  s.decode_steps = decode_steps_.load(std::memory_order_relaxed);
  s.scheduler_ticks = scheduler_ticks_.load(std::memory_order_relaxed);
  s.scheduled_steps = scheduled_steps_.load(std::memory_order_relaxed);
  s.preemptions = preemptions_.load(std::memory_order_relaxed);
  s.session_resumes = session_resumes_.load(std::memory_order_relaxed);
  s.pages_in_use = pages_in_use_.load(std::memory_order_relaxed);
  s.pages_total = pages_total_.load(std::memory_order_relaxed);
  s.peak_pages_in_use = peak_pages_in_use_.load(std::memory_order_relaxed);
  s.prefix_hits = prefix_hits_.load(std::memory_order_relaxed);
  s.prefix_misses = prefix_misses_.load(std::memory_order_relaxed);
  s.prefix_hit_tokens = prefix_hit_tokens_.load(std::memory_order_relaxed);
  s.prefix_cow_forks = prefix_cow_forks_.load(std::memory_order_relaxed);
  s.prefix_evictions = prefix_evictions_.load(std::memory_order_relaxed);
  s.shared_heals = shared_heals_.load(std::memory_order_relaxed);
  s.shared_pages = shared_pages_.load(std::memory_order_relaxed);
  s.evictable_pages = evictable_pages_.load(std::memory_order_relaxed);
  s.meta_verifies = meta_verifies_.load(std::memory_order_relaxed);
  s.scrub_passes = scrub_passes_.load(std::memory_order_relaxed);
  s.scrub_items = scrub_items_.load(std::memory_order_relaxed);
  s.scrub_faults_found =
      scrub_faults_found_.load(std::memory_order_relaxed);
  s.scrub_repairs = scrub_repairs_.load(std::memory_order_relaxed);
  s.scrub_unrepairable =
      scrub_unrepairable_.load(std::memory_order_relaxed);
  s.dmr_compares = dmr_compares_.load(std::memory_order_relaxed);
  s.dmr_mismatches = dmr_mismatches_.load(std::memory_order_relaxed);
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

double TelemetrySnapshot::throughput_rps(double wall_seconds) const {
  return wall_seconds > 0.0 ? double(completed) / wall_seconds : 0.0;
}

double TelemetrySnapshot::tokens_per_second(double wall_seconds) const {
  return wall_seconds > 0.0 ? double(tokens_generated) / wall_seconds : 0.0;
}

std::string TelemetrySnapshot::render(double wall_seconds) const {
  Table t({"metric", "value"});
  t.set_title("serving telemetry");
  const auto row = [&t](const char* name, double value, int precision = 1) {
    t.add_row({name, format_number(value, precision)});
  };
  t.add_row({"compute backend", backend_name(compute)});
  row("requests submitted", double(submitted), 0);
  row("requests rejected", double(rejected), 0);
  row("requests completed", double(completed), 0);
  row("batches", double(batches), 0);
  row("throughput (req/s)", throughput_rps(wall_seconds));
  row("clean first try", double(clean_first_try), 0);
  row("recovered", double(recovered), 0);
  row("fallback served", double(fallback), 0);
  row("escalations", double(escalations), 0);
  row("breaker trips", double(breaker_trips), 0);
  row("breaker bypasses", double(breaker_bypasses), 0);
  row("alarm events", double(alarm_events), 0);
  row("op executions", double(op_executions), 0);
  row("fallback ops", double(fallback_ops), 0);
  row("checksum clean", double(checksum_clean), 0);
  row("checksum dirty", double(checksum_dirty), 0);
  if (sessions_started > 0 || sessions_parked > 0) {
    row("gen sessions started", double(sessions_started), 0);
    row("gen sessions completed", double(sessions_completed), 0);
    row("gen sessions parked", double(sessions_parked), 0);
    row("tokens generated", double(tokens_generated), 0);
    row("decode steps", double(decode_steps), 0);
    if (wall_seconds > 0.0) {
      row("tokens/sec", tokens_per_second(wall_seconds));
    }
    row("ttft p50 (us)", ttft_p50_us);
    row("ttft p99 (us)", ttft_p99_us);
  }
  if (scheduler_ticks > 0) {
    row("scheduler ticks", double(scheduler_ticks), 0);
    row("batch occupancy", batch_occupancy(), 2);
    row("preemptions", double(preemptions), 0);
    row("session resumes", double(session_resumes), 0);
    row("pages in use", double(pages_in_use), 0);
    row("peak page utilization", peak_page_utilization(), 2);
  }
  if (prefix_hits + prefix_misses > 0) {
    row("prefix hits", double(prefix_hits), 0);
    row("prefix misses", double(prefix_misses), 0);
    row("prefix hit tokens", double(prefix_hit_tokens), 0);
    row("prefix cow forks", double(prefix_cow_forks), 0);
    row("prefix evictions", double(prefix_evictions), 0);
    row("shared heals", double(shared_heals), 0);
    row("shared pages", double(shared_pages), 0);
    row("evictable pages", double(evictable_pages), 0);
  }
  if (meta_verifies > 0) {
    row("meta verifies", double(meta_verifies), 0);
  }
  if (scrub_passes > 0) {
    row("scrub passes", double(scrub_passes), 0);
    row("scrub items", double(scrub_items), 0);
    row("scrub faults found", double(scrub_faults_found), 0);
    row("scrub repairs", double(scrub_repairs), 0);
    row("scrub unrepairable", double(scrub_unrepairable), 0);
  }
  if (dmr_compares > 0) {
    row("dmr compares", double(dmr_compares), 0);
    row("dmr mismatches", double(dmr_mismatches), 0);
  }
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
  const auto counter = [&out](const char* name, std::uint64_t value,
                              const char* help) {
    out << "# HELP flashabft_" << name << " " << help << "\n"
        << "# TYPE flashabft_" << name << " counter\n"
        << "flashabft_" << name << " " << value << "\n";
  };
  const auto gauge = [&out](const char* name, double value,
                            const char* help) {
    out << "# HELP flashabft_" << name << " " << help << "\n"
        << "# TYPE flashabft_" << name << " gauge\n"
        << "flashabft_" << name << " " << value << "\n";
  };

  counter("requests_submitted_total", submitted, "admission attempts");
  counter("requests_rejected_total", rejected, "requests shed at admission");
  counter("requests_completed_total", completed, "responses delivered");
  counter("alarm_events_total", alarm_events, "checksum alarms observed");
  counter("op_executions_total", op_executions,
          "guarded op runs including retries");
  counter("fallback_ops_total", fallback_ops,
          "ops served by the reference kernel");
  counter("escalations_total", escalations, "retry budgets exhausted");
  counter("breaker_trips_total", breaker_trips, "circuit breakers opened");
  counter("checksum_dirty_total", checksum_dirty,
          "responses with an accepted alarmed op");
  counter("sessions_completed_total", sessions_completed,
          "generation sessions finished");
  counter("tokens_generated_total", tokens_generated, "tokens emitted");
  counter("scheduler_ticks_total", scheduler_ticks, "decode sweeps");
  counter("preemptions_total", preemptions,
          "sessions evicted under page pressure");
  counter("session_resumes_total", session_resumes,
          "preempted/parked sessions resumed");
  counter("scrub_passes_total", scrub_passes, "completed scrub walks");
  counter("scrub_repairs_total", scrub_repairs,
          "latent faults healed by the scrubber");
  gauge("pages_in_use", double(pages_in_use), "KV pool pages allocated now");
  gauge("pages_total", double(pages_total), "KV pool size");
  if (wall_seconds > 0.0) {
    gauge("throughput_rps", throughput_rps(wall_seconds),
          "completed requests per second");
  }

  out << "# HELP flashabft_op_checks_total guarded ops reported, by kind\n"
      << "# TYPE flashabft_op_checks_total counter\n";
  for (std::size_t k = 0; k < kOpKindCount; ++k) {
    if (per_kind[k].checks == 0) continue;
    out << "flashabft_op_checks_total{kind=\"" << op_kind_name(OpKind(k))
        << "\"} " << per_kind[k].checks << "\n";
  }
  out << "# HELP flashabft_op_alarms_total checksum alarms, by kind\n"
      << "# TYPE flashabft_op_alarms_total counter\n";
  for (std::size_t k = 0; k < kOpKindCount; ++k) {
    if (per_kind[k].checks == 0) continue;
    out << "flashabft_op_alarms_total{kind=\"" << op_kind_name(OpKind(k))
        << "\"} " << per_kind[k].alarms << "\n";
  }

  // Guard-phase timing: the ABFT overhead attribution as cumulative
  // histograms (bucket edges in seconds — the log-bucketed ns histograms
  // scaled by 1e-9), one series per active (kind, phase) cell.
  out << "# HELP flashabft_guard_phase_seconds_total guarded execution time "
         "split into compute/verify/recovery, by op kind\n"
      << "# TYPE flashabft_guard_phase_seconds_total counter\n";
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
  out << "# HELP flashabft_guard_phase_duration_seconds per-sample guard "
         "phase durations\n"
      << "# TYPE flashabft_guard_phase_duration_seconds histogram\n";
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
      out << "flashabft_guard_phase_duration_seconds_bucket{" << labels
          << ",le=\"+Inf\"} " << h.count << "\n"
          << "flashabft_guard_phase_duration_seconds_sum{" << labels << "} "
          << double(h.total) * 1e-9 << "\n"
          << "flashabft_guard_phase_duration_seconds_count{" << labels << "} "
          << h.count << "\n";
    }
  }
  out << "# HELP flashabft_abft_overhead_pct verify+recovery time as a "
         "percentage of compute time, by op kind\n"
      << "# TYPE flashabft_abft_overhead_pct gauge\n";
  for (std::size_t k = 0; k < kOpKindCount; ++k) {
    const OpKind kind = OpKind(k);
    if (timing.of(kind, obs::GuardPhase::kCompute).count == 0) continue;
    out << "flashabft_abft_overhead_pct{kind=\"" << op_kind_name(kind)
        << "\"} " << timing.overhead_pct(kind) << "\n";
  }
  return out.str();
}

}  // namespace flashabft::serve
