#include "trace_agg.hpp"

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

namespace qb {

namespace {

bool is_task_span(const qon::api::TraceSpan& span) {
  return span.name == "qpu_exec" || span.name == "task_classical";
}

bool contains(const qon::api::TraceSpan& outer, const qon::api::TraceSpan& inner) {
  return inner.wall_start_us >= outer.wall_start_us && inner.wall_end_us <= outer.wall_end_us;
}

/// N of a "cycle=N" detail; 0 when absent.
std::uint64_t cycle_index(const std::string& detail) {
  const std::size_t at = detail.find("cycle=");
  if (at == std::string::npos) return 0;
  return std::strtoull(detail.c_str() + at + 6, nullptr, 10);
}

}  // namespace

qon::obs::TraceSink TraceAggregator::sink() {
  return [this](const qon::api::RunTrace& trace) { consume(trace); };
}

void TraceAggregator::consume(const qon::api::RunTrace& trace) {
  // Per-run work happens before the lock: only the fold is serialized.
  struct Piece {
    double start;
    double end;
  };
  std::vector<Piece> self_pieces;
  std::vector<double> self_us;
  std::vector<Piece> parks;
  std::vector<Piece> execs;
  std::vector<Piece> classicals;
  std::vector<double> waits_ms;
  std::vector<std::pair<std::uint64_t, double>> cycles;

  for (const qon::api::TraceSpan& span : trace.spans) {
    const Piece piece{span.wall_start_us, span.wall_end_us};
    if (span.name == "engine_step") {
      if (span.detail == "parked") {
        parks.push_back(piece);
        continue;
      }
      std::vector<Piece> children;
      for (const qon::api::TraceSpan& other : trace.spans) {
        if (is_task_span(other) && contains(span, other)) {
          children.push_back({other.wall_start_us, other.wall_end_us});
        }
      }
      std::sort(children.begin(), children.end(),
                [](const Piece& a, const Piece& b) { return a.start < b.start; });
      double cursor = span.wall_start_us;
      double self = 0.0;
      for (const Piece& child : children) {
        if (child.start > cursor) {
          self_pieces.push_back({cursor, child.start});
          self += child.start - cursor;
        }
        cursor = std::max(cursor, child.end);
      }
      if (span.wall_end_us > cursor) {
        self_pieces.push_back({cursor, span.wall_end_us});
        self += span.wall_end_us - cursor;
      }
      self_us.push_back(self);
    } else if (span.name == "qpu_exec") {
      execs.push_back(piece);
    } else if (span.name == "task_classical") {
      classicals.push_back(piece);
    } else if (span.name == "queue_wait") {
      waits_ms.push_back((span.wall_end_us - span.wall_start_us) / 1e3);
    } else if (span.name == "cycle_select") {
      cycles.emplace_back(cycle_index(span.detail), span.wall_end_us);
    }
  }

  std::lock_guard<std::mutex> lock(mutex_);
  ++totals_.runs;
  totals_.dropped_spans += trace.dropped;
  for (const Piece& p : self_pieces) totals_.engine_self.add(p.start, p.end);
  for (const double v : self_us) totals_.engine_self_us.add(v);
  for (const Piece& p : parks) {
    totals_.park_steps.add(p.start, p.end);
    totals_.park_step_us.add(p.end - p.start);
  }
  for (const Piece& p : execs) {
    totals_.qpu_exec.add(p.start, p.end);
    totals_.qpu_exec_ms.add((p.end - p.start) / 1e3);
  }
  for (const Piece& p : classicals) {
    totals_.classical.add(p.start, p.end);
    totals_.classical_us.add(p.end - p.start);
  }
  for (const double v : waits_ms) totals_.queue_wait_ms.add(v);
  // Every member of a batch carries its cycle's stage spans: keep one.
  for (const auto& [cycle, end_us] : cycles) totals_.cycle_end_us.emplace(cycle, end_us);
}

void TraceAggregator::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  totals_ = TraceTotals{};
}

TraceTotals TraceAggregator::totals() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return totals_;
}

}  // namespace qb
