//! The metric catalogue (names and units, as `BENCHMARK.json` lists
//! them), the exact work counts read from telemetry, and the result
//! line.

use std::collections::BTreeMap;

/// End-to-end metrics, reported with `--trace 0` on every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("decisions_per_s", "1/s"),
    ("decision_p50_us", "us"),
    ("decision_p99_us", "us"),
    ("admitted_frac", "ratio"),
    ("quality", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported with `--trace 1` on every workload (0
/// where the workload does not reach the layer).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("wire.decode_ns", "ns"),
    ("wire.encode_ns", "ns"),
    ("wire.frames_dropped", "count"),
    ("service.ingress_ns", "ns"),
    ("service.tick_us", "us"),
    ("service.tick_self_s", "s"),
    ("service.spanning_offers", "count"),
    ("service.queue_depth", "count"),
    ("planner.offer_batch_us", "us"),
    ("planner.depart_batch_us", "us"),
    ("planner.link_change_us", "us"),
    ("planner.busy_s", "s"),
    ("fleet.warm_hit_ratio", "ratio"),
    ("fleet.refusals", "count"),
    ("fleet.revives", "count"),
    ("schedule.offer_us", "us"),
    ("schedule.advance_us", "us"),
    ("fleet.reservations", "count"),
    ("schedule.offer_growth", "ratio"),
    ("lp.solves", "count"),
    ("lp.pivots", "count"),
    ("lp.pivots_per_decision", "ratio"),
    ("lp.refactorizations", "count"),
    ("lp.warm_used_ratio", "ratio"),
    ("lp.phase1_early_exits", "count"),
    ("core.replan_us", "us"),
    ("proto.adapt.resolves", "count"),
    ("sender.ns_per_call", "ns"),
    ("sender.busy_s", "s"),
    ("receiver.ns_per_call", "ns"),
    ("receiver.busy_s", "s"),
    ("proto.tx.retransmissions", "count"),
    ("proto.rx.acks_sent", "count"),
    ("sim.self_s", "s"),
    ("sim.events", "count"),
    ("sim.ns_per_event", "ns"),
    ("sim.events_per_message", "ratio"),
    ("driver.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace_overhead", "ratio"),
];

/// Measured metric values by name.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Records a catalogue metric.
    ///
    /// # Panics
    ///
    /// On a name outside the catalogue (a typo in the benchmark).
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "metric {name} is not in the catalogue"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// The metrics object of the result line: every end-to-end metric
    /// (`traced == false`, all must be measured) or every per-layer one
    /// (`traced == true`, unmeasured layers read 0).
    pub fn render(&self, traced: bool) -> Result<String, String> {
        let catalogue = if traced { PER_LAYER } else { END_TO_END };
        let mut parts = Vec::with_capacity(catalogue.len());
        for &(name, unit) in catalogue {
            let value = match self.0.get(name) {
                Some(&v) => v,
                None if traced => 0.0,
                None => return Err(format!("end-to-end metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            parts.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            ));
        }
        Ok(format!("{{{}}}", parts.join(", ")))
    }
}

/// A finite float as a JSON number with every digit Rust prints.
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

/// Exact work counts of a fixed-length counted pass, read from the
/// telemetry snapshot(s) the pass produced.
pub struct Counts {
    snap: dmc_obs::Snapshot,
    /// Decisions (offers answered; messages on `adaptive_stream`) in the
    /// counted pass.
    decisions: u64,
    /// Corrupted frames the wire layer dropped in the counted pass.
    frames_dropped: u64,
}

impl Counts {
    pub fn new(snap: dmc_obs::Snapshot, decisions: u64, frames_dropped: u64) -> Self {
        Counts {
            snap,
            decisions,
            frames_dropped,
        }
    }

    fn counter(&self, name: &str) -> u64 {
        self.snap.counter(name).unwrap_or(0)
    }

    /// Sets every count metric the snapshot carries.
    pub fn apply(&self, m: &mut Metrics) {
        let c = |name| self.counter(name) as f64;
        m.set("wire.frames_dropped", self.frames_dropped as f64);
        m.set("service.spanning_offers", c("service.spanning_offers"));
        if let Some(h) = self.snap.histogram("service.queue_depth") {
            m.set("service.queue_depth", ratio(h.sum, h.count));
        }
        m.set(
            "fleet.warm_hit_ratio",
            ratio(
                self.counter("fleet.warm_hits"),
                self.counter("fleet.warm_hits") + self.counter("fleet.warm_misses"),
            ),
        );
        m.set("fleet.refusals", c("fleet.refusals"));
        m.set("fleet.revives", c("fleet.revives"));
        m.set("fleet.reservations", c("fleet.reservations"));
        m.set("lp.solves", c("lp.solves"));
        m.set("lp.pivots", c("lp.pivots"));
        m.set(
            "lp.pivots_per_decision",
            ratio(self.counter("lp.pivots"), self.decisions),
        );
        m.set("lp.refactorizations", c("lp.refactorizations"));
        m.set(
            "lp.warm_used_ratio",
            ratio(
                self.counter("lp.warm_used"),
                self.counter("lp.warm_attempts"),
            ),
        );
        m.set("lp.phase1_early_exits", c("lp.phase1_early_exits"));
        m.set("proto.adapt.resolves", c("proto.adapt.resolves"));
        m.set("proto.tx.retransmissions", c("proto.tx.retransmissions"));
        m.set("proto.rx.acks_sent", c("proto.rx.acks_sent"));
        m.set("sim.events", c("sim.events"));
        m.set(
            "sim.events_per_message",
            ratio(
                self.counter("sim.events"),
                self.counter("proto.tx.generated"),
            ),
        );
    }

    /// The counts that must repeat bit for bit across runs of one seed,
    /// as one comparable string.
    pub fn fingerprint(&self) -> String {
        format!(
            "decisions={} dropped={} {:?}",
            self.decisions, self.frames_dropped, self.snap.counters
        )
    }
}

/// `num / den` over exact counts, 0 when `den` is 0.
fn ratio(num: u64, den: u64) -> f64 {
    crate::util::ratio(num as f64, den as f64)
}

/// One workload's result.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

/// The last line of standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &str) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics}}}"
    )
}
