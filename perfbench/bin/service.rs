//! The two wire workloads, `wire_8shard` and `region_64flows`: one
//! closed-loop client drives a [`FleetService`] (one tick worker) purely
//! through encoded frames — offers, departures and link changes go in
//! through `handle_frame`, decisions come back from `tick_frames`.
//!
//! Untraced, a tick costs two clock reads per offer (its latency) plus
//! one per tick. Traced, every segment of the tick is timed, the
//! frames are decoded and the decisions re-encoded once more in timed
//! batches (the wire layer's cost), and on `region_64flows` a
//! standalone shadow [`FleetPlanner`] replays each tick's batches so
//! the planner's share of the tick can be split off.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use dmc_fleet::{
    AdmissionDecision, FleetConfig, FleetPlanner, FleetService, FlowId, FlowRequest, ServiceConfig,
};
use dmc_proto::wire::{DecisionFrame, DepartFrame, LinkChangeFrame, OfferFrame, Verdict};

use crate::report::{Counts, Metrics, Outcome};
use crate::script::{Mix, Script, TickFrames, OFFERS_PER_TICK};
use crate::util::{ratio, replay, Busy, Replay, Replayed, Timeline, REPLAYS};

/// One wire workload.
#[derive(Clone, Copy)]
pub struct Spec {
    pub mix: Mix,
    /// Ticks of warm-up in each set-up (and of the counted prefix).
    pub warmup_ticks: u64,
    /// Ticks per chunk when the traced run alternates plain and traced
    /// instances.
    pub chunk_ticks: u64,
    /// Replay every tick into a shadow planner (exact only without
    /// region-spanning offers).
    pub shadow: bool,
}

pub const WIRE_8SHARD: Spec = Spec {
    mix: Mix::WIRE_8SHARD,
    warmup_ticks: 200,
    chunk_ticks: 100,
    shadow: false,
};

pub const REGION_64FLOWS: Spec = Spec {
    mix: Mix::REGION_64FLOWS,
    warmup_ticks: 40,
    chunk_ticks: 20,
    shadow: true,
};

/// What the client saw, summed over the ticks it ran.
#[derive(Default)]
pub struct Tally {
    /// Frames handed over that expect an answer (offers, departures,
    /// link changes; corrupted frames excluded).
    pub attempted: u64,
    /// Of those, the ones refused or never answered.
    pub failed: u64,
    /// Offers answered with a decision frame.
    pub answered: u64,
    /// Answered offers that were well formed.
    pub valid: u64,
    pub admitted: u64,
    pub quality_sum: f64,
    /// Corrupted frames the service dropped, as it must.
    pub dropped: u64,
    /// Corrupted frames whose checksum still matched (answered).
    pub missed_corruptions: u64,
    pub ticks: u64,
    /// Tick and offer-latency times (untraced replays only).
    pub timeline: Timeline,
}

/// Traced time per layer boundary.
#[derive(Default)]
pub struct Layers {
    /// Script generation and client-side decision handling.
    pub driver: Busy,
    /// `handle_frame`, one call per frame.
    pub ingress: Busy,
    /// `tick_frames`, one call per tick.
    pub tick: Busy,
    /// The re-decode / re-encode batches (trace-only work).
    pub decode: Busy,
    pub encode: Busy,
    pub frames_decoded: u64,
    pub frames_encoded: u64,
    /// Everything done only because the tick is traced: the probe
    /// batches and the whole shadow replay.
    pub trace_only: Busy,
    /// Shadow planner calls (inside `trace_only`).
    pub offer_batch: Busy,
    pub depart_batch: Busy,
    pub link_change: Busy,
    /// Wall time of the traced ticks, end to end.
    pub wall: Duration,
}

/// A standalone planner fed the same batches as the service's one shard.
struct Shadow {
    planner: FleetPlanner,
    local: BTreeMap<u64, FlowId>,
    global: BTreeMap<FlowId, u64>,
}

/// One service and its client.
pub struct Instance {
    service: FleetService,
    script: Script,
    shadow: Option<Shadow>,
}

impl Instance {
    pub fn new(spec: &Spec, seed: u64, obs: dmc_obs::Obs, shadow: bool) -> Result<Self, String> {
        let (paths, groups) = dmc_experiments::service::region_paths(spec.mix.regions);
        let shadow = if shadow {
            if spec.mix.regions != 1 {
                return Err("the shadow planner replays a single region only".into());
            }
            Some(Shadow {
                planner: FleetPlanner::new(paths.clone(), FleetConfig::default())
                    .map_err(|e| format!("shadow planner: {e}"))?,
                local: BTreeMap::new(),
                global: BTreeMap::new(),
            })
        } else {
            None
        };
        let service = FleetService::new(
            paths,
            &groups,
            ServiceConfig {
                workers: 1,
                fleet: FleetConfig {
                    obs,
                    ..FleetConfig::default()
                },
                grid: None,
            },
        )
        .map_err(|e| format!("service construction: {e}"))?;
        Ok(Instance {
            service,
            script: Script::new(spec.mix, seed),
            shadow,
        })
    }

    pub fn decision_hash(&self) -> u64 {
        self.service.decision_hash()
    }

    pub fn obs_snapshot(&self) -> dmc_obs::Snapshot {
        self.service.obs_snapshot()
    }
}

/// Closes the segment that started at `mark` into `bucket`; returns the
/// new mark. Traced ticks are tiled by these splits, so the buckets add
/// up to the tick's wall time.
fn split(mark: &mut Instant, bucket: &mut Busy) -> Instant {
    let now = Instant::now();
    bucket.add(now - *mark);
    *mark = now;
    now
}

/// Runs one tick of the closed loop. `Err` is a failed output check.
pub fn run_tick(
    inst: &mut Instance,
    tally: &mut Tally,
    layers: Option<&mut Layers>,
) -> Result<(), String> {
    let start = Instant::now();
    tick(inst, tally, layers)?;
    tally.timeline.step(start.elapsed());
    Ok(())
}

fn tick(
    inst: &mut Instance,
    tally: &mut Tally,
    mut layers: Option<&mut Layers>,
) -> Result<(), String> {
    let tick_start = Instant::now();
    let mut mark = tick_start;
    let frames = inst.script.next_tick(OFFERS_PER_TICK);
    if let Some(l) = layers.as_deref_mut() {
        split(&mut mark, &mut l.driver);
        probe_decode(&frames, l);
        split(&mut mark, &mut l.trace_only);
    }

    // Submission, in script order: offers, departures, link change.
    // `pending` maps an offer's tag to whether it must be answered
    // `Invalid` (unknown for a corrupted frame the checksum missed).
    let mut pending: BTreeMap<u64, (Option<bool>, Instant)> = BTreeMap::new();
    let mut awaiting: Vec<u64> = Vec::new();
    for offer in &frames.offers {
        let submitted = match layers.as_deref_mut() {
            Some(l) => split(&mut mark, &mut l.driver),
            None => Instant::now(),
        };
        let seq = inst.service.handle_frame(&offer.bytes);
        if let Some(l) = layers.as_deref_mut() {
            split(&mut mark, &mut l.ingress);
        }
        if offer.corrupt {
            // A corrupted frame is an expected drop, not an operation.
            // The 16-bit frame checksum misses about one corruption in
            // 65,536: the service then decides on the altered offer,
            // and that decision is still checked for shape.
            match seq {
                None => tally.dropped += 1,
                Some(_) => {
                    tally.missed_corruptions += 1;
                    pending.insert(offer.tag, (None, submitted));
                }
            }
            continue;
        }
        tally.attempted += 1;
        match seq {
            Some(_) => {
                pending.insert(offer.tag, (Some(offer.malformed), submitted));
            }
            None => tally.failed += 1,
        }
    }
    let others = frames
        .departs
        .iter()
        .map(|(_, bytes)| bytes)
        .chain(frames.link.iter().map(|(_, _, bytes)| bytes));
    for bytes in others {
        if let Some(l) = layers.as_deref_mut() {
            split(&mut mark, &mut l.driver);
        }
        let seq = inst.service.handle_frame(bytes);
        if let Some(l) = layers.as_deref_mut() {
            split(&mut mark, &mut l.ingress);
        }
        tally.attempted += 1;
        match seq {
            Some(seq) => awaiting.push(seq),
            None => tally.failed += 1,
        }
    }

    if let Some(l) = layers.as_deref_mut() {
        split(&mut mark, &mut l.driver);
    }
    let result = inst.service.tick_frames();
    let answered_at = match layers.as_deref_mut() {
        Some(l) => split(&mut mark, &mut l.tick),
        None => Instant::now(),
    };
    tally.ticks += 1;

    let mut cohort = Vec::new();
    let mut decided: BTreeMap<u64, (bool, f64)> = BTreeMap::new();
    let (encoded, events) = match result {
        Ok(answer) => answer,
        Err(_) => {
            // Everything queued this tick went unanswered.
            tally.failed += (pending.len() + awaiting.len()) as u64;
            inst.script.finish_tick(cohort);
            if let Some(l) = layers {
                split(&mut mark, &mut l.driver);
                l.wall += mark - tick_start;
            }
            return Ok(());
        }
    };
    let mut decisions = Vec::with_capacity(encoded.len());
    for bytes in &encoded {
        let decision = DecisionFrame::decode(bytes)
            .ok_or("the service emitted a decision frame that does not decode")?;
        decisions.push(decision);
        let Some((malformed, submitted)) = pending.remove(&decision.seq) else {
            return Err(format!(
                "decision for tag {} answers no outstanding offer (duplicate or unknown)",
                decision.seq
            ));
        };
        let invalid = decision.verdict == Verdict::Invalid;
        if malformed.is_some_and(|m| m != invalid) {
            return Err(format!(
                "offer {} ({}) was answered {:?}",
                decision.seq,
                if invalid { "well formed" } else { "malformed" },
                decision.verdict
            ));
        }
        tally.timeline.latency(answered_at - submitted);
        tally.answered += 1;
        if invalid {
            continue;
        }
        tally.valid += 1;
        if decision.verdict == Verdict::Admitted {
            tally.admitted += 1;
            tally.quality_sum += decision.predicted_quality;
            cohort.push(decision.flow);
        }
        decided.insert(
            decision.seq,
            (
                decision.verdict == Verdict::Admitted,
                decision.predicted_quality,
            ),
        );
    }
    for event in &events {
        if let Some(i) = awaiting.iter().position(|&s| s == event.seq()) {
            awaiting.swap_remove(i);
        }
    }
    // An offer or departure without an answer is a failed operation.
    tally.failed += (pending.len() + awaiting.len()) as u64;
    if let Some(l) = layers.as_deref_mut() {
        split(&mut mark, &mut l.driver);
        probe_encode(&decisions, l);
        split(&mut mark, &mut l.trace_only);
    }

    if inst.shadow.is_some() {
        replay_shadow(inst, &frames, &decided, &cohort, layers.as_deref_mut())?;
        if let Some(l) = layers.as_deref_mut() {
            split(&mut mark, &mut l.trace_only);
        }
    }
    inst.script.finish_tick(cohort);
    if let Some(l) = layers {
        split(&mut mark, &mut l.driver);
        l.wall += mark - tick_start;
    }
    Ok(())
}

/// Decodes every frame of the tick once more, in one timed batch.
fn probe_decode(frames: &TickFrames, l: &mut Layers) {
    let start = Instant::now();
    for offer in &frames.offers {
        black_box(OfferFrame::decode(black_box(&offer.bytes)));
    }
    for (_, bytes) in &frames.departs {
        black_box(DepartFrame::decode(black_box(bytes)));
    }
    if let Some((_, _, bytes)) = &frames.link {
        black_box(LinkChangeFrame::decode(black_box(bytes)));
    }
    l.decode.add(start.elapsed());
    l.frames_decoded +=
        (frames.offers.len() + frames.departs.len() + frames.link.iter().count()) as u64;
}

/// Re-encodes the tick's decisions, in one timed batch.
fn probe_encode(decisions: &[DecisionFrame], l: &mut Layers) {
    let start = Instant::now();
    for d in decisions {
        black_box(black_box(d).encode());
    }
    l.encode.add(start.elapsed());
    l.frames_encoded += decisions.len() as u64;
}

/// Feeds the tick's batches to the shadow planner exactly as the shard
/// runs them (one `offer_batch` of the well-formed offers, one
/// `depart_batch` of the departures it still knows, then the link
/// change) and checks that it decides bit for bit like the service.
fn replay_shadow(
    inst: &mut Instance,
    frames: &TickFrames,
    decided: &BTreeMap<u64, (bool, f64)>,
    cohort: &[u64],
    mut layers: Option<&mut Layers>,
) -> Result<(), String> {
    let shadow = inst
        .shadow
        .as_mut()
        .ok_or("replay_shadow needs a shadow planner")?;
    // The offers the service planned: every one it answered other than
    // `Invalid`, as the service decoded it.
    let (tags, requests): (Vec<u64>, Vec<FlowRequest>) = frames
        .offers
        .iter()
        .filter(|o| decided.contains_key(&o.tag))
        .map(|o| {
            let frame = OfferFrame::decode(&o.bytes).unwrap_or(o.frame);
            (o.tag, request_of(&frame))
        })
        .unzip();
    let mut admitted_flows = cohort.iter();
    if !requests.is_empty() {
        let start = Instant::now();
        let out = shadow.planner.offer_batch(requests);
        if let Some(l) = layers.as_deref_mut() {
            l.offer_batch.add(start.elapsed());
        }
        let out = out.map_err(|e| format!("shadow offer_batch: {e}"))?;
        for (tag, decision) in tags.iter().zip(&out) {
            let &(admitted, quality) = decided
                .get(tag)
                .ok_or_else(|| format!("offer {tag} has no service decision to compare"))?;
            match decision {
                AdmissionDecision::Admitted {
                    id,
                    predicted_quality,
                } => {
                    if !admitted || predicted_quality.to_bits() != quality.to_bits() {
                        return Err(format!(
                            "shadow planner admits offer {tag} at quality {predicted_quality}, \
                             the service answered admitted={admitted} at {quality}"
                        ));
                    }
                    let flow = *admitted_flows
                        .next()
                        .ok_or("the service admitted fewer flows than the shadow")?;
                    shadow.local.insert(flow, *id);
                    shadow.global.insert(*id, flow);
                }
                AdmissionDecision::Rejected { .. } => {
                    if admitted {
                        return Err(format!(
                            "shadow planner rejects offer {tag}, the service admitted it"
                        ));
                    }
                }
            }
        }
    }
    let known: Vec<FlowId> = frames
        .departs
        .iter()
        .filter_map(|(flow, _)| shadow.local.get(flow).copied())
        .collect();
    if !known.is_empty() {
        let start = Instant::now();
        let out = shadow.planner.depart_batch(&known);
        if let Some(l) = layers.as_deref_mut() {
            l.depart_batch.add(start.elapsed());
        }
        out.map_err(|e| format!("shadow depart_batch: {e}"))?;
        for id in &known {
            if let Some(flow) = shadow.global.remove(id) {
                shadow.local.remove(&flow);
            }
        }
        drain_capacity_lists(shadow);
    }
    if let Some((path, change, _)) = &frames.link {
        let start = Instant::now();
        let out = shadow.planner.apply_link_change(*path, change);
        if let Some(l) = layers {
            l.link_change.add(start.elapsed());
        }
        out.map_err(|e| format!("shadow apply_link_change: {e}"))?;
        drain_capacity_lists(shadow);
    }
    let (ours, theirs) = (shadow.planner.num_flows(), inst.service.num_admitted_legs());
    if ours != theirs {
        return Err(format!(
            "shadow planner holds {ours} flows, the service {theirs}"
        ));
    }
    Ok(())
}

/// What the shard does after a departure batch or a link change: empty
/// the revive/reject lists and forget definitively rejected flows.
fn drain_capacity_lists(shadow: &mut Shadow) {
    shadow.planner.drain_revived();
    for id in shadow.planner.drain_shed_rejected() {
        if let Some(flow) = shadow.global.remove(&id) {
            shadow.local.remove(&flow);
        }
    }
}

/// The request the service builds from a well-formed offer frame.
fn request_of(frame: &OfferFrame) -> FlowRequest {
    FlowRequest::new(frame.data_rate, frame.lifetime)
        .expect("the script draws positive finite rates and lifetimes")
        .with_min_quality(frame.min_quality)
        .with_priority(frame.priority)
        .with_transmissions(usize::from(frame.transmissions))
        .with_paths(
            frame
                .path_subset()
                .expect("every scripted offer names its paths"),
        )
}

/// Builds an instance and runs its warm-up; returns it with the
/// warm-up's tally.
pub fn set_up(
    spec: &Spec,
    seed: u64,
    obs: dmc_obs::Obs,
    shadow: bool,
) -> Result<(Instance, Tally), String> {
    let mut inst = Instance::new(spec, seed, obs, shadow)?;
    let mut warm = Tally::default();
    for _ in 0..spec.warmup_ticks {
        run_tick(&mut inst, &mut warm, None)?;
    }
    if warm.failed > 0 {
        return Err(format!(
            "{} operation(s) failed during warm-up",
            warm.failed
        ));
    }
    Ok((inst, warm))
}

/// The counted pass: an instance with telemetry on, through its warm-up
/// prefix. Its counters are exact and repeat bit for bit for a seed.
pub fn counted(spec: &Spec, seed: u64) -> Result<(Instance, Counts), String> {
    let (inst, warm) = set_up(spec, seed, dmc_obs::Obs::enabled(), spec.shadow)?;
    let counts = Counts::new(inst.obs_snapshot(), warm.answered, warm.dropped);
    Ok((inst, counts))
}

/// Runs a wire workload for `seconds` and reports its metrics.
pub fn run(spec: &Spec, seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let plain_set_up = || {
        let (inst, _) = set_up(spec, seed, dmc_obs::Obs::disabled(), false)?;
        let hash = inst.decision_hash();
        Ok((inst, hash))
    };
    let mut m = Metrics::default();
    let mut notes = Vec::new();
    let (attempted, failed);

    if !traced {
        let run = replay(seconds, plain_set_up, |mut inst, timeline| {
            let mut tally = Tally {
                timeline,
                ..Tally::default()
            };
            while tally.timeline.more(tally.ticks) {
                run_tick(&mut inst, &mut tally, None)?;
            }
            Ok(Replay {
                units: tally.ticks,
                fingerprint: inst.decision_hash(),
                timeline: std::mem::take(&mut tally.timeline),
                tally,
            })
        })?;
        notes.push(format!(
            "{REPLAYS} replays of {} ticks, each after a set-up of {} warm-up ticks; \
             warm-up decision hash {:#018x}, replay decision hash {:#018x} on every one",
            run.units, spec.warmup_ticks, run.set_up_fingerprint, run.fingerprint
        ));
        if spec.shadow {
            // The shadow check runs on a separate warm-up, outside every
            // timed region.
            let (checked, _) = set_up(spec, seed, dmc_obs::Obs::disabled(), true)?;
            if checked.decision_hash() != run.set_up_fingerprint {
                return Err("the shadow-checked warm-up decided differently".into());
            }
            notes.push(format!(
                "shadow planner matched the service bit for bit over {} ticks",
                spec.warmup_ticks
            ));
        }
        // Every replay made the same decisions; the counts are the first's.
        let tally = &run.tallies[0];
        let secs = run.secs();
        m.set("decisions_per_s", tally.answered as f64 / secs);
        m.set(
            "decision_p50_us",
            run.latency_us(0.50).ok_or("no offers were answered")?,
        );
        m.set(
            "decision_p99_us",
            run.latency_us(0.99).ok_or("no offers were answered")?,
        );
        m.set(
            "admitted_frac",
            ratio(tally.admitted as f64, tally.valid as f64),
        );
        m.set("quality", ratio(tally.quality_sum, tally.admitted as f64));
        m.set("setup_s", run.setup_s);
        m.set("peak_rss_mb", crate::util::peak_rss_mb()?);
        notes.push(format!(
            "decisions_per_s = {:.1} 1/s ({} offers answered per replay in {secs:.4} s, \
             the sum of each tick's fastest replay); {}",
            m.get("decisions_per_s").unwrap_or(0.0),
            tally.answered,
            raw_note(&run, tally.answered),
        ));
        notes.push(format!(
            "decision_p50_us = {:.2} us, decision_p99_us = {:.2} us (each offer's fastest replay; n = {})",
            m.get("decision_p50_us").unwrap_or(0.0),
            m.get("decision_p99_us").unwrap_or(0.0),
            run.latency_samples()
        ));
        notes.push(format!(
            "admitted_frac = {:.4}, predicted_quality = {:.4}, corrupted frames dropped = {}, \
             missed by the checksum (and answered) = {}",
            m.get("admitted_frac").unwrap_or(0.0),
            m.get("quality").unwrap_or(0.0),
            tally.dropped,
            tally.missed_corruptions
        ));
        attempted = run.tallies.iter().map(|t| t.attempted).sum();
        failed = run.tallies.iter().map(|t| t.failed).sum();
    } else {
        let (mut plain, hash) = plain_set_up()?;
        let (mut traced_inst, counts) = counted(spec, seed)?;
        if traced_inst.decision_hash() != hash {
            return Err("the telemetry-enabled warm-up decided differently".into());
        }
        // Alternate equal chunks of ticks between the plain and the
        // traced instance: both walk the same script, so the throughput
        // ratio is the tracing overhead.
        let mut tally = Tally::default();
        let mut layers = Layers::default();
        let mut traced_tally = Tally::default();
        let mut plain_wall = Duration::ZERO;
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < seconds {
            let chunk = Instant::now();
            for _ in 0..spec.chunk_ticks {
                run_tick(&mut plain, &mut tally, None)?;
            }
            plain_wall += chunk.elapsed();
            for _ in 0..spec.chunk_ticks {
                run_tick(&mut traced_inst, &mut traced_tally, Some(&mut layers))?;
            }
        }
        if plain.decision_hash() != traced_inst.decision_hash() {
            return Err("the traced instance decided differently from the plain one".into());
        }
        let plain_rate = tally.answered as f64 / plain_wall.as_secs_f64();
        let traced_rate = traced_tally.answered as f64 / layers.wall.as_secs_f64();
        m.set("trace_overhead", 1.0 - traced_rate / plain_rate);
        let addback = per_layer(spec, &layers, &counts, &mut m);
        notes.push(check_addback(addback)?);
        notes.push(format!(
            "traced {} ticks; counted prefix: {}",
            traced_tally.ticks,
            counts.fingerprint()
        ));
        attempted = tally.attempted + traced_tally.attempted;
        failed = tally.failed + traced_tally.failed;
    }
    Ok(Outcome {
        attempted,
        failed,
        metrics: m,
        notes,
    })
}

/// The unscaled figures of an untraced run, for its notes.
pub fn raw_note<T>(run: &Replayed<T>, ops: u64) -> String {
    format!(
        "unscaled: {:.1} 1/s, p50 {:.2} us, p99 {:.2} us; the reference work took {:.1} us \
         (mean fastest of {} runs, x{:.4} of the calibration machine's)",
        ops as f64 / run.raw_secs(),
        run.raw_latency_us(0.50).unwrap_or(0.0),
        run.raw_latency_us(0.99).unwrap_or(0.0),
        run.reference_s() * 1e6,
        run.reference_runs(),
        run.slowdown()
    )
}

/// The traced run's layer self times must add back to its wall time
/// within ±5%; returns the note that says so.
pub fn check_addback(addback: f64) -> Result<String, String> {
    if (addback - 1.0).abs() > 0.05 {
        return Err(format!(
            "per-layer self times add back to {addback:.4} of the wall time (allowed 0.95..1.05)"
        ));
    }
    Ok(format!(
        "per-layer self times add back to {addback:.4} of the traced wall time"
    ))
}

/// Per-layer metrics of the traced ticks plus the exact counts of the
/// counted prefix. Returns the layers' sum as a share of the traced
/// wall time (trace-only work excluded).
pub fn per_layer(spec: &Spec, l: &Layers, counts: &Counts, m: &mut Metrics) -> f64 {
    let decode_ns = l.decode.total.as_secs_f64() * 1e9 / l.frames_decoded.max(1) as f64;
    let encode_ns = l.encode.total.as_secs_f64() * 1e9 / l.frames_encoded.max(1) as f64;
    m.set("wire.decode_ns", decode_ns);
    m.set("wire.encode_ns", encode_ns);
    m.set("service.ingress_ns", l.ingress.mean_ns());
    m.set("service.tick_us", l.tick.mean_us());
    let planner = l.offer_batch.secs() + l.depart_batch.secs() + l.link_change.secs();
    if spec.shadow {
        m.set("service.tick_self_s", l.tick.secs() - planner);
        m.set("planner.offer_batch_us", l.offer_batch.mean_us());
        m.set("planner.depart_batch_us", l.depart_batch.mean_us());
        m.set("planner.link_change_us", l.link_change.mean_us());
        m.set("planner.busy_s", planner);
    }
    // The wire layer's share inside the service, estimated from the
    // probe batches; the planner's from the shadow replay.
    let wire = (decode_ns * l.ingress.calls as f64 + encode_ns * l.frames_encoded as f64) / 1e9;
    let service_self = l.ingress.secs() + l.tick.secs() - wire - planner;
    let layers = l.driver.secs() + wire + service_self + planner;
    m.set("driver.self_s", l.driver.secs());
    m.set("trace.wall_s", l.wall.as_secs_f64());
    counts.apply(m);
    layers / (l.wall.as_secs_f64() - l.trace_only.secs())
}
