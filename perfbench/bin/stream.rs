//! `adaptive_stream`: the `live_stream` example's network — a sender
//! that believes 10 and 4 Mbps with 2% loss on the primary path, a
//! primary that really loses 40% — run through
//! `TwoHostSim<AdaptiveSender, DmcReceiver>` with a re-plan every
//! 250 ms. Each session streams 40,000 messages over 60 s of simulated
//! time on freshly seeded links.
//!
//! While it generates messages, the session runs in steps of one
//! adaptation interval (250 ms of simulated time: one re-plan and the
//! few hundred messages it governs); the wall time of each such step is
//! the workload's decision latency.
//!
//! Both agents sit inside [`Timed`], a pass-through [`Agent`] that, in
//! traced runs, times every call, so the simulator's own time is
//! `run_until` minus the two.

use std::sync::Arc;
use std::time::{Duration, Instant};

use dmc_core::{ModelConfig, NetworkSpec, Objective, PathSpec, Plan, Planner, Scenario};
use dmc_proto::{AdaptiveConfig, AdaptiveSender, DmcReceiver, ReceiverConfig};
use dmc_sim::{Agent, LinkConfig, Packet, SimApi, SimDuration, SimTime, TwoHostSim};
use dmc_stats::ConstantDelay;

use crate::report::{Counts, Metrics, Outcome};
use crate::service::{check_addback, raw_note};
use crate::util::{fnv1a, ratio, replay, Busy, Replay, Timeline, FNV_BASIS, REPLAYS};

const MESSAGES: u64 = 40_000;
const SESSION_S: f64 = 60.0;
/// The sender's re-plan interval, which is also the latency step.
const INTERVAL_MS: u64 = 250;
/// Simulated seconds of the set-up warm-up.
const WARMUP_S: f64 = 10.0;
/// The `live_stream` reference band for the delivered quality.
const QUALITY_BAND: (f64, f64) = (0.80, 0.87);

/// Work an agent reports so that [`Timed`] can tell re-plans apart.
pub trait Work {
    fn work(&self) -> u64 {
        0
    }
}

impl Work for AdaptiveSender {
    fn work(&self) -> u64 {
        self.resolves()
    }
}

impl Work for DmcReceiver {}

/// A pass-through agent that times the calls into the one it wraps.
pub struct Timed<A> {
    inner: A,
    /// Time every call into `busy` (and re-plans into `replan`).
    timing: bool,
    busy: Busy,
    replan: Busy,
}

impl<A: Agent + Work> Timed<A> {
    fn new(inner: A, timing: bool) -> Self {
        Timed {
            inner,
            timing,
            busy: Busy::default(),
            replan: Busy::default(),
        }
    }

    fn call(&mut self, f: impl FnOnce(&mut A)) {
        if !self.timing {
            f(&mut self.inner);
            return;
        }
        let before = self.inner.work();
        let start = Instant::now();
        f(&mut self.inner);
        let d = start.elapsed();
        self.busy.add(d);
        if self.inner.work() != before {
            self.replan.add(d);
        }
    }
}

impl<A: Agent + Work> Agent for Timed<A> {
    fn on_start(&mut self, api: &mut SimApi<'_>) {
        self.call(|a| a.on_start(api));
    }

    fn on_packet(&mut self, path: usize, packet: Packet, api: &mut SimApi<'_>) {
        self.call(|a| a.on_packet(path, packet, api));
    }

    fn on_timer(&mut self, key: u64, api: &mut SimApi<'_>) {
        self.call(|a| a.on_timer(key, api));
    }
}

type Sim = TwoHostSim<Timed<AdaptiveSender>, Timed<DmcReceiver>>;

fn link(bw: f64, delay: f64, loss: f64) -> LinkConfig {
    LinkConfig {
        bandwidth_bps: bw,
        propagation: Arc::new(ConstantDelay::new(delay)),
        loss: loss.into(),
        queue_capacity_bytes: 100 * 1024,
    }
}

/// The sender's prior and the plan it starts from.
pub struct Prior {
    spec: NetworkSpec,
    plan: Plan,
}

impl Prior {
    pub fn new() -> Result<Self, String> {
        let spec = NetworkSpec::builder()
            .path(PathSpec::new(10e6, 0.100, 0.02).map_err(|e| e.to_string())?)
            .path(PathSpec::new(4e6, 0.050, 0.0).map_err(|e| e.to_string())?)
            .data_rate(12e6)
            .lifetime(0.4)
            .build()
            .map_err(|e| e.to_string())?;
        let plan = Planner::new()
            .plan(&Scenario::from_network(&spec), Objective::MaxQuality)
            .map_err(|e| e.to_string())?;
        Ok(Prior { spec, plan })
    }
}

/// Builds session `index` of a run: fresh links and a fresh sender;
/// `traced` times every call of both agents.
fn build(
    prior: &Prior,
    seed: u64,
    index: u64,
    traced: bool,
    obs: &dmc_obs::Obs,
) -> Result<Sim, String> {
    let mut model = ModelConfig::default();
    model.solver.obs = obs.clone();
    let sender = AdaptiveSender::from_plan(
        &prior.plan,
        AdaptiveConfig {
            prior: prior.spec.clone(),
            interval: SimDuration::from_millis(INTERVAL_MS),
            model,
            rto_extra: SimDuration::from_millis(50),
            min_samples: 30,
            quality_floor: None,
            jitter_seed: dmc_experiments::montecarlo::trial_seed(seed, 2 * index + 2),
        },
        MESSAGES,
    );
    let receiver = DmcReceiver::new(ReceiverConfig::new(SimDuration::from_secs_f64(0.4), 1));
    let (sender, receiver) = (Timed::new(sender, traced), Timed::new(receiver, traced));
    let fwd = vec![link(12e6, 0.100, 0.40), link(5e6, 0.050, 0.0)];
    let bwd = vec![link(12e6, 0.100, 0.0), link(5e6, 0.050, 0.0)];
    TwoHostSim::new(
        fwd,
        bwd,
        sender,
        receiver,
        dmc_experiments::montecarlo::trial_seed(seed, 2 * index + 1),
    )
}

#[derive(Default)]
struct Tally {
    sessions: u64,
    generated: u64,
    blackholed: u64,
    in_time: u64,
    wall: Duration,
    /// Session build, adaptation interval and drain times, with the
    /// intervals as latencies (untraced replays only).
    timeline: Timeline,
}

impl Tally {
    /// Hash of what the sessions delivered, to compare replays.
    fn fingerprint(&self) -> u64 {
        [self.sessions, self.generated, self.blackholed, self.in_time]
            .iter()
            .fold(FNV_BASIS, |h, v| fnv1a(h, &v.to_le_bytes()))
    }
}

#[derive(Default)]
struct Layers {
    sender: Busy,
    receiver: Busy,
    replan: Busy,
    run_until: Busy,
    events: u64,
    wall: Duration,
}

/// Streams one whole session; returns its telemetry snapshot when
/// `obs` is enabled.
fn session(
    prior: &Prior,
    seed: u64,
    index: u64,
    traced: bool,
    obs: &dmc_obs::Obs,
    tally: &mut Tally,
    layers: Option<&mut Layers>,
) -> Result<Option<dmc_obs::Snapshot>, String> {
    let start = Instant::now();
    let mut sim = build(prior, seed, index, traced, obs)?;
    let run_start = Instant::now();
    tally.timeline.step(run_start - start);
    // Time the intervals that generate messages; the rest of the
    // session only drains the last retransmissions and acks.
    let mut step = 0;
    while sim.client().inner.inner().stats().generated < MESSAGES {
        step += 1;
        let step_start = Instant::now();
        sim.run_until(SimTime::from_nanos(step * INTERVAL_MS * 1_000_000));
        let took = step_start.elapsed();
        tally.timeline.step(took);
        tally.timeline.latency(took);
        if step * INTERVAL_MS >= SESSION_S as u64 * 1000 {
            break;
        }
    }
    let drain_start = Instant::now();
    sim.run_until(SimTime::from_secs_f64(SESSION_S));
    let run_time = run_start.elapsed();
    let (sender, receiver) = (sim.client(), sim.server());
    let stats = sender.inner.inner().stats();
    if stats.generated != MESSAGES {
        return Err(format!(
            "session {index} generated {} of {MESSAGES} messages",
            stats.generated
        ));
    }
    tally.sessions += 1;
    tally.generated += stats.generated;
    tally.blackholed += stats.blackholed;
    tally.in_time += receiver.inner.stats().unique_in_time;
    let snapshot = obs.is_enabled().then(|| {
        sender.inner.publish_obs(obs);
        receiver.inner.stats().publish_obs(obs);
        sim.publish_obs(obs);
        obs.snapshot()
    });
    let events = sim.events_processed();
    let (sender, receiver) = sim.into_agents();
    let wall = start.elapsed();
    tally.wall += wall;
    tally.timeline.step(wall - (drain_start - start));
    if let Some(l) = layers {
        l.sender.total += sender.busy.total;
        l.sender.calls += sender.busy.calls;
        l.receiver.total += receiver.busy.total;
        l.receiver.calls += receiver.busy.calls;
        l.replan.total += sender.replan.total;
        l.replan.calls += sender.replan.calls;
        l.run_until.add(run_time);
        l.events += events;
        l.wall += wall;
    }
    Ok(snapshot)
}

/// The set-up: plan from the prior, build a session and stream its
/// first [`WARMUP_S`] simulated seconds. The fingerprint hashes the
/// warm-up's sender and receiver statistics.
fn set_up(seed: u64) -> Result<(Prior, u64), String> {
    let prior = Prior::new()?;
    let mut sim = build(&prior, seed, 0, false, &dmc_obs::Obs::disabled())?;
    sim.run_until(SimTime::from_secs_f64(WARMUP_S));
    let fingerprint = format!(
        "{:?} {:?} {}",
        sim.client().inner.inner().stats(),
        sim.server().inner.stats(),
        sim.events_processed()
    );
    Ok((prior, fnv1a(FNV_BASIS, fingerprint.as_bytes())))
}

fn check_quality(tally: &Tally) -> Result<f64, String> {
    let quality = ratio(tally.in_time as f64, tally.generated as f64);
    if !(QUALITY_BAND.0..=QUALITY_BAND.1).contains(&quality) {
        return Err(format!(
            "delivered quality {quality:.4} left the live_stream band {QUALITY_BAND:?}"
        ));
    }
    Ok(quality)
}

/// The counted pass: session 1 with telemetry on. Its counters are
/// exact and repeat bit for bit for a seed; the traced run reads them
/// from its first traced session, which is the same session.
#[cfg(test)]
pub fn counted(seed: u64) -> Result<Counts, String> {
    let prior = Prior::new()?;
    let mut tally = Tally::default();
    let snap = session(
        &prior,
        seed,
        1,
        true,
        &dmc_obs::Obs::enabled(),
        &mut tally,
        None,
    )?
    .ok_or("a telemetry-enabled session yields a snapshot")?;
    Ok(Counts::new(snap, tally.generated, 0))
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let mut m = Metrics::default();
    let mut notes = Vec::new();
    let mut tally = Tally::default();
    let disabled = dmc_obs::Obs::disabled();
    // A message is one operation; a lost or late one lowers the quality
    // but is still an answered operation, so nothing here fails.
    let attempted;
    if !traced {
        let run = replay(
            seconds,
            || set_up(seed),
            |prior, timeline| {
                let mut tally = Tally {
                    timeline,
                    ..Tally::default()
                };
                while tally.timeline.more(tally.sessions) {
                    let index = tally.sessions + 1;
                    session(&prior, seed, index, false, &disabled, &mut tally, None)?;
                }
                Ok(Replay {
                    units: tally.sessions,
                    fingerprint: tally.fingerprint(),
                    timeline: std::mem::take(&mut tally.timeline),
                    tally,
                })
            },
        )?;
        notes.push(format!(
            "{REPLAYS} replays of {} sessions, each after a set-up of {WARMUP_S} simulated s; \
             warm-up fingerprint {:#018x}, replay fingerprint {:#018x} on every one",
            run.units, run.set_up_fingerprint, run.fingerprint
        ));
        // Every replay delivered the same; the counts are the first's.
        let first = &run.tallies[0];
        let quality = check_quality(first)?;
        let secs = run.secs();
        let rate = first.generated as f64 / secs;
        m.set("decisions_per_s", rate);
        m.set(
            "decision_p50_us",
            run.latency_us(0.50).ok_or("no intervals ran")?,
        );
        m.set(
            "decision_p99_us",
            run.latency_us(0.99).ok_or("no intervals ran")?,
        );
        m.set(
            "admitted_frac",
            1.0 - ratio(first.blackholed as f64, first.generated as f64),
        );
        m.set("quality", quality);
        m.set("setup_s", run.setup_s);
        m.set("peak_rss_mb", crate::util::peak_rss_mb()?);
        attempted = run.tallies.iter().map(|t| t.generated).sum();
        notes.push(format!(
            "messages_per_s = {rate:.1} 1/s ({} messages per replay in {secs:.4} s, \
             the sum of each step's fastest replay); {}",
            first.generated,
            raw_note(&run, first.generated),
        ));
        notes.push(format!(
            "decision_p50_us = {:.1} us, decision_p99_us = {:.1} us per {INTERVAL_MS} ms \
             adaptation interval (each interval's fastest replay; n = {})",
            m.get("decision_p50_us").unwrap_or(0.0),
            m.get("decision_p99_us").unwrap_or(0.0),
            run.latency_samples()
        ));
        notes.push(format!(
            "delivered_quality = {quality:.4}, admitted_frac = {:.4} (messages not blackholed)",
            m.get("admitted_frac").unwrap_or(0.0)
        ));
    } else {
        // Alternate plain and traced runs of the same sessions; the first
        // traced session, with telemetry on, is the counted pass.
        let (prior, _) = set_up(seed)?;
        let mut layers = Layers::default();
        let mut traced_tally = Tally::default();
        let mut counts = None;
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < seconds {
            let index = tally.sessions + 1;
            session(&prior, seed, index, false, &disabled, &mut tally, None)?;
            let obs = if counts.is_none() {
                dmc_obs::Obs::enabled()
            } else {
                dmc_obs::Obs::disabled()
            };
            let generated = traced_tally.generated;
            let snap = session(
                &prior,
                seed,
                index,
                true,
                &obs,
                &mut traced_tally,
                Some(&mut layers),
            )?;
            if let Some(snap) = snap {
                counts = Some(Counts::new(snap, traced_tally.generated - generated, 0));
            }
        }
        check_quality(&tally)?;
        check_quality(&traced_tally)?;
        if (tally.in_time, tally.blackholed) != (traced_tally.in_time, traced_tally.blackholed) {
            return Err("traced sessions delivered differently from the plain ones".into());
        }
        let counts = counts.ok_or("no traced session ran")?;
        let plain_rate = tally.generated as f64 / tally.wall.as_secs_f64();
        let traced_rate = traced_tally.generated as f64 / layers.wall.as_secs_f64();
        m.set("trace_overhead", 1.0 - traced_rate / plain_rate);
        let sim_self = layers.run_until.secs() - layers.sender.secs() - layers.receiver.secs();
        let driver = layers.wall.as_secs_f64() - layers.run_until.secs();
        m.set("core.replan_us", layers.replan.mean_us());
        m.set("sender.ns_per_call", layers.sender.mean_ns());
        m.set("sender.busy_s", layers.sender.secs());
        m.set("receiver.ns_per_call", layers.receiver.mean_ns());
        m.set("receiver.busy_s", layers.receiver.secs());
        m.set("sim.self_s", sim_self);
        m.set(
            "sim.ns_per_event",
            sim_self * 1e9 / layers.events.max(1) as f64,
        );
        m.set("driver.self_s", driver);
        m.set("trace.wall_s", layers.wall.as_secs_f64());
        counts.apply(&mut m);
        notes.push(check_addback(
            (driver + sim_self + layers.sender.secs() + layers.receiver.secs())
                / layers.wall.as_secs_f64(),
        )?);
        attempted = tally.generated + traced_tally.generated;
        let wall = layers.wall.as_secs_f64();
        notes.push(format!(
            "traced {} sessions: sender {:.1}%, receiver {:.1}%, simulator {:.1}%, driver {:.1}% of {wall:.3} s; counted session: {}",
            traced_tally.sessions,
            100.0 * layers.sender.secs() / wall,
            100.0 * layers.receiver.secs() / wall,
            100.0 * sim_self / wall,
            100.0 * driver / wall,
            counts.fingerprint()
        ));
    }
    Ok(Outcome {
        attempted,
        failed: 0,
        metrics: m,
        notes,
    })
}
