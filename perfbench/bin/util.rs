//! Small helpers shared by every workload: the seeded input stream,
//! the FNV-1a fingerprint, peak memory, the per-layer time accumulator
//! and the replays an untraced run is measured over.

use std::time::{Duration, Instant};

/// SplitMix64 finaliser over `(seed, k)`: the same mixing the service
/// script uses (`dmc_experiments::montecarlo::trial_seed`), so a stream
/// is a pure function of its seed.
pub struct SeedStream {
    seed: u64,
    k: u64,
}

impl SeedStream {
    pub fn new(seed: u64) -> Self {
        SeedStream { seed, k: 0 }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.k += 1;
        dmc_experiments::montecarlo::trial_seed(self.seed, self.k)
    }

    /// Uniform in `[0, 1)` from the top 53 bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    pub fn in_range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }
}

/// FNV-1a 64 over a byte string, folded into a running hash.
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Median of a non-empty slice (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The process's peak resident set size in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("unparseable {line:?}"))?;
    Ok(kib / 1024.0)
}

/// Accumulated busy time and call count of one layer boundary.
#[derive(Default, Clone, Copy)]
pub struct Busy {
    pub total: Duration,
    pub calls: u64,
}

impl Busy {
    pub fn add(&mut self, d: Duration) {
        self.total += d;
        self.calls += 1;
    }

    pub fn secs(&self) -> f64 {
        self.total.as_secs_f64()
    }

    /// Mean duration per call in nanoseconds (0 without calls).
    pub fn mean_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total.as_secs_f64() * 1e9 / self.calls as f64
        }
    }

    pub fn mean_us(&self) -> f64 {
        self.mean_ns() / 1e3
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Identical replays per untraced run. Each starts with its own
/// set-up, so `setup_s` is the median of this many set-ups.
pub const REPLAYS: usize = 5;

/// Steps and latencies the first replay may record; it ends early when
/// either is reached.
const MAX_STEPS: usize = 1 << 15;
const MAX_LATENCIES: usize = 1 << 18;
/// Room beyond those caps for the unit (tick, episode, session) that
/// reaches them.
const UNIT_SLACK: usize = 1 << 14;

/// Wall time between two runs of [`reference_work`] in a replay.
const REFERENCE_EVERY: Duration = Duration::from_millis(50);

/// The reference time scaled figures are expressed in: they read as on
/// a machine whose fastest interleaved run of [`reference_work`] takes
/// this long. The machine `context.json` names took 0.97–1.6 ms,
/// depending on the load from outside.
pub const REFERENCE_S: f64 = 1.5e-3;

fn nanos(d: Duration) -> u32 {
    u32::try_from(d.as_nanos()).unwrap_or(u32::MAX)
}

/// An empty vector whose whole capacity is already resident, so that a
/// timeline costs the same memory however many steps a run fits in and
/// `peak_rss_mb` measures the program, not the run length.
fn resident(capacity: usize) -> Vec<u32> {
    let mut v = vec![u32::MAX; capacity];
    v.clear();
    v
}

/// One replay's record: the wall time of every step (a tick, a cycle,
/// an adaptation interval), every operation's latency and every run of
/// [`reference_work`], in order. The first replay runs for a time
/// budget, which fixes its number of units (ticks, episodes, sessions)
/// and the steps after which the reference runs, about every
/// [`REFERENCE_EVERY`]; later replays repeat both exactly. The default
/// timeline records nothing (traced runs time layers instead).
#[derive(Default)]
pub struct Timeline {
    recording: bool,
    /// The first replay's time budget; `None` on later replays.
    budget: Option<Duration>,
    /// Units a later replay runs.
    units: u64,
    start: Option<Instant>,
    last_reference: Option<Instant>,
    steps: Vec<u32>,
    latency: Vec<u32>,
    /// Step counts after which the reference ran.
    reference_at: Vec<usize>,
    reference: Vec<u32>,
}

impl Timeline {
    fn first(budget: Duration) -> Self {
        Timeline {
            budget: Some(budget),
            ..Timeline::again(0, Vec::new())
        }
    }

    fn again(units: u64, reference_at: Vec<usize>) -> Self {
        Timeline {
            recording: true,
            units,
            steps: resident(MAX_STEPS + UNIT_SLACK),
            latency: resident(MAX_LATENCIES + UNIT_SLACK),
            reference_at,
            ..Timeline::default()
        }
    }

    /// Whether to run unit `done` (counting from 0); the first unit
    /// always runs.
    pub fn more(&mut self, done: u64) -> bool {
        let start = *self.start.get_or_insert_with(Instant::now);
        match self.budget {
            Some(budget) => {
                done == 0
                    || (start.elapsed() < budget
                        && self.steps.len() < MAX_STEPS
                        && self.latency.len() < MAX_LATENCIES)
            }
            None => done < self.units,
        }
    }

    pub fn step(&mut self, d: Duration) {
        if !self.recording {
            return;
        }
        self.steps.push(nanos(d));
        let due = match self.budget {
            Some(_) => self
                .last_reference
                .is_none_or(|t| t.elapsed() >= REFERENCE_EVERY),
            None => self.reference_at.get(self.reference.len()) == Some(&self.steps.len()),
        };
        if due {
            if self.budget.is_some() {
                self.reference_at.push(self.steps.len());
            }
            let start = Instant::now();
            std::hint::black_box(reference_work());
            self.reference.push(nanos(start.elapsed()));
            self.last_reference = Some(Instant::now());
        }
    }

    pub fn latency(&mut self, d: Duration) {
        if self.recording {
            self.latency.push(nanos(d));
        }
    }
}

/// What one replay of a segment did.
pub struct Replay<T> {
    /// Units run.
    pub units: u64,
    /// Hash of every decision the replay made; equal across replays.
    pub fingerprint: u64,
    pub timeline: Timeline,
    /// The workload's own counts.
    pub tally: T,
}

/// An untraced run: [`REPLAYS`] replays of one seeded segment, each from
/// a fresh set-up, reduced to the fastest time of each step.
///
/// Every replay does exactly the same work, so the steps differ only in
/// the time other processes took from them. Keeping each step's fastest
/// replay strips that time out, which a median over one pass cannot do
/// on a shared machine whose speed drifts within seconds.
///
/// The machine's speed also drifts over minutes, which moves every
/// replay of a run alike. So each replay also runs [`reference_work`]
/// at the same points, reduced the same way, and every time the run
/// reports is scaled by [`REFERENCE_S`] ÷ the mean fastest reference
/// time. The `raw_*` accessors give the unscaled figures.
pub struct Replayed<T> {
    /// Fastest time of each step, in nanoseconds.
    steps: Vec<u32>,
    /// Fastest latency of each operation, in nanoseconds, sorted.
    latency: Vec<u32>,
    /// Fastest time of each run of the reference work, in nanoseconds.
    reference: Vec<u32>,
    reference_at: Vec<usize>,
    /// Median set-up time (scaled).
    pub setup_s: f64,
    pub set_up_fingerprint: u64,
    /// The segment's decision hash (every replay's).
    pub fingerprint: u64,
    pub units: u64,
    /// Every replay's counts, in replay order.
    pub tallies: Vec<T>,
}

fn min_into(best: &mut [u32], now: &[u32]) {
    for (b, &n) in best.iter_mut().zip(now) {
        *b = (*b).min(n);
    }
}

impl<T> Replayed<T> {
    /// Mean fastest time of one run of the reference work, in seconds.
    pub fn reference_s(&self) -> f64 {
        let sum: f64 = self.reference.iter().map(|&n| f64::from(n)).sum();
        sum / self.reference.len().max(1) as f64 / 1e9
    }

    /// How much longer this run's reference work took than
    /// [`REFERENCE_S`].
    pub fn slowdown(&self) -> f64 {
        self.reference_s() / REFERENCE_S
    }

    /// Sum of the fastest step times, in seconds, unscaled (the
    /// reference runs are not steps).
    pub fn raw_secs(&self) -> f64 {
        self.steps.iter().map(|&n| f64::from(n)).sum::<f64>() / 1e9
    }

    /// Sum of the fastest step times, in seconds (scaled).
    pub fn secs(&self) -> f64 {
        self.raw_secs() / self.slowdown()
    }

    pub fn latency_samples(&self) -> usize {
        self.latency.len()
    }

    pub fn reference_runs(&self) -> usize {
        self.reference.len()
    }

    /// The `q`-quantile (nearest rank) of the fastest latencies, in
    /// microseconds (scaled), or `None` without samples.
    pub fn latency_us(&self, q: f64) -> Option<f64> {
        Some(self.raw_latency_us(q)? / self.slowdown())
    }

    /// [`Replayed::latency_us`], unscaled.
    pub fn raw_latency_us(&self, q: f64) -> Option<f64> {
        let n = self.latency.len();
        if n == 0 {
            return None;
        }
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
        Some(f64::from(self.latency[rank]) / 1e3)
    }
}

/// Runs [`REPLAYS`] replays, for about `seconds` of wall time in all.
/// Each replay times `set_up` (which returns the instance and the hash
/// of its warm-up's decisions) and then runs `segment` on the instance,
/// which records into the timeline it is handed. Fails when two set-ups
/// or two replays decide differently.
pub fn replay<I, T>(
    seconds: f64,
    mut set_up: impl FnMut() -> Result<(I, u64), String>,
    mut segment: impl FnMut(I, Timeline) -> Result<Replay<T>, String>,
) -> Result<Replayed<T>, String> {
    let budget = Duration::from_secs_f64(seconds / REPLAYS as f64);
    let mut setups = Vec::with_capacity(REPLAYS);
    let mut out: Option<Replayed<T>> = None;
    for _ in 0..REPLAYS {
        let start = Instant::now();
        let (inst, set_up_hash) = set_up()?;
        setups.push(start.elapsed().as_secs_f64());
        let timeline = match &out {
            None => Timeline::first(budget),
            Some(r) => Timeline::again(r.units, r.reference_at.clone()),
        };
        let run = segment(inst, timeline)?;
        let t = run.timeline;
        let Some(r) = &mut out else {
            out = Some(Replayed {
                steps: t.steps,
                latency: t.latency,
                reference: t.reference,
                reference_at: t.reference_at,
                setup_s: 0.0,
                set_up_fingerprint: set_up_hash,
                fingerprint: run.fingerprint,
                units: run.units,
                tallies: vec![run.tally],
            });
            continue;
        };
        if set_up_hash != r.set_up_fingerprint {
            return Err(format!(
                "decision hash differs between two set-ups of one seed: {:#x} vs {set_up_hash:#x}",
                r.set_up_fingerprint
            ));
        }
        if run.fingerprint != r.fingerprint {
            return Err(format!(
                "two replays of one seed decided differently: {:#x} vs {:#x}",
                r.fingerprint, run.fingerprint
            ));
        }
        let shape = |steps: usize, ops: usize, refs: usize| (steps, ops, refs);
        let (now, first) = (
            shape(t.steps.len(), t.latency.len(), t.reference.len()),
            shape(r.steps.len(), r.latency.len(), r.reference.len()),
        );
        if now != first {
            return Err(format!(
                "a replay ran (steps, operations, reference runs) = {now:?}, the first {first:?}"
            ));
        }
        min_into(&mut r.steps, &t.steps);
        min_into(&mut r.latency, &t.latency);
        min_into(&mut r.reference, &t.reference);
        r.tallies.push(run.tally);
    }
    let mut out = out.ok_or("no replay ran")?;
    out.latency.sort_unstable();
    out.setup_s = median(&setups) / out.slowdown();
    Ok(out)
}

/// A fixed reference workload of the benchmark's own: a dense LU
/// factorisation with partial pivoting, ordered-map churn and a binary
/// heap of timed events — the kinds of work the LP, the service and
/// the simulator do — with no code from the library under test.
/// Returns a value that depends on every step, so none is optimised
/// away.
fn reference_work() -> f64 {
    use std::collections::{BTreeMap, BinaryHeap};
    use std::hint::black_box;
    let mut rng = SeedStream::new(0x5eed);
    let mut acc = 0.0;
    for _ in 0..4 {
        const N: usize = 40;
        let mut a: Vec<Vec<f64>> = (0..N)
            .map(|_| (0..N).map(|_| rng.in_range(-1.0, 1.0)).collect())
            .collect();
        for k in 0..N {
            let p = (k..N)
                .max_by(|&i, &j| a[i][k].abs().total_cmp(&a[j][k].abs()))
                .unwrap_or(k);
            a.swap(k, p);
            let pivot = a[k][k];
            let (top, bottom) = a.split_at_mut(k + 1);
            let row_k = &top[k];
            for row in bottom {
                let f = row[k] / pivot;
                for (x, &y) in row[k..].iter_mut().zip(&row_k[k..]) {
                    *x -= f * y;
                }
            }
            acc += pivot.abs().ln();
        }
    }
    let mut map = BTreeMap::new();
    for i in 0..4096u64 {
        map.insert(rng.next_u64() % 8192, i);
    }
    for _ in 0..2048 {
        map.remove(&(rng.next_u64() % 8192));
    }
    acc += map.len() as f64;
    let mut heap = BinaryHeap::new();
    for i in 0..4096u64 {
        heap.push((rng.next_u64() % 100_000, i));
        if i % 3 == 0 {
            heap.pop();
        }
    }
    while let Some((t, _)) = heap.pop() {
        acc += (t % 7) as f64;
    }
    black_box(acc)
}
