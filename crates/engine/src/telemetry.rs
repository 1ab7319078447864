//! Run telemetry: per-rule attribution, a bounded per-round event ring,
//! and exportable run profiles.
//!
//! The engine's aggregate [`ChaseStats`] answer *how
//! long* a run took per phase; this module answers *where it went* —
//! which TGD enumerated (and wasted) the triggers, which rounds took the
//! fused / pipeline / batched path, and how the instance and null arenas
//! grew. Collection is controlled by [`TelemetryLevel`] on
//! [`ChaseConfig`](crate::ChaseConfig) (or the `NUCHASE_TELEMETRY`
//! environment variable: `off` / `counters` / `full`):
//!
//! * **`Off`** (default) — no collector is allocated; every hot-path hook
//!   is a single `Option` test on an absent box. Results are
//!   byte-identical to an untelemetered engine (telemetry never mutates
//!   engine state, so this holds at every level; `Off` additionally
//!   costs nothing measurable).
//! * **`Counters`** — per-rule trigger/atom/null counters and the round
//!   ring, but no extra clock reads.
//! * **`Full`** — adds sampled per-rule enumeration timing and per-round
//!   phase splits (extra `Instant` reads on sampled rounds only).
//!
//! The per-round ring is bounded ([`Telemetry::ring_capacity`], env
//! `NUCHASE_TELEMETRY_RING`) and strided. The stride **auto-adapts**:
//! every round is recorded until the ring fills, then adjacent events
//! are merged pairwise and the stride doubles — so a 100k-round chain
//! chase keeps ~one ring of events *spanning the whole run*, and the
//! per-round cost amortizes to a counter check on skipped rounds.
//!
//! Snapshots ([`TelemetrySnapshot`], via
//! [`ChaseSession::telemetry`](crate::ChaseSession::telemetry) or
//! [`ChaseResult::telemetry`](crate::ChaseResult)) export as JSONL
//! ([`TelemetrySnapshot::write_jsonl`]) or as a chrome://tracing span
//! dump ([`TelemetrySnapshot::write_chrome_trace`]).
//!
//! ```
//! use nuchase_engine::{Engine, PreparedProgram, TelemetryLevel};
//! use nuchase_model::parser::parse_program;
//!
//! let p = parse_program("r(a, b).\nr(X, Y) -> r(Y, Z).").unwrap();
//! let program = PreparedProgram::compile(p.tgds.clone());
//! let engine = Engine::builder()
//!     .budget(nuchase_engine::ChaseBudget::atoms(500))
//!     .telemetry(TelemetryLevel::Counters)
//!     .build();
//! let mut session = engine.session(&program, &p.database);
//! session.run();
//! let snap = session.telemetry().expect("telemetry was enabled");
//! // One rule, and its trigger count matches the aggregate stats.
//! assert_eq!(snap.rules.len(), 1);
//! assert_eq!(
//!     snap.rules[0].considered,
//!     session.last_run_stats().triggers_considered
//! );
//! let mut jsonl = Vec::new();
//! snap.write_jsonl(&mut jsonl).unwrap();
//! assert!(!jsonl.is_empty());
//! ```

use std::io::{self, Write};
use std::time::Instant;

use crate::chase::ChaseStats;

/// How much telemetry a chase run collects. See the [module
/// docs](self) for the cost model of each level.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum TelemetryLevel {
    /// Collect nothing; the engine runs exactly as if this module did
    /// not exist.
    #[default]
    Off,
    /// Per-rule counters and the round ring; no extra clock reads.
    Counters,
    /// `Counters` plus sampled per-rule enumeration timing and
    /// per-round phase splits.
    Full,
}

impl TelemetryLevel {
    /// Is any collection enabled?
    pub fn enabled(self) -> bool {
        self != TelemetryLevel::Off
    }

    /// Are the timing extras enabled?
    pub fn timed(self) -> bool {
        self == TelemetryLevel::Full
    }

    /// The lowercase name used by the `NUCHASE_TELEMETRY` variable and
    /// the JSONL meta record.
    pub fn name(self) -> &'static str {
        match self {
            TelemetryLevel::Off => "off",
            TelemetryLevel::Counters => "counters",
            TelemetryLevel::Full => "full",
        }
    }
}

/// Per-TGD attribution counters (one row per rule index).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RuleTelemetry {
    /// Triggers enumerated for this rule (before dedup). Sums to
    /// [`ChaseStats::triggers_considered`] across rules.
    pub considered: usize,
    /// Triggers rejected as duplicates / inactive (`considered - fired`).
    pub deduped: usize,
    /// Triggers that fired. Sums to [`ChaseStats::triggers_fired`].
    pub fired: usize,
    /// Atoms this rule's firings added.
    pub atoms: usize,
    /// Nulls this rule's firings invented.
    pub nulls: usize,
    /// Sampled wall time of this rule's trigger enumeration, in seconds
    /// ([`TelemetryLevel::Full`] only; the sum of sampled spans, not a
    /// total — compare rules against each other, not against
    /// [`ChaseStats::enumerate_secs`]). Fused chain micro-rounds and
    /// enumeration shared with helpers (overlapping worker spans)
    /// contribute nothing.
    pub sampled_secs: f64,
}

/// Which code path applied a recorded round.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RoundPath {
    /// Fused micro-round ([`crate::phase::apply_fused`]).
    Fused,
    /// Fused chain micro-round (the single-rule streak fast path).
    Chain,
    /// Staged merge → plan → resolve → commit pipeline, per-trigger
    /// enumeration.
    Pipeline,
    /// Staged pipeline fed by columnar batch enumeration.
    Batched,
}

impl RoundPath {
    /// Lowercase name for exports.
    pub fn name(self) -> &'static str {
        match self {
            RoundPath::Fused => "fused",
            RoundPath::Chain => "chain",
            RoundPath::Pipeline => "pipeline",
            RoundPath::Batched => "batched",
        }
    }
}

/// One recorded round (or, under a sampling stride `> 1`, one recorded
/// sample covering the strided gap since the previous event — flow
/// fields like `considered` sum over the gap, snapshot fields like
/// `instance_len` are the last covered round's).
#[derive(Clone, Debug)]
pub struct RoundEvent {
    /// 1-based round number within the session (monotonic across
    /// resumed runs).
    pub round: usize,
    /// Apply path the round took.
    pub path: RoundPath,
    /// Atoms in the frontier delta entering the round.
    pub delta: usize,
    /// Triggers considered since the previous recorded event.
    pub considered: usize,
    /// Triggers fired since the previous recorded event.
    pub fired: usize,
    /// Instance size (atoms) after the round.
    pub instance_len: usize,
    /// Null count after the round.
    pub nulls_len: usize,
    /// Wall seconds since the previous recorded event
    /// ([`TelemetryLevel::Full`] only, else 0).
    pub secs: f64,
    /// Enumerate-phase seconds since the previous recorded event
    /// ([`TelemetryLevel::Full`] only; carried-timestamp attribution, so
    /// chain streaks land lumpily on their flush round).
    pub enumerate_secs: f64,
    /// Apply-phase (incl. dedup) seconds since the previous recorded
    /// event ([`TelemetryLevel::Full`] only).
    pub apply_secs: f64,
}

/// Default round-ring capacity (events), overridable via
/// `NUCHASE_TELEMETRY_RING`.
pub const RING_CAPACITY: usize = 4096;

use crate::config::env_usize_or as env_usize;

/// The in-run collector. Owned by the engine's apply state; `None` when
/// telemetry is [`TelemetryLevel::Off`], so disabled runs pay one
/// pointer test per hook.
#[derive(Clone, Debug)]
pub struct Telemetry {
    level: TelemetryLevel,
    rules: Vec<RuleTelemetry>,
    ring: Vec<RoundEvent>,
    ring_cap: usize,
    // Doubles by pairwise-merging the ring whenever it fills, keeping
    // whole-run coverage at amortized-flat cost.
    stride: usize,
    // Rounds left to skip before the next recorded event (a countdown,
    // not a modulo: the skip path must stay a compare + decrement).
    skip: usize,
    rounds_seen: usize,
    // Offset added to recorded round numbers: sessions number rounds
    // per run slice, the ring stays monotonic across resumes.
    round_base: usize,
    // Previous-event snapshots for delta fields.
    prev_considered: usize,
    prev_fired: usize,
    prev_enum: f64,
    prev_apply: f64,
    last_stamp: Option<Instant>,
}

impl Telemetry {
    /// Creates a collector at `level` (which must not be `Off`), reading
    /// the ring capacity from the environment.
    pub fn new(level: TelemetryLevel) -> Self {
        debug_assert!(level.enabled());
        Telemetry {
            level,
            rules: Vec::new(),
            ring: Vec::new(),
            // Two events at least, so merging a full ring frees a slot.
            ring_cap: env_usize("NUCHASE_TELEMETRY_RING", RING_CAPACITY).max(2),
            stride: 1,
            skip: 0,
            rounds_seen: 0,
            round_base: 0,
            prev_considered: 0,
            prev_fired: 0,
            prev_enum: 0.0,
            prev_apply: 0.0,
            last_stamp: None,
        }
    }

    /// The collection level.
    pub fn level(&self) -> TelemetryLevel {
        self.level
    }

    /// The bounded ring capacity (events).
    pub fn ring_capacity(&self) -> usize {
        self.ring_cap
    }

    /// The current round sampling stride (1 = record every round). It
    /// grows as the run outlives the ring.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Rebaselines the round ring's delta fields for a new run slice:
    /// a session's per-run counters restart at zero on every
    /// run/resume, and `rounds_base` (the lifetime round count so far)
    /// keeps recorded round numbers monotonic across resumes. The
    /// per-rule table is untouched — attribution is session-cumulative.
    pub fn begin_run(&mut self, rounds_base: usize) {
        self.round_base = rounds_base;
        self.prev_considered = 0;
        self.prev_fired = 0;
        self.prev_enum = 0.0;
        self.prev_apply = 0.0;
        self.last_stamp = None;
    }

    /// Ensures the per-rule table covers rule indexes `0..n`.
    #[inline]
    pub fn ensure_rules(&mut self, n: usize) {
        if self.rules.len() < n {
            self.rules.resize_with(n, RuleTelemetry::default);
        }
    }

    /// Records `considered` enumerated triggers for `rule`.
    #[inline]
    pub fn rule_considered(&mut self, rule: usize, considered: usize) {
        self.ensure_rules(rule + 1);
        self.rules[rule].considered += considered;
    }

    /// Records sampled enumeration seconds for `rule`
    /// ([`TelemetryLevel::Full`]).
    #[inline]
    pub fn rule_sampled_secs(&mut self, rule: usize, secs: f64) {
        self.ensure_rules(rule + 1);
        self.rules[rule].sampled_secs += secs;
    }

    /// Records one fired trigger of `rule` that appended `atoms` atoms
    /// and invented `nulls` nulls.
    #[inline]
    pub fn rule_fired(&mut self, rule: usize, atoms: usize, nulls: usize) {
        self.ensure_rules(rule + 1);
        let r = &mut self.rules[rule];
        r.fired += 1;
        r.atoms += atoms;
        r.nulls += nulls;
    }

    /// Should this round's per-rule enumeration be clock-sampled? True
    /// on the rounds the ring will record, at [`TelemetryLevel::Full`].
    #[inline]
    pub fn sample_timing(&self) -> bool {
        self.level.timed() && self.skip == 0
    }

    /// Records a finished round into the ring (subject to the stride).
    /// `stats` must be the run's live counters, already lapped for this
    /// round.
    pub fn record_round(
        &mut self,
        round: usize,
        path: RoundPath,
        delta: usize,
        instance_len: usize,
        nulls_len: usize,
        stats: &ChaseStats,
    ) {
        self.rounds_seen += 1;
        if self.skip > 0 {
            self.skip -= 1;
            return;
        }
        self.skip = self.stride - 1;
        let secs = if self.level.timed() {
            let now = Instant::now();
            let dt = self
                .last_stamp
                .map(|s| now.duration_since(s).as_secs_f64())
                .unwrap_or(0.0);
            self.last_stamp = Some(now);
            dt
        } else {
            0.0
        };
        let apply_now = stats.dedup_secs + stats.apply_secs;
        let ev = RoundEvent {
            round: self.round_base + round,
            path,
            delta,
            considered: stats.triggers_considered - self.prev_considered,
            fired: stats.triggers_fired - self.prev_fired,
            instance_len,
            nulls_len,
            secs,
            enumerate_secs: stats.enumerate_secs - self.prev_enum,
            apply_secs: apply_now - self.prev_apply,
        };
        self.prev_considered = stats.triggers_considered;
        self.prev_fired = stats.triggers_fired;
        self.prev_enum = stats.enumerate_secs;
        self.prev_apply = apply_now;
        self.ring.push(ev);
        if self.ring.len() == self.ring_cap {
            self.restride();
        }
    }

    /// Halves the ring by merging adjacent event pairs and doubles the
    /// stride (the ring is chronological — it never wraps). Flow fields
    /// sum across a merged pair, snapshot fields keep the later event's
    /// values, so every sum invariant over the ring survives decimation.
    fn restride(&mut self) {
        let mut merged = Vec::with_capacity(self.ring_cap);
        let mut it = self.ring.drain(..);
        while let Some(a) = it.next() {
            match it.next() {
                Some(b) => merged.push(RoundEvent {
                    round: b.round,
                    path: b.path,
                    delta: b.delta,
                    considered: a.considered + b.considered,
                    fired: a.fired + b.fired,
                    instance_len: b.instance_len,
                    nulls_len: b.nulls_len,
                    secs: a.secs + b.secs,
                    enumerate_secs: a.enumerate_secs + b.enumerate_secs,
                    apply_secs: a.apply_secs + b.apply_secs,
                }),
                None => merged.push(a),
            }
        }
        drop(it);
        self.ring = merged;
        self.stride *= 2;
        self.skip = self.stride - 1;
    }

    /// Freezes the collector into an exportable snapshot. Deduped
    /// counts are derived here (`considered - fired` per rule).
    pub fn snapshot(&self, stats: &ChaseStats) -> TelemetrySnapshot {
        let mut rules = self.rules.clone();
        for r in &mut rules {
            r.deduped = r.considered.saturating_sub(r.fired);
        }
        TelemetrySnapshot {
            level: self.level,
            rules,
            rule_labels: Vec::new(),
            rounds: self.ring.clone(),
            rounds_seen: self.rounds_seen,
            stride: self.stride,
            stats: stats.clone(),
        }
    }
}

/// A frozen, exportable view of a run's telemetry: the per-rule table,
/// the recorded round events in chronological order, and a copy of the
/// aggregate [`ChaseStats`] they attribute.
#[derive(Clone, Debug)]
pub struct TelemetrySnapshot {
    /// The level the run collected at.
    pub level: TelemetryLevel,
    /// Per-rule attribution, indexed by rule index.
    pub rules: Vec<RuleTelemetry>,
    /// Optional human-readable rule labels (same indexing as
    /// [`TelemetrySnapshot::rules`]; the engine has no symbol table, so
    /// callers that do — e.g. the CLI — fill these in). Missing or short
    /// entries fall back to `σ<i>`.
    pub rule_labels: Vec<String>,
    /// Recorded round events, oldest first (fewer than the ring
    /// capacity). They span the whole run at adaptive resolution.
    pub rounds: Vec<RoundEvent>,
    /// Total rounds observed (recorded, merged, or skipped).
    pub rounds_seen: usize,
    /// Final sampling stride of the ring (it grows as the run outlives
    /// the ring capacity).
    pub stride: usize,
    /// Aggregate statistics of the run(s) this snapshot covers,
    /// including the memory accounting fields.
    pub stats: ChaseStats,
}

/// Escapes `s` into a JSON string literal (quotes included).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl TelemetrySnapshot {
    /// The label for rule `i`: the caller-provided one, or `σ<i>`.
    pub fn rule_label(&self, i: usize) -> String {
        match self.rule_labels.get(i) {
            Some(l) if !l.is_empty() => l.clone(),
            _ => format!("σ{i}"),
        }
    }

    /// Writes the snapshot as JSONL: one `meta` record, one `memory`
    /// record, one `rule` record per TGD, one `round` record per ring
    /// event. Each line is a self-contained JSON object with a `"type"`
    /// field.
    pub fn write_jsonl<W: Write>(&self, w: &mut W) -> io::Result<()> {
        let s = &self.stats;
        writeln!(
            w,
            "{{\"type\":\"meta\",\"level\":{},\"rounds\":{},\"rounds_seen\":{},\"stride\":{},\
             \"triggers_considered\":{},\"triggers_fired\":{},\"atoms_created\":{},\
             \"nulls_created\":{},\"wall_secs\":{:.9},\"enumerate_secs\":{:.9},\
             \"dedup_secs\":{:.9},\"apply_secs\":{:.9},\"pool_secs\":{:.9},\
             \"sched_wait_secs\":{:.9},\"sched_occupancy\":{:.6},\
             \"fused_rounds\":{},\"batched_rounds\":{}}}",
            json_string(self.level.name()),
            s.rounds,
            self.rounds_seen,
            self.stride,
            s.triggers_considered,
            s.triggers_fired,
            s.atoms_created,
            s.nulls_created,
            s.wall_secs,
            s.enumerate_secs,
            s.dedup_secs,
            s.apply_secs,
            s.pool_secs,
            s.sched_wait_secs,
            s.sched_occupancy,
            s.fused_rounds,
            s.batched_rounds,
        )?;
        writeln!(
            w,
            "{{\"type\":\"memory\",\"peak_instance_bytes\":{},\"peak_null_bytes\":{},\
             \"instance_table_load\":{:.6},\"index_spill_count\":{}}}",
            s.peak_instance_bytes, s.peak_null_bytes, s.instance_table_load, s.index_spill_count,
        )?;
        for (i, r) in self.rules.iter().enumerate() {
            writeln!(
                w,
                "{{\"type\":\"rule\",\"rule\":{},\"label\":{},\"considered\":{},\"deduped\":{},\
                 \"fired\":{},\"atoms\":{},\"nulls\":{},\"sampled_secs\":{:.9}}}",
                i,
                json_string(&self.rule_label(i)),
                r.considered,
                r.deduped,
                r.fired,
                r.atoms,
                r.nulls,
                r.sampled_secs,
            )?;
        }
        for ev in &self.rounds {
            writeln!(
                w,
                "{{\"type\":\"round\",\"round\":{},\"path\":{},\"delta\":{},\"considered\":{},\
                 \"fired\":{},\"instance_len\":{},\"nulls_len\":{},\"secs\":{:.9},\
                 \"enumerate_secs\":{:.9},\"apply_secs\":{:.9}}}",
                ev.round,
                json_string(ev.path.name()),
                ev.delta,
                ev.considered,
                ev.fired,
                ev.instance_len,
                ev.nulls_len,
                ev.secs,
                ev.enumerate_secs,
                ev.apply_secs,
            )?;
        }
        Ok(())
    }

    /// Writes a chrome://tracing-compatible trace (the JSON array
    /// format, complete `"X"` events; load via `chrome://tracing` or
    /// [Perfetto](https://ui.perfetto.dev)). Track 1 holds the
    /// aggregate phase spans laid end to end; track 2 holds one span
    /// per recorded round (wall-timed at [`TelemetryLevel::Full`],
    /// synthesized from the round's phase splits otherwise).
    pub fn write_chrome_trace<W: Write>(&self, w: &mut W) -> io::Result<()> {
        let us = |secs: f64| (secs * 1e6).max(0.0);
        write!(w, "[")?;
        let mut first = true;
        let mut emit =
            |w: &mut W, name: &str, tid: u32, ts: f64, dur: f64, args: String| -> io::Result<()> {
                if !first {
                    write!(w, ",")?;
                }
                first = false;
                write!(
                    w,
                    "\n{{\"name\":{},\"cat\":\"chase\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3}{}}}",
                    json_string(name),
                    tid,
                    ts,
                    dur,
                    args
                )
            };
        // Track 1: aggregate phase spans, laid end to end.
        let s = &self.stats;
        let mut ts = 0.0;
        for (name, secs) in [
            ("enumerate", s.enumerate_secs),
            ("dedup", s.dedup_secs),
            ("apply", s.apply_secs),
            ("pool", s.pool_secs),
        ] {
            if secs > 0.0 {
                emit(w, name, 1, ts, us(secs), String::new())?;
                ts += us(secs);
            }
        }
        // Track 2: recorded rounds.
        let mut ts = 0.0;
        for ev in &self.rounds {
            let dur = if ev.secs > 0.0 {
                us(ev.secs)
            } else {
                us(ev.enumerate_secs + ev.apply_secs)
            };
            let args = format!(
                ",\"args\":{{\"round\":{},\"delta\":{},\"considered\":{},\"fired\":{}}}",
                ev.round, ev.delta, ev.considered, ev.fired
            );
            emit(w, ev.path.name(), 2, ts, dur.max(0.001), args)?;
            ts += dur.max(0.001);
        }
        writeln!(w, "\n]")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_parsing_names_round_trip() {
        for level in [
            TelemetryLevel::Off,
            TelemetryLevel::Counters,
            TelemetryLevel::Full,
        ] {
            assert_eq!(level.enabled(), level != TelemetryLevel::Off);
        }
        assert_eq!(TelemetryLevel::Full.name(), "full");
        assert!(TelemetryLevel::Full.timed());
        assert!(!TelemetryLevel::Counters.timed());
    }

    #[test]
    fn rule_table_accumulates() {
        let mut t = Telemetry::new(TelemetryLevel::Counters);
        t.rule_considered(2, 5);
        t.rule_fired(2, 3, 1);
        t.rule_fired(0, 1, 0);
        let snap = t.snapshot(&ChaseStats::default());
        assert_eq!(snap.rules.len(), 3);
        assert_eq!(snap.rules[2].considered, 5);
        assert_eq!(snap.rules[2].fired, 1);
        assert_eq!(snap.rules[2].atoms, 3);
        assert_eq!(snap.rules[2].nulls, 1);
        assert_eq!(snap.rules[2].deduped, 4);
        assert_eq!(snap.rules[0].atoms, 1);
        assert_eq!(snap.rule_label(1), "σ1");
    }

    #[test]
    fn auto_stride_decimates_and_preserves_flow_sums() {
        let mut t = Telemetry::new(TelemetryLevel::Counters);
        t.ring_cap = 4;
        let mut stats = ChaseStats::default();
        let total_rounds = 100;
        for round in 1..=total_rounds {
            stats.triggers_considered += 3;
            stats.triggers_fired += 2;
            t.record_round(round, RoundPath::Chain, 1, round, 0, &stats);
        }
        let snap = t.snapshot(&stats);
        assert_eq!(snap.rounds_seen, total_rounds);
        assert!(snap.rounds.len() <= 4, "ring stays bounded");
        assert!(snap.stride > 1, "the stride adapted upward");
        // Events stay chronological and span the run from its start —
        // not just the most recent window.
        let rounds: Vec<usize> = snap.rounds.iter().map(|e| e.round).collect();
        assert!(rounds.windows(2).all(|w| w[0] < w[1]), "{rounds:?}");
        assert!(rounds[0] <= snap.stride, "coverage starts at the beginning");
        // Flow fields survive decimation: recorded events partition the
        // covered prefix of the run exactly.
        let covered: usize = snap.rounds.iter().map(|e| e.considered).sum();
        let last = *rounds.last().unwrap();
        assert_eq!(covered, 3 * last, "considered sums over merged gaps");
        let fired: usize = snap.rounds.iter().map(|e| e.fired).sum();
        assert_eq!(fired, 2 * last);
    }

    #[test]
    fn jsonl_lines_are_balanced_objects() {
        let mut t = Telemetry::new(TelemetryLevel::Counters);
        t.rule_considered(0, 3);
        t.rule_fired(0, 2, 1);
        let stats = ChaseStats {
            triggers_considered: 3,
            ..Default::default()
        };
        t.record_round(1, RoundPath::Chain, 1, 4, 1, &stats);
        let mut snap = t.snapshot(&stats);
        snap.rule_labels = vec!["r(X,\"Y\") -> r(Y,Z)".to_string()];
        let mut buf = Vec::new();
        snap.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 4, "meta + memory + 1 rule + 1 round");
        for line in text.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert_eq!(
                line.matches('{').count(),
                line.matches('}').count(),
                "{line}"
            );
            // The quote in the label must be escaped (even quote count).
            assert_eq!(line.matches('"').count() % 2, 0, "{line}");
        }
        assert!(text.contains("\"type\":\"rule\""));
        assert!(text.contains("\\\"Y\\\""));
    }

    #[test]
    fn chrome_trace_is_an_array_of_events() {
        let mut t = Telemetry::new(TelemetryLevel::Counters);
        let stats = ChaseStats {
            enumerate_secs: 0.5,
            apply_secs: 0.25,
            ..Default::default()
        };
        t.record_round(1, RoundPath::Batched, 10, 20, 0, &stats);
        let snap = t.snapshot(&stats);
        let mut buf = Vec::new();
        snap.write_chrome_trace(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let trimmed = text.trim();
        assert!(trimmed.starts_with('[') && trimmed.ends_with(']'));
        assert_eq!(text.matches('{').count(), text.matches('}').count());
        assert!(text.contains("\"ph\":\"X\""));
        assert!(text.contains("\"batched\""));
    }
}
