//! Per-episode recording shared by every experiment harness.
//!
//! An [`EpisodeRecord`] is filled in by the agent/attack runners and
//! consumed by `drive-metrics` to build the paper's figures: nominal and
//! adversarial returns (Fig. 4, Fig. 6), normalized trajectory deviation
//! and attack effort (Fig. 5, Fig. 7), success classification and timing
//! (Fig. 8, §V-B).

use crate::world::{CollisionEvent, CollisionKind, Termination};
use serde::{Deserialize, Serialize};
use std::fmt::{self, Write as _};

/// Perturbations below this magnitude do not count as the start of an
/// attack attempt (learned policies emit tiny non-zero means even when
/// "quiet"; the paper's attack effort is measured over the attempt).
pub const ATTACK_START_THRESHOLD: f64 = 0.02;

/// Everything measured over one episode.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct EpisodeRecord {
    /// Control steps executed.
    pub steps: usize,
    /// Control period, seconds.
    pub dt: f64,
    /// How the episode ended.
    pub termination: Option<Termination>,
    /// Collision, if one ended the episode.
    pub collision: Option<CollisionEvent>,
    /// NPC vehicles fully passed.
    pub passed: usize,
    /// Cumulative nominal driving reward.
    pub nominal_return: f64,
    /// Cumulative adversarial reward (0 when unattacked).
    pub adv_return: f64,
    /// Per-step trajectory deviation, normalized by half the lane width.
    pub deviation: Vec<f64>,
    /// Per-step injected steering perturbation magnitude `|delta|`
    /// (empty / zeros when unattacked).
    pub perturbation: Vec<f64>,
    /// Step at which the attacker first injected a non-zero perturbation.
    pub attack_start: Option<usize>,
    /// Commanded actions with a non-finite channel that the simulator
    /// sanitized before stepping (0 in healthy episodes).
    pub nonfinite_actions: usize,
}

impl EpisodeRecord {
    /// Whether the episode ended in the attacker's desired side collision.
    pub fn side_collision(&self) -> bool {
        matches!(
            self.collision,
            Some(CollisionEvent {
                kind: CollisionKind::Side,
                ..
            })
        )
    }

    /// Whether the episode counts as a *successful attack*: a side
    /// collision that happened at or after the attack attempt began. A
    /// side collision with no preceding perturbation is the victim's own
    /// doing and is not credited to the attacker.
    pub fn attack_success(&self) -> bool {
        match (self.attack_start, self.collision) {
            (Some(start), Some(c)) => matches!(c.kind, CollisionKind::Side) && c.step >= start,
            _ => false,
        }
    }

    /// Root-mean-square of the normalized trajectory deviation.
    pub fn deviation_rmse(&self) -> f64 {
        if self.deviation.is_empty() {
            return 0.0;
        }
        let ms = self.deviation.iter().map(|d| d * d).sum::<f64>() / self.deviation.len() as f64;
        ms.sqrt()
    }

    /// The paper's *attack effort* (x-axis of Fig. 5 and Fig. 7): total
    /// perturbation injected during the attack attempt, averaged over the
    /// attempt's steps (from the first non-zero perturbation to episode
    /// end). Zero when no attack was ever injected.
    pub fn attack_effort(&self) -> f64 {
        let Some(start) = self.attack_start else {
            return 0.0;
        };
        let active = &self.perturbation[start.min(self.perturbation.len())..];
        if active.is_empty() {
            return 0.0;
        }
        active.iter().sum::<f64>() / active.len() as f64
    }

    /// Fraction of episode steps with an active (above-threshold)
    /// perturbation — a stealthiness measure: the paper's attacker is
    /// designed to "lurk until a safety-critical moment arises".
    pub fn attack_duty_cycle(&self) -> f64 {
        if self.perturbation.is_empty() {
            return 0.0;
        }
        let active = self
            .perturbation
            .iter()
            .filter(|p| **p > ATTACK_START_THRESHOLD)
            .count();
        active as f64 / self.perturbation.len() as f64
    }

    /// Time from attack activation to the collision, seconds, if the attack
    /// produced one (the §V-B timing statistic).
    pub fn time_to_collision(&self) -> Option<f64> {
        let start = self.attack_start?;
        let collision = self.collision?;
        if collision.step >= start {
            Some((collision.step - start) as f64 * self.dt)
        } else {
            None
        }
    }
}

/// Version tag of the [`write_records`] text format.
const RECORDS_VERSION: &str = "v2";

/// Why a records block failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordsError {
    /// The block is in a format version this build does not read (the
    /// version tag it carries).
    Version(String),
    /// A structural defect: a missing or unexpected tag, a bad number, a
    /// count mismatch, or truncation.
    Malformed(String),
}

impl std::fmt::Display for RecordsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecordsError::Version(v) => write!(
                f,
                "unsupported record format version '{v}' (this build reads '{RECORDS_VERSION}')"
            ),
            RecordsError::Malformed(msg) => f.write_str(msg),
        }
    }
}

fn kind_name(k: CollisionKind) -> &'static str {
    match k {
        CollisionKind::Side => "side",
        CollisionKind::RearEnd => "rear",
        CollisionKind::Other => "other",
        CollisionKind::Barrier => "barrier",
    }
}

fn kind_from(s: &str) -> Result<CollisionKind, String> {
    match s {
        "side" => Ok(CollisionKind::Side),
        "rear" => Ok(CollisionKind::RearEnd),
        "other" => Ok(CollisionKind::Other),
        "barrier" => Ok(CollisionKind::Barrier),
        other => Err(format!("unknown collision kind '{other}'")),
    }
}

fn push_collision(buf: &mut String, c: &CollisionEvent) {
    let npc = match c.npc_index {
        Some(i) => i.to_string(),
        None => "-".to_string(),
    };
    buf.push_str(&format!("{} {npc} {}", kind_name(c.kind), c.step));
}

fn parse_collision(args: &[&str]) -> Result<CollisionEvent, String> {
    if args.len() != 3 {
        return Err(format!(
            "collision needs '<kind> <npc|-> <step>', got {args:?}"
        ));
    }
    let kind = kind_from(args[0])?;
    let npc_index = if args[1] == "-" {
        None
    } else {
        Some(
            args[1]
                .parse()
                .map_err(|_| format!("bad npc index '{}'", args[1]))?,
        )
    };
    let step = args[2]
        .parse()
        .map_err(|_| format!("bad collision step '{}'", args[2]))?;
    Ok(CollisionEvent {
        kind,
        npc_index,
        step,
    })
}

/// Appends `v`'s bit pattern as lowercase hex without leading zeros
/// (`0.0` is `0`, `1.0` is `3ff0000000000000`): exact for every value,
/// NaN payloads and `-0.0` included, with no float formatting.
fn push_f64(buf: &mut String, v: f64) {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let bits = v.to_bits();
    let nibbles = (16 - bits.leading_zeros() as usize / 4).max(1);
    for i in (0..nibbles).rev() {
        buf.push(DIGITS[(bits >> (4 * i)) as usize & 0xf] as char);
    }
}

/// Parses a [`push_f64`] token back to the identical value.
fn parse_f64(tok: &str) -> Option<f64> {
    u64::from_str_radix(tok, 16).ok().map(f64::from_bits)
}

/// Appends `values` to `buf`, eight to a line, spilling full chunks to
/// `out`.
fn write_f64s(buf: &mut String, values: &[f64], out: &mut dyn fmt::Write) -> fmt::Result {
    for chunk in values.chunks(8) {
        for (i, &v) in chunk.iter().enumerate() {
            if i > 0 {
                buf.push(' ');
            }
            push_f64(buf, v);
        }
        buf.push('\n');
        spill(buf, out)?;
    }
    Ok(())
}

/// Line cursor over the record text (drive-sim keeps its codec
/// self-contained instead of depending on the network crate's reader).
struct Cursor<'a> {
    lines: std::str::Lines<'a>,
    line_no: usize,
}

impl<'a> Cursor<'a> {
    fn new(text: &'a str) -> Self {
        Cursor {
            lines: text.lines(),
            line_no: 0,
        }
    }

    fn next(&mut self) -> Result<&'a str, String> {
        loop {
            self.line_no += 1;
            match self.lines.next() {
                Some(l) if l.trim().is_empty() => continue,
                Some(l) => return Ok(l.trim()),
                None => return Err("unexpected end of record text".to_string()),
            }
        }
    }

    fn tag(&mut self, want: &str) -> Result<Vec<&'a str>, String> {
        let line = self.next()?;
        let mut parts = line.split_whitespace();
        let head = parts.next().ok_or("empty line")?;
        if head != want {
            return Err(format!(
                "line {}: expected tag '{want}', found '{head}'",
                self.line_no
            ));
        }
        Ok(parts.collect())
    }

    fn f64s(&mut self, n: usize) -> Result<Vec<f64>, String> {
        let mut out = Vec::with_capacity(n.min(1 << 16));
        while out.len() < n {
            let line = self.next()?;
            for tok in line.split_whitespace() {
                let v = parse_f64(tok)
                    .ok_or_else(|| format!("line {}: bad float '{tok}'", self.line_no))?;
                out.push(v);
            }
        }
        if out.len() != n {
            return Err(format!("expected {n} floats, found {}", out.len()));
        }
        Ok(out)
    }
}

/// Bytes of encoded text [`write_records`] gathers before it hands them on.
const CHUNK: usize = 4096;

/// Hands `buf` to `out` once it holds at least [`CHUNK`] bytes.
fn spill(buf: &mut String, out: &mut dyn fmt::Write) -> fmt::Result {
    if buf.len() >= CHUNK {
        out.write_str(buf)?;
        buf.clear();
    }
    Ok(())
}

/// Writes a slice of records to `out` as a versioned plain-text block that
/// [`decode_records`] parses back bit-identically — the text of each cell
/// in the bench journal's cell log, so a resumed run replays exactly the
/// records the killed run computed. Every `f64` is written as its bit
/// pattern in hex, so the text is a function of the bits alone. The text
/// reaches `out` in chunks of about 4 KiB and is never held whole.
///
/// # Errors
///
/// Propagates `out`'s write errors.
pub fn write_records(out: &mut dyn fmt::Write, records: &[EpisodeRecord]) -> fmt::Result {
    let mut buf = String::with_capacity(CHUNK + 256);
    let _ = writeln!(buf, "records {RECORDS_VERSION} {}", records.len());
    for r in records {
        let _ = write!(buf, "rec {} ", r.steps);
        push_f64(&mut buf, r.dt);
        let _ = write!(buf, " {} ", r.passed);
        push_f64(&mut buf, r.nominal_return);
        buf.push(' ');
        push_f64(&mut buf, r.adv_return);
        let _ = writeln!(buf, " {}", r.nonfinite_actions);
        match &r.termination {
            None => buf.push_str("term none\n"),
            Some(Termination::TimeLimit) => buf.push_str("term time\n"),
            Some(Termination::RoadEnd) => buf.push_str("term road\n"),
            Some(Termination::Collision(c)) => {
                buf.push_str("term coll ");
                push_collision(&mut buf, c);
                buf.push('\n');
            }
        }
        match &r.collision {
            None => buf.push_str("coll none\n"),
            Some(c) => {
                buf.push_str("coll ");
                push_collision(&mut buf, c);
                buf.push('\n');
            }
        }
        match r.attack_start {
            None => buf.push_str("astart none\n"),
            Some(s) => {
                let _ = writeln!(buf, "astart {s}");
            }
        }
        let _ = writeln!(buf, "dev {}", r.deviation.len());
        write_f64s(&mut buf, &r.deviation, out)?;
        let _ = writeln!(buf, "pert {}", r.perturbation.len());
        write_f64s(&mut buf, &r.perturbation, out)?;
        spill(&mut buf, out)?;
    }
    out.write_str(&buf)
}

/// Parses text produced by [`write_records`].
///
/// # Errors
///
/// [`RecordsError::Version`] for a block of another format version (an
/// older build's `v1` text, say), [`RecordsError::Malformed`] for any
/// structural defect; the caller (the bench journal) treats either as
/// "recompute this cell".
pub fn decode_records(text: &str) -> Result<Vec<EpisodeRecord>, RecordsError> {
    let mut c = Cursor::new(text);
    let args = c.tag("records").map_err(RecordsError::Malformed)?;
    if args.len() != 2 {
        return Err(RecordsError::Malformed(
            "records tag needs '<version> <count>'".to_string(),
        ));
    }
    if args[0] != RECORDS_VERSION {
        return Err(RecordsError::Version(args[0].to_string()));
    }
    let count: usize = args[1]
        .parse()
        .map_err(|_| RecordsError::Malformed(format!("bad record count '{}'", args[1])))?;
    (0..count)
        .map(|_| decode_record(&mut c))
        .collect::<Result<_, _>>()
        .map_err(RecordsError::Malformed)
}

fn decode_record(c: &mut Cursor<'_>) -> Result<EpisodeRecord, String> {
    let rec_args = c.tag("rec")?;
    if rec_args.len() != 6 {
        return Err(format!(
            "rec needs '<steps> <dt> <passed> <nominal> <adv> <nonfinite>', got {rec_args:?}"
        ));
    }
    let float = |i: usize, what: &str| {
        parse_f64(rec_args[i]).ok_or_else(|| format!("bad {what} '{}'", rec_args[i]))
    };
    let count = |i: usize, what: &str| {
        rec_args[i]
            .parse::<usize>()
            .map_err(|_| format!("bad {what} '{}'", rec_args[i]))
    };
    let steps = count(0, "steps")?;
    let dt = float(1, "dt")?;
    let passed = count(2, "passed")?;
    let nominal_return = float(3, "nominal return")?;
    let adv_return = float(4, "adversarial return")?;
    let nonfinite_actions = count(5, "non-finite count")?;
    let term_args = c.tag("term")?;
    let termination = match term_args.first() {
        Some(&"none") => None,
        Some(&"time") => Some(Termination::TimeLimit),
        Some(&"road") => Some(Termination::RoadEnd),
        Some(&"coll") => Some(Termination::Collision(parse_collision(&term_args[1..])?)),
        other => return Err(format!("bad termination {other:?}")),
    };
    let coll_args = c.tag("coll")?;
    let collision = match coll_args.first() {
        Some(&"none") => None,
        Some(_) => Some(parse_collision(&coll_args)?),
        None => return Err("coll tag needs a value".to_string()),
    };
    let astart_args = c.tag("astart")?;
    let attack_start = match astart_args.first() {
        Some(&"none") => None,
        Some(tok) => Some(
            tok.parse()
                .map_err(|_| format!("bad attack start '{tok}'"))?,
        ),
        None => return Err("astart tag needs a value".to_string()),
    };
    let dev_args = c.tag("dev")?;
    let ndev: usize = dev_args
        .first()
        .ok_or("dev tag needs a count")?
        .parse()
        .map_err(|_| "bad deviation count".to_string())?;
    let deviation = c.f64s(ndev)?;
    let pert_args = c.tag("pert")?;
    let npert: usize = pert_args
        .first()
        .ok_or("pert tag needs a count")?
        .parse()
        .map_err(|_| "bad perturbation count".to_string())?;
    let perturbation = c.f64s(npert)?;
    Ok(EpisodeRecord {
        steps,
        dt,
        termination,
        collision,
        passed,
        nominal_return,
        adv_return,
        deviation,
        perturbation,
        attack_start,
        nonfinite_actions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The whole text [`write_records`] writes for `records`.
    fn encode_records(records: &[EpisodeRecord]) -> String {
        let mut text = String::new();
        write_records(&mut text, records).unwrap();
        text
    }

    /// A long episode reaches the writer in chunks of about [`CHUNK`]
    /// bytes, never as one piece, and the chunks join to the same text.
    #[test]
    fn long_records_stream_in_chunks() {
        struct Chunks(Vec<String>);
        impl fmt::Write for Chunks {
            fn write_str(&mut self, s: &str) -> fmt::Result {
                self.0.push(s.to_string());
                Ok(())
            }
        }
        let records = vec![
            EpisodeRecord {
                deviation: (0..2000).map(|i| i as f64 * 0.25).collect(),
                perturbation: vec![-1.5; 2000],
                ..rec()
            };
            3
        ];
        let mut chunks = Chunks(Vec::new());
        write_records(&mut chunks, &records).unwrap();
        assert!(chunks.0.len() > 10, "{} chunk(s)", chunks.0.len());
        let longest = chunks.0.iter().map(String::len).max().unwrap();
        assert!(longest < CHUNK + 256, "a {longest}-byte chunk");
        assert_eq!(chunks.0.concat(), encode_records(&records));
        assert_eq!(decode_records(&chunks.0.concat()).unwrap(), records);
    }

    fn rec() -> EpisodeRecord {
        EpisodeRecord {
            steps: 4,
            dt: 0.1,
            deviation: vec![0.0, 0.3, -0.4, 0.0],
            perturbation: vec![0.0, 0.5, 1.0, 0.5],
            attack_start: Some(1),
            collision: Some(CollisionEvent {
                kind: CollisionKind::Side,
                npc_index: Some(0),
                step: 3,
            }),
            termination: None,
            passed: 0,
            nominal_return: 0.0,
            adv_return: 0.0,
            nonfinite_actions: 0,
        }
    }

    #[test]
    fn codec_round_trips_every_variant_bit_exactly() {
        let records = vec![
            rec(),
            EpisodeRecord::default(),
            EpisodeRecord {
                steps: 250,
                dt: 0.05,
                termination: Some(Termination::TimeLimit),
                collision: None,
                passed: 3,
                nominal_return: -1.25e-3,
                adv_return: std::f64::consts::PI,
                deviation: (0..20).map(|i| (i as f64).sin()).collect(),
                perturbation: vec![],
                attack_start: None,
                nonfinite_actions: 2,
            },
            EpisodeRecord {
                termination: Some(Termination::RoadEnd),
                collision: Some(CollisionEvent {
                    kind: CollisionKind::Barrier,
                    npc_index: None,
                    step: 17,
                }),
                ..rec()
            },
            EpisodeRecord {
                termination: Some(Termination::Collision(CollisionEvent {
                    kind: CollisionKind::RearEnd,
                    npc_index: Some(4),
                    step: 99,
                })),
                collision: Some(CollisionEvent {
                    kind: CollisionKind::Other,
                    npc_index: Some(4),
                    step: 99,
                }),
                ..rec()
            },
        ];
        let text = encode_records(&records);
        let back = decode_records(&text).expect("decode");
        assert_eq!(back, records);
        // Digest stability: re-encoding the decoded records is byte-identical.
        assert_eq!(encode_records(&back), text);
        // Empty set round trips too.
        assert_eq!(decode_records(&encode_records(&[])).unwrap(), vec![]);
    }

    #[test]
    fn codec_rejects_malformed_input_without_panicking() {
        assert!(decode_records("").is_err());
        assert_eq!(
            decode_records("records v0 1"),
            Err(RecordsError::Version("v0".into()))
        );
        assert!(matches!(
            decode_records("records v2 not-a-number"),
            Err(RecordsError::Malformed(_))
        ));
        // Truncated mid-record.
        let text = encode_records(&[rec(), rec()]);
        let cut = &text[..text.len() / 2];
        assert!(matches!(
            decode_records(cut),
            Err(RecordsError::Malformed(_))
        ));
        // Corrupted collision kind.
        let bad = text.replacen("side", "frontal", 1);
        assert!(decode_records(&bad).is_err());
        // A float token that is not a 64-bit pattern.
        let bad = text.replacen("3fb999999999999a", "3fb999999999999a0", 1);
        assert!(matches!(
            decode_records(&bad),
            Err(RecordsError::Malformed(_))
        ));
    }

    /// `v2` stores every float as its bit pattern, so values that decimal
    /// formatting mangles or canonicalizes come back with identical bits.
    #[test]
    fn v2_round_trips_special_floats_bit_exactly() {
        let specials = [
            f64::from_bits(0x7ff8_0000_0000_0001), // quiet NaN with a payload
            f64::from_bits(0xfff0_0000_dead_beef), // negative signalling NaN
            f64::NAN,
            -0.0,
            0.0,
            f64::MIN_POSITIVE / 4.0, // subnormal
            -f64::from_bits(1),      // smallest negative subnormal
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            f64::EPSILON,
        ];
        let records = vec![EpisodeRecord {
            dt: -0.0,
            nominal_return: f64::from_bits(0x7ff8_0000_0000_0001),
            adv_return: f64::NEG_INFINITY,
            deviation: specials.to_vec(),
            perturbation: specials.iter().rev().copied().collect(),
            ..rec()
        }];
        let text = encode_records(&records);
        let back = decode_records(&text).expect("decode");
        let bits = |r: &EpisodeRecord| -> Vec<u64> {
            [r.dt, r.nominal_return, r.adv_return]
                .iter()
                .chain(&r.deviation)
                .chain(&r.perturbation)
                .map(|v| v.to_bits())
                .collect()
        };
        assert_eq!(bits(&back[0]), bits(&records[0]));
        assert_eq!(encode_records(&back), text);
        assert!(text.contains("\ndev 11\n7ff8000000000001 fff00000deadbeef"));
    }

    /// A cell an older build wrote in `v1` (decimal floats) is refused
    /// with the typed version error, never misread or panicked on.
    #[test]
    fn v1_text_gets_the_typed_version_error() {
        let v1 = "records v1 1\nrec 4 0.1 0 0 0 0\nterm none\ncoll none\n\
                  astart none\ndev 1\n0.5\npert 0\n";
        let err = decode_records(v1).unwrap_err();
        assert_eq!(err, RecordsError::Version("v1".into()));
        assert!(err.to_string().contains("this build reads 'v2'"), "{err}");
    }

    #[test]
    fn rmse_matches_hand_computation() {
        let r = rec();
        let expected = ((0.09 + 0.16) / 4.0f64).sqrt();
        assert!((r.deviation_rmse() - expected).abs() < 1e-12);
        assert_eq!(EpisodeRecord::default().deviation_rmse(), 0.0);
    }

    #[test]
    fn effort_is_mean_over_attack_attempt() {
        // Attack starts at step 1: effort = (0.5 + 1.0 + 0.5) / 3.
        let r = rec();
        assert!((r.attack_effort() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(EpisodeRecord::default().attack_effort(), 0.0);
        // No attack_start → zero even with recorded perturbations.
        let mut r2 = rec();
        r2.attack_start = None;
        assert_eq!(r2.attack_effort(), 0.0);
    }

    #[test]
    fn duty_cycle_counts_active_steps() {
        let r = rec();
        // Steps with |delta| > threshold: 0.5, 1.0, 0.5 of 4 steps.
        assert!((r.attack_duty_cycle() - 0.75).abs() < 1e-12);
        assert_eq!(EpisodeRecord::default().attack_duty_cycle(), 0.0);
    }

    #[test]
    fn attack_success_requires_attacker_involvement() {
        assert!(rec().attack_success());
        // Same side collision without any attack attempt: not a success.
        let mut own_goal = rec();
        own_goal.attack_start = None;
        assert!(own_goal.side_collision());
        assert!(!own_goal.attack_success());
        // Collision before the attack began: not a success either.
        let mut early = rec();
        early.attack_start = Some(4);
        assert!(!early.attack_success());
    }

    #[test]
    fn side_collision_detection() {
        assert!(rec().side_collision());
        let mut r = rec();
        r.collision = Some(CollisionEvent {
            kind: CollisionKind::RearEnd,
            npc_index: Some(0),
            step: 3,
        });
        assert!(!r.side_collision());
        r.collision = None;
        assert!(!r.side_collision());
    }

    #[test]
    fn time_to_collision_uses_attack_start() {
        let r = rec();
        assert!((r.time_to_collision().unwrap() - 0.2).abs() < 1e-12);
        let mut r2 = rec();
        r2.attack_start = None;
        assert_eq!(r2.time_to_collision(), None);
    }
}
