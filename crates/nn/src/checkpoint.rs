//! Plain-text checkpointing for networks and policies.
//!
//! A deliberately simple line-oriented format (no extra dependencies):
//! each section is a tagged header line followed by whitespace-separated
//! `f32` values, which Rust formats/parses with guaranteed round-tripping.
//! Used by the experiment harnesses to cache trained policies under
//! `artifacts/`.

use crate::activation::Activation;
use crate::gaussian::GaussianPolicy;
use crate::linear::Linear;
use crate::mat::Mat;
use crate::mlp::Mlp;
use crate::pnn::PnnPolicy;
use std::error::Error;
use std::fmt;
use std::fs;
use std::io::{BufWriter, Write};
use std::path::Path;

/// Errors produced when parsing a checkpoint.
#[derive(Debug)]
pub enum CheckpointError {
    /// The text did not match the expected structure.
    Parse(String),
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file's trailing checksum does not match its contents.
    Corrupt {
        /// Checksum recorded in the file.
        expected: u64,
        /// Checksum of the actual contents.
        found: u64,
    },
    /// The section carries a version tag this build does not support.
    Version {
        /// Version tag found in the file.
        found: String,
        /// Version tag this build reads.
        expected: &'static str,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Parse(msg) => write!(f, "invalid checkpoint: {msg}"),
            CheckpointError::Io(e) => write!(f, "checkpoint i/o error: {e}"),
            CheckpointError::Corrupt { expected, found } => write!(
                f,
                "corrupt checkpoint: checksum {found:016x} does not match recorded {expected:016x}"
            ),
            CheckpointError::Version { found, expected } => write!(
                f,
                "unsupported checkpoint version '{found}' (this build reads '{expected}')"
            ),
        }
    }
}

impl Error for CheckpointError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            CheckpointError::Parse(_)
            | CheckpointError::Corrupt { .. }
            | CheckpointError::Version { .. } => None,
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

fn parse_err(msg: impl Into<String>) -> CheckpointError {
    CheckpointError::Parse(msg.into())
}

/// Line-cursor over checkpoint text.
///
/// Public so other crates can compose the section codecs below into larger
/// checkpoint formats (training snapshots chain policy, critic, optimizer,
/// and replay sections through one reader).
pub struct Reader<'a> {
    lines: std::str::Lines<'a>,
    line_no: usize,
    /// Most values the whole text can hold (each needs a digit and a
    /// separator): the bound on preallocating for a count it declares.
    max_values: usize,
}

impl<'a> Reader<'a> {
    /// Starts a cursor at the beginning of `text`.
    pub fn new(text: &'a str) -> Self {
        Reader {
            lines: text.lines(),
            line_no: 0,
            max_values: text.len() / 2 + 1,
        }
    }

    /// The next non-empty line, trimmed.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Parse`] at end of input.
    pub fn next_line(&mut self) -> Result<&'a str, CheckpointError> {
        loop {
            self.line_no += 1;
            match self.lines.next() {
                Some(l) if l.trim().is_empty() => continue,
                Some(l) => return Ok(l.trim()),
                None => return Err(parse_err("unexpected end of checkpoint")),
            }
        }
    }

    /// Consumes a line that must start with `tag`, returning the remaining
    /// whitespace-separated tokens.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Parse`] when the next line's head token
    /// differs from `tag`.
    pub fn expect_tag(&mut self, tag: &str) -> Result<Vec<&'a str>, CheckpointError> {
        let line = self.next_line()?;
        let mut parts = line.split_whitespace();
        let head = parts.next().ok_or_else(|| parse_err("empty line"))?;
        if head != tag {
            return Err(parse_err(format!(
                "line {}: expected tag '{tag}', found '{head}'",
                self.line_no
            )));
        }
        Ok(parts.collect())
    }

    /// Reads exactly `n` whitespace-separated `f32` values spanning as many
    /// lines as needed.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Parse`] on a malformed float or a count
    /// mismatch.
    pub fn floats(&mut self, n: usize) -> Result<Vec<f32>, CheckpointError> {
        let mut out = vec![0.0; self.backed(n)?];
        self.floats_into(&mut out)?;
        Ok(out)
    }

    /// `n`, when the whole text could hold `n` values: a count read from a
    /// corrupt file fails here instead of aborting the process on an
    /// impossible allocation.
    fn backed(&self, n: usize) -> Result<usize, CheckpointError> {
        if n > self.max_values {
            return Err(parse_err(format!(
                "expected {n} floats, but the checkpoint holds at most {}",
                self.max_values
            )));
        }
        Ok(n)
    }

    /// [`Reader::floats`] for `out.len()` values, written into `out`.
    fn floats_into(&mut self, out: &mut [f32]) -> Result<(), CheckpointError> {
        let n = out.len();
        let mut found = 0;
        while found < n {
            let line = self.next_line()?;
            for tok in line.split_whitespace() {
                let v: f32 = tok
                    .parse()
                    .map_err(|_| parse_err(format!("line {}: bad float '{tok}'", self.line_no)))?;
                if let Some(slot) = out.get_mut(found) {
                    *slot = v;
                }
                found += 1;
            }
        }
        if found != n {
            return Err(parse_err(format!("expected {n} floats, found {found}")));
        }
        Ok(())
    }
}

/// Writes a whitespace-separated `f32` block in the format [`Reader::floats`]
/// reads back. Rust's shortest round-trip `{}` formatting guarantees the
/// parsed values are bit-identical to the originals.
///
/// Every encoder writes into a `dyn fmt::Write`: a `String`, or the
/// streamed file of [`save_with`]. Their only error is the one `out`
/// returns.
pub fn encode_floats(out: &mut dyn fmt::Write, values: &[f32]) -> fmt::Result {
    for chunk in values.chunks(16) {
        let mut first = true;
        for v in chunk {
            if !first {
                out.write_char(' ')?;
            }
            write!(out, "{v}")?;
            first = false;
        }
        out.write_char('\n')?;
    }
    if values.is_empty() {
        out.write_char('\n')?;
    }
    Ok(())
}

fn encode_linear(out: &mut dyn fmt::Write, l: &Linear) -> fmt::Result {
    writeln!(out, "linear {} {}", l.out_dim(), l.in_dim())?;
    encode_floats(out, l.w().data())?;
    encode_floats(out, &l.b)
}

fn decode_linear(r: &mut Reader<'_>) -> Result<Linear, CheckpointError> {
    let args = r.expect_tag("linear")?;
    if args.len() != 2 {
        return Err(parse_err("linear tag needs '<out> <in>'"));
    }
    let out: usize = args[0].parse().map_err(|_| parse_err("bad out dim"))?;
    let inp: usize = args[1].parse().map_err(|_| parse_err("bad in dim"))?;
    if out == 0 || inp == 0 {
        return Err(parse_err("linear dims must be positive"));
    }
    let len = out
        .checked_mul(inp)
        .ok_or_else(|| parse_err("linear dims overflow"))?;
    // Parsed straight into the layer's aligned storage.
    r.backed(len)?;
    let mut w = Mat::zeros(out, inp);
    r.floats_into(w.data_mut())?;
    let b = r.floats(out)?;
    Ok(Linear::from_parts(w, b))
}

fn act_name(a: Activation) -> &'static str {
    match a {
        Activation::Relu => "relu",
        Activation::Tanh => "tanh",
        Activation::Identity => "identity",
    }
}

fn act_from_name(s: &str) -> Result<Activation, CheckpointError> {
    match s {
        "relu" => Ok(Activation::Relu),
        "tanh" => Ok(Activation::Tanh),
        "identity" => Ok(Activation::Identity),
        other => Err(parse_err(format!("unknown activation '{other}'"))),
    }
}

/// Writes an [`Mlp`] section of a larger checkpoint.
pub fn encode_mlp_into(out: &mut dyn fmt::Write, net: &Mlp) -> fmt::Result {
    writeln!(out, "mlp {}", net.num_layers())?;
    for (i, l) in net.layers().iter().enumerate() {
        writeln!(out, "act {}", act_name(net.activation(i)))?;
        encode_linear(out, l)?;
    }
    Ok(())
}

/// Parses one [`Mlp`] section from a reader positioned at its `mlp` tag.
///
/// # Errors
///
/// Returns [`CheckpointError::Parse`] on any structural mismatch.
pub fn decode_mlp_from(r: &mut Reader<'_>) -> Result<Mlp, CheckpointError> {
    let args = r.expect_tag("mlp")?;
    let n: usize = args
        .first()
        .ok_or_else(|| parse_err("mlp tag needs layer count"))?
        .parse()
        .map_err(|_| parse_err("bad layer count"))?;
    let mut layers = Vec::new();
    let mut acts = Vec::new();
    for _ in 0..n {
        let a = r.expect_tag("act")?;
        acts.push(act_from_name(
            a.first().ok_or_else(|| parse_err("act needs a name"))?,
        )?);
        layers.push(decode_linear(r)?);
    }
    Mlp::from_parts(layers, acts).map_err(CheckpointError::Parse)
}

/// Serializes a [`GaussianPolicy`].
pub fn encode_policy(p: &GaussianPolicy) -> String {
    let mut buf = String::new();
    // Writing into a `String` cannot fail.
    let _ = encode_policy_into(&mut buf, p);
    buf
}

/// Writes a [`GaussianPolicy`] section of a larger checkpoint.
pub fn encode_policy_into(out: &mut dyn fmt::Write, p: &GaussianPolicy) -> fmt::Result {
    writeln!(out, "policy {}", p.action_dim())?;
    encode_mlp_into(out, p.trunk())
}

/// Parses a [`GaussianPolicy`].
///
/// # Errors
///
/// Returns [`CheckpointError::Parse`] on structural mismatch.
pub fn decode_policy(text: &str) -> Result<GaussianPolicy, CheckpointError> {
    let mut r = Reader::new(text);
    decode_policy_from(&mut r)
}

/// Parses one [`GaussianPolicy`] section from a reader positioned at its
/// `policy` tag.
///
/// # Errors
///
/// Returns [`CheckpointError::Parse`] on structural mismatch.
pub fn decode_policy_from(r: &mut Reader<'_>) -> Result<GaussianPolicy, CheckpointError> {
    let args = r.expect_tag("policy")?;
    let action_dim: usize = args
        .first()
        .ok_or_else(|| parse_err("policy tag needs action dim"))?
        .parse()
        .map_err(|_| parse_err("bad action dim"))?;
    let trunk = decode_mlp_from(r)?;
    GaussianPolicy::from_trunk(trunk, action_dim).map_err(CheckpointError::Parse)
}

/// Version tag of the Adam optimizer section.
const ADAM_VERSION: &str = "v1";

/// Writes an [`Adam`](crate::adam::Adam) optimizer section — step counter,
/// hyper-parameters, and both moment buffers — of a checkpoint.
/// Together with the network sections this lets a training snapshot resume
/// optimization bit-exactly.
pub fn encode_adam_into(out: &mut dyn fmt::Write, opt: &crate::adam::Adam) -> fmt::Result {
    let (t, m, v) = opt.state();
    let c = opt.config;
    writeln!(
        out,
        "adam {ADAM_VERSION} {t} {} {} {} {} {} {}",
        m.len(),
        c.lr,
        c.beta1,
        c.beta2,
        c.eps,
        c.grad_clip
    )?;
    for (ms, vs) in m.iter().zip(v) {
        writeln!(out, "slice {}", ms.len())?;
        encode_floats(out, ms)?;
        encode_floats(out, vs)?;
    }
    Ok(())
}

/// Parses one [`Adam`](crate::adam::Adam) section from a reader positioned
/// at its `adam` tag.
///
/// # Errors
///
/// Returns [`CheckpointError::Version`] for a section written by a
/// different format revision, [`CheckpointError::Parse`] on structural
/// mismatch.
pub fn decode_adam_from(r: &mut Reader<'_>) -> Result<crate::adam::Adam, CheckpointError> {
    let args = r.expect_tag("adam")?;
    let version = *args
        .first()
        .ok_or_else(|| parse_err("adam tag needs a version"))?;
    if version != ADAM_VERSION {
        return Err(CheckpointError::Version {
            found: version.to_string(),
            expected: ADAM_VERSION,
        });
    }
    if args.len() != 8 {
        return Err(parse_err(
            "adam tag needs '<version> <t> <slices> <lr> <beta1> <beta2> <eps> <grad_clip>'",
        ));
    }
    let t: u64 = args[1]
        .parse()
        .map_err(|_| parse_err("bad adam step count"))?;
    let slices: usize = args[2]
        .parse()
        .map_err(|_| parse_err("bad adam slice count"))?;
    let mut floats = [0.0f32; 5];
    for (dst, tok) in floats.iter_mut().zip(&args[3..8]) {
        *dst = tok
            .parse()
            .map_err(|_| parse_err(format!("bad adam hyper-parameter '{tok}'")))?;
    }
    let config = crate::adam::AdamConfig {
        lr: floats[0],
        beta1: floats[1],
        beta2: floats[2],
        eps: floats[3],
        grad_clip: floats[4],
    };
    let mut m = Vec::new();
    let mut v = Vec::new();
    for _ in 0..slices {
        let sargs = r.expect_tag("slice")?;
        let len: usize = sargs
            .first()
            .ok_or_else(|| parse_err("slice tag needs a length"))?
            .parse()
            .map_err(|_| parse_err("bad slice length"))?;
        m.push(r.floats(len)?);
        v.push(r.floats(len)?);
    }
    Ok(crate::adam::Adam::from_state(config, t, m, v))
}

/// Serializes a [`PnnPolicy`].
pub fn encode_pnn(p: &PnnPolicy) -> String {
    let mut buf = String::new();
    // Writing into a `String` cannot fail.
    let _ = encode_pnn_into(&mut buf, p);
    buf
}

/// Writes a [`PnnPolicy`] section of a larger checkpoint.
pub fn encode_pnn_into(out: &mut dyn fmt::Write, p: &PnnPolicy) -> fmt::Result {
    writeln!(out, "pnn {}", p.action_dim())?;
    encode_policy_into(out, p.base())?;
    let (column, laterals) = p.parts();
    writeln!(out, "column {}", column.len())?;
    for l in column {
        encode_linear(out, l)?;
    }
    writeln!(out, "laterals {}", laterals.len())?;
    for l in laterals {
        encode_linear(out, l)?;
    }
    Ok(())
}

/// Parses a [`PnnPolicy`].
///
/// # Errors
///
/// Returns [`CheckpointError::Parse`] on structural mismatch.
pub fn decode_pnn(text: &str) -> Result<PnnPolicy, CheckpointError> {
    decode_pnn_from(&mut Reader::new(text))
}

/// Parses one [`PnnPolicy`] section from a reader positioned at its `pnn`
/// tag.
///
/// # Errors
///
/// Returns [`CheckpointError::Parse`] on structural mismatch.
pub fn decode_pnn_from(r: &mut Reader<'_>) -> Result<PnnPolicy, CheckpointError> {
    let args = r.expect_tag("pnn")?;
    let action_dim: usize = args
        .first()
        .ok_or_else(|| parse_err("pnn tag needs action dim"))?
        .parse()
        .map_err(|_| parse_err("bad action dim"))?;
    let base = decode_policy_from(r)?;
    if base.action_dim() != action_dim {
        return Err(parse_err(format!(
            "pnn action dim {action_dim} does not match its base policy's {}",
            base.action_dim()
        )));
    }
    let cargs = r.expect_tag("column")?;
    let ncol: usize = cargs
        .first()
        .ok_or_else(|| parse_err("column tag needs count"))?
        .parse()
        .map_err(|_| parse_err("bad column count"))?;
    let mut column = Vec::new();
    for _ in 0..ncol {
        column.push(decode_linear(r)?);
    }
    let largs = r.expect_tag("laterals")?;
    let nlat: usize = largs
        .first()
        .ok_or_else(|| parse_err("laterals tag needs count"))?
        .parse()
        .map_err(|_| parse_err("bad laterals count"))?;
    let mut laterals = Vec::new();
    for _ in 0..nlat {
        laterals.push(decode_linear(r)?);
    }
    PnnPolicy::from_parts(base, column, laterals).map_err(CheckpointError::Parse)
}

/// FNV-1a 64-bit hash — the integrity checksum appended to saved files.
/// The same hash drive-seed exposes workspace-wide (run manifests use it
/// too), so checksums printed anywhere are comparable.
use drive_seed::{fnv1a_64 as fnv1a64, fnv1a_64_extend};

/// Prefix of the integrity line appended by [`save_to_file`].
const CHECKSUM_TAG: &str = "checksum ";

/// Flushes a directory's metadata to disk.
///
/// An atomic-rename save is only durable once the *directory entry* for the
/// renamed file is on disk: after a crash, a rename that was never fsynced
/// can roll back to the old (or no) file even though the data blocks were
/// written. No-op on platforms without directory fsync.
///
/// # Errors
///
/// Propagates I/O errors from opening or syncing the directory.
pub fn sync_dir(dir: impl AsRef<Path>) -> std::io::Result<()> {
    #[cfg(unix)]
    {
        fs::File::open(dir.as_ref())?.sync_all()?;
    }
    #[cfg(not(unix))]
    {
        let _ = dir;
    }
    Ok(())
}

/// Writes checkpoint text to a file, creating parent directories: the
/// [`save_with`] of a text already built.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn save_to_file(path: impl AsRef<Path>, text: &str) -> Result<(), CheckpointError> {
    save_with(path, |out| out.write_str(text))
}

/// Writes the checkpoint text `encode` produces to a file, creating parent
/// directories. The text streams to disk as it is encoded, so a save holds
/// a fixed-size buffer, not the file.
///
/// The write is atomic and durable: a sibling temp file is synced, renamed
/// into place, and the parent directory is fsynced, so a crash at any point
/// leaves either the old checkpoint or the complete new one — never a
/// truncated file, and never a rename that vanishes on power loss. The
/// file ends with a `checksum <fnv1a-64>` line that [`load_from_file`]
/// verifies.
///
/// # Errors
///
/// Propagates I/O errors; a temporary that could not be written whole is
/// removed, which leaves the old file in place.
pub fn save_with(
    path: impl AsRef<Path>,
    encode: impl FnOnce(&mut dyn fmt::Write) -> fmt::Result,
) -> Result<(), CheckpointError> {
    let path = path.as_ref();
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    let file_name = path.file_name().ok_or_else(|| {
        CheckpointError::Io(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "checkpoint path has no file name",
        ))
    })?;
    let tmp = path.with_file_name(format!("{}.tmp", file_name.to_string_lossy()));
    let written = fs::File::create(&tmp)
        .and_then(|file| write_checksummed(file, encode))
        .and_then(|written| written.out.sync_data());
    if let Err(e) = written {
        let _ = fs::remove_file(&tmp);
        return Err(CheckpointError::Io(e));
    }
    fs::rename(&tmp, path)?;
    if let Some(parent) = path.parent() {
        // A bare file name has an empty parent; the entry lives in the
        // current directory.
        let parent = if parent.as_os_str().is_empty() {
            Path::new(".")
        } else {
            parent
        };
        sync_dir(parent)?;
    }
    Ok(())
}

/// A checksummed text as [`write_checksummed`] left it.
#[derive(Debug)]
pub struct Checksummed<W> {
    /// The writer the text went to, flushed.
    pub out: W,
    /// The FNV-1a hash of the newline-terminated text, as the `checksum`
    /// line records it.
    pub checksum: u64,
    /// Bytes written, the `checksum` line included.
    pub len: u64,
}

/// Where [`write_checksummed`] streams a text: through an 8 KiB buffer
/// into the writer, folding each byte into the checksum on the way.
struct Sink<W: Write> {
    out: BufWriter<W>,
    /// FNV-1a of the text so far.
    hash: u64,
    /// Bytes of the text so far.
    len: u64,
    /// Whether the text so far ends with a newline.
    ends_line: bool,
    /// The I/O error behind a failed write, which `fmt::Error` cannot
    /// carry.
    err: Option<std::io::Error>,
}

impl<W: Write> fmt::Write for Sink<W> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        if s.is_empty() {
            return Ok(());
        }
        self.hash = fnv1a_64_extend(self.hash, s.as_bytes());
        self.len += s.len() as u64;
        self.ends_line = s.ends_with('\n');
        self.out.write_all(s.as_bytes()).map_err(|e| {
            self.err = Some(e);
            fmt::Error
        })
    }
}

/// Writes the text `encode` produces to `out`, a newline if the text does
/// not end with one, and then the `checksum` line of the
/// newline-terminated text: the body of every checkpoint file, and of each
/// cell in a bench journal's cell log. The text streams through a
/// fixed-size buffer, so it is never held whole.
///
/// # Errors
///
/// Propagates write errors; what reached `out` before one is left there.
pub fn write_checksummed<W: Write>(
    out: W,
    encode: impl FnOnce(&mut dyn fmt::Write) -> fmt::Result,
) -> std::io::Result<Checksummed<W>> {
    let mut sink = Sink {
        out: BufWriter::with_capacity(8 * 1024, out),
        hash: fnv1a64(&[]),
        len: 0,
        ends_line: false,
        err: None,
    };
    let encoded = encode(&mut sink).and_then(|()| {
        if sink.ends_line {
            Ok(())
        } else {
            fmt::Write::write_char(&mut sink, '\n')
        }
    });
    if encoded.is_err() {
        return Err(sink
            .err
            .unwrap_or_else(|| std::io::Error::other("checkpoint text failed to format")));
    }
    let checksum = sink.hash;
    let line = format!("{CHECKSUM_TAG}{checksum:016x}\n");
    sink.out.write_all(line.as_bytes())?;
    let out = sink.out.into_inner().map_err(|e| e.into_error())?;
    Ok(Checksummed {
        out,
        checksum,
        len: sink.len + line.len() as u64,
    })
}

/// Reads checkpoint text from a file, verifying and stripping the trailing
/// checksum line when present. Files written before checksums existed
/// (no trailing `checksum` line) load unverified for compatibility.
///
/// # Errors
///
/// Propagates I/O errors; returns [`CheckpointError::Corrupt`] when the
/// recorded checksum does not match the contents.
pub fn load_from_file(path: impl AsRef<Path>) -> Result<String, CheckpointError> {
    let raw = fs::read_to_string(path)?;
    if checksum_line(&raw).is_none() {
        // Legacy checkpoint without an integrity line.
        return Ok(raw);
    }
    verify_checksummed(raw).map(|(body, _)| body)
}

/// Where the trailing `checksum` line of `raw` starts, and its hex digits
/// (`None` when the last line is not a checksum line).
fn checksum_line(raw: &str) -> Option<(usize, &str)> {
    let trimmed = raw.trim_end_matches('\n');
    let (body_end, last_line) = match trimmed.rfind('\n') {
        Some(idx) => (idx + 1, &trimmed[idx + 1..]),
        None => (0, trimmed),
    };
    last_line
        .strip_prefix(CHECKSUM_TAG)
        .map(|hex| (body_end, hex))
}

/// Verifies a text [`write_checksummed`] wrote and returns its body, cut
/// from `raw` in place (a large snapshot is not held twice), with the
/// checksum it verified against.
///
/// # Errors
///
/// [`CheckpointError::Parse`] when `raw` has no readable `checksum` line,
/// [`CheckpointError::Corrupt`] when the body does not hash to it.
pub fn verify_checksummed(mut raw: String) -> Result<(String, u64), CheckpointError> {
    let (body_end, hex) =
        checksum_line(&raw).ok_or_else(|| parse_err("missing checksum line".to_string()))?;
    let expected = u64::from_str_radix(hex.trim(), 16)
        .map_err(|_| parse_err(format!("unreadable checksum line '{CHECKSUM_TAG}{hex}'")))?;
    let found = fnv1a64(&raw.as_bytes()[..body_end]);
    if found != expected {
        return Err(CheckpointError::Corrupt { expected, found });
    }
    raw.truncate(body_end);
    Ok((raw, expected))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gaussian::{fill_randn, SampleCache};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn randn_mat(rows: usize, cols: usize, rng: &mut StdRng) -> Mat {
        let mut m = Mat::default();
        fill_randn(&mut m, rows, cols, rng);
        m
    }

    /// A PNN whose column and laterals are all fresh random draws from
    /// `rng`, column first: unlike `PnnPolicy::new`'s, its laterals are
    /// non-zero.
    fn random_pnn<R: rand::Rng>(base: GaussianPolicy, rng: &mut R) -> PnnPolicy {
        let layers = base.trunk().layers();
        let column = layers
            .iter()
            .map(|l| Linear::new(l.in_dim(), l.out_dim(), rng))
            .collect();
        let laterals = layers
            .windows(2)
            .map(|w| Linear::new(w[0].out_dim(), w[1].out_dim(), rng))
            .collect();
        PnnPolicy::from_parts(base, column, laterals).expect("shapes follow the base")
    }

    fn encode_mlp(net: &Mlp) -> String {
        let mut buf = String::new();
        encode_mlp_into(&mut buf, net).unwrap();
        buf
    }

    /// A directory of this test process alone: concurrent runs of the
    /// suite do not share it.
    fn temp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn decode_mlp(text: &str) -> Result<Mlp, CheckpointError> {
        decode_mlp_from(&mut Reader::new(text))
    }

    #[test]
    fn mlp_round_trip() -> Result<(), CheckpointError> {
        let mut rng = StdRng::seed_from_u64(1);
        let net = Mlp::new(&[3, 7, 2], Activation::Relu, Activation::Identity, &mut rng);
        let text = encode_mlp(&net);
        let back = decode_mlp(&text)?;
        let x = Mat::from_vec(2, 3, vec![0.3, -0.2, 0.9, 1.5, -0.4, 0.0]);
        assert_eq!(net.forward(&x), back.forward(&x));
        Ok(())
    }

    /// A network trained past its first packs decodes into unpacked
    /// layers whose forward passes equal the source's bit for bit, at one
    /// row and at a batch.
    #[test]
    fn decoded_network_starts_unpacked_and_forwards_like_the_source() -> Result<(), CheckpointError>
    {
        let mut rng = StdRng::seed_from_u64(5);
        let mut net = Mlp::new(
            &[60, 128, 4],
            Activation::Relu,
            Activation::Identity,
            &mut rng,
        );
        let x = randn_mat(9, 60, &mut rng);
        let mut adam = crate::adam::Adam::with_lr(0.01);
        for _ in 0..3 {
            let cache = net.forward_cached(&x);
            net.zero_grad();
            net.backward(&cache, &randn_mat(9, 4, &mut rng));
            adam.step(|f| net.visit_params(f));
        }
        let back = decode_mlp(&encode_mlp(&net))?;
        assert!(back.layers().iter().all(|l| !l.is_packed()));
        let bits = |m: &Mat| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for rows in [1, 9] {
            let xr = randn_mat(rows, 60, &mut rng);
            assert_eq!(
                bits(&back.forward(&xr)),
                bits(&net.forward(&xr)),
                "{rows} rows"
            );
        }
        net.zero_grad();
        assert_eq!(back, net, "equality ignores the packs");
        Ok(())
    }

    #[test]
    fn policy_round_trip() -> Result<(), CheckpointError> {
        let mut rng = StdRng::seed_from_u64(2);
        let p = GaussianPolicy::new(6, &[16, 16], 2, &mut rng);
        let back = decode_policy(&encode_policy(&p))?;
        let obs = Mat::from_vec(3, 6, (0..18).map(|i| (i as f32 * 0.11).sin()).collect());
        assert_eq!(p.mean_action(&obs), back.mean_action(&obs));
        let (mut s1, mut s2) = (SampleCache::default(), SampleCache::default());
        p.sample_into(&obs, &mut StdRng::seed_from_u64(6), &mut s1);
        back.sample_into(&obs, &mut StdRng::seed_from_u64(6), &mut s2);
        assert_eq!(s1.head.log_prob, s2.head.log_prob);
        Ok(())
    }

    #[test]
    fn pnn_round_trip() -> Result<(), CheckpointError> {
        let mut rng = StdRng::seed_from_u64(3);
        let base = GaussianPolicy::new(4, &[8, 8], 1, &mut rng);
        let pnn = random_pnn(base, &mut rng);
        let back = decode_pnn(&encode_pnn(&pnn))?;
        let obs = Mat::from_vec(2, 4, (0..8).map(|i| (i as f32 * 0.2).cos()).collect());
        let staged = |p: &PnnPolicy| {
            let mut s = crate::scratch::BatchActScratch::default();
            p.stage(obs.rows(), &mut s).copy_from(&obs);
            p.infer_staged(&mut s).clone()
        };
        assert_eq!(staged(&pnn), staged(&back));
        // Base column preserved too.
        assert_eq!(pnn.base().mean_action(&obs), back.base().mean_action(&obs));
        Ok(())
    }

    #[test]
    fn file_round_trip() -> Result<(), CheckpointError> {
        let mut rng = StdRng::seed_from_u64(4);
        let p = GaussianPolicy::new(3, &[8], 1, &mut rng);
        let dir = temp("drive-nn-test");
        let path = dir.join("policy.ckpt");
        save_to_file(&path, &encode_policy(&p))?;
        let text = load_from_file(&path)?;
        let back = decode_policy(&text)?;
        let obs = Mat::from_row(&[0.1, 0.2, 0.3]);
        assert_eq!(p.mean_action(&obs), back.mean_action(&obs));
        let _ = std::fs::remove_dir_all(&dir);
        Ok(())
    }

    /// Saved text, streamed or whole, is on disk as the newline-terminated
    /// text and its checksum line; loading returns that text.
    #[test]
    fn load_returns_the_saved_body() -> Result<(), CheckpointError> {
        let dir = temp("drive-nn-body-test");
        let path = dir.join("net.ckpt");
        for text in ["mlp 0\nlinear 1 1", "mlp 0\nlinear 1 1\n", ""] {
            let body = if text.ends_with('\n') {
                text.to_string()
            } else {
                format!("{text}\n")
            };
            let expected = format!("{body}{CHECKSUM_TAG}{:016x}\n", fnv1a64(body.as_bytes()));
            save_to_file(&path, text)?;
            assert_eq!(std::fs::read_to_string(&path)?, expected, "{text:?}");
            assert_eq!(load_from_file(&path)?, body, "{text:?}");
            // The same text written in pieces saves the same bytes.
            save_with(&path, |out| {
                text.split_inclusive(' ')
                    .try_for_each(|piece| out.write_str(piece))
            })?;
            assert_eq!(std::fs::read_to_string(&path)?, expected, "{text:?}");
        }
        let _ = std::fs::remove_dir_all(&dir);
        Ok(())
    }

    /// An encoder that fails leaves the previous checkpoint in place and
    /// no temporary behind.
    #[test]
    fn failed_encode_keeps_the_old_file() -> Result<(), CheckpointError> {
        let dir = temp("drive-nn-failed-encode-test");
        let path = dir.join("net.ckpt");
        save_to_file(&path, "old\n")?;
        let failed = save_with(&path, |out| {
            out.write_str("new, cut short\n")?;
            Err(fmt::Error)
        });
        assert!(matches!(failed, Err(CheckpointError::Io(_))), "{failed:?}");
        assert!(!path.with_file_name("net.ckpt.tmp").exists());
        assert_eq!(load_from_file(&path)?, "old\n");
        let _ = std::fs::remove_dir_all(&dir);
        Ok(())
    }

    #[test]
    fn saved_file_carries_verified_checksum() -> Result<(), CheckpointError> {
        let dir = temp("drive-nn-checksum-test");
        let path = dir.join("net.ckpt");
        let mut rng = StdRng::seed_from_u64(6);
        let net = Mlp::new(&[2, 4, 1], Activation::Relu, Activation::Identity, &mut rng);
        let text = encode_mlp(&net);
        save_to_file(&path, &text)?;

        let on_disk = std::fs::read_to_string(&path)?;
        let Some(last) = on_disk.lines().last() else {
            panic!("saved file is empty");
        };
        assert!(
            last.starts_with(CHECKSUM_TAG),
            "missing checksum line: {last}"
        );
        // Loading strips the integrity line, returning decodable text.
        let loaded = load_from_file(&path)?;
        assert!(!loaded.contains(CHECKSUM_TAG));
        decode_mlp(&loaded)?;
        // No temp file left behind by the atomic rename.
        assert!(!path.with_file_name("net.ckpt.tmp").exists());

        // Flip a payload byte: the load must fail as Corrupt.
        let tampered = on_disk.replacen("linear", "linaer", 1);
        std::fs::write(&path, tampered)?;
        match load_from_file(&path) {
            Err(CheckpointError::Corrupt { expected, found }) => assert_ne!(expected, found),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
        Ok(())
    }

    #[test]
    fn legacy_file_without_checksum_still_loads() -> Result<(), CheckpointError> {
        let dir = temp("drive-nn-legacy-test");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join("legacy.ckpt");
        let mut rng = StdRng::seed_from_u64(7);
        let net = Mlp::new(&[2, 2], Activation::Relu, Activation::Identity, &mut rng);
        // Write raw text the way the pre-checksum code did.
        std::fs::write(&path, encode_mlp(&net))?;
        let loaded = load_from_file(&path)?;
        decode_mlp(&loaded)?;
        let _ = std::fs::remove_dir_all(&dir);
        Ok(())
    }

    #[test]
    fn adam_section_round_trips_mid_training() -> Result<(), CheckpointError> {
        // Train a few steps, checkpoint the optimizer, keep training both
        // copies: trajectories must stay bit-identical.
        let mut pa = vec![4.0f32, -2.0, 0.5];
        let mut opt = crate::adam::Adam::with_lr(0.03);
        let grad = |p: &[f32]| p.iter().map(|x| 2.0 * x).collect::<Vec<f32>>();
        for _ in 0..13 {
            let mut g = grad(&pa);
            opt.step(|f| f(&mut pa, &mut g));
        }
        let mut buf = String::new();
        encode_adam_into(&mut buf, &opt).unwrap();
        let mut r = Reader::new(&buf);
        let mut back = decode_adam_from(&mut r)?;
        assert_eq!(back.steps(), opt.steps());
        assert_eq!(back.config, opt.config);
        let mut pb = pa.clone();
        for _ in 0..13 {
            let mut ga = grad(&pa);
            opt.step(|f| f(&mut pa, &mut ga));
            let mut gb = grad(&pb);
            back.step(|f| f(&mut pb, &mut gb));
        }
        assert_eq!(pa, pb);
        Ok(())
    }

    #[test]
    fn adam_version_mismatch_is_typed() {
        let mut opt = crate::adam::Adam::with_lr(0.01);
        let mut p = vec![1.0f32];
        let mut g = vec![0.5f32];
        opt.step(|f| f(&mut p, &mut g));
        let mut buf = String::new();
        encode_adam_into(&mut buf, &opt).unwrap();
        let tampered = buf.replacen("adam v1", "adam v0", 1);
        let mut r = Reader::new(&tampered);
        match decode_adam_from(&mut r) {
            Err(CheckpointError::Version { found, expected }) => {
                assert_eq!(found, "v0");
                assert_eq!(expected, ADAM_VERSION);
            }
            other => panic!("expected Version error, got {other:?}"),
        }
    }

    #[test]
    fn save_creates_nested_dirs_and_fsyncs_durably() -> Result<(), CheckpointError> {
        // The durable path: parents created, temp file cleaned up, rename
        // completed, and the result loadable. (The dir-fsync itself cannot
        // be observed without crashing the kernel; this pins the code path
        // and that it succeeds on a freshly created directory chain.)
        let dir = temp("drive-nn-durable-test");
        let path = dir.join("deep").join("nested").join("net.ckpt");
        let mut rng = StdRng::seed_from_u64(8);
        let net = Mlp::new(&[2, 3, 1], Activation::Tanh, Activation::Identity, &mut rng);
        save_to_file(&path, &encode_mlp(&net))?;
        assert!(path.exists());
        assert!(!path.with_file_name("net.ckpt.tmp").exists());
        decode_mlp(&load_from_file(&path)?)?;
        // Overwriting an existing checkpoint goes through the same
        // tmp+rename path and must also leave no droppings.
        save_to_file(&path, &encode_mlp(&net))?;
        assert!(!path.with_file_name("net.ckpt.tmp").exists());
        // And syncing the parent directory directly works.
        sync_dir(path.parent().unwrap())?;
        let _ = std::fs::remove_dir_all(&dir);
        Ok(())
    }

    #[test]
    fn corrupted_text_errors_cleanly() {
        assert!(decode_mlp("garbage").is_err());
        assert!(decode_policy("policy x\n").is_err());
        let mut rng = StdRng::seed_from_u64(5);
        let net = Mlp::new(&[2, 2], Activation::Relu, Activation::Identity, &mut rng);
        let text = encode_mlp(&net);
        // Truncate the float payload.
        let cut = &text[..text.len() / 2];
        assert!(decode_mlp(cut).is_err());
    }

    #[test]
    fn error_display_is_informative() {
        let Err(e) = decode_mlp("mlp zero") else {
            panic!("expected a parse error");
        };
        let msg = format!("{e}");
        assert!(msg.contains("invalid checkpoint"), "{msg}");
        let corrupt = CheckpointError::Corrupt {
            expected: 1,
            found: 2,
        };
        assert!(format!("{corrupt}").contains("corrupt checkpoint"));
    }

    /// A policy is ReLU hidden layers and an identity output; a trunk
    /// that says otherwise is rejected, not loaded as a ReLU policy.
    #[test]
    fn policy_trunk_with_foreign_activation_is_rejected() {
        let mut rng = StdRng::seed_from_u64(9);
        let text = encode_policy(&GaussianPolicy::new(3, &[8], 1, &mut rng));
        for (from, to) in [("act relu", "act tanh"), ("act identity", "act relu")] {
            match decode_policy(&text.replacen(from, to, 1)) {
                Err(CheckpointError::Parse(msg)) => assert!(msg.contains("activation"), "{msg}"),
                other => panic!("{from} -> {to}: expected Parse, got {other:?}"),
            }
        }
    }

    /// The `pnn` tag's action dim must match the base policy it wraps,
    /// and the column and laterals must fit that base.
    #[test]
    fn pnn_with_mismatched_parts_is_rejected() {
        let mut rng = StdRng::seed_from_u64(10);
        let base = GaussianPolicy::new(4, &[8, 8], 1, &mut rng);
        let text = encode_pnn(&random_pnn(base, &mut rng));
        let tampered = [
            text.replacen("pnn 1\n", "pnn 2\n", 1),
            text.replacen("laterals 2\n", "laterals 1\n", 1),
        ];
        for bad in tampered {
            match decode_pnn(&bad) {
                Err(CheckpointError::Parse(_)) => {}
                other => panic!("expected Parse, got {other:?}"),
            }
        }
    }

    /// Dimensions whose product overflows, or whose float count the file
    /// cannot back, fail as parse errors instead of panicking or
    /// aborting on the allocation.
    #[test]
    fn impossible_dims_are_parse_errors() {
        for text in [
            "mlp 1\nact relu\nlinear 4294967296 4294967296\n",
            "mlp 1\nact relu\nlinear 4294967295 4294967295\n1 2\n",
        ] {
            match decode_mlp(text) {
                Err(CheckpointError::Parse(_)) => {}
                other => panic!("expected Parse, got {other:?}"),
            }
        }
    }
}
