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
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

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
        // `n` comes from the file: a corrupt count fails on the data
        // instead of aborting the process on an impossible allocation.
        let mut out = Vec::with_capacity(n.min(self.max_values));
        while out.len() < n {
            let line = self.next_line()?;
            for tok in line.split_whitespace() {
                let v: f32 = tok
                    .parse()
                    .map_err(|_| parse_err(format!("line {}: bad float '{tok}'", self.line_no)))?;
                out.push(v);
            }
        }
        if out.len() != n {
            return Err(parse_err(format!(
                "expected {n} floats, found {}",
                out.len()
            )));
        }
        Ok(out)
    }
}

/// Writes a whitespace-separated `f32` block in the format [`Reader::floats`]
/// reads back. Rust's shortest round-trip `{}` formatting guarantees the
/// parsed values are bit-identical to the originals.
pub fn encode_floats(buf: &mut String, values: &[f32]) {
    for chunk in values.chunks(16) {
        let mut first = true;
        for v in chunk {
            if !first {
                buf.push(' ');
            }
            let _ = write!(buf, "{v}");
            first = false;
        }
        buf.push('\n');
    }
    if values.is_empty() {
        buf.push('\n');
    }
}

fn encode_linear(buf: &mut String, l: &Linear) {
    buf.push_str(&format!("linear {} {}\n", l.out_dim(), l.in_dim()));
    encode_floats(buf, l.w().data());
    encode_floats(buf, &l.b);
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
    let w = r.floats(len)?;
    let b = r.floats(out)?;
    Ok(Linear::from_parts(Mat::from_vec(out, inp, w), b))
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

/// Appends an [`Mlp`] section to a larger checkpoint buffer.
pub fn encode_mlp_into(buf: &mut String, net: &Mlp) {
    buf.push_str(&format!("mlp {}\n", net.num_layers()));
    for (i, l) in net.layers().iter().enumerate() {
        buf.push_str(&format!("act {}\n", act_name(net.activation(i))));
        encode_linear(buf, l);
    }
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
    encode_policy_into(&mut buf, p);
    buf
}

/// Appends a [`GaussianPolicy`] section to a larger checkpoint buffer.
pub fn encode_policy_into(buf: &mut String, p: &GaussianPolicy) {
    buf.push_str(&format!("policy {}\n", p.action_dim()));
    encode_mlp_into(buf, p.trunk());
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

/// Appends an [`Adam`](crate::adam::Adam) optimizer section — step counter,
/// hyper-parameters, and both moment buffers — to a checkpoint buffer.
/// Together with the network sections this lets a training snapshot resume
/// optimization bit-exactly.
pub fn encode_adam_into(buf: &mut String, opt: &crate::adam::Adam) {
    let (t, m, v) = opt.state();
    let c = opt.config;
    buf.push_str(&format!(
        "adam {ADAM_VERSION} {t} {} {} {} {} {} {}\n",
        m.len(),
        c.lr,
        c.beta1,
        c.beta2,
        c.eps,
        c.grad_clip
    ));
    for (ms, vs) in m.iter().zip(v) {
        buf.push_str(&format!("slice {}\n", ms.len()));
        encode_floats(buf, ms);
        encode_floats(buf, vs);
    }
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
    encode_pnn_into(&mut buf, p);
    buf
}

/// Appends a [`PnnPolicy`] section to a larger checkpoint buffer.
pub fn encode_pnn_into(buf: &mut String, p: &PnnPolicy) {
    buf.push_str(&format!("pnn {}\n", p.action_dim()));
    encode_policy_into(buf, p.base());
    let (column, laterals) = p.parts();
    buf.push_str(&format!("column {}\n", column.len()));
    for l in column {
        encode_linear(buf, l);
    }
    buf.push_str(&format!("laterals {}\n", laterals.len()));
    for l in laterals {
        encode_linear(buf, l);
    }
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
use drive_seed::fnv1a_64 as fnv1a64;

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

/// Writes checkpoint text to a file, creating parent directories.
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
/// Propagates I/O errors.
pub fn save_to_file(path: impl AsRef<Path>, text: &str) -> Result<(), CheckpointError> {
    let path = path.as_ref();
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    let staged = stage(path, text)?;
    if let Err(e) = staged.file.sync_data() {
        let _ = fs::remove_file(&staged.path);
        return Err(CheckpointError::Io(e));
    }
    fs::rename(&staged.path, path)?;
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

/// A checkpoint written to its temporary sibling but not yet synced or
/// renamed into place (see [`stage`]).
#[derive(Debug)]
pub struct Staged {
    /// The temporary, `<name>.tmp` next to the final path.
    pub path: PathBuf,
    /// The temporary, still open: `sync_data` on it makes the text
    /// durable.
    pub file: fs::File,
    /// The FNV-1a hash of the newline-terminated text, as the checksum
    /// line records it.
    pub checksum: u64,
}

/// The first half of [`save_to_file`]: writes `text` and its `checksum`
/// line to `path`'s temporary sibling, unsynced. A caller that publishes
/// several files syncs each temporary, renames each into place, and then
/// syncs their directory once.
///
/// # Errors
///
/// Propagates I/O errors; a temporary that could not be written whole is
/// removed.
pub fn stage(path: &Path, text: &str) -> Result<Staged, CheckpointError> {
    // The body is written as is, then the checksum line: a large body
    // (a training snapshot) is never copied.
    let owned;
    let body = if text.ends_with('\n') {
        text
    } else {
        owned = format!("{text}\n");
        &owned
    };
    let checksum = fnv1a64(body.as_bytes());
    let checksum_line = format!("{CHECKSUM_TAG}{checksum:016x}\n");
    let file_name = path.file_name().ok_or_else(|| {
        CheckpointError::Io(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "checkpoint path has no file name",
        ))
    })?;
    let tmp = path.with_file_name(format!("{}.tmp", file_name.to_string_lossy()));
    use std::io::Write as _;
    let mut file = fs::File::create(&tmp)?;
    if let Err(e) = file
        .write_all(body.as_bytes())
        .and_then(|()| file.write_all(checksum_line.as_bytes()))
    {
        drop(file);
        let _ = fs::remove_file(&tmp);
        return Err(CheckpointError::Io(e));
    }
    Ok(Staged {
        path: tmp,
        file,
        checksum,
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
    verify_and_strip_checksum(fs::read_to_string(path)?)
}

fn verify_and_strip_checksum(raw: String) -> Result<String, CheckpointError> {
    let trimmed = raw.trim_end_matches('\n');
    let (body_end, last_line) = match trimmed.rfind('\n') {
        Some(idx) => (idx + 1, &trimmed[idx + 1..]),
        None => (0, trimmed),
    };
    let Some(hex) = last_line.strip_prefix(CHECKSUM_TAG) else {
        // Legacy checkpoint without an integrity line.
        return Ok(raw);
    };
    let expected = u64::from_str_radix(hex.trim(), 16)
        .map_err(|_| parse_err(format!("unreadable checksum line '{last_line}'")))?;
    let body = &raw[..body_end];
    let found = fnv1a64(body.as_bytes());
    if found != expected {
        return Err(CheckpointError::Corrupt { expected, found });
    }
    Ok(body.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gaussian::randn_mat;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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
        encode_mlp_into(&mut buf, net);
        buf
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
        let noise = randn_mat(3, 2, &mut rng);
        let s1 = p.sample_with_noise(&obs, noise.clone());
        let s2 = back.sample_with_noise(&obs, noise);
        assert_eq!(s1.log_prob(), s2.log_prob());
        Ok(())
    }

    #[test]
    fn pnn_round_trip() -> Result<(), CheckpointError> {
        let mut rng = StdRng::seed_from_u64(3);
        let base = GaussianPolicy::new(4, &[8, 8], 1, &mut rng);
        let pnn = random_pnn(base, &mut rng);
        let back = decode_pnn(&encode_pnn(&pnn))?;
        let obs = Mat::from_vec(2, 4, (0..8).map(|i| (i as f32 * 0.2).cos()).collect());
        assert_eq!(pnn.mean_action(&obs), back.mean_action(&obs));
        // Base column preserved too.
        assert_eq!(pnn.base().mean_action(&obs), back.base().mean_action(&obs));
        Ok(())
    }

    #[test]
    fn file_round_trip() -> Result<(), CheckpointError> {
        let mut rng = StdRng::seed_from_u64(4);
        let p = GaussianPolicy::new(3, &[8], 1, &mut rng);
        let dir = std::env::temp_dir().join("drive-nn-test");
        let path = dir.join("policy.ckpt");
        save_to_file(&path, &encode_policy(&p))?;
        let text = load_from_file(&path)?;
        let back = decode_policy(&text)?;
        let obs = Mat::from_row(&[0.1, 0.2, 0.3]);
        assert_eq!(p.mean_action(&obs), back.mean_action(&obs));
        let _ = std::fs::remove_dir_all(&dir);
        Ok(())
    }

    #[test]
    fn saved_file_carries_verified_checksum() -> Result<(), CheckpointError> {
        let dir = std::env::temp_dir().join("drive-nn-checksum-test");
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
        let dir = std::env::temp_dir().join("drive-nn-legacy-test");
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
        encode_adam_into(&mut buf, &opt);
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
        encode_adam_into(&mut buf, &opt);
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
        let dir = std::env::temp_dir().join("drive-nn-durable-test");
        let _ = std::fs::remove_dir_all(&dir);
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
