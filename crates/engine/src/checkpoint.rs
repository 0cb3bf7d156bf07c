//! The checkpoint layer: snapshot serialization through `ac-bitio`,
//! in two frame kinds — **full** checkpoints and **incremental deltas**.
//!
//! A checkpoint is a byte buffer holding a versioned fixed-width header
//! followed by a section count and one length-prefixed
//! [`ac_bitio::frame`] section per *written* shard. Counter states are
//! written with the families' [`StateCodec`] codes and keys as Rice-coded
//! sorted gaps, so a million checkpointed counters cost on the order of
//! their summed `state_bits` — the paper's thesis, made durable — rather
//! than a million fixed-width records. Each written shard's RNG state
//! rides along (256 bits), so a restored engine continues the *exact*
//! random stream the original would have: checkpoint/restore is invisible
//! to subsequent evolution, not merely distribution-preserving.
//!
//! ```text
//! magic(32) version(16) kind(8) fingerprint(64) shards(32) seed(64)
//! epoch(64) parent_chain(64) keys(64) events(64) payload_bits(64)
//! header_checksum(64) payload_checksum(64)
//! ┌ payload ─────────────────────────────────────────────────┐
//! │ sections(32)                                             │
//! │ ┌ per written shard ─────────────────────────────────┐   │
//! │ │ shard_idx(32) section_len(32) │ count(δ)           │   │
//! │ │                               │ events(64) rng(4×64)│  │
//! │ │                               │ keys: rice gaps    │   │
//! │ │                               │ states: StateCodec │   │
//! │ └────────────────────────────────────────────────────┘   │
//! └──────────────────────────────────────────────────────────┘
//! ```
//!
//! ## Delta chains
//!
//! A **full** checkpoint (`kind = 0`) writes every shard. A **delta**
//! (`kind = 1`, written by [`checkpoint_delta`]) writes only the shards
//! whose [dirty epoch](crate::EngineStats::dirty_shards) is newer than
//! its *parent* checkpoint's freeze epoch — `O(dirty data)` bytes instead
//! of `O(total keys)`. The parent is identified by a **chained
//! checksum**: every checkpoint's identity is a 64-bit digest of its own
//! header and payload checksums ([`CheckpointHeader::chain`]), and a
//! delta's header stores its parent's digest in `parent_chain`.
//! [`restore_checkpoint_chain`] refuses a chain whose links don't match —
//! a delta can never be applied to the wrong base, out of order, or
//! across a divergent history, because any of those changes the parent's
//! bytes and therefore its digest.
//!
//! Corruption behavior mid-chain: every segment carries its own header
//! and payload checksums, verified before parsing, so a truncated or
//! bit-flipped delta surfaces as a typed error naming that segment's
//! failure ([`CheckpointError::Truncated`] / [`CheckpointError::Corrupt`])
//! rather than poisoning the fold. The residual trust boundary is
//! deliberate: input that *passes* both checksums is treated as written
//! by this module, so a deliberately crafted checksum-valid buffer may
//! still abort inside a state decoder rather than return `Err`.

use crate::registry::{CounterEngine, EngineConfig};
use crate::shard::Shard;
use crate::snapshot::EngineSnapshot;
use ac_bitio::frame::{
    begin_indexed_section, decode_sorted_keys, encode_sorted_keys, end_section,
    read_indexed_section,
};
use ac_bitio::{BitReader, BitVec, BitWriter};
use ac_core::{CoreError, StateCodec};
use ac_randkit::Xoshiro256PlusPlus;
use std::fmt;
use std::sync::Arc;

/// `"ACKP"` — approximate-counting checkpoint.
pub const CHECKPOINT_MAGIC: u32 = 0x4143_4B50;

/// Base format version (2: copy-on-write epochs, delta frames, chained
/// headers; version-1 buffers are refused with a typed error). Written
/// for every untiered engine, so pre-tiering readers and byte-level
/// golden tests are unaffected by the tier machinery.
pub const CHECKPOINT_VERSION: u16 = 2;

/// Tiered format version (3): identical to version 2 except that each
/// shard section carries a sparse per-key tier-tag block *before* its
/// states (a state can only be decoded by its own tier's template), and
/// the header fingerprint covers the whole ladder of templates via
/// [`combined_fingerprint`]. Written by [`checkpoint_snapshot_with`] /
/// [`checkpoint_delta_with`]; version-2 frames restore through the same
/// `_with` readers with every key in tier 0.
pub const CHECKPOINT_VERSION_TIERED: u16 = 3;

/// Domain separation for the ladder fingerprint fold, so a one-tier
/// ladder's combined fingerprint can never collide with the bare
/// template fingerprint version 2 stores.
const LADDER_FINGERPRINT_SALT: u64 = 0x7143_A90F_5EED_11E5;

/// The ladder-covering fingerprint version-3 headers store: an order-
/// sensitive [`ac_randkit::mix64`] fold over every tier template's own
/// parameter fingerprint. Restoring with a ladder that differs in any
/// tier's family or parameters — or in tier order — is refused up front
/// as a [`CheckpointError::ScheduleMismatch`].
#[must_use]
pub fn combined_fingerprint<C: StateCodec>(templates: &[C]) -> u64 {
    templates.iter().fold(LADDER_FINGERPRINT_SALT, |acc, t| {
        ac_randkit::mix64(acc ^ t.params_fingerprint())
    })
}

/// Width of the eleven header fields alone.
const HEADER_FIELD_BITS: u64 = 32 + 16 + 8 + 64 + 32 + 64 + 64 + 64 + 64 + 64 + 64;

/// Fixed header width in bits: the eleven fields, then a 64-bit header
/// checksum, then a 64-bit payload checksum (83 bytes total, so the
/// payload starts byte-aligned).
const HEADER_BITS: u64 = HEADER_FIELD_BITS + 64 + 64;

/// Byte offset of the payload checksum field.
const PAYLOAD_CHECKSUM_BYTE: usize = ((HEADER_FIELD_BITS + 64) / 8) as usize;

/// Byte offset of the first payload byte.
const PAYLOAD_BYTE: usize = (HEADER_BITS / 8) as usize;

/// Domain separation for the chain digest, so a chain id can never be
/// mistaken for either of the checksums it is derived from.
const CHAIN_SALT: u64 = 0xC4A1_4C4A_11CE_D51D;

/// What a checkpoint frame holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointKind {
    /// Every shard, self-contained.
    Full,
    /// Only shards dirtied since the parent checkpoint; restorable only
    /// through [`restore_checkpoint_chain`] on top of its parent.
    Delta,
}

impl CheckpointKind {
    fn to_bits(self) -> u64 {
        match self {
            CheckpointKind::Full => 0,
            CheckpointKind::Delta => 1,
        }
    }

    fn from_bits(bits: u64) -> Option<Self> {
        match bits {
            0 => Some(CheckpointKind::Full),
            1 => Some(CheckpointKind::Delta),
            _ => None,
        }
    }
}

/// The canonical [`ac_randkit::mix64`] finalizer chained over the header
/// fields: any header bit flip (past the magic/version prefix, which
/// carry their own typed errors) is caught before the payload is touched.
fn header_checksum(fields: &[u64]) -> u64 {
    let mut acc = 0x0C4E_C4B0_14E5_EEDC_u64;
    for &w in fields {
        acc = ac_randkit::mix64(acc ^ w);
    }
    acc
}

/// FNV-1a over the payload bytes: verified before any payload parsing, so
/// flipped payload bits surface as a typed [`CheckpointError::Corrupt`]
/// instead of feeding garbage to the self-delimiting decoders.
fn payload_checksum(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A checkpoint's chain identity: a digest of its two checksums, which
/// themselves cover every header field and every payload byte — so two
/// checkpoints share a chain id only if they are byte-identical (up to
/// 64-bit digest collisions).
fn chain_digest(header_sum: u64, payload_sum: u64) -> u64 {
    ac_randkit::mix64(header_sum ^ ac_randkit::mix64(payload_sum ^ CHAIN_SALT))
}

/// Why a restore was refused.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CheckpointError {
    /// The buffer does not start with [`CHECKPOINT_MAGIC`].
    BadMagic,
    /// The format version is not one this build reads.
    UnsupportedVersion {
        /// The version found in the header.
        got: u16,
    },
    /// The template's family/parameter fingerprint does not match the
    /// one the checkpoint was written with.
    ScheduleMismatch,
    /// The caller pinned an expected [`EngineConfig`] and the header
    /// disagrees.
    ConfigMismatch {
        /// The configuration the caller expected.
        expected: EngineConfig,
        /// The configuration in the header.
        got: EngineConfig,
    },
    /// A delta checkpoint was handed to [`restore_checkpoint`]; deltas
    /// only restore through [`restore_checkpoint_chain`] on their base.
    DeltaWithoutBase,
    /// The delta chain is broken: wrong parent digest, wrong order, a
    /// non-full first segment, or a mid-chain kind violation.
    BadChain {
        /// Human-readable description.
        what: &'static str,
    },
    /// The buffer ends before the structure it promises.
    Truncated,
    /// A structural invariant does not hold (lengths, totals, RNG state).
    Corrupt {
        /// Human-readable description.
        what: &'static str,
    },
    /// A counter state failed its family's validity checks on decode.
    State(CoreError),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::BadMagic => write!(f, "not a checkpoint (bad magic)"),
            CheckpointError::UnsupportedVersion { got } => {
                write!(f, "unsupported checkpoint version {got}")
            }
            CheckpointError::ScheduleMismatch => write!(
                f,
                "template family/parameters do not match the checkpoint's fingerprint"
            ),
            CheckpointError::ConfigMismatch { expected, got } => write!(
                f,
                "engine config mismatch: expected {expected:?}, checkpoint has {got:?}"
            ),
            CheckpointError::DeltaWithoutBase => write!(
                f,
                "delta checkpoint cannot restore alone; fold it with restore_checkpoint_chain"
            ),
            CheckpointError::BadChain { what } => write!(f, "broken checkpoint chain: {what}"),
            CheckpointError::Truncated => write!(f, "checkpoint is truncated"),
            CheckpointError::Corrupt { what } => write!(f, "checkpoint is corrupt: {what}"),
            CheckpointError::State(e) => write!(f, "checkpoint holds an invalid state: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<CoreError> for CheckpointError {
    fn from(e: CoreError) -> Self {
        CheckpointError::State(e)
    }
}

/// Size accounting for one written checkpoint — the receipt proving
/// counters persist at ~their `state_bits` (and deltas at ~their *dirty*
/// state bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct CheckpointStats {
    /// Counters written into this frame (all keys for a full checkpoint;
    /// dirty shards' keys for a delta).
    pub keys: u64,
    /// Engine shard count (the header value, not the sections written).
    pub shards: usize,
    /// Shard sections actually serialized: `shards` for a full
    /// checkpoint, the dirty-shard count for a delta.
    pub shards_written: usize,
    /// Sum of live [`state_bits`](ac_bitio::StateBits::state_bits) over
    /// every written counter — for a full checkpoint, by construction
    /// identical to
    /// [`EngineStats::state_bits_total`](crate::EngineStats::state_bits_total)
    /// at freeze time (a test pins this).
    pub counter_state_bits: u64,
    /// Bits spent on encoded counter states.
    pub state_code_bits: u64,
    /// Bits spent on the Rice-coded key sets.
    pub key_bits: u64,
    /// Bits spent on framing: the fixed header plus per-shard section
    /// preambles (lengths, shard indices, counts, event tallies, RNG
    /// states).
    pub header_bits: u64,
    /// Total checkpoint size in bits (= the three parts above).
    pub total_bits: u64,
}

impl CheckpointStats {
    /// Serialized size in bytes.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.total_bits.div_ceil(8)
    }
}

/// A written checkpoint: the serialized bytes plus their size breakdown
/// and parsed header (including the chain digest future deltas cite).
#[derive(Debug, Clone)]
pub struct Checkpoint {
    bytes: Vec<u8>,
    stats: CheckpointStats,
    header: CheckpointHeader,
}

impl Checkpoint {
    /// The serialized checkpoint, ready for disk or the wire.
    #[must_use]
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Consumes the checkpoint, returning the bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// The size breakdown.
    #[must_use]
    pub fn stats(&self) -> CheckpointStats {
        self.stats
    }

    /// The parsed header — pass it to [`checkpoint_delta`] as the parent
    /// of the next incremental frame.
    #[must_use]
    pub fn header(&self) -> CheckpointHeader {
        self.header
    }
}

/// The parsed fixed header of a checkpoint (a cheap peek — no payload is
/// touched beyond its checksum field).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointHeader {
    /// Format version.
    pub version: u16,
    /// Full or delta frame.
    pub kind: CheckpointKind,
    /// Family/parameter fingerprint of the written counters.
    pub params_fingerprint: u64,
    /// The engine configuration at freeze time.
    pub config: EngineConfig,
    /// The freeze epoch the snapshot was cut at — a delta against this
    /// checkpoint serializes exactly the shards dirtied after it.
    pub epoch: u64,
    /// Chain digest of the parent checkpoint (0 for a full frame).
    pub parent_chain: u64,
    /// Total keys in the engine at freeze time (the whole engine, even
    /// for a delta frame).
    pub keys: u64,
    /// Total events at freeze time (likewise whole-engine).
    pub events: u64,
    /// Payload length in bits (everything after the fixed header).
    pub payload_bits: u64,
    /// This checkpoint's own chain digest — what a child delta must cite
    /// as `parent_chain`.
    pub chain: u64,
}

/// How many workers to actually use for `items` independent units of
/// work covering `keys` total keys. `requested == 0` means "auto": one
/// thread per available core, but only once the engine is big enough
/// (≥ 4096 keys) for fan-out to beat its setup cost. An explicit
/// `requested == 1` forces the serial path; explicit larger values are
/// honored, capped at the unit count. The choice never changes the
/// produced bytes or state — only who produces them.
fn effective_workers(requested: usize, items: usize, keys: u64) -> usize {
    const AUTO_MIN_KEYS: u64 = 4096;
    let cap = items.max(1);
    match requested {
        0 => {
            if keys < AUTO_MIN_KEYS {
                1
            } else {
                std::thread::available_parallelism()
                    .map(std::num::NonZeroUsize::get)
                    .unwrap_or(1)
                    .min(cap)
            }
        }
        n => n.min(cap),
    }
}

/// Serializes a snapshot into a self-contained full [`Checkpoint`]
/// (version 2). Shard sections are encoded in parallel when the engine
/// is large enough; the bytes are identical to the serial encoder's.
///
/// # Panics
///
/// Panics if the engine carries non-default tier tags — version 2 has
/// nowhere to put them; use [`checkpoint_snapshot_with`] instead.
#[must_use]
pub fn checkpoint_snapshot<C: StateCodec + Clone + Send + Sync + 'static>(
    snap: &EngineSnapshot<C>,
) -> Checkpoint {
    checkpoint_snapshot_workers(snap, 0)
}

/// [`checkpoint_snapshot`] with an explicit encode worker count: `0`
/// picks one per core (engaged only for large engines), `1` forces the
/// serial encoder, larger values are capped at the shard count. Every
/// choice produces bit-identical frames — a property test pins this.
#[must_use]
pub fn checkpoint_snapshot_workers<C: StateCodec + Clone + Send + Sync + 'static>(
    snap: &EngineSnapshot<C>,
    workers: usize,
) -> Checkpoint {
    let all: Vec<usize> = (0..snap.shards.len()).collect();
    write_checkpoint(snap, None, CheckpointKind::Full, 0, &all, workers)
}

/// Serializes a tiered snapshot into a self-contained full version-3
/// [`Checkpoint`]: per-key tier tags ride in each shard section and the
/// header fingerprint covers the whole `templates` ladder (tier →
/// template, `templates[0]` the default tier). Restore through
/// [`restore_checkpoint_chain_with`] with the same ladder.
#[must_use]
pub fn checkpoint_snapshot_with<C: StateCodec + Clone + Send + Sync + 'static>(
    snap: &EngineSnapshot<C>,
    templates: &[C],
) -> Checkpoint {
    checkpoint_snapshot_with_workers(snap, templates, 0)
}

/// [`checkpoint_snapshot_with`] with an explicit encode worker count
/// (see [`checkpoint_snapshot_workers`] for the contract).
#[must_use]
pub fn checkpoint_snapshot_with_workers<C: StateCodec + Clone + Send + Sync + 'static>(
    snap: &EngineSnapshot<C>,
    templates: &[C],
    workers: usize,
) -> Checkpoint {
    assert!(!templates.is_empty(), "need at least the default template");
    let all: Vec<usize> = (0..snap.shards.len()).collect();
    write_checkpoint(
        snap,
        Some(templates),
        CheckpointKind::Full,
        0,
        &all,
        workers,
    )
}

/// Serializes only the shards dirtied since `parent` — an incremental
/// frame restorable on top of its parent via [`restore_checkpoint_chain`].
/// `O(dirty data)` bytes; a delta after touching 1 % of shards costs ~1 %
/// of the full checkpoint.
///
/// # Errors
///
/// * [`CheckpointError::ScheduleMismatch`] — the parent was written by a
///   different counter family or parameter schedule;
/// * [`CheckpointError::ConfigMismatch`] — the parent belongs to an
///   engine with a different shard count or seed;
/// * [`CheckpointError::BadChain`] — the parent's freeze epoch is not
///   strictly older than the snapshot's. A delta must look *back* at its
///   parent; the strict ordering also refuses the common
///   different-lineage accident (a freshly built engine with the same
///   config and schedule, whose epoch clock restarted at 1, citing an
///   older engine's checkpoint as parent). A same-config engine whose
///   epoch clock happens to have advanced *past* the parent's is
///   indistinguishable from the parent's own future without a lineage
///   identity — keep one chain per engine.
pub fn checkpoint_delta<C: StateCodec + Clone + Send + Sync + 'static>(
    snap: &EngineSnapshot<C>,
    parent: &CheckpointHeader,
) -> Result<Checkpoint, CheckpointError> {
    checkpoint_delta_inner(snap, None, parent)
}

/// [`checkpoint_delta`] for tiered engines: writes a version-3 delta
/// whose dirty shard sections carry per-key tier tags. The parent may be
/// a version-2 frame (the chain that was cut before tiering was turned
/// on) or another version-3 frame — both fingerprints are accepted.
///
/// # Errors
///
/// Everything [`checkpoint_delta`] returns.
pub fn checkpoint_delta_with<C: StateCodec + Clone + Send + Sync + 'static>(
    snap: &EngineSnapshot<C>,
    templates: &[C],
    parent: &CheckpointHeader,
) -> Result<Checkpoint, CheckpointError> {
    assert!(!templates.is_empty(), "need at least the default template");
    checkpoint_delta_inner(snap, Some(templates), parent)
}

fn checkpoint_delta_inner<C: StateCodec + Clone + Send + Sync + 'static>(
    snap: &EngineSnapshot<C>,
    templates: Option<&[C]>,
    parent: &CheckpointHeader,
) -> Result<Checkpoint, CheckpointError> {
    let fingerprint_ok = match templates {
        None => parent.params_fingerprint == snap.template.params_fingerprint(),
        // A tiered delta may extend a pre-tiering (version 2) chain: its
        // parent then carries the bare default-template fingerprint.
        Some(t) => {
            parent.params_fingerprint == combined_fingerprint(t)
                || parent.params_fingerprint == t[0].params_fingerprint()
        }
    };
    if !fingerprint_ok {
        return Err(CheckpointError::ScheduleMismatch);
    }
    if parent.config != snap.config() {
        return Err(CheckpointError::ConfigMismatch {
            expected: snap.config(),
            got: parent.config,
        });
    }
    if parent.epoch >= snap.epoch() {
        return Err(CheckpointError::BadChain {
            what: "parent freeze epoch is not strictly older than the snapshot",
        });
    }
    let dirty: Vec<usize> = snap
        .shards
        .iter()
        .enumerate()
        .filter(|(_, s)| s.dirty_epoch() > parent.epoch)
        .map(|(i, _)| i)
        .collect();
    Ok(write_checkpoint(
        snap,
        templates,
        CheckpointKind::Delta,
        parent.chain,
        &dirty,
        0,
    ))
}

/// Size accounting for one encoded shard section, accumulated into the
/// frame-level [`CheckpointStats`].
#[derive(Default, Clone, Copy)]
struct SectionTally {
    keys: u64,
    key_bits: u64,
    state_code_bits: u64,
    counter_state_bits: u64,
}

impl SectionTally {
    fn absorb(&mut self, other: SectionTally) {
        self.keys += other.keys;
        self.key_bits += other.key_bits;
        self.state_code_bits += other.state_code_bits;
        self.counter_state_bits += other.counter_state_bits;
    }
}

/// Encodes one shard as a complete indexed section (index, length
/// prefix, preamble, keys, optional tier tags, states) appended to `v`.
/// The emitted bit stream is position-independent, so a section encoded
/// into a fresh vector on a worker thread splices into the frame
/// byte-identically to one encoded in place — the property the parallel
/// encoder rests on.
fn encode_section_into<C: StateCodec + Clone>(
    v: &mut BitVec,
    shard: &Shard<C>,
    idx: usize,
    tiered: bool,
) -> SectionTally {
    let mut tally = SectionTally::default();
    let section = begin_indexed_section(v, idx as u64);
    // Per-shard preamble: count, exact events, RNG state.
    {
        let mut w = BitWriter::new(v);
        ac_bitio::codes::encode_delta0(&mut w, shard.len() as u64);
        w.write_bits(shard.events(), 64);
        for word in shard.rng().state() {
            w.write_bits(word, 64);
        }
    }
    // Keys sorted ascending, gap-coded; states follow in key order.
    let mut entries: Vec<(u64, &C, u8)> = shard.entries_tagged().collect();
    entries.sort_unstable_by_key(|&(key, _, _)| key);
    let keys: Vec<u64> = entries.iter().map(|&(key, _, _)| key).collect();
    tally.keys = keys.len() as u64;
    tally.key_bits = encode_sorted_keys(v, &keys);
    if tiered {
        // Version 3: sparse tier-tag block, *before* the states — a
        // state can only be decoded by its own tier's template.
        // Layout: delta0(tagged count), then per tagged key, in key
        // order: delta0(position gap) + tier(8). Position gaps are
        // 1-based after the first entry so delta0 never sees a zero
        // mid-stream.
        let tagged: Vec<(u64, u8)> = entries
            .iter()
            .enumerate()
            .filter(|(_, &(_, _, tier))| tier != 0)
            .map(|(pos, &(_, _, tier))| (pos as u64, tier))
            .collect();
        let mut w = BitWriter::new(v);
        ac_bitio::codes::encode_delta0(&mut w, tagged.len() as u64);
        let mut prev = 0u64;
        for (i, &(pos, tier)) in tagged.iter().enumerate() {
            let gap = if i == 0 { pos } else { pos - prev - 1 };
            ac_bitio::codes::encode_delta0(&mut w, gap);
            w.write_bits(u64::from(tier), 8);
            prev = pos;
        }
    } else {
        assert!(
            entries.iter().all(|&(_, _, tier)| tier == 0),
            "engine carries tier tags; version 2 cannot represent them \
             — checkpoint with checkpoint_snapshot_with/checkpoint_delta_with"
        );
    }
    let before = v.len();
    {
        let mut w = BitWriter::new(v);
        for (_, counter, _) in &entries {
            counter.encode_state(&mut w);
            tally.counter_state_bits += counter.state_bits();
        }
    }
    tally.state_code_bits = v.len() - before;
    end_section(v, section);
    tally
}

/// The single writer behind both frame kinds and both versions:
/// serializes the shards named by `indices` (ascending) under the given
/// kind and parent digest. `templates` selects the format: `None` writes
/// version 2 (and panics on non-default tier tags, which it cannot
/// represent); `Some(ladder)` writes version 3 with per-section tag
/// blocks and the ladder-covering fingerprint. `workers` steers section
/// encoding (0 = auto): with more than one worker, sections are encoded
/// into per-worker vectors and spliced in order with [`BitVec::append`],
/// so checksums, chain digests, and every committed byte are identical
/// to the serial path.
fn write_checkpoint<C: StateCodec + Clone + Send + Sync + 'static>(
    snap: &EngineSnapshot<C>,
    templates: Option<&[C]>,
    kind: CheckpointKind,
    parent_chain: u64,
    indices: &[usize],
    workers: usize,
) -> Checkpoint {
    let (version, fingerprint) = match templates {
        None => (CHECKPOINT_VERSION, snap.template.params_fingerprint()),
        Some(t) => (CHECKPOINT_VERSION_TIERED, combined_fingerprint(t)),
    };
    let mut v = BitVec::new();
    // Fixed header; the payload length is patched in at the end.
    v.push_bits(u64::from(CHECKPOINT_MAGIC), 32);
    v.push_bits(u64::from(version), 16);
    v.push_bits(kind.to_bits(), 8);
    v.push_bits(fingerprint, 64);
    let config = snap.config();
    v.push_bits(config.shards as u64, 32);
    v.push_bits(config.seed, 64);
    v.push_bits(snap.epoch(), 64);
    v.push_bits(parent_chain, 64);
    v.push_bits(snap.len() as u64, 64);
    v.push_bits(snap.total_events(), 64);
    let payload_len_at = v.len();
    v.push_bits(0, 64); // payload length, patched below
    let header_checksum_at = v.len();
    v.push_bits(0, 64); // header checksum, patched below
    v.push_bits(0, 64); // payload checksum, patched into the bytes below

    v.push_bits(indices.len() as u64, 32);
    let tiered = templates.is_some();
    let mut tally = SectionTally::default();
    let n_workers = effective_workers(workers, indices.len(), snap.len() as u64);
    if n_workers <= 1 {
        for &idx in indices {
            tally.absorb(encode_section_into(&mut v, &snap.shards[idx], idx, tiered));
        }
    } else {
        // Persistent-pool fan-out (`pool::fan_out`): workers claim
        // section positions off a shared counter and encode into fresh
        // vectors (shard sizes are skewed, so static striping would
        // leave threads idle behind the heaviest shard). Sections then
        // splice into the frame in original position order, reproducing
        // the serial byte stream exactly.
        let work: Vec<(usize, Arc<Shard<C>>)> = indices
            .iter()
            .map(|&idx| (idx, Arc::clone(&snap.shards[idx])))
            .collect();
        let mut encoded = crate::pool::fan_out(n_workers, work.len(), move |pos| {
            let (idx, shard) = &work[pos];
            let mut section = BitVec::new();
            let t = encode_section_into(&mut section, shard, *idx, tiered);
            (section, t)
        });
        encoded.sort_unstable_by_key(|&(pos, _)| pos);
        for (_, (section, t)) in &encoded {
            v.append(section);
            tally.absorb(*t);
        }
    }
    let SectionTally {
        keys: keys_written,
        key_bits,
        state_code_bits,
        counter_state_bits,
    } = tally;
    let total = v.len();
    let payload_bits = total - HEADER_BITS;
    v.overwrite_bits(payload_len_at, payload_bits, 64);
    let header_sum = header_checksum(&[
        u64::from(CHECKPOINT_MAGIC),
        u64::from(version),
        kind.to_bits(),
        fingerprint,
        config.shards as u64,
        config.seed,
        snap.epoch(),
        parent_chain,
        snap.len() as u64,
        snap.total_events(),
        payload_bits,
    ]);
    v.overwrite_bits(header_checksum_at, header_sum, 64);
    let mut bytes = v.to_bytes();
    let payload_sum = payload_checksum(&bytes[PAYLOAD_BYTE..]);
    bytes[PAYLOAD_CHECKSUM_BYTE..PAYLOAD_BYTE].copy_from_slice(&payload_sum.to_le_bytes());

    let stats = CheckpointStats {
        keys: keys_written,
        shards: snap.shards.len(),
        shards_written: indices.len(),
        counter_state_bits,
        state_code_bits,
        key_bits,
        header_bits: total - state_code_bits - key_bits,
        total_bits: total,
    };
    let header = CheckpointHeader {
        version,
        kind,
        params_fingerprint: fingerprint,
        config,
        epoch: snap.epoch(),
        parent_chain,
        keys: snap.len() as u64,
        events: snap.total_events(),
        payload_bits,
        chain: chain_digest(header_sum, payload_sum),
    };
    Checkpoint {
        bytes,
        stats,
        header,
    }
}

/// Parses and validates the fixed header. Only the 83 fixed header
/// bytes are read, so peeking at a multi-MB frame costs the same as
/// peeking at an empty one.
///
/// # Errors
///
/// Returns the corresponding [`CheckpointError`] for a short buffer, bad
/// magic, an unsupported version, an unknown kind, or a checksum
/// mismatch.
pub fn read_header(bytes: &[u8]) -> Result<CheckpointHeader, CheckpointError> {
    let v = BitVec::from_bytes(&bytes[..bytes.len().min(PAYLOAD_BYTE)]);
    let mut r = BitReader::new(&v);
    let magic = r.try_read_bits(32).ok_or(CheckpointError::Truncated)?;
    if magic != u64::from(CHECKPOINT_MAGIC) {
        return Err(CheckpointError::BadMagic);
    }
    let version = r.try_read_bits(16).ok_or(CheckpointError::Truncated)? as u16;
    if version != CHECKPOINT_VERSION && version != CHECKPOINT_VERSION_TIERED {
        return Err(CheckpointError::UnsupportedVersion { got: version });
    }
    let kind_bits = r.try_read_bits(8).ok_or(CheckpointError::Truncated)?;
    let kind = CheckpointKind::from_bits(kind_bits).ok_or(CheckpointError::Corrupt {
        what: "unknown checkpoint kind",
    })?;
    let params_fingerprint = r.try_read_bits(64).ok_or(CheckpointError::Truncated)?;
    let shards = r.try_read_bits(32).ok_or(CheckpointError::Truncated)? as usize;
    let seed = r.try_read_bits(64).ok_or(CheckpointError::Truncated)?;
    let epoch = r.try_read_bits(64).ok_or(CheckpointError::Truncated)?;
    let parent_chain = r.try_read_bits(64).ok_or(CheckpointError::Truncated)?;
    let keys = r.try_read_bits(64).ok_or(CheckpointError::Truncated)?;
    let events = r.try_read_bits(64).ok_or(CheckpointError::Truncated)?;
    let payload_bits = r.try_read_bits(64).ok_or(CheckpointError::Truncated)?;
    let stored_sum = r.try_read_bits(64).ok_or(CheckpointError::Truncated)?;
    let computed = header_checksum(&[
        magic,
        u64::from(version),
        kind_bits,
        params_fingerprint,
        shards as u64,
        seed,
        epoch,
        parent_chain,
        keys,
        events,
        payload_bits,
    ]);
    if stored_sum != computed {
        return Err(CheckpointError::Corrupt {
            what: "header checksum mismatch",
        });
    }
    if shards == 0 {
        return Err(CheckpointError::Corrupt {
            what: "zero shards",
        });
    }
    let payload_sum = r.try_read_bits(64).ok_or(CheckpointError::Truncated)?;
    Ok(CheckpointHeader {
        version,
        kind,
        params_fingerprint,
        config: EngineConfig { shards, seed },
        epoch,
        parent_chain,
        keys,
        events,
        payload_bits,
        chain: chain_digest(stored_sum, payload_sum),
    })
}

/// One decoded shard section body. `tiers` is parallel to `entries`
/// when any key carries a non-default tier, and empty otherwise (the
/// all-default case costs nothing).
struct ShardSection<C> {
    rng: Xoshiro256PlusPlus,
    events: u64,
    entries: Vec<(u64, C)>,
    tiers: Vec<u8>,
}

/// Verifies a checkpoint's payload checksum and parses its shard
/// sections into restored shards (each stamped with the header's freeze
/// epoch as its dirty epoch). Shared by the lone-restore and
/// chain-restore paths; all structural validation happens here.
/// `templates` is the tier ladder (rung 0 = default); a version-2 frame
/// uses only rung 0 and must carry its bare fingerprint, a version-3
/// frame must carry the fingerprint covering the whole ladder.
///
/// Decoding runs in two phases: a cheap sequential boundary scan over
/// the length-prefixed sections (which also proves the payload length
/// adds up), then per-section decoding — fanned out across `workers`
/// threads (0 = auto) since sections are self-contained. Errors keep
/// the serial path's precedence: the first failing section in frame
/// order names the error.
fn parse_sections<C: StateCodec + Clone + Send + Sync + 'static>(
    templates: &[C],
    bytes: &[u8],
    header: &CheckpointHeader,
    workers: usize,
) -> Result<Vec<(usize, Shard<C>)>, CheckpointError> {
    let expected_fingerprint = if header.version == CHECKPOINT_VERSION {
        templates[0].params_fingerprint()
    } else {
        combined_fingerprint(templates)
    };
    if header.params_fingerprint != expected_fingerprint {
        return Err(CheckpointError::ScheduleMismatch);
    }
    if bytes.len() < PAYLOAD_BYTE {
        return Err(CheckpointError::Truncated);
    }
    // Length checks first (truncation is its own condition), then the
    // payload checksum, then — and only then — parsing.
    let available_bits = (bytes.len() - PAYLOAD_BYTE) as u64 * 8;
    if available_bits < header.payload_bits {
        return Err(CheckpointError::Truncated);
    }
    if available_bits - header.payload_bits >= 8 {
        return Err(CheckpointError::Corrupt {
            what: "trailing bytes after payload",
        });
    }
    let stored_sum = u64::from_le_bytes(
        bytes[PAYLOAD_CHECKSUM_BYTE..PAYLOAD_BYTE]
            .try_into()
            .expect("eight checksum bytes"),
    );
    if stored_sum != payload_checksum(&bytes[PAYLOAD_BYTE..]) {
        return Err(CheckpointError::Corrupt {
            what: "payload checksum mismatch",
        });
    }
    let v = BitVec::from_bytes(bytes);
    let mut r = BitReader::at(&v, HEADER_BITS);

    let sections = r.try_read_bits(32).ok_or(CheckpointError::Truncated)? as usize;
    match header.kind {
        CheckpointKind::Full if sections != header.config.shards => {
            return Err(CheckpointError::Corrupt {
                what: "full checkpoint must hold every shard",
            });
        }
        CheckpointKind::Delta if sections > header.config.shards => {
            return Err(CheckpointError::Corrupt {
                what: "delta holds more sections than shards",
            });
        }
        _ => {}
    }
    // Plausibility bound before any sizing decision: every shard section
    // costs at least 32 (length prefix) + 32 (shard index) + 1 (count) +
    // 64 (events) + 256 (RNG) bits, so a section count the payload cannot
    // possibly hold is structural corruption, not something to allocate
    // for.
    const MIN_SHARD_SECTION_BITS: u64 = 32 + 32 + 1 + 64 + 256;
    if sections as u64 > header.payload_bits / MIN_SHARD_SECTION_BITS + 1 {
        return Err(CheckpointError::Corrupt {
            what: "section count exceeds what the payload can hold",
        });
    }

    // Phase 1: boundary scan. `read_indexed_section` proves the whole
    // section body is present, so skipping to `start + len` stays in
    // bounds and the per-section decoders can run independently.
    let mut bounds: Vec<(usize, u64, u64)> = Vec::with_capacity(sections);
    for _ in 0..sections {
        let (idx, section_len) = read_indexed_section(&mut r).ok_or(CheckpointError::Truncated)?;
        let idx = idx as usize;
        if idx >= header.config.shards {
            return Err(CheckpointError::Corrupt {
                what: "shard index out of range",
            });
        }
        if let Some(&(prev_idx, _, _)) = bounds.last() {
            if idx <= prev_idx {
                return Err(CheckpointError::Corrupt {
                    what: "shard indices must be strictly increasing",
                });
            }
        }
        let start = r.position();
        bounds.push((idx, start, section_len));
        r = BitReader::at(&v, start + section_len);
    }
    if r.position() - HEADER_BITS != header.payload_bits {
        return Err(CheckpointError::Corrupt {
            what: "payload length mismatch",
        });
    }

    // Phase 2: decode every section body, shard-parallel when asked.
    let n_workers = effective_workers(workers, bounds.len(), header.keys);
    if n_workers <= 1 {
        let mut parsed = Vec::with_capacity(bounds.len());
        for &(idx, start, len) in &bounds {
            let s = parse_one_section(templates, &v, header, start, len)?;
            parsed.push((
                idx,
                Shard::from_restored(s.rng, s.events, s.entries, s.tiers, header.epoch),
            ));
        }
        return Ok(parsed);
    }
    // The pool's jobs outlive this borrow-scoped call, so the shared
    // inputs move into `Arc`s: the payload words, the boundary table,
    // the tier ladder, and the header are all owned by the fan-out.
    let v = Arc::new(v);
    let bounds = Arc::new(bounds);
    let templates: Arc<Vec<C>> = Arc::new(templates.to_vec());
    let header = *header;
    let mut decoded = crate::pool::fan_out(n_workers, bounds.len(), move |pos| {
        let (idx, start, len) = bounds[pos];
        parse_one_section(&templates, &v, &header, start, len).map(|s| {
            (
                idx,
                Shard::from_restored(s.rng, s.events, s.entries, s.tiers, header.epoch),
            )
        })
    });
    // Frame order restored by the sort, so the `collect` below still
    // names the *first failing section in frame order* — the serial
    // path's error precedence.
    decoded.sort_unstable_by_key(|&(pos, _)| pos);
    decoded
        .into_iter()
        .map(|(_, result)| result)
        .collect::<Result<Vec<_>, _>>()
}

/// Decodes one shard section body (everything between its length prefix
/// and its end), performing every structural check the serial parser
/// did: count plausibility, RNG validity, key decodability, tier-tag
/// canonicality, per-state validity, and the exact section length.
fn parse_one_section<C: StateCodec + Clone>(
    templates: &[C],
    v: &BitVec,
    header: &CheckpointHeader,
    section_start: u64,
    section_len: u64,
) -> Result<ShardSection<C>, CheckpointError> {
    let mut r = BitReader::at(v, section_start);
    let count = ac_bitio::codes::try_decode_delta0(&mut r).ok_or(CheckpointError::Corrupt {
        what: "undecodable shard key count",
    })?;
    // Each key costs >= 1 bit inside the section; a count beyond the
    // section length cannot be real, so reject before sizing buffers
    // by it.
    if count > section_len {
        return Err(CheckpointError::Corrupt {
            what: "shard key count exceeds its section",
        });
    }
    let count = usize::try_from(count).map_err(|_| CheckpointError::Corrupt {
        what: "shard key count overflows usize",
    })?;
    let events = r.try_read_bits(64).ok_or(CheckpointError::Truncated)?;
    let mut rng_state = [0u64; 4];
    for word in &mut rng_state {
        *word = r.try_read_bits(64).ok_or(CheckpointError::Truncated)?;
    }
    if rng_state.iter().all(|&w| w == 0) {
        return Err(CheckpointError::Corrupt {
            what: "all-zero shard RNG state",
        });
    }
    let keys = decode_sorted_keys(&mut r, count).ok_or(CheckpointError::Corrupt {
        what: "undecodable shard key set",
    })?;
    // Version 3 interposes the sparse tier-tag block between the keys
    // and the states; the writer only tags non-default tiers, so an
    // explicit tier-0 tag is non-canonical and refused.
    let mut tiers: Vec<u8> = Vec::new();
    if header.version == CHECKPOINT_VERSION_TIERED {
        let tagged =
            ac_bitio::codes::try_decode_delta0(&mut r).ok_or(CheckpointError::Corrupt {
                what: "undecodable tier tag count",
            })?;
        if tagged > count as u64 {
            return Err(CheckpointError::Corrupt {
                what: "more tier tags than keys",
            });
        }
        if tagged > 0 {
            tiers = vec![0u8; count];
            let mut pos = 0u64;
            for i in 0..tagged {
                let gap =
                    ac_bitio::codes::try_decode_delta0(&mut r).ok_or(CheckpointError::Corrupt {
                        what: "undecodable tier tag position",
                    })?;
                pos = if i == 0 {
                    gap
                } else {
                    pos.checked_add(gap).and_then(|p| p.checked_add(1)).ok_or(
                        CheckpointError::Corrupt {
                            what: "tier tag position overflows",
                        },
                    )?
                };
                if pos >= count as u64 {
                    return Err(CheckpointError::Corrupt {
                        what: "tier tag position out of range",
                    });
                }
                let tier = r.try_read_bits(8).ok_or(CheckpointError::Truncated)? as u8;
                if tier == 0 || usize::from(tier) >= templates.len() {
                    return Err(CheckpointError::Corrupt {
                        what: "tier tag names no ladder rung",
                    });
                }
                tiers[usize::try_from(pos).expect("pos < count <= usize::MAX")] = tier;
            }
        }
    }
    let mut entries = Vec::with_capacity(count);
    for (slot, key) in keys.into_iter().enumerate() {
        let tier = tiers.get(slot).copied().unwrap_or(0);
        let counter = templates[usize::from(tier)].decode_state(&mut r)?;
        entries.push((key, counter));
    }
    if r.position() - section_start != section_len {
        return Err(CheckpointError::Corrupt {
            what: "shard section length mismatch",
        });
    }
    Ok(ShardSection {
        rng: Xoshiro256PlusPlus::from_state(rng_state),
        events,
        entries,
        tiers,
    })
}

/// Rebuilds a [`CounterEngine`] from one **full** checkpoint. `template`
/// supplies the family and parameter schedule; it must match the
/// checkpoint's fingerprint (its registers are ignored).
///
/// # Errors
///
/// Returns a [`CheckpointError`] for any mismatch, truncation, or
/// validation failure — including [`CheckpointError::DeltaWithoutBase`]
/// for a delta frame, which only restores through
/// [`restore_checkpoint_chain`]. On success every key's counter state —
/// and each shard's RNG — is bit-identical to the snapshot's.
pub fn restore_checkpoint<C: StateCodec + Clone + Send + Sync + 'static>(
    template: &C,
    bytes: &[u8],
) -> Result<CounterEngine<C>, CheckpointError> {
    restore_checkpoint_chain(template, &[bytes])
}

/// [`restore_checkpoint`] for tiered checkpoints: `templates` is the
/// tier ladder (rung 0 = default) the version-3 frame was written
/// against.
///
/// # Errors
///
/// Everything [`restore_checkpoint`] returns.
pub fn restore_checkpoint_with<C: StateCodec + Clone + Send + Sync + 'static>(
    templates: &[C],
    bytes: &[u8],
) -> Result<CounterEngine<C>, CheckpointError> {
    restore_checkpoint_chain_with(templates, &[bytes])
}

/// Folds a **base + deltas chain** back into a [`CounterEngine`] that is
/// bit-identical to the engine the *last* delta was cut from: segment 0
/// must be a full checkpoint, every later segment a delta whose
/// `parent_chain` cites the digest of the segment before it. Dirty shards
/// are replaced wholesale by the newest delta that carries them; clean
/// shards keep the newest earlier state. The folded totals are verified
/// against every segment's header, so a fold that loses or duplicates
/// anything is refused. Built on [`ChainFold`].
///
/// # Errors
///
/// Everything [`restore_checkpoint`] returns, plus
/// [`CheckpointError::BadChain`] for an empty chain, a delta-first chain,
/// a full frame mid-chain, a parent-digest mismatch, or a non-monotone
/// epoch. Each segment's checksums are verified independently, so a
/// corrupt or truncated delta names itself rather than poisoning the
/// fold.
pub fn restore_checkpoint_chain<C: StateCodec + Clone + Send + Sync + 'static>(
    template: &C,
    segments: &[&[u8]],
) -> Result<CounterEngine<C>, CheckpointError> {
    restore_checkpoint_chain_with(std::slice::from_ref(template), segments)
}

/// [`restore_checkpoint_chain`] with an explicit decode worker count:
/// `0` picks one per core (engaged only for large frames), `1` forces
/// the serial decoder, larger values are capped at the section count.
/// Every choice restores identical state — a property test pins this.
///
/// # Errors
///
/// Everything [`restore_checkpoint_chain`] returns.
pub fn restore_checkpoint_chain_workers<C: StateCodec + Clone + Send + Sync + 'static>(
    template: &C,
    segments: &[&[u8]],
    workers: usize,
) -> Result<CounterEngine<C>, CheckpointError> {
    restore_checkpoint_chain_with_workers(std::slice::from_ref(template), segments, workers)
}

/// [`restore_checkpoint_chain`] for tiered chains: `templates` is the
/// tier ladder (rung 0 = default). Accepts any mix of version-2 segments
/// (fingerprinted against rung 0 alone, every key restored at tier 0)
/// and version-3 segments (fingerprinted against the whole ladder,
/// per-key tier tags restored), so a chain that straddles the moment
/// tiering was enabled folds cleanly.
///
/// # Errors
///
/// Everything [`restore_checkpoint_chain`] returns.
pub fn restore_checkpoint_chain_with<C: StateCodec + Clone + Send + Sync + 'static>(
    templates: &[C],
    segments: &[&[u8]],
) -> Result<CounterEngine<C>, CheckpointError> {
    restore_checkpoint_chain_with_workers(templates, segments, 0)
}

/// [`restore_checkpoint_chain_with`] with an explicit decode worker
/// count (see [`restore_checkpoint_chain_workers`] for the contract).
///
/// # Errors
///
/// Everything [`restore_checkpoint_chain`] returns.
pub fn restore_checkpoint_chain_with_workers<C: StateCodec + Clone + Send + Sync + 'static>(
    templates: &[C],
    segments: &[&[u8]],
    workers: usize,
) -> Result<CounterEngine<C>, CheckpointError> {
    fold_chain(templates, segments, workers).map(ChainFold::into_engine)
}

/// Folds a whole chain: start on segment 0, fold every later segment.
fn fold_chain<C: StateCodec + Clone + Send + Sync + 'static>(
    templates: &[C],
    segments: &[&[u8]],
    workers: usize,
) -> Result<ChainFold<C>, CheckpointError> {
    let (first, rest) = segments.split_first().ok_or(CheckpointError::BadChain {
        what: "empty chain",
    })?;
    let mut fold = match ChainFold::start_with_workers(templates, first, workers) {
        Err(CheckpointError::DeltaWithoutBase) if !rest.is_empty() => {
            return Err(CheckpointError::BadChain {
                what: "chain must start with a full checkpoint",
            })
        }
        started => started?,
    };
    for &segment in rest {
        fold.fold(segment)?;
    }
    Ok(fold)
}

/// A checkpoint chain folded one segment at a time: the restored shards
/// of everything folded so far plus the tip header. This is the one
/// chain-fold implementation — [`restore_checkpoint_chain`] is
/// [`ChainFold::start`], then [`ChainFold::fold`] per delta, then a
/// conversion into the engine — and a replica keeps a `ChainFold` alive
/// across segments so each delta costs only the shards it carries.
///
/// Every segment is checked by the same rules as a whole-chain restore:
/// checksums, fingerprint, config, the parent digest (with the
/// compacted-base alias rule), epoch order, and — after each segment,
/// not just the last — the shard totals against that segment's header.
/// A refused segment leaves the fold exactly as it was, so the correct
/// next delta still folds.
#[derive(Debug)]
pub struct ChainFold<C> {
    templates: Vec<C>,
    workers: usize,
    shards: Vec<Arc<Shard<C>>>,
    tip: CheckpointHeader,
}

impl<C: StateCodec + Clone + Send + Sync + 'static> ChainFold<C> {
    /// Starts a fold from a **full** checkpoint (decode workers chosen
    /// automatically).
    ///
    /// # Errors
    ///
    /// Everything [`restore_checkpoint`] returns, including
    /// [`CheckpointError::DeltaWithoutBase`] for a delta frame.
    pub fn start(template: &C, base: &[u8]) -> Result<Self, CheckpointError> {
        Self::start_with_workers(std::slice::from_ref(template), base, 0)
    }

    /// [`ChainFold::start`] over a tier ladder (rung 0 = default) with
    /// an explicit decode worker count; both apply to every later
    /// [`ChainFold::fold`].
    fn start_with_workers(
        templates: &[C],
        base: &[u8],
        workers: usize,
    ) -> Result<Self, CheckpointError> {
        assert!(!templates.is_empty(), "need at least the default template");
        let header = read_header(base)?;
        if header.kind == CheckpointKind::Delta {
            return Err(CheckpointError::DeltaWithoutBase);
        }
        // parse_sections proved a full frame holds exactly `shards`
        // strictly increasing in-range indices: section i is shard i.
        let shards: Vec<Arc<Shard<C>>> = parse_sections(templates, base, &header, workers)?
            .into_iter()
            .map(|(_, shard)| Arc::new(shard))
            .collect();
        check_totals(&shards, &header)?;
        Ok(ChainFold {
            templates: templates.to_vec(),
            workers,
            shards,
            tip: header,
        })
    }

    /// Folds the next **delta** onto the tip, replacing only the shards
    /// it carries.
    ///
    /// # Errors
    ///
    /// What [`restore_checkpoint_chain`] returns for one segment:
    /// [`CheckpointError::BadChain`] for a full frame, a parent-digest
    /// mismatch or an epoch regression;
    /// [`CheckpointError::ConfigMismatch`]; checksum, truncation and
    /// decode errors; and [`CheckpointError::Corrupt`] when the folded
    /// totals disagree with the segment's header. On error the fold is
    /// unchanged.
    pub fn fold(&mut self, segment: &[u8]) -> Result<(), CheckpointError> {
        let header = read_header(segment)?;
        let prev = self.tip;
        if header.kind != CheckpointKind::Delta {
            return Err(CheckpointError::BadChain {
                what: "full checkpoint mid-chain (start a new chain from it instead)",
            });
        }
        if header.config != prev.config {
            return Err(CheckpointError::ConfigMismatch {
                expected: prev.config,
                got: header.config,
            });
        }
        if header.parent_chain != prev.chain {
            // A compacted base (written by `compact_chain*`) replaces a
            // base+deltas prefix whose tip it folded; it records that
            // tip's digest in its own `parent_chain` (ordinary full
            // frames store 0 there). The first delta after it still
            // cites the folded tip — by construction the same bytes the
            // compacted base holds — so the alias is accepted exactly
            // there and nowhere else. From the second delta on, normal
            // hash chaining resumes.
            let compacted_alias = prev.kind == CheckpointKind::Full
                && prev.parent_chain != 0
                && header.parent_chain == prev.parent_chain;
            if !compacted_alias {
                return Err(CheckpointError::BadChain {
                    what: "delta cites a different parent checkpoint",
                });
            }
        }
        if header.epoch < prev.epoch {
            return Err(CheckpointError::BadChain {
                what: "delta freeze epoch precedes its parent",
            });
        }
        let mut shards = self.shards.clone();
        for (idx, shard) in parse_sections(&self.templates, segment, &header, self.workers)? {
            shards[idx] = Arc::new(shard);
        }
        check_totals(&shards, &header)?;
        self.shards = shards;
        self.tip = header;
        Ok(())
    }

    /// The header of the last segment folded.
    #[must_use]
    pub fn tip(&self) -> CheckpointHeader {
        self.tip
    }

    /// A read-only view of the folded state, stamped with the tip's
    /// freeze epoch. `O(shards)`: the snapshot shares the fold's shards.
    #[must_use]
    pub fn snapshot(&self) -> EngineSnapshot<C> {
        EngineSnapshot::from_restored(
            self.templates[0].clone(),
            self.tip.config,
            self.shards.clone(),
            self.tip.epoch,
        )
    }

    /// Finishes the fold into an engine bit-identical to the one the tip
    /// was cut from, its freeze clock resuming just past the tip's epoch.
    fn into_engine(self) -> CounterEngine<C> {
        let template = self.templates.into_iter().next().expect("default template");
        CounterEngine::from_restored(template, self.tip.config, self.shards, self.tip.epoch + 1)
    }
}

/// Refuses a fold whose shard totals disagree with `header` — the check
/// that a fold lost or duplicated nothing.
fn check_totals<C: StateCodec + Clone>(
    shards: &[Arc<Shard<C>>],
    header: &CheckpointHeader,
) -> Result<(), CheckpointError> {
    let keys: u64 = shards.iter().map(|s| s.len() as u64).sum();
    let events: u64 = shards.iter().map(|s| s.events()).sum();
    if keys != header.keys || events != header.events {
        return Err(CheckpointError::Corrupt {
            what: "shard totals disagree with the segment header",
        });
    }
    Ok(())
}

/// [`restore_checkpoint`], additionally refusing a checkpoint whose
/// embedded [`EngineConfig`] differs from `expected` — for deployments
/// where the config is pinned externally and a drifted checkpoint must
/// not silently win.
///
/// # Errors
///
/// [`CheckpointError::ConfigMismatch`] on disagreement, plus everything
/// [`restore_checkpoint`] returns.
pub fn restore_checkpoint_expecting<C: StateCodec + Clone + Send + Sync + 'static>(
    template: &C,
    bytes: &[u8],
    expected: EngineConfig,
) -> Result<CounterEngine<C>, CheckpointError> {
    let header = read_header(bytes)?;
    if header.config != expected {
        return Err(CheckpointError::ConfigMismatch {
            expected,
            got: header.config,
        });
    }
    restore_checkpoint(template, bytes)
}

/// Folds a base+deltas chain into one fresh **full** checkpoint holding
/// exactly the state the chain restores to — the compaction primitive
/// that bounds recovery time by state size instead of history length.
///
/// The compacted base is *not* an ordinary full frame: its header keeps
/// the folded tip's freeze `epoch` (so deltas cut against that tip
/// still select the right dirty shards when chained onto it) and
/// records the tip's chain digest in `parent_chain` (ordinary full
/// frames store 0). [`restore_checkpoint_chain`] uses that digest to
/// accept the one delta written against the folded tip before the swap
/// landed — see the alias rule there — which is what lets a compactor
/// commit without stalling the writer. Its payload bytes are identical
/// to a [`checkpoint_snapshot`] of the serially restored chain (a
/// property test pins this).
///
/// # Errors
///
/// Everything [`restore_checkpoint_chain`] returns.
pub fn compact_chain<C: StateCodec + Clone + Send + Sync + 'static>(
    template: &C,
    segments: &[&[u8]],
) -> Result<Checkpoint, CheckpointError> {
    compact_chain_workers(template, segments, 0)
}

/// [`compact_chain`] with an explicit worker count for both the restore
/// fold and the re-encode (0 = auto, 1 = serial).
///
/// # Errors
///
/// Everything [`restore_checkpoint_chain`] returns.
pub fn compact_chain_workers<C: StateCodec + Clone + Send + Sync + 'static>(
    template: &C,
    segments: &[&[u8]],
    workers: usize,
) -> Result<Checkpoint, CheckpointError> {
    compact_chain_inner(std::slice::from_ref(template), false, segments, workers)
}

/// [`compact_chain`] for tiered chains: restores through the `templates`
/// ladder and writes a version-3 compacted base.
///
/// # Errors
///
/// Everything [`restore_checkpoint_chain`] returns.
pub fn compact_chain_with<C: StateCodec + Clone + Send + Sync + 'static>(
    templates: &[C],
    segments: &[&[u8]],
) -> Result<Checkpoint, CheckpointError> {
    compact_chain_inner(templates, true, segments, 0)
}

/// [`compact_chain_with`] with an explicit worker count (0 = auto).
///
/// # Errors
///
/// Everything [`restore_checkpoint_chain`] returns.
pub fn compact_chain_with_workers<C: StateCodec + Clone + Send + Sync + 'static>(
    templates: &[C],
    segments: &[&[u8]],
    workers: usize,
) -> Result<Checkpoint, CheckpointError> {
    compact_chain_inner(templates, true, segments, workers)
}

fn compact_chain_inner<C: StateCodec + Clone + Send + Sync + 'static>(
    templates: &[C],
    tiered: bool,
    segments: &[&[u8]],
    workers: usize,
) -> Result<Checkpoint, CheckpointError> {
    let fold = fold_chain(templates, segments, workers)?;
    // The fold's snapshot claims the folded tip's freeze epoch, not a
    // newer one: a base claiming a *newer* epoch than the tip would make
    // deltas cut against the tip unchainable (their epochs must not
    // precede their parent's) while silently shifting the dirty-shard
    // horizon.
    let snap = fold.snapshot();
    let all: Vec<usize> = (0..snap.shards.len()).collect();
    let t = if tiered { Some(templates) } else { None };
    Ok(write_checkpoint(
        &snap,
        t,
        CheckpointKind::Full,
        fold.tip().chain,
        &all,
        workers,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ac_bitio::StateBits;
    use ac_core::{
        ApproxCounter, CsurosCounter, ExactCounter, MorrisCounter, NelsonYuCounter, NyParams,
    };
    use ac_randkit::{RandomSource, SplitMix64};

    fn cfg() -> EngineConfig {
        EngineConfig {
            shards: 4,
            seed: 11,
        }
    }

    fn ny_template() -> NelsonYuCounter {
        NelsonYuCounter::new(NyParams::new(0.2, 8).unwrap())
    }

    fn ny_engine(n_keys: u64) -> CounterEngine<NelsonYuCounter> {
        let mut e = CounterEngine::new(ny_template(), cfg());
        let mut gen = SplitMix64::new(3);
        let batch: Vec<(u64, u64)> = (0..n_keys)
            .map(|k| (k * 97 + 13, 1 + gen.next_u64() % 5_000))
            .collect();
        e.apply(&batch);
        e
    }

    fn checkpoint_of<C: StateCodec + Clone + Send + Sync + 'static>(
        e: &mut CounterEngine<C>,
    ) -> Checkpoint {
        checkpoint_snapshot(&e.snapshot())
    }

    #[test]
    fn round_trip_preserves_every_counter_bit_for_bit() {
        let mut e = ny_engine(1_000);
        let ck = checkpoint_of(&mut e);
        let back = restore_checkpoint(&ny_template(), ck.bytes()).unwrap();
        assert_eq!(back.len(), e.len());
        assert_eq!(back.total_events(), e.total_events());
        assert_eq!(back.config(), e.config());
        for (key, counter) in e.iter() {
            let restored = back.counter(key).expect("key present");
            assert_eq!(restored.state_parts(), counter.state_parts(), "key {key}");
            assert_eq!(restored.estimate(), counter.estimate());
            assert_eq!(restored.state_bits(), counter.state_bits());
        }
    }

    #[test]
    fn restored_engine_continues_the_exact_random_stream() {
        // Apply the same post-checkpoint batch to the original and the
        // restored engine: bit-identical results, because shard RNG
        // states ride in the checkpoint.
        let mut original = ny_engine(300);
        let ck = checkpoint_of(&mut original);
        let mut restored = restore_checkpoint(&ny_template(), ck.bytes()).unwrap();

        let follow_up: Vec<(u64, u64)> = (0..500u64).map(|k| (k * 31, 40 + k)).collect();
        original.apply(&follow_up);
        restored.apply(&follow_up);
        assert_eq!(original.total_events(), restored.total_events());
        for &(key, _) in &follow_up {
            // Compare persistent registers: the peak-bits high-water mark
            // is instrumentation (reset by restore), not state.
            assert_eq!(
                original.counter(key).map(NelsonYuCounter::state_parts),
                restored.counter(key).map(NelsonYuCounter::state_parts),
                "key {key}"
            );
        }
    }

    #[test]
    fn stats_agree_with_engine_state_bits() {
        // The satellite contract: what checkpoint writes is exactly what
        // EngineStats reports as counter_state_bits.
        let mut e = ny_engine(2_000);
        let stats_before = e.stats();
        let ck = checkpoint_of(&mut e);
        assert_eq!(ck.stats().counter_state_bits, stats_before.state_bits_total);
        assert_eq!(ck.stats().keys, e.len() as u64);
        assert_eq!(ck.stats().shards_written, ck.stats().shards);
        assert_eq!(
            ck.stats().total_bits,
            ck.stats().state_code_bits + ck.stats().key_bits + ck.stats().header_bits
        );
        assert_eq!(ck.stats().bytes(), ck.bytes().len() as u64);
    }

    #[test]
    fn header_peek_matches_written_engine() {
        let mut e = ny_engine(50);
        let ck = checkpoint_of(&mut e);
        let h = read_header(ck.bytes()).unwrap();
        assert_eq!(h, ck.header(), "stored header equals re-parsed header");
        assert_eq!(h.version, CHECKPOINT_VERSION);
        assert_eq!(h.kind, CheckpointKind::Full);
        assert_eq!(h.parent_chain, 0);
        assert_eq!(h.config, e.config());
        assert_eq!(h.keys, 50);
        assert_eq!(h.events, e.total_events());
    }

    #[test]
    fn delta_after_touching_one_shard_is_small_and_restores_exactly() {
        let mut e = ny_engine(2_000);
        let base = checkpoint_of(&mut e);

        // Dirty exactly one shard: feed keys that all route to shard 0.
        let shard0_keys: Vec<u64> = (0..100_000u64)
            .filter(|&k| e.shard_of(k) == 0)
            .take(40)
            .collect();
        let batch: Vec<(u64, u64)> = shard0_keys.iter().map(|&k| (k, 7)).collect();
        e.apply(&batch);
        let delta = checkpoint_delta(&e.snapshot(), &base.header()).unwrap();

        assert_eq!(delta.header().kind, CheckpointKind::Delta);
        assert_eq!(delta.stats().shards_written, 1, "one dirty shard");
        assert!(
            delta.bytes().len() * 2 < base.bytes().len(),
            "delta ({}) must be far smaller than base ({})",
            delta.bytes().len(),
            base.bytes().len()
        );

        let back =
            restore_checkpoint_chain(&ny_template(), &[base.bytes(), delta.bytes()]).unwrap();
        assert_eq!(back.len(), e.len());
        assert_eq!(back.total_events(), e.total_events());
        for (key, counter) in e.iter() {
            assert_eq!(
                back.counter(key).map(NelsonYuCounter::state_parts),
                Some(counter.state_parts()),
                "key {key}"
            );
        }
    }

    #[test]
    fn chain_of_two_deltas_restores_and_continues_the_stream() {
        let mut e = ny_engine(500);
        let base = checkpoint_of(&mut e);
        e.apply(&[(13, 100), (97 * 31 + 13, 5)]);
        let d1 = checkpoint_delta(&e.snapshot(), &base.header()).unwrap();
        e.apply(&[(13, 1), (7, 7), (999_983, 3)]);
        let d2 = checkpoint_delta(&e.snapshot(), &d1.header()).unwrap();

        let mut back =
            restore_checkpoint_chain(&ny_template(), &[base.bytes(), d1.bytes(), d2.bytes()])
                .unwrap();
        assert_eq!(back.total_events(), e.total_events());
        // The restored engine continues the exact random stream.
        let follow_up: Vec<(u64, u64)> = (0..300u64).map(|k| (k * 7, 11 + k)).collect();
        e.apply(&follow_up);
        back.apply(&follow_up);
        for &(key, _) in &follow_up {
            assert_eq!(
                e.counter(key).map(NelsonYuCounter::state_parts),
                back.counter(key).map(NelsonYuCounter::state_parts),
                "key {key}"
            );
        }
    }

    #[test]
    fn empty_delta_is_header_only_and_restores() {
        let mut e = ny_engine(200);
        let base = checkpoint_of(&mut e);
        // No writes between freezes: the delta carries zero sections.
        let delta = checkpoint_delta(&e.snapshot(), &base.header()).unwrap();
        assert_eq!(delta.stats().shards_written, 0);
        assert_eq!(delta.stats().keys, 0);
        let back =
            restore_checkpoint_chain(&ny_template(), &[base.bytes(), delta.bytes()]).unwrap();
        assert_eq!(back.total_events(), e.total_events());
    }

    #[test]
    fn delta_alone_is_refused() {
        let mut e = ny_engine(100);
        let base = checkpoint_of(&mut e);
        e.apply(&[(13, 2)]);
        let delta = checkpoint_delta(&e.snapshot(), &base.header()).unwrap();
        assert_eq!(
            restore_checkpoint(&ny_template(), delta.bytes()).unwrap_err(),
            CheckpointError::DeltaWithoutBase
        );
        assert_eq!(
            restore_checkpoint_chain(&ny_template(), &[delta.bytes()]).unwrap_err(),
            CheckpointError::DeltaWithoutBase
        );
    }

    #[test]
    fn broken_chains_are_refused() {
        let mut e = ny_engine(100);
        let base = checkpoint_of(&mut e);
        e.apply(&[(13, 2)]);
        let d1 = checkpoint_delta(&e.snapshot(), &base.header()).unwrap();
        e.apply(&[(14, 2)]);
        let d2 = checkpoint_delta(&e.snapshot(), &d1.header()).unwrap();
        let t = ny_template();

        // Skipping a link: d2 cites d1, not base.
        assert_eq!(
            restore_checkpoint_chain(&t, &[base.bytes(), d2.bytes()]).unwrap_err(),
            CheckpointError::BadChain {
                what: "delta cites a different parent checkpoint"
            }
        );
        // Reordering the deltas breaks the same check.
        assert!(matches!(
            restore_checkpoint_chain(&t, &[base.bytes(), d2.bytes(), d1.bytes()]).unwrap_err(),
            CheckpointError::BadChain { .. }
        ));
        // A full frame mid-chain is a chain error, not silently a rebase.
        assert!(matches!(
            restore_checkpoint_chain(&t, &[base.bytes(), base.bytes()]).unwrap_err(),
            CheckpointError::BadChain { .. }
        ));
        // An empty chain has nothing to restore.
        assert!(matches!(
            restore_checkpoint_chain(&t, &[]).unwrap_err(),
            CheckpointError::BadChain { .. }
        ));
        // The intact chain still works.
        assert!(restore_checkpoint_chain(&t, &[base.bytes(), d1.bytes(), d2.bytes()]).is_ok());
    }

    #[test]
    fn truncated_delta_is_rejected_without_poisoning_the_chain_fold() {
        let mut e = ny_engine(300);
        let base = checkpoint_of(&mut e);
        e.apply(&[(13, 50), (14, 60)]);
        let delta = checkpoint_delta(&e.snapshot(), &base.header()).unwrap();
        let t = ny_template();
        for keep in [0, 10, PAYLOAD_BYTE, delta.bytes().len() - 1] {
            let err =
                restore_checkpoint_chain(&t, &[base.bytes(), &delta.bytes()[..keep]]).unwrap_err();
            assert!(
                matches!(
                    err,
                    CheckpointError::Truncated | CheckpointError::Corrupt { .. }
                ),
                "kept {keep} bytes: {err:?}"
            );
        }
    }

    #[test]
    fn delta_against_foreign_parent_is_refused_at_write_time() {
        let mut e = ny_engine(100);
        let _ = checkpoint_of(&mut e);
        // Wrong schedule.
        let mut other =
            CounterEngine::new(NelsonYuCounter::new(NyParams::new(0.1, 8).unwrap()), cfg());
        let other_ck = checkpoint_of(&mut other);
        assert_eq!(
            checkpoint_delta(&e.snapshot(), &other_ck.header()).unwrap_err(),
            CheckpointError::ScheduleMismatch
        );
        // Wrong config.
        let mut bigger = CounterEngine::new(
            ny_template(),
            EngineConfig {
                shards: 8,
                seed: 11,
            },
        );
        let bigger_ck = checkpoint_of(&mut bigger);
        assert!(matches!(
            checkpoint_delta(&e.snapshot(), &bigger_ck.header()).unwrap_err(),
            CheckpointError::ConfigMismatch { .. }
        ));
        // Parent claiming a freeze epoch from the snapshot's future.
        let newer = checkpoint_of(&mut e);
        let snap = e.snapshot();
        let mut forged = newer.header();
        forged.epoch = snap.epoch() + 1_000;
        assert!(matches!(
            checkpoint_delta(&snap, &forged).unwrap_err(),
            CheckpointError::BadChain { .. }
        ));
    }

    #[test]
    fn rejects_bad_magic_and_truncation() {
        let mut e = ny_engine(20);
        let ck = checkpoint_of(&mut e);
        let template = ny_template();

        let mut bad = ck.bytes().to_vec();
        bad[0] ^= 0xFF;
        assert_eq!(
            restore_checkpoint(&template, &bad).unwrap_err(),
            CheckpointError::BadMagic
        );

        assert_eq!(
            restore_checkpoint(&template, &ck.bytes()[..4]).unwrap_err(),
            CheckpointError::Truncated
        );
        let half = &ck.bytes()[..ck.bytes().len() / 2];
        assert_eq!(
            restore_checkpoint(&template, half).unwrap_err(),
            CheckpointError::Truncated
        );
        assert_eq!(
            restore_checkpoint(&template, &[]).unwrap_err(),
            CheckpointError::Truncated
        );
    }

    #[test]
    fn rejects_unsupported_version() {
        let mut e = ny_engine(5);
        let mut bytes = checkpoint_of(&mut e).into_bytes();
        // The version field sits at bits 32..48; bump it past both the
        // base and the tiered versions.
        bytes[4] = bytes[4].wrapping_add(2);
        assert!(matches!(
            restore_checkpoint(&ny_template(), &bytes),
            Err(CheckpointError::UnsupportedVersion { .. })
        ));
    }

    #[test]
    fn rejects_mismatched_schedules_and_families() {
        let mut e = ny_engine(25);
        let ck = checkpoint_of(&mut e);
        // Same family, different parameters.
        let wrong_eps = NelsonYuCounter::new(NyParams::new(0.1, 8).unwrap());
        assert_eq!(
            restore_checkpoint(&wrong_eps, ck.bytes()).unwrap_err(),
            CheckpointError::ScheduleMismatch
        );
        // Different family altogether.
        let morris = MorrisCounter::new(0.5).unwrap();
        assert_eq!(
            restore_checkpoint(&morris, ck.bytes()).unwrap_err(),
            CheckpointError::ScheduleMismatch
        );
    }

    #[test]
    fn rejects_pinned_config_mismatch() {
        let mut e = ny_engine(25);
        let ck = checkpoint_of(&mut e);
        let template = ny_template();
        let wrong = EngineConfig {
            shards: 8,
            seed: 11,
        };
        assert!(matches!(
            restore_checkpoint_expecting(&template, ck.bytes(), wrong),
            Err(CheckpointError::ConfigMismatch { .. })
        ));
        // The right pin restores fine.
        assert!(restore_checkpoint_expecting(&template, ck.bytes(), cfg()).is_ok());
    }

    #[test]
    fn rejects_corrupted_header_totals() {
        let mut e = ny_engine(30);
        let mut bytes = checkpoint_of(&mut e).into_bytes();
        // keys_total lives past the fixed prefix; flip a low bit in it.
        // Fields: magic(32) version(16) kind(8) fp(64) shards(32) seed(64)
        // epoch(64) parent(64) → keys starts at bit 344 = byte 43.
        bytes[43] ^= 1;
        assert!(matches!(
            restore_checkpoint(&ny_template(), &bytes),
            Err(CheckpointError::Corrupt { .. })
        ));
    }

    #[test]
    fn empty_engine_checkpoints_and_restores() {
        let p = NyParams::new(0.3, 6).unwrap();
        let mut e = CounterEngine::new(NelsonYuCounter::new(p), cfg());
        let ck = checkpoint_of(&mut e);
        let back = restore_checkpoint(&NelsonYuCounter::new(p), ck.bytes()).unwrap();
        assert!(back.is_empty());
        assert_eq!(back.total_events(), 0);
    }

    #[test]
    fn every_family_round_trips() {
        /// The family-generic "bit-identical persistent state" oracle:
        /// re-encode both counters and compare the code words (covers
        /// every serialized register; instrumentation like peak bits is
        /// deliberately outside).
        fn encoded<C: StateCodec>(c: &C) -> BitVec {
            let mut v = BitVec::new();
            c.encode_state(&mut BitWriter::new(&mut v));
            v
        }

        fn drive<C: StateCodec + Clone + Send + Sync + 'static + std::fmt::Debug>(template: C) {
            let mut e = CounterEngine::new(template.clone(), cfg());
            let mut gen = SplitMix64::new(21);
            let batch: Vec<(u64, u64)> = (0..400u64)
                .map(|k| (k, 1 + gen.next_u64() % 2_000))
                .collect();
            e.apply(&batch);
            let ck = checkpoint_of(&mut e);
            let back = restore_checkpoint(&template, ck.bytes()).unwrap();
            for (key, counter) in e.iter() {
                let restored = back.counter(key).expect("key present");
                assert_eq!(encoded(restored), encoded(counter), "key {key}");
                assert_eq!(restored.estimate(), counter.estimate(), "key {key}");
                assert_eq!(restored.state_bits(), counter.state_bits(), "key {key}");
            }
            assert_eq!(back.total_events(), e.total_events());
        }
        drive(ExactCounter::new());
        drive(MorrisCounter::new(0.25).unwrap());
        drive(ac_core::MorrisPlus::new(0.2, 8).unwrap());
        drive(NelsonYuCounter::new(NyParams::new(0.2, 8).unwrap()));
        drive(CsurosCounter::new(8).unwrap());
    }

    #[test]
    fn checkpoint_size_is_near_the_information_content() {
        // Dense keys, light per-key traffic — the fleet-scale workload.
        // Keys + states must land within 2× of counter_state_bits plus
        // framing (the acceptance bound the pipeline bench also checks).
        let p = NyParams::new(0.2, 8).unwrap();
        let mut e =
            CounterEngine::new(NelsonYuCounter::new(p), EngineConfig { shards: 8, seed: 2 });
        let mut gen = SplitMix64::new(4);
        let batch: Vec<(u64, u64)> = (0..20_000u64)
            .map(|k| (k, 1 + gen.next_u64() % 32))
            .collect();
        e.apply(&batch);
        let ck = checkpoint_of(&mut e);
        let s = ck.stats();
        assert!(
            s.total_bits <= 2 * s.counter_state_bits + s.header_bits,
            "{} bits total vs 2×{} + {} framing",
            s.total_bits,
            s.counter_state_bits,
            s.header_bits
        );
        // And framing itself is a small fraction at this scale.
        assert!(
            s.header_bits < s.total_bits / 4,
            "framing {} of {}",
            s.header_bits,
            s.total_bits
        );
    }

    // ---- version 3: tiered checkpoints ------------------------------

    use ac_core::{CounterFamily, TierMove, TierPolicy};

    /// A family engine with every fourth key migrated off the default
    /// rung, plus the ladder it was tiered against.
    fn tiered_engine(n_keys: u64) -> (CounterEngine<CounterFamily>, Vec<CounterFamily>) {
        let policy = TierPolicy::default_ladder();
        let templates = policy.templates().unwrap();
        let mut e = CounterEngine::new(templates[0].clone(), cfg());
        let mut gen = SplitMix64::new(17);
        let batch: Vec<(u64, u64)> = (0..n_keys)
            .map(|k| (k * 71 + 5, 1 + gen.next_u64() % 3_000))
            .collect();
        e.apply(&batch);
        let moves: Vec<TierMove> = (0..n_keys)
            .step_by(4)
            .map(|k| TierMove {
                key: k * 71 + 5,
                tier: u8::try_from(1 + (k / 4) % 3).unwrap(),
            })
            .collect();
        let migrated = e.apply_migrations(policy.specs(), &moves).unwrap();
        assert_eq!(migrated, moves.len() as u64);
        (e, templates)
    }

    #[test]
    fn tiered_round_trip_restores_tiers_counters_and_rng_streams() {
        let (mut e, templates) = tiered_engine(800);
        let ck = checkpoint_snapshot_with(&e.snapshot(), &templates);
        assert_eq!(ck.header().version, CHECKPOINT_VERSION_TIERED);
        assert_eq!(
            ck.header().params_fingerprint,
            combined_fingerprint(&templates)
        );

        let mut back = restore_checkpoint_with(&templates, ck.bytes()).unwrap();
        assert_eq!(back.len(), e.len());
        assert_eq!(back.stats().tier_keys, e.stats().tier_keys);
        assert_eq!(back.stats().state_bits_total, e.stats().state_bits_total);
        for (key, counter) in e.iter() {
            assert_eq!(back.tier_of(key), e.tier_of(key), "tier of key {key}");
            assert_eq!(
                back.counter(key).map(ApproxCounter::estimate),
                Some(counter.estimate()),
                "estimate of key {key}"
            );
        }

        // A second checkpoint of the freshly restored engine carries the
        // very same payload (headers differ only in the freeze epoch).
        let again = checkpoint_snapshot_with(&back.snapshot(), &templates);
        assert_eq!(
            &ck.bytes()[PAYLOAD_BYTE..],
            &again.bytes()[PAYLOAD_BYTE..],
            "ckpt -> restore -> ckpt must reproduce the payload bit-for-bit"
        );

        // Shard RNGs rode along: the same follow-up batch drives both
        // engines to bit-identical estimates.
        let follow_up: Vec<(u64, u64)> = (0..400u64).map(|k| (k * 71 + 5, 9 + k)).collect();
        e.apply(&follow_up);
        back.apply(&follow_up);
        for &(key, _) in &follow_up {
            assert_eq!(
                e.counter(key).map(ApproxCounter::estimate),
                back.counter(key).map(ApproxCounter::estimate),
                "post-restore estimate of key {key}"
            );
        }
    }

    #[test]
    fn v2_chain_restores_into_a_tiered_ladder_at_the_default_tier() {
        let policy = TierPolicy::default_ladder();
        let templates = policy.templates().unwrap();
        let mut e = CounterEngine::new(templates[0].clone(), cfg());
        let batch: Vec<(u64, u64)> = (0..300u64).map(|k| (k * 13, 5 + k)).collect();
        e.apply(&batch);
        let ck = checkpoint_of(&mut e);
        assert_eq!(ck.header().version, CHECKPOINT_VERSION);

        let back = restore_checkpoint_chain_with(&templates, &[ck.bytes()]).unwrap();
        assert_eq!(back.len(), e.len());
        let counts = back.tier_counts();
        assert_eq!(counts[0], e.len() as u64, "every key on the default rung");
        assert!(counts[1..].iter().all(|&c| c == 0));
    }

    #[test]
    fn tiered_delta_extends_a_pre_tiering_v2_base() {
        let policy = TierPolicy::default_ladder();
        let templates = policy.templates().unwrap();
        let mut e = CounterEngine::new(templates[0].clone(), cfg());
        let batch: Vec<(u64, u64)> = (0..500u64).map(|k| (k * 7 + 1, 2 + k % 90)).collect();
        e.apply(&batch);
        let base = checkpoint_of(&mut e);

        // Tiering turned on after the base was cut: migrate and keep
        // counting, then cut a version-3 delta against the version-2
        // parent.
        let moves: Vec<TierMove> = (0..500u64)
            .step_by(5)
            .map(|k| TierMove {
                key: k * 7 + 1,
                tier: 1,
            })
            .collect();
        e.apply_migrations(policy.specs(), &moves).unwrap();
        let more: Vec<(u64, u64)> = (0..200u64).map(|k| (k * 7 + 1, 3)).collect();
        e.apply(&more);
        let delta = checkpoint_delta_with(&e.snapshot(), &templates, &base.header()).unwrap();
        assert_eq!(delta.header().version, CHECKPOINT_VERSION_TIERED);

        let back =
            restore_checkpoint_chain_with(&templates, &[base.bytes(), delta.bytes()]).unwrap();
        assert_eq!(back.len(), e.len());
        assert_eq!(back.total_events(), e.total_events());
        assert_eq!(back.stats().tier_keys, e.stats().tier_keys);
        for (key, _) in e.iter() {
            assert_eq!(back.tier_of(key), e.tier_of(key), "tier of key {key}");
        }
    }

    #[test]
    #[should_panic(expected = "version 2 cannot represent them")]
    fn version_2_writer_refuses_an_engine_with_tier_tags() {
        let (mut e, _) = tiered_engine(40);
        let _ = checkpoint_of(&mut e);
    }

    #[test]
    fn tiered_frame_refuses_a_bare_or_wrong_ladder() {
        let (mut e, templates) = tiered_engine(60);
        let ck = checkpoint_snapshot_with(&e.snapshot(), &templates);
        // A single-template restore cannot cover the ladder fingerprint.
        assert_eq!(
            restore_checkpoint(&templates[0], ck.bytes()).unwrap_err(),
            CheckpointError::ScheduleMismatch
        );
        // Nor can a reordered ladder: the fingerprint fold is
        // order-sensitive because the tier *indices* must line up.
        let mut reversed = templates.clone();
        reversed.reverse();
        assert_eq!(
            restore_checkpoint_with(&reversed, ck.bytes()).unwrap_err(),
            CheckpointError::ScheduleMismatch
        );
    }

    // ---- parallel encode / restore, off-thread compaction ------------

    use proptest::prelude::*;

    /// Builds a family engine plus a `rounds`-delta chain over it, with
    /// traffic seeded by `seed`.
    fn chain_of<C: StateCodec + Clone + Send + Sync + 'static>(
        template: &C,
        seed: u64,
        rounds: usize,
    ) -> (CounterEngine<C>, Vec<Checkpoint>) {
        let mut e = CounterEngine::new(template.clone(), cfg());
        let mut gen = SplitMix64::new(seed);
        let batch: Vec<(u64, u64)> = (0..300u64)
            .map(|k| (k * 13 + 7, 1 + gen.next_u64() % 700))
            .collect();
        e.apply(&batch);
        let mut frames = vec![checkpoint_snapshot(&e.snapshot())];
        for _ in 0..rounds {
            let extra: Vec<(u64, u64)> = (0..40)
                .map(|_| (gen.next_u64() % 5_000, 1 + gen.next_u64() % 50))
                .collect();
            e.apply(&extra);
            let parent = frames.last().unwrap().header();
            frames.push(checkpoint_delta(&e.snapshot(), &parent).unwrap());
        }
        (e, frames)
    }

    /// The tentpole encode oracle: any worker count must commit the very
    /// same frame bytes the serial encoder does.
    fn assert_parallel_encode_identical<C: StateCodec + Clone + Send + Sync + 'static>(
        template: C,
        seed: u64,
        workers: usize,
    ) {
        let (mut e, _) = chain_of(&template, seed, 0);
        let snap = e.snapshot();
        let serial = checkpoint_snapshot_workers(&snap, 1);
        let parallel = checkpoint_snapshot_workers(&snap, workers);
        assert_eq!(serial.bytes(), parallel.bytes(), "workers {workers}");
    }

    /// The compaction oracle: a compacted base is byte-identical across
    /// worker counts, its payload is exactly a full checkpoint of the
    /// serially folded chain, its header pins the folded tip, and it
    /// restores to the same state the chain does.
    fn assert_compaction_matches_serial_fold<C>(template: C, seed: u64, rounds: usize)
    where
        C: StateCodec + Clone + Send + Sync + 'static,
    {
        let (_, frames) = chain_of(&template, seed, rounds);
        let segments: Vec<&[u8]> = frames.iter().map(Checkpoint::bytes).collect();
        let serial = compact_chain_workers(&template, &segments, 1).unwrap();
        for workers in [0, 2, 8] {
            let parallel = compact_chain_workers(&template, &segments, workers).unwrap();
            assert_eq!(serial.bytes(), parallel.bytes(), "workers {workers}");
        }
        let mut folded = restore_checkpoint_chain_workers(&template, &segments, 1).unwrap();
        let replayed = checkpoint_snapshot_workers(&folded.snapshot(), 1);
        assert_eq!(
            &serial.bytes()[PAYLOAD_BYTE..],
            &replayed.bytes()[PAYLOAD_BYTE..],
            "compacted payload must be the serial fold's full checkpoint"
        );
        let tip = frames.last().unwrap().header();
        assert_eq!(serial.header().epoch, tip.epoch, "epoch pins the tip");
        assert_eq!(serial.header().parent_chain, tip.chain, "tip digest kept");
        let via = restore_checkpoint(&template, serial.bytes()).unwrap();
        assert_eq!(via.total_events(), folded.total_events());
        assert_eq!(via.len(), folded.len());
    }

    #[test]
    fn parallel_encode_is_bit_identical_for_every_family() {
        for workers in [0, 2, 3, 16] {
            assert_parallel_encode_identical(ExactCounter::new(), 40, workers);
            assert_parallel_encode_identical(MorrisCounter::new(0.25).unwrap(), 41, workers);
            assert_parallel_encode_identical(
                ac_core::MorrisPlus::new(0.2, 8).unwrap(),
                42,
                workers,
            );
            assert_parallel_encode_identical(ny_template(), 43, workers);
            assert_parallel_encode_identical(CsurosCounter::new(8).unwrap(), 44, workers);
        }
    }

    #[test]
    fn parallel_encode_is_bit_identical_for_tiered_frames() {
        let (mut e, templates) = tiered_engine(800);
        let snap = e.snapshot();
        let serial = checkpoint_snapshot_with_workers(&snap, &templates, 1);
        for workers in [0, 2, 5, 8] {
            let parallel = checkpoint_snapshot_with_workers(&snap, &templates, workers);
            assert_eq!(serial.bytes(), parallel.bytes(), "workers {workers}");
        }
    }

    #[test]
    fn parallel_restore_matches_serial_restore_over_a_chain() {
        let template = ny_template();
        let (e, frames) = chain_of(&template, 77, 3);
        let segments: Vec<&[u8]> = frames.iter().map(Checkpoint::bytes).collect();
        let serial = restore_checkpoint_chain_workers(&template, &segments, 1).unwrap();
        assert_eq!(serial.total_events(), e.total_events());
        for workers in [0, 2, 4, 8] {
            let mut parallel =
                restore_checkpoint_chain_workers(&template, &segments, workers).unwrap();
            assert_eq!(parallel.total_events(), serial.total_events());
            assert_eq!(parallel.len(), serial.len());
            // Shard RNG streams and every counter register came through
            // identically: re-encoding both engines in full proves it.
            let mut serial_clone =
                restore_checkpoint_chain_workers(&template, &segments, 1).unwrap();
            assert_eq!(
                checkpoint_snapshot(&serial_clone.snapshot()).bytes(),
                checkpoint_snapshot(&parallel.snapshot()).bytes(),
                "workers {workers}"
            );
        }
    }

    #[test]
    fn compacted_base_chains_the_inflight_delta_through_the_alias_rule() {
        let template = ny_template();
        let (mut e, frames) = chain_of(&template, 5, 2);
        let segments: Vec<&[u8]> = frames.iter().map(Checkpoint::bytes).collect();
        let cbase = compact_chain(&template, &segments).unwrap();
        let tip = frames.last().unwrap().header();

        // Deltas kept landing against the live tip while the fold ran.
        e.apply(&[(1, 5), (999, 2)]);
        let d_next = checkpoint_delta(&e.snapshot(), &tip).unwrap();
        e.apply(&[(2, 9)]);
        let d_after = checkpoint_delta(&e.snapshot(), &d_next.header()).unwrap();

        // The compacted base + the in-flight delta restore to exactly
        // the state the uncompacted chain + that delta restore to.
        let via_alias =
            restore_checkpoint_chain(&template, &[cbase.bytes(), d_next.bytes(), d_after.bytes()])
                .unwrap();
        let mut full_chain: Vec<&[u8]> = segments.clone();
        full_chain.push(d_next.bytes());
        full_chain.push(d_after.bytes());
        let via_history = restore_checkpoint_chain(&template, &full_chain).unwrap();
        assert_eq!(via_alias.total_events(), via_history.total_events());
        assert_eq!(via_alias.len(), via_history.len());
        for (key, counter) in via_history.iter() {
            assert_eq!(
                via_alias.counter(key).map(NelsonYuCounter::state_parts),
                Some(counter.state_parts()),
                "key {key}"
            );
        }
    }

    #[test]
    fn alias_rule_accepts_only_the_delta_cut_against_the_folded_tip() {
        let template = ny_template();
        let (mut e, frames) = chain_of(&template, 6, 1);
        let segments: Vec<&[u8]> = frames.iter().map(Checkpoint::bytes).collect();
        let cbase = compact_chain(&template, &segments).unwrap();
        let tip = frames.last().unwrap().header();
        e.apply(&[(1, 1)]);
        let d_next = checkpoint_delta(&e.snapshot(), &tip).unwrap();
        e.apply(&[(2, 2)]);
        let d_after = checkpoint_delta(&e.snapshot(), &d_next.header()).unwrap();

        // Skipping the aliased link: d_after cites d_next, which is
        // neither the compacted base's digest nor the folded tip's.
        assert_eq!(
            restore_checkpoint_chain(&template, &[cbase.bytes(), d_after.bytes()]).unwrap_err(),
            CheckpointError::BadChain {
                what: "delta cites a different parent checkpoint"
            }
        );
        // An ordinary full frame (parent_chain = 0) still refuses a
        // delta that cites someone else — the alias needs a real tip
        // digest on the base side, so pre-compaction chains are exactly
        // as strict as before.
        assert_eq!(
            restore_checkpoint_chain(&template, &[segments[0], d_next.bytes()]).unwrap_err(),
            CheckpointError::BadChain {
                what: "delta cites a different parent checkpoint"
            }
        );
    }

    #[test]
    fn tiered_compaction_matches_the_serial_fold_byte_for_byte() {
        let (mut e, templates) = tiered_engine(600);
        let base = checkpoint_snapshot_with(&e.snapshot(), &templates);
        e.apply(&[(5, 40), (71 + 5, 7)]);
        let d1 = checkpoint_delta_with(&e.snapshot(), &templates, &base.header()).unwrap();
        e.apply(&[(2 * 71 + 5, 11)]);
        let d2 = checkpoint_delta_with(&e.snapshot(), &templates, &d1.header()).unwrap();
        let segments = [base.bytes(), d1.bytes(), d2.bytes()];

        let serial = compact_chain_with_workers(&templates, &segments, 1).unwrap();
        for workers in [0, 4] {
            let parallel = compact_chain_with_workers(&templates, &segments, workers).unwrap();
            assert_eq!(serial.bytes(), parallel.bytes(), "workers {workers}");
        }
        assert_eq!(serial.header().version, CHECKPOINT_VERSION_TIERED);
        let mut folded = restore_checkpoint_chain_with(&templates, &segments).unwrap();
        let replayed = checkpoint_snapshot_with_workers(&folded.snapshot(), &templates, 1);
        assert_eq!(
            &serial.bytes()[PAYLOAD_BYTE..],
            &replayed.bytes()[PAYLOAD_BYTE..]
        );
        // Tier tags survive the fold.
        let via = restore_checkpoint_with(&templates, serial.bytes()).unwrap();
        assert_eq!(via.stats().tier_keys, folded.stats().tier_keys);
    }

    /// Full-checkpoint bytes of a fold's current state.
    fn fold_bytes<C: StateCodec + Clone + Send + Sync + 'static>(fold: &ChainFold<C>) -> Vec<u8> {
        checkpoint_snapshot_workers(&fold.snapshot(), 1).into_bytes()
    }

    /// Folds `segments` one at a time and checks, after every step,
    /// that the fold serializes byte-identically to a whole-chain
    /// restore of the same prefix (its epoch stamped back to the tip's).
    fn assert_stepwise_fold_matches_restore<C>(template: &C, segments: &[&[u8]])
    where
        C: StateCodec + Clone + Send + Sync + 'static,
    {
        let mut fold = ChainFold::start(template, segments[0]).unwrap();
        for end in 1..=segments.len() {
            if end > 1 {
                fold.fold(segments[end - 1]).unwrap();
            }
            let tip = fold.tip();
            assert_eq!(tip, read_header(segments[end - 1]).unwrap());
            let mut restored = restore_checkpoint_chain(template, &segments[..end]).unwrap();
            let oracle = checkpoint_snapshot_workers(&restored.snapshot().with_epoch(tip.epoch), 1);
            assert_eq!(fold_bytes(&fold), oracle.bytes(), "prefix of {end}");
        }
    }

    /// Every ChainFold oracle for one family: the plain chain, then a
    /// compacted base followed by the delta cut against the tip it
    /// folded (the alias rule) and one more delta.
    fn assert_chain_fold_matches_restore<C>(template: C, seed: u64, rounds: usize)
    where
        C: StateCodec + Clone + Send + Sync + 'static,
    {
        let (mut e, frames) = chain_of(&template, seed, rounds);
        let segments: Vec<&[u8]> = frames.iter().map(Checkpoint::bytes).collect();
        assert_stepwise_fold_matches_restore(&template, &segments);

        let cbase = compact_chain(&template, &segments).unwrap();
        let mut gen = SplitMix64::new(seed ^ 0xA11A5);
        let mut cut = |e: &mut CounterEngine<C>, parent: &CheckpointHeader| {
            let extra: Vec<(u64, u64)> = (0..30)
                .map(|_| (gen.next_u64() % 5_000, 1 + gen.next_u64() % 40))
                .collect();
            e.apply(&extra);
            checkpoint_delta(&e.snapshot(), parent).unwrap()
        };
        let d_next = cut(&mut e, &frames.last().unwrap().header());
        let d_after = cut(&mut e, &d_next.header());
        assert_stepwise_fold_matches_restore(
            &template,
            &[cbase.bytes(), d_next.bytes(), d_after.bytes()],
        );
    }

    /// Rewrites a frame's header fields (the eleven before the header
    /// checksum, in layout order) and re-seals the header checksum, so
    /// the forged frame passes `read_header` and fails only the rule
    /// under test.
    fn reheader(bytes: &[u8], edit: impl FnOnce(&mut [u64; 11])) -> Vec<u8> {
        const WIDTHS: [u32; 11] = [32, 16, 8, 64, 32, 64, 64, 64, 64, 64, 64];
        let v = BitVec::from_bytes(&bytes[..PAYLOAD_BYTE]);
        let mut r = BitReader::new(&v);
        let mut fields = [0u64; 11];
        for (field, width) in fields.iter_mut().zip(WIDTHS) {
            *field = r.read_bits(width);
        }
        edit(&mut fields);
        let mut out = BitVec::new();
        let mut w = BitWriter::new(&mut out);
        for (field, width) in fields.iter().zip(WIDTHS) {
            w.write_bits(*field, width);
        }
        w.write_bits(header_checksum(&fields), 64);
        let mut forged = out.to_bytes();
        forged.extend_from_slice(&bytes[PAYLOAD_CHECKSUM_BYTE..]);
        forged
    }

    fn assert_rejections_leave_the_fold_unchanged<C>(template: C, seed: u64)
    where
        C: StateCodec + Clone + Send + Sync + 'static,
    {
        let (mut e, frames) = chain_of(&template, seed, 2);
        let mut fold = ChainFold::start(&template, frames[0].bytes()).unwrap();
        fold.fold(frames[1].bytes()).unwrap();
        let tip = fold.tip();
        let before = fold_bytes(&fold);
        let d_next = frames[2].bytes();
        e.apply(&[(4_999, 3)]);
        let d_after = checkpoint_delta(&e.snapshot(), &frames[2].header()).unwrap();

        // Field indices in `reheader` order.
        const SEED: usize = 5;
        const EPOCH: usize = 6;
        const EVENTS: usize = 9;
        let mut flipped = d_next.to_vec();
        flipped[PAYLOAD_BYTE + 4] ^= 0x10;
        let cases: Vec<(&str, Vec<u8>, CheckpointError)> = vec![
            (
                "wrong parent digest",
                d_after.bytes().to_vec(),
                CheckpointError::BadChain {
                    what: "delta cites a different parent checkpoint",
                },
            ),
            (
                "full frame mid-chain",
                frames[0].bytes().to_vec(),
                CheckpointError::BadChain {
                    what: "full checkpoint mid-chain (start a new chain from it instead)",
                },
            ),
            (
                "epoch regression",
                reheader(d_next, |f| f[EPOCH] = tip.epoch - 1),
                CheckpointError::BadChain {
                    what: "delta freeze epoch precedes its parent",
                },
            ),
            (
                "config mismatch",
                reheader(d_next, |f| f[SEED] ^= 1),
                CheckpointError::ConfigMismatch {
                    expected: tip.config,
                    got: EngineConfig {
                        seed: tip.config.seed ^ 1,
                        ..tip.config
                    },
                },
            ),
            (
                "flipped payload bit",
                flipped,
                CheckpointError::Corrupt {
                    what: "payload checksum mismatch",
                },
            ),
            (
                "totals mismatch",
                reheader(d_next, |f| f[EVENTS] += 1),
                CheckpointError::Corrupt {
                    what: "shard totals disagree with the segment header",
                },
            ),
        ];
        for (name, segment, expected) in cases {
            assert_eq!(fold.fold(&segment).unwrap_err(), expected, "{name}");
            assert_eq!(fold.tip(), tip, "{name} moved the tip");
            assert_eq!(fold_bytes(&fold), before, "{name} changed the state");
        }
        fold.fold(d_next).unwrap();
        fold.fold(d_after.bytes()).unwrap();
        let mut restored = restore_checkpoint_chain(
            &template,
            &[
                frames[0].bytes(),
                frames[1].bytes(),
                d_next,
                d_after.bytes(),
            ],
        )
        .unwrap();
        let oracle = restored.snapshot().with_epoch(fold.tip().epoch);
        assert_eq!(
            fold_bytes(&fold),
            checkpoint_snapshot_workers(&oracle, 1).into_bytes()
        );
    }

    #[test]
    fn chain_fold_rejections_are_typed_and_leave_the_fold_unchanged() {
        assert_rejections_leave_the_fold_unchanged(ExactCounter::new(), 50);
        assert_rejections_leave_the_fold_unchanged(MorrisCounter::new(0.25).unwrap(), 51);
        assert_rejections_leave_the_fold_unchanged(ac_core::MorrisPlus::new(0.2, 8).unwrap(), 52);
        assert_rejections_leave_the_fold_unchanged(ny_template(), 53);
        assert_rejections_leave_the_fold_unchanged(CsurosCounter::new(8).unwrap(), 54);
    }

    #[test]
    fn read_header_ignores_everything_past_the_fixed_header() {
        let (_, frames) = chain_of(&ny_template(), 9, 1);
        for frame in &frames {
            let bytes = frame.bytes();
            assert_eq!(read_header(bytes).unwrap(), frame.header());
            assert_eq!(read_header(&bytes[..PAYLOAD_BYTE]).unwrap(), frame.header());
            assert_eq!(
                read_header(&bytes[..PAYLOAD_BYTE - 1]).unwrap_err(),
                CheckpointError::Truncated
            );
        }
    }

    proptest! {
        #[test]
        fn parallel_encode_bytes_equal_serial_across_families(
            seed in 1u64..100_000,
            workers in 2usize..9,
        ) {
            assert_parallel_encode_identical(ExactCounter::new(), seed, workers);
            assert_parallel_encode_identical(MorrisCounter::new(0.25).unwrap(), seed, workers);
            assert_parallel_encode_identical(
                ac_core::MorrisPlus::new(0.2, 8).unwrap(), seed, workers);
            assert_parallel_encode_identical(ny_template(), seed, workers);
            assert_parallel_encode_identical(CsurosCounter::new(8).unwrap(), seed, workers);
        }

        #[test]
        fn compacted_base_is_byte_identical_to_the_serial_fold(
            seed in 1u64..100_000,
            rounds in 1usize..4,
        ) {
            assert_compaction_matches_serial_fold(ExactCounter::new(), seed, rounds);
            assert_compaction_matches_serial_fold(MorrisCounter::new(0.25).unwrap(), seed, rounds);
            assert_compaction_matches_serial_fold(
                ac_core::MorrisPlus::new(0.2, 8).unwrap(), seed, rounds);
            assert_compaction_matches_serial_fold(ny_template(), seed, rounds);
            assert_compaction_matches_serial_fold(CsurosCounter::new(8).unwrap(), seed, rounds);
        }

        #[test]
        fn chain_fold_matches_restore_over_random_chains(
            seed in 1u64..100_000,
            rounds in 0usize..5,
        ) {
            assert_chain_fold_matches_restore(ExactCounter::new(), seed, rounds);
            assert_chain_fold_matches_restore(MorrisCounter::new(0.25).unwrap(), seed, rounds);
            assert_chain_fold_matches_restore(
                ac_core::MorrisPlus::new(0.2, 8).unwrap(), seed, rounds);
            assert_chain_fold_matches_restore(ny_template(), seed, rounds);
            assert_chain_fold_matches_restore(CsurosCounter::new(8).unwrap(), seed, rounds);
        }
    }
}
