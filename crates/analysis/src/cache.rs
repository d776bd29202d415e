//! On-disk summary cache for the leak-check engine.
//!
//! One file (`summaries.bin`) holds the whole-corpus summary table
//! (Tier A), keyed by the corpus fingerprint in the header. A re-lint
//! of an unchanged tree decodes it directly (raw `MethodId`s, no
//! call-graph condensation) — the fast path the ≥10x target rests on.
//! Any other corpus is re-solved whole and the table rewritten.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic  b"JGRESUMC"                              8 bytes
//! version u32                                     = SCHEMA_VERSION
//! corpus_fp u64                                   Tier A key
//! scc_count u32                                   SCCs behind Tier A
//! tier_a_len u32
//! tier_a_payload [u8; tier_a_len]
//! tier_a_checksum u64                             StableHasher of the payload
//! repeated until EOF (record region):
//!   key u64 | len u32 | payload [u8; len] | checksum u64
//! ```
//!
//! The engine writes the record region empty. Files from the era of
//! per-SCC records carry them there; [`load`] still checks their
//! framing and checksums and hands them back as
//! [`LoadedCache::tier_b`], but nothing consumes them, and the next
//! rewrite drops them.
//!
//! Every reader treats the file as untrusted input: a bad magic or
//! version rejects the whole file, a bad Tier A checksum stops parsing
//! (the framing can no longer be trusted), a truncated or corrupt
//! record is skipped — each rejection increments the `invalidated`
//! counter, records a typed [`RejectReason`], and the engine recomputes,
//! never panics.
//!
//! **Schema-version bump rule:** any change to the Tier A encoding, the
//! corpus-fingerprint recipe it keys on, or the summary semantics it
//! captures must bump [`SCHEMA_VERSION`] so stale files self-invalidate.
//! Version 3 added the per-site predicate byte ([`PredSet`]) to every
//! fate encoding; files written by the boolean-guard era (version 2) are
//! rejected whole as [`RejectReason::StaleSchema`].

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::Path;

use jgre_corpus::body::AllocSite;
use jgre_corpus::MethodId;

use crate::ir::StableHasher;
use crate::leakcheck::{EscapeKind, MethodSummary, PredSet, Retention, SiteSummary};

/// Bumped whenever the cache encoding or the fingerprints it keys on
/// change shape; readers reject any other version.
pub const SCHEMA_VERSION: u32 = 3;

/// File name of the summary cache inside `--cache-dir`.
pub const CACHE_FILE: &str = "summaries.bin";

const MAGIC: &[u8; 8] = b"JGRESUMC";
const HEADER_LEN: usize = 8 + 4 + 8 + 4 + 4;

fn checksum(bytes: &[u8]) -> u64 {
    let mut h = StableHasher::new();
    h.write_bytes(bytes);
    h.finish()
}

// ------------------------------------------------------------------
// Byte-level encoder/decoder
// ------------------------------------------------------------------

/// Append-only little-endian encoder.
#[derive(Default)]
struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
}

/// Cursor over untrusted bytes; every read is bounds-checked.
struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let slice = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }
    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }
    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
    }
    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
    }
    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

// ------------------------------------------------------------------
// Summary payload encodings
// ------------------------------------------------------------------

fn enc_site_shape(e: &mut Enc, site: AllocSite) {
    let (tag, idx) = match site {
        AllocSite::BinderParam(i) => (0u8, i as u32),
        AllocSite::DeathRecipient => (1, 0),
        AllocSite::ThreadPeer => (2, 0),
        AllocSite::ParcelStrongBinder => (3, 0),
    };
    e.u8(tag);
    e.u32(idx);
}

fn dec_site_shape(d: &mut Dec) -> Option<AllocSite> {
    let tag = d.u8()?;
    let idx = d.u32()?;
    match tag {
        0 => Some(AllocSite::BinderParam(idx as usize)),
        1 => Some(AllocSite::DeathRecipient),
        2 => Some(AllocSite::ThreadPeer),
        3 => Some(AllocSite::ParcelStrongBinder),
        _ => None,
    }
}

fn enc_fate(e: &mut Enc, site: &SiteSummary) {
    e.u8(match site.fate {
        Retention::Released => 0,
        Retention::Bounded => 1,
        Retention::Unbounded => 2,
    });
    e.u8(match site.escape {
        None => 0,
        Some(EscapeKind::ScalarReplace) => 1,
        Some(EscapeKind::BoundedCollection) => 2,
        Some(EscapeKind::UnboundedCollection) => 3,
    });
    e.u8(u8::from(site.read_only_key));
    e.u8(site.preds.bits());
}

fn dec_fate(d: &mut Dec) -> Option<(Retention, Option<EscapeKind>, bool, PredSet)> {
    let fate = match d.u8()? {
        0 => Retention::Released,
        1 => Retention::Bounded,
        2 => Retention::Unbounded,
        _ => return None,
    };
    let escape = match d.u8()? {
        0 => None,
        1 => Some(EscapeKind::ScalarReplace),
        2 => Some(EscapeKind::BoundedCollection),
        3 => Some(EscapeKind::UnboundedCollection),
        _ => return None,
    };
    let read_only_key = match d.u8()? {
        0 => false,
        1 => true,
        _ => return None,
    };
    // Unknown predicate bits mean a future lattice wrote the file: a
    // typed rejection, not a best-effort decode.
    let preds = PredSet::from_bits(d.u8()?)?;
    Some((fate, escape, read_only_key, preds))
}

/// Encodes the whole-corpus summary table (Tier A): summaries in
/// `MethodId` order with raw ids — valid only under the corpus
/// fingerprint it is stored beside.
pub fn encode_tier_a(summaries: &[MethodSummary]) -> Vec<u8> {
    let mut e = Enc::default();
    e.u32(summaries.len() as u32);
    for s in summaries {
        e.u8(u8::from(s.saw_handler));
        e.u32(s.sites.len() as u32);
        for site in &s.sites {
            e.u32(site.method.0);
            enc_site_shape(&mut e, site.site);
            enc_fate(&mut e, site);
        }
    }
    e.buf
}

/// Decodes Tier A; `method_count` bounds both the table length and every
/// site's raw `MethodId`.
pub fn decode_tier_a(bytes: &[u8], method_count: usize) -> Option<Vec<MethodSummary>> {
    let mut d = Dec::new(bytes);
    let n = d.u32()? as usize;
    if n != method_count {
        return None;
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let saw_handler = d.u8()? != 0;
        let nsites = d.u32()? as usize;
        let mut sites = Vec::with_capacity(nsites.min(1024));
        for _ in 0..nsites {
            let method = d.u32()? as usize;
            if method >= method_count {
                return None;
            }
            let site = dec_site_shape(&mut d)?;
            let (fate, escape, read_only_key, preds) = dec_fate(&mut d)?;
            sites.push(SiteSummary {
                method: MethodId(method as u32),
                site,
                fate,
                escape,
                read_only_key,
                preds,
            });
        }
        out.push(MethodSummary { sites, saw_handler });
    }
    d.done().then_some(out)
}

// ------------------------------------------------------------------
// File load/store
// ------------------------------------------------------------------

/// Why a cache region was rejected, as a typed value — tests and
/// diagnostics can distinguish a stale lattice schema from corruption
/// instead of pattern-matching on counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The file is shorter than the fixed header.
    TruncatedHeader,
    /// The magic bytes did not match [`CACHE_FILE`]'s format.
    BadMagic,
    /// The file was written under a different lattice schema — e.g. a
    /// boolean-guard-era version-2 file read by the predicate lattice.
    StaleSchema {
        /// The version recorded in the file's header.
        found: u32,
    },
    /// A payload failed its checksum or its framing ran off the end.
    Corrupt,
    /// A payload framed and checksummed clean but decoded to values
    /// outside the current domain (unknown tags or predicate bits).
    MalformedPayload,
}

/// The cache file's validated contents. Rejected parts are simply
/// absent; `invalidated` counts every rejection and `reject` records
/// the first one's typed reason.
#[derive(Debug, Default)]
pub struct LoadedCache {
    /// Tier A summaries, present only when the header's corpus
    /// fingerprint matched `expected_fp` and the payload decoded clean.
    pub tier_a: Option<Vec<MethodSummary>>,
    /// SCC count recorded beside Tier A (reported as hits on a full
    /// Tier A hit).
    pub scc_count: u32,
    /// Raw payloads of the record region by key (checksums verified).
    /// The engine writes none and reads none; they are returned only
    /// on a Tier A miss or a repair, so the warm path skips verifying
    /// and copying them.
    pub tier_b: BTreeMap<u64, Vec<u8>>,
    /// Corrupt or stale parts rejected while loading.
    pub invalidated: u64,
    /// The first rejection's reason, when anything was rejected.
    pub reject: Option<RejectReason>,
}

impl LoadedCache {
    fn rejected(&mut self, reason: RejectReason) {
        self.invalidated += 1;
        self.reject.get_or_insert(reason);
    }
}

/// Loads and validates `path`. A missing file is an empty cache, not
/// corruption; every malformed region bumps `invalidated` and is
/// dropped.
pub fn load(path: &Path, expected_fp: u64, method_count: usize) -> LoadedCache {
    let mut out = LoadedCache::default();
    let Ok(bytes) = fs::read(path) else {
        return out;
    };
    if bytes.len() < HEADER_LEN {
        out.rejected(RejectReason::TruncatedHeader);
        return out;
    }
    if &bytes[..8] != MAGIC {
        out.rejected(RejectReason::BadMagic);
        return out;
    }
    let mut d = Dec::new(&bytes[8..]);
    let version = d.u32().expect("header length checked");
    if version != SCHEMA_VERSION {
        out.rejected(RejectReason::StaleSchema { found: version });
        return out;
    }
    let corpus_fp = d.u64().expect("header length checked");
    out.scc_count = d.u32().expect("header length checked");
    let tier_a_len = d.u32().expect("header length checked") as usize;
    let Some(tier_a_payload) = d.take(tier_a_len) else {
        out.rejected(RejectReason::Corrupt);
        return out;
    };
    let Some(tier_a_sum) = d.u64() else {
        out.rejected(RejectReason::Corrupt);
        return out;
    };
    if checksum(tier_a_payload) != tier_a_sum {
        // The length field itself is no longer trustworthy, so neither
        // is any record framing after it: stop here.
        out.rejected(RejectReason::Corrupt);
        return out;
    }
    if corpus_fp == expected_fp {
        match decode_tier_a(tier_a_payload, method_count) {
            Some(summaries) => out.tier_a = Some(summaries),
            None => out.rejected(RejectReason::MalformedPayload),
        }
    }
    // Walk the record framing (cheap pointer arithmetic) so truncation
    // is always detected, but defer the checksums: on a clean Tier A
    // hit verifying a legacy record region would dominate the warm
    // path.
    let mut frames: Vec<(u64, &[u8], u64)> = Vec::new();
    while !d.done() {
        let (Some(key), Some(len)) = (d.u64(), d.u32()) else {
            out.rejected(RejectReason::Corrupt);
            break;
        };
        let Some(payload) = d.take(len as usize) else {
            out.rejected(RejectReason::Corrupt);
            break;
        };
        let Some(sum) = d.u64() else {
            out.rejected(RejectReason::Corrupt);
            break;
        };
        frames.push((key, payload, sum));
    }
    if out.tier_a.is_some() && out.invalidated == 0 {
        return out;
    }
    for (key, payload, sum) in frames {
        if checksum(payload) != sum {
            out.rejected(RejectReason::Corrupt);
            continue;
        }
        // Duplicate keys: last record wins, matching append semantics.
        out.tier_b.insert(key, payload.to_vec());
    }
    out
}

/// Atomically writes the cache file (temp file + rename). Records are
/// emitted in key order so identical logical contents produce
/// identical bytes; the engine always passes none.
pub fn store(
    path: &Path,
    corpus_fp: u64,
    scc_count: u32,
    tier_a: &[u8],
    tier_b: &BTreeMap<u64, Vec<u8>>,
) -> io::Result<()> {
    let mut bytes = Vec::with_capacity(
        HEADER_LEN + tier_a.len() + 8 + tier_b.values().map(|p| p.len() + 20).sum::<usize>(),
    );
    bytes.extend_from_slice(MAGIC);
    bytes.extend_from_slice(&SCHEMA_VERSION.to_le_bytes());
    bytes.extend_from_slice(&corpus_fp.to_le_bytes());
    bytes.extend_from_slice(&scc_count.to_le_bytes());
    bytes.extend_from_slice(&(tier_a.len() as u32).to_le_bytes());
    bytes.extend_from_slice(tier_a);
    bytes.extend_from_slice(&checksum(tier_a).to_le_bytes());
    for (key, payload) in tier_b {
        bytes.extend_from_slice(&key.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(payload);
        bytes.extend_from_slice(&checksum(payload).to_le_bytes());
    }
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    let tmp = path.with_extension("bin.tmp");
    fs::write(&tmp, &bytes)?;
    fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use jgre_corpus::spec::AospSpec;
    use jgre_corpus::CodeModel;
    use std::path::PathBuf;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("jgre-cache-{}-{tag}.bin", std::process::id()))
    }

    #[test]
    fn tier_a_roundtrips() {
        let model = CodeModel::synthesize(&AospSpec::android_6_0_1());
        let analysis = crate::leakcheck::LeakChecker::new(&model).analyze();
        let ordered = analysis.summaries;
        let bytes = encode_tier_a(&ordered);
        let decoded = decode_tier_a(&bytes, model.methods.len()).expect("clean roundtrip");
        assert_eq!(decoded, ordered);
        // The wrong method count must reject the table.
        assert!(decode_tier_a(&bytes, model.methods.len() + 1).is_none());
    }

    #[test]
    fn load_rejects_bad_magic_version_and_checksum() {
        let model = CodeModel::synthesize(&AospSpec::android_6_0_1());
        let path = temp_path("hdr");
        let defaults = vec![MethodSummary::default(); model.methods.len()];
        let tier_a = encode_tier_a(&defaults);
        store(&path, 7, 1, &tier_a, &BTreeMap::new()).unwrap();

        let clean = load(&path, 7, model.methods.len());
        assert_eq!(clean.invalidated, 0);
        assert!(clean.tier_a.is_some());
        // Different corpus fingerprint: stale but not corrupt.
        let stale = load(&path, 8, model.methods.len());
        assert_eq!(stale.invalidated, 0);
        assert!(stale.tier_a.is_none());

        let mut bytes = fs::read(&path).unwrap();
        bytes[0] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        let bad_magic = load(&path, 7, model.methods.len());
        assert_eq!(bad_magic.invalidated, 1);
        assert_eq!(bad_magic.reject, Some(RejectReason::BadMagic));

        let mut bytes = fs::read(&path).unwrap();
        bytes[0] ^= 0xff; // restore magic
        bytes[8] = (SCHEMA_VERSION - 1) as u8; // a previous-era schema
        fs::write(&path, &bytes).unwrap();
        let stale = load(&path, 7, model.methods.len());
        assert_eq!(stale.invalidated, 1);
        assert_eq!(
            stale.reject,
            Some(RejectReason::StaleSchema {
                found: SCHEMA_VERSION - 1
            })
        );

        let mut bytes = fs::read(&path).unwrap();
        bytes[8] = SCHEMA_VERSION as u8; // restore version
        let mid = HEADER_LEN + tier_a.len() / 2;
        bytes[mid] ^= 0xff; // corrupt the Tier A payload
        fs::write(&path, &bytes).unwrap();
        let poisoned = load(&path, 7, model.methods.len());
        assert_eq!(poisoned.invalidated, 1);
        assert_eq!(poisoned.reject, Some(RejectReason::Corrupt));
        assert!(poisoned.tier_a.is_none());

        fs::remove_file(&path).ok();
    }

    #[test]
    fn unknown_predicate_bits_reject_the_payload() {
        // A site whose predicate byte sets bits outside the current
        // lattice must be a typed MalformedPayload rejection, not a
        // silent mis-decode — that is how a *future* lattice's file
        // self-invalidates even under an unchanged version number.
        let model = CodeModel::synthesize(&AospSpec::android_6_0_1());
        let analysis = crate::leakcheck::LeakChecker::new(&model).analyze();
        let ordered = analysis.summaries;
        let mut tier_a = encode_tier_a(&ordered);
        // Poison the final byte of the payload — the last encoded site's
        // predicate byte.
        assert!(decode_tier_a(&tier_a, model.methods.len()).is_some());
        let last = tier_a.len() - 1;
        tier_a[last] |= 0xf0;
        assert!(
            decode_tier_a(&tier_a, model.methods.len()).is_none(),
            "unknown predicate bits must not decode"
        );

        let path = temp_path("predbits");
        store(&path, 7, 1, &tier_a, &BTreeMap::new()).unwrap();
        let loaded = load(&path, 7, model.methods.len());
        assert_eq!(loaded.reject, Some(RejectReason::MalformedPayload));
        fs::remove_file(&path).ok();
    }

    #[test]
    fn clean_tier_a_hit_skips_tier_b_materialization() {
        let path = temp_path("lazy");
        let mut tier_b = BTreeMap::new();
        tier_b.insert(3u64, vec![7u8; 16]);
        store(&path, 11, 1, &encode_tier_a(&[]), &tier_b).unwrap();
        let hit = load(&path, 11, 0);
        assert!(hit.tier_a.is_some());
        assert_eq!(hit.invalidated, 0);
        assert!(hit.tier_b.is_empty(), "records copied on a pure hit");
        // A Tier A miss (other corpus) must still materialize them.
        let miss = load(&path, 12, 0);
        assert!(miss.tier_a.is_none());
        assert_eq!(miss.tier_b.len(), 1);
        fs::remove_file(&path).ok();
    }

    #[test]
    fn load_recovers_tier_b_prefix_from_truncation() {
        let path = temp_path("trunc");
        let mut tier_b = BTreeMap::new();
        tier_b.insert(1u64, vec![0u8; 16]);
        tier_b.insert(2u64, vec![1u8; 16]);
        store(&path, 9, 2, &encode_tier_a(&[]), &tier_b).unwrap();
        let full = fs::read(&path).unwrap();
        // Cut inside the second record: the first must survive.
        fs::write(&path, &full[..full.len() - 4]).unwrap();
        let loaded = load(&path, 9, 0);
        assert_eq!(loaded.invalidated, 1);
        assert_eq!(loaded.tier_b.len(), 1);
        assert!(loaded.tier_b.contains_key(&1));
        fs::remove_file(&path).ok();
    }
}
