//! Negative tests for the on-disk summary cache: corrupt bytes, a
//! truncated file, a stale schema version, bad magic, and an empty file
//! must each be detected and recomputed around — bumping the
//! `cache_invalidated` counter, never panicking, and never changing a
//! verdict.

use std::fs;
use std::path::PathBuf;

use jgre_analysis::{
    AnalysisOptions, DataflowDetector, DataflowOutput, IpcMethod, IpcMethodExtractor,
    JgrEntryExtractor, JgrEntrySets, CACHE_FILE,
};
use jgre_corpus::{spec::AospSpec, CodeModel, ParamUsage};

// magic (8) + version (4) + corpus fingerprint (8) + scc count (4) +
// Tier A length (4); see the cache module's layout doc.
const HEADER_LEN: usize = 28;
const VERSION_OFFSET: usize = 8;

struct Fixture {
    model: CodeModel,
    ipc: Vec<IpcMethod>,
    entries: JgrEntrySets,
    dir: PathBuf,
    pristine: Vec<u8>,
    cold: DataflowOutput,
}

impl Fixture {
    fn new(tag: &str) -> Fixture {
        let model = CodeModel::synthesize(&AospSpec::android_6_0_1());
        let ipc = IpcMethodExtractor::new(&model).extract();
        let entries = JgrEntryExtractor::new(&model).extract();
        let dir = std::env::temp_dir().join(format!("jgre-poison-{}-{tag}", std::process::id()));
        fs::remove_dir_all(&dir).ok();
        let detector = DataflowDetector::new(&model, &entries);
        let cold = detector.detect(&ipc);
        detector.detect_with(&ipc, &AnalysisOptions::with_cache_dir(&dir));
        let pristine = fs::read(dir.join(CACHE_FILE)).expect("cache file written");
        Fixture {
            model,
            ipc,
            entries,
            dir,
            pristine,
            cold,
        }
    }

    fn run_with_bytes(&self, bytes: &[u8]) -> DataflowOutput {
        fs::write(self.dir.join(CACHE_FILE), bytes).unwrap();
        DataflowDetector::new(&self.model, &self.entries)
            .detect_with(&self.ipc, &AnalysisOptions::with_cache_dir(&self.dir))
    }

    fn assert_recovered(&self, out: &DataflowOutput, scenario: &str) {
        assert_eq!(
            out.detector, self.cold.detector,
            "{scenario}: wrong verdicts"
        );
        assert_eq!(
            out.verdicts, self.cold.verdicts,
            "{scenario}: wrong verdicts"
        );
        assert!(
            out.stats.cache_invalidated >= 1,
            "{scenario}: invalidation not counted (stats: {:?})",
            out.stats
        );
        // The poisoned file must have been rewritten clean: the next run
        // is a pure warm hit again.
        let warm = DataflowDetector::new(&self.model, &self.entries)
            .detect_with(&self.ipc, &AnalysisOptions::with_cache_dir(&self.dir));
        assert_eq!(warm.stats.cache_misses, 0, "{scenario}: cache not repaired");
        assert_eq!(warm.stats.cache_invalidated, 0, "{scenario}: still corrupt");
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        fs::remove_dir_all(&self.dir).ok();
    }
}

#[test]
fn corrupt_tier_a_byte_is_detected_and_recomputed() {
    let f = Fixture::new("flip");
    let tier_a_len =
        u32::from_le_bytes(f.pristine[HEADER_LEN - 4..HEADER_LEN].try_into().unwrap()) as usize;
    assert!(tier_a_len > 0, "fixture stores a Tier A table");
    let mut bytes = f.pristine.clone();
    bytes[HEADER_LEN + tier_a_len / 2] ^= 0xff;
    let out = f.run_with_bytes(&bytes);
    f.assert_recovered(&out, "flipped Tier A byte");
}

#[test]
fn truncated_file_is_detected_and_recomputed() {
    let f = Fixture::new("trunc");
    let out = f.run_with_bytes(&f.pristine[..f.pristine.len() / 2]);
    f.assert_recovered(&out, "truncated file");
}

#[test]
fn stale_schema_version_is_rejected() {
    let f = Fixture::new("version");
    let mut bytes = f.pristine.clone();
    // A decrement models a file left behind by an older build.
    bytes[VERSION_OFFSET] = bytes[VERSION_OFFSET].wrapping_sub(1);
    let out = f.run_with_bytes(&bytes);
    f.assert_recovered(&out, "stale schema version");
}

#[test]
fn stale_schema_rejection_is_typed() {
    use jgre_analysis::cache;
    use jgre_analysis::{RejectReason, SCHEMA_VERSION};
    let f = Fixture::new("typed");
    // A boolean-guard-era file: same framing, previous version number.
    let mut bytes = f.pristine.clone();
    bytes[VERSION_OFFSET..VERSION_OFFSET + 4].copy_from_slice(&(SCHEMA_VERSION - 1).to_le_bytes());
    let path = f.dir.join("stale.bin");
    fs::write(&path, &bytes).unwrap();
    let loaded = cache::load(&path, 0, f.model.methods.len());
    assert_eq!(
        loaded.reject,
        Some(RejectReason::StaleSchema {
            found: SCHEMA_VERSION - 1
        }),
        "schema staleness must be distinguishable from corruption"
    );
    assert!(loaded.tier_a.is_none());
    assert!(loaded.tier_b.is_empty(), "stale files are rejected whole");
    // Corruption reports a different typed reason.
    let mut garbage = f.pristine.clone();
    garbage[..8].copy_from_slice(b"NOTJGRE!");
    fs::write(&path, &garbage).unwrap();
    assert_eq!(
        cache::load(&path, 0, f.model.methods.len()).reject,
        Some(RejectReason::BadMagic)
    );
}

#[test]
fn garbage_magic_is_rejected() {
    let f = Fixture::new("magic");
    let mut bytes = f.pristine.clone();
    bytes[..8].copy_from_slice(b"NOTJGRE!");
    let out = f.run_with_bytes(&bytes);
    f.assert_recovered(&out, "garbage magic");
}

#[test]
fn empty_file_is_rejected() {
    let f = Fixture::new("empty");
    let out = f.run_with_bytes(&[]);
    f.assert_recovered(&out, "empty file");
}

/// A copy of `pristine` (Tier A only, as the engine writes it) with a
/// record region appended through `cache::store`, as files from the
/// per-SCC-record era carry one. The header is kept, so the file still
/// matches the corpus it was written for.
fn with_records(pristine: &[u8], path: &std::path::Path) -> Vec<u8> {
    use std::collections::BTreeMap;
    let tier_a_len =
        u32::from_le_bytes(pristine[HEADER_LEN - 4..HEADER_LEN].try_into().unwrap()) as usize;
    let corpus_fp = u64::from_le_bytes(pristine[12..20].try_into().unwrap());
    let scc_count = u32::from_le_bytes(pristine[20..24].try_into().unwrap());
    let records: BTreeMap<u64, Vec<u8>> = (1..=3u64).map(|k| (k, vec![k as u8; 24])).collect();
    jgre_analysis::cache::store(
        path,
        corpus_fp,
        scc_count,
        &pristine[HEADER_LEN..HEADER_LEN + tier_a_len],
        &records,
    )
    .unwrap();
    let bytes = fs::read(path).unwrap();
    assert!(bytes.len() > pristine.len(), "records appended");
    assert_eq!(bytes[..pristine.len()], pristine[..], "Tier A unchanged");
    bytes
}

#[test]
fn corrupt_tier_b_record_invalidates_only_that_record() {
    let f = Fixture::new("tierb");
    let mut bytes = with_records(&f.pristine, &f.dir.join("records.bin"));
    // First record: [key u64][len u32][payload][checksum u64] right
    // after the Tier A block and its checksum.
    let payload_at = f.pristine.len() + 12;
    bytes[payload_at] ^= 0xff;
    // Tier A still matches this corpus, so the poisoned record is only
    // reached after an edit breaks the Tier A fast path. Simulate by
    // clearing the stored corpus fingerprint.
    bytes[12..20].copy_from_slice(&[0u8; 8]);
    let out = f.run_with_bytes(&bytes);
    assert_eq!(
        out.detector, f.cold.detector,
        "tier B poison: wrong verdicts"
    );
    assert!(out.stats.cache_invalidated >= 1, "stats: {:?}", out.stats);
    f.assert_recovered(&out, "corrupt record");
}

/// The engine keeps one table: the file it writes ends right after the
/// Tier A checksum. A file that still carries records warm-hits, and the
/// first rewrite (after an edit) drops them.
#[test]
fn engine_writes_tier_a_only_and_drops_legacy_records() {
    let f = Fixture::new("onetier");
    let tier_a_len =
        u32::from_le_bytes(f.pristine[HEADER_LEN - 4..HEADER_LEN].try_into().unwrap()) as usize;
    assert_eq!(
        f.pristine.len(),
        HEADER_LEN + tier_a_len + 8,
        "the engine wrote a record region"
    );

    let legacy = with_records(&f.pristine, &f.dir.join("records.bin"));
    let warm = f.run_with_bytes(&legacy);
    assert_eq!(warm.stats.cache_misses, 0, "stats: {:?}", warm.stats);
    assert_eq!(warm.stats.cache_invalidated, 0, "stats: {:?}", warm.stats);
    assert_eq!(warm.detector, f.cold.detector);
    // A clean hit leaves the file as it was.
    assert_eq!(fs::read(f.dir.join(CACHE_FILE)).unwrap(), legacy);

    // One-method edit: the first binder param flips retained <-> local.
    let mut edited = f.model.clone();
    let def = edited
        .methods
        .iter_mut()
        .find(|d| !d.binder_params.is_empty())
        .expect("corpus has a method with binder params");
    def.binder_params[0] = match def.binder_params[0] {
        ParamUsage::StoredInCollection => ParamUsage::LocalOnly,
        _ => ParamUsage::StoredInCollection,
    };
    let ipc = IpcMethodExtractor::new(&edited).extract();
    let entries = JgrEntryExtractor::new(&edited).extract();
    let detector = DataflowDetector::new(&edited, &entries);
    let cached = detector.detect_with(&ipc, &AnalysisOptions::with_cache_dir(&f.dir));
    let cold = detector.detect(&ipc);
    assert_eq!(cached.detector, cold.detector);
    assert_eq!(cached.verdicts, cold.verdicts);
    assert_eq!(cached.stats.cache_hits, 0, "stats: {:?}", cached.stats);
    assert_eq!(
        cached.stats.cache_misses, cached.stats.sccs as u64,
        "stats: {:?}",
        cached.stats
    );
    let rewritten = fs::read(f.dir.join(CACHE_FILE)).unwrap();
    let new_len =
        u32::from_le_bytes(rewritten[HEADER_LEN - 4..HEADER_LEN].try_into().unwrap()) as usize;
    assert_eq!(
        rewritten.len(),
        HEADER_LEN + new_len + 8,
        "the rewrite kept a record region"
    );
}
