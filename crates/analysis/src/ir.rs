//! Basic-block CFG IR: the lowering target for synthesized method bodies.
//!
//! The corpus's structured [`MethodBody`] AST (straight-line statements
//! plus `If` branches) is lowered into a conventional control-flow graph:
//! numbered [`BasicBlock`]s holding flat [`Stmt`] lists, each ended by a
//! [`Terminator`]. The dataflow solver in [`dataflow`](crate::dataflow)
//! iterates over this representation.

use jgre_corpus::body::{AllocSite, BodyStmt, BranchKind, FieldKind, MethodBody, Place, Var};
use jgre_corpus::{CodeModel, MethodDef, MethodId};
use serde::{Deserialize, Serialize};

/// A stable 64-bit content hash of one method's analysis-relevant facts.
///
/// Fingerprints key the on-disk summary cache (through the corpus
/// fingerprint): they must be identical across processes, platforms,
/// and map iteration orders, so they are computed with an explicitly
/// specified chunked mixer ([`StableHasher`]) rather than `std::hash`
/// (whose output is not guaranteed stable between runs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Fingerprint(pub u64);

/// Deterministic 64-bit hasher: each absorbed word is xored into the
/// state and stirred with one multiply + rotate (the absorption map is
/// invertible, so distinct prefixes never merge); [`finish`] runs the
/// splitmix64 finalizer to diffuse the last words. One multiply per
/// *eight* bytes keeps the warm cache path fast — the whole-corpus
/// fingerprint and the on-disk checksums hash megabytes, where a
/// byte-serial walk (FNV et al.) would dominate the runtime.
///
/// [`finish`]: StableHasher::finish
///
/// Every multi-byte value is folded in little-endian order and every
/// variable-length field carries its length, so distinct fact sequences
/// cannot collide by concatenation ambiguity.
#[derive(Debug, Clone)]
pub struct StableHasher(u64);

impl Default for StableHasher {
    fn default() -> Self {
        // Seed at the FNV-1a offset basis (any fixed odd constant works).
        StableHasher(0xcbf2_9ce4_8422_2325)
    }
}

impl StableHasher {
    /// Fresh hasher at the fixed seed.
    pub fn new() -> Self {
        Self::default()
    }

    fn absorb(&mut self, v: u64) {
        self.0 = (self.0 ^ v)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_left(23);
    }

    /// Fold raw bytes, eight at a time, closed by the byte length (so a
    /// trailing zero byte and a missing one hash differently).
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.absorb(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.absorb(u64::from_le_bytes(tail));
        }
        self.absorb(bytes.len() as u64);
    }

    /// Fold one byte.
    pub fn write_u8(&mut self, v: u8) {
        self.absorb(u64::from(v));
    }

    /// Fold a `u32`.
    pub fn write_u32(&mut self, v: u32) {
        self.absorb(u64::from(v));
    }

    /// Fold a `u64`.
    pub fn write_u64(&mut self, v: u64) {
        self.absorb(v);
    }

    /// Fold a string, length-prefixed.
    pub fn write_str(&mut self, s: &str) {
        self.write_u32(s.len() as u32);
        self.write_bytes(s.as_bytes());
    }

    /// The accumulated hash, diffused through the splitmix64 finalizer
    /// (per-absorb stirring is deliberately light, so the raw state's
    /// low bits would be biased toward the last absorbed words).
    pub fn finish(&self) -> u64 {
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Hashes the facts that determine one method's synthesized body and
/// call edges: class + name (the JNI-wrapper special cases key on them),
/// binder-parameter usages, direct and Handler call edges (callees by
/// *name*, so renumbering [`MethodId`]s does not shift fingerprints),
/// and whether the method is a lifted JGR entry point.
///
/// Bodies are derived on demand from exactly these facts
/// (`jgre_corpus::body`), so two methods with equal fact fingerprints
/// lower to identical CFG IR — [`Cfg::fingerprint`] asserts that
/// correspondence in the test suite.
pub fn method_fact_fingerprint(model: &CodeModel, def: &MethodDef, jgr_entry: bool) -> Fingerprint {
    let mut h = StableHasher::new();
    h.write_u64(0x4a47_5245_4d46_5031); // "JGREMFP1": fact-recipe tag
    h.write_str(&def.class);
    h.write_str(&def.name);
    h.write_u8(u8::from(jgr_entry));
    h.write_u32(def.binder_params.len() as u32);
    for usage in &def.binder_params {
        use jgre_corpus::ParamUsage;
        h.write_u8(match usage {
            ParamUsage::StoredInCollection => 0,
            ParamUsage::StoredInCollectionBounded => 1,
            ParamUsage::LocalOnly => 2,
            ParamUsage::ReadOnlyMapKey => 3,
            ParamUsage::AssignedToMemberField => 4,
            ParamUsage::ReleaseSkippedOnError => 5,
            ParamUsage::PermissionGatedRelease => 6,
            ParamUsage::NullCheckGatedStore => 7,
        });
    }
    for (edges, tag) in [(&def.calls, 0u8), (&def.handler_posts, 1u8)] {
        h.write_u32(edges.len() as u32);
        for callee in edges {
            let callee = model.method(*callee);
            h.write_str(&callee.class);
            h.write_str(&callee.name);
            h.write_u8(tag);
        }
    }
    Fingerprint(h.finish())
}

/// Batch form of [`method_fact_fingerprint`] for the whole corpus;
/// `is_jgr_entry[i]` flags method `i` as a lifted JGR entry point.
pub fn method_fact_fingerprints(model: &CodeModel, is_jgr_entry: &[bool]) -> Vec<u64> {
    model
        .methods
        .iter()
        .map(|def| {
            let jgr = is_jgr_entry
                .get(def.id.0 as usize)
                .copied()
                .unwrap_or(false);
            method_fact_fingerprint(model, def, jgr).0
        })
        .collect()
}

/// Combines all per-method fact fingerprints (in [`MethodId`] order) into
/// one corpus-level fingerprint — the key of the whole-corpus fast path
/// in the summary cache.
pub fn corpus_fingerprint(fingerprints: &[u64]) -> Fingerprint {
    let mut h = StableHasher::new();
    h.write_u64(0x4a47_5245_4350_5331); // "JGRECPS1": corpus-recipe tag
    h.write_u32(fingerprints.len() as u32);
    for fp in fingerprints {
        h.write_u64(*fp);
    }
    Fingerprint(h.finish())
}

/// Index of a block in [`Cfg::blocks`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct BlockId(pub u32);

/// One flat IR statement (branches live in the [`Terminator`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Stmt {
    /// A JGR is created and bound to `dst`.
    AllocJgr {
        /// Register receiving the reference.
        dst: Var,
        /// Provenance of the allocation.
        site: AllocSite,
    },
    /// The reference held by `src` is deleted (or revoked by GC).
    ReleaseJgr {
        /// What is released.
        src: Place,
    },
    /// `src` escapes into a member field.
    StoreField {
        /// Register being stored.
        src: Var,
        /// Field name.
        field: String,
        /// Storage kind.
        kind: FieldKind,
    },
    /// `src` is stored into a local — no escape.
    StoreLocal {
        /// Register being stored.
        src: Var,
    },
    /// Call to another Java method.
    Call {
        /// Callee.
        callee: MethodId,
        /// Whether the edge is a `Message`/`Handler` post.
        via_handler: bool,
    },
}

/// How a basic block ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Terminator {
    /// Unconditional jump.
    Goto(BlockId),
    /// Two-way branch. `kind` is the predicate label lowered from the
    /// body's [`BranchKind`]: edge transfers in the leak analysis turn it
    /// into per-branch predicates (bound/permission/null/error).
    Branch {
        /// What the condition tests.
        kind: BranchKind,
        /// Check-passed successor.
        then_: BlockId,
        /// Check-failed successor.
        else_: BlockId,
    },
    /// Method exit.
    Return,
}

/// One basic block.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BasicBlock {
    /// Straight-line statements.
    pub stmts: Vec<Stmt>,
    /// Block terminator.
    pub term: Terminator,
}

/// A per-method control-flow graph. Block 0 is the entry.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Cfg {
    /// All blocks; [`Cfg::ENTRY`] is the function entry.
    pub blocks: Vec<BasicBlock>,
}

impl Cfg {
    /// The entry block.
    pub const ENTRY: BlockId = BlockId(0);

    /// Lowers a structured body into basic-block form.
    ///
    /// # Example
    ///
    /// ```
    /// use jgre_analysis::ir::{Cfg, Terminator};
    /// use jgre_corpus::{spec::AospSpec, CodeModel};
    ///
    /// let model = CodeModel::synthesize(&AospSpec::android_6_0_1());
    /// let id = model.find_method("java.lang.Thread", "nativeCreate").unwrap();
    /// let cfg = Cfg::lower(&model.method_body(id));
    /// assert_eq!(cfg.blocks.len(), 1);
    /// assert_eq!(cfg.blocks[0].term, Terminator::Return);
    /// ```
    pub fn lower(body: &MethodBody) -> Cfg {
        let mut lowerer = Lowerer { blocks: Vec::new() };
        let entry = lowerer.new_block();
        if let Some(open) = lowerer.lower_seq(&body.stmts, entry) {
            lowerer.blocks[open.0 as usize].1 = Some(Terminator::Return);
        }
        Cfg {
            blocks: lowerer
                .blocks
                .into_iter()
                .map(|(stmts, term)| BasicBlock {
                    stmts,
                    term: term.unwrap_or(Terminator::Return),
                })
                .collect(),
        }
    }

    /// Successor blocks of `b`.
    pub fn successors(&self, b: BlockId) -> Vec<BlockId> {
        match self.blocks[b.0 as usize].term {
            Terminator::Goto(t) => vec![t],
            Terminator::Branch { then_, else_, .. } => vec![then_, else_],
            Terminator::Return => Vec::new(),
        }
    }

    /// Stable content hash of the lowered IR, with call edges identified
    /// by callee *name* (resolved through `model`) so the hash survives
    /// [`MethodId`] renumbering.
    ///
    /// [`method_fact_fingerprint`] hashes the fact base this CFG is
    /// derived from; the two agree on "did anything change" because
    /// bodies are synthesized deterministically from facts. The cheaper
    /// fact hash is what the incremental engine uses per run; this one
    /// exists to cross-check that equivalence in tests.
    pub fn fingerprint(&self, model: &CodeModel) -> Fingerprint {
        let mut h = StableHasher::new();
        h.write_u64(0x4a47_5245_4346_4731); // "JGRECFG1": IR-recipe tag
        h.write_u32(self.blocks.len() as u32);
        for block in &self.blocks {
            h.write_u32(block.stmts.len() as u32);
            for stmt in &block.stmts {
                match stmt {
                    Stmt::AllocJgr { dst, site } => {
                        h.write_u8(0);
                        h.write_u32(*dst);
                        let (tag, idx) = match site {
                            AllocSite::BinderParam(i) => (0u8, *i as u32),
                            AllocSite::DeathRecipient => (1, 0),
                            AllocSite::ThreadPeer => (2, 0),
                            AllocSite::ParcelStrongBinder => (3, 0),
                        };
                        h.write_u8(tag);
                        h.write_u32(idx);
                    }
                    Stmt::ReleaseJgr { src } => {
                        h.write_u8(1);
                        match src {
                            Place::Var(v) => {
                                h.write_u8(0);
                                h.write_u32(*v);
                            }
                            Place::Field(f) => {
                                h.write_u8(1);
                                h.write_str(f);
                            }
                        }
                    }
                    Stmt::StoreField { src, field, kind } => {
                        h.write_u8(2);
                        h.write_u32(*src);
                        h.write_str(field);
                        h.write_u8(match kind {
                            FieldKind::Collection { bounded: false } => 0,
                            FieldKind::Collection { bounded: true } => 1,
                            FieldKind::MapKeyReadOnly => 2,
                            FieldKind::Scalar => 3,
                        });
                    }
                    Stmt::StoreLocal { src } => {
                        h.write_u8(3);
                        h.write_u32(*src);
                    }
                    Stmt::Call {
                        callee,
                        via_handler,
                    } => {
                        h.write_u8(4);
                        let callee = model.method(*callee);
                        h.write_str(&callee.class);
                        h.write_str(&callee.name);
                        h.write_u8(u8::from(*via_handler));
                    }
                }
            }
            match block.term {
                Terminator::Goto(t) => {
                    h.write_u8(0);
                    h.write_u32(t.0);
                }
                Terminator::Branch { kind, then_, else_ } => {
                    h.write_u8(1);
                    h.write_u8(match kind {
                        BranchKind::BoundCheck => 0,
                        BranchKind::PermissionCheck => 1,
                        BranchKind::NullCheck => 2,
                        BranchKind::ErrorCheck => 3,
                    });
                    h.write_u32(then_.0);
                    h.write_u32(else_.0);
                }
                Terminator::Return => h.write_u8(2),
            }
        }
        Fingerprint(h.finish())
    }

    /// Blocks in reverse postorder from the entry — the iteration order
    /// that lets a forward worklist converge in few passes.
    pub fn reverse_postorder(&self) -> Vec<BlockId> {
        let mut state = vec![0u8; self.blocks.len()]; // 0 new, 1 open, 2 done
        let mut postorder = Vec::with_capacity(self.blocks.len());
        let mut stack = vec![Self::ENTRY];
        while let Some(&b) = stack.last() {
            match state[b.0 as usize] {
                0 => {
                    state[b.0 as usize] = 1;
                    for succ in self.successors(b) {
                        if state[succ.0 as usize] == 0 {
                            stack.push(succ);
                        }
                    }
                }
                1 => {
                    state[b.0 as usize] = 2;
                    postorder.push(b);
                    stack.pop();
                }
                _ => {
                    stack.pop();
                }
            }
        }
        postorder.reverse();
        postorder
    }
}

struct Lowerer {
    blocks: Vec<(Vec<Stmt>, Option<Terminator>)>,
}

impl Lowerer {
    fn new_block(&mut self) -> BlockId {
        self.blocks.push((Vec::new(), None));
        BlockId((self.blocks.len() - 1) as u32)
    }

    /// Lowers a statement sequence starting in `cur`; returns the block
    /// left open at the end, or `None` when the sequence returned.
    fn lower_seq(&mut self, stmts: &[BodyStmt], mut cur: BlockId) -> Option<BlockId> {
        for stmt in stmts {
            match stmt {
                BodyStmt::AllocJgr { dst, site } => self.push(
                    cur,
                    Stmt::AllocJgr {
                        dst: *dst,
                        site: *site,
                    },
                ),
                BodyStmt::ReleaseJgr { src } => {
                    self.push(cur, Stmt::ReleaseJgr { src: src.clone() });
                }
                BodyStmt::StoreField { src, field, kind } => self.push(
                    cur,
                    Stmt::StoreField {
                        src: *src,
                        field: field.clone(),
                        kind: kind.clone(),
                    },
                ),
                BodyStmt::StoreLocal { src } => self.push(cur, Stmt::StoreLocal { src: *src }),
                BodyStmt::Call {
                    callee,
                    via_handler,
                } => self.push(
                    cur,
                    Stmt::Call {
                        callee: *callee,
                        via_handler: *via_handler,
                    },
                ),
                BodyStmt::If {
                    kind,
                    then_branch,
                    else_branch,
                } => {
                    let then_ = self.new_block();
                    let else_ = self.new_block();
                    self.blocks[cur.0 as usize].1 = Some(Terminator::Branch {
                        kind: *kind,
                        then_,
                        else_,
                    });
                    let t_end = self.lower_seq(then_branch, then_);
                    let e_end = self.lower_seq(else_branch, else_);
                    match (t_end, e_end) {
                        (None, None) => return None,
                        (t, e) => {
                            let join = self.new_block();
                            for open in [t, e].into_iter().flatten() {
                                self.blocks[open.0 as usize].1 = Some(Terminator::Goto(join));
                            }
                            cur = join;
                        }
                    }
                }
                BodyStmt::Return => {
                    self.blocks[cur.0 as usize].1 = Some(Terminator::Return);
                    return None;
                }
            }
        }
        Some(cur)
    }

    fn push(&mut self, block: BlockId, stmt: Stmt) {
        self.blocks[block.0 as usize].0.push(stmt);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jgre_corpus::{spec::AospSpec, CodeModel};

    #[test]
    fn branch_lowering_produces_diamond() {
        let model = CodeModel::synthesize(&AospSpec::android_6_0_1());
        let display = model
            .find_method("com.android.server.DisplayService", "registerCallback")
            .unwrap();
        let cfg = Cfg::lower(&model.method_body(display));
        // entry + then + else + join = 4 blocks.
        assert_eq!(cfg.blocks.len(), 4);
        assert!(matches!(
            cfg.blocks[Cfg::ENTRY.0 as usize].term,
            Terminator::Branch { .. }
        ));
        let rpo = cfg.reverse_postorder();
        assert_eq!(rpo[0], Cfg::ENTRY);
        assert_eq!(rpo.len(), 4, "all blocks reachable");
    }

    #[test]
    fn fingerprints_are_deterministic_across_syntheses() {
        let a = CodeModel::synthesize(&AospSpec::android_6_0_1());
        let b = CodeModel::synthesize(&AospSpec::android_6_0_1());
        for (da, db) in a.methods.iter().zip(&b.methods) {
            assert_eq!(
                method_fact_fingerprint(&a, da, false),
                method_fact_fingerprint(&b, db, false),
            );
            assert_eq!(
                Cfg::lower(&a.method_body(da.id)).fingerprint(&a),
                Cfg::lower(&b.method_body(db.id)).fingerprint(&b),
            );
        }
    }

    #[test]
    fn fact_fingerprint_tracks_cfg_fingerprint() {
        // Equal fact hashes must imply equal IR hashes (soundness of using
        // the cheap fact hash as the cache key), and the mutations the
        // differential suite applies must move both.
        let model = CodeModel::synthesize(&AospSpec::android_6_0_1());
        let mut mutated = model.clone();
        let target = mutated
            .methods
            .iter()
            .position(|d| !d.binder_params.is_empty())
            .expect("some method has binder params");
        mutated.methods[target].binder_params[0] = jgre_corpus::ParamUsage::StoredInCollection;
        mutated.methods[target]
            .binder_params
            .push(jgre_corpus::ParamUsage::LocalOnly);
        for (old, new) in model.methods.iter().zip(&mutated.methods) {
            let facts_equal = method_fact_fingerprint(&model, old, false)
                == method_fact_fingerprint(&mutated, new, false);
            let ir_equal = Cfg::lower(&model.method_body(old.id)).fingerprint(&model)
                == Cfg::lower(&mutated.method_body(new.id)).fingerprint(&mutated);
            assert_eq!(
                facts_equal, ir_equal,
                "fact hash and IR hash disagree for {}.{}",
                old.class, old.name
            );
            assert_eq!(facts_equal, old.id.0 as usize != target);
        }
    }

    #[test]
    fn entry_set_membership_is_part_of_the_fingerprint() {
        let model = CodeModel::synthesize(&AospSpec::android_6_0_1());
        let def = &model.methods[0];
        assert_ne!(
            method_fact_fingerprint(&model, def, false),
            method_fact_fingerprint(&model, def, true),
        );
    }

    #[test]
    fn batch_fingerprints_match_the_single_method_recipe() {
        let model = CodeModel::synthesize(&AospSpec::android_6_0_1());
        let mut entries = vec![false; model.methods.len()];
        entries[7] = true;
        let batch = method_fact_fingerprints(&model, &entries);
        for def in &model.methods {
            assert_eq!(
                batch[def.id.0 as usize],
                method_fact_fingerprint(&model, def, def.id.0 == 7).0,
                "batch diverged for {}.{}",
                def.class,
                def.name
            );
        }
    }

    #[test]
    fn corpus_fingerprint_is_order_and_content_sensitive() {
        assert_ne!(corpus_fingerprint(&[1, 2]), corpus_fingerprint(&[2, 1]));
        assert_ne!(corpus_fingerprint(&[1, 2]), corpus_fingerprint(&[1, 2, 3]));
        assert_eq!(corpus_fingerprint(&[1, 2]), corpus_fingerprint(&[1, 2]));
    }

    #[test]
    fn error_path_shapes_lower_with_labeled_branches_and_two_exits() {
        let model = CodeModel::synthesize_with_error_paths(&AospSpec::android_6_0_1());
        let id = model
            .find_method(jgre_corpus::ERROR_PATH_CLASS, "registerOnError")
            .unwrap();
        let cfg = Cfg::lower(&model.method_body(id));
        assert!(cfg.blocks.iter().any(|b| matches!(
            b.term,
            Terminator::Branch {
                kind: BranchKind::ErrorCheck,
                ..
            }
        )));
        // The early error return is a second, distinct exit block.
        let exits = cfg
            .blocks
            .iter()
            .filter(|b| matches!(b.term, Terminator::Return))
            .count();
        assert_eq!(exits, 2, "early return creates a second exit");
    }

    #[test]
    fn branch_kind_is_part_of_the_cfg_fingerprint() {
        let model = CodeModel::synthesize(&AospSpec::android_6_0_1());
        let body = MethodBody {
            stmts: vec![
                BodyStmt::If {
                    kind: BranchKind::NullCheck,
                    then_branch: vec![],
                    else_branch: vec![],
                },
                BodyStmt::Return,
            ],
        };
        let mut relabeled = body.clone();
        let BodyStmt::If { kind, .. } = &mut relabeled.stmts[0] else {
            unreachable!();
        };
        *kind = BranchKind::ErrorCheck;
        assert_ne!(
            Cfg::lower(&body).fingerprint(&model),
            Cfg::lower(&relabeled).fingerprint(&model),
        );
    }

    #[test]
    fn every_corpus_body_lowers_and_terminates() {
        let model = CodeModel::synthesize(&AospSpec::android_6_0_1());
        for def in &model.methods {
            let cfg = Cfg::lower(&model.method_body(def.id));
            assert!(!cfg.blocks.is_empty());
            assert!(
                cfg.blocks
                    .iter()
                    .any(|b| matches!(b.term, Terminator::Return)),
                "{}.{} has no return block",
                def.class,
                def.name
            );
            // The RPO must visit every reachable block exactly once.
            let rpo = cfg.reverse_postorder();
            let unique: std::collections::BTreeSet<_> = rpo.iter().collect();
            assert_eq!(unique.len(), rpo.len());
        }
    }
}
