//! Compiled join kernels for the per-reducer hot path.
//!
//! Every reducer of a [`PairJob`](crate::PairJob) receives a bag of
//! left rows and a bag of right rows and must produce the matching
//! pairs. The naive implementation re-resolves predicate columns
//! through [`IntermediateShape`] lookups (two binary searches per value
//! access) for every candidate pair — O(|L|·|R|) shape lookups and
//! operator dispatches per reducer. This module compiles the predicate
//! set **once** per job into flat column indices and per-operator
//! function pointers, then dispatches to a specialised kernel.
//!
//! # Kernel selection rules
//!
//! [`PairKernel::compile`] inspects the predicate set and picks, in
//! order:
//!
//! 1. **Hash** ([`KernelKind::Hash`]) — chosen when there is an
//!    equality component: at least one shared relation (merge
//!    semantics: both sides carry the same query relation and must
//!    agree on its tuple) or at least one zero-offset `=` predicate.
//!    Builds a hash table over the equality key on the **smaller**
//!    side, probes with the larger, and filters every candidate with
//!    the full compiled predicate set (hashing is consistent with, but
//!    coarser than, SQL equality — probe hits are *candidates*, not
//!    matches).
//! 2. **Band** ([`KernelKind::Band`]) — chosen when there is no
//!    equality component and the predicate set is a **single**
//!    inequality (`<`, `<=`, `>=`, `>`, offsets allowed). Sorts both
//!    sides on the (possibly offset) join column and emits, per left
//!    row, the contiguous run of right rows satisfying the operator —
//!    O((|L|+|R|)·log + output) instead of O(|L|·|R|). Comparison
//!    semantics replicate [`eval_theta`] exactly: with offsets only
//!    numeric values participate (f64 arithmetic, `total_cmp`);
//!    without offsets numerics and strings join within their own type
//!    class, NULLs and cross-class pairs never match. An all-integer
//!    zero-offset numeric class sorts on exact `i64` keys (valid at
//!    any magnitude); only when integers beyond ±2⁵³ *mix with
//!    doubles* (where SQL compares Int/Int exactly but Int/Double
//!    through f64, so no single sort key reproduces the order) does
//!    the kernel bail out to the nested loop for that input —
//!    exactness always wins. The band is also **density
//!    gated**: it first counts the matches with an O(|L|+|R|) boundary
//!    walk and hands dense outputs (more than ⅛ of the cross product)
//!    back to the nested loop, which is output-bound there and skips
//!    the pair sort.
//! 3. **Nested** ([`KernelKind::Nested`]) — the fallback for
//!    irreducible theta sets (`!=`, multi-inequality conjunctions,
//!    offset equalities). Still compiled: flat column indices and one
//!    function-pointer dispatch per predicate, no shape lookups.
//!
//! # Vectorized evaluation
//!
//! Relations are stored as rows (`Arc`-shared tuples), but all three
//! kernels run their hot paths over *key vectors*, not tuple structs.
//! Each reducer input is transposed once — key and predicate columns
//! are projected into `&[i64]`/`&[f64]` vectors — and the inner loops
//! then run over contiguous typed slices: the hash plan folds
//! per-column key bits into one 64-bit hash per row, the band plan
//! sorts typed keys (with an exact `i64` class for all-integer
//! columns, which no longer bails out on values beyond ±2⁵³), and the
//! nested loop evaluates predicates through [`TypedPred`] — rows are
//! gathered only at emit time. Inputs whose value mix cannot be
//! vectorized exactly fall back to per-pair [`eval_theta`], so results
//! never change.
//!
//! All kernels emit matching `(left, right)` index pairs in
//! left-major input order — exactly the order the naive nested loop
//! produced — so downstream byte accounting and block layouts are
//! bit-identical; only host wall-clock changes.
//!
//! The simulated cost model is **unaffected** by kernel choice:
//! reducers still report `|L|·|R|` candidates for pair joins (the work
//! a real Hadoop reducer running the naive algorithm would do), so
//! Eq. 2–4 phase timings stay bit-identical before/after this
//! optimisation.
//!
//! # Panic safety under task retries
//!
//! The engine runs every reduce attempt under `catch_unwind` and may
//! rerun it from the same materialised input (fault injection, real
//! panics). Kernels are safe to rerun because they are pure over
//! per-reducer local data: they read the borrowed row bags, build only
//! attempt-local scratch (hash tables, sort permutations) and emit
//! into an attempt-local output — no global or cross-attempt state is
//! mutated, so an unwound attempt leaves nothing to clean up and a
//! rerun is bit-identical.

use crate::shape::IntermediateShape;
use mwtj_query::theta::{eval_theta, CompiledPredicate, ThetaOp, TypedPred};
use mwtj_storage::{Tuple, Value};
use std::collections::HashMap;
use std::hash::Hasher;

/// Signature of a compiled theta evaluator:
/// `(left value, left offset, right value, right offset) -> holds`.
type ThetaFn = fn(&Value, f64, &Value, f64) -> bool;

/// Pass-through hasher for keys that are already well-mixed 64-bit
/// hashes (the hash join's `key_hash` output).
#[derive(Default)]
struct PreHashed(u64);

impl Hasher for PreHashed {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("PreHashed only hashes u64 keys");
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }
}

type PreHashedMap = HashMap<u64, Vec<u32>, std::hash::BuildHasherDefault<PreHashed>>;

/// Seed for the vectorized key hash (the FNV-1a offset basis).
const HASH_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over a byte string — the hash contribution of string keys.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = HASH_SEED;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// One key column's contribution to a row's equality hash. The only
/// contract is *SQL-equal values contribute equal bits* (collisions
/// are filtered by the full `matches` check): numerics contribute
/// their f64-bits view — `sql_cmp` compares Int/Double (and equality
/// under total_cmp) through exactly that view, and equal Int/Int pairs
/// trivially share bits — strings contribute an FNV over their bytes,
/// and NULLs (equal only to each other, for the shared-relation merge
/// key) a fixed tag. Cross-class values are never SQL-equal, so their
/// contributions are unconstrained.
#[inline]
fn key_bits(v: &Value) -> u64 {
    match v {
        Value::Int(x) => (*x as f64).to_bits(),
        Value::Double(d) => d.to_bits(),
        Value::Str(s) => fnv1a(s.as_bytes()),
        Value::Null => 0x6e75_6c6c_6e75_6c6c, // "nullnull"
    }
}

/// Fold one column contribution into a running key hash
/// (splitmix-style multiply/xor-shift: cheap, and pushes entropy into
/// the low bits the identity-hashed table buckets on).
#[inline]
fn hash_mix(h: u64, c: u64) -> u64 {
    let x = (h ^ c).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x ^ (x >> 32)
}

/// Monomorphised evaluator for one operator: the `op` branch is
/// resolved once at compile time instead of once per candidate pair.
fn theta_fn(op: ThetaOp) -> ThetaFn {
    match op {
        ThetaOp::Lt => |l, lo, r, ro| eval_theta(l, lo, ThetaOp::Lt, r, ro),
        ThetaOp::Le => |l, lo, r, ro| eval_theta(l, lo, ThetaOp::Le, r, ro),
        ThetaOp::Eq => |l, lo, r, ro| eval_theta(l, lo, ThetaOp::Eq, r, ro),
        ThetaOp::Ge => |l, lo, r, ro| eval_theta(l, lo, ThetaOp::Ge, r, ro),
        ThetaOp::Gt => |l, lo, r, ro| eval_theta(l, lo, ThetaOp::Gt, r, ro),
        ThetaOp::Ne => |l, lo, r, ro| eval_theta(l, lo, ThetaOp::Ne, r, ro),
    }
}

/// A predicate resolved to flat column indices into the (left row,
/// right row) pair, with a pre-selected operator function.
#[derive(Clone)]
pub struct FlatPred {
    l_col: usize,
    l_off: f64,
    r_col: usize,
    r_off: f64,
    op: ThetaOp,
    f: ThetaFn,
}

impl FlatPred {
    /// Does the predicate hold for the pair?
    #[inline]
    pub fn holds(&self, l: &Tuple, r: &Tuple) -> bool {
        (self.f)(l.get(self.l_col), self.l_off, r.get(self.r_col), self.r_off)
    }
}

impl std::fmt::Debug for FlatPred {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "col{}+{} {} col{}+{}",
            self.l_col, self.l_off, self.op, self.r_col, self.r_off
        )
    }
}

/// A predicate compiled against a *stack* of per-dimension tuples (the
/// chain join's recursive descent), with a pre-selected operator
/// function — the chain-side analogue of [`FlatPred`].
#[derive(Clone)]
pub struct StackPred {
    a_slot: usize,
    a_col: usize,
    a_off: f64,
    b_slot: usize,
    b_col: usize,
    b_off: f64,
    /// Depth at which the predicate becomes checkable (both slots
    /// bound).
    depth: usize,
    f: ThetaFn,
}

impl StackPred {
    /// Compile from a [`CompiledPredicate`] whose relation indices are
    /// already remapped to stack slots.
    pub fn from_compiled(p: &CompiledPredicate) -> Self {
        StackPred {
            a_slot: p.left_rel,
            a_col: p.left_col,
            a_off: p.left_off,
            b_slot: p.right_rel,
            b_col: p.right_col,
            b_off: p.right_off,
            depth: p.left_rel.max(p.right_rel),
            f: theta_fn(p.op),
        }
    }

    /// Depth at which both referenced slots are bound.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Does the predicate hold for the bound stack prefix?
    #[inline]
    pub fn holds(&self, stack: &[&Tuple]) -> bool {
        (self.f)(
            stack[self.a_slot].get(self.a_col),
            self.a_off,
            stack[self.b_slot].get(self.b_col),
            self.b_off,
        )
    }
}

/// Which specialised algorithm a [`PairKernel`] dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    /// Hash join on the equality component, residual-filtered.
    Hash,
    /// Sort-merge band join on a single inequality.
    Band,
    /// Compiled nested loop (irreducible theta set).
    Nested,
}

/// The band join's key semantics (see module docs).
#[derive(Debug, Clone, Copy)]
enum BandMode {
    /// Offsets present: only numeric values participate, keys are
    /// `value + offset` as f64 — exactly `eval_theta`'s numeric path.
    Numeric,
    /// Zero offsets: numerics join numerics (f64 keys, with an i64
    /// exactness guard), strings join strings, NULLs never match —
    /// exactly `eval_theta`'s `sql_cmp` path.
    SqlValue,
}

enum Plan {
    /// Hash join on the kernel's `eq_key` columns.
    Hash,
    Band {
        l_col: usize,
        l_off: f64,
        r_col: usize,
        r_off: f64,
        op: ThetaOp,
        mode: BandMode,
    },
    Nested,
}

/// A pair-join kernel compiled once per job from the shapes and the
/// predicate set. `join_into` then runs the per-reducer join with no
/// shape lookups, no string resolution and no per-pair operator
/// dispatch.
pub struct PairKernel {
    plan: Plan,
    /// All predicates, flat-resolved — the full correctness filter.
    preds: Vec<FlatPred>,
    /// Shared-relation column ranges: (left start, right start, width).
    /// Rows must agree on these values (total equality, the merge key).
    shared: Vec<(usize, usize, usize)>,
    /// The equality component as flat (left col, right col) pairs:
    /// shared-relation columns first (canonical order), then
    /// zero-offset `=` predicate columns in predicate order. The hash
    /// plan's build/probe key, and the single source of truth for
    /// map-side `EquiHash` partitioning keys.
    eq_key: Vec<(usize, usize)>,
    /// Output assembly program: (take from left?, start, len) slices in
    /// output order.
    segments: Vec<(bool, usize, usize)>,
    out_arity: usize,
}

impl PairKernel {
    /// Compile a kernel for joining rows shaped `left` and `right` into
    /// rows shaped `out` under `preds` (query-relation indexed; each
    /// predicate must span the two sides).
    pub fn compile(
        left: &IntermediateShape,
        right: &IntermediateShape,
        out: &IntermediateShape,
        preds: &[CompiledPredicate],
    ) -> Self {
        Self::compile_inner(left, right, out, preds, false)
    }

    /// Compile with the specialised kernels disabled — always the
    /// compiled nested loop. The baseline for benchmarks and the
    /// differential oracle for property tests.
    pub fn compile_nested(
        left: &IntermediateShape,
        right: &IntermediateShape,
        out: &IntermediateShape,
        preds: &[CompiledPredicate],
    ) -> Self {
        Self::compile_inner(left, right, out, preds, true)
    }

    fn compile_inner(
        left: &IntermediateShape,
        right: &IntermediateShape,
        out: &IntermediateShape,
        preds: &[CompiledPredicate],
        force_nested: bool,
    ) -> Self {
        // Shared relations: the merge equality component.
        let shared_rels = IntermediateShape::shared(left, right);
        let shared: Vec<(usize, usize, usize)> = shared_rels
            .iter()
            .map(|&rel| {
                let l = left.col_range(rel);
                let r = right.col_range(rel);
                debug_assert_eq!(l.len(), r.len());
                (l.start, r.start, l.len())
            })
            .collect();

        // Resolve predicate orientation and flatten column references.
        let mut flat = Vec::with_capacity(preds.len());
        let mut eq_key: Vec<(usize, usize)> = shared
            .iter()
            .flat_map(|&(ls, rs, w)| (0..w).map(move |i| (ls + i, rs + i)))
            .collect();
        for p in preds {
            let fp = if left.has(p.left_rel) && right.has(p.right_rel) {
                FlatPred {
                    l_col: left.col_range(p.left_rel).start + p.left_col,
                    l_off: p.left_off,
                    r_col: right.col_range(p.right_rel).start + p.right_col,
                    r_off: p.right_off,
                    op: p.op,
                    f: theta_fn(p.op),
                }
            } else {
                // The predicate's left end lives on our right side:
                // flip it (a θ b  ⇔  b θ̄ a).
                let op = p.op.flip();
                FlatPred {
                    l_col: left.col_range(p.right_rel).start + p.right_col,
                    l_off: p.right_off,
                    r_col: right.col_range(p.left_rel).start + p.left_col,
                    r_off: p.left_off,
                    op,
                    f: theta_fn(op),
                }
            };
            if fp.op == ThetaOp::Eq && fp.l_off == 0.0 && fp.r_off == 0.0 {
                eq_key.push((fp.l_col, fp.r_col));
            }
            flat.push(fp);
        }

        let plan = if force_nested {
            Plan::Nested
        } else if !eq_key.is_empty() {
            Plan::Hash
        } else if flat.len() == 1
            && matches!(
                flat[0].op,
                ThetaOp::Lt | ThetaOp::Le | ThetaOp::Ge | ThetaOp::Gt
            )
        {
            let p = &flat[0];
            let mode = if p.l_off == 0.0 && p.r_off == 0.0 {
                BandMode::SqlValue
            } else {
                BandMode::Numeric
            };
            Plan::Band {
                l_col: p.l_col,
                l_off: p.l_off,
                r_col: p.r_col,
                r_off: p.r_off,
                op: p.op,
                mode,
            }
        } else {
            Plan::Nested
        };

        // Output assembly: for each output relation, the first side
        // carrying it provides the columns (left preferred, as the
        // historical `assemble(&[left, right])` call sites did).
        let mut segments = Vec::with_capacity(out.rels.len());
        for &rel in &out.rels {
            let (from_left, range) = if left.has(rel) {
                (true, left.col_range(rel))
            } else {
                (false, right.col_range(rel))
            };
            segments.push((from_left, range.start, range.len()));
        }

        PairKernel {
            plan,
            preds: flat,
            shared,
            eq_key,
            segments,
            out_arity: out.arity(),
        }
    }

    /// The algorithm this kernel dispatches to.
    pub fn kind(&self) -> KernelKind {
        match self.plan {
            Plan::Hash => KernelKind::Hash,
            Plan::Band { .. } => KernelKind::Band,
            Plan::Nested => KernelKind::Nested,
        }
    }

    /// The equality component as flat (left col, right col) pairs, in
    /// canonical order (shared-relation columns, then zero-offset `=`
    /// predicate columns). Empty when the predicate set has no
    /// equality component. Map-side `EquiHash` partitioning derives its
    /// per-side key columns from this, so the shuffle key and the
    /// reduce-side build/probe key can never drift apart.
    pub fn equality_key(&self) -> &[(usize, usize)] {
        &self.eq_key
    }

    /// The compiled theta predicates as flat
    /// `(left col, left offset, op, right col, right offset)` tuples,
    /// always oriented left-side-first — the inputs zone-map skip
    /// filters need. Shared-relation equality constraints are *not*
    /// included (they are an additional conjunct, so pruning on the
    /// theta predicates alone stays conservative).
    pub fn flat_preds(&self) -> impl Iterator<Item = (usize, f64, ThetaOp, usize, f64)> + '_ {
        self.preds
            .iter()
            .map(|p| (p.l_col, p.l_off, p.op, p.r_col, p.r_off))
    }

    /// Full match check for one candidate pair: shared-relation
    /// agreement plus every predicate.
    #[inline]
    fn matches(&self, l: &Tuple, r: &Tuple) -> bool {
        for &(ls, rs, w) in &self.shared {
            if l.values()[ls..ls + w] != r.values()[rs..rs + w] {
                return false;
            }
        }
        self.preds.iter().all(|p| p.holds(l, r))
    }

    /// Join `lefts` × `rights`, appending matching `(left index, right
    /// index)` pairs to `pairs` in left-major input order (the exact
    /// order a nested loop over the inputs would emit).
    pub fn join_into(&self, lefts: &[&Tuple], rights: &[&Tuple], pairs: &mut Vec<(u32, u32)>) {
        if lefts.is_empty() || rights.is_empty() {
            return;
        }
        let base = pairs.len();
        match &self.plan {
            Plan::Nested => self.join_nested(lefts, rights, pairs),
            Plan::Hash => self.join_hash(&self.eq_key, lefts, rights, pairs),
            Plan::Band {
                l_col,
                l_off,
                r_col,
                r_off,
                op,
                mode,
            } => {
                let done = self.join_band(
                    (*l_col, *l_off),
                    (*r_col, *r_off),
                    *op,
                    *mode,
                    lefts,
                    rights,
                    pairs,
                );
                if !done {
                    // Exactness bail-out (i64 keys beyond ±2^53).
                    pairs.truncate(base);
                    self.join_nested(lefts, rights, pairs);
                    return;
                }
            }
        }
        // Hash and band collect out of probe/sort order; restore the
        // canonical left-major order (cheap: u32 pairs, already nearly
        // sorted in the common probe-with-left case).
        if !matches!(self.plan, Plan::Nested) {
            pairs[base..].sort_unstable();
        }
    }

    /// Visit matching `(left index, right index)` pairs in the same
    /// left-major order as [`PairKernel::join_into`], stopping early
    /// (returning `false`) when `visit` returns `false` — the streamed
    /// emission path.
    ///
    /// The nested-loop plan visits truly incrementally, never
    /// materialising the pair set — and it is exactly the plan dense
    /// outputs land on (the band kernel's density gate and the hash
    /// plan's key structure keep the sparse cases elsewhere), so the
    /// worst-case output is the best-streamed one. Hash and band plans
    /// buffer *index pairs* (8 bytes each, never materialised rows) to
    /// restore left-major order before visiting.
    pub fn join_visit(
        &self,
        lefts: &[&Tuple],
        rights: &[&Tuple],
        visit: &mut dyn FnMut(u32, u32) -> bool,
    ) -> bool {
        if lefts.is_empty() || rights.is_empty() {
            return true;
        }
        match &self.plan {
            Plan::Nested => self.visit_nested(lefts, rights, visit),
            _ => {
                let mut pairs = Vec::new();
                self.join_into(lefts, rights, &mut pairs);
                for (li, ri) in pairs {
                    if !visit(li, ri) {
                        return false;
                    }
                }
                true
            }
        }
    }

    /// Candidate-pair threshold above which the nested loop pays the
    /// one-time column transpose to evaluate predicates through
    /// [`TypedPred`]. Below it the projection overhead dominates the
    /// O(|L|·|R|) saving.
    const VECTOR_MIN_PAIRS: u64 = 4096;

    /// Compiled nested loop as a visitor; returns `false` on early
    /// stop. Large inputs take the vectorized path when their value
    /// mix permits; small or unvectorizable inputs run the per-pair
    /// scalar loop. Both produce the identical visit sequence.
    fn visit_nested(
        &self,
        lefts: &[&Tuple],
        rights: &[&Tuple],
        visit: &mut dyn FnMut(u32, u32) -> bool,
    ) -> bool {
        let cross = (lefts.len() as u64).saturating_mul(rights.len() as u64);
        if cross >= Self::VECTOR_MIN_PAIRS && !self.preds.is_empty() {
            if let Some(done) = self.visit_nested_vectorized(lefts, rights, visit) {
                return done;
            }
        }
        self.visit_nested_scalar(lefts, rights, visit)
    }

    /// The per-pair fallback: one full `matches` call per candidate.
    fn visit_nested_scalar(
        &self,
        lefts: &[&Tuple],
        rights: &[&Tuple],
        visit: &mut dyn FnMut(u32, u32) -> bool,
    ) -> bool {
        for (li, l) in lefts.iter().enumerate() {
            for (ri, r) in rights.iter().enumerate() {
                if self.matches(l, r) && !visit(li as u32, ri as u32) {
                    return false;
                }
            }
        }
        true
    }

    /// Columnar nested loop: project each predicate's two columns once
    /// and classify them into a [`TypedPred`] — typed `i64`/`f64` key
    /// vectors plus validity masks, bit-identical to per-pair
    /// [`eval_theta`] by construction — then run the pair loop over
    /// flat slices, gathering rows only for the (rare) predicates that
    /// refused to vectorize. Returns `None` when no predicate
    /// vectorized (the scalar loop is then no slower).
    fn visit_nested_vectorized(
        &self,
        lefts: &[&Tuple],
        rights: &[&Tuple],
        visit: &mut dyn FnMut(u32, u32) -> bool,
    ) -> Option<bool> {
        let mut typed: Vec<TypedPred> = Vec::with_capacity(self.preds.len());
        let mut slow: Vec<&FlatPred> = Vec::new();
        for p in &self.preds {
            let l_vals: Vec<&Value> = lefts.iter().map(|t| t.get(p.l_col)).collect();
            let r_vals: Vec<&Value> = rights.iter().map(|t| t.get(p.r_col)).collect();
            match TypedPred::prepare(&l_vals, p.l_off, p.op, &r_vals, p.r_off) {
                Some(tp) => typed.push(tp),
                None => slow.push(p),
            }
        }
        if typed.is_empty() {
            return None;
        }
        for (li, l) in lefts.iter().enumerate() {
            'pair: for (ri, r) in rights.iter().enumerate() {
                for tp in &typed {
                    if !tp.holds(li, ri) {
                        continue 'pair;
                    }
                }
                for p in &slow {
                    if !p.holds(l, r) {
                        continue 'pair;
                    }
                }
                for &(ls, rs, w) in &self.shared {
                    if l.values()[ls..ls + w] != r.values()[rs..rs + w] {
                        continue 'pair;
                    }
                }
                if !visit(li as u32, ri as u32) {
                    return Some(false);
                }
            }
        }
        Some(true)
    }

    fn join_nested(&self, lefts: &[&Tuple], rights: &[&Tuple], pairs: &mut Vec<(u32, u32)>) {
        let _ = self.visit_nested(lefts, rights, &mut |li, ri| {
            pairs.push((li, ri));
            true
        });
    }

    /// Equality-key hashes for a whole bag of rows, built column-major:
    /// one pass per key column folds that column's [`key_bits`] into
    /// every row's running hash — the column-major replacement for one
    /// SipHash per row per probe. Consistent with SQL equality,
    /// coarser than it — collisions are filtered by `matches`.
    fn key_hashes(rows: &[&Tuple], cols: impl Iterator<Item = usize>) -> Vec<u64> {
        let mut hashes = vec![HASH_SEED; rows.len()];
        for c in cols {
            for (h, row) in hashes.iter_mut().zip(rows) {
                *h = hash_mix(*h, key_bits(row.get(c)));
            }
        }
        hashes
    }

    fn join_hash(
        &self,
        key: &[(usize, usize)],
        lefts: &[&Tuple],
        rights: &[&Tuple],
        pairs: &mut Vec<(u32, u32)>,
    ) {
        // Build on the smaller side, probe with the larger.
        let build_left = lefts.len() <= rights.len();
        let (build, probe) = if build_left {
            (lefts, rights)
        } else {
            (rights, lefts)
        };
        let (build_hashes, probe_hashes) = if build_left {
            (
                Self::key_hashes(build, key.iter().map(|&(l, _)| l)),
                Self::key_hashes(probe, key.iter().map(|&(_, r)| r)),
            )
        } else {
            (
                Self::key_hashes(build, key.iter().map(|&(_, r)| r)),
                Self::key_hashes(probe, key.iter().map(|&(l, _)| l)),
            )
        };
        // Keys are already well-mixed 64-bit hashes: store them under
        // an identity hasher rather than paying a second hash per
        // build/probe row.
        let mut table: PreHashedMap =
            HashMap::with_capacity_and_hasher(build.len(), Default::default());
        for (bi, &h) in build_hashes.iter().enumerate() {
            table.entry(h).or_default().push(bi as u32);
        }
        for (pi, &h) in probe_hashes.iter().enumerate() {
            if let Some(bucket) = table.get(&h) {
                for &bi in bucket {
                    let (li, ri) = if build_left {
                        (bi, pi as u32)
                    } else {
                        (pi as u32, bi)
                    };
                    if self.matches(lefts[li as usize], rights[ri as usize]) {
                        pairs.push((li, ri));
                    }
                }
            }
        }
    }

    /// Sort a keyed index vector, first checking whether the keys are
    /// already in order — DFS block inputs are frequently pre-sorted or
    /// clustered, and the O(n) check is cheap against the O(n log n)
    /// sort it skips. Ties may land in any order: the emitted pair
    /// *set* depends only on key values, and the final left-major pair
    /// sort erases walk order.
    fn sort_keys<K>(keys: &mut [(K, u32)], cmp: impl Fn(&K, &K) -> std::cmp::Ordering + Copy) {
        let sorted = keys
            .windows(2)
            .all(|w| cmp(&w[0].0, &w[1].0) != std::cmp::Ordering::Greater);
        if !sorted {
            keys.sort_unstable_by(|a, b| cmp(&a.0, &b.0));
        }
    }

    /// Sort-merge band join over typed key vectors. Returns `false`
    /// when an exactness guard trips (or the density gate rejects) and
    /// the caller must fall back to the nested loop.
    #[allow(clippy::too_many_arguments)]
    fn join_band(
        &self,
        (l_col, l_off): (usize, f64),
        (r_col, r_off): (usize, f64),
        op: ThetaOp,
        mode: BandMode,
        lefts: &[&Tuple],
        rights: &[&Tuple],
        pairs: &mut Vec<(u32, u32)>,
    ) -> bool {
        /// One side's key columns, split by type class in a single
        /// extraction pass. NULLs (and strings under offsets) never
        /// satisfy an inequality and are dropped here.
        struct SideKeys<'a> {
            ints: Vec<(i64, u32)>,
            doubles: Vec<(f64, u32)>,
            strs: Vec<(&'a str, u32)>,
            /// Any integer beyond ±2^53 (not exactly representable as
            /// f64)?
            big: bool,
        }
        fn extract<'a>(side: &[&'a Tuple], col: usize, sql_mode: bool) -> SideKeys<'a> {
            let mut keys = SideKeys {
                ints: Vec::new(),
                doubles: Vec::new(),
                strs: Vec::new(),
                big: false,
            };
            for (i, row) in side.iter().enumerate() {
                match row.get(col) {
                    Value::Int(v) => {
                        keys.big |= v.unsigned_abs() > (1u64 << 53);
                        keys.ints.push((*v, i as u32));
                    }
                    Value::Double(d) => keys.doubles.push((*d, i as u32)),
                    Value::Str(s) if sql_mode => keys.strs.push((s.as_ref(), i as u32)),
                    _ => {}
                }
            }
            keys
        }

        let sql_mode = matches!(mode, BandMode::SqlValue);
        let mut l = extract(lefts, l_col, sql_mode);
        let mut r = extract(rights, r_col, sql_mode);
        let cross = (lefts.len() as u64).saturating_mul(rights.len() as u64);

        if sql_mode && l.doubles.is_empty() && r.doubles.is_empty() {
            // All-integer numeric class: sort on exact i64 keys — the
            // very comparison sql_cmp performs for Int/Int, at any
            // magnitude, so the ±2^53 guard below never applies.
            Self::sort_keys(&mut l.ints, Ord::cmp);
            Self::sort_keys(&mut r.ints, Ord::cmp);
            Self::sort_keys(&mut l.strs, Ord::cmp);
            Self::sort_keys(&mut r.strs, Ord::cmp);
            let total = Self::band_count(&l.ints, &r.ints, op, Ord::cmp)
                + Self::band_count(&l.strs, &r.strs, op, Ord::cmp);
            if total.saturating_mul(8) > cross {
                return false;
            }
            Self::band_emit(&l.ints, &r.ints, op, Ord::cmp, pairs);
            Self::band_emit(&l.strs, &r.strs, op, Ord::cmp, pairs);
            return true;
        }
        if sql_mode && (l.big || r.big) {
            // Mixed Int/Double numeric class with integers beyond
            // ±2^53: sql_cmp compares Int/Int exactly but Int/Double
            // through f64 — no single sort key reproduces that order.
            // Bail out to the nested loop; exactness always wins.
            return false;
        }
        // f64 numeric class: fold integer keys in (the conversion is
        // value-exact here — big ints either bailed above or carry
        // offsets, where eval_theta itself works in f64) and apply
        // offsets. In SqlValue mode offsets are zero and doubles keep
        // their *raw* bits: sql_cmp orders by total_cmp, which
        // distinguishes -0.0 from +0.0 and NaN payloads — `d + 0.0`
        // would collapse them.
        for (keys, off) in [(&mut l, l_off), (&mut r, r_off)] {
            if !sql_mode {
                for k in keys.doubles.iter_mut() {
                    k.0 += off;
                }
            }
            let SideKeys { ints, doubles, .. } = keys;
            for &(v, i) in ints.iter() {
                doubles.push((v as f64 + off, i));
            }
        }
        Self::sort_keys(&mut l.doubles, f64::total_cmp);
        Self::sort_keys(&mut r.doubles, f64::total_cmp);
        Self::sort_keys(&mut l.strs, Ord::cmp);
        Self::sort_keys(&mut r.strs, Ord::cmp);
        // Density gate: count the matches with a cheap monotone boundary
        // walk before materialising anything. When the output is a
        // large fraction of the cross product, both algorithms are
        // output-bound but the band path additionally pays a pair sort
        // — the nested loop is the better engine there. The win the
        // band kernel exists for is the sparse regime, where it is
        // orders of magnitude ahead.
        let total = Self::band_count(&l.doubles, &r.doubles, op, f64::total_cmp)
            + Self::band_count(&l.strs, &r.strs, op, Ord::cmp);
        if total.saturating_mul(8) > cross {
            return false;
        }
        Self::band_emit(&l.doubles, &r.doubles, op, f64::total_cmp, pairs);
        if sql_mode {
            Self::band_emit(&l.strs, &r.strs, op, Ord::cmp, pairs);
        }
        true
    }

    /// Does `l op r` hold for the ordering of the two keys?
    fn band_holds(op: ThetaOp, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering;
        match op {
            ThetaOp::Lt => ord == Ordering::Less,
            ThetaOp::Le => ord != Ordering::Greater,
            ThetaOp::Ge => ord != Ordering::Less,
            ThetaOp::Gt => ord == Ordering::Greater,
            _ => unreachable!("band ops are inequalities"),
        }
    }

    /// Number of matching pairs between two key-sorted sides, via one
    /// monotone boundary walk — O(|L| + |R|).
    fn band_count<K>(
        lefts: &[(K, u32)],
        rights: &[(K, u32)],
        op: ThetaOp,
        cmp: impl Fn(&K, &K) -> std::cmp::Ordering + Copy,
    ) -> u64 {
        if lefts.is_empty() || rights.is_empty() {
            return 0;
        }
        let suffix = matches!(op, ThetaOp::Lt | ThetaOp::Le);
        let mut b = 0usize;
        let mut total = 0u64;
        for (lk, _) in lefts.iter() {
            if suffix {
                while b < rights.len() && !Self::band_holds(op, cmp(lk, &rights[b].0)) {
                    b += 1;
                }
                total += (rights.len() - b) as u64;
            } else {
                while b < rights.len() && Self::band_holds(op, cmp(lk, &rights[b].0)) {
                    b += 1;
                }
                total += b as u64;
            }
        }
        total
    }

    /// One type-class band scan over key-sorted sides: walk the lefts
    /// in key order sliding the right boundary monotonically, emitting
    /// the matching contiguous run per left row.
    fn band_emit<K>(
        lefts: &[(K, u32)],
        rights: &[(K, u32)],
        op: ThetaOp,
        cmp: impl Fn(&K, &K) -> std::cmp::Ordering + Copy,
        pairs: &mut Vec<(u32, u32)>,
    ) {
        if lefts.is_empty() || rights.is_empty() {
            return;
        }
        // For l op r with r's keys ascending, the matching right rows
        // form a suffix (Lt/Le) or prefix (Gt/Ge) whose boundary moves
        // monotonically as the left key grows.
        let suffix = matches!(op, ThetaOp::Lt | ThetaOp::Le);
        let mut b = 0usize;
        if suffix {
            for (lk, li) in lefts.iter() {
                while b < rights.len() && !Self::band_holds(op, cmp(lk, &rights[b].0)) {
                    b += 1;
                }
                for (_, ri) in &rights[b..] {
                    pairs.push((*li, *ri));
                }
            }
        } else {
            for (lk, li) in lefts.iter() {
                while b < rights.len() && Self::band_holds(op, cmp(lk, &rights[b].0)) {
                    b += 1;
                }
                for (_, ri) in &rights[..b] {
                    pairs.push((*li, *ri));
                }
            }
        }
    }

    /// Assemble one output row from a matching pair — the compiled
    /// slice-copy form of [`IntermediateShape::assemble`].
    pub fn assemble(&self, l: &Tuple, r: &Tuple) -> Tuple {
        let mut values = Vec::with_capacity(self.out_arity);
        for &(from_left, start, len) in &self.segments {
            let src = if from_left { l.values() } else { r.values() };
            values.extend_from_slice(&src[start..start + len]);
        }
        Tuple::new(values)
    }
}

impl std::fmt::Debug for PairKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PairKernel")
            .field("kind", &self.kind())
            .field("preds", &self.preds)
            .field("shared", &self.shared)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwtj_query::{ColExpr, MultiwayQuery, QueryBuilder, ThetaOp};
    use mwtj_storage::{tuple, DataType, Schema};

    fn two_rel_query(op: ThetaOp) -> MultiwayQuery {
        let s = |n: &str| Schema::from_pairs(n, &[("a", DataType::Int), ("b", DataType::Int)]);
        QueryBuilder::new("q")
            .relation(s("l"))
            .relation(s("r"))
            .join("l", "a", op, "r", "a")
            .build()
            .unwrap()
    }

    fn compile_for(q: &MultiwayQuery) -> (PairKernel, PairKernel) {
        let left = IntermediateShape::base(q, 0);
        let right = IntermediateShape::base(q, 1);
        let out = IntermediateShape::union(q, &left, &right);
        let preds: Vec<CompiledPredicate> = q
            .compile()
            .unwrap()
            .per_condition
            .iter()
            .flat_map(|c| c.iter().copied())
            .collect();
        (
            PairKernel::compile(&left, &right, &out, &preds),
            PairKernel::compile_nested(&left, &right, &out, &preds),
        )
    }

    fn join_pairs(k: &PairKernel, lefts: &[Tuple], rights: &[Tuple]) -> Vec<(u32, u32)> {
        let l: Vec<&Tuple> = lefts.iter().collect();
        let r: Vec<&Tuple> = rights.iter().collect();
        let mut pairs = Vec::new();
        k.join_into(&l, &r, &mut pairs);
        pairs
    }

    #[test]
    fn selection_rules() {
        assert_eq!(
            compile_for(&two_rel_query(ThetaOp::Eq)).0.kind(),
            KernelKind::Hash
        );
        for op in [ThetaOp::Lt, ThetaOp::Le, ThetaOp::Ge, ThetaOp::Gt] {
            assert_eq!(compile_for(&two_rel_query(op)).0.kind(), KernelKind::Band);
        }
        assert_eq!(
            compile_for(&two_rel_query(ThetaOp::Ne)).0.kind(),
            KernelKind::Nested
        );
        // Eq + inequality: hash with residual.
        let s = |n: &str| Schema::from_pairs(n, &[("a", DataType::Int), ("b", DataType::Int)]);
        let q = QueryBuilder::new("q")
            .relation(s("l"))
            .relation(s("r"))
            .join("l", "a", ThetaOp::Eq, "r", "a")
            .join("l", "b", ThetaOp::Lt, "r", "b")
            .build()
            .unwrap();
        assert_eq!(compile_for(&q).0.kind(), KernelKind::Hash);
        // Two inequalities: nested.
        let q = QueryBuilder::new("q")
            .relation(s("l"))
            .relation(s("r"))
            .join("l", "a", ThetaOp::Lt, "r", "a")
            .join("l", "b", ThetaOp::Gt, "r", "b")
            .build()
            .unwrap();
        assert_eq!(compile_for(&q).0.kind(), KernelKind::Nested);
        // Offset equality is not hashable: nested.
        let q = QueryBuilder::new("q")
            .relation(s("l"))
            .relation(s("r"))
            .join_expr(
                ColExpr::col_plus("l", "a", 1.0),
                ThetaOp::Eq,
                ColExpr::col("r", "a"),
            )
            .build()
            .unwrap();
        assert_eq!(compile_for(&q).0.kind(), KernelKind::Nested);
        // Offset inequality stays a band.
        let q = QueryBuilder::new("q")
            .relation(s("l"))
            .relation(s("r"))
            .join_expr(
                ColExpr::col_plus("l", "a", 3.0),
                ThetaOp::Gt,
                ColExpr::col("r", "a"),
            )
            .build()
            .unwrap();
        assert_eq!(compile_for(&q).0.kind(), KernelKind::Band);
    }

    fn rows(vals: &[(i64, i64)]) -> Vec<Tuple> {
        vals.iter().map(|&(a, b)| tuple![a, b]).collect()
    }

    #[test]
    fn kernels_agree_with_nested_and_emit_left_major() {
        let lefts = rows(&[(5, 1), (1, 2), (3, 3), (3, 4)]);
        let rights = rows(&[(3, 1), (2, 2), (5, 3), (1, 4), (3, 5)]);
        for op in ThetaOp::ALL {
            let q = two_rel_query(op);
            let (fast, slow) = compile_for(&q);
            let want = join_pairs(&slow, &lefts, &rights);
            let got = join_pairs(&fast, &lefts, &rights);
            assert_eq!(got, want, "{op} ({:?})", fast.kind());
            // Left-major order: strictly increasing lexicographically.
            for w in got.windows(2) {
                assert!(w[0] < w[1], "{op} emitted out of order: {got:?}");
            }
        }
    }

    #[test]
    fn band_handles_nulls_strings_and_doubles() {
        let q = two_rel_query(ThetaOp::Lt);
        let (fast, slow) = compile_for(&q);
        assert_eq!(fast.kind(), KernelKind::Band);
        let lefts = vec![
            tuple![1, 0],
            Tuple::new(vec![Value::Null, Value::Int(0)]),
            Tuple::new(vec![Value::from("apple"), Value::Int(0)]),
            tuple![2.5, 0],
            Tuple::new(vec![Value::from("pear"), Value::Int(0)]),
        ];
        let rights = vec![
            tuple![2, 0],
            Tuple::new(vec![Value::from("banana"), Value::Int(0)]),
            Tuple::new(vec![Value::Null, Value::Int(0)]),
            tuple![2.25, 0],
        ];
        assert_eq!(
            join_pairs(&fast, &lefts, &rights),
            join_pairs(&slow, &lefts, &rights)
        );
    }

    /// sql_cmp orders by total_cmp, which distinguishes -0.0 < +0.0
    /// and NaN bit patterns; the band keys must too.
    #[test]
    fn band_distinguishes_negative_zero_and_nan() {
        let q = two_rel_query(ThetaOp::Lt);
        let (fast, slow) = compile_for(&q);
        assert_eq!(fast.kind(), KernelKind::Band);
        let specials = [0.0f64, -0.0, f64::NAN, -f64::NAN, f64::INFINITY];
        let lefts: Vec<Tuple> = specials.iter().map(|&d| tuple![d, 0]).collect();
        let rights: Vec<Tuple> = specials.iter().rev().map(|&d| tuple![d, 0]).collect();
        let got = join_pairs(&fast, &lefts, &rights);
        assert_eq!(got, join_pairs(&slow, &lefts, &rights));
        // -0.0 < +0.0 under total_cmp: the pair (left=-0.0, right=+0.0)
        // must be present (left idx 1, right idx 4).
        assert!(got.contains(&(1, 4)), "missing -0.0 < +0.0 pair: {got:?}");
    }

    #[test]
    fn band_exact_i64_class_handles_huge_ints() {
        let q = two_rel_query(ThetaOp::Lt);
        let (fast, slow) = compile_for(&q);
        let big = 1i64 << 53;
        // big and big+1 collapse to the same f64; sql_cmp orders them.
        // The all-integer class sorts on exact i64 keys, so the band
        // must distinguish them without bailing out.
        let lefts = rows(&[(big, 0), (big + 1, 0), (-big - 7, 0), (3, 0)]);
        let rights = rows(&[(big + 1, 0), (big, 0), (i64::MAX, 0), (i64::MIN, 0)]);
        assert_eq!(
            join_pairs(&fast, &lefts, &rights),
            join_pairs(&slow, &lefts, &rights)
        );
    }

    #[test]
    fn band_bails_out_on_huge_ints_mixed_with_doubles() {
        let q = two_rel_query(ThetaOp::Lt);
        let (fast, slow) = compile_for(&q);
        let big = 1i64 << 53;
        // A double in the class forces f64 keys, where big and big+1
        // collapse — the kernel must fall back to the nested loop.
        let lefts = vec![tuple![big, 0], tuple![big + 1, 0], tuple![2.5, 0]];
        let rights = vec![tuple![big + 1, 0], tuple![big, 0], tuple![9e15, 0]];
        assert_eq!(
            join_pairs(&fast, &lefts, &rights),
            join_pairs(&slow, &lefts, &rights)
        );
    }

    /// The vectorized nested loop must visit exactly the pairs the
    /// scalar per-pair loop visits, over a value mix that exercises
    /// every TypedPred class and the scalar fallback (strings, NULLs,
    /// huge ints mixed with doubles).
    #[test]
    fn vectorized_nested_agrees_with_scalar() {
        let s = |n: &str| Schema::from_pairs(n, &[("a", DataType::Int), ("b", DataType::Int)]);
        let q = QueryBuilder::new("q")
            .relation(s("l"))
            .relation(s("r"))
            .join("l", "a", ThetaOp::Lt, "r", "a")
            .join("l", "b", ThetaOp::Ne, "r", "b")
            .build()
            .unwrap();
        let (fast, _) = compile_for(&q);
        assert_eq!(fast.kind(), KernelKind::Nested);
        let val = |i: i64| -> Value {
            match i % 7 {
                0 => Value::Int(i),
                1 => Value::Double(i as f64 / 3.0),
                2 => Value::Null,
                3 => Value::from(format!("s{i}")),
                4 => Value::Int((1i64 << 53) + i),
                5 => Value::Double(-0.0),
                _ => Value::Double(f64::NAN),
            }
        };
        // 70 × 70 = 4900 candidate pairs ≥ VECTOR_MIN_PAIRS, so
        // visit_nested takes the vectorized path for `fast`.
        assert!(70 * 70 >= PairKernel::VECTOR_MIN_PAIRS as usize);
        let lefts: Vec<Tuple> = (0..70)
            .map(|i| Tuple::new(vec![val(i), val(i * 3 + 1)]))
            .collect();
        let rights: Vec<Tuple> = (0..70)
            .map(|i| Tuple::new(vec![val(i * 5 + 2), val(i * 2)]))
            .collect();
        let l: Vec<&Tuple> = lefts.iter().collect();
        let r: Vec<&Tuple> = rights.iter().collect();
        let mut got = Vec::new();
        assert!(fast.visit_nested(&l, &r, &mut |li, ri| {
            got.push((li, ri));
            true
        }));
        let mut want = Vec::new();
        assert!(fast.visit_nested_scalar(&l, &r, &mut |li, ri| {
            want.push((li, ri));
            true
        }));
        assert_eq!(got, want);
        assert!(!want.is_empty(), "degenerate test: no matching pairs");
    }

    #[test]
    fn hash_matches_mixed_int_double_keys() {
        let q = two_rel_query(ThetaOp::Eq);
        let (fast, slow) = compile_for(&q);
        let lefts = vec![tuple![7, 0], tuple![7.0, 1], tuple![8, 2]];
        let rights = vec![tuple![7.0, 0], tuple![7, 1], tuple![8.5, 2]];
        let got = join_pairs(&fast, &lefts, &rights);
        assert_eq!(got, join_pairs(&slow, &lefts, &rights));
        assert_eq!(got.len(), 4); // 2 lefts × 2 rights with key 7
    }

    #[test]
    fn assemble_matches_shape_assemble() {
        let q = two_rel_query(ThetaOp::Eq);
        let left = IntermediateShape::base(&q, 0);
        let right = IntermediateShape::base(&q, 1);
        let out = IntermediateShape::union(&q, &left, &right);
        let (fast, _) = compile_for(&q);
        let l = tuple![1, 2];
        let r = tuple![3, 4];
        assert_eq!(
            fast.assemble(&l, &r),
            out.assemble(&[(&left, &l), (&right, &r)])
        );
    }

    #[test]
    fn stack_pred_matches_compiled_predicate() {
        let p = CompiledPredicate {
            left_rel: 0,
            left_col: 1,
            left_off: 2.0,
            op: ThetaOp::Gt,
            right_rel: 1,
            right_col: 0,
            right_off: 0.0,
        };
        let sp = StackPred::from_compiled(&p);
        assert_eq!(sp.depth(), 1);
        let a = tuple![0, 4];
        let b = tuple![5];
        assert_eq!(sp.holds(&[&a, &b]), p.eval(&[&a, &b])); // 4+2 > 5
        let b2 = tuple![7];
        assert_eq!(sp.holds(&[&a, &b2]), p.eval(&[&a, &b2]));
    }
}
