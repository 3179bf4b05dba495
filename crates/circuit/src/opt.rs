//! Offline circuit optimizer: constant folding, algebraic identity
//! rewrites, structural CSE, and assertion-safe dead-gate elimination.
//!
//! The pass is semantics-preserving in a strict sense:
//!
//! * every surviving wire evaluates to the same value as its source wire
//!   on every input vector;
//! * a circuit fails an assertion after optimization iff it failed one
//!   before, and the *first* failing assert corresponds to the first
//!   failing assert of the source circuit ([`OptStats::assert_origin`]
//!   maps optimized assert gates back to source gate indices, which is
//!   how [`crate::engine::CompiledCircuit`] reports source-level errors);
//! * an assert whose input folds to a non-zero constant is kept as a
//!   canonical always-fail gate (`AssertZero` over that constant), never
//!   silently dropped. Only asserts over a provable constant `0` — which
//!   can never fire — are removed.
//!
//! Word-level subtlety: the logic gates (`And`/`Or`/`Xor`/`Not`) treat
//! their operands as *truthy* (`v != 0`) and produce `0`/`1`, so
//! rewrites like `And(x, x) → x` are only sound when `x` is provably
//! boolean. The pass tracks per-wire boolean-ness (comparison/logic
//! outputs, constants `0`/`1`, muxes of booleans) and falls back to the
//! canonical coercion `Or(x, x)` (= `bool(x)`) when the operand may be a
//! wide word.

use std::collections::{HashMap, HashSet};

use crate::driver::CompileOptions;
use crate::ir::{canon, Circuit, Gate, WireId};

/// Counters describing one [`optimize_with`] run.
#[derive(Clone, Debug, Default)]
pub struct OptStats {
    /// Logic gates in the source circuit.
    pub gates_before: u64,
    /// Logic gates after optimization.
    pub gates_after: u64,
    /// Total wires (inputs + constants + gates) before.
    pub wires_before: usize,
    /// Total wires after.
    pub wires_after: usize,
    /// Depth before.
    pub depth_before: u32,
    /// Depth after.
    pub depth_after: u32,
    /// Gates whose value folded to a compile-time constant.
    pub folded: u64,
    /// Algebraic identity rewrites (`x + 0`, `x * 1`, `Mux(c, a, b)`, …)
    /// that replaced a gate with an existing wire or a simpler gate.
    pub identities: u64,
    /// Structural CSE hits during the rewrite.
    pub cse_hits: u64,
    /// Wires removed by mark-and-sweep DCE.
    pub dead: u64,
    /// `AssertZero` gates in the source circuit.
    pub asserts_before: u64,
    /// `AssertZero` gates kept (deduplicated; provably-passing dropped).
    pub asserts_after: u64,
    /// Asserts whose input folded to a non-zero constant (kept as
    /// canonical always-fail gates).
    pub always_fail: u64,
    /// `(optimized gate index, source gate index)` for every surviving
    /// assert, sorted by optimized index.
    pub assert_origin: Vec<(u32, u32)>,
    /// Per-phase `(name, logic gates before, logic gates after)` in
    /// execution order — currently `rewrite` (fold/identity/CSE) then
    /// `dce`. Deterministic: no timing data lives here (wall times
    /// belong to the recorder, not to stats that parity tests compare).
    pub phase_gates: Vec<(&'static str, u64, u64)>,
}

impl OptStats {
    /// Fraction of logic gates removed, in `[0, 1]`.
    pub fn gate_reduction(&self) -> f64 {
        if self.gates_before == 0 {
            0.0
        } else {
            1.0 - self.gates_after as f64 / self.gates_before as f64
        }
    }

    /// Source gate index of the assert at `opt_gate` in the optimized
    /// circuit, if `opt_gate` is a surviving assert.
    pub fn origin_of(&self, opt_gate: u32) -> Option<u32> {
        self.assert_origin
            .binary_search_by_key(&opt_gate, |&(ng, _)| ng)
            .ok()
            .map(|i| self.assert_origin[i].1)
    }

    fn passthrough(c: &Circuit) -> OptStats {
        OptStats {
            gates_before: c.size(),
            gates_after: c.size(),
            wires_before: c.num_wires(),
            wires_after: c.num_wires(),
            depth_before: c.depth(),
            depth_after: c.depth(),
            ..OptStats::default()
        }
    }
}

/// Gate-list rewriter with value/boolean-ness dataflow and CSE.
struct Rewriter {
    gates: Vec<Gate>,
    /// Compile-time value of each new wire, when provable.
    val: Vec<Option<u64>>,
    /// Is the wire provably `0`/`1`?
    boolish: Vec<bool>,
    cse: HashMap<Gate, WireId>,
    consts: HashMap<u64, WireId>,
    folded: u64,
    identities: u64,
    cse_hits: u64,
}

impl Rewriter {
    fn new(cap: usize) -> Rewriter {
        Rewriter {
            gates: Vec::with_capacity(cap),
            val: Vec::with_capacity(cap),
            boolish: Vec::with_capacity(cap),
            cse: HashMap::new(),
            consts: HashMap::new(),
            folded: 0,
            identities: 0,
            cse_hits: 0,
        }
    }

    fn raw_push(&mut self, g: Gate) -> WireId {
        let v = match g {
            Gate::Const(v) => Some(v),
            // An assert's own wire carries 0 whenever evaluation proceeds
            // past it; on failure nothing downstream is observable.
            Gate::AssertZero(_) => Some(0),
            _ => None,
        };
        let b = match g {
            Gate::Const(v) => v <= 1,
            Gate::Eq(..)
            | Gate::Lt(..)
            | Gate::And(..)
            | Gate::Or(..)
            | Gate::Xor(..)
            | Gate::Not(_)
            | Gate::AssertZero(_) => true,
            Gate::Mux(_, a, b) => self.boolish[a as usize] && self.boolish[b as usize],
            _ => false,
        };
        let id = self.gates.len() as WireId;
        self.gates.push(g);
        self.val.push(v);
        self.boolish.push(b);
        id
    }

    fn v(&self, w: WireId) -> Option<u64> {
        self.val[w as usize]
    }

    fn is_bool(&self, w: WireId) -> bool {
        self.boolish[w as usize]
    }

    /// The gate defining wire `w` (for the double-`Not` peephole).
    fn peek(&self, w: WireId) -> Gate {
        self.gates[w as usize]
    }

    fn konst(&mut self, v: u64) -> WireId {
        if let Some(&w) = self.consts.get(&v) {
            return w;
        }
        let w = self.raw_push(Gate::Const(v));
        self.consts.insert(v, w);
        w
    }

    fn emit(&mut self, g: Gate) -> WireId {
        let key = canon(g);
        if let Some(&w) = self.cse.get(&key) {
            self.cse_hits += 1;
            return w;
        }
        let w = self.raw_push(key);
        self.cse.insert(key, w);
        w
    }

    fn fold(&mut self, v: u64) -> WireId {
        self.folded += 1;
        self.konst(v)
    }

    /// Canonical `bool(w)`: `w` itself when provably boolean, otherwise
    /// the gate `Or(w, w)`.
    fn coerce_bool(&mut self, w: WireId) -> WireId {
        if let Some(v) = self.v(w) {
            return self.fold(u64::from(v != 0));
        }
        if self.is_bool(w) {
            self.identities += 1;
            w
        } else {
            self.identities += 1;
            self.emit(Gate::Or(w, w))
        }
    }

    fn add(&mut self, a: WireId, b: WireId) -> WireId {
        match (self.v(a), self.v(b)) {
            (Some(x), Some(y)) => self.fold(x.wrapping_add(y)),
            (Some(0), _) => {
                self.identities += 1;
                b
            }
            (_, Some(0)) => {
                self.identities += 1;
                a
            }
            _ => self.emit(Gate::Add(a, b)),
        }
    }

    fn sub(&mut self, a: WireId, b: WireId) -> WireId {
        if a == b {
            return self.fold(0);
        }
        match (self.v(a), self.v(b)) {
            (Some(x), Some(y)) => self.fold(x.wrapping_sub(y)),
            (_, Some(0)) => {
                self.identities += 1;
                a
            }
            _ => self.emit(Gate::Sub(a, b)),
        }
    }

    fn mul(&mut self, a: WireId, b: WireId) -> WireId {
        match (self.v(a), self.v(b)) {
            (Some(x), Some(y)) => self.fold(x.wrapping_mul(y)),
            (Some(0), _) | (_, Some(0)) => self.fold(0),
            (Some(1), _) => {
                self.identities += 1;
                b
            }
            (_, Some(1)) => {
                self.identities += 1;
                a
            }
            _ => self.emit(Gate::Mul(a, b)),
        }
    }

    fn eq(&mut self, a: WireId, b: WireId) -> WireId {
        if a == b {
            return self.fold(1);
        }
        match (self.v(a), self.v(b)) {
            (Some(x), Some(y)) => self.fold(u64::from(x == y)),
            _ => self.emit(Gate::Eq(a, b)),
        }
    }

    fn lt(&mut self, a: WireId, b: WireId) -> WireId {
        if a == b {
            return self.fold(0);
        }
        match (self.v(a), self.v(b)) {
            (Some(x), Some(y)) => self.fold(u64::from(x < y)),
            // Nothing is below 0; nothing is above MAX.
            (_, Some(0)) | (Some(u64::MAX), _) => self.fold(0),
            _ => self.emit(Gate::Lt(a, b)),
        }
    }

    fn and(&mut self, a: WireId, b: WireId) -> WireId {
        match (self.v(a), self.v(b)) {
            (Some(x), Some(y)) => self.fold(u64::from(x != 0) & u64::from(y != 0)),
            (Some(0), _) | (_, Some(0)) => self.fold(0),
            (Some(_), _) => self.coerce_bool(b),
            (_, Some(_)) => self.coerce_bool(a),
            _ if a == b => self.coerce_bool(a),
            _ => self.emit(Gate::And(a, b)),
        }
    }

    fn or(&mut self, a: WireId, b: WireId) -> WireId {
        match (self.v(a), self.v(b)) {
            (Some(x), Some(y)) => self.fold(u64::from(x != 0) | u64::from(y != 0)),
            (Some(0), _) => self.coerce_bool(b),
            (_, Some(0)) => self.coerce_bool(a),
            (Some(_), _) | (_, Some(_)) => self.fold(1),
            _ if a == b => self.coerce_bool(a),
            _ => self.emit(Gate::Or(a, b)),
        }
    }

    fn xor(&mut self, a: WireId, b: WireId) -> WireId {
        if a == b {
            return self.fold(0);
        }
        match (self.v(a), self.v(b)) {
            (Some(x), Some(y)) => self.fold(u64::from(x != 0) ^ u64::from(y != 0)),
            (Some(0), _) => self.coerce_bool(b),
            (_, Some(0)) => self.coerce_bool(a),
            // Xor with a truthy constant is logical negation.
            (Some(_), _) => self.not(b),
            (_, Some(_)) => self.not(a),
            _ => self.emit(Gate::Xor(a, b)),
        }
    }

    fn not(&mut self, a: WireId) -> WireId {
        if let Some(x) = self.v(a) {
            return self.fold(u64::from(x == 0));
        }
        // Double negation is boolean coercion of the inner wire.
        if let Gate::Not(y) = self.peek(a) {
            return self.coerce_bool(y);
        }
        self.emit(Gate::Not(a))
    }

    fn mux(&mut self, s: WireId, a: WireId, b: WireId) -> WireId {
        if let Some(sv) = self.v(s) {
            self.identities += 1;
            return if sv != 0 { a } else { b };
        }
        if a == b {
            self.identities += 1;
            return a;
        }
        match (self.v(a), self.v(b)) {
            (Some(1), Some(0)) => self.coerce_bool(s),
            (Some(0), Some(1)) => {
                self.identities += 1;
                self.not(s)
            }
            _ => self.emit(Gate::Mux(s, a, b)),
        }
    }
}

/// The rewrite + DCE pass (see [`optimize_with`] for the public entry
/// point and the semantics contract).
fn optimize(c: &Circuit) -> (Circuit, OptStats) {
    if !c.is_evaluable() {
        return (c.clone(), OptStats::passthrough(c));
    }
    let src = c.gates();
    let mut rw = Rewriter::new(src.len());
    let mut map: Vec<WireId> = Vec::with_capacity(src.len());
    let mut seen_asserts: HashSet<WireId> = HashSet::new();
    // (pre-DCE new index, source index) per surviving assert.
    let mut assert_origin: Vec<(u32, u32)> = Vec::new();
    let mut asserts_before = 0u64;
    let mut always_fail = 0u64;

    for (i, g) in src.iter().enumerate() {
        let new = match *g {
            Gate::Input(idx) => rw.raw_push(Gate::Input(idx)),
            Gate::Const(v) => rw.konst(v),
            Gate::Add(a, b) => rw.add(map[a as usize], map[b as usize]),
            Gate::Sub(a, b) => rw.sub(map[a as usize], map[b as usize]),
            Gate::Mul(a, b) => rw.mul(map[a as usize], map[b as usize]),
            Gate::Eq(a, b) => rw.eq(map[a as usize], map[b as usize]),
            Gate::Lt(a, b) => rw.lt(map[a as usize], map[b as usize]),
            Gate::And(a, b) => rw.and(map[a as usize], map[b as usize]),
            Gate::Or(a, b) => rw.or(map[a as usize], map[b as usize]),
            Gate::Xor(a, b) => rw.xor(map[a as usize], map[b as usize]),
            Gate::Not(a) => rw.not(map[a as usize]),
            Gate::Mux(s, a, b) => rw.mux(map[s as usize], map[a as usize], map[b as usize]),
            Gate::AssertZero(a) => {
                asserts_before += 1;
                let a = map[a as usize];
                match rw.v(a) {
                    // Provably passes: the assert can never fire; its own
                    // wire value is 0.
                    Some(0) => rw.konst(0),
                    opt_v => {
                        if seen_asserts.insert(a) {
                            if opt_v.is_some() {
                                always_fail += 1;
                            }
                            let w = rw.raw_push(Gate::AssertZero(a));
                            assert_origin.push((w, i as u32));
                            w
                        } else {
                            // Duplicate assert on the same wire: the
                            // earlier (lower-index) one fires first with
                            // the same value, so this one is redundant.
                            rw.konst(0)
                        }
                    }
                }
            }
        };
        map.push(new);
    }

    let out = RewriteOut {
        gates: rw.gates,
        map,
        assert_origin,
        folded: rw.folded,
        identities: rw.identities,
        cse_hits: rw.cse_hits,
        asserts_before,
        always_fail,
    };
    let live = mark_live(c, &out);
    assemble(c, out, &live)
}

/// The rewritten (pre-DCE) gate list plus everything the sweep and the
/// final stats need.
struct RewriteOut {
    gates: Vec<Gate>,
    /// Source wire → rewritten wire.
    map: Vec<WireId>,
    /// (pre-DCE new index, source index) per surviving assert, sorted by
    /// new index.
    assert_origin: Vec<(u32, u32)>,
    folded: u64,
    identities: u64,
    cse_hits: u64,
    asserts_before: u64,
    always_fail: u64,
}

/// Liveness mark. Roots: circuit outputs, every surviving
/// assert, and all input gates (arity must be preserved). A single
/// reverse pass suffices because the gate list is topologically ordered.
fn mark_live(c: &Circuit, out: &RewriteOut) -> Vec<bool> {
    let n = out.gates.len();
    let mut live = vec![false; n];
    for &o in c.outputs() {
        live[out.map[o as usize] as usize] = true;
    }
    for (w, g) in out.gates.iter().enumerate() {
        if matches!(g, Gate::AssertZero(_) | Gate::Input(_)) {
            live[w] = true;
        }
    }
    for w in (0..n).rev() {
        if live[w] {
            for op in out.gates[w].operands().iter().flatten() {
                live[*op as usize] = true;
            }
        }
    }
    live
}

/// Sweep (compaction in id order) and final stats assembly.
fn assemble(c: &Circuit, out: RewriteOut, live: &[bool]) -> (Circuit, OptStats) {
    let n = out.gates.len();
    let mut remap = vec![WireId::MAX; n];
    let mut out_gates: Vec<Gate> = Vec::with_capacity(n);
    for w in 0..n {
        if !live[w] {
            continue;
        }
        remap[w] = out_gates.len() as WireId;
        out_gates.push(remap_gate(out.gates[w], &remap));
    }
    let dead = (n - out_gates.len()) as u64;
    let outputs: Vec<WireId> = c
        .outputs()
        .iter()
        .map(|&o| remap[out.map[o as usize] as usize])
        .collect();
    let assert_origin: Vec<(u32, u32)> = out
        .assert_origin
        .into_iter()
        .map(|(nw, oi)| (remap[nw as usize], oi))
        .collect();
    let asserts_after = assert_origin.len() as u64;

    // Logic-gate count of the rewritten-but-unswept list: the boundary
    // between the rewrite and DCE phases.
    let pre_dce_gates = out
        .gates
        .iter()
        .filter(|g| !matches!(g, Gate::Input(_) | Gate::Const(_)))
        .count() as u64;
    let opt = Circuit::from_raw(out_gates, outputs, c.num_inputs());
    let stats = OptStats {
        gates_before: c.size(),
        gates_after: opt.size(),
        wires_before: c.num_wires(),
        wires_after: opt.num_wires(),
        depth_before: c.depth(),
        depth_after: opt.depth(),
        folded: out.folded,
        identities: out.identities,
        cse_hits: out.cse_hits,
        dead,
        asserts_before: out.asserts_before,
        asserts_after,
        always_fail: out.always_fail,
        assert_origin,
        phase_gates: vec![
            ("rewrite", c.size(), pre_dce_gates),
            ("dce", pre_dce_gates, opt.size()),
        ],
    };
    (opt, stats)
}

/// Rewrites every operand of `g` through `renum`.
fn remap_gate(g: Gate, renum: &[WireId]) -> Gate {
    let r = |w: WireId| renum[w as usize];
    match g {
        Gate::Input(idx) => Gate::Input(idx),
        Gate::Const(v) => Gate::Const(v),
        Gate::Add(a, b) => Gate::Add(r(a), r(b)),
        Gate::Sub(a, b) => Gate::Sub(r(a), r(b)),
        Gate::Mul(a, b) => Gate::Mul(r(a), r(b)),
        Gate::Eq(a, b) => Gate::Eq(r(a), r(b)),
        Gate::Lt(a, b) => Gate::Lt(r(a), r(b)),
        Gate::And(a, b) => Gate::And(r(a), r(b)),
        Gate::Or(a, b) => Gate::Or(r(a), r(b)),
        Gate::Xor(a, b) => Gate::Xor(r(a), r(b)),
        Gate::Not(a) => Gate::Not(r(a)),
        Gate::Mux(s, a, b) => Gate::Mux(r(s), r(a), r(b)),
        Gate::AssertZero(a) => Gate::AssertZero(r(a)),
    }
}

/// Optimizes a circuit under `opts`: constant folding, algebraic
/// identity rewrites, structural CSE, and assertion-safe mark-and-sweep
/// DCE.
///
/// Count-only circuits, and any circuit when `opts.optimize` is off,
/// pass through unchanged. Output order and input arity are always
/// preserved; every declared input wire survives even if unused, so
/// optimized circuits accept the exact same input vectors.
///
/// When `opts.recorder` is enabled the pass records an `optimize` span
/// and its headline counters; the produced [`OptStats`] never depends on
/// whether tracing was on.
pub fn optimize_with(c: &Circuit, opts: &CompileOptions) -> (Circuit, OptStats) {
    if !opts.optimize {
        return (c.clone(), OptStats::passthrough(c));
    }
    let rec = &opts.recorder;
    let _span = rec.span("optimize");
    let (opt, st) = optimize(c);
    if rec.is_enabled() {
        rec.add("opt.gates_before", st.gates_before);
        rec.add("opt.gates_after", st.gates_after);
        rec.add("opt.folded", st.folded);
        rec.add("opt.identities", st.identities);
        rec.add("opt.cse_hits", st.cse_hits);
        rec.add("opt.dead", st.dead);
    }
    (opt, st)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{Builder, EvalError, Mode};

    #[test]
    fn folds_constants_and_identities() {
        // Build without CSE so the source actually contains the
        // redundancy the optimizer is supposed to remove.
        let mut b = Builder::without_cse(Mode::Build);
        let x = b.input();
        let zero = b.constant(0);
        let one = b.constant(1);
        let a = b.add(x, zero); // x + 0 → x
        let m = b.mul(a, one); // x * 1 → x
        let e = b.eq(m, m); // Eq(x, x) → 1
        let s = b.sub(x, x); // x - x → 0
        let k = b.add(e, s); // 1 + 0 → 1
        let c = b.finish(vec![a, m, k]);
        let (opt, st) = optimize_with(&c, &CompileOptions::sequential());
        assert_eq!(opt.size(), 0, "everything folds away");
        assert!(st.folded > 0);
        for inp in [[0u64], [5], [u64::MAX]] {
            assert_eq!(c.evaluate(&inp).unwrap(), opt.evaluate(&inp).unwrap());
        }
        assert_eq!(opt.evaluate(&[9]).unwrap(), vec![9, 9, 1]);
    }

    #[test]
    fn boolean_guard_blocks_unsound_rewrites() {
        // And(x, x) must NOT become x for a non-boolean word.
        let mut b = Builder::without_cse(Mode::Build);
        let x = b.input();
        let a = b.and(x, x);
        let c = b.finish(vec![a]);
        let (opt, _) = optimize_with(&c, &CompileOptions::sequential());
        assert_eq!(opt.evaluate(&[5]).unwrap(), vec![1]);
        assert_eq!(opt.evaluate(&[0]).unwrap(), vec![0]);
        // But And(e, e) for boolean e is e itself.
        let mut b = Builder::without_cse(Mode::Build);
        let x = b.input();
        let y = b.input();
        let e = b.eq(x, y);
        let a = b.and(e, e);
        let c = b.finish(vec![a]);
        let (opt, _) = optimize_with(&c, &CompileOptions::sequential());
        assert_eq!(opt.size(), 1, "only the Eq survives");
        assert_eq!(opt.evaluate(&[3, 3]).unwrap(), vec![1]);
    }

    #[test]
    fn double_not_coerces() {
        let mut b = Builder::without_cse(Mode::Build);
        let x = b.input();
        let n1 = b.not(x);
        let n2 = b.not(n1); // bool(x), x not provably boolean
        let c = b.finish(vec![n2]);
        let (opt, _) = optimize_with(&c, &CompileOptions::sequential());
        assert_eq!(opt.evaluate(&[7]).unwrap(), vec![1]);
        assert_eq!(opt.evaluate(&[0]).unwrap(), vec![0]);
        assert!(
            opt.size() <= 1,
            "Not(Not(x)) collapses to one coercion gate"
        );
    }

    #[test]
    fn mux_rewrites() {
        let mut b = Builder::without_cse(Mode::Build);
        let s = b.input();
        let x = b.input();
        let y = b.input();
        let same = b.mux(s, x, x); // → x
        let one = b.constant(1);
        let zero = b.constant(0);
        let csel = b.mux(one, x, y); // → x
        let boolify = b.mux(s, one, zero); // → bool(s)
        let c = b.finish(vec![same, csel, boolify]);
        let (opt, _) = optimize_with(&c, &CompileOptions::sequential());
        for inp in [[0u64, 4, 9], [2, 4, 9]] {
            assert_eq!(c.evaluate(&inp).unwrap(), opt.evaluate(&inp).unwrap());
        }
        assert_eq!(opt.size(), 1, "only the boolean coercion of s remains");
    }

    #[test]
    fn dce_keeps_outputs_and_inputs() {
        let mut b = Builder::without_cse(Mode::Build);
        let x = b.input();
        let y = b.input();
        let _dead = b.mul(x, y); // unused
        let live = b.add(x, y);
        let c = b.finish(vec![live]);
        let (opt, st) = optimize_with(&c, &CompileOptions::sequential());
        assert_eq!(opt.size(), 1);
        assert_eq!(opt.num_inputs(), 2);
        assert_eq!(st.dead, 1);
        assert_eq!(opt.evaluate(&[2, 3]).unwrap(), vec![5]);
    }

    #[test]
    fn passing_asserts_on_const_zero_are_dropped() {
        let mut b = Builder::without_cse(Mode::Build);
        let x = b.input();
        let z = b.sub(x, x); // folds to 0
        b.assert_zero(z);
        let out = b.add(x, x);
        let c = b.finish(vec![out]);
        let (opt, st) = optimize_with(&c, &CompileOptions::sequential());
        assert_eq!(st.asserts_before, 1);
        assert_eq!(st.asserts_after, 0);
        assert_eq!(opt.evaluate(&[4]).unwrap(), vec![8]);
    }

    #[test]
    fn failing_asserts_never_optimize_away() {
        let mut b = Builder::without_cse(Mode::Build);
        let x = b.input();
        let one = b.constant(1);
        let k = b.mul(one, one); // folds to const 1
        b.assert_zero(k); // always fails with value 1
        let c = b.finish(vec![x]);
        let (opt, st) = optimize_with(&c, &CompileOptions::sequential());
        assert_eq!(st.always_fail, 1);
        assert_eq!(st.asserts_after, 1);
        match opt.evaluate(&[0]) {
            Err(EvalError::AssertionFailed { value, .. }) => assert_eq!(value, 1),
            other => panic!("expected assertion failure, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_asserts_dedup_to_the_first() {
        let mut b = Builder::without_cse(Mode::Build);
        let x = b.input();
        let y = b.input();
        let d1 = b.sub(x, y);
        let d2 = b.sub(x, y); // same wire after CSE in the rewriter
        b.assert_zero(d1);
        b.assert_zero(d2);
        let c = b.finish(vec![]);
        let (opt, st) = optimize_with(&c, &CompileOptions::sequential());
        assert_eq!(st.asserts_before, 2);
        assert_eq!(st.asserts_after, 1);
        // The surviving assert maps to the FIRST source assert.
        let (ng, orig) = st.assert_origin[0];
        assert!(matches!(opt.gates()[ng as usize], Gate::AssertZero(_)));
        assert!(matches!(c.gates()[orig as usize], Gate::AssertZero(_)));
        let first_src_assert = c
            .gates()
            .iter()
            .position(|g| matches!(g, Gate::AssertZero(_)))
            .unwrap();
        assert_eq!(orig as usize, first_src_assert);
        assert!(opt.evaluate(&[3, 3]).is_ok());
        assert!(matches!(
            opt.evaluate(&[5, 3]),
            Err(EvalError::AssertionFailed { value: 2, .. })
        ));
    }

    #[test]
    fn assert_origin_maps_reported_gate_to_source_gate() {
        let mut b = Builder::without_cse(Mode::Build);
        let x = b.input();
        let y = b.input();
        let _pad = b.mul(x, x); // dead gate before the assert
        let d = b.sub(x, y);
        b.assert_zero(d);
        let e = b.eq(x, y);
        let n = b.not(e);
        b.assert_zero(n);
        let c = b.finish(vec![]);
        let (opt, st) = optimize_with(&c, &CompileOptions::sequential());
        // Fail the first assert: both circuits must report corresponding
        // gates and identical values.
        let (src_err, opt_err) = (
            c.evaluate(&[9, 2]).unwrap_err(),
            opt.evaluate(&[9, 2]).unwrap_err(),
        );
        match (src_err, opt_err) {
            (
                EvalError::AssertionFailed {
                    gate: sg,
                    value: sv,
                },
                EvalError::AssertionFailed {
                    gate: og,
                    value: ov,
                },
            ) => {
                assert_eq!(sv, ov);
                assert_eq!(st.origin_of(og as u32), Some(sg as u32));
            }
            other => panic!("expected assertion failures, got {other:?}"),
        }
    }

    #[test]
    fn count_mode_passes_through() {
        let mut b = Builder::new(Mode::Count);
        let x = b.input();
        let y = b.not(x);
        let c = b.finish(vec![y]);
        let (opt, st) = optimize_with(&c, &CompileOptions::sequential());
        assert!(!opt.is_evaluable());
        assert_eq!(opt.size(), c.size());
        assert_eq!(st.gates_before, st.gates_after);
    }

    /// A circuit exercising every rewrite family at once: folds,
    /// identities, coercions, CSE duplicates, passing / failing /
    /// duplicated asserts, dead gates.
    fn gnarly_circuit() -> Circuit {
        let mut b = Builder::without_cse(Mode::Build);
        let x = b.input();
        let y = b.input();
        let z = b.input();
        let zero = b.constant(0);
        let one = b.constant(1);
        let a1 = b.add(x, zero); // x
        let m1 = b.mul(a1, one); // x
        let d1 = b.sub(x, y);
        let d2 = b.sub(x, y); // CSE dup of d1
        b.assert_zero(d1);
        b.assert_zero(d2); // dedups to the first
        let pz = b.sub(z, z); // folds to 0
        b.assert_zero(pz); // provably passes, dropped
        let k = b.mul(one, one); // const 1
        b.assert_zero(k); // always fails
        let e = b.eq(m1, y);
        let n1 = b.not(e);
        let n2 = b.not(n1); // bool coercion of e
        let mx = b.mux(e, one, zero); // bool(e)
        let w = b.and(n2, mx);
        let o = b.or(w, zero);
        let xr = b.xor(o, one); // logical negation
        let lt = b.lt(z, zero); // folds to 0
        let _dead = b.mul(y, z); // dead
        let deep = {
            let mut acc = x;
            for i in 0..12 {
                let c = b.constant(i % 3);
                acc = b.add(acc, c);
                let t = b.mul(acc, y);
                acc = b.sub(t, acc);
            }
            acc
        };
        b.finish(vec![m1, xr, lt, deep, x])
    }

    #[test]
    fn every_rewrite_family_at_once_keeps_assert_semantics() {
        let c = gnarly_circuit();
        let (opt, st) = optimize_with(&c, &CompileOptions::sequential());
        assert_eq!(st.asserts_before, 4);
        assert_eq!(
            st.asserts_after, 2,
            "duplicate and provably-passing asserts go"
        );
        assert_eq!(st.always_fail, 1);
        assert!(st.folded > 0 && st.identities > 0 && st.dead > 0);
        // x != y trips the first assert; x == y reaches the always-fail one.
        for inp in [[3u64, 5, 7], [4, 4, 0], [0, 0, u64::MAX]] {
            match (c.evaluate(&inp), opt.evaluate(&inp)) {
                (
                    Err(EvalError::AssertionFailed {
                        gate: sg,
                        value: sv,
                    }),
                    Err(EvalError::AssertionFailed {
                        gate: og,
                        value: ov,
                    }),
                ) => {
                    assert_eq!(sv, ov, "input {inp:?}");
                    assert_eq!(st.origin_of(og as u32), Some(sg as u32), "input {inp:?}");
                }
                other => panic!("expected assertion failures on {inp:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn output_order_and_arity_survive() {
        let mut b = Builder::without_cse(Mode::Build);
        let x = b.input();
        let y = b.input();
        let _unused_input_is_fine = b.input();
        let a = b.add(x, y);
        let m = b.mul(x, y);
        let c = b.finish(vec![m, a, x]);
        let (opt, _) = optimize_with(&c, &CompileOptions::sequential());
        assert_eq!(opt.num_inputs(), 3);
        assert_eq!(opt.evaluate(&[2, 3, 99]).unwrap(), vec![6, 5, 2]);
    }
}
