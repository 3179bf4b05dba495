//! Bit-level lowering: word circuits → AND/XOR/NOT circuits.
//!
//! The paper treats Boolean and arithmetic circuits interchangeably up to
//! `poly(log u)` factors (Sec. 4.1). This module makes the translation
//! concrete: every word wire becomes `width` bit wires; word gates expand
//! to textbook Boolean blocks (ripple-carry adders, comparators,
//! multiplexers). The result is exactly what garbled-circuit or GMW-style
//! protocols consume — XOR gates are "free" in both, so [`BitCircuit`]
//! reports AND count and AND depth separately.

use std::collections::HashMap;
use std::sync::OnceLock;

use crate::driver::CompileOptions;
use crate::{Circuit, Gate, WireId};

/// A bit-level gate over GF(2) with NOT.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BGate {
    /// The `i`-th input bit.
    Input(usize),
    /// A constant bit.
    Const(bool),
    /// XOR (free in GMW/garbling).
    Xor(u32, u32),
    /// AND (the expensive gate).
    And(u32, u32),
    /// NOT (free).
    Not(u32),
    /// Assertion: the bit must be 0 at evaluation time.
    AssertFalse(u32),
}

/// A lowered Boolean circuit.
///
/// The circuit is sealed at construction: the gate list, outputs, input
/// arity, and width are only readable (via [`BitCircuit::gates`] and
/// friends), never mutable. The size/depth metrics
/// ([`BitCircuit::and_count`] &c.) are computed lazily on first use and
/// cached in a `OnceLock`; sealing is what makes that cache sound — a
/// circuit mutated after the first metrics read would silently keep
/// reporting the stale numbers. To change a circuit, build a new one
/// with [`BitCircuit::new`].
pub struct BitCircuit {
    /// Gates in topological order.
    gates: Vec<BGate>,
    /// Output bit wires (the word outputs, `width` bits each, LSB first).
    outputs: Vec<u32>,
    /// Number of input bits.
    num_inputs: usize,
    /// Word width used by the lowering.
    width: u32,
    /// Lazily computed metrics (one pass over `gates`, then cached —
    /// `report` calls `and_depth` per table row).
    metrics: OnceLock<BitMetrics>,
}

/// Single-pass size/depth metrics for a [`BitCircuit`].
#[derive(Clone, Copy, Debug, Default)]
struct BitMetrics {
    gate_count: u64,
    and_count: u64,
    xor_count: u64,
    and_depth: u32,
}

impl BitCircuit {
    /// Assembles a bit circuit. Gates must be topologically ordered.
    pub fn new(gates: Vec<BGate>, outputs: Vec<u32>, num_inputs: usize, width: u32) -> BitCircuit {
        BitCircuit {
            gates,
            outputs,
            num_inputs,
            width,
            metrics: OnceLock::new(),
        }
    }

    /// The gates, in topological order.
    pub fn gates(&self) -> &[BGate] {
        &self.gates
    }

    /// Output bit wires (the word outputs, `width` bits each, LSB first).
    pub fn outputs(&self) -> &[u32] {
        &self.outputs
    }

    /// Number of input bits.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Word width used by the lowering.
    pub fn width(&self) -> u32 {
        self.width
    }

    fn metrics(&self) -> &BitMetrics {
        self.metrics.get_or_init(|| {
            let mut m = BitMetrics::default();
            let mut depth = vec![0u32; self.gates.len()];
            for (i, g) in self.gates.iter().enumerate() {
                depth[i] = match *g {
                    BGate::Input(_) | BGate::Const(_) => 0,
                    BGate::Xor(a, b) => {
                        m.xor_count += 1;
                        depth[a as usize].max(depth[b as usize])
                    }
                    BGate::Not(a) | BGate::AssertFalse(a) => depth[a as usize],
                    BGate::And(a, b) => {
                        m.and_count += 1;
                        depth[a as usize].max(depth[b as usize]) + 1
                    }
                };
                if !matches!(g, BGate::Input(_) | BGate::Const(_)) {
                    m.gate_count += 1;
                }
                m.and_depth = m.and_depth.max(depth[i]);
            }
            m
        })
    }

    /// Number of AND gates (the MPC/garbling cost driver).
    pub fn and_count(&self) -> u64 {
        self.metrics().and_count
    }

    /// Number of XOR gates (free in GMW/garbling).
    pub fn xor_count(&self) -> u64 {
        self.metrics().xor_count
    }

    /// Total gate count (excluding inputs and constants).
    pub fn gate_count(&self) -> u64 {
        self.metrics().gate_count
    }

    /// Multiplicative (AND) depth — the round count of a GMW evaluation.
    pub fn and_depth(&self) -> u32 {
        self.metrics().and_depth
    }

    /// Plaintext evaluation (reference for the MPC protocols).
    /// Allocates a fresh wire store per call; loops should hold a
    /// [`BitEvalScratch`] and use [`BitCircuit::evaluate_with`].
    pub fn evaluate(&self, inputs: &[bool]) -> Result<Vec<bool>, crate::EvalError> {
        let mut scratch = BitEvalScratch::default();
        self.evaluate_with(inputs, &mut scratch)
            .map(|out| out.to_vec())
    }

    /// [`BitCircuit::evaluate`] into caller-owned scratch buffers: the
    /// wire store and output vector live in `scratch` and are reused
    /// across calls (the returned slice borrows from it). One scratch
    /// serves circuits of any size — buffers regrow on demand.
    pub fn evaluate_with<'s>(
        &self,
        inputs: &[bool],
        scratch: &'s mut BitEvalScratch,
    ) -> Result<&'s [bool], crate::EvalError> {
        if inputs.len() != self.num_inputs {
            return Err(crate::EvalError::InputArity {
                expected: self.num_inputs,
                got: inputs.len(),
            });
        }
        let vals = &mut scratch.vals;
        vals.clear();
        vals.resize(self.gates.len(), false);
        for (i, g) in self.gates.iter().enumerate() {
            vals[i] = match *g {
                BGate::Input(idx) => inputs[idx],
                BGate::Const(v) => v,
                BGate::Xor(a, b) => vals[a as usize] ^ vals[b as usize],
                BGate::And(a, b) => vals[a as usize] & vals[b as usize],
                BGate::Not(a) => !vals[a as usize],
                BGate::AssertFalse(a) => {
                    if vals[a as usize] {
                        return Err(crate::EvalError::AssertionFailed { gate: i, value: 1 });
                    }
                    false
                }
            };
        }
        scratch.outs.clear();
        scratch
            .outs
            .extend(self.outputs.iter().map(|&w| vals[w as usize]));
        Ok(&scratch.outs)
    }

    /// Packs word inputs into the bit layout the lowering expects
    /// (LSB-first per word).
    pub fn pack_inputs(&self, words: &[u64]) -> Vec<bool> {
        let mut bits = Vec::with_capacity(words.len() * self.width as usize);
        for &w in words {
            for i in 0..self.width {
                bits.push((w >> i) & 1 == 1);
            }
        }
        bits
    }

    /// Unpacks output bits back into words.
    pub fn unpack_outputs(&self, bits: &[bool]) -> Vec<u64> {
        bits.chunks(self.width as usize)
            .map(|chunk| {
                chunk
                    .iter()
                    .enumerate()
                    .fold(0u64, |acc, (i, &b)| acc | (u64::from(b) << i))
            })
            .collect()
    }
}

/// Reusable wire-store + output buffers for
/// [`BitCircuit::evaluate_with`], so per-instance reference evaluation
/// in tight loops (the fuzzer's sampled bit checks, BitEngine parity
/// tests) stops allocating a fresh `Vec<bool>` per call.
#[derive(Default)]
pub struct BitEvalScratch {
    vals: Vec<bool>,
    outs: Vec<bool>,
}

/// The constant-`false` wire: always id 0 (both the sequential `Lowerer`
/// and the parallel core seed it first).
pub(crate) const B_FALSE: u32 = 0;
/// The constant-`true` wire: always id 1.
pub(crate) const B_TRUE: u32 = 1;

/// Bit wires above this id collide with the parallel stores' sentinels
/// (`u32::MAX`, `u32::MAX - 1`), so it is the last allocatable bit id.
pub(crate) const MAX_BIT_WIRES: u64 = (u32::MAX - 2) as u64;

/// Checked bit-wire allocation: the id for the `n`-th bit wire
/// (0-based), or a typed [`EvalError`](crate::EvalError) once the id
/// space is exhausted. Allocation used to wrap silently via `as u32` at
/// this boundary (>4.29B bit gates, reached around N=4096 on the X1
/// family).
pub(crate) fn checked_bit_id(n: u64) -> Result<u32, crate::EvalError> {
    if n > MAX_BIT_WIRES {
        return Err(crate::EvalError::CircuitTooLarge {
            wires: n + 1,
            limit: MAX_BIT_WIRES + 1,
        });
    }
    Ok(n as u32)
}

/// Sorts commutative operands (both binary bit gates commute).
pub(crate) fn canon_bit(g: BGate) -> BGate {
    match g {
        BGate::Xor(a, b) if a > b => BGate::Xor(b, a),
        BGate::And(a, b) if a > b => BGate::And(b, a),
        g => g,
    }
}

/// Rewrites every operand of `g` through `renum`.
fn remap_bgate(g: BGate, renum: &[u32]) -> BGate {
    let r = |w: u32| renum[w as usize];
    match g {
        BGate::Input(i) => BGate::Input(i),
        BGate::Const(v) => BGate::Const(v),
        BGate::Xor(a, b) => BGate::Xor(r(a), r(b)),
        BGate::And(a, b) => BGate::And(r(a), r(b)),
        BGate::Not(a) => BGate::Not(r(a)),
        BGate::AssertFalse(a) => BGate::AssertFalse(r(a)),
    }
}

/// Bit-gate construction rules with online constant folding and
/// hash-consing, written once against an abstract store: XOR and AND
/// fold against the constant wires and equal operands, NOT cancels NOT,
/// and structurally repeated gates (operands sorted) return the existing
/// wire. All bit wires carry `0`/`1`, so unlike the word level every
/// identity here is unconditionally sound.
///
/// Implementors provide the storage primitives: [`Lowerer`] (a gate
/// vector + `HashMap`, behind [`lower_with`] and [`optimize_bits_with`])
/// and `StreamLowerer` (the bounded-window store behind
/// [`lower_streamed`](crate::lower_streamed)). One copy of the rule
/// bodies is what keeps the two lowerings byte-identical.
pub(crate) trait BitRewrite {
    /// Appends an uncached gate (inputs, asserts).
    fn push(&mut self, g: BGate) -> u32;
    /// Interns an already-canonical gate key.
    fn intern(&mut self, key: BGate) -> u32;
    /// `Some(x)` when wire `w` is defined by `Not(x)` (the NOT-cancel
    /// peephole). This is the *only* structural query the rewrite rules
    /// make, and it is deliberately this narrow: a streaming store that
    /// has already spilled `w`'s definition can still answer it from a
    /// small side map, where a full `peek` would have to re-read the
    /// spill.
    fn not_operand(&self, w: u32) -> Option<u32>;
    fn count_fold(&mut self);

    fn emit(&mut self, g: BGate) -> u32 {
        self.intern(canon_bit(g))
    }

    fn xor(&mut self, a: u32, b: u32) -> u32 {
        if a == b {
            self.count_fold();
            return B_FALSE;
        }
        if a == B_FALSE {
            self.count_fold();
            return b;
        }
        if b == B_FALSE {
            self.count_fold();
            return a;
        }
        if a == B_TRUE {
            self.count_fold();
            return self.not(b);
        }
        if b == B_TRUE {
            self.count_fold();
            return self.not(a);
        }
        self.emit(BGate::Xor(a, b))
    }

    fn and(&mut self, a: u32, b: u32) -> u32 {
        if a == B_FALSE || b == B_FALSE {
            self.count_fold();
            return B_FALSE;
        }
        if a == B_TRUE {
            self.count_fold();
            return b;
        }
        if b == B_TRUE {
            self.count_fold();
            return a;
        }
        if a == b {
            self.count_fold();
            return a;
        }
        self.emit(BGate::And(a, b))
    }

    fn not(&mut self, a: u32) -> u32 {
        if a == B_FALSE {
            return B_TRUE;
        }
        if a == B_TRUE {
            return B_FALSE;
        }
        if let Some(x) = self.not_operand(a) {
            self.count_fold();
            return x;
        }
        self.emit(BGate::Not(a))
    }

    fn or(&mut self, a: u32, b: u32) -> u32 {
        // a | b = (a ^ b) ^ (a & b)
        let x = self.xor(a, b);
        let n = self.and(a, b);
        self.xor(x, n)
    }

    fn mux_bit(&mut self, s: u32, a: u32, b: u32) -> u32 {
        // b ^ (s & (a ^ b)) — one AND per bit
        let d = self.xor(a, b);
        let m = self.and(s, d);
        self.xor(b, m)
    }

    /// OR-reduction: "is any bit set" (word truthiness).
    fn truthy(&mut self, bits: &[u32]) -> u32 {
        let mut acc = B_FALSE;
        for &b in bits {
            acc = self.or(acc, b);
        }
        acc
    }

    fn add_words(&mut self, a: &[u32], b: &[u32]) -> Vec<u32> {
        let mut carry = B_FALSE;
        let mut out = Vec::with_capacity(a.len());
        for (&x, &y) in a.iter().zip(b.iter()) {
            let xy = self.xor(x, y);
            let s = self.xor(xy, carry);
            // carry' = (x & y) ^ (carry & (x ^ y))
            let g = self.and(x, y);
            let p = self.and(carry, xy);
            carry = self.xor(g, p);
            out.push(s);
        }
        out
    }

    fn neg_words(&mut self, a: &[u32]) -> Vec<u32> {
        // two's complement: ~a + 1
        let inv: Vec<u32> = a.iter().map(|&x| self.not(x)).collect();
        let mut one_word = vec![B_FALSE; a.len()];
        one_word[0] = B_TRUE;
        self.add_words(&inv, &one_word)
    }

    fn eq_words(&mut self, a: &[u32], b: &[u32]) -> u32 {
        let mut acc = B_TRUE;
        for (&x, &y) in a.iter().zip(b.iter()) {
            let d = self.xor(x, y);
            let same = self.not(d);
            acc = self.and(acc, same);
        }
        acc
    }

    fn lt_words(&mut self, a: &[u32], b: &[u32]) -> u32 {
        // ripple from LSB: lt = (!a & b) | (!(a^b) & lt_prev)
        let mut lt = B_FALSE;
        for (&x, &y) in a.iter().zip(b.iter()) {
            let nx = self.not(x);
            let here = self.and(nx, y);
            let d = self.xor(x, y);
            let same = self.not(d);
            let keep = self.and(same, lt);
            lt = self.or(here, keep);
        }
        lt
    }

    fn mul_words(&mut self, a: &[u32], b: &[u32]) -> Vec<u32> {
        let w = a.len();
        let mut acc = vec![B_FALSE; w];
        for (i, &bi) in b.iter().enumerate() {
            // partial product: (a << i) & bi, truncated to w bits
            let mut pp = vec![B_FALSE; w];
            for j in 0..w - i {
                pp[i + j] = self.and(a[j], bi);
            }
            acc = self.add_words(&acc, &pp);
        }
        acc
    }
}

/// Sequential store behind [`BitRewrite`]: a gate vector plus a single
/// `HashMap` cons table, with fold/CSE counters for [`BitOptStats`].
pub(crate) struct Lowerer {
    pub(crate) gates: Vec<BGate>,
    cse: HashMap<BGate, u32>,
    pub(crate) cse_hits: u64,
    pub(crate) folds: u64,
}

impl Lowerer {
    pub(crate) fn new() -> Lowerer {
        Lowerer {
            gates: vec![BGate::Const(false), BGate::Const(true)],
            cse: HashMap::new(),
            cse_hits: 0,
            folds: 0,
        }
    }
}

impl BitRewrite for Lowerer {
    fn push(&mut self, g: BGate) -> u32 {
        let id = match checked_bit_id(self.gates.len() as u64) {
            Ok(id) => id,
            Err(e) => panic!("{e}"),
        };
        self.gates.push(g);
        id
    }

    fn intern(&mut self, key: BGate) -> u32 {
        if let Some(&w) = self.cse.get(&key) {
            self.cse_hits += 1;
            return w;
        }
        let w = self.push(key);
        self.cse.insert(key, w);
        w
    }

    fn not_operand(&self, w: u32) -> Option<u32> {
        match self.gates[w as usize] {
            BGate::Not(x) => Some(x),
            _ => None,
        }
    }

    fn count_fold(&mut self) {
        self.folds += 1;
    }
}

/// A word wired to a single result bit: `out[0] = bit`, upper bits zero.
fn bit_word(bit: u32, w: usize) -> Vec<u32> {
    let mut out = vec![B_FALSE; w];
    out[0] = bit;
    out
}

/// Expands one word gate into its Boolean block against any
/// [`BitRewrite`] store. `word_bits[op]` holds the bit wires of word wire
/// `op`, already lowered — word gate lists are topological, so operands
/// always precede their consumers. Shared by [`lower_with`] and the
/// streaming lowering; tracking `num_input_bits` for `Input` gates stays
/// with the caller.
pub(crate) fn lower_gate<S: BitRewrite>(
    lw: &mut S,
    g: Gate,
    word_bits: &[Vec<u32>],
    w: usize,
) -> Vec<u32> {
    let wb = |x: WireId| &word_bits[x as usize];
    match g {
        Gate::Input(idx) => (0..w).map(|k| lw.push(BGate::Input(idx * w + k))).collect(),
        Gate::Const(v) => (0..w)
            .map(|k| if (v >> k) & 1 == 1 { B_TRUE } else { B_FALSE })
            .collect(),
        Gate::Add(a, b) => lw.add_words(wb(a), wb(b)),
        Gate::Sub(a, b) => {
            let nb = lw.neg_words(wb(b));
            lw.add_words(wb(a), &nb)
        }
        Gate::Mul(a, b) => lw.mul_words(wb(a), wb(b)),
        Gate::Eq(a, b) => {
            let e = lw.eq_words(wb(a), wb(b));
            bit_word(e, w)
        }
        Gate::Lt(a, b) => {
            let l = lw.lt_words(wb(a), wb(b));
            bit_word(l, w)
        }
        Gate::And(a, b) => {
            let (ta, tb) = (lw.truthy(wb(a)), lw.truthy(wb(b)));
            let r = lw.and(ta, tb);
            bit_word(r, w)
        }
        Gate::Or(a, b) => {
            let (ta, tb) = (lw.truthy(wb(a)), lw.truthy(wb(b)));
            let r = lw.or(ta, tb);
            bit_word(r, w)
        }
        Gate::Xor(a, b) => {
            let (ta, tb) = (lw.truthy(wb(a)), lw.truthy(wb(b)));
            let r = lw.xor(ta, tb);
            bit_word(r, w)
        }
        Gate::Not(a) => {
            let ta = lw.truthy(wb(a));
            let r = lw.not(ta);
            bit_word(r, w)
        }
        Gate::Mux(s, a, b) => {
            let ts = lw.truthy(wb(s));
            wb(a)
                .iter()
                .zip(wb(b).iter())
                .map(|(&x, &y)| lw.mux_bit(ts, x, y))
                .collect()
        }
        Gate::AssertZero(a) => {
            let ta = lw.truthy(wb(a));
            // A truthiness that folded to constant 0 can never fire;
            // anything else (including constant 1 = always-fail)
            // keeps its assert so failure semantics survive.
            if ta != B_FALSE {
                lw.push(BGate::AssertFalse(ta));
            }
            vec![B_FALSE; w]
        }
    }
}

/// Lowers a word circuit to bits under `opts`. Every word input becomes
/// `width` input bits (LSB first); word values must fit in `width` bits
/// for the semantics to agree with the word evaluator (checked by tests
/// over the operating domain).
///
/// Width contract: choose `width` so that every domain value is
/// `< 2^width − 1`. The all-ones word is the image of the reserved `?`
/// sentinel (`QMARK = u64::MAX`, Sec. 5.3), which truncates consistently:
/// order and equality comparisons against domain values behave as at word
/// level, but a domain value equal to `2^width − 1` would collide with it.
///
/// When `opts.recorder` is enabled the pass records a `lower` span and
/// the headline bit-level gate counts; the produced circuit never
/// depends on whether tracing was on.
///
/// # Panics
/// Panics if the circuit was built in count-only mode.
pub fn lower_with(c: &Circuit, width: u32, opts: &CompileOptions) -> BitCircuit {
    assert!(c.is_evaluable(), "cannot lower a count-only circuit");
    let rec = &opts.recorder;
    let _span = rec.span("lower");
    let w = width as usize;
    let mut lw = Lowerer::new();
    let mut word_bits: Vec<Vec<u32>> = Vec::with_capacity(c.num_wires());
    let mut num_input_bits = 0usize;

    for g in c.gates() {
        if let Gate::Input(idx) = *g {
            num_input_bits = num_input_bits.max((idx + 1) * w);
        }
        let bits = lower_gate(&mut lw, *g, &word_bits, w);
        word_bits.push(bits);
    }

    let outputs = c
        .outputs()
        .iter()
        .flat_map(|&w_id: &WireId| word_bits[w_id as usize].clone())
        .collect();
    let bc = BitCircuit::new(lw.gates, outputs, num_input_bits, width);
    if rec.is_enabled() {
        rec.add("lower.bit_gates", bc.gate_count());
        rec.add("lower.and_gates", bc.and_count());
        rec.add("lower.xor_gates", bc.xor_count());
        rec.gauge_max("lower.and_depth", bc.and_depth() as u64);
    }
    bc
}

/// Counters describing one [`optimize_bits_with`] run.
#[derive(Clone, Debug, Default)]
pub struct BitOptStats {
    /// Logic gates before (XOR + AND + NOT + asserts).
    pub gates_before: u64,
    /// Logic gates after.
    pub gates_after: u64,
    /// AND gates before — the MPC/garbling cost driver.
    pub and_before: u64,
    /// AND gates after.
    pub and_after: u64,
    /// AND depth before — the GMW round count.
    pub and_depth_before: u32,
    /// AND depth after.
    pub and_depth_after: u32,
    /// Structural CSE hits during the rewrite.
    pub cse_hits: u64,
    /// Constant/identity folds during the rewrite.
    pub folds: u64,
    /// Wires removed by mark-and-sweep DCE.
    pub dead: u64,
}

impl BitOptStats {
    /// Fraction of AND gates removed, in `[0, 1]`.
    pub fn and_reduction(&self) -> f64 {
        if self.and_before == 0 {
            0.0
        } else {
            1.0 - self.and_after as f64 / self.and_before as f64
        }
    }
}

/// Offline optimizer for bit circuits under `opts`: XOR/AND/NOT constant
/// folding and identity rewrites, structural CSE, and assertion-safe DCE
/// (asserts are roots; only an assert whose input folds to constant
/// `false` is dropped). Circuits freshly produced by [`lower_with`] are
/// already folded online, so this pass mostly pays off on hand-assembled
/// or deserialized bit circuits — and as the place where
/// AND-count/AND-depth deltas are measured. Runs regardless of
/// `opts.optimize` (that flag gates the *word-level* pass inside the
/// compile driver; calling this function is already the opt-in).
///
/// When `opts.recorder` is enabled the pass records an `opt_bits` span
/// and its headline counters.
pub fn optimize_bits_with(bc: &BitCircuit, opts: &CompileOptions) -> (BitCircuit, BitOptStats) {
    let rec = &opts.recorder;
    let _span = rec.span("opt_bits");
    let out = rewrite_bits(bc);
    let live = mark_live_bits(bc, &out);
    let (opt, st) = assemble_bits(bc, out, &live);
    if rec.is_enabled() {
        rec.add("opt_bits.gates_before", st.gates_before);
        rec.add("opt_bits.gates_after", st.gates_after);
        rec.add("opt_bits.cse_hits", st.cse_hits);
        rec.add("opt_bits.folds", st.folds);
        rec.add("opt_bits.dead", st.dead);
    }
    (opt, st)
}

/// The rewritten (pre-DCE) bit-gate list plus everything the sweep and
/// final stats need.
struct BitRewriteOut {
    gates: Vec<BGate>,
    /// Source wire → rewritten wire.
    map: Vec<u32>,
    cse_hits: u64,
    folds: u64,
}

/// Applies the [`BitRewrite`] rules to one source gate against the
/// rewritten `map` of its operands.
fn rewrite_bit_gate<S: BitRewrite>(lw: &mut S, map: &[u32], g: BGate) -> u32 {
    match g {
        BGate::Input(i) => lw.push(BGate::Input(i)),
        BGate::Const(v) => {
            if v {
                B_TRUE
            } else {
                B_FALSE
            }
        }
        BGate::Xor(a, b) => lw.xor(map[a as usize], map[b as usize]),
        BGate::And(a, b) => lw.and(map[a as usize], map[b as usize]),
        BGate::Not(a) => lw.not(map[a as usize]),
        BGate::AssertFalse(a) => {
            let a = map[a as usize];
            if a == B_FALSE {
                B_FALSE
            } else {
                lw.push(BGate::AssertFalse(a))
            }
        }
    }
}

fn rewrite_bits(bc: &BitCircuit) -> BitRewriteOut {
    let mut lw = Lowerer::new();
    let mut map: Vec<u32> = Vec::with_capacity(bc.gates.len());
    for &g in &bc.gates {
        let w = rewrite_bit_gate(&mut lw, &map, g);
        map.push(w);
    }
    BitRewriteOut {
        gates: lw.gates,
        map,
        cse_hits: lw.cse_hits,
        folds: lw.folds,
    }
}

/// Liveness mark over the rewritten gates: outputs, asserts, and inputs
/// are roots; a single reverse pass suffices because the gate list is
/// topologically ordered.
fn mark_live_bits(bc: &BitCircuit, out: &BitRewriteOut) -> Vec<bool> {
    let n = out.gates.len();
    let mut live = vec![false; n];
    for &o in &bc.outputs {
        live[out.map[o as usize] as usize] = true;
    }
    for (w, g) in out.gates.iter().enumerate() {
        if matches!(g, BGate::AssertFalse(_) | BGate::Input(_)) {
            live[w] = true;
        }
    }
    for w in (0..n).rev() {
        if live[w] {
            match out.gates[w] {
                BGate::Xor(a, b) | BGate::And(a, b) => {
                    live[a as usize] = true;
                    live[b as usize] = true;
                }
                BGate::Not(a) | BGate::AssertFalse(a) => live[a as usize] = true,
                BGate::Input(_) | BGate::Const(_) => {}
            }
        }
    }
    live
}

/// Sweep (compaction in id order) and final stats assembly.
fn assemble_bits(bc: &BitCircuit, out: BitRewriteOut, live: &[bool]) -> (BitCircuit, BitOptStats) {
    let n = out.gates.len();
    let mut remap = vec![u32::MAX; n];
    let mut gates = Vec::with_capacity(n);
    for w in 0..n {
        if !live[w] {
            continue;
        }
        remap[w] = gates.len() as u32;
        gates.push(remap_bgate(out.gates[w], &remap));
    }
    let dead = (n - gates.len()) as u64;
    let outputs = bc
        .outputs
        .iter()
        .map(|&o| remap[out.map[o as usize] as usize])
        .collect();
    let opt = BitCircuit::new(gates, outputs, bc.num_inputs, bc.width);
    let stats = BitOptStats {
        gates_before: bc.gate_count(),
        gates_after: opt.gate_count(),
        and_before: bc.and_count(),
        and_after: opt.and_count(),
        and_depth_before: bc.and_depth(),
        and_depth_after: opt.and_depth(),
        cse_hits: out.cse_hits,
        folds: out.folds,
        dead,
    };
    (opt, stats)
}

/// Groups bit gates into dependency levels for the level-major
/// [`CompiledBitCircuit`](crate::CompiledBitCircuit) tape: sources at 0,
/// every other kind strictly above all of its operands. (A scheduling
/// depth — unrelated to AND depth, which treats XOR/NOT as free.)
pub(crate) fn bit_levels(gates: &[BGate]) -> Vec<Vec<u32>> {
    let mut depth = vec![0u32; gates.len()];
    let mut max_d = 0u32;
    for (i, g) in gates.iter().enumerate() {
        let d = match *g {
            BGate::Input(_) | BGate::Const(_) => 0,
            BGate::Xor(a, b) | BGate::And(a, b) => depth[a as usize].max(depth[b as usize]) + 1,
            BGate::Not(a) | BGate::AssertFalse(a) => depth[a as usize] + 1,
        };
        depth[i] = d;
        max_d = max_d.max(d);
    }
    let mut levels: Vec<Vec<u32>> = vec![Vec::new(); max_d as usize + 1];
    for (i, &d) in depth.iter().enumerate() {
        levels[d as usize].push(i as u32);
    }
    levels
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Builder, Mode};

    fn check_against_words(
        build: impl Fn(&mut Builder) -> Vec<WireId>,
        inputs: &[u64],
        width: u32,
    ) {
        let mut b = Builder::new(Mode::Build);
        let outs = build(&mut b);
        let c = b.finish(outs);
        let word_result = c.evaluate(inputs).unwrap();
        let bc = lower_with(&c, width, &CompileOptions::sequential());
        let bit_result = bc.unpack_outputs(&bc.evaluate(&bc.pack_inputs(inputs)).unwrap());
        let mask = if width == 64 {
            u64::MAX
        } else {
            (1u64 << width) - 1
        };
        let masked: Vec<u64> = word_result.iter().map(|&v| v & mask).collect();
        assert_eq!(bit_result, masked, "inputs {inputs:?}");
    }

    #[test]
    fn arithmetic_gates_agree_with_word_semantics() {
        let build = |b: &mut Builder| {
            let x = b.input();
            let y = b.input();
            vec![b.add(x, y), b.sub(x, y), b.mul(x, y)]
        };
        for (x, y) in [(3u64, 5u64), (200, 55), (255, 255), (0, 0), (17, 4)] {
            check_against_words(build, &[x, y], 16);
        }
    }

    #[test]
    fn comparison_and_logic_agree() {
        let build = |b: &mut Builder| {
            let x = b.input();
            let y = b.input();
            let e = b.eq(x, y);
            let l = b.lt(x, y);
            let a = b.and(x, y);
            let o = b.or(x, y);
            let n = b.not(x);
            let xo = b.xor(x, y);
            vec![e, l, a, o, n, xo]
        };
        for (x, y) in [(3u64, 5u64), (5, 3), (7, 7), (0, 9), (0, 0)] {
            check_against_words(build, &[x, y], 12);
        }
    }

    #[test]
    fn mux_agrees() {
        let build = |b: &mut Builder| {
            let s = b.input();
            let x = b.input();
            let y = b.input();
            vec![b.mux(s, x, y)]
        };
        for (s, x, y) in [(0u64, 11u64, 22u64), (1, 11, 22), (9, 11, 22)] {
            check_against_words(build, &[s, x, y], 8);
        }
    }

    #[test]
    fn assertion_lowering_fires() {
        let mut b = Builder::new(Mode::Build);
        let x = b.input();
        b.assert_zero(x);
        let c = b.finish(vec![]);
        let bc = lower_with(&c, 8, &CompileOptions::sequential());
        assert!(bc.evaluate(&bc.pack_inputs(&[0])).is_ok());
        assert!(bc.evaluate(&bc.pack_inputs(&[4])).is_err());
    }

    #[test]
    fn and_metrics() {
        let mut b = Builder::new(Mode::Build);
        let x = b.input();
        let y = b.input();
        let s = b.add(x, y);
        let c = b.finish(vec![s]);
        let bc = lower_with(&c, 16, &CompileOptions::sequential());
        // ripple-carry: 2 ANDs per bit (generate + propagate), except
        // the LSB where carry-in = 0 folds the propagate AND away
        assert_eq!(bc.and_count(), 31);
        assert!(bc.and_depth() >= 15, "carry chain depth");
        assert!(bc.gate_count() > bc.and_count());
        // metrics are cached: repeated calls agree
        assert_eq!(bc.and_depth(), bc.and_depth());
        assert_eq!(bc.gate_count(), bc.xor_count() + bc.and_count());
    }

    #[test]
    fn online_folding_preserves_semantics_with_consts() {
        // x + 0 and x * 1 exercise the zero/one fold paths heavily.
        let build = |b: &mut Builder| {
            let x = b.input();
            let zero = b.constant(0);
            let one = b.constant(1);
            let s = b.add(x, zero);
            let p = b.mul(x, one);
            let e = b.eq(s, p);
            vec![s, p, e]
        };
        for x in [0u64, 1, 77, 255] {
            check_against_words(build, &[x], 8);
        }
    }

    #[test]
    fn optimize_bits_is_equivalent_and_no_larger() {
        // Hand-assembled redundancy (circuits from `lower` are already
        // folded online, so build the duplicates directly).
        let gates = vec![
            BGate::Input(0),  // 0
            BGate::Input(1),  // 1
            BGate::And(0, 1), // 2
            BGate::And(1, 0), // 3: commutative duplicate of 2
            BGate::Xor(2, 3), // 4: x ^ x = 0
            BGate::Not(4),    // 5: = 1
            BGate::And(2, 5), // 6: (x & y) & 1 = x & y
        ];
        let bc = BitCircuit::new(gates, vec![6], 2, 1);
        let (opt, st) = optimize_bits_with(&bc, &CompileOptions::sequential());
        assert_eq!(st.and_before, 3);
        assert_eq!(st.and_after, 1, "only one real AND remains");
        assert!(st.cse_hits >= 1);
        assert!(st.dead >= 1);
        for (x, y) in [(false, false), (false, true), (true, false), (true, true)] {
            assert_eq!(
                bc.evaluate(&[x, y]).unwrap(),
                opt.evaluate(&[x, y]).unwrap(),
                "({x}, {y})"
            );
        }
    }

    #[test]
    fn optimize_bits_keeps_failing_asserts() {
        // An assert over constant-true must survive as always-fail.
        let gates = vec![
            BGate::Const(false),
            BGate::Const(true),
            BGate::AssertFalse(1),
        ];
        let bc = BitCircuit::new(gates, vec![], 0, 1);
        let (opt, _) = optimize_bits_with(&bc, &CompileOptions::sequential());
        assert!(
            opt.evaluate(&[]).is_err(),
            "always-fail assert must survive"
        );
        // And an assert over constant-false is dropped.
        let gates = vec![
            BGate::Const(false),
            BGate::Const(true),
            BGate::AssertFalse(0),
        ];
        let bc = BitCircuit::new(gates, vec![], 0, 1);
        let (opt, _) = optimize_bits_with(&bc, &CompileOptions::sequential());
        assert!(opt.evaluate(&[]).is_ok());
        assert_eq!(opt.gate_count(), 0);
    }

    /// A word circuit exercising every gate kind, structural duplicates
    /// (commutative and literal), constant folds, asserts (passing and
    /// redundant), and a deep dependency chain.
    fn gnarly_word_circuit() -> Circuit {
        let mut b = Builder::without_cse(Mode::Build);
        let x = b.input();
        let y = b.input();
        let z = b.input();
        let c1 = b.constant(1);
        let c0 = b.constant(0);
        let mut acc = x;
        for i in 0..6 {
            let s = b.add(acc, y);
            let p = b.mul(s, z);
            let e = b.eq(p, x);
            let l = b.lt(acc, p);
            let m = b.mux(e, s, l);
            let o = b.or(m, c1);
            let xo = b.xor(o, c0);
            let n = b.not(xo);
            let a2 = b.and(n, m);
            // structurally duplicate adds (also commuted) and an
            // always-passing assert over their difference
            let dup = b.add(acc, y);
            let du2 = b.add(y, acc);
            let su = b.sub(dup, du2);
            b.assert_zero(su);
            let pick = if i % 2 == 0 { s } else { m };
            acc = b.add(a2, pick);
        }
        b.finish(vec![acc, x])
    }

    /// A hand-assembled bit DAG with duplicates (plain and commuted),
    /// folds, NOT chains, droppable and surviving asserts, and dead
    /// gates, from a fixed xorshift stream.
    fn gnarly_bit_circuit() -> BitCircuit {
        let mut gates = vec![BGate::Const(false), BGate::Const(true)];
        for i in 0..4 {
            gates.push(BGate::Input(i));
        }
        let mut state = 0x243f_6a88_85a3_08d3u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..400 {
            let n = gates.len() as u32;
            let a = (rng() % n as u64) as u32;
            let b = (rng() % n as u64) as u32;
            gates.push(match rng() % 8 {
                0 | 1 => BGate::Xor(a, b),
                2 | 3 => BGate::And(a, b),
                4 => BGate::Xor(b, a),
                5 => BGate::Not(a),
                6 => BGate::And(a, a),
                _ => BGate::Xor(a, a),
            });
        }
        let n = gates.len() as u32;
        gates.push(BGate::Xor(n - 1, n - 1)); // identically 0
        gates.push(BGate::AssertFalse(n)); // folds away
        gates.push(BGate::AssertFalse(0)); // folds away
        gates.push(BGate::AssertFalse(5)); // survives (input wire)
        BitCircuit::new(gates, vec![n - 1, n - 3, 7], 4, 1)
    }

    #[test]
    fn bit_optimizer_preserves_semantics_on_gnarly_circuits() {
        // The lowered circuit is already folded online: it exercises the
        // Input/assert push paths and the passthrough-heavy rewrite.
        let lowered = lower_with(&gnarly_word_circuit(), 10, &CompileOptions::sequential());
        for bc in [gnarly_bit_circuit(), lowered] {
            let (opt, st) = optimize_bits_with(&bc, &CompileOptions::sequential());
            assert!(st.and_after <= st.and_before);
            assert!(st.gates_after <= st.gates_before);
            let mut state = 0x9e37_79b9_7f4a_7c15u64;
            for _ in 0..64 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let inputs: Vec<bool> = (0..bc.num_inputs())
                    .map(|i| (state >> (i % 64)) & 1 == 1)
                    .collect();
                match (bc.evaluate(&inputs), opt.evaluate(&inputs)) {
                    (Ok(want), Ok(got)) => assert_eq!(got, want, "inputs {inputs:?}"),
                    (Err(_), Err(_)) => {}
                    other => panic!("optimizer changed the outcome on {inputs:?}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn sealed_metrics_stay_consistent_with_gate_list() {
        let mut b = Builder::new(Mode::Build);
        let x = b.input();
        let y = b.input();
        let s = b.add(x, y);
        let p = b.mul(s, y);
        let c = b.finish(vec![p]);
        let bc = lower_with(&c, 8, &CompileOptions::sequential());
        // Prime the metrics cache, then recount from the sealed
        // accessors: the gate list is immutable after construction, so
        // the cache can never disagree with it.
        let and_cached = bc.and_count();
        let xor_cached = bc.xor_count();
        let gates_cached = bc.gate_count();
        let and_recount = bc
            .gates()
            .iter()
            .filter(|g| matches!(g, BGate::And(_, _)))
            .count() as u64;
        let xor_recount = bc
            .gates()
            .iter()
            .filter(|g| matches!(g, BGate::Xor(_, _)))
            .count() as u64;
        let logic_recount = bc
            .gates()
            .iter()
            .filter(|g| !matches!(g, BGate::Input(_) | BGate::Const(_)))
            .count() as u64;
        assert_eq!(and_cached, and_recount);
        assert_eq!(xor_cached, xor_recount);
        assert_eq!(gates_cached, logic_recount);
        // repeated reads keep returning the cached values
        assert_eq!(bc.and_count(), and_cached);
        assert_eq!(bc.gate_count(), gates_cached);
    }

    #[test]
    fn wrapping_matches_width() {
        let build = |b: &mut Builder| {
            let x = b.input();
            let y = b.input();
            vec![b.add(x, y)]
        };
        // 250 + 10 wraps mod 2^8 = 4
        check_against_words(build, &[250, 10], 8);
    }
}
