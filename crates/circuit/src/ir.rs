//! Word-level circuit IR: gates, builder, evaluator.

use std::collections::HashMap;
use std::fmt;

/// A wire identifier.
pub type WireId = u32;

/// A word-level gate. Comparison and logic gates produce `0`/`1`;
/// arithmetic is wrapping (the planner sizes words so wrapping never
/// triggers on conforming inputs).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Gate {
    /// The `i`-th circuit input.
    Input(usize),
    /// A compile-time constant.
    Const(u64),
    /// Wrapping addition.
    Add(WireId, WireId),
    /// Wrapping subtraction.
    Sub(WireId, WireId),
    /// Wrapping multiplication.
    Mul(WireId, WireId),
    /// Equality test (`0`/`1`).
    Eq(WireId, WireId),
    /// Unsigned less-than (`0`/`1`).
    Lt(WireId, WireId),
    /// Logical AND (inputs treated as booleans).
    And(WireId, WireId),
    /// Logical OR.
    Or(WireId, WireId),
    /// Logical XOR.
    Xor(WireId, WireId),
    /// Logical NOT.
    Not(WireId),
    /// Multiplexer: `sel ≠ 0 ? a : b`.
    Mux(WireId, WireId, WireId),
    /// Runtime assertion: the wire must evaluate to `0`. Used to make
    /// capacity obligations (e.g. "truncation only drops dummies")
    /// checkable during evaluation.
    AssertZero(WireId),
}

impl Gate {
    pub(crate) fn operands(&self) -> [Option<WireId>; 3] {
        match *self {
            Gate::Input(_) | Gate::Const(_) => [None, None, None],
            Gate::Not(a) | Gate::AssertZero(a) => [Some(a), None, None],
            Gate::Add(a, b)
            | Gate::Sub(a, b)
            | Gate::Mul(a, b)
            | Gate::Eq(a, b)
            | Gate::Lt(a, b)
            | Gate::And(a, b)
            | Gate::Or(a, b)
            | Gate::Xor(a, b) => [Some(a), Some(b), None],
            Gate::Mux(s, a, b) => [Some(s), Some(a), Some(b)],
        }
    }
}

/// Builder mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Materialize gates (evaluable).
    Build,
    /// Track only size and depth (for large scaling sweeps). Gate and
    /// depth accounting is identical to [`Mode::Build`].
    Count,
}

/// Evaluation failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EvalError {
    /// Wrong number of inputs supplied.
    InputArity {
        /// Inputs the circuit declares.
        expected: usize,
        /// Inputs supplied.
        got: usize,
    },
    /// An [`Gate::AssertZero`] fired.
    AssertionFailed {
        /// Index of the failing gate.
        gate: usize,
        /// The non-zero value observed.
        value: u64,
    },
    /// The circuit was built in [`Mode::Count`] and has no gates.
    CountOnly,
    /// A structural invariant violation found by the validator
    /// ([`crate::validate`]) when compiling with
    /// [`CompileOptions::with_validate`](crate::CompileOptions::with_validate).
    Invalid(crate::validate::ValidateError),
    /// Wire-id allocation ran past the 32-bit id space of the in-memory
    /// IR. Construction used to wrap silently here; the wide (64-bit id)
    /// tape format in [`crate::tape`] is the supported path beyond this
    /// size.
    CircuitTooLarge {
        /// Wires the construction attempted to allocate.
        wires: u64,
        /// The id-space limit that was exceeded.
        limit: u64,
    },
    /// A tape encode/decode/serialization failure surfaced through an
    /// evaluation entry point.
    Tape(crate::tape::TapeError),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::InputArity { expected, got } => {
                write!(f, "expected {expected} inputs, got {got}")
            }
            EvalError::AssertionFailed { gate, value } => {
                write!(f, "assertion gate {gate} observed non-zero value {value}")
            }
            EvalError::CountOnly => write!(f, "circuit was built in count-only mode"),
            EvalError::Invalid(e) => write!(f, "circuit failed structural validation: {e}"),
            EvalError::CircuitTooLarge { wires, limit } => write!(
                f,
                "circuit too large: {wires} wires exceed the {limit}-wire id space \
                 (use the wide tape encoding / streaming lowering for larger circuits)"
            ),
            EvalError::Tape(e) => write!(f, "tape error: {e}"),
        }
    }
}

/// The number of wires the 32-bit in-memory IR can address. `u32::MAX`
/// itself is reserved (the optimizer uses it as its unmapped-wire
/// sentinel), so the last allocatable id is `u32::MAX - 1`.
pub(crate) const MAX_WIRES: u64 = u32::MAX as u64;

/// Checked wire-id allocation: the id for the `n`-th wire (0-based), or
/// a typed [`EvalError::CircuitTooLarge`] once the 32-bit id space is
/// exhausted. Allocation used to wrap silently via `as u32` at this
/// boundary (>4.29B wires).
pub(crate) fn checked_wire_id(n: u64) -> Result<WireId, EvalError> {
    if n >= MAX_WIRES {
        return Err(EvalError::CircuitTooLarge {
            wires: n + 1,
            limit: MAX_WIRES,
        });
    }
    Ok(n as WireId)
}

impl std::error::Error for EvalError {}

/// Incremental circuit builder.
///
/// In [`Mode::Count`] the builder performs the exact same bookkeeping
/// (including constant deduplication and hash-consing) without
/// materializing gates, so size/depth numbers from the two modes are
/// identical — a property the test suite checks.
///
/// By default the builder hash-conses logic gates: pushing a gate that is
/// structurally identical to an earlier one (after sorting the operands
/// of commutative gates) returns the existing wire instead of a new one.
/// The cache key is the gate value itself, which exists in both modes, so
/// consing never breaks Build/Count parity. Use [`Builder::without_cse`]
/// when wire ids must track pushes one-for-one (the netlist reader does).
pub struct Builder {
    mode: Mode,
    gates: Vec<Gate>,
    depths: Vec<u32>,
    num_inputs: usize,
    size: u64,
    const_cache: HashMap<u64, WireId>,
    cse: bool,
    cse_cache: HashMap<Gate, WireId>,
    /// Logic pushes answered from `cse_cache` (online dedup hits).
    cse_hits: u64,
}

/// Sorts the operands of commutative gates so `add(a, b)` and
/// `add(b, a)` share one cache entry. `Sub`, `Lt`, and `Mux` are order
/// sensitive and pass through unchanged.
pub(crate) fn canon(gate: Gate) -> Gate {
    match gate {
        Gate::Add(a, b) if a > b => Gate::Add(b, a),
        Gate::Mul(a, b) if a > b => Gate::Mul(b, a),
        Gate::Eq(a, b) if a > b => Gate::Eq(b, a),
        Gate::And(a, b) if a > b => Gate::And(b, a),
        Gate::Or(a, b) if a > b => Gate::Or(b, a),
        Gate::Xor(a, b) if a > b => Gate::Xor(b, a),
        g => g,
    }
}

impl Builder {
    /// Creates an empty builder with hash-consing enabled.
    pub fn new(mode: Mode) -> Builder {
        Builder {
            mode,
            gates: Vec::new(),
            depths: Vec::new(),
            num_inputs: 0,
            size: 0,
            const_cache: HashMap::new(),
            cse: true,
            cse_cache: HashMap::new(),
            cse_hits: 0,
        }
    }

    /// Creates a builder that never hash-conses: every push allocates a
    /// fresh wire, keeping wire ids aligned with the push sequence. The
    /// netlist reader needs this so ids match the source text.
    pub fn without_cse(mode: Mode) -> Builder {
        Builder {
            cse: false,
            ..Builder::new(mode)
        }
    }

    /// Current gate count (inputs and constants excluded: they carry no
    /// logic; this matches how circuit size is counted in Sec. 4.1, where
    /// input gates exist but the interesting quantity is the work).
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Current depth (longest input→wire path, counting logic gates).
    pub fn depth(&self) -> u32 {
        self.depths.iter().copied().max().unwrap_or(0)
    }

    /// Number of inputs declared so far.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    fn push(&mut self, gate: Gate, depth: u32, is_logic: bool) -> WireId {
        let id = match checked_wire_id(self.depths.len() as u64) {
            Ok(id) => id,
            Err(e) => panic!("{e}"),
        };
        self.depths.push(depth);
        if is_logic {
            self.size += 1;
        }
        if self.mode == Mode::Build {
            self.gates.push(gate);
        }
        id
    }

    /// Pushes a logic gate through the hash-consing cache.
    fn logic(&mut self, gate: Gate, depth: u32) -> WireId {
        if !self.cse {
            return self.push(gate, depth, true);
        }
        let key = canon(gate);
        if let Some(&w) = self.cse_cache.get(&key) {
            self.cse_hits += 1;
            return w;
        }
        let w = self.push(key, depth, true);
        self.cse_cache.insert(key, w);
        w
    }

    fn depth_of(&self, w: WireId) -> u32 {
        self.depths[w as usize]
    }

    fn binary_depth(&self, a: WireId, b: WireId) -> u32 {
        self.depth_of(a).max(self.depth_of(b)) + 1
    }

    /// Declares the next circuit input.
    pub fn input(&mut self) -> WireId {
        let idx = self.num_inputs;
        self.num_inputs += 1;
        self.push(Gate::Input(idx), 0, false)
    }

    /// A constant wire (deduplicated).
    pub fn constant(&mut self, v: u64) -> WireId {
        if let Some(&w) = self.const_cache.get(&v) {
            return w;
        }
        let w = self.push(Gate::Const(v), 0, false);
        self.const_cache.insert(v, w);
        w
    }

    /// A constant wire without deduplication (used by the netlist reader,
    /// which must keep wire ids aligned with the source text).
    pub fn raw_const(&mut self, v: u64) -> WireId {
        self.push(Gate::Const(v), 0, false)
    }

    /// Wrapping addition.
    pub fn add(&mut self, a: WireId, b: WireId) -> WireId {
        let d = self.binary_depth(a, b);
        self.logic(Gate::Add(a, b), d)
    }

    /// Wrapping subtraction.
    pub fn sub(&mut self, a: WireId, b: WireId) -> WireId {
        let d = self.binary_depth(a, b);
        self.logic(Gate::Sub(a, b), d)
    }

    /// Wrapping multiplication.
    pub fn mul(&mut self, a: WireId, b: WireId) -> WireId {
        let d = self.binary_depth(a, b);
        self.logic(Gate::Mul(a, b), d)
    }

    /// Equality test.
    pub fn eq(&mut self, a: WireId, b: WireId) -> WireId {
        let d = self.binary_depth(a, b);
        self.logic(Gate::Eq(a, b), d)
    }

    /// Unsigned less-than.
    pub fn lt(&mut self, a: WireId, b: WireId) -> WireId {
        let d = self.binary_depth(a, b);
        self.logic(Gate::Lt(a, b), d)
    }

    /// Logical AND.
    pub fn and(&mut self, a: WireId, b: WireId) -> WireId {
        let d = self.binary_depth(a, b);
        self.logic(Gate::And(a, b), d)
    }

    /// Logical OR.
    pub fn or(&mut self, a: WireId, b: WireId) -> WireId {
        let d = self.binary_depth(a, b);
        self.logic(Gate::Or(a, b), d)
    }

    /// Logical XOR.
    pub fn xor(&mut self, a: WireId, b: WireId) -> WireId {
        let d = self.binary_depth(a, b);
        self.logic(Gate::Xor(a, b), d)
    }

    /// Logical NOT.
    pub fn not(&mut self, a: WireId) -> WireId {
        let d = self.depth_of(a) + 1;
        self.logic(Gate::Not(a), d)
    }

    /// Multiplexer `sel ≠ 0 ? a : b`.
    pub fn mux(&mut self, sel: WireId, a: WireId, b: WireId) -> WireId {
        let d = self
            .depth_of(sel)
            .max(self.depth_of(a))
            .max(self.depth_of(b))
            + 1;
        self.logic(Gate::Mux(sel, a, b), d)
    }

    /// Asserts a wire is zero at evaluation time, returning the assert
    /// gate's wire (which carries value `0` when the assert passes).
    /// Asserts are effects, not expressions: they are never hash-consed.
    pub fn assert_zero(&mut self, a: WireId) -> WireId {
        let d = self.depth_of(a) + 1;
        self.push(Gate::AssertZero(a), d, true)
    }

    // ---- small derived helpers used by every operator circuit ----

    /// `a != b` as a boolean wire.
    pub fn ne(&mut self, a: WireId, b: WireId) -> WireId {
        let e = self.eq(a, b);
        self.not(e)
    }

    /// Lexicographic less-than over equal-length wire vectors.
    ///
    /// # Panics
    /// Panics if the vectors have different lengths.
    pub fn lex_lt(&mut self, a: &[WireId], b: &[WireId]) -> WireId {
        assert_eq!(a.len(), b.len(), "lexicographic compare needs equal arity");
        let mut acc = self.constant(0);
        for (&x, &y) in a.iter().zip(b.iter()).rev() {
            let lt = self.lt(x, y);
            let eq = self.eq(x, y);
            let tail = self.and(eq, acc);
            acc = self.or(lt, tail);
        }
        acc
    }

    /// Component-wise equality of wire vectors (AND of field equalities).
    pub fn vec_eq(&mut self, a: &[WireId], b: &[WireId]) -> WireId {
        assert_eq!(a.len(), b.len());
        let mut acc = self.constant(1);
        for (&x, &y) in a.iter().zip(b.iter()) {
            let e = self.eq(x, y);
            acc = self.and(acc, e);
        }
        acc
    }

    /// Component-wise mux of wire vectors.
    pub fn vec_mux(&mut self, sel: WireId, a: &[WireId], b: &[WireId]) -> Vec<WireId> {
        assert_eq!(a.len(), b.len());
        a.iter()
            .zip(b.iter())
            .map(|(&x, &y)| self.mux(sel, x, y))
            .collect()
    }

    /// Finalizes the circuit with the given output wires.
    pub fn finish(self, outputs: Vec<WireId>) -> Circuit {
        let rec = qec_obs::global();
        if rec.is_enabled() {
            rec.add("build.gates", self.size);
            rec.add("build.wires", self.depths.len() as u64);
            rec.add("build.cse_hits", self.cse_hits);
        }
        let depth = self.depth();
        Circuit {
            mode: self.mode,
            gates: self.gates,
            depths: self.depths,
            outputs,
            num_inputs: self.num_inputs,
            size: self.size,
            depth,
        }
    }
}

/// A finalized circuit.
#[derive(Clone)]
pub struct Circuit {
    mode: Mode,
    gates: Vec<Gate>,
    depths: Vec<u32>,
    outputs: Vec<WireId>,
    num_inputs: usize,
    size: u64,
    depth: u32,
}

impl Circuit {
    /// Rebuilds a materialized circuit from a raw gate list, recomputing
    /// depths and size. Used by the offline optimizer, which constructs
    /// gate lists directly. The list must be topologically ordered.
    pub(crate) fn from_raw(gates: Vec<Gate>, outputs: Vec<WireId>, num_inputs: usize) -> Circuit {
        let mut depths = Vec::with_capacity(gates.len());
        let mut size = 0u64;
        for g in &gates {
            let is_logic = !matches!(g, Gate::Input(_) | Gate::Const(_));
            if is_logic {
                size += 1;
            }
            let d = g
                .operands()
                .iter()
                .flatten()
                .map(|&w| depths[w as usize])
                .max()
                .map_or(0, |m: u32| m + 1);
            depths.push(d);
        }
        let depth = depths.iter().copied().max().unwrap_or(0);
        Circuit {
            mode: Mode::Build,
            gates,
            depths,
            outputs,
            num_inputs,
            size,
            depth,
        }
    }

    /// Gate count (logic gates; inputs/constants excluded).
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Depth (longest path through logic gates).
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// Number of declared inputs.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Output wires.
    pub fn outputs(&self) -> &[WireId] {
        &self.outputs
    }

    /// Total wires (inputs + constants + gates).
    pub fn num_wires(&self) -> usize {
        self.depths.len()
    }

    /// The gates (empty in count-only mode).
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Per-wire depths (used by the Brent scheduler).
    pub fn wire_depths(&self) -> &[u32] {
        &self.depths
    }

    /// Was this circuit materialized?
    pub fn is_evaluable(&self) -> bool {
        self.mode == Mode::Build
    }

    /// Evaluates the circuit on `inputs`, returning output values.
    ///
    /// The evaluation order is the construction order (topological by
    /// construction); assertion gates abort with [`EvalError`].
    pub fn evaluate(&self, inputs: &[u64]) -> Result<Vec<u64>, EvalError> {
        if self.mode == Mode::Count {
            return Err(EvalError::CountOnly);
        }
        if inputs.len() != self.num_inputs {
            return Err(EvalError::InputArity {
                expected: self.num_inputs,
                got: inputs.len(),
            });
        }
        let mut values = vec![0u64; self.gates.len()];
        let as_bool = |v: u64| -> u64 { u64::from(v != 0) };
        for (i, g) in self.gates.iter().enumerate() {
            values[i] = match *g {
                Gate::Input(idx) => inputs[idx],
                Gate::Const(v) => v,
                Gate::Add(a, b) => values[a as usize].wrapping_add(values[b as usize]),
                Gate::Sub(a, b) => values[a as usize].wrapping_sub(values[b as usize]),
                Gate::Mul(a, b) => values[a as usize].wrapping_mul(values[b as usize]),
                Gate::Eq(a, b) => u64::from(values[a as usize] == values[b as usize]),
                Gate::Lt(a, b) => u64::from(values[a as usize] < values[b as usize]),
                Gate::And(a, b) => as_bool(values[a as usize]) & as_bool(values[b as usize]),
                Gate::Or(a, b) => as_bool(values[a as usize]) | as_bool(values[b as usize]),
                Gate::Xor(a, b) => as_bool(values[a as usize]) ^ as_bool(values[b as usize]),
                Gate::Not(a) => u64::from(values[a as usize] == 0),
                Gate::Mux(s, a, b) => {
                    if values[s as usize] != 0 {
                        values[a as usize]
                    } else {
                        values[b as usize]
                    }
                }
                Gate::AssertZero(a) => {
                    let v = values[a as usize];
                    if v != 0 {
                        return Err(EvalError::AssertionFailed { gate: i, value: v });
                    }
                    0
                }
            };
        }
        Ok(self.outputs.iter().map(|&w| values[w as usize]).collect())
    }

    /// Fan-in lists per gate (for the bit-level lowering).
    pub fn gate_operands(&self, i: usize) -> [Option<WireId>; 3] {
        self.gates[i].operands()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_gates_evaluate() {
        let mut b = Builder::new(Mode::Build);
        let x = b.input();
        let y = b.input();
        let s = b.add(x, y);
        let d = b.sub(x, y);
        let p = b.mul(x, y);
        let e = b.eq(x, y);
        let l = b.lt(x, y);
        let c = b.finish(vec![s, d, p, e, l]);
        assert_eq!(c.evaluate(&[7, 3]).unwrap(), vec![10, 4, 21, 0, 0]);
        assert_eq!(
            c.evaluate(&[3, 7]).unwrap(),
            vec![10, u64::MAX - 3, 21, 0, 1]
        );
        assert_eq!(c.evaluate(&[5, 5]).unwrap(), vec![10, 0, 25, 1, 0]);
    }

    #[test]
    fn logic_gates_are_logical() {
        let mut b = Builder::new(Mode::Build);
        let x = b.input();
        let y = b.input();
        let a = b.and(x, y);
        let o = b.or(x, y);
        let n = b.not(x);
        let xo = b.xor(x, y);
        let c = b.finish(vec![a, o, n, xo]);
        // non-0/1 values behave as booleans
        assert_eq!(c.evaluate(&[5, 0]).unwrap(), vec![0, 1, 0, 1]);
        assert_eq!(c.evaluate(&[5, 9]).unwrap(), vec![1, 1, 0, 0]);
        assert_eq!(c.evaluate(&[0, 0]).unwrap(), vec![0, 0, 1, 0]);
    }

    #[test]
    fn mux_and_vectors() {
        let mut b = Builder::new(Mode::Build);
        let s = b.input();
        let xs: Vec<WireId> = (0..3).map(|_| b.input()).collect();
        let ys: Vec<WireId> = (0..3).map(|_| b.input()).collect();
        let m = b.vec_mux(s, &xs, &ys);
        let c = b.finish(m);
        assert_eq!(c.evaluate(&[1, 1, 2, 3, 4, 5, 6]).unwrap(), vec![1, 2, 3]);
        assert_eq!(c.evaluate(&[0, 1, 2, 3, 4, 5, 6]).unwrap(), vec![4, 5, 6]);
    }

    #[test]
    fn lex_lt_orders_vectors() {
        let mut b = Builder::new(Mode::Build);
        let a: Vec<WireId> = (0..2).map(|_| b.input()).collect();
        let c: Vec<WireId> = (0..2).map(|_| b.input()).collect();
        let lt = b.lex_lt(&a, &c);
        let circ = b.finish(vec![lt]);
        assert_eq!(circ.evaluate(&[1, 9, 2, 0]).unwrap(), vec![1]); // (1,9) < (2,0)
        assert_eq!(circ.evaluate(&[2, 0, 1, 9]).unwrap(), vec![0]);
        assert_eq!(circ.evaluate(&[1, 2, 1, 3]).unwrap(), vec![1]);
        assert_eq!(circ.evaluate(&[1, 3, 1, 3]).unwrap(), vec![0]);
    }

    #[test]
    fn assertion_gates_fire() {
        let mut b = Builder::new(Mode::Build);
        let x = b.input();
        b.assert_zero(x);
        let c = b.finish(vec![]);
        assert!(c.evaluate(&[0]).is_ok());
        assert!(matches!(
            c.evaluate(&[3]),
            Err(EvalError::AssertionFailed { value: 3, .. })
        ));
    }

    #[test]
    fn const_dedup_and_size_accounting() {
        let mut b = Builder::new(Mode::Build);
        let c1 = b.constant(42);
        let c2 = b.constant(42);
        assert_eq!(c1, c2);
        assert_eq!(b.size(), 0); // constants are not logic
        let x = b.input();
        let _ = b.add(x, c1);
        assert_eq!(b.size(), 1);
        assert_eq!(b.depth(), 1);
    }

    #[test]
    fn count_mode_matches_build_mode() {
        fn build(mode: Mode) -> (u64, u32) {
            let mut b = Builder::new(mode);
            let xs: Vec<WireId> = (0..8).map(|_| b.input()).collect();
            let mut acc = b.constant(0);
            for &x in &xs {
                acc = b.add(acc, x);
            }
            let k = b.constant(100);
            let flag = b.lt(acc, k);
            let c = b.finish(vec![flag]);
            (c.size(), c.depth())
        }
        assert_eq!(build(Mode::Build), build(Mode::Count));
    }

    #[test]
    fn count_mode_rejects_evaluation() {
        let mut b = Builder::new(Mode::Count);
        let x = b.input();
        let y = b.not(x);
        let c = b.finish(vec![y]);
        assert_eq!(c.evaluate(&[1]), Err(EvalError::CountOnly));
        assert_eq!(c.size(), 1);
    }

    #[test]
    fn input_arity_checked() {
        let mut b = Builder::new(Mode::Build);
        let x = b.input();
        let c = b.finish(vec![x]);
        assert_eq!(
            c.evaluate(&[]),
            Err(EvalError::InputArity {
                expected: 1,
                got: 0
            })
        );
    }

    #[test]
    fn depth_tracks_longest_path() {
        let mut b = Builder::new(Mode::Build);
        let x = b.input();
        let y = b.input();
        let a = b.add(x, y); // depth 1
        let z = b.add(a, y); // depth 2
        let w = b.add(x, y); // hash-consed to `a`
        let f = b.add(z, w); // depth 3
        let c = b.finish(vec![f]);
        assert_eq!(w, a);
        assert_eq!(c.depth(), 3);
        assert_eq!(c.size(), 3);
    }

    #[test]
    fn hash_consing_dedups_and_canonicalizes() {
        let mut b = Builder::new(Mode::Build);
        let x = b.input();
        let y = b.input();
        let a1 = b.add(x, y);
        let a2 = b.add(y, x); // commutative: same wire
        assert_eq!(a1, a2);
        let s1 = b.sub(x, y);
        let s2 = b.sub(y, x); // order-sensitive: distinct wires
        assert_ne!(s1, s2);
        let m1 = b.mux(x, a1, s1);
        let m2 = b.mux(x, a1, s1);
        assert_eq!(m1, m2);
        assert_eq!(b.size(), 4); // a1, s1, s2, m1
        let c = b.finish(vec![a1, m1]);
        assert_eq!(c.evaluate(&[7, 3]).unwrap(), vec![10, 10]);
    }

    #[test]
    fn without_cse_keeps_duplicate_gates() {
        let mut b = Builder::without_cse(Mode::Build);
        let x = b.input();
        let y = b.input();
        let a1 = b.add(x, y);
        let a2 = b.add(x, y);
        assert_ne!(a1, a2);
        assert_eq!(b.size(), 2);
    }

    #[test]
    fn asserts_are_never_consed() {
        let mut b = Builder::new(Mode::Build);
        let x = b.input();
        let g1 = b.assert_zero(x);
        let g2 = b.assert_zero(x);
        assert_ne!(g1, g2);
        assert_eq!(b.size(), 2);
    }

    #[test]
    fn cse_preserves_count_mode_parity() {
        fn build(mode: Mode) -> (u64, u32) {
            let mut b = Builder::new(mode);
            let x = b.input();
            let y = b.input();
            let a = b.add(x, y);
            let _dup = b.add(y, x);
            let m = b.mul(a, a);
            let e = b.eq(m, a);
            let c = b.finish(vec![e]);
            (c.size(), c.depth())
        }
        assert_eq!(build(Mode::Build), build(Mode::Count));
    }
}
