//! Compiled, batched circuit evaluation engine.
//!
//! [`Circuit::evaluate`] walks the gate list with a match per gate and
//! an `O(size)` value buffer — fine for one instance, wasteful for the
//! paper's real promise (Sec. 1): a circuit's *static topology* can be
//! compiled once and then streamed over arbitrarily many inputs. This
//! module adds that missing layer:
//!
//! 1. **Compilation** ([`CompiledCircuit::compile_with`]): the gates are
//!    emitted in program order — the circuit's construction order,
//!    which is topological because every operand id is below its gate
//!    id — one flat instruction per gate, through a **per-instruction
//!    register liveness allocator**. A wire's register is recycled right
//!    after the instruction that reads it last, so the working set
//!    shrinks from `O(size)` slots to the peak number of live wires and
//!    the hot data stays in cache.
//! 2. **Batched evaluation** ([`CompiledCircuit::evaluate_batch`]):
//!    registers hold `B` lanes (structure-of-arrays), so each
//!    instruction dispatch is amortized over `B` input vectors and the
//!    per-lane inner loops are straight-line word ops the compiler
//!    autovectorizes. Every batch runs on the calling thread; there is
//!    one evaluation loop.
//! 3. **Observability** ([`EngineStats`], [`EvalMetrics`]): per-kind
//!    gate counts, level widths, peak register count, nanoseconds and
//!    bytes touched per evaluation — the numbers the bench harness
//!    exports next to circuit size/depth. Level widths are static PRAM
//!    accounting from the circuit's wire depths (see
//!    [`crate::brent_steps`]), not a property of the tape order.
//!
//! Assertion semantics match [`Circuit::evaluate`] exactly and
//! deterministically: every lane reports the **lowest-index** failing
//! [`Gate::AssertZero`], because gate values are pure functions of the
//! inputs so the engine can keep evaluating past a failure and take the
//! minimum (the optimizer's assert-origin map need not be monotonic).

use crate::ir::{Circuit, EvalError, Gate};
use crate::opt::OptStats;

/// Register index in the compiled tape.
type Reg = u32;

/// One compiled instruction, one variant per opcode. Sources are always
/// registers written by earlier instructions, and the destination never
/// equals a source: a source register is freed only after the
/// instruction that reads it last has taken its destination. `exec_op`
/// relies on that to alias register lanes safely.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// `dst ← inputs[idx]` (per lane).
    Input {
        dst: Reg,
        idx: u32,
    },
    /// `dst ← lo | hi << 32` (all lanes); split in halves so the
    /// instruction stays 4-byte aligned.
    Const {
        dst: Reg,
        lo: u32,
        hi: u32,
    },
    Add {
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    Sub {
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    Mul {
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    Eq {
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    Lt {
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    And {
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    Or {
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    Xor {
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    /// `dst ← (a == 0)`.
    Not {
        dst: Reg,
        a: Reg,
    },
    /// `dst ← s ≠ 0 ? a : b`.
    Mux {
        dst: Reg,
        s: Reg,
        a: Reg,
        b: Reg,
    },
    /// Checks `a == 0`; records `(gate, value)` per failing lane and
    /// writes `0` to `dst` (matching the interpreter).
    AssertZero {
        dst: Reg,
        a: Reg,
        gate: u32,
    },
}

const _: () = assert!(std::mem::size_of::<Op>() == 20);

/// Lanes per tape pass: the batch is processed in tiles of at most this
/// many lanes, so the register file (`peak_registers × tile × 8` bytes)
/// stays cache-resident. 16 is the measured sweet spot across
/// 2·10⁵–1.3·10⁶ gate circuits: wide enough that SIMD lane loops and
/// tape-decode amortization engage; 32 and 64 lose more to register-file
/// spill than they gain.
const LANE_TILE: usize = 16;

/// Gate-kind slots for [`EngineStats::gate_counts`], in a fixed order.
pub const GATE_KINDS: [&str; 13] = [
    "input",
    "const",
    "add",
    "sub",
    "mul",
    "eq",
    "lt",
    "and",
    "or",
    "xor",
    "not",
    "mux",
    "assert_zero",
];

/// The [`GATE_KINDS`] slot of `g`. Shared with the flat tape encoding
/// ([`crate::tape`]), whose opcodes are `kind_index + 1` — one table, so
/// the engine's stats, the tape format, and the netlist mnemonics can
/// never drift apart.
pub(crate) fn kind_index(g: &Gate) -> usize {
    match g {
        Gate::Input(_) => 0,
        Gate::Const(_) => 1,
        Gate::Add(..) => 2,
        Gate::Sub(..) => 3,
        Gate::Mul(..) => 4,
        Gate::Eq(..) => 5,
        Gate::Lt(..) => 6,
        Gate::And(..) => 7,
        Gate::Or(..) => 8,
        Gate::Xor(..) => 9,
        Gate::Not(..) => 10,
        Gate::Mux(..) => 11,
        Gate::AssertZero(..) => 12,
    }
}

/// Static facts about a compiled tape — everything known before the
/// first input arrives.
#[derive(Clone, Debug)]
pub struct EngineStats {
    /// Logic-gate count of the source circuit (its `size()`).
    pub circuit_size: u64,
    /// Depth of the source circuit.
    pub circuit_depth: u32,
    /// Total wires (inputs + constants + gates) in the source circuit.
    pub circuit_wires: usize,
    /// Logic-gate count actually compiled. Under [`CompiledCircuit::compile`]
    /// this is the optimized circuit's size; under
    /// [`CompiledCircuit::compile_raw`] it equals `circuit_size`.
    pub optimized_size: u64,
    /// Depth of the compiled circuit (optimized or raw).
    pub optimized_depth: u32,
    /// Optimizer counters, when [`CompiledCircuit::compile`] ran the
    /// offline pass; `None` for [`CompiledCircuit::compile_raw`].
    pub opt: Option<OptStats>,
    /// Instructions on the tape (one per wire of the compiled circuit —
    /// at most `circuit_wires`, less whenever the optimizer shrank it).
    pub tape_len: usize,
    /// Registers allocated — the peak number of simultaneously live
    /// wires. Strictly below `circuit_wires` whenever liveness-based
    /// reuse engages, and typically far below `circuit_size`.
    pub peak_registers: usize,
    /// Number of levels (depth-equal wire groups, including the
    /// input/constant level 0) — static PRAM accounting from the
    /// circuit's wire depths; the tape itself runs in program order.
    pub num_levels: usize,
    /// Wires per level.
    pub level_widths: Vec<u32>,
    /// Per-kind gate counts, indexed like [`GATE_KINDS`].
    pub gate_counts: [u64; 13],
    /// Estimated register bytes read + written by one instance's pass
    /// over the tape (8 bytes per source read and destination write).
    pub bytes_per_instance: u64,
}

impl EngineStats {
    /// Widest level on the tape.
    pub fn max_level_width(&self) -> u32 {
        self.level_widths.iter().copied().max().unwrap_or(0)
    }

    /// `(kind, count)` pairs for the kinds that actually occur.
    pub fn gate_count_pairs(&self) -> Vec<(&'static str, u64)> {
        GATE_KINDS
            .iter()
            .zip(self.gate_counts.iter())
            .filter(|(_, &c)| c > 0)
            .map(|(&k, &c)| (k, c))
            .collect()
    }
}

/// Wall-clock and memory-traffic numbers for one evaluation call.
#[derive(Clone, Copy, Debug)]
pub struct EvalMetrics {
    /// Instances evaluated in the call.
    pub instances: usize,
    /// Wall-clock nanoseconds for the whole call.
    pub eval_ns: u128,
    /// Instruction executions: `tape_len × instances`.
    pub gate_evals: u64,
    /// Estimated register bytes touched: `bytes_per_instance × instances`.
    pub bytes_touched: u64,
}

impl EvalMetrics {
    /// Mean nanoseconds per instance.
    pub fn ns_per_instance(&self) -> f64 {
        self.eval_ns as f64 / (self.instances.max(1)) as f64
    }

    /// Instruction executions per second (the engine's throughput).
    pub fn gate_evals_per_sec(&self) -> f64 {
        self.gate_evals as f64 / (self.eval_ns.max(1) as f64 / 1e9)
    }
}

/// A circuit compiled to a register-allocated, program-order
/// instruction tape, reusable across any number of evaluations.
pub struct CompiledCircuit {
    tape: Vec<Op>,
    /// Output registers in output order.
    output_regs: Vec<Reg>,
    num_inputs: usize,
    num_regs: usize,
    pub(crate) stats: EngineStats,
}

impl CompiledCircuit {
    /// The tape/register-allocation stage, shared by every compile entry
    /// point. `origin` carries the optimizer's assert-origin map when the
    /// input circuit is an optimized image of some source circuit.
    pub(crate) fn compile_inner(
        c: &Circuit,
        origin: Option<&OptStats>,
    ) -> Result<CompiledCircuit, EvalError> {
        if !c.is_evaluable() {
            return Err(EvalError::CountOnly);
        }
        let gates = c.gates();
        let n = gates.len();

        // --- liveness: the last instruction reading each wire. A wire
        //     nobody reads dies at its own definition; outputs never die.
        const PINNED: u32 = u32::MAX;
        let mut last_use: Vec<u32> = (0..n as u32).collect();
        for (i, g) in gates.iter().enumerate() {
            for w in g.operands().into_iter().flatten() {
                last_use[w as usize] = i as u32;
            }
        }
        for &w in c.outputs() {
            last_use[w as usize] = PINNED;
        }

        // --- register allocation in program order. The destination is
        //     taken before the instruction's dying sources are freed, so
        //     it can never alias one of them. ---
        let mut reg_of = vec![Reg::MAX; n];
        let mut free: Vec<Reg> = Vec::new();
        let mut num_regs = 0u32;
        let mut tape = Vec::with_capacity(n);
        let mut gate_counts = [0u64; 13];
        let mut bytes_per_instance = 0u64;
        for (i, g) in gates.iter().enumerate() {
            gate_counts[kind_index(g)] += 1;
            let dst = free.pop().unwrap_or_else(|| {
                num_regs += 1;
                num_regs - 1
            });
            let operands = g.operands();
            let [x, y, z] = operands.map(|w| {
                w.map_or(Reg::MAX, |w| {
                    // `exec_op` indexes the register file with this, so the
                    // operand must already hold a register.
                    assert!(
                        (w as usize) < i,
                        "gate {i} reads wire {w} before its definition"
                    );
                    reg_of[w as usize]
                })
            });
            let (a, b) = (x, y);
            tape.push(match *g {
                Gate::Input(idx) => Op::Input {
                    dst,
                    idx: idx as u32,
                },
                Gate::Const(v) => Op::Const {
                    dst,
                    lo: v as u32,
                    hi: (v >> 32) as u32,
                },
                Gate::Add(..) => Op::Add { dst, a, b },
                Gate::Sub(..) => Op::Sub { dst, a, b },
                Gate::Mul(..) => Op::Mul { dst, a, b },
                Gate::Eq(..) => Op::Eq { dst, a, b },
                Gate::Lt(..) => Op::Lt { dst, a, b },
                Gate::And(..) => Op::And { dst, a, b },
                Gate::Or(..) => Op::Or { dst, a, b },
                Gate::Xor(..) => Op::Xor { dst, a, b },
                Gate::Not(_) => Op::Not { dst, a },
                Gate::Mux(..) => Op::Mux {
                    dst,
                    s: x,
                    a: y,
                    b: z,
                },
                // Report failures against the SOURCE circuit's gate
                // numbering when an optimizer mapping exists.
                Gate::AssertZero(_) => Op::AssertZero {
                    dst,
                    a,
                    gate: origin
                        .and_then(|st| st.origin_of(i as u32))
                        .unwrap_or(i as u32),
                },
            });
            reg_of[i] = dst;
            for (k, w) in operands.iter().enumerate() {
                let Some(w) = *w else { continue };
                bytes_per_instance += 8;
                // `add(x, x)` reads `x` twice but frees it once
                if last_use[w as usize] == i as u32 && !operands[..k].contains(&Some(w)) {
                    free.push(reg_of[w as usize]);
                }
            }
            bytes_per_instance += 8;
            if last_use[i] == i as u32 {
                free.push(dst);
            }
        }

        let depths = c.wire_depths();
        let mut level_widths = vec![0u32; depths.iter().max().map_or(1, |&d| d as usize + 1)];
        for &d in depths {
            level_widths[d as usize] += 1;
        }
        let output_regs = c.outputs().iter().map(|&w| reg_of[w as usize]).collect();
        let stats = EngineStats {
            circuit_size: c.size(),
            circuit_depth: c.depth(),
            circuit_wires: n,
            optimized_size: c.size(),
            optimized_depth: c.depth(),
            opt: None,
            tape_len: tape.len(),
            peak_registers: num_regs as usize,
            num_levels: level_widths.len(),
            level_widths,
            gate_counts,
            bytes_per_instance,
        };
        Ok(CompiledCircuit {
            tape,
            output_regs,
            num_inputs: c.num_inputs(),
            num_regs: num_regs as usize,
            stats,
        })
    }

    /// Static tape statistics.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Bytes the compiled program keeps resident between evaluations:
    /// its instruction tape plus its output-register list. Register
    /// files are per call and not counted.
    pub fn resident_bytes(&self) -> usize {
        self.tape.len() * std::mem::size_of::<Op>()
            + self.output_regs.len() * std::mem::size_of::<Reg>()
    }

    /// Declared input count of the source circuit.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Evaluates a single instance (batch of one).
    pub fn evaluate(&self, inputs: &[u64]) -> Result<Vec<u64>, EvalError> {
        self.evaluate_batch(std::slice::from_ref(&inputs))
            .pop()
            .expect("one lane in, one out")
    }

    /// Evaluates a batch of instances, one tape pass per tile of at most
    /// [`LANE_TILE`] lanes (structure-of-arrays: every register holds one
    /// lane per instance). Each instance gets exactly the result
    /// [`Circuit::evaluate`] would give it: outputs on success, or the
    /// lowest-index failing assertion.
    pub fn evaluate_batch<I: AsRef<[u64]>>(
        &self,
        instances: &[I],
    ) -> Vec<Result<Vec<u64>, EvalError>> {
        self.evaluate_batch_metered(instances).0
    }

    /// [`Self::evaluate_batch`] plus wall-clock/traffic metrics for the
    /// call.
    pub fn evaluate_batch_metered<I: AsRef<[u64]>>(
        &self,
        instances: &[I],
    ) -> (Vec<Result<Vec<u64>, EvalError>>, EvalMetrics) {
        let start = std::time::Instant::now();
        let tile = LANE_TILE.min(instances.len().max(1));
        let mut regs = vec![0u64; self.num_regs * tile];
        let mut results = Vec::with_capacity(instances.len());

        for chunk in instances.chunks(tile) {
            let b = chunk.len();
            let mut failures: Vec<(u32, u64)> = vec![(u32::MAX, 0); b];
            // Lanes with the wrong arity error out up front and are
            // masked from input gathering (their registers stay zero;
            // whatever the tape computes for them is discarded).
            let arity_ok: Vec<bool> = chunk
                .iter()
                .map(|i| i.as_ref().len() == self.num_inputs)
                .collect();

            // Register values never leak between tiles: every register
            // is written by its defining instruction before first read.
            self.run_tape(
                chunk,
                &arity_ok,
                &mut regs[..self.num_regs * b],
                &mut failures,
            );

            results.extend((0..b).map(|lane| {
                if !arity_ok[lane] {
                    return Err(EvalError::InputArity {
                        expected: self.num_inputs,
                        got: chunk[lane].as_ref().len(),
                    });
                }
                let (gate, value) = failures[lane];
                if gate != u32::MAX {
                    return Err(EvalError::AssertionFailed {
                        gate: gate as usize,
                        value,
                    });
                }
                Ok(self
                    .output_regs
                    .iter()
                    .map(|&r| regs[r as usize * b + lane])
                    .collect())
            }));
        }

        let metrics = EvalMetrics {
            instances: instances.len(),
            eval_ns: start.elapsed().as_nanos(),
            gate_evals: (self.tape.len() * instances.len()) as u64,
            bytes_touched: self.stats.bytes_per_instance * instances.len() as u64,
        };
        (results, metrics)
    }

    fn run_tape<I: AsRef<[u64]>>(
        &self,
        instances: &[I],
        arity_ok: &[bool],
        regs: &mut [u64],
        failures: &mut [(u32, u64)],
    ) {
        // Monomorphize the common tile widths: with a compile-time lane
        // count the per-lane loops in `exec_op` unroll and vectorize.
        // Widths 1 and 2 are what a serving open loop forms.
        match instances.len() {
            1 => self.run_tape_mono::<I, 1>(instances, arity_ok, regs, failures),
            2 => self.run_tape_mono::<I, 2>(instances, arity_ok, regs, failures),
            4 => self.run_tape_mono::<I, 4>(instances, arity_ok, regs, failures),
            8 => self.run_tape_mono::<I, 8>(instances, arity_ok, regs, failures),
            16 => self.run_tape_mono::<I, 16>(instances, arity_ok, regs, failures),
            b => {
                for op in &self.tape {
                    // SAFETY: `exec_op` only requires that the instruction's
                    // destination register differ from its source
                    // registers, which the allocator guarantees.
                    unsafe { exec_op(op, regs.as_mut_ptr(), b, instances, arity_ok, failures) };
                }
            }
        }
    }

    fn run_tape_mono<I: AsRef<[u64]>, const B: usize>(
        &self,
        instances: &[I],
        arity_ok: &[bool],
        regs: &mut [u64],
        failures: &mut [(u32, u64)],
    ) {
        // The portable build targets baseline x86-64 (SSE2). The lane
        // loops are pure u64 SIMD material, so dispatch to a wider
        // vector ISA when the host has one — `is_x86_feature_detected!`
        // caches its probe, and the `target_feature` wrappers inline
        // the shared body under the wider feature set.
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                // SAFETY: feature presence just checked.
                return unsafe {
                    self.run_tape_mono_avx512::<I, B>(instances, arity_ok, regs, failures)
                };
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: feature presence just checked.
                return unsafe {
                    self.run_tape_mono_avx2::<I, B>(instances, arity_ok, regs, failures)
                };
            }
        }
        self.run_tape_mono_body::<I, B>(instances, arity_ok, regs, failures);
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512bw")]
    unsafe fn run_tape_mono_avx512<I: AsRef<[u64]>, const B: usize>(
        &self,
        instances: &[I],
        arity_ok: &[bool],
        regs: &mut [u64],
        failures: &mut [(u32, u64)],
    ) {
        self.run_tape_mono_body::<I, B>(instances, arity_ok, regs, failures);
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn run_tape_mono_avx2<I: AsRef<[u64]>, const B: usize>(
        &self,
        instances: &[I],
        arity_ok: &[bool],
        regs: &mut [u64],
        failures: &mut [(u32, u64)],
    ) {
        self.run_tape_mono_body::<I, B>(instances, arity_ok, regs, failures);
    }

    #[inline(always)]
    fn run_tape_mono_body<I: AsRef<[u64]>, const B: usize>(
        &self,
        instances: &[I],
        arity_ok: &[bool],
        regs: &mut [u64],
        failures: &mut [(u32, u64)],
    ) {
        debug_assert_eq!(instances.len(), B);
        for op in &self.tape {
            // SAFETY: as in the dynamic-width loop above; `exec_op` is
            // `inline(always)`, so `B` reaches its lane loops as a
            // constant.
            unsafe { exec_op(op, regs.as_mut_ptr(), B, instances, arity_ok, failures) };
        }
    }
}

/// One binary instruction over all `lanes` lanes.
///
/// # Safety
/// As [`exec_op`]: the three registers lie in the register file and
/// `dst` differs from `a` and `b`.
#[inline(always)]
unsafe fn bin(regs: *mut u64, lanes: usize, dst: Reg, a: Reg, b: Reg, f: impl Fn(u64, u64) -> u64) {
    debug_assert!(dst != a && dst != b);
    let d = std::slice::from_raw_parts_mut(regs.add(dst as usize * lanes), lanes);
    let x = std::slice::from_raw_parts(regs.add(a as usize * lanes), lanes);
    let y = std::slice::from_raw_parts(regs.add(b as usize * lanes), lanes);
    for ((d, &x), &y) in d.iter_mut().zip(x).zip(y) {
        *d = f(x, y);
    }
}

/// Executes one instruction over all `lanes` lanes.
///
/// # Safety
/// `regs` must point to a register file of at least `num_regs × lanes`
/// words, and the instruction's destination register must be distinct
/// from its source registers (guaranteed by the compiler's
/// per-instruction liveness allocation).
#[inline(always)]
unsafe fn exec_op<I: AsRef<[u64]>>(
    op: &Op,
    regs: *mut u64,
    lanes: usize,
    instances: &[I],
    arity_ok: &[bool],
    failures: &mut [(u32, u64)],
) {
    let src =
        |r: Reg| -> &[u64] { std::slice::from_raw_parts(regs.add(r as usize * lanes), lanes) };
    let dst_mut = |r: Reg| -> &mut [u64] {
        std::slice::from_raw_parts_mut(regs.add(r as usize * lanes), lanes)
    };
    let bit = |v: u64| u64::from(v != 0);
    match *op {
        Op::Input { dst, idx } => {
            let d = dst_mut(dst);
            for (lane, inst) in instances.iter().enumerate() {
                d[lane] = if arity_ok[lane] {
                    inst.as_ref()[idx as usize]
                } else {
                    0
                };
            }
        }
        Op::Const { dst, lo, hi } => dst_mut(dst).fill(u64::from(lo) | u64::from(hi) << 32),
        Op::Add { dst, a, b } => bin(regs, lanes, dst, a, b, u64::wrapping_add),
        Op::Sub { dst, a, b } => bin(regs, lanes, dst, a, b, u64::wrapping_sub),
        Op::Mul { dst, a, b } => bin(regs, lanes, dst, a, b, u64::wrapping_mul),
        Op::Eq { dst, a, b } => bin(regs, lanes, dst, a, b, |x, y| u64::from(x == y)),
        Op::Lt { dst, a, b } => bin(regs, lanes, dst, a, b, |x, y| u64::from(x < y)),
        Op::And { dst, a, b } => bin(regs, lanes, dst, a, b, |x, y| bit(x) & bit(y)),
        Op::Or { dst, a, b } => bin(regs, lanes, dst, a, b, |x, y| bit(x) | bit(y)),
        Op::Xor { dst, a, b } => bin(regs, lanes, dst, a, b, |x, y| bit(x) ^ bit(y)),
        Op::Not { dst, a } => {
            debug_assert!(dst != a);
            for (d, &x) in dst_mut(dst).iter_mut().zip(src(a)) {
                *d = u64::from(x == 0);
            }
        }
        Op::Mux { dst, s, a, b } => {
            debug_assert!(dst != s && dst != a && dst != b);
            let (d, sv, x, y) = (dst_mut(dst), src(s), src(a), src(b));
            for i in 0..lanes {
                d[i] = if sv[i] != 0 { x[i] } else { y[i] };
            }
        }
        Op::AssertZero { dst, a, gate } => {
            debug_assert!(dst != a);
            let (d, x) = (dst_mut(dst), src(a));
            for i in 0..lanes {
                d[i] = 0;
                if x[i] != 0 && gate < failures[i].0 {
                    failures[i] = (gate, x[i]);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::CompileOptions;
    use crate::ir::{Builder, Mode};

    fn compile(c: &Circuit) -> Result<CompiledCircuit, EvalError> {
        CompiledCircuit::compile_with(c, &CompileOptions::sequential()).map(|(eng, _)| eng)
    }

    fn adder_chain(n: usize) -> Circuit {
        let mut bld = Builder::new(Mode::Build);
        let x = bld.input();
        let y = bld.input();
        let mut acc = bld.add(x, y);
        for _ in 1..n {
            acc = bld.add(acc, y);
        }
        bld.finish(vec![acc])
    }

    #[test]
    fn matches_interpreter_on_simple_circuits() {
        let c = adder_chain(10);
        let eng = compile(&c).unwrap();
        for inputs in [[3u64, 5], [0, 0], [u64::MAX, 1]] {
            assert_eq!(eng.evaluate(&inputs).unwrap(), c.evaluate(&inputs).unwrap());
        }
    }

    #[test]
    fn register_reuse_engages_on_chains() {
        let c = adder_chain(100);
        let eng = compile(&c).unwrap();
        // a pure chain needs only a handful of registers, not 102
        assert!(
            eng.stats().peak_registers <= 4,
            "chain should recycle registers, got {}",
            eng.stats().peak_registers
        );
        assert!(eng.stats().peak_registers < c.num_wires());
    }

    #[test]
    fn batch_matches_per_instance_evaluation() {
        let mut bld = Builder::new(Mode::Build);
        let x = bld.input();
        let y = bld.input();
        let s = bld.add(x, y);
        let p = bld.mul(x, y);
        let lt = bld.lt(x, y);
        let m = bld.mux(lt, s, p);
        let n = bld.not(lt);
        let c = bld.finish(vec![s, p, lt, m, n]);
        let eng = compile(&c).unwrap();
        let instances: Vec<Vec<u64>> = (0..37)
            .map(|i| vec![i * 7 % 13, (i * 3 + 1) % 11])
            .collect();
        let batch = eng.evaluate_batch(&instances);
        for (inst, got) in instances.iter().zip(batch) {
            assert_eq!(got, c.evaluate(inst));
        }
    }

    #[test]
    fn assertions_report_lowest_gate_per_lane() {
        let mut bld = Builder::new(Mode::Build);
        let x = bld.input();
        let y = bld.input();
        bld.assert_zero(x); // gate 2
        bld.assert_zero(y); // gate 3
        let c = bld.finish(vec![]);
        let eng = compile(&c).unwrap();
        let instances: Vec<Vec<u64>> = vec![
            vec![0, 0], // ok
            vec![5, 0], // gate 2 fires
            vec![0, 7], // gate 3 fires
            vec![5, 7], // both fire → lowest (gate 2) reported
        ];
        let got = eng.evaluate_batch(&instances);
        assert_eq!(got[0], Ok(vec![]));
        assert_eq!(
            got[1],
            Err(EvalError::AssertionFailed { gate: 2, value: 5 })
        );
        assert_eq!(
            got[2],
            Err(EvalError::AssertionFailed { gate: 3, value: 7 })
        );
        assert_eq!(
            got[3],
            Err(EvalError::AssertionFailed { gate: 2, value: 5 })
        );
        // gate-for-gate match with the interpreter
        for (inst, got) in instances.iter().zip(got) {
            assert_eq!(got, c.evaluate(inst));
        }
    }

    #[test]
    fn arity_errors_are_per_lane() {
        let c = adder_chain(3);
        let eng = compile(&c).unwrap();
        let instances: Vec<Vec<u64>> = vec![vec![1, 2], vec![1], vec![4, 5]];
        let got = eng.evaluate_batch(&instances);
        assert!(got[0].is_ok());
        assert_eq!(
            got[1],
            Err(EvalError::InputArity {
                expected: 2,
                got: 1
            })
        );
        assert!(got[2].is_ok());
    }

    #[test]
    fn count_only_circuits_do_not_compile() {
        let mut bld = Builder::new(Mode::Count);
        let x = bld.input();
        let y = bld.not(x);
        let c = bld.finish(vec![y]);
        assert!(matches!(compile(&c), Err(EvalError::CountOnly)));
    }

    #[test]
    fn empty_circuit_evaluates_to_nothing() {
        let bld = Builder::new(Mode::Build);
        let c = bld.finish(vec![]);
        let eng = compile(&c).unwrap();
        assert_eq!(eng.evaluate(&[]), Ok(vec![]));
    }

    /// A wide circuit whose assertions pass on some lanes and fail on
    /// others.
    fn wide_circuit() -> Circuit {
        let mut bld = Builder::new(Mode::Build);
        let xs: Vec<_> = (0..64).map(|_| bld.input()).collect();
        let mut layer = xs;
        for _ in 0..80 {
            layer = (0..layer.len())
                .map(|i| bld.add(layer[i], layer[(i + 1) % layer.len()]))
                .collect();
        }
        for &w in layer.iter().take(8) {
            let z = bld.eq(w, w); // 1
            let nz = bld.not(z); // 0
            bld.assert_zero(nz); // never fires
        }
        for &x in &layer {
            bld.assert_zero(x); // fires whenever the sum is nonzero
        }
        bld.finish(layer)
    }

    /// Every lane width the tile loop can form: monomorphized (1, 2, 4,
    /// 8, 16), dynamic (3, 5), and split across tiles (17, 33, 64).
    #[test]
    fn every_lane_width_matches_interpreter() {
        let c = wide_circuit();
        let eng = compile(&c).unwrap();
        assert!(eng.stats().peak_registers < c.num_wires());
        for width in [1usize, 2, 3, 4, 5, 8, 16, 17, 33, 64] {
            let instances: Vec<Vec<u64>> = (0..width as u64)
                .map(|i| (0..64).map(|j| i * j % 5).collect())
                .collect();
            for (inst, got) in instances.iter().zip(eng.evaluate_batch(&instances)) {
                assert_eq!(got, c.evaluate(inst), "width {width}");
            }
        }
    }

    /// The sources and destination of one instruction.
    fn regs_of(op: &Op) -> (Reg, Vec<Reg>) {
        match *op {
            Op::Input { dst, .. } | Op::Const { dst, .. } => (dst, vec![]),
            Op::Add { dst, a, b }
            | Op::Sub { dst, a, b }
            | Op::Mul { dst, a, b }
            | Op::Eq { dst, a, b }
            | Op::Lt { dst, a, b }
            | Op::And { dst, a, b }
            | Op::Or { dst, a, b }
            | Op::Xor { dst, a, b } => (dst, vec![a, b]),
            Op::Not { dst, a } | Op::AssertZero { dst, a, .. } => (dst, vec![a]),
            Op::Mux { dst, s, a, b } => (dst, vec![s, a, b]),
        }
    }

    /// Checks the allocator invariant `exec_op`'s `unsafe` rests on, on
    /// `c` compiled as is (instruction `i` is gate `i`): no destination
    /// equals one of its sources, and every source register — and every
    /// output register at the end — was last written by the instruction
    /// that defines the wire read from it.
    fn assert_allocation_sound(c: &Circuit) {
        let eng = CompiledCircuit::compile_inner(c, None).unwrap();
        assert_eq!(eng.tape.len(), c.gates().len());
        let mut last_writer = vec![usize::MAX; eng.num_regs];
        for (i, (op, g)) in eng.tape.iter().zip(c.gates()).enumerate() {
            let (dst, srcs) = regs_of(op);
            assert!(!srcs.contains(&dst), "instruction {i} aliases dst r{dst}");
            for (src, w) in srcs.iter().zip(g.operands().into_iter().flatten()) {
                assert_eq!(last_writer[*src as usize], w as usize, "instruction {i}");
            }
            last_writer[dst as usize] = i;
        }
        for (&r, &w) in eng.output_regs.iter().zip(c.outputs()) {
            assert_eq!(last_writer[r as usize], w as usize, "output wire {w}");
        }
    }

    /// The X15 join: R(a,b) ⋈ S(b,c), cap 16, degree bound 4.
    fn x15_join() -> Circuit {
        use crate::{encode_relation, join_degree_bounded};
        use qec_relation::Var;
        let mut b = Builder::new(Mode::Build);
        let r = encode_relation(&mut b, vec![Var(0), Var(1)], 16);
        let s = encode_relation(&mut b, vec![Var(1), Var(2)], 16);
        let j = join_degree_bounded(&mut b, &r, &s, 4);
        b.finish(j.flatten())
    }

    #[test]
    fn allocator_never_aliases_and_reads_live_registers() {
        let mut bld = Builder::new(Mode::Build);
        let x = bld.input();
        let y = bld.input();
        let s = bld.add(x, x); // one wire read twice, freed once
        let p = bld.mul(s, y);
        let lt = bld.lt(x, y);
        let m = bld.mux(lt, s, p);
        bld.assert_zero(m);
        let _dead = bld.sub(p, y); // read by nobody, dies at once
        let mixed = bld.finish(vec![m, lt]);
        let join = x15_join();
        let (join_opt, _) = crate::opt::optimize_with(&join, &CompileOptions::sequential());
        for c in [adder_chain(100), mixed, wide_circuit(), join, join_opt] {
            assert_allocation_sound(&c);
        }
    }

    #[test]
    fn program_order_needs_fewer_registers_than_level_major() {
        // 4,183 registers was the level-major tape's figure.
        let eng = compile(&x15_join()).unwrap();
        assert!(
            eng.stats().peak_registers < 4183,
            "{}",
            eng.stats().peak_registers
        );
    }

    #[test]
    fn stats_account_every_gate() {
        let c = adder_chain(10);
        let eng = compile(&c).unwrap();
        let s = eng.stats();
        assert_eq!(s.tape_len, c.num_wires());
        assert_eq!(s.gate_counts.iter().sum::<u64>(), c.num_wires() as u64);
        assert_eq!(s.level_widths.iter().sum::<u32>() as usize, s.tape_len);
        assert_eq!(s.gate_count_pairs(), vec![("input", 2), ("add", 10)]);
        let (_, m) = eng.evaluate_batch_metered(&[vec![1u64, 2]]);
        assert_eq!(m.instances, 1);
        assert_eq!(m.gate_evals, s.tape_len as u64);
        assert!(m.eval_ns > 0);
    }

    #[test]
    fn resident_bytes_count_tape_and_output_registers() {
        let c = adder_chain(10);
        let eng = compile(&c).unwrap();
        let outputs = c.outputs().len();
        assert_eq!(
            eng.resident_bytes(),
            20 * eng.stats().tape_len + 4 * outputs
        );
    }
}
