//! The GRAMC system: controller, instruction stack, decoder, buffers and
//! flag register (paper Fig. 3).
//!
//! The controller fetches instructions from the instruction stack, decodes
//! them (through the binary encoding of [`crate::isa`] — the decoder really
//! runs on the encoded words) and steers the write-verify data path (blue
//! arrows) and the system solution path (red arrows). Results land in the
//! output buffer, where the digital functional modules can post-process
//! them.

use gramc_linalg::Matrix;
use gramc_telemetry::HwSnapshot;
use std::collections::BTreeMap;

use crate::amc_macro::{MacroConfig, MacroGroup, OperatorId};
use crate::error::CoreError;
use crate::functional::{pool2d, softmax};
use crate::isa::{BufferRef, Instruction, MemSpace};

/// Condition flags of the controller (Fig. 3 "Flag Register").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FlagRegister {
    /// Result of the last comparison-unit operation (`a < b`).
    pub less: bool,
    /// Set when the controller executed `Halt`.
    pub halted: bool,
    /// Set when the last write-verify run converged on all cells.
    pub program_ok: bool,
}

/// Execution statistics of a program run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunStats {
    /// Instructions executed.
    pub instructions: usize,
    /// Analog operations dispatched (MVM + solves).
    pub analog_ops: usize,
    /// Write-verify matrix loads performed.
    pub matrix_loads: usize,
}

/// Number of operator slots the decoder can address.
pub const OPERATOR_SLOTS: usize = 16;

/// The full GRAMC system of Fig. 3: digital control plus a group of AMC
/// macros.
///
/// # Examples
///
/// ```
/// use gramc_core::system::GramcSystem;
/// use gramc_core::isa::{BufferRef, Instruction};
/// use gramc_core::MacroConfig;
/// use gramc_linalg::Matrix;
///
/// # fn main() -> Result<(), gramc_core::CoreError> {
/// let mut sys = GramcSystem::new(2, MacroConfig::small_ideal(2), 3, 64);
/// let a = Matrix::from_rows(&[&[1.0, 0.5], &[0.25, 1.0]]);
/// sys.write_global(0, a.as_slice())?;
/// sys.write_global(4, &[1.0, 2.0])?;
/// sys.load_program(vec![
///     Instruction::LoadMatrix { slot: 0, rows: 2, cols: 2, src: BufferRef::global(0, 4) },
///     Instruction::Mvm { slot: 0, src: BufferRef::global(4, 2), dst: BufferRef::output(0, 2) },
///     Instruction::Halt,
/// ]);
/// sys.run(100)?;
/// let y = sys.read_output(BufferRef::output(0, 2))?;
/// assert!((y[0] - 2.0).abs() < 0.05);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct GramcSystem {
    group: MacroGroup,
    global_buffer: Vec<f64>,
    output_buffer: Vec<f64>,
    instruction_stack: Vec<[u32; 4]>,
    pc: usize,
    flags: FlagRegister,
    slots: [Option<OperatorId>; OPERATOR_SLOTS],
    stats: RunStats,
    /// Hardware events attributed to the instruction mnemonic that caused
    /// them (accumulated since the last `load_program`).
    instr_hw: BTreeMap<&'static str, HwSnapshot>,
}

impl GramcSystem {
    /// Creates a system with `n_macros` macros and `buffer_words` words in
    /// each of the global and output buffers.
    ///
    /// `n_macros` sizes this controller's **single** macro group — it does
    /// not shard the system: every instruction still dispatches into the
    /// one group, serially. The scaling path beyond one group is the
    /// `gramc-runtime` crate, whose `Runtime` owns several independent
    /// [`MacroGroup`] shards and schedules tiled jobs across them with
    /// work stealing; construct one there (e.g. `Runtime::new(shards,
    /// macros_per_shard, config, seed)`) instead of inflating `n_macros`
    /// here when you need multi-group throughput.
    pub fn new(n_macros: usize, config: MacroConfig, seed: u64, buffer_words: usize) -> Self {
        Self {
            group: MacroGroup::new(n_macros, config, seed),
            global_buffer: vec![0.0; buffer_words],
            output_buffer: vec![0.0; buffer_words],
            instruction_stack: Vec::new(),
            pc: 0,
            flags: FlagRegister::default(),
            slots: [None; OPERATOR_SLOTS],
            stats: RunStats::default(),
            instr_hw: BTreeMap::new(),
        }
    }

    /// The paper's configuration: 16 macros of 128×128 and a 64 Ki-word
    /// buffer pair.
    pub fn paper_system(seed: u64) -> Self {
        Self::new(16, MacroConfig::default(), seed, 65536)
    }

    /// The underlying macro group (for inspection).
    pub fn macro_group(&self) -> &MacroGroup {
        &self.group
    }

    /// Mutable access to the macro group (e.g. for direct high-level use).
    pub fn macro_group_mut(&mut self) -> &mut MacroGroup {
        &mut self.group
    }

    /// Current flags.
    pub fn flags(&self) -> FlagRegister {
        self.flags
    }

    /// Statistics of the most recent [`run`](Self::run).
    pub fn stats(&self) -> RunStats {
        self.stats
    }

    /// Current program counter.
    pub fn pc(&self) -> usize {
        self.pc
    }

    /// Loads a program into the instruction stack (encoding each
    /// instruction to its binary form — the controller decodes on fetch,
    /// like the hardware) and resets the PC and flags.
    pub fn load_program(&mut self, program: Vec<Instruction>) {
        self.instruction_stack = program.iter().map(Instruction::encode).collect();
        self.pc = 0;
        self.flags = FlagRegister::default();
        self.stats = RunStats::default();
        self.instr_hw.clear();
    }

    /// Hardware counter deltas attributed per instruction mnemonic since
    /// the last [`load_program`](Self::load_program): which instructions
    /// drove the DACs, settled the arrays, burned write pulses.
    pub fn instruction_telemetry(&self) -> &BTreeMap<&'static str, HwSnapshot> {
        &self.instr_hw
    }

    /// Writes words into the global buffer.
    ///
    /// # Errors
    ///
    /// [`CoreError::BufferOutOfBounds`] if the run escapes the buffer.
    pub fn write_global(&mut self, addr: usize, data: &[f64]) -> Result<(), CoreError> {
        if addr + data.len() > self.global_buffer.len() {
            return Err(CoreError::BufferOutOfBounds {
                addr,
                len: data.len(),
                capacity: self.global_buffer.len(),
            });
        }
        self.global_buffer[addr..addr + data.len()].copy_from_slice(data);
        Ok(())
    }

    /// Reads a run of words from either buffer.
    ///
    /// # Errors
    ///
    /// [`CoreError::BufferOutOfBounds`] if the reference escapes the buffer.
    pub fn read_buffer(&self, r: BufferRef) -> Result<Vec<f64>, CoreError> {
        let buf = match r.space {
            MemSpace::Global => &self.global_buffer,
            MemSpace::Output => &self.output_buffer,
        };
        let (addr, len) = (r.addr as usize, r.len as usize);
        if addr + len > buf.len() {
            return Err(CoreError::BufferOutOfBounds { addr, len, capacity: buf.len() });
        }
        Ok(buf[addr..addr + len].to_vec())
    }

    /// Convenience alias of [`read_buffer`](Self::read_buffer) for output
    /// references.
    pub fn read_output(&self, r: BufferRef) -> Result<Vec<f64>, CoreError> {
        self.read_buffer(r)
    }

    fn write_ref(&mut self, r: BufferRef, data: &[f64]) -> Result<(), CoreError> {
        let buf = match r.space {
            MemSpace::Global => &mut self.global_buffer,
            MemSpace::Output => &mut self.output_buffer,
        };
        let addr = r.addr as usize;
        if addr + data.len() > buf.len() {
            return Err(CoreError::BufferOutOfBounds {
                addr,
                len: data.len(),
                capacity: buf.len(),
            });
        }
        buf[addr..addr + data.len()].copy_from_slice(data);
        Ok(())
    }

    fn slot_operator(&self, slot: u8) -> Result<OperatorId, CoreError> {
        self.slots
            .get(slot as usize)
            .copied()
            .flatten()
            .ok_or(CoreError::IllegalInstruction { pc: self.pc, reason: "empty operator slot" })
    }

    fn branch(&mut self, target: u16) -> Result<(), CoreError> {
        let t = target as usize;
        if t > self.instruction_stack.len() {
            return Err(CoreError::IllegalInstruction {
                pc: self.pc,
                reason: "branch target out of range",
            });
        }
        self.pc = t;
        Ok(())
    }

    /// Executes one instruction. Returns `false` once halted.
    ///
    /// # Errors
    ///
    /// [`CoreError::IllegalInstruction`] for undecodable words, bad slots or
    /// control-flow violations, plus any analog-path error.
    pub fn step(&mut self) -> Result<bool, CoreError> {
        if self.flags.halted {
            return Ok(false);
        }
        let Some(&words) = self.instruction_stack.get(self.pc) else {
            // Falling off the end halts, like an implicit Halt.
            self.flags.halted = true;
            return Ok(false);
        };
        let inst = Instruction::decode(words).ok_or(CoreError::IllegalInstruction {
            pc: self.pc,
            reason: "undecodable instruction word",
        })?;
        self.pc += 1;
        self.stats.instructions += 1;
        let hw_before = self.group.hw_snapshot();

        match inst {
            Instruction::Nop => {}
            Instruction::Halt => self.flags.halted = true,
            Instruction::Configure { macro_id, mode } => {
                let count = self.group.macro_count();
                if macro_id as usize >= count {
                    return Err(CoreError::NoSuchMacro { id: macro_id as usize, count });
                }
                // Mode is also applied implicitly by the solve instructions;
                // an explicit Configure models the register-write step.
                let _ = mode;
            }
            Instruction::LoadMatrix { slot, rows, cols, src } => {
                let data = self.read_buffer(src)?;
                if data.len() != rows as usize * cols as usize {
                    return Err(CoreError::ShapeMismatch {
                        expected: rows as usize * cols as usize,
                        found: data.len(),
                    });
                }
                let a = Matrix::from_vec(rows as usize, cols as usize, data);
                let id = self.group.load_matrix(&a)?;
                self.replace_slot(slot, id)?;
                self.flags.program_ok = true;
                self.stats.matrix_loads += 1;
            }
            Instruction::LoadMatrixSliced { slot, rows, cols, src } => {
                let data = self.read_buffer(src)?;
                if data.len() != rows as usize * cols as usize {
                    return Err(CoreError::ShapeMismatch {
                        expected: rows as usize * cols as usize,
                        found: data.len(),
                    });
                }
                let a = Matrix::from_vec(rows as usize, cols as usize, data);
                let id = self.group.load_matrix_bitsliced(&a)?;
                self.replace_slot(slot, id)?;
                self.flags.program_ok = true;
                self.stats.matrix_loads += 1;
            }
            Instruction::FreeMatrix { slot } => {
                if let Some(id) = self.slots[slot as usize].take() {
                    self.group.free_operator(id)?;
                }
            }
            Instruction::Mvm { slot, src, dst } => {
                let id = self.slot_operator(slot)?;
                let x = self.read_buffer(src)?;
                let y = self.group.mvm(id, &x)?;
                self.write_ref(dst, &y)?;
                self.stats.analog_ops += 1;
            }
            Instruction::MvmBatch { slot, batch, src, dst } => {
                let id = self.slot_operator(slot)?;
                let data = self.read_buffer(src)?;
                let b = batch as usize;
                if b == 0 || data.len() % b != 0 {
                    return Err(CoreError::IllegalInstruction {
                        pc: self.pc,
                        reason: "batch count does not divide the source run",
                    });
                }
                let n = data.len() / b;
                let xs: Vec<Vec<f64>> = data.chunks(n).map(<[f64]>::to_vec).collect();
                let ys = self.group.mvm_batch(id, &xs)?;
                let flat: Vec<f64> = ys.into_iter().flatten().collect();
                self.write_ref(dst, &flat)?;
                // One batched dispatch = one analog operation: the array is
                // read once and every vector streams through it.
                self.stats.analog_ops += 1;
            }
            Instruction::SolveInv { slot, src, dst } => {
                let id = self.slot_operator(slot)?;
                let b = self.read_buffer(src)?;
                let x = self.group.solve_inv(id, &b)?;
                self.write_ref(dst, &x)?;
                self.stats.analog_ops += 1;
            }
            Instruction::SolvePinv { slot, src, dst } => {
                let id = self.slot_operator(slot)?;
                let b = self.read_buffer(src)?;
                let x = self.group.solve_pinv(id, &b)?;
                self.write_ref(dst, &x)?;
                self.stats.analog_ops += 1;
            }
            Instruction::SolveEgv { slot, dst } => {
                let id = self.slot_operator(slot)?;
                let sol = self.group.solve_egv(id)?;
                self.write_ref(dst, &sol.eigenvector)?;
                self.stats.analog_ops += 1;
            }
            Instruction::Pool { kind, h, w, window, src, dst } => {
                let map = self.read_buffer(src)?;
                let out = pool2d(&map, h as usize, w as usize, window as usize, kind);
                self.write_ref(dst, &out)?;
            }
            Instruction::Activate { kind, src, dst } => {
                let mut v = self.read_buffer(src)?;
                kind.apply_slice(&mut v);
                self.write_ref(dst, &v)?;
            }
            Instruction::Softmax { src, dst } => {
                let v = self.read_buffer(src)?;
                self.write_ref(dst, &softmax(&v))?;
            }
            Instruction::Copy { src, dst } => {
                let v = self.read_buffer(src)?;
                self.write_ref(dst, &v)?;
            }
            Instruction::Jump { target } => self.branch(target)?,
            Instruction::BranchIfLess { a, b, target } => {
                let va = self.read_buffer(a)?[0];
                let vb = self.read_buffer(b)?[0];
                self.flags.less = va < vb;
                if self.flags.less {
                    self.branch(target)?;
                }
            }
            Instruction::LoopDec { counter, target } => {
                let addr = counter as usize;
                if addr >= self.global_buffer.len() {
                    return Err(CoreError::BufferOutOfBounds {
                        addr,
                        len: 1,
                        capacity: self.global_buffer.len(),
                    });
                }
                self.global_buffer[addr] -= 1.0;
                if self.global_buffer[addr] > 0.0 {
                    self.branch(target)?;
                }
            }
        }
        let delta = self.group.hw_snapshot().since(&hw_before);
        if !delta.is_zero() {
            *self.instr_hw.entry(Self::mnemonic(&inst)).or_default() += &delta;
        }
        Ok(!self.flags.halted)
    }

    /// Attribution key for one decoded instruction.
    fn mnemonic(inst: &Instruction) -> &'static str {
        match inst {
            Instruction::Nop => "nop",
            Instruction::Halt => "halt",
            Instruction::Configure { .. } => "configure",
            Instruction::LoadMatrix { .. } => "load_matrix",
            Instruction::LoadMatrixSliced { .. } => "load_matrix_sliced",
            Instruction::FreeMatrix { .. } => "free_matrix",
            Instruction::Mvm { .. } => "mvm",
            Instruction::MvmBatch { .. } => "mvm_batch",
            Instruction::SolveInv { .. } => "solve_inv",
            Instruction::SolvePinv { .. } => "solve_pinv",
            Instruction::SolveEgv { .. } => "solve_egv",
            Instruction::Pool { .. } => "pool",
            Instruction::Activate { .. } => "activate",
            Instruction::Softmax { .. } => "softmax",
            Instruction::Copy { .. } => "copy",
            Instruction::Jump { .. } => "jump",
            Instruction::BranchIfLess { .. } => "branch_if_less",
            Instruction::LoopDec { .. } => "loop_dec",
        }
    }

    fn replace_slot(&mut self, slot: u8, id: OperatorId) -> Result<(), CoreError> {
        let s = slot as usize;
        if s >= OPERATOR_SLOTS {
            return Err(CoreError::IllegalInstruction {
                pc: self.pc,
                reason: "operator slot out of range",
            });
        }
        if let Some(old) = self.slots[s].take() {
            self.group.free_operator(old)?;
        }
        self.slots[s] = Some(id);
        Ok(())
    }

    /// Runs until `Halt` or the step budget is exhausted.
    ///
    /// # Errors
    ///
    /// Propagates [`step`](Self::step) errors;
    /// [`CoreError::IllegalInstruction`] if the budget is exceeded (runaway
    /// program).
    pub fn run(&mut self, max_steps: usize) -> Result<RunStats, CoreError> {
        for _ in 0..max_steps {
            if !self.step()? {
                return Ok(self.stats);
            }
        }
        if self.flags.halted {
            Ok(self.stats)
        } else {
            Err(CoreError::IllegalInstruction { pc: self.pc, reason: "step budget exceeded" })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler;
    use gramc_linalg::{lu, random, vector};

    fn small_system(n: usize, seed: u64) -> GramcSystem {
        GramcSystem::new(3, MacroConfig::small_ideal(n), seed, 4096)
    }

    #[test]
    fn program_counter_and_halt() {
        let mut sys = small_system(2, 1);
        sys.load_program(vec![Instruction::Nop, Instruction::Nop, Instruction::Halt]);
        let stats = sys.run(10).unwrap();
        assert_eq!(stats.instructions, 3);
        assert!(sys.flags().halted);
        // Further steps are no-ops.
        assert!(!sys.step().unwrap());
    }

    #[test]
    fn falling_off_the_end_halts() {
        let mut sys = small_system(2, 2);
        sys.load_program(vec![Instruction::Nop]);
        sys.run(10).unwrap();
        assert!(sys.flags().halted);
    }

    #[test]
    fn runaway_program_is_detected() {
        let mut sys = small_system(2, 3);
        sys.load_program(vec![Instruction::Jump { target: 0 }]);
        assert!(matches!(
            sys.run(50),
            Err(CoreError::IllegalInstruction { reason: "step budget exceeded", .. })
        ));
    }

    #[test]
    fn full_mvm_program() {
        let mut sys = small_system(4, 4);
        let a = Matrix::from_rows(&[
            &[1.0, 0.2, 0.0, -0.3],
            &[0.0, 0.8, 0.1, 0.0],
            &[0.5, 0.0, 1.0, 0.2],
            &[-0.2, 0.4, 0.0, 0.9],
        ]);
        sys.write_global(0, a.as_slice()).unwrap();
        sys.write_global(16, &[1.0, -1.0, 0.5, 0.25]).unwrap();
        sys.load_program(vec![
            Instruction::LoadMatrix { slot: 0, rows: 4, cols: 4, src: BufferRef::global(0, 16) },
            Instruction::Mvm {
                slot: 0,
                src: BufferRef::global(16, 4),
                dst: BufferRef::output(0, 4),
            },
            Instruction::Halt,
        ]);
        let stats = sys.run(100).unwrap();
        assert_eq!(stats.analog_ops, 1);
        assert_eq!(stats.matrix_loads, 1);
        let y = sys.read_output(BufferRef::output(0, 4)).unwrap();
        let y_ref = a.matvec(&[1.0, -1.0, 0.5, 0.25]);
        assert!(vector::rel_error(&y, &y_ref) < 0.02, "{y:?} vs {y_ref:?}");
    }

    #[test]
    fn batched_mvm_program_matches_per_vector_instructions() {
        let a = Matrix::from_rows(&[
            &[1.0, 0.2, 0.0, -0.3],
            &[0.0, 0.8, 0.1, 0.0],
            &[0.5, 0.0, 1.0, 0.2],
            &[-0.2, 0.4, 0.0, 0.9],
        ]);
        let xs = [[1.0, -1.0, 0.5, 0.25], [0.2, 0.9, -0.4, 0.0], [-0.6, 0.1, 0.3, 1.0]];
        let mut sys = small_system(4, 12);
        sys.write_global(0, a.as_slice()).unwrap();
        for (k, x) in xs.iter().enumerate() {
            sys.write_global(16 + 4 * k, x).unwrap();
        }
        sys.load_program(vec![
            Instruction::LoadMatrix { slot: 0, rows: 4, cols: 4, src: BufferRef::global(0, 16) },
            Instruction::MvmBatch {
                slot: 0,
                batch: 3,
                src: BufferRef::global(16, 12),
                dst: BufferRef::output(0, 12),
            },
            Instruction::Halt,
        ]);
        let stats = sys.run(100).unwrap();
        assert_eq!(stats.analog_ops, 1, "one batched dispatch = one analog op");
        let y = sys.read_output(BufferRef::output(0, 12)).unwrap();
        for (k, x) in xs.iter().enumerate() {
            let y_ref = a.matvec(x);
            assert!(
                vector::rel_error(&y[4 * k..4 * (k + 1)], &y_ref) < 0.02,
                "batch element {k}: {:?} vs {y_ref:?}",
                &y[4 * k..4 * (k + 1)]
            );
        }
    }

    #[test]
    fn batched_mvm_rejects_indivisible_batch() {
        let mut sys = small_system(4, 13);
        let a = Matrix::identity(4);
        sys.write_global(0, a.as_slice()).unwrap();
        sys.load_program(vec![
            Instruction::LoadMatrix { slot: 0, rows: 4, cols: 4, src: BufferRef::global(0, 16) },
            Instruction::MvmBatch {
                slot: 0,
                batch: 5, // 12 words do not split into 5 vectors
                src: BufferRef::global(16, 12),
                dst: BufferRef::output(0, 12),
            },
        ]);
        assert!(matches!(sys.run(10), Err(CoreError::IllegalInstruction { .. })));
    }

    #[test]
    fn solve_program_with_functional_postprocessing() {
        let mut sys = small_system(4, 5);
        let mut rng = random::seeded_rng(60);
        let a = random::spd_with_condition(&mut rng, 4, 4.0);
        let b = [0.5, -0.25, 0.75, 0.1];
        sys.write_global(0, a.as_slice()).unwrap();
        sys.write_global(16, &b).unwrap();
        sys.load_program(vec![
            Instruction::LoadMatrix { slot: 1, rows: 4, cols: 4, src: BufferRef::global(0, 16) },
            Instruction::SolveInv {
                slot: 1,
                src: BufferRef::global(16, 4),
                dst: BufferRef::output(0, 4),
            },
            // ReLU the solution in the functional module.
            Instruction::Activate {
                kind: crate::Activation::Relu,
                src: BufferRef::output(0, 4),
                dst: BufferRef::output(8, 4),
            },
            Instruction::Halt,
        ]);
        sys.run(100).unwrap();
        let x = sys.read_output(BufferRef::output(0, 4)).unwrap();
        let x_ref = lu::solve(&a, &b).unwrap();
        assert!(vector::rel_error(&x, &x_ref) < 0.05, "{x:?} vs {x_ref:?}");
        let relu = sys.read_output(BufferRef::output(8, 4)).unwrap();
        for (r, xi) in relu.iter().zip(&x) {
            assert_eq!(*r, xi.max(0.0));
        }
    }

    #[test]
    fn loop_dec_iterates() {
        let mut sys = small_system(2, 6);
        sys.write_global(0, &[3.0]).unwrap(); // loop counter
        sys.write_global(1, &[0.0]).unwrap(); // accumulator via Copy trick
        sys.load_program(vec![
            // body: copy counter to output (so we can observe the last value)
            Instruction::Copy { src: BufferRef::global(0, 1), dst: BufferRef::output(0, 1) },
            Instruction::LoopDec { counter: 0, target: 0 },
            Instruction::Halt,
        ]);
        let stats = sys.run(100).unwrap();
        // 3 body executions + 3 loopdec + halt
        assert_eq!(stats.instructions, 7);
        let last = sys.read_output(BufferRef::output(0, 1)).unwrap()[0];
        assert_eq!(last, 1.0);
    }

    #[test]
    fn branch_if_less_sets_flag() {
        let mut sys = small_system(2, 7);
        sys.write_global(0, &[1.0, 2.0]).unwrap();
        sys.load_program(vec![
            Instruction::BranchIfLess {
                a: BufferRef::global(0, 1),
                b: BufferRef::global(1, 1),
                target: 3,
            },
            Instruction::Nop, // skipped
            Instruction::Nop,
            Instruction::Halt,
        ]);
        let stats = sys.run(10).unwrap();
        assert!(sys.flags().less);
        assert_eq!(stats.instructions, 2); // branch + halt
    }

    #[test]
    fn bad_slot_is_illegal() {
        let mut sys = small_system(2, 8);
        sys.load_program(vec![Instruction::Mvm {
            slot: 3,
            src: BufferRef::global(0, 2),
            dst: BufferRef::output(0, 2),
        }]);
        assert!(matches!(sys.run(10), Err(CoreError::IllegalInstruction { .. })));
    }

    #[test]
    fn buffer_bounds_are_checked() {
        let mut sys = small_system(2, 9);
        assert!(sys.write_global(4090, &[0.0; 10]).is_err());
        assert!(sys.read_buffer(BufferRef::global(4095, 2)).is_err());
        sys.load_program(vec![Instruction::Copy {
            src: BufferRef::global(0, 2),
            dst: BufferRef::output(4095, 2),
        }]);
        assert!(matches!(sys.run(10), Err(CoreError::BufferOutOfBounds { .. })));
    }

    #[test]
    fn reloading_a_slot_frees_the_old_operator() {
        let mut sys = small_system(4, 10);
        // A 4x2 operator packs both differential planes into one 4-column
        // macro, so repeated loads into the same slot must keep exactly one
        // macro claimed (no leak).
        let a = Matrix::from_fn(4, 2, |i, j| 1.0 + (i * 2 + j) as f64 / 8.0);
        sys.write_global(0, a.as_slice()).unwrap();
        let load =
            Instruction::LoadMatrix { slot: 0, rows: 4, cols: 2, src: BufferRef::global(0, 8) };
        sys.load_program(vec![load, load, load, Instruction::Halt]);
        sys.run(100).unwrap();
        assert!(sys.macro_group().free_macros() >= 2);
    }

    #[test]
    fn compiled_program_runs_end_to_end() {
        // Exercise the compile → load → run flow the paper describes.
        let mut rng = random::seeded_rng(61);
        let a = random::spd_with_condition(&mut rng, 4, 3.0);
        let b = random::normal_vector(&mut rng, 4);
        let program =
            compiler::compile(&[compiler::MatrixOp::SolveInv { a: a.clone(), b: b.clone() }])
                .unwrap();
        let mut sys = small_system(4, 11);
        let outputs = compiler::execute(&mut sys, &program, 10_000).unwrap();
        let x_ref = lu::solve(&a, &b).unwrap();
        assert!(vector::rel_error(&outputs[0], &x_ref) < 0.05);
    }
}
