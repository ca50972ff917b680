//! Runtime state and per-cycle execution of a single processing element.

use std::collections::VecDeque;

use crate::program::{Instruction, PeProgram, RecvMode};
use crate::wavelet::Wavelet;

/// Capacity of the ramp FIFOs beyond the in-flight latency. The ramp is a
/// short pipeline; when it backs up the PE (or the router) stalls, which is
/// how backpressure reaches the processor.
const RAMP_EXTRA_CAPACITY: usize = 2;

/// An error raised by a PE while executing its program — always indicates a
/// bug in the plan (e.g. a wavelet of an unexpected color reaching the
/// processor).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeError {
    /// Linear index of the PE.
    pub pe: usize,
    /// Description of the failure.
    pub message: String,
}

/// Statistics of one PE after a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeStats {
    /// Wavelets the processor injected into the fabric.
    pub sent: u64,
    /// Wavelets the processor consumed from the fabric.
    pub received: u64,
    /// Cycles the PE spent stalled waiting to send or receive.
    pub stall_cycles: u64,
    /// Thermal no-op cycles injected by the noise model.
    pub noop_cycles: u64,
}

/// When a PE or router could next act, as computed for the fast engine's
/// skip-ahead (`engine/fast.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Wake {
    /// It can act this very cycle.
    Now,
    /// Nothing can happen before the given future cycle.
    At(u64),
    /// It will never act on its own; only another component's move (e.g. a
    /// router pop freeing ramp space) can unblock it, and that move carries
    /// its own wake time.
    Never,
}

/// Hot per-PE execution state moved between a [`PeState`] and the dense
/// executor's struct-of-arrays mirrors (`engine/dense.rs`). Extraction and
/// writeback are exact inverses: a writeback immediately after an extraction
/// restores the PE byte for byte.
#[derive(Debug)]
pub(crate) struct DenseHot {
    pub pc: usize,
    pub progress: u32,
    pub progress_alt: u32,
    pub pending_noops: u32,
    pub finish_cycle: Option<u64>,
    pub stats: PeStats,
    /// The local memory, moved (not copied) out of and back into the PE.
    pub local: Vec<f32>,
}

/// The runtime state of one PE: its program, local memory and ramp FIFOs.
#[derive(Debug, Clone)]
pub struct PeState {
    index: usize,
    program: Vec<Instruction>,
    pc: usize,
    /// Progress (elements processed) within the current instruction.
    progress: u32,
    /// Secondary progress counter: elements *sent* by an `Exchange`
    /// instruction (whose sends and receives advance independently).
    progress_alt: u32,
    /// Local memory: one `f32` per element.
    local: Vec<f32>,
    /// Wavelets travelling up the ramp towards the router, with the cycle at
    /// which they become visible to the router.
    ramp_up: VecDeque<(u64, Wavelet)>,
    /// Wavelets travelling down the ramp towards the processor, with the
    /// cycle at which the processor may consume them.
    ramp_down: VecDeque<(u64, Wavelet)>,
    ramp_capacity: usize,
    /// Cycle at which the program finished, if it has.
    finish_cycle: Option<u64>,
    /// Cycle at which each instruction completed (same order as the program).
    instruction_finish: Vec<u64>,
    /// Pending thermal no-op cycles to insert before the next instruction step.
    pending_noops: u32,
    stats: PeStats,
}

impl PeState {
    /// Create a PE with an empty program and empty local memory.
    pub fn new(index: usize, ramp_latency: u64) -> Self {
        PeState {
            index,
            program: Vec::new(),
            pc: 0,
            progress: 0,
            progress_alt: 0,
            local: Vec::new(),
            ramp_up: VecDeque::new(),
            ramp_down: VecDeque::new(),
            ramp_capacity: ramp_latency as usize + RAMP_EXTRA_CAPACITY,
            finish_cycle: None,
            instruction_finish: Vec::new(),
            pending_noops: 0,
            stats: PeStats::default(),
        }
    }

    /// Return the PE to its post-construction state while keeping its
    /// allocations: the program is cleared, local memory is zeroed (but stays
    /// allocated), the ramp FIFOs are drained and the statistics reset. Used
    /// by [`crate::Fabric::reset`] so an execution session can reuse one
    /// fabric across many collective runs.
    pub fn reset(&mut self) {
        self.program.clear();
        self.pc = 0;
        self.progress = 0;
        self.progress_alt = 0;
        self.local.iter_mut().for_each(|v| *v = 0.0);
        self.ramp_up.clear();
        self.ramp_down.clear();
        self.finish_cycle = Some(0);
        self.instruction_finish.clear();
        self.pending_noops = 0;
        self.stats = PeStats::default();
    }

    /// Install the program, resizing local memory to fit its accesses.
    pub fn set_program(&mut self, program: &PeProgram) {
        // `reset` keeps the cleared buffer: a reused PE reinstalls in place.
        // A first install is sized exactly — amortised growth would round a
        // one-instruction program up to four slots on each of ~10^4 PEs.
        self.program.clear();
        self.program.reserve_exact(program.instructions().len());
        self.program.extend_from_slice(program.instructions());
        self.pc = 0;
        self.progress = 0;
        self.progress_alt = 0;
        self.instruction_finish.clear();
        self.finish_cycle = if self.program.is_empty() { Some(0) } else { None };
        let needed = program.required_memory() as usize;
        if self.local.len() < needed {
            self.local.resize(needed, 0.0);
        }
    }

    /// Set the local vector (input data of the collective).
    pub fn set_local(&mut self, data: &[f32]) {
        if self.local.len() < data.len() {
            self.local.resize(data.len(), 0.0);
        }
        self.local[..data.len()].copy_from_slice(data);
    }

    /// Write `data` into local memory starting at `offset`, growing the
    /// memory if needed and leaving everything outside the slice untouched
    /// (sharded collective inputs, e.g. one AllGather chunk per PE).
    pub fn set_local_at(&mut self, offset: u32, data: &[f32]) {
        let start = offset as usize;
        let end = start + data.len();
        if self.local.len() < end {
            self.local.resize(end, 0.0);
        }
        self.local[start..end].copy_from_slice(data);
    }

    /// The local vector after (or during) a run.
    pub fn local(&self) -> &[f32] {
        &self.local
    }

    /// Per-PE statistics.
    pub fn stats(&self) -> PeStats {
        self.stats
    }

    /// The cycle the program finished, if it has.
    pub fn finish_cycle(&self) -> Option<u64> {
        self.finish_cycle
    }

    /// The cycle at which each instruction completed, in program order.
    /// Instructions that have not completed yet are absent. Used by the
    /// measurement methodology of §8.3 to timestamp the end of the
    /// start-staggering phase.
    pub fn instruction_finish(&self) -> &[u64] {
        &self.instruction_finish
    }

    /// Whether the program has run to completion.
    pub fn finished(&self) -> bool {
        self.finish_cycle.is_some()
    }

    /// Whether the PE still holds wavelets in its ramp FIFOs.
    pub fn ramps_empty(&self) -> bool {
        self.ramp_up.is_empty() && self.ramp_down.is_empty()
    }

    /// Ask the PE to insert `n` thermal no-op cycles before continuing (the
    /// overheating mitigation described in §8.1).
    pub fn inject_noops(&mut self, n: u32) {
        self.pending_noops = self.pending_noops.saturating_add(n);
    }

    /// Offer a wavelet arriving from the router (down the ramp). Returns
    /// `false` if the ramp FIFO is full, in which case the router must stall.
    pub fn offer_ramp_down(&mut self, ready_cycle: u64, wavelet: Wavelet) -> bool {
        if self.ramp_down.len() >= self.ramp_capacity {
            return false;
        }
        self.ramp_down.push_back((ready_cycle, wavelet));
        true
    }

    /// Whether the ramp-down FIFO can accept another wavelet this cycle.
    pub fn ramp_down_has_space(&self) -> bool {
        self.ramp_down.len() < self.ramp_capacity
    }

    /// The wavelet the router may pick up from the ramp this cycle, if any.
    pub fn ramp_up_head(&self, now: u64) -> Option<Wavelet> {
        match self.ramp_up.front() {
            Some(&(ready, w)) if ready <= now => Some(w),
            _ => None,
        }
    }

    /// Remove the head of the ramp-up FIFO (after the router accepted it).
    pub fn pop_ramp_up(&mut self) -> Wavelet {
        self.ramp_up.pop_front().expect("pop_ramp_up on empty FIFO").1
    }

    fn ramp_up_has_space(&self) -> bool {
        self.ramp_up.len() < self.ramp_capacity
    }

    fn ramp_down_ready(&self, now: u64) -> Option<Wavelet> {
        match self.ramp_down.front() {
            Some(&(ready, w)) if ready <= now => Some(w),
            _ => None,
        }
    }

    /// Whether the upward ramp holds no wavelets (fast-engine router
    /// activity predicate).
    pub(crate) fn ramp_up_is_empty(&self) -> bool {
        self.ramp_up.is_empty()
    }

    /// The cycle at which the head of the upward ramp becomes visible to the
    /// router, regardless of the current cycle.
    pub(crate) fn ramp_up_ready(&self) -> Option<u64> {
        self.ramp_up.front().map(|&(ready, _)| ready)
    }

    /// Credit `n` stall cycles in bulk (the fast engine's skip-ahead stands
    /// in for `n` reference-engine steps in which this PE provably stalled).
    pub(crate) fn add_stall_cycles(&mut self, n: u64) {
        self.stats.stall_cycles += n;
    }

    /// The earliest cycle at which [`PeState::step`] could do anything other
    /// than stall. `Wake::At` futures come only from the downward ramp (its
    /// head's readiness is the single time-driven input of a PE); everything
    /// a router must first unblock reports `Wake::Never`.
    pub(crate) fn next_wake(&self, now: u64) -> Wake {
        if self.finished() {
            return Wake::Never;
        }
        if self.pending_noops > 0 {
            return Wake::Now;
        }
        let Some(instruction) = self.program.get(self.pc) else {
            // The next step records the finish cycle: that is progress.
            return Wake::Now;
        };
        match *instruction {
            Instruction::Compute { .. } => Wake::Now,
            Instruction::Send { .. } => {
                if self.ramp_up_has_space() {
                    Wake::Now
                } else {
                    Wake::Never
                }
            }
            Instruction::Recv { .. } => self.ramp_down_wake(now),
            Instruction::RecvForward { .. } => match self.ramp_down.front() {
                None => Wake::Never,
                Some(&(ready, _)) if ready <= now => {
                    if self.ramp_up_has_space() {
                        Wake::Now
                    } else {
                        Wake::Never
                    }
                }
                Some(&(ready, _)) => Wake::At(ready),
            },
            Instruction::Exchange { len, .. } => {
                if self.progress_alt < len && self.ramp_up_has_space() {
                    return Wake::Now;
                }
                if self.progress < len {
                    self.ramp_down_wake(now)
                } else {
                    Wake::Never
                }
            }
        }
    }

    /// When the head of the downward ramp becomes consumable.
    fn ramp_down_wake(&self, now: u64) -> Wake {
        match self.ramp_down.front() {
            None => Wake::Never,
            Some(&(ready, _)) if ready <= now => Wake::Now,
            Some(&(ready, _)) => Wake::At(ready),
        }
    }

    /// Execute one cycle of the program. Returns `Ok(true)` if any
    /// architectural state changed (used for deadlock detection).
    pub fn step(&mut self, now: u64, ramp_latency: u64) -> Result<bool, PeError> {
        if self.finished() {
            return Ok(false);
        }
        if self.pending_noops > 0 {
            self.pending_noops -= 1;
            self.stats.noop_cycles += 1;
            return Ok(true);
        }
        let Some(instruction) = self.program.get(self.pc).copied() else {
            self.finish_cycle = Some(now);
            return Ok(true);
        };
        let mut advanced = false;
        match instruction {
            Instruction::Compute { cycles } => {
                self.progress += 1;
                advanced = true;
                if self.progress >= cycles {
                    self.next_instruction(now);
                }
            }
            Instruction::Send { color, offset, len, last_control } => {
                if self.ramp_up_has_space() {
                    let idx = (offset + self.progress) as usize;
                    let value = self.read_local(idx)?;
                    let is_last = self.progress + 1 == len;
                    let w = Wavelet::from_f32(color, value).with_control(is_last && last_control);
                    self.ramp_up.push_back((now + ramp_latency, w));
                    self.stats.sent += 1;
                    self.progress += 1;
                    advanced = true;
                    if self.progress >= len {
                        self.next_instruction(now);
                    }
                } else {
                    self.stats.stall_cycles += 1;
                }
            }
            Instruction::Recv { color, offset, len, mode } => {
                if let Some(w) = self.ramp_down_ready(now) {
                    if w.color != color {
                        return Err(self.error(format!(
                            "expected a wavelet on {color} but received one on {} (pc {})",
                            w.color, self.pc
                        )));
                    }
                    self.ramp_down.pop_front();
                    self.stats.received += 1;
                    let idx = (offset + self.progress) as usize;
                    let incoming = w.as_f32();
                    let current = self.read_local(idx)?;
                    let value = match mode {
                        RecvMode::Store => incoming,
                        RecvMode::Reduce(op) => op.apply(current, incoming),
                    };
                    self.local[idx] = value;
                    self.progress += 1;
                    advanced = true;
                    if self.progress >= len {
                        self.next_instruction(now);
                    }
                } else {
                    self.stats.stall_cycles += 1;
                }
            }
            Instruction::RecvForward {
                recv_color,
                send_color,
                offset,
                len,
                op,
                keep,
                last_control,
            } => {
                // The pipelined chain step needs the incoming wavelet and a
                // free slot on the outgoing ramp in the same cycle.
                if let Some(w) = self.ramp_down_ready(now) {
                    if w.color != recv_color {
                        return Err(self.error(format!(
                            "expected a wavelet on {recv_color} but received one on {} (pc {})",
                            w.color, self.pc
                        )));
                    }
                    if self.ramp_up_has_space() {
                        self.ramp_down.pop_front();
                        self.stats.received += 1;
                        let idx = (offset + self.progress) as usize;
                        let combined = op.apply(self.read_local(idx)?, w.as_f32());
                        if keep {
                            self.local[idx] = combined;
                        }
                        let is_last = self.progress + 1 == len;
                        // One cycle to combine, then the ramp latency upwards.
                        let out = Wavelet::from_f32(send_color, combined)
                            .with_control(is_last && last_control);
                        self.ramp_up.push_back((now + 1 + ramp_latency, out));
                        self.stats.sent += 1;
                        self.progress += 1;
                        advanced = true;
                        if self.progress >= len {
                            self.next_instruction(now);
                        }
                    } else {
                        self.stats.stall_cycles += 1;
                    }
                } else {
                    self.stats.stall_cycles += 1;
                }
            }
            Instruction::Exchange {
                send_color,
                send_offset,
                recv_color,
                recv_offset,
                len,
                mode,
            } => {
                // Sends and receives progress independently, at most one
                // wavelet each per cycle.
                let mut did_anything = false;
                if self.progress_alt < len && self.ramp_up_has_space() {
                    let idx = (send_offset + self.progress_alt) as usize;
                    let value = self.read_local(idx)?;
                    self.ramp_up
                        .push_back((now + ramp_latency, Wavelet::from_f32(send_color, value)));
                    self.stats.sent += 1;
                    self.progress_alt += 1;
                    did_anything = true;
                }
                if self.progress < len {
                    if let Some(w) = self.ramp_down_ready(now) {
                        if w.color != recv_color {
                            return Err(self.error(format!(
                                "expected a wavelet on {recv_color} but received one on {} (pc {})",
                                w.color, self.pc
                            )));
                        }
                        self.ramp_down.pop_front();
                        self.stats.received += 1;
                        let idx = (recv_offset + self.progress) as usize;
                        let incoming = w.as_f32();
                        let current = self.read_local(idx)?;
                        self.local[idx] = match mode {
                            RecvMode::Store => incoming,
                            RecvMode::Reduce(op) => op.apply(current, incoming),
                        };
                        self.progress += 1;
                        did_anything = true;
                    }
                }
                if did_anything {
                    advanced = true;
                } else {
                    self.stats.stall_cycles += 1;
                }
                if self.progress >= len && self.progress_alt >= len {
                    self.next_instruction(now);
                }
            }
        }
        Ok(advanced)
    }

    /// Move the hot execution state out of the PE for the dense executor,
    /// draining the ramp FIFOs (in order) into the provided scratch vectors.
    pub(crate) fn dense_extract(
        &mut self,
        up: &mut Vec<(u64, Wavelet)>,
        down: &mut Vec<(u64, Wavelet)>,
    ) -> DenseHot {
        up.clear();
        down.clear();
        up.extend(self.ramp_up.drain(..));
        down.extend(self.ramp_down.drain(..));
        DenseHot {
            pc: self.pc,
            progress: self.progress,
            progress_alt: self.progress_alt,
            pending_noops: self.pending_noops,
            finish_cycle: self.finish_cycle,
            stats: self.stats,
            local: std::mem::take(&mut self.local),
        }
    }

    /// Restore the hot execution state after a dense segment. The ramp
    /// iterators must yield the FIFO contents front to back.
    pub(crate) fn dense_writeback(
        &mut self,
        hot: DenseHot,
        up: impl Iterator<Item = (u64, Wavelet)>,
        down: impl Iterator<Item = (u64, Wavelet)>,
    ) {
        self.pc = hot.pc;
        self.progress = hot.progress;
        self.progress_alt = hot.progress_alt;
        self.pending_noops = hot.pending_noops;
        self.finish_cycle = hot.finish_cycle;
        self.stats = hot.stats;
        self.local = hot.local;
        debug_assert!(self.ramp_up.is_empty() && self.ramp_down.is_empty());
        self.ramp_up.extend(up);
        self.ramp_down.extend(down);
    }

    /// The instruction at program counter `pc`, if the program has one.
    pub(crate) fn instruction_at(&self, pc: usize) -> Option<Instruction> {
        self.program.get(pc).copied()
    }

    /// Record an instruction completion at `now` (the dense executor's
    /// counterpart of the bookkeeping done by `next_instruction`).
    pub(crate) fn record_instruction_finish(&mut self, now: u64) {
        self.instruction_finish.push(now);
    }

    /// Capacity of each ramp FIFO (identical for every PE of a fabric).
    pub(crate) fn dense_ramp_capacity(&self) -> usize {
        self.ramp_capacity
    }

    /// Whether the PE still has program instructions to execute — the dense
    /// regime's notion of a *working* lane. Unfinished PEs whose program has
    /// run out (notably never-programmed PEs, which retire on their first
    /// step) do not count: they contribute one trivial epilogue cycle, not a
    /// dense workload.
    pub(crate) fn has_instructions_remaining(&self) -> bool {
        self.finish_cycle.is_none() && self.pc < self.program.len()
    }

    fn next_instruction(&mut self, now: u64) {
        self.instruction_finish.push(now);
        self.pc += 1;
        self.progress = 0;
        self.progress_alt = 0;
        if self.pc >= self.program.len() {
            self.finish_cycle = Some(now);
        }
    }

    fn read_local(&self, idx: usize) -> Result<f32, PeError> {
        self.local.get(idx).copied().ok_or_else(|| PeError {
            pe: self.index,
            message: format!("local memory access out of bounds: index {idx}"),
        })
    }

    fn error(&self, message: String) -> PeError {
        PeError { pe: self.index, message }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{PeProgram, ReduceOp};
    use crate::wavelet::Color;

    const TR: u64 = 2;

    fn pe_with(program: &PeProgram, local: &[f32]) -> PeState {
        let mut pe = PeState::new(0, TR);
        pe.set_program(program);
        pe.set_local(local);
        pe
    }

    #[test]
    fn empty_program_finishes_immediately() {
        let pe = pe_with(&PeProgram::new(), &[]);
        assert!(pe.finished());
        assert_eq!(pe.finish_cycle(), Some(0));
    }

    #[test]
    fn send_streams_one_wavelet_per_cycle_with_ramp_latency() {
        let c = Color::new(0);
        let mut prog = PeProgram::new();
        prog.send(c, 0, 3);
        let mut pe = pe_with(&prog, &[1.0, 2.0, 3.0]);
        for now in 0..3 {
            assert!(pe.step(now, TR).unwrap());
        }
        assert!(pe.finished());
        assert_eq!(pe.stats().sent, 3);
        // The first wavelet becomes visible to the router only after the ramp
        // latency.
        assert_eq!(pe.ramp_up_head(0), None);
        assert_eq!(pe.ramp_up_head(1), None);
        let w = pe.ramp_up_head(2).expect("ready at t_r");
        assert_eq!(w.as_f32(), 1.0);
        assert_eq!(pe.pop_ramp_up().as_f32(), 1.0);
        assert_eq!(pe.pop_ramp_up().as_f32(), 2.0);
        assert_eq!(pe.pop_ramp_up().as_f32(), 3.0);
    }

    #[test]
    fn recv_reduce_accumulates_in_order() {
        let c = Color::new(1);
        let mut prog = PeProgram::new();
        prog.recv_reduce(c, 0, 2, ReduceOp::Sum);
        let mut pe = pe_with(&prog, &[10.0, 20.0]);
        assert!(pe.offer_ramp_down(0, Wavelet::from_f32(c, 1.5)));
        assert!(pe.offer_ramp_down(1, Wavelet::from_f32(c, 2.5)));
        assert!(pe.step(0, TR).is_ok());
        let _ = pe.step(0, TR);
        // Only one wavelet is consumed per cycle.
        assert_eq!(pe.stats().received, 1);
        let _ = pe.step(1, TR);
        assert!(pe.finished());
        assert_eq!(pe.local()[0], 11.5);
        assert_eq!(pe.local()[1], 22.5);
    }

    #[test]
    fn recv_rejects_unexpected_color() {
        let mut prog = PeProgram::new();
        prog.recv_store(Color::new(0), 0, 1);
        let mut pe = pe_with(&prog, &[0.0]);
        pe.offer_ramp_down(0, Wavelet::from_f32(Color::new(5), 1.0));
        let err = pe.step(0, TR).unwrap_err();
        assert!(err.message.contains("expected a wavelet"));
    }

    #[test]
    fn recv_forward_combines_and_forwards_with_processing_latency() {
        let red = Color::new(0);
        let blue = Color::new(1);
        let mut prog = PeProgram::new();
        prog.recv_forward(red, blue, 0, 1, ReduceOp::Sum, true);
        let mut pe = pe_with(&prog, &[10.0]);
        pe.offer_ramp_down(0, Wavelet::from_f32(red, 4.0));
        assert!(pe.step(5, TR).unwrap());
        assert!(pe.finished());
        assert_eq!(pe.local()[0], 14.0);
        // Combined wavelet leaves on the send color after one processing
        // cycle plus the ramp latency.
        assert_eq!(pe.ramp_up_head(5 + TR), None);
        let w = pe.ramp_up_head(5 + 1 + TR).expect("forwarded wavelet");
        assert_eq!(w.color, blue);
        assert_eq!(w.as_f32(), 14.0);
    }

    #[test]
    fn recv_forward_without_keep_preserves_local_value() {
        let red = Color::new(0);
        let blue = Color::new(1);
        let mut prog = PeProgram::new();
        prog.recv_forward(red, blue, 0, 1, ReduceOp::Sum, false);
        let mut pe = pe_with(&prog, &[10.0]);
        pe.offer_ramp_down(0, Wavelet::from_f32(red, 4.0));
        pe.step(0, TR).unwrap();
        assert_eq!(pe.local()[0], 10.0);
        assert_eq!(pe.ramp_up_head(3).unwrap().as_f32(), 14.0);
    }

    #[test]
    fn compute_busy_waits() {
        let mut prog = PeProgram::new();
        prog.compute(3);
        let mut pe = pe_with(&prog, &[]);
        for now in 0..3 {
            assert!(!pe.finished());
            pe.step(now, TR).unwrap();
        }
        assert!(pe.finished());
        assert_eq!(pe.finish_cycle(), Some(2));
    }

    #[test]
    fn noop_injection_delays_progress() {
        let mut prog = PeProgram::new();
        prog.compute(1);
        let mut pe = pe_with(&prog, &[]);
        pe.inject_noops(2);
        pe.step(0, TR).unwrap();
        pe.step(1, TR).unwrap();
        assert!(!pe.finished());
        pe.step(2, TR).unwrap();
        assert!(pe.finished());
        assert_eq!(pe.stats().noop_cycles, 2);
    }

    #[test]
    fn stalls_are_counted_when_nothing_arrives() {
        let mut prog = PeProgram::new();
        prog.recv_store(Color::new(0), 0, 1);
        let mut pe = pe_with(&prog, &[0.0]);
        for now in 0..4 {
            assert!(!pe.step(now, TR).unwrap());
        }
        assert_eq!(pe.stats().stall_cycles, 4);
        assert!(!pe.finished());
    }

    #[test]
    fn last_control_marks_only_final_wavelet() {
        let c = Color::new(0);
        let mut prog = PeProgram::new();
        prog.send_with_control(c, 0, 2);
        let mut pe = pe_with(&prog, &[1.0, 2.0]);
        pe.step(0, TR).unwrap();
        pe.step(1, TR).unwrap();
        let first = pe.pop_ramp_up();
        let second = pe.pop_ramp_up();
        assert!(!first.control);
        assert!(second.control);
    }

    #[test]
    fn exchange_sends_and_receives_independently() {
        use crate::program::RecvMode;
        let tx = Color::new(0);
        let rx = Color::new(1);
        let mut prog = PeProgram::new();
        prog.exchange(tx, 0, rx, 2, 2, RecvMode::Reduce(ReduceOp::Sum));
        let mut pe = pe_with(&prog, &[1.0, 2.0, 10.0, 20.0]);
        // Nothing has arrived yet: the PE still makes progress by sending.
        assert!(pe.step(0, TR).unwrap());
        assert!(pe.step(1, TR).unwrap());
        assert_eq!(pe.stats().sent, 2);
        assert!(!pe.finished());
        // Now the two incoming wavelets arrive and are accumulated.
        pe.offer_ramp_down(2, Wavelet::from_f32(rx, 5.0));
        pe.offer_ramp_down(3, Wavelet::from_f32(rx, 7.0));
        assert!(pe.step(2, TR).unwrap());
        assert!(pe.step(3, TR).unwrap());
        assert!(pe.finished());
        assert_eq!(pe.local()[2], 15.0);
        assert_eq!(pe.local()[3], 27.0);
        assert_eq!(pe.pop_ramp_up().as_f32(), 1.0);
        assert_eq!(pe.pop_ramp_up().as_f32(), 2.0);
    }

    #[test]
    fn ramp_down_capacity_applies_backpressure() {
        let mut pe = PeState::new(0, TR);
        pe.set_program(&PeProgram::new());
        let c = Color::new(0);
        let capacity = TR as usize + RAMP_EXTRA_CAPACITY;
        for i in 0..capacity {
            assert!(pe.offer_ramp_down(0, Wavelet::data(c, i as u32)));
        }
        assert!(!pe.offer_ramp_down(0, Wavelet::data(c, 99)));
        assert!(!pe.ramp_down_has_space());
    }
}
