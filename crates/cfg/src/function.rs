//! Per-function basic-block graphs decoded from machine code.

use std::collections::{BTreeSet, HashMap};

use pwcet_mips::{BinaryImage, Instruction, INSTRUCTION_BYTES};

use crate::error::CfgError;

/// Identifier of a basic block within one [`FunctionCfg`].
pub type BlockId = usize;

/// The address range of one function in the image.
///
/// # Example
///
/// ```
/// let f = pwcet_cfg::FunctionExtent::new("main", 0x0040_0000, 0x0040_0020);
/// assert!(f.contains(0x0040_001c));
/// assert!(!f.contains(0x0040_0020));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunctionExtent {
    name: String,
    entry: u32,
    end: u32,
}

impl FunctionExtent {
    /// Creates an extent `[entry, end)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or misaligned.
    pub fn new(name: impl Into<String>, entry: u32, end: u32) -> Self {
        assert!(entry < end, "function extent must be non-empty");
        assert_eq!(entry % INSTRUCTION_BYTES, 0, "entry must be aligned");
        assert_eq!(end % INSTRUCTION_BYTES, 0, "end must be aligned");
        Self {
            name: name.into(),
            entry,
            end,
        }
    }

    /// The function name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Address of the first instruction.
    pub fn entry(&self) -> u32 {
        self.entry
    }

    /// One past the last instruction.
    pub fn end(&self) -> u32 {
        self.end
    }

    /// `true` if `addr` is inside the function.
    pub fn contains(&self, addr: u32) -> bool {
        addr >= self.entry && addr < self.end
    }
}

/// A maximal straight-line run of instructions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BasicBlock {
    id: BlockId,
    addrs: Vec<u32>,
}

impl BasicBlock {
    /// The block id.
    pub fn id(&self) -> BlockId {
        self.id
    }

    /// The instruction addresses, in execution order.
    pub fn addrs(&self) -> &[u32] {
        &self.addrs
    }

    /// Address of the first instruction.
    pub fn start(&self) -> u32 {
        self.addrs[0]
    }

    /// Address of the last instruction.
    pub fn last(&self) -> u32 {
        *self.addrs.last().expect("blocks are non-empty")
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// Basic blocks are never empty; provided for API completeness.
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// A `jal` call site within a function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallSite {
    /// The block whose last instruction is the `jal`.
    pub block: BlockId,
    /// Address of the `jal` instruction.
    pub site: u32,
    /// Entry address of the callee.
    pub callee_entry: u32,
}

/// The control-flow graph of one function.
///
/// Call sites are summarized: a block ending in `jal` has a *sequential*
/// successor edge to its return block, so function-local structure (loops,
/// dominators) is computed as if calls were atomic instructions. Virtual
/// inlining (in [`crate::ExpandedCfg`]) later replaces those edges with the
/// callee's body.
#[derive(Debug, Clone)]
pub struct FunctionCfg {
    extent: FunctionExtent,
    blocks: Vec<BasicBlock>,
    succs: Vec<Vec<BlockId>>,
    entry: BlockId,
    /// Blocks ending with `jr` (function returns).
    exits: Vec<BlockId>,
    /// Blocks ending with `break` (program termination).
    terminals: Vec<BlockId>,
    calls: Vec<CallSite>,
}

impl FunctionCfg {
    /// Decodes the function body and reconstructs its basic blocks.
    ///
    /// # Errors
    ///
    /// * [`CfgError::Decode`] — undecodable machine word.
    /// * [`CfgError::InterFunctionBranch`] — a branch or `j` leaves the
    ///   function (calls must use `jal`).
    pub fn build(image: &BinaryImage, extent: &FunctionExtent) -> Result<Self, CfgError> {
        let mut instructions: HashMap<u32, Instruction> = HashMap::new();
        let mut addr = extent.entry();
        while addr < extent.end() {
            instructions.insert(addr, image.decode_at(addr)?);
            addr += INSTRUCTION_BYTES;
        }

        // Leaders: function entry, targets of local transfers, and fall-
        // through successors of every control-flow instruction.
        let mut leaders: BTreeSet<u32> = BTreeSet::new();
        leaders.insert(extent.entry());
        for (&a, inst) in &instructions {
            if !inst.is_control_flow() {
                continue;
            }
            if let Some(target) = inst.static_target(a) {
                let is_call = matches!(inst, Instruction::Jal { .. });
                if is_call {
                    // Callee may be anywhere; the return point is a leader.
                } else if extent.contains(target) {
                    leaders.insert(target);
                } else {
                    return Err(CfgError::InterFunctionBranch { from: a, target });
                }
            }
            if a + INSTRUCTION_BYTES < extent.end() {
                leaders.insert(a + INSTRUCTION_BYTES);
            }
        }

        // Carve blocks between leaders.
        let leader_list: Vec<u32> = leaders.iter().copied().collect();
        let mut blocks = Vec::new();
        let mut block_of_addr: HashMap<u32, BlockId> = HashMap::new();
        for (i, &start) in leader_list.iter().enumerate() {
            let end = leader_list
                .get(i + 1)
                .copied()
                .unwrap_or_else(|| extent.end());
            let addrs: Vec<u32> = (start..end).step_by(INSTRUCTION_BYTES as usize).collect();
            let id = blocks.len();
            for &a in &addrs {
                block_of_addr.insert(a, id);
            }
            blocks.push(BasicBlock { id, addrs });
        }

        // Edges.
        let mut succs: Vec<Vec<BlockId>> = vec![Vec::new(); blocks.len()];
        let mut exits = Vec::new();
        let mut terminals = Vec::new();
        let mut calls = Vec::new();
        for block in &blocks {
            let last = block.last();
            let inst = instructions[&last];
            let push = |from: BlockId, to: BlockId, succs: &mut Vec<Vec<BlockId>>| {
                if !succs[from].contains(&to) {
                    succs[from].push(to);
                }
            };
            match inst {
                Instruction::Jr { .. } => exits.push(block.id),
                Instruction::Break { .. } => terminals.push(block.id),
                Instruction::Jal { .. } => {
                    let callee_entry = inst
                        .static_target(last)
                        .expect("jal always has a static target");
                    calls.push(CallSite {
                        block: block.id,
                        site: last,
                        callee_entry,
                    });
                    // Sequential return edge (replaced during inlining).
                    if let Some(&next) = block_of_addr.get(&(last + INSTRUCTION_BYTES)) {
                        push(block.id, next, &mut succs);
                    }
                }
                Instruction::J { .. } => {
                    let target = inst.static_target(last).expect("j has a static target");
                    push(block.id, block_of_addr[&target], &mut succs);
                }
                _ if inst.is_conditional_branch() => {
                    let target = inst
                        .static_target(last)
                        .expect("branches have static targets");
                    push(block.id, block_of_addr[&target], &mut succs);
                    if let Some(&next) = block_of_addr.get(&(last + INSTRUCTION_BYTES)) {
                        push(block.id, next, &mut succs);
                    }
                }
                _ => {
                    // Straight-line fall into the next leader.
                    if let Some(&next) = block_of_addr.get(&(last + INSTRUCTION_BYTES)) {
                        push(block.id, next, &mut succs);
                    }
                }
            }
        }

        Ok(Self {
            extent: extent.clone(),
            blocks,
            succs,
            entry: 0,
            exits,
            terminals,
            calls,
        })
    }

    /// The function extent.
    pub fn extent(&self) -> &FunctionExtent {
        &self.extent
    }

    /// The function name.
    pub fn name(&self) -> &str {
        self.extent.name()
    }

    /// All basic blocks; `blocks()[id].id() == id`.
    pub fn blocks(&self) -> &[BasicBlock] {
        &self.blocks
    }

    /// Successor lists, indexed by block id.
    pub fn succs(&self) -> &[Vec<BlockId>] {
        &self.succs
    }

    /// The entry block (always id 0: the block at the function entry).
    pub fn entry(&self) -> BlockId {
        self.entry
    }

    /// Blocks ending with `jr` (returns).
    pub fn exits(&self) -> &[BlockId] {
        &self.exits
    }

    /// Blocks ending with `break` (program termination).
    pub fn terminals(&self) -> &[BlockId] {
        &self.terminals
    }

    /// All call sites.
    pub fn calls(&self) -> &[CallSite] {
        &self.calls
    }

    /// The call site whose `jal` ends `block`, if any.
    pub fn call_at(&self, block: BlockId) -> Option<&CallSite> {
        self.calls.iter().find(|c| c.block == block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwcet_mips::{Assembler, Reg};

    /// Assembles: counted loop of 3 iterations around 2 compute
    /// instructions, then break.
    fn loop_image() -> (BinaryImage, FunctionExtent) {
        let mut asm = Assembler::new(0x0040_0000);
        asm.push(Instruction::Addiu {
            rt: Reg::S0,
            rs: Reg::ZERO,
            imm: 3,
        }); // 0x00
        asm.label("head");
        asm.push(Instruction::Addu {
            rd: Reg::T0,
            rs: Reg::T0,
            rt: Reg::T1,
        }); // 0x04
        asm.push(Instruction::Addiu {
            rt: Reg::S0,
            rs: Reg::S0,
            imm: -1,
        }); // 0x08
        asm.bne(Reg::S0, Reg::ZERO, "head"); // 0x0c
        asm.push(Instruction::Break { code: 0 }); // 0x10
        let image = asm.assemble().unwrap();
        let extent = FunctionExtent::new("main", 0x0040_0000, image.end());
        (image, extent)
    }

    #[test]
    fn loop_blocks_and_edges() {
        let (image, extent) = loop_image();
        let cfg = FunctionCfg::build(&image, &extent).unwrap();
        // Blocks: [init], [head..bne], [break].
        assert_eq!(cfg.blocks().len(), 3);
        assert_eq!(cfg.blocks()[0].addrs(), &[0x0040_0000]);
        assert_eq!(
            cfg.blocks()[1].addrs(),
            &[0x0040_0004, 0x0040_0008, 0x0040_000c]
        );
        assert_eq!(cfg.blocks()[2].addrs(), &[0x0040_0010]);
        assert_eq!(cfg.succs()[0], vec![1]);
        // Back edge first (branch target), then fall-through.
        assert_eq!(cfg.succs()[1], vec![1, 2]);
        assert!(cfg.succs()[2].is_empty());
        assert_eq!(cfg.terminals(), &[2]);
        assert!(cfg.exits().is_empty());
    }

    #[test]
    fn call_site_recorded_with_sequential_edge() {
        let mut asm = Assembler::new(0x0040_0000);
        asm.jal("callee"); // 0x00
        asm.push(Instruction::Break { code: 0 }); // 0x04
        asm.label("callee");
        asm.push(Instruction::Jr { rs: Reg::RA }); // 0x08
        let image = asm.assemble().unwrap();

        let main = FunctionExtent::new("main", 0x0040_0000, 0x0040_0008);
        let cfg = FunctionCfg::build(&image, &main).unwrap();
        assert_eq!(cfg.calls().len(), 1);
        let call = cfg.calls()[0];
        assert_eq!(call.site, 0x0040_0000);
        assert_eq!(call.callee_entry, 0x0040_0008);
        assert_eq!(cfg.succs()[call.block], vec![1]); // return edge

        let callee = FunctionExtent::new("callee", 0x0040_0008, 0x0040_000c);
        let ccfg = FunctionCfg::build(&image, &callee).unwrap();
        assert_eq!(ccfg.exits(), &[0]);
    }

    #[test]
    fn diamond_from_conditional_branch() {
        let mut asm = Assembler::new(0);
        asm.beq(Reg::T9, Reg::ZERO, "else"); // 0x00
        asm.push(Instruction::NOP); // 0x04 (then)
        asm.j("end"); // 0x08
        asm.label("else");
        asm.push(Instruction::NOP); // 0x0c
        asm.label("end");
        asm.push(Instruction::Break { code: 0 }); // 0x10
        let image = asm.assemble().unwrap();
        let cfg = FunctionCfg::build(&image, &FunctionExtent::new("main", 0, 0x14)).unwrap();
        assert_eq!(cfg.blocks().len(), 4);
        // Branch block -> {else, then}.
        let mut s = cfg.succs()[0].clone();
        s.sort_unstable();
        assert_eq!(s, vec![1, 2]);
        // then (j) -> end; else -> end.
        assert_eq!(cfg.succs()[1], vec![3]);
        assert_eq!(cfg.succs()[2], vec![3]);
    }

    #[test]
    fn branch_outside_function_is_rejected() {
        let mut asm = Assembler::new(0);
        asm.label("out");
        asm.push(Instruction::NOP); // 0x00 — not part of the function below
        asm.bne(Reg::T0, Reg::ZERO, "out"); // 0x04
        asm.push(Instruction::Break { code: 0 }); // 0x08
        let image = asm.assemble().unwrap();
        let result = FunctionCfg::build(&image, &FunctionExtent::new("f", 0x04, 0x0c));
        assert!(matches!(
            result,
            Err(CfgError::InterFunctionBranch {
                from: 0x04,
                target: 0
            })
        ));
    }

    #[test]
    fn extent_validation() {
        let e = FunctionExtent::new("f", 0x100, 0x104);
        assert_eq!(e.name(), "f");
        assert!(e.contains(0x100));
        assert!(!e.contains(0x104));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_extent_panics() {
        let _ = FunctionExtent::new("f", 0x100, 0x100);
    }
}
