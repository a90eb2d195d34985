//! Virtual inlining: the whole-program expanded control-flow graph.
//!
//! Heptane-style context expansion duplicates each function body once per
//! call context. Duplicated nodes keep their original instruction
//! *addresses* — the cache analysis therefore sees the same memory blocks
//! in every context while classifying each context independently (full
//! context sensitivity).

use std::collections::{BTreeSet, HashMap};

use pwcet_mips::BinaryImage;

use crate::error::CfgError;
use crate::function::{BlockId, FunctionCfg, FunctionExtent};
use crate::graph;

/// Identifier of a node of the expanded graph.
pub type NodeId = usize;
/// Identifier of a call context.
pub type ContextId = usize;
/// Identifier of a natural loop of the expanded graph.
pub type LoopId = usize;

/// A call context: the chain of `jal` site addresses from `main` (empty for
/// the root context).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Context {
    call_string: Vec<u32>,
}

impl Context {
    /// The `jal` addresses from outermost to innermost.
    pub fn call_string(&self) -> &[u32] {
        &self.call_string
    }

    /// The context obtained by entering a call at `site`.
    #[must_use]
    pub fn push(&self, site: u32) -> Context {
        let mut call_string = self.call_string.clone();
        call_string.push(site);
        Context { call_string }
    }
}

/// One basic block instance of the expanded graph: an original basic block
/// specialized to a call context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExpandedNode {
    id: NodeId,
    context: ContextId,
    function: String,
    orig_block: BlockId,
    addrs: Vec<u32>,
}

impl ExpandedNode {
    /// The node id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The call context this instance belongs to.
    pub fn context(&self) -> ContextId {
        self.context
    }

    /// Name of the containing function.
    pub fn function(&self) -> &str {
        &self.function
    }

    /// Id of the original basic block within its [`FunctionCfg`].
    pub fn orig_block(&self) -> BlockId {
        self.orig_block
    }

    /// The instruction addresses fetched when this node executes (empty
    /// only for the synthetic exit node).
    pub fn addrs(&self) -> &[u32] {
        &self.addrs
    }
}

/// A natural loop of the expanded graph, annotated with its bound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NaturalLoop {
    /// Loop id (index into [`ExpandedCfg::loops`]).
    pub id: LoopId,
    /// The header node (target of all back edges).
    pub header: NodeId,
    /// Maximum header executions per loop entry (from the annotation).
    pub bound: u32,
    /// All member nodes, header included. Inlined callee bodies called
    /// from inside the loop are members too.
    pub nodes: BTreeSet<NodeId>,
    /// Back edges `(latch, header)`.
    pub back_edges: Vec<(NodeId, NodeId)>,
    /// Edges entering the loop from outside `(from, header)`.
    pub entry_edges: Vec<(NodeId, NodeId)>,
    /// Innermost enclosing loop.
    pub parent: Option<LoopId>,
    /// Nesting depth (outermost = 0).
    pub depth: usize,
}

/// The whole-program control-flow graph after virtual inlining.
///
/// See the [crate docs](crate) for a construction example.
#[derive(Debug, Clone)]
pub struct ExpandedCfg {
    nodes: Vec<ExpandedNode>,
    succs: Vec<Vec<NodeId>>,
    preds: Vec<Vec<NodeId>>,
    entry: NodeId,
    exit: NodeId,
    contexts: Vec<Context>,
    loops: Vec<NaturalLoop>,
    innermost_loop: Vec<Option<LoopId>>,
}

impl ExpandedCfg {
    /// Builds the expanded graph for a whole program.
    ///
    /// `bounds` maps loop header *addresses* to bounds (maximum header
    /// executions per loop entry), as produced by `pwcet-progen`.
    ///
    /// # Errors
    ///
    /// Per-function reconstruction errors ([`CfgError::Decode`],
    /// [`CfgError::InterFunctionBranch`]), plus:
    ///
    /// * [`CfgError::CallIntoBody`] — a `jal` target is no function entry.
    /// * [`CfgError::MissingLoopBound`] — an unannotated loop.
    /// * [`CfgError::Irreducible`] — non-natural cycle.
    /// * [`CfgError::NoExit`] — the program cannot terminate.
    pub fn build(
        image: &BinaryImage,
        extents: &[FunctionExtent],
        bounds: &[(u32, u32)],
    ) -> Result<Self, CfgError> {
        let mut function_cfgs: HashMap<u32, FunctionCfg> = HashMap::new();
        for extent in extents {
            function_cfgs.insert(extent.entry(), FunctionCfg::build(image, extent)?);
        }
        let main = extents
            .iter()
            .find(|e| e.name() == "main")
            .unwrap_or_else(|| &extents[0]);

        let mut builder = Builder {
            function_cfgs: &function_cfgs,
            nodes: Vec::new(),
            succs: Vec::new(),
            contexts: vec![Context::default()],
            terminals: Vec::new(),
        };
        let (entry, _) = builder.expand(main.entry(), 0)?;

        // Unique program exit: the single `break` terminal, or a synthetic
        // sink if there are several.
        let exit = match builder.terminals.len() {
            0 => return Err(CfgError::NoExit(main.name().to_string())),
            1 => builder.terminals[0],
            _ => {
                let id = builder.nodes.len();
                builder.nodes.push(ExpandedNode {
                    id,
                    context: 0,
                    function: "<exit>".to_string(),
                    orig_block: usize::MAX,
                    addrs: Vec::new(),
                });
                builder.succs.push(Vec::new());
                for &t in &builder.terminals {
                    builder.succs[t].push(id);
                }
                id
            }
        };

        let Builder {
            nodes,
            succs,
            contexts,
            ..
        } = builder;

        let mut preds: Vec<Vec<NodeId>> = vec![Vec::new(); nodes.len()];
        for (u, outs) in succs.iter().enumerate() {
            for &v in outs {
                preds[v].push(u);
            }
        }

        // Loops on the expanded graph.
        let raw_loops =
            graph::natural_loops(&succs, entry).map_err(|(u, v)| CfgError::Irreducible {
                from: nodes[u].addrs.first().copied().unwrap_or(0),
                to: nodes[v].addrs.first().copied().unwrap_or(0),
            })?;
        let bound_map: HashMap<u32, u32> = bounds.iter().copied().collect();
        let mut loops = Vec::with_capacity(raw_loops.len());
        for (id, info) in raw_loops.into_iter().enumerate() {
            let header_addr = nodes[info.header].addrs.first().copied().unwrap_or(0);
            let bound = *bound_map
                .get(&header_addr)
                .ok_or(CfgError::MissingLoopBound {
                    header: header_addr,
                })?;
            let entry_edges: Vec<(NodeId, NodeId)> = preds[info.header]
                .iter()
                .filter(|p| !info.nodes.contains(p))
                .map(|&p| (p, info.header))
                .collect();
            loops.push(NaturalLoop {
                id,
                header: info.header,
                bound,
                nodes: info.nodes,
                back_edges: info.back_edges,
                entry_edges,
                parent: info.parent,
                depth: info.depth,
            });
        }

        // Innermost loop per node: deeper loops overwrite shallower ones.
        let mut innermost_loop: Vec<Option<LoopId>> = vec![None; nodes.len()];
        let mut by_depth: Vec<&NaturalLoop> = loops.iter().collect();
        by_depth.sort_by_key(|l| l.depth);
        for l in by_depth {
            for &n in &l.nodes {
                innermost_loop[n] = Some(l.id);
            }
        }

        Ok(Self {
            nodes,
            succs,
            preds,
            entry,
            exit,
            contexts,
            loops,
            innermost_loop,
        })
    }

    /// All nodes; `nodes()[id].id() == id`.
    pub fn nodes(&self) -> &[ExpandedNode] {
        &self.nodes
    }

    /// A single node.
    pub fn node(&self, id: NodeId) -> &ExpandedNode {
        &self.nodes[id]
    }

    /// Successor lists indexed by node id.
    pub fn succs(&self) -> &[Vec<NodeId>] {
        &self.succs
    }

    /// Predecessor lists indexed by node id.
    pub fn preds(&self) -> &[Vec<NodeId>] {
        &self.preds
    }

    /// The program entry node (`main`'s first block).
    pub fn entry(&self) -> NodeId {
        self.entry
    }

    /// The unique program exit node.
    pub fn exit(&self) -> NodeId {
        self.exit
    }

    /// All call contexts; index 0 is the root.
    pub fn contexts(&self) -> &[Context] {
        &self.contexts
    }

    /// All natural loops, annotated with bounds.
    pub fn loops(&self) -> &[NaturalLoop] {
        &self.loops
    }

    /// The innermost loop containing `node`, if any.
    pub fn innermost_loop(&self, node: NodeId) -> Option<LoopId> {
        self.innermost_loop[node]
    }

    /// Iterates from the innermost loop containing `node` outward.
    pub fn loops_containing(&self, node: NodeId) -> impl Iterator<Item = &NaturalLoop> + '_ {
        let mut cursor = self.innermost_loop(node);
        std::iter::from_fn(move || {
            let id = cursor?;
            cursor = self.loops[id].parent;
            Some(&self.loops[id])
        })
    }

    /// All edges `(from, to)` in a stable order.
    pub fn edges(&self) -> Vec<(NodeId, NodeId)> {
        let mut out = Vec::new();
        for (u, outs) in self.succs.iter().enumerate() {
            for &v in outs {
                out.push((u, v));
            }
        }
        out
    }

    /// Total number of instruction fetch references across all nodes.
    pub fn total_refs(&self) -> usize {
        self.nodes.iter().map(|n| n.addrs.len()).sum()
    }

    /// Reverse postorder of the node ids (for worklist iteration).
    pub fn reverse_postorder(&self) -> Vec<NodeId> {
        graph::reverse_postorder(&self.succs, self.entry)
    }
}

struct Builder<'a> {
    function_cfgs: &'a HashMap<u32, FunctionCfg>,
    nodes: Vec<ExpandedNode>,
    succs: Vec<Vec<NodeId>>,
    contexts: Vec<Context>,
    terminals: Vec<NodeId>,
}

impl Builder<'_> {
    /// Expands one function instance; returns its entry node and the node
    /// instances of its `jr` exit blocks.
    fn expand(
        &mut self,
        function_entry: u32,
        context: ContextId,
    ) -> Result<(NodeId, Vec<NodeId>), CfgError> {
        let fcfg = self.function_cfgs.get(&function_entry).ok_or({
            // Reported with the callee address; the caller fills `from`.
            CfgError::CallIntoBody {
                from: 0,
                target: function_entry,
            }
        })?;

        // Instantiate all blocks of this function for this context.
        let base = self.nodes.len();
        for block in fcfg.blocks() {
            let id = self.nodes.len();
            self.nodes.push(ExpandedNode {
                id,
                context,
                function: fcfg.name().to_string(),
                orig_block: block.id(),
                addrs: block.addrs().to_vec(),
            });
            self.succs.push(Vec::new());
        }
        let node_of = |block: BlockId| base + block;

        for block in fcfg.blocks() {
            let from = node_of(block.id());
            if let Some(call) = fcfg.call_at(block.id()) {
                // Replace the sequential return edge by the callee body.
                let child_context = self.contexts[context].push(call.site);
                let child_id = self.contexts.len();
                self.contexts.push(child_context);
                let (callee_entry_node, callee_exits) = self
                    .expand(call.callee_entry, child_id)
                    .map_err(|e| match e {
                        CfgError::CallIntoBody { from: 0, target } => CfgError::CallIntoBody {
                            from: call.site,
                            target,
                        },
                        other => other,
                    })?;
                self.succs[from].push(callee_entry_node);
                debug_assert!(
                    fcfg.succs()[block.id()].len() <= 1,
                    "call blocks have at most the return successor"
                );
                for &ret in &fcfg.succs()[block.id()] {
                    let ret_node = node_of(ret);
                    for &exit in &callee_exits {
                        self.succs[exit].push(ret_node);
                    }
                }
            } else {
                for &s in &fcfg.succs()[block.id()] {
                    self.succs[from].push(node_of(s));
                }
            }
        }

        self.terminals
            .extend(fcfg.terminals().iter().map(|&b| node_of(b)));
        let exits = fcfg.exits().iter().map(|&b| node_of(b)).collect();
        Ok((node_of(fcfg.entry()), exits))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwcet_progen::{stmt, Program};

    fn build(program: Program) -> ExpandedCfg {
        let compiled = program.compile(0x0040_0000).expect("compiles");
        let extents: Vec<FunctionExtent> = compiled
            .functions()
            .iter()
            .map(|f| FunctionExtent::new(f.name(), f.entry(), f.end()))
            .collect();
        let bounds: Vec<(u32, u32)> = compiled
            .loop_bounds()
            .iter()
            .map(|lb| (lb.header, lb.bound))
            .collect();
        ExpandedCfg::build(compiled.image(), &extents, &bounds).expect("expands")
    }

    #[test]
    fn straight_line_program_is_a_chain() {
        let cfg = build(Program::new("s").with_function("main", stmt::compute(4)));
        // One block: prologue + compute + break has no internal control flow.
        assert_eq!(cfg.nodes().len(), 1);
        assert_eq!(cfg.entry(), cfg.exit());
        assert!(cfg.loops().is_empty());
        assert_eq!(cfg.total_refs(), 8); // 3 prologue + 4 compute + 1 break
    }

    #[test]
    fn loop_structure_with_bound() {
        let cfg = build(Program::new("l").with_function("main", stmt::loop_(6, stmt::compute(2))));
        assert_eq!(cfg.loops().len(), 1);
        let l = &cfg.loops()[0];
        assert_eq!(l.bound, 6);
        assert_eq!(l.back_edges.len(), 1);
        assert_eq!(l.entry_edges.len(), 1);
        assert_eq!(l.depth, 0);
        assert_eq!(cfg.innermost_loop(l.header), Some(l.id));
        assert_eq!(cfg.innermost_loop(cfg.entry()), None);
    }

    #[test]
    fn nested_loops_have_parent_links() {
        let cfg = build(
            Program::new("n")
                .with_function("main", stmt::loop_(3, stmt::loop_(5, stmt::compute(1)))),
        );
        assert_eq!(cfg.loops().len(), 2);
        let outer = cfg.loops().iter().find(|l| l.bound == 3).unwrap();
        let inner = cfg.loops().iter().find(|l| l.bound == 5).unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(inner.depth, 1);
        assert!(outer.nodes.is_superset(&inner.nodes));
        // Walking outward from the inner header sees both loops.
        let chain: Vec<LoopId> = cfg.loops_containing(inner.header).map(|l| l.id).collect();
        assert_eq!(chain, vec![inner.id, outer.id]);
    }

    #[test]
    fn call_is_inlined_per_context() {
        let cfg = build(
            Program::new("c")
                .with_function("main", stmt::seq([stmt::call("f"), stmt::call("f")]))
                .with_function("f", stmt::compute(2)),
        );
        // Two contexts for f plus the root.
        assert_eq!(cfg.contexts().len(), 3);
        let f_instances: Vec<&ExpandedNode> =
            cfg.nodes().iter().filter(|n| n.function() == "f").collect();
        assert_eq!(f_instances.len(), 2);
        // Same addresses (same code), different contexts.
        assert_eq!(f_instances[0].addrs(), f_instances[1].addrs());
        assert_ne!(f_instances[0].context(), f_instances[1].context());
        // Call strings name the two different jal sites.
        let c1 = &cfg.contexts()[f_instances[0].context()];
        let c2 = &cfg.contexts()[f_instances[1].context()];
        assert_ne!(c1.call_string(), c2.call_string());
        assert_eq!(c1.call_string().len(), 1);
    }

    #[test]
    fn loop_containing_call_includes_callee_nodes() {
        let cfg = build(
            Program::new("lc")
                .with_function("main", stmt::loop_(4, stmt::call("f")))
                .with_function("f", stmt::compute(3)),
        );
        assert_eq!(cfg.loops().len(), 1);
        let l = &cfg.loops()[0];
        let f_nodes: Vec<NodeId> = cfg
            .nodes()
            .iter()
            .filter(|n| n.function() == "f")
            .map(|n| n.id())
            .collect();
        assert!(!f_nodes.is_empty());
        for n in f_nodes {
            assert!(l.nodes.contains(&n), "callee body is part of the loop");
        }
    }

    #[test]
    fn if_else_creates_diamond() {
        let cfg = build(
            Program::new("d")
                .with_function("main", stmt::if_else(stmt::compute(1), stmt::compute(2))),
        );
        // entry(+prelude), then, else, join(+break).
        assert_eq!(cfg.nodes().len(), 4);
        assert_eq!(cfg.succs()[cfg.entry()].len(), 2);
        assert_eq!(cfg.preds()[cfg.exit()].len(), 2);
        assert!(cfg.loops().is_empty());
    }

    #[test]
    fn every_node_reachable_and_reaches_exit() {
        let cfg = build(
            Program::new("r")
                .with_function(
                    "main",
                    stmt::seq([
                        stmt::loop_(2, stmt::if_else(stmt::call("f"), stmt::compute(1))),
                        stmt::call("g"),
                    ]),
                )
                .with_function("f", stmt::compute(2))
                .with_function("g", stmt::loop_(3, stmt::compute(1))),
        );
        let rpo = cfg.reverse_postorder();
        assert_eq!(rpo.len(), cfg.nodes().len(), "all nodes reachable");
        // Reverse reachability from exit.
        let mut seen = vec![false; cfg.nodes().len()];
        let mut stack = vec![cfg.exit()];
        seen[cfg.exit()] = true;
        while let Some(n) = stack.pop() {
            for &p in &cfg.preds()[n] {
                if !seen[p] {
                    seen[p] = true;
                    stack.push(p);
                }
            }
        }
        assert!(seen.iter().all(|&s| s), "all nodes reach the exit");
    }

    #[test]
    fn total_refs_matches_tree_coverage() {
        let program = Program::new("cover")
            .with_function("main", stmt::seq([stmt::call("f"), stmt::call("f")]))
            .with_function("f", stmt::compute(5));
        let compiled = program.compile(0x0040_0000).unwrap();
        let cfg = build(program);
        // f appears twice in the expanded graph, so refs exceed the image.
        let f_len = compiled.function("f").unwrap();
        let f_words = ((f_len.end() - f_len.entry()) / 4) as usize;
        assert_eq!(cfg.total_refs(), compiled.image().len_words() + f_words);
    }

    #[test]
    fn missing_bound_is_reported() {
        let compiled = Program::new("mb")
            .with_function("main", stmt::loop_(2, stmt::compute(1)))
            .compile(0x0040_0000)
            .unwrap();
        let extents: Vec<FunctionExtent> = compiled
            .functions()
            .iter()
            .map(|f| FunctionExtent::new(f.name(), f.entry(), f.end()))
            .collect();
        let result = ExpandedCfg::build(compiled.image(), &extents, &[]);
        assert!(matches!(result, Err(CfgError::MissingLoopBound { .. })));
    }
}
