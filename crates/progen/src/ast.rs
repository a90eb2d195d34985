//! The structured program description.

use std::collections::{HashMap, HashSet};

use crate::codegen::{self, CompiledProgram};
use crate::error::ProgenError;

/// Cap on [`Program::expanded_instruction_bound`]. The 25 suite programs
/// expand to at most 2,577 instructions (nsichneu) and default-shaped
/// generator programs to about 5k, so the cap leaves an order of
/// magnitude of headroom; without it a few request bytes
/// (`compute(u32::MAX)`, or a chain of functions each calling the next
/// twice) ask compilation or context expansion for gigabytes.
pub const MAX_EXPANDED_INSTRUCTIONS: u64 = 1 << 16;

/// A statement of the structured DSL.
///
/// Statements are deliberately minimal: they capture exactly the control
/// structure that determines the instruction fetch stream (straight-line
/// runs, bounded loops, two-way branches, calls) and nothing else.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stmt {
    /// `count` straight-line ALU instructions (no memory traffic).
    Compute(u32),
    /// Statements executed in order.
    Seq(Vec<Stmt>),
    /// A counted loop whose body executes exactly `bound` times per entry.
    Loop {
        /// Number of body executions per loop entry (≥ 1).
        bound: u32,
        /// Loop body.
        body: Box<Stmt>,
    },
    /// A two-way branch. Generated code alternates sides deterministically
    /// at run time; the static analysis considers both.
    IfElse {
        /// Taken when the direction toggle is odd.
        then_branch: Box<Stmt>,
        /// Taken when the direction toggle is even.
        else_branch: Box<Stmt>,
    },
    /// A call to another function of the same program.
    Call(String),
}

/// Convenience constructors for [`Stmt`].
///
/// # Example
///
/// ```
/// use pwcet_progen::stmt;
///
/// let body = stmt::seq([
///     stmt::compute(4),
///     stmt::if_else(stmt::compute(2), stmt::compute(6)),
/// ]);
/// let nest = stmt::loop_(100, body);
/// ```
pub mod stmt {
    use super::Stmt;

    /// `count` straight-line instructions.
    pub fn compute(count: u32) -> Stmt {
        Stmt::Compute(count)
    }

    /// Statements in order.
    pub fn seq(stmts: impl IntoIterator<Item = Stmt>) -> Stmt {
        Stmt::Seq(stmts.into_iter().collect())
    }

    /// A counted loop executing `body` exactly `bound` times.
    pub fn loop_(bound: u32, body: Stmt) -> Stmt {
        Stmt::Loop {
            bound,
            body: Box::new(body),
        }
    }

    /// A two-way branch.
    pub fn if_else(then_branch: Stmt, else_branch: Stmt) -> Stmt {
        Stmt::IfElse {
            then_branch: Box::new(then_branch),
            else_branch: Box::new(else_branch),
        }
    }

    /// A call to the named function.
    pub fn call(name: impl Into<String>) -> Stmt {
        Stmt::Call(name.into())
    }
}

impl Stmt {
    /// Maximum loop nesting depth within this statement.
    pub fn loop_depth(&self) -> usize {
        match self {
            Stmt::Compute(_) | Stmt::Call(_) => 0,
            Stmt::Seq(items) => items.iter().map(Stmt::loop_depth).max().unwrap_or(0),
            Stmt::Loop { body, .. } => 1 + body.loop_depth(),
            Stmt::IfElse {
                then_branch,
                else_branch,
            } => then_branch.loop_depth().max(else_branch.loop_depth()),
        }
    }

    /// Names of all functions called (transitively within this statement).
    pub fn callees(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_callees(&mut out);
        out
    }

    fn collect_callees<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Stmt::Compute(_) => {}
            Stmt::Call(name) => out.push(name),
            Stmt::Seq(items) => items.iter().for_each(|s| s.collect_callees(out)),
            Stmt::Loop { body, .. } => body.collect_callees(out),
            Stmt::IfElse {
                then_branch,
                else_branch,
            } => {
                then_branch.collect_callees(out);
                else_branch.collect_callees(out);
            }
        }
    }
}

/// A named function with a structured body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Function {
    name: String,
    body: Stmt,
}

impl Function {
    /// Creates a function.
    pub fn new(name: impl Into<String>, body: Stmt) -> Self {
        Self {
            name: name.into(),
            body,
        }
    }

    /// The function name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The function body.
    pub fn body(&self) -> &Stmt {
        &self.body
    }
}

/// A whole structured program: a set of functions with `main` as entry.
///
/// # Example
///
/// ```
/// use pwcet_progen::{stmt, Program};
///
/// let p = Program::new("tiny").with_function("main", stmt::compute(3));
/// assert!(p.validate().is_ok());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    name: String,
    functions: Vec<Function>,
}

impl Program {
    /// Creates an empty program.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            functions: Vec::new(),
        }
    }

    /// Adds a function (builder style). `main` is the entry point and is
    /// emitted first, at the image base.
    #[must_use]
    pub fn with_function(mut self, name: impl Into<String>, body: Stmt) -> Self {
        self.functions.push(Function::new(name, body));
        self
    }

    /// The program name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The functions in declaration order.
    pub fn functions(&self) -> &[Function] {
        &self.functions
    }

    /// Looks up a function by name.
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions.iter().find(|f| f.name() == name)
    }

    /// Checks the static rules the code generator relies on.
    ///
    /// # Errors
    ///
    /// * [`ProgenError::MissingMain`] — no `main` function.
    /// * [`ProgenError::DuplicateFunction`] — a name is defined twice.
    /// * [`ProgenError::UndefinedFunction`] — a `call` has no target.
    /// * [`ProgenError::RecursiveCall`] — the call graph has a cycle.
    /// * [`ProgenError::ZeroLoopBound`] / [`ProgenError::LoopBoundTooLarge`]
    ///   — a loop bound is 0 or above `i16::MAX`.
    /// * [`ProgenError::LoopTooDeep`] — more than
    ///   [`MAX_LOOP_DEPTH`](crate::MAX_LOOP_DEPTH) nested loops.
    /// * [`ProgenError::ProgramTooLarge`] — the
    ///   [`expanded_instruction_bound`](Self::expanded_instruction_bound)
    ///   exceeds [`MAX_EXPANDED_INSTRUCTIONS`].
    pub fn validate(&self) -> Result<(), ProgenError> {
        let mut names = HashSet::new();
        for f in &self.functions {
            if !names.insert(f.name()) {
                return Err(ProgenError::DuplicateFunction(f.name().to_string()));
            }
        }
        if !names.contains("main") {
            return Err(ProgenError::MissingMain);
        }
        for f in &self.functions {
            check_stmt(f.body())?;
            for callee in f.body().callees() {
                if !names.contains(callee) {
                    return Err(ProgenError::UndefinedFunction(callee.to_string()));
                }
            }
        }
        let bound = self.bound_in(&self.call_order()?);
        if bound > MAX_EXPANDED_INSTRUCTIONS {
            return Err(ProgenError::ProgramTooLarge(bound));
        }
        Ok(())
    }

    /// An upper bound on the instructions of the context-expanded CFG:
    /// `main` with every call replaced by the callee's own expansion, plus
    /// every other function's code once (the image holds it whether or
    /// not it is called). Every statement counts at least one, so the
    /// bound caps the statement count too. Arithmetic saturates, and a
    /// recursive call graph reads `u64::MAX`; an undefined callee counts
    /// as empty.
    pub fn expanded_instruction_bound(&self) -> u64 {
        self.call_order()
            .map_or(u64::MAX, |order| self.bound_in(&order))
    }

    /// Compiles the program to machine code at `base`.
    ///
    /// # Errors
    ///
    /// All [`validate`](Self::validate) errors, plus
    /// [`ProgenError::Assembler`] if the emitted code fails to assemble
    /// (e.g. a function body too large for branch displacement).
    pub fn compile(&self, base: u32) -> Result<CompiledProgram, ProgenError> {
        self.validate()?;
        codegen::compile(self, base)
    }

    /// The functions with every function after all of its callees: the
    /// finishing order of a three-color depth-first search over the call
    /// graph. The search keeps its own stack, so a long call chain cannot
    /// overflow the thread's.
    ///
    /// # Errors
    ///
    /// [`ProgenError::RecursiveCall`] naming the function a cycle
    /// re-enters.
    fn call_order(&self) -> Result<Vec<&Function>, ProgenError> {
        #[derive(Clone, Copy, PartialEq)]
        enum Color {
            White,
            Gray,
            Black,
        }
        let graph: HashMap<&str, (&Function, Vec<&str>)> = self
            .functions
            .iter()
            .map(|f| (f.name(), (f, f.body().callees())))
            .collect();
        let mut color: HashMap<&str, Color> = graph.keys().map(|&k| (k, Color::White)).collect();
        let mut order = Vec::with_capacity(graph.len());
        for f in &self.functions {
            if color[f.name()] != Color::White {
                continue;
            }
            color.insert(f.name(), Color::Gray);
            // Each frame: a function being visited and its next call.
            let mut stack = vec![(f.name(), 0usize)];
            while let Some(top) = stack.last_mut() {
                let (node, call) = *top;
                let (function, callees) = &graph[node];
                match callees.get(call) {
                    Some(&callee) => {
                        top.1 += 1;
                        match color.get(callee) {
                            Some(Color::Gray) => {
                                return Err(ProgenError::RecursiveCall(callee.to_string()))
                            }
                            Some(Color::White) => {
                                color.insert(callee, Color::Gray);
                                stack.push((callee, 0));
                            }
                            _ => {}
                        }
                    }
                    None => {
                        color.insert(node, Color::Black);
                        order.push(*function);
                        stack.pop();
                    }
                }
            }
        }
        Ok(order)
    }

    /// [`expanded_instruction_bound`](Self::expanded_instruction_bound)
    /// over a [`call_order`](Self::call_order): each function's expansion
    /// is computed once, after its callees'.
    fn bound_in(&self, order: &[&Function]) -> u64 {
        let mut expanded: HashMap<&str, u64> = HashMap::with_capacity(order.len());
        for f in order {
            let calls = instruction_bound(f.body(), &mut |callee| {
                expanded.get(callee).copied().unwrap_or(0)
            });
            expanded.insert(f.name(), calls.saturating_add(frame_instructions(f)));
        }
        self.functions
            .iter()
            .filter(|f| f.name() != "main")
            .map(|f| instruction_bound(f.body(), &mut |_| 0).saturating_add(frame_instructions(f)))
            .fold(
                expanded.get("main").copied().unwrap_or(0),
                u64::saturating_add,
            )
    }
}

/// Instructions a function spends outside its body, as the code
/// generator emits them: `main`'s stack and toggle set-up plus `break`;
/// a callee's two stack adjustments, `$ra` and each saved loop counter
/// stored and restored, plus `jr`.
fn frame_instructions(function: &Function) -> u64 {
    if function.name() == "main" {
        4
    } else {
        5 + 2 * function.body().loop_depth() as u64
    }
}

/// The bound on the instructions `s` emits, each call costing its `jal`
/// plus what `callee` returns for the target. Mirrors the code
/// generator: a loop adds its counter set-up, decrement and back branch,
/// a branch its toggle, test and jump.
fn instruction_bound<'a>(s: &'a Stmt, callee: &mut impl FnMut(&'a str) -> u64) -> u64 {
    match s {
        Stmt::Compute(count) => u64::from(*count).max(1),
        Stmt::Seq(items) => items
            .iter()
            .fold(0u64, |sum, item| {
                sum.saturating_add(instruction_bound(item, callee))
            })
            .max(1),
        Stmt::Loop { body, .. } => instruction_bound(body, callee).saturating_add(3),
        Stmt::IfElse {
            then_branch,
            else_branch,
        } => instruction_bound(then_branch, callee)
            .saturating_add(instruction_bound(else_branch, callee))
            .saturating_add(3),
        Stmt::Call(name) => callee(name).saturating_add(1),
    }
}

fn check_stmt(s: &Stmt) -> Result<(), ProgenError> {
    if s.loop_depth() > codegen::MAX_LOOP_DEPTH {
        return Err(ProgenError::LoopTooDeep(s.loop_depth()));
    }
    check_bounds(s)
}

fn check_bounds(s: &Stmt) -> Result<(), ProgenError> {
    match s {
        Stmt::Compute(_) | Stmt::Call(_) => Ok(()),
        Stmt::Seq(items) => items.iter().try_for_each(check_bounds),
        Stmt::Loop { bound, body } => {
            if *bound == 0 {
                return Err(ProgenError::ZeroLoopBound);
            }
            if *bound > i16::MAX as u32 {
                return Err(ProgenError::LoopBoundTooLarge(*bound));
            }
            check_bounds(body)
        }
        Stmt::IfElse {
            then_branch,
            else_branch,
        } => {
            check_bounds(then_branch)?;
            check_bounds(else_branch)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::stmt::*;
    use super::*;

    #[test]
    fn validate_accepts_well_formed_program() {
        let p = Program::new("ok")
            .with_function("main", seq([compute(2), call("f"), call("g")]))
            .with_function("f", loop_(10, compute(1)))
            .with_function("g", if_else(compute(1), call("f")));
        assert_eq!(p.validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_missing_main() {
        let p = Program::new("nomain").with_function("f", compute(1));
        assert_eq!(p.validate(), Err(ProgenError::MissingMain));
    }

    #[test]
    fn validate_rejects_duplicates() {
        let p = Program::new("dup")
            .with_function("main", compute(1))
            .with_function("main", compute(2));
        assert_eq!(
            p.validate(),
            Err(ProgenError::DuplicateFunction("main".into()))
        );
    }

    #[test]
    fn validate_rejects_undefined_callee() {
        let p = Program::new("undef").with_function("main", call("ghost"));
        assert_eq!(
            p.validate(),
            Err(ProgenError::UndefinedFunction("ghost".into()))
        );
    }

    #[test]
    fn validate_rejects_recursion() {
        let p = Program::new("rec")
            .with_function("main", call("a"))
            .with_function("a", call("b"))
            .with_function("b", call("a"));
        assert!(matches!(p.validate(), Err(ProgenError::RecursiveCall(_))));
    }

    #[test]
    fn validate_rejects_self_recursion() {
        let p = Program::new("self")
            .with_function("main", call("a"))
            .with_function("a", call("a"));
        assert_eq!(p.validate(), Err(ProgenError::RecursiveCall("a".into())));
    }

    #[test]
    fn validate_rejects_bad_bounds() {
        let p = Program::new("zero").with_function("main", loop_(0, compute(1)));
        assert_eq!(p.validate(), Err(ProgenError::ZeroLoopBound));
        let p = Program::new("huge").with_function("main", loop_(40_000, compute(1)));
        assert_eq!(p.validate(), Err(ProgenError::LoopBoundTooLarge(40_000)));
    }

    #[test]
    fn validate_rejects_deep_nesting() {
        let mut body = compute(1);
        for _ in 0..9 {
            body = loop_(2, body);
        }
        let p = Program::new("deep").with_function("main", body);
        assert_eq!(p.validate(), Err(ProgenError::LoopTooDeep(9)));
    }

    /// A chain of `depth` functions below `main`, each calling the next
    /// twice: 2^depth call contexts of the innermost one.
    fn doubling_chain(depth: usize) -> Program {
        let mut p = Program::new("chain").with_function("main", call("f0"));
        for i in 0..depth {
            let next = format!("f{}", i + 1);
            p = p.with_function(format!("f{i}"), seq([call(next.clone()), call(next)]));
        }
        p.with_function(format!("f{depth}"), compute(1))
    }

    #[test]
    fn validate_rejects_programs_that_expand_past_the_cap() {
        let p = Program::new("wide").with_function("main", compute(u32::MAX));
        assert_eq!(
            p.validate(),
            Err(ProgenError::ProgramTooLarge(u64::from(u32::MAX) + 4))
        );
        let bound = doubling_chain(40).expanded_instruction_bound();
        assert!(bound > 1 << 40, "the bound follows every context: {bound}");
        assert_eq!(
            doubling_chain(40).validate(),
            Err(ProgenError::ProgramTooLarge(bound))
        );
        // A thousand doublings saturate instead of overflowing.
        assert_eq!(doubling_chain(1000).expanded_instruction_bound(), u64::MAX);
        assert_eq!(doubling_chain(4).validate(), Ok(()));
    }

    #[test]
    fn long_call_chains_validate_without_deep_recursion() {
        // The call-graph walks keep their own stacks: a chain as long as
        // the cap admits validates, and a 100k-deep one is refused, both
        // on a thread with the default 2 MiB stack, as a connection's.
        let chain = |n: usize| {
            let mut p = Program::new("deep").with_function("main", call("f0"));
            for i in 0..n {
                p = p.with_function(format!("f{i}"), call(format!("f{}", i + 1)));
            }
            p.with_function(format!("f{n}"), compute(1))
        };
        let validate_on_a_thread = |program: Program| {
            std::thread::spawn(move || program.validate())
                .join()
                .expect("validation returns")
        };
        assert_eq!(validate_on_a_thread(chain(5_000)), Ok(()));
        assert!(matches!(
            validate_on_a_thread(chain(100_000)),
            Err(ProgenError::ProgramTooLarge(_))
        ));
    }

    #[test]
    fn expanded_bound_counts_each_context_and_each_function_once() {
        // main: 4 of frame + two `jal`s, each into a context of f; f: 5
        // of frame + 2 for the saved `$s0` + the loop (init, 2, decrement,
        // `bne`); g, never called, once for the image.
        let p = Program::new("b")
            .with_function("main", seq([call("f"), call("f")]))
            .with_function("f", loop_(9, compute(2)))
            .with_function("g", compute(1));
        let f = 7 + 5;
        let g = 5 + 1;
        assert_eq!(p.expanded_instruction_bound(), (4 + 2 * (1 + f)) + f + g);
        let image = p
            .compile(0x0040_0000)
            .expect("compiles")
            .image()
            .len_words();
        assert_eq!(image as u64, (4 + 2) + f + g, "the frames are exact");
        // Empty statements still count, so the statement count is capped.
        let empty = Program::new("e").with_function("main", seq([compute(0), seq([])]));
        assert_eq!(empty.expanded_instruction_bound(), 4 + 2);
    }

    #[test]
    fn loop_depth_and_callees() {
        let s = seq([
            loop_(3, loop_(4, compute(1))),
            if_else(call("x"), seq([call("y"), call("x")])),
        ]);
        assert_eq!(s.loop_depth(), 2);
        assert_eq!(s.callees(), vec!["x", "y", "x"]);
    }
}
