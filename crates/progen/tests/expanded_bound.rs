//! The size cap's bound against real context expansion: on every suite
//! program and on default-shaped generator programs,
//! `Program::expanded_instruction_bound` is at least the instruction count
//! of the expanded CFG, and far below the cap.

use pwcet_cfg::{ExpandedCfg, FunctionExtent};
use pwcet_progen::{GeneratorConfig, Program, ProgramGenerator, MAX_EXPANDED_INSTRUCTIONS};

/// The instructions of `program`'s context-expanded CFG: every node's
/// fetched addresses, summed over all contexts.
fn expanded_instructions(program: &Program) -> u64 {
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
    let cfg = ExpandedCfg::build(compiled.image(), &extents, &bounds).expect("expands");
    cfg.nodes().iter().map(|n| n.addrs().len() as u64).sum()
}

fn assert_bounded(program: &Program) -> u64 {
    let real = expanded_instructions(program);
    let bound = program.expanded_instruction_bound();
    assert!(
        bound >= real,
        "{}: bound {bound} below the expanded count {real}",
        program.name()
    );
    assert!(
        bound <= MAX_EXPANDED_INSTRUCTIONS,
        "{}: {bound}",
        program.name()
    );
    real
}

#[test]
fn bound_covers_every_suite_program() {
    let suite = pwcet_benchsuite::all();
    assert_eq!(suite.len(), 25);
    let largest = suite
        .iter()
        .map(|b| assert_bounded(&b.program))
        .max()
        .expect("non-empty suite");
    assert!(
        largest > 1_000,
        "the suite's largest program expands to {largest}"
    );
}

#[test]
fn bound_covers_generated_programs() {
    for seed in 0..64 {
        let program = ProgramGenerator::new(GeneratorConfig::default(), seed)
            .generate(format!("random_{seed}"));
        assert_bounded(&program);
    }
}
