//! Errors reported while validating or compiling structured programs.

use std::error::Error;
use std::fmt;

use pwcet_mips::MipsError;

/// Errors from [`Program::compile`](crate::Program::compile).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgenError {
    /// The program has no `main` function.
    MissingMain,
    /// Two functions share a name.
    DuplicateFunction(String),
    /// A `call` targets an unknown function.
    UndefinedFunction(String),
    /// The call graph contains a cycle through the named function
    /// (recursion is not supported: loop bounds could not be derived).
    RecursiveCall(String),
    /// A loop bound of zero was given; counted loops execute at least once.
    ZeroLoopBound,
    /// A loop bound exceeds the immediate range of the counter setup.
    LoopBoundTooLarge(u32),
    /// Loops nest deeper than the register discipline supports.
    LoopTooDeep(usize),
    /// The program's
    /// [`expanded_instruction_bound`](crate::Program::expanded_instruction_bound)
    /// (carried) exceeds
    /// [`MAX_EXPANDED_INSTRUCTIONS`](crate::MAX_EXPANDED_INSTRUCTIONS).
    ProgramTooLarge(u64),
    /// The assembler rejected the generated code (internal error).
    Assembler(MipsError),
}

impl fmt::Display for ProgenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgenError::MissingMain => write!(f, "program has no `main` function"),
            ProgenError::DuplicateFunction(n) => write!(f, "function `{n}` is defined twice"),
            ProgenError::UndefinedFunction(n) => write!(f, "call to undefined function `{n}`"),
            ProgenError::RecursiveCall(n) => {
                write!(f, "recursion through `{n}` is not supported")
            }
            ProgenError::ZeroLoopBound => write!(f, "loop bound must be at least one"),
            ProgenError::LoopBoundTooLarge(b) => {
                write!(f, "loop bound {b} exceeds the supported maximum of 32767")
            }
            ProgenError::LoopTooDeep(d) => {
                write!(
                    f,
                    "loop nesting depth {d} exceeds the supported maximum of 8"
                )
            }
            ProgenError::ProgramTooLarge(bound) => write!(
                f,
                "program may expand to {bound} instructions, above the supported maximum of {}",
                crate::MAX_EXPANDED_INSTRUCTIONS
            ),
            ProgenError::Assembler(e) => write!(f, "generated code failed to assemble: {e}"),
        }
    }
}

impl Error for ProgenError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ProgenError::Assembler(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MipsError> for ProgenError {
    fn from(e: MipsError) -> Self {
        ProgenError::Assembler(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        assert!(ProgenError::MissingMain.to_string().contains("main"));
        assert!(ProgenError::RecursiveCall("f".into())
            .to_string()
            .contains("`f`"));
        assert!(ProgenError::LoopBoundTooLarge(99999)
            .to_string()
            .contains("99999"));
    }
}
