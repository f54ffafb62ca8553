//! Traps: every way guest execution can abort.
//!
//! A trap is the security boundary of WA-RAN — any guest misbehaviour
//! (out-of-bounds access, division by zero, resource exhaustion, explicit
//! `unreachable`) unwinds the interpreter and is returned to the host as a
//! value, never as a panic or undefined behaviour. The plugin host's fault
//! policy (see `waran-host`) decides what happens next.

/// Reason guest execution aborted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Trap {
    /// `unreachable` was executed.
    Unreachable,
    /// A linear-memory access fell outside the memory's current size.
    MemoryOutOfBounds {
        /// First byte of the attempted access.
        addr: u64,
        /// Access width in bytes.
        len: u64,
        /// Memory size in bytes at the time of the access.
        size: u64,
    },
    /// Integer division or remainder by zero.
    IntegerDivByZero,
    /// `i32.div_s`/`i64.div_s` overflow (MIN / -1).
    IntegerOverflow,
    /// Float-to-int truncation of NaN or an out-of-range value.
    InvalidConversion,
    /// `call_indirect` through a null table entry.
    UninitializedElement,
    /// `call_indirect` signature mismatch.
    IndirectCallTypeMismatch,
    /// Table access out of bounds.
    TableOutOfBounds,
    /// A call exceeded the configured call depth, or its frame would grow
    /// the register arena past its cell cap.
    StackOverflow,
    /// Deterministic instruction budget exhausted.
    OutOfFuel,
    /// A host function reported an error.
    HostError(String),
    /// `memory.grow` beyond the instance's page limit was attempted via an
    /// instruction that must not fail silently (only raised by embedder
    /// policies that forbid growth entirely).
    MemoryLimitExceeded,
}

impl Trap {
    /// Short machine-readable code, used by host-side fault accounting.
    pub fn code(&self) -> &'static str {
        match self {
            Trap::Unreachable => "unreachable",
            Trap::MemoryOutOfBounds { .. } => "memory-out-of-bounds",
            Trap::IntegerDivByZero => "integer-divide-by-zero",
            Trap::IntegerOverflow => "integer-overflow",
            Trap::InvalidConversion => "invalid-conversion",
            Trap::UninitializedElement => "uninitialized-element",
            Trap::IndirectCallTypeMismatch => "indirect-call-type-mismatch",
            Trap::TableOutOfBounds => "table-out-of-bounds",
            Trap::StackOverflow => "stack-overflow",
            Trap::OutOfFuel => "out-of-fuel",
            Trap::HostError(_) => "host-error",
            Trap::MemoryLimitExceeded => "memory-limit-exceeded",
        }
    }

    /// True for traps caused by resource limits rather than by faulty guest
    /// logic (the host may retry these with a larger budget).
    pub fn is_resource_exhaustion(&self) -> bool {
        matches!(
            self,
            Trap::OutOfFuel | Trap::StackOverflow | Trap::MemoryLimitExceeded
        )
    }
}

impl std::fmt::Display for Trap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Trap::MemoryOutOfBounds { addr, len, size } => {
                write!(
                    f,
                    "memory access out of bounds: {len} bytes at {addr} (memory size {size})"
                )
            }
            Trap::HostError(msg) => write!(f, "host error: {msg}"),
            other => write!(f, "{}", other.code()),
        }
    }
}

impl std::error::Error for Trap {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable() {
        assert_eq!(Trap::Unreachable.code(), "unreachable");
        assert_eq!(
            Trap::MemoryOutOfBounds {
                addr: 70000,
                len: 4,
                size: 65536
            }
            .code(),
            "memory-out-of-bounds"
        );
    }

    #[test]
    fn exhaustion_classification() {
        assert!(Trap::OutOfFuel.is_resource_exhaustion());
        assert!(!Trap::Unreachable.is_resource_exhaustion());
        assert!(!Trap::IntegerDivByZero.is_resource_exhaustion());
    }

    #[test]
    fn display_oob_includes_detail() {
        let t = Trap::MemoryOutOfBounds {
            addr: 100,
            len: 8,
            size: 64,
        };
        let s = t.to_string();
        assert!(s.contains("100") && s.contains('8') && s.contains("64"));
    }
}
