//! Fixture for `xtask unused`: which `pub` items does non-test code name?

pub mod area;

// A re-export names its items without using them, on every line.
pub use area::{
    Exported,
    Square,
};

/// Called by the example: not listed.
pub fn used_by_example() -> u32 {
    helper() + area::UNIT
}

/// Called by this file's unit test only: listed.
pub fn only_unit_tested() -> u32 {
    1
}

/// Called by the integration test only: listed.
pub fn only_integration_tested() -> u32 {
    2
}

/// Named by nothing the report reads: listed. The vendored crate calls
/// orphan(), but vendor/ is outside the scanned trees, and neither this
/// comment nor a string literal is a use.
pub fn orphan() -> &'static str {
    "orphan"
}

/// Called by the benchmark: not listed.
pub fn used_by_bench() {}

/// Crate-visible: rustc's dead-code lint covers it, the report does not.
pub(crate) fn helper() -> u32 {
    3
}

#[cfg(test)]
mod tests {
    use super::*;

    pub fn test_helper() -> u32 {
        only_unit_tested()
    }

    #[test]
    fn unit() {
        assert_eq!(test_helper(), 1);
    }
}
