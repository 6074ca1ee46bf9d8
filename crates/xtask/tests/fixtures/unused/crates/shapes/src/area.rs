//! Items of every kind the report reads.

/// Read by `used_by_example`: not listed.
pub const UNIT: u32 = 1;

/// Named by nothing: listed as a `const fn`.
pub const fn doubled(x: u32) -> u32 {
    x * 2
}

/// Named in `Area`'s impl below: not listed.
pub struct Square {
    /// A field is not an item.
    pub side: f64,
}

/// Implemented below: not listed.
pub trait Area {
    /// Trait methods carry no `pub`.
    fn area(&self) -> f64;
}

impl Area for Square {
    fn area(&self) -> f64 {
        self.side * self.side
    }
}

/// Named by nothing: listed.
pub enum Shape {
    /// A variant is not an item.
    Round,
}
