//! Items of every kind the report reads.

/// Read by `used_by_example`: not listed.
pub const UNIT: u32 = 1;

/// Named by nothing: listed as a `const fn`.
pub const fn doubled(x: u32) -> u32 {
    x * 2
}

/// Built by `unit_area` below: not listed.
pub struct Square {
    /// A field is not an item.
    pub side: f64,
}

/// Called by `unit_area` below: not listed.
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

/// Named only by the impl header below, which implements it without using
/// it: listed.
pub struct Dot;

impl Area for Dot {
    fn area(&self) -> f64 {
        0.0
    }
}

/// Named only by the crate root's re-export: listed.
pub struct Exported;

/// The unit square's area, through the trait.
pub(crate) fn unit_area() -> f64 {
    Area::area(&Square { side: 1.0 })
}
