//! # dcluster-obs — deterministic tracing
//!
//! The instrument panel for the rest of the workspace: a zero-cost-when-
//! disabled [`Tracer`] seam that the `Engine` and the protocol layer emit
//! **phase spans** and **round events** into, the per-phase
//! [`PhaseTable`] the scenario `Report` renders, and a versioned JSONL
//! sink ([`JsonlSink`]) behind the bench binaries' `--trace` flag.
//!
//! ## Traces
//!
//! The sink writes schema `dcluster-trace/2` ([`TRACE_SCHEMA`]): a header
//! line, then one line per event, except that each maximal run of
//! consecutive silent rounds (`Event::Round` with no transmitter, no
//! reception and no field built) becomes one
//! `{"ev":"silent","from":a,"to":b}` line. Most rounds of the paper's
//! protocols are silent (85 % of Figure 1's), so this keeps traces small;
//! the `Event` stream itself still carries one `Round` per round. Schema
//! `dcluster-trace/1` wrote a `round` line per silent round and is
//! otherwise the same; `xtask tracediff` reads both (see [`jsonl`]).
//!
//! ## Determinism contract
//!
//! Everything this crate records is a pure function of the simulation:
//! round numbers, transmitter/reception counts, interference-field
//! builds, phase names. No timestamps, no map-iteration order, no
//! thread interleavings. Two runs of the same scenario produce
//! byte-identical traces — which is what makes `xtask tracediff` a
//! *localizing* determinism check instead of a byte-compare oracle.
//!
//! Wall-clock time is deliberately not representable in [`Event`]: this
//! crate reads no clock (`xtask lint` rule D2 covers it like the other
//! deterministic crates). Benchmarks that need durations time the run
//! from outside.
//!
//! ## Zero cost when disabled
//!
//! The engine holds an `Option<SharedTracer>`; with no tracer attached the
//! per-round cost is one `Option` check. Phase aggregation (the
//! [`PhaseTable`] the scenario `Report` renders) is always on, but only
//! pays at phase boundaries, never per round — so traced and untraced runs
//! produce byte-identical reports.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod jsonl;
pub mod phase;

pub use jsonl::{JsonlSink, TraceMeta, TRACE_SCHEMA};
pub use phase::{PhaseSummary, PhaseTable};

use std::cell::RefCell;
use std::rc::Rc;

/// What a resolver did about its interference field for one resolved
/// round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOp {
    /// The field was built from the round's full transmitter set.
    Rebuilt,
    /// A field cached from an earlier round was patched with the sparse
    /// transmitter diff. No resolver in the workspace produces this; the
    /// trace encoding and perfbench's profile still accept it.
    Patched {
        /// Transmitters inserted into the field.
        inserts: usize,
        /// Transmitters removed from the field.
        removals: usize,
    },
}

/// One observability event. Every field is a deterministic function of
/// the simulation — no timestamps (see the crate docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A named protocol phase began (engine round at entry).
    PhaseStart {
        /// Stable phase name (`clustering`, `sparsify`, `mis`, …).
        phase: &'static str,
        /// Engine round when the phase began.
        round: u64,
    },
    /// A named protocol phase ended, with its aggregate costs.
    PhaseEnd {
        /// Stable phase name.
        phase: &'static str,
        /// Engine round when the phase ended.
        round: u64,
        /// Rounds consumed by the phase (including nested phases).
        rounds: u64,
        /// Transmissions during the phase.
        tx: u64,
        /// Successful receptions during the phase.
        rx: u64,
    },
    /// One synchronous engine round.
    Round {
        /// Round number (0-based, engine-lifetime).
        round: u64,
        /// Transmitter count |T|.
        tx: u64,
        /// Successful receptions delivered.
        rx: u64,
        /// What the resolver did about its interference field: `None` for
        /// rounds that built none (exact-routine and silent rounds) and for
        /// resolvers without a field.
        cache: Option<CacheOp>,
    },
    /// One maintenance epoch finished.
    Epoch {
        /// Epoch index (0-based).
        epoch: u64,
        /// Rounds the epoch's re-clustering consumed.
        rounds: u64,
        /// Centers re-elected this epoch.
        re_elections: u64,
        /// Coverage violations detected this epoch.
        violations: u64,
    },
}

impl Event {
    /// The stable event-kind name (the `ev` field of a JSONL trace line).
    pub fn kind(&self) -> &'static str {
        match self {
            Event::PhaseStart { .. } => "phase_start",
            Event::PhaseEnd { .. } => "phase_end",
            Event::Round { .. } => "round",
            Event::Epoch { .. } => "epoch",
        }
    }
}

/// A sink for [`Event`]s. Implementations must be deterministic: the
/// trace they produce may depend only on the event stream. (`Debug` is a
/// supertrait so engines holding a tracer stay debug-printable.)
pub trait Tracer: std::fmt::Debug {
    /// Observes one event.
    fn on_event(&mut self, ev: &Event);
}

/// The shape the engine holds a tracer in: shared, interior-mutable,
/// single-threaded (like the engine itself).
pub type SharedTracer = Rc<RefCell<dyn Tracer>>;

/// Wraps any tracer into the [`SharedTracer`] handle the engine accepts.
pub fn shared<T: Tracer + 'static>(t: T) -> Rc<RefCell<T>> {
    Rc::new(RefCell::new(t))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Default)]
    struct Events(Vec<Event>);

    impl Tracer for Events {
        fn on_event(&mut self, ev: &Event) {
            self.0.push(ev.clone());
        }
    }

    #[test]
    fn event_kinds_are_stable() {
        assert_eq!(
            Event::Round {
                round: 0,
                tx: 0,
                rx: 0,
                cache: None
            }
            .kind(),
            "round"
        );
        assert_eq!(
            Event::Epoch {
                epoch: 0,
                rounds: 0,
                re_elections: 0,
                violations: 0
            }
            .kind(),
            "epoch"
        );
    }

    #[test]
    fn shared_handle_coerces_to_dyn_tracer() {
        let rec = shared(Events::default());
        let dyn_handle: SharedTracer = rec.clone();
        dyn_handle.borrow_mut().on_event(&Event::Round {
            round: 7,
            tx: 2,
            rx: 1,
            cache: None,
        });
        assert_eq!(rec.borrow().0.len(), 1);
    }
}
