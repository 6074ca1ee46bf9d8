//! The host-speed reference: a fixed kernel, owned by the benchmark and
//! sharing no code with the program, timed between executions so that a
//! run can report its times at one nominal host speed.
//!
//! The benchmark's VM shares its cores with other tenants, whose load
//! slows the simulator by up to 2x for stretches of seconds to minutes;
//! CPU time tracks wall time, and there are no performance counters to
//! count work instead (see README, "Steadiness"). The kernel does the kinds
//! of work the simulator's hot loops do: `powf` path loss, SINR sums over
//! a hashed transmitter set collected into a fresh `Vec` each round, and
//! sorts of small arrays. So it slows with the simulator while no change
//! to the program can move it.

use crate::workload::mix;
use std::hint::black_box;
use std::time::Instant;

/// About the kernel's time on the 2-core Xeon VM (2.1 GHz) the benchmark
/// was written on. A time `t` measured while the kernel took `r` seconds
/// is reported as `t * NOMINAL_S / r`: seconds at that nominal speed.
pub const NOMINAL_S: f64 = 0.15;

const PATH_LOSS_STEPS: u64 = 2_200_000;
const SINR_ROUNDS: u64 = 10_000;
const SINR_NODES: usize = 52;
const SORTS: u64 = 180_000;

/// Times one pass of the kernel, in seconds.
pub fn time() -> f64 {
    let t = Instant::now();
    black_box(path_loss(black_box(PATH_LOSS_STEPS)));
    black_box(sinr_rounds(black_box(SINR_ROUNDS)));
    black_box(small_sorts(black_box(SORTS)));
    t.elapsed().as_secs_f64()
}

fn path_loss(steps: u64) -> f64 {
    let (mut sum, mut d) = (0.0f64, 1.0001f64);
    for _ in 0..steps {
        sum += black_box(d).powf(-3.0);
        d += 1e-7;
    }
    sum
}

/// Rounds over a fixed 52-node deployment: every node transmits with
/// probability 1/16, and each other node decodes the strongest
/// transmitter when it beats twice the rest.
fn sinr_rounds(rounds: u64) -> u64 {
    let pos: Vec<(f64, f64)> = (0..SINR_NODES as u64)
        .map(|v| {
            let h = mix(v);
            (
                (h & 0xffff) as f64 / 6553.6,
                ((h >> 16) & 0xffff) as f64 / 6553.6,
            )
        })
        .collect();
    let mut decoded = 0u64;
    for r in 0..rounds {
        let tx: Vec<usize> = (0..SINR_NODES)
            .filter(|&v| mix(r ^ ((v as u64) << 20)).is_multiple_of(16))
            .collect();
        for v in (0..SINR_NODES).filter(|v| !tx.contains(v)) {
            let (mut total, mut best) = (1.0f64, 0.0f64);
            for &u in &tx {
                let (dx, dy) = (pos[u].0 - pos[v].0, pos[u].1 - pos[v].1);
                let signal = (dx * dx + dy * dy).sqrt().powf(-3.0);
                total += signal;
                best = best.max(signal);
            }
            if best >= 2.0 * (total - best) {
                decoded += 1;
            }
        }
    }
    decoded
}

fn small_sorts(sorts: u64) -> u64 {
    let (mut acc, mut v) = (0u64, [0u32; 24]);
    for r in 0..sorts {
        for (j, x) in (0u64..).zip(v.iter_mut()) {
            *x = mix(r * 31 + j) as u32;
        }
        v.sort_unstable();
        acc = acc.wrapping_add(u64::from(v[12]));
    }
    acc
}
