//! Deterministic parallel parameter sweeps.
//!
//! A [`Sweep`] runs one experiment function over a grid of points in
//! parallel (rayon) and collects one [`SweepRecord`] per point, **in grid
//! order**. Reproducibility is independent of the thread schedule because
//! nothing a worker computes depends on any other worker:
//!
//! * every point gets its own RNG — a `ChaCha8Rng` seeded from the sweep's
//!   master seed and moved to stream `index + 1` (ChaCha's 64-bit stream
//!   counter), so point RNGs are mutually independent and derived only
//!   from the point's grid position;
//! * records are collected by indexed map, so output order is grid order
//!   no matter which worker finished first.
//!
//! Consequently `RAYON_NUM_THREADS=1` and `=4` produce byte-identical
//! [`SweepOutput::render`] JSON for the same master seed — a property
//! pinned by `tests/sweep_determinism.rs`.

use crate::json::{Json, ToJson};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;
use serde::Serialize;
use std::io;
use std::path::{Path, PathBuf};

/// One evaluated grid point.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SweepRecord {
    /// Position in the grid (also the RNG stream id minus one).
    pub index: usize,
    /// The point's parameters, as JSON.
    pub params: Json,
    /// The experiment function's result, as JSON.
    pub result: Json,
}

/// A completed sweep: experiment name, master seed, and per-point records
/// in grid order.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SweepOutput {
    /// Experiment name (stem of the default artifact filename).
    pub experiment: String,
    /// Master seed all point RNGs derive from.
    pub master_seed: u64,
    /// One record per grid point, in grid order.
    pub records: Vec<SweepRecord>,
}

impl SweepOutput {
    /// The canonical JSON form: the experiment name, the master seed, the
    /// point count and every record in grid order — nothing that depends
    /// on the build, the machine or the thread count.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("experiment", self.experiment.to_json()),
            ("master_seed", self.master_seed.to_json()),
            ("points", self.records.len().to_json()),
            (
                "records",
                Json::Array(
                    self.records
                        .iter()
                        .map(|r| {
                            Json::object([
                                ("index", r.index.to_json()),
                                ("params", r.params.clone()),
                                ("result", r.result.clone()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Pretty JSON (what [`write_default`](Self::write_default) writes).
    pub fn render(&self) -> String {
        self.to_json().render_pretty()
    }

    /// The default artifact filename: `BENCH_<EXPERIMENT>.json`.
    pub fn default_path(&self) -> PathBuf {
        PathBuf::from(format!("BENCH_{}.json", self.experiment.to_uppercase()))
    }

    /// Writes the JSON artifact to `path`.
    pub fn write_to(&self, path: &Path) -> io::Result<()> {
        std::fs::write(path, self.render())
    }

    /// Writes the JSON artifact to [`default_path`](Self::default_path) and
    /// returns it.
    pub fn write_default(&self) -> io::Result<PathBuf> {
        let path = self.default_path();
        self.write_to(&path)?;
        Ok(path)
    }
}

/// A named, seeded experiment grid runner.
#[derive(Debug, Clone)]
pub struct Sweep {
    name: String,
    master_seed: u64,
    threads: Option<usize>,
}

impl Sweep {
    /// A sweep named `name` (lowercase experiment id, e.g. `"e12_faults"`)
    /// with the given master seed.
    pub fn new(name: &str, master_seed: u64) -> Self {
        Sweep { name: name.to_string(), master_seed, threads: None }
    }

    /// Pins the worker count, overriding `RAYON_NUM_THREADS` (used by the
    /// determinism tests; normal callers let the environment decide).
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = Some(n);
        self
    }

    /// The RNG a given grid point receives: master-seeded ChaCha8 moved to
    /// stream `index + 1` (stream 0 is reserved for sweep-level draws).
    pub fn rng_for_point(&self, index: usize) -> ChaCha8Rng {
        let mut rng = ChaCha8Rng::seed_from_u64(self.master_seed);
        rng.set_stream(index as u64 + 1);
        rng
    }

    /// Evaluates `f` on every point of the grid (in parallel) and returns
    /// the records in grid order.
    pub fn run<P, R, F>(&self, points: Vec<P>, f: F) -> SweepOutput
    where
        P: ToJson + Send + Sync,
        R: ToJson + Send,
        F: Fn(&P, &mut ChaCha8Rng) -> R + Sync,
    {
        let eval = || {
            points
                .iter()
                .enumerate()
                .collect::<Vec<_>>()
                .into_par_iter()
                .map(|(index, point)| {
                    let mut rng = self.rng_for_point(index);
                    let result = f(point, &mut rng);
                    SweepRecord { index, params: point.to_json(), result: result.to_json() }
                })
                .collect::<Vec<_>>()
        };
        let records = match self.threads {
            Some(n) => {
                rayon::ThreadPoolBuilder::new().num_threads(n).build().expect("pool").install(eval)
            }
            None => eval(),
        };
        SweepOutput { experiment: self.name.clone(), master_seed: self.master_seed, records }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;

    #[test]
    fn records_in_grid_order_with_params_and_results() {
        let sweep = Sweep::new("unit", 1);
        let out = sweep.run(vec![3u32, 1, 2], |&p, _| u64::from(p) * 10);
        assert_eq!(out.records.len(), 3);
        assert_eq!(out.records[0].index, 0);
        assert_eq!(out.records[0].params, Json::UInt(3));
        assert_eq!(out.records[0].result, Json::UInt(30));
        assert_eq!(out.records[2].result, Json::UInt(20));
    }

    #[test]
    fn point_rngs_are_independent_and_reproducible() {
        let sweep = Sweep::new("unit", 42);
        let a0 = sweep.rng_for_point(0).next_u64();
        let a1 = sweep.rng_for_point(1).next_u64();
        assert_ne!(a0, a1, "distinct streams");
        assert_eq!(a0, sweep.rng_for_point(0).next_u64(), "reproducible");
        let other = Sweep::new("unit", 43);
        assert_ne!(a0, other.rng_for_point(0).next_u64(), "seed matters");
    }

    #[test]
    fn thread_count_does_not_change_output() {
        let grid: Vec<u32> = (0..25).collect();
        let f = |&p: &u32, rng: &mut ChaCha8Rng| rng.next_u64() ^ u64::from(p);
        let one = Sweep::new("unit", 7).threads(1).run(grid.clone(), f);
        let four = Sweep::new("unit", 7).threads(4).run(grid, f);
        assert_eq!(one, four);
        assert_eq!(one.render(), four.render());
    }

    #[test]
    fn default_path_uppercases_experiment() {
        let out = Sweep::new("e12_faults", 9).run(Vec::<u32>::new(), |&p, _| p);
        assert_eq!(out.default_path(), PathBuf::from("BENCH_E12_FAULTS.json"));
        assert_eq!(out.records.len(), 0);
    }
}
