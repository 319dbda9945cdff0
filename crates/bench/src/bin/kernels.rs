//! The hand-kernel experiments: E7 (three Cholesky loop orders, N = 768),
//! E14 (strip-mined matmul past the cache cliff, N = 4096) and E8 (the
//! skewed wavefront across threads, N = 4096) of `EXPERIMENTS.md`, run on
//! Rust a human wrote for the schedules the framework derives — what a
//! backend would emit, where cache behaviour makes the paper's
//! "performance can be quite different" visible.
//!
//! ```sh
//! cargo run --release -p inl-bench --bin kernels
//! ```
//!
//! No flags. Takes about three minutes and 0.7 GB (the N = 4096 operands
//! and results are 134 MB each). Times are for reading: no counter fires
//! here, CI builds this binary and never runs it, and `benchmark/` is the
//! one place a wall-clock time becomes a verdict. The exit status is
//! non-zero when a tiled kernel diverges bitwise from the untiled one (a
//! `NO` cell). The kernels, `SpinBarrier` and their agreement tests live
//! in this file so that ROADMAP items 4 (native code generation) and 6
//! (scheduler-chosen parallel wavefronts) delete it whole.

use inl_ir::zoo::spd_init;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Mean wall time of `reps` runs of `f`.
fn mean_time(reps: u32, mut f: impl FnMut()) -> Duration {
    let t0 = Instant::now();
    for _ in 0..reps {
        f();
    }
    t0.elapsed() / reps
}

fn main() -> ExitCode {
    println!("# inl hand-kernel experiments\n");

    // ------------------------------------------------- E7: kernels
    println!("## E7 — compiled kernels (N = 768)\n");
    let nk = 768usize;
    let w = nk + 1;
    let mut base = vec![0.0; w * w];
    for i in 0..w {
        for j in 0..w {
            base[i * w + j] = spd_init("A", &[i, j]);
        }
    }
    println!("| kernel | time |");
    println!("|--------|------|");
    for (name, kern) in [
        (
            "right-looking KIJL",
            kernel_cholesky_right as fn(&mut [f64], usize),
        ),
        ("right-looking KJLI", kernel_cholesky_kjli),
        ("left-looking  LKJI", kernel_cholesky_left),
    ] {
        let dt = mean_time(3, || {
            let mut a = base.clone();
            kern(&mut a, nk);
        });
        println!("| {name} | {dt:.2?} |");
    }

    // ------------------------------------------------- E14: tiling
    // Strip-mined matmul: the `tile(K@T)/Ko.I.K.J` family the scheduler
    // derives by splitting the reuse-carrying K loop. The hand-compiled
    // tiled kernel beats the best untiled scheduled variant (`ikj`,
    // unit-stride inner J) at an N past the cache cliff, where B no longer
    // fits L2 but one K-slab does. (That the *generated* split program is
    // bitwise identical to its source on both backends is `report`'s
    // `## tiling` line.)
    //
    // N=4096: B is 134 MB — past this machine's last-level cache even
    // quiet — while a T=32 K-slab (~1 MB) stays L2-resident.
    let nt = 4096usize;
    println!("\n## tiling — strip-mined matmul, split K (schedule Ko.I.K.J), N = {nt}\n");
    let wt = nt + 1;
    let ta: Vec<f64> = (0..wt * wt).map(|x| (x % 17) as f64 * 0.25).collect();
    let tb: Vec<f64> = (0..wt * wt).map(|x| (x % 13) as f64 * 0.5).collect();
    // min-of-reps: each run is tens of seconds, far above timer noise, and
    // keeping the result buffer lets the timing runs double as the bitwise
    // check at full size.
    let run_kernel = |f: &dyn Fn(&mut [f64]), reps: usize| -> (Duration, Vec<f64>) {
        let mut best = Duration::MAX;
        let mut out = Vec::new();
        for _ in 0..reps {
            let mut c = vec![0.0; wt * wt];
            let t0 = Instant::now();
            f(&mut c);
            best = best.min(t0.elapsed());
            out = c;
        }
        (best, out)
    };
    let (untiled_dt, untiled_c) = run_kernel(&|c| kernel_matmul_ikj(c, &ta, &tb, nt), 2);
    println!("| kernel (N = {nt}) | time | speedup | bitwise |");
    println!("|--------|------|---------|---------|");
    println!("| untiled ikj (best untiled variant) | {untiled_dt:.2?} | 1.00x | ref |");
    let mut all_bitwise = true;
    for (t, reps) in [(32usize, 2usize), (64, 1)] {
        let (dt, c) = run_kernel(&|c| kernel_matmul_tiled(c, &ta, &tb, nt, t), reps);
        let bitwise = untiled_c
            .iter()
            .zip(&c)
            .all(|(x, y)| x.to_bits() == y.to_bits());
        all_bitwise &= bitwise;
        println!(
            "| tile(K@{t})/Ko.I.K.J | {dt:.2?} | {:.2}x | {} |",
            untiled_dt.as_secs_f64() / dt.as_secs_f64(),
            if bitwise { "yes" } else { "NO" }
        );
    }

    // ------------------------------------------------- E8: wavefront
    println!("\n## E8 — wavefront kernels (N = 4096)\n");
    let nw = 4096usize;
    let ww = nw + 1;
    let mut wbase = vec![0.0; ww * ww];
    for i in 0..ww {
        wbase[i * ww] = 1.0;
        wbase[i] = 1.0;
    }
    let dt_seq = mean_time(3, || {
        let mut a = wbase.clone();
        kernel_wavefront_sqrt_seq(&mut a, nw);
    });
    println!("| schedule | time | speedup |");
    println!("|----------|------|---------|");
    println!("| sequential row-major | {dt_seq:.2?} | 1.00x |");
    let max_threads = std::thread::available_parallelism().map_or(2, |x| x.get());
    for threads in [1usize, max_threads] {
        let dt = mean_time(3, || {
            let mut a = wbase.clone();
            kernel_wavefront_sqrt_skewed_parallel(&mut a, nw, threads);
        });
        println!(
            "| skewed, {threads} thread(s) | {dt:.2?} | {:.2}x |",
            dt_seq.as_secs_f64() / dt.as_secs_f64()
        );
    }

    if all_bitwise {
        ExitCode::SUCCESS
    } else {
        eprintln!("BITWISE FAILURE: see the NO cells above");
        ExitCode::FAILURE
    }
}

// ---------------------------------------------------------------------
// Hand-compiled kernels: what a backend would emit for the schedules the
// framework derives. Dense row-major N+1 × N+1 matrices, 1-based indices.
// ---------------------------------------------------------------------

/// Right-looking (KIJ) Cholesky, the zoo source program compiled by hand.
fn kernel_cholesky_right(a: &mut [f64], n: usize) {
    let w = n + 1;
    for k in 1..=n {
        a[k * w + k] = a[k * w + k].sqrt();
        for i in k + 1..=n {
            a[i * w + k] /= a[k * w + k];
        }
        for j in k + 1..=n {
            for l in k + 1..=j {
                a[j * w + l] -= a[j * w + k] * a[l * w + k];
            }
        }
    }
}

/// Left-looking (§6's completion result) Cholesky, compiled by hand.
fn kernel_cholesky_left(a: &mut [f64], n: usize) {
    let w = n + 1;
    for k in 1..=n {
        for j in k..=n {
            for l in 1..k {
                a[j * w + k] -= a[j * w + l] * a[k * w + l];
            }
        }
        a[k * w + k] = a[k * w + k].sqrt();
        for i in k + 1..=n {
            a[i * w + k] /= a[k * w + k];
        }
    }
}

/// The KJLI variant (update loops interchanged: J outer walks rows,
/// L inner walks the row) — same family, different cache behaviour.
fn kernel_cholesky_kjli(a: &mut [f64], n: usize) {
    let w = n + 1;
    for k in 1..=n {
        a[k * w + k] = a[k * w + k].sqrt();
        for i in k + 1..=n {
            a[i * w + k] /= a[k * w + k];
        }
        for l in k + 1..=n {
            for j in l..=n {
                a[j * w + l] -= a[j * w + k] * a[l * w + k];
            }
        }
    }
}

/// Scalar `ijk` matrix multiply: the reference the `ikj`-family kernels
/// are checked against.
#[cfg(test)]
fn kernel_matmul_ijk(c: &mut [f64], a: &[f64], b: &[f64], n: usize) {
    let w = n + 1;
    for i in 1..=n {
        for j in 1..=n {
            let mut acc = c[i * w + j];
            for k in 1..=n {
                acc += a[i * w + k] * b[k * w + j];
            }
            c[i * w + j] = acc;
        }
    }
}

/// `ikj` order: innermost loop streams rows of `B` and `C` (cache-friendly
/// row-major).
fn kernel_matmul_ikj(c: &mut [f64], a: &[f64], b: &[f64], n: usize) {
    for i in 1..=n {
        matmul_k_range(c, a, b, n, i, 1, n);
    }
}

/// The shared inner K×J sweep of the `ikj`-family kernels: accumulate
/// `C[i,·] += Σ_{k=klo..=khi} A[i,k]·B[k,·]`.
///
/// K is unrolled by 4 with *sequential* per-element adds, so every
/// `C[i,j]` still accumulates in ascending-K order — the unroll (and any
/// SIMD the compiler applies across the independent `j` lanes) changes no
/// floating-point association, keeping results bitwise identical to the
/// scalar loop. Rows are sliced up front so the J sweep is
/// bounds-check-free and vectorizable; both the untiled and the tiled
/// kernel route through this helper, so they differ only in B locality.
fn matmul_k_range(c: &mut [f64], a: &[f64], b: &[f64], n: usize, i: usize, klo: usize, khi: usize) {
    let w = n + 1;
    let crow = &mut c[i * w + 1..i * w + 1 + n];
    let mut k = klo;
    while k + 3 <= khi {
        let ak = [
            a[i * w + k],
            a[i * w + k + 1],
            a[i * w + k + 2],
            a[i * w + k + 3],
        ];
        let b0 = &b[k * w + 1..k * w + 1 + n];
        let b1 = &b[(k + 1) * w + 1..(k + 1) * w + 1 + n];
        let b2 = &b[(k + 2) * w + 1..(k + 2) * w + 1 + n];
        let b3 = &b[(k + 3) * w + 1..(k + 3) * w + 1 + n];
        for (j, cv) in crow.iter_mut().enumerate() {
            let mut v = *cv;
            v += ak[0] * b0[j];
            v += ak[1] * b1[j];
            v += ak[2] * b2[j];
            v += ak[3] * b3[j];
            *cv = v;
        }
        k += 4;
    }
    while k <= khi {
        let aik = a[i * w + k];
        let brow = &b[k * w + 1..k * w + 1 + n];
        for (cv, bv) in crow.iter_mut().zip(brow) {
            *cv += aik * *bv;
        }
        k += 1;
    }
}

/// Strip-mined `ikj`: the `tile(K@T)/Ko.I.K.J` schedule family the
/// auto-scheduler derives by splitting the reuse-carrying K loop (see
/// `inl_core::tiling`). A slab of `T` rows of `B` is reused across the
/// whole I sweep instead of the full matrix, so past the cache cliff the
/// slab stays resident while untiled `ikj` re-streams all of `B` per row
/// of `C`. Per-cell accumulation order over K is unchanged (each (I,J)
/// cell still sees K ascending: the tiles partition K in order), so the
/// result is bitwise identical to the untiled kernels.
fn kernel_matmul_tiled(c: &mut [f64], a: &[f64], b: &[f64], n: usize, t: usize) {
    assert!(t >= 2, "tile size {t} must be at least 2");
    for ko in 1 / t..=n / t {
        let kbase = ko * t;
        // clamp pair the split introduces: T·Ko ≤ K ≤ T·Ko + T − 1,
        // intersected with the original 1..=N range (the tail guard)
        let klo = kbase.max(1);
        let khi = (kbase + t - 1).min(n);
        if klo > khi {
            continue;
        }
        for i in 1..=n {
            matmul_k_range(c, a, b, n, i, klo, khi);
        }
    }
}

/// A sense-reversing spin barrier: wavefront synchronization happens once
/// per anti-diagonal (thousands of times per run), so the microseconds of
/// a futex-based barrier dominate; spinning costs tens of nanoseconds.
struct SpinBarrier {
    count: std::sync::atomic::AtomicUsize,
    generation: std::sync::atomic::AtomicUsize,
    total: usize,
}

impl SpinBarrier {
    /// A barrier for `total` participants.
    fn new(total: usize) -> Self {
        SpinBarrier {
            count: std::sync::atomic::AtomicUsize::new(0),
            generation: std::sync::atomic::AtomicUsize::new(0),
            total,
        }
    }

    /// Block (spinning) until all participants arrive.
    fn wait(&self) {
        use std::sync::atomic::Ordering;
        let gen = self.generation.load(Ordering::Acquire);
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.total {
            self.count.store(0, Ordering::Release);
            self.generation.fetch_add(1, Ordering::Release);
        } else {
            let mut spins = 0u32;
            while self.generation.load(Ordering::Acquire) == gen {
                std::hint::spin_loop();
                spins += 1;
                if spins > 1 << 12 {
                    // oversubscribed (more workers than cores): let the
                    // straggler run instead of burning its cycles
                    std::thread::yield_now();
                }
            }
        }
    }
}

/// The wavefront update used by the E8 kernels. A bare add is below the
/// synchronization cost of any per-diagonal schedule; a sqrt-weighted
/// update models a Gauss–Seidel-like sweep with realistic per-cell work.
#[inline]
fn wf_update(up: f64, left: f64) -> f64 {
    // three dependent square roots ≈ the per-point cost of a small
    // Gauss–Seidel-style kernel; enough work to amortize one barrier per
    // anti-diagonal
    let a = (up * up + left * left + 1.0e-6).sqrt();
    let b = (a + up.abs()).sqrt();
    (b + left.abs()).sqrt()
}

/// Sequential sqrt-weighted wavefront (the baseline of the E8 speedup table).
fn kernel_wavefront_sqrt_seq(a: &mut [f64], n: usize) {
    let w = n + 1;
    for i in 1..=n {
        for j in 1..=n {
            a[i * w + j] = wf_update(a[(i - 1) * w + j], a[i * w + (j - 1)]);
        }
    }
}

/// Skewed sqrt-weighted wavefront across `threads` persistent workers that
/// advance the outer (anti-diagonal) loop in lockstep through a spin
/// barrier — the schedule the framework derives in E8.
fn kernel_wavefront_sqrt_skewed_parallel(a: &mut [f64], n: usize, threads: usize) {
    let w = n + 1;
    struct Shared(*mut f64);
    unsafe impl Sync for Shared {}
    let ptr = Shared(a.as_mut_ptr());
    let shared = &ptr;
    let barrier = SpinBarrier::new(threads);
    let barrier = &barrier;
    std::thread::scope(|scope| {
        for tid in 0..threads {
            scope.spawn(move || {
                for t in 2..=2 * n {
                    let jlo = t.saturating_sub(n).max(1);
                    let jhi = (t - 1).min(n);
                    if jhi >= jlo {
                        let count = jhi - jlo + 1;
                        let chunk = count.div_ceil(threads);
                        let start = jlo + tid * chunk;
                        let end = (start + chunk).min(jhi + 1);
                        // anti-diagonal t: cells (t - j, j) are independent
                        for j in start..end {
                            let i = t - j;
                            unsafe {
                                *shared.0.add(i * w + j) = wf_update(
                                    *shared.0.add((i - 1) * w + j),
                                    *shared.0.add(i * w + (j - 1)),
                                );
                            }
                        }
                    }
                    barrier.wait();
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use inl_ir::zoo;

    #[test]
    fn kernels_agree_with_interpreter() {
        let n = 24usize;
        let p = zoo::cholesky_kij();
        let m = inl_exec::run_fresh(&p, &[n as i128], &spd_init);
        let reference = m.array_by_name("A").unwrap();
        for (name, kern) in [
            ("right", kernel_cholesky_right as fn(&mut [f64], usize)),
            ("left", kernel_cholesky_left),
            ("kjli", kernel_cholesky_kjli),
        ] {
            let w = n + 1;
            let mut a = vec![0.0; w * w];
            for i in 0..w {
                for j in 0..w {
                    a[i * w + j] = spd_init("A", &[i, j]);
                }
            }
            kern(&mut a, n);
            for (x, y) in a.iter().zip(reference) {
                assert_eq!(x.to_bits(), y.to_bits(), "kernel {name} diverges");
            }
        }
    }

    #[test]
    fn matmul_kernels_agree() {
        let n = 16usize;
        let w = n + 1;
        let a: Vec<f64> = (0..w * w).map(|x| (x % 17) as f64 * 0.25).collect();
        let b: Vec<f64> = (0..w * w).map(|x| (x % 13) as f64 * 0.5).collect();
        let mut ref_c = vec![0.0; w * w];
        kernel_matmul_ijk(&mut ref_c, &a, &b, n);
        // ikj is a pure (I,J,K)->(I,K,J) interchange: per-cell accumulation
        // order over K is unchanged, so results are bitwise equal
        let mut c2 = vec![0.0; w * w];
        kernel_matmul_ikj(&mut c2, &a, &b, n);
        assert_eq!(ref_c, c2);
        // and against the interpreted zoo program
        let p = zoo::matmul();
        let m = inl_exec::run_fresh(&p, &[n as i128], &|name, idx| match name {
            "A" => a[idx[0] * w + idx[1]],
            "B" => b[idx[0] * w + idx[1]],
            _ => 0.0,
        });
        let interp_c = m.array_by_name("C").unwrap();
        for (x, y) in ref_c.iter().zip(interp_c) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn tiled_matmul_kernel_agrees_bitwise() {
        // n deliberately not a multiple of any tile size: the min-guard
        // tail tile must cover exactly the leftover K range
        let n = 50usize;
        let w = n + 1;
        let a: Vec<f64> = (0..w * w).map(|x| (x % 17) as f64 * 0.25).collect();
        let b: Vec<f64> = (0..w * w).map(|x| (x % 13) as f64 * 0.5).collect();
        let mut ref_c = vec![0.0; w * w];
        kernel_matmul_ijk(&mut ref_c, &a, &b, n);
        for t in [2usize, 16, 32, 64] {
            let mut ct = vec![0.0; w * w];
            kernel_matmul_tiled(&mut ct, &a, &b, n, t);
            for (x, y) in ref_c.iter().zip(&ct) {
                assert_eq!(x.to_bits(), y.to_bits(), "tile {t} diverges");
            }
        }
        // and against the interpreted split program (the transformation
        // the kernel hand-compiles)
        let p = zoo::matmul();
        let l = inl_core::tiling::innermost_reuse_loop(&p).expect("reuse loop");
        let r = inl_core::tiling::split(&p, l, 16).expect("split");
        let m = inl_exec::run_fresh(&r.program, &[n as i128], &|name, idx| match name {
            "A" => a[idx[0] * w + idx[1]],
            "B" => b[idx[0] * w + idx[1]],
            _ => 0.0,
        });
        let interp_c = m.array_by_name("C").unwrap();
        for (x, y) in ref_c.iter().zip(interp_c) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn wavefront_kernels_agree() {
        let n = 64usize;
        let w = n + 1;
        let init = |i: usize, j: usize| if i == 0 || j == 0 { 1.0 } else { 0.0 };
        let mut seq = vec![0.0; w * w];
        let mut par = vec![0.0; w * w];
        for i in 0..w {
            for j in 0..w {
                seq[i * w + j] = init(i, j);
                par[i * w + j] = init(i, j);
            }
        }
        // every cell is the same function of the same two neighbours in
        // either schedule, so the skewed sweep is bitwise equal
        kernel_wavefront_sqrt_seq(&mut seq, n);
        kernel_wavefront_sqrt_skewed_parallel(&mut par, n, 4);
        assert_eq!(seq, par);
    }
}
