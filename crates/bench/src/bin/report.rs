//! Regenerates the paper-vs-measured tables recorded in `EXPERIMENTS.md`,
//! and emits the pipeline telemetry report (`inl-obs`) as a table plus the
//! counter gate document.
//!
//! ```sh
//! cargo run --release -p inl-bench --bin report -- \
//!     [--obs-json <path>] [--explain-json <path>] [--trace-json <path>]
//! ```
//!
//! Every output lands under `target/` unless its flag overrides it.
//! `--obs-json` (default `target/inl-obs.json`) receives the run's
//! deterministic counters ([`PipelineReport::gate_json`]); the committed
//! copy is `baselines/inl-obs.json` and CI compares the two with
//! `diff -u`. The report runs with the decision-provenance layer on: an
//! `## explain` section summarizes why each of the 24 Cholesky loop orders
//! was accepted or rejected, and the full record store lands at
//! `target/inl-explain.json` for the `inl-explain` query tool. Times in
//! the tables are for reading, not for gating — `benchmark/` is the one
//! place a wall-clock time becomes a verdict. The exit status is non-zero
//! when any variant, backend or kernel diverges bitwise from its
//! reference (a `NO` or `MISMATCH` cell).

use inl_bench::{
    cholesky_variants, explain_section, kernel_cholesky_kjli, kernel_cholesky_left,
    kernel_cholesky_right, kernel_matmul_ikj, kernel_matmul_tiled, kernel_wavefront_sqrt_seq,
    kernel_wavefront_sqrt_skewed_parallel,
};
use inl_codegen::{compile_batch, generate};
use inl_core::depend::analyze;
use inl_core::instance::InstanceLayout;
use inl_core::transform::Transform;
use inl_exec::{run_fresh, Interpreter, Machine, ParallelExecutor, VmRunner};
use inl_ir::zoo::{self, spd_init};
use inl_obs::PipelineReport;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Time `reps` runs of `f` under an `inl-obs` span and return the mean.
///
/// This is the report's timing primitive: the numbers in the tables below
/// are also spans in the telemetry table (and the Chrome trace), under the
/// same name.
fn timed<F: FnMut()>(name: &str, reps: usize, mut f: F) -> Duration {
    let name: &'static str = Box::leak(name.to_string().into_boxed_str());
    for _ in 0..reps {
        let _g = inl_obs::span(name);
        f();
    }
    let snap = PipelineReport::capture();
    Duration::from_nanos(snap.spans[name].mean_ns())
}

fn flag_path(flag: &str, default: &str) -> std::path::PathBuf {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == flag {
            return args
                .next()
                .unwrap_or_else(|| panic!("{flag} needs a path"))
                .into();
        }
    }
    default.into()
}

fn main() -> ExitCode {
    let json_path = flag_path("--obs-json", "target/inl-obs.json");
    let trace_path = flag_path("--trace-json", "target/inl-trace.json");
    let explain_path = flag_path("--explain-json", "target/inl-explain.json");
    // Cleared by any bitwise divergence below; decides the exit status.
    let mut all_bitwise = true;
    inl_obs::set_enabled(true);
    inl_obs::set_timeline_enabled(true);
    inl_obs::set_explain_enabled(true);

    println!("# inl experiment report\n");

    // ------------------------------------------------- E3: dep matrices
    println!("## E3 — dependence matrices\n");
    for p in [zoo::simple_cholesky(), zoo::cholesky_kij()] {
        let layout = InstanceLayout::new(&p);
        let deps = analyze(&p, &layout).expect("analysis");
        println!(
            "{} ({} positions, {} columns):\n{}",
            p.name(),
            layout.len(),
            deps.deps.len(),
            deps.display()
        );
    }

    // ----------------------------------- explain: decision provenance
    // The 24-permutation sweep records one explain session per order;
    // render the why-legal/why-rejected summary before later phases add
    // their own sessions.
    let (p, variants) = cholesky_variants();
    println!("## explain — decision provenance (24 Cholesky orders)\n");
    print!("{}", explain_section());

    // ------------------------------------------------- E7: variants
    println!("\n## E7 — legal Cholesky loop orders (interpreter vs VM, N = 100)\n");
    inl_obs::explain::begin_session("report/e7-codegen");
    let layout = InstanceLayout::new(&p);
    let deps = analyze(&p, &layout).expect("analysis");
    let n: i128 = 100;
    let reference = run_fresh(&p, &[n], &spd_init);
    println!("| order | interp | vm | speedup | verified |");
    println!("|-------|--------|----|---------|----------|");
    for (label, m) in &variants {
        let result = generate(&p, &layout, &deps, m).expect("codegen");
        let runner = VmRunner::new(&result.program); // compile once per variant
        let mut machine = Machine::new(&result.program, &[n], &spd_init);
        Interpreter::new(&result.program).run(&mut machine);
        let mut vm_machine = Machine::new(&result.program, &[n], &spd_init);
        runner.run(&mut vm_machine);
        // verified = interpreter matches the reference AND the VM matches
        // the interpreter, bitwise
        let ok = reference.same_state(&machine).is_ok() && machine.same_state(&vm_machine).is_ok();
        all_bitwise &= ok;
        let dt = timed(&format!("report.e7.variant/{label}"), 3, || {
            let mut m2 = Machine::new(&result.program, &[n], &spd_init);
            Interpreter::new(&result.program).run(&mut m2);
        });
        let dtv = timed(&format!("report.e7.vm/{label}"), 3, || {
            let mut m2 = Machine::new(&result.program, &[n], &spd_init);
            runner.run(&mut m2);
        });
        println!(
            "| {label} | {dt:.2?} | {dtv:.2?} | {:.2}x | {} |",
            dt.as_secs_f64() / dtv.as_secs_f64(),
            if ok { "yes" } else { "NO" }
        );
    }

    // ------------------------------------- pipeline compile batch driver
    // Compile the full 12-variant sweep three ways: serially with the poly
    // query cache disabled (the seed pipeline), serially with the cache
    // enabled, and across a thread pool on the warm cache. The third run
    // issuing only cache hits keeps the telemetry counters deterministic
    // despite the parallelism. Generated code must be identical in all
    // three.
    println!("\n## pipeline compile batch — 12 Cholesky variants\n");
    inl_obs::explain::begin_session("report/pipeline-batch");
    let batch_threads = std::thread::available_parallelism().map_or(2, |x| x.get());
    inl_poly::cache::set_cache_enabled(false);
    inl_poly::cache::clear();
    let t0 = Instant::now();
    let cold = compile_batch(&p, &variants, 1);
    let serial_cold = t0.elapsed();
    inl_poly::cache::set_cache_enabled(true);
    inl_poly::cache::clear();
    let pre_warm = inl_poly::cache::stats();
    let t0 = Instant::now();
    let warm = compile_batch(&p, &variants, 1);
    let serial_warm = t0.elapsed();
    let post_warm = inl_poly::cache::stats();
    let t0 = Instant::now();
    let par = compile_batch(&p, &variants, batch_threads);
    let parallel = t0.elapsed();
    let post_par = inl_poly::cache::stats();
    let batch_bitwise = cold
        .iter()
        .zip(&warm)
        .zip(&par)
        .all(|((c, w), q)| c.pseudocode == w.pseudocode && c.pseudocode == q.pseudocode);
    all_bitwise &= batch_bitwise;
    let warm_hit_rate = {
        let (h, m) = (
            post_warm.hits - pre_warm.hits,
            post_warm.misses - pre_warm.misses,
        );
        h as f64 / (h + m).max(1) as f64
    };
    let par_hit_rate = {
        let (h, m) = (
            post_par.hits - post_warm.hits,
            post_par.misses - post_warm.misses,
        );
        h as f64 / (h + m).max(1) as f64
    };
    println!("| variant | serial no-cache | serial cached | speedup |");
    println!("|---------|-----------------|---------------|---------|");
    for (c, w) in cold.iter().zip(&warm) {
        println!(
            "| {} | {:.2?} | {:.2?} | {:.2}x |",
            c.label,
            Duration::from_nanos(c.wall_ns),
            Duration::from_nanos(w.wall_ns),
            c.wall_ns as f64 / w.wall_ns.max(1) as f64
        );
    }
    let batch_speedup = serial_cold.as_secs_f64() / parallel.as_secs_f64().max(1e-9);
    println!(
        "\ntotal: serial no-cache {serial_cold:.2?}, serial cached {serial_warm:.2?} \
         (hit rate {:.1}%), parallel x{batch_threads} cached {parallel:.2?} \
         (hit rate {:.1}%) — {batch_speedup:.2}x vs seed serial, generated code {}",
        warm_hit_rate * 100.0,
        par_hit_rate * 100.0,
        if batch_bitwise {
            "bitwise identical"
        } else {
            "MISMATCH"
        }
    );

    // --------------------------------- exec backends: interpreter vs VM
    // Wall-clock comparison of the two backends per program.
    inl_obs::explain::begin_session("report/exec-backends");
    println!("\n## exec backends — interpreter vs bytecode VM\n");
    println!("| program | interp | vm compile | vm run | speedup | bitwise |");
    println!("|---------|--------|------------|--------|---------|---------|");
    for (name, prog, params) in [
        ("cholesky_kij", zoo::cholesky_kij(), vec![100i128]),
        ("matmul", zoo::matmul(), vec![100]),
        ("wavefront", zoo::wavefront(), vec![300]),
        ("row_prefix_sums", zoo::row_prefix_sums(), vec![300]),
    ] {
        let t0 = Instant::now();
        let runner = VmRunner::new(&prog);
        let compile_ns = t0.elapsed();
        let interp_m = run_fresh(&prog, &params, &spd_init);
        let mut vm_m = Machine::new(&prog, &params, &spd_init);
        runner.run(&mut vm_m);
        let bitwise = interp_m.same_state(&vm_m).is_ok();
        all_bitwise &= bitwise;
        let dti = timed(&format!("report.backends.interp/{name}"), 3, || {
            let mut m2 = Machine::new(&prog, &params, &spd_init);
            Interpreter::new(&prog).run(&mut m2);
        });
        let dtv = timed(&format!("report.backends.vm/{name}"), 3, || {
            let mut m2 = Machine::new(&prog, &params, &spd_init);
            runner.run(&mut m2);
        });
        let speedup = dti.as_secs_f64() / dtv.as_secs_f64();
        println!(
            "| {name} N={} | {dti:.2?} | {compile_ns:.2?} | {dtv:.2?} | {speedup:.2}x | {} |",
            params[0],
            if bitwise { "yes" } else { "NO" }
        );
    }

    // --------------------------------- VM opcode profile (hot opcodes)
    // Re-run the acceptance benchmark under the VM's profiling mode and
    // print where the instruction budget actually goes.
    println!("\n## VM opcode profile (cholesky_kij, N = 100)\n");
    let prof_prog = zoo::cholesky_kij();
    let prof_runner = VmRunner::new(&prof_prog);
    inl_vm::profile::reset();
    inl_vm::profile::set_enabled(true);
    {
        let mut m2 = Machine::new(&prof_prog, &[n], &spd_init);
        prof_runner.run(&mut m2);
    }
    inl_vm::profile::set_enabled(false);
    print!(
        "{}",
        inl_vm::profile::render_tables(prof_runner.compiled(), Some(&prof_prog))
    );

    // ------------------------------------------------- E7: kernels
    println!("\n## E7 — compiled kernels (N = 768)\n");
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
        let dt = timed(&format!("report.e7.kernel/{}", name.trim()), 3, || {
            let mut a = base.clone();
            kern(&mut a, nk);
        });
        println!("| {name} | {dt:.2?} |");
    }

    // ------------------------------------------------- tiling
    // Strip-mined matmul: the `tile(K@T)/Ko.I.K.J` family the scheduler
    // derives by splitting the reuse-carrying K loop. Two checks:
    //
    // * the *generated* split program (the real transformation, through
    //   `inl_core::tiling`) is bitwise identical to its untiled source on
    //   both backends at a modest N;
    // * the hand-compiled tiled kernel beats the best untiled scheduled
    //   variant (`ikj`, unit-stride inner J) at an N past the cache
    //   cliff, where B no longer fits L2 but one K-slab does.
    println!("\n## tiling — strip-mined matmul, split K (schedule Ko.I.K.J)\n");
    inl_obs::explain::begin_session("report/tiling");
    let mp = zoo::matmul();
    let ml = inl_core::tiling::innermost_reuse_loop(&mp).expect("matmul carries reuse on K");
    let msplit = inl_core::tiling::split(&mp, ml, 16).expect("split");
    let nsmall: i128 = 64;
    let src = run_fresh(&mp, &[nsmall], &spd_init);
    let tiled_interp = run_fresh(&msplit.program, &[nsmall], &spd_init);
    let tiled_vm = {
        let runner = VmRunner::new(&msplit.program);
        let mut m = Machine::new(&msplit.program, &[nsmall], &spd_init);
        runner.run(&mut m);
        m
    };
    let gen_bitwise =
        src.same_state(&tiled_interp).is_ok() && tiled_interp.same_state(&tiled_vm).is_ok();
    all_bitwise &= gen_bitwise;
    println!(
        "generated split program (tile 16) at N = {nsmall}: interp and VM vs \
         untiled source — {}",
        if gen_bitwise {
            "bitwise identical"
        } else {
            "MISMATCH"
        }
    );
    // N=4096: B is 134 MB — past this machine's last-level cache even
    // quiet — while a T=32 K-slab (~1 MB) stays L2-resident.
    let nt = 4096usize;
    let wt = nt + 1;
    let ta: Vec<f64> = (0..wt * wt).map(|x| (x % 17) as f64 * 0.25).collect();
    let tb: Vec<f64> = (0..wt * wt).map(|x| (x % 13) as f64 * 0.5).collect();
    // min-of-reps with plain Instant (not `timed`): each run is tens of
    // seconds, far above timer noise, and keeping the result buffer lets
    // the timing runs double as the bitwise check at full size.
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
    let (tiled32_dt, tiled32_c) = run_kernel(&|c| kernel_matmul_tiled(c, &ta, &tb, nt, 32), 2);
    let (tiled64_dt, tiled64_c) = run_kernel(&|c| kernel_matmul_tiled(c, &ta, &tb, nt, 64), 1);
    let kern_bitwise = untiled_c
        .iter()
        .zip(&tiled32_c)
        .zip(&tiled64_c)
        .all(|((x, y), z)| x.to_bits() == y.to_bits() && x.to_bits() == z.to_bits());
    all_bitwise &= kern_bitwise;
    let tile_speedup = untiled_dt.as_secs_f64() / tiled32_dt.as_secs_f64();
    println!("\n| kernel (N = {nt}) | time | speedup | bitwise |");
    println!("|--------|------|---------|---------|");
    println!("| untiled ikj (best untiled variant) | {untiled_dt:.2?} | 1.00x | ref |");
    println!(
        "| tile(K@32)/Ko.I.K.J | {tiled32_dt:.2?} | {tile_speedup:.2}x | {} |",
        if kern_bitwise { "yes" } else { "NO" }
    );
    println!(
        "| tile(K@64)/Ko.I.K.J | {tiled64_dt:.2?} | {:.2}x | {} |",
        untiled_dt.as_secs_f64() / tiled64_dt.as_secs_f64(),
        if kern_bitwise { "yes" } else { "NO" }
    );

    // ------------------------------------------------- E8: wavefront
    println!("\n## E8 — wavefront kernels (N = 4096)\n");
    let nw = 4096usize;
    let ww = nw + 1;
    let mut wbase = vec![0.0; ww * ww];
    for i in 0..ww {
        wbase[i * ww] = 1.0;
        wbase[i] = 1.0;
    }
    let dt_seq = timed("report.e8.kernel/sequential", 3, || {
        let mut a = wbase.clone();
        kernel_wavefront_sqrt_seq(&mut a, nw);
    });
    println!("| schedule | time | speedup |");
    println!("|----------|------|---------|");
    println!("| sequential row-major | {dt_seq:.2?} | 1.00x |");
    let max_threads = std::thread::available_parallelism().map_or(2, |x| x.get());
    for threads in [1usize, max_threads] {
        let dt = timed(&format!("report.e8.kernel/skewed-{threads}t"), 3, || {
            let mut a = wbase.clone();
            kernel_wavefront_sqrt_skewed_parallel(&mut a, nw, threads);
        });
        println!(
            "| skewed, {threads} thread(s) | {dt:.2?} | {:.2}x |",
            dt_seq.as_secs_f64() / dt.as_secs_f64()
        );
    }

    // --------------------------------- E8: framework parallel executor
    // Run the framework's own skewed wavefront through ParallelExecutor so
    // the exec.par.* telemetry reflects a real generated schedule, not just
    // the hand kernels above.
    println!("\n## E8 — generated wavefront through ParallelExecutor (N = 200)\n");
    inl_obs::explain::begin_session("report/e8-wavefront");
    let wp = zoo::wavefront();
    let wlayout = InstanceLayout::new(&wp);
    let wdeps = analyze(&wp, &wlayout).expect("analysis");
    let wloops: Vec<_> = wp.loops().collect();
    let skew = Transform::Skew {
        target: wloops[0],
        source: wloops[1],
        factor: 1,
    }
    .matrix(&wp, &wlayout);
    let mut skewed = generate(&wp, &wlayout, &wdeps, &skew).expect("codegen");
    let inner = skewed
        .program
        .loops()
        .find(|&l| {
            !skewed.program.loop_decl(l).children.is_empty()
                && skewed.program.loops_surrounding_loop(l).len() == 1
        })
        .expect("inner loop");
    skewed.program.set_loop_parallel(inner, true);
    let winit = |_: &str, idx: &[usize]| if idx[0] == 0 || idx[1] == 0 { 1.0 } else { 0.0 };
    let nwf: i128 = 200;
    let wseq = run_fresh(&wp, &[nwf], &winit);
    for threads in [2usize, max_threads.max(2)] {
        let mut par = Machine::new(&skewed.program, &[nwf], &winit);
        let dt = timed(&format!("report.e8.framework/{threads}t"), 1, || {
            ParallelExecutor::new(&skewed.program, threads).run(&mut par);
        });
        let ok = wseq.same_state(&par).is_ok();
        all_bitwise &= ok;
        println!(
            "skewed + inner DOALL, {threads} threads: {dt:.2?}, {}",
            if ok { "bitwise identical" } else { "MISMATCH" }
        );
    }

    // ------------------------------------------------- telemetry report
    let report = PipelineReport::capture();
    // Poly query-cache stats, cumulative over the whole report run.
    let cs = inl_poly::cache::stats();
    println!("\n## poly query cache\n");
    println!(
        "hits {}, misses {}, insertions {}, evictions {}, resident entries {} (hit rate {:.1}%)",
        cs.hits,
        cs.misses,
        cs.insertions,
        cs.evictions,
        cs.entries,
        cs.hit_rate() * 100.0
    );
    let ms = inl_core::depend::memo_stats();
    println!(
        "analysis memo: hits {}, misses {}, evictions {}, resident entries {}",
        ms.hits, ms.misses, ms.evictions, ms.entries
    );

    println!("\n## pipeline telemetry\n");
    println!("{}", report.to_table());
    report
        .gate_json()
        .write_file(&json_path)
        .expect("write counter gate JSON");
    println!(
        "telemetry: {} counters, {} histograms, {} spans; deterministic counters -> {}",
        report.counters.len(),
        report.histograms.len(),
        report.spans.len(),
        json_path.display()
    );

    // ------------------------------------------------- explain artifact
    inl_obs::explain::write_json(&explain_path).expect("write explain JSON");
    println!(
        "explain provenance: {} record(s), {} session(s), {} dropped -> {}",
        inl_obs::explain::len(),
        inl_obs::explain::sessions().len(),
        inl_obs::explain::dropped_total(),
        explain_path.display()
    );

    // ------------------------------------------------- timeline trace
    inl_obs::timeline::write_chrome_trace(&trace_path).expect("write trace JSON");
    println!(
        "timeline trace ({} dropped events) -> {} (open in Perfetto / chrome://tracing)",
        inl_obs::timeline::dropped_total(),
        trace_path.display()
    );

    if all_bitwise {
        ExitCode::SUCCESS
    } else {
        eprintln!("BITWISE FAILURE: see the NO / MISMATCH cells above");
        ExitCode::FAILURE
    }
}
