//! Micro-benchmarks of the four-lane linalg kernels behind the march-in-time
//! hot path: the `dot_unrolled` reduction, the `axpy_chunked` row update, the
//! dense mat-vec/mat-mat products built on them, the LU factorise/solve
//! pair that serves the Eq. 4 terminal eliminations, the ϕ₁/ϕ₂
//! propagators of the stiff lane, and the variable-step Adams–Bashforth
//! coefficients of the explicit lane.
//!
//! Two sizes bracket the dense kernels: 12 matches the harvester's state
//! dimension (the row width every per-step kernel sees), 48 approximates the
//! multi-harvester assemblies the roadmap points at. The ϕ entries run at
//! n = 3, the harvester's stiff partition, on the dense 9×9 reference and on
//! the structured kernel the stiff lane calls. The Adams–Bashforth entries
//! run the order-4 quadrature on a non-uniform history, alone and with the
//! order-3 set the march's error estimate needs. The numbers let a regression
//! in these kernels be caught at the kernel level instead of surfacing only
//! as a diluted Table II delta. Every label times one call.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use harvsim_linalg::expm::{phi1_phi2, phi1_phi2_into};
use harvsim_linalg::{axpy_chunked, dot_unrolled, DMatrix, DVector};
use harvsim_ode::explicit::adams_bashforth_coefficients_into;

fn well_conditioned(n: usize) -> DMatrix {
    let mut m = DMatrix::from_fn(n, n, |r, c| ((r * 31 + c * 17) % 13) as f64 * 0.1 - 0.6);
    for i in 0..n {
        let row_sum: f64 = m.row(i).iter().map(|x| x.abs()).sum();
        m[(i, i)] = row_sum + 1.0;
    }
    m
}

fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("linalg_kernels");
    group.sample_size(50);

    for n in [12usize, 48] {
        let a = well_conditioned(n);
        let x = DVector::from_fn(n, |i| (i as f64 * 0.37).sin());
        let mut out = DVector::zeros(n);

        let xs: Vec<f64> = x.as_slice().to_vec();
        let ys: Vec<f64> = x.as_slice().iter().map(|v| v * 1.7 - 0.3).collect();
        group.bench_function(format!("dot_unrolled_{n}"), |b| {
            b.iter(|| dot_unrolled(black_box(&xs), black_box(&ys)));
        });

        group.bench_function(format!("axpy_chunked_{n}"), |b| {
            let mut dst = xs.clone();
            b.iter(|| axpy_chunked(black_box(&mut dst), 1.0000001, black_box(&ys)));
        });

        group.bench_function(format!("mul_vector_into_{n}"), |b| {
            b.iter(|| a.mul_vector_into(black_box(&x), &mut out));
        });

        let mut prod = DMatrix::zeros(n, n);
        group.bench_function(format!("mul_matrix_into_{n}"), |b| {
            b.iter(|| a.mul_matrix_into(black_box(&a), &mut prod).expect("dimensions match"));
        });

        let mut lu = a.lu().expect("well-conditioned");
        group.bench_function(format!("lu_factor_into_{n}"), |b| {
            b.iter(|| lu.factor_into(black_box(&a)).expect("well-conditioned"));
        });

        group.bench_function(format!("lu_solve_into_{n}"), |b| {
            b.iter(|| lu.solve_into(black_box(&x), &mut out).expect("dimensions match"));
        });
    }

    // The harvester's stiff sub-matrix (coil current, output stage, rail)
    // times a mid-ladder step of 2e-4 s: ‖h·A_ss‖ ≈ 430, so 10 squarings.
    let h_a_ss = DMatrix::from_rows(&[
        &[-7.5e3, 0.0, -5e1],
        &[0.0, -4.114444465024543e4, 0.0],
        &[2.127659574468085e6, 0.0, -5.829145045775684e2],
    ])
    .expect("square")
    .scaled(2e-4);
    group.bench_function("phi1_phi2_dense_3", |b| {
        b.iter(|| phi1_phi2(black_box(&h_a_ss)).expect("finite"));
    });
    let (mut phi1, mut phi2) = ([0.0; 9], [0.0; 9]);
    group.bench_function("phi1_phi2_into_3", |b| {
        b.iter(|| {
            phi1_phi2_into(black_box(h_a_ss.as_slice()), 3, &mut phi1, &mut phi2).expect("finite")
        });
    });

    // A history mid-way through a conduction front: the step has just
    // shrunk one ladder rung, so the uniform-grid constants do not apply.
    let times = [1.0, 1.0 - 4e-5, 1.0 - 8e-5, 1.0 - 1.2e-4];
    let (mut high, mut low) = ([0.0; 4], [0.0; 4]);
    group.bench_function("ab_coefficients_4", |b| {
        b.iter(|| {
            adams_bashforth_coefficients_into(black_box(&times), 3e-5, &mut high, None)
                .expect("admissible history")
        });
    });
    group.bench_function("ab_coefficients_pair", |b| {
        b.iter(|| {
            adams_bashforth_coefficients_into(black_box(&times), 3e-5, &mut high, Some(&mut low))
                .expect("admissible history")
        });
    });
    group.finish();
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
