//! The collection-off half of the CG residual-trace gate. Collection is a
//! process-wide switch, so this runs as the only test in its own binary:
//! switching it off here cannot race the unit tests that rely on
//! `capture` collecting.

use oftec_linalg::{solve_cg, CsrMatrix, IterativeParams, JacobiPreconditioner, Triplets};

/// The shifted 2-D five-point Laplacian of the unit tests.
fn laplacian_2d(side: usize) -> CsrMatrix {
    let n = side * side;
    let mut t = Triplets::new(n, n);
    let idx = |r: usize, c: usize| r * side + c;
    for r in 0..side {
        for c in 0..side {
            let i = idx(r, c);
            t.push(i, i, 4.0 + 0.01);
            if r > 0 {
                t.push(i, idx(r - 1, c), -1.0);
            }
            if r + 1 < side {
                t.push(i, idx(r + 1, c), -1.0);
            }
            if c > 0 {
                t.push(i, idx(r, c - 1), -1.0);
            }
            if c + 1 < side {
                t.push(i, idx(r, c + 1), -1.0);
            }
        }
    }
    t.to_csr()
}

#[test]
fn residual_trace_stays_empty_with_collection_off() {
    let a = laplacian_2d(6);
    let b = vec![1.0; a.rows()];
    let m = JacobiPreconditioner::new(&a).unwrap();
    oftec_telemetry::set_collecting(false);
    let quiet = solve_cg(&a, &b, None, &m, &IterativeParams::default()).unwrap();
    assert!(quiet.residual_trace.is_empty());
}
