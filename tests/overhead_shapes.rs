//! Integration: the Fig. 4 overhead shapes.
//!
//! The absolute values come from the calibrated models; what this test
//! pins down are the *relationships* the paper reports:
//!
//! * Fig. 4(a): gRPC ≈ 4× native at large transfer sizes; shm's overhead
//!   at 2 GB is one memcpy (~155 ms); small sizes are dominated by ~2 ms
//!   of control signalling.
//! * Fig. 4(b): Sobel is I/O-bound → shm overhead is a visible fraction
//!   (paper: 24.04% relative at 1080p).
//! * Fig. 4(c): MM is compute-bound → shm overhead is negligible
//!   (paper: 0.27% relative at 4096).

use bf_bench::{mm_rtt, sobel_rtt, write_read_rtt, System};
use blastfunction::prelude::VirtualDuration;

#[test]
fn fig4a_grpc_is_about_4x_native_at_large_sizes() {
    let total = 2u64 << 30;
    let native = write_read_rtt(System::Native, total);
    let grpc = write_read_rtt(System::BlastFunction, total);
    let ratio = grpc.as_secs_f64() / native.as_secs_f64();
    assert!(
        (3.0..6.0).contains(&ratio),
        "gRPC/native at 2 GB should be ~4x, got {ratio:.2} ({grpc} vs {native})"
    );
}

#[test]
fn fig4a_shm_overhead_at_2gb_is_one_memcpy() {
    let total = 2u64 << 30;
    let native = write_read_rtt(System::Native, total);
    let shm = write_read_rtt(System::BlastFunctionShm, total);
    let overhead = shm - native;
    // Paper: "a maximum overhead of 155 ms when transferring 2 GBs".
    let ms = overhead.as_millis_f64();
    assert!(
        (100.0..250.0).contains(&ms),
        "shm overhead at 2 GB: {ms:.1} ms"
    );
}

#[test]
fn fig4a_small_sizes_cost_about_2ms_of_control() {
    let native = write_read_rtt(System::Native, 1 << 10);
    let shm = write_read_rtt(System::BlastFunctionShm, 1 << 10);
    let overhead = (shm - native).as_millis_f64();
    assert!(
        (1.0..3.5).contains(&overhead),
        "control overhead {overhead:.2} ms"
    );
}

#[test]
fn fig4a_rtt_is_monotone_in_size() {
    for system in [
        System::Native,
        System::BlastFunction,
        System::BlastFunctionShm,
    ] {
        let mut prev = VirtualDuration::ZERO;
        for total in [1u64 << 10, 1 << 20, 1 << 26, 1 << 31] {
            let rtt = write_read_rtt(system, total);
            assert!(rtt >= prev, "{system:?}: RTT not monotone at {total}");
            prev = rtt;
        }
    }
}

#[test]
fn fig4b_native_endpoints_match_the_paper() {
    let small = sobel_rtt(System::Native, 10, 10).as_millis_f64();
    let large = sobel_rtt(System::Native, 1920, 1080).as_millis_f64();
    // Paper: 0.27 ms and 14.53 ms.
    assert!((small - 0.27).abs() < 0.1, "10x10 native RTT {small:.3} ms");
    assert!(
        (large - 14.53).abs() < 1.0,
        "1080p native RTT {large:.2} ms"
    );
}

#[test]
fn fig4b_shm_overhead_is_a_constant_few_ms() {
    let mut overheads = Vec::new();
    for (w, h) in [(100, 100), (640, 480), (1280, 720), (1920, 1080)] {
        let native = sobel_rtt(System::Native, w, h);
        let shm = sobel_rtt(System::BlastFunctionShm, w, h);
        overheads.push((shm - native).as_millis_f64());
    }
    for o in &overheads {
        assert!(
            (0.5..4.5).contains(o),
            "shm overhead {o:.2} ms outside the ~2 ms band"
        );
    }
    let spread = overheads.iter().cloned().fold(f64::MIN, f64::max)
        - overheads.iter().cloned().fold(f64::MAX, f64::min);
    assert!(
        spread < 2.5,
        "overhead should be near-constant, spread {spread:.2} ms"
    );
}

#[test]
fn fig4c_native_endpoints_match_the_paper() {
    let small = mm_rtt(System::Native, 16).as_millis_f64();
    let large = mm_rtt(System::Native, 4096).as_secs_f64();
    // Paper: 0.45 ms and 3.571 s.
    assert!(
        (small - 0.45).abs() < 0.15,
        "16x16 native RTT {small:.3} ms"
    );
    assert!((large - 3.571).abs() < 0.1, "4096 native RTT {large:.3} s");
}

#[test]
fn relative_overhead_compute_bound_vs_io_bound() {
    // Paper: MM@4096 shm overhead 0.27% (17 ms on 3.588 s); Sobel@1080p
    // 24.04%. The compute-bound kernel must hide the remoting cost.
    let mm_native = mm_rtt(System::Native, 4096);
    let mm_shm = mm_rtt(System::BlastFunctionShm, 4096);
    let mm_rel = (mm_shm - mm_native).as_secs_f64() / mm_native.as_secs_f64() * 100.0;
    assert!(mm_rel < 3.0, "MM relative shm overhead {mm_rel:.2}%");

    let so_native = sobel_rtt(System::Native, 1920, 1080);
    let so_shm = sobel_rtt(System::BlastFunctionShm, 1920, 1080);
    let so_rel = (so_shm - so_native).as_secs_f64() / so_native.as_secs_f64() * 100.0;
    assert!(
        (8.0..40.0).contains(&so_rel),
        "Sobel relative shm overhead {so_rel:.2}%"
    );
    assert!(
        so_rel > 5.0 * mm_rel,
        "I/O-bound must suffer far more than compute-bound"
    );
}
