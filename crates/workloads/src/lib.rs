#![forbid(unsafe_code)]

//! # bf-workloads — the paper's accelerated cloud functions
//!
//! The evaluation (paper §IV) uses three accelerators from the literature:
//!
//! * [`sobel`] — the **Spector Sobel edge detector** (32×8 blocks, 4×1
//!   window, 1 CU: the best-latency design point);
//! * [`mm`] — the **Spector matrix multiply** (1 CU, 8 work items, fully
//!   unrolled 16×16 blocks);
//! * [`pipecnn`] — **PipeCNN running AlexNet**, a multi-kernel inference
//!   pipeline whose host code synchronizes per layer.
//!
//! Each module provides a functional [`KernelBehavior`] (real math, so
//! end-to-end results are verifiable), a latency model *fitted to the
//! paper's own Fig. 4 measurements*, a bitstream constructor, a host-side
//! reference implementation, and a [`RequestProfile`] describing the
//! per-request task structure for the cluster simulation.
//!
//! The [`catalog`] names the three as the evaluation uses them: each
//! [`UseCase`]'s bitstream id, function prefix, Tables II–IV request
//! profile and Table I rates.
//!
//! [`KernelBehavior`]: bf_fpga::KernelBehavior

pub mod catalog;
pub mod mm;
pub mod pipecnn;
pub mod profile;
pub mod sobel;

pub use catalog::{table1_rates, LoadLevel, UseCase};
pub use pipecnn::CnnNetwork;
pub use profile::{OpProfile, RequestProfile, TaskProfile};

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;

    use super::*;

    proptest! {
        /// GEMM distributes over addition: A×(B+C) = A×B + A×C.
        #[test]
        fn mm_is_bilinear(
            n in 2u32..8,
            seed in any::<u64>(),
        ) {
            let len = (n * n) as usize;
            let gen = |salt: u64| -> Vec<f32> {
                (0..len)
                    .map(|i| {
                        let h = (seed ^ salt)
                            .wrapping_add(i as u64)
                            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
                        ((h >> 40) as f32 / (1u64 << 24) as f32) - 0.5
                    })
                    .collect()
            };
            let a = gen(1);
            let b = gen(2);
            let c = gen(3);
            let bc: Vec<f32> = b.iter().zip(&c).map(|(x, y)| x + y).collect();
            let lhs = mm::reference(&a, &bc, n);
            let ab = mm::reference(&a, &b, n);
            let ac = mm::reference(&a, &c, n);
            for i in 0..len {
                let rhs = ab[i] + ac[i];
                prop_assert!((lhs[i] - rhs).abs() < 1e-3, "index {i}: {} vs {rhs}", lhs[i]);
            }
        }

        /// A constant image has zero gradient everywhere.
        #[test]
        fn sobel_of_constant_image_is_zero(
            w in 3u32..24,
            h in 3u32..24,
            pixel in any::<u32>(),
        ) {
            let input = vec![pixel; (w * h) as usize];
            let out = sobel::reference(&input, w, h);
            prop_assert!(out.iter().all(|&p| p & 0x00ff_ffff == 0), "non-zero gradient");
        }

        /// Sobel kernel timing is monotone in image size.
        #[test]
        fn sobel_timing_is_monotone(a in 1u64..1 << 22, b in 1u64..1 << 22) {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            let t = sobel::kernel_timing();
            prop_assert!(t.evaluate(lo) <= t.evaluate(hi));
        }

        /// CNN layer shape propagation never produces a zero dimension for
        /// valid configurations.
        #[test]
        fn tiny_cnn_shapes_are_positive(_x in 0u8..1) {
            for net in [CnnNetwork::tiny(), CnnNetwork::alexnet()] {
                for (c, h, w) in net.shapes() {
                    prop_assert!(c > 0 && h > 0 && w > 0);
                }
            }
        }
    }
}
