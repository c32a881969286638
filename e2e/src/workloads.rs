//! The seven workloads. Sizes are fixed here and nowhere else; why each
//! exists and which layer it loads or bypasses is in the README and in
//! `BENCHMARK.json`.

use bf_workloads::sobel;

use crate::gen;
use crate::script::{ConnPlan, Expect, Inputs, KernelPlan, Path, Script, Step};

/// Every workload, in the order repetitions are interleaved.
pub const NAMES: [&str; 7] = [
    "small_ops",
    "bulk_xfer",
    "sobel_task",
    "shared_board",
    "cache_zipf",
    "placement_storm",
    "open_arrivals",
];

/// `cache_zipf`'s stream against a manager without the payload cache: not
/// a workload of the benchmark, but what the traced pass runs to price the
/// cache (`cache.off_throughput_rps`).
pub const CACHE_ZIPF_OFF: &str = "cache_zipf.cache_off";

/// A data-plane workload: a deployment plus a request script.
pub struct Direct {
    /// Manager payload-cache budget in bytes (0: no cache).
    pub cache_bytes: u64,
    /// Generator threads, each a tenant with its own connections.
    pub tenants: usize,
    /// Connections each tenant opens.
    pub conns: Vec<ConnPlan>,
    /// Open loop at this many arrivals per second; closed loop if `None`.
    pub open_rate: Option<f64>,
    /// Buffer sets a request can take (1 in a closed loop).
    pub slots: usize,
    /// Requests in the fixed pass every repetition runs after set-up.
    pub counter_requests: u64,
    /// Generates the inputs for a seed.
    pub inputs: fn(u64) -> Inputs,
    /// Builds a tenant's request script for a seed.
    pub script: fn(u64, usize) -> Script,
}

/// What kind of path a workload drives.
pub enum Kind {
    /// `bf-ocl` → … → board.
    Direct(Direct),
    /// `PlacementService` only; no data plane.
    Placement,
}

/// Looks a workload up by name.
pub fn kind(name: &str) -> Option<Kind> {
    Some(match name {
        "small_ops" => Kind::Direct(small_ops()),
        "bulk_xfer" => Kind::Direct(bulk_xfer()),
        "sobel_task" => Kind::Direct(sobel_task()),
        "shared_board" => Kind::Direct(shared_board()),
        "cache_zipf" => Kind::Direct(cache_zipf()),
        CACHE_ZIPF_OFF => Kind::Direct(Direct {
            cache_bytes: 0,
            ..cache_zipf()
        }),
        "open_arrivals" => Kind::Direct(open_arrivals()),
        "placement_storm" => Kind::Placement,
        _ => return None,
    })
}

// ---- small_ops ------------------------------------------------------------

const SMALL_OPS: usize = 16;
const SMALL_BYTES: usize = 4 << 10;
const SMALL_VARIANTS: usize = 32;

fn small_ops() -> Direct {
    Direct {
        cache_bytes: 0,
        tenants: 1,
        conns: vec![ConnPlan {
            path: Path::Grpc,
            buffers: vec![SMALL_BYTES as u64; SMALL_OPS],
            kernels: Vec::new(),
        }],
        open_rate: None,
        slots: 1,
        counter_requests: 512,
        inputs: |seed| Inputs {
            payloads: gen::blobs(seed, SMALL_BYTES, SMALL_VARIANTS),
            outputs: Vec::new(),
        },
        script: |_, _| {
            Box::new(|request, _, steps| {
                let pick = |k: usize| ((request as usize + k) % SMALL_VARIANTS) as u32;
                for k in 0..SMALL_OPS {
                    steps.push(Step::Write {
                        conn: 0,
                        buf: k as u16,
                        data: pick(k),
                        sync: false,
                    });
                }
                for k in 0..SMALL_OPS {
                    steps.push(Step::Read {
                        conn: 0,
                        buf: k as u16,
                        expect: Expect::Payload(pick(k)),
                        sync: false,
                    });
                }
                steps.push(Step::Finish { conn: 0 });
            })
        },
    }
}

// ---- bulk_xfer ------------------------------------------------------------

const BULK_BYTES: usize = 4 << 20;
const BULK_VARIANTS: usize = 3;
/// Every this-many requests the 4 MB reads are compared whole.
const BULK_FULL_CHECK_EVERY: u64 = 8;

fn bulk_xfer() -> Direct {
    let conn = |path| ConnPlan {
        path,
        buffers: vec![BULK_BYTES as u64],
        kernels: Vec::new(),
    };
    Direct {
        cache_bytes: 0,
        tenants: 1,
        conns: vec![conn(Path::Grpc), conn(Path::Shm)],
        open_rate: None,
        slots: 1,
        counter_requests: 64,
        inputs: |seed| Inputs {
            payloads: gen::blobs(seed, BULK_BYTES, BULK_VARIANTS),
            outputs: Vec::new(),
        },
        script: |_, _| {
            Box::new(|request, _, steps| {
                let data = (request % BULK_VARIANTS as u64) as u32;
                let expect = if request % BULK_FULL_CHECK_EVERY == 0 {
                    Expect::Payload(data)
                } else {
                    Expect::PayloadEdges(data)
                };
                for conn in 0..2 {
                    steps.push(Step::Write {
                        conn,
                        buf: 0,
                        data,
                        sync: true,
                    });
                    steps.push(Step::Read {
                        conn,
                        buf: 0,
                        expect,
                        sync: true,
                    });
                }
            })
        },
    }
}

// ---- Sobel tasks ----------------------------------------------------------

/// A connection with `n` input buffers, `n` output buffers and `n` kernels
/// binding input `k` to output `n + k`.
fn sobel_conn(n: usize, width: u32, height: u32) -> ConnPlan {
    ConnPlan {
        path: Path::Shm,
        buffers: vec![sobel::frame_bytes(width, height); 2 * n],
        kernels: (0..n)
            .map(|k| KernelPlan {
                input: k,
                output: n + k,
                width,
                height,
            })
            .collect(),
    }
}

fn sobel_inputs(seed: u64, width: u32, height: u32, variants: usize) -> Inputs {
    let mut inputs = Inputs::default();
    for frame in gen::frames(seed, width, height, variants) {
        inputs.payloads.push(frame.input);
        inputs.outputs.push(frame.expected);
    }
    inputs
}

/// One task of `n` frames: write+launch each, read each, finish. Frame
/// choice walks the variants from a per-tenant offset.
fn sobel_task_script(n: usize, variants: usize, tenant: usize) -> Script {
    Box::new(move |request, _, steps| {
        let pick = |k: usize| ((request as usize * n + k + tenant * 5) % variants) as u32;
        for k in 0..n {
            steps.push(Step::Write {
                conn: 0,
                buf: k as u16,
                data: pick(k),
                sync: false,
            });
            steps.push(Step::Launch {
                conn: 0,
                kernel: k as u16,
            });
        }
        for k in 0..n {
            steps.push(Step::Read {
                conn: 0,
                buf: (n + k) as u16,
                expect: Expect::Output(pick(k)),
                sync: false,
            });
        }
        steps.push(Step::Finish { conn: 0 });
    })
}

const FRAME_VARIANTS: usize = 8;

fn sobel_task() -> Direct {
    Direct {
        cache_bytes: 0,
        tenants: 1,
        conns: vec![sobel_conn(4, 320, 240)],
        open_rate: None,
        slots: 1,
        counter_requests: 64,
        inputs: |seed| sobel_inputs(seed, 320, 240, FRAME_VARIANTS),
        script: |_, tenant| sobel_task_script(4, FRAME_VARIANTS, tenant),
    }
}

const SMALL_FRAME_VARIANTS: usize = 16;

fn shared_board() -> Direct {
    Direct {
        cache_bytes: 0,
        tenants: 2,
        conns: vec![sobel_conn(8, 64, 64)],
        open_rate: None,
        slots: 1,
        counter_requests: 256,
        inputs: |seed| sobel_inputs(seed, 64, 64, SMALL_FRAME_VARIANTS),
        script: |_, tenant| sobel_task_script(8, SMALL_FRAME_VARIANTS, tenant),
    }
}

// ---- cache_zipf -----------------------------------------------------------

const CACHE_PAYLOAD: usize = 64 << 10;
const CACHE_CATALOG: usize = 256;
const CACHE_ENTRIES: u64 = 96;
const CACHE_WRITES: usize = 8;
/// Every this-many requests the written buffers are read back.
const CACHE_READBACK_EVERY: u64 = 64;

fn cache_zipf() -> Direct {
    Direct {
        cache_bytes: CACHE_ENTRIES * CACHE_PAYLOAD as u64,
        tenants: 1,
        conns: vec![ConnPlan {
            path: Path::Grpc,
            buffers: vec![CACHE_PAYLOAD as u64; CACHE_WRITES],
            kernels: Vec::new(),
        }],
        open_rate: None,
        slots: 1,
        counter_requests: 128,
        inputs: |seed| Inputs {
            payloads: gen::blobs(seed, CACHE_PAYLOAD, CACHE_CATALOG),
            outputs: Vec::new(),
        },
        script: |seed, tenant| {
            let mut zipf = gen::ZipfStream::new(seed, tenant as u64, CACHE_CATALOG);
            Box::new(move |request, _, steps| {
                let mut ranks = [0u32; CACHE_WRITES];
                for (k, rank) in ranks.iter_mut().enumerate() {
                    *rank = zipf.next_rank() as u32;
                    steps.push(Step::Write {
                        conn: 0,
                        buf: k as u16,
                        data: *rank,
                        sync: false,
                    });
                }
                if request % CACHE_READBACK_EVERY == 0 {
                    for (k, rank) in ranks.iter().enumerate() {
                        steps.push(Step::Read {
                            conn: 0,
                            buf: k as u16,
                            expect: Expect::Payload(*rank),
                            sync: false,
                        });
                    }
                }
                steps.push(Step::Finish { conn: 0 });
            })
        },
    }
}

// ---- open_arrivals --------------------------------------------------------

/// Fixed arrival rate, requests per second. ISSUE 11 proposed 500 (≈45 % of
/// what a closed loop of the same single-frame request completed on the
/// prototype's box) and one recalibration on the build box: there, 500 put
/// the 95th percentile on the knee of the queueing curve whenever the host
/// slowed (quartile distance over 14 interleaved repetitions: 56 % of the
/// median at 500, 27 % at 300), so it is 300, about a quarter of capacity —
/// one arrival in four still finds the board busy. Frozen: changing it
/// changes the workload.
pub const OPEN_RATE: f64 = 300.0;
/// Requests that can be in flight; a further arrival waits for a slot,
/// and the wait counts in its latency.
pub const OPEN_SLOTS: usize = 32;
/// Every this-many requests the output is kept and verified.
const OPEN_VERIFY_EVERY: u64 = 16;

fn open_arrivals() -> Direct {
    Direct {
        cache_bytes: 0,
        tenants: 1,
        conns: vec![sobel_conn(OPEN_SLOTS, 320, 240)],
        open_rate: Some(OPEN_RATE),
        slots: OPEN_SLOTS,
        counter_requests: 128,
        inputs: |seed| sobel_inputs(seed, 320, 240, FRAME_VARIANTS),
        script: |_, _| {
            Box::new(|request, slot, steps| {
                let frame = (request % FRAME_VARIANTS as u64) as u32;
                steps.push(Step::Write {
                    conn: 0,
                    buf: slot as u16,
                    data: frame,
                    sync: false,
                });
                steps.push(Step::Launch {
                    conn: 0,
                    kernel: slot as u16,
                });
                steps.push(Step::Read {
                    conn: 0,
                    buf: (OPEN_SLOTS + slot) as u16,
                    expect: if request % OPEN_VERIFY_EVERY == 0 {
                        Expect::Output(frame)
                    } else {
                        Expect::Nothing
                    },
                    sync: false,
                });
                steps.push(Step::Flush { conn: 0 });
            })
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn steps_of(name: &str, request: u64) -> Vec<Step> {
        let Some(Kind::Direct(d)) = kind(name) else {
            panic!("{name} is not a direct workload");
        };
        let mut script = (d.script)(9, 0);
        let mut steps = Vec::new();
        script(request, 0, &mut steps);
        steps
    }

    #[test]
    fn every_name_resolves() {
        for name in NAMES {
            assert!(kind(name).is_some(), "{name}");
        }
        assert!(kind("nope").is_none());
    }

    #[test]
    fn request_zero_is_verified_in_every_direct_workload() {
        for name in NAMES {
            if matches!(kind(name), Some(Kind::Placement)) {
                continue;
            }
            let checked = steps_of(name, 0)
                .iter()
                .any(|s| matches!(s, Step::Read { expect, .. } if *expect != Expect::Nothing));
            assert!(checked, "{name}: the set-up request verifies nothing");
        }
    }

    #[test]
    fn request_shapes() {
        assert_eq!(steps_of("small_ops", 3).len(), 16 + 16 + 1);
        assert_eq!(steps_of("bulk_xfer", 3).len(), 4);
        assert_eq!(steps_of("sobel_task", 3).len(), 4 * 2 + 4 + 1);
        assert_eq!(steps_of("shared_board", 3).len(), 8 * 2 + 8 + 1);
        assert_eq!(steps_of("cache_zipf", 3).len(), 8 + 1);
        assert_eq!(steps_of("cache_zipf", 64).len(), 8 + 8 + 1);
        assert_eq!(steps_of("open_arrivals", 3).len(), 4);
    }

    #[test]
    fn same_seed_same_cache_requests() {
        assert_eq!(steps_of("cache_zipf", 5), steps_of("cache_zipf", 5));
    }
}
