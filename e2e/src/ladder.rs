//! The entry-point ladder: the workload's own seeded requests replayed one
//! rung lower each time (see `script.rs`), single client, closed loop.
//!
//! Cost per rung is taken in **CPU milliseconds per request** over every
//! thread of the process, because that adds up across threads where wall
//! time does not; the difference between adjacent rungs is the self cost
//! of the layer between them.

use std::collections::BTreeMap;
use std::time::Duration;

use crate::clock;
use crate::rig;
use crate::script::{BoardRung, Inputs, KernelRung, OclRung, RawRung, Rung, Script};
use crate::stats;
use crate::trace::Tracer;
use crate::workloads::{self, Kind};

/// Segments a rung's slice is cut into, each on a fresh thread, for the
/// reason the window is (`runner::SEGMENTS`): one thread is one placement.
const SEGMENTS: u32 = 4;

/// Requests a rung may time in one segment. A rung with nothing to do (L4
/// of a workload without kernels) would otherwise fill memory with samples
/// of an empty loop.
const MAX_SAMPLES: usize = 1 << 16;

/// Runs requests at `rung` until `end`, returning each one's wall time.
fn drive(
    rung: &mut dyn Rung,
    script: &mut Script,
    next: &mut u64,
    inputs: &Inputs,
    end: clock::Stamp,
) -> Result<Vec<f64>, String> {
    let mut quiet = Tracer::new(false, clock::now());
    let mut steps = Vec::with_capacity(64);
    let mut walls = Vec::with_capacity(1 << 12);
    loop {
        steps.clear();
        script(*next, 0, &mut steps);
        *next += 1;
        let start = clock::now();
        rung.run(&steps, inputs, &mut quiet)?;
        walls.push(clock::micros(start.elapsed()));
        if end.passed() || walls.len() >= MAX_SAMPLES {
            return Ok(walls);
        }
    }
}

/// Median wall time and CPU time of one request at one rung.
fn measure(
    rung: &mut dyn Rung,
    script: &mut Script,
    inputs: &Inputs,
    slice: Duration,
) -> Result<(f64, f64), String> {
    let mut next = 0;
    drive(
        rung,
        script,
        &mut next,
        inputs,
        clock::now().plus(slice / 4),
    )?;
    let mut walls = Vec::new();
    let cpu_start = clock::process_cpu_ms().unwrap_or(0.0);
    for _ in 0..SEGMENTS {
        let end = clock::now().plus(slice / SEGMENTS);
        let segment = std::thread::scope(|scope| {
            scope
                .spawn(|| drive(rung, script, &mut next, inputs, end))
                .join()
        });
        walls.extend(segment.map_err(|_| "a rung thread panicked")??);
    }
    let cpu_ms = clock::process_cpu_ms().unwrap_or(0.0) - cpu_start;
    let n = walls.len() as f64;
    stats::sort(&mut walls);
    Ok((stats::quantile(&walls, 0.5).unwrap_or(0.0), cpu_ms / n))
}

/// Runs rungs L1 to L4 for `workload`, `slice` of measurement each, and
/// returns `l<N>.wall_us` / `l<N>.cpu_ms` plus what one L1 request puts on
/// the wire. Empty for a workload with no data plane.
pub fn run(workload: &str, seed: u64, slice: Duration) -> Result<BTreeMap<String, f64>, String> {
    let mut out = BTreeMap::new();
    // Tenant 0's connections and script, for every rung alike.
    let d = match workloads::kind(workload) {
        Some(Kind::Direct(d)) => d,
        Some(Kind::Placement) => return Ok(out),
        None => return Err(format!("unknown workload {workload:?}")),
    };
    let (plans, inputs, script) = (d.conns, (d.inputs)(seed), d.script);
    let mut put = |rung: &str, (wall_us, cpu_ms): (f64, f64)| {
        out.insert(format!("{rung}.wall_us"), wall_us);
        out.insert(format!("{rung}.cpu_ms"), cpu_ms);
    };

    // L1: raw envelopes. The manager runs without a payload cache: digest
    // references are the remote library's protocol, which this rung is
    // defined to skip, so every payload travels inline or through shm.
    let manager = rig::manager(0);
    let mut raw = RawRung::deploy(&manager, &plans)?;
    put(
        "l1",
        measure(&mut raw, &mut script(seed, 0), &inputs, slice)?,
    );
    raw.counting = Some(Default::default());
    let mut steps = Vec::new();
    script(seed, 0)(1, 0, &mut steps);
    raw.run(&steps, &inputs, &mut Tracer::new(false, clock::now()))?;
    let wire = raw.counting.take().unwrap_or_default();
    drop(raw);
    drop(manager);

    // L2: the same bf-ocl code on a directly attached board.
    let native = rig::native_device();
    let devices: Vec<_> = plans.iter().map(|_| native.clone()).collect();
    let mut ocl = OclRung::deploy(&devices, &plans).map_err(|e| e.to_string())?;
    put(
        "l2",
        measure(&mut ocl, &mut script(seed, 0), &inputs, slice)?,
    );

    // L3: board methods. L4: kernel bodies.
    let mut board = BoardRung::deploy(&plans)?;
    put(
        "l3",
        measure(&mut board, &mut script(seed, 0), &inputs, slice)?,
    );
    let mut kernel = KernelRung::deploy(&plans, &inputs)?;
    put(
        "l4",
        measure(&mut kernel, &mut script(seed, 0), &inputs, slice)?,
    );

    out.insert("wire.frames".to_string(), wire.frames as f64);
    out.insert("wire.bytes".to_string(), wire.bytes as f64);
    out.insert("wire.codec_us".to_string(), wire.codec_us);
    Ok(out)
}
