//! Task execution: runs a sealed task's operations back-to-back on the
//! board (paper Fig. 3, step 4) and produces the per-operation completion
//! notifications (step 5).
//!
//! Called inline from the manager's event loop when a task reaches the
//! head of the central FIFO queue; the returned envelopes are routed onto
//! the owning session's bounded completion stream by the caller.

use std::sync::Arc;

use bf_fpga::{FpgaError, Payload};
use bf_metrics::{Counter, Histogram};
use bf_rpc::{DataRef, ErrorCode, Response, ResponseEnvelope};

use crate::lock_order;
use crate::manager::Shared;
use crate::task::{Operation, Task};

/// The manager's per-operation series, each resolved once, at its first
/// use, so a scrape lists exactly the series it listed when every op
/// looked them up by name. Owned by the event loop, the one caller of
/// [`execute_task`].
#[derive(Default)]
pub(crate) struct OpMetrics {
    latency: Option<Histogram>,
    ops: Option<Counter>,
    tasks: Option<Counter>,
}

impl OpMetrics {
    fn latency(&mut self, shared: &Shared) -> &Histogram {
        self.latency.get_or_insert_with(|| {
            let device = [("device", shared.config.device_id.as_str())];
            shared
                .metrics
                .histogram("bf_manager_op_latency_ms", &device)
        })
    }

    fn ops(&mut self, shared: &Shared) -> &Counter {
        self.ops.get_or_insert_with(|| {
            let device = [("device", shared.config.device_id.as_str())];
            shared.metrics.counter("bf_manager_ops_total", &device)
        })
    }

    fn tasks(&mut self, shared: &Shared) -> &Counter {
        self.tasks.get_or_insert_with(|| {
            let device = [("device", shared.config.device_id.as_str())];
            shared.metrics.counter("bf_manager_tasks_total", &device)
        })
    }
}

/// Executes every operation of `task` and returns the completion (or
/// error) envelope for each, plus the fence completion when the task
/// carries a `finish_tag`.
///
/// Execution never stops early: a vanished client still advances the board
/// timeline so utilization accounting stays consistent.
pub(crate) fn execute_task(
    shared: &Arc<Shared>,
    metrics: &mut OpMetrics,
    task: &Task,
) -> Vec<ResponseEnvelope> {
    let mut out = Vec::with_capacity(task.len() + 1);
    let mut last_end = task.arrival;
    for op in &task.ops {
        let tag = op.tag();
        let response = execute_op(shared, task, op);
        let (sent_at, body) = match response {
            Ok((started, ended, data)) => {
                last_end = last_end.max(ended);
                metrics
                    .latency(shared)
                    .observe((ended - started).as_millis_f64());
                (
                    ended,
                    Response::Completed {
                        started_at: started,
                        ended_at: ended,
                        data,
                    },
                )
            }
            Err((code, message)) => (last_end, Response::Error { code, message }),
        };
        out.push(ResponseEnvelope { tag, sent_at, body });
        metrics.ops(shared).inc();
    }
    if let Some(finish_tag) = task.finish_tag {
        // A finish fence drains everything ahead of it in the central
        // queue: its completion instant is the board's drain point, which
        // (by FIFO) covers every earlier task — including an empty fence's
        // predecessors.
        let drain = lock_order::tracked(&shared.board, "board").available_at();
        let ended = last_end.max(drain).max(task.arrival);
        out.push(ResponseEnvelope {
            tag: finish_tag,
            sent_at: ended,
            body: Response::Completed {
                started_at: task.arrival,
                ended_at: ended,
                data: None,
            },
        });
    }
    metrics.tasks(shared).inc();
    out
}

type OpOutcome = Result<
    (
        bf_model::VirtualTime,
        bf_model::VirtualTime,
        Option<DataRef>,
    ),
    (ErrorCode, String),
>;

fn execute_op(shared: &Arc<Shared>, task: &Task, op: &Operation) -> OpOutcome {
    // Each arm takes the board lock itself: a write first does the work
    // that needs no board — and hashing a payload is the longest of it —
    // so the one lock every session's `create_buffer`/`ensure_bitstream`
    // and every scrape also needs is held for board work only.
    let lock_board = || lock_order::tracked(&shared.board, "board");
    match op {
        Operation::Write {
            buffer,
            offset,
            data,
            digest,
            ..
        } => {
            let payload = resolve_payload(task, data)?;
            // Inline/digest payloads carry the session-computed digest;
            // shm payloads only materialize here, so theirs is computed
            // here.
            let keyed = match (&shared.cache, &payload) {
                (Some(cache), Payload::Data(bytes)) => Some((
                    cache,
                    digest.unwrap_or_else(|| bf_cache::content_digest(bytes)),
                    bytes.len() as u64,
                )),
                _ => None,
            };
            let mut board = lock_board();
            if let Some((cache, digest, len)) = keyed {
                // bf-taint: allow(taint_auth): digest and len describe
                // the *resolved* bytes measured on this side (content
                // identity), not a client claim — the session validated
                // or recomputed the digest before the task was staged.
                if cache.device_resident(buffer.0, *offset, digest, len) {
                    // Identical content already occupies the target
                    // region: skip the PCIe DMA outright. No board time
                    // is charged; the write completes at issue.
                    let now = task.arrival.max(board.available_at());
                    return Ok((now, now, None));
                }
                let timing = board
                    .write_buffer(*buffer, *offset, &payload, task.arrival, &task.owner)
                    .map_err(map_fpga_err)?;
                // bf-taint: allow(taint_auth): same content-identity
                // argument as the device_resident check above.
                cache.note_device_resident(buffer.0, *offset, digest, len);
                return Ok((timing.started_at, timing.ended_at, None));
            }
            let timing = board
                .write_buffer(*buffer, *offset, &payload, task.arrival, &task.owner)
                .map_err(map_fpga_err)?;
            Ok((timing.started_at, timing.ended_at, None))
        }
        Operation::Read {
            buffer,
            offset,
            len,
            ..
        } => {
            let mut board = lock_board();
            let (timing, payload) = board
                .read_buffer(*buffer, *offset, *len, task.arrival, &task.owner)
                .map_err(map_fpga_err)?;
            let data = stage_read_result(task, payload);
            Ok((timing.started_at, timing.ended_at, Some(data)))
        }
        Operation::Copy {
            src,
            dst,
            src_offset,
            dst_offset,
            len,
            ..
        } => {
            let mut board = lock_board();
            let timing = board
                .copy_buffer(
                    *src,
                    *dst,
                    *src_offset,
                    *dst_offset,
                    *len,
                    task.arrival,
                    &task.owner,
                )
                .map_err(map_fpga_err)?;
            if let Some(cache) = &shared.cache {
                // The copy clobbered part of the destination buffer.
                cache.invalidate_buffer(dst.0);
            }
            Ok((timing.started_at, timing.ended_at, None))
        }
        Operation::Kernel {
            name, invocation, ..
        } => {
            let mut board = lock_board();
            let timing = board
                .launch_kernel(name, invocation, task.arrival, &task.owner)
                .map_err(map_fpga_err)?;
            if let Some(cache) = &shared.cache {
                // A kernel may write any buffer it was handed; drop
                // residency for all of them rather than model dataflow.
                for arg in &invocation.args {
                    if let bf_fpga::KernelArg::Buffer(id) = arg {
                        cache.invalidate_buffer(id.0);
                    }
                }
            }
            Ok((timing.started_at, timing.ended_at, None))
        }
    }
}

/// Materializes a write payload from its wire reference: inline bytes pass
/// through, shm references are read out of the client's segment, synthetic
/// sizes stay synthetic.
fn resolve_payload(task: &Task, data: &DataRef) -> Result<Payload, (ErrorCode, String)> {
    match data {
        // A refcount bump: the device adopts the same bytes the wire
        // frame (or the client) still holds.
        DataRef::Inline(payload) => Ok(Payload::Data(payload.share().into_bytes())),
        DataRef::Synthetic(len) => Ok(Payload::Synthetic(*len)),
        DataRef::Shm { offset, len } => {
            let shm = task.shm.as_ref().ok_or((
                ErrorCode::InvalidLaunch,
                "shm payload on a connection without a segment".to_string(),
            ))?;
            // Zero-copy snapshot of the region.
            let bytes = shm
                .read(*offset, *len)
                .map_err(|e| (ErrorCode::OutOfBounds, e.to_string()))?;
            Ok(Payload::Data(bytes))
        }
        // Digest references are resolved against the payload cache at
        // session staging time; one reaching the worker is a bug.
        DataRef::Digest { digest, .. } => Err((
            ErrorCode::Internal,
            format!("unresolved digest reference {digest:#034x} reached the worker"),
        )),
    }
}

/// Ships a read result back: through the shm segment when available (the
/// client copies it out — the single retained copy), inline otherwise.
fn stage_read_result(task: &Task, payload: Payload) -> DataRef {
    match payload {
        Payload::Synthetic(len) => DataRef::Synthetic(len),
        Payload::Data(bytes) => {
            let len = bytes.len() as u64;
            if let Some(shm) = &task.shm {
                if let Ok(offset) = shm.alloc(len) {
                    // Adopt the device's read snapshot into the region —
                    // a refcount bump, not a copy.
                    if shm.write_bytes(offset, bytes.share()).is_ok() {
                        return DataRef::Shm { offset, len };
                    }
                    let _ = shm.free(offset);
                }
                // Segment exhausted: fall back to the inline path rather
                // than failing the read.
            }
            DataRef::Inline(bytes.into())
        }
    }
}

fn map_fpga_err(e: FpgaError) -> (ErrorCode, String) {
    let code = match &e {
        FpgaError::BufferNotFound(_) => ErrorCode::InvalidHandle,
        FpgaError::OutOfMemory { .. } => ErrorCode::OutOfResources,
        FpgaError::OutOfBounds { .. } => ErrorCode::OutOfBounds,
        FpgaError::NoBitstream | FpgaError::KernelNotFound(_) => ErrorCode::BuildFailure,
        FpgaError::InvalidKernelArgs(_) => ErrorCode::InvalidLaunch,
    };
    (code, e.to_string())
}
