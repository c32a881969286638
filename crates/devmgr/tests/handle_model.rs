//! One handle model, two executors: a Device Manager session and the
//! `NativeBackend` hand out the same handle values for the same create
//! sequence, and refuse every stale or foreign handle the same way — as a
//! wire `ErrorCode` from the session and as a `ClError` from the native
//! backend, called through the `Backend` trait.

use std::sync::Arc;
use std::time::Duration;

use bf_devmgr::{DeviceManager, DeviceManagerConfig, ManagerEndpoint};
use bf_fpga::{
    Bitstream, Board, BoardSpec, DeviceMemory, FnKernel, KernelDescriptor, KernelInvocation,
    Payload,
};
use bf_model::{node_b, PcieGeneration, PcieLink, VirtualClock, VirtualDuration, VirtualTime};
use bf_ocl::{
    ArgValue, Backend, BitstreamCatalog, ClError, ClResult, ContextId, KernelId, MemId,
    NativeBackend, NdRange, ProgramId, QueueId,
};
use bf_rpc::{DataRef, ErrorCode, PathCosts, Request, RequestEnvelope, Response, WireArg};
use parking_lot::Mutex;

// The fixed create sequence, in order; `fixed_sequence_*` assert that both
// executors really return these values.
const CTX: u64 = 1;
const PROGRAM: u64 = 2;
/// "incr", argument 0 bound to `BUFFER`: launchable.
const KERNEL: u64 = 3;
const BUFFER: u64 = 4;
const QUEUE: u64 = 5;
/// "incr" with only argument 1 set.
const KERNEL_MISSING_ARG: u64 = 6;
/// "incr" with argument 0 bound to a buffer the caller does not own.
const KERNEL_FOREIGN_ARG: u64 = 7;
/// A handle value no create call returned to this caller.
const STALE: u64 = 99;

fn board() -> Arc<Mutex<Board>> {
    Arc::new(Mutex::new(Board::new(
        BoardSpec::de5a_net(),
        PcieLink::new(PcieGeneration::Gen3, 8),
    )))
}

fn catalog() -> BitstreamCatalog {
    let incr = FnKernel::new(
        |_inv: &KernelInvocation| VirtualDuration::from_micros(10),
        |inv: &KernelInvocation, mem: &mut DeviceMemory| {
            let buf = inv.arg(0)?.as_buffer()?;
            for b in mem.bytes_mut(buf)? {
                *b = b.wrapping_add(1);
            }
            Ok(())
        },
    );
    let mut cat = BitstreamCatalog::new();
    cat.register(Arc::new(Bitstream::new(
        "incr",
        vec![KernelDescriptor::new("incr", Arc::new(incr))],
    )));
    cat
}

fn fixed_sequence_native(be: &dyn Backend) -> Vec<u64> {
    let ctx = be.create_context().expect("context");
    let program = be.build_program(ctx, "incr").expect("program");
    let kernel = be.create_kernel(program, "incr").expect("kernel");
    let buffer = be.create_buffer(ctx, 8).expect("buffer");
    let queue = be.create_queue(ctx).expect("queue");
    let missing = be.create_kernel(program, "incr").expect("kernel");
    let foreign = be.create_kernel(program, "incr").expect("kernel");
    be.set_kernel_arg(kernel, 0, ArgValue::Buffer(buffer))
        .expect("arg");
    be.set_kernel_arg(missing, 1, ArgValue::U32(1))
        .expect("arg");
    be.set_kernel_arg(foreign, 0, ArgValue::Buffer(MemId(STALE)))
        .expect("arg");
    vec![
        ctx.0, program.0, kernel.0, buffer.0, queue.0, missing.0, foreign.0,
    ]
}

struct Wire {
    endpoint: ManagerEndpoint,
    tag: u64,
}

impl Wire {
    fn call(&mut self, body: Request) -> Response {
        self.tag += 1;
        self.endpoint
            .channel
            .send(&RequestEnvelope {
                tag: self.tag,
                client: self.endpoint.client,
                sent_at: VirtualTime::ZERO,
                body,
            })
            .expect("send");
        loop {
            let resp = self
                .endpoint
                .channel
                .recv_timeout(Duration::from_secs(5))
                .expect("response within 5 s");
            if resp.tag == self.tag {
                return resp.body;
            }
        }
    }

    fn handle(&mut self, body: Request) -> u64 {
        match self.call(body) {
            Response::Handle { id } => id,
            other => panic!("expected a handle, got {other:?}"),
        }
    }

    fn ack(&mut self, kernel: u64, index: u32, arg: WireArg) {
        let resp = self.call(Request::SetKernelArg { kernel, index, arg });
        assert!(matches!(resp, Response::Ack), "got {resp:?}");
    }
}

fn fixed_sequence_wire(w: &mut Wire) -> Vec<u64> {
    let ctx = w.handle(Request::CreateContext);
    let program = w.handle(Request::BuildProgram {
        bitstream: "incr".into(),
    });
    let incr = || Request::CreateKernel {
        program,
        name: "incr".into(),
    };
    let kernel = w.handle(incr());
    let buffer = w.handle(Request::CreateBuffer {
        context: ctx,
        len: 8,
    });
    let queue = w.handle(Request::CreateQueue { context: ctx });
    let missing = w.handle(incr());
    let foreign = w.handle(incr());
    w.ack(kernel, 0, WireArg::Buffer(buffer));
    w.ack(missing, 1, WireArg::U32(1));
    w.ack(foreign, 0, WireArg::Buffer(STALE));
    vec![ctx, program, kernel, buffer, queue, missing, foreign]
}

fn bytes() -> Payload {
    Payload::Data(vec![1u8; 8].into())
}

/// One refused call, spelled for both executors.
struct Case {
    what: &'static str,
    wire: Request,
    native: fn(&dyn Backend) -> ClResult<()>,
    code: ErrorCode,
    cl: ClError,
}

fn cases() -> Vec<Case> {
    let write = |queue, buffer| Request::EnqueueWrite {
        queue,
        buffer,
        offset: 0,
        data: DataRef::Synthetic(8),
    };
    let read = |queue, buffer| Request::EnqueueRead {
        queue,
        buffer,
        offset: 0,
        len: 8,
    };
    let copy = |queue, src, dst| Request::EnqueueCopy {
        queue,
        src,
        dst,
        src_offset: 0,
        dst_offset: 4,
        len: 4,
    };
    let launch = |queue, kernel| Request::EnqueueKernel {
        queue,
        kernel,
        work: [8, 1, 1],
    };
    let denied = ClError::InvalidBuffer;
    vec![
        Case {
            what: "CreateKernel on a stale program",
            wire: Request::CreateKernel {
                program: STALE,
                name: "incr".into(),
            },
            native: |be| be.create_kernel(ProgramId(STALE), "incr").map(drop),
            code: ErrorCode::InvalidHandle,
            cl: ClError::InvalidProgram,
        },
        Case {
            what: "CreateKernel of a kernel not in the bitstream",
            wire: Request::CreateKernel {
                program: PROGRAM,
                name: "nope".into(),
            },
            native: |be| be.create_kernel(ProgramId(PROGRAM), "nope").map(drop),
            code: ErrorCode::BuildFailure,
            cl: ClError::BuildProgramFailure(String::new()),
        },
        Case {
            what: "SetKernelArg on a stale kernel",
            wire: Request::SetKernelArg {
                kernel: STALE,
                index: 0,
                arg: WireArg::U32(1),
            },
            native: |be| be.set_kernel_arg(KernelId(STALE), 0, ArgValue::U32(1)),
            code: ErrorCode::InvalidHandle,
            cl: ClError::InvalidKernel,
        },
        Case {
            what: "SetKernelArg index 256 on a stale kernel (the cap comes first)",
            wire: Request::SetKernelArg {
                kernel: STALE,
                index: 256,
                arg: WireArg::U32(1),
            },
            native: |be| be.set_kernel_arg(KernelId(STALE), 256, ArgValue::U32(1)),
            code: ErrorCode::InvalidLaunch,
            cl: ClError::InvalidKernelLaunch(String::new()),
        },
        Case {
            what: "CreateBuffer in a stale context",
            wire: Request::CreateBuffer {
                context: STALE,
                len: 8,
            },
            native: |be| be.create_buffer(ContextId(STALE), 8).map(drop),
            code: ErrorCode::InvalidHandle,
            cl: ClError::InvalidContext,
        },
        Case {
            what: "CreateQueue in a stale context",
            wire: Request::CreateQueue { context: STALE },
            native: |be| be.create_queue(ContextId(STALE)).map(drop),
            code: ErrorCode::InvalidHandle,
            cl: ClError::InvalidContext,
        },
        Case {
            what: "ReleaseBuffer of a foreign buffer",
            wire: Request::ReleaseBuffer { buffer: STALE },
            native: |be| be.release_buffer(MemId(STALE)),
            code: ErrorCode::AccessDenied,
            cl: denied.clone(),
        },
        Case {
            what: "EnqueueWrite to a foreign buffer",
            wire: write(QUEUE, STALE),
            native: |be| {
                be.enqueue_write(QueueId(QUEUE), MemId(STALE), 0, bytes(), false)
                    .map(drop)
            },
            code: ErrorCode::AccessDenied,
            cl: denied.clone(),
        },
        Case {
            what: "EnqueueWrite on a stale queue",
            wire: write(STALE, BUFFER),
            native: |be| {
                be.enqueue_write(QueueId(STALE), MemId(BUFFER), 0, bytes(), false)
                    .map(drop)
            },
            code: ErrorCode::InvalidHandle,
            cl: ClError::InvalidQueue,
        },
        Case {
            what: "EnqueueRead from a foreign buffer",
            wire: read(QUEUE, STALE),
            native: |be| {
                be.enqueue_read(QueueId(QUEUE), MemId(STALE), 0, 8, false)
                    .map(drop)
            },
            code: ErrorCode::AccessDenied,
            cl: denied.clone(),
        },
        Case {
            what: "EnqueueRead on a stale queue",
            wire: read(STALE, BUFFER),
            native: |be| {
                be.enqueue_read(QueueId(STALE), MemId(BUFFER), 0, 8, false)
                    .map(drop)
            },
            code: ErrorCode::InvalidHandle,
            cl: ClError::InvalidQueue,
        },
        Case {
            what: "EnqueueCopy from a foreign buffer",
            wire: copy(QUEUE, STALE, BUFFER),
            native: |be| {
                be.enqueue_copy(QueueId(QUEUE), MemId(STALE), MemId(BUFFER), 0, 4, 4)
                    .map(drop)
            },
            code: ErrorCode::AccessDenied,
            cl: denied.clone(),
        },
        Case {
            what: "EnqueueCopy into a foreign buffer",
            wire: copy(QUEUE, BUFFER, STALE),
            native: |be| {
                be.enqueue_copy(QueueId(QUEUE), MemId(BUFFER), MemId(STALE), 0, 4, 4)
                    .map(drop)
            },
            code: ErrorCode::AccessDenied,
            cl: denied.clone(),
        },
        Case {
            what: "EnqueueCopy on a stale queue",
            wire: copy(STALE, BUFFER, BUFFER),
            native: |be| {
                be.enqueue_copy(QueueId(STALE), MemId(BUFFER), MemId(BUFFER), 0, 4, 4)
                    .map(drop)
            },
            code: ErrorCode::InvalidHandle,
            cl: ClError::InvalidQueue,
        },
        Case {
            what: "EnqueueKernel with argument 0 never set",
            wire: launch(QUEUE, KERNEL_MISSING_ARG),
            native: |be| {
                be.enqueue_kernel(QueueId(QUEUE), KernelId(KERNEL_MISSING_ARG), NdRange::d1(8))
                    .map(drop)
            },
            code: ErrorCode::InvalidLaunch,
            cl: ClError::MissingKernelArg(0),
        },
        Case {
            what: "EnqueueKernel with a foreign buffer argument",
            wire: launch(QUEUE, KERNEL_FOREIGN_ARG),
            native: |be| {
                be.enqueue_kernel(QueueId(QUEUE), KernelId(KERNEL_FOREIGN_ARG), NdRange::d1(8))
                    .map(drop)
            },
            code: ErrorCode::AccessDenied,
            cl: denied,
        },
        Case {
            what: "EnqueueKernel of a stale kernel",
            wire: launch(QUEUE, STALE),
            native: |be| {
                be.enqueue_kernel(QueueId(QUEUE), KernelId(STALE), NdRange::d1(8))
                    .map(drop)
            },
            code: ErrorCode::InvalidHandle,
            cl: ClError::InvalidKernel,
        },
        Case {
            what: "EnqueueKernel on a stale queue",
            wire: launch(STALE, KERNEL),
            native: |be| {
                be.enqueue_kernel(QueueId(STALE), KernelId(KERNEL), NdRange::d1(8))
                    .map(drop)
            },
            code: ErrorCode::InvalidHandle,
            cl: ClError::InvalidQueue,
        },
        Case {
            what: "Flush of a stale queue",
            wire: Request::Flush { queue: STALE },
            native: |be| be.flush(QueueId(STALE)),
            code: ErrorCode::InvalidHandle,
            cl: ClError::InvalidQueue,
        },
        Case {
            what: "Finish of a stale queue",
            wire: Request::Finish { queue: STALE },
            native: |be| be.finish(QueueId(STALE)),
            code: ErrorCode::InvalidHandle,
            cl: ClError::InvalidQueue,
        },
    ]
}

/// Same variant; `MissingKernelArg` must also name the same index.
fn same_variant(got: &ClError, want: &ClError) -> bool {
    match (got, want) {
        (ClError::MissingKernelArg(g), ClError::MissingKernelArg(w)) => g == w,
        _ => std::mem::discriminant(got) == std::mem::discriminant(want),
    }
}

#[test]
fn stale_and_foreign_handles_are_refused_alike_by_both_executors() {
    let expected: Vec<u64> = (1..=7).collect();
    assert_eq!(
        expected,
        [
            CTX,
            PROGRAM,
            KERNEL,
            BUFFER,
            QUEUE,
            KERNEL_MISSING_ARG,
            KERNEL_FOREIGN_ARG
        ]
    );

    let native = NativeBackend::new(node_b(), board(), catalog(), VirtualClock::new(), "t");
    assert_eq!(fixed_sequence_native(&native), expected, "native handles");

    let manager = DeviceManager::new(
        DeviceManagerConfig::standalone("fpga-handles"),
        node_b(),
        board(),
        catalog(),
    );
    let mut wire = Wire {
        endpoint: manager.connect("handles", PathCosts::local_grpc()),
        tag: 0,
    };
    assert_eq!(fixed_sequence_wire(&mut wire), expected, "session handles");

    for case in cases() {
        match (case.native)(&native) {
            Err(got) => assert!(
                same_variant(&got, &case.cl),
                "{}: native returned {got:?}, want {:?}",
                case.what,
                case.cl
            ),
            Ok(()) => panic!("{}: native accepted it", case.what),
        }
        match wire.call(case.wire) {
            Response::Error { code, .. } => {
                assert_eq!(code, case.code, "{}: wire code", case.what);
            }
            other => panic!("{}: session answered {other:?}", case.what),
        }
    }
}
