//! A direct-mode request as data, and the entry points that can run it.
//!
//! Every data-plane workload describes its request as a list of [`Step`]s
//! over the buffers and kernels a [`ConnPlan`] declares. The same list then
//! runs at each rung of the entry-point ladder:
//!
//! * [`OclRung`] — the `bf-ocl` handles, over a `RemoteBackend` (L0, the
//!   workload itself) or a `NativeBackend` (L2);
//! * [`RawRung`] — raw `RequestEnvelope`s on `ManagerEndpoint::channel`,
//!   skipping `bf-ocl` and `bf-remote` (L1);
//! * [`BoardRung`] — `Board` methods, skipping the manager too (L3);
//! * [`KernelRung`] — only the kernel bodies (L4).
//!
//! Adjacent rungs differ by one layer, which is what lets the harness
//! attribute cost without spans inside the program.

use std::sync::Arc;

use bf_devmgr::{DeviceManager, ManagerEndpoint};
use bf_fpga::{
    Bitstream, Board, BufferId, DeviceMemory, KernelArg, KernelBehavior, KernelInvocation, Payload,
};
use bf_model::VirtualTime;
use bf_ocl::{ArgValue, Buffer, ClResult, Context, Device, Event, Kernel, NdRange, Queue};
use bf_rpc::{
    DataRef, PathCosts, Request, RequestEnvelope, Response, ResponseEnvelope, WireArg, WireDecode,
    WireEncode,
};
use bf_workloads::sobel;

use crate::clock;
use crate::rig;
use crate::trace::Tracer;

/// Which data path a connection takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// Inline payloads through the codec (`PathCosts::local_grpc`).
    Grpc,
    /// Payloads through the shared-memory segment (`PathCosts::local_shm`).
    Shm,
}

impl Path {
    /// The cost model that selects this path at connect time.
    pub fn costs(self) -> PathCosts {
        match self {
            Path::Grpc => PathCosts::local_grpc(),
            Path::Shm => PathCosts::local_shm(),
        }
    }
}

/// One Sobel kernel object with its arguments set once at deployment.
#[derive(Debug, Clone, Copy)]
pub struct KernelPlan {
    /// Index of the input buffer in the connection's plan.
    pub input: usize,
    /// Index of the output buffer.
    pub output: usize,
    /// Frame width in pixels.
    pub width: u32,
    /// Frame height in pixels.
    pub height: u32,
}

/// What one connection allocates at deployment.
#[derive(Debug, Clone)]
pub struct ConnPlan {
    /// Data path of the connection.
    pub path: Path,
    /// Buffer sizes in bytes.
    pub buffers: Vec<u64>,
    /// Kernel objects (empty: no program is built).
    pub kernels: Vec<KernelPlan>,
}

/// The generated inputs a step can name.
#[derive(Debug, Default)]
pub struct Inputs {
    /// Payloads to write.
    pub payloads: Vec<Payload>,
    /// Expected kernel outputs.
    pub outputs: Vec<Vec<u8>>,
}

/// What a read must return.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// Not checked (another request of the same kind is).
    Nothing,
    /// The bytes of `payloads[i]`, whole.
    Payload(u32),
    /// Length plus the first and last 4 KB of `payloads[i]`: multi-megabyte
    /// reads are compared whole on a fixed share of requests only, so the
    /// generator's memcmp does not become the workload.
    PayloadEdges(u32),
    /// The bytes of `outputs[i]`, whole.
    Output(u32),
}

/// One public call of a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// `clEnqueueWriteBuffer` of `payloads[data]` at offset 0.
    Write {
        /// Connection index.
        conn: u8,
        /// Buffer index in that connection's plan.
        buf: u16,
        /// Index into [`Inputs::payloads`].
        data: u32,
        /// Blocking call.
        sync: bool,
    },
    /// `clEnqueueNDRangeKernel` of a planned kernel.
    Launch {
        /// Connection index.
        conn: u8,
        /// Kernel index in that connection's plan.
        kernel: u16,
    },
    /// `clEnqueueReadBuffer` of a whole buffer.
    Read {
        /// Connection index.
        conn: u8,
        /// Buffer index.
        buf: u16,
        /// What must come back.
        expect: Expect,
        /// Blocking call.
        sync: bool,
    },
    /// `clFlush`: seals the task without waiting.
    Flush {
        /// Connection index.
        conn: u8,
    },
    /// `clFinish`: seals the task and waits for it.
    Finish {
        /// Connection index.
        conn: u8,
    },
}

/// Fills `steps` with request number `request`. `slot` names the free
/// buffer set in an open loop and is 0 in a closed one.
pub type Script = Box<dyn FnMut(u64, usize, &mut Vec<Step>) + Send>;

/// Compares what a read returned with what it must return. `Ok` carries
/// the number of checks made (0 for [`Expect::Nothing`]).
pub fn verify(got: &[u8], expect: Expect, inputs: &Inputs) -> Result<u64, String> {
    const EDGE: usize = 4096;
    let (want, whole): (&[u8], bool) = match expect {
        Expect::Nothing => return Ok(0),
        Expect::Payload(i) => (
            inputs.payloads[i as usize].as_data().unwrap_or_default(),
            true,
        ),
        Expect::PayloadEdges(i) => (
            inputs.payloads[i as usize].as_data().unwrap_or_default(),
            false,
        ),
        Expect::Output(i) => (&inputs.outputs[i as usize], true),
    };
    let same = if whole || want.len() <= 2 * EDGE {
        got == want
    } else {
        got.len() == want.len()
            && got[..EDGE] == want[..EDGE]
            && got[got.len() - EDGE..] == want[want.len() - EDGE..]
    };
    if same {
        Ok(1)
    } else {
        Err(format!(
            "mis-verified read: {} bytes back, {} expected ({expect:?})",
            got.len(),
            want.len()
        ))
    }
}

/// Something that can run a request. `Ok` carries the number of output
/// checks performed.
pub trait Rung: Send {
    /// Runs one request to completion and verifies what it read.
    fn run(&mut self, steps: &[Step], inputs: &Inputs, t: &mut Tracer) -> Result<u64, String>;
}

// ---- L0 / L2: the bf-ocl handles ------------------------------------------

/// Span names of the `bf-ocl` calls on one data path.
struct OclNames {
    write_sync: &'static str,
    read_vec: &'static str,
}

const GRPC_NAMES: OclNames = OclNames {
    write_sync: "ocl.write_sync.grpc",
    read_vec: "ocl.read_vec.grpc",
};
const SHM_NAMES: OclNames = OclNames {
    write_sync: "ocl.write_sync.shm",
    read_vec: "ocl.read_vec.shm",
};

/// One deployed connection: context, program, kernels, buffers, queue.
struct OclConn {
    queue: Queue,
    buffers: Vec<Buffer>,
    kernels: Vec<(Kernel, NdRange)>,
    names: &'static OclNames,
    _context: Context,
}

impl OclConn {
    /// Ordinary OpenCL set-up code, the same for every backend.
    fn deploy(device: &Device, plan: &ConnPlan) -> ClResult<OclConn> {
        let context = device.create_context()?;
        // `clBuildProgram` first: programming the board wipes its memory,
        // so buffers are created on the configured board.
        let program = match plan.kernels.is_empty() {
            true => None,
            false => Some(context.build_program(sobel::SOBEL_BITSTREAM)?),
        };
        let buffers = plan
            .buffers
            .iter()
            .map(|&len| context.create_buffer(len))
            .collect::<ClResult<Vec<_>>>()?;
        let mut kernels = Vec::with_capacity(plan.kernels.len());
        if let Some(program) = program {
            for k in &plan.kernels {
                let kernel = program.create_kernel(sobel::SOBEL_KERNEL)?;
                kernel.set_arg_buffer(0, &buffers[k.input])?;
                kernel.set_arg_buffer(1, &buffers[k.output])?;
                kernel.set_arg(2, ArgValue::U32(k.width))?;
                kernel.set_arg(3, ArgValue::U32(k.height))?;
                kernels.push((kernel, NdRange::d2(u64::from(k.width), u64::from(k.height))));
            }
        }
        Ok(OclConn {
            queue: context.create_queue()?,
            buffers,
            kernels,
            names: match plan.path {
                Path::Grpc => &GRPC_NAMES,
                Path::Shm => &SHM_NAMES,
            },
            _context: context,
        })
    }
}

/// Runs steps through `bf-ocl` handles.
pub struct OclRung {
    conns: Vec<OclConn>,
    pending: Vec<(Event, Expect)>,
}

impl OclRung {
    /// Deploys one connection per plan on the matching device.
    pub fn deploy(devices: &[Device], plans: &[ConnPlan]) -> ClResult<OclRung> {
        let conns = devices
            .iter()
            .zip(plans)
            .map(|(device, plan)| OclConn::deploy(device, plan))
            .collect::<ClResult<Vec<_>>>()?;
        Ok(OclRung {
            conns,
            pending: Vec::with_capacity(64),
        })
    }

    /// Issues the steps without waiting for unfinished reads and hands
    /// their events to the caller (the open loop stamps completion in
    /// `Event::on_complete`). Blocking steps still block.
    pub fn issue(
        &mut self,
        steps: &[Step],
        inputs: &Inputs,
        t: &mut Tracer,
    ) -> Result<(u64, Vec<(Event, Expect)>), String> {
        let checks = self.steps(steps, inputs, t)?;
        Ok((checks, std::mem::take(&mut self.pending)))
    }

    fn steps(&mut self, steps: &[Step], inputs: &Inputs, t: &mut Tracer) -> Result<u64, String> {
        let mut checks = 0;
        for step in steps {
            match *step {
                Step::Write {
                    conn,
                    buf,
                    data,
                    sync,
                } => {
                    let c = &self.conns[conn as usize];
                    let buffer = &c.buffers[buf as usize];
                    let payload = inputs.payloads[data as usize].clone();
                    if sync {
                        t.call(c.names.write_sync, || c.queue.write(buffer, payload))
                    } else {
                        t.call("ocl.write_async", || {
                            c.queue.write_async(buffer, 0, payload).map(drop)
                        })
                    }
                    .map_err(|e| e.to_string())?;
                }
                Step::Launch { conn, kernel } => {
                    let c = &self.conns[conn as usize];
                    let (kernel, work) = &c.kernels[kernel as usize];
                    t.call("ocl.launch", || c.queue.launch(kernel, *work))
                        .map_err(|e| e.to_string())?;
                }
                Step::Read {
                    conn,
                    buf,
                    expect,
                    sync,
                } => {
                    let c = &self.conns[conn as usize];
                    let buffer = &c.buffers[buf as usize];
                    if sync {
                        let got = t
                            .call(c.names.read_vec, || c.queue.read_vec(buffer))
                            .map_err(|e| e.to_string())?;
                        checks += verify(&got, expect, inputs)?;
                    } else {
                        let event = t
                            .call("ocl.read_async", || {
                                c.queue.read_async(buffer, 0, buffer.len())
                            })
                            .map_err(|e| e.to_string())?;
                        self.pending.push((event, expect));
                    }
                }
                Step::Flush { conn } => {
                    let c = &self.conns[conn as usize];
                    t.call("ocl.flush", || c.queue.flush())
                        .map_err(|e| e.to_string())?;
                }
                Step::Finish { conn } => {
                    let c = &self.conns[conn as usize];
                    t.call("ocl.finish_wait", || c.queue.finish())
                        .map_err(|e| e.to_string())?;
                    checks += self.collect(inputs)?;
                }
            }
        }
        Ok(checks)
    }

    /// Waits for every unfinished read and verifies what it carried.
    fn collect(&mut self, inputs: &Inputs) -> Result<u64, String> {
        let mut checks = 0;
        for (event, expect) in self.pending.drain(..) {
            checks += check_read_event(&event, expect, inputs)?;
        }
        Ok(checks)
    }
}

/// Waits for a read event and verifies its payload.
pub fn check_read_event(event: &Event, expect: Expect, inputs: &Inputs) -> Result<u64, String> {
    event.wait().map_err(|e| e.to_string())?;
    let payload = event.take_payload().map_err(|e| e.to_string())?;
    verify(payload.as_data().unwrap_or_default(), expect, inputs)
}

impl Rung for OclRung {
    fn run(&mut self, steps: &[Step], inputs: &Inputs, t: &mut Tracer) -> Result<u64, String> {
        let issued = self.steps(steps, inputs, t);
        // A request that ends in `Flush` leaves reads in flight; a closed
        // loop completes them before the next request. After a failed
        // step the leftovers are dropped so they cannot leak into the
        // next request's verification.
        match issued {
            Ok(checks) => Ok(checks + t.call("ocl.event_wait", || self.collect(inputs))?),
            Err(e) => {
                self.pending.clear();
                Err(e)
            }
        }
    }
}

// ---- L1: raw envelopes on the manager's channel ---------------------------

struct RawConn {
    endpoint: ManagerEndpoint,
    queue: u64,
    buffers: Vec<(u64, u64)>,
    kernels: Vec<(u64, [u64; 3])>,
    next_tag: u64,
}

/// What a sent tag is waiting for.
#[derive(Clone, Copy)]
enum Await {
    /// Completion of a write that staged a shm region to free.
    Write(Option<u64>),
    /// Completion carrying read data to verify.
    Read(Expect),
    /// Completion without data (kernel launch, finish fence).
    Done,
    /// An acknowledgement nobody waits for (`Flush`).
    Ack,
}

/// Bytes and frames one request put on the channel, both directions.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WireCount {
    /// Encoded frames, requests plus responses.
    pub frames: u64,
    /// Encoded bytes, requests plus responses.
    pub bytes: u64,
    /// Microseconds spent re-encoding and re-decoding those same frames
    /// in isolation: the codec's share of the request.
    pub codec_us: f64,
}

/// Runs steps as raw protocol messages, doing by hand the little that
/// `bf-remote` does per operation (tags, shm staging, response matching)
/// and none of the rest (events, state machines, reactor hand-off).
pub struct RawRung {
    conns: Vec<RawConn>,
    waits: Vec<(u8, u64, Await)>,
    /// When set, every frame is also measured (slow; one request only).
    pub counting: Option<WireCount>,
}

impl RawConn {
    fn send(&mut self, body: Request, counting: &mut Option<WireCount>) -> Result<u64, String> {
        self.next_tag += 1;
        let env = RequestEnvelope {
            tag: self.next_tag,
            client: self.endpoint.client,
            sent_at: VirtualTime::ZERO,
            body,
        };
        if let Some(count) = counting {
            let start = clock::now();
            let frame = env.to_bytes();
            let back = RequestEnvelope::from_bytes(frame.clone());
            count.codec_us += clock::micros(start.elapsed());
            count.frames += 1;
            count.bytes += frame.len() as u64;
            drop(back);
        }
        self.endpoint
            .channel
            .send(&env)
            .map_err(|e| e.to_string())?;
        Ok(env.tag)
    }

    fn recv(&mut self, counting: &mut Option<WireCount>) -> Result<ResponseEnvelope, String> {
        let resp = self.endpoint.channel.recv().map_err(|e| e.to_string())?;
        if let Some(count) = counting {
            let start = clock::now();
            let frame = resp.to_bytes();
            let back = ResponseEnvelope::from_bytes(frame.clone());
            count.codec_us += clock::micros(start.elapsed());
            count.frames += 1;
            count.bytes += frame.len() as u64;
            drop(back);
        }
        Ok(resp)
    }

    /// A synchronous context-and-information call.
    fn call(&mut self, body: Request) -> Result<Response, String> {
        let tag = self.send(body, &mut None)?;
        loop {
            let resp = self.recv(&mut None)?;
            if resp.tag == tag {
                return match resp.body {
                    Response::Error { code, message } => Err(format!("{code:?}: {message}")),
                    body => Ok(body),
                };
            }
        }
    }

    fn handle(&mut self, body: Request) -> Result<u64, String> {
        match self.call(body)? {
            Response::Handle { id } => Ok(id),
            other => Err(format!("expected a handle, got {other:?}")),
        }
    }

    fn deploy(manager: &DeviceManager, plan: &ConnPlan) -> Result<RawConn, String> {
        let endpoint = manager.connect("e2e-raw", plan.path.costs());
        let shm = endpoint.shm.is_some();
        let mut c = RawConn {
            endpoint,
            queue: 0,
            buffers: Vec::new(),
            kernels: Vec::new(),
            next_tag: 0,
        };
        c.handle(Request::Hello {
            client_name: String::new(),
            shm,
        })?;
        let context = c.handle(Request::CreateContext)?;
        let program = match plan.kernels.is_empty() {
            true => None,
            false => Some(c.handle(Request::BuildProgram {
                bitstream: sobel::SOBEL_BITSTREAM.to_string(),
            })?),
        };
        for &len in &plan.buffers {
            let id = c.handle(Request::CreateBuffer { context, len })?;
            c.buffers.push((id, len));
        }
        if let Some(program) = program {
            for k in &plan.kernels {
                let kernel = c.handle(Request::CreateKernel {
                    program,
                    name: sobel::SOBEL_KERNEL.to_string(),
                })?;
                let args = [
                    WireArg::Buffer(c.buffers[k.input].0),
                    WireArg::Buffer(c.buffers[k.output].0),
                    WireArg::U32(k.width),
                    WireArg::U32(k.height),
                ];
                for (index, arg) in args.into_iter().enumerate() {
                    c.call(Request::SetKernelArg {
                        kernel,
                        index: index as u32,
                        arg,
                    })?;
                }
                c.kernels
                    .push((kernel, [u64::from(k.width), u64::from(k.height), 1]));
            }
        }
        c.queue = c.handle(Request::CreateQueue { context })?;
        Ok(c)
    }

    /// Stages a payload the way the remote library does: adopted into the
    /// shm segment when there is one, inline otherwise.
    fn stage(&self, payload: &Payload) -> Result<(DataRef, Option<u64>), String> {
        let Payload::Data(bytes) = payload else {
            return Ok((DataRef::Synthetic(payload.len()), None));
        };
        if let Some(shm) = &self.endpoint.shm {
            if let Ok(offset) = shm.alloc(bytes.len() as u64) {
                shm.write_bytes(offset, bytes.clone())
                    .map_err(|e| e.to_string())?;
                let len = bytes.len() as u64;
                return Ok((DataRef::Shm { offset, len }, Some(offset)));
            }
        }
        Ok((DataRef::Inline(bytes.clone().into()), None))
    }
}

impl RawRung {
    /// Opens one raw session per plan on `manager`.
    pub fn deploy(manager: &DeviceManager, plans: &[ConnPlan]) -> Result<RawRung, String> {
        let conns = plans
            .iter()
            .map(|plan| RawConn::deploy(manager, plan))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(RawRung {
            conns,
            waits: Vec::with_capacity(128),
            counting: None,
        })
    }

    /// Receives on `conn` until `until` (a tag of that connection) is
    /// answered, settling every earlier tag on the way.
    fn settle(&mut self, conn: u8, until: u64, inputs: &Inputs) -> Result<u64, String> {
        let mut checks = 0;
        loop {
            let resp = self.conns[conn as usize].recv(&mut self.counting)?;
            let Some(at) = self
                .waits
                .iter()
                .position(|&(c, tag, _)| c == conn && tag == resp.tag)
            else {
                continue;
            };
            let (_, tag, wait) = self.waits[at];
            match (resp.body, wait) {
                (Response::Enqueued, _) => continue,
                (Response::Error { code, message }, _) => {
                    return Err(format!("{code:?}: {message}"));
                }
                (Response::Completed { data, .. }, Await::Read(expect)) => {
                    let c = &self.conns[conn as usize];
                    checks += match data {
                        Some(DataRef::Inline(bytes)) => verify(bytes.as_slice(), expect, inputs)?,
                        Some(DataRef::Shm { offset, len }) => {
                            let shm = c.endpoint.shm.as_ref().ok_or("shm data without shm")?;
                            let bytes = shm.read(offset, len).map_err(|e| e.to_string())?;
                            let _ = shm.free(offset);
                            verify(&bytes, expect, inputs)?
                        }
                        other => return Err(format!("read answered with {other:?}")),
                    };
                }
                (Response::Completed { .. }, Await::Write(Some(region))) => {
                    if let Some(shm) = &self.conns[conn as usize].endpoint.shm {
                        let _ = shm.free(region);
                    }
                }
                _ => {}
            }
            self.waits.swap_remove(at);
            if tag == until {
                return Ok(checks);
            }
        }
    }
}

impl Rung for RawRung {
    fn run(&mut self, steps: &[Step], inputs: &Inputs, _t: &mut Tracer) -> Result<u64, String> {
        let mut checks = 0;
        self.waits.clear();
        for step in steps {
            match *step {
                Step::Write {
                    conn,
                    buf,
                    data,
                    sync,
                } => {
                    let c = &mut self.conns[conn as usize];
                    let (staged, region) = c.stage(&inputs.payloads[data as usize])?;
                    let body = Request::EnqueueWrite {
                        queue: c.queue,
                        buffer: c.buffers[buf as usize].0,
                        offset: 0,
                        data: staged,
                    };
                    let tag = c.send(body, &mut self.counting)?;
                    self.waits.push((conn, tag, Await::Write(region)));
                    if sync {
                        let flush = Request::Flush { queue: c.queue };
                        let ack = c.send(flush, &mut self.counting)?;
                        self.waits.push((conn, ack, Await::Ack));
                        checks += self.settle(conn, tag, inputs)?;
                    }
                }
                Step::Launch { conn, kernel } => {
                    let c = &mut self.conns[conn as usize];
                    let (kernel, work) = c.kernels[kernel as usize];
                    let body = Request::EnqueueKernel {
                        queue: c.queue,
                        kernel,
                        work,
                    };
                    let tag = c.send(body, &mut self.counting)?;
                    self.waits.push((conn, tag, Await::Done));
                }
                Step::Read {
                    conn,
                    buf,
                    expect,
                    sync,
                } => {
                    let c = &mut self.conns[conn as usize];
                    let (buffer, len) = c.buffers[buf as usize];
                    let body = Request::EnqueueRead {
                        queue: c.queue,
                        buffer,
                        offset: 0,
                        len,
                    };
                    let tag = c.send(body, &mut self.counting)?;
                    self.waits.push((conn, tag, Await::Read(expect)));
                    if sync {
                        let flush = Request::Flush { queue: c.queue };
                        let ack = c.send(flush, &mut self.counting)?;
                        self.waits.push((conn, ack, Await::Ack));
                        checks += self.settle(conn, tag, inputs)?;
                    }
                }
                Step::Flush { conn } => {
                    let c = &mut self.conns[conn as usize];
                    let flush = Request::Flush { queue: c.queue };
                    let ack = c.send(flush, &mut self.counting)?;
                    self.waits.push((conn, ack, Await::Ack));
                }
                Step::Finish { conn } => {
                    let c = &mut self.conns[conn as usize];
                    let finish = Request::Finish { queue: c.queue };
                    let tag = c.send(finish, &mut self.counting)?;
                    self.waits.push((conn, tag, Await::Done));
                    checks += self.settle(conn, tag, inputs)?;
                }
            }
        }
        // Complete what a trailing `Flush` left in flight, oldest first.
        while let Some(&(conn, tag, _)) = self
            .waits
            .iter()
            .filter(|(_, _, wait)| !matches!(wait, Await::Ack))
            .min_by_key(|(_, tag, _)| *tag)
        {
            checks += self.settle(conn, tag, inputs)?;
        }
        Ok(checks)
    }
}

// ---- L3: board methods ----------------------------------------------------

struct BoardConn {
    buffers: Vec<(BufferId, u64)>,
    kernels: Vec<KernelInvocation>,
}

/// Runs steps as `Board` method calls: device memory, the busy tracker and
/// functional kernels, with no manager, session or transport in front.
pub struct BoardRung {
    board: Board,
    conns: Vec<BoardConn>,
}

const OWNER: &str = "e2e-board";

fn invocation(k: &KernelPlan, buffers: &[(BufferId, u64)]) -> KernelInvocation {
    KernelInvocation::new(
        vec![
            KernelArg::Buffer(buffers[k.input].0),
            KernelArg::Buffer(buffers[k.output].0),
            KernelArg::U32(k.width),
            KernelArg::U32(k.height),
        ],
        u64::from(k.width) * u64::from(k.height),
    )
}

impl BoardRung {
    /// Programs a fresh board and allocates every plan's buffers on it.
    pub fn deploy(plans: &[ConnPlan]) -> Result<BoardRung, String> {
        let mut board = rig::bare_board();
        board.program(sobel::bitstream(), VirtualTime::ZERO, OWNER);
        let mut conns = Vec::new();
        for plan in plans {
            let mut buffers = Vec::new();
            for &len in &plan.buffers {
                buffers.push((board.alloc_buffer(len).map_err(|e| e.to_string())?, len));
            }
            let kernels = plan
                .kernels
                .iter()
                .map(|k| invocation(k, &buffers))
                .collect();
            conns.push(BoardConn { buffers, kernels });
        }
        Ok(BoardRung { board, conns })
    }
}

impl Rung for BoardRung {
    fn run(&mut self, steps: &[Step], inputs: &Inputs, _t: &mut Tracer) -> Result<u64, String> {
        let mut checks = 0;
        for step in steps {
            let now = self.board.available_at();
            match *step {
                Step::Write {
                    conn, buf, data, ..
                } => {
                    let id = self.conns[conn as usize].buffers[buf as usize].0;
                    self.board
                        .write_buffer(id, 0, &inputs.payloads[data as usize], now, OWNER)
                        .map_err(|e| e.to_string())?;
                }
                Step::Launch { conn, kernel } => {
                    let inv = &self.conns[conn as usize].kernels[kernel as usize];
                    self.board
                        .launch_kernel(sobel::SOBEL_KERNEL, inv, now, OWNER)
                        .map_err(|e| e.to_string())?;
                }
                Step::Read {
                    conn, buf, expect, ..
                } => {
                    let (id, len) = self.conns[conn as usize].buffers[buf as usize];
                    let (_, payload) = self
                        .board
                        .read_buffer(id, 0, len, now, OWNER)
                        .map_err(|e| e.to_string())?;
                    checks += verify(payload.as_data().unwrap_or_default(), expect, inputs)?;
                }
                Step::Flush { .. } | Step::Finish { .. } => {}
            }
        }
        Ok(checks)
    }
}

// ---- L4: kernel bodies ----------------------------------------------------

/// Runs only the kernel body of each `Launch`, on inputs already resident
/// in a bare `DeviceMemory`; every other step costs nothing here.
pub struct KernelRung {
    memory: DeviceMemory,
    bitstream: Arc<Bitstream>,
    conns: Vec<Vec<KernelInvocation>>,
}

impl KernelRung {
    /// Allocates the plans' buffers and makes every kernel input resident.
    pub fn deploy(plans: &[ConnPlan], inputs: &Inputs) -> Result<KernelRung, String> {
        let mut memory = DeviceMemory::new(rig::bare_board().spec().memory_bytes);
        let mut conns = Vec::new();
        for plan in plans {
            let mut buffers = Vec::new();
            for &len in &plan.buffers {
                buffers.push((memory.alloc(len).map_err(|e| e.to_string())?, len));
            }
            for k in &plan.kernels {
                let frame = inputs
                    .payloads
                    .first()
                    .ok_or("kernel plan without frames")?;
                memory
                    .write(buffers[k.input].0, 0, frame)
                    .map_err(|e| e.to_string())?;
            }
            conns.push(
                plan.kernels
                    .iter()
                    .map(|k| invocation(k, &buffers))
                    .collect(),
            );
        }
        Ok(KernelRung {
            memory,
            bitstream: sobel::bitstream(),
            conns,
        })
    }

    fn behavior(&self) -> Result<&Arc<dyn KernelBehavior>, String> {
        Ok(self
            .bitstream
            .kernel(sobel::SOBEL_KERNEL)
            .ok_or("sobel kernel missing from its bitstream")?
            .behavior())
    }
}

impl Rung for KernelRung {
    fn run(&mut self, steps: &[Step], _inputs: &Inputs, _t: &mut Tracer) -> Result<u64, String> {
        let behavior = self.behavior()?.clone();
        for step in steps {
            if let Step::Launch { conn, kernel } = *step {
                let inv = &self.conns[conn as usize][kernel as usize];
                behavior
                    .execute(inv, &mut self.memory)
                    .map_err(|e| e.to_string())?;
            }
        }
        Ok(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{self, Kind};

    #[test]
    fn verify_catches_wrong_bytes_and_wrong_lengths() {
        let inputs = Inputs {
            payloads: vec![Payload::from(vec![7u8; 20_000])],
            outputs: vec![vec![1, 2, 3]],
        };
        let good = vec![7u8; 20_000];
        assert_eq!(verify(&good, Expect::Payload(0), &inputs), Ok(1));
        assert_eq!(verify(&good, Expect::PayloadEdges(0), &inputs), Ok(1));
        assert_eq!(verify(&[9], Expect::Nothing, &inputs), Ok(0));
        assert_eq!(verify(&[1, 2, 3], Expect::Output(0), &inputs), Ok(1));
        assert!(verify(&[1, 2, 4], Expect::Output(0), &inputs).is_err());
        let mut middle = good.clone();
        middle[10_000] = 8;
        assert!(verify(&middle, Expect::Payload(0), &inputs).is_err());
        // The edges check is blind to the middle by design, not to the ends.
        assert_eq!(verify(&middle, Expect::PayloadEdges(0), &inputs), Ok(1));
        let mut tail = good.clone();
        tail[19_999] = 8;
        assert!(verify(&tail, Expect::PayloadEdges(0), &inputs).is_err());
        assert!(verify(&good[..19_999], Expect::PayloadEdges(0), &inputs).is_err());
    }

    /// Every rung runs every data-plane workload's first requests, and the
    /// rungs that read data back verify the same number of reads.
    #[test]
    fn every_rung_runs_every_direct_workload() {
        let mut quiet = Tracer::new(false, clock::now());
        for name in workloads::NAMES {
            let Some(Kind::Direct(d)) = workloads::kind(name) else {
                continue;
            };
            let inputs = (d.inputs)(3);
            let manager = rig::manager(d.cache_bytes);
            let remote: Vec<Device> = d
                .conns
                .iter()
                .map(|c| rig::connect(&manager, "test", c.path).expect("connect"))
                .collect();
            let native: Vec<Device> = vec![rig::native_device(); d.conns.len()];
            let mut rungs: Vec<(&str, Box<dyn Rung>)> = vec![
                (
                    "L0",
                    Box::new(OclRung::deploy(&remote, &d.conns).expect("L0")),
                ),
                (
                    "L1",
                    Box::new(RawRung::deploy(&manager, &d.conns).expect("L1")),
                ),
                (
                    "L2",
                    Box::new(OclRung::deploy(&native, &d.conns).expect("L2")),
                ),
                ("L3", Box::new(BoardRung::deploy(&d.conns).expect("L3"))),
            ];
            let mut steps = Vec::new();
            for request in 0..3 {
                steps.clear();
                (d.script)(3, 0)(request, 0, &mut steps);
                let expected = steps
                    .iter()
                    .filter(
                        |s| matches!(s, Step::Read { expect, .. } if *expect != Expect::Nothing),
                    )
                    .count() as u64;
                for (rung, runner) in &mut rungs {
                    let checks = runner
                        .run(&steps, &inputs, &mut quiet)
                        .unwrap_or_else(|e| panic!("{name} {rung} request {request}: {e}"));
                    assert_eq!(checks, expected, "{name} {rung} request {request}");
                }
            }
            let mut kernels = KernelRung::deploy(&d.conns, &inputs).expect("L4");
            assert_eq!(kernels.run(&steps, &inputs, &mut quiet), Ok(0), "{name} L4");
        }
    }

    /// A wrong expectation is reported, not swallowed, at every rung.
    #[test]
    fn a_wrong_output_fails_the_request_at_every_rung() {
        let Some(Kind::Direct(d)) = workloads::kind("shared_board") else {
            panic!("shared_board is a direct workload");
        };
        let mut inputs = (d.inputs)(3);
        for output in &mut inputs.outputs {
            output[100] ^= 1;
        }
        let manager = rig::manager(0);
        let remote = vec![rig::connect(&manager, "test", Path::Shm).expect("connect")];
        let mut steps = Vec::new();
        (d.script)(3, 0)(0, 0, &mut steps);
        let mut quiet = Tracer::new(false, clock::now());
        let mut l0 = OclRung::deploy(&remote, &d.conns).expect("L0");
        let mut l1 = RawRung::deploy(&manager, &d.conns).expect("L1");
        let mut l3 = BoardRung::deploy(&d.conns).expect("L3");
        for rung in [&mut l0 as &mut dyn Rung, &mut l1, &mut l3] {
            let err = rung
                .run(&steps, &inputs, &mut quiet)
                .expect_err("must fail");
            assert!(err.contains("mis-verified"), "{err}");
        }
    }
}
