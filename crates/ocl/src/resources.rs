//! The OpenCL object model of one resource pool, written once.
//!
//! The paper's transparency claim (§III-B) is that host code sees one
//! object model whether the board is attached natively or time-shared
//! behind a Device Manager, which gives every client session its own pool.
//! [`Resources`] is that model and both executors hold one: the
//! [`NativeBackend`] behind its mutex, each Device Manager session for its
//! client. Every handle lookup and launch-time check lives here, including
//! the [`MAX_KERNEL_ARGS`] bound on the one trust-relevant input a kernel
//! argument carries — its index. The executors own the board: they
//! allocate, free, program and run, and record the outcome here.
//!
//! [`NativeBackend`]: crate::NativeBackend

use std::collections::{BTreeMap, HashMap};

use bf_fpga::{BufferId, KernelArg, KernelInvocation, MAX_KERNEL_ARGS};

use crate::error::{ClError, ClResult};
use crate::types::{
    ArgValue, BitstreamCatalog, ContextId, KernelId, MemId, NdRange, ProgramId, QueueId,
};

/// The most live objects one pool holds, all kinds together. A Device
/// Manager session's pool grows by one entry per create or build request
/// and shrinks only on a buffer release or when the session ends, so
/// without a cap a client looping `CreateContext` would grow the
/// manager's memory without bound. The fullest in-tree pool is the
/// benchmark's `open_arrivals` session at 99 objects (64 buffers, 32
/// kernels, a context, a program and a queue); 4096 is 41 times that.
pub const MAX_POOL_OBJECTS: usize = 4096;

/// One pool of OpenCL objects — contexts, programs, kernels, buffers and
/// command queues — named by handles from one counter shared by every
/// kind, so the first handle is 1 and the values a caller sees do not
/// depend on the executor.
///
/// `Q` is what a command queue holds: the native backend keeps the queue's
/// drain point, a session the operations it stages until the next flush.
#[derive(Debug, Default)]
pub struct Resources<Q> {
    last_handle: u64,
    contexts: HashMap<u64, ()>,
    /// Program → the catalog bitstream it was built from.
    programs: HashMap<u64, String>,
    /// Kernel → its name and the arguments set so far, by index.
    kernels: HashMap<u64, (String, BTreeMap<u32, ArgValue>)>,
    /// Buffer → the board buffer behind it.
    buffers: HashMap<u64, BufferId>,
    queues: HashMap<u64, Q>,
}

impl<Q> Resources<Q> {
    /// Files `value` in the `map` of its kind under the next handle.
    ///
    /// # Errors
    ///
    /// [`ClError::OutOfResources`] when the pool already holds
    /// [`MAX_POOL_OBJECTS`] live objects.
    fn issue<T>(&mut self, map: fn(&mut Self) -> &mut HashMap<u64, T>, value: T) -> ClResult<u64> {
        let live = self.contexts.len()
            + self.programs.len()
            + self.kernels.len()
            + self.buffers.len()
            + self.queues.len();
        if live >= MAX_POOL_OBJECTS {
            return Err(ClError::OutOfResources(format!(
                "the pool already holds its limit of {MAX_POOL_OBJECTS} live objects"
            )));
        }
        self.last_handle += 1;
        let handle = self.last_handle;
        // bf-flow: allow(hot_alloc): one entry per create or build call,
        // refused above once the pool holds MAX_POOL_OBJECTS (4096) live
        // objects; a buffer release frees one early, the rest live as long
        // as the pool (a session's until it ends).
        map(self).insert(handle, value);
        Ok(handle)
    }

    /// `clCreateContext`.
    ///
    /// # Errors
    ///
    /// [`ClError::OutOfResources`] when the pool is full.
    pub fn new_context(&mut self) -> ClResult<ContextId> {
        self.issue(|r| &mut r.contexts, ()).map(ContextId)
    }

    /// Checks that `ctx` names a context of this pool.
    ///
    /// # Errors
    ///
    /// [`ClError::InvalidContext`] otherwise.
    pub fn context(&self, ctx: ContextId) -> ClResult<()> {
        self.contexts
            .get(&ctx.0)
            .copied()
            .ok_or(ClError::InvalidContext)
    }

    /// Records a program built from the catalog bitstream `bitstream`; the
    /// caller has configured the board.
    ///
    /// # Errors
    ///
    /// [`ClError::OutOfResources`] when the pool is full.
    pub fn new_program(&mut self, bitstream: &str) -> ClResult<ProgramId> {
        self.issue(|r| &mut r.programs, bitstream.to_string())
            .map(ProgramId)
    }

    /// `clCreateKernel`: `name` must be a kernel of the program's bitstream
    /// in `catalog`.
    ///
    /// # Errors
    ///
    /// [`ClError::InvalidProgram`] for an unknown program,
    /// [`ClError::BuildProgramFailure`] when the kernel (or its bitstream)
    /// is not in the catalog, [`ClError::OutOfResources`] when the pool is
    /// full.
    pub fn new_kernel(
        &mut self,
        program: ProgramId,
        name: &str,
        catalog: &BitstreamCatalog,
    ) -> ClResult<KernelId> {
        let bitstream = self
            .programs
            .get(&program.0)
            .ok_or(ClError::InvalidProgram)?;
        let image = catalog.get(bitstream).ok_or_else(|| {
            ClError::BuildProgramFailure(format!("bitstream {bitstream:?} missing from catalog"))
        })?;
        if image.kernel(name).is_none() {
            return Err(ClError::BuildProgramFailure(format!(
                "kernel {name:?} not in bitstream {bitstream:?}"
            )));
        }
        let kernel = (name.to_string(), BTreeMap::new());
        self.issue(|r| &mut r.kernels, kernel).map(KernelId)
    }

    /// `clSetKernelArg`.
    ///
    /// # Errors
    ///
    /// [`ClError::InvalidKernelLaunch`] for an index at or past
    /// [`MAX_KERNEL_ARGS`], checked first; then [`ClError::InvalidKernel`]
    /// for an unknown kernel.
    pub fn bind_arg(&mut self, kernel: KernelId, index: u32, arg: ArgValue) -> ClResult<()> {
        // A launch materializes argument slots positionally (`0..=max`),
        // so an unchecked index — `u32::MAX` from one wire frame — would
        // buy `index` iterations of launch-time work (bf-taint: taint_loop).
        if index >= MAX_KERNEL_ARGS {
            return Err(ClError::InvalidKernelLaunch(format!(
                "kernel argument index {index} exceeds the per-kernel limit of {MAX_KERNEL_ARGS}"
            )));
        }
        let (_, args) = self
            .kernels
            .get_mut(&kernel.0)
            .ok_or(ClError::InvalidKernel)?;
        // bf-flow: allow(hot_alloc): at most MAX_KERNEL_ARGS slots per
        // kernel, enforced above
        args.insert(index, arg);
        Ok(())
    }

    /// The kernel's name and its launch over `work`, with every argument
    /// set so far resolved to board resources.
    ///
    /// # Errors
    ///
    /// [`ClError::InvalidKernel`] for an unknown kernel,
    /// [`ClError::MissingKernelArg`] for the first unset index below the
    /// highest set one, [`ClError::InvalidBuffer`] for a buffer argument
    /// this pool does not hold.
    pub fn invocation(
        &self,
        kernel: KernelId,
        work: NdRange,
    ) -> ClResult<(String, KernelInvocation)> {
        let (name, slots) = self.kernels.get(&kernel.0).ok_or(ClError::InvalidKernel)?;
        // bf-taint: sanitized(bind_arg rejects indices >= MAX_KERNEL_ARGS, so slots.len() is capped at 256)
        let mut args = Vec::with_capacity(slots.len());
        if let Some(&max) = slots.keys().next_back() {
            // bf-taint: sanitized(max < MAX_KERNEL_ARGS — enforced by bind_arg)
            for i in 0..=max {
                args.push(match *slots.get(&i).ok_or(ClError::MissingKernelArg(i))? {
                    ArgValue::Buffer(mem) => KernelArg::Buffer(self.buffer(mem)?),
                    ArgValue::U32(v) => KernelArg::U32(v),
                    ArgValue::I32(v) => KernelArg::I32(v),
                    ArgValue::U64(v) => KernelArg::U64(v),
                    ArgValue::F32(v) => KernelArg::F32(v),
                });
            }
        }
        let invocation = KernelInvocation {
            args,
            global_work: work.0,
        };
        Ok((name.clone(), invocation))
    }

    /// Records a board buffer the caller allocated.
    ///
    /// # Errors
    ///
    /// [`ClError::OutOfResources`] when the pool is full; the caller still
    /// owns `fpga` and frees it.
    pub fn new_buffer(&mut self, fpga: BufferId) -> ClResult<MemId> {
        self.issue(|r| &mut r.buffers, fpga).map(MemId)
    }

    /// The board buffer behind `buffer`.
    ///
    /// # Errors
    ///
    /// [`ClError::InvalidBuffer`] when this pool does not hold it.
    pub fn buffer(&self, buffer: MemId) -> ClResult<BufferId> {
        self.buffers
            .get(&buffer.0)
            .copied()
            .ok_or(ClError::InvalidBuffer)
    }

    /// `clReleaseMemObject`: forgets `buffer` and returns the board buffer
    /// for the caller to free.
    ///
    /// # Errors
    ///
    /// [`ClError::InvalidBuffer`] when this pool does not hold it.
    pub fn remove_buffer(&mut self, buffer: MemId) -> ClResult<BufferId> {
        self.buffers.remove(&buffer.0).ok_or(ClError::InvalidBuffer)
    }

    /// Forgets every buffer, returning the board buffers to free.
    pub fn take_buffers(&mut self) -> impl Iterator<Item = BufferId> {
        std::mem::take(&mut self.buffers).into_values()
    }

    /// `clCreateCommandQueue`, starting from `Q::default()`.
    ///
    /// # Errors
    ///
    /// [`ClError::InvalidContext`] for an unknown context,
    /// [`ClError::OutOfResources`] when the pool is full.
    pub fn new_queue(&mut self, ctx: ContextId) -> ClResult<QueueId>
    where
        Q: Default,
    {
        self.context(ctx)?;
        self.issue(|r| &mut r.queues, Q::default()).map(QueueId)
    }

    /// What `queue` holds.
    ///
    /// # Errors
    ///
    /// [`ClError::InvalidQueue`] when this pool does not hold it.
    pub fn queue(&self, queue: QueueId) -> ClResult<&Q> {
        self.queues.get(&queue.0).ok_or(ClError::InvalidQueue)
    }

    /// What `queue` holds, mutably.
    ///
    /// # Errors
    ///
    /// [`ClError::InvalidQueue`] when this pool does not hold it.
    pub fn queue_mut(&mut self, queue: QueueId) -> ClResult<&mut Q> {
        self.queues.get_mut(&queue.0).ok_or(ClError::InvalidQueue)
    }
}
