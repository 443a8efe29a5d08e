//! # uq-parallel
//!
//! The paper's parallelization strategy for multilevel MCMC (Section 4),
//! rebuilt on an in-process rank substrate:
//!
//! * [`runtime`] — the message-passing layer standing in for MPI and the
//!   one live executor: ranks are suspendable state machines
//!   multiplexed over a small worker pool, point-to-point sends are
//!   per-rank mailboxes, and a rank suspends on a wait predicate — the
//!   tag-matching receive semantics the role protocols need — so
//!   hundreds-to-thousands of ranks run **live** on a handful of cores.
//!   The substitution is documented in DESIGN.md: Rust MPI bindings are
//!   thin and no cluster is available, but the scheduling logic and
//!   communication pattern — the paper's contribution — are preserved.
//! * [`scheduler`] — the vocabulary of the process architecture of paper
//!   Fig. 8: messages, configuration, reports, rank layout.
//! * [`roles`] — the architecture itself, written once as suspendable
//!   state machines: one **root**, one **phonebook** (sample routing +
//!   dynamic load balancing), one **collector** per level (streaming
//!   moment accumulation of its telescoping term) and chain groups
//!   (**controllers**) running the coupled kernels from `uq-mlmcmc`,
//!   with coarse proposals requested across controllers through the
//!   phonebook — and the **front door**: a [`Run`] is what to run, a
//!   [`Placement`] where (a worker pool; that pool plus the worker
//!   processes of a [`NetDriver`]; virtual time at a [`SimCost`] and
//!   seed), and [`Run::on`] returns the one [`RuntimeReport`].
//! * [`obs`] — the observability layer: per-rank activity spans (the data
//!   behind the paper's Fig. 9 Gantt chart), counters and histograms,
//!   shared by the sequential driver and every executor and exportable
//!   as Chrome trace JSON and metrics snapshots. Zero-cost when
//!   disabled, and recording never perturbs the computation (bit-parity
//!   pinned by tests).
//! * [`sim`] — the virtual-time executor: the same machines polled on
//!   one thread in virtual-clock order, every delivery delay and
//!   tie-break drawn from a seed, an evaluation costing what a cost model
//!   says: the shipped protocol as a function of a seed (Figs. 11–12).
//! * [`net`] — the multi-process TCP transport: the same role machines
//!   over length-prefixed, checksummed frames, assembling one logical
//!   universe from a driver plus N worker processes — each hosting its
//!   share of the ranks on a pool — with elastic join/leave at
//!   checkpoint barriers: the run stops at the barrier and resumes from
//!   its cut on the new layout.
//! * [`service`] — the always-on multi-tenant UQ service: many
//!   concurrent inversion jobs, each dispatch on a `Runtime` as wide as
//!   its fair share of one worker budget, with priority dispatch,
//!   admission control by simulating the job on measured load,
//!   per-tenant seed/ledger isolation, and graceful
//!   preemption through the quiesce-barrier snapshots (preempted jobs
//!   resume bit-identically). Remote clients speak [`ServiceFrame`]s
//!   in the `net` frame format.

#![deny(rustdoc::broken_intra_doc_links)]

pub mod net;
pub mod obs;
pub mod roles;
pub mod runtime;
pub mod scheduler;
pub mod service;
pub mod sim;

pub use net::{
    decode_frame, encode_frame, levels_digest, net_worker, run_net_worker, Frame, NetDriver,
    NetDriverOptions, NetReport, NetWorkerOptions, NetWorkerReport, PROTOCOL_VERSION,
};
pub use obs::{
    chrome_trace, Counter, Epoch, Hist, HistSnapshot, MetricsSnapshot, SpanKind, TraceEvent, Tracer,
};
pub use roles::{
    run_parallel, run_runtime, run_runtime_on, Placement, Run, RuntimeConfig, RuntimeReport,
    SimCost, StandIn,
};
pub use runtime::{Envelope, Poll, Runtime, RuntimeStats, VCtx, VirtualRank};
pub use scheduler::{ParallelCheckpoint, ParallelConfig, ParallelReport};
pub use service::{
    decode_service_frame, encode_service_frame, JobId, JobSpec, JobState, JobStatus, Service,
    ServiceClient, ServiceConfig, ServiceFrame, SERVICE_PROTOCOL_VERSION,
};
pub use sim::SimError;
