(** Cluster assembly: [n] machines sharing a class table, a plan
    registry ({!Rmi_core.Plan_store}) and an optimization
    configuration.

    Two execution modes mirror the substitution documented in
    DESIGN.md:

    - [Sync]: everything on one thread.  A machine awaiting a reply
      pumps the other machines' queues directly — deterministic, used
      by tests and by the statistics tables.
    - [Parallel]: one {!Dispatch_pool} of worker domains serves
      machines 1..n-1; machine 0 is the caller's domain.  Real
      parallelism for wall-clock measurements (the paper's 2-CPU runs).
      There is one worker per served machine, or [Config.domains] when
      that is positive and smaller.  A worker that owns one machine
      runs its serve loop; one that owns several polls them through
      bounded request queues with admission control.

    Orthogonally, two transport backends (the {!Rmi_net.Transport.BACKEND}
    substitution):

    - [Sim]: the in-process simulated interconnect ({!Rmi_net.Cluster})
      with its modeled cost accounting and fault injection.
    - [Sock]: real Unix/TCP sockets ({!Rmi_net.Sock}).  Within one
      process this is loopback mode (all [n] endpoints on 127.0.0.1);
      {!create_process} spreads the machines over OS processes. *)

type mode = Sync | Parallel

(** Which {!Rmi_net.Transport.BACKEND} implementation carries the
    frames. *)
type backend = Sim | Sock

type t

(** The cluster transport follows [config.transport]: [Raw] for the
    paper's lossless path, [Reliable] for the ack/retransmit layer —
    the {!Rmi_net.Reliable} adapter stacked over the backend's raw
    transport, the same stack on [Sim] and [Sock].  Its timers count
    idle polls under [Sync] (a deterministic schedule) and read the
    monotonic clock ({!Rmi_net.Clock.now_us}) under [Parallel];
    [?arq_params] overrides the adapter's retransmit and detector
    settings, in that clock's units (see {!Rmi_net.Reliable.wrap}).  [config.batching]
    stacks the {!Rmi_net.Batching} layer on top of that.
    [?faults] installs a seeded fault schedule on the physical links
    (meaningful with the reliable transport; the raw path does not
    recover from loss).  The fabric holds one plan registry
    ({!plan_store}), shared by its nodes: [?plan_store], or a
    source-less store when absent, into which it installs [plans] (an
    entry the store already holds for a site wins).  The caller's
    table is only read.  A store built over the compiler
    ({!Rmi_core.Plan_store.source_of_optimizer}) serves adaptive-tier
    promotions from its plan cache.  Widened plans live in the
    registry, so a restarted node re-learns them.

    [?backend] (default [Sim]) selects the interconnect.  [Sock] builds
    a loopback TCP mesh: real syscalls, one address space.  With
    [Config.Reliable] the adapter runs over the sockets (exactly-once
    across injected loss, severed links and process crashes);
    [Config.Raw] is the bare TCP path.  [?faults]
    over [Sock] wraps the schedule in a {!Rmi_net.Chaos} injector
    (drops/dups/holds/corruption/crashes replayed over real frames);
    [?chaos] installs a full injector with a connection plan (severs,
    stalls) — pass one or the other, not both.  As on [Sim], injected
    loss is only recovered under the [Reliable] transport. *)
val create :
  ?mode:mode ->
  ?backend:backend ->
  ?faults:Rmi_net.Fault_sim.t ->
  ?chaos:Rmi_net.Chaos.t ->
  ?plan_store:Rmi_core.Plan_store.t ->
  ?arq_params:Rmi_net.Reliable.params ->
  n:int ->
  meta:Rmi_serial.Class_meta.t ->
  config:Config.t ->
  plans:(int, Rmi_core.Plan.t) Hashtbl.t ->
  metrics:Rmi_stats.Metrics.t ->
  unit ->
  t

(** [create_process ~self ~addrs ...] builds the one-machine-per-OS-
    process variant over TCP ({!Rmi_net.Sock.create_process}): this
    process hosts machine [self] of [Array.length addrs]; [addrs.(i)]
    is machine [i]'s [(host, port)].  Blocks until the full mesh is
    connected.  The returned fabric holds a [Node.t] per machine id so
    remote refs resolve, but only [node t self] is live here — drive it
    directly ([Node.serve_loop] on servers, calls on the client);
    {!start}/{!stop} are no-ops.  [Config.Reliable] stacks the
    {!Rmi_net.Reliable} adapter per process, timed on the idle-count
    clock as under [Sync] (a process polls [idle] only after an empty
    2 ms receive slice); [?chaos] injects faults into this process's
    outbound frames; [?epoch] is the incarnation
    number a restarted server stamps on its frames (see
    {!Rmi_net.Sock.create_process}). *)
val create_process :
  ?listen:string * int ->
  ?chaos:Rmi_net.Chaos.t ->
  ?epoch:int ->
  ?plan_store:Rmi_core.Plan_store.t ->
  self:int ->
  addrs:(string * int) array ->
  meta:Rmi_serial.Class_meta.t ->
  config:Config.t ->
  plans:(int, Rmi_core.Plan.t) Hashtbl.t ->
  metrics:Rmi_stats.Metrics.t ->
  unit ->
  t

val mode : t -> mode
val backend : t -> backend

(** [true] for fabrics built by {!create_process}. *)
val process_mode : t -> bool

val size : t -> int
val node : t -> int -> Node.t
val metrics : t -> Rmi_stats.Metrics.t

(** The fabric's plan registry: every version of every site's plan. *)
val plan_store : t -> Rmi_core.Plan_store.t

(** The interconnect, backend-agnostic (fault hooks, flushing,
    shutdown). *)
val net : t -> Rmi_net.Transport.t

(** The raw simulated interconnect of a [Sim]-backed fabric (for fault
    installation and transport inspection in tests and tools).  Under
    [Config.Reliable] it sits {e below} the ARQ adapter: reads through
    it bypass acks, dedup and the epoch fence — use {!net}.
    @raise Invalid_argument on a [Sock]-backed fabric — use {!net}. *)
val cluster : t -> Rmi_net.Cluster.t

(** Start the worker pool serving machines 1..n-1 (no-op in [Sync]
    mode, in process mode and while started). *)
val start : t -> unit

(** Send every served machine a shutdown request from machine 0, stop
    the workers and join them (no-op unless started).  Idempotent. *)
val stop : t -> unit

(** Release the transport's OS resources ({!Rmi_net.Transport.shutdown}:
    sockets, wake pipes, the connection event-loop thread).  A no-op on
    [Sim]; a receive still blocked on a [Sock] endpoint raises
    [Failure].  Call after
    {!stop} once the fabric is done. *)
val shutdown_net : t -> unit

(** [run fabric f] = [start]; [f fabric]; [stop] (also on exception). *)
val run : t -> (t -> 'a) -> 'a
