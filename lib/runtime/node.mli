(** One machine of the cluster: exported objects, the marshaling
    engine, and the GM-style progress engine.

    A [call] marshals the arguments according to the effective plan
    (the compiler's call-site plan under [Site_specific], the generic
    tag-carrying plan under [Class_specific]), ships the request, and
    then {e polls}: while the reply is outstanding the machine serves
    incoming requests — the paper's "poll the network ... while a
    thread has a data-request outstanding", which also makes nested
    RMIs (worker calling back into the master) deadlock-free.

    Calls to objects on the {e same} machine still go through
    serialize/deserialize (cloning preserves RMI parameter semantics)
    but skip the wire and count as local RPCs.

    The paper's reuse (Figure 13) lives in each call site's record
    ({!Site}): one recycling arena for the arguments the callee serves
    and one for the replies the caller decodes.  A node is the
    composition of {!Site} (per-site state and the marshaling phases),
    {!Server} (serving) and {!Client} (calls, futures and the await
    loop). *)

type t

type handler = Rmi_serial.Value.t array -> Rmi_serial.Value.t option

exception Remote_exception of string
exception No_such_method of string
exception Deadlock of string

(** A call over the reliable transport gave up: some frame exhausted
    its retransmit budget (partitioned link), or nothing was left in
    flight and the reply can no longer arrive.  Raised instead of
    hanging or [Deadlock] when the cluster transport is
    [Config.Reliable]. *)
exception Rpc_timeout of string

(** The peer was retried [Config.failover.max_call_retries] times (each
    retry restarting the transport's full retransmit budget, failing
    over to a registered replica when one exists) and still never
    answered — or its circuit breaker is open and the call fast-failed
    without touching the wire. *)
exception Peer_down of string

(** The server's dispatch pool rejected the request (bounded queue
    full, admission control) every time it was sent, until the call's
    deadline passed.  A [Reject] never executes the handler, so the
    client re-sends freely under the deadline without consuming the
    RPC retry budget; each rejection still feeds the peer's circuit
    breaker, so a persistently saturated server eventually fast-fails
    new calls (PR 6). *)
exception Server_busy of string

(** [create net ~id ~meta ~config ~plans] builds one machine on
    transport [net] (any {!Rmi_net.Transport.t} backend: the simulated
    interconnect via {!Rmi_net.Sim.pack}, or TCP sockets via
    {!Rmi_net.Sock}).  [plans] is the fabric's plan registry, shared
    by its nodes: the sites' plans, every widened version, and — when
    it has a source — the compiler's content-hash-keyed plan cache
    behind the adaptive tier's promotions. *)
val create :
  Rmi_net.Transport.t ->
  id:int ->
  meta:Rmi_serial.Class_meta.t ->
  config:Config.t ->
  plans:Rmi_core.Plan_store.t ->
  t

val id : t -> int
val config : t -> Config.t

(** In synchronous (single-thread) mode the fabric installs a pump that
    serves other machines' queues; it returns whether it made
    progress. *)
val set_pump : t -> (unit -> bool) -> unit

(** [export t ~obj ~meth ~has_ret handler] registers a remotely
    invokable method.  [has_ret] must match the method's signature on
    every machine.  Safe from any domain: an export republishes a
    copied handler table, so a call's lookup takes no lock. *)
val export : t -> obj:int -> meth:int -> has_ret:bool -> handler -> unit

(** A promise for the result of one asynchronous call, keyed on the
    request's protocol sequence number (replies echo it back).  All
    failures — [Remote_exception] from the handler, [Rpc_timeout] /
    [Deadlock] from the transport, [No_such_method] on a local call —
    are captured in the future and re-raised when it is awaited, not
    when the call is issued. *)
module Future : sig
  type t

  (** Block until the future settles, serving interleaved requests and
      driving the transport meanwhile (the same progress engine a
      synchronous call polls).  Returns the unmarshaled result.
      @raise Remote_exception when the remote handler raised
      @raise Deadlock when no progress is possible (raw transport)
      @raise Rpc_timeout when the reliable transport gives up *)
  val await : t -> Rmi_serial.Value.t option

  (** Nonblocking: drain whatever has already arrived (plus one pump in
      synchronous mode) and report [Some result] if the future settled,
      [None] if it is still in flight.  Raises like {!await} when the
      future settled with a failure. *)
  val peek : t -> Rmi_serial.Value.t option option

  (** [await] each future, returning the results in the order the list
      was given (replies may arrive in any order). *)
  val all : t list -> Rmi_serial.Value.t option list
end

(** [call_async t ~dest ~meth ~callsite ~has_ret args] ships the
    request and returns immediately with a {!Future.t}; an unbounded
    number of calls may be in flight per node.  With batching enabled
    (see {!Config.with_batching}) the request is coalesced into the
    per-destination batch buffer and goes out on the next flush point —
    an explicit await, a serve cycle, or the byte threshold.  Local
    calls execute eagerly; their outcome still surfaces at await.

    [deadline] (seconds, default [Config.failover.call_deadline]) bounds
    the call end to end: across transport give-ups, RPC retries and
    failovers, the future settles — with the reply, [Rpc_timeout] or
    [Peer_down] — rather than hang. *)
val call_async :
  ?deadline:float ->
  t ->
  dest:Remote_ref.t ->
  meth:int ->
  callsite:int ->
  has_ret:bool ->
  Rmi_serial.Value.t array ->
  Future.t

(** [call t ~dest ~meth ~callsite ~has_ret args] is
    [call_async ... |> Future.await].
    @raise Remote_exception when the remote handler raised
    @raise Deadlock when no progress is possible (raw transport)
    @raise Rpc_timeout when the reliable transport gives up on the call
    @raise Peer_down when retries/failover were exhausted or the peer's
    circuit breaker is open *)
val call :
  ?deadline:float ->
  t ->
  dest:Remote_ref.t ->
  meth:int ->
  callsite:int ->
  has_ret:bool ->
  Rmi_serial.Value.t array ->
  Rmi_serial.Value.t option

(** [set_replica t ~primary ~replica] tells this node that objects it
    addresses on machine [primary] are also exported (same object and
    method ids) on machine [replica]; when [primary] is [Down] — or on
    the final retry — in-flight calls are re-sent there. *)
val set_replica : t -> primary:int -> replica:int -> unit

(** Serve every queued request; [true] if at least one was served. *)
val serve_pending : t -> bool

(** [serve_slice t s] executes the received frame slice in [s] on this
    node — request, reply or reject — then ships any coalesced replies.
    [s] is read before anything runs, and the slice is released to the
    transport once consumed.  A polling worker of the dispatch pool
    calls it from its domain, with a slice of its own; callers must
    ensure at most one slice is in [serve_slice] per node at a time. *)
val serve_slice : t -> Rmi_net.Transport.slice -> unit

(** [send_reject t hdr] answers [hdr]'s sender with a [Reject] frame
    echoing the sequence number — the admission-control refusal the
    dispatch pool issues when a node's request queue is full.  The
    request must not have been executed. *)
val send_reject : t -> Rmi_wire.Protocol.header -> unit

(** Serve until a shutdown message arrives: the main loop of a worker
    domain that owns this one node, and of a process-mode server.  Every
    frame but the shutdown counts as one of [dispatches], added when
    the loop ends. *)
val serve_loop : t -> unit

(** [send_shutdown t ~dest] sends [dest] the shutdown request, through
    [t]'s batch buffer so it cannot overtake coalesced traffic. *)

val send_shutdown : t -> dest:int -> unit

(** Drop every site's recycling arenas (between benchmark
    configurations). *)
val reset_caches : t -> unit

(** Attach a trace collector: every call this node makes (start/end
    with latency) and every request it serves is recorded. *)
val set_trace : t -> Trace.t -> unit
