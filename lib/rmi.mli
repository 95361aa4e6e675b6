(** The RMI runtime, behind one door.

    Applications, examples and the experiment binaries program against
    this facade instead of the internal [Rmi_runtime]/[Rmi_serial]/...
    libraries.  It re-exports the stable surface — configurations,
    fabrics, nodes, futures, metrics, tracing, the experiment driver —
    and narrows {!Node} to the caller-facing operations: the fabric's
    wiring hooks ([set_pump], [serve_loop], [send_shutdown], [create])
    are deliberately absent; {!Fabric.create} and {!Fabric.run} are the
    only way to stand a cluster up.

    A minimal remote call:
    {[
      let fabric = Rmi.Fabric.create ~n:2 ~meta ~config ~plans ~metrics () in
      Rmi.Fabric.run fabric @@ fun fabric ->
        Rmi.Node.export (Rmi.Fabric.node fabric 1) ~obj:0 ~meth ~has_ret:true
          (fun args -> Some args.(0));
        Rmi.Node.call (Rmi.Fabric.node fabric 0)
          ~dest:(Rmi.Remote_ref.make ~machine:1 ~obj:0)
          ~meth ~callsite ~has_ret:true [| v |]
    ]}

    and its pipelined form replaces the tail call with
    {!Node.call_async} + {!Future.await}. *)

module Config = Rmi_runtime.Config
module Remote_ref = Rmi_runtime.Remote_ref
module Value = Rmi_serial.Value

(** One machine of the cluster, narrowed to the application surface.
    Obtain instances from {!Fabric.node}. *)
module Node : sig
  type t = Rmi_runtime.Node.t

  type handler = Value.t array -> Value.t option

  exception Remote_exception of string
  exception No_such_method of string
  exception Deadlock of string
  exception Rpc_timeout of string
  exception Peer_down of string

  val id : t -> int
  val config : t -> Config.t

  (** [export t ~obj ~meth ~has_ret handler] registers a remotely
      invokable method.  [has_ret] must match the method's signature on
      every machine. *)
  val export : t -> obj:int -> meth:int -> has_ret:bool -> handler -> unit

  (** Promises for asynchronous calls; every failure surfaces at
      {!Future.await}, not at issue time. *)
  module Future : sig
    type t = Rmi_runtime.Node.Future.t

    val await : t -> Value.t option
    val peek : t -> Value.t option option
    val all : t list -> Value.t option list
  end

  (** Issue a call without waiting; any number may be in flight.  With
      {!Config.with_batching}, bursts of requests coalesce into single
      wire envelopes.  [deadline] (seconds, default
      [Config.failover.call_deadline]) bounds the call end to end: the
      future always settles — with the reply, [Rpc_timeout] or
      [Peer_down] — rather than hang. *)
  val call_async :
    ?deadline:float ->
    t ->
    dest:Remote_ref.t ->
    meth:int ->
    callsite:int ->
    has_ret:bool ->
    Value.t array ->
    Future.t

  (** [call_async ... |> Future.await].
      @raise Remote_exception when the remote handler raised
      @raise Deadlock when no progress is possible (raw transport)
      @raise Rpc_timeout when the reliable transport gives up
      @raise Peer_down when retries/failover were exhausted or the
      peer's circuit breaker is open *)
  val call :
    ?deadline:float ->
    t ->
    dest:Remote_ref.t ->
    meth:int ->
    callsite:int ->
    has_ret:bool ->
    Value.t array ->
    Value.t option

  (** Register a (primary -> replica) failover mapping on this node;
      normally done for every node by {!Registry.new_replicated}. *)
  val set_replica : t -> primary:int -> replica:int -> unit

  (** Drop all reuse caches (between benchmark configurations). *)
  val reset_caches : t -> unit

  (** Attach a trace collector: every call this node makes and every
      request it serves is recorded. *)
  val set_trace : t -> Rmi_runtime.Trace.t -> unit
end

module Future = Rmi_runtime.Node.Future
module Fabric = Rmi_runtime.Fabric
module Registry = Rmi_runtime.Registry
module Distributed = Rmi_runtime.Distributed
module Trace = Rmi_runtime.Trace
module Metrics = Rmi_stats.Metrics
module Ascii_table = Rmi_stats.Ascii_table
module Costmodel = Rmi_net.Costmodel
module Fault_sim = Rmi_net.Fault_sim

(** The first-class transport interface ({!Rmi_net.Transport.S}) behind
    {!Fabric}'s [backend] parameter; {!Fabric.net} exposes a fabric's
    instance. *)
module Transport = Rmi_net.Transport

module Experiment = Rmi_harness.Experiment
module Gate = Rmi_harness.Gate
module Paper_data = Rmi_harness.Paper_data
module Cli = Rmi_harness.Cli

(** Escape hatch for benchmarks and tests that poke below the facade:
    the wire format, the raw codec layers and the simulated
    interconnect.  Applications should not need anything in here. *)
module Internals : sig
  module Cluster = Rmi_net.Cluster
  module Sim = Rmi_net.Sim
  module Sock = Rmi_net.Sock
  module Protocol = Rmi_wire.Protocol
  module Msgbuf = Rmi_wire.Msgbuf
  module Codec = Rmi_serial.Codec
  module Introspect = Rmi_serial.Introspect
  module Class_meta = Rmi_serial.Class_meta
  module Plan = Rmi_core.Plan
  module Plan_store = Rmi_core.Plan_store
  module Pass_manager = Rmi_core.Pass_manager
  module Optimizer = Rmi_core.Optimizer
end
