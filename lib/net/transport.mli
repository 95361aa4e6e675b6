(** The transport signature: everything the runtime layer needs from an
    interconnect, so the simulated fabric and a real socket fabric are
    interchangeable backends.

    {!S} is the frame path — the send and slice-receive families with
    the receive's release, the idle/retransmit clock and peer health —
    which every member of a stack states, so the compiler makes each
    layer decide each of them.
    {!BACKEND} adds the control plane (size, metrics, pool, hosting,
    epochs, process events, faults, shutdown), which only {!Cluster}
    and {!Sock} implement; creation is backend-specific.  {!pack}
    erases a backend into the first-class {!t} that
    {!Rmi_runtime.Fabric}, [Node] and [Dispatch_pool] are written
    against.  A layer implements {!S} over a lower {!t} and {!stack}s
    itself on it, keeping the backend's control plane: {!Reliable.wrap}
    adds the ARQ, {!Batching.wrap} request coalescing.  A transport
    that does not coalesce takes [send_buffered]/[flush] from
    {!Unbuffered}. *)

(** What {!S.idle} did; see {!S.idle}. *)
type idle_outcome =
  | Retransmitted of int  (** this many frames were retransmitted *)
  | Waiting  (** unacked frames exist but none was due yet *)
  | Gave_up of int list
      (** these destinations exhausted the retransmit budget; the
          frames were abandoned and counted as [timeouts] *)
  | Dead  (** nothing in flight anywhere — waiting cannot succeed *)
  | Raw_transport
      (** the backend has no retransmit machinery (the raw simulated
          path, or a TCP backend whose kernel already guarantees
          delivery) *)

(** What a machine believes about a peer. *)
type peer_health = Alive | Suspect | Down

type peer_event = Peer_suspected | Peer_confirmed_down | Peer_recovered

(** Crash-simulator events surfaced to the runtime after the transport
    has wiped the machine's in-flight state. *)
type process_event =
  | Proc_crashed of { machine : int; durability : Fault_sim.durability }
  | Proc_restarted of {
      machine : int;
      epoch : int;
      durability : Fault_sim.durability;
    }

(** A received message: [buf.(off..off+len)].  The record is the
    caller's, allocated once and reused by each receive, which
    overwrites all three fields; a caller that may receive again before
    it is done with a message (a handler's nested call re-enters the
    receive path on the same node) reads them into locals first.  [buf]
    may be the backend's own receive storage ({!Sock} hands up slices
    of a connection's read buffer): its bytes stay intact until the
    receiver {!S.release}s [buf], and a receiver that never releases
    keeps them intact for as long as it holds them, at the cost of
    fresh storage below. *)
type slice = { mutable buf : bytes; mutable off : int; mutable len : int }

(** A fresh slice naming no bytes. *)
val slice : unit -> slice

(** Charge one logical message of [len] payload bytes sent outside a
    batch: [msgs_sent], [bytes_sent] and [unbatched]. *)
val account_send : Rmi_stats.Metrics.t -> int -> unit

(** [send_buffered] and [flush] for a transport that does not
    coalesce: a buffered send goes out at once through [B.send], and a
    flush has nothing to ship. *)
module Unbuffered (B : sig
  type t

  val send : t -> src:int -> dest:int -> bytes -> unit
end) : sig
  val send_buffered : B.t -> src:int -> dest:int -> bytes -> (int * int * int) list
  val flush : B.t -> src:int -> (int * int * int) list
end

(** The frame path: what every member of a stack states. *)
module type S = sig
  type t

  (** Whether {!idle} drives an ARQ whose outcomes the caller must
      interpret (retransmissions, give-ups). *)
  val is_reliable : t -> bool

  (** [send t ~src ~dest msg]; self-sends are allowed (loopback).
      Charges one [msgs_sent] and the payload bytes to the metrics.

      Delivery contract, shared by the whole send family ([send],
      [send_raw], [send_writer], [send_raw_writer]): once the call
      returns, the frame reaches [dest] with no further action by the
      sender — a receive on [dest] returns it (unless a fault or a link
      death loses it first), in send order per ([src], [dest]) pair.
      A backend may hold the frame back until a receiver of [dest]
      polls ({!Sock} buffers frames for an endpoint hosted in the same
      process and writes them out before any of its receives polls, or
      at once when a receiver is already blocked), so a caller must not
      expect it to be {e visible} anywhere — in a kernel buffer, to
      another process — before then.  While it is held,
      {!pending_anywhere} counts it. *)
  val send : t -> src:int -> dest:int -> bytes -> unit

  (** Physical transmit: [frame] rides the same wire path as a [send]
      (fault hook, fault schedule) but is never charged to the logical
      counters — how a layer stacked {e above} ships frames it has
      already accounted for (the ARQ's acks, retransmissions and
      heartbeats; a flushed batch group). *)
  val send_raw : t -> src:int -> dest:int -> bytes -> unit

  (** [send_writer t ~src ~dest w ~payload_off] ships the message
      sitting in [w.(payload_off..length w)] without materializing it
      first.  Contract (checked by {!Transport.send_writer}): at least
      {!Envelope.gap} bytes must have been reserved before
      [payload_off] — backends frame in place by back-filling headers
      and length prefixes into that gap.  [w]'s storage is not
      referenced after the call returns. *)
  val send_writer :
    t -> src:int -> dest:int -> Rmi_wire.Msgbuf.writer -> payload_off:int ->
    unit

  (** {!send_writer} without the logical accounting, as {!send_raw}
      is to {!send}; same gap contract. *)
  val send_raw_writer :
    t -> src:int -> dest:int -> Rmi_wire.Msgbuf.writer -> payload_off:int ->
    unit

  (** {2 Request batching} — [send_buffered t ~src ~dest msg] queues
      [msg] for the (src, dest) link and [flush t ~src] ships [src]'s
      queued groups; both return the groups they shipped as
      [(dest, messages, bytes)].  Only {!Batching.wrap} coalesces; every
      other transport sends at once and flushes nothing
      ({!Unbuffered}). *)

  val send_buffered : t -> src:int -> dest:int -> bytes -> (int * int * int) list
  val flush : t -> src:int -> (int * int * int) list

  (** {2 Receive} — a message is written into a {!slice} the caller
      owns and names the received frame's bytes; see {!slice} for who
      owns what.  Each layer fills the slice or narrows it in place, so
      a receive allocates nothing of its own.  [try_recv_into] does not
      block; [recv_deadline_into] gives up after [seconds]; both return
      whether [s] now holds a message; when not, its fields are
      unspecified.  [recv_blocking_into] waits until one arrives. *)

  val try_recv_into : t -> self:int -> slice -> bool
  val recv_blocking_into : t -> self:int -> slice -> unit
  val recv_deadline_into : t -> self:int -> seconds:float -> slice -> bool

  (** [release t ~self frame]: one slice a receive handed up to [self]
      from [frame] is done with — no reader looks at its bytes again.
      Releases count per [frame], so any slice of it may be named.  A
      layer releases to the layer below the frames it consumes itself
      and passes the others' releases down; bytes a layer does not own
      are ignored.  {!Sock} raises [Invalid_argument] when a buffer's
      count of outstanding slices would go below 0. *)
  val release : t -> self:int -> bytes -> unit

  (** Fire the retransmit timers and failure-detector checks that are
      due, advancing an idle-count clock by one tick (a clock read from
      the monotonic clock just gets a new reading). *)
  val idle : t -> self:int -> idle_outcome

  (** Any message pending anywhere this transport can see?  (deadlock
      diagnostics; a multi-process backend answers conservatively) *)
  val pending_anywhere : t -> bool

  (** {2 Peer health} — each layer decides what it reports: {!Sock}
      its links, {!Reliable} only its heartbeat verdicts. *)

  val peer_health : t -> self:int -> peer:int -> peer_health
  val on_peer_event : t -> (self:int -> peer:int -> peer_event -> unit) -> unit
end

(** The frame path plus the control plane, which every layer stacked on
    the backend shares. *)
module type BACKEND = sig
  include S

  val size : t -> int
  val metrics : t -> Rmi_stats.Metrics.t

  (** The shared writer/reader free-list pool. *)
  val pool : t -> Rmi_wire.Msgbuf.Pool.buffers

  (** Whether machine [m]'s endpoint lives in this process.  Loopback
      and simulated backends host every machine; a process-mode backend
      hosts only its own id.  Acting as a non-hosted machine — sending
      with it as [src], receiving for it, driving its timers — is not
      meaningful, and a reliability layer stacked above must restrict
      its per-machine clock work to hosted ids. *)
  val is_hosted : t -> int -> bool

  (** The incarnation number machine [m] currently stamps on frames. *)
  val self_epoch : t -> int -> int

  (** Hooks run on every crash and restart, after the backend dropped
      the machine's queued frames, in registration order: each layer
      registers its wipe when stacked, before any runtime hook. *)
  val on_process_event : t -> (process_event -> unit) -> unit

  (** Install a seeded fault schedule on every frame the backend
      carries (data, acks and retransmissions of a layer above alike).
      {!Cluster} runs it in its physical layer; {!Sock} wraps it in a
      {!Chaos} injector with an empty connection plan. *)
  val set_faults : t -> Fault_sim.t -> unit

  val faults : t -> Fault_sim.t option

  (** The hook sees every physical frame about to leave and returns the
      frames to actually ship: pass through ([[frame]]), corrupt
      ([[other]]), drop ([[]]), duplicate ([[frame; frame]]) or release
      previously retained frames.  Metrics still count the original
      send. *)
  val set_fault_hook :
    t -> (src:int -> dest:int -> bytes -> bytes list) -> unit

  val clear_fault_hook : t -> unit

  (** Release OS resources (sockets, wake pipes, event-loop threads).  A
      no-op for in-process backends.  Idempotent; the instance must not
      be used afterwards — a receive blocked in it, or started after
      it, raises [Failure] once the inbox is empty. *)
  val shutdown : t -> unit
end

(** A stack: the top layer's frame path, the backend's control plane. *)
type t

val pack : (module BACKEND with type t = 'a) -> 'a -> t

(** [stack lower (module L) l] puts layer [l]'s frame path on top of
    [lower], keeping [lower]'s control plane. *)
val stack : t -> (module S with type t = 'a) -> 'a -> t

(** {1 Forwarders} — so runtime code reads [Transport.send net ~src
    ~dest msg] regardless of the stack.  The frame path goes to the top
    layer. *)

val is_reliable : t -> bool
val send : t -> src:int -> dest:int -> bytes -> unit
val send_raw : t -> src:int -> dest:int -> bytes -> unit

(** Forwards to the top layer after asserting the gap contract: raises
    [Invalid_argument] unless [Envelope.gap <= payload_off <= length w]
    — the reservation requirement enforced at the signature level
    rather than per-backend prose. *)
val send_writer :
  t -> src:int -> dest:int -> Rmi_wire.Msgbuf.writer -> payload_off:int -> unit

(** Forwards after the same gap assertion as {!send_writer}. *)
val send_raw_writer :
  t -> src:int -> dest:int -> Rmi_wire.Msgbuf.writer -> payload_off:int -> unit

val send_buffered : t -> src:int -> dest:int -> bytes -> (int * int * int) list
val flush : t -> src:int -> (int * int * int) list
val try_recv_into : t -> self:int -> slice -> bool
val recv_blocking_into : t -> self:int -> slice -> unit
val recv_deadline_into : t -> self:int -> seconds:float -> slice -> bool

(** The receive family returning [(buf, off, len)] tuples, each over a
    fresh {!slice}: for callers that receive rarely (tests, the
    benchmark's transport ping-pong), at a few words per call.  No
    layer implements them. *)

val try_recv_slice : t -> self:int -> (bytes * int * int) option
val recv_blocking_slice : t -> self:int -> bytes * int * int

val recv_deadline_slice :
  t -> self:int -> seconds:float -> (bytes * int * int) option

val release : t -> self:int -> bytes -> unit
val idle : t -> self:int -> idle_outcome
val pending_anywhere : t -> bool
val peer_health : t -> self:int -> peer:int -> peer_health
val on_peer_event : t -> (self:int -> peer:int -> peer_event -> unit) -> unit

(** The control plane goes to the backend. *)

val size : t -> int
val metrics : t -> Rmi_stats.Metrics.t
val pool : t -> Rmi_wire.Msgbuf.Pool.buffers
val is_hosted : t -> int -> bool
val self_epoch : t -> int -> int
val on_process_event : t -> (process_event -> unit) -> unit
val set_faults : t -> Fault_sim.t -> unit
val faults : t -> Fault_sim.t option

val set_fault_hook :
  t -> (src:int -> dest:int -> bytes -> bytes list) -> unit

val clear_fault_hook : t -> unit
val shutdown : t -> unit
