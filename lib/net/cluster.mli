(** The simulated cluster interconnect: the raw [Sim] backend of
    {!Transport.S} (see {!Sim}).

    [n] machines, each with a mailbox.  [send] charges the message and
    payload bytes to the metrics — the counters the cost model turns
    into modeled seconds.  Receiving polls, like the paper's modified
    GM layer ("polling is performed instead of condition
    synchronization").

    Without a fault schedule this reproduces the paper's Myrinet/GM
    assumption: every frame sent is delivered, in order, uncorrupted,
    at zero overhead — what the paper-reproduction tables run on.
    {!set_faults} and {!set_fault_hook} make the physical layer drop,
    duplicate, reorder, corrupt and crash; reliable delivery over that
    is the {!Reliable} adapter stacked on top (acks, retransmission,
    dedup, heartbeats, epoch fencing), the same adapter the [Sock]
    backend uses.  Request batching is the {!Batching} layer, stacked
    above either.  This module owns only the physical layer: mailboxes,
    the fault stages, crash polling and traffic accounting.

    Raw, the interconnect has no failure detector: {!peer_health} is
    always [Alive] and {!idle} only applies due crash/restart
    transitions. *)

type t

(** [create ~n metrics]: [n] empty mailboxes.  The layers stacked
    above build frames {e around} payloads sitting in pooled writers
    ({!send_writer}) and hand received payloads up as slices of the
    frame, so a message body is snapshotted at most once per
    direction; every physical payload copy is charged to the
    [bytes_copied] metric, which the [wirecost] experiment reports. *)
val create : n:int -> Rmi_stats.Metrics.t -> t

(** The cluster's shared writer/reader free-list pool (acquisitions
    count [pool_hits]/[pool_misses]). *)
val pool : t -> Rmi_wire.Msgbuf.Pool.buffers

(** Always [Alive]: the raw interconnect runs no failure detector. *)
val peer_health : t -> self:int -> peer:int -> Transport.peer_health

(** No-op: the raw interconnect runs no failure detector. *)
val set_detector : t -> Transport.hb_params -> unit

(** The incarnation number machine [m] currently stamps on its frames:
    0 without a simulator or before its first restart. *)
val self_epoch : t -> int -> int

(** No-op: the raw interconnect raises no peer events. *)
val on_peer_event :
  t -> (self:int -> peer:int -> Transport.peer_event -> unit) -> unit

(** [f] runs on every simulated crash/restart, after the machine's
    mailbox was wiped; hooks run in registration
    order, so a layer stacked above (registered first) wipes its own
    state before runtime hooks run.  Hooks must not send messages —
    nodes use this to drop volatile caches. *)
val on_process_event : t -> (Transport.process_event -> unit) -> unit

val size : t -> int
val metrics : t -> Rmi_stats.Metrics.t

(** Always [false]: retransmission is the {!Reliable} adapter's. *)
val is_reliable : t -> bool

(** The simulated cluster lives in one address space: every machine is
    hosted. *)
val is_hosted : t -> int -> bool

(** [send t ~src ~dest msg]; self-sends are allowed (loopback). *)
val send : t -> src:int -> dest:int -> bytes -> unit

(** Physical transmit: [frame] rides through the fault hook and the
    simulator exactly like a [send], but is never charged to
    [msgs_sent]/[bytes_sent] — how a layer stacked above ships its own
    frames. *)
val send_raw : t -> src:int -> dest:int -> bytes -> unit

(** [send_writer t ~src ~dest w ~payload_off] ships the message sitting
    in [w.(payload_off..length w)], snapshotting it once: per the
    {!Transport.S.send_writer} contract the caller must have reserved
    at least {!Envelope.gap} bytes before [payload_off] (asserted by
    the {!Transport.send_writer} forwarder).  [w]'s storage is not
    referenced after the call returns (it is typically a pooled writer
    released right after). *)
val send_writer :
  t -> src:int -> dest:int -> Rmi_wire.Msgbuf.writer -> payload_off:int -> unit

(** {!send_writer} without the logical accounting: the snapshot is
    charged to [bytes_copied], nothing to [msgs_sent]/[bytes_sent]. *)
val send_raw_writer :
  t -> src:int -> dest:int -> Rmi_wire.Msgbuf.writer -> payload_off:int -> unit

(** {!send}, at once: the raw interconnect does not coalesce (see
    {!Batching}).  Returns [[]]. *)
val send_buffered : t -> src:int -> dest:int -> bytes -> (int * int * int) list

(** Nothing to ship: returns [[]]. *)
val flush : t -> src:int -> (int * int * int) list

(** {1 Receive}

    Messages come back as [(frame, off, len)] slices — here always a
    whole mailbox frame, which a layer above may split without
    copying. *)

val try_recv_slice : t -> self:int -> (bytes * int * int) option

(** Blocks until a message for [self] arrives. *)
val recv_blocking_slice : t -> self:int -> bytes * int * int

(** Timed {!recv_blocking_slice}; [None] after [seconds] of silence. *)
val recv_deadline_slice :
  t -> self:int -> seconds:float -> (bytes * int * int) option

(** Deliver a raw frame straight into [dest]'s mailbox, bypassing the
    fault hook and the simulator.  A test/diagnostic backdoor (e.g.
    forging a stale-epoch envelope for the {!Reliable} layer above). *)
val inject_frame : t -> dest:int -> bytes -> unit

(** Applies any crash/restart transitions the frame clock made due and
    answers [Raw_transport]: the raw interconnect has nothing to
    retransmit. *)
val idle : t -> self:int -> Transport.idle_outcome

(** Any frame queued in a mailbox?  (deadlock diagnostics) *)
val pending_anywhere : t -> bool

(** Install a seeded fault schedule on the physical layer (applies to
    every frame: data, acks and retransmissions of a layer above
    alike). *)
val set_faults : t -> Fault_sim.t -> unit

val clear_faults : t -> unit
val faults : t -> Fault_sim.t option

(** Fault injection for tests: the hook sees every physical frame about
    to be delivered and returns the frames to actually ship — pass it
    through ([[msg]]), corrupt it ([[other]]), drop it ([[]]) or
    duplicate it ([[msg; msg]]).  Metrics still count the original
    send.  Runs before the {!Fault_sim} stage. *)
val set_fault_hook : t -> (src:int -> dest:int -> bytes -> bytes list) -> unit

val clear_fault_hook : t -> unit

(** {1 Transport.S completion} *)

(** Backend identifier: ["sim"]. *)
val name : string

(** No-op: the simulated interconnect holds no OS resources. *)
val shutdown : t -> unit
