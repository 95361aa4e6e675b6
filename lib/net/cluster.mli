(** The simulated cluster interconnect: the raw [Sim] backend of
    {!Transport.BACKEND} (see {!Sim}).

    [n] machines, each with a mailbox, all hosted in this process.
    [send] charges the message and payload bytes to the metrics — the
    counters the cost model turns into modeled seconds.  Receiving
    polls, like the paper's modified GM layer ("polling is performed
    instead of condition synchronization"), and hands back whole
    mailbox frames, which a layer above may split without copying.

    Without a fault schedule this reproduces the paper's Myrinet/GM
    assumption: every frame sent is delivered, in order, uncorrupted,
    at zero overhead — what the paper-reproduction tables run on.
    [set_faults] and [set_fault_hook] make the physical layer drop,
    duplicate, reorder, corrupt and crash; the fault hook runs before
    the {!Fault_sim} stage.  Reliable delivery over that is the
    {!Reliable} adapter stacked on top (acks, retransmission, dedup,
    heartbeats, epoch fencing), the same adapter the [Sock] backend
    uses, and request batching is the {!Batching} layer, stacked above
    either.  This module owns only the physical layer: mailboxes, the
    fault stages, crash polling and traffic accounting.

    Raw, the interconnect has no failure detector and does not
    coalesce: [is_reliable] is [false], [peer_health] is always
    [Alive], [on_peer_event] registers nothing, [send_buffered] sends
    at once and [flush] ships nothing.  [idle] only applies the
    crash/restart transitions the frame clock made due, and answers
    [Raw_transport].  On a crash the machine's mailbox is dropped,
    then the process hooks run in registration order, so a layer
    stacked above (registered when it was stacked) wipes its own state
    before runtime hooks run; hooks must not send messages.  [self_epoch]
    is 0 without a simulator or before a machine's first restart, and
    [shutdown] has nothing to release. *)

type t

(** [create ~n metrics]: [n] empty mailboxes.  The layers stacked
    above build frames {e around} payloads sitting in pooled writers
    ([send_writer]) and hand received payloads up as slices of the
    frame, so a message body is copied at most once per direction,
    into a {!Frame_pool} frame; every physical payload copy is charged
    to the [bytes_copied] metric, which the [wirecost] experiment
    reports.  The writer pool's acquisitions count
    [pool_hits]/[pool_misses]; the frame pool counts neither.

    A mailbox holds each pooled frame it queues until the receiver's
    [release], which may recycle it (so the receiver reads it no
    more); a crash lets go of what the victim's mailbox held, and an
    attached {!Fault_sim} holds what it holds back.  Frames the pool
    does not know — a [send]'s own bytes, injected frames — are
    queued as they are and never recycled. *)
val create : n:int -> Rmi_stats.Metrics.t -> t

include Transport.BACKEND with type t := t

(** Deliver a raw frame straight into [dest]'s mailbox, bypassing the
    fault hook and the simulator.  A test/diagnostic backdoor (e.g.
    forging a stale-epoch envelope for the {!Reliable} layer above). *)
val inject_frame : t -> dest:int -> bytes -> unit

(** Holders of the cluster's pooled frames — an ARQ awaiting an ack, a
    mailbox awaiting its receiver's release, a fault schedule holding a
    frame back: 0 once every frame is acked and released (a test hook,
    as {!Sock.held} is). *)
val held : t -> int
