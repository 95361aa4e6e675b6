(** The Reliable envelope layer: the one ARQ stack, as a stackable
    transport adapter.

    [wrap lower] returns a transport that speaks {!Envelope} frames
    over [lower]'s raw wire ({!Transport.S.send_raw}): per-link
    sequence numbers, acks, duplicate suppression, capped-exponential
    retransmission checked on every {!Transport.S.idle} call,
    heartbeat-driven Alive/Suspect/Down and epoch fencing.  [Rmi_runtime.Fabric] stacks
    it on the raw simulated interconnect ({!Sim}) and on [Sock] alike
    whenever the config asks for [Reliable].

    The adapter implements only the frame path ({!Transport.S}): its
    own link state and failure detector.  The control plane (fault
    schedules, chaos injection, epochs, process events, shutdown) stays
    the backend's, which {!Transport.stack} carries up to the wrapped
    transport.  It does not coalesce: {!Batching.wrap} stacks above it,
    so one flushed group is one envelope, one seq/ack unit.  On a
    [Proc_crashed] event from the backend, the crashed machine's
    in-flight ARQ state is wiped before runtime-level hooks run.
    {!Transport.S.idle} answers [Dead] only when nothing is in flight
    anywhere: no unacked frame, no frame held by the fault schedule,
    nothing queued in [lower].

    Peer health is the detector's alone.  The adapter does not
    subscribe to [lower]'s peer events: over [Sock], a connection that
    dies and re-forms fires [Peer_confirmed_down] and [Peer_recovered]
    there, but no event reaches a hook registered on the wrapped
    transport and {!Transport.S.peer_health} stays [Alive] unless the
    heartbeats themselves go quiet.  The ARQ resends whatever the dead
    connection lost.

    Framing is zero-copy: envelopes are built in pooled writers,
    copied once into a {!Frame_pool} frame that the lower transport and
    the retransmit table share (the table holds it until the ack or the
    give-up), and payloads handed up as slices of the received frame.
    A frame the adapter consumes itself (an ack, a heartbeat, a
    duplicate, a stale or garbled frame) is {!Transport.S.release}d to
    [lower] at once; a payload handed up is released by the receiver,
    and the adapter passes that release down.

    Accounting: logical counters charge the payload once at the
    adapter, exactly as the raw transport does; envelope and control
    frames ride [lower]'s [send_raw], which charges nothing.  The
    adapter's own [send_raw]/[send_raw_writer] (a layer above shipping
    a group it has already accounted for) envelope the frame like any
    data frame and charge nothing either. *)

(** Retransmit timer and failure-detector settings, in the units of
    the adapter's clock (see {!wrap}): [idle] calls by default,
    microseconds with [~now]. *)
type params = {
  rto : int;  (** clock units before the first retransmission *)
  backoff_cap : int;  (** rto doubles per attempt up to this *)
  max_attempts : int;  (** then the frame is abandoned ([timeouts]) *)
  ping_every : int;  (** clock units between pings to a quiet peer *)
  suspect_after : int;  (** quiet time before Alive -> Suspect *)
  down_after : int;  (** quiet time before Suspect -> Down *)
}

(** The [idle]-count settings: rto 2, cap 32, 12 attempts; ping after
    8, suspect after 16, down after 48. *)
val default_params : params

(** The microsecond settings: rto 100 µs (the pool worker's idle-sleep
    quantum, so no idle caller fires a timer sooner), cap 32 ms, 12
    attempts (a frame is abandoned ~147 ms after it was first sent);
    ping a peer quiet for 8 ms, suspect it after 16 ms, confirm it down
    after 48 ms. *)
val clock_params : params

(** A link's duplicate memory: a contiguous watermark below which
    every sequence number was delivered, plus the delivered numbers
    above it.  In-order delivery keeps nothing above the watermark,
    but an lseq the sender abandoned after [max_attempts] is a gap
    that is never filled: every later frame on that link is then held
    until the sender's next epoch or a [wipe_machine].  Exposed for
    tests. *)
module Dedup : sig
  type t

  val create : unit -> t

  (** [fresh d lseq] is [true] the first time [lseq] arrives (and
      records it), [false] for a duplicate. *)
  val fresh : t -> int -> bool

  (** Forget everything, as for a new incarnation of the sender. *)
  val reset : t -> unit

  (** Delivered sequence numbers held above the watermark. *)
  val pending : t -> int
end

(** [wrap ?now ?params lower] stacks the reliability layer over
    [lower].  [lower] must not also be used directly afterwards (frames
    sent around the adapter would reach peers unenveloped and be
    dropped by the decoder).

    One clock drives the retransmit timers and the failure detector
    alike.  Without [now] it counts {!Transport.S.idle} calls, and the
    default is {!default_params}: the
    deterministic schedule a Sync fabric needs, where one machine
    drives every timer.  With [now] (e.g. {!Clock.now_us}) the timers
    read it as microseconds, and the default is {!clock_params}: a
    threaded fabric's idle loops spin at the host's
    speed, and a timer counted in polls would retransmit frames whose
    acks are merely late.  The rto only waits for such late acks, so
    with [now] a frame's first retransmission does not wait for it
    when [lower] holds nothing in flight anywhere
    ({!Transport.S.pending_anywhere} is [false], which only an
    in-process fabric can answer): the frame was probably lost.  This
    is a heuristic — the receiver may have taken the frame but not yet
    acked it, or another thread may not yet have shipped a frame it
    registered — and dedup drops the spurious copy when it is wrong.
    A frame a fault schedule holds back does not count as in flight:
    only later sends on its link release it.  Later attempts
    keep the backoff schedule.  [params] overrides the default, in the
    chosen clock's units. *)
val wrap : ?now:(unit -> int) -> ?params:params -> Transport.t -> Transport.t
