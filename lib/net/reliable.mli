(** The Reliable envelope layer: the one ARQ stack, as a stackable
    transport adapter.

    [wrap lower] returns a transport that speaks {!Envelope} frames
    over [lower]'s raw wire ({!Transport.S.send_raw}): per-link
    sequence numbers, acks, duplicate suppression, capped-exponential
    retransmission on the {!Transport.S.idle} tick, heartbeat-driven
    Alive/Suspect/Down and epoch fencing.  [Rmi_runtime.Fabric] stacks
    it on the raw simulated interconnect ({!Sim}) and on [Sock] alike
    whenever the config asks for [Reliable].

    The adapter keeps its own link state, batcher and failure
    detector; it delegates the physical layer (fault schedules, chaos
    injection, epochs, process events, shutdown) to [lower].  On a
    [Proc_crashed] event from [lower], the crashed machine's in-flight
    ARQ state is wiped before runtime-level hooks run.  {!Transport.S.idle}
    answers [Dead] only when nothing is in flight anywhere: no unacked
    frame, no frame held by [lower]'s fault schedule, nothing queued.

    Framing follows [lower]'s {!Transport.S.zero_copy} mode: zero-copy
    envelopes are built in pooled writers and payloads handed up as
    slices; the legacy mode (Sim only) makes and charges the
    copy-based framing's copies.

    Accounting: logical counters charge the payload once at the
    adapter, exactly as the raw transport does; envelope and control
    frames ride [lower]'s [send_raw], which charges nothing. *)

type params = {
  rto : int;  (** ticks before first retransmission *)
  backoff_cap : int;  (** rto doubles per attempt up to this *)
  max_attempts : int;  (** then the frame is abandoned ([timeouts]) *)
}

val default_params : params

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

(** [wrap ?params lower] stacks the reliability layer over [lower].
    [lower] must not also be used directly afterwards (frames sent
    around the adapter would reach peers unenveloped and be dropped by
    the decoder). *)
val wrap : ?params:params -> Transport.t -> Transport.t
