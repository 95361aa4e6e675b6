(** Link-layer framing for the reliable transport.

    Every physical frame on a reliable cluster is [Data] (carries an
    opaque RPC message as payload), [Ack] (acknowledges a [Data]
    frame's link sequence number; empty payload) or [Hb] (a failure
    detector heartbeat: [lseq = hb_ping] asks "are you alive",
    [lseq = hb_pong] answers; empty payload).  A checksum over the
    header fields and payload lets the receiver detect the simulator's
    bit flips and drop the frame, leaving recovery to the sender's
    retransmit timer.

    [epoch] is the sender's incarnation number: 0 until the crash
    simulator restarts the machine, then bumped on every restart.
    Receivers fence frames whose epoch is lower than the highest one
    seen from that peer, so packets from a dead incarnation (delayed in
    a reorder queue, or retransmitted by stale state) can never be
    mistaken for fresh traffic. *)

type kind = Data | Ack | Hb

type t = {
  kind : kind;
  src : int;   (** sending machine — where [Ack]s go back to *)
  epoch : int; (** sender's incarnation number (0 = never crashed) *)
  lseq : int;  (** per-(src,dest)-link sequence number *)
}

(** [encode ~kind ~src ~epoch ~lseq ~payload ()] is the whole frame in
    a fresh buffer, written field by field.  No library code calls it:
    it is the reference encoder the tests compare {!frame_around},
    {!encode_around} and {!encode_into} against.  [epoch] is a
    required argument here and in {!frame_around} and {!encode_into}:
    an optional one boxes a [Some] on every call. *)
val encode :
  kind:kind -> src:int -> epoch:int -> lseq:int -> payload:bytes -> unit ->
  bytes

(** [checksum_slice ~kc ~src ~epoch ~lseq buf off len] is the 30-bit
    checksum a frame carries: FNV-1a over the kind's wire code [kc], the
    low 8 bytes of [src], [epoch] and [lseq] (least significant first),
    then [buf.(off..off+len)], which must lie inside [buf] (it is not
    checked). *)
val checksum_slice :
  kc:int -> src:int -> epoch:int -> lseq:int -> bytes -> int -> int -> int

(** {1 Zero-copy framing}

    The copy-free path builds the envelope {e around} a payload that
    already sits in a writer: reserve {!gap} bytes, write the payload
    after them, then call {!frame_around} to back-fill the header
    (right-justified against the payload, minimal varints) and return
    the frame's start offset.  Frames built this way are byte-identical
    to {!encode}'s output. *)

(** Worst-case encoded header size; the gap to reserve before a
    payload destined for {!frame_around}. *)
val gap : int

(** [frame_around w ~kind ~src ~epoch ~lseq ~payload_off] frames
    [w.(payload_off..length w)] in place; at least {!gap} bytes before
    [payload_off] must have been reserved.  Returns the frame's start
    offset: the frame is [w.(start..length w)].
    @raise Invalid_argument when the gap is too small. *)
val frame_around :
  Rmi_wire.Msgbuf.writer ->
  kind:kind -> src:int -> epoch:int -> lseq:int -> payload_off:int -> int

(** {!frame_around} with [epoch] 0 unless given, for framing outside the
    ARQ (the benchmark's envelope replay).  Passing [~epoch] boxes it;
    {!Reliable} calls {!frame_around}. *)
val encode_around :
  Rmi_wire.Msgbuf.writer ->
  kind:kind -> src:int -> ?epoch:int -> lseq:int -> payload_off:int -> unit ->
  int

(** [encode_into w ~payload ()] appends a whole envelope around a bytes
    payload (one blit); returns the frame's start offset as for
    {!frame_around}. *)
val encode_into :
  Rmi_wire.Msgbuf.writer ->
  kind:kind -> src:int -> epoch:int -> lseq:int -> payload:bytes -> unit ->
  int

(** {1 Parsing}

    [parse frame ~off ~len ~garbled k a b] validates the envelope in
    [frame.(off..off+len)] and hands its fields to [k]:
    [k a b frame kind ~src ~epoch ~lseq ~off ~len], where the last two
    are the payload's slice of [frame].  It returns [garbled] when the
    frame is garbled: bad magic, bad kind, truncated, or checksum
    mismatch.  The header is read straight into locals, so the parse
    allocates nothing; with a [k] that names no free variables (a
    top-level function) and state passed as [a] and [b], neither does
    the call.  The receive path of {!Reliable} runs this way.
    @raise Invalid_argument when the slice is not inside [frame]. *)
val parse :
  bytes ->
  off:int ->
  len:int ->
  garbled:'r ->
  ('a ->
  'b ->
  bytes ->
  kind ->
  src:int ->
  epoch:int ->
  lseq:int ->
  off:int ->
  len:int ->
  'r) ->
  'a ->
  'b ->
  'r

(** [decode_slice frame ~off ~len] is {!parse} returning the header as
    a record and the payload as an [(off, len)] slice of [frame];
    [None] when the frame is garbled. *)
val decode_slice : bytes -> off:int -> len:int -> (t * (int * int)) option

(** {!decode_slice} over the whole of [frame], returning a copy of the
    payload. *)
val decode : bytes -> (t * bytes) option

(** [lseq] values distinguishing the two [Hb] frame roles. *)
val hb_ping : int
val hb_pong : int
