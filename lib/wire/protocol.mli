(** Message framing for the RMI transport.

    Every network message carries a small header: the kind of message
    (request / reply / ack), the destination object, the method or
    call-site being invoked, and a sequence number used to match
    replies to outstanding requests.  The payload that follows the
    header is opaque serialized argument/return data. *)

type kind =
  | Request  (** invoke a method; expects [Reply] or [Ack] *)
  | Reply    (** carries a serialized return value *)
  | Ack      (** return value ignored at the call site: empty reply *)
  | Exn_reply  (** remote raised; payload is the exception message *)
  | Reject
      (** admission control refused the request: the server's bounded
          queue was full and the request was {e not} executed, so the
          client may re-send it under its own deadline (PR 6).  Encodes
          as code 5 — 4 belongs to batch envelopes. *)

type header = {
  kind : kind;
  src : int;          (** sending machine (where replies go) *)
  epoch : int;        (** caller's incarnation number; together with
                          [(src, seq)] it keys the server's reply cache,
                          so a restarted client reusing sequence numbers
                          can never be served a predecessor's reply *)
  seq : int;          (** request sequence number, echoed by the reply *)
  target_obj : int;   (** exported object id on the destination machine *)
  method_id : int;    (** registry index of the callee method *)
  callsite : int;     (** call-site id (selects the specialized plan);
                          [-1] for class-generic marshaling *)
  nargs : int;        (** argument count, for generic unmarshaling *)
  plan_ver : int;     (** plan version the payload was encoded with: 0
                          is the generic (tag-carrying) encoding; [v > 0]
                          selects specialized plan version [v] for the
                          call site.  On a request it describes the
                          arguments; on a reply, the return value — a
                          server that deoptimized mid-reply tags the
                          reply with the widened version so the caller
                          decodes with the matching plan *)
}

val write_header : Msgbuf.writer -> header -> unit

(** [write_fields w ~kind ...] writes the same bytes as {!write_header}
    of the record with these fields, without building the record: the
    call path writes request and reply headers this way. *)
val write_fields :
  Msgbuf.writer ->
  kind:kind ->
  src:int ->
  epoch:int ->
  seq:int ->
  target_obj:int ->
  method_id:int ->
  callsite:int ->
  nargs:int ->
  plan_ver:int ->
  unit

(** @raise Msgbuf.Underflow on a malformed header. *)
val read_header : Msgbuf.reader -> header

(** {2 Piecewise header reads}

    A header can also be read in order, one piece at a time, raising
    {!Msgbuf.Underflow} exactly where {!read_header} would:
    {!read_kind}, then either {!read_after_kind} for the whole record,
    or {!read_seq} then {!read_plan_ver}, which allocate nothing. *)

(** [read_kind r] reads the kind byte that starts a header. *)
val read_kind : Msgbuf.reader -> kind

(** [read_after_kind r kind] reads the rest of a header of [kind]. *)
val read_after_kind : Msgbuf.reader -> kind -> header

(** [read_seq r], after {!read_kind}, reads up to and including [seq]
    and returns it. *)
val read_seq : Msgbuf.reader -> int

(** [read_plan_ver r], after {!read_seq}, reads the rest of the header
    and returns its [plan_ver], leaving [r] at the payload. *)
val read_plan_ver : Msgbuf.reader -> int

val pp_kind : Format.formatter -> kind -> unit
val pp_header : Format.formatter -> header -> unit

(** Size in bytes of an encoded header (varint-dependent). *)
val header_size : header -> int

(** {1 Batch frames}

    The transport may coalesce several complete messages (header +
    payload each) bound for the same destination into one {e batch
    frame}, so the interconnect charges a single per-message latency
    for the whole group.  A batch frame is distinguished from a single
    message by its first byte: header kinds encode as 0-3, a batch as
    4, so [is_batch_at] decides with one byte of lookahead. *)

(** [true] iff the frame at [frame[off..off+len)] is a coalesced
    envelope. *)
val is_batch_at : bytes -> off:int -> len:int -> bool

(** [encode_batch_into w msgs] appends the batch frame of [msgs] (each
    a complete header+payload encoding, at least one) to an existing
    writer, blitting each message in place: how [Batching] builds every
    batch. *)
val encode_batch_into : Msgbuf.writer -> bytes list -> unit

(** [encode_batch msgs] is {!encode_batch_into}'s frame built by
    copying ([Bytes.to_string] and a length-prefixed string write per
    message) into a fresh writer.  No library code calls it: it is the
    reference encoder the wire tests compare {!encode_batch_into}
    against. *)
val encode_batch : bytes list -> bytes

(** [decode_batch_slice frame ~off ~len] splits the batch at
    [frame[off..off+len)] into [(off, len)] sub-message slices of
    [frame], copy-free.  [None] when the frame is not a batch or is
    truncated. *)
val decode_batch_slice : bytes -> off:int -> len:int -> (int * int) list option
