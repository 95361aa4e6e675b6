(** Per-(src, dest) coalescing buffers shared by the transport
    backends.

    The bookkeeping only: which messages are queued on which link and
    when a link crosses its byte threshold.  What a flushed group
    {e becomes} on the wire (a batch envelope, a reliable seq/ack unit,
    a single TCP record) is the backend's business. *)

type t

val default_batch_bytes : int
(** The byte threshold a link auto-flushes at when a backend's
    [enable_batching] is given no [max_bytes]. *)

val create : max_bytes:int -> t
(** @raise Invalid_argument when [max_bytes < 1]. *)

val max_bytes : t -> int

val add : t -> src:int -> dest:int -> bytes -> (bytes list * int) option
(** Queue [msg] on the (src, dest) link.  [Some (msgs, bytes)] when the
    link just crossed [max_bytes]: the group (oldest first) has been
    removed and must be flushed by the caller. *)

val take : t -> src:int -> (int * bytes list * int) list
(** Remove and return every non-empty group whose source is [src], as
    [(dest, msgs, bytes)] in ascending [dest] order. *)

val drop_source : t -> src:int -> unit
(** Discard everything buffered from [src] (a crashed machine's
    unflushed sends die with it). *)

val any : t -> bool
(** Is anything buffered on any link? *)
