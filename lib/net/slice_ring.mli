(** A FIFO of received slices — [(buf, off, len)] triples held in
    three parallel arrays used as a growable ring — so queueing a slice
    adds no cell and taking one builds no tuple or option.  Not
    synchronized: each owner guards its rings with its own lock
    ({!Sock}'s endpoint inboxes, {!Batching}'s split members, the
    parallel runtime's per-node task queues). *)

type t

val create : unit -> t
val length : t -> int
val is_empty : t -> bool

(** [push t buf off len] queues [buf.(off..off+len)] last. *)
val push : t -> bytes -> int -> int -> unit

(** [pop_into t s] moves the oldest slice into [s]: false, leaving [s]
    alone, when [t] is empty.  The slot no longer pins the bytes. *)
val pop_into : t -> Transport.slice -> bool

(** Empty [t], returning the buffers of the slices it held, oldest
    first (a crash drops them and releases each one). *)
val take_all : t -> bytes list
