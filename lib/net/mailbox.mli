(** A thread-safe message queue — one per simulated machine.

    In parallel mode (machines = OCaml domains) senders and receivers
    are on different domains; in synchronous mode everything runs on
    one thread and only the non-blocking operations are used. *)

type t

val create : unit -> t

val send : t -> bytes -> unit

(** Non-blocking receive of the oldest queued message into [s] (all of
    it: [off] 0, [len] its length); false when none is queued.
    Messages wait in a {!Slice_ring}, so neither a send nor a receive
    allocates once the ring is large enough. *)
val try_recv : t -> Transport.slice -> bool

(** Blocking receive: waits on a condition variable until a message
    arrives (sends signal it), releasing the processor meanwhile. *)
val recv_blocking : t -> Transport.slice -> unit

(** Like {!recv_blocking} but gives up after [seconds], returning
    false: it spins for up to 50 µs, then polls in 50 µs sleeps.  A
    wait that follows one which gave up, with nothing taken in between,
    does not spin.  The reliable transport waits here in slices so
    blocked machines drive their retransmit timers: a server's blocking
    receive and a parallel client's await, under {!Reliable} and
    {!Batching}. *)
val recv_deadline : t -> seconds:float -> Transport.slice -> bool

(** Discard everything queued — the crash simulator's view of losing a
    machine's in-flight inbox. *)
val clear : t -> unit

val is_empty : t -> bool

(** Messages currently queued. *)
val length : t -> int
