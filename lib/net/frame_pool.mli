(** Recycled frame buffers, each with a count of its holders.

    A frame a transport builds (an ARQ envelope, an ack, a raw [Sim]
    message) is copied once into bytes drawn from here instead of fresh
    bytes.  Whoever keeps a reference to the frame past a call holds
    it: the ARQ until the frame's ack or give-up, a send until it hands
    its hold to a mailbox or is done with the bytes, a mailbox until the
    receiver's {!Transport.S.release}, a fault stage while it holds the
    frame back.  When the last holder lets go, the bytes go back to the pool
    and the next frame of the same length is written into them.

    Frames are kept by their exact length, so the bytes handed out are
    the frame and nothing more.  The pool keeps at most 128 buffers of
    up to 64 KiB, 8 per set of lengths; a frame that finds its set
    full, or is longer, is fresh bytes the pool does not know.  Bytes
    the pool does not know — those, injected frames, a fault stage's
    corrupted copies — are never recycled: {!hold} and {!release}
    ignore them and they fall to the GC.  No operation takes a lock or
    allocates once the pool is warm, and any domain may hold or release
    a frame another domain copied in. *)

type t

val create : unit -> t

(** [copy t ~holders src ~off ~len]: [src.(off..off+len)] copied into
    pooled bytes with [holders] holders (at least 1). *)
val copy : t -> holders:int -> bytes -> off:int -> len:int -> bytes

(** One more holder of [frame]; only a holder may add one. *)
val hold : t -> bytes -> unit

(** One holder of [frame] fewer; at none, its bytes are the pool's
    again.  Raises [Invalid_argument] when no holder is left. *)
val release : t -> bytes -> unit

(** Whether [frame]'s bytes are the pool's. *)
val mem : t -> bytes -> bool

(** The holders of every pooled frame, summed: 0 once every frame is
    let go (a test hook). *)
val held : t -> int
