(** The reply cache of a reliable server: the reply last sent to each
    request, keyed by (client, client epoch, seq), so an RPC-level retry
    is answered without re-executing the handler.  It holds at most
    [cap] replies and evicts the oldest entry first (FIFO by first
    insertion; caching a key again replaces its reply and keeps its
    place).  The entries sit in a ring over flat arrays, indexed by an
    open-addressing int table, so caching and looking up a reply box
    nothing.  The ring starts at 16 entries on the first {!add} and
    doubles up to [cap]. *)

type t

(** An empty cache of capacity [cap]; one of capacity 0 or less caches
    nothing. *)
val create : cap:int -> t

(** The entry holding [(src, epoch, seq)]'s reply, or -1. *)
val find : t -> src:int -> epoch:int -> seq:int -> int

(** The reply in entry [e] (from {!find}). *)
val reply : t -> int -> bytes

(** [add t ~src ~epoch ~seq reply] caches [reply] for the key, evicting
    the oldest entry when [cap] are held. *)
val add : t -> src:int -> epoch:int -> seq:int -> bytes -> unit

(** Forget every entry: an amnesia crash. *)
val clear : t -> unit

val length : t -> int
