(** The serializer-side cycle-detection table.

    RMI serialization must detect when an object is reached a second
    time (a cycle or shared subgraph) and emit a back-reference handle
    instead of re-serializing it.  The paper's optimization 3.2 is
    precisely about *not* building this table when the compiler proves
    the argument graph acyclic — so the table's probe count is a
    first-class statistic ([Metrics.cycle_lookups]).

    Keys are unique object identities (each runtime object carries a
    per-process unique [int] id); values are dense wire handles in
    registration order.  The table is open addressing over flat [int]
    arrays — a multiplicative hash, linear probing, growth at half
    load — so a probe neither hashes polymorphically nor allocates,
    and {!reset} clears only the slots in use.  The accounting is per
    probe, as for RMI's hash table: one cycle lookup on a hit, two (the
    lookup and the insertion) on a miss.  On the deserializer side the
    dual structure is the handle array in [Codec]. *)

type t

(** [create metrics] builds an empty table that charges its probes to
    [metrics] (pass [None] to leave probes unaccounted, e.g. tests). *)
val create : ?metrics:Rmi_stats.Metrics.t -> unit -> t

(** [find_or_add t key] returns [key]'s handle if it is registered
    (one cycle lookup); otherwise registers it under {!next_handle}
    and returns [-1] (two cycle lookups). *)
val find_or_add : t -> int -> int

(** [find_or_add_tallied t key] is {!find_or_add}, but its cycle
    lookups stay in the table's own tally until {!publish}: the
    serializers probe once per node and publish once per message. *)
val find_or_add_tallied : t -> int -> int

(** [publish t] adds the tallied cycle lookups to the table's metrics. *)
val publish : t -> unit

(** [next_handle t] returns the wire handle the next added object will
    receive (a dense counter starting at 0). *)
val next_handle : t -> int

val size : t -> int
val reset : t -> unit
