(** Region-style backing store for deserialized graphs, and the one
    scheme that recycles decoded nodes.

    A decode context pointed at an arena draws every Value node it
    materializes from shape-keyed recycling pools (objects keyed by
    class and field count, arrays by length).  Each shape's pool is an
    array of boxed nodes ([Obj o], [Darr a], ...) handed out in order
    from a cursor; a node met for the first time is allocated once and
    parked at the cursor, box and all.  {!reset} rewinds the cursors of
    the shapes touched since the last reset, so the next decode is
    handed the same nodes again.  Steady state on a stable call site
    decodes without allocating a word or writing a pointer into the
    pools.

    The runtime keeps two arenas per call site.  The served arguments
    draw from one, reset once per dispatch, when the escape analysis
    proves the callee keeps no reference: the plan's per-argument reuse
    verdicts on a [reuse] config, its {!Rmi_core.Plan.t.non_escaping}
    verdict otherwise.  Replies draw from the other, reset per reply
    decode, at a site whose return-value reuse verdict holds.  This is
    the paper's argument and return-value reuse (Section 3.3), by shape
    rather than by position: a call site alternating between (say) two
    matrix sizes runs allocation-free once both shapes are pooled, and
    the cursor hands a parked node out at most once per reset, so a
    previous graph's sharing or cycles cannot alias two nodes of the
    next one.

    Only the accounting differs.  An arena from {!create} substitutes
    the allocator and charges its own counters ([arena_allocs],
    [arena_fallbacks], [arena_resets]); the decoder charges the paper's
    counters as on the GC heap.  An arena from {!create_reuse} charges
    nothing itself: the decoder charges a recycled node to
    [reused_objs] and a fresh one as an allocation.

    Strings are immutable and never pooled; a pool miss or an
    element-type mismatch allocates on the GC heap (counted as
    [arena_fallbacks]).

    {b Cap.}  A shape holds at most 4096 nodes; the hand-outs of one
    call beyond that come from the GC heap every time (each a
    fallback).  The cap is per shape: one call holding more than 4096
    nodes of one kind (objects, double[], int[], reference arrays)
    spread over several shapes, none of them past 4096, has all of
    them recycled by the next call. *)

type t

(** An arena that charges [arena_allocs], [arena_fallbacks] and
    [arena_resets] to [metrics]. *)
val create : metrics:Rmi_stats.Metrics.t -> t

(** A reuse arena: it charges nothing itself ({!reuses}). *)
val create_reuse : unit -> t

(** Whether the arena came from {!create_reuse}. *)
val reuses : t -> bool

(** Whether the node the last hand-out returned was a parked one (a
    hit), not a fresh one (a miss). *)
val hit : t -> bool

(** Allocators mirror {!Value.new_obj} etc.; contents of a recycled
    node are unspecified — callers must overwrite every field/element,
    which plan-driven decoding does by construction. *)

val obj : t -> cls:Jir.Types.class_id -> nfields:int -> Value.obj

val darr : t -> int -> Value.darr
val iarr : t -> int -> Value.iarr
val rarr : t -> Jir.Types.ty -> int -> Value.rarr

(** {1 Tallied, boxed allocation}

    The same allocators, but each returns the node in its recycled box
    ([obj_box] an [Obj], [darr_box] a [Darr], and so on), and the
    [arena_allocs]/[arena_fallbacks] they charge stay in the arena's
    own tally until {!publish}.  The codec allocates through these and
    publishes once per decode; the allocators above publish on every
    call. *)

val obj_box : t -> cls:Jir.Types.class_id -> nfields:int -> Value.t
val darr_box : t -> int -> Value.t
val iarr_box : t -> int -> Value.t
val rarr_box : t -> Jir.Types.ty -> int -> Value.t

(** [darrs_into t rows n] fills every slot of [rows] with a double[] of
    length [n] — a flat matrix's rows — as {!darr_box} would, and
    returns how many of them were parked nodes (hits). *)
val darrs_into : t -> Value.t array -> int -> int

(** Add the tallied counts to the arena's metrics (a reuse arena just
    drops them). *)
val publish : t -> unit

(** Pooled nodes handed out since the last {!reset}: those the reset
    will recycle. *)
val live : t -> int

(** Pooled nodes not handed out since the last {!reset}. *)
val pooled : t -> int

(** Make every live node available again: rewind the cursors of the
    shapes touched since the last reset.  Sound only when the caller
    can prove none of them is still referenced — an escape-analysis
    verdict of the plan. *)
val reset : t -> unit
