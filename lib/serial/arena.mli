(** Region-style backing store for deserialized argument graphs.

    A decode context pointed at an arena draws every Value node it
    materializes from shape-keyed recycling pools (objects keyed by
    class and field count, arrays by length).  Each shape's pool is an
    array of boxed nodes ([Obj o], [Darr a], ...) handed out in order
    from a cursor; a node met for the first time is allocated once and
    parked at the cursor, box and all.  When the served method returns
    — and the {!Rmi_core.Plan.t.non_escaping} escape-analysis verdict
    proves no argument outlived the call — {!reset} rewinds the cursors
    of the shapes the call touched, so the next request is handed the
    same nodes again.  Steady state on a stable call site decodes
    without allocating a word or writing a pointer into the pools.

    This generalizes the paper's per-position argument-reuse cache:
    reuse recycles the previous call's graph in place and degrades when
    shapes drift between calls; the arena recycles by shape, so a
    callsite alternating between (say) two matrix sizes still runs
    allocation-free once both shapes are pooled.

    Soundness is exactly the reuse cache's argument: a node may be
    scribbled over at the next call only if the callee cannot have
    retained a reference, which is what the escape analysis proves.
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

val create : metrics:Rmi_stats.Metrics.t -> t

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

(** Add the tallied counts to the arena's metrics. *)
val publish : t -> unit

(** Pooled nodes handed out since the last {!reset}: those the reset
    will recycle. *)
val live : t -> int

(** Pooled nodes not handed out since the last {!reset}. *)
val pooled : t -> int

(** Make every live node available again: rewind the cursors of the
    shapes touched since the last reset.  Sound only when the caller
    can prove none of them is still referenced — the [non_escaping]
    plan bit. *)
val reset : t -> unit
