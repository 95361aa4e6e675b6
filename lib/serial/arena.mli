(** Region-style backing store for deserialized argument graphs.

    A decode context pointed at an arena draws every Value node it
    materializes from shape-keyed recycling pools (objects keyed by
    class and field count, arrays by length) and logs it as live; when
    the served method returns — and the {!Rmi_core.Plan.t.non_escaping}
    escape-analysis verdict proves no argument outlived the call —
    {!reset} reclaims the whole live set wholesale, parking every node
    for the next request.  Steady state on a stable call site decodes
    without touching the GC heap at all.

    This generalizes the paper's per-position argument-reuse cache:
    reuse recycles the previous call's graph in place and degrades when
    shapes drift between calls; the arena recycles by shape, so a
    callsite alternating between (say) two matrix sizes still runs
    allocation-free once both shapes are pooled.

    Soundness is exactly the reuse cache's argument: a node may be
    scribbled over at the next call only if the callee cannot have
    retained a reference, which is what the escape analysis proves.
    Strings are immutable and never pooled; a pool miss or an
    element-type mismatch falls back to the GC heap (counted as
    [arena_fallbacks]). *)

type t

val create : metrics:Rmi_stats.Metrics.t -> t

(** Allocators mirror {!Value.new_obj} etc.; contents of a recycled
    node are unspecified — callers must overwrite every field/element,
    which plan-driven decoding does by construction. *)

val obj : t -> cls:Jir.Types.class_id -> nfields:int -> Value.obj

val darr : t -> int -> Value.darr
val iarr : t -> int -> Value.iarr
val rarr : t -> Jir.Types.ty -> int -> Value.rarr

(** {1 Tallied allocation}

    The same allocators, but the [arena_allocs]/[arena_fallbacks] they
    charge stay in the arena's own tally until {!publish}.  The codec
    allocates through these and publishes once per decode; the
    allocators above publish on every call. *)

val obj_tallied : t -> cls:Jir.Types.class_id -> nfields:int -> Value.obj
val darr_tallied : t -> int -> Value.darr
val iarr_tallied : t -> int -> Value.iarr
val rarr_tallied : t -> Jir.Types.ty -> int -> Value.rarr

(** Add the tallied counts to the arena's metrics. *)
val publish : t -> unit

(** Nodes handed out since the last {!reset}. *)
val live : t -> int

(** Nodes currently parked in the free pools. *)
val pooled : t -> int

(** Return every live node to its shape pool.  Sound only when the
    caller can prove none of them is still referenced — the
    [non_escaping] plan bit. *)
val reset : t -> unit
