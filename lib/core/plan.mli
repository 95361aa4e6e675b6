(** Call-site specific serialization plans — the compiler's output.

    The paper's backend emits inlined marshaler code per call site
    (Figures 6 and 13).  Here "generated code" is a [step] tree that a
    runtime executor walks in a tight loop: no per-object method-table
    dispatch, no wire type information for statically known classes,
    and the cycle table and reuse are compiled in or out per the
    analyses' verdicts.

    Layout invariant: [S_obj.fields] has one step per {e flat} field
    (inherited first), matching {!Jir.Program.all_fields} order. *)

type step =
  | S_bool
  | S_int
  | S_double
  | S_string
  | S_null  (** statically always-null reference: zero bytes on the wire *)
  | S_obj of { cls : Jir.Types.class_id; fields : step array }
      (** statically known class: 1 marker byte, then the fields inline *)
  | S_double_array  (** marker, length varint, raw payload *)
  | S_int_array
  | S_obj_array of { elem : step }  (** marker, length, element steps *)
  | S_flat_array
      (** rectangular [double[][]] flattened struct-of-arrays style:
          marker, rows, cols, then one contiguous row-major
          payload — one bounds check per matrix instead of one marker +
          length + bounds check per row.  The writer proves the shape
          (no null/shared/ragged rows) at serialization time and raises
          [Type_confusion] otherwise, deoptimizing through {!widen}
          like any other broken static promise *)
  | S_dyn
      (** type not statically unique (or inlining rejected): fall back
          to the dynamic, tag-carrying serializer *)
  | S_ref of int
      (** recursive reference into {!t.defs}: a statically-known class
          whose layout refers to itself (e.g. a linked list's [next]).
          The executor recurses through the definition table — the
          paper's direct (non-dispatched, untagged) recursive
          serializer call *)

type t = {
  callsite : Jir.Types.site;
  defs : step array;  (** definitions referenced by [S_ref] *)
  args : step array;
  ret : step option;  (** [None]: return ignored — reply is a bare ack *)
  cycle_args : bool;  (** runtime cycle table needed for the arguments *)
  cycle_ret : bool;
  reuse_args : bool array;  (** per-argument reuse at the callee *)
  reuse_ret : bool;  (** return-value reuse at the caller *)
  non_escaping : bool;
      (** escape analysis proved no argument outlives the served call:
          the whole decoded argument graph may be reclaimed wholesale
          (arena reset) once the reply has been serialized *)
  version : int;
      (** encoding version negotiated on the wire: 0 is the generic
          plan, 1 the ahead-of-time compiled plan, and each
          deoptimization ({!widen}) bumps it by one *)
  polluted : bool;
      (** at least one position has been widened after a runtime value
          broke the plan's static promise *)
}

(** Version number carried by {!generic} plans (always [0]). *)
val generic_version : int

(** A maximally pessimistic plan: every value dynamic, cycle detection
    on, no reuse — what a per-class (non-call-site) system would do. *)
val generic : callsite:Jir.Types.site -> nargs:int -> has_ret:bool -> t

(** A serialization position inside a plan. *)
type position = [ `Arg of int | `Ret ]

val pp_position : Format.formatter -> position -> unit

(** [widen t pos] is [t] with [pos] demoted to [S_dyn]: the dynamic
    serializer never raises [Type_confusion], so the repaired plan is
    guaranteed to make progress.  The cycle table is re-enabled and
    reuse disabled for that side (conservative: the dynamic encoding
    carries handles), [version] is bumped by one and [polluted] set.
    {!Plan_store.widen} widens only a site's latest plan, so the
    numbers of a site's widenings form a chain.
    @raise Invalid_argument on an out-of-range argument index or
    widening [`Ret] of an ack-only plan. *)
val widen : t -> position -> t

(** Number of [step] nodes (diagnostic; the paper's inliner rejects
    oversized marshalers). *)
val size : t -> int

val step_size : step -> int

val pp_step : Format.formatter -> step -> unit
val pp : Format.formatter -> t -> unit
