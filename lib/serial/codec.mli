(** Serialization engine.

    One module covers the paper's two serializer families:

    - {b dynamic} ([write_dyn]/[read_dyn]): the per-class generated
      serializers of KaRMI/Manta ("class" in the tables).  Every heap
      value is preceded by a compact wire type tag, every (de)serializer
      entry counts as a dynamic invocation, and the cycle handle-table
      is consulted per reference when enabled.
    - {b plan-driven} ([write_step]/[read_step]): the call-site
      specialized marshalers ("site").  Steps proven by the compiler
      are inlined — no type tags, no dispatch accounting; only
      {!Rmi_core.Plan.S_dyn} positions fall back to the dynamic path.

    Writer and reader contexts agree on whether a cycle table is in
    use; the marshaling engine derives that flag identically on both
    sides from the plan and the optimization configuration.

    A reader draws every node it decodes from its context's arena
    ({!set_arena}), or from the GC heap without one.  A node a reuse
    arena ({!Arena.create_reuse}) recycles is counted as a reused
    object; every other node is counted as an allocation with its byte
    size, feeding the paper's "new MBytes" statistic.

    A context counts in plain ints while it works and adds its counts
    to its metrics when a public entry point ({!write_dyn},
    {!read_dyn}, {!write_step}, {!read_step} or a compiled closure)
    returns or raises, so the metrics are exact between calls. *)

exception Type_confusion of string
(** An inlined plan step met a value of a different class — i.e. the
    static analysis promised a shape the runtime did not deliver. *)

type wctx
type rctx

(** [wctx ~cycle] allocates the cycle handle-table iff [cycle].
    [defs] is the plan's recursive-step definition table (needed when
    the steps contain {!Rmi_core.Plan.S_ref}). *)
val make_wctx :
  ?defs:Rmi_core.Plan.step array ->
  Class_meta.t -> Rmi_stats.Metrics.t -> cycle:bool -> wctx

(** [make_rctx ?arena] — when an arena is supplied, every Value node the
    context materializes is drawn, box and all, from the arena's
    recycling pools instead of the GC heap.  An arena from
    {!Arena.create} leaves the paper-statistic counters as on the heap,
    so published tables are untouched; a reuse arena charges its
    recycled nodes as reused objects.  The caller resets the arena
    between decodes when an escape-analysis verdict licenses it. *)
val make_rctx :
  ?defs:Rmi_core.Plan.step array ->
  ?arena:Arena.t ->
  Class_meta.t -> Rmi_stats.Metrics.t -> cycle:bool -> rctx

(** [set_arena r a] makes the context's next reads draw from [a] ([None]:
    the GC heap), keeping its registered handles: one message's
    positions may decode from different stores. *)
val set_arena : rctx -> Arena.t option -> unit

(** [reset_wctx w] clears the cycle handle-table (a no-op without one).
    Required before reusing a writer context whose previous write was
    aborted by {!Type_confusion}: the aborted write may have registered
    objects that never reached the wire, and a subsequent write would
    encode dangling handles for them.  The tiered runtime calls this
    before replaying a deoptimized call through the widened plan. *)
val reset_wctx : wctx -> unit

(** [reset_rctx r] forgets all registered handles, making a reader
    context safe to reuse for an unrelated message. *)
val reset_rctx : rctx -> unit

(** {1 Dynamic (class-specific) serializers} *)

val write_dyn : wctx -> Rmi_wire.Msgbuf.writer -> Value.t -> unit

val read_dyn : rctx -> Rmi_wire.Msgbuf.reader -> Value.t

(** {1 Plan-driven (call-site specific) serializers} *)

val write_step : wctx -> Rmi_wire.Msgbuf.writer -> Rmi_core.Plan.step -> Value.t -> unit
val read_step : rctx -> Rmi_wire.Msgbuf.reader -> Rmi_core.Plan.step -> Value.t

(** {1 Compiled plans}

    [compile_write]/[compile_read] partially evaluate a step tree into
    nested closures once — the runtime analogue of the paper's
    generated marshaler code (and of the partial-evaluation approach it
    cites): per call no step-tree interpretation remains, only direct
    calls.  Semantics are identical to {!write_step}/{!read_step}
    (checked by a differential property test): the same bytes, the same
    handle order and the same counters.

    Each recursive definition in [defs] is compiled once per call of
    these functions, into one recursive function.  An [S_ref d] inside
    definition [d]'s own [S_obj] body calls that function directly, and
    when the body's last field is [S_ref d] (a list's spine), the
    function follows it in a loop instead of recursing.  A list of any
    length therefore takes constant stack on both sides; a tree takes
    stack in proportion to the depth of its non-last self-references.
    An [S_ref] nested deeper inside its own definition, or one of a
    mutual recursion, calls through a cell set once the function
    exists.  The compiled functions keep no state of their own, so they
    are reentrant, and one pair may serve several contexts. *)

val compile_write :
  defs:Rmi_core.Plan.step array ->
  Rmi_core.Plan.step ->
  wctx -> Rmi_wire.Msgbuf.writer -> Value.t -> unit

(** The [cand] label is not read: it remains for callers that still
    pass the previous call's graph, from when reuse overwrote that graph
    in place.  Reuse now draws from a reuse arena ({!set_arena}). *)
val compile_read :
  defs:Rmi_core.Plan.step array ->
  Rmi_core.Plan.step ->
  rctx -> Rmi_wire.Msgbuf.reader -> cand:Value.t -> Value.t
