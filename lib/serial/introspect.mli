(** Sun-RMI-style introspective serialization — the slowest baseline the
    paper mentions ("class specific serialization ... is better than
    dynamic introspection").

    Where the class-specific serializer ships a compact integer type
    id, this one ships the full class name (and, for the first
    occurrence in a stream, the field names) — mimicking Java
    serialization's class descriptors — and discovers the layout by
    looking the class up per object.  Its users are the serializer
    tests: [test/test_serial.ml] measures what per-class generation
    already buys before the paper's optimizations start (the type bytes
    it saves), and [test/test_differential.ml] round-trips and fuzzes
    it beside the other serializers. *)

type wctx
type rctx

val make_wctx : Class_meta.t -> Rmi_stats.Metrics.t -> wctx
val make_rctx : Class_meta.t -> Rmi_stats.Metrics.t -> rctx

val write : wctx -> Rmi_wire.Msgbuf.writer -> Value.t -> unit
val read : rctx -> Rmi_wire.Msgbuf.reader -> Value.t
