(** Call sites: one record per site on each node, and the phase
    functions a call runs through it.

    The record holds what the paper's Section 3 makes per site: the
    compiled versions of the site's plan (its generated marshalers),
    the adaptive tier's state, the recycling arenas of its served
    arguments and its replies (the paper's reuse, Figure 13) and each
    version's codec contexts.  A remote call runs

    {v
    client:  encoding |> marshal_args          ~~ request ~~>
    server:  version |> unmarshal_args |> handler |> marshal_ret
                                               <~~ reply ~~
    client:  unmarshal_ret
    v}

    and a same-machine call runs the same five phases over the request
    and reply writers instead of the wire.  A value that breaks a
    specialized plan deoptimizes inside [marshal_args] or
    [marshal_ret]: the position of the site's latest plan is widened in
    the fabric's plan store, which numbers every version of every site,
    and the write replayed with the result. *)

open Rmi_wire

(** Int-keyed tables, for sites, handlers and outstanding calls. *)
module Itbl : Hashtbl.S with type key = int

(** The runtime's log source ("rmi.runtime"). *)
module Log : Logs.LOG

(** Whether the log source lets debug messages through: hot paths build
    a message closure only then. *)
val debug_on : unit -> bool

exception Remote_exception of string

(** One compiled plan version of a site. *)
type version

(** One call site's record on one node. *)
type t

(** What every phase of one node reads. *)
type env = {
  net : Rmi_net.Transport.t;
  nid : int;
  meta : Rmi_serial.Class_meta.t;
  cfg : Config.t;
  plans : Rmi_core.Plan_store.t;  (** the fabric's plan registry *)
  sites : t Itbl.t;
  mutable trace : Trace.t option;
}

val callsite : t -> int
val plan : version -> Rmi_core.Plan.t
val metrics : env -> Rmi_stats.Metrics.t

(** Record the event when a trace is attached. *)
val trace_event : env -> Trace.event -> unit

(** {1 Message writers and sends} *)

(** A pooled writer for one message, with the envelope gap reserved. *)
val acquire : env -> Msgbuf.writer

val release : env -> Msgbuf.writer -> unit

(** The message in the writer, copied out (and charged to
    [bytes_copied]). *)
val msg_of_writer : env -> Msgbuf.writer -> bytes

(** A reader over the message in the writer, in place. *)
val reader_of_writer : Msgbuf.writer -> Msgbuf.reader

val send_msg : env -> dest:int -> bytes -> unit
val send_from_writer : env -> dest:int -> Msgbuf.writer -> unit

(** [send_snapshot e ~dest snapshot w] sends the message in [w] that
    the caller already copied out as [snapshot] (the server's reply
    cache entry); a request is resent from its writer instead. *)
val send_snapshot : env -> dest:int -> bytes -> Msgbuf.writer -> unit

(** Ship whatever this machine's batch buffers hold. *)
val flush : env -> unit

(** {1 Sites} *)

(** [get e callsite] is the node's record for [callsite], made on first
    use. *)
val get : env -> int -> t

(** Drop every site's recycling arenas. *)
val reset_caches : env -> unit

(** A crash: arenas and tier state are lost, so every site
    re-warms from the generic plan; compiled versions stay. *)
val crash : env -> unit

(** [encoding e s ~nargs ~has_ret] is the version an outgoing call at
    [s] encodes with.  Under the adaptive tier it counts the call and
    promotes a hot site; otherwise it is the site's effective plan (the
    plan store's latest, or generic), re-read only after the store's
    generation moves. *)
val encoding : env -> t -> nargs:int -> has_ret:bool -> version

(** The version the site's last call encodes with; after
    [marshal_args], the one its request carries. *)
val current : t -> version

(** [version e s ~nargs ~has_ret ver] is the version a payload tagged
    [ver] was encoded with: compiled here, or in the plan store.
    @raise Not_found when neither has it *)
val version : env -> t -> nargs:int -> has_ret:bool -> int -> version

(** {1 Phases} *)

(** The request of call [seq], encoded with [current s], replaying
    through any deoptimization. *)
val marshal_args :
  env ->
  t ->
  epoch:int ->
  seq:int ->
  obj:int ->
  meth:int ->
  Rmi_serial.Value.t array ->
  Msgbuf.writer

(** The arguments at the reader, decoded with the version; the
    positions an escape verdict licenses draw from the site's argument
    arena, reset once per dispatch. *)
val unmarshal_args :
  env -> t -> version -> Msgbuf.reader -> Rmi_serial.Value.t array

(** The [Ack] or [Reply] to the request with these header fields,
    replaying through any deoptimization of the return position. *)
val marshal_ret :
  env ->
  t ->
  version ->
  src:int ->
  epoch:int ->
  seq:int ->
  obj:int ->
  meth:int ->
  nargs:int ->
  Rmi_serial.Value.t option ->
  Msgbuf.writer

(** The value of a reply of [kind] to a request encoded with the
    version, decoded with the version the reply announces; under
    return-value reuse, from the site's return arena, reset per reply.
    @raise Remote_exception for an [Exn_reply] or an unknown version *)
val unmarshal_ret :
  env ->
  t ->
  version ->
  kind:Protocol.kind ->
  plan_ver:int ->
  Msgbuf.reader ->
  Rmi_serial.Value.t option
