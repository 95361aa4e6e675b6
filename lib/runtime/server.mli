(** The serving side of one node: exported handlers, request execution
    through the {!Site} phases, the reply cache, admission-control
    rejects and the serve loop.  Replies to the node's own calls come
    in on the same receive path and go to the receiver {!Client.create}
    installs with [on_reply]. *)

open Rmi_wire

type handler = Rmi_serial.Value.t array -> Rmi_serial.Value.t option
type entry = { fn : handler; has_ret : bool }

type t

val create : Site.env -> t
val env : t -> Site.env

(** [on_reply t f] makes [f kind ~seq ~plan_ver r] the receiver of every
    reply, ack, exception reply and reject that reaches [t]'s node. *)
val on_reply :
  t -> (Protocol.kind -> seq:int -> plan_ver:int -> Msgbuf.reader -> unit) ->
  unit

(** Safe from any domain: an export republishes a copied table, so a
    lookup takes no lock. *)
val export : t -> obj:int -> meth:int -> has_ret:bool -> handler -> unit

(** @raise Not_found when nothing is exported as [(obj, meth)] *)
val find_handler : t -> obj:int -> meth:int -> entry

(** A crash: [~amnesia:true] loses the reply cache, a durable crash
    keeps it. *)
val crash : t -> amnesia:bool -> unit

(** The control-request rule.  A control request (the fabric's
    shutdown) is the one request with seq 0, since a node numbers its
    calls from 1: it runs no handler, and admission control never
    refuses it.  [admission r] reads the header at [r] (no record):
    [Client_request], to which admission control applies, is a request
    whose whole header parses and whose seq is not 0; [Control] is the
    control request; [Other] is anything else, a malformed header
    included. *)
type admission = Client_request | Control | Other

val admission : Msgbuf.reader -> admission

(** [consume t (buf, off, len)] serves a request, or hands anything
    else to [on_reply]; a message whose header does not parse is
    dropped.  The slice is then released to the transport
    ({!Rmi_net.Transport.release}), also when consuming it raised. *)
val consume : t -> bytes * int * int -> unit

(** Consume everything in the inbox; [served] or'ed with whether
    anything was. *)
val drain_inbox : t -> bool -> bool

val serve_pending : t -> bool
val serve_slice : t -> bytes * int * int -> unit
val send_reject : t -> Protocol.header -> unit

(** Block for a frame, execute it and flush, until the shutdown request
    arrives; every other frame counts as one of [dispatches], added
    when the loop ends. *)
val serve_loop : t -> unit

val send_shutdown : t -> dest:int -> unit
