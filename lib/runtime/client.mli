(** The calling side of one node: calls issued through the {!Site}
    phases, the outstanding-call table and its futures, per-peer
    circuit breakers, deadlines, RPC retries and failover, and the
    await loop that serves interleaved requests while a reply is due.
    {!Node} documents the behaviour. *)

exception No_such_method of string
exception Deadlock of string
exception Rpc_timeout of string
exception Peer_down of string
exception Server_busy of string

type t
type pending

val env : t -> Site.env
val server : t -> Server.t

(** [create srv] is the calling side over [srv]'s node, installed as
    the receiver of [srv]'s replies. *)
val create : Server.t -> t

val set_pump : t -> (unit -> bool) -> unit
val set_replica : t -> primary:int -> replica:int -> unit

val call_async :
  ?deadline:float ->
  t ->
  dest:Remote_ref.t ->
  meth:int ->
  callsite:int ->
  has_ret:bool ->
  Rmi_serial.Value.t array ->
  pending

val call :
  ?deadline:float ->
  t ->
  dest:Remote_ref.t ->
  meth:int ->
  callsite:int ->
  has_ret:bool ->
  Rmi_serial.Value.t array ->
  Rmi_serial.Value.t option

val await : pending -> Rmi_serial.Value.t option
val peek : pending -> Rmi_serial.Value.t option option
