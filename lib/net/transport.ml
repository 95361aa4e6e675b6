type idle_outcome =
  | Retransmitted of int
  | Waiting
  | Gave_up of int list
  | Dead
  | Raw_transport

type peer_health = Alive | Suspect | Down

type peer_event = Peer_suspected | Peer_confirmed_down | Peer_recovered

type process_event =
  | Proc_crashed of { machine : int; durability : Fault_sim.durability }
  | Proc_restarted of {
      machine : int;
      epoch : int;
      durability : Fault_sim.durability;
    }

(* logical-traffic accounting, identical on every transport: the
   payload bytes, counted once *)
let account_send metrics len =
  Rmi_stats.Metrics.add metrics Msgs_sent 1;
  Rmi_stats.Metrics.add metrics Bytes_sent len;
  Rmi_stats.Metrics.add metrics Unbatched_msgs 1

type slice = { mutable buf : bytes; mutable off : int; mutable len : int }

let slice () = { buf = Bytes.empty; off = 0; len = 0 }

module Unbuffered (B : sig
  type t

  val send : t -> src:int -> dest:int -> bytes -> unit
end) =
struct
  let send_buffered t ~src ~dest msg =
    B.send t ~src ~dest msg;
    []

  let flush _ ~src:_ = []
end

module type S = sig
  type t

  val is_reliable : t -> bool
  val send : t -> src:int -> dest:int -> bytes -> unit
  val send_raw : t -> src:int -> dest:int -> bytes -> unit

  val send_writer :
    t -> src:int -> dest:int -> Rmi_wire.Msgbuf.writer -> payload_off:int ->
    unit

  val send_raw_writer :
    t -> src:int -> dest:int -> Rmi_wire.Msgbuf.writer -> payload_off:int ->
    unit

  val send_buffered : t -> src:int -> dest:int -> bytes -> (int * int * int) list
  val flush : t -> src:int -> (int * int * int) list
  val try_recv_into : t -> self:int -> slice -> bool
  val recv_blocking_into : t -> self:int -> slice -> unit
  val recv_deadline_into : t -> self:int -> seconds:float -> slice -> bool
  val release : t -> self:int -> bytes -> unit
  val idle : t -> self:int -> idle_outcome
  val pending_anywhere : t -> bool
  val peer_health : t -> self:int -> peer:int -> peer_health
  val on_peer_event : t -> (self:int -> peer:int -> peer_event -> unit) -> unit
end

module type BACKEND = sig
  include S

  val size : t -> int
  val metrics : t -> Rmi_stats.Metrics.t
  val pool : t -> Rmi_wire.Msgbuf.Pool.buffers
  val frames : t -> Frame_pool.t
  val is_hosted : t -> int -> bool
  val self_epoch : t -> int -> int
  val on_process_event : t -> (process_event -> unit) -> unit
  val set_faults : t -> Fault_sim.t -> unit
  val faults : t -> Fault_sim.t option

  val set_fault_hook :
    t -> (src:int -> dest:int -> bytes -> bytes list) -> unit

  val clear_fault_hook : t -> unit
  val shutdown : t -> unit
end

(* the backend's control plane, shared by every layer stacked on it *)
type backend = Backend : (module BACKEND with type t = 'b) * 'b -> backend

(* the top layer's frame path, and the backend below it *)
type t = Packed : (module S with type t = 'a) * 'a * backend -> t

let pack (type a) (m : (module BACKEND with type t = a)) (h : a) : t =
  let module B = (val m) in
  Packed ((module B), h, Backend (m, h))

let stack (type a) (Packed (_, _, b)) (m : (module S with type t = a)) (h : a)
    : t =
  Packed (m, h, b)

let is_reliable (Packed ((module M), h, _)) = M.is_reliable h
let send (Packed ((module M), h, _)) ~src ~dest msg = M.send h ~src ~dest msg

let send_raw (Packed ((module M), h, _)) ~src ~dest frame =
  M.send_raw h ~src ~dest frame

(* the gap contract lives here, at the signature level: every backend
   frames in place by back-filling headers/length prefixes before
   [payload_off], so an unreserved gap is a caller bug regardless of
   backend *)
let check_gap who w ~payload_off =
  if payload_off < Envelope.gap || payload_off > Rmi_wire.Msgbuf.length w then
    invalid_arg
      (Printf.sprintf
         "Transport.%s: payload_off %d violates the Envelope.gap contract \
          (need %d <= payload_off <= %d)"
         who payload_off Envelope.gap
         (Rmi_wire.Msgbuf.length w))

let send_writer (Packed ((module M), h, _)) ~src ~dest w ~payload_off =
  check_gap "send_writer" w ~payload_off;
  M.send_writer h ~src ~dest w ~payload_off

let send_raw_writer (Packed ((module M), h, _)) ~src ~dest w ~payload_off =
  check_gap "send_raw_writer" w ~payload_off;
  M.send_raw_writer h ~src ~dest w ~payload_off

let send_buffered (Packed ((module M), h, _)) ~src ~dest msg =
  M.send_buffered h ~src ~dest msg

let flush (Packed ((module M), h, _)) ~src = M.flush h ~src
let try_recv_into (Packed ((module M), h, _)) ~self s = M.try_recv_into h ~self s

let recv_blocking_into (Packed ((module M), h, _)) ~self s =
  M.recv_blocking_into h ~self s

let recv_deadline_into (Packed ((module M), h, _)) ~self ~seconds s =
  M.recv_deadline_into h ~self ~seconds s

(* the tuple forms, each over a fresh slice *)
let try_recv_slice net ~self =
  let s = slice () in
  if try_recv_into net ~self s then Some (s.buf, s.off, s.len) else None

let recv_blocking_slice net ~self =
  let s = slice () in
  recv_blocking_into net ~self s;
  (s.buf, s.off, s.len)

let recv_deadline_slice net ~self ~seconds =
  let s = slice () in
  if recv_deadline_into net ~self ~seconds s then Some (s.buf, s.off, s.len)
  else None

let release (Packed ((module M), h, _)) ~self frame = M.release h ~self frame
let idle (Packed ((module M), h, _)) ~self = M.idle h ~self
let pending_anywhere (Packed ((module M), h, _)) = M.pending_anywhere h

let peer_health (Packed ((module M), h, _)) ~self ~peer =
  M.peer_health h ~self ~peer

let on_peer_event (Packed ((module M), h, _)) f = M.on_peer_event h f
let size (Packed (_, _, Backend ((module B), b))) = B.size b
let metrics (Packed (_, _, Backend ((module B), b))) = B.metrics b
let pool (Packed (_, _, Backend ((module B), b))) = B.pool b
let frames (Packed (_, _, Backend ((module B), b))) = B.frames b
let is_hosted (Packed (_, _, Backend ((module B), b))) m = B.is_hosted b m
let self_epoch (Packed (_, _, Backend ((module B), b))) m = B.self_epoch b m

let on_process_event (Packed (_, _, Backend ((module B), b))) f =
  B.on_process_event b f

let set_faults (Packed (_, _, Backend ((module B), b))) sim = B.set_faults b sim
let faults (Packed (_, _, Backend ((module B), b))) = B.faults b

let set_fault_hook (Packed (_, _, Backend ((module B), b))) hook =
  B.set_fault_hook b hook

let clear_fault_hook (Packed (_, _, Backend ((module B), b))) =
  B.clear_fault_hook b

let shutdown (Packed (_, _, Backend ((module B), b))) = B.shutdown b
