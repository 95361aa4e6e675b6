(* Trace stamps of the traced run, taken from outside the runtime: the
   client stamps call start / call_async return / await return, the
   benchmark's own handlers stamp entry and exit, and a pass-through
   frame hook stamps the first departure of each request and reply.
   Stamps are monotonic ns in preallocated arrays indexed by traced
   call id = call index - [base]; calls beyond [cap] are not stamped. *)

module Protocol = Rmi.Internals.Protocol
module Msgbuf = Rmi.Internals.Msgbuf
module Envelope = Rmi_net.Envelope

type t = {
  cap : int;
  mutable on : bool;
  mutable base : int;  (* call index of traced call 0 *)
  start : int array;  (* just before call_async *)
  sent : int array;  (* call_async returned *)
  entry : int array;
  exit_ : int array;
  await : int array;
  req_dep : int array;  (* first departure of the request frame *)
  rep_dep : int array;  (* first departure of the reply frame *)
  local : bool array;
  frames : int Atomic.t;  (* every physical frame the hook saw *)
}

let create cap =
  let z () = Array.make cap 0 in
  {
    cap;
    on = false;
    base = max_int;
    start = z ();
    sent = z ();
    entry = z ();
    exit_ = z ();
    await = z ();
    req_dep = z ();
    rep_dep = z ();
    local = Array.make cap false;
    frames = Atomic.make 0;
  }

(* traced id of call index [k], or -1 *)
let slot t k =
  if not t.on then -1
  else
    let i = k - t.base in
    if i >= 0 && i < t.cap then i else -1

(* first stamp wins: retransmissions and duplicates count once *)
let stamp a i = if i >= 0 && a.(i) = 0 then a.(i) <- Stats.now_ns ()

(* wrap a handler whose call index [id args] names the call it serves *)
let handler t ~id f args =
  let i = slot t (id args) in
  stamp t.entry i;
  let r = f args in
  stamp t.exit_ i;
  r

(* Node numbers calls 1, 2, ... per fresh node, so a frame's protocol
   seq is its call index + 1. *)
let on_message t ~dest frame (off, len) =
  match Protocol.read_header (Msgbuf.reader_of_bytes ~off ~len frame) with
  | exception Msgbuf.Underflow _ -> ()
  | h -> (
      let i = slot t (h.Protocol.seq - 1) in
      match h.Protocol.kind with
      | Protocol.Request when h.Protocol.src = 0 -> stamp t.req_dep i
      | (Protocol.Reply | Protocol.Ack | Protocol.Exn_reply) when dest = 0 ->
          stamp t.rep_dep i
      | _ -> ())

let on_payload t ~dest frame (off, len) =
  if Protocol.is_batch_at frame ~off ~len then
    match Protocol.decode_batch_slice frame ~off ~len with
    | Some msgs -> List.iter (on_message t ~dest frame) msgs
    | None -> ()
  else on_message t ~dest frame (off, len)

(* the frame hook: ships [frame] unchanged.  Frames of the reliable
   transport are envelopes; only their Data payloads carry messages. *)
let hook t ~enveloped ~src:_ ~dest frame =
  Atomic.incr t.frames;
  (if t.on then
     let len = Bytes.length frame in
     if not enveloped then on_payload t ~dest frame (0, len)
     else
       match Envelope.decode_slice frame ~off:0 ~len with
       | Some ({ Envelope.kind = Envelope.Data; _ }, payload) ->
           on_payload t ~dest frame payload
       | Some _ | None -> ());
  [ frame ]
