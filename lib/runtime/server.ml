(* The serving side of a node: exported handlers, request execution
   through the site phases, the reply cache, admission-control rejects
   and the serve loop.  Replies to this node's own calls arrive through
   the same receive path and go to [on_reply], which the client side
   installs. *)

open Rmi_wire
module Value = Rmi_serial.Value
module Metrics = Rmi_stats.Metrics
module Transport = Rmi_net.Transport
module Itbl = Site.Itbl

type handler = Value.t array -> Value.t option
type entry = { fn : handler; has_ret : bool }

type t = {
  env : Site.env;
  (* obj -> meth -> entry.  A published table is never mutated: [export]
     copies, edits and republishes it, so a lookup from any domain
     reads it without a lock *)
  handlers : entry Itbl.t Itbl.t Atomic.t;
  handlers_mutex : Mutex.t;  (* serializes exports from other domains *)
  (* reply cache, keyed (client, client-epoch, seq): a retried request
     is answered from here instead of re-executing the handler —
     exactly-once across crashes when the cache is durable *)
  reply_cache : (int * int * int, bytes) Hashtbl.t;
  reply_order : (int * int * int) Queue.t;  (* FIFO eviction order *)
  mutable shutdown : bool;
  mutable on_reply :
    Protocol.kind -> seq:int -> plan_ver:int -> Msgbuf.reader -> unit;
}

let create env =
  {
    env;
    handlers = Atomic.make (Itbl.create 1);
    handlers_mutex = Mutex.create ();
    reply_cache = Hashtbl.create 64;
    reply_order = Queue.create ();
    shutdown = false;
    on_reply = (fun _ ~seq:_ ~plan_ver:_ _ -> ());
  }

let env t = t.env
let on_reply t f = t.on_reply <- f

let export t ~obj ~meth ~has_ret fn =
  Mutex.protect t.handlers_mutex (fun () ->
      let table = Itbl.copy (Atomic.get t.handlers) in
      let meths =
        match Itbl.find_opt table obj with
        | Some meths -> Itbl.copy meths
        | None -> Itbl.create 8
      in
      Itbl.replace meths meth { fn; has_ret };
      Itbl.replace table obj meths;
      Atomic.set t.handlers table)

(* @raise Not_found when nothing is exported as (obj, meth) *)
let find_handler t ~obj ~meth =
  Itbl.find (Itbl.find (Atomic.get t.handlers) obj) meth

(* the reply cache models stable storage: only amnesia loses it *)
let crash t ~amnesia =
  if amnesia then begin
    Hashtbl.reset t.reply_cache;
    Queue.clear t.reply_order
  end

(* ------------------------------------------------------------------ *)
(* control requests                                                    *)
(* ------------------------------------------------------------------ *)

(* A control request (the fabric's shutdown) is the one request with
   seq 0, since a node numbers its calls from 1.  It runs no handler,
   and admission control never refuses it. *)
let control_seq = 0
let shutdown_method = -99

type admission = Client_request | Control | Other

(* how admission control treats the message at [r]: it applies to a
   client request, a Request whose whole header parses and whose seq is
   not the control seq.  Reading it builds no header record. *)
let admission r =
  match
    match Protocol.read_kind r with
    | Protocol.Request ->
        let seq = Protocol.read_seq r in
        ignore (Protocol.read_plan_ver r : int);
        if seq = control_seq then Control else Client_request
    | Protocol.Reply | Protocol.Ack | Protocol.Exn_reply | Protocol.Reject ->
        Other
  with
  | a -> a
  | exception Msgbuf.Underflow _ -> Other

(* ------------------------------------------------------------------ *)
(* serving                                                             *)
(* ------------------------------------------------------------------ *)

(* remember [reply] for this request so an RPC-level retry is answered
   without re-executing the handler; bounded FIFO so paper-scale
   benchmark runs cannot grow without limit *)
let cache_reply t key reply =
  let cap = t.env.Site.cfg.Config.failover.Config.reply_cache_cap in
  if cap > 0 then begin
    if not (Hashtbl.mem t.reply_cache key) then begin
      Queue.push key t.reply_order;
      if Queue.length t.reply_order > cap then
        Hashtbl.remove t.reply_cache (Queue.pop t.reply_order)
    end;
    Hashtbl.replace t.reply_cache key reply
  end

(* an answer of [kind] to [hdr]'s request, written from its fields *)
let write_answer w (hdr : Protocol.header) ~kind =
  Protocol.write_fields w ~kind ~src:hdr.src ~epoch:hdr.epoch ~seq:hdr.seq
    ~target_obj:hdr.target_obj ~method_id:hdr.method_id ~callsite:hdr.callsite
    ~nargs:hdr.nargs ~plan_ver:hdr.plan_ver

(* an [Exn_reply] to [hdr]'s request carrying [msg], in a fresh
   message writer *)
let exn_reply t hdr msg =
  let w = Site.acquire t.env in
  write_answer w hdr ~kind:Protocol.Exn_reply;
  Msgbuf.write_string w msg;
  w

(* the reply to [hdr]'s request, executed by [entry] through the site
   phases: the version the arguments were encoded with, their decode,
   the handler, the reply's encode *)
let execute_request t (hdr : Protocol.header) entry r =
  let e = t.env in
  let s = Site.get e hdr.callsite in
  match
    Site.version e s ~nargs:hdr.nargs ~has_ret:entry.has_ret hdr.plan_ver
  with
  | exception Not_found ->
      exn_reply t hdr
        (Printf.sprintf "machine %d: unknown plan version %d for site %d"
           e.Site.nid hdr.plan_ver hdr.callsite)
  | v -> (
      try
        let ret = entry.fn (Site.unmarshal_args e s v r) in
        Site.marshal_ret e s v ~src:hdr.src ~epoch:hdr.epoch ~seq:hdr.seq
          ~obj:hdr.target_obj ~meth:hdr.method_id ~nargs:hdr.nargs ret
      with
      | Rmi_serial.Codec.Type_confusion msg
      | Failure msg
      | Site.Remote_exception msg ->
          exn_reply t hdr msg
      | Msgbuf.Underflow msg ->
          (* corrupt or truncated request payload: report it cleanly
             instead of taking the serving machine down *)
          exn_reply t hdr ("malformed request: " ^ msg))

let serve_request t (hdr : Protocol.header) r =
  let e = t.env in
  if hdr.seq = control_seq then t.shutdown <- true
  else begin
    (* the reply cache only matters where requests can be retried — the
       reliable transport; the raw paper-table path skips it entirely *)
    let cache_key =
      if Transport.is_reliable e.Site.net then
        Some (hdr.src, hdr.epoch, hdr.seq)
      else None
    in
    let cached =
      match cache_key with
      | None -> None
      | Some key -> Hashtbl.find_opt t.reply_cache key
    in
    match cached with
    | Some reply ->
        (* an RPC-level retry of a request this node already executed
           (its reply was lost, or a failover raced a slow primary):
           replay the stored reply, exactly-once preserved *)
        Metrics.add (Site.metrics e) Reply_cache_hits 1;
        Site.send_msg e ~dest:hdr.src reply
    | None -> (
        match find_handler t ~obj:hdr.target_obj ~meth:hdr.method_id with
        | exception Not_found ->
            let w =
              exn_reply t hdr
                (Printf.sprintf "machine %d has no (obj %d, method %d)"
                   e.Site.nid hdr.target_obj hdr.method_id)
            in
            Site.send_from_writer e ~dest:hdr.src w;
            Site.release e w
        | entry ->
            (match e.Site.trace with
            | Some tr ->
                Trace.record tr
                  (Trace.Served
                     { machine = e.Site.nid; src = hdr.src;
                       meth = hdr.method_id; callsite = hdr.callsite })
            | None -> ());
            let reply = execute_request t hdr entry r in
            (match cache_key with
            | Some key ->
                (* snapshotted and stored before the reply leaves:
                   execution and cache entry are atomic with respect to
                   a crash at frame granularity *)
                let snapshot = Site.msg_of_writer e reply in
                cache_reply t key snapshot;
                Site.send_snapshot e ~dest:hdr.src snapshot reply
            | None -> Site.send_from_writer e ~dest:hdr.src reply);
            Site.release e reply)
  end

(* the message at [r]: a request is served, anything else goes to
   [on_reply].  Only a request's header is built as a record; a reply's
   kind, seq and plan version are read as plain ints.  A message whose
   header cannot be parsed has no reply address: it is dropped, and a
   synchronous caller sees quiescence (Deadlock), a parallel one its
   own timeout. *)
let consume_reader t r =
  match Protocol.read_kind r with
  | exception Msgbuf.Underflow _ -> ()
  | Protocol.Request -> (
      match Protocol.read_after_kind r Protocol.Request with
      | exception Msgbuf.Underflow _ -> ()
      | hdr -> serve_request t hdr r)
  | (Protocol.Reply | Protocol.Ack | Protocol.Exn_reply | Protocol.Reject) as
    kind -> (
      match Protocol.read_seq r with
      | exception Msgbuf.Underflow _ -> ()
      | seq -> (
          match Protocol.read_plan_ver r with
          | exception Msgbuf.Underflow _ -> ()
          | plan_ver -> t.on_reply kind ~seq ~plan_ver r))

(* [msg] is a slice of the received frame — an envelope payload or
   batch sub-message is read where it landed, never copied out first;
   readers over it come from the cluster pool.  Nothing decoded from it
   refers to its bytes, so the slice is released to the transport once
   the message is consumed, however that ends. *)
let consume t (buf, off, len) =
  let net = t.env.Site.net in
  let pool = Transport.pool net in
  let r = Msgbuf.Pool.acquire_reader pool buf ~off ~len in
  match consume_reader t r with
  | () ->
      Msgbuf.Pool.release_reader pool r;
      Transport.release net ~self:t.env.Site.nid buf
  | exception ex ->
      let bt = Printexc.get_raw_backtrace () in
      Msgbuf.Pool.release_reader pool r;
      Transport.release net ~self:t.env.Site.nid buf;
      Printexc.raise_with_backtrace ex bt

let rec drain_inbox t served =
  match Transport.try_recv_slice t.env.Site.net ~self:t.env.Site.nid with
  | None -> served
  | Some msg ->
      consume t msg;
      drain_inbox t true

let serve_pending t =
  let served = drain_inbox t false in
  (* replies produced above may be sitting in this machine's batch
     buffers: ship them so the callers can make progress *)
  Site.flush t.env;
  served

let serve_slice t msg =
  consume t msg;
  Site.flush t.env

(* admission control refused [hdr]'s request: answer with a [Reject]
   frame echoing the sequence number so the client's flow control can
   re-send.  Called from the pool's intake before the request payload
   is ever decoded. *)
let send_reject t (hdr : Protocol.header) =
  let e = t.env in
  Metrics.add (Site.metrics e) Queue_rejects 1;
  let w = Site.acquire e in
  write_answer w hdr ~kind:Protocol.Reject;
  Site.send_from_writer e ~dest:hdr.src w;
  Site.release e w;
  Site.flush e

(* block for a frame, execute it, flush, until the shutdown request
   arrives.  Every frame but that one counts as a dispatch, as in the
   pool's polling round, published when the loop ends. *)
let serve_loop t =
  let e = t.env in
  let dispatches = ref 0 in
  t.shutdown <- false;
  while not t.shutdown do
    serve_slice t (Transport.recv_blocking_slice e.Site.net ~self:e.Site.nid);
    if not t.shutdown then incr dispatches
  done;
  Metrics.add (Site.metrics e) Dispatches !dispatches

let send_shutdown t ~dest =
  let e = t.env in
  let w = Site.acquire e in
  Protocol.write_fields w ~kind:Protocol.Request ~src:e.Site.nid
    ~epoch:(Transport.self_epoch e.Site.net e.Site.nid)
    ~seq:control_seq ~target_obj:0 ~method_id:shutdown_method ~callsite:(-1)
    ~nargs:0 ~plan_ver:0;
  (* through the batch buffer so it cannot overtake coalesced traffic *)
  Site.send_from_writer e ~dest w;
  Site.release e w;
  Site.flush e
