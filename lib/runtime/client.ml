(* The calling side of a node: issuing calls through the site phases,
   the outstanding-call table and its futures, per-peer circuit
   breakers, deadlines, RPC retries and failover, and the GM-style await
   loop that serves interleaved requests while a reply is due. *)

open Rmi_wire
module Value = Rmi_serial.Value
module Metrics = Rmi_stats.Metrics
module Transport = Rmi_net.Transport
module Clock = Rmi_net.Clock
module Itbl = Site.Itbl

exception No_such_method of string
exception Deadlock of string
exception Rpc_timeout of string
exception Peer_down of string
exception Server_busy of string

(* per-peer circuit breaker: [opened_at] is the {!Clock.now_us} reading
   it opened at, [None] while closed *)
type breaker = { mutable consecutive : int; mutable opened_at : int option }

type t = {
  env : Site.env;
  srv : Server.t;
  mutable seq : int;
  (* every in-flight remote call, keyed on the request seq that the
     reply header echoes back *)
  outstanding : pending Itbl.t;
  (* failover routing: primary machine -> replica machine *)
  replicas : (int, int) Hashtbl.t;
  breakers : (int, breaker) Hashtbl.t;
  mutable pump : unit -> bool;
  mutable has_pump : bool;
}

and pending = {
  pc_seq : int;
  pc_site : Site.t;
  mutable pc_dest : int;  (* may be retargeted to a replica *)
  pc_primary : int;       (* the originally addressed machine *)
  mutable pc_version : Site.version;  (* the one the request carries *)
  pc_node : t;
  pc_started : int;  (* Clock.now_us readings *)
  pc_deadline : int;
  (* the request's pooled writer, kept for RPC retries until the call
     settles; [no_request] for a call that never sent one *)
  mutable pc_request : Msgbuf.writer;
  mutable pc_attempts : int;
  (* consecutive admission-control rejects, drives resend backoff *)
  mutable pc_rejects : int;
  mutable pc_state : pending_state;
}

and pending_state =
  | Pending
  | Resolved of Value.t option
  | Failed of exn

let env t = t.env
let server t = t.srv
let metrics t = Site.metrics t.env
let trace_event t event = Site.trace_event t.env event

(* ------------------------------------------------------------------ *)
(* failover policy: replicas and per-peer circuit breakers             *)
(* ------------------------------------------------------------------ *)

let set_replica t ~primary ~replica =
  if primary = replica then invalid_arg "Node.set_replica: primary = replica";
  Hashtbl.replace t.replicas primary replica

(* may this node issue a call to [dest] right now?  An open breaker
   fast-fails until the cooldown expires, then lets one probe through
   half-open (primed so the next failure re-opens immediately) *)
let breaker_allows t ~dest ~now =
  let policy = t.env.Site.cfg.Config.failover in
  match Hashtbl.find_opt t.breakers dest with
  | None | Some { opened_at = None; _ } -> true
  | Some ({ opened_at = Some opened; _ } as b) ->
      if now - opened >= Clock.us_of_seconds policy.Config.breaker_cooldown
      then begin
        b.opened_at <- None;
        b.consecutive <- policy.Config.breaker_threshold - 1;
        true
      end
      else false

let breaker_failure t dest =
  let b =
    match Hashtbl.find_opt t.breakers dest with
    | Some b -> b
    | None ->
        let b = { consecutive = 0; opened_at = None } in
        Hashtbl.replace t.breakers dest b;
        b
  in
  b.consecutive <- b.consecutive + 1;
  if
    b.consecutive >= t.env.Site.cfg.Config.failover.Config.breaker_threshold
    && b.opened_at = None
  then begin
    b.opened_at <- Some (Clock.now_us ());
    trace_event t (Trace.Breaker_open { machine = t.env.Site.nid; peer = dest })
  end

let breaker_success t dest =
  match Hashtbl.find_opt t.breakers dest with
  | None -> ()
  | Some b ->
      b.consecutive <- 0;
      b.opened_at <- None

(* ------------------------------------------------------------------ *)
(* futures and the outstanding table                                   *)
(* ------------------------------------------------------------------ *)

let is_pending p = match p.pc_state with Pending -> true | _ -> false

(* the shared "none" of [pc_request]: never written, never released *)
let no_request = Msgbuf.create_writer ~initial_capacity:0 ()

let resolve_future t (p : pending) state =
  let nid = t.env.Site.nid in
  Itbl.remove t.outstanding p.pc_seq;
  p.pc_state <- state;
  (* a settled call is never retried: its request goes back to the pool *)
  if p.pc_request != no_request then begin
    Site.release t.env p.pc_request;
    p.pc_request <- no_request
  end;
  (* any response — value or remote exception — proves the peer alive *)
  (match state with
  | Resolved _ | Failed (Site.Remote_exception _) | Failed (No_such_method _) ->
      if p.pc_dest <> nid then breaker_success t p.pc_dest
  | _ -> ());
  (match t.env.Site.trace with
  | Some tr ->
      Trace.record tr
        (Trace.Future_resolved
           { machine = nid; seq = p.pc_seq; callsite = Site.callsite p.pc_site;
             failed = (match state with Failed _ -> true | _ -> false) })
  | None -> ());
  match state with
  | Failed _ -> ()
  | _ -> (
      let elapsed_us = Clock.now_us () - p.pc_started in
      (* client-observed round trip, one histogram sample per settled
         call; both the local and any remote domain may record, hence
         the atomic buckets *)
      Metrics.record_latency_ns (metrics t) (elapsed_us * 1000);
      match t.env.Site.trace with
      | Some tr ->
          Trace.record tr
            (Trace.Call_end
               { machine = nid; callsite = Site.callsite p.pc_site;
                 elapsed_us = float_of_int elapsed_us })
      | None -> ())

let timeout t q exn =
  trace_event t
    (Trace.Timeout { machine = t.env.Site.nid; dests = [ q.pc_dest ] });
  resolve_future t q (Failed exn)

(* a reply/ack/exn-reply of [kind] landed: settle whichever future
   asked for it.  Replies can arrive in any order relative to the issue
   order — the [seq] echoed in the header is the correlation key. *)
let handle_reply t kind ~seq ~plan_ver r =
  let nid = t.env.Site.nid in
  match Itbl.find t.outstanding seq with
  | exception Not_found ->
      (* no one is waiting: a duplicate suppressed late, or a reply to
         an abandoned (timed-out) call; drop it *)
      if Site.debug_on () then
        Site.Log.debug (fun m ->
            m "machine %d: dropping unexpected reply seq=%d" nid seq)
  | p when kind = Protocol.Reject ->
      (* admission control refused the request: it was never executed,
         so re-sending cannot double-execute.  Overload is failure
         pressure — it feeds the peer's circuit breaker — but it does
         not consume the RPC retry budget: flow control is bounded by
         the call deadline alone. *)
      breaker_failure t p.pc_dest;
      if Clock.now_us () >= p.pc_deadline then
        timeout t p
          (Server_busy
             (Printf.sprintf
                "machine %d: seq %d rejected by machine %d until its \
                 deadline passed"
                nid p.pc_seq p.pc_dest))
      else begin
        (* pause so a saturated server can drain before the retry;
           without a pump the client is the only local runner, so
           sleeping the domain is all the backoff available.  The pause
           doubles per consecutive reject (capped) — a fixed interval
           turns a persistently saturated server into a reject/resend
           hot loop that amplifies the very load that caused it *)
        p.pc_rejects <- p.pc_rejects + 1;
        if not t.has_pump then
          Unix.sleepf (0.0002 *. float_of_int (1 lsl min (p.pc_rejects - 1) 6));
        Site.send_from_writer t.env ~dest:p.pc_dest p.pc_request
      end
  | p ->
      let state =
        match
          Site.unmarshal_ret t.env p.pc_site p.pc_version ~kind ~plan_ver r
        with
        | v -> Resolved v
        | exception e -> Failed e
      in
      resolve_future t p state

(* the in-flight calls [sel x] picks, collected before any is settled
   (settling removes a call from [outstanding]).  The selectors below
   are closed, so a sweep that finds nothing builds one closure. *)
let victims t sel x =
  Itbl.fold (fun _ q acc -> if sel x q then q :: acc else acc) t.outstanding []

let every () _ = true
let past_deadline now q = now >= q.pc_deadline
let routed_to dests q = List.mem q.pc_dest dests

(* one transport cycle on [q]'s request exhausted its retransmit
   budget (or the cluster went quiescent with [q] unanswered): retry,
   fail over to a replica, or give up according to the failure policy *)
let transport_failed t (q : pending) detail =
  let nid = t.env.Site.nid and policy = t.env.Site.cfg.Config.failover in
  let now = Clock.now_us () in
  breaker_failure t q.pc_dest;
  if now >= q.pc_deadline then
    timeout t q
      (Rpc_timeout
         (Printf.sprintf "machine %d: seq %d missed its deadline: %s" nid
            q.pc_seq detail))
  else if q.pc_attempts > policy.Config.max_call_retries then
    timeout t q
      (Peer_down
         (Printf.sprintf
            "machine %d: seq %d: machine %d unreachable after %d attempts: %s"
            nid q.pc_seq q.pc_dest q.pc_attempts detail))
  else begin
    q.pc_attempts <- q.pc_attempts + 1;
    (* fail over once the primary is confirmed Down, or on the final
       retry — whichever comes first — provided a replica exists *)
    (match Hashtbl.find_opt t.replicas q.pc_primary with
    | Some replica
      when q.pc_dest <> replica
           && (Transport.peer_health t.env.Site.net ~self:nid ~peer:q.pc_dest
               = Transport.Down
              || q.pc_attempts > policy.Config.max_call_retries) ->
        Metrics.add (metrics t) Failovers 1;
        trace_event t
          (Trace.Failover
             { machine = nid; seq = q.pc_seq; primary = q.pc_primary;
               replica });
        q.pc_dest <- replica
    | _ -> ());
    Metrics.add (metrics t) Call_retries 1;
    trace_event t
      (Trace.Call_retry
         { machine = nid; seq = q.pc_seq; dest = q.pc_dest;
           attempt = q.pc_attempts });
    (* same seq and epoch: the server's reply cache dedups it if the
       original was executed and only the reply was lost *)
    Site.send_from_writer t.env ~dest:q.pc_dest q.pc_request
  end

(* every outstanding call [sel x] picks — those routed at a destination
   the transport gave up on — goes through the failure policy *)
let gave_up t sel x detail =
  List.iter (fun q -> transport_failed t q detail) (victims t sel x);
  (* retried requests may be sitting in the batch buffers *)
  Site.flush t.env

(* ------------------------------------------------------------------ *)
(* the progress engine                                                 *)
(* ------------------------------------------------------------------ *)

let rec expire t = function
  | [] -> ()
  | q :: rest ->
      timeout t q
        (Rpc_timeout
           (Printf.sprintf "machine %d: seq %d missed its deadline"
              t.env.Site.nid q.pc_seq));
      expire t rest

(* Await the settlement of [p], serving interleaved requests meanwhile —
   the paper's GM-style progress while a data request is outstanding.
   In synchronous mode the pump runs the other machines directly and a
   quiescent cluster is an immediate deadlock; in parallel mode we
   block on the mailbox until the reply (or a nested request) lands.
   [dead_rounds] counts consecutive idle rounds in which nothing at all
   was in flight; it only matters without a pump, where other domains
   may simply be busy executing a handler.  The loop is top-level
   recursion, so a wait allocates no closures. *)
let rec await_loop t (p : pending) dead_rounds =
  let net = t.env.Site.net and self = t.env.Site.nid in
  match p.pc_state with
  | Resolved v -> v
  | Failed e -> raise e
  | Pending -> (
      (* anything we coalesced — including p's own request — must be
         on the wire before we idle-wait for the answer *)
      Site.flush t.env;
      match Transport.try_recv_slice net ~self with
      | Some msg ->
          Server.consume t.srv msg;
          await_loop t p dead_rounds
      | None ->
          if t.has_pump then
            if t.pump () || Transport.pending_anywhere net then
              await_loop t p dead_rounds
            else drive_transport t p dead_rounds ~quiescent:true
          else if Transport.is_reliable net then
            (* parallel mode over the reliable transport: wait in short
               slices so this machine keeps its retransmit timers
               running *)
            match Transport.recv_deadline_slice net ~self ~seconds:0.002 with
            | Some msg ->
                Server.consume t.srv msg;
                await_loop t p dead_rounds
            | None -> drive_transport t p dead_rounds ~quiescent:false
          else begin
            Server.consume t.srv (Transport.recv_blocking_slice net ~self);
            await_loop t p dead_rounds
          end)

and drive_transport t p dead_rounds ~quiescent =
  let nid = t.env.Site.nid in
  (* end-to-end deadlines fire whatever the transport is doing, so no
     future can outlive its budget *)
  expire t (victims t past_deadline (Clock.now_us ()));
  match Transport.idle t.env.Site.net ~self:nid with
  | Transport.Raw_transport ->
      if quiescent then
        List.iter
          (fun q ->
            resolve_future t q
              (Failed
                 (Deadlock
                    (Printf.sprintf
                       "machine %d: no reply for seq %d and the cluster is \
                        quiescent"
                       nid q.pc_seq))))
          (victims t every ());
      await_loop t p dead_rounds
  | Transport.Retransmitted n ->
      trace_event t (Trace.Retry { machine = nid; frames = n });
      await_loop t p 0
  | Transport.Waiting -> await_loop t p 0
  | Transport.Gave_up dests ->
      gave_up t routed_to dests
        (Printf.sprintf
           "frames to machine(s) %s exhausted their retransmit budget"
           (String.concat "," (List.map string_of_int dests)));
      await_loop t p 0
  | Transport.Dead ->
      (* nothing in flight anywhere yet calls are outstanding: their
         requests (or replies) died with a crashed machine — e.g. an
         amnesia restart that lost an acked-but-unanswered request.
         Resending is the only road to progress.  Synchronously this
         thread is the whole cluster, so an empty network can never
         produce the reply by waiting. *)
      let dead_rounds = if quiescent then dead_rounds else dead_rounds + 1 in
      if quiescent || dead_rounds > 500 then
        gave_up t every () "nothing left in flight";
      await_loop t p dead_rounds

let await (p : pending) = await_loop p.pc_node p 0

(* nonblocking settlement check: drain the mailbox (and, in synchronous
   mode, give the rest of the cluster one pump) without ever idling *)
let peek (p : pending) =
  let t = p.pc_node in
  (if is_pending p then begin
     Site.flush t.env;
     ignore (Server.drain_inbox t.srv false : bool);
     if is_pending p && t.has_pump then begin
       ignore (t.pump () : bool);
       ignore (Server.drain_inbox t.srv false : bool)
     end
   end);
  match p.pc_state with
  | Pending -> None
  | Resolved v -> Some v
  | Failed e -> raise e

(* ------------------------------------------------------------------ *)
(* calling                                                             *)
(* ------------------------------------------------------------------ *)

(* the server's phases of a same-machine call, over the request sitting
   in [w]: decode the arguments, execute, encode the reply, then the
   client's decode of it — cloning preserves RMI parameter semantics *)
let serve_local t (p : pending) ~epoch ~obj ~meth ~nargs w =
  let e = t.env and s = p.pc_site and v = p.pc_version in
  let r = Site.reader_of_writer w in
  ignore (Protocol.read_kind r : Protocol.kind);
  ignore (Protocol.read_seq r : int);
  ignore (Protocol.read_plan_ver r : int);
  let entry =
    match Server.find_handler t.srv ~obj ~meth with
    | entry -> entry
    | exception Not_found ->
        raise
          (No_such_method
             (Printf.sprintf "machine %d has no (obj %d, method %d)"
                e.Site.nid obj meth))
  in
  let ret = entry.Server.fn (Site.unmarshal_args e s v r) in
  let wr =
    Site.marshal_ret e s v ~src:e.Site.nid ~epoch ~seq:p.pc_seq ~obj ~meth
      ~nargs ret
  in
  match
    let rr = Site.reader_of_writer wr in
    let kind = Protocol.read_kind rr in
    ignore (Protocol.read_seq rr : int);
    let plan_ver = Protocol.read_plan_ver rr in
    Site.unmarshal_ret e s v ~kind ~plan_ver rr
  with
  | v ->
      Site.release e wr;
      v
  | exception ex ->
      Site.release e wr;
      raise ex

(* same machine: clone through the serializer, skip the wire; runs
   eagerly, with any exception captured for the await *)
let call_local t (p : pending) ~epoch ~obj ~meth ~nargs args =
  match
    Site.marshal_args t.env p.pc_site ~epoch ~seq:p.pc_seq ~obj ~meth args
  with
  | exception ex -> Failed ex
  | w ->
      p.pc_version <- Site.current p.pc_site;
      let state =
        match serve_local t p ~epoch ~obj ~meth ~nargs w with
        | v -> Resolved v
        | exception ex -> Failed ex
      in
      Site.release t.env w;
      state

let call_async ?deadline t ~(dest : Remote_ref.t) ~meth ~callsite ~has_ret
    args =
  let e = t.env in
  let nid = e.Site.nid in
  let started = Clock.now_us () in
  let machine = dest.Remote_ref.machine and obj = dest.Remote_ref.obj in
  (match e.Site.trace with
  | Some tr ->
      Trace.record tr
        (Trace.Call_start
           { machine = nid; dest = machine; meth; callsite;
             local = machine = nid })
  | None -> ());
  if Site.debug_on () then
    Site.Log.debug (fun m ->
        m "machine %d: call meth=%d site=%d -> machine %d" nid meth callsite
          machine);
  let nargs = Array.length args in
  let s = Site.get e callsite in
  let v = Site.encoding e s ~nargs ~has_ret in
  if Array.length (Site.plan v).Rmi_core.Plan.args <> nargs then
    invalid_arg
      (Printf.sprintf "Node.call: plan for site %d expects %d args, got %d"
         callsite
         (Array.length (Site.plan v).Rmi_core.Plan.args)
         nargs);
  t.seq <- t.seq + 1;
  let epoch = Transport.self_epoch e.Site.net nid in
  let budget =
    match deadline with
    | Some d -> d
    | None -> e.Site.cfg.Config.failover.Config.call_deadline
  in
  let p =
    {
      pc_seq = t.seq;
      pc_site = s;
      pc_dest = machine;
      pc_primary = machine;
      pc_version = v;
      pc_node = t;
      pc_started = started;
      pc_deadline = started + Clock.us_of_seconds budget;
      pc_request = no_request;
      pc_attempts = 1;
      pc_rejects = 0;
      pc_state = Pending;
    }
  in
  (match e.Site.trace with
  | Some tr ->
      Trace.record tr
        (Trace.Future_created
           { machine = nid; seq = p.pc_seq; callsite; dest = machine })
  | None -> ());
  if machine = nid then begin
    Metrics.add (metrics t) Local_rpcs 1;
    resolve_future t p (call_local t p ~epoch ~obj ~meth ~nargs args);
    p
  end
  else if not (breaker_allows t ~dest:machine ~now:started) then begin
    (* circuit open: fail fast without touching the wire, so a dead
       peer costs one exception instead of a full retransmit budget *)
    Metrics.add (metrics t) Breaker_fastfails 1;
    resolve_future t p
      (Failed
         (Peer_down
            (Printf.sprintf "machine %d: circuit open to machine %d" nid
               machine)));
    p
  end
  else begin
    Metrics.add (metrics t) Remote_rpcs 1;
    let w = Site.marshal_args e s ~epoch ~seq:p.pc_seq ~obj ~meth args in
    p.pc_version <- Site.current s;
    (* the writer itself is the retry copy: it stays with the call
       until [resolve_future] *)
    p.pc_request <- w;
    Itbl.replace t.outstanding p.pc_seq p;
    Metrics.raise_max (metrics t) Outstanding_hwm (Itbl.length t.outstanding);
    Site.send_from_writer e ~dest:machine w;
    p
  end

let call ?deadline t ~dest ~meth ~callsite ~has_ret args =
  await (call_async ?deadline t ~dest ~meth ~callsite ~has_ret args)

let set_pump t pump =
  t.pump <- pump;
  t.has_pump <- true

let create srv =
  let t =
    {
      env = Server.env srv;
      srv;
      seq = 0;
      outstanding = Itbl.create 8;
      replicas = Hashtbl.create 4;
      breakers = Hashtbl.create 4;
      pump = (fun () -> false);
      has_pump = false;
    }
  in
  Server.on_reply srv (handle_reply t);
  t
