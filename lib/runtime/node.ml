open Rmi_wire
module Value = Rmi_serial.Value
module Codec = Rmi_serial.Codec
module Plan = Rmi_core.Plan
module Metrics = Rmi_stats.Metrics

type handler = Value.t array -> Value.t option

(* library log source; silent unless the application enables it *)
let log_src = Logs.Src.create "rmi.runtime" ~doc:"RMI runtime events"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* a [Log.debug] message closure allocates whether or not it prints:
   hot paths build it only when the source's level lets it through *)
let debug_on () =
  match Logs.Src.level log_src with Some Logs.Debug -> true | _ -> false

(* int-keyed tables hash and bucket an int exactly as the polymorphic
   [Hashtbl] does, so a fold visits entries in the same order; they
   compare keys without the polymorphic compare and, unlike tuple
   keys, build nothing per lookup *)
module Itbl = Hashtbl.Make (Int)

exception Remote_exception of string
exception No_such_method of string
exception Deadlock of string
exception Rpc_timeout of string
exception Peer_down of string
exception Server_busy of string

let shutdown_method = -99

type export_entry = { fn : handler; has_ret : bool }

(* a plan partially evaluated into closures via Codec.compile_write and
   Codec.compile_read: the runtime analogue of the paper's generated
   marshaler code *)
type compiled_plan = {
  cp_plan : Plan.t;
  cp_write_args : (Codec.wctx -> Msgbuf.writer -> Value.t -> unit) array;
  cp_read_args : (Codec.rctx -> Msgbuf.reader -> cand:Value.t -> Value.t) array;
  cp_write_ret : (Codec.wctx -> Msgbuf.writer -> Value.t -> unit) option;
  cp_read_ret : (Codec.rctx -> Msgbuf.reader -> cand:Value.t -> Value.t) option;
  (* codec contexts cached per plan (zero-copy mode): one wctx/rctx
     pair keyed by the effective cycle flag, reset before each use, so
     a hot call site stops allocating contexts and handle tables on
     every RMI.  Safe because a node's marshal/unmarshal brackets run
     to completion on its own thread before any nested use. *)
  mutable cp_wctx : (bool * Codec.wctx) option;
  mutable cp_rctx : (bool * Codec.rctx) option;
  (* serve-side argument decoding only (PR 10): an arena-backed reader
     context used when [Config.arena] is on and the plan's
     [non_escaping] escape verdict licenses wholesale reclaim.  Kept
     separate from [cp_rctx] because return values decoded on the
     client side escape to the application and must stay on the GC
     heap. *)
  mutable cp_arena : Rmi_serial.Arena.t option;
  mutable cp_arctx : (bool * Codec.rctx) option;
}

(* per-peer circuit breaker: [opened_at] is the {!Rmi_net.Clock.now_us}
   reading it opened at, [None] while closed *)
type breaker = { mutable consecutive : int; mutable opened_at : int option }

(* adaptive-tier state of one call site on this node: how often it was
   invoked, whether it crossed the hot threshold, and the compiled plan
   it currently encodes with (generic until promoted, then specialized,
   then a widened version after each deoptimization) *)
type site_tier = {
  mutable st_calls : int;
  mutable st_promoted : bool;
  mutable st_cp : compiled_plan;
}

type t = {
  net : Rmi_net.Transport.t;
  nid : int;
  meta : Rmi_serial.Class_meta.t;
  cfg : Config.t;
  plans : (int, Plan.t) Hashtbl.t;
  plan_store : Rmi_core.Plan_store.t option;
  (* obj -> meth -> entry.  A published table is never mutated: [export]
     copies, edits and republishes it, so a lookup from any domain
     reads it without a lock *)
  handlers : export_entry Itbl.t Itbl.t Atomic.t;
  handlers_mutex : Mutex.t;  (* serializes exports from other domains *)
  mutable seq : int;
  (* every in-flight asynchronous call, keyed on the request seq that
     the reply header echoes back *)
  outstanding : pending Itbl.t;
  (* reuse candidates per call site; [Value.Null] marks an empty slot *)
  arg_caches : Value.t array Itbl.t;
  ret_caches : Value.t Itbl.t;
  (* callsite -> plan version -> compiled plan: a node may have to
     decode several encoding generations of one site concurrently *)
  compiled_plans : compiled_plan Itbl.t Itbl.t;
  tiers : (int, site_tier) Hashtbl.t;
  (* server-side reply cache, keyed (client, client-epoch, seq): a
     retried request is answered from here instead of re-executing the
     handler — exactly-once across crashes when the cache is durable *)
  reply_cache : (int * int * int, bytes) Hashtbl.t;
  reply_order : (int * int * int) Queue.t;  (* FIFO eviction order *)
  (* failover routing: primary machine -> replica machine *)
  replicas : (int, int) Hashtbl.t;
  breakers : (int, breaker) Hashtbl.t;
  mutable pump : unit -> bool;
  mutable has_pump : bool;
  mutable shutdown : bool;
  mutable trace : Trace.t option;
}

and pending = {
  pc_seq : int;
  pc_callsite : int;
  mutable pc_dest : int;  (* may be retargeted to a replica *)
  pc_primary : int;       (* the originally addressed machine *)
  mutable pc_cp : compiled_plan;  (* swapped when arg deopt widens the plan *)
  pc_node : t;
  pc_started : int;  (* Clock.now_us readings *)
  pc_deadline : int;
  mutable pc_request : bytes;
  (* the encoded request, kept for RPC retries *)
  mutable pc_attempts : int;
  (* consecutive admission-control rejects, drives resend backoff *)
  mutable pc_rejects : int;
  mutable pc_state : pending_state;
}

and pending_state =
  | Pending
  | Resolved of Value.t option
  | Failed of exn

let reset_caches t =
  Itbl.reset t.arg_caches;
  Itbl.reset t.ret_caches

(* for the rare events; a hot path matches on [t.trace] itself so that
   without a trace the event is never built *)
let trace_event t event =
  match t.trace with Some tr -> Trace.record tr event | None -> ()

let create ?plan_store net ~id ~meta ~config ~plans =
  let t =
    {
      net;
      nid = id;
      meta;
      cfg = config;
      plans;
      plan_store;
      handlers = Atomic.make (Itbl.create 1);
      handlers_mutex = Mutex.create ();
      seq = 0;
      outstanding = Itbl.create 8;
      arg_caches = Itbl.create 16;
      ret_caches = Itbl.create 16;
      compiled_plans = Itbl.create 16;
      tiers = Hashtbl.create 16;
      reply_cache = Hashtbl.create 64;
      reply_order = Queue.create ();
      replicas = Hashtbl.create 4;
      breakers = Hashtbl.create 4;
      pump = (fun () -> false);
      has_pump = false;
      shutdown = false;
      trace = None;
    }
  in
  (* crash semantics: process memory (reuse caches) always dies with the
     node; the reply cache survives only the Durable variant, which
     models a cache on stable storage *)
  Rmi_net.Transport.on_process_event net (function
    | Rmi_net.Transport.Proc_crashed { machine; durability }
      when machine = t.nid ->
        trace_event t
          (Trace.Crash
             { machine; amnesia = durability = Rmi_net.Fault_sim.Amnesia });
        reset_caches t;
        (* tier state is process memory: a restarted node starts every
           site back on the generic plan and re-warms *)
        Hashtbl.reset t.tiers;
        if durability = Rmi_net.Fault_sim.Amnesia then begin
          Hashtbl.reset t.reply_cache;
          Queue.clear t.reply_order
        end
    | Rmi_net.Transport.Proc_restarted { machine; epoch; _ }
      when machine = t.nid ->
        trace_event t (Trace.Restart { machine; epoch })
    | _ -> ());
  Rmi_net.Transport.on_peer_event net (fun ~self ~peer ev ->
      if self = t.nid then
        match ev with
        | Rmi_net.Transport.Peer_suspected ->
            trace_event t (Trace.Suspect { machine = self; peer })
        | Rmi_net.Transport.Peer_confirmed_down ->
            trace_event t (Trace.Peer_down { machine = self; peer })
        | Rmi_net.Transport.Peer_recovered -> ());
  t

let id t = t.nid
let config t = t.cfg
let set_pump t pump =
  t.pump <- pump;
  t.has_pump <- true

let set_trace t trace = t.trace <- Some trace

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

let metrics t = Rmi_net.Transport.metrics t.net

(* ------------------------------------------------------------------ *)
(* zero-copy plumbing (PR 5)                                           *)
(* ------------------------------------------------------------------ *)

let zc t = Rmi_net.Transport.zero_copy t.net
let node_pool t = Rmi_net.Transport.pool t.net
let gap = Rmi_net.Envelope.gap
let charge t n = Metrics.add_bytes_copied (metrics t) n

(* a writer positioned for the framing mode: pooled with the envelope
   gap reserved under zero-copy (so the reliable transport can
   back-fill its header in place), a fresh throwaway one otherwise *)
let acquire_msg_writer ?(initial_capacity = 512) t =
  if zc t then begin
    let w = Msgbuf.Pool.acquire_writer (node_pool t) in
    ignore (Msgbuf.reserve w gap : int);
    w
  end
  else Msgbuf.create_writer ~initial_capacity ()

let release_msg_writer t w =
  if zc t then Msgbuf.Pool.release_writer (node_pool t) w

(* the logical message sitting in [w] (after the gap in zc mode),
   snapshotted; every such materialization is a physical payload copy
   and is charged to [bytes_copied] in both framing modes *)
let msg_of_writer t w =
  if zc t then begin
    let len = Msgbuf.length w - gap in
    let msg = Msgbuf.sub w ~off:gap ~len in
    charge t len;
    msg
  end
  else begin
    let msg = Msgbuf.contents w in
    charge t (Bytes.length msg);
    msg
  end

let reader_of_msg_writer t w =
  Msgbuf.reader_of_writer ~off:(if zc t then gap else 0) w

(* ------------------------------------------------------------------ *)
(* plan selection and effective optimization flags                     *)
(* ------------------------------------------------------------------ *)

let effective_plan t ~callsite ~nargs ~has_ret =
  match t.cfg.Config.serializer with
  | Config.Class_specific -> Plan.generic ~callsite ~nargs ~has_ret
  | Config.Site_specific -> (
      match Hashtbl.find t.plans callsite with
      | p -> p
      | exception Not_found -> Plan.generic ~callsite ~nargs ~has_ret)

let site_mode t = t.cfg.Config.serializer = Config.Site_specific

let compile_plan (plan : Plan.t) =
  let defs = plan.Plan.defs in
  {
    cp_plan = plan;
    cp_write_args = Array.map (Codec.compile_write ~defs) plan.Plan.args;
    cp_read_args = Array.map (Codec.compile_read ~defs) plan.Plan.args;
    cp_write_ret = Option.map (Codec.compile_write ~defs) plan.Plan.ret;
    cp_read_ret = Option.map (Codec.compile_read ~defs) plan.Plan.ret;
    cp_wctx = None;
    cp_rctx = None;
    cp_arena = None;
    cp_arctx = None;
  }

(* the compiled plan for (callsite, version).
   @raise Not_found when none is cached *)
let find_compiled t ~callsite ~version =
  Itbl.find (Itbl.find t.compiled_plans callsite) version

let add_compiled t ~callsite ~version cp =
  let versions =
    match Itbl.find t.compiled_plans callsite with
    | versions -> versions
    | exception Not_found ->
        let versions = Itbl.create 2 in
        Itbl.replace t.compiled_plans callsite versions;
        versions
  in
  Itbl.replace versions version cp

(* compiled once per (node, call site, plan version); the config is
   fixed per node so the effective plan per version is stable.  The
   [nargs] recheck matters for version 0: class-generic traffic shares
   callsite -1 across methods of different arity. *)
let compiled_for t ~callsite ~nargs ~has_ret =
  let plan = effective_plan t ~callsite ~nargs ~has_ret in
  let version = plan.Plan.version in
  match find_compiled t ~callsite ~version with
  | cp when Array.length cp.cp_plan.Plan.args = nargs -> cp
  | _ | (exception Not_found) ->
      (if site_mode t && not (Hashtbl.mem t.plans callsite) then
         Log.warn (fun m ->
             m
               "machine %d: no compiler plan for call site %d; falling back \
                to the generic tag-carrying plan"
               t.nid callsite));
      let cp = compile_plan plan in
      add_compiled t ~callsite ~version cp;
      cp

(* compile [plan] and remember it under its (callsite, version) key *)
let intern_plan t (plan : Plan.t) =
  let callsite = plan.Plan.callsite and version = plan.Plan.version in
  match find_compiled t ~callsite ~version with
  | cp -> cp
  | exception Not_found ->
      let cp = compile_plan plan in
      add_compiled t ~callsite ~version cp;
      cp

let compiled_generic t ~callsite ~nargs ~has_ret =
  let version = Plan.generic_version in
  match find_compiled t ~callsite ~version with
  | cp when Array.length cp.cp_plan.Plan.args = nargs -> cp
  | _ | (exception Not_found) ->
      let cp = compile_plan (Plan.generic ~callsite ~nargs ~has_ret) in
      add_compiled t ~callsite ~version cp;
      cp

let adaptive t =
  site_mode t && t.cfg.Config.tier = Config.Adaptive

(* resolve the plan a payload tagged [plan_ver] was encoded with:
   compiled cache, then the shared plan table, then the plan store's
   per-version history.  @raise Not_found when none of them has it *)
let resolve_version t ~callsite ~nargs ~has_ret ver =
  if ver = Plan.generic_version then
    (* 0 usually means "generic encoding", but legacy hand-built plans
       (and the class-mode pseudo-plan) carry version 0 with a
       plan-specific encoding; the effective plan for the site
       disambiguates: if it is itself version 0, the peer encoded with
       it, otherwise the peer's site was still cold and used the truly
       generic steps *)
    match compiled_for t ~callsite ~nargs ~has_ret with
    | cp when cp.cp_plan.Plan.version = Plan.generic_version -> cp
    | _ -> compiled_generic t ~callsite ~nargs ~has_ret
  else
    match find_compiled t ~callsite ~version:ver with
    | cp -> cp
    | exception Not_found -> (
        let from_table =
          match Hashtbl.find_opt t.plans callsite with
          | Some p when p.Plan.version = ver -> Some p
          | _ -> None
        in
        let plan =
          match from_table with
          | Some p -> Some p
          | None -> (
              match t.plan_store with
              | Some store ->
                  Rmi_core.Plan_store.version store ~site:callsite ver
              | None -> None)
        in
        match plan with Some p -> intern_plan t p | None -> raise Not_found)

(* deoptimization bookkeeping shared by the argument (caller) and
   return (callee) paths: publish the widened plan so every node — and
   this node after a restart — decodes and re-specializes with it *)
let publish_widened t (widened : Plan.t) ~position =
  Metrics.incr_tier_deopts (metrics t);
  trace_event t
    (Trace.Deopt
       { machine = t.nid; callsite = widened.Plan.callsite; position;
         version = widened.Plan.version });
  Log.debug (fun m ->
      m "machine %d: deopt site=%d at %s -> plan v%d" t.nid
        widened.Plan.callsite position widened.Plan.version);
  Hashtbl.replace t.plans widened.Plan.callsite widened;
  (match t.plan_store with
  | Some store -> Rmi_core.Plan_store.publish store widened
  | None -> ());
  intern_plan t widened

(* ------------------------------------------------------------------ *)
(* adaptive tier: per-site invocation counting and promotion           *)
(* ------------------------------------------------------------------ *)

let tier_for t ~callsite ~nargs ~has_ret =
  match Hashtbl.find_opt t.tiers callsite with
  | Some st -> st
  | None ->
      let st =
        {
          st_calls = 0;
          st_promoted = false;
          st_cp = compiled_generic t ~callsite ~nargs ~has_ret;
        }
      in
      Hashtbl.replace t.tiers callsite st;
      st

(* the site crossed the hot threshold: fetch its specialized plan —
   from the plan store (compiling on demand through the pass manager)
   or the ahead-of-time table — and switch the site over to it *)
let promote t st ~callsite ~nargs =
  st.st_promoted <- true;
  let plan =
    match t.plan_store with
    | Some store -> (
        match Rmi_core.Plan_store.get store ~site:callsite with
        | Some (p, outcome) ->
            (match outcome with
            | Rmi_core.Plan_store.Hit -> Metrics.incr_plan_cache_hits (metrics t)
            | Rmi_core.Plan_store.Compiled | Rmi_core.Plan_store.Invalidated ->
                Metrics.incr_plan_cache_misses (metrics t));
            Some p
        | None -> Hashtbl.find_opt t.plans callsite)
    | None -> Hashtbl.find_opt t.plans callsite
  in
  match plan with
  | Some p
    when p.Plan.version > Plan.generic_version
         && Array.length p.Plan.args = nargs ->
      st.st_cp <- intern_plan t p;
      Metrics.incr_tier_promotions (metrics t);
      trace_event t
        (Trace.Promote
           { machine = t.nid; callsite; calls = st.st_calls;
             version = p.Plan.version })
  | _ ->
      (* no specialized plan exists for this site: it stays generic *)
      ()

(* plan the tiered dispatcher uses for an outgoing call at [callsite] *)
let dispatch_cp t ~callsite ~nargs ~has_ret =
  if adaptive t then begin
    let st = tier_for t ~callsite ~nargs ~has_ret in
    st.st_calls <- st.st_calls + 1;
    Metrics.record_site_call (metrics t) ~callsite;
    if (not st.st_promoted) && st.st_calls >= t.cfg.Config.hot_threshold then
      promote t st ~callsite ~nargs;
    st.st_cp
  end
  else compiled_for t ~callsite ~nargs ~has_ret

let eff_cycle_args t (plan : Plan.t) =
  if site_mode t && t.cfg.Config.elide_cycle then plan.cycle_args else true

let eff_cycle_ret t (plan : Plan.t) =
  if site_mode t && t.cfg.Config.elide_cycle then plan.cycle_ret else true

let eff_reuse_arg t (plan : Plan.t) i =
  site_mode t && t.cfg.Config.reuse && plan.reuse_args.(i)

let eff_reuse_ret t (plan : Plan.t) =
  site_mode t && t.cfg.Config.reuse && plan.reuse_ret

(* ------------------------------------------------------------------ *)
(* reuse caches (Figure 13's temp_arr, per call site)                  *)
(* ------------------------------------------------------------------ *)

(* An empty slot holds [Value.Null], which is also what taking it
   yields: a null candidate and no candidate decode alike. *)
let take_arg_cand t ~callsite ~nargs i =
  match Itbl.find t.arg_caches callsite with
  | exception Not_found ->
      Itbl.replace t.arg_caches callsite (Array.make nargs Value.Null);
      Value.Null
  | slots ->
      let v = slots.(i) in
      (* multithreading guard: empty the slot while in use *)
      slots.(i) <- Value.Null;
      v

let restore_arg_cand t ~callsite i v =
  match Itbl.find t.arg_caches callsite with
  | slots -> slots.(i) <- v
  | exception Not_found -> ()

let take_ret_cand t ~callsite =
  match Itbl.find t.ret_caches callsite with
  | v ->
      Itbl.replace t.ret_caches callsite Value.Null;
      v
  | exception Not_found -> Value.Null

let restore_ret_cand t ~callsite v = Itbl.replace t.ret_caches callsite v

(* ------------------------------------------------------------------ *)
(* marshaling                                                          *)
(* ------------------------------------------------------------------ *)

(* internal: [Type_confusion] with the offending argument position
   attached, so the deoptimizer knows what to widen *)
exception Arg_confusion of int * string

(* the plan's cached write context (zc mode), reset under the Codec
   discipline before each use; a fresh context per call otherwise *)
let wctx_for t cp ~cycle =
  if not (zc t) then
    Codec.make_wctx ~defs:cp.cp_plan.Plan.defs t.meta (metrics t) ~cycle
  else
    match cp.cp_wctx with
    | Some (c, wctx) when c = cycle ->
        Codec.reset_wctx wctx;
        wctx
    | _ ->
        let wctx =
          Codec.make_wctx ~defs:cp.cp_plan.Plan.defs t.meta (metrics t) ~cycle
        in
        cp.cp_wctx <- Some (cycle, wctx);
        wctx

let rctx_for t cp ~cycle =
  if not (zc t) then
    Codec.make_rctx ~defs:cp.cp_plan.Plan.defs t.meta (metrics t) ~cycle
  else
    match cp.cp_rctx with
    | Some (c, rctx) when c = cycle ->
        Codec.reset_rctx rctx;
        rctx
    | _ ->
        let rctx =
          Codec.make_rctx ~defs:cp.cp_plan.Plan.defs t.meta (metrics t) ~cycle
        in
        cp.cp_rctx <- Some (cycle, rctx);
        rctx

(* Arena decoding applies when the knob is on, the plan's escape
   analysis proved no served argument outlives its dispatch, and
   per-position reuse is off — reuse already recycles the previous
   call's graph in place, and running both schemes at once would hand
   the same node out twice (once as a reuse candidate, once from a
   shape pool). *)
let arena_mode t cp =
  t.cfg.Config.arena && site_mode t
  && (not t.cfg.Config.reuse)
  && cp.cp_plan.Plan.non_escaping

(* Serve-side argument decode context: arena-backed under [arena_mode].
   The previous dispatch's nodes are parked here, on next acquisition,
   rather than on the dispatch's many exit paths — equivalent, since
   [non_escaping] proves nothing referenced them in between. *)
let serve_rctx_for t cp ~cycle =
  if not (arena_mode t cp) then rctx_for t cp ~cycle
  else begin
    let arena =
      match cp.cp_arena with
      | Some a -> a
      | None ->
          let a = Rmi_serial.Arena.create ~metrics:(metrics t) in
          cp.cp_arena <- Some a;
          a
    in
    Rmi_serial.Arena.reset arena;
    match cp.cp_arctx with
    | Some (c, rctx) when c = cycle ->
        Codec.reset_rctx rctx;
        rctx
    | _ ->
        let rctx =
          Codec.make_rctx ~defs:cp.cp_plan.Plan.defs ~arena t.meta (metrics t)
            ~cycle
        in
        cp.cp_arctx <- Some (cycle, rctx);
        rctx
  end

(* the header of an answer to the request [hdr]: its addressing with
   [kind] and [plan_ver], written from fields so no header is copied *)
let write_answer w (hdr : Protocol.header) ~kind ~plan_ver =
  Protocol.write_fields w ~kind ~src:hdr.src ~epoch:hdr.epoch ~seq:hdr.seq
    ~target_obj:hdr.target_obj ~method_id:hdr.method_id ~callsite:hdr.callsite
    ~nargs:hdr.nargs ~plan_ver

(* the request of call [seq], encoded with [cp]: its header, written
   from the call's fields, then one write step per argument *)
let marshal_args_positional t cp ~epoch ~seq ~obj ~meth ~callsite args =
  let plan = cp.cp_plan in
  let writes = cp.cp_write_args in
  let w = acquire_msg_writer t in
  try
    Protocol.write_fields w ~kind:Protocol.Request ~src:t.nid ~epoch ~seq
      ~target_obj:obj ~method_id:meth ~callsite ~nargs:(Array.length args)
      ~plan_ver:plan.Plan.version;
    let wctx = wctx_for t cp ~cycle:(eff_cycle_args t plan) in
    for i = 0 to Array.length writes - 1 do
      match writes.(i) wctx w args.(i) with
      | () -> ()
      | exception Codec.Type_confusion msg ->
          (* the aborted write may have registered objects in the cycle
             table; reset so a replay cannot emit dangling handles *)
          Codec.reset_wctx wctx;
          raise (Arg_confusion (i, msg))
    done;
    w
  with e ->
    release_msg_writer t w;
    raise e

(* Adaptive encode: when a specialized plan's static promise is broken
   by a runtime value, widen the offending argument to the dynamic
   step, publish the repaired plan, and replay the write through it —
   the RMI still succeeds, just via the dynamic serializer for that
   position.  Terminates: each round widens one position and S_dyn
   never raises.  [p.pc_cp] ends as the (possibly widened) plan the
   returned request was encoded with; its header carries the matching
   version. *)
let rec marshal_args_adaptive t st (p : pending) ~epoch ~obj ~meth args =
  let cp = p.pc_cp in
  match
    marshal_args_positional t cp ~epoch ~seq:p.pc_seq ~obj ~meth
      ~callsite:p.pc_callsite args
  with
  | w -> w
  | exception Arg_confusion (i, msg) ->
      if cp.cp_plan.Plan.version = Plan.generic_version then
        (* the generic plan cannot confuse types; re-raise *)
        raise (Codec.Type_confusion msg)
      else begin
        let widened = Plan.widen cp.cp_plan (`Arg i) in
        let cp' =
          publish_widened t widened
            ~position:(Format.asprintf "%a" Plan.pp_position (`Arg i))
        in
        (match st with Some st -> st.st_cp <- cp' | None -> ());
        p.pc_cp <- cp';
        marshal_args_adaptive t st p ~epoch ~obj ~meth args
      end

let marshal_request t st (p : pending) ~epoch ~obj ~meth args =
  if adaptive t then marshal_args_adaptive t st p ~epoch ~obj ~meth args
  else
    match
      marshal_args_positional t p.pc_cp ~epoch ~seq:p.pc_seq ~obj ~meth
        ~callsite:p.pc_callsite args
    with
    | w -> w
    | exception Arg_confusion (_, msg) -> raise (Codec.Type_confusion msg)

let unmarshal_args t cp ~callsite r =
  let plan = cp.cp_plan in
  let rctx = serve_rctx_for t cp ~cycle:(eff_cycle_args t plan) in
  let reads = cp.cp_read_args in
  let nargs = Array.length reads in
  let roots = Array.make nargs Value.Null in
  for i = 0 to nargs - 1 do
    let cand =
      if eff_reuse_arg t plan i then take_arg_cand t ~callsite ~nargs i
      else Value.Null
    in
    roots.(i) <- reads.(i) rctx r ~cand
  done;
  (* set the parameters up for the next RMI at this site *)
  for i = 0 to nargs - 1 do
    if eff_reuse_arg t plan i then restore_arg_cand t ~callsite i roots.(i)
  done;
  roots

(* the reply to the request with these header fields: an [Ack], or a
   [Reply] carrying [ret] encoded with [cp] *)
let marshal_ret t cp ~src ~epoch ~seq ~obj ~meth ~callsite ~nargs ~plan_ver ret
    =
  let w = acquire_msg_writer ~initial_capacity:256 t in
  try
    match cp.cp_write_ret with
    | None ->
        Protocol.write_fields w ~kind:Protocol.Ack ~src ~epoch ~seq
          ~target_obj:obj ~method_id:meth ~callsite ~nargs ~plan_ver;
        w
    | Some write ->
        Protocol.write_fields w ~kind:Protocol.Reply ~src ~epoch ~seq
          ~target_obj:obj ~method_id:meth ~callsite ~nargs ~plan_ver;
        let wctx = wctx_for t cp ~cycle:(eff_cycle_ret t cp.cp_plan) in
        (* a void method under a value-bearing plan replies null *)
        write wctx w (Option.value ret ~default:Value.Null);
        w
  with e ->
    release_msg_writer t w;
    raise e

(* Adaptive reply encode: a return value that breaks the specialized
   plan deoptimizes the return position — widen, publish, replay — so
   the caller still gets its reply (tagged with the widened version)
   instead of an exception. *)
let rec marshal_ret_tiered t cp ~src ~epoch ~seq ~obj ~meth ~callsite ~nargs
    ~plan_ver ret =
  if not (adaptive t) then
    marshal_ret t cp ~src ~epoch ~seq ~obj ~meth ~callsite ~nargs ~plan_ver ret
  else
    match
      marshal_ret t cp ~src ~epoch ~seq ~obj ~meth ~callsite ~nargs ~plan_ver
        ret
    with
    | w -> w
    | exception Codec.Type_confusion msg ->
        if cp.cp_plan.Plan.version = Plan.generic_version then
          raise (Codec.Type_confusion msg)
        else begin
          let widened = Plan.widen cp.cp_plan `Ret in
          let cp' = publish_widened t widened ~position:"ret" in
          (* this site may also be called *from* this node *)
          (match Hashtbl.find_opt t.tiers widened.Plan.callsite with
          | Some st when st.st_promoted -> st.st_cp <- cp'
          | _ -> ());
          marshal_ret_tiered t cp' ~src ~epoch ~seq ~obj ~meth ~callsite ~nargs
            ~plan_ver:widened.Plan.version ret
        end

let unmarshal_ret t cp ~callsite ~kind ~plan_ver r =
  (* the reply announces which plan version encoded the return value;
     a server that deoptimized mid-reply answers with a newer version
     than the request carried *)
  let cp =
    if plan_ver = cp.cp_plan.Plan.version then cp
    else begin
      let nargs = Array.length cp.cp_plan.Plan.args in
      let has_ret = cp.cp_plan.Plan.ret <> None in
      match resolve_version t ~callsite ~nargs ~has_ret plan_ver with
      | cp' ->
          (* adopt the newer encoding for future calls at this site *)
          (if adaptive t && plan_ver > cp.cp_plan.Plan.version then
             match Hashtbl.find_opt t.tiers callsite with
             | Some st when st.st_promoted -> st.st_cp <- cp'
             | _ -> ());
          cp'
      | exception Not_found ->
          raise
            (Remote_exception
               (Printf.sprintf
                  "machine %d: reply for site %d uses unknown plan version %d"
                  t.nid callsite plan_ver))
    end
  in
  let plan = cp.cp_plan in
  match kind with
  | Protocol.Ack -> None
  | Protocol.Exn_reply -> raise (Remote_exception (Msgbuf.read_string r))
  | Protocol.Reply -> (
      match cp.cp_read_ret with
      | None -> None
      | Some read ->
          let rctx = rctx_for t cp ~cycle:(eff_cycle_ret t plan) in
          let cand =
            if eff_reuse_ret t plan then take_ret_cand t ~callsite else Value.Null
          in
          let v = read rctx r ~cand in
          if eff_reuse_ret t plan then restore_ret_cand t ~callsite v;
          Some v)
  | Protocol.Request | Protocol.Reject ->
      (* requests are served, rejects resent, before unmarshaling *)
      assert false

(* ------------------------------------------------------------------ *)
(* sending: direct, or through the per-link batch buffers              *)
(* ------------------------------------------------------------------ *)

(* one event per envelope the batching layer shipped *)
let rec trace_flushes tr machine = function
  | [] -> ()
  | (dest, msgs, bytes) :: rest ->
      Trace.record tr (Trace.Batch_flush { machine; dest; msgs; bytes });
      trace_flushes tr machine rest

let send_msg t ~dest payload =
  if t.cfg.Config.batching then begin
    let flushed =
      Rmi_net.Transport.send_buffered t.net ~src:t.nid ~dest payload
    in
    match t.trace with Some tr -> trace_flushes tr t.nid flushed | None -> ()
  end
  else Rmi_net.Transport.send t.net ~src:t.nid ~dest payload

(* ship the message sitting in [w] (built by [acquire_msg_writer]).
   In zero-copy mode without batching, the reliable transport frames
   the writer's payload in place ([Reliable]'s [send_writer]). *)
let send_from_writer t ~dest w =
  if (not (zc t)) || t.cfg.Config.batching then
    send_msg t ~dest (msg_of_writer t w)
  else
    Rmi_net.Transport.send_writer t.net ~src:t.nid ~dest w ~payload_off:gap

(* [send_from_writer] when the caller already materialized the message
   as [snapshot] (the retry copy of a request, a reply-cache entry), so
   paths that need bytes anyway never copy twice; under the raw
   transport the one snapshot doubles as the wire frame *)
let send_snapshot t ~dest snapshot w =
  if (not (zc t)) || t.cfg.Config.batching then send_msg t ~dest snapshot
  else if not (Rmi_net.Transport.is_reliable t.net) then
    Rmi_net.Transport.send t.net ~src:t.nid ~dest snapshot
  else
    Rmi_net.Transport.send_writer t.net ~src:t.nid ~dest w ~payload_off:gap

(* ship whatever this machine has coalesced; a no-op when batching is
   off or the buffers are empty *)
let flush_self t =
  if t.cfg.Config.batching then begin
    let flushed = Rmi_net.Transport.flush t.net ~src:t.nid in
    match t.trace with Some tr -> trace_flushes tr t.nid flushed | None -> ()
  end

(* ------------------------------------------------------------------ *)
(* the outstanding-request table                                       *)
(* ------------------------------------------------------------------ *)

let is_pending p = match p.pc_state with Pending -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* failover policy: replicas and per-peer circuit breakers             *)
(* ------------------------------------------------------------------ *)

let set_replica t ~primary ~replica =
  if primary = replica then invalid_arg "Node.set_replica: primary = replica";
  Hashtbl.replace t.replicas primary replica

let breaker_for t dest =
  match Hashtbl.find_opt t.breakers dest with
  | Some b -> b
  | None ->
      let b = { consecutive = 0; opened_at = None } in
      Hashtbl.replace t.breakers dest b;
      b

(* may this node issue a call to [dest] right now?  An open breaker
   fast-fails until the cooldown expires, then lets one probe through
   half-open (primed so the next failure re-opens immediately) *)
let breaker_allows t ~dest ~now =
  match Hashtbl.find_opt t.breakers dest with
  | None -> true
  | Some { opened_at = None; _ } -> true
  | Some ({ opened_at = Some opened; _ } as b) ->
      if
        now - opened
        >= Rmi_net.Clock.us_of_seconds
             t.cfg.Config.failover.Config.breaker_cooldown
      then begin
        b.opened_at <- None;
        b.consecutive <- t.cfg.Config.failover.Config.breaker_threshold - 1;
        true
      end
      else false

let breaker_failure t dest =
  let b = breaker_for t dest in
  b.consecutive <- b.consecutive + 1;
  if
    b.consecutive >= t.cfg.Config.failover.Config.breaker_threshold
    && b.opened_at = None
  then begin
    b.opened_at <- Some (Rmi_net.Clock.now_us ());
    trace_event t (Trace.Breaker_open { machine = t.nid; peer = dest })
  end

let breaker_success t dest =
  match Hashtbl.find_opt t.breakers dest with
  | None -> ()
  | Some b ->
      b.consecutive <- 0;
      b.opened_at <- None

let resolve_future t (p : pending) state =
  Itbl.remove t.outstanding p.pc_seq;
  p.pc_state <- state;
  (* any response — value or remote exception — proves the peer alive *)
  (match state with
  | Resolved _ | Failed (Remote_exception _) | Failed (No_such_method _) ->
      if p.pc_dest <> t.nid then breaker_success t p.pc_dest
  | _ -> ());
  (match t.trace with
  | Some tr ->
      Trace.record tr
        (Trace.Future_resolved
           { machine = t.nid; seq = p.pc_seq; callsite = p.pc_callsite;
             failed = (match state with Failed _ -> true | _ -> false) })
  | None -> ());
  match state with
  | Failed _ -> ()
  | _ -> (
      let elapsed_us = Rmi_net.Clock.now_us () - p.pc_started in
      (* client-observed round trip, one histogram sample per settled
         call; both the local and any remote domain may record, hence
         the atomic buckets *)
      Metrics.record_latency_ns (metrics t) (elapsed_us * 1000);
      match t.trace with
      | Some tr ->
          Trace.record tr
            (Trace.Call_end
               { machine = t.nid; callsite = p.pc_callsite;
                 elapsed_us = float_of_int elapsed_us })
      | None -> ())

(* a reply/ack/exn-reply of [kind] landed: settle whichever future
   asked for it.  Replies can arrive in any order relative to the issue
   order — the [seq] echoed in the header is the correlation key. *)
let handle_reply t ~kind ~seq ~plan_ver r =
  match Itbl.find t.outstanding seq with
  | exception Not_found ->
      (* no one is waiting: a duplicate suppressed late, or a reply to
         an abandoned (timed-out) call; drop it *)
      if debug_on () then
        Log.debug (fun m ->
            m "machine %d: dropping unexpected reply seq=%d" t.nid seq)
  | p when kind = Protocol.Reject ->
      (* admission control refused the request: it was never executed,
         so re-sending cannot double-execute.  Overload is failure
         pressure — it feeds the peer's circuit breaker — but it does
         not consume the RPC retry budget: flow control is bounded by
         the call deadline alone. *)
      breaker_failure t p.pc_dest;
      if Rmi_net.Clock.now_us () >= p.pc_deadline then begin
        trace_event t (Trace.Timeout { machine = t.nid; dests = [ p.pc_dest ] });
        resolve_future t p
          (Failed
             (Server_busy
                (Printf.sprintf
                   "machine %d: seq %d rejected by machine %d until its \
                    deadline passed"
                   t.nid p.pc_seq p.pc_dest)))
      end
      else begin
        (* pause so a saturated server can drain before the retry;
           without a pump the client is the only local runner, so
           sleeping the domain is all the backoff available.  The pause
           doubles per consecutive reject (capped) — a fixed interval
           turns a persistently saturated server into a reject/resend
           hot loop that amplifies the very load that caused it *)
        p.pc_rejects <- p.pc_rejects + 1;
        if not t.has_pump then begin
          let pause =
            0.0002 *. float_of_int (1 lsl min (p.pc_rejects - 1) 6)
          in
          Unix.sleepf pause
        end;
        send_msg t ~dest:p.pc_dest p.pc_request
      end
  | p ->
      let state =
        match unmarshal_ret t p.pc_cp ~callsite:p.pc_callsite ~kind ~plan_ver r
        with
        | v -> Resolved v
        | exception e -> Failed e
      in
      resolve_future t p state

(* fail every in-flight call matched by [sel]; their exceptions
   re-raise at await time *)
let fail_outstanding t sel mk_exn =
  let victims =
    Itbl.fold (fun _ p acc -> if sel p then p :: acc else acc) t.outstanding []
  in
  List.iter (fun p -> resolve_future t p (Failed (mk_exn p))) victims

(* ------------------------------------------------------------------ *)
(* serving                                                             *)
(* ------------------------------------------------------------------ *)

(* remember [reply] for this request so an RPC-level retry is answered
   without re-executing the handler; bounded FIFO so paper-scale
   benchmark runs cannot grow without limit *)
let cache_reply t key reply =
  let cap = t.cfg.Config.failover.Config.reply_cache_cap in
  if cap > 0 then begin
    if not (Hashtbl.mem t.reply_cache key) then begin
      Queue.push key t.reply_order;
      if Queue.length t.reply_order > cap then
        Hashtbl.remove t.reply_cache (Queue.pop t.reply_order)
    end;
    Hashtbl.replace t.reply_cache key reply
  end

(* an [Exn_reply] to [hdr]'s request carrying [msg], in a fresh
   message writer *)
let exn_reply t (hdr : Protocol.header) msg =
  let w = acquire_msg_writer t in
  write_answer w hdr ~kind:Protocol.Exn_reply ~plan_ver:hdr.plan_ver;
  Msgbuf.write_string w msg;
  w

(* the reply to [hdr]'s request, executed by [entry]: the request
   header says which plan version encoded the arguments — version 0 is
   the generic tag-carrying plan, higher versions resolve through the
   compiled cache, the shared plan table or the plan store *)
let execute_request t (hdr : Protocol.header) entry r =
  match
    resolve_version t ~callsite:hdr.callsite ~nargs:hdr.nargs
      ~has_ret:entry.has_ret hdr.plan_ver
  with
  | exception Not_found ->
      exn_reply t hdr
        (Printf.sprintf "machine %d: unknown plan version %d for site %d"
           t.nid hdr.plan_ver hdr.callsite)
  | cp -> (
      try
        let args = unmarshal_args t cp ~callsite:hdr.callsite r in
        let ret = entry.fn args in
        marshal_ret_tiered t cp ~src:hdr.src ~epoch:hdr.epoch ~seq:hdr.seq
          ~obj:hdr.target_obj ~meth:hdr.method_id ~callsite:hdr.callsite
          ~nargs:hdr.nargs ~plan_ver:hdr.plan_ver ret
      with
      | Codec.Type_confusion msg | Failure msg | Remote_exception msg ->
          exn_reply t hdr msg
      | Msgbuf.Underflow msg ->
          (* corrupt or truncated request payload: report it cleanly
             instead of taking the serving machine down *)
          exn_reply t hdr ("malformed request: " ^ msg))

let serve_request t (hdr : Protocol.header) r =
  if hdr.method_id = shutdown_method then t.shutdown <- true
  else begin
    (* the reply cache only matters where requests can be retried — the
       reliable transport; the raw paper-table path skips it entirely *)
    let cache_key =
      if Rmi_net.Transport.is_reliable t.net then
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
        Metrics.incr_reply_cache_hits (metrics t);
        send_msg t ~dest:hdr.src reply
    | None -> (
        match find_handler t ~obj:hdr.target_obj ~meth:hdr.method_id with
        | exception Not_found ->
            let w =
              exn_reply t hdr
                (Printf.sprintf "machine %d has no (obj %d, method %d)" t.nid
                   hdr.target_obj hdr.method_id)
            in
            send_from_writer t ~dest:hdr.src w;
            release_msg_writer t w
        | entry ->
            (match t.trace with
            | Some tr ->
                Trace.record tr
                  (Trace.Served
                     { machine = t.nid; src = hdr.src; meth = hdr.method_id;
                       callsite = hdr.callsite })
            | None -> ());
            let reply = execute_request t hdr entry r in
            (match cache_key with
            | Some key ->
                (* snapshotted and stored before the reply leaves:
                   execution and cache entry are atomic with respect to
                   a crash at frame granularity *)
                let snapshot = msg_of_writer t reply in
                cache_reply t key snapshot;
                send_snapshot t ~dest:hdr.src snapshot reply
            | None -> send_from_writer t ~dest:hdr.src reply);
            release_msg_writer t reply)
  end

(* hand a pooled reader back; a fresh one is left to the GC *)
let release_reader t ~pooled r =
  if pooled then Msgbuf.Pool.release_reader (node_pool t) r

(* the message at [r]: a request is served, anything else settles a
   future.  Only a request's header is built as a record; a reply's
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
          | plan_ver -> handle_reply t ~kind ~seq ~plan_ver r))

(* [msg] is a slice of the received frame — under zero-copy framing an
   envelope payload or batch sub-message is read where it landed, never
   copied out first; readers over it come from the cluster pool *)
let consume t (buf, off, len) =
  let pooled = zc t in
  let r =
    if pooled then Msgbuf.Pool.acquire_reader (node_pool t) buf ~off ~len
    else Msgbuf.reader_of_bytes ~off ~len buf
  in
  match consume_reader t r with
  | () -> release_reader t ~pooled r
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      release_reader t ~pooled r;
      Printexc.raise_with_backtrace e bt

let rec drain_inbox t served =
  match Rmi_net.Transport.try_recv_slice t.net ~self:t.nid with
  | None -> served
  | Some msg ->
      consume t msg;
      drain_inbox t true

let serve_pending t =
  let served = drain_inbox t false in
  (* replies produced above may be sitting in this machine's batch
     buffers: ship them so the callers can make progress *)
  flush_self t;
  served

(* [serve_slice t msg] executes one received slice on this node —
   request, reply or reject — and ships any coalesced replies.  The
   dispatch pool calls it from worker domains; [t.serve_mutex]-style
   exclusion is the pool's job, one slice at a time per node. *)
let serve_slice t msg =
  consume t msg;
  flush_self t

(* admission control refused [hdr]'s request: answer with a [Reject]
   frame echoing the sequence number so the client's flow control can
   re-send.  Called from the pool's intake before the request payload
   is ever decoded. *)
let send_reject t (hdr : Protocol.header) =
  Metrics.incr_queue_rejects (metrics t);
  let w = acquire_msg_writer t in
  write_answer w hdr ~kind:Protocol.Reject ~plan_ver:hdr.plan_ver;
  send_from_writer t ~dest:hdr.Protocol.src w;
  release_msg_writer t w;
  flush_self t

let serve_loop t =
  t.shutdown <- false;
  while not t.shutdown do
    let msg = Rmi_net.Transport.recv_blocking_slice t.net ~self:t.nid in
    consume t msg;
    flush_self t
  done

let send_shutdown t ~dest =
  let w = acquire_msg_writer t in
  Protocol.write_header w
    {
      Protocol.kind = Protocol.Request;
      src = t.nid;
      epoch = Rmi_net.Transport.self_epoch t.net t.nid;
      seq = 0;
      target_obj = 0;
      method_id = shutdown_method;
      callsite = -1;
      nargs = 0;
      plan_ver = 0;
    };
  (* through the batch buffer so it cannot overtake coalesced traffic *)
  send_from_writer t ~dest w;
  release_msg_writer t w;
  flush_self t

(* ------------------------------------------------------------------ *)
(* the progress engine                                                 *)
(* ------------------------------------------------------------------ *)

(* one transport cycle on [q]'s request exhausted its retransmit
   budget (or the cluster went quiescent with [q] unanswered): retry,
   fail over to a replica, or give up according to the failure policy *)
let transport_failed t (q : pending) detail =
  let now = Rmi_net.Clock.now_us () in
  breaker_failure t q.pc_dest;
  if now >= q.pc_deadline then begin
    trace_event t (Trace.Timeout { machine = t.nid; dests = [ q.pc_dest ] });
    resolve_future t q
      (Failed
         (Rpc_timeout
            (Printf.sprintf "machine %d: seq %d missed its deadline: %s" t.nid
               q.pc_seq detail)))
  end
  else if q.pc_attempts > t.cfg.Config.failover.Config.max_call_retries then begin
    trace_event t (Trace.Timeout { machine = t.nid; dests = [ q.pc_dest ] });
    resolve_future t q
      (Failed
         (Peer_down
            (Printf.sprintf
               "machine %d: seq %d: machine %d unreachable after %d attempts: %s"
               t.nid q.pc_seq q.pc_dest q.pc_attempts detail)))
  end
  else begin
    q.pc_attempts <- q.pc_attempts + 1;
    (* fail over once the primary is confirmed Down, or on the final
       retry — whichever comes first — provided a replica exists *)
    (match Hashtbl.find_opt t.replicas q.pc_primary with
    | Some replica
      when q.pc_dest <> replica
           && (Rmi_net.Transport.peer_health t.net ~self:t.nid
                 ~peer:q.pc_dest
               = Rmi_net.Transport.Down
              || q.pc_attempts > t.cfg.Config.failover.Config.max_call_retries
              ) ->
        Metrics.incr_failovers (metrics t);
        trace_event t
          (Trace.Failover
             { machine = t.nid; seq = q.pc_seq; primary = q.pc_primary;
               replica });
        q.pc_dest <- replica
    | _ -> ());
    Metrics.incr_call_retries (metrics t);
    trace_event t
      (Trace.Call_retry
         { machine = t.nid; seq = q.pc_seq; dest = q.pc_dest;
           attempt = q.pc_attempts });
    (* same seq and epoch: the server's reply cache dedups it if the
       original was executed and only the reply was lost *)
    send_msg t ~dest:q.pc_dest q.pc_request
  end

(* fail every outstanding call whose end-to-end deadline has passed,
   whatever the transport is doing *)
let sweep_deadlines t =
  let now = Rmi_net.Clock.now_us () in
  let victims =
    Itbl.fold
      (fun _ q acc -> if now >= q.pc_deadline then q :: acc else acc)
      t.outstanding []
  in
  List.iter
    (fun q ->
      trace_event t (Trace.Timeout { machine = t.nid; dests = [ q.pc_dest ] });
      resolve_future t q
        (Failed
           (Rpc_timeout
              (Printf.sprintf "machine %d: seq %d missed its deadline" t.nid
                 q.pc_seq))))
    victims

(* every outstanding call routed at a destination the transport gave up
   on goes through the failure policy: RPC retry, failover to a
   replica, or Peer_down/Rpc_timeout *)
let gave_up t dests detail =
  let victims =
    Itbl.fold
      (fun _ q acc -> if List.mem q.pc_dest dests then q :: acc else acc)
      t.outstanding []
  in
  List.iter (fun q -> transport_failed t q detail) victims;
  (* retried requests may be sitting in the batch buffers *)
  flush_self t

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
  match p.pc_state with
  | Resolved v -> v
  | Failed e -> raise e
  | Pending -> (
      (* anything we coalesced — including p's own request — must be
         on the wire before we idle-wait for the answer *)
      flush_self t;
      match Rmi_net.Transport.try_recv_slice t.net ~self:t.nid with
      | Some msg ->
          consume t msg;
          await_loop t p dead_rounds
      | None ->
          if t.has_pump then
            if t.pump () then await_loop t p dead_rounds
            else if Rmi_net.Transport.pending_anywhere t.net then
              await_loop t p dead_rounds
            else drive_transport t p dead_rounds ~quiescent:true
          else if Rmi_net.Transport.is_reliable t.net then
            (* parallel mode over the reliable transport: wait in short
               slices so this machine keeps its retransmit timers
               running *)
            match
              Rmi_net.Transport.recv_deadline_slice t.net ~self:t.nid
                ~seconds:0.002
            with
            | Some msg ->
                consume t msg;
                await_loop t p dead_rounds
            | None -> drive_transport t p dead_rounds ~quiescent:false
          else begin
            let msg = Rmi_net.Transport.recv_blocking_slice t.net ~self:t.nid in
            consume t msg;
            await_loop t p dead_rounds
          end)

and drive_transport t p dead_rounds ~quiescent =
  (* end-to-end deadlines fire whatever the transport is doing, so no
     future can outlive its budget *)
  sweep_deadlines t;
  match Rmi_net.Transport.idle t.net ~self:t.nid with
  | Rmi_net.Transport.Raw_transport ->
      if quiescent then
        fail_outstanding t
          (fun _ -> true)
          (fun q ->
            Deadlock
              (Printf.sprintf
                 "machine %d: no reply for seq %d and the cluster is \
                  quiescent"
                 t.nid q.pc_seq));
      await_loop t p dead_rounds
  | Rmi_net.Transport.Retransmitted n ->
      trace_event t (Trace.Retry { machine = t.nid; frames = n });
      await_loop t p 0
  | Rmi_net.Transport.Waiting -> await_loop t p 0
  | Rmi_net.Transport.Gave_up dests ->
      gave_up t dests
        (Printf.sprintf
           "frames to machine(s) %s exhausted their retransmit budget"
           (String.concat "," (List.map string_of_int dests)));
      await_loop t p 0
  | Rmi_net.Transport.Dead ->
      (* nothing in flight anywhere yet calls are outstanding: their
         requests (or replies) died with a crashed machine — e.g. an
         amnesia restart that lost an acked-but-unanswered request.
         Resending is the only road to progress. *)
      let dests =
        List.sort_uniq compare
          (Itbl.fold (fun _ q acc -> q.pc_dest :: acc) t.outstanding [])
      in
      if quiescent then begin
        (* synchronous mode: this thread is the whole cluster, so an
           empty network can never produce the reply by waiting *)
        gave_up t dests "nothing left in flight";
        await_loop t p dead_rounds
      end
      else begin
        let dead_rounds = dead_rounds + 1 in
        if dead_rounds > 500 then gave_up t dests "nothing left in flight";
        await_loop t p dead_rounds
      end

let await_pending (p : pending) = await_loop p.pc_node p 0

(* nonblocking settlement check: drain the mailbox (and, in synchronous
   mode, give the rest of the cluster one pump) without ever idling *)
let peek_pending (p : pending) =
  let t = p.pc_node in
  (if is_pending p then begin
     flush_self t;
     ignore (drain_inbox t false : bool);
     if is_pending p && t.has_pump then begin
       ignore (t.pump () : bool);
       ignore (drain_inbox t false : bool)
     end
   end);
  match p.pc_state with
  | Pending -> None
  | Resolved v -> Some v
  | Failed e -> raise e

(* ------------------------------------------------------------------ *)
(* calling                                                             *)
(* ------------------------------------------------------------------ *)

(* the served half of a same-machine call, over the request sitting in
   [w]: decode the arguments, execute, encode the reply and decode it
   back, as a remote call's server and client would *)
let serve_local t (p : pending) ~epoch ~obj ~meth ~nargs w =
  let r = reader_of_msg_writer t w in
  ignore (Protocol.read_kind r : Protocol.kind);
  ignore (Protocol.read_seq r : int);
  ignore (Protocol.read_plan_ver r : int);
  let entry =
    match find_handler t ~obj ~meth with
    | entry -> entry
    | exception Not_found ->
        raise
          (No_such_method
             (Printf.sprintf "machine %d has no (obj %d, method %d)" t.nid obj
                meth))
  in
  let cp = p.pc_cp and callsite = p.pc_callsite in
  let call_args = unmarshal_args t cp ~callsite r in
  let ret = entry.fn call_args in
  let wr =
    marshal_ret_tiered t cp ~src:t.nid ~epoch ~seq:p.pc_seq ~obj ~meth
      ~callsite ~nargs ~plan_ver:cp.cp_plan.Plan.version ret
  in
  match
    let rr = reader_of_msg_writer t wr in
    let kind = Protocol.read_kind rr in
    ignore (Protocol.read_seq rr : int);
    let plan_ver = Protocol.read_plan_ver rr in
    unmarshal_ret t cp ~callsite ~kind ~plan_ver rr
  with
  | v ->
      release_msg_writer t wr;
      v
  | exception e ->
      release_msg_writer t wr;
      raise e

(* same machine: clone through the serializer, skip the wire; runs
   eagerly, with any exception captured for the await *)
let call_local t st (p : pending) ~epoch ~obj ~meth ~nargs args =
  match marshal_request t st p ~epoch ~obj ~meth args with
  | exception e -> Failed e
  | w -> (
      match serve_local t p ~epoch ~obj ~meth ~nargs w with
      | v ->
          release_msg_writer t w;
          Resolved v
      | exception e ->
          release_msg_writer t w;
          Failed e)

let call_async ?deadline t ~(dest : Remote_ref.t) ~meth ~callsite ~has_ret
    args =
  let started = Rmi_net.Clock.now_us () in
  let machine = dest.Remote_ref.machine and obj = dest.Remote_ref.obj in
  (match t.trace with
  | Some tr ->
      Trace.record tr
        (Trace.Call_start
           { machine = t.nid; dest = machine; meth; callsite;
             local = machine = t.nid })
  | None -> ());
  if debug_on () then
    Log.debug (fun m ->
        m "machine %d: call meth=%d site=%d -> machine %d" t.nid meth callsite
          machine);
  let nargs = Array.length args in
  let cp = dispatch_cp t ~callsite ~nargs ~has_ret in
  if Array.length cp.cp_plan.Plan.args <> nargs then
    invalid_arg
      (Printf.sprintf "Node.call: plan for site %d expects %d args, got %d"
         callsite
         (Array.length cp.cp_plan.Plan.args)
         nargs);
  t.seq <- t.seq + 1;
  let epoch = Rmi_net.Transport.self_epoch t.net t.nid in
  let budget =
    match deadline with
    | Some d -> d
    | None -> t.cfg.Config.failover.Config.call_deadline
  in
  let p =
    {
      pc_seq = t.seq;
      pc_callsite = callsite;
      pc_dest = machine;
      pc_primary = machine;
      pc_cp = cp;
      pc_node = t;
      pc_started = started;
      pc_deadline = started + Rmi_net.Clock.us_of_seconds budget;
      pc_request = Bytes.empty;
      pc_attempts = 1;
      pc_rejects = 0;
      pc_state = Pending;
    }
  in
  (match t.trace with
  | Some tr ->
      Trace.record tr
        (Trace.Future_created
           { machine = t.nid; seq = p.pc_seq; callsite; dest = machine })
  | None -> ());
  let tier_st = if adaptive t then Hashtbl.find_opt t.tiers callsite else None in
  if machine = t.nid then begin
    Metrics.incr_local_rpcs (metrics t);
    resolve_future t p (call_local t tier_st p ~epoch ~obj ~meth ~nargs args);
    p
  end
  else if not (breaker_allows t ~dest:machine ~now:started) then begin
    (* circuit open: fail fast without touching the wire, so a dead
       peer costs one exception instead of a full retransmit budget *)
    Metrics.incr_breaker_fastfails (metrics t);
    resolve_future t p
      (Failed
         (Peer_down
            (Printf.sprintf "machine %d: circuit open to machine %d" t.nid
               machine)));
    p
  end
  else begin
    Metrics.incr_remote_rpcs (metrics t);
    let w = marshal_request t tier_st p ~epoch ~obj ~meth args in
    (* the one payload snapshot the zero-copy path makes: the stable
       request bytes kept for RPC-level retries *)
    p.pc_request <- msg_of_writer t w;
    Itbl.replace t.outstanding p.pc_seq p;
    Metrics.record_outstanding (metrics t) (Itbl.length t.outstanding);
    send_snapshot t ~dest:machine p.pc_request w;
    release_msg_writer t w;
    p
  end

module Future = struct
  type nonrec t = pending

  let await = await_pending
  let peek = peek_pending
  let all ps = List.map await_pending ps
end

let call ?deadline t ~dest ~meth ~callsite ~has_ret args =
  await_pending (call_async ?deadline t ~dest ~meth ~callsite ~has_ret args)
