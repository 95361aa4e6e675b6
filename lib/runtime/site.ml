(* One record per call site and the phase functions a call runs
   through it.  The paper's Section 3 optimizations are all per site —
   a generated (un)marshaler, a cycle-table verdict and argument and
   return-value reuse — so a node keeps, for each site, the compiled
   versions of its plan, its adaptive-tier state, its recycling arenas
   and each version's codec contexts, and looks the record up once per
   side of a call.

   A remote call runs
     client:  encoding |> marshal_args  ~~wire~~>
     server:  version |> unmarshal_args |> handler |> marshal_ret  ~~wire~~>
     client:  unmarshal_ret
   and a same-machine call runs the same phases with the request and
   reply writers in place of the wire.  A value that breaks a
   specialized plan's static promise deoptimizes its position inside
   [marshal_args] or [marshal_ret]: [deopt] widens the site's latest
   plan in the fabric's plan store and hands back the version the write
   replays with. *)

open Rmi_wire
module Value = Rmi_serial.Value
module Codec = Rmi_serial.Codec
module Arena = Rmi_serial.Arena
module Plan = Rmi_core.Plan
module Plan_store = Rmi_core.Plan_store
module Metrics = Rmi_stats.Metrics
module Transport = Rmi_net.Transport

(* library log source; silent unless the application enables it *)
let log_src = Logs.Src.create "rmi.runtime" ~doc:"RMI runtime events"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* a [Log.debug] message closure allocates whether or not it prints:
   hot paths build it only when the source's level lets it through *)
let debug_on () =
  match Logs.Src.level log_src with Some Logs.Debug -> true | _ -> false

(* int-keyed tables hash and bucket an int exactly as the polymorphic
   [Hashtbl] does, so a fold visits entries in the same order; they
   compare keys without the polymorphic compare and build nothing per
   lookup *)
module Itbl = Hashtbl.Make (Int)

exception Remote_exception of string

type wwrite = Codec.wctx -> Msgbuf.writer -> Value.t -> unit
type rread = Codec.rctx -> Msgbuf.reader -> cand:Value.t -> Value.t

(* a plan partially evaluated into closures via Codec.compile_write and
   Codec.compile_read — the runtime analogue of the paper's generated
   marshaler code — with this node's effective optimization flags *)
type version = {
  plan : Plan.t;
  write_args : wwrite array;
  read_args : rread array;
  write_ret : wwrite option;
  read_ret : rread option;
  cycle_args : bool;
  cycle_ret : bool;
  (* The argument positions that decode from the site's argument arena:
     on a reuse config, those whose escape verdict lets them outlive no
     call (the paper's argument reuse); otherwise all of them, when the
     arena knob is on and the plan's non_escaping verdict proves no
     argument outlives its dispatch.  A reply decodes from the site's
     return arena only under the paper's return-value reuse: otherwise
     return values escape to the application and stay on the GC heap. *)
  arena_args : bool array;
  arena_any : bool;  (* some position of [arena_args] *)
  arena_ret : bool;
  (* one codec context per phase, kept and reset before each use under
     zero-copy framing, so a hot site stops allocating contexts and
     handle tables.  Safe because a node's marshal/unmarshal brackets
     run to completion on its own thread before any nested use. *)
  wargs : Codec.wctx option ref;
  rargs : Codec.rctx option ref;
  wret : Codec.wctx option ref;
  rret : Codec.rctx option ref;
}

type t = {
  callsite : int;
  (* plan version -> compiled: a node may have to decode several
     encoding generations of one site concurrently *)
  versions : version Itbl.t;
  (* what the next call encodes with: the adaptive tier's choice, or
     the effective plan as of plan-store generation [gen]; [None]
     before the first call and after a crash *)
  mutable current : version option;
  mutable gen : int;
  mutable calls : int;
  mutable promoted : bool;
  (* the recycling arenas of served arguments and of replies, made on
     first use; on a reuse config they charge the paper's reused objects
     (Figure 13's temp_arr, by shape rather than by position) *)
  mutable args_arena : Arena.t option;
  mutable ret_arena : Arena.t option;
}

(* what every phase of one node reads *)
type env = {
  net : Transport.t;
  nid : int;
  meta : Rmi_serial.Class_meta.t;
  cfg : Config.t;
  plans : Plan_store.t;
  sites : t Itbl.t;
  mutable trace : Trace.t option;
}

let callsite s = s.callsite
let plan v = v.plan
let metrics e = Transport.metrics e.net
let site_mode e = e.cfg.Config.serializer = Config.Site_specific
let adaptive e = site_mode e && e.cfg.Config.tier = Config.Adaptive
let reuse e = site_mode e && e.cfg.Config.reuse

(* for the rare events; a hot path matches on [e.trace] itself so that
   without a trace the event is never built *)
let trace_event e event =
  match e.trace with Some tr -> Trace.record tr event | None -> ()

(* ------------------------------------------------------------------ *)
(* message writers and sends                                          *)
(* ------------------------------------------------------------------ *)

let gap = Rmi_net.Envelope.gap

(* a pooled writer with the envelope gap reserved, so the reliable
   transport can back-fill its header in place *)
let acquire e =
  let w = Msgbuf.Pool.acquire_writer (Transport.pool e.net) in
  ignore (Msgbuf.reserve w gap : int);
  w

let release e w = Msgbuf.Pool.release_writer (Transport.pool e.net) w

(* the logical message sitting in [w] after the gap, snapshotted; every
   such materialization is a physical payload copy and is charged to
   [bytes_copied] *)
let msg_of_writer e w =
  let msg = Msgbuf.sub w ~off:gap ~len:(Msgbuf.length w - gap) in
  Metrics.add (metrics e) Bytes_copied (Bytes.length msg);
  msg

let reader_of_writer w = Msgbuf.reader_of_writer ~off:gap w

(* one event per envelope the batching layer shipped *)
let rec trace_flushes tr machine = function
  | [] -> ()
  | (dest, msgs, bytes) :: rest ->
      Trace.record tr (Trace.Batch_flush { machine; dest; msgs; bytes });
      trace_flushes tr machine rest

let send_msg e ~dest payload =
  if e.cfg.Config.batching then begin
    let flushed = Transport.send_buffered e.net ~src:e.nid ~dest payload in
    match e.trace with Some tr -> trace_flushes tr e.nid flushed | None -> ()
  end
  else Transport.send e.net ~src:e.nid ~dest payload

(* ship the message sitting in [w].  Without batching, the reliable
   transport frames the writer's payload in place ([Reliable]'s
   [send_writer]). *)
let send_from_writer e ~dest w =
  if e.cfg.Config.batching then send_msg e ~dest (msg_of_writer e w)
  else Transport.send_writer e.net ~src:e.nid ~dest w ~payload_off:gap

(* [send_from_writer] when the caller already materialized the message
   as [snapshot] (a reply-cache entry), so a path that needs the bytes
   anyway never copies twice; under the raw transport the one snapshot
   doubles as the wire frame.  A request needs no snapshot: its call
   keeps the writer for its retries. *)
let send_snapshot e ~dest snapshot w =
  if e.cfg.Config.batching then send_msg e ~dest snapshot
  else if not (Transport.is_reliable e.net) then
    Transport.send e.net ~src:e.nid ~dest snapshot
  else Transport.send_writer e.net ~src:e.nid ~dest w ~payload_off:gap

(* ship whatever this machine has coalesced; a no-op when batching is
   off or the buffers are empty *)
let flush e =
  if e.cfg.Config.batching then begin
    let flushed = Transport.flush e.net ~src:e.nid in
    match e.trace with Some tr -> trace_flushes tr e.nid flushed | None -> ()
  end

(* ------------------------------------------------------------------ *)
(* sites, versions and the tiers                                       *)
(* ------------------------------------------------------------------ *)

(* this node's record for [callsite], made on first use *)
let get e callsite =
  match Itbl.find e.sites callsite with
  | s -> s
  | exception Not_found ->
      let s =
        { callsite; versions = Itbl.create 2; current = None; gen = -1;
          calls = 0; promoted = false; args_arena = None; ret_arena = None }
      in
      Itbl.replace e.sites callsite s;
      s

let drop_arenas s =
  s.args_arena <- None;
  s.ret_arena <- None

let reset_caches e = Itbl.iter (fun _ s -> drop_arenas s) e.sites

(* tier state and arenas are process memory and die with a crashed
   node, which re-warms every site from the generic plan; the compiled
   versions are a cache of what the plans say and stay *)
let crash e =
  Itbl.iter
    (fun _ s ->
      drop_arenas s;
      s.calls <- 0;
      s.promoted <- false;
      s.current <- None)
    e.sites

let compile e (plan : Plan.t) =
  let defs = plan.Plan.defs in
  let elide = site_mode e && e.cfg.Config.elide_cycle in
  let arena_args =
    if reuse e then plan.Plan.reuse_args
    else
      Array.make (Array.length plan.Plan.args)
        (e.cfg.Config.arena && site_mode e && plan.Plan.non_escaping)
  in
  {
    plan;
    write_args = Array.map (Codec.compile_write ~defs) plan.Plan.args;
    read_args = Array.map (Codec.compile_read ~defs) plan.Plan.args;
    write_ret = Option.map (Codec.compile_write ~defs) plan.Plan.ret;
    read_ret = Option.map (Codec.compile_read ~defs) plan.Plan.ret;
    cycle_args = (not elide) || plan.Plan.cycle_args;
    cycle_ret = (not elide) || plan.Plan.cycle_ret;
    arena_args;
    arena_any = Array.exists Fun.id arena_args;
    arena_ret = reuse e && plan.Plan.reuse_ret;
    wargs = ref None;
    rargs = ref None;
    wret = ref None;
    rret = ref None;
  }

(* [plan] compiled at [s], once per version.  A cached version of
   another arity is recompiled: class mode shares callsite -1 (and
   version 0) across methods of every arity. *)
let intern e s (plan : Plan.t) =
  match Itbl.find s.versions plan.Plan.version with
  | v when Array.length v.plan.Plan.args = Array.length plan.Plan.args -> v
  | _ | (exception Not_found) ->
      let v = compile e plan in
      Itbl.replace s.versions plan.Plan.version v;
      v

(* the plan store's latest plan for [s], or the generic tag-carrying
   one; always the generic one under [Class_specific] *)
let effective_plan e s ~nargs ~has_ret =
  match
    if site_mode e then Plan_store.latest e.plans ~site:s.callsite else None
  with
  | Some p -> p
  | None ->
      if site_mode e then
        Log.warn (fun m ->
            m
              "machine %d: no compiler plan for call site %d; falling back \
               to the generic tag-carrying plan"
              e.nid s.callsite);
      Plan.generic ~callsite:s.callsite ~nargs ~has_ret

(* the version a payload tagged [ver] was encoded with: compiled here,
   or in the plan store.  Version 0 usually means the generic encoding,
   but a hand-built plan (and the class-mode pseudo-plan) may carry
   version 0 with its own steps: the site's effective plan decides.
   @raise Not_found when neither has it *)
let version e s ~nargs ~has_ret ver =
  match Itbl.find s.versions ver with
  | v when ver <> Plan.generic_version || Array.length v.plan.Plan.args = nargs
    ->
      v
  | _ | (exception Not_found) -> (
      if ver = Plan.generic_version then
        let p = effective_plan e s ~nargs ~has_ret in
        intern e s
          (if p.Plan.version = ver then p
           else Plan.generic ~callsite:s.callsite ~nargs ~has_ret)
      else
        match Plan_store.version e.plans ~site:s.callsite ver with
        | Some p -> intern e s p
        | None -> raise Not_found)

let current s =
  match s.current with
  | Some v -> v
  | None -> invalid_arg "Site.current: the site has not been called"

let set_current s v =
  s.current <- Some v;
  v

(* a widened version — made here, or announced by a peer's reply —
   becomes the site's encoding once the tier has promoted it.  A
   site's versions form a chain, each widening the last, so a higher
   number widens every position a lower one does. *)
let adopt s v =
  match s.current with
  | Some c when s.promoted && v.plan.Plan.version > c.plan.Plan.version ->
      s.current <- Some v
  | _ -> ()

(* the site crossed the hot threshold: switch it to its specialized
   plan, the plan store's latest (compiling on demand through the pass
   manager); without one it stays generic *)
let promote e s ~nargs =
  s.promoted <- true;
  let plan = Plan_store.get e.plans ~site:s.callsite in
  (match plan with
  | Some (_, Plan_store.Hit) -> Metrics.add (metrics e) Plan_cache_hits 1
  | Some (_, (Plan_store.Compiled | Plan_store.Invalidated)) ->
      Metrics.add (metrics e) Plan_cache_misses 1
  | Some (_, Plan_store.Installed) | None -> ());
  match plan with
  | Some (p, _)
    when p.Plan.version > Plan.generic_version
         && Array.length p.Plan.args = nargs ->
      s.current <- Some (intern e s p);
      Metrics.add (metrics e) Tier_promotions 1;
      trace_event e
        (Trace.Promote
           { machine = e.nid; callsite = s.callsite; calls = s.calls;
             version = p.Plan.version })
  | _ -> ()

(* the version an outgoing call at [s] encodes with.  The adaptive tier
   counts the call and promotes a hot site; otherwise the site follows
   the plan store, re-reading it only after its generation moves. *)
let encoding e s ~nargs ~has_ret =
  if adaptive e then begin
    s.calls <- s.calls + 1;
    Metrics.record_site_call (metrics e) ~callsite:s.callsite;
    if (not s.promoted) && s.calls >= e.cfg.Config.hot_threshold then
      promote e s ~nargs;
    match s.current with
    | Some v -> v
    | None ->
        set_current s
          (intern e s (Plan.generic ~callsite:s.callsite ~nargs ~has_ret))
  end
  else
    match s.current with
    | Some v
      when s.gen = Plan_store.generation e.plans
           && Array.length v.plan.Plan.args = nargs ->
        v
    | _ ->
        s.gen <- Plan_store.generation e.plans;
        set_current s (intern e s (effective_plan e s ~nargs ~has_ret))

(* A runtime value broke [v]'s static promise at [pos]: widen that
   position of the site's latest plan in the plan store, so every node
   decodes with it (and this node re-learns it after a restart), and
   return the version to replay the write with.  When another call
   already widened [pos] — a request sent before the widening still
   carries the plan it replaced — the store hands the latest back
   unchanged and nothing is counted.  The generic plan cannot confuse
   types, and without the adaptive tier nothing deoptimizes: both
   re-raise. *)
let deopt e s v pos msg =
  if v.plan.Plan.version = Plan.generic_version || not (adaptive e) then
    raise (Codec.Type_confusion msg);
  let widened, made = Plan_store.widen e.plans ~site:s.callsite pos in
  if made then begin
    let position = Format.asprintf "%a" Plan.pp_position pos in
    Metrics.add (metrics e) Tier_deopts 1;
    trace_event e
      (Trace.Deopt
         { machine = e.nid; callsite = s.callsite; position;
           version = widened.Plan.version });
    Log.debug (fun m ->
        m "machine %d: deopt site=%d at %s -> plan v%d" e.nid s.callsite
          position widened.Plan.version)
  end;
  let v' = intern e s widened in
  adopt s v';
  v'

(* ------------------------------------------------------------------ *)
(* codec contexts and arenas                                           *)
(* ------------------------------------------------------------------ *)

(* the context in [slot], reset for one more use, or a new one from
   [make], kept there *)
let ctx slot reset make e v ~cycle =
  match !slot with
  | Some c ->
      reset c;
      c
  | None ->
      let c = make e v ~cycle in
      slot := Some c;
      c

let make_wctx e v ~cycle =
  Codec.make_wctx ~defs:v.plan.Plan.defs e.meta (metrics e) ~cycle

let make_rctx e v ~cycle =
  Codec.make_rctx ~defs:v.plan.Plan.defs e.meta (metrics e) ~cycle

(* [slot], one of a site's arenas, made on first use and reset for one
   more decode.  A reuse config's arenas charge the paper's reuse
   counters; any other charges the arena's own. *)
let arena e slot =
  let slot =
    match slot with
    | Some _ -> slot
    | None ->
        Some
          (if reuse e then Arena.create_reuse ()
           else Arena.create ~metrics:(metrics e))
  in
  Option.iter Arena.reset slot;
  slot

(* ------------------------------------------------------------------ *)
(* the marshaling phases                                               *)
(* ------------------------------------------------------------------ *)

exception Confused of Plan.position * string

(* the request of call [seq], encoded with [s]'s current version: its
   header, written from the call's fields, then one write per argument.
   A deopt replays it, so [current s] is afterwards the version the
   request carries. *)
let rec marshal_args e s ~epoch ~seq ~obj ~meth args =
  let v = current s in
  let w = acquire e in
  match
    Protocol.write_fields w ~kind:Protocol.Request ~src:e.nid ~epoch ~seq
      ~target_obj:obj ~method_id:meth ~callsite:s.callsite
      ~nargs:(Array.length args) ~plan_ver:v.plan.Plan.version;
    let wctx = ctx v.wargs Codec.reset_wctx make_wctx e v ~cycle:v.cycle_args in
    for i = 0 to Array.length v.write_args - 1 do
      match v.write_args.(i) wctx w args.(i) with
      | () -> ()
      | exception Codec.Type_confusion msg -> raise (Confused (`Arg i, msg))
    done
  with
  | () -> w
  | exception Confused (pos, msg) ->
      release e w;
      ignore (deopt e s v pos msg : version);
      marshal_args e s ~epoch ~seq ~obj ~meth args
  | exception ex ->
      release e w;
      raise ex

(* the served arguments, decoded with [v], at [arena_args] positions
   from the site's argument arena.  The arena's previous dispatch is
   reclaimed here rather than on the dispatch's many exits — equivalent,
   since the escape verdict proves nothing kept it.  ([compile_read]'s
   [cand] label is unread.) *)
let unmarshal_args e s v r =
  if v.arena_any then s.args_arena <- arena e s.args_arena;
  let rctx = ctx v.rargs Codec.reset_rctx make_rctx e v ~cycle:v.cycle_args in
  let reads = v.read_args in
  let nargs = Array.length reads in
  let roots = Array.make nargs Value.Null in
  for i = 0 to nargs - 1 do
    Codec.set_arena rctx (if v.arena_args.(i) then s.args_arena else None);
    roots.(i) <- reads.(i) rctx r ~cand:Value.Null
  done;
  roots

(* the reply to the request with these header fields: an [Ack], or a
   [Reply] carrying [ret] encoded with [v] (a void method under a
   value-bearing plan replies null).  A deopt replays it with the
   widened version, whose number the reply then carries. *)
let rec marshal_ret e s v ~src ~epoch ~seq ~obj ~meth ~nargs ret =
  let w = acquire e in
  match
    Protocol.write_fields w
      ~kind:
        (if Option.is_none v.write_ret then Protocol.Ack else Protocol.Reply)
      ~src ~epoch ~seq ~target_obj:obj ~method_id:meth ~callsite:s.callsite
      ~nargs ~plan_ver:v.plan.Plan.version;
    match v.write_ret with
    | None -> ()
    | Some write ->
        write
          (ctx v.wret Codec.reset_wctx make_wctx e v ~cycle:v.cycle_ret)
          w
          (Option.value ret ~default:Value.Null)
  with
  | () -> w
  | exception Codec.Type_confusion msg ->
      release e w;
      marshal_ret e s (deopt e s v `Ret msg) ~src ~epoch ~seq ~obj ~meth ~nargs
        ret
  | exception ex ->
      release e w;
      raise ex

(* the value a reply of [kind] carries, decoded with the version it
   announces: a server that deoptimized mid-reply answers with a newer
   one than the request carried, which the site adopts *)
let unmarshal_ret e s v ~kind ~plan_ver r =
  let v =
    if plan_ver = v.plan.Plan.version then v
    else
      match
        version e s
          ~nargs:(Array.length v.plan.Plan.args)
          ~has_ret:(Option.is_some v.plan.Plan.ret)
          plan_ver
      with
      | v' ->
          adopt s v';
          v'
      | exception Not_found ->
          raise
            (Remote_exception
               (Printf.sprintf
                  "machine %d: reply for site %d uses unknown plan version %d"
                  e.nid s.callsite plan_ver))
  in
  match kind with
  | Protocol.Ack -> None
  | Protocol.Exn_reply -> raise (Remote_exception (Msgbuf.read_string r))
  | Protocol.Reply -> (
      match v.read_ret with
      | None -> None
      | Some read ->
          let rctx =
            ctx v.rret Codec.reset_rctx make_rctx e v ~cycle:v.cycle_ret
          in
          if v.arena_ret then s.ret_arena <- arena e s.ret_arena;
          Codec.set_arena rctx (if v.arena_ret then s.ret_arena else None);
          Some (read rctx r ~cand:Value.Null))
  | Protocol.Request | Protocol.Reject ->
      (* requests are served, rejects resent, before unmarshaling *)
      assert false
