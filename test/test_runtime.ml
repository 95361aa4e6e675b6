(* End-to-end RMI runtime tests: calls across the simulated cluster in
   both execution modes, under every optimization configuration. *)

open Rmi_runtime
module Value = Rmi_serial.Value
module Metrics = Rmi_stats.Metrics
module Plan = Rmi_core.Plan

let meta =
  Rmi_serial.Class_meta.make
    [
      ("Cell", [ ("next", Jir.Types.Tobject 0) ]);
      ("Box", [ ("v", Jir.Types.Tint) ]);
      ("Pair", [ ("a", Jir.Types.Tobject 0); ("b", Jir.Types.Tobject 0) ]);
    ]

let no_plans () : (int, Plan.t) Hashtbl.t = Hashtbl.create 4

let make_fabric ?(mode = Fabric.Sync) ?(plans = no_plans ()) ?(config = Config.class_)
    ?(n = 2) () =
  let metrics = Metrics.create () in
  Fabric.create ~mode ~n ~meta ~config ~plans ~metrics ()

(* exported method ids for the tests *)
let m_incr = 1 (* Box -> Box with v+1 *)
let m_sum = 2 (* double[] -> double *)
let m_void = 3 (* fire and forget *)
let m_boom = 4 (* always raises *)

let export_all fabric =
  for i = 0 to Fabric.size fabric - 1 do
    let node = Fabric.node fabric i in
    Node.export node ~obj:0 ~meth:m_incr ~has_ret:true (fun args ->
        match args.(0) with
        | Value.Obj o ->
            let b = Value.new_obj ~cls:1 ~nfields:1 in
            (b.fields.(0) <-
               (match o.fields.(0) with
               | Value.Int v -> Value.Int (v + 1)
               | _ -> Value.Int 0));
            Some (Value.Obj b)
        | _ -> failwith "expected Box");
    Node.export node ~obj:0 ~meth:m_sum ~has_ret:true (fun args ->
        match args.(0) with
        | Value.Darr a ->
            Some (Value.Double (Array.fold_left ( +. ) 0.0 a.d))
        | _ -> failwith "expected double[]");
    Node.export node ~obj:0 ~meth:m_void ~has_ret:false (fun _ -> None);
    Node.export node ~obj:0 ~meth:m_boom ~has_ret:true (fun _ ->
        failwith "kaboom")
  done

let box v =
  let b = Value.new_obj ~cls:1 ~nfields:1 in
  b.fields.(0) <- Value.Int v;
  Value.Obj b

let call_roundtrip_all_configs () =
  List.iter
    (fun config ->
      let fabric = make_fabric ~config () in
      export_all fabric;
      Fabric.run fabric (fun fabric ->
          let caller = Fabric.node fabric 0 in
          let dest = Remote_ref.make ~machine:1 ~obj:0 in
          match
            Node.call caller ~dest ~meth:m_incr ~callsite:100 ~has_ret:true
              [| box 41 |]
          with
          | Some (Value.Obj o) -> (
              match o.fields.(0) with
              | Value.Int 42 -> ()
              | v ->
                  Alcotest.failf "[%s] expected 42, got %a" config.Config.name
                    Value.pp v)
          | v ->
              Alcotest.failf "[%s] unexpected result %s" config.Config.name
                (match v with None -> "None" | Some v -> Format.asprintf "%a" Value.pp v)))
    Config.all

let parallel_mode_roundtrip () =
  let fabric = make_fabric ~mode:Fabric.Parallel () in
  export_all fabric;
  Fabric.run fabric (fun fabric ->
      let caller = Fabric.node fabric 0 in
      let dest = Remote_ref.make ~machine:1 ~obj:0 in
      for i = 0 to 49 do
        match
          Node.call caller ~dest ~meth:m_incr ~callsite:100 ~has_ret:true
            [| box i |]
        with
        | Some (Value.Obj o) ->
            Alcotest.(check bool)
              (Printf.sprintf "call %d" i)
              true
              (o.fields.(0) = Value.Int (i + 1))
        | _ -> Alcotest.fail "bad reply"
      done)

let remote_exception_propagates () =
  let fabric = make_fabric () in
  export_all fabric;
  let caller = Fabric.node fabric 0 in
  let dest = Remote_ref.make ~machine:1 ~obj:0 in
  Alcotest.(check bool) "raises Remote_exception" true
    (try
       ignore (Node.call caller ~dest ~meth:m_boom ~callsite:1 ~has_ret:true [||]);
       false
     with Node.Remote_exception msg -> msg = "kaboom")

let unknown_method_reports () =
  (* an unknown (obj, method) pair must produce a clean remote error on
     the caller, not take down the serving machine *)
  List.iter
    (fun mode ->
      let fabric = make_fabric ~mode () in
      export_all fabric;
      Fabric.run fabric (fun fabric ->
          let caller = Fabric.node fabric 0 in
          let dest = Remote_ref.make ~machine:1 ~obj:9 in
          Alcotest.(check bool) "raises" true
            (try
               ignore
                 (Node.call caller ~dest ~meth:77 ~callsite:1 ~has_ret:true [||]);
               false
             with Node.Remote_exception _ -> true);
          (* the machine still serves afterwards *)
          let ok = Remote_ref.make ~machine:1 ~obj:0 in
          match
            Node.call caller ~dest:ok ~meth:m_incr ~callsite:1 ~has_ret:true
              [| box 1 |]
          with
          | Some (Value.Obj o) ->
              Alcotest.(check bool) "still alive" true
                (o.fields.(0) = Value.Int 2)
          | _ -> Alcotest.fail "machine died"))
    [ Fabric.Sync; Fabric.Parallel ]

let local_call_clones () =
  (* an RMI to an object on the same machine must still deep-copy *)
  let fabric = make_fabric () in
  let node0 = Fabric.node fabric 0 in
  let received = ref Value.Null in
  Node.export node0 ~obj:5 ~meth:m_void ~has_ret:false (fun args ->
      received := args.(0);
      (match args.(0) with
      | Value.Obj o -> o.fields.(0) <- Value.Int 999 (* mutate the copy *)
      | _ -> ());
      None);
  let mine = box 7 in
  let dest = Remote_ref.make ~machine:0 ~obj:5 in
  ignore (Node.call node0 ~dest ~meth:m_void ~callsite:2 ~has_ret:false [| mine |]);
  (* callee got an equal value... *)
  (match !received with
  | Value.Obj o ->
      Alcotest.(check bool) "callee saw 999 after its own mutation" true
        (o.fields.(0) = Value.Int 999)
  | _ -> Alcotest.fail "no value received");
  (* ...but the caller's object is untouched *)
  (match mine with
  | Value.Obj o -> Alcotest.(check bool) "caller untouched" true (o.fields.(0) = Value.Int 7)
  | _ -> assert false);
  let s = Metrics.snapshot (Fabric.metrics fabric) in
  Alcotest.(check int) "counted as local rpc" 1 s.Metrics.local_rpcs;
  Alcotest.(check int) "no remote rpcs" 0 s.Metrics.remote_rpcs;
  Alcotest.(check int) "no network messages" 0 s.Metrics.msgs_sent

let ack_only_when_return_ignored () =
  (* a site plan with ret = None must produce a smaller reply than a
     class-mode call that serializes the unused return value *)
  let bytes_with config plans =
    let fabric = make_fabric ~config ~plans () in
    export_all fabric;
    let caller = Fabric.node fabric 0 in
    let dest = Remote_ref.make ~machine:1 ~obj:0 in
    ignore
      (Node.call caller ~dest ~meth:m_incr ~callsite:7 ~has_ret:true [| box 1 |]);
    (Metrics.snapshot (Fabric.metrics fabric)).Metrics.bytes_sent
  in
  let plans = no_plans () in
  let site_plan =
    {
      (Plan.generic ~callsite:7 ~nargs:1 ~has_ret:false) with
      Plan.args = [| Plan.S_obj { cls = 1; fields = [| Plan.S_int |] } |];
      cycle_args = false;
      cycle_ret = false;
    }
  in
  Hashtbl.replace plans 7 site_plan;
  let class_bytes = bytes_with Config.class_ (no_plans ()) in
  let site_bytes = bytes_with Config.site_cycle plans in
  Alcotest.(check bool)
    (Printf.sprintf "site %d < class %d" site_bytes class_bytes)
    true (site_bytes < class_bytes)

let reuse_cache_on_callee () =
  (* repeated calls at one site with a reusable plan: after the first
     call, the callee allocates nothing *)
  let plans = no_plans () in
  let plan =
    {
      Plan.callsite = 9;
      defs = [||];
      args = [| Plan.S_double_array |];
      ret = Some Plan.S_double;
      cycle_args = false;
      cycle_ret = false;
      reuse_args = [| true |];
      reuse_ret = false;
      non_escaping = false;
      version = 1;
      polluted = false;
    }
  in
  Hashtbl.replace plans 9 plan;
  let fabric = make_fabric ~config:Config.site_reuse_cycle ~plans () in
  export_all fabric;
  let caller = Fabric.node fabric 0 in
  let dest = Remote_ref.make ~machine:1 ~obj:0 in
  let payload () =
    let a = Value.new_darr 100 in
    Array.iteri (fun i _ -> a.d.(i) <- float_of_int i) a.d;
    Value.Darr a
  in
  let call () =
    match Node.call caller ~dest ~meth:m_sum ~callsite:9 ~has_ret:true [| payload () |] with
    | Some (Value.Double d) -> d
    | _ -> Alcotest.fail "bad reply"
  in
  let first = call () in
  let s1 = Metrics.snapshot (Fabric.metrics fabric) in
  let second = call () in
  let third = call () in
  let s3 = Metrics.snapshot (Fabric.metrics fabric) in
  Alcotest.(check (float 1e-9)) "sum stable" first second;
  Alcotest.(check (float 1e-9)) "sum stable 2" first third;
  Alcotest.(check int) "first call allocated once" 1 s1.Metrics.allocs;
  Alcotest.(check int) "later calls reused" 2
    (Metrics.diff s3 s1).Metrics.reused_objs;
  Alcotest.(check int) "no further allocs" 0 (Metrics.diff s3 s1).Metrics.allocs

let nested_rmi_no_deadlock () =
  (* machine 0 calls machine 1 whose handler calls back into machine 0:
     the GM-style polling in await_reply must serve the nested request *)
  List.iter
    (fun mode ->
      let fabric = make_fabric ~mode ~n:2 () in
      let node0 = Fabric.node fabric 0 and node1 = Fabric.node fabric 1 in
      Node.export node0 ~obj:0 ~meth:m_incr ~has_ret:true (fun args ->
          match args.(0) with
          | Value.Obj o -> (
              match o.fields.(0) with
              | Value.Int v -> Some (box (v + 1))
              | _ -> failwith "bad box")
          | _ -> failwith "bad arg");
      Node.export node1 ~obj:0 ~meth:m_sum ~has_ret:true (fun args ->
          (* bounce back to machine 0 *)
          let dest = Remote_ref.make ~machine:0 ~obj:0 in
          match
            Node.call node1 ~dest ~meth:m_incr ~callsite:30 ~has_ret:true
              [| args.(0) |]
          with
          | Some v -> Some v
          | None -> failwith "no nested reply");
      Fabric.run fabric (fun fabric ->
          let caller = Fabric.node fabric 0 in
          let dest = Remote_ref.make ~machine:1 ~obj:0 in
          match
            Node.call caller ~dest ~meth:m_sum ~callsite:31 ~has_ret:true
              [| box 10 |]
          with
          | Some (Value.Obj o) ->
              Alcotest.(check bool) "nested result" true (o.fields.(0) = Value.Int 11)
          | _ -> Alcotest.fail "bad nested reply"))
    [ Fabric.Sync; Fabric.Parallel ]

let rpc_counters () =
  let fabric = make_fabric () in
  export_all fabric;
  let caller = Fabric.node fabric 0 in
  let remote = Remote_ref.make ~machine:1 ~obj:0 in
  let local = Remote_ref.make ~machine:0 ~obj:0 in
  for _ = 1 to 5 do
    ignore (Node.call caller ~dest:remote ~meth:m_void ~callsite:3 ~has_ret:false [| box 0 |])
  done;
  for _ = 1 to 3 do
    ignore (Node.call caller ~dest:local ~meth:m_void ~callsite:4 ~has_ret:false [| box 0 |])
  done;
  let s = Metrics.snapshot (Fabric.metrics fabric) in
  Alcotest.(check int) "remote rpcs" 5 s.Metrics.remote_rpcs;
  Alcotest.(check int) "local rpcs" 3 s.Metrics.local_rpcs;
  (* each remote rpc = request + reply message *)
  Alcotest.(check int) "messages" 10 s.Metrics.msgs_sent

let registry_round_robin () =
  let fabric = make_fabric ~n:3 () in
  let reg = Registry.create fabric in
  let spec =
    [ { Registry.meth = m_incr; has_ret = true;
        handler =
          (fun args ->
            match args.(0) with
            | Value.Obj o -> (
                match o.fields.(0) with
                | Value.Int v -> Some (box (v + 1))
                | _ -> failwith "bad box")
            | _ -> failwith "bad arg") } ]
  in
  let refs = List.init 6 (fun _ -> Registry.new_remote reg spec) in
  (* placement cycles over the machines, object ids are unique *)
  let machines = List.map (fun r -> r.Remote_ref.machine) refs in
  Alcotest.(check (list int)) "round robin" [ 0; 1; 2; 0; 1; 2 ] machines;
  let objs = List.map (fun r -> r.Remote_ref.obj) refs in
  Alcotest.(check (list int)) "unique ids" [ 0; 1; 2; 3; 4; 5 ] objs;
  Alcotest.(check int) "exported count" 6 (Registry.exported reg);
  (* every placed object is callable *)
  let caller = Fabric.node fabric 0 in
  List.iter
    (fun dest ->
      match Node.call caller ~dest ~meth:m_incr ~callsite:50 ~has_ret:true [| box 1 |] with
      | Some (Value.Obj o) ->
          Alcotest.(check bool) "answered" true (o.fields.(0) = Value.Int 2)
      | _ -> Alcotest.fail "no reply")
    refs;
  Alcotest.(check bool) "explicit placement" true
    ((Registry.new_remote_on reg ~machine:2 spec).Remote_ref.machine = 2)

let reset_caches_forgets_candidates () =
  (* after reset, the next call at a reuse-enabled site must allocate
     afresh instead of recycling *)
  let plans = no_plans () in
  let plan =
    {
      Plan.callsite = 21;
      defs = [||];
      args = [| Plan.S_double_array |];
      ret = None;
      cycle_args = false;
      cycle_ret = false;
      reuse_args = [| true |];
      reuse_ret = false;
      non_escaping = false;
      version = 1;
      polluted = false;
    }
  in
  Hashtbl.replace plans 21 plan;
  let fabric = make_fabric ~config:Config.site_reuse_cycle ~plans () in
  let callee = Fabric.node fabric 1 in
  Node.export callee ~obj:0 ~meth:m_void ~has_ret:false (fun _ -> None);
  let caller = Fabric.node fabric 0 in
  let payload () = Value.Darr (Value.new_darr 16) in
  let call () =
    ignore
      (Node.call caller
         ~dest:(Remote_ref.make ~machine:1 ~obj:0)
         ~meth:m_void ~callsite:21 ~has_ret:false [| payload () |])
  in
  call ();
  call ();
  let s1 = Metrics.snapshot (Fabric.metrics fabric) in
  Alcotest.(check int) "second call reused" 1 s1.Metrics.reused_objs;
  Node.reset_caches callee;
  call ();
  let s2 = Metrics.snapshot (Fabric.metrics fabric) in
  Alcotest.(check int) "post-reset call allocates" 0
    (Metrics.diff s2 s1).Metrics.reused_objs;
  Alcotest.(check int) "fresh allocation" 1 (Metrics.diff s2 s1).Metrics.allocs

(* Reuse over a previous graph with a cycle or sharing.  The site is
   reuse-licensed and keeps its cycle table; the first call leaves a
   graph whose nodes are linked differently from the second call's, and
   the handler must see exactly what the second call sent. *)
let cell_defs = [| Plan.S_obj { cls = 0; fields = [| Plan.S_ref 0 |] } |]

let cell next =
  let c = Value.new_obj ~cls:0 ~nfields:1 in
  c.fields.(0) <- next;
  c

let rec cells n = if n = 0 then Value.Null else Value.Obj (cell (cells (n - 1)))

(* the distinct cells down a [next] chain, up to null or a repeat *)
let distinct_cells v =
  let rec go seen = function
    | Value.Obj o when not (List.memq o seen) -> go (o :: seen) o.fields.(0)
    | _ -> List.length seen
  in
  go [] v

(* two calls at a reuse site with one argument of [step]; [check] runs
   in the handler on the second call's argument *)
let reuse_after ~step ~first ~second check =
  let plans = no_plans () in
  Hashtbl.replace plans 40
    {
      Plan.callsite = 40;
      defs = cell_defs;
      args = [| step |];
      ret = None;
      cycle_args = true;
      cycle_ret = false;
      reuse_args = [| true |];
      reuse_ret = false;
      non_escaping = true;
      version = 1;
      polluted = false;
    };
  let fabric = make_fabric ~config:Config.site_reuse_cycle ~plans () in
  let calls = ref 0 in
  Node.export (Fabric.node fabric 1) ~obj:0 ~meth:m_void ~has_ret:false
    (fun args ->
      incr calls;
      if !calls = 2 then check args.(0);
      None);
  let call v =
    ignore
      (Node.call (Fabric.node fabric 0)
         ~dest:(Remote_ref.make ~machine:1 ~obj:0)
         ~meth:m_void ~callsite:40 ~has_ret:false [| v |])
  in
  call first;
  call second;
  Alcotest.(check int) "both calls served" 2 !calls;
  Alcotest.(check bool) "the second call reused nodes" true
    ((Metrics.snapshot (Fabric.metrics fabric)).Metrics.reused_objs > 0)

let reuse_after_ring () =
  let c0 = cell Value.Null in
  c0.fields.(0) <- Value.Obj (cell (Value.Obj c0));
  let list = cells 3 in
  reuse_after ~step:(Plan.S_ref 0) ~first:(Value.Obj c0) ~second:list
    (fun got ->
      Alcotest.(check int) "3 distinct cells" 3 (distinct_cells got);
      Alcotest.(check bool) "the list sent" true (Rmi_serial.Equality.equal list got))

let reuse_after_shared_pair () =
  let pair a b =
    let p = Value.new_obj ~cls:2 ~nfields:2 in
    p.fields.(0) <- a;
    p.fields.(1) <- b;
    Value.Obj p
  in
  let shared = Value.Obj (cell Value.Null) in
  let second = pair (cells 1) (cells 2) in
  reuse_after
    ~step:(Plan.S_obj { cls = 2; fields = [| Plan.S_ref 0; Plan.S_ref 0 |] })
    ~first:(pair shared shared) ~second
    (fun got ->
      (match got with
      | Value.Obj p ->
          Alcotest.(check (pair int int)) "two distinct chains" (1, 2)
            (distinct_cells p.fields.(0), distinct_cells p.fields.(1));
          Alcotest.(check bool) "no cell shared" true
            (match (p.fields.(0), p.fields.(1)) with
            | Value.Obj a, Value.Obj b -> a != b
            | _ -> false)
      | v -> Alcotest.failf "not a pair: %a" Value.pp v);
      Alcotest.(check bool) "the pair sent" true
        (Rmi_serial.Equality.equal second got))

let trace_records_events () =
  let fabric = make_fabric () in
  export_all fabric;
  let tr = Trace.create () in
  Node.set_trace (Fabric.node fabric 0) tr;
  Node.set_trace (Fabric.node fabric 1) tr;
  let caller = Fabric.node fabric 0 in
  let remote = Remote_ref.make ~machine:1 ~obj:0 in
  let local = Remote_ref.make ~machine:0 ~obj:0 in
  for _ = 1 to 3 do
    ignore (Node.call caller ~dest:remote ~meth:m_incr ~callsite:11 ~has_ret:true [| box 1 |])
  done;
  ignore (Node.call caller ~dest:local ~meth:m_incr ~callsite:12 ~has_ret:true [| box 1 |]);
  (* every call = start + future-created + future-resolved + end;
     plus 3 remote serves (the local path doesn't dispatch) *)
  Alcotest.(check int) "event count" 19 (Trace.length tr);
  let starts, ends, serves, created, resolved =
    List.fold_left
      (fun (s, e, v, c, d) (entry : Trace.entry) ->
        match entry.Trace.event with
        | Trace.Call_start _ -> (s + 1, e, v, c, d)
        | Trace.Call_end _ -> (s, e + 1, v, c, d)
        | Trace.Served _ -> (s, e, v + 1, c, d)
        | Trace.Future_created _ -> (s, e, v, c + 1, d)
        | Trace.Future_resolved _ -> (s, e, v, c, d + 1)
        | Trace.Retry _ | Trace.Timeout _ | Trace.Batch_flush _
        | Trace.Crash _ | Trace.Restart _ | Trace.Suspect _
        | Trace.Peer_down _ | Trace.Call_retry _ | Trace.Failover _
        | Trace.Breaker_open _ | Trace.Promote _ | Trace.Deopt _ ->
            (s, e, v, c, d))
      (0, 0, 0, 0, 0) (Trace.entries tr)
  in
  Alcotest.(check (list int)) "event breakdown" [ 4; 4; 3; 4; 4 ]
    [ starts; ends; serves; created; resolved ];
  (* timestamps are monotone in recording order *)
  let rec monotone = function
    | (a : Trace.entry) :: (b : Trace.entry) :: rest ->
        a.Trace.at_us <= b.Trace.at_us && monotone (b :: rest)
    | _ -> true
  in
  Alcotest.(check bool) "monotone timestamps" true (monotone (Trace.entries tr));
  (* rendering and summary mention the callsites *)
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "render has site 11" true
    (contains (Trace.render tr) "site=11");
  let summary = Trace.summary tr in
  Alcotest.(check bool) "summary has both sites" true
    (contains summary "11" && contains summary "12");
  Trace.clear tr;
  Alcotest.(check int) "cleared" 0 (Trace.length tr)

(* minor words per trivial call, measured at 31 (local) and 44 (remote)
   on OCaml 5.1.  The remote call's two frames are received into the
   nodes' slices: it was 66 while each frame cost 11 words on the way
   up (a mailbox [Queue] cell, [take_opt]'s [Some] and Sim's
   [Some (frame, off, len)]).  The local bound's headroom absorbs other
   compiler releases; the remote one has none, and a release that reads
   more resets it *)
let local_bound = 40
let remote_bound = 44

(* the same call at a promoted adaptive-tier site: 37 (local) and 72
   (remote) minor words on OCaml 5.1 before the per-site record, 31 and
   66 (the AOT counts) since the per-site call tally builds no option,
   and 31 and 44 since frames are received into slices; a change to the
   tiered dispatch may lower them, never raise them *)
let adaptive_local_bound = 37
let adaptive_remote_bound = 44

(* the runtime's fixed per-call cost: a void RMI with one int argument
   over a raw Sync Sim fabric, trace off.  The codec writes and reads
   one varint, so almost every word counted here is the call path's
   own: headers, futures, readers, the pump and the mailbox. *)
let words_per_trivial_call ?(config = Config.site_reuse_cycle) ~machine () =
  let plans = no_plans () in
  Hashtbl.replace plans 31
    {
      Plan.callsite = 31;
      defs = [||];
      args = [| Plan.S_int |];
      ret = None;
      cycle_args = false;
      cycle_ret = false;
      reuse_args = [| false |];
      reuse_ret = false;
      non_escaping = false;
      version = 1;
      polluted = false;
    };
  let fabric = make_fabric ~config ~plans () in
  for i = 0 to Fabric.size fabric - 1 do
    Node.export (Fabric.node fabric i) ~obj:0 ~meth:m_void ~has_ret:false
      (fun _ -> None)
  done;
  let caller = Fabric.node fabric 0 in
  let dest = Remote_ref.make ~machine ~obj:0 in
  let args = [| Value.Int 7 |] in
  let calls k =
    for _ = 1 to k do
      ignore
        (Node.call caller ~dest ~meth:m_void ~callsite:31 ~has_ret:false args
          : Value.t option)
    done
  in
  calls 100;
  let n = 1000 in
  let w0 = Gc.minor_words () in
  calls n;
  (Gc.minor_words () -. w0) /. float_of_int n

let trivial_call_allocation_bounded () =
  let check what words bound =
    Alcotest.(check bool)
      (Printf.sprintf "%s: %.1f minor words <= %d" what words bound)
      true
      (words <= float_of_int bound)
  in
  check "local call" (words_per_trivial_call ~machine:0 ()) local_bound;
  check "remote call" (words_per_trivial_call ~machine:1 ()) remote_bound;
  (* the adaptive tier's dispatch, measured long after the site was
     promoted (at call 4 of the 100 warm-up calls) *)
  let config = Config.with_adaptive ~hot_threshold:4 Config.site_reuse_cycle in
  check "adaptive local call"
    (words_per_trivial_call ~config ~machine:0 ())
    adaptive_local_bound;
  check "adaptive remote call"
    (words_per_trivial_call ~config ~machine:1 ())
    adaptive_remote_bound

(* a 2 KB call over Sock puts no frame on the major heap: the served
   request and the reply are read in place and released, and the
   request's retry copy is its pooled writer.  Copying either out took
   ~260 major words a call; the 256-double argument decodes into the
   minor heap. *)
let sock_call_leaves_major_heap_alone () =
  let metrics = Metrics.create () in
  let fabric =
    Fabric.create ~backend:Fabric.Sock ~n:2 ~meta ~config:Config.class_
      ~plans:(no_plans ()) ~metrics ()
  in
  Fun.protect ~finally:(fun () -> Fabric.shutdown_net fabric) @@ fun () ->
  export_all fabric;
  let caller = Fabric.node fabric 0 in
  let dest = Remote_ref.make ~machine:1 ~obj:0 in
  let arg = Value.new_darr 256 in
  Array.fill arg.Value.d 0 256 0.5;
  let call () =
    match
      Node.call caller ~dest ~meth:m_sum ~callsite:300 ~has_ret:true
        [| Value.Darr arg |]
    with
    | Some (Value.Double 128.0) -> ()
    | _ -> Alcotest.fail "wrong sum"
  in
  for _ = 1 to 50 do
    call ()
  done;
  (* this domain's own counter: [Gc.quick_stat] adds the sampled stats
     of other domains, and a worker domain an earlier test joined could
     land its words inside the span at the next minor collection *)
  let major_words () =
    let _, _, major = Gc.counters () in
    major
  in
  Gc.minor ();
  let w0 = major_words () in
  let calls = 500 in
  for _ = 1 to calls do
    call ()
  done;
  let per_call = (major_words () -. w0) /. float_of_int calls in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f major words per call <= 20" per_call)
    true (per_call <= 20.0)

(* A handler whose call goes out to a third machine re-enters the
   receive path of the node serving it, which overwrites the node's
   slice with the frames of the nested call.  Serving must still release
   exactly the frames it read: machine 0 calls machine 1, whose handler
   calls machine 2, so the request and the nested reply come from
   different conns and a wrong release shows over Sock, as a release
   that raises or a count that stays up. *)
let nested_call_releases_what_it_read () =
  let m_bounce = 5 in
  let run label config (net, held, close) =
    Fun.protect ~finally:close @@ fun () ->
    let plans = Rmi_core.Plan_store.empty () in
    let nodes = Array.init 3 (fun id -> Node.create net ~id ~meta ~config ~plans) in
    Array.iteri
      (fun self node ->
        Node.set_pump node (fun () ->
            let served = ref false in
            Array.iteri
              (fun i other ->
                if i <> self && Node.serve_pending other then served := true)
              nodes;
            !served))
      nodes;
    Node.export nodes.(2) ~obj:0 ~meth:m_incr ~has_ret:true (fun args ->
        match args.(0) with
        | Value.Obj { fields = [| Value.Int v |]; _ } -> Some (box (v + 1))
        | _ -> failwith "expected Box");
    Node.export nodes.(1) ~obj:0 ~meth:m_bounce ~has_ret:true (fun args ->
        Node.call nodes.(1)
          ~dest:(Remote_ref.make ~machine:2 ~obj:0)
          ~meth:m_incr ~callsite:41 ~has_ret:true [| args.(0) |]);
    for i = 1 to 40 do
      match
        Node.call nodes.(0)
          ~dest:(Remote_ref.make ~machine:1 ~obj:0)
          ~meth:m_bounce ~callsite:40 ~has_ret:true [| box i |]
      with
      | Some (Value.Obj { fields = [| Value.Int v |]; _ }) ->
          Alcotest.(check int) (label ^ ": bounced") (i + 1) v
      | _ -> Alcotest.fail (label ^ ": bad bounced reply")
    done;
    (* the last acks may still be on their way: serve until none is *)
    let rec settle k =
      let served =
        Array.fold_left (fun acc n -> Node.serve_pending n || acc) false nodes
      in
      if k > 0 && (served || held () > 0) then begin
        Unix.sleepf 0.001;
        settle (k - 1)
      end
    in
    settle 2000;
    Alcotest.(check int) (label ^ ": slices still held") 0 (held ())
  in
  (let s = Rmi_net.Sock.create_loopback_t ~n:3 (Metrics.create ()) in
   let net = Rmi_net.Reliable.wrap (Rmi_net.Sock.pack s) in
   run "reliable/sock"
     (Config.with_reliable Config.class_)
     (net, (fun () -> Rmi_net.Sock.held s),
      fun () -> Rmi_net.Transport.shutdown net));
  let net =
    Rmi_net.Batching.wrap (Rmi_net.Sim.create ~n:3 (Metrics.create ()))
  in
  run "batching/sim"
    (Config.with_batching Config.class_)
    (net, (fun () -> 0), fun () -> ())

(* The reply cache against the Hashtbl and FIFO queue it replaced:
   FIFO eviction by first insertion, a key cached again keeps its place
   and takes the new reply, a clear forgets everything.  Keys come from
   a small space so re-adds, evictions and probe collisions are common;
   a cap above 16 makes the ring grow. *)
let reply_cache_matches_model =
  QCheck.Test.make ~name:"reply cache == Hashtbl + FIFO model" ~count:300
    QCheck.(
      pair (int_range 0 40)
        (list_of_size Gen.(0 -- 400)
           (triple (int_bound 12) (int_bound 2) (int_bound 60))))
    (fun (cap, ops) ->
      let c = Reply_cache.create ~cap in
      let model = Hashtbl.create 16 and order = Queue.create () in
      let model_add key reply =
        if cap > 0 then begin
          if not (Hashtbl.mem model key) then begin
            Queue.push key order;
            if Queue.length order > cap then
              Hashtbl.remove model (Queue.pop order)
          end;
          Hashtbl.replace model key reply
        end
      in
      let agree (src, epoch, seq) =
        let got =
          match Reply_cache.find c ~src ~epoch ~seq with
          | -1 -> None
          | e -> Some (Bytes.to_string (Reply_cache.reply c e))
        in
        got = Hashtbl.find_opt model (src, epoch, seq)
      in
      List.for_all
        (fun (op, epoch, seq) ->
          let src = op mod 3 in
          let key = (src, epoch, seq) in
          (if op = 12 then begin
             Reply_cache.clear c;
             Hashtbl.reset model;
             Queue.clear order
           end
           else
             let reply = Printf.sprintf "%d/%d/%d/%d" src epoch seq op in
             Reply_cache.add c ~src ~epoch ~seq (Bytes.of_string reply);
             model_add key reply);
          Reply_cache.length c = Hashtbl.length model
          && agree key
          && Queue.fold (fun ok k -> ok && agree k) true order)
        ops)

let suite =
  [
    ( "runtime.calls",
      [
        Alcotest.test_case "roundtrip under all 5 configs" `Quick
          call_roundtrip_all_configs;
        Alcotest.test_case "parallel (domains) mode" `Quick parallel_mode_roundtrip;
        Alcotest.test_case "remote exception" `Quick remote_exception_propagates;
        Alcotest.test_case "unknown method" `Quick unknown_method_reports;
        Alcotest.test_case "local call clones" `Quick local_call_clones;
        Alcotest.test_case "nested RMI no deadlock" `Quick nested_rmi_no_deadlock;
        Alcotest.test_case "rpc counters" `Quick rpc_counters;
        Alcotest.test_case "trivial call allocation bounded" `Quick
          trivial_call_allocation_bounded;
        Alcotest.test_case "sock call leaves the major heap alone" `Quick
          sock_call_leaves_major_heap_alone;
        Alcotest.test_case "a nested call releases what serving read" `Quick
          nested_call_releases_what_it_read;
      ] );
    ( "runtime.optimizations",
      [
        Alcotest.test_case "ack when return ignored" `Quick
          ack_only_when_return_ignored;
        Alcotest.test_case "callee reuse cache" `Quick reuse_cache_on_callee;
        Alcotest.test_case "reuse after a 2-cell ring: 3-cell list" `Quick
          reuse_after_ring;
        Alcotest.test_case "reuse after a shared Pair: two chains" `Quick
          reuse_after_shared_pair;
      ] );
    ( "runtime.registry",
      [ Alcotest.test_case "round-robin placement" `Quick registry_round_robin ] );
    ( "runtime.trace",
      [ Alcotest.test_case "events recorded" `Quick trace_records_events ] );
    ( "runtime.caches",
      [
        Alcotest.test_case "reset_caches forgets candidates" `Quick
          reset_caches_forgets_candidates;
        Fixtures.qcheck_case reply_cache_matches_model;
      ] );
  ]
