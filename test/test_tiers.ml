(* Tiered adaptive specialization (PR 4): call sites start on the
   generic plan, are promoted to the compiled plan once hot, and are
   deoptimized — the offending position widened to the dynamic step —
   when a runtime value breaks the plan's static promise.  The RMI
   must still succeed through a deopt, the counters must record it,
   and a restarted machine must re-warm its tiers. *)

open Rmi_runtime
module Value = Rmi_serial.Value
module Codec = Rmi_serial.Codec
module Metrics = Rmi_stats.Metrics
module Plan = Rmi_core.Plan
module Fault_sim = Rmi_net.Fault_sim
module Plan_store = Rmi_core.Plan_store

let meta =
  Rmi_serial.Class_meta.make
    [ ("Pair", [ ("a", Jir.Types.Tint); ("b", Jir.Types.Tint) ]) ]

let m_swap = 1
let site = 7

let pair_step = Plan.S_obj { cls = 0; fields = [| Plan.S_int; Plan.S_int |] }

(* the compiled (AOT) plan for the swap site: argument and return are
   statically a Pair of two ints *)
let swap_plan =
  {
    Plan.callsite = site;
    defs = [||];
    args = [| pair_step |];
    ret = Some pair_step;
    cycle_args = false;
    cycle_ret = false;
    reuse_args = [| false |];
    reuse_ret = false;
    non_escaping = false;
    version = 1;
    polluted = false;
  }

let pair a b =
  let p = Value.new_obj ~cls:0 ~nfields:2 in
  p.Value.fields.(0) <- a;
  p.Value.fields.(1) <- b;
  Value.Obj p

let int_pair a b = pair (Value.Int a) (Value.Int b)

(* 2-machine fabric (sync unless [mode] says otherwise) with the swap
   handler on machine 1 *)
let make_fabric ?(mode = Fabric.Sync) ?(handler = fun _ -> Some (int_pair 1 2))
    ~config () =
  let metrics = Metrics.create () in
  let plans = Hashtbl.create 4 in
  Hashtbl.replace plans site swap_plan;
  let fabric = Fabric.create ~mode ~n:2 ~meta ~config ~plans ~metrics () in
  Node.export (Fabric.node fabric 1) ~obj:0 ~meth:m_swap ~has_ret:true handler;
  (fabric, metrics)

(* the swap site's latest plan in the fabric's plan store *)
let latest fabric =
  match Plan_store.latest (Fabric.plan_store fabric) ~site with
  | Some p -> p
  | None -> Alcotest.fail "the fabric's store lost the swap site"

let call fabric v =
  Node.call (Fabric.node fabric 0)
    ~dest:(Remote_ref.make ~machine:1 ~obj:0)
    ~meth:m_swap ~callsite:site ~has_ret:true [| v |]

let check_pair what expect got =
  match got with
  | Some v ->
      Alcotest.(check bool) what true (Rmi_serial.Equality.equal v expect)
  | None -> Alcotest.failf "%s: no reply" what

(* The deopt cases run on two inputs: one call at a time on a Sync
   fabric, and a Parallel fabric — machine 1 serving on its own domain —
   with several calls in flight per step, so one domain publishes a
   widened plan while the other reads the shared plan table. *)
let deopt_inputs =
  [ ("sync", Fabric.Sync, 1); ("parallel", Fabric.Parallel, 4) ]

(* one step: [n] swap calls with argument [v], all issued before any
   is awaited, each checked against [expect] *)
let check_calls what fabric n v expect =
  List.init n (fun _ ->
      Node.call_async (Fabric.node fabric 0)
        ~dest:(Remote_ref.make ~machine:1 ~obj:0)
        ~meth:m_swap ~callsite:site ~has_ret:true [| v |])
  |> Node.Future.all
  |> List.iter (check_pair what expect)

(* --- promotion --- *)

let promotes_at_hot_threshold () =
  let config = Config.with_adaptive ~hot_threshold:4 Config.site_reuse_cycle in
  let fabric, metrics = make_fabric ~config () in
  let tr = Trace.create () in
  Node.set_trace (Fabric.node fabric 0) tr;
  for i = 1 to 6 do
    check_pair "swap reply" (int_pair 1 2) (call fabric (int_pair i i))
  done;
  let s = Metrics.snapshot metrics in
  Alcotest.(check int) "one promotion" 1 s.Metrics.tier_promotions;
  Alcotest.(check int) "no deopts" 0 s.Metrics.tier_deopts;
  Alcotest.(check (list (pair int int))) "site invocation counts"
    [ (site, 6) ] s.Metrics.site_calls;
  let promote_calls =
    List.filter_map
      (fun (e : Trace.entry) ->
        match e.Trace.event with
        | Trace.Promote { callsite; calls; version; _ } ->
            Some (callsite, calls, version)
        | _ -> None)
      (Trace.entries tr)
  in
  Alcotest.(check (list (triple int int int)))
    "promoted at the threshold, to the compiled plan"
    [ (site, 4, 1) ] promote_calls

let aot_never_promotes () =
  (* the paper presets stay on the static model: plans from call one,
     no tier activity in the counters *)
  let fabric, metrics = make_fabric ~config:Config.site_reuse_cycle () in
  for i = 1 to 6 do
    check_pair "swap reply" (int_pair 1 2) (call fabric (int_pair i i))
  done;
  let s = Metrics.snapshot metrics in
  Alcotest.(check int) "no promotions" 0 s.Metrics.tier_promotions;
  Alcotest.(check int) "no deopts" 0 s.Metrics.tier_deopts;
  Alcotest.(check (list (pair int int))) "no site counting" [] s.Metrics.site_calls

let adaptive_spends_generic_bytes_until_hot () =
  (* per-call wire cost: generic until the threshold, AOT after *)
  let cost config calls =
    let fabric, metrics = make_fabric ~config () in
    let per_call = ref [] in
    let last = ref 0 in
    for i = 1 to calls do
      ignore (call fabric (int_pair i i));
      let b = (Metrics.snapshot metrics).Metrics.bytes_sent in
      per_call := (b - !last) :: !per_call;
      last := b
    done;
    List.rev !per_call
  in
  let adaptive =
    cost (Config.with_adaptive ~hot_threshold:3 Config.site_reuse_cycle) 6
  in
  let aot = cost Config.site_reuse_cycle 6 in
  let generic = cost Config.class_ 6 in
  List.iteri
    (fun i (a, (g, o)) ->
      if i < 2 then
        Alcotest.(check int)
          (Printf.sprintf "call %d costs generic bytes" (i + 1))
          g a
      else
        Alcotest.(check int)
          (Printf.sprintf "call %d costs aot bytes" (i + 1))
          o a)
    (List.combine adaptive (List.combine generic aot))

(* --- deoptimization --- *)

let lying_plan_arg_deopt_still_succeeds () =
  (* the plan promises Pair{int;int} but the caller ships a Double in
     one field: the specialized encoder hits Type_confusion, the site
     deoptimizes (arg0 -> dyn) and the very same call succeeds *)
  let config = Config.with_adaptive ~hot_threshold:1 Config.site_reuse_cycle in
  List.iter
    (fun (input, mode, n) ->
      let what = Printf.sprintf "%s: %s" input in
      let fabric, metrics = make_fabric ~mode ~config () in
      Fabric.run fabric @@ fun fabric ->
      let lying = pair (Value.Double 0.5) (Value.Int 2) in
      check_calls (what "deoptimized call succeeds") fabric n lying
        (int_pair 1 2);
      let s = Metrics.snapshot metrics in
      Alcotest.(check int) (what "one deopt") 1 s.Metrics.tier_deopts;
      Alcotest.(check int) (what "one promotion") 1 s.Metrics.tier_promotions;
      let current = latest fabric in
      Alcotest.(check bool) (what "site marked polluted") true
        current.Plan.polluted;
      Alcotest.(check int) (what "version bumped") 2 current.Plan.version;
      Alcotest.(check bool) (what "arg widened to dyn") true
        (current.Plan.args.(0) = Plan.S_dyn);
      Alcotest.(check bool) (what "ret untouched") true
        (current.Plan.ret = Some pair_step);
      (* subsequent calls — lying or honest — run on the widened plan
         with no further deopts *)
      check_calls (what "second lying call") fabric n lying (int_pair 1 2);
      check_calls (what "honest call") fabric n (int_pair 3 4) (int_pair 1 2);
      Alcotest.(check int) (what "still one deopt") 1
        (Metrics.snapshot metrics).Metrics.tier_deopts)
    deopt_inputs

let lying_plan_ret_deopt_still_succeeds () =
  (* the handler returns a shape the plan's return step cannot encode:
     the server deoptimizes the return position and replies with the
     widened encoding, which the caller adopts.  Requests already in
     flight carry the old plan: the server replays the one widening for
     them rather than deoptimizing again. *)
  let config = Config.with_adaptive ~hot_threshold:1 Config.site_reuse_cycle in
  let odd = pair (Value.Str "boom") (Value.Int 9) in
  List.iter
    (fun (input, mode, n) ->
      let what = Printf.sprintf "%s: %s" input in
      let fabric, metrics =
        make_fabric ~mode ~handler:(fun _ -> Some odd) ~config ()
      in
      Fabric.run fabric @@ fun fabric ->
      check_calls (what "ret-deoptimized call succeeds") fabric n
        (int_pair 1 2) odd;
      let s = Metrics.snapshot metrics in
      Alcotest.(check int) (what "one deopt") 1 s.Metrics.tier_deopts;
      let current = latest fabric in
      Alcotest.(check bool) (what "site marked polluted") true
        current.Plan.polluted;
      Alcotest.(check bool) (what "ret widened to dyn") true
        (current.Plan.ret = Some Plan.S_dyn);
      Alcotest.(check bool) (what "args untouched") true
        (current.Plan.args.(0) = pair_step);
      check_calls (what "subsequent call") fabric n (int_pair 3 4) odd;
      Alcotest.(check int) (what "still one deopt") 1
        (Metrics.snapshot metrics).Metrics.tier_deopts)
    deopt_inputs

(* Two positions of one version deoptimize, through one node's client
   and server sides or through two nodes: each widening gets its own
   number and widens the site's latest plan, so version 3 keeps
   version 2's argument widening, and every number names one plan in
   every node's compiled versions and in the fabric's plan store —
   the caller's, or the one the fabric builds without it.  An old
   number still decodes after the site has moved on, and no later
   call, lying or honest, from either node deoptimizes again. *)
let two_positions_of_one_version () =
  let config = Config.with_adaptive ~hot_threshold:1 Config.site_reuse_cycle in
  let odd = pair (Value.Str "boom") (Value.Int 9) in
  let lying = pair (Value.Double 0.5) (Value.Int 2) in
  let setup plan_store =
    let metrics = Metrics.create () in
    let plans = Hashtbl.create 4 in
    Hashtbl.replace plans site swap_plan;
    let fabric =
      Fabric.create ~mode:Fabric.Sync ?plan_store ~n:2 ~meta ~config ~plans
        ~metrics ()
    in
    (* once [odd_replies] is set, machine 1 answers an all-int pair
       with a shape the return step cannot encode; machine 0, and
       machine 1 for a lying argument, answer honestly *)
    let odd_replies = ref false in
    Node.export (Fabric.node fabric 0) ~obj:0 ~meth:m_swap ~has_ret:true
      (fun _ -> Some (int_pair 1 2));
    Node.export (Fabric.node fabric 1) ~obj:0 ~meth:m_swap ~has_ret:true
      (fun args ->
        match args.(0) with
        | Value.Obj { Value.fields = [| Value.Int _; _ |]; _ } when !odd_replies ->
            Some odd
        | _ -> Some (int_pair 1 2));
    (fabric, metrics, odd_replies)
  in
  let call_async fabric ~src ~dst v =
    Node.call_async (Fabric.node fabric src)
      ~dest:(Remote_ref.make ~machine:dst ~obj:0)
      ~meth:m_swap ~callsite:site ~has_ret:true [| v |]
  in
  let call fabric ~src ~dst v = Node.Future.await (call_async fabric ~src ~dst v) in
  let inputs =
    [
      ( "one node",
        (* machine 1 widens arg0 of version 1 as a client, then serves a
           request machine 0 still encodes with version 1 and widens its
           return *)
        fun fabric odd_replies ->
          check_pair "0->1 promotes machine 0" (int_pair 1 2)
            (call fabric ~src:0 ~dst:1 (int_pair 3 4));
          check_pair "1->0 promotes machine 1" (int_pair 1 2)
            (call fabric ~src:1 ~dst:0 (int_pair 3 4));
          check_pair "1->0 widens arg0" (int_pair 1 2)
            (call fabric ~src:1 ~dst:0 lying);
          odd_replies := true;
          check_pair "0->1 widens ret" odd
            (call fabric ~src:0 ~dst:1 (int_pair 3 4)) );
      ( "two nodes",
        (* machine 0 widens arg0 of version 1 while a request it sent
           with version 1 makes machine 1 widen the return *)
        fun fabric odd_replies ->
          check_pair "0->1 promotes machine 0" (int_pair 1 2)
            (call fabric ~src:0 ~dst:1 (int_pair 3 4));
          odd_replies := true;
          let honest = call_async fabric ~src:0 ~dst:1 (int_pair 3 4) in
          let widening = call_async fabric ~src:0 ~dst:1 lying in
          check_pair "reply to the version 1 request" odd
            (Node.Future.await honest);
          check_pair "reply to the widened request" (int_pair 1 2)
            (Node.Future.await widening) );
    ]
  in
  let stores =
    [ ("no plan store", fun () -> None);
      ("plan store", fun () -> Some (Plan_store.empty ())) ]
  in
  List.iter
    (fun ((store_input, plan_store), (input, steps)) ->
      let what = Printf.sprintf "%s, %s: %s" store_input input in
      let plan_store = plan_store () in
      let fabric, metrics, odd_replies = setup plan_store in
      let store = Fabric.plan_store fabric in
      Option.iter
        (fun given ->
          Alcotest.(check bool) (what "the caller's store is the fabric's")
            true (given == store))
        plan_store;
      steps fabric odd_replies;
      Alcotest.(check int) (what "two deopts") 2
        (Metrics.snapshot metrics).Metrics.tier_deopts;
      let stored ver =
        match Plan_store.version store ~site ver with
        | Some p -> (p.Plan.args.(0) = Plan.S_dyn, p.Plan.ret = Some Plan.S_dyn)
        | None -> Alcotest.failf "%s" (what (Printf.sprintf "no version %d" ver))
      in
      Alcotest.(check (pair bool bool)) (what "version 2 widens arg0 only")
        (true, false) (stored 2);
      Alcotest.(check (pair bool bool)) (what "version 3 widens arg0 and ret")
        (true, true) (stored 3);
      (* both nodes keep calling each other with honest and lying
         arguments *)
      odd_replies := false;
      List.iter
        (fun (src, dst) ->
          check_pair (what "honest call after") (int_pair 1 2)
            (call fabric ~src ~dst (int_pair 3 4));
          check_pair (what "lying call after") (int_pair 1 2)
            (call fabric ~src ~dst lying))
        [ (0, 1); (1, 0) ];
      Alcotest.(check int) (what "still two deopts") 2
        (Metrics.snapshot metrics).Metrics.tier_deopts)
    (List.concat_map
       (fun store -> List.map (fun input -> (store, input)) inputs)
       stores)

let aot_lying_plan_raises_cleanly () =
  (* regression: without the adaptive tier there is no deopt path — a
     wrong plan must surface as Codec.Type_confusion at the call site,
     with the counters and the site's plan left untouched *)
  let fabric, metrics = make_fabric ~config:Config.site_reuse_cycle () in
  let lying = pair (Value.Double 0.5) (Value.Int 2) in
  (match call fabric lying with
  | exception Codec.Type_confusion _ -> ()
  | _ -> Alcotest.fail "expected Type_confusion");
  let s = Metrics.snapshot metrics in
  Alcotest.(check int) "no deopt recorded" 0 s.Metrics.tier_deopts;
  Alcotest.(check bool) "plan untouched" false
    (latest fabric).Plan.polluted;
  (* the node (and its writer contexts) stay usable *)
  check_pair "fabric still works" (int_pair 1 2) (call fabric (int_pair 5 6))

(* --- equivalence and convergence --- *)

let tiers_compare_converges () =
  let module Gate = Rmi_harness.Gate in
  let g =
    Rmi_harness.Experiment.tiers_compare ~calls:24 ~window:6 ~hot_threshold:6 ()
  in
  Alcotest.(check int) "three variants" 3 (List.length g.Gate.table.rows);
  Alcotest.(check bool) "replies byte-identical" true
    (Gate.verdict g "replies_equal" = Gate.Pass);
  Alcotest.(check bool) "adaptive converges to aot" true
    (Gate.verdict g "converged" = Gate.Pass);
  (* golden: the reply digests and the per-window bytes per call *)
  let digest = Gate.Str "a5e57a19acdb543ded4808834ac0bdcd" in
  Alcotest.(check (list Fixtures.gate_cell))
    "reply digests" [ digest; digest; digest ] (Gate.column g "digest");
  let window i generic aot adaptive =
    Gate.[ Int i; Float (1, generic); Float (1, aot); Float (1, adaptive) ]
  in
  Alcotest.(check (list (list Fixtures.gate_cell)))
    "warmup rows"
    [
      window 1 30.0 24.0 29.0; window 2 30.0 24.0 24.0; window 3 30.0 24.0 24.0;
      window 4 31.0 25.0 25.0;
    ]
    (List.assoc "warmup" g.Gate.extra).rows

(* --- crash: tiers re-warm --- *)

let restart_rewarms_tiers () =
  (* machine 1 promotes its swap site, crashes, restarts — its tier
     state died with it, so the site re-warms and promotes again *)
  let metrics = Metrics.create () in
  let plans = Hashtbl.create 4 in
  Hashtbl.replace plans site swap_plan;
  let config =
    Config.with_adaptive ~hot_threshold:2
      (Config.with_failover
         { Config.default_failover with Config.max_call_retries = 4 }
         (Config.with_reliable Config.site_reuse_cycle))
  in
  let sim = Fault_sim.create ~seed:11 ~n:2 Fault_sim.lossless in
  let fabric =
    Fabric.create ~mode:Fabric.Sync ~faults:sim ~n:2 ~meta ~config ~plans
      ~metrics ()
  in
  (* swap exported on machine 0: machine 1 is the caller whose tier
     state we crash away *)
  Node.export (Fabric.node fabric 0) ~obj:0 ~meth:m_swap ~has_ret:true
    (fun _ -> Some (int_pair 1 2));
  (* echo exported on machine 1: traffic to drive the frame clock
     through the outage (its callsite has no compiled plan, so it never
     promotes) *)
  let m_echo = 2 in
  Node.export (Fabric.node fabric 1) ~obj:1 ~meth:m_echo ~has_ret:true
    (fun args -> Some args.(0));
  let swap_from_m1 () =
    Node.call (Fabric.node fabric 1)
      ~dest:(Remote_ref.make ~machine:0 ~obj:0)
      ~meth:m_swap ~callsite:site ~has_ret:true [| int_pair 3 4 |]
  in
  let echo_from_m0 v =
    Node.call (Fabric.node fabric 0)
      ~dest:(Remote_ref.make ~machine:1 ~obj:1)
      ~meth:m_echo ~callsite:99 ~has_ret:true [| Value.Int v |]
  in
  for _ = 1 to 3 do
    check_pair "pre-crash swap" (int_pair 1 2) (swap_from_m1 ())
  done;
  Alcotest.(check int) "promoted before the crash" 1
    (Metrics.snapshot metrics).Metrics.tier_promotions;
  (* kill machine 1 at the next frame, back after a short outage *)
  Fault_sim.set_crash_plan sim
    [
      {
        Fault_sim.victim = 1;
        crash_at = Fault_sim.frame_clock sim + 1;
        restart_after = Some 4;
        durability = Fault_sim.Durable;
      };
    ];
  for v = 1 to 8 do
    match echo_from_m0 v with
    | Some (Value.Int v') -> Alcotest.(check int) "echo rides through" v v'
    | Some _ | None -> Alcotest.fail "echo lost"
  done;
  let s = Metrics.snapshot metrics in
  Alcotest.(check int) "crash fired" 1 s.Metrics.crashes;
  Alcotest.(check int) "restart fired" 1 s.Metrics.restarts;
  (* the restarted caller starts cold and promotes a second time *)
  for _ = 1 to 3 do
    check_pair "post-restart swap" (int_pair 1 2) (swap_from_m1 ())
  done;
  Alcotest.(check int) "re-promoted after restart" 2
    (Metrics.snapshot metrics).Metrics.tier_promotions

let suite =
  [
    ( "tiers.promotion",
      [
        Alcotest.test_case "promotes at the hot threshold" `Quick
          promotes_at_hot_threshold;
        Alcotest.test_case "aot preset never promotes" `Quick aot_never_promotes;
        Alcotest.test_case "generic bytes until hot, aot bytes after" `Quick
          adaptive_spends_generic_bytes_until_hot;
      ] );
    ( "tiers.deopt",
      [
        Alcotest.test_case "lying plan: argument deopt" `Quick
          lying_plan_arg_deopt_still_succeeds;
        Alcotest.test_case "lying plan: return deopt" `Quick
          lying_plan_ret_deopt_still_succeeds;
        Alcotest.test_case "two positions of one version deopt" `Quick
          two_positions_of_one_version;
        Alcotest.test_case "aot lying plan raises cleanly" `Quick
          aot_lying_plan_raises_cleanly;
      ] );
    ( "tiers.equivalence",
      [
        Alcotest.test_case "tiers comparison converges byte-identically" `Quick
          tiers_compare_converges;
      ] );
    ( "tiers.crash",
      [
        Alcotest.test_case "restart re-warms the tiers" `Quick
          restart_rewarms_tiers;
      ] );
  ]
