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

(* 2-machine sync fabric with the swap handler on machine 1 *)
let make_fabric ?(handler = fun _ -> Some (int_pair 1 2)) ~config () =
  let metrics = Metrics.create () in
  let plans = Hashtbl.create 4 in
  Hashtbl.replace plans site swap_plan;
  let fabric =
    Fabric.create ~mode:Fabric.Sync ~n:2 ~meta ~config ~plans ~metrics ()
  in
  Node.export (Fabric.node fabric 1) ~obj:0 ~meth:m_swap ~has_ret:true handler;
  (fabric, plans, metrics)

let call fabric v =
  Node.call (Fabric.node fabric 0)
    ~dest:(Remote_ref.make ~machine:1 ~obj:0)
    ~meth:m_swap ~callsite:site ~has_ret:true [| v |]

let check_pair what expect got =
  match got with
  | Some v ->
      Alcotest.(check bool) what true (Rmi_serial.Equality.equal v expect)
  | None -> Alcotest.failf "%s: no reply" what

(* --- promotion --- *)

let promotes_at_hot_threshold () =
  let config = Config.with_adaptive ~hot_threshold:4 Config.site_reuse_cycle in
  let fabric, _, metrics = make_fabric ~config () in
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
  let fabric, _, metrics = make_fabric ~config:Config.site_reuse_cycle () in
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
    let fabric, _, metrics = make_fabric ~config () in
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
  let fabric, plans, metrics = make_fabric ~config () in
  let lying = pair (Value.Double 0.5) (Value.Int 2) in
  check_pair "deoptimized call succeeds" (int_pair 1 2) (call fabric lying);
  let s = Metrics.snapshot metrics in
  Alcotest.(check int) "one deopt" 1 s.Metrics.tier_deopts;
  Alcotest.(check int) "one promotion" 1 s.Metrics.tier_promotions;
  let current = Hashtbl.find plans site in
  Alcotest.(check bool) "site marked polluted" true current.Plan.polluted;
  Alcotest.(check int) "version bumped" 2 current.Plan.version;
  Alcotest.(check bool) "arg widened to dyn" true
    (current.Plan.args.(0) = Plan.S_dyn);
  Alcotest.(check bool) "ret untouched" true
    (current.Plan.ret = Some pair_step);
  (* subsequent calls — lying or honest — run on the widened plan with
     no further deopts *)
  check_pair "second lying call" (int_pair 1 2) (call fabric lying);
  check_pair "honest call" (int_pair 1 2) (call fabric (int_pair 3 4));
  Alcotest.(check int) "still one deopt" 1
    (Metrics.snapshot metrics).Metrics.tier_deopts

let lying_plan_ret_deopt_still_succeeds () =
  (* the handler returns a shape the plan's return step cannot encode:
     the server deoptimizes the return position and replies with the
     widened encoding, which the caller adopts *)
  let config = Config.with_adaptive ~hot_threshold:1 Config.site_reuse_cycle in
  let odd = pair (Value.Str "boom") (Value.Int 9) in
  let fabric, plans, metrics =
    make_fabric ~handler:(fun _ -> Some odd) ~config ()
  in
  check_pair "ret-deoptimized call succeeds" odd (call fabric (int_pair 1 2));
  let s = Metrics.snapshot metrics in
  Alcotest.(check int) "one deopt" 1 s.Metrics.tier_deopts;
  let current = Hashtbl.find plans site in
  Alcotest.(check bool) "site marked polluted" true current.Plan.polluted;
  Alcotest.(check bool) "ret widened to dyn" true
    (current.Plan.ret = Some Plan.S_dyn);
  Alcotest.(check bool) "args untouched" true
    (current.Plan.args.(0) = pair_step);
  check_pair "subsequent call" odd (call fabric (int_pair 3 4));
  Alcotest.(check int) "still one deopt" 1
    (Metrics.snapshot metrics).Metrics.tier_deopts

let aot_lying_plan_raises_cleanly () =
  (* regression: without the adaptive tier there is no deopt path — a
     wrong plan must surface as Codec.Type_confusion at the call site,
     with the counters and the site's plan left untouched *)
  let fabric, plans, metrics = make_fabric ~config:Config.site_reuse_cycle () in
  let lying = pair (Value.Double 0.5) (Value.Int 2) in
  (match call fabric lying with
  | exception Codec.Type_confusion _ -> ()
  | _ -> Alcotest.fail "expected Type_confusion");
  let s = Metrics.snapshot metrics in
  Alcotest.(check int) "no deopt recorded" 0 s.Metrics.tier_deopts;
  Alcotest.(check bool) "plan untouched" false
    (Hashtbl.find plans site).Plan.polluted;
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
    (Gate.verdict g "converged" = Gate.Pass)

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
