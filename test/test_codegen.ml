(* Plan-generation tests: the inlined marshaler shapes of Figures 6 and
   13, dynamic fallbacks, inlining budgets, and the optimizer driver. *)

open Rmi_core
module HA = Heap_analysis

let analyze prog =
  Rmi_ssa.Ssa.convert prog;
  HA.analyze prog

let callsite_of r site =
  match HA.callsite r site with
  | Some cs -> cs
  | None -> Alcotest.fail "callsite not found"

let plan_step_str s = Format.asprintf "%a" Plan.pp_step s

let fig13_array_plan () =
  let fx = Fixtures.array2d () in
  let r = analyze fx.s_prog in
  let cs = callsite_of r fx.s_site in
  let plan = Codegen.plan_for r cs in
  (* the generated marshaler of Figure 13, fused into the flat
     struct-of-arrays step (PR 10): one shape check for the whole
     double[][], rows decoded straight into unboxed storage.  No cycle
     table, argument reusable, ack-only reply. *)
  (match plan.Plan.args with
  | [| Plan.S_flat_array |] -> ()
  | [| s |] -> Alcotest.failf "unexpected step %s" (plan_step_str s)
  | _ -> Alcotest.fail "expected one arg");
  Alcotest.(check bool) "cycle table removed" false plan.Plan.cycle_args;
  Alcotest.(check bool) "reuse enabled" true plan.Plan.reuse_args.(0);
  Alcotest.(check bool) "escape verdict lifted to the plan" true
    plan.Plan.non_escaping;
  Alcotest.(check bool) "ack-only reply" true (plan.Plan.ret = None)

(* int[][] has no flat step: each row is an int[] with its own marker,
   so ragged and null rows round-trip *)
let int_matrix_plan_roundtrip () =
  let fx = Fixtures.array2d ~elem:Jir.Types.Tint () in
  let r = analyze fx.s_prog in
  let plan = Codegen.plan_for r (callsite_of r fx.s_site) in
  let step =
    match plan.Plan.args with
    | [| Plan.S_obj_array { elem = Plan.S_int_array } as s |] -> s
    | [| s |] -> Alcotest.failf "unexpected step %s" (plan_step_str s)
    | _ -> Alcotest.fail "expected one arg"
  in
  let module V = Rmi_serial.Value in
  let row xs =
    let a = V.new_iarr (List.length xs) in
    List.iteri (fun i x -> a.V.ia.(i) <- x) xs;
    V.Iarr a
  in
  let m = V.new_rarr (Jir.Types.Tarray Jir.Types.Tint) 3 in
  m.V.ra.(0) <- row [ 1; -2; 3 ];
  m.V.ra.(2) <- row [ 1 lsl 40 ];
  let v = V.Rarr m in
  let meta = Rmi_serial.Class_meta.of_program fx.s_prog in
  let metrics = Rmi_stats.Metrics.create () in
  let cycle = plan.Plan.cycle_args and defs = plan.Plan.defs in
  let w = Rmi_wire.Msgbuf.create_writer () in
  Rmi_serial.Codec.compile_write ~defs step
    (Rmi_serial.Codec.make_wctx ~defs meta metrics ~cycle)
    w v;
  let got =
    Rmi_serial.Codec.compile_read ~defs step
      (Rmi_serial.Codec.make_rctx ~defs meta metrics ~cycle)
      (Rmi_wire.Msgbuf.reader_of_writer w)
      ~cand:V.Null
  in
  Alcotest.(check bool) "int[][] round-trips" true
    (Rmi_serial.Equality.equal v got)

let fig5_per_callsite_specialization () =
  let fx = Fixtures.fig5 () in
  Rmi_ssa.Ssa.convert fx.f5_prog;
  let r = HA.analyze fx.f5_prog in
  match fx.f5_sites with
  | [ s1; s2 ] ->
      let p1 = Codegen.plan_for r (callsite_of r s1) in
      let p2 = Codegen.plan_for r (callsite_of r s2) in
      (* callsite 1 passes Derived1, callsite 2 passes Derived2 whose
         field p is itself inlined as Derived1 (paper Figure 6) *)
      (match p1.Plan.args.(0) with
      | Plan.S_obj { cls; fields } ->
          Alcotest.(check int) "derived1 inferred" fx.f5_derived1 cls;
          Alcotest.(check int) "one int field" 1 (Array.length fields);
          Alcotest.(check bool) "int field inline" true (fields.(0) = Plan.S_int)
      | s -> Alcotest.failf "site1: unexpected %s" (plan_step_str s));
      (match p2.Plan.args.(0) with
      | Plan.S_obj { cls; fields } ->
          Alcotest.(check int) "derived2 inferred" fx.f5_derived2 cls;
          (match fields.(0) with
          | Plan.S_obj { cls; fields = inner } ->
              Alcotest.(check int) "p field inlined as Derived1" fx.f5_derived1 cls;
              Alcotest.(check bool) "inner int inline" true (inner.(0) = Plan.S_int)
          | s -> Alcotest.failf "site2 field: unexpected %s" (plan_step_str s))
      | s -> Alcotest.failf "site2: unexpected %s" (plan_step_str s))
  | _ -> Alcotest.fail "expected two callsites"

let recursive_type_becomes_self_reference () =
  (* the linked list's next field points back into the same allocation
     site: the plan must tie the knot with a recursive definition — the
     paper's direct untagged recursive serializer call — rather than
     unrolling or falling all the way back to the dynamic path *)
  let fx = Fixtures.linked_list () in
  let r = analyze fx.s_prog in
  let cs = callsite_of r fx.s_site in
  let plan = Codegen.plan_for r cs in
  (match plan.Plan.args.(0) with
  | Plan.S_ref d -> (
      match plan.Plan.defs.(d) with
      | Plan.S_obj { fields = [| Plan.S_ref d' |]; _ } ->
          Alcotest.(check int) "next recurses on the same def" d d'
      | s -> Alcotest.failf "unexpected def %s" (plan_step_str s))
  | s -> Alcotest.failf "unexpected %s" (plan_step_str s));
  Alcotest.(check bool) "cycle table kept" true plan.Plan.cycle_args;
  Alcotest.(check bool) "still reusable" true plan.Plan.reuse_args.(0)

let mixed_types_fall_back_to_dyn () =
  (* one callsite whose argument can be two different classes *)
  let open Jir in
  let b = Builder.create () in
  let base = Builder.declare_class b "Base" in
  let d1 = Builder.declare_class b ~super:base "D1" in
  let d2 = Builder.declare_class b ~super:base "D2" in
  let work = Builder.declare_class b ~remote:true "Work" in
  let foo =
    Builder.declare_method b ~owner:work ~name:"Work.foo" ~params:[ Tobject base ]
      ~ret:Tvoid ()
  in
  Builder.define b foo (fun mb -> Builder.ret mb None);
  let go = Builder.declare_method b ~name:"go" ~params:[ Tbool ] ~ret:Tvoid () in
  Builder.define b go (fun mb ->
      let w = Builder.alloc mb work in
      let x = Builder.fresh mb (Tobject base) in
      Builder.if_ mb
        (Var (Builder.param mb 0))
        (fun () ->
          let o = Builder.alloc mb d1 in
          Builder.move mb x (Var o))
        (fun () ->
          let o = Builder.alloc mb d2 in
          Builder.move mb x (Var o));
      Builder.rcall_ignore mb (Var w) foo [ Var x ];
      Builder.ret mb None);
  let fx = Fixtures.one_site (Builder.finish b) in
  let r = analyze fx.s_prog in
  let plan = Codegen.plan_for r (callsite_of r fx.s_site) in
  Alcotest.(check bool) "ambiguous type -> dyn" true
    (plan.Plan.args.(0) = Plan.S_dyn)

let depth_budget_respected () =
  (* a deep chain of distinct classes: inlining stops at the depth cap *)
  let open Jir in
  let b = Builder.create () in
  let depth = 12 in
  let classes = Array.init depth (fun i -> Builder.declare_class b (Printf.sprintf "C%d" i)) in
  let fields =
    Array.init (depth - 1) (fun i ->
        Builder.add_field b classes.(i) "next" (Tobject classes.(i + 1)))
  in
  let work = Builder.declare_class b ~remote:true "Work" in
  let foo =
    Builder.declare_method b ~owner:work ~name:"Work.foo"
      ~params:[ Tobject classes.(0) ] ~ret:Tvoid ()
  in
  Builder.define b foo (fun mb -> Builder.ret mb None);
  let go = Builder.declare_method b ~name:"go" ~params:[] ~ret:Tvoid () in
  Builder.define b go (fun mb ->
      let w = Builder.alloc mb work in
      let objs = Array.map (fun c -> Builder.alloc mb c) classes in
      for i = 0 to depth - 2 do
        Builder.store_field mb objs.(i) fields.(i) (Var objs.(i + 1))
      done;
      Builder.rcall_ignore mb (Var w) foo [ Var objs.(0) ];
      Builder.ret mb None);
  let fx = Fixtures.one_site (Builder.finish b) in
  let r = analyze fx.s_prog in
  let config = { Codegen.max_inline_depth = 3; max_plan_size = 1000 } in
  let plan = Codegen.plan_for ~config r (callsite_of r fx.s_site) in
  let rec max_depth = function
    | Plan.S_obj { fields; _ } ->
        1 + Array.fold_left (fun acc s -> max acc (max_depth s)) 0 fields
    | Plan.S_obj_array { elem } -> 1 + max_depth elem
    | _ -> 0
  in
  Alcotest.(check bool) "inline depth capped" true
    (max_depth plan.Plan.args.(0) <= 4);
  (* with a generous depth the whole chain inlines *)
  let config = { Codegen.max_inline_depth = 20; max_plan_size = 1000 } in
  let plan2 = Codegen.plan_for ~config r (callsite_of r fx.s_site) in
  Alcotest.(check bool) "full inline at depth 20" true
    (max_depth plan2.Plan.args.(0) >= depth - 1)

let size_budget_falls_back () =
  let fx = Fixtures.array2d () in
  let r = analyze fx.s_prog in
  let cs = callsite_of r fx.s_site in
  let config = { Codegen.max_inline_depth = 8; max_plan_size = 1 } in
  let plan = Codegen.plan_for ~config r cs in
  Alcotest.(check bool) "budget forces dyn" true (plan.Plan.args.(0) = Plan.S_dyn)

let statically_null_field () =
  (* a field no allocation ever reaches serializes as zero bytes *)
  let open Jir in
  let b = Builder.create () in
  let leaf = Builder.declare_class b "Leaf" in
  let node = Builder.declare_class b "Node" in
  let used = Builder.add_field b node "used" Tint in
  let unused = Builder.add_field b node "unused" (Tobject leaf) in
  ignore used;
  ignore unused;
  let work = Builder.declare_class b ~remote:true "Work" in
  let foo =
    Builder.declare_method b ~owner:work ~name:"Work.foo" ~params:[ Tobject node ]
      ~ret:Tvoid ()
  in
  Builder.define b foo (fun mb -> Builder.ret mb None);
  let go = Builder.declare_method b ~name:"go" ~params:[] ~ret:Tvoid () in
  Builder.define b go (fun mb ->
      let w = Builder.alloc mb work in
      let n = Builder.alloc mb node in
      Builder.store_field mb n used (Int 5);
      Builder.rcall_ignore mb (Var w) foo [ Var n ];
      Builder.ret mb None);
  let fx = Fixtures.one_site (Builder.finish b) in
  let r = analyze fx.s_prog in
  let plan = Codegen.plan_for r (callsite_of r fx.s_site) in
  match plan.Plan.args.(0) with
  | Plan.S_obj { fields = [| Plan.S_int; Plan.S_null |]; _ } -> ()
  | s -> Alcotest.failf "unexpected %s" (plan_step_str s)

let recursion_through_arrays () =
  (* a tree whose children live in an object array: when the recursion
     closes over the same allocation sites, the plan must tie the knot
     (here the root and the children are distinct sites holding a shared
     array site, so the array's element step recurses on the child) *)
  let open Jir in
  let b = Builder.create () in
  let node = Builder.declare_class b "Node" in
  let kids = Builder.add_field b node "kids" (Tarray (Tobject node)) in
  let work = Builder.declare_class b ~remote:true "Work" in
  let foo =
    Builder.declare_method b ~owner:work ~name:"Work.foo" ~params:[ Tobject node ]
      ~ret:Tvoid ()
  in
  Builder.define b foo (fun mb -> Builder.ret mb None);
  let go = Builder.declare_method b ~name:"go" ~params:[] ~ret:Tvoid () in
  Builder.define b go (fun mb ->
      let w = Builder.alloc mb work in
      let root = Builder.alloc mb node in
      let arr = Builder.alloc_array mb (Tobject node) (Int 2) in
      (* self-recursive shape: the root's own site is an element *)
      Builder.store_elem mb arr (Int 0) (Var root);
      Builder.store_field mb root kids (Var arr);
      Builder.rcall_ignore mb (Var w) foo [ Var root ];
      Builder.ret mb None);
  let fx = Fixtures.one_site (Builder.finish b) in
  let r = analyze fx.s_prog in
  let plan = Codegen.plan_for r (callsite_of r fx.s_site) in
  (match plan.Plan.args.(0) with
  | Plan.S_ref d -> (
      match plan.Plan.defs.(d) with
      | Plan.S_obj { fields = [| Plan.S_obj_array { elem = Plan.S_ref d' } |]; _ }
        ->
          Alcotest.(check int) "knot tied through the array" d d'
      | s -> Alcotest.failf "unexpected def %s" (plan_step_str s))
  | s -> Alcotest.failf "unexpected %s" (plan_step_str s));
  Alcotest.(check bool) "cyclic verdict" true plan.Plan.cycle_args

let optimizer_driver_end_to_end () =
  let fx = Fixtures.array2d () in
  let opt = Optimizer.run fx.s_prog in
  Alcotest.(check int) "one decision" 1 (List.length opt.Optimizer.decisions);
  let d = List.hd opt.Optimizer.decisions in
  Alcotest.(check bool) "acyclic" true d.Optimizer.args_acyclic;
  Alcotest.(check bool) "reusable" true
    (Rmi_core.Escape_analysis.is_reusable d.Optimizer.arg_escape.(0));
  (* report renders without raising and mentions the callsite *)
  let report = Optimizer.report opt in
  Alcotest.(check bool) "report nonempty" true (String.length report > 50);
  (* unknown sites fall back to a generic plan *)
  let generic = Optimizer.plan_for_site opt 9999 ~nargs:2 ~has_ret:true in
  Alcotest.(check bool) "generic cycle on" true generic.Plan.cycle_args;
  Alcotest.(check bool) "generic dyn" true (generic.Plan.args.(0) = Plan.S_dyn)

let plan_size_accounting () =
  let p = Plan.generic ~callsite:0 ~nargs:3 ~has_ret:true in
  Alcotest.(check int) "generic size" 4 (Plan.size p)

(* --- plan edge cases: the generic tier and deoptimization --- *)

let generic_plan_invariants () =
  let p = Plan.generic ~callsite:5 ~nargs:3 ~has_ret:true in
  Alcotest.(check int) "version zero" Plan.generic_version p.Plan.version;
  Alcotest.(check bool) "not polluted" false p.Plan.polluted;
  Alcotest.(check bool) "all args dyn" true
    (Array.for_all (fun s -> s = Plan.S_dyn) p.Plan.args);
  Alcotest.(check bool) "ret dyn" true (p.Plan.ret = Some Plan.S_dyn);
  Alcotest.(check bool) "cycle tables on" true
    (p.Plan.cycle_args && p.Plan.cycle_ret);
  Alcotest.(check bool) "no reuse" true
    ((not p.Plan.reuse_ret)
    && Array.for_all (fun r -> not r) p.Plan.reuse_args);
  Alcotest.(check int) "no recursive defs" 0 (Array.length p.Plan.defs);
  let ack = Plan.generic ~callsite:5 ~nargs:1 ~has_ret:false in
  Alcotest.(check bool) "ack-only generic" true (ack.Plan.ret = None)

let widen_invariants () =
  let fx = Fixtures.array2d () in
  let r = analyze fx.s_prog in
  let plan = Codegen.plan_for r (callsite_of r fx.s_site) in
  Alcotest.(check int) "compiled plans are version 1" 1 plan.Plan.version;
  let w = Plan.widen plan (`Arg 0) in
  Alcotest.(check int) "version bumped" 2 w.Plan.version;
  Alcotest.(check bool) "polluted" true w.Plan.polluted;
  Alcotest.(check bool) "position widened" true (w.Plan.args.(0) = Plan.S_dyn);
  Alcotest.(check bool) "cycle table back on" true w.Plan.cycle_args;
  Alcotest.(check bool) "reuse disabled" false w.Plan.reuse_args.(0);
  (* widening is monotone: a second widening of the same ack-only plan
     can only touch arguments *)
  (match Plan.widen plan (`Arg 7) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out-of-range arg must be rejected");
  match Plan.widen plan `Ret with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "widening the ret of an ack-only plan must be rejected"

(* --- plan store: cache hits, publication, invalidation --- *)

let store_of fx = Plan_store.create (Plan_store.source_of_optimizer (Optimizer.run fx.Fixtures.s_prog))

let fresh_plan fx =
  let opt = Optimizer.run fx.Fixtures.s_prog in
  Optimizer.plan_for_site opt fx.Fixtures.s_site ~nargs:1 ~has_ret:false

let plan_store_hit_and_publish () =
  let fx = Fixtures.array2d () in
  let store = store_of fx in
  let site = fx.Fixtures.s_site in
  (match Plan_store.get store ~site with
  | Some (p, Plan_store.Compiled) ->
      Alcotest.(check bool) "first get compiles the fresh plan" true
        (p = fresh_plan fx)
  | Some (_, _) -> Alcotest.fail "expected Compiled"
  | None -> Alcotest.fail "site must compile");
  (match Plan_store.get store ~site with
  | Some (_, Plan_store.Hit) -> ()
  | _ -> Alcotest.fail "second get must hit");
  Alcotest.(check int) "one miss" 1 (Plan_store.misses store);
  Alcotest.(check int) "one hit" 1 (Plan_store.hits store);
  Alcotest.(check int) "no invalidation" 0 (Plan_store.invalidations store);
  (* the deoptimizer widens the latest plan: the result becomes latest
     while the older version stays addressable for in-flight decodes,
     and widening the same position again makes nothing new *)
  (match Plan_store.widen store ~site (`Arg 0) with
  | p, true -> Alcotest.(check int) "widening numbered 2" 2 p.Plan.version
  | _, false -> Alcotest.fail "the first widening must make a version");
  (match Plan_store.widen store ~site (`Arg 0) with
  | p, false -> Alcotest.(check int) "latest handed back" 2 p.Plan.version
  | _, true -> Alcotest.fail "a dynamic position must not widen again");
  (match Plan_store.get store ~site with
  | Some (p, Plan_store.Hit) ->
      Alcotest.(check int) "widened plan is latest" 2 p.Plan.version;
      Alcotest.(check bool) "latest is polluted" true p.Plan.polluted
  | _ -> Alcotest.fail "expected a hit on the published plan");
  match Plan_store.version store ~site 1 with
  | Some p -> Alcotest.(check int) "old version addressable" 1 p.Plan.version
  | None -> Alcotest.fail "version 1 must remain cached"

let plan_store_invalidates_on_edit () =
  let fx = Fixtures.array2d () in
  let store = store_of fx in
  let site = fx.Fixtures.s_site in
  ignore (Plan_store.get store ~site);
  ignore (Plan_store.widen store ~site (`Arg 0));
  (* edit the caller's body slice: the content hash moves, so the next
     get drops every cached version — widened descendants included —
     and recompiles *)
  Array.iter
    (fun (m : Jir.Program.method_decl) ->
      m.Jir.Program.var_types <-
        Array.append m.Jir.Program.var_types [| Jir.Types.Tint |])
    fx.Fixtures.s_prog.Jir.Program.methods;
  (match Plan_store.get store ~site with
  | Some (p, Plan_store.Invalidated) ->
      Alcotest.(check int) "recompiled from scratch" 1 p.Plan.version;
      Alcotest.(check bool) "pollution gone" false p.Plan.polluted
  | _ -> Alcotest.fail "expected Invalidated");
  Alcotest.(check int) "invalidation counted" 1
    (Plan_store.invalidations store);
  Alcotest.(check bool) "stale widened version dropped" true
    (Plan_store.version store ~site 2 = None)

(* A remote [Foo.foo(Bar)] hands its argument to a local helper, so
   the argument's escape verdict rests on the helper's body, which is
   neither the caller's nor the callee's.  Editing only the helper to
   store the argument into a static must not leave the cached reuse
   licence in place. *)
let helper_program ~helper_body =
  Jfront.Lower.compile
    (Printf.sprintf
       {|class Data { int payload; }
class Bar { Data d; }
class Helper {
  static Bar kept;
  static void helper(Bar b) { %s }
}
remote class Foo {
  void foo(Bar b) { Helper.helper(b); }
}
class Driver {
  static void main() {
    Bar b = new Bar();
    b.d = new Data();
    Foo f = new Foo();
    f.foo(b);
  }
}|}
       helper_body)

let plan_store_sees_helper_edit () =
  let prog = helper_program ~helper_body:"" in
  let opt = Optimizer.run prog in
  let site =
    match opt.Optimizer.decisions with
    | [ d ] -> d.Optimizer.plan.Plan.callsite
    | _ -> Alcotest.fail "expected one remote call site"
  in
  let store = Plan_store.create (Plan_store.source_of_optimizer opt) in
  (match Plan_store.get store ~site with
  | Some (p, Plan_store.Compiled) ->
      Alcotest.(check bool) "helper keeps nothing: reusable" true
        (p.Plan.reuse_args = [| true |] && p.Plan.non_escaping)
  | _ -> Alcotest.fail "first get must compile");
  (* the edited helper, in SSA form like the program it is patched
     into *)
  let edited = helper_program ~helper_body:"Helper.kept = b;" in
  ignore (Optimizer.run edited : Optimizer.t);
  let helper p =
    Jir.Program.method_decl p (Jfront.Lower.method_named p "Helper.helper")
  in
  let h = helper prog and h' = helper edited in
  h.Jir.Program.blocks <- h'.Jir.Program.blocks;
  h.Jir.Program.var_types <- h'.Jir.Program.var_types;
  match Plan_store.get store ~site with
  | Some (p, outcome) ->
      Alcotest.(check bool) "not a hit" true (outcome <> Plan_store.Hit);
      Alcotest.(check bool) "argument now escapes" true
        (p.Plan.reuse_args = [| false |] && not p.Plan.non_escaping)
  | None -> Alcotest.fail "site must compile"

(* cached ≡ fresh under any interleaving of edits and lookups: each
   step edits one method, picked at random — the helper outside the
   caller/callee slice included — or none *)
let prop_cached_equals_fresh =
  QCheck.Test.make ~name:"plan store: cached plan = fresh compile" ~count:60
    QCheck.(small_list (option small_nat))
    (fun edits ->
      let prog = helper_program ~helper_body:"" in
      let opt = Optimizer.run prog in
      let site =
        match opt.Optimizer.decisions with
        | [ d ] -> d.Optimizer.plan.Plan.callsite
        | _ -> QCheck.Test.fail_report "expected one remote call site"
      in
      let store = Plan_store.create (Plan_store.source_of_optimizer opt) in
      let methods = prog.Jir.Program.methods in
      List.for_all
        (fun edit ->
          Option.iter
            (fun i ->
              let m = methods.(i mod Array.length methods) in
              m.Jir.Program.var_types <-
                Array.append m.Jir.Program.var_types [| Jir.Types.Tint |])
            edit;
          let fresh = Optimizer.decision_for (Optimizer.run prog) site in
          match (Plan_store.get store ~site, fresh) with
          | Some (cached, _), Some d -> cached = d.Optimizer.plan
          | _ -> false)
        edits)

let suite =
  [
    ( "codegen.plans",
      [
        Alcotest.test_case "figure 13 array marshaler" `Quick fig13_array_plan;
        Alcotest.test_case "int[][] plan round-trips" `Quick
          int_matrix_plan_roundtrip;
        Alcotest.test_case "figure 5/6 per-callsite specialization" `Quick
          fig5_per_callsite_specialization;
        Alcotest.test_case "recursive type -> self reference" `Quick
          recursive_type_becomes_self_reference;
        Alcotest.test_case "ambiguous type -> dyn" `Quick mixed_types_fall_back_to_dyn;
        Alcotest.test_case "inline depth budget" `Quick depth_budget_respected;
        Alcotest.test_case "plan size budget" `Quick size_budget_falls_back;
        Alcotest.test_case "statically null field" `Quick statically_null_field;
        Alcotest.test_case "recursion through arrays" `Quick recursion_through_arrays;
        Alcotest.test_case "plan size accounting" `Quick plan_size_accounting;
        Alcotest.test_case "generic plan invariants" `Quick generic_plan_invariants;
        Alcotest.test_case "widen invariants" `Quick widen_invariants;
      ] );
    ( "codegen.plan_store",
      [
        Alcotest.test_case "hit, publish, versions" `Quick
          plan_store_hit_and_publish;
        Alcotest.test_case "program edit invalidates" `Quick
          plan_store_invalidates_on_edit;
        Alcotest.test_case "helper edit outside the call's slice invalidates"
          `Quick plan_store_sees_helper_edit;
        Fixtures.qcheck_case prop_cached_equals_fresh;
      ] );
    ( "codegen.optimizer",
      [ Alcotest.test_case "end to end driver" `Quick optimizer_driver_end_to_end ] );
  ]
