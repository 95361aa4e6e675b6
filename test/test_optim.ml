(* Scalar SSA optimization tests: folding, copy propagation, branch
   pruning, DCE — and behaviour preservation on random programs. *)

open Jir
module B = Builder
module Optim = Rmi_ssa.Optim

let build_and_ssa f =
  let b = B.create () in
  let mid = f b in
  let prog = B.finish b in
  Typecheck.check_exn prog;
  Rmi_ssa.Ssa.convert prog;
  (prog, mid)

let count_instrs (m : Program.method_decl) =
  Array.fold_left
    (fun acc (blk : Instr.block) -> acc + List.length blk.Instr.body)
    0 m.Program.blocks

let folds_constants () =
  let prog, f =
    build_and_ssa (fun b ->
        let f = B.declare_method b ~name:"f" ~params:[] ~ret:Tint () in
        B.define b f (fun mb ->
            let a = B.binop mb Instr.Mul (Int 3) (Int 4) in
            let s = B.binop mb Instr.Add (Int 2) (Var a) in
            let n = B.unop mb Instr.Neg (Var s) in
            let r = B.unop mb Instr.Neg (Var n) in
            B.ret mb (Some (Var r)));
        f)
  in
  let m = Program.method_decl prog f in
  let rewrites = Optim.simplify_method m in
  Alcotest.(check bool) "rewrote something" true (rewrites > 0);
  Alcotest.(check int) "all instructions folded away" 0 (count_instrs m);
  (match m.Program.blocks.(0).Instr.term with
  | Instr.Ret (Some (Instr.Int 14)) -> ()
  | t -> Alcotest.failf "expected ret 14, got %a" Pretty.pp_terminator t);
  (* still valid and still computes the same thing *)
  Typecheck.check_exn prog;
  match Interp.run (Interp.create prog) f [] with
  | Interp.Vint 14 -> ()
  | v -> Alcotest.failf "wrong result %a" Interp.pp_value v

let prunes_constant_branches () =
  let prog, f =
    build_and_ssa (fun b ->
        let f = B.declare_method b ~name:"f" ~params:[] ~ret:Tint () in
        B.define b f (fun mb ->
            let result = B.fresh mb Tint in
            B.if_ mb (Bool true)
              (fun () -> B.move mb result (Int 1))
              (fun () -> B.move mb result (Int 2));
            B.ret mb (Some (Var result)));
        f)
  in
  let m = Program.method_decl prog f in
  ignore (Optim.simplify_method m);
  (* the dead branch is disconnected: no block still branches on a
     constant, and the function still returns 1 *)
  Array.iter
    (fun (blk : Instr.block) ->
      match blk.Instr.term with
      | Instr.Br { cond = Instr.Bool _; _ } -> Alcotest.fail "constant branch left"
      | _ -> ())
    m.Program.blocks;
  Typecheck.check_exn prog;
  match Interp.run (Interp.create prog) f [] with
  | Interp.Vint 1 -> ()
  | v -> Alcotest.failf "wrong result %a" Interp.pp_value v

let removes_dead_allocations () =
  let prog, f =
    build_and_ssa (fun b ->
        let cls = B.declare_class b "C" in
        let f = B.declare_method b ~name:"f" ~params:[] ~ret:Tint () in
        B.define b f (fun mb ->
            let dead_obj = B.alloc mb cls in
            let dead_arr = B.alloc_array mb Tint (Int 8) in
            ignore dead_obj;
            ignore dead_arr;
            B.ret mb (Some (Int 7)));
        f)
  in
  let m = Program.method_decl prog f in
  ignore (Optim.simplify_method m);
  Alcotest.(check int) "dead allocations removed" 0 (count_instrs m)

let keeps_faulting_code () =
  (* division by a zero constant and a possibly-negative array length
     must survive *)
  let prog, f =
    build_and_ssa (fun b ->
        let f = B.declare_method b ~name:"f" ~params:[ Tint ] ~ret:Tint () in
        B.define b f (fun mb ->
            let d = B.binop mb Instr.Div (Int 1) (Int 0) in
            ignore d;
            let arr = B.alloc_array mb Tint (Var (B.param mb 0)) in
            ignore arr;
            B.ret mb (Some (Int 0)));
        f)
  in
  let m = Program.method_decl prog f in
  ignore (Optim.simplify_method m);
  Alcotest.(check int) "faulting instrs kept" 2 (count_instrs m);
  (* and they still fault *)
  Alcotest.(check bool) "still faults" true
    (try
       ignore (Interp.run (Interp.create prog) f [ Interp.Vint 1 ]);
       false
     with Interp.Runtime_error _ -> true)

let copy_propagates_through_phis () =
  let prog, f =
    build_and_ssa (fun b ->
        let f = B.declare_method b ~name:"f" ~params:[ Tbool ] ~ret:Tint () in
        B.define b f (fun mb ->
            let x = B.fresh mb Tint in
            (* both branches assign the same constant: the phi folds *)
            B.if_ mb
              (Var (B.param mb 0))
              (fun () -> B.move mb x (Int 9))
              (fun () -> B.move mb x (Int 9));
            B.ret mb (Some (Var x)));
        f)
  in
  let m = Program.method_decl prog f in
  ignore (Optim.simplify_method m);
  (match m.Program.blocks.(3).Instr.term with
  | Instr.Ret (Some (Instr.Int 9)) -> ()
  | _ -> Alcotest.fail "phi of identical constants not folded");
  Typecheck.check_exn prog

let rejects_non_ssa () =
  let b = B.create () in
  let f = B.declare_method b ~name:"f" ~params:[] ~ret:Tint () in
  B.define b f (fun mb ->
      let x = B.fresh mb Tint in
      B.move mb x (Int 1);
      B.move mb x (Int 2);
      B.ret mb (Some (Var x)));
  let prog = B.finish b in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Optim.simplify_method (Program.method_decl prog f));
       false
     with Invalid_argument _ -> true)

(* behaviour preservation on the random-program generator *)
let prop_simplify_preserves_behaviour =
  QCheck.Test.make ~name:"simplify preserves observable behaviour" ~count:100
    Test_soundness.arb_program
    (fun stmts ->
      let run simplified =
        let built = Test_soundness.build stmts in
        Rmi_ssa.Ssa.convert built.Test_soundness.prog;
        if simplified then ignore (Optim.simplify built.Test_soundness.prog);
        (match Typecheck.check built.Test_soundness.prog with
        | [] -> ()
        | errs ->
            QCheck.Test.fail_reportf "simplified program ill-typed: %s"
              (String.concat "; "
                 (List.map (fun e -> Format.asprintf "%a" Typecheck.pp_error e) errs)));
        let st = Interp.create ~step_limit:200_000 built.Test_soundness.prog in
        let fault =
          try
            ignore (Interp.run st built.Test_soundness.main [ Interp.Vbool true ]);
            false
          with Interp.Runtime_error _ | Interp.Step_limit_exceeded -> true
        in
        (built, st, fault)
      in
      let b1, st1, fault1 = run false in
      let b2, st2, fault2 = run true in
      ignore b2;
      fault1 = fault2
      && (fault1
         || Array.for_all
              (fun i ->
                Interp.value_equal (Interp.read_static st1 i)
                  (Interp.read_static st2 i))
              (Array.init (Array.length b1.Test_soundness.prog.Program.statics) Fun.id))
      )

let analyses_agree_after_simplify () =
  (* the optimizer's verdicts for the array benchmark are unchanged by
     the cleanup pass *)
  let fx = Fixtures.array2d () in
  let opt = Rmi_core.Optimizer.run ~simplify:true fx.s_prog in
  match opt.Rmi_core.Optimizer.decisions with
  | [ d ] ->
      Alcotest.(check bool) "acyclic" true d.Rmi_core.Optimizer.args_acyclic;
      Alcotest.(check bool) "reusable" true
        (Rmi_core.Escape_analysis.is_reusable d.Rmi_core.Optimizer.arg_escape.(0));
      (match d.Rmi_core.Optimizer.plan.Rmi_core.Plan.args with
      | [| Rmi_core.Plan.S_flat_array |] -> ()
      | _ -> Alcotest.fail "plan changed")
  | _ -> Alcotest.fail "expected one decision"

let suite =
  [
    ( "optim.scalar",
      [
        Alcotest.test_case "constant folding" `Quick folds_constants;
        Alcotest.test_case "constant branch pruning" `Quick prunes_constant_branches;
        Alcotest.test_case "dead allocation removal" `Quick removes_dead_allocations;
        Alcotest.test_case "faulting code kept" `Quick keeps_faulting_code;
        Alcotest.test_case "phi of identical constants" `Quick
          copy_propagates_through_phis;
        Alcotest.test_case "rejects non-SSA" `Quick rejects_non_ssa;
        Alcotest.test_case "analyses unchanged" `Quick analyses_agree_after_simplify;
        Fixtures.qcheck_case prop_simplify_preserves_behaviour;
      ] );
  ]
