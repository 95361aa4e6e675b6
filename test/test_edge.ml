(* Edge-case batteries: typechecker error paths, interpreter runtime
   errors, remaining wire/codec corners. *)

open Jir
module B = Builder
module Value = Rmi_serial.Value
module Codec = Rmi_serial.Codec
module Msgbuf = Rmi_wire.Msgbuf
module Metrics = Rmi_stats.Metrics
module Plan = Rmi_core.Plan

(* --- typechecker negatives ------------------------------------------- *)

(* build a tiny world and then patch an instruction in to check that the
   validator flags it *)
let world () =
  let b = B.create () in
  let box = B.declare_class b "Box" in
  let fv = B.add_field b box "v" Tint in
  let other = B.declare_class b "Other" in
  let fo = B.add_field b other "o" (Tobject other) in
  let st = B.declare_static b "s" Tint in
  let m = B.declare_method b ~name:"m" ~params:[ Tint; Tobject box ] ~ret:Tint () in
  B.define b m (fun mb -> B.ret mb (Some (Int 0)));
  (B.finish b, box, other, fv, fo, st, m)

let patch prog mid instrs term =
  let m = Program.method_decl prog mid in
  m.Program.blocks.(0) <- { Instr.phis = []; body = instrs; term }

let expect_error what prog =
  Alcotest.(check bool) (what ^ " rejected") true (Typecheck.check prog <> [])

let typecheck_negative_battery () =
  let mk () = world () in
  (* int stored into object field of the wrong type *)
  let prog, _, other, fv, _, _, m = mk () in
  patch prog m
    [ Instr.Alloc { dst = 2; cls = other; site = 0 };
      Instr.Store_field { obj = 2; fld = fv; src = Instr.Int 1 } ]
    (Instr.Ret (Some (Instr.Int 0)));
  (* var 2 has type Tint from the original var table: also wrong, good *)
  expect_error "field store to unrelated class" prog;
  (* branch on a non-boolean *)
  let prog, _, _, _, _, _, m = mk () in
  patch prog m [] (Instr.Br { cond = Instr.Int 1; ifso = 0; ifnot = 0 });
  expect_error "non-bool branch" prog;
  (* jump out of range *)
  let prog, _, _, _, _, _, m = mk () in
  patch prog m [] (Instr.Jmp 99);
  expect_error "label out of range" prog;
  (* returning an object from an int method *)
  let prog, _, _, _, _, _, m = mk () in
  patch prog m [] (Instr.Ret (Some (Instr.Var 1)));
  expect_error "return type mismatch" prog;
  (* void method returning a value is checked from the other side *)
  let prog, _, _, _, _, _, m = mk () in
  patch prog m [] (Instr.Ret None);
  expect_error "missing return value" prog;
  (* bad static id *)
  let prog, _, _, _, _, _, m = mk () in
  patch prog m
    [ Instr.Store_static { st = 42; src = Instr.Int 1 } ]
    (Instr.Ret (Some (Instr.Int 0)));
  expect_error "bad static id" prog;
  (* null into a primitive *)
  let prog, _, _, _, _, st, m = mk () in
  patch prog m
    [ Instr.Store_static { st; src = Instr.Null } ]
    (Instr.Ret (Some (Instr.Int 0)));
  expect_error "null into int static" prog;
  (* arithmetic on mixed operand types *)
  let prog, _, _, _, _, _, m = mk () in
  patch prog m
    [ Instr.Binop { dst = 0; op = Instr.Add; lhs = Instr.Int 1; rhs = Instr.Double 2.0 } ]
    (Instr.Ret (Some (Instr.Int 0)));
  expect_error "mixed arithmetic" prog

(* --- interpreter runtime errors --------------------------------------- *)

let interp_runtime_errors () =
  let b = B.create () in
  let box = B.declare_class b "Box" in
  let fv = B.add_field b box "v" Tint in
  let div = B.declare_method b ~name:"div" ~params:[ Tint; Tint ] ~ret:Tint () in
  B.define b div (fun mb ->
      let d = B.binop mb Instr.Div (Var (B.param mb 0)) (Var (B.param mb 1)) in
      B.ret mb (Some (Var d)));
  let deref = B.declare_method b ~name:"deref" ~params:[ Tobject box ] ~ret:Tint () in
  B.define b deref (fun mb ->
      let v = B.load_field mb (B.param mb 0) fv in
      B.ret mb (Some (Var v)));
  let oob = B.declare_method b ~name:"oob" ~params:[ Tint ] ~ret:Tdouble () in
  B.define b oob (fun mb ->
      let a = B.alloc_array mb Tdouble (Int 2) in
      let v = B.load_elem mb a (Var (B.param mb 0)) in
      B.ret mb (Some (Var v)));
  let neg = B.declare_method b ~name:"neg_len" ~params:[] ~ret:Tvoid () in
  B.define b neg (fun mb ->
      let a = B.alloc_array mb Tint (Int (-3)) in
      ignore a;
      B.ret mb None);
  let prog = B.finish b in
  Typecheck.check_exn prog;
  let st = Interp.create prog in
  let raises name f =
    Alcotest.(check bool) name true
      (try
         ignore (f ());
         false
       with Interp.Runtime_error _ -> true)
  in
  (match Interp.run st div [ Interp.Vint 10; Interp.Vint 2 ] with
  | Interp.Vint 5 -> ()
  | _ -> Alcotest.fail "div sanity");
  raises "division by zero" (fun () -> Interp.run st div [ Interp.Vint 1; Interp.Vint 0 ]);
  raises "null dereference" (fun () -> Interp.run st deref [ Interp.Vnull ]);
  raises "index out of bounds" (fun () -> Interp.run st oob [ Interp.Vint 5 ]);
  raises "negative index" (fun () -> Interp.run st oob [ Interp.Vint (-1) ]);
  raises "negative array length" (fun () -> Interp.run st neg [])

(* --- wire corners ------------------------------------------------------ *)

let prop_int_slice_roundtrip =
  QCheck.Test.make ~name:"int slices roundtrip" ~count:300
    QCheck.(list int)
    (fun xs ->
      let a = Array.of_list xs in
      let w = Msgbuf.create_writer () in
      Msgbuf.write_int_slice w a 0 (Array.length a);
      let b = Array.make (Array.length a) 0 in
      Msgbuf.read_int_slice (Msgbuf.reader_of_writer w) b 0 (Array.length b);
      a = b)

let slice_bounds_checked () =
  let w = Msgbuf.create_writer () in
  let a = Array.make 4 0.0 in
  Alcotest.(check bool) "writer oob" true
    (try
       Msgbuf.write_double_slice w a 2 4;
       false
     with Invalid_argument _ -> true);
  Msgbuf.write_double_slice w a 0 4;
  let r = Msgbuf.reader_of_writer w in
  Alcotest.(check bool) "reader oob" true
    (try
       Msgbuf.read_double_slice r a 2 4;
       false
     with Invalid_argument _ -> true)

(* --- codec corners ------------------------------------------------------ *)

let meta =
  Rmi_serial.Class_meta.make
    [ ("Holder", [ ("name", Jir.Types.Tstring); ("flags", Jir.Types.Tarray Jir.Types.Tbool) ]) ]

let string_and_bool_array_fields () =
  let flags = Value.new_rarr Jir.Types.Tbool 3 in
  flags.Value.ra.(0) <- Value.Bool true;
  flags.Value.ra.(1) <- Value.Bool false;
  flags.Value.ra.(2) <- Value.Bool true;
  let o = Value.new_obj ~cls:0 ~nfields:2 in
  o.Value.fields.(0) <- Value.Str "héllo\nworld";
  o.Value.fields.(1) <- Value.Rarr flags;
  let step =
    Plan.S_obj
      { cls = 0;
        fields = [| Plan.S_string; Plan.S_obj_array { elem = Plan.S_bool } |] }
  in
  let m = Metrics.create () in
  let w = Msgbuf.create_writer () in
  Codec.write_step (Codec.make_wctx meta m ~cycle:false) w step (Value.Obj o);
  let got =
    Codec.read_step
      (Codec.make_rctx meta m ~cycle:false)
      (Msgbuf.reader_of_writer w) step
  in
  match Rmi_serial.Equality.check ~expected:(Value.Obj o) ~actual:got with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

let null_string_field () =
  let o = Value.new_obj ~cls:0 ~nfields:2 in
  (* name left Null, flags left Null *)
  let step =
    Plan.S_obj
      { cls = 0;
        fields = [| Plan.S_string; Plan.S_obj_array { elem = Plan.S_bool } |] }
  in
  let m = Metrics.create () in
  let w = Msgbuf.create_writer () in
  Codec.write_step (Codec.make_wctx meta m ~cycle:false) w step (Value.Obj o);
  let got =
    Codec.read_step
      (Codec.make_rctx meta m ~cycle:false)
      (Msgbuf.reader_of_writer w) step
  in
  match got with
  | Value.Obj o' ->
      Alcotest.(check bool) "null name" true (o'.Value.fields.(0) = Value.Null);
      Alcotest.(check bool) "null flags" true (o'.Value.fields.(1) = Value.Null)
  | v -> Alcotest.failf "bad %a" Value.pp v

let value_introspection_helpers () =
  let o = Value.new_obj ~cls:0 ~nfields:2 in
  o.Value.fields.(0) <- Value.Str "abc";
  let shared = Value.new_darr 4 in
  o.Value.fields.(1) <- Value.Darr shared;
  Alcotest.(check int) "nodes: obj + str + darr" 3 (Value.count_nodes (Value.Obj o));
  (* 16+2*8 for the object, 16+3 for the string, 16+32 for the array *)
  Alcotest.(check int) "byte size" ((16 + 16) + (16 + 3) + (16 + 32))
    (Value.byte_size (Value.Obj o));
  Alcotest.(check bool) "identity for heap values" true
    (Value.identity (Value.Obj o) <> None);
  Alcotest.(check bool) "no identity for ints" true (Value.identity (Value.Int 1) = None)

let suite =
  [
    ( "edge.typecheck",
      [ Alcotest.test_case "negative battery" `Quick typecheck_negative_battery ] );
    ( "edge.interp",
      [ Alcotest.test_case "runtime errors" `Quick interp_runtime_errors ] );
    ( "edge.wire",
      [
        Fixtures.qcheck_case prop_int_slice_roundtrip;
        Alcotest.test_case "slice bounds" `Quick slice_bounds_checked;
      ] );
    ( "edge.codec",
      [
        Alcotest.test_case "string + bool[] fields" `Quick string_and_bool_array_fields;
        Alcotest.test_case "null string field" `Quick null_string_field;
        Alcotest.test_case "value helpers" `Quick value_introspection_helpers;
      ] );
  ]
