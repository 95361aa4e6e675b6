(* JIR encodings of the paper's running examples (Figures 2-14), shared
   by the analysis test suites.  Each builder returns the finished
   program plus the handles the assertions need. *)

open Jir
module B = Builder

(* SSA renaming gives allocation results fresh variable ids, so tests
   must not capture builder-time ids.  [alloc_dst prog mid cls] finds
   the (unique) variable holding the result of [new cls] in [mid],
   whatever its current name. *)
let alloc_dst prog mid cls =
  let m = Program.method_decl prog mid in
  let found = ref None in
  Array.iter
    (fun (blk : Instr.block) ->
      List.iter
        (fun i ->
          match i with
          | Instr.Alloc { dst; cls = c; _ } when c = cls -> found := Some dst
          | _ -> ())
        blk.body)
    m.blocks;
  match !found with
  | Some v -> v
  | None -> failwith "Fixtures.alloc_dst: no allocation of that class"

(* Figure 2: Foo{Bar bar; double[][][] a} with a 2x3x4 array. *)
type fig2 = {
  f2_prog : Program.t;
  f2_main : Types.method_id;
  f2_foo_cls : Types.class_id;
  f2_bar_fld : Types.field_ref;
  f2_a_fld : Types.field_ref;
}

let fig2 () =
  let b = B.create () in
  let bar = B.declare_class b "Bar" in
  let foo = B.declare_class b "Foo" in
  let bar_fld = B.add_field b foo "bar" (Tobject bar) in
  let a_fld = B.add_field b foo "a" (Tarray (Tarray (Tarray Tdouble))) in
  let main = B.declare_method b ~name:"main" ~params:[] ~ret:Tvoid () in
  B.define b main (fun mb ->
      let f = B.alloc mb foo in
      let bv = B.alloc mb bar in
      B.store_field mb f bar_fld (Var bv);
      let a3 = B.alloc_array mb (Tarray (Tarray Tdouble)) (Int 2) in
      let a2 = B.alloc_array mb (Tarray Tdouble) (Int 3) in
      let a1 = B.alloc_array mb Tdouble (Int 4) in
      B.store_elem mb a2 (Int 0) (Var a1);
      B.store_elem mb a3 (Int 0) (Var a2);
      B.store_field mb f a_fld (Var a3);
      B.ret mb None);
  {
    f2_prog = B.finish b;
    f2_main = main;
    f2_foo_cls = foo;
    f2_bar_fld = bar_fld;
    f2_a_fld = a_fld;
  }

(* Figures 3/4: remote identity method called in a loop — the data-flow
   cycle that the (logical, physical) tuples must terminate. *)
type fig3 = {
  f3_prog : Program.t;
  f3_zoo : Types.method_id;
  f3_foo : Types.method_id;
  f3_site : Types.site;  (* the remote call site *)
  f3_t_init_var : Types.var;  (* pre-SSA var holding t *)
}

let fig3 ?(iterations = 10) () =
  let b = B.create () in
  let data = B.declare_class b "Data" in
  let foo_cls = B.declare_class b ~remote:true "Foo" in
  let foo =
    B.declare_method b ~owner:foo_cls ~name:"Foo.foo"
      ~params:[ Tobject data ] ~ret:(Tobject data) ()
  in
  B.define b foo (fun mb -> B.ret mb (Some (Var (B.param mb 0))));
  let zoo = B.declare_method b ~name:"zoo" ~params:[] ~ret:Tvoid () in
  let site = ref (-1) in
  let t_var = ref (-1) in
  B.define b zoo (fun mb ->
      let me = B.alloc mb foo_cls in
      let t = B.fresh mb (Tobject data) in
      t_var := t;
      let d = B.alloc mb data in
      B.move mb t (Var d);
      B.loop_up mb ~from:(Int 0) ~limit:(Int iterations) (fun _i ->
          match B.rcall mb (Var me) foo [ Var t ] with
          | Some result ->
              (* recover the allocated callsite id: it is the site of the
                 rcall, which the builder numbered just before [result];
                 recorded below via the program scan instead *)
              B.move mb t (Var result)
          | None -> assert false);
      B.ret mb None);
  let prog = B.finish b in
  (match Program.remote_callsites prog with
  | [ (_, s, _, _, _) ] -> site := s
  | _ -> failwith "fig3: expected exactly one remote callsite");
  {
    f3_prog = prog;
    f3_zoo = zoo;
    f3_foo = foo;
    f3_site = !site;
    f3_t_init_var = !t_var;
  }

(* Figure 8: the same object passed twice to one remote call. *)
type simple_site = {
  s_prog : Program.t;
  s_site : Types.site;
  s_caller : Types.method_id;
  s_callee : Types.method_id;
}

let one_site prog =
  match Program.remote_callsites prog with
  | [ (m, s, callee, _, _) ] ->
      { s_prog = prog; s_site = s; s_caller = m.Program.mid; s_callee = callee }
  | l -> failwith (Printf.sprintf "expected exactly 1 callsite, got %d" (List.length l))

let fig8 () =
  let b = B.create () in
  let base = B.declare_class b "Base" in
  let work = B.declare_class b ~remote:true "Work" in
  let bar =
    B.declare_method b ~owner:work ~name:"Work.bar"
      ~params:[ Tobject base; Tobject base ] ~ret:Tvoid ()
  in
  B.define b bar (fun mb -> B.ret mb None);
  let foo = B.declare_method b ~name:"foo" ~params:[] ~ret:Tvoid () in
  B.define b foo (fun mb ->
      let w = B.alloc mb work in
      let bv = B.alloc mb base in
      B.rcall_ignore mb (Var w) bar [ Var bv; Var bv ];
      B.ret mb None);
  one_site (B.finish b)

(* Figure 9: an object with a reference back to itself. *)
let fig9 () =
  let b = B.create () in
  let base = B.declare_class b "Base" in
  let self_fld = B.add_field b base "self" (Tobject base) in
  let work = B.declare_class b ~remote:true "Work" in
  let bar =
    B.declare_method b ~owner:work ~name:"Work.bar" ~params:[ Tobject base ]
      ~ret:Tvoid ()
  in
  B.define b bar (fun mb -> B.ret mb None);
  let foo = B.declare_method b ~name:"foo" ~params:[] ~ret:Tvoid () in
  B.define b foo (fun mb ->
      let w = B.alloc mb work in
      let bv = B.alloc mb base in
      B.store_field mb bv self_fld (Var bv);
      B.rcall_ignore mb (Var w) bar [ Var bv ];
      B.ret mb None);
  one_site (B.finish b)

(* Figure 14: a linked list of [n] elements sent over one RMI.  The
   paper's analysis cannot distinguish it from a cyclic list. *)
let linked_list ?(elements = 100) () =
  let b = B.create () in
  let cell = B.declare_class b "LinkedList" in
  let next_fld = B.add_field b cell "next" (Tobject cell) in
  let foo_cls = B.declare_class b ~remote:true "Foo" in
  let send =
    B.declare_method b ~owner:foo_cls ~name:"Foo.send" ~params:[ Tobject cell ]
      ~ret:Tvoid ()
  in
  B.define b send (fun mb -> B.ret mb None);
  let bench = B.declare_method b ~name:"benchmark" ~params:[] ~ret:Tvoid () in
  B.define b bench (fun mb ->
      let f = B.alloc mb foo_cls in
      let head = B.fresh mb (Tobject cell) in
      B.move mb head Null;
      B.loop_up mb ~from:(Int 0) ~limit:(Int elements) (fun _ ->
          let n = B.alloc mb cell in
          B.store_field mb n next_fld (Var head);
          B.move mb head (Var n));
      B.rcall_ignore mb (Var f) send [ Var head ];
      B.ret mb None);
  one_site (B.finish b)

(* Figures 12/13: 16x16 double[][] transmission. *)
let array2d ?(n = 16) ?(elem = Types.Tdouble) () =
  let b = B.create () in
  let foo_cls = B.declare_class b ~remote:true "ArrayBench" in
  let send =
    B.declare_method b ~owner:foo_cls ~name:"ArrayBench.send"
      ~params:[ Tarray (Tarray elem) ] ~ret:Tvoid ()
  in
  B.define b send (fun mb -> B.ret mb None);
  let bench = B.declare_method b ~name:"benchmark" ~params:[] ~ret:Tvoid () in
  B.define b bench (fun mb ->
      let f = B.alloc mb foo_cls in
      let arr = B.alloc_array mb (Tarray elem) (Int n) in
      B.loop_up mb ~from:(Int 0) ~limit:(Int n) (fun i ->
          let inner = B.alloc_array mb elem (Int n) in
          B.store_elem mb arr (Var i) (Var inner));
      B.rcall_ignore mb (Var f) send [ Var arr ];
      B.ret mb None);
  one_site (B.finish b)

(* Figure 10: the argument never escapes foo — reusable. *)
let fig10 () =
  let b = B.create () in
  let foo_cls = B.declare_class b ~remote:true "Foo" in
  let sum = B.declare_static b "Foo.sum" Tdouble in
  let foo =
    B.declare_method b ~owner:foo_cls ~name:"Foo.foo" ~params:[ Tarray Tdouble ]
      ~ret:Tvoid ()
  in
  B.define b foo (fun mb ->
      let a = B.param mb 0 in
      let x = B.load_elem mb a (Int 0) in
      let y = B.load_elem mb a (Int 1) in
      let s = B.binop mb Instr.Add (Var x) (Var y) in
      B.store_static mb sum (Var s));
  let caller = B.declare_method b ~name:"caller" ~params:[] ~ret:Tvoid () in
  B.define b caller (fun mb ->
      let f = B.alloc mb foo_cls in
      let a = B.alloc_array mb Tdouble (Int 2) in
      B.rcall_ignore mb (Var f) foo [ Var a ];
      B.ret mb None);
  one_site (B.finish b)

(* Figure 11: the argument's [d] field is stored to a static — both the
   Data object and the Bar argument escape. *)
let fig11 () =
  let b = B.create () in
  let data = B.declare_class b "Data" in
  let bar = B.declare_class b "Bar" in
  let d_fld = B.add_field b bar "d" (Tobject data) in
  let foo_cls = B.declare_class b ~remote:true "Foo" in
  let d_static = B.declare_static b "Foo.d" (Tobject data) in
  let foo =
    B.declare_method b ~owner:foo_cls ~name:"Foo.foo" ~params:[ Tobject bar ]
      ~ret:Tvoid ()
  in
  B.define b foo (fun mb ->
      let a = B.param mb 0 in
      let dv = B.load_field mb a d_fld in
      B.store_static mb d_static (Var dv));
  let caller = B.declare_method b ~name:"caller" ~params:[] ~ret:Tvoid () in
  B.define b caller (fun mb ->
      let f = B.alloc mb foo_cls in
      let bv = B.alloc mb bar in
      let dv = B.alloc mb data in
      B.store_field mb bv d_fld (Var dv);
      B.rcall_ignore mb (Var f) foo [ Var bv ];
      B.ret mb None);
  one_site (B.finish b)

(* Figure 5: two call sites passing different derived classes. *)
type fig5 = {
  f5_prog : Program.t;
  f5_sites : Types.site list;  (* in source order *)
  f5_derived1 : Types.class_id;
  f5_derived2 : Types.class_id;
}

let fig5 () =
  let b = B.create () in
  let base = B.declare_class b "Base" in
  let derived1 = B.declare_class b ~super:base "Derived1" in
  let data_fld = B.add_field b derived1 "data" Tint in
  ignore data_fld;
  let derived2 = B.declare_class b ~super:base "Derived2" in
  let p_fld = B.add_field b derived2 "p" (Tobject derived1) in
  let work = B.declare_class b ~remote:true "Work" in
  let foo =
    B.declare_method b ~owner:work ~name:"Work.foo" ~params:[ Tobject base ]
      ~ret:Tvoid ()
  in
  B.define b foo (fun mb -> B.ret mb None);
  let go = B.declare_method b ~name:"go" ~params:[] ~ret:Tvoid () in
  B.define b go (fun mb ->
      let w = B.alloc mb work in
      let b1 = B.fresh mb (Tobject base) in
      let d1 = B.alloc mb derived1 in
      B.move mb b1 (Var d1);
      B.rcall_ignore mb (Var w) foo [ Var b1 ];
      let b2 = B.fresh mb (Tobject base) in
      let d2 = B.alloc mb derived2 in
      let d2p = B.alloc mb derived1 in
      B.store_field mb d2 p_fld (Var d2p);
      B.move mb b2 (Var d2);
      B.rcall_ignore mb (Var w) foo [ Var b2 ];
      B.ret mb None);
  let prog = B.finish b in
  let sites =
    List.map (fun (_, s, _, _, _) -> s) (Program.remote_callsites prog)
  in
  { f5_prog = prog; f5_sites = sites; f5_derived1 = derived1; f5_derived2 = derived2 }

(* A call site whose return value is used and reusable: the callee
   builds and returns a fresh object that the caller only reads. *)
let returned_value () =
  let b = B.create () in
  let page = B.declare_class b "Page" in
  let size_fld = B.add_field b page "size" Tint in
  let server = B.declare_class b ~remote:true "Server" in
  let get =
    B.declare_method b ~owner:server ~name:"Server.get" ~params:[] ~ret:(Tobject page) ()
  in
  B.define b get (fun mb ->
      let p = B.alloc mb page in
      B.store_field mb p size_fld (Int 42);
      B.ret mb (Some (Var p)));
  let caller = B.declare_method b ~name:"caller" ~params:[] ~ret:Tint () in
  B.define b caller (fun mb ->
      let s = B.alloc mb server in
      match B.rcall mb (Var s) get [] with
      | Some p ->
          let sz = B.load_field mb p size_fld in
          B.ret mb (Some (Var sz))
      | None -> assert false);
  one_site (B.finish b)

(* Deterministic QCheck wiring.  [QCheck_alcotest.to_alcotest] seeds
   from [Random.self_init] unless [QCHECK_SEED] is set, so a property
   that fails in CI is unreplayable.  Every suite routes its QCheck
   tests through [qcheck_case] instead: a fixed default seed makes runs
   reproducible, [QCHECK_SEED] still overrides it, and a failure prints
   the seed needed to replay the exact generator sequence. *)
let qcheck_seed =
  lazy
    (match Sys.getenv_opt "QCHECK_SEED" with
    | Some s -> ( try int_of_string (String.trim s) with _ -> 0xC0FFEE)
    | None -> 0xC0FFEE)

let qcheck_case test =
  let seed = Lazy.force qcheck_seed in
  let name, speed, run =
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| seed |]) test
  in
  ( name,
    speed,
    fun args ->
      try run args
      with e ->
        Printf.eprintf "\n[qcheck] replay with QCHECK_SEED=%d\n%!" seed;
        raise e )

(* The message a slice receive returned ([Transport.try_recv_slice] and
   its blocking and timed forms), copied out of the frame it shares. *)
let message (buf, off, len) = Bytes.sub buf off len

(* A gate cell as an Alcotest value, so golden rows print on mismatch. *)
let gate_cell =
  let module Gate = Rmi_harness.Gate in
  let pp ppf = function
    | Gate.Str s -> Format.fprintf ppf "Str %S" s
    | Int i -> Format.fprintf ppf "Int %d" i
    | Float (d, f) -> Format.fprintf ppf "Float (%d, %h)" d f
    | Bool b -> Format.fprintf ppf "Bool %b" b
    | Ints l ->
        Format.fprintf ppf "Ints [%s]"
          (String.concat "; " (List.map string_of_int l))
  in
  Alcotest.testable pp ( = )
