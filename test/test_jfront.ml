(* Front-end tests: lexer, parser, lowering, and full-pipeline runs in
   which the paper's figure snippets are written as source text,
   compiled, interpreted, and fed to the optimizer. *)

module L = Jfront.Lexer
module P = Jfront.Parser
module Lower = Jfront.Lower

let compile = Lower.compile

(* --- lexer --- *)

let lexes_tokens () =
  let toks = L.tokenize "class A { int x; } // comment\n/* multi\nline */" in
  let tags = List.map (fun t -> t.L.tok) toks in
  Alcotest.(check bool) "shape" true
    (tags = [ L.KW_CLASS; L.IDENT "A"; L.LBRACE; L.KW_INT; L.IDENT "x";
              L.SEMI; L.RBRACE; L.EOF ])

let lexes_operators () =
  let toks = L.tokenize "== != <= >= && || ++ = < >" in
  let tags = List.map (fun t -> t.L.tok) toks in
  Alcotest.(check bool) "ops" true
    (tags = [ L.EQ; L.NE; L.LE; L.GE; L.AMPAMP; L.BARBAR; L.PLUSPLUS;
              L.ASSIGN; L.LT; L.GT; L.EOF ])

let lexes_literals () =
  let toks = L.tokenize "42 3.25 \"hi\\n\" true false null" in
  let tags = List.map (fun t -> t.L.tok) toks in
  Alcotest.(check bool) "literals" true
    (tags = [ L.INT_LIT 42; L.DOUBLE_LIT 3.25; L.STRING_LIT "hi\n"; L.KW_TRUE;
              L.KW_FALSE; L.KW_NULL; L.EOF ])

let lex_error_position () =
  try
    ignore (L.tokenize "class A {\n  @\n}");
    Alcotest.fail "expected Lex_error"
  with L.Lex_error (_, line, _) -> Alcotest.(check int) "line 2" 2 line

(* --- parser --- *)

let parses_class_shape () =
  let ast = P.parse "remote class Svc extends Base { int x; double go(int a) { return 1.5; } }" in
  match ast.Jfront.Ast.classes with
  | [ c ] ->
      Alcotest.(check bool) "remote" true c.Jfront.Ast.c_remote;
      Alcotest.(check (option string)) "super" (Some "Base") c.Jfront.Ast.c_super;
      Alcotest.(check int) "one field" 1 (List.length c.Jfront.Ast.c_fields);
      Alcotest.(check int) "one method" 1 (List.length c.Jfront.Ast.c_methods)
  | _ -> Alcotest.fail "expected one class"

let parse_error_reports_position () =
  try
    ignore (P.parse "class A { int }");
    Alcotest.fail "expected Parse_error"
  with P.Parse_error (_, line, _) -> Alcotest.(check int) "line 1" 1 line

let parses_precedence () =
  (* 1 + 2 * 3 parses as 1 + (2 * 3) *)
  let ast = P.parse "class A { static int f() { return 1 + 2 * 3; } }" in
  match ast.Jfront.Ast.classes with
  | [ { Jfront.Ast.c_methods = [ m ]; _ } ] -> (
      match m.Jfront.Ast.m_body with
      | [ Jfront.Ast.S_return (Some (Jfront.Ast.E_binop (Jfront.Ast.Add, _, Jfront.Ast.E_binop (Jfront.Ast.Mul, _, _)))) ] -> ()
      | _ -> Alcotest.fail "wrong precedence")
  | _ -> Alcotest.fail "expected one class/method"

let parser_edge_cases () =
  (* nested calls, chained postfix, parenthesized receivers *)
  let ast =
    P.parse
      "class A { static int f() { return g(h(1), 2).x[3].y; } }"
  in
  (match ast.Jfront.Ast.classes with
  | [ { Jfront.Ast.c_methods = [ m ]; _ } ] -> (
      match m.Jfront.Ast.m_body with
      | [ Jfront.Ast.S_return (Some (Jfront.Ast.E_field (Jfront.Ast.E_index (Jfront.Ast.E_field (Jfront.Ast.E_call (None, "g", [ _; _ ]), "x"), _), "y"))) ] -> ()
      | _ -> Alcotest.fail "postfix chain misparsed")
  | _ -> Alcotest.fail "expected one class");
  (* unary minus binds tighter than multiplication *)
  let ast2 = P.parse "class A { static int f() { return -1 * 2; } }" in
  (match ast2.Jfront.Ast.classes with
  | [ { Jfront.Ast.c_methods = [ m ]; _ } ] -> (
      match m.Jfront.Ast.m_body with
      | [ Jfront.Ast.S_return (Some (Jfront.Ast.E_binop (Jfront.Ast.Mul, Jfront.Ast.E_unop (Jfront.Ast.Neg, _), _))) ] -> ()
      | _ -> Alcotest.fail "unary precedence misparsed")
  | _ -> Alcotest.fail "expected one class");
  (* declarations vs expression statements: A[] a; vs a[0] = 1; *)
  let ast3 =
    P.parse "class A { static void f() { A[] xs = null; xs[0] = null; } }"
  in
  (match ast3.Jfront.Ast.classes with
  | [ { Jfront.Ast.c_methods = [ m ]; _ } ] -> (
      match m.Jfront.Ast.m_body with
      | [ Jfront.Ast.S_decl (Jfront.Ast.Array (Jfront.Ast.Named "A"), "xs", Some Jfront.Ast.E_null);
          Jfront.Ast.S_assign (Jfront.Ast.L_index (_, _), Jfront.Ast.E_null) ] -> ()
      | _ -> Alcotest.fail "decl/index ambiguity misparsed")
  | _ -> Alcotest.fail "expected one class")

(* --- lowering + interpretation --- *)

let run_static prog name args =
  let mid = Lower.method_named prog name in
  Jir.Interp.run (Jir.Interp.create prog) mid args

let compiles_and_runs_arith () =
  let prog =
    compile
      {|
      class Math {
        static int gcd(int a, int b) {
          while (b != 0) { int t = b; b = a % b; a = t; }
          return a;
        }
        static int fib(int n) {
          if (n < 2) { return n; }
          return Math.gcd(0, 0) + Math.fib(n - 1) + Math.fib(n - 2);
        }
      }
      |}
  in
  (match run_static prog "Math.gcd" [ Jir.Interp.Vint 48; Jir.Interp.Vint 18 ] with
  | Jir.Interp.Vint 6 -> ()
  | v -> Alcotest.failf "gcd: %a" Jir.Interp.pp_value v);
  match run_static prog "Math.fib" [ Jir.Interp.Vint 10 ] with
  | Jir.Interp.Vint 55 -> ()
  | v -> Alcotest.failf "fib: %a" Jir.Interp.pp_value v

let compiles_objects_and_this () =
  let prog =
    compile
      {|
      class Counter {
        int value;
        void bump(int by) { value = value + by; }
        int get() { return this.value; }
        static int demo() {
          Counter c = new Counter();
          c.bump(40);
          c.bump(2);
          return c.get();
        }
      }
      |}
  in
  match run_static prog "Counter.demo" [] with
  | Jir.Interp.Vint 42 -> ()
  | v -> Alcotest.failf "demo: %a" Jir.Interp.pp_value v

let compiles_arrays_and_for () =
  let prog =
    compile
      {|
      class Arr {
        static int sum(int n) {
          int[] a = new int[n];
          for (int i = 0; i < a.length; i++) { a[i] = i * i; }
          int total = 0;
          for (int i = 0; i < n; i++) { total = total + a[i]; }
          return total;
        }
        static double matrix() {
          double[][] m = new double[3][4];
          m[2][3] = 2.5;
          return m[2][3] + m[0][0];
        }
      }
      |}
  in
  (match run_static prog "Arr.sum" [ Jir.Interp.Vint 5 ] with
  | Jir.Interp.Vint 30 -> ()
  | v -> Alcotest.failf "sum: %a" Jir.Interp.pp_value v);
  match run_static prog "Arr.matrix" [] with
  | Jir.Interp.Vdouble 2.5 -> ()
  | v -> Alcotest.failf "matrix: %a" Jir.Interp.pp_value v

let static_methods_of_remote_classes_are_local () =
  (* a static method of a remote class is not remotely invokable: it
     lowers to a plain local call (and needs no receiver) *)
  let prog =
    compile
      {|
      remote class Svc {
        static int helper(int x) { return x + 1; }
        int work(int x) { return Svc.helper(x) * 2; }
      }
      class Driver {
        static int main() { return Svc.helper(20); }
      }
      |}
  in
  (* no remote call sites come from the static calls *)
  Alcotest.(check int) "no rmi callsites" 0
    (List.length (Jir.Program.remote_callsites prog));
  match run_static prog "Driver.main" [] with
  | Jir.Interp.Vint 21 -> ()
  | v -> Alcotest.failf "static helper: %a" Jir.Interp.pp_value v

let compiles_numeric_promotion () =
  let prog =
    compile
      {|
      class P {
        static double mix(int i) { return i * 2.5 + 1; }
      }
      |}
  in
  match run_static prog "P.mix" [ Jir.Interp.Vint 4 ] with
  | Jir.Interp.Vdouble d -> Alcotest.(check (float 1e-9)) "4*2.5+1" 11.0 d
  | v -> Alcotest.failf "promotion: %a" Jir.Interp.pp_value v

let compiles_short_circuit () =
  let prog =
    compile
      {|
      class SC {
        static int calls;
        static boolean bump() { calls = calls + 1; return true; }
        static int demo() {
          calls = 0;
          boolean x = false && SC.bump();
          boolean y = true || SC.bump();
          if (x || !y) { return -1; }
          return calls;
        }
      }
      |}
  in
  match run_static prog "SC.demo" [] with
  | Jir.Interp.Vint 0 -> ()
  | v -> Alcotest.failf "short circuit: %a" Jir.Interp.pp_value v

let compiles_inheritance () =
  let prog =
    compile
      {|
      class Base { int b; }
      class Derived extends Base { int d;
        static int demo() {
          Derived o = new Derived();
          o.b = 30; o.d = 12;
          return o.b + o.d;
        }
      }
      |}
  in
  match run_static prog "Derived.demo" [] with
  | Jir.Interp.Vint 42 -> ()
  | v -> Alcotest.failf "inheritance: %a" Jir.Interp.pp_value v

let rejects_errors () =
  List.iter
    (fun (what, src) ->
      match Lower.compile_result src with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s should not compile" what)
    [
      ("unknown class", "class A { static void f() { B x = null; } }");
      ("unknown field", "class A { static void f() { A a = new A(); a.x = 1; } }");
      ("unknown method", "class A { static void f() { A a = new A(); a.g(); } }");
      ("arity", "class A { static void g(int x) {} static void f() { A.g(); } }");
      ("void as value", "class A { static void g() {} static void f() { int x = A.g(); } }");
      ("cyclic extends", "class A extends B {} class B extends A {}");
      ("return mismatch", "class A { static void f() { return 5; } }");
      ("remote this",
       "remote class R { int x; void m() { x = 1; } }");
    ]

(* --- printer/parser roundtrip ------------------------------------- *)

let gen_expr =
  let open QCheck.Gen in
  let ident = oneofl [ "x"; "y"; "foo"; "bar" ] in
  let leaf =
    oneof
      [
        map (fun i -> Jfront.Ast.E_int i) (int_bound 1000);
        oneofl
          [ Jfront.Ast.E_double 0.5; Jfront.Ast.E_double 1.25;
            Jfront.Ast.E_double 3.0 ];
        map (fun b -> Jfront.Ast.E_bool b) bool;
        return Jfront.Ast.E_null;
        map (fun v -> Jfront.Ast.E_var v) ident;
        map (fun s -> Jfront.Ast.E_string s)
          (string_size ~gen:(char_range 'a' 'z') (int_bound 6));
      ]
  in
  fix
    (fun self depth ->
      if depth = 0 then leaf
      else
        frequency
          [
            (3, leaf);
            ( 2,
              map3
                (fun op l r -> Jfront.Ast.E_binop (op, l, r))
                (oneofl
                   Jfront.Ast.
                     [ Add; Sub; Mul; Div; Rem; Eq; Ne; Lt; Le; Gt; Ge; And; Or ])
                (self (depth - 1))
                (self (depth - 1)) );
            ( 1,
              map2
                (fun op e -> Jfront.Ast.E_unop (op, e))
                (oneofl Jfront.Ast.[ Neg; Not ])
                (self (depth - 1)) );
            (1, map2 (fun e f -> Jfront.Ast.E_field (e, f)) (self (depth - 1)) ident);
            ( 1,
              map2
                (fun e i -> Jfront.Ast.E_index (e, i))
                (self (depth - 1))
                (self (depth - 1)) );
            ( 1,
              map2
                (fun name args -> Jfront.Ast.E_call (None, name, args))
                ident
                (list_size (int_bound 3) (self (depth - 1))) );
            ( 1,
              map3
                (fun recv name args -> Jfront.Ast.E_call (Some recv, name, args))
                (self (depth - 1))
                ident
                (list_size (int_bound 2) (self (depth - 1))) );
            (1, map (fun c -> Jfront.Ast.E_new c) (oneofl [ "A"; "B" ]));
          ])
    3

let gen_stmt =
  let open QCheck.Gen in
  let ty = oneofl Jfront.Ast.[ Int; Double; Bool; Named "A"; Array Int ] in
  let ident = oneofl [ "x"; "y"; "z" ] in
  fix
    (fun self depth ->
      let leaf =
        oneof
          [
            map3 (fun t n e -> Jfront.Ast.S_decl (t, n, Some e)) ty ident gen_expr;
            map2 (fun n e -> Jfront.Ast.S_assign (Jfront.Ast.L_var n, e)) ident gen_expr;
            map (fun e -> Jfront.Ast.S_return (Some e)) gen_expr;
            return (Jfront.Ast.S_return None);
          ]
      in
      if depth = 0 then leaf
      else
        frequency
          [
            (4, leaf);
            ( 1,
              map3
                (fun c t e -> Jfront.Ast.S_if (c, t, e))
                gen_expr
                (list_size (int_bound 2) (self (depth - 1)))
                (list_size (int_bound 2) (self (depth - 1))) );
            ( 1,
              map2
                (fun c body -> Jfront.Ast.S_while (c, body))
                gen_expr
                (list_size (int_bound 2) (self (depth - 1))) );
          ])
    2

let gen_program =
  let open QCheck.Gen in
  map
    (fun (fields, body) ->
      {
        Jfront.Ast.classes =
          [
            { Jfront.Ast.c_remote = false; c_name = "A"; c_super = None;
              c_fields = []; c_statics = []; c_methods = [] };
            { Jfront.Ast.c_remote = true; c_name = "B"; c_super = None;
              c_fields = fields; c_statics = [];
              c_methods =
                [
                  { Jfront.Ast.m_static = true; m_ret = Jfront.Ast.Int;
                    m_name = "go"; m_params = [ (Jfront.Ast.Int, "n") ];
                    m_body = body };
                ] };
          ];
      })
    (pair
       (list_size (int_bound 3)
          (pair (oneofl Jfront.Ast.[ Int; Named "A" ]) (oneofl [ "f"; "g"; "h" ])))
       (list_size (int_bound 5) gen_stmt))

let arb_program =
  QCheck.make ~print:Jfront.Pretty_ast.program_to_string gen_program

let prop_print_parse_roundtrip =
  QCheck.Test.make ~name:"parse (print ast) = ast" ~count:300 arb_program
    (fun ast ->
      (* duplicate field names confuse nothing at parse level; compare
         structurally *)
      let printed = Jfront.Pretty_ast.program_to_string ast in
      match P.parse printed with
      | reparsed -> reparsed = ast
      | exception (P.Parse_error (msg, l, c)) ->
          QCheck.Test.fail_reportf "parse error %s at %d:%d in:\n%s" msg l c
            printed)

let else_if_chains () =
  let prog =
    compile
      {|
      class C {
        static int classify(int n) {
          if (n < 0) { return -1; }
          else if (n == 0) { return 0; }
          else if (n < 10) { return 1; }
          else { return 2; }
        }
      }
      |}
  in
  List.iter
    (fun (input, expect) ->
      match run_static prog "C.classify" [ Jir.Interp.Vint input ] with
      | Jir.Interp.Vint v ->
          Alcotest.(check int) (Printf.sprintf "classify %d" input) expect v
      | v -> Alcotest.failf "bad %a" Jir.Interp.pp_value v)
    [ (-5, -1); (0, 0); (5, 1); (50, 2) ]

(* --- the paper's Figure 12, as source, through the whole pipeline --- *)

let figure12_source =
  {|
  remote class ArrayBench {
    void send(double[][] arr) { }
  }
  class Driver {
    static void benchmark() {
      double[][] arr = new double[16][16];
      ArrayBench f = new ArrayBench();
      for (int i = 0; i < 100; i++) { f.send(arr); }
    }
  }
  |}

let figure12_through_optimizer () =
  let prog = compile figure12_source in
  let opt = Rmi_core.Optimizer.run prog in
  match opt.Rmi_core.Optimizer.decisions with
  | [ d ] ->
      Alcotest.(check bool) "acyclic" true d.Rmi_core.Optimizer.args_acyclic;
      Alcotest.(check bool) "reusable" true
        (Rmi_core.Escape_analysis.is_reusable d.Rmi_core.Optimizer.arg_escape.(0));
      (match d.Rmi_core.Optimizer.plan.Rmi_core.Plan.args with
      | [| Rmi_core.Plan.S_flat_array |] -> ()
      | _ -> Alcotest.fail "expected the Figure 13 (flat) plan");
      Alcotest.(check bool) "ack-only" true
        (d.Rmi_core.Optimizer.plan.Rmi_core.Plan.ret = None)
  | ds -> Alcotest.failf "expected one callsite, got %d" (List.length ds)

(* Figure 14: the linked list, as source *)
let figure14_source =
  {|
  class LinkedList {
    LinkedList next;
  }
  remote class Foo {
    void send(LinkedList l) { }
  }
  class Driver {
    static void benchmark() {
      LinkedList head = null;
      for (int i = 0; i < 100; i++) {
        LinkedList n = new LinkedList();
        n.next = head;
        head = n;
      }
      Foo f = new Foo();
      f.send(head);
    }
  }
  |}

let figure14_through_optimizer () =
  let prog = compile figure14_source in
  let opt = Rmi_core.Optimizer.run prog in
  match opt.Rmi_core.Optimizer.decisions with
  | [ d ] ->
      Alcotest.(check bool) "conservatively cyclic" false
        d.Rmi_core.Optimizer.args_acyclic;
      Alcotest.(check bool) "reusable" true
        (Rmi_core.Escape_analysis.is_reusable d.Rmi_core.Optimizer.arg_escape.(0))
  | _ -> Alcotest.fail "expected one callsite"

(* Figure 11: escape through a static *)
let figure11_source =
  {|
  class Data { int payload; }
  class Bar { Data d; }
  remote class Foo {
    static Data d;
    void foo(Bar a) { Foo.d = a.d; }
  }
  class Driver {
    static void go() {
      Foo f = new Foo();
      Bar b = new Bar();
      b.d = new Data();
      f.foo(b);
    }
  }
  |}

let figure11_through_optimizer () =
  let prog = compile figure11_source in
  let opt = Rmi_core.Optimizer.run prog in
  match opt.Rmi_core.Optimizer.decisions with
  | [ d ] ->
      Alcotest.(check bool) "escapes" false
        (Rmi_core.Escape_analysis.is_reusable d.Rmi_core.Optimizer.arg_escape.(0))
  | _ -> Alcotest.fail "expected one callsite"

(* remote call semantics through source: deep copies *)
let remote_semantics_from_source () =
  let prog =
    compile
      {|
      class Box { int v; }
      remote class Svc {
        void mutate(Box b) { b.v = 99; }
      }
      class Driver {
        static int demo() {
          Box mine = new Box();
          mine.v = 7;
          Svc s = new Svc();
          s.mutate(mine);
          return mine.v;
        }
      }
      |}
  in
  match run_static prog "Driver.demo" [] with
  | Jir.Interp.Vint 7 -> ()
  | v -> Alcotest.failf "deep copy violated: %a" Jir.Interp.pp_value v

let suite =
  [
    ( "jfront.lexer",
      [
        Alcotest.test_case "tokens" `Quick lexes_tokens;
        Alcotest.test_case "operators" `Quick lexes_operators;
        Alcotest.test_case "literals" `Quick lexes_literals;
        Alcotest.test_case "error position" `Quick lex_error_position;
      ] );
    ( "jfront.parser",
      [
        Alcotest.test_case "class shape" `Quick parses_class_shape;
        Alcotest.test_case "error position" `Quick parse_error_reports_position;
        Alcotest.test_case "precedence" `Quick parses_precedence;
        Alcotest.test_case "edge cases" `Quick parser_edge_cases;
      ] );
    ( "jfront.lowering",
      [
        Alcotest.test_case "arith, loops, recursion" `Quick compiles_and_runs_arith;
        Alcotest.test_case "objects and this" `Quick compiles_objects_and_this;
        Alcotest.test_case "arrays and for" `Quick compiles_arrays_and_for;
        Alcotest.test_case "short circuit" `Quick compiles_short_circuit;
        Alcotest.test_case "numeric promotion" `Quick compiles_numeric_promotion;
        Alcotest.test_case "remote-class statics are local" `Quick
          static_methods_of_remote_classes_are_local;
        Alcotest.test_case "inheritance" `Quick compiles_inheritance;
        Alcotest.test_case "rejects bad programs" `Quick rejects_errors;
        Alcotest.test_case "else-if chains" `Quick else_if_chains;
      ] );
    ( "jfront.printer",
      [ Fixtures.qcheck_case prop_print_parse_roundtrip ] );
    ( "jfront.pipeline",
      [
        Alcotest.test_case "figure 12 source -> figure 13 plan" `Quick
          figure12_through_optimizer;
        Alcotest.test_case "figure 14 source -> cyclic verdict" `Quick
          figure14_through_optimizer;
        Alcotest.test_case "figure 11 source -> escape verdict" `Quick
          figure11_through_optimizer;
        Alcotest.test_case "remote deep copy from source" `Quick
          remote_semantics_from_source;
      ] );
  ]
