(* Differential and adversarial serializer tests.

   Differential: the three serializer families (introspective,
   class-specific/dynamic, call-site plan) must reconstruct structurally
   identical values from the same input.

   Adversarial: feeding arbitrary bytes to any deserializer must raise
   a clean protocol error (Underflow) — never crash, hang, or allocate
   absurd amounts.  This exercises the length validation on every array
   path. *)

open Rmi_serial
module Msgbuf = Rmi_wire.Msgbuf
module Metrics = Rmi_stats.Metrics
module Plan = Rmi_core.Plan

let meta =
  Class_meta.make
    [
      ("Cell", [ ("next", Jir.Types.Tobject 0) ]);
      ("Pair", [ ("a", Jir.Types.Tint); ("b", Jir.Types.Tobject 0) ]);
      ("Item", [ ("v", Jir.Types.Tint); ("next", Jir.Types.Tobject 2) ]);
      ("Tree", [ ("l", Jir.Types.Tobject 3); ("r", Jir.Types.Tobject 3) ]);
      ( "Branch",
        [
          ("kids", Jir.Types.Tarray (Jir.Types.Tobject 4));
          ("next", Jir.Types.Tobject 4);
        ] );
    ]

(* random acyclic values over the Cell/Pair world *)
let gen_value =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        return Value.Null;
        map (fun i -> Value.Int i) small_int;
        map (fun f -> Value.Double f) float;
        map (fun s -> Value.Str s) (string_size (int_bound 8));
        map
          (fun fs ->
            let a = Value.new_darr (List.length fs) in
            List.iteri (fun i f -> a.Value.d.(i) <- f) fs;
            Value.Darr a)
          (list_size (int_bound 6) float);
        map
          (fun is ->
            let a = Value.new_iarr (List.length is) in
            List.iteri (fun i x -> a.Value.ia.(i) <- x) is;
            Value.Iarr a)
          (list_size (int_bound 6) int);
      ]
  in
  fix
    (fun self depth ->
      if depth = 0 then leaf
      else
        frequency
          [
            (2, leaf);
            ( 2,
              map
                (fun next ->
                  let c = Value.new_obj ~cls:0 ~nfields:1 in
                  c.Value.fields.(0) <- next;
                  Value.Obj c)
                (self (depth - 1)) );
            ( 1,
              map2
                (fun i next ->
                  let p = Value.new_obj ~cls:1 ~nfields:2 in
                  p.Value.fields.(0) <- Value.Int i;
                  p.Value.fields.(1) <- next;
                  Value.Obj p)
                small_int
                (self (depth - 1)) );
            ( 1,
              map
                (fun elems ->
                  let a =
                    Value.new_rarr (Jir.Types.Tobject 0) (List.length elems)
                  in
                  List.iteri (fun i e -> a.Value.ra.(i) <- e) elems;
                  Value.Rarr a)
                (list_size (int_bound 4) (self (depth - 1))) );
          ])
    3

let arb_value = QCheck.make ~print:(Format.asprintf "%a" Value.pp) gen_value

let via_introspect v =
  let m = Metrics.create () in
  let w = Msgbuf.create_writer () in
  Introspect.write (Introspect.make_wctx meta m) w v;
  Introspect.read (Introspect.make_rctx meta m) (Msgbuf.reader_of_writer w)

let via_dyn v =
  let m = Metrics.create () in
  let w = Msgbuf.create_writer () in
  Codec.write_dyn (Codec.make_wctx meta m ~cycle:true) w v;
  Codec.read_dyn (Codec.make_rctx meta m ~cycle:true) (Msgbuf.reader_of_writer w)

let via_plan v =
  (* the S_dyn plan step must behave identically to the dynamic path *)
  let m = Metrics.create () in
  let w = Msgbuf.create_writer () in
  Codec.write_step (Codec.make_wctx meta m ~cycle:true) w Plan.S_dyn v;
  Codec.read_step
    (Codec.make_rctx meta m ~cycle:true)
    (Msgbuf.reader_of_writer w) Plan.S_dyn

(* --- compiled = interpreted on recursive plans ---

   Each plan below is a recursive definition table over one class, and
   [graph] builds a random object graph of that class: a spine that
   mostly runs on to the next node, tree children, and (unless
   [~shared:false]) back-references to any node, so cycles and shared
   tails occur.  Both codecs encode it with a cycle table and decode
   it over the GC heap, or into a warm arena or a warm reuse arena,
   warmed by a graph of another length; the bytes, the decoded graphs
   (sharing included) and every published counter must agree, and the
   graph must come back. *)

type rec_plan = { pname : string; defs : Plan.step array; cls : int }

let rec_plans =
  [|
    (* Table 1's list *)
    {
      pname = "cell list";
      defs = [| Plan.S_obj { cls = 0; fields = [| Plan.S_ref 0 |] } |];
      cls = 0;
    };
    (* a spine behind a non-recursive field *)
    {
      pname = "item list";
      defs = [| Plan.S_obj { cls = 2; fields = [| Plan.S_int; Plan.S_ref 0 |] } |];
      cls = 2;
    };
    (* two self-references: the left one recurses, the right one loops *)
    {
      pname = "tree";
      defs = [| Plan.S_obj { cls = 3; fields = [| Plan.S_ref 0; Plan.S_ref 0 |] } |];
      cls = 3;
    };
    (* a self-reference nested in an array, beside a spine *)
    {
      pname = "branch";
      defs =
        [|
          Plan.S_obj
            {
              cls = 4;
              fields = [| Plan.S_obj_array { elem = Plan.S_ref 0 }; Plan.S_ref 0 |];
            };
        |];
      cls = 4;
    };
    (* mutual recursion: cells alternate between two definitions *)
    {
      pname = "cell list, two definitions";
      defs =
        [|
          Plan.S_obj { cls = 0; fields = [| Plan.S_ref 1 |] };
          Plan.S_obj { cls = 0; fields = [| Plan.S_ref 0 |] };
        |];
      cls = 0;
    };
  |]

(* [len] nodes of [p]'s class; node 0 is the root.  Every reference is
   null now and then, a back-reference to any node now and then when
   [shared], and otherwise the next node not yet referenced: alone,
   that makes a tree, a list for one reference per node. *)
let graph ?(shared = true) st p len =
  let nodes =
    Array.init len (fun _ ->
        Value.new_obj ~cls:p.cls ~nfields:(if p.cls = 0 then 1 else 2))
  in
  let fresh = ref 1 in
  let link () =
    let k = Random.State.int st 16 in
    if shared && k = 0 then Value.Obj nodes.(Random.State.int st len)
    else if k = 1 || !fresh >= len then Value.Null
    else begin
      incr fresh;
      Value.Obj nodes.(!fresh - 1)
    end
  in
  Array.iter
    (fun (o : Value.obj) ->
      match p.cls with
      | 0 -> o.fields.(0) <- link ()
      | 2 ->
          o.fields.(0) <- Value.Int (Random.State.int st 1000 - 500);
          o.fields.(1) <- link ()
      | 3 ->
          o.fields.(0) <- link ();
          o.fields.(1) <- link ()
      | _ ->
          let kids = Array.init (Random.State.int st 3) (fun _ -> link ()) in
          let a = Value.new_rarr (Jir.Types.Tobject 4) (Array.length kids) in
          Array.blit kids 0 a.Value.ra 0 (Array.length kids);
          o.fields.(0) <- Value.Rarr a;
          o.fields.(1) <- link ())
    nodes;
  Value.Obj nodes.(0)

(* [a] and [b] are the same graph up to node identity: one bijection
   between their nodes maps every reference of [a] to [b]'s *)
let isomorphic a b =
  let fwd = Hashtbl.create 64 and bwd = Hashtbl.create 64 in
  let pair ida idb k =
    match (Hashtbl.find_opt fwd ida, Hashtbl.find_opt bwd idb) with
    | Some j, Some i -> j = idb && i = ida
    | None, None ->
        Hashtbl.add fwd ida idb;
        Hashtbl.add bwd idb ida;
        k ()
    | _ -> false
  in
  let rec go (a : Value.t) (b : Value.t) =
    match (a, b) with
    | Value.Obj x, Value.Obj y ->
        x.cls = y.cls
        && Array.length x.fields = Array.length y.fields
        && pair x.oid y.oid (fun () -> all2 x.fields y.fields)
    | Value.Rarr x, Value.Rarr y ->
        Array.length x.ra = Array.length y.ra
        && pair x.rid y.rid (fun () -> all2 x.ra y.ra)
    | (Value.Obj _ | Value.Rarr _), _ | _, (Value.Obj _ | Value.Rarr _) -> false
    | a, b -> Equality.equal a b
  and all2 xs ys =
    let ok = ref true in
    Array.iteri (fun i x -> if !ok then ok := go x ys.(i)) xs;
    !ok
  in
  go a b

type decode_mode = Heap | Warm_arena | Reuse

let mode_name = function
  | Heap -> "heap"
  | Warm_arena -> "warm arena"
  | Reuse -> "reuse"

type rec_case = {
  plan : rec_plan;
  len : int;
  other_len : int;  (* the warm-up graph's or the candidate's *)
  seed : int;
  mode : decode_mode;
}

let arb_rec_case =
  let open QCheck.Gen in
  let gen =
    map
      (fun (((p, len), (other_len, seed)), mode) ->
        { plan = rec_plans.(p); len; other_len; seed; mode })
      (pair
         (pair
            (pair (int_bound (Array.length rec_plans - 1)) (int_range 1 40))
            (pair (int_range 1 40) int))
         (oneofl [ Heap; Warm_arena; Reuse ]))
  in
  QCheck.make gen ~print:(fun c ->
      Printf.sprintf "%s, %d nodes, other %d, seed %d, %s" c.plan.pname c.len
        c.other_len c.seed (mode_name c.mode))

(* one codec: [write] and [read] over the plan's root [S_ref 0] *)
type codec = {
  write : Codec.wctx -> Msgbuf.writer -> Value.t -> unit;
  read : Codec.rctx -> Msgbuf.reader -> Value.t;
}

let interpreted =
  {
    write = (fun wctx w v -> Codec.write_step wctx w (Plan.S_ref 0) v);
    read = (fun rctx r -> Codec.read_step rctx r (Plan.S_ref 0));
  }

let compiled defs =
  let read = Codec.compile_read ~defs (Plan.S_ref 0) in
  {
    write = Codec.compile_write ~defs (Plan.S_ref 0);
    read = (fun rctx r -> read rctx r ~cand:Value.Null);
  }

let encode c ~defs m v =
  let w = Msgbuf.create_writer () in
  c.write (Codec.make_wctx ~defs meta m ~cycle:true) w v;
  Msgbuf.contents w

(* decode [bytes] as [mode] says; [other] is the warm-up graph's
   encoding.  Only the decode of [bytes] is counted: its counters are
   the difference around it. *)
let decode c ~defs mode m ~other bytes =
  let run ?arena b =
    c.read
      (Codec.make_rctx ~defs ?arena meta m ~cycle:true)
      (Msgbuf.reader_of_bytes b)
  in
  let counted f =
    let before = Metrics.snapshot m in
    let v = f () in
    (v, Metrics.diff (Metrics.snapshot m) before)
  in
  let warm arena =
    ignore (run ~arena other : Value.t);
    Arena.reset arena;
    counted (fun () -> run ~arena bytes)
  in
  match mode with
  | Heap -> counted (fun () -> run bytes)
  | Warm_arena -> warm (Arena.create ~metrics:m)
  | Reuse -> warm (Arena.create_reuse ())

let prop_compiled_equals_interpreted =
  QCheck.Test.make ~name:"compiled plan = interpreted plan (bytes and value)"
    ~count:600 arb_rec_case
    (fun case ->
      let defs = case.plan.defs in
      let v = graph (Random.State.make [| case.seed |]) case.plan case.len in
      let other =
        graph (Random.State.make [| case.seed + 1 |]) case.plan case.other_len
      in
      let codecs = [ interpreted; compiled defs ] in
      let results =
        List.map
          (fun c ->
            let wm = Metrics.create () in
            let bytes = encode c ~defs wm v in
            let rm = Metrics.create () in
            let other = encode c ~defs (Metrics.create ()) other in
            let decoded, counts = decode c ~defs case.mode rm ~other bytes in
            (bytes, Metrics.snapshot wm, decoded, counts))
          codecs
      in
      match results with
      | [ (b1, w1, d1, r1); (b2, w2, d2, r2) ] ->
          Bytes.equal b1 b2 && w1 = w2 && r1 = r2 && isomorphic d1 d2
          && isomorphic v d1
      | _ -> assert false)

(* Reuse over any previous graph: the previous graph gets one more
   reference, from a random node to a random node, which adds a cycle
   or sharing.  Decoded into a reuse arena after it, the next graph
   equals a GC-heap decode: every node is handed out once, however the
   nodes it last held were linked, and each is charged once, as reused
   or allocated. *)
let add_back_ref st p g =
  let rec reach acc = function
    | Value.Obj o when not (List.memq o acc) ->
        Array.fold_left reach (o :: acc) o.Value.fields
    | Value.Rarr a -> Array.fold_left reach acc a.Value.ra
    | _ -> acc
  in
  let nodes = Array.of_list (reach [] g) in
  let pick () = nodes.(Random.State.int st (Array.length nodes)) in
  let src = pick () in
  (* every plan's class has a self-typed last field *)
  src.Value.fields.(if p.cls = 0 then 0 else 1) <- Value.Obj (pick ());
  g

let prop_reuse_after_shared_graph =
  QCheck.Test.make
    ~name:"reuse arena after a shared or cyclic graph = heap decode" ~count:400
    arb_rec_case
    (fun case ->
      let defs = case.plan.defs in
      let v = graph (Random.State.make [| case.seed |]) case.plan case.len in
      let st = Random.State.make [| case.seed + 1 |] in
      let prev = add_back_ref st case.plan (graph st case.plan case.other_len) in
      List.for_all
        (fun c ->
          let bytes = encode c ~defs (Metrics.create ()) v in
          let other = encode c ~defs (Metrics.create ()) prev in
          let decode mode =
            decode c ~defs mode (Metrics.create ()) ~other bytes
          in
          let heap, h = decode Heap and reused, r = decode Reuse in
          isomorphic heap reused && isomorphic v reused
          && r.Metrics.reused_objs + r.Metrics.allocs = h.Metrics.allocs
          && r.Metrics.cycle_lookups = h.Metrics.cycle_lookups)
        [ interpreted; compiled defs ])

(* Table 1's list at a length where a frame per cell would overflow an
   8 MiB stack: the compiled codec loops down the spine on both sides,
   over the GC heap and then twice into one reuse arena, the second
   time warm.  The length is checked with a loop, since [Equality]
   recurses. *)
let million_cell_chain () =
  let n = 1_000_000 in
  let defs = (rec_plans.(0)).defs in
  let rec chain acc k =
    if k = 0 then acc
    else begin
      let c = Value.new_obj ~cls:0 ~nfields:1 in
      c.Value.fields.(0) <- acc;
      chain (Value.Obj c) (k - 1)
    end
  in
  let c = compiled defs in
  let bytes = encode c ~defs (Metrics.create ()) (chain Value.Null n) in
  let decode ?arena m =
    c.read
      (Codec.make_rctx ~defs ?arena meta m ~cycle:true)
      (Msgbuf.reader_of_bytes bytes)
  in
  let rec length acc = function
    | Value.Null -> acc
    | Value.Obj o when o.Value.cls = 0 -> length (acc + 1) o.Value.fields.(0)
    | v -> Alcotest.failf "cell %d is %a" acc Value.pp v
  in
  Alcotest.(check int) "cells decoded" n
    (length 0 (decode (Metrics.create ())));
  let arena = Arena.create_reuse () in
  Alcotest.(check int) "cells decoded into a cold arena" n
    (length 0 (decode ~arena (Metrics.create ())));
  Arena.reset arena;
  let m = Metrics.create () in
  Alcotest.(check int) "cells decoded into a warm arena" n
    (length 0 (decode ~arena m));
  (* the shape's pool holds 4096 cells; the rest come from the heap *)
  Alcotest.(check (pair int int))
    "warm: pooled cells reused, the rest allocated" (4096, n - 4096)
    (let s = Metrics.snapshot m in
     (s.Metrics.reused_objs, s.Metrics.allocs))

let prop_three_families_agree =
  QCheck.Test.make ~name:"introspect = dyn = plan on random graphs" ~count:400
    arb_value
    (fun v ->
      let a = via_introspect v and b = via_dyn v and c = via_plan v in
      Equality.equal v a && Equality.equal a b && Equality.equal b c)

(* --- adversarial inputs ------------------------------------------------ *)

let gen_bytes = QCheck.Gen.(map Bytes.of_string (string_size (int_bound 64)))

let arb_bytes =
  QCheck.make
    ~print:(fun b ->
      String.concat " "
        (List.map (fun c -> Printf.sprintf "%02x" (Char.code c))
           (List.of_seq (Bytes.to_seq b))))
    gen_bytes

let fuzz_dyn =
  QCheck.Test.make ~name:"dyn deserializer survives random bytes" ~count:2000
    arb_bytes
    (fun bytes ->
      let m = Metrics.create () in
      match
        Codec.read_dyn
          (Codec.make_rctx meta m ~cycle:true)
          (Msgbuf.reader_of_bytes bytes)
      with
      | (_ : Value.t) -> true
      | exception Msgbuf.Underflow _ -> true)

let fuzz_introspect =
  QCheck.Test.make ~name:"introspect deserializer survives random bytes"
    ~count:2000 arb_bytes
    (fun bytes ->
      let m = Metrics.create () in
      match
        Introspect.read (Introspect.make_rctx meta m) (Msgbuf.reader_of_bytes bytes)
      with
      | (_ : Value.t) -> true
      | exception Msgbuf.Underflow _ -> true)

let fuzz_plan =
  let step =
    Plan.S_obj
      { cls = 1; fields = [| Plan.S_int; Plan.S_obj_array { elem = Plan.S_double_array } |] }
  in
  QCheck.Test.make ~name:"plan deserializer survives random bytes" ~count:2000
    arb_bytes
    (fun bytes ->
      let m = Metrics.create () in
      match
        Codec.read_step
          (Codec.make_rctx meta m ~cycle:true)
          (Msgbuf.reader_of_bytes bytes) step
      with
      | (_ : Value.t) -> true
      | exception Msgbuf.Underflow _ -> true)

let fuzz_compiled =
  let plans =
    Array.map
      (fun p -> Codec.compile_read ~defs:p.defs (Plan.S_ref 0))
      rec_plans
  in
  QCheck.Test.make ~name:"compiled deserializer survives random bytes"
    ~count:2000
    QCheck.(pair (int_bound (Array.length rec_plans - 1)) arb_bytes)
    (fun (p, bytes) ->
      let m = Metrics.create () in
      match
        plans.(p)
          (Codec.make_rctx ~defs:rec_plans.(p).defs meta m ~cycle:true)
          (Msgbuf.reader_of_bytes bytes) ~cand:Value.Null
      with
      | (_ : Value.t) -> true
      | exception Msgbuf.Underflow _ -> true)

let fuzz_header =
  QCheck.Test.make ~name:"protocol header survives random bytes" ~count:2000
    arb_bytes
    (fun bytes ->
      match Rmi_wire.Protocol.read_header (Msgbuf.reader_of_bytes bytes) with
      | (_ : Rmi_wire.Protocol.header) -> true
      | exception Msgbuf.Underflow _ -> true)

let hostile_length_rejected () =
  (* a handcrafted message claiming a 2^60-element double array *)
  let w = Msgbuf.create_writer () in
  ignore (Rmi_wire.Typedesc.write_tag w Rmi_wire.Typedesc.Tag_double_array);
  Msgbuf.write_uvarint w (1 lsl 60);
  let m = Metrics.create () in
  Alcotest.(check bool) "rejected" true
    (try
       ignore
         (Codec.read_dyn
            (Codec.make_rctx meta m ~cycle:true)
            (Msgbuf.reader_of_writer w));
       false
     with Msgbuf.Underflow _ -> true)

let suite =
  [
    ( "differential",
      [
        Fixtures.qcheck_case prop_three_families_agree;
        Fixtures.qcheck_case prop_compiled_equals_interpreted;
        Fixtures.qcheck_case prop_reuse_after_shared_graph;
        Alcotest.test_case "1,000,000-cell chain round-trips compiled" `Quick
          million_cell_chain;
      ] );
    ( "fuzz",
      [
        Fixtures.qcheck_case fuzz_dyn;
        Fixtures.qcheck_case fuzz_introspect;
        Fixtures.qcheck_case fuzz_plan;
        Fixtures.qcheck_case fuzz_compiled;
        Fixtures.qcheck_case fuzz_header;
        Alcotest.test_case "hostile length rejected" `Quick hostile_length_rejected;
      ] );
  ]
