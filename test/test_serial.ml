(* Serializer tests: dynamic and plan-driven roundtrips, cycle and
   sharing preservation, reuse through a reuse arena, the introspective
   baseline, and random-graph properties. *)

open Rmi_serial
module Plan = Rmi_core.Plan
module Msgbuf = Rmi_wire.Msgbuf
module Metrics = Rmi_stats.Metrics

(* a small class world: Cell{next: Cell}, Pair{a: int, b: Cell} *)
let meta =
  Class_meta.make
    [
      ("Cell", [ ("next", Jir.Types.Tobject 0) ]);
      ("Pair", [ ("a", Jir.Types.Tint); ("b", Jir.Types.Tobject 0) ]);
    ]

let roundtrip_dyn ?(cycle = true) v =
  let m = Metrics.create () in
  let w = Msgbuf.create_writer () in
  let wctx = Codec.make_wctx meta m ~cycle in
  Codec.write_dyn wctx w v;
  let rctx = Codec.make_rctx meta m ~cycle in
  Codec.read_dyn rctx (Msgbuf.reader_of_writer w)

let roundtrip_step ?(cycle = true) step v =
  let m = Metrics.create () in
  let w = Msgbuf.create_writer () in
  let wctx = Codec.make_wctx meta m ~cycle in
  Codec.write_step wctx w step v;
  let rctx = Codec.make_rctx meta m ~cycle in
  Codec.read_step rctx (Msgbuf.reader_of_writer w) step

let check_equal what expected actual =
  match Equality.check ~expected ~actual with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s: %s" what msg

let prims_roundtrip () =
  List.iter
    (fun v -> check_equal "prim" v (roundtrip_dyn v))
    [
      Value.Null; Value.Bool true; Value.Bool false; Value.Int 42;
      Value.Int (-7); Value.Double 3.25; Value.Str "hello";
    ]

let object_roundtrip () =
  let cell = Value.new_obj ~cls:0 ~nfields:1 in
  let pair = Value.new_obj ~cls:1 ~nfields:2 in
  pair.fields.(0) <- Value.Int 5;
  pair.fields.(1) <- Value.Obj cell;
  check_equal "pair" (Value.Obj pair) (roundtrip_dyn (Value.Obj pair))

let cyclic_roundtrip () =
  let a = Value.new_obj ~cls:0 ~nfields:1 in
  let b = Value.new_obj ~cls:0 ~nfields:1 in
  a.fields.(0) <- Value.Obj b;
  b.fields.(0) <- Value.Obj a;
  let copy = roundtrip_dyn (Value.Obj a) in
  check_equal "2-cycle" (Value.Obj a) copy;
  (* the copy must be cyclic too, not an infinite unrolling *)
  match copy with
  | Value.Obj a' -> (
      match a'.fields.(0) with
      | Value.Obj b' -> (
          match b'.fields.(0) with
          | Value.Obj a'' -> Alcotest.(check bool) "closed cycle" true (a'' == a')
          | v -> Alcotest.failf "bad cycle %a" Value.pp v)
      | v -> Alcotest.failf "bad cycle %a" Value.pp v)
  | v -> Alcotest.failf "bad root %a" Value.pp v

let sharing_preserved () =
  let shared = Value.new_obj ~cls:0 ~nfields:1 in
  let arr = Value.new_rarr (Jir.Types.Tobject 0) 2 in
  arr.ra.(0) <- Value.Obj shared;
  arr.ra.(1) <- Value.Obj shared;
  match roundtrip_dyn (Value.Rarr arr) with
  | Value.Rarr a' -> (
      match (a'.ra.(0), a'.ra.(1)) with
      | Value.Obj x, Value.Obj y ->
          Alcotest.(check bool) "same object" true (x == y)
      | _ -> Alcotest.fail "expected objects")
  | v -> Alcotest.failf "bad root %a" Value.pp v

let double_array_roundtrip () =
  let a = Value.new_darr 64 in
  Array.iteri (fun i _ -> a.d.(i) <- float_of_int i *. 1.5) a.d;
  check_equal "darr" (Value.Darr a) (roundtrip_dyn (Value.Darr a));
  check_equal "darr step" (Value.Darr a)
    (roundtrip_step Plan.S_double_array (Value.Darr a))

let plan_obj_roundtrip () =
  let step =
    Plan.S_obj { cls = 1; fields = [| Plan.S_int; Plan.S_obj { cls = 0; fields = [| Plan.S_null |] } |] }
  in
  let cell = Value.new_obj ~cls:0 ~nfields:1 in
  let pair = Value.new_obj ~cls:1 ~nfields:2 in
  pair.fields.(0) <- Value.Int 99;
  pair.fields.(1) <- Value.Obj cell;
  check_equal "plan pair" (Value.Obj pair) (roundtrip_step step (Value.Obj pair))

let plan_nested_array () =
  (* the Figure 13 shape: double[][] *)
  let step = Plan.S_obj_array { elem = Plan.S_double_array } in
  let outer = Value.new_rarr (Jir.Types.Tarray Jir.Types.Tdouble) 4 in
  for i = 0 to 3 do
    let inner = Value.new_darr 4 in
    Array.iteri (fun j _ -> inner.d.(j) <- float_of_int ((i * 4) + j)) inner.d;
    outer.ra.(i) <- Value.Darr inner
  done;
  check_equal "double[][]" (Value.Rarr outer)
    (roundtrip_step ~cycle:false step (Value.Rarr outer))

let plan_wire_smaller_than_dyn () =
  (* site-specific plans must remove type bytes from the wire *)
  let outer = Value.new_rarr (Jir.Types.Tarray Jir.Types.Tdouble) 16 in
  for i = 0 to 15 do
    outer.ra.(i) <- Value.Darr (Value.new_darr 16)
  done;
  let m = Metrics.create () in
  let size_with write =
    let w = Msgbuf.create_writer () in
    write w;
    Msgbuf.length w
  in
  let dyn_size =
    size_with (fun w ->
        Codec.write_dyn (Codec.make_wctx meta m ~cycle:true) w (Value.Rarr outer))
  in
  let plan_size =
    size_with (fun w ->
        Codec.write_step
          (Codec.make_wctx meta m ~cycle:false)
          w
          (Plan.S_obj_array { elem = Plan.S_double_array })
          (Value.Rarr outer))
  in
  Alcotest.(check bool)
    (Printf.sprintf "plan %d < dyn %d bytes" plan_size dyn_size)
    true (plan_size < dyn_size)

let cycle_lookups_elided () =
  let outer = Value.new_rarr (Jir.Types.Tarray Jir.Types.Tdouble) 8 in
  for i = 0 to 7 do
    outer.ra.(i) <- Value.Darr (Value.new_darr 8)
  done;
  let step = Plan.S_obj_array { elem = Plan.S_double_array } in
  let count cycle =
    let m = Metrics.create () in
    let w = Msgbuf.create_writer () in
    Codec.write_step (Codec.make_wctx meta m ~cycle) w step (Value.Rarr outer);
    let rctx = Codec.make_rctx meta m ~cycle in
    ignore (Codec.read_step rctx (Msgbuf.reader_of_writer w) step);
    (Metrics.snapshot m).Metrics.cycle_lookups
  in
  Alcotest.(check int) "no lookups when elided" 0 (count false);
  Alcotest.(check bool) "lookups otherwise" true (count true > 0)

(* The paper's reuse on a reuse arena: [prev] is decoded into the
   arena, the arena is reset as the runtime does between calls, and [v]
   is decoded into it.  Returns both decodes and the counters of the
   second alone. *)
let decode_after ?(cycle = true) ~write ~read ~prev v =
  let arena = Arena.create_reuse () in
  let decode m v =
    let w = Msgbuf.create_writer () in
    write (Codec.make_wctx meta (Metrics.create ()) ~cycle) w v;
    read (Codec.make_rctx ~arena meta m ~cycle) (Msgbuf.reader_of_writer w)
  in
  let first = decode (Metrics.create ()) prev in
  Arena.reset arena;
  let m = Metrics.create () (* the second read counts alone *) in
  let got = decode m v in
  (first, got, Metrics.snapshot m)

let decode_step_after ?cycle step =
  decode_after ?cycle
    ~write:(fun wctx w v -> Codec.write_step wctx w step v)
    ~read:(fun rctx r -> Codec.read_step rctx r step)

let reuse_hits_matching_shape () =
  let mk () =
    let outer = Value.new_rarr (Jir.Types.Tarray Jir.Types.Tdouble) 3 in
    for i = 0 to 2 do
      outer.ra.(i) <- Value.Darr (Value.new_darr 5)
    done;
    outer
  in
  let step = Plan.S_obj_array { elem = Plan.S_double_array } in
  let first, got, s =
    decode_step_after ~cycle:false step ~prev:(Value.Rarr (mk ()))
      (Value.Rarr (mk ()))
  in
  (match (first, got) with
  | Value.Rarr a, Value.Rarr b ->
      Alcotest.(check int) "same array object" a.rid b.rid
  | _, v -> Alcotest.failf "bad root %a" Value.pp v);
  Alcotest.(check int) "4 reused (outer + 3 inner)" 4 s.Metrics.reused_objs;
  Alcotest.(check int) "no allocations" 0 s.Metrics.allocs

let reuse_falls_back_on_mismatch () =
  (* pooled arrays of the wrong length must be reallocated (the paper:
     "If an array size is mismatched ... a new array is allocated") *)
  let _, got, s =
    decode_step_after ~cycle:false Plan.S_double_array
      ~prev:(Value.Darr (Value.new_darr 4))
      (Value.Darr (Value.new_darr 8))
  in
  (match got with
  | Value.Darr a -> Alcotest.(check int) "fresh length" 8 (Array.length a.d)
  | v -> Alcotest.failf "bad %a" Value.pp v);
  Alcotest.(check int) "no reuse" 0 s.Metrics.reused_objs;
  Alcotest.(check int) "one allocation" 1 s.Metrics.allocs

let reuse_through_dyn_list () =
  (* the linked-list case: reuse works through the dynamic serializer *)
  let rec make_list n =
    if n = 0 then Value.Null
    else begin
      let c = Value.new_obj ~cls:0 ~nfields:1 in
      c.fields.(0) <- make_list (n - 1);
      Value.Obj c
    end
  in
  let _, got, s =
    decode_after ~write:Codec.write_dyn ~read:Codec.read_dyn
      ~prev:(make_list 10) (make_list 10)
  in
  check_equal "list" (make_list 10) got;
  Alcotest.(check int) "all 10 cells reused" 10 s.Metrics.reused_objs;
  Alcotest.(check int) "no allocs" 0 s.Metrics.allocs

let introspect_roundtrip_and_cost () =
  let pair = Value.new_obj ~cls:1 ~nfields:2 in
  pair.fields.(0) <- Value.Int 5;
  pair.fields.(1) <- Value.Obj (Value.new_obj ~cls:0 ~nfields:1) ;
  let m_intro = Metrics.create () in
  let w1 = Msgbuf.create_writer () in
  Introspect.write (Introspect.make_wctx meta m_intro) w1 (Value.Obj pair);
  let got =
    Introspect.read (Introspect.make_rctx meta m_intro) (Msgbuf.reader_of_writer w1)
  in
  check_equal "introspect" (Value.Obj pair) got;
  (* introspection ships class names: more type bytes than the compact
     class-specific serializer *)
  let m_dyn = Metrics.create () in
  let w2 = Msgbuf.create_writer () in
  Codec.write_dyn (Codec.make_wctx meta m_dyn ~cycle:true) w2 (Value.Obj pair);
  let tb m = (Metrics.snapshot m).Metrics.type_bytes in
  Alcotest.(check bool)
    (Printf.sprintf "introspect %d > class %d type bytes" (tb m_intro) (tb m_dyn))
    true
    (tb m_intro > tb m_dyn)

let type_confusion_raises () =
  let m = Metrics.create () in
  let w = Msgbuf.create_writer () in
  let wctx = Codec.make_wctx meta m ~cycle:false in
  let cell = Value.new_obj ~cls:0 ~nfields:1 in
  Alcotest.(check bool) "raises" true
    (try
       Codec.write_step wctx w
         (Plan.S_obj { cls = 1; fields = [| Plan.S_int; Plan.S_null |] })
         (Value.Obj cell);
       false
     with Codec.Type_confusion _ -> true)

let contexts_reusable_after_confusion () =
  (* regression for the deoptimizer's replay path: a specialized write
     that aborts mid-object leaves handles in the cycle table; after
     [reset_wctx] the same contexts must serialize the same value
     graph correctly, and the aborted attempt must not have bumped the
     message counters *)
  let m = Metrics.create () in
  let wctx = Codec.make_wctx meta m ~cycle:true in
  let rctx = Codec.make_rctx meta m ~cycle:true in
  (* Pair{a:int, b:Cell} where b points back at a registered cell *)
  let cell = Value.new_obj ~cls:0 ~nfields:1 in
  let pair = Value.new_obj ~cls:1 ~nfields:2 in
  pair.Value.fields.(0) <- Value.Int 7;
  pair.Value.fields.(1) <- Value.Obj cell;
  cell.Value.fields.(0) <- Value.Obj pair;
  let lying_step =
    (* promises b is statically a Pair: confusion at the inner object *)
    Plan.S_obj
      {
        cls = 1;
        fields = [| Plan.S_int; Plan.S_obj { cls = 1; fields = [||] } |];
      }
  in
  let w = Msgbuf.create_writer () in
  (match Codec.write_step wctx w lying_step (Value.Obj pair) with
  | exception Codec.Type_confusion _ -> ()
  | () -> Alcotest.fail "lying step must raise");
  let before = Metrics.snapshot m in
  Alcotest.(check int) "no message accounted for the abort" 0
    before.Metrics.msgs_sent;
  (* the aborted write registered [pair] in the handle table; without a
     reset the retry would emit a dangling back-reference *)
  Codec.reset_wctx wctx;
  Codec.reset_rctx rctx;
  let w = Msgbuf.create_writer () in
  Codec.write_dyn wctx w (Value.Obj pair);
  let got = Codec.read_dyn rctx (Msgbuf.reader_of_writer w) in
  Alcotest.(check bool) "same contexts roundtrip the cycle" true
    (Equality.equal (Value.Obj pair) got)

(* --- golden bytes with the cycle table on --- *)

(* Cell{next: Cell}, Pair{a: Cell, b: Cell}, Holder{x: double[], y: double[]} *)
let gmeta =
  Class_meta.make
    [
      ("Cell", [ ("next", Jir.Types.Tobject 0) ]);
      ("Pair", [ ("a", Jir.Types.Tobject 0); ("b", Jir.Types.Tobject 0) ]);
      ( "Holder",
        [
          ("x", Jir.Types.Tarray Jir.Types.Tdouble);
          ("y", Jir.Types.Tarray Jir.Types.Tdouble);
        ] );
    ]

let cell_step = Plan.S_obj { cls = 0; fields = [| Plan.S_ref 0 |] }
let gdefs = [| cell_step |]

(* a -> b -> c -> a *)
let ring () =
  let a = Value.new_obj ~cls:0 ~nfields:1
  and b = Value.new_obj ~cls:0 ~nfields:1
  and c = Value.new_obj ~cls:0 ~nfields:1 in
  a.fields.(0) <- Value.Obj b;
  b.fields.(0) <- Value.Obj c;
  c.fields.(0) <- Value.Obj a;
  Value.Obj a

(* a Pair whose two fields are one Cell *)
let dag () =
  let shared = Value.new_obj ~cls:0 ~nfields:1 in
  let p = Value.new_obj ~cls:1 ~nfields:2 in
  p.fields.(0) <- Value.Obj shared;
  p.fields.(1) <- Value.Obj shared;
  Value.Obj p

(* a Holder whose two fields are one double[] *)
let twice () =
  let d = Value.new_darr 3 in
  d.d.(0) <- 1.5;
  d.d.(1) <- -2.0;
  d.d.(2) <- 0.25;
  let h = Value.new_obj ~cls:2 ~nfields:2 in
  h.fields.(0) <- Value.Darr d;
  h.fields.(1) <- Value.Darr d;
  Value.Obj h

let same_node a b =
  match (a, b) with
  | Value.Obj x, Value.Obj y -> x == y
  | Value.Darr x, Value.Darr y -> x == y
  | _ -> false

let field v i =
  match v with
  | Value.Obj o -> o.fields.(i)
  | v -> Alcotest.failf "expected an object, got %a" Value.pp v

(* the sharing each graph must come back with *)
let ring_closed v = same_node v (field (field (field v 0) 0) 0)
let fields_shared v = same_node (field v 0) (field v 1)

let hex b =
  String.concat ""
    (List.map (fun c -> Printf.sprintf "%02x" (Char.code c)) (List.of_seq (Bytes.to_seq b)))

(* (graph, plan step, sharing check, compiled/step bytes, dyn bytes) *)
let golden_graphs =
  [
    ("ring", ring, cell_step, ring_closed, "0101010200", "0500050005000900");
    ( "dag", dag,
      Plan.S_obj { cls = 1; fields = [| cell_step; cell_step |] },
      fields_shared, "0101000201", "05010500000901" );
    ( "double[] twice", twice,
      Plan.S_obj { cls = 2; fields = [| Plan.S_double_array; Plan.S_double_array |] },
      fields_shared,
      "010103000000000000f83f00000000000000c0000000000000d03f0201",
      "05020703000000000000f83f00000000000000c0000000000000d03f0901" );
  ]

let golden_cycle_bytes () =
  List.iter
    (fun (name, mk, step, shared, plan_hex, dyn_hex) ->
      let encode write =
        let w = Msgbuf.create_writer () in
        write
          (Codec.make_wctx ~defs:gdefs gmeta (Metrics.create ()) ~cycle:true)
          w (mk ());
        Msgbuf.contents w
      in
      let decode read bytes =
        read
          (Codec.make_rctx ~defs:gdefs gmeta (Metrics.create ()) ~cycle:true)
          (Msgbuf.reader_of_bytes bytes)
      in
      let check_bytes what expected bytes =
        Alcotest.(check string) (name ^ " " ^ what) expected (hex bytes)
      in
      let check_shared what v =
        Alcotest.(check bool) (name ^ " sharing after " ^ what) true (shared v);
        check_equal (name ^ " " ^ what) (mk ()) v
      in
      let compiled = encode (Codec.compile_write ~defs:gdefs step) in
      check_bytes "compile_write" plan_hex compiled;
      check_shared "compile_read"
        (decode
           (fun rctx r -> Codec.compile_read ~defs:gdefs step rctx r ~cand:Value.Null)
           compiled);
      let stepped = encode (fun wctx w v -> Codec.write_step wctx w step v) in
      check_bytes "write_step" plan_hex stepped;
      check_shared "read_step"
        (decode (fun rctx r -> Codec.read_step rctx r step) stepped);
      let dyn = encode Codec.write_dyn in
      check_bytes "write_dyn" dyn_hex dyn;
      check_shared "read_dyn"
        (decode Codec.read_dyn dyn))
    golden_graphs

(* --- allocation pins: the codec's per-node cost in minor words --- *)

let make_chain n =
  let rec go acc k =
    if k = 0 then acc
    else begin
      let c = Value.new_obj ~cls:0 ~nfields:1 in
      c.fields.(0) <- acc;
      go (Value.Obj c) (k - 1)
    end
  in
  go Value.Null n

(* minor words per run of [f], once warmed up *)
let words_per_run f =
  let reps = 100 in
  for _ = 1 to 3 do
    f ()
  done;
  let w0 = Gc.minor_words () in
  for _ = 1 to reps do
    f ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int reps

let chain_nodes = 100

let chain_bytes () =
  let w = Msgbuf.create_writer () in
  Codec.compile_write ~defs:gdefs cell_step
    (Codec.make_wctx ~defs:gdefs gmeta (Metrics.create ()) ~cycle:true)
    w (make_chain chain_nodes);
  Msgbuf.contents w

let encode_allocates_nothing () =
  let write = Codec.compile_write ~defs:gdefs cell_step in
  let wctx = Codec.make_wctx ~defs:gdefs gmeta (Metrics.create ()) ~cycle:true in
  let w = Msgbuf.create_writer () in
  let v = make_chain chain_nodes in
  let words =
    words_per_run (fun () ->
        Msgbuf.clear w;
        Codec.reset_wctx wctx;
        write wctx w v)
  in
  Alcotest.(check (float 0.)) "minor words per 100-cell encode" 0. words

(* words per decoded node of the 100-cell chain, arena- or heap-backed *)
let decode_words ?arena () =
  let read = Codec.compile_read ~defs:gdefs cell_step in
  let m = Metrics.create () in
  let arena = Option.map (fun () -> Arena.create ~metrics:m) arena in
  let rctx = Codec.make_rctx ~defs:gdefs ?arena gmeta m ~cycle:true in
  let bytes = chain_bytes () in
  let r = Msgbuf.reader_of_bytes bytes in
  let words =
    words_per_run (fun () ->
        Msgbuf.reset_reader r bytes;
        Option.iter Arena.reset arena;
        Codec.reset_rctx rctx;
        ignore (read rctx r ~cand:Value.Null : Value.t))
  in
  words /. float_of_int chain_nodes

(* A fresh arena's first decode allocates each node once, as the heap
   decode does: its record (4 words), its fields (2) and its box (2).
   On top of that come only the pool's own: its slot array, grown to
   16, 32, 64 and 128 slots (244 words with headers), its record (4),
   its entry in the shape table (4) and the arena's log of touched
   pools (9).  The context has no cycle table, so its handle array
   does not grow.  Measured at exactly 1061 words on OCaml 5.1.1, so
   the bound has no headroom. *)
let cold_arena_decode_words () =
  let read = Codec.compile_read ~defs:gdefs cell_step in
  let bytes = chain_bytes () in
  let m = Metrics.create () in
  let arena = Arena.create ~metrics:m in
  let rctx = Codec.make_rctx ~defs:gdefs ~arena gmeta m ~cycle:false in
  let r = Msgbuf.reader_of_bytes bytes in
  let w0 = Gc.minor_words () in
  ignore (read rctx r ~cand:Value.Null : Value.t);
  let words = Gc.minor_words () -. w0 in
  let bound = (8 * chain_nodes) + 244 + 4 + 4 + 9 in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f <= %d words for a first decode of %d nodes" words
       bound chain_nodes)
    true
    (words <= float_of_int bound)

(* once the pools hold the chain, a decode hands every node back in its
   own box: nothing is allocated.  Measured at 0 on OCaml 5.1.1; CI's
   5.2 has not been measured (ROADMAP item 8) *)
let warm_arena_decode_words () =
  Alcotest.(check (float 0.)) "minor words per node, warm arena" 0.
    (decode_words ~arena:() ())

let heap_decode_words () =
  let w = decode_words () in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f <= 8 words per node (record, fields, box)" w)
    true (w <= 8.)

(* --- the paper counters a compiled 100-cell chain publishes ---

   The codec tallies per node and publishes when the outermost call
   returns or raises, so every count reaches the metrics whole: an
   encode and a decode of the chain publish 300 cycle lookups (two per
   encoded cell, one per decoded cell), 100 allocations and 100 arena
   hand-outs, before and after a write aborted by Type_confusion and a
   read aborted by Underflow, which publish what they counted. *)

type counts = { lookups : int; allocs : int; arena_allocs : int }

let counts_of m f =
  let before = Metrics.snapshot m in
  f ();
  let d = Metrics.diff (Metrics.snapshot m) before in
  {
    lookups = d.Metrics.cycle_lookups;
    allocs = d.Metrics.allocs;
    arena_allocs = d.Metrics.arena_allocs;
  }

let check_counts what expect got =
  Alcotest.(check (list int)) (what ^ ": lookups, allocs, arena_allocs")
    [ expect.lookups; expect.allocs; expect.arena_allocs ]
    [ got.lookups; got.allocs; got.arena_allocs ]

let chain_counters () =
  let m = Metrics.create () in
  let write = Codec.compile_write ~defs:gdefs cell_step in
  let read = Codec.compile_read ~defs:gdefs cell_step in
  let wctx = Codec.make_wctx ~defs:gdefs gmeta m ~cycle:true in
  let arena = Arena.create ~metrics:m in
  let rctx = Codec.make_rctx ~defs:gdefs ~arena gmeta m ~cycle:true in
  let w = Msgbuf.create_writer () in
  let encode v () =
    Msgbuf.clear w;
    Codec.reset_wctx wctx;
    write wctx w v
  in
  let decode bytes () =
    Arena.reset arena;
    Codec.reset_rctx rctx;
    ignore (read rctx (Msgbuf.reader_of_bytes bytes) ~cand:Value.Null : Value.t)
  in
  let chain = make_chain chain_nodes in
  let round what =
    check_counts (what ^ ": encode")
      { lookups = 200; allocs = 0; arena_allocs = 0 }
      (counts_of m (encode chain));
    let bytes = Msgbuf.contents w in
    check_counts (what ^ ": decode")
      { lookups = 100; allocs = 100; arena_allocs = 100 }
      (counts_of m (decode bytes));
    bytes
  in
  ignore (round "cold" : bytes);
  let bytes = round "warm" in
  (* cell 50 is a Pair: its marker and registration go out, then the
     class check throws *)
  let bad = make_chain chain_nodes in
  let rec nth v k =
    match v with
    | Value.Obj o -> if k = 0 then o else nth o.Value.fields.(0) (k - 1)
    | _ -> assert false
  in
  let before_bad = nth bad 49 in
  let pair = Value.new_obj ~cls:1 ~nfields:2 in
  before_bad.Value.fields.(0) <- Value.Obj pair;
  check_counts "aborted write"
    { lookups = 102; allocs = 0; arena_allocs = 0 }
    (counts_of m (fun () ->
         match encode bad () with
         | () -> Alcotest.fail "expected Type_confusion"
         | exception Codec.Type_confusion _ -> ()));
  ignore (round "after the aborted write" : bytes);
  (* half the frame: 50 cells decode, the 51st marker underflows *)
  check_counts "aborted read"
    { lookups = 50; allocs = 50; arena_allocs = 50 }
    (counts_of m (fun () ->
         match decode (Bytes.sub bytes 0 50) () with
         | () -> Alcotest.fail "expected Underflow"
         | exception Msgbuf.Underflow _ -> ()));
  ignore (round "after the aborted read" : bytes)

(* two domains decode into one metrics record at once, each through its
   own context and arena: the published tallies lose nothing *)
let concurrent_decode_counts () =
  let m = Metrics.create () in
  let bytes = chain_bytes () in
  let runs = 200 in
  let worker () =
    let read = Codec.compile_read ~defs:gdefs cell_step in
    let arena = Arena.create ~metrics:m in
    let rctx = Codec.make_rctx ~defs:gdefs ~arena gmeta m ~cycle:true in
    for _ = 1 to runs do
      Arena.reset arena;
      Codec.reset_rctx rctx;
      ignore (read rctx (Msgbuf.reader_of_bytes bytes) ~cand:Value.Null : Value.t)
    done
  in
  let d = Domain.spawn worker in
  worker ();
  Domain.join d;
  let s = Metrics.snapshot m in
  let total = 2 * runs * chain_nodes in
  Alcotest.(check (list int)) "lookups, allocs, arena_allocs"
    [ total; total; total ]
    [ s.Metrics.cycle_lookups; s.Metrics.allocs; s.Metrics.arena_allocs ]

(* random acyclic value graphs for property tests *)
let gen_value =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        return Value.Null;
        map (fun b -> Value.Bool b) bool;
        map (fun i -> Value.Int i) int;
        map (fun f -> Value.Double f) float;
        map (fun s -> Value.Str s) (string_size (int_bound 12));
      ]
  in
  fix
    (fun self depth ->
      if depth = 0 then leaf
      else
        frequency
          [
            (3, leaf);
            ( 1,
              map
                (fun next ->
                  let c = Value.new_obj ~cls:0 ~nfields:1 in
                  c.fields.(0) <- next;
                  Value.Obj c)
                (self (depth - 1)) );
            ( 1,
              map2
                (fun i next ->
                  let p = Value.new_obj ~cls:1 ~nfields:2 in
                  p.fields.(0) <- Value.Int i;
                  p.fields.(1) <- next;
                  Value.Obj p)
                int
                (self (depth - 1)) );
            ( 1,
              map
                (fun fs ->
                  let a = Value.new_darr (List.length fs) in
                  List.iteri (fun i f -> a.d.(i) <- f) fs;
                  Value.Darr a)
                (list_size (int_bound 8) float) );
          ]
        )
    4

let arb_value = QCheck.make ~print:(Format.asprintf "%a" Value.pp) gen_value

let prop_dyn_roundtrip =
  QCheck.Test.make ~name:"dynamic serializer roundtrips random graphs" ~count:300
    arb_value
    (fun v -> Equality.equal v (roundtrip_dyn v))

let prop_dyn_roundtrip_nocycle =
  QCheck.Test.make ~name:"acyclic graphs roundtrip without cycle table"
    ~count:300 arb_value
    (fun v -> Equality.equal v (roundtrip_dyn ~cycle:false v))

(* the candidate is the previous call's graph, whose nodes the reuse
   arena hands out again *)
let prop_reuse_preserves_value =
  QCheck.Test.make ~name:"any candidate still deserializes correctly" ~count:300
    (QCheck.pair arb_value arb_value)
    (fun (v, cand) ->
      let _, got, _ =
        decode_after ~write:Codec.write_dyn ~read:Codec.read_dyn ~prev:cand v
      in
      Equality.equal v got)

let suite =
  [
    ( "serial.codec",
      [
        Alcotest.test_case "primitives" `Quick prims_roundtrip;
        Alcotest.test_case "objects" `Quick object_roundtrip;
        Alcotest.test_case "cycles preserved" `Quick cyclic_roundtrip;
        Alcotest.test_case "sharing preserved" `Quick sharing_preserved;
        Alcotest.test_case "double arrays" `Quick double_array_roundtrip;
        Alcotest.test_case "plan object" `Quick plan_obj_roundtrip;
        Alcotest.test_case "plan double[][] (fig 13)" `Quick plan_nested_array;
        Alcotest.test_case "plan wire smaller than dyn" `Quick plan_wire_smaller_than_dyn;
        Alcotest.test_case "cycle lookups elided" `Quick cycle_lookups_elided;
        Alcotest.test_case "type confusion raises" `Quick type_confusion_raises;
        Alcotest.test_case "contexts reusable after confusion" `Quick
          contexts_reusable_after_confusion;
        Fixtures.qcheck_case prop_dyn_roundtrip;
        Fixtures.qcheck_case prop_dyn_roundtrip_nocycle;
      ] );
    ( "serial.reuse",
      [
        Alcotest.test_case "reuse hits matching shape" `Quick reuse_hits_matching_shape;
        Alcotest.test_case "size mismatch reallocates" `Quick reuse_falls_back_on_mismatch;
        Alcotest.test_case "reuse through dynamic list" `Quick reuse_through_dyn_list;
        Fixtures.qcheck_case prop_reuse_preserves_value;
      ] );
    ( "serial.introspect",
      [ Alcotest.test_case "roundtrip and type-byte cost" `Quick introspect_roundtrip_and_cost ] );
    ( "serial.golden",
      [ Alcotest.test_case "cycle-table bytes and sharing" `Quick golden_cycle_bytes ] );
    ( "serial.alloc",
      [
        Alcotest.test_case "compiled encode allocates nothing" `Quick
          encode_allocates_nothing;
        Alcotest.test_case "cold arena: record, fields and box per node" `Quick
          cold_arena_decode_words;
        Alcotest.test_case "heap decode: <= 8 words per node" `Quick heap_decode_words;
        Alcotest.test_case "chain counters published whole" `Quick chain_counters;
        Alcotest.test_case "two domains decoding lose no counts" `Quick
          concurrent_decode_counts;
        Alcotest.test_case "warm arena decode: no words per node" `Quick
          warm_arena_decode_words;
      ] );
  ]
