(* Arena-decoding tests: the recycling pools themselves, the
   arena-decode == heap-decode differential property on random (cyclic,
   null-ridden) graphs, flat-array recycling across resets, the
   counters-preserved discipline, and the S_flat_array deoptimization
   path (ragged/heterogeneous/null rows -> Type_confusion -> widen ->
   replay). *)

open Rmi_serial
module Plan = Rmi_core.Plan
module Msgbuf = Rmi_wire.Msgbuf
module Metrics = Rmi_stats.Metrics

let meta =
  Class_meta.make
    [
      ("Cell", [ ("next", Jir.Types.Tobject 0) ]);
      ("Pair", [ ("a", Jir.Types.Tint); ("b", Jir.Types.Tobject 0) ]);
    ]

let check_equal what expected actual =
  match Equality.check ~expected ~actual with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s: %s" what msg

(* ------------------------------------------------------------------ *)
(* the pools themselves                                                *)
(* ------------------------------------------------------------------ *)

let pool_hit_miss_reset () =
  let m = Metrics.create () in
  let a = Arena.create ~metrics:m in
  let o1 = Arena.obj a ~cls:3 ~nfields:2 in
  Alcotest.(check int) "one live node" 1 (Arena.live a);
  Alcotest.(check int) "nothing parked yet" 0 (Arena.pooled a);
  let s = Metrics.snapshot m in
  Alcotest.(check int) "first request counted" 1 s.Metrics.arena_allocs;
  Alcotest.(check int) "first request was a pool miss" 1
    s.Metrics.arena_fallbacks;
  Arena.reset a;
  Alcotest.(check int) "reset empties the live set" 0 (Arena.live a);
  Alcotest.(check int) "reset parks the node" 1 (Arena.pooled a);
  Alcotest.(check int) "reset counted" 1 (Metrics.snapshot m).Metrics.arena_resets;
  (* same shape: the parked node comes back, physically *)
  let o2 = Arena.obj a ~cls:3 ~nfields:2 in
  Alcotest.(check bool) "same shape recycles the same node" true (o1 == o2);
  Alcotest.(check int) "hit is not a fallback" 1
    (Metrics.snapshot m).Metrics.arena_fallbacks;
  (* different shape: fresh node, fallback counted *)
  let o3 = Arena.obj a ~cls:3 ~nfields:3 in
  Alcotest.(check bool) "different shape allocates fresh" true (not (o2 == o3));
  Alcotest.(check int) "miss counted as fallback" 2
    (Metrics.snapshot m).Metrics.arena_fallbacks;
  (* arrays pool by length *)
  let d1 = Arena.darr a 16 in
  Arena.reset a;
  let d2 = Arena.darr a 16 in
  let d3 = Arena.darr a 8 in
  Alcotest.(check bool) "darr length hit" true (d1 == d2);
  Alcotest.(check bool) "darr length miss" true (not (d2 == d3))

let rarr_relem_mismatch_falls_back () =
  let m = Metrics.create () in
  let a = Arena.create ~metrics:m in
  let r1 = Arena.rarr a (Jir.Types.Tarray Jir.Types.Tdouble) 4 in
  Arena.reset a;
  let before = (Metrics.snapshot m).Metrics.arena_fallbacks in
  (* same length, different element type: the pooled array must not be
     handed out with a lying [relem] *)
  let r2 = Arena.rarr a (Jir.Types.Tarray Jir.Types.Tint) 4 in
  Alcotest.(check bool) "mismatched relem is not recycled" true (not (r1 == r2));
  Alcotest.(check bool) "mismatch counted as fallback" true
    ((Metrics.snapshot m).Metrics.arena_fallbacks > before);
  Alcotest.(check bool) "fresh array carries the requested relem" true
    (Jir.Types.equal_ty r2.Value.relem (Jir.Types.Tarray Jir.Types.Tint))

(* The cap is 4096 nodes per shape.  A call holding 5000 objects of one
   shape leaves the 904 past the cap to the GC on every call; one
   holding 3000 and 2000 objects of two shapes has all 5000 recycled by
   the next call. *)
let cap_is_per_shape () =
  let round a shapes =
    List.iter
      (fun (cls, n) ->
        for _ = 1 to n do
          ignore (Arena.obj a ~cls ~nfields:1 : Value.obj)
        done)
      shapes
  in
  (* live and pooled around the first reset, then the fallbacks of the
     first and second call and the hand-outs of both *)
  let counts shapes =
    let m = Metrics.create () in
    let a = Arena.create ~metrics:m in
    round a shapes;
    let live = Arena.live a in
    Arena.reset a;
    let pooled = Arena.pooled a in
    let first = (Metrics.snapshot m).Metrics.arena_fallbacks in
    round a shapes;
    Arena.reset a;
    let s = Metrics.snapshot m in
    [ live; pooled; first; s.Metrics.arena_fallbacks - first; s.Metrics.arena_allocs ]
  in
  Alcotest.(check (list int))
    "one shape past the cap: live, pooled, fallbacks, fallbacks, allocs"
    [ 4096; 4096; 5000; 904; 10000 ]
    (counts [ (0, 5000) ]);
  Alcotest.(check (list int))
    "two shapes under it: live, pooled, fallbacks, fallbacks, allocs"
    [ 5000; 5000; 5000; 0; 10000 ]
    (counts [ (0, 3000); (1, 2000) ])

(* ------------------------------------------------------------------ *)
(* random graphs: arena decode must be indistinguishable from heap     *)
(* ------------------------------------------------------------------ *)

(* Random graphs in the Cell/Pair world, nulls included.  A second pass
   rewires one reference field at random, so back-edges (cycles) and
   cross-edges (sharing) both occur. *)
let gen_graph =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        return Value.Null;
        map (fun i -> Value.Int i) int;
        map (fun f -> Value.Double f) float;
        map (fun s -> Value.Str s) (string_size (int_bound 8));
      ]
  in
  let base =
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
                    c.fields.(0) <- next;
                    Value.Obj c)
                  (self (depth - 1)) );
              ( 2,
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
                  (list_size (int_bound 6) float) );
            ])
      5
  in
  (* collect the object spine (the base graph is acyclic, so plain
     recursion terminates) *)
  let rec collect acc = function
    | Value.Obj o ->
        Array.fold_left collect (o :: acc) o.Value.fields
    | Value.Rarr a -> Array.fold_left collect acc a.Value.ra
    | _ -> acc
  in
  base >>= fun v ->
  let objs = Array.of_list (collect [] v) in
  let n = Array.length objs in
  if n < 2 then return v
  else
    triple bool (int_bound (n - 1)) (int_bound (n - 1))
    >>= fun (tie, i, j) ->
    if tie then begin
      let src = objs.(i) and dst = objs.(j) in
      (* Cell.next is field 0, Pair.b is field 1 *)
      let fld = if Array.length src.Value.fields = 1 then 0 else 1 in
      src.Value.fields.(fld) <- Value.Obj dst
    end;
    return v

let arb_graph = QCheck.make ~print:(Format.asprintf "%a" Value.pp) gen_graph

let decode_with ?arena bytes =
  let m = Metrics.create () in
  let rctx = Codec.make_rctx ?arena meta m ~cycle:true in
  (Codec.read_dyn rctx (Msgbuf.reader_of_writer bytes), m)

let prop_arena_decode_equals_heap =
  QCheck.Test.make ~name:"arena decode == heap decode on random graphs"
    ~count:200 arb_graph (fun v ->
      let m = Metrics.create () in
      let w = Msgbuf.create_writer () in
      Codec.write_dyn (Codec.make_wctx meta m ~cycle:true) w v;
      let heap, _ = decode_with w in
      let arena = Arena.create ~metrics:m in
      let from_arena, _ = decode_with ~arena w in
      (* both roundtrip, and agree with each other *)
      Equality.equal v heap && Equality.equal v from_arena
      && Equality.equal heap from_arena
      &&
      (* a second decode out of the recycled pools is still correct *)
      (Arena.reset arena;
       let again, _ = decode_with ~arena w in
       Equality.equal v again))

let prop_arena_preserves_paper_counters =
  QCheck.Test.make
    ~name:"arena decode charges the same paper-table counters" ~count:200
    arb_graph (fun v ->
      let m = Metrics.create () in
      let w = Msgbuf.create_writer () in
      Codec.write_dyn (Codec.make_wctx meta m ~cycle:true) w v;
      let _, mh = decode_with w in
      let arena = Arena.create ~metrics:(Metrics.create ()) in
      let _, ma = decode_with ~arena w in
      let h = Metrics.snapshot mh and a = Metrics.snapshot ma in
      h.Metrics.allocs = a.Metrics.allocs
      && h.Metrics.new_bytes = a.Metrics.new_bytes
      && h.Metrics.reused_objs = a.Metrics.reused_objs
      && h.Metrics.cycle_lookups = a.Metrics.cycle_lookups)

(* ------------------------------------------------------------------ *)
(* flat arrays through the arena                                       *)
(* ------------------------------------------------------------------ *)

let matrix rows cols =
  let outer =
    Value.new_rarr (Jir.Types.Tarray Jir.Types.Tdouble) rows
  in
  for i = 0 to rows - 1 do
    let inner = Value.new_darr cols in
    Array.iteri
      (fun j _ -> inner.Value.d.(j) <- float_of_int ((i * cols) + j))
      inner.Value.d;
    outer.Value.ra.(i) <- Value.Darr inner
  done;
  Value.Rarr outer

let flat_step = Plan.S_flat_array

let encode_flat v =
  let m = Metrics.create () in
  let w = Msgbuf.create_writer () in
  Codec.write_step (Codec.make_wctx meta m ~cycle:false) w flat_step v;
  w

let flat_recycles_across_resets () =
  let v = matrix 4 4 in
  let bytes = encode_flat v in
  let m = Metrics.create () in
  let arena = Arena.create ~metrics:m in
  let rctx = Codec.make_rctx ~arena meta m ~cycle:false in
  let got1 =
    Codec.read_step rctx (Msgbuf.reader_of_writer bytes) flat_step
  in
  check_equal "first arena decode" v got1;
  Alcotest.(check int) "matrix is 5 live nodes" 5 (Arena.live arena);
  Arena.reset arena;
  Codec.reset_rctx rctx;
  let got2 =
    Codec.read_step rctx (Msgbuf.reader_of_writer bytes) flat_step
  in
  check_equal "second arena decode" v got2;
  (match (got1, got2) with
  | Value.Rarr a, Value.Rarr b ->
      Alcotest.(check bool) "outer array physically recycled" true (a == b)
  | _ -> Alcotest.fail "expected reference arrays");
  let counts () =
    let s = Metrics.snapshot m in
    (s.Metrics.arena_allocs, s.Metrics.arena_fallbacks)
  in
  Alcotest.(check (pair int int)) "steady state: no new fallbacks on round 2"
    (10, 5) (counts ());
  (* two more rows of the same length: the four parked rows, then two
     fresh ones, under a fresh outer array *)
  let taller = matrix 6 4 in
  Arena.reset arena;
  Codec.reset_rctx rctx;
  check_equal "taller matrix" taller
    (Codec.read_step rctx (Msgbuf.reader_of_writer (encode_flat taller))
       flat_step);
  Alcotest.(check (pair int int)) "7 drawn, 3 of them fresh" (17, 8) (counts ())

(* ------------------------------------------------------------------ *)
(* broken static promises: confusion -> widen -> replay                *)
(* ------------------------------------------------------------------ *)

let flat_plan () =
  {
    Plan.callsite = 0;
    defs = [||];
    args = [| flat_step |];
    ret = None;
    cycle_args = false;
    cycle_ret = false;
    reuse_args = [| true |];
    reuse_ret = false;
    non_escaping = true;
    version = 1;
    polluted = false;
  }

let confusion_on v =
  let m = Metrics.create () in
  let w = Msgbuf.create_writer () in
  let wctx = Codec.make_wctx meta m ~cycle:false in
  try
    Codec.write_step wctx w flat_step v;
    false
  with Codec.Type_confusion _ -> true

let flat_rejects_broken_shapes () =
  (* ragged rows *)
  let ragged = Value.new_rarr (Jir.Types.Tarray Jir.Types.Tdouble) 3 in
  ragged.Value.ra.(0) <- Value.Darr (Value.new_darr 4);
  ragged.Value.ra.(1) <- Value.Darr (Value.new_darr 2);
  ragged.Value.ra.(2) <- Value.Darr (Value.new_darr 4);
  Alcotest.(check bool) "ragged rows raise" true
    (confusion_on (Value.Rarr ragged));
  (* a null row *)
  let holed = Value.new_rarr (Jir.Types.Tarray Jir.Types.Tdouble) 2 in
  holed.Value.ra.(0) <- Value.Darr (Value.new_darr 3);
  holed.Value.ra.(1) <- Value.Null;
  Alcotest.(check bool) "null row raises" true (confusion_on (Value.Rarr holed));
  (* a heterogeneous row *)
  let mixed = Value.new_rarr (Jir.Types.Tarray Jir.Types.Tdouble) 2 in
  mixed.Value.ra.(0) <- Value.Darr (Value.new_darr 3);
  mixed.Value.ra.(1) <- Value.Iarr (Value.new_iarr 3);
  Alcotest.(check bool) "int row under a flat double[][] raises" true
    (confusion_on (Value.Rarr mixed));
  (* the happy shape still does not *)
  Alcotest.(check bool) "rectangular matrix encodes" false
    (confusion_on (matrix 3 4))

let flat_deopt_widen_replay () =
  (* the compiled promise meets a ragged matrix: the fast encode aborts,
     the plan widens the argument to S_dyn, and the replay delivers the
     exact value the caller meant to send *)
  let ragged = Value.new_rarr (Jir.Types.Tarray Jir.Types.Tdouble) 3 in
  ragged.Value.ra.(0) <- Value.Darr (Value.new_darr 2);
  ragged.Value.ra.(1) <- Value.Darr (Value.new_darr 5);
  ragged.Value.ra.(2) <- Value.Null;
  let v = Value.Rarr ragged in
  let plan = flat_plan () in
  Alcotest.(check bool) "fast path aborts" true (confusion_on v);
  let widened = Plan.widen plan (`Arg 0) in
  (match widened.Plan.args.(0) with
  | Plan.S_dyn -> ()
  | s -> Alcotest.failf "expected S_dyn after widen, got %a" Plan.pp_step s);
  Alcotest.(check bool) "widened plan is polluted" true widened.Plan.polluted;
  Alcotest.(check bool) "version bumped" true
    (widened.Plan.version > plan.Plan.version);
  Alcotest.(check bool) "cycle table back on" true widened.Plan.cycle_args;
  (* replay through the widened plan, decoding into an arena: the
     ragged value the static analysis never promised still roundtrips *)
  let m = Metrics.create () in
  let w = Msgbuf.create_writer () in
  let wctx = Codec.make_wctx meta m ~cycle:widened.Plan.cycle_args in
  Codec.write_step wctx w widened.Plan.args.(0) v;
  let arena = Arena.create ~metrics:m in
  let rctx =
    Codec.make_rctx ~arena meta m ~cycle:widened.Plan.cycle_args
  in
  let got =
    Codec.read_step rctx (Msgbuf.reader_of_writer w) widened.Plan.args.(0)
  in
  check_equal "widened replay" v got

let suite =
  [
    ( "serial.arena",
      [
        Alcotest.test_case "pool hit/miss/reset accounting" `Quick
          pool_hit_miss_reset;
        Alcotest.test_case "rarr element-type mismatch falls back" `Quick
          rarr_relem_mismatch_falls_back;
        Alcotest.test_case "cap is per shape" `Quick cap_is_per_shape;
        Alcotest.test_case "flat matrix recycles across resets" `Quick
          flat_recycles_across_resets;
        Alcotest.test_case "flat array rejects broken shapes" `Quick
          flat_rejects_broken_shapes;
        Alcotest.test_case "flat deopt: confusion -> widen -> replay" `Quick
          flat_deopt_widen_replay;
        Fixtures.qcheck_case prop_arena_decode_equals_heap;
        Fixtures.qcheck_case prop_arena_preserves_paper_counters;
      ] );
  ]
