module Metrics = Rmi_stats.Metrics

(* OCaml cannot region-allocate ordinary heap blocks, so the "arena" is
   a set of shape-keyed recycling pools of boxed nodes: a shape's pool
   hands its parked nodes out in order from a cursor, and [reset]
   rewinds the cursors of the shapes touched since the last reset.  A
   node is parked once, when it is first allocated, together with its
   [Value.t] box, so the steady state on a stable call site writes no
   pointer and allocates no word.  This is the paper's argument and
   return-value reuse, by shape rather than by position, made sound by
   the escape analysis verdict that licenses the reset; the cursor
   hands a parked node out at most once per reset, however the graph
   it last held was shared. *)

(* [nodes.(0..len)] are the shape's parked nodes, each in its box;
   [nodes.(0..cursor)] are those handed out since the last reset *)
type pool = {
  mutable nodes : Value.t array;
  mutable len : int;
  mutable cursor : int;
}

(* beyond this many nodes per shape the pool stops growing and lets the
   GC take the surplus — a backstop against a workload that decodes one
   giant graph once *)
let max_pooled_per_shape = 4096

let pool_make () = { nodes = [||]; len = 0; cursor = 0 }

(* The pools of one kind of node, by shape key, behind a one-entry
   (last key -> pool) cache: a call site's graph is usually all one
   shape, so the table is consulted once per shape change, not once per
   node. *)
module Int_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  (* fold an object key's class bits into the low bits the buckets use *)
  let hash k = (k lxor (k lsr 16)) land max_int
end)

type shapes = {
  by_key : pool Int_tbl.t;
  mutable last_key : int;  (* -1: no key cached yet *)
  mutable last : pool;
}

let shapes_make () =
  { by_key = Int_tbl.create 16; last_key = -1; last = pool_make () }

let pool s key =
  if key = s.last_key then s.last
  else begin
    let p =
      match Int_tbl.find s.by_key key with
      | p -> p
      | exception Not_found ->
          let p = pool_make () in
          Int_tbl.add s.by_key key p;
          p
    in
    s.last_key <- key;
    s.last <- p;
    p
  end

type t = {
  metrics : Metrics.t option;  (* [None]: a reuse arena, which charges nothing *)
  (* hand-outs not yet added to [metrics] *)
  mutable tallied_allocs : int;
  mutable tallied_fallbacks : int;
  mutable hit : bool;  (* the last hand-out was a parked node *)
  objs : shapes;  (* key: cls * 2^16 + nfields *)
  darrs : shapes;  (* key: length *)
  iarrs : shapes;
  rarrs : shapes;  (* key: length; relem checked *)
  (* the pools whose cursor left 0 since the last reset *)
  mutable touched : pool array;
  mutable ntouched : int;
}

let make metrics =
  {
    metrics;
    tallied_allocs = 0;
    tallied_fallbacks = 0;
    hit = false;
    objs = shapes_make ();
    darrs = shapes_make ();
    iarrs = shapes_make ();
    rarrs = shapes_make ();
    touched = [||];
    ntouched = 0;
  }

let create ~metrics = make (Some metrics)
let create_reuse () = make None
let reuses t = Option.is_none t.metrics
let hit t = t.hit

(* objects with more fields than the key holds are never pooled *)
let max_keyed_fields = 0xffff
let obj_key cls nfields = (cls lsl 16) lor nfields

let publish t =
  (match t.metrics with
  | Some m ->
      Metrics.add m Arena_allocs t.tallied_allocs;
      Metrics.add m Arena_fallbacks t.tallied_fallbacks
  | None -> ());
  t.tallied_allocs <- 0;
  t.tallied_fallbacks <- 0

(* a hand-out; it is a hit unless it also counts a miss *)
let count_alloc t =
  t.tallied_allocs <- t.tallied_allocs + 1;
  t.hit <- true

(* a miss: the hand-out is a fresh node *)
let count_fallback t =
  t.tallied_fallbacks <- t.tallied_fallbacks + 1;
  t.hit <- false

(* [p]'s cursor is about to leave 0: log it for [reset] *)
let touch t p =
  if t.ntouched = Array.length t.touched then begin
    let fresh = Array.make (max 8 (2 * t.ntouched)) p in
    Array.blit t.touched 0 fresh 0 t.ntouched;
    t.touched <- fresh
  end;
  t.touched.(t.ntouched) <- p;
  t.ntouched <- t.ntouched + 1

(* the parked node at [p]'s cursor, or [Null] when all are out *)
let next t p =
  let c = p.cursor in
  if c < p.len then begin
    if c = 0 then touch t p;
    p.cursor <- c + 1;
    Array.unsafe_get p.nodes c
  end
  else Value.Null

(* a pool miss: the fresh node [v] is parked at the cursor while the
   shape has room, and handed out either way *)
let park t p v =
  count_fallback t;
  let c = p.cursor in
  if c < max_pooled_per_shape then begin
    if c = 0 then touch t p;
    if c = Array.length p.nodes then begin
      let fresh = Array.make (max 16 (2 * c)) Value.Null in
      Array.blit p.nodes 0 fresh 0 c;
      p.nodes <- fresh
    end;
    p.nodes.(c) <- v;
    p.len <- c + 1;
    p.cursor <- c + 1
  end;
  v

let obj_box t ~cls ~nfields =
  count_alloc t;
  if nfields > max_keyed_fields then begin
    count_fallback t;
    Value.Obj (Value.new_obj ~cls ~nfields)
  end
  else
    let p = pool t.objs (obj_key cls nfields) in
    match next t p with
    | Value.Null -> park t p (Value.Obj (Value.new_obj ~cls ~nfields))
    | v -> v

let darr_box t n =
  count_alloc t;
  let p = pool t.darrs n in
  match next t p with
  | Value.Null -> park t p (Value.Darr (Value.new_darr n))
  | v -> v

let iarr_box t n =
  count_alloc t;
  let p = pool t.iarrs n in
  match next t p with
  | Value.Null -> park t p (Value.Iarr (Value.new_iarr n))
  | v -> v

let rarr_box t relem n =
  count_alloc t;
  let p = pool t.rarrs n in
  match next t p with
  | Value.Rarr a as v when Jir.Types.equal_ty a.Value.relem relem -> v
  | Value.Null -> park t p (Value.Rarr (Value.new_rarr relem n))
  | _ ->
      (* a parked array with the wrong element type is replaced in its
         slot by a fresh one, which later calls then recycle *)
      count_fallback t;
      let v = Value.Rarr (Value.new_rarr relem n) in
      p.nodes.(p.cursor - 1) <- v;
      v

(* A flat matrix's rows: [rows] is filled with double[] nodes of
   length [n], drawn as [darr_box] draws them, and the count of parked
   ones returned.  When the pool has every row parked, they are handed
   out by one cursor move, and a slot that already holds its node (as
   a recycled matrix's slots do) is not written again. *)
let darrs_into t (rows : Value.t array) n =
  let p = pool t.darrs n in
  let k = Array.length rows and c = p.cursor in
  if k > 0 && c + k <= p.len then begin
    if c = 0 then touch t p;
    t.tallied_allocs <- t.tallied_allocs + k;
    t.hit <- true;
    p.cursor <- c + k;
    for i = 0 to k - 1 do
      let v = Array.unsafe_get p.nodes (c + i) in
      if Array.unsafe_get rows i != v then rows.(i) <- v
    done;
    k
  end
  else begin
    let hits = ref 0 in
    for i = 0 to k - 1 do
      rows.(i) <- darr_box t n;
      if t.hit then incr hits
    done;
    !hits
  end

(* the allocators a caller outside the codec sees: each unboxes its
   node and publishes its counts at once *)
let obj t ~cls ~nfields =
  let v = obj_box t ~cls ~nfields in
  publish t;
  match v with Value.Obj o -> o | _ -> assert false

let darr t n =
  let v = darr_box t n in
  publish t;
  match v with Value.Darr a -> a | _ -> assert false

let iarr t n =
  let v = iarr_box t n in
  publish t;
  match v with Value.Iarr a -> a | _ -> assert false

let rarr t relem n =
  let v = rarr_box t relem n in
  publish t;
  match v with Value.Rarr a -> a | _ -> assert false

let live t =
  let n = ref 0 in
  for i = 0 to t.ntouched - 1 do
    n := !n + t.touched.(i).cursor
  done;
  !n

let pooled t =
  let sum s = Int_tbl.fold (fun _ p acc -> acc + p.len - p.cursor) s.by_key 0 in
  sum t.objs + sum t.darrs + sum t.iarrs + sum t.rarrs

let reset t =
  Option.iter (fun m -> Metrics.add m Arena_resets 1) t.metrics;
  for i = 0 to t.ntouched - 1 do
    t.touched.(i).cursor <- 0
  done;
  t.ntouched <- 0
