module Metrics = Rmi_stats.Metrics

(* OCaml cannot region-allocate ordinary heap blocks, so the "arena" is
   a set of shape-keyed recycling pools: every node the decoder asks for
   is logged as live, and [reset] returns the whole live set to the
   pools in one sweep.  Steady state on a stable call site is therefore
   allocation-free — the generalization of the paper's per-position
   argument reuse to arbitrary (varying-shape) argument graphs, made
   sound by the escape analysis verdict that licenses the reset. *)

type 'a pool = { mutable items : 'a array; mutable len : int }

(* beyond this many parked nodes per shape the pool stops growing and
   lets the GC take the surplus — a backstop against a workload that
   decodes one giant graph once *)
let max_pooled_per_shape = 4096

let pool_make () = { items = [||]; len = 0 }

let pool_push p x =
  if p.len < max_pooled_per_shape then begin
    if p.len >= Array.length p.items then begin
      let fresh = Array.make (max 16 (2 * Array.length p.items)) x in
      Array.blit p.items 0 fresh 0 p.len;
      p.items <- fresh
    end;
    p.items.(p.len) <- x;
    p.len <- p.len + 1
  end

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

type 'a shapes = {
  by_key : 'a pool Int_tbl.t;
  mutable last_key : int;  (* -1: no key cached yet *)
  mutable last : 'a pool;
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

(* pop a parked node; the caller has checked [p.len > 0] *)
let take p =
  p.len <- p.len - 1;
  p.items.(p.len)

type t = {
  metrics : Metrics.t;
  (* hand-outs not yet added to [metrics] *)
  mutable tallied_allocs : int;
  mutable tallied_fallbacks : int;
  free_objs : Value.obj shapes;  (* key: cls * 2^16 + nfields *)
  free_darrs : Value.darr shapes;  (* key: length *)
  free_iarrs : Value.iarr shapes;
  free_rarrs : Value.rarr shapes;  (* key: length; relem checked *)
  live_objs : Value.obj pool;
  live_darrs : Value.darr pool;
  live_iarrs : Value.iarr pool;
  live_rarrs : Value.rarr pool;
}

let create ~metrics =
  {
    metrics;
    tallied_allocs = 0;
    tallied_fallbacks = 0;
    free_objs = shapes_make ();
    free_darrs = shapes_make ();
    free_iarrs = shapes_make ();
    free_rarrs = shapes_make ();
    live_objs = pool_make ();
    live_darrs = pool_make ();
    live_iarrs = pool_make ();
    live_rarrs = pool_make ();
  }

(* objects with more fields than the key holds are never pooled *)
let max_keyed_fields = 0xffff
let obj_key cls nfields = (cls lsl 16) lor nfields

let publish t =
  Metrics.add_arena_allocs t.metrics t.tallied_allocs;
  Metrics.add_arena_fallbacks t.metrics t.tallied_fallbacks;
  t.tallied_allocs <- 0;
  t.tallied_fallbacks <- 0

let count_alloc t = t.tallied_allocs <- t.tallied_allocs + 1
let count_fallback t = t.tallied_fallbacks <- t.tallied_fallbacks + 1

let fallback_obj t ~cls ~nfields =
  count_fallback t;
  Value.new_obj ~cls ~nfields

let obj_tallied t ~cls ~nfields =
  count_alloc t;
  let o =
    if nfields > max_keyed_fields then fallback_obj t ~cls ~nfields
    else
      let p = pool t.free_objs (obj_key cls nfields) in
      if p.len > 0 then take p else fallback_obj t ~cls ~nfields
  in
  pool_push t.live_objs o;
  o

let darr_tallied t n =
  count_alloc t;
  let p = pool t.free_darrs n in
  let a =
    if p.len > 0 then take p
    else begin
      count_fallback t;
      Value.new_darr n
    end
  in
  pool_push t.live_darrs a;
  a

let iarr_tallied t n =
  count_alloc t;
  let p = pool t.free_iarrs n in
  let a =
    if p.len > 0 then take p
    else begin
      count_fallback t;
      Value.new_iarr n
    end
  in
  pool_push t.live_iarrs a;
  a

let fallback_rarr t relem n =
  count_fallback t;
  Value.new_rarr relem n

let rarr_tallied t relem n =
  count_alloc t;
  let p = pool t.free_rarrs n in
  let a =
    if p.len = 0 then fallback_rarr t relem n
    else
      let a = take p in
      if Jir.Types.equal_ty a.Value.relem relem then a
      else
        (* a popped array with the wrong element type is dropped to the
           GC rather than re-parked (re-parking could starve the pool
           behind a permanently mismatched head) *)
        fallback_rarr t relem n
  in
  pool_push t.live_rarrs a;
  a

(* the allocators a caller outside the codec sees: each publishes its
   own counts at once *)
let obj t ~cls ~nfields =
  let o = obj_tallied t ~cls ~nfields in
  publish t;
  o

let darr t n =
  let a = darr_tallied t n in
  publish t;
  a

let iarr t n =
  let a = iarr_tallied t n in
  publish t;
  a

let rarr t relem n =
  let a = rarr_tallied t relem n in
  publish t;
  a

let live t =
  t.live_objs.len + t.live_darrs.len + t.live_iarrs.len + t.live_rarrs.len

let pooled t =
  let sum s = Int_tbl.fold (fun _ p acc -> acc + p.len) s.by_key 0 in
  sum t.free_objs + sum t.free_darrs + sum t.free_iarrs + sum t.free_rarrs

let reset t =
  Metrics.incr_arena_resets t.metrics;
  for i = 0 to t.live_objs.len - 1 do
    let o = t.live_objs.items.(i) in
    let nfields = Array.length o.Value.fields in
    if nfields <= max_keyed_fields then
      pool_push (pool t.free_objs (obj_key o.Value.cls nfields)) o
  done;
  t.live_objs.len <- 0;
  for i = 0 to t.live_darrs.len - 1 do
    let a = t.live_darrs.items.(i) in
    pool_push (pool t.free_darrs (Array.length a.Value.d)) a
  done;
  t.live_darrs.len <- 0;
  for i = 0 to t.live_iarrs.len - 1 do
    let a = t.live_iarrs.items.(i) in
    pool_push (pool t.free_iarrs (Array.length a.Value.ia)) a
  done;
  t.live_iarrs.len <- 0;
  for i = 0 to t.live_rarrs.len - 1 do
    let a = t.live_rarrs.items.(i) in
    pool_push (pool t.free_rarrs (Array.length a.Value.ra)) a
  done;
  t.live_rarrs.len <- 0
