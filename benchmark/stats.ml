(* Clock, latency sample store and order statistics. *)

(* bechamel's CLOCK_MONOTONIC reader: unboxed and allocation-free, so
   reading it per call does not show up in the words/call metric *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

let seconds_between a b = float_of_int (b - a) *. 1e-9

(* ------------------------------------------------------------------ *)
(* host speed                                                          *)
(* ------------------------------------------------------------------ *)

(* On a shared virtual machine, other tenants slow every workload down
   together, by up to half, for seconds to minutes at a time.  This
   fixed kernel (short-lived allocation, hashing and byte-array access,
   like the runtime's own work, and none of its code) takes about
   [reference_ms] on a quiet 2-vCPU Intel Xeon virtual machine;
   [host_speed] is the reference time over the median of five runs
   now, so 0.8 means the host runs at 80% of that speed. *)
let reference_ms = 5.5

let kernel () =
  let tbl = Hashtbl.create 4096 and b = Bytes.create 4096 in
  let acc = ref 0 in
  for i = 0 to 50_000 do
    Hashtbl.replace tbl (i land 4095) [ i; i + 1; i + 2 ];
    Bytes.unsafe_set b (i land 4095) (Char.unsafe_chr (i land 255));
    match Hashtbl.find_opt tbl ((i * 7) land 4095) with
    | Some l -> acc := !acc + List.length l + Char.code (Bytes.unsafe_get b ((i * 13) land 4095))
    | None -> ()
  done;
  ignore (Sys.opaque_identity !acc : int)

let host_speed () =
  let run () =
    let t0 = now_ns () in
    kernel ();
    float_of_int (now_ns () - t0) /. 1e6
  in
  let a = Array.init 5 (fun _ -> run ()) in
  Array.sort Float.compare a;
  reference_ms /. a.(2)

(* ------------------------------------------------------------------ *)
(* latency samples                                                     *)
(* ------------------------------------------------------------------ *)

(* Per-call latencies in ns as int32 (a call longer than 2.1 s clips):
   the busiest workload records millions of calls per run, and a flat
   unboxed store keeps them exact without a histogram's bucket edges. *)
module Samples = struct
  open Bigarray

  type t = { mutable a : (int32, int32_elt, c_layout) Array1.t; mutable n : int }

  let create () = { a = Array1.create int32 c_layout 65536; n = 0 }
  let length t = t.n

  let add t ns =
    if t.n = Array1.dim t.a then begin
      let b = Array1.create int32 c_layout (2 * t.n) in
      Array1.blit t.a (Array1.sub b 0 t.n);
      t.a <- b
    end;
    Array1.unsafe_set t.a t.n (Int32.of_int (min ns 0x7fffffff));
    t.n <- t.n + 1

  (* multiply samples [lo, hi) by [f] *)
  let scale t ~lo ~hi f =
    for i = lo to hi - 1 do
      let x = Int32.to_float (Array1.unsafe_get t.a i) *. f in
      Array1.unsafe_set t.a i (Int32.of_float (Float.min x 2147483647.))
    done

  (* k-th smallest (0-based) of a.{lo..hi-1}, reordering that range
     in place: quickselect with a median-of-three pivot *)
  let select a lo hi k =
    let get i = Array1.unsafe_get a i in
    let swap i j =
      let x = get i in
      Array1.unsafe_set a i (get j);
      Array1.unsafe_set a j x
    in
    let lo = ref lo and hi = ref (hi - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if get mid < get !lo then swap mid !lo;
      if get !hi < get !lo then swap !hi !lo;
      if get !hi < get mid then swap !hi mid;
      let pivot = get mid in
      let i = ref !lo and j = ref !hi in
      while !i <= !j do
        while get !i < pivot do incr i done;
        while pivot < get !j do decr j done;
        if !i <= !j then begin
          swap !i !j;
          incr i;
          decr j
        end
      done;
      if k <= !j then hi := !j else if k >= !i then lo := !i else lo := !hi
    done;
    Int32.to_float (get k)

  (* nearest-rank [q]-quantile of samples [lo, hi), in microseconds *)
  let quantile_us t ?(lo = 0) ?hi q =
    let hi = Option.value hi ~default:t.n in
    let n = hi - lo in
    if n = 0 then Float.nan
    else
      let rank = max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float n)) - 1)) in
      select t.a lo hi (lo + rank) /. 1e3

  let max_us t ?(lo = 0) ?hi () =
    let hi = Option.value hi ~default:t.n in
    let m = ref 0l in
    for i = lo to hi - 1 do
      let x = Array1.unsafe_get t.a i in
      if x > !m then m := x
    done;
    Int32.to_float !m /. 1e3
end

(* ------------------------------------------------------------------ *)
(* small float collections                                             *)
(* ------------------------------------------------------------------ *)

let sorted l = List.sort Float.compare l

(* nearest-rank quantile of a float list *)
let quantile l q =
  match sorted l with
  | [] -> Float.nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float n)) - 1)))

(* the usual median: mean of the middle pair for even counts *)
let median l =
  match sorted l with
  | [] -> Float.nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* first and third quartile as Python's [statistics.quantiles(values,
   n=4)] computes them (the "exclusive" method), so spreads quoted from
   this tool and from that one agree *)
let quartiles l =
  let a = Array.of_list (sorted l) in
  let ld = Array.length a in
  if ld < 2 then (Float.nan, Float.nan)
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float (4 - delta)) +. (a.(j) *. float delta)) /. 4.
    in
    (q 1, q 3)

(* interquartile range as a share of the median *)
let spread l =
  let q1, q3 = quartiles l in
  (q3 -. q1) /. Float.abs (median l)
