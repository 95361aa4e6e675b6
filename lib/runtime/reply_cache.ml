(* Entries [oldest], [oldest + 1], ... (mod the ring's size) hold the
   [count] cached replies in insertion order, each key in
   [srcs]/[epochs]/[seqs] and the index slot it sits in in [homes].  The
   ring doubles until it holds [cap] entries, so a cache that sees few
   calls stays small.  [slots] is a linear-probe table of [1 lsl bits]
   entry numbers (-1 = empty), at most half full; a removal shifts the
   rest of its probe run back, so no tombstones accumulate. *)
type t = {
  cap : int;
  mutable srcs : int array;
  mutable epochs : int array;
  mutable seqs : int array;
  mutable replies : bytes array;
  mutable homes : int array;
  mutable oldest : int;
  mutable count : int;
  mutable slots : int array;
  mutable bits : int;
}

let create ~cap =
  { cap; srcs = [||]; epochs = [||]; seqs = [||]; replies = [||];
    homes = [||]; oldest = 0; count = 0; slots = [||]; bits = 0 }

let length t = t.count

(* Fibonacci hashing of the three fields folded into one int *)
let home t ~src ~epoch ~seq =
  let k = seq + (epoch * 0x1000193) + (src * 0x9E3779B1) in
  (k * 0x4F1BBCDCBFA53E0B) lsr (Sys.int_size - t.bits)

let size t = Array.length t.srcs

(* index entry [e]'s key *)
let rec seat t mask e i =
  if t.slots.(i) < 0 then begin
    t.slots.(i) <- e;
    t.homes.(e) <- i
  end
  else seat t mask e ((i + 1) land mask)

(* a ring of [n] entries, the current ones moved to its front in order,
   and an index of at least twice as many slots *)
let resize t n =
  let old = size t and count = t.count in
  let move a fill =
    let b = Array.make n fill in
    for k = 0 to count - 1 do
      b.(k) <- a.((t.oldest + k) mod old)
    done;
    b
  in
  t.srcs <- move t.srcs 0;
  t.epochs <- move t.epochs 0;
  t.seqs <- move t.seqs 0;
  t.replies <- move t.replies Bytes.empty;
  t.homes <- Array.make n 0;
  t.oldest <- 0;
  while 1 lsl t.bits < 2 * n do
    t.bits <- t.bits + 1
  done;
  t.slots <- Array.make (1 lsl t.bits) (-1);
  let mask = (1 lsl t.bits) - 1 in
  for e = 0 to count - 1 do
    seat t mask e (home t ~src:t.srcs.(e) ~epoch:t.epochs.(e) ~seq:t.seqs.(e))
  done

(* [key]'s entry, or [-1 - i] for the empty slot [i] ending its probe *)
let rec probe t mask ~src ~epoch ~seq i =
  let e = t.slots.(i) in
  if e < 0 then -1 - i
  else if t.seqs.(e) = seq && t.epochs.(e) = epoch && t.srcs.(e) = src then e
  else probe t mask ~src ~epoch ~seq ((i + 1) land mask)

let find t ~src ~epoch ~seq =
  if t.count = 0 then -1
  else
    let e =
      probe t (Array.length t.slots - 1) ~src ~epoch ~seq
        (home t ~src ~epoch ~seq)
    in
    if e >= 0 then e else -1

let reply t e = t.replies.(e)

(* slot [hole] was just emptied: move each later entry of its probe run
   back into it when the hole lies between that entry's home and its
   slot (cyclically) *)
let rec close_hole t mask hole i =
  let e = t.slots.(i) in
  if e >= 0 then begin
    let h = home t ~src:t.srcs.(e) ~epoch:t.epochs.(e) ~seq:t.seqs.(e) in
    if (i - h) land mask >= (i - hole) land mask then begin
      t.slots.(hole) <- e;
      t.homes.(e) <- hole;
      t.slots.(i) <- -1;
      close_hole t mask i ((i + 1) land mask)
    end
    else close_hole t mask hole ((i + 1) land mask)
  end

(* the oldest entry leaves *)
let evict t =
  let e = t.oldest in
  let mask = Array.length t.slots - 1 in
  let hole = t.homes.(e) in
  t.slots.(hole) <- -1;
  close_hole t mask hole ((hole + 1) land mask);
  t.replies.(e) <- Bytes.empty;
  t.oldest <- (e + 1) mod size t;
  t.count <- t.count - 1

let add t ~src ~epoch ~seq reply =
  if t.cap > 0 then
    match find t ~src ~epoch ~seq with
    | -1 ->
        if t.count = t.cap then evict t
        else if t.count = size t then
          resize t (min t.cap (max 16 (2 * t.count)));
        let e = (t.oldest + t.count) mod size t in
        seat t (Array.length t.slots - 1) e (home t ~src ~epoch ~seq);
        t.srcs.(e) <- src;
        t.epochs.(e) <- epoch;
        t.seqs.(e) <- seq;
        t.replies.(e) <- reply;
        t.count <- t.count + 1
    | e -> t.replies.(e) <- reply

let clear t =
  Array.fill t.slots 0 (Array.length t.slots) (-1);
  Array.fill t.replies 0 (size t) Bytes.empty;
  t.oldest <- 0;
  t.count <- 0
