(* Open addressing over flat int arrays: [slots] maps a hashed key to
   its handle (-1 = empty), [keys] and [homes] are indexed by handle
   (the key and the slot it sits in).  Handles are dense, so a resize
   re-seats every key without renumbering it, and [reset] empties
   exactly the slots [homes] names. *)
type t = {
  metrics : Rmi_stats.Metrics.t option;
  mutable slots : int array;
  mutable keys : int array;
  mutable homes : int array;
  mutable bits : int;  (* [slots] has [1 lsl bits] entries once allocated *)
  mutable count : int;
  mutable charged : int;  (* cycle lookups not yet published *)
}

(* allocated on the first [find_or_add]: a context that never meets a
   heap node costs no arrays *)
let create ?metrics () =
  {
    metrics;
    slots = [||];
    keys = [||];
    homes = [||];
    bits = 0;
    count = 0;
    charged = 0;
  }

let publish t =
  (match t.metrics with
  | Some m -> Rmi_stats.Metrics.add m Cycle_lookups t.charged
  | None -> ());
  t.charged <- 0

(* Fibonacci hashing: the top [bits] bits of the product *)
let home t key = (key * 0x4F1BBCDCBFA53E0B) lsr (Sys.int_size - t.bits)

let rec probe slots mask i =
  if slots.(i) < 0 then i else probe slots mask ((i + 1) land mask)

let grow t =
  let bits = if t.bits = 0 then 5 else t.bits + 1 in
  let cap = 1 lsl bits in
  let keys = Array.make (cap / 2) 0 and homes = Array.make (cap / 2) 0 in
  Array.blit t.keys 0 keys 0 t.count;
  t.slots <- Array.make cap (-1);
  t.keys <- keys;
  t.homes <- homes;
  t.bits <- bits;
  for h = 0 to t.count - 1 do
    let i = probe t.slots (cap - 1) (home t keys.(h)) in
    t.slots.(i) <- h;
    homes.(h) <- i
  done

(* [key]'s handle, or [-1 - i] for the empty slot [i] ending its probe *)
let rec find t mask key i =
  let h = t.slots.(i) in
  if h < 0 then -1 - i
  else if t.keys.(h) = key then h
  else find t mask key ((i + 1) land mask)

let find_or_add_tallied t key =
  if 2 * (t.count + 1) > Array.length t.slots then grow t;
  let found = find t (Array.length t.slots - 1) key (home t key) in
  if found >= 0 then begin
    t.charged <- t.charged + 1;
    found
  end
  else begin
    (* a miss pays for the probe and the insertion, as RMI's table does *)
    t.charged <- t.charged + 2;
    let i = -1 - found and h = t.count in
    t.slots.(i) <- h;
    t.keys.(h) <- key;
    t.homes.(h) <- i;
    t.count <- h + 1;
    -1
  end

let find_or_add t key =
  let h = find_or_add_tallied t key in
  publish t;
  h

let next_handle t = t.count
let size t = t.count

let reset t =
  for h = 0 to t.count - 1 do
    t.slots.(t.homes.(h)) <- -1
  done;
  t.count <- 0
