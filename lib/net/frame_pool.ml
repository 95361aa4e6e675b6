(* Recycled frame buffers with holder counts; see the interface.

   The store is [sets] sets of [ways] slots, a frame of length [len]
   living in set [len land (sets - 1)], so a lookup compares at most
   [ways] buffers.  A slot is free while its count reads 0.  Claiming
   one is a compare-and-set from 0, so no lock is taken anywhere: two
   domains cannot claim the same slot, a slot's bytes change only while
   it is claimed, and a lookup for a frame someone holds finds the one
   slot whose bytes it is. *)

type slot = { mutable buf : bytes; held : int Atomic.t }
type t = slot array

let sets = 16
let ways = 8

(* the largest frame kept: a [Sock] cork's size.  Longer frames are
   rare, and one would pin its bytes in the store once it is free. *)
let max_len = 65536

let create () =
  Array.init (sets * ways) (fun _ ->
      { buf = Bytes.empty; held = Atomic.make 0 })

let first len = (len land (sets - 1)) * ways
let pooled len = len > 0 && len <= max_len

(* top-level loops, so a lookup builds no closure *)
let rec claim_exact t len ~holders i stop =
  if i = stop then -1
  else
    let s = t.(i) in
    if
      Bytes.length s.buf = len
      && Atomic.get s.held = 0
      && Atomic.compare_and_set s.held 0 holders
    then i
    else claim_exact t len ~holders (i + 1) stop

let rec claim_any t ~holders i stop =
  if i = stop then -1
  else if Atomic.get t.(i).held = 0 && Atomic.compare_and_set t.(i).held 0 holders
  then i
  else claim_any t ~holders (i + 1) stop

(* a free slot of [len] bytes first, then any free slot, whose bytes
   are replaced.  The length is checked again once the slot is ours: a
   slot seen free may have been claimed, given other bytes and freed
   before our claim. *)
let acquire t ~holders len =
  if not (pooled len) then Bytes.create len
  else
    let b = first len in
    let i = claim_exact t len ~holders b (b + ways) in
    let i = if i >= 0 then i else claim_any t ~holders b (b + ways) in
    if i < 0 then Bytes.create len
    else
      let s = t.(i) in
      if Bytes.length s.buf = len then s.buf
      else begin
        let buf = Bytes.create len in
        s.buf <- buf;
        buf
      end

let copy t ~holders src ~off ~len =
  let frame = acquire t ~holders len in
  Bytes.blit src off frame 0 len;
  frame

let rec find t frame i stop =
  if i = stop then -1
  else if t.(i).buf == frame then i
  else find t frame (i + 1) stop

let slot_of t frame =
  let len = Bytes.length frame in
  if not (pooled len) then -1
  else
    let b = first len in
    find t frame b (b + ways)

let hold t frame =
  let i = slot_of t frame in
  if i >= 0 then Atomic.incr t.(i).held

(* a count found at 0 is put back before raising; a claim racing that
   over-release can only meet a frame no one holds *)
let drop held =
  if Atomic.fetch_and_add held (-1) <= 0 then begin
    Atomic.incr held;
    invalid_arg "Frame_pool.release: the frame has no holder left"
  end

let release t frame =
  let i = slot_of t frame in
  if i >= 0 then drop t.(i).held

let mem t frame = slot_of t frame >= 0

let held t = Array.fold_left (fun acc s -> acc + Atomic.get s.held) 0 t
