(* [bufs.(head)], [offs.(head)], [lens.(head)] is the oldest of [count]
   slices; the capacity is a power of two *)
type t = {
  mutable bufs : bytes array;
  mutable offs : int array;
  mutable lens : int array;
  mutable head : int;
  mutable count : int;
}

let create () =
  { bufs = Array.make 8 Bytes.empty; offs = Array.make 8 0;
    lens = Array.make 8 0; head = 0; count = 0 }

let length t = t.count
let is_empty t = t.count = 0

(* twice the room, the slices moved to the front in order *)
let grow t =
  let cap = Array.length t.bufs in
  let bufs = Array.make (2 * cap) Bytes.empty in
  let offs = Array.make (2 * cap) 0 and lens = Array.make (2 * cap) 0 in
  for i = 0 to t.count - 1 do
    let j = (t.head + i) land (cap - 1) in
    bufs.(i) <- t.bufs.(j);
    offs.(i) <- t.offs.(j);
    lens.(i) <- t.lens.(j)
  done;
  t.bufs <- bufs;
  t.offs <- offs;
  t.lens <- lens;
  t.head <- 0

let push t buf off len =
  if t.count = Array.length t.bufs then grow t;
  let i = (t.head + t.count) land (Array.length t.bufs - 1) in
  t.bufs.(i) <- buf;
  t.offs.(i) <- off;
  t.lens.(i) <- len;
  t.count <- t.count + 1

let pop_into t (s : Transport.slice) =
  t.count > 0
  && begin
       let i = t.head in
       s.buf <- t.bufs.(i);
       s.off <- t.offs.(i);
       s.len <- t.lens.(i);
       t.bufs.(i) <- Bytes.empty;
       t.head <- (i + 1) land (Array.length t.bufs - 1);
       t.count <- t.count - 1;
       true
     end

let take_all t =
  let cap = Array.length t.bufs in
  let bufs =
    List.init t.count (fun i -> t.bufs.((t.head + i) land (cap - 1)))
  in
  Array.fill t.bufs 0 cap Bytes.empty;
  t.head <- 0;
  t.count <- 0;
  bufs
