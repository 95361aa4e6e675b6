type writer = { mutable buf : bytes; mutable len : int }

(* [data]/[limit] are mutable so pooled readers can be re-aimed at a new
   buffer with [reset_reader] instead of allocating a fresh record *)
type reader = { mutable data : bytes; mutable limit : int; mutable pos : int }

exception Underflow of string

let create_writer ?(initial_capacity = 256) () =
  { buf = Bytes.create (max 16 initial_capacity); len = 0 }

let clear w = w.len <- 0
let length w = w.len

let ensure w extra =
  let needed = w.len + extra in
  if needed > Bytes.length w.buf then begin
    let cap = ref (Bytes.length w.buf) in
    while !cap < needed do
      cap := !cap * 2
    done;
    let fresh = Bytes.create !cap in
    Bytes.blit w.buf 0 fresh 0 w.len;
    w.buf <- fresh
  end

let write_u8 w v =
  ensure w 1;
  Bytes.unsafe_set w.buf w.len (Char.unsafe_chr (v land 0xff));
  w.len <- w.len + 1

let write_bool w b = write_u8 w (if b then 1 else 0)

(* Varints are LEB128 over native ints, so no primitive below boxes an
   [Int64] or builds a closure.  Signed values are zigzag-mapped first:
   [(v lsl 1) lxor (v asr 62)] sends 0, -1, 1, -2 ... to 0, 1, 2, 3 ...
   and the whole [int] range (including [min_int]) to a 63-bit pattern
   that, read as unsigned, is < 2^63 — at most 9 bytes on the wire. *)
let zigzag v = (v lsl 1) lxor (v asr 62)

let max_encoded_bytes = 9

(* [emit buf at u] stores [u]'s 63-bit pattern, read as unsigned, as a
   minimal varint at [at] and returns the offset just past it; the
   caller has made room.  [lsr] and the mask test treat a pattern with
   the top bit set as the large unsigned value it encodes. *)
let rec emit buf at u =
  if u land lnot 0x7f = 0 then begin
    Bytes.unsafe_set buf at (Char.unsafe_chr u);
    at + 1
  end
  else begin
    Bytes.unsafe_set buf at (Char.unsafe_chr (0x80 lor (u land 0x7f)));
    emit buf (at + 1) (u lsr 7)
  end

(* width of [u]'s pattern as a minimal varint *)
let rec pattern_size u n =
  if u land lnot 0x7f = 0 then n else pattern_size (u lsr 7) (n + 1)

let write_pattern w u =
  ensure w max_encoded_bytes;
  w.len <- emit w.buf w.len u

let write_uvarint w v =
  if v < 0 then invalid_arg "Msgbuf.write_uvarint: negative";
  write_pattern w v

let write_varint w v = write_pattern w (zigzag v)

let write_double w f =
  ensure w 8;
  Bytes.set_int64_le w.buf w.len (Int64.bits_of_float f);
  w.len <- w.len + 8

let write_string w s =
  let n = String.length s in
  write_uvarint w n;
  ensure w n;
  Bytes.blit_string s 0 w.buf w.len n;
  w.len <- w.len + n

(* A double crosses as the little-endian bytes of its bit pattern.  On
   a little-endian host with flat float arrays, an array slice already
   is those bytes, so the slice primitives copy it with one [memcpy]
   (msgbuf_stubs.c) after their own bounds checks; elsewhere the
   element loop is the only path.  [Int64.bits_of_float] and
   [float_of_bits] are C calls, not primitives, so the loop makes one
   call per element. *)
external blit_doubles_to_bytes : float array -> int -> bytes -> int -> int -> unit
  = "rmi_msgbuf_blit_doubles_to_bytes"
[@@noalloc]

external blit_bytes_to_doubles : bytes -> int -> float array -> int -> int -> unit
  = "rmi_msgbuf_blit_bytes_to_doubles"
[@@noalloc]

let bulk_doubles =
  (not Sys.big_endian) && Obj.tag (Obj.repr [| 0.0 |]) = Obj.double_array_tag

let write_double_slice w a pos len =
  if pos < 0 || len < 0 || pos + len > Array.length a then
    invalid_arg "Msgbuf.write_double_slice";
  ensure w (len * 8);
  if bulk_doubles then blit_doubles_to_bytes a pos w.buf w.len len
  else
    for i = 0 to len - 1 do
      Bytes.set_int64_le w.buf (w.len + (i * 8))
        (Int64.bits_of_float (Array.unsafe_get a (pos + i)))
    done;
  w.len <- w.len + (len * 8)

(* one [ensure] for the worst case, then an unchecked loop *)
let write_int_slice w a pos len =
  if pos < 0 || len < 0 || pos + len > Array.length a then
    invalid_arg "Msgbuf.write_int_slice";
  ensure w (max_encoded_bytes * len);
  let buf = w.buf and at = ref w.len in
  for i = pos to pos + len - 1 do
    at := emit buf !at (zigzag (Array.unsafe_get a i))
  done;
  w.len <- !at

let write_bytes w b off len =
  if off < 0 || len < 0 || off + len > Bytes.length b then
    invalid_arg "Msgbuf.write_bytes";
  ensure w len;
  Bytes.blit b off w.buf w.len len;
  w.len <- w.len + len

(* [reserve w n] appends [n] zero bytes and returns their start offset;
   callers back-fill them later with the [patch_*] primitives.  The gap
   technique lets a frame header be written *around* an already-written
   payload without copying it. *)
let reserve w n =
  if n < 0 then invalid_arg "Msgbuf.reserve";
  ensure w n;
  Bytes.fill w.buf w.len n '\000';
  let at = w.len in
  w.len <- w.len + n;
  at

let patch_u8 w ~at v =
  if at < 0 || at >= w.len then invalid_arg "Msgbuf.patch_u8";
  Bytes.unsafe_set w.buf at (Char.unsafe_chr (v land 0xff))

(* width of [v] as a minimal unsigned LEB128 varint *)
let uvarint_size v =
  if v < 0 then invalid_arg "Msgbuf.uvarint_size";
  pattern_size v 1

(* [patch_uvarint w ~at v] writes [v] as a minimal varint at absolute
   offset [at] (inside already-written storage) and returns its width.
   Minimal — never padded — so patched headers stay byte-identical to
   ones produced by [write_uvarint]. *)
let patch_uvarint w ~at v =
  let n = uvarint_size v in
  if at < 0 || at + n > w.len then invalid_arg "Msgbuf.patch_uvarint";
  ignore (emit w.buf at v : int);
  n

let contents w = Bytes.sub w.buf 0 w.len

let sub w ~off ~len =
  if off < 0 || len < 0 || off + len > w.len then invalid_arg "Msgbuf.sub";
  Bytes.sub w.buf off len

let unsafe_storage w = w.buf

let reader_of_bytes ?(off = 0) ?len data =
  let len = match len with Some n -> n | None -> Bytes.length data - off in
  if off < 0 || len < 0 || off + len > Bytes.length data then
    invalid_arg "Msgbuf.reader_of_bytes";
  { data; limit = off + len; pos = off }

let reader_of_writer ?(off = 0) w =
  if off < 0 || off > w.len then invalid_arg "Msgbuf.reader_of_writer";
  { data = w.buf; limit = w.len; pos = off }

let reset_slice r data ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length data then
    invalid_arg "Msgbuf.reset_slice";
  r.data <- data;
  r.limit <- off + len;
  r.pos <- off

let reset_reader r ?(off = 0) ?len data =
  let len = match len with Some n -> n | None -> Bytes.length data - off in
  reset_slice r data ~off ~len

let remaining r = r.limit - r.pos

(* overflow-safe bounds check: hostile lengths can be near max_int *)
let check r n what =
  if n < 0 || n > r.limit - r.pos then raise (Underflow what)

let read_u8 r =
  check r 1 "u8";
  let v = Char.code (Bytes.unsafe_get r.data r.pos) in
  r.pos <- r.pos + 1;
  v

let read_bool r =
  match read_u8 r with
  | 0 -> false
  | 1 -> true
  | n -> raise (Underflow (Printf.sprintf "bool: invalid byte %d" n))

(* The format admits 64-bit values, so a varint spans at most 10
   bytes; each byte goes through [read_u8]'s Underflow check. *)
let rec uvarint_from r shift acc =
  if shift > 63 then raise (Underflow "uvarint: too long");
  let b = read_u8 r in
  let acc = acc lor ((b land 0x7f) lsl shift) in
  if b land 0x80 = 0 then acc else uvarint_from r (shift + 7) acc

let read_uvarint r = uvarint_from r 0 0

(* a zigzag value [zz] decodes as [(zz lsr 1) lxor -(zz land 1)]: the
   sign is bit 0 of the first byte and the magnitude [mag = zz lsr 1]
   accumulates from bit 6 on, byte k landing at bit 7k-1.  The 10th
   byte lands at bit 62, where only its low bit fits an [int]; the
   other bits of an overlong encoding are dropped. *)
let rec magnitude_from r shift mag =
  if shift > 62 then raise (Underflow "uvarint64: too long");
  let b = read_u8 r in
  let mag = mag lor ((b land 0x7f) lsl shift) in
  if b land 0x80 = 0 then mag else magnitude_from r (shift + 7) mag

let read_varint r =
  let b = read_u8 r in
  let mag = (b land 0x7f) lsr 1 in
  let mag = if b land 0x80 = 0 then mag else magnitude_from r 6 mag in
  mag lxor -(b land 1)

let read_double r =
  check r 8 "double";
  let v = Int64.float_of_bits (Bytes.get_int64_le r.data r.pos) in
  r.pos <- r.pos + 8;
  v

(* [skip r n what] advances past [n] bytes and returns their start
   offset in the underlying buffer — how batch sub-frames are sliced
   without copying *)
let skip r n what =
  check r n what;
  let at = r.pos in
  r.pos <- r.pos + n;
  at

let read_string r =
  let n = read_uvarint r in
  check r n "string";
  let s = Bytes.sub_string r.data r.pos n in
  r.pos <- r.pos + n;
  s

let read_double_slice r a pos len =
  if pos < 0 || len < 0 || pos + len > Array.length a then
    invalid_arg "Msgbuf.read_double_slice";
  check r (len * 8) "double slice";
  if bulk_doubles then blit_bytes_to_doubles r.data r.pos a pos len
  else
    for i = 0 to len - 1 do
      Array.unsafe_set a (pos + i)
        (Int64.float_of_bits (Bytes.get_int64_le r.data (r.pos + (i * 8))))
    done;
  r.pos <- r.pos + (len * 8)

(* An int slice checks bounds once per value, not once per byte: with
   at least [max_varint_bytes] left, no varint [read_varint] accepts can
   run past [r.limit], so the value is decoded with unchecked reads and
   one [r.pos] store.  Within the last 9 bytes it falls back to
   [read_varint].  Both paths consume the same bytes and raise the same
   [Underflow]: the 10th byte's continuation bit is "too long" either
   way, before an 11th is read.  The kernels are top-level functions,
   since a local closure would allocate per slice. *)
let max_varint_bytes = 10

(* [magnitude_at r at shift mag] is [magnitude_from] over the bytes
   from [at], which the caller knows are there *)
let rec magnitude_at r at shift mag =
  if shift > 62 then begin
    r.pos <- at;
    raise (Underflow "uvarint64: too long")
  end;
  let b = Char.code (Bytes.unsafe_get r.data at) in
  let mag = mag lor ((b land 0x7f) lsl shift) in
  if b land 0x80 = 0 then begin
    r.pos <- at + 1;
    mag
  end
  else magnitude_at r (at + 1) (shift + 7) mag

let rec ints_from r a i stop =
  if i < stop then begin
    let v =
      if r.limit - r.pos >= max_varint_bytes then begin
        let at = r.pos in
        let b = Char.code (Bytes.unsafe_get r.data at) in
        let mag = (b land 0x7f) lsr 1 in
        let mag =
          if b land 0x80 = 0 then begin
            r.pos <- at + 1;
            mag
          end
          else magnitude_at r (at + 1) 6 mag
        in
        mag lxor -(b land 1)
      end
      else read_varint r
    in
    Array.unsafe_set a i v;
    ints_from r a (i + 1) stop
  end

let read_int_slice r a pos len =
  if pos < 0 || len < 0 || pos + len > Array.length a then
    invalid_arg "Msgbuf.read_int_slice";
  ints_from r a pos (pos + len)

(* Free lists of writers and readers so steady-state RMI traffic reuses
   buffer storage instead of allocating it per call — the Manta/GM
   "message buffers come from a pool" discipline.  Mutex-guarded because
   machines run in separate domains; a released writer keeps its grown
   storage, so after warmup acquisitions stop allocating entirely. *)
module Pool = struct
  module Metrics = Rmi_stats.Metrics

  (* a free list as an array stack, so a release allocates no list
     cell; [Array.length items] only grows, to the most buffers ever
     out at once *)
  type 'a stack = { mutable items : 'a array; mutable n : int; empty : 'a }

  let stack empty = { items = [||]; n = 0; empty }

  let push s x =
    if s.n = Array.length s.items then begin
      let items = Array.make (max 8 (2 * s.n)) s.empty in
      Array.blit s.items 0 items 0 s.n;
      s.items <- items
    end;
    s.items.(s.n) <- x;
    s.n <- s.n + 1

  (* the most recently released item (LIFO, as the list was), its slot
     cleared so the stack pins nothing handed out *)
  let pop s =
    s.n <- s.n - 1;
    let x = s.items.(s.n) in
    s.items.(s.n) <- s.empty;
    x

  type buffers = {
    metrics : Metrics.t;
    lock : Mutex.t;
    writers : writer stack;
    readers : reader stack;
  }

  let create ~metrics =
    {
      metrics;
      lock = Mutex.create ();
      writers = stack { buf = Bytes.empty; len = 0 };
      readers = stack { data = Bytes.empty; limit = 0; pos = 0 };
    }

  let acquire_writer p =
    Mutex.lock p.lock;
    let w =
      if p.writers.n > 0 then begin
        Metrics.add p.metrics Pool_hits 1;
        pop p.writers
      end
      else begin
        Metrics.add p.metrics Pool_misses 1;
        create_writer ~initial_capacity:512 ()
      end
    in
    Mutex.unlock p.lock;
    clear w;
    w

  let release_writer p w =
    Mutex.lock p.lock;
    push p.writers w;
    Mutex.unlock p.lock

  (* [with_writer p f] runs [f] on a pooled writer and releases it even
     on exceptions.  The writer's storage MUST NOT escape [f]: snapshot
     anything long-lived with [sub]/[contents] first.  A match on both
     exits, not [Fun.protect], so the bracket itself allocates nothing. *)
  let with_writer p f =
    let w = acquire_writer p in
    match f w with
    | x ->
        release_writer p w;
        x
    | exception e ->
        release_writer p w;
        raise e

  let acquire_reader p data ~off ~len =
    Mutex.lock p.lock;
    let r =
      if p.readers.n > 0 then begin
        Metrics.add p.metrics Pool_hits 1;
        pop p.readers
      end
      else begin
        Metrics.add p.metrics Pool_misses 1;
        { data = Bytes.empty; limit = 0; pos = 0 }
      end
    in
    Mutex.unlock p.lock;
    reset_slice r data ~off ~len;
    r

  let release_reader p r =
    (* drop the data reference so the pool never pins a large frame *)
    reset_slice r Bytes.empty ~off:0 ~len:0;
    Mutex.lock p.lock;
    push p.readers r;
    Mutex.unlock p.lock
end
