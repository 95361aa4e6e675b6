open Rmi_wire

type kind = Data | Ack | Hb

type t = { kind : kind; src : int; epoch : int; lseq : int }

let magic = 0xC7
let kind_code = function Data -> 0 | Ack -> 1 | Hb -> 2

(* FNV-1a over the header fields and a payload slice, folded to 30 bits
   so the uvarint encoding stays short.

   The accumulator is a native int, wrapping mod 2^63 instead of 2^64.
   Only the low 30 bits survive the fold, and both steps of the round
   carry information upward only: xor is bitwise, and bit [k] of a
   product depends only on bits [0..k] of its factors.  So every low
   bit of the mod-2^63 state equals the same bit of the mod-2^64
   state, provided the basis is reduced mod 2^63 as well (the prime,
   2^40 + 0x1b3, already fits).  One round is then one xor and one
   multiply, with no boxed [Int64] and no closure over the state, and
   the fold is bit-identical to the 64-bit FNV-1a the frames have
   always carried. *)
let fnv_basis = 0x4bf29ce484222325 (* 0xcbf29ce484222325 mod 2^63 *)
let fnv_prime = 0x100000001b3

let[@inline] mix h b = (h lxor (b land 0xff)) * fnv_prime

let checksum_slice ~kc ~src ~epoch ~lseq buf off len =
  let h = ref (mix fnv_basis kc) in
  for i = 0 to 7 do
    h := mix !h (src asr (i * 8))
  done;
  for i = 0 to 7 do
    h := mix !h (epoch asr (i * 8))
  done;
  for i = 0 to 7 do
    h := mix !h (lseq asr (i * 8))
  done;
  for i = off to off + len - 1 do
    h := mix !h (Char.code (Bytes.unsafe_get buf i))
  done;
  !h land 0x3FFFFFFF

let checksum ~kc ~src ~epoch ~lseq payload =
  checksum_slice ~kc ~src ~epoch ~lseq payload 0 (Bytes.length payload)

(* Worst-case encoded header: magic + kind byte + three 10-byte varints
   (src/epoch/lseq) + 5-byte checksum (30-bit) + 10-byte payload
   length.  Writers on the zero-copy path reserve this much in front of
   the payload; [encode_around] then right-justifies the real (minimal)
   header against the payload inside the gap. *)
let gap = 48

let encode ~kind ~src ?(epoch = 0) ~lseq ~payload () =
  let w = Msgbuf.create_writer ~initial_capacity:(Bytes.length payload + 16) () in
  let kc = kind_code kind in
  Msgbuf.write_u8 w magic;
  Msgbuf.write_u8 w kc;
  Msgbuf.write_uvarint w src;
  Msgbuf.write_uvarint w epoch;
  Msgbuf.write_uvarint w lseq;
  Msgbuf.write_uvarint w (checksum ~kc ~src ~epoch ~lseq payload);
  Msgbuf.write_string w (Bytes.to_string payload);
  Msgbuf.contents w

(* [encode_around w ~payload_off] frames the payload already sitting in
   [w.(payload_off..length w)] without copying it: the header is
   back-filled into the [gap] bytes reserved just before [payload_off],
   right-justified so it abuts the payload, and the frame's start
   offset is returned.  All varints are minimal, so the resulting bytes
   [start..length w) are identical to what [encode] produces. *)
let encode_around w ~kind ~src ?(epoch = 0) ~lseq ~payload_off () =
  let payload_len = Msgbuf.length w - payload_off in
  if payload_len < 0 then invalid_arg "Envelope.encode_around";
  let kc = kind_code kind in
  let csum =
    checksum_slice ~kc ~src ~epoch ~lseq (Msgbuf.unsafe_storage w) payload_off
      payload_len
  in
  let hsize =
    2 + Msgbuf.uvarint_size src + Msgbuf.uvarint_size epoch
    + Msgbuf.uvarint_size lseq + Msgbuf.uvarint_size csum
    + Msgbuf.uvarint_size payload_len
  in
  let start = payload_off - hsize in
  if start < 0 then invalid_arg "Envelope.encode_around: gap too small";
  Msgbuf.patch_u8 w ~at:start magic;
  Msgbuf.patch_u8 w ~at:(start + 1) kc;
  let at = ref (start + 2) in
  at := !at + Msgbuf.patch_uvarint w ~at:!at src;
  at := !at + Msgbuf.patch_uvarint w ~at:!at epoch;
  at := !at + Msgbuf.patch_uvarint w ~at:!at lseq;
  at := !at + Msgbuf.patch_uvarint w ~at:!at csum;
  at := !at + Msgbuf.patch_uvarint w ~at:!at payload_len;
  assert (!at = payload_off);
  start

(* append a whole envelope around a bytes payload to a pooled writer:
   one blit instead of [encode]'s string round-trip plus snapshot *)
let encode_into w ~kind ~src ?(epoch = 0) ~lseq ~payload () =
  let payload_off = Msgbuf.length w + gap in
  ignore (Msgbuf.reserve w gap : int);
  Msgbuf.write_bytes w payload 0 (Bytes.length payload);
  encode_around w ~kind ~src ~epoch ~lseq ~payload_off ()

(* [decode_slice frame ~off ~len] validates the envelope and returns
   the payload as an [(off, len)] slice of [frame], copy-free. *)
let decode_slice frame ~off ~len =
  match
    let r = Msgbuf.reader_of_bytes ~off ~len frame in
    if Msgbuf.read_u8 r <> magic then None
    else
      let kc = Msgbuf.read_u8 r in
      let kind =
        match kc with 0 -> Some Data | 1 -> Some Ack | 2 -> Some Hb | _ -> None
      in
      match kind with
      | None -> None
      | Some kind ->
          let src = Msgbuf.read_uvarint r in
          let epoch = Msgbuf.read_uvarint r in
          let lseq = Msgbuf.read_uvarint r in
          let csum = Msgbuf.read_uvarint r in
          let plen = Msgbuf.read_uvarint r in
          let poff = Msgbuf.skip r plen "envelope payload" in
          if csum = checksum_slice ~kc ~src ~epoch ~lseq frame poff plen then
            Some ({ kind; src; epoch; lseq }, (poff, plen))
          else None
  with
  | exception Msgbuf.Underflow _ -> None
  | v -> v

let decode frame =
  match decode_slice frame ~off:0 ~len:(Bytes.length frame) with
  | None -> None
  | Some (t, (off, len)) -> Some (t, Bytes.sub frame off len)

(* heartbeat frames: lseq 0 = ping, lseq 1 = pong; empty payload *)
let hb_ping = 0
let hb_pong = 1

(* shared zeroed padding grown on demand, so overhead probes stop
   allocating a fresh synthetic payload per call (and stop hashing
   whatever garbage [Bytes.create] happened to return) *)
let pad = ref Bytes.empty

let overhead ~src ~lseq ~payload_len =
  if Bytes.length !pad < payload_len then pad := Bytes.make payload_len '\000';
  let kc = kind_code Data in
  let csum = checksum_slice ~kc ~src ~epoch:0 ~lseq !pad 0 payload_len in
  2 + Msgbuf.uvarint_size src + Msgbuf.uvarint_size 0
  + Msgbuf.uvarint_size lseq + Msgbuf.uvarint_size csum
  + Msgbuf.uvarint_size payload_len
