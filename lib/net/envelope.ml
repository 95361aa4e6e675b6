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
   the payload; [frame_around] then right-justifies the real (minimal)
   header against the payload inside the gap. *)
let gap = 48

let encode ~kind ~src ~epoch ~lseq ~payload () =
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

(* [frame_around w ~payload_off] frames the payload already sitting in
   [w.(payload_off..length w)] without copying it: the header is
   back-filled into the [gap] bytes reserved just before [payload_off],
   right-justified so it abuts the payload, and the frame's start
   offset is returned.  All varints are minimal, so the resulting bytes
   [start..length w) are identical to what [encode] produces. *)
let frame_around w ~kind ~src ~epoch ~lseq ~payload_off =
  let payload_len = Msgbuf.length w - payload_off in
  if payload_len < 0 then invalid_arg "Envelope.frame_around";
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
  if start < 0 then invalid_arg "Envelope.frame_around: gap too small";
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

let encode_around w ~kind ~src ?(epoch = 0) ~lseq ~payload_off () =
  frame_around w ~kind ~src ~epoch ~lseq ~payload_off

(* append a whole envelope around a bytes payload to a pooled writer:
   one blit instead of [encode]'s string round-trip plus snapshot *)
let encode_into w ~kind ~src ~epoch ~lseq ~payload () =
  let payload_off = Msgbuf.length w + gap in
  ignore (Msgbuf.reserve w gap : int);
  Msgbuf.write_bytes w payload 0 (Bytes.length payload);
  frame_around w ~kind ~src ~epoch ~lseq ~payload_off

(* The header parse reads each varint with two pure int functions, so
   it allocates nothing: where the varint ends, then its value.  Both
   agree with [Msgbuf.read_uvarint], which accepts at most 10 bytes and
   drops the bits past the 63rd. *)

(* the width of the uvarint at [buf.(off)], or 0 when it does not end
   within 10 bytes before [limit] *)
let rec uvarint_width_from buf off i limit =
  if i >= limit || i - off >= 10 then 0
  else if Char.code (Bytes.unsafe_get buf i) < 0x80 then i + 1 - off
  else uvarint_width_from buf off (i + 1) limit

let uvarint_width buf off limit = uvarint_width_from buf off off limit

(* the value of the [width]-byte uvarint at [buf.(off)] *)
let rec uvarint_value_from buf off k width acc =
  if k = width then acc
  else
    let b = Char.code (Bytes.unsafe_get buf (off + k)) land 0x7f in
    uvarint_value_from buf off (k + 1) width (acc lor (b lsl (7 * k)))

let uvarint_value buf off width = uvarint_value_from buf off 0 width 0

let parse frame ~off ~len ~garbled k a b =
  if off < 0 || len < 0 || off + len > Bytes.length frame then
    invalid_arg "Envelope.parse";
  let limit = off + len in
  if len < 2 || Char.code (Bytes.unsafe_get frame off) <> magic then garbled
  else
    let kc = Char.code (Bytes.unsafe_get frame (off + 1)) in
    let at_src = off + 2 in
    let w_src = uvarint_width frame at_src limit in
    let at_epoch = at_src + w_src in
    let w_epoch = uvarint_width frame at_epoch limit in
    let at_lseq = at_epoch + w_epoch in
    let w_lseq = uvarint_width frame at_lseq limit in
    let at_csum = at_lseq + w_lseq in
    let w_csum = uvarint_width frame at_csum limit in
    let at_plen = at_csum + w_csum in
    let w_plen = uvarint_width frame at_plen limit in
    let poff = at_plen + w_plen in
    if kc > 2 || w_src = 0 || w_epoch = 0 || w_lseq = 0 || w_csum = 0
       || w_plen = 0
    then garbled
    else
      let src = uvarint_value frame at_src w_src in
      let epoch = uvarint_value frame at_epoch w_epoch in
      let lseq = uvarint_value frame at_lseq w_lseq in
      let plen = uvarint_value frame at_plen w_plen in
      if plen < 0 || plen > limit - poff then garbled
      else if
        uvarint_value frame at_csum w_csum
        <> checksum_slice ~kc ~src ~epoch ~lseq frame poff plen
      then garbled
      else
        let kind = match kc with 0 -> Data | 1 -> Ack | _ -> Hb in
        k a b frame kind ~src ~epoch ~lseq ~off:poff ~len:plen

let header_slice () () _frame kind ~src ~epoch ~lseq ~off ~len =
  Some ({ kind; src; epoch; lseq }, (off, len))

let decode_slice frame ~off ~len =
  parse frame ~off ~len ~garbled:None header_slice () ()

let decode frame =
  match decode_slice frame ~off:0 ~len:(Bytes.length frame) with
  | None -> None
  | Some (t, (off, len)) -> Some (t, Bytes.sub frame off len)

(* heartbeat frames: lseq 0 = ping, lseq 1 = pong; empty payload *)
let hb_ping = 0
let hb_pong = 1
