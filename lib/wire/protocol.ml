(* [Reject] is the dispatch pool's admission-control answer (PR 6): the
   server's bounded request queue was full, the request was NOT
   executed, and the client should retry under its own deadline. *)
type kind = Request | Reply | Ack | Exn_reply | Reject

type header = {
  kind : kind;
  src : int;
  epoch : int;
  seq : int;
  target_obj : int;
  method_id : int;
  callsite : int;
  nargs : int;
  plan_ver : int;
}

(* code 4 is taken by [batch_code] below, so [Reject] gets 5 *)
let kind_code = function
  | Request -> 0
  | Reply -> 1
  | Ack -> 2
  | Exn_reply -> 3
  | Reject -> 5

let kind_of_code = function
  | 0 -> Request
  | 1 -> Reply
  | 2 -> Ack
  | 3 -> Exn_reply
  | 5 -> Reject
  | n -> raise (Msgbuf.Underflow (Printf.sprintf "bad message kind %d" n))

let write_fields w ~kind ~src ~epoch ~seq ~target_obj ~method_id ~callsite
    ~nargs ~plan_ver =
  Msgbuf.write_u8 w (kind_code kind);
  Msgbuf.write_uvarint w src;
  Msgbuf.write_uvarint w epoch;
  Msgbuf.write_uvarint w seq;
  Msgbuf.write_varint w target_obj;
  Msgbuf.write_varint w method_id;
  Msgbuf.write_varint w callsite;
  Msgbuf.write_uvarint w nargs;
  Msgbuf.write_uvarint w plan_ver

let write_header w h =
  write_fields w ~kind:h.kind ~src:h.src ~epoch:h.epoch ~seq:h.seq
    ~target_obj:h.target_obj ~method_id:h.method_id ~callsite:h.callsite
    ~nargs:h.nargs ~plan_ver:h.plan_ver

let read_kind r = kind_of_code (Msgbuf.read_u8 r)

let read_after_kind r kind =
  let src = Msgbuf.read_uvarint r in
  let epoch = Msgbuf.read_uvarint r in
  let seq = Msgbuf.read_uvarint r in
  let target_obj = Msgbuf.read_varint r in
  let method_id = Msgbuf.read_varint r in
  let callsite = Msgbuf.read_varint r in
  let nargs = Msgbuf.read_uvarint r in
  let plan_ver = Msgbuf.read_uvarint r in
  { kind; src; epoch; seq; target_obj; method_id; callsite; nargs; plan_ver }

let read_header r = read_after_kind r (read_kind r)

(* the record-free readers consume exactly the bytes, and raise on
   exactly the inputs, that [read_after_kind] does *)
let read_seq r =
  ignore (Msgbuf.read_uvarint r : int);
  ignore (Msgbuf.read_uvarint r : int);
  Msgbuf.read_uvarint r

let read_plan_ver r =
  ignore (Msgbuf.read_varint r : int);
  ignore (Msgbuf.read_varint r : int);
  ignore (Msgbuf.read_varint r : int);
  ignore (Msgbuf.read_uvarint r : int);
  Msgbuf.read_uvarint r

let pp_kind ppf k =
  Format.pp_print_string ppf
    (match k with
    | Request -> "request"
    | Reply -> "reply"
    | Ack -> "ack"
    | Exn_reply -> "exn-reply"
    | Reject -> "reject")

let pp_header ppf h =
  Format.fprintf ppf "{%a src=%d%s seq=%d obj=%d meth=%d site=%d nargs=%d%s}"
    pp_kind h.kind h.src
    (if h.epoch = 0 then "" else Printf.sprintf " epoch=%d" h.epoch)
    h.seq h.target_obj h.method_id h.callsite h.nargs
    (if h.plan_ver = 0 then "" else Printf.sprintf " plan_ver=%d" h.plan_ver)

let header_size h =
  let w = Msgbuf.create_writer ~initial_capacity:32 () in
  write_header w h;
  Msgbuf.length w

(* ------------------------------------------------------------------ *)
(* batch frames                                                        *)
(* ------------------------------------------------------------------ *)

(* the batch tag occupies the code point just above the header kinds,
   so the first byte of any frame says whether it is a single message
   (0-3) or a coalesced envelope (4) *)
let batch_code = 4

let is_batch_at frame ~off ~len =
  len > 0 && Char.code (Bytes.get frame off) = batch_code

(* [encode_batch_into w msgs] appends the batch frame to [w] — a pooled
   (and possibly gap-reserved) writer — blitting each message in place.
   The per-message length prefix plus blit produces exactly the bytes
   of [encode_batch]'s [write_string w (Bytes.to_string m)], without the
   intermediate string copy. *)
let encode_batch_into w msgs =
  Msgbuf.write_u8 w batch_code;
  Msgbuf.write_uvarint w (List.length msgs);
  List.iter
    (fun m ->
      let n = Bytes.length m in
      Msgbuf.write_uvarint w n;
      Msgbuf.write_bytes w m 0 n)
    msgs

let encode_batch msgs =
  let total = List.fold_left (fun acc m -> acc + Bytes.length m) 0 msgs in
  let w = Msgbuf.create_writer ~initial_capacity:(total + 16) () in
  Msgbuf.write_u8 w batch_code;
  Msgbuf.write_uvarint w (List.length msgs);
  List.iter (fun m -> Msgbuf.write_string w (Bytes.to_string m)) msgs;
  Msgbuf.contents w

(* [decode_batch_slice frame ~off ~len] splits the batch into
   [(off, len)] slices of [frame] without copying the sub-messages. *)
let decode_batch_slice frame ~off ~len =
  match
    let r = Msgbuf.reader_of_bytes ~off ~len frame in
    if Msgbuf.read_u8 r <> batch_code then None
    else
      let n = Msgbuf.read_uvarint r in
      let rec go acc k =
        if k = 0 then Some (List.rev acc)
        else begin
          let mlen = Msgbuf.read_uvarint r in
          let moff = Msgbuf.skip r mlen "batch sub-frame" in
          go ((moff, mlen) :: acc) (k - 1)
        end
      in
      go [] n
  with
  | exception Msgbuf.Underflow _ -> None
  | v -> v
