open Rmi_wire
module Metrics = Rmi_stats.Metrics

(* wire codes *)
let k_null = 0
let k_bool = 1
let k_int = 2
let k_double = 3
let k_string = 4
let k_object_desc = 5 (* full class descriptor follows *)
let k_object_ref = 6 (* back-reference to an already-sent descriptor *)
let k_darr = 7
let k_iarr = 8
let k_rarr = 9
let k_handle = 10

(* as in [Codec], the contexts tally their counters in plain ints and
   publish them when [write] or [read] returns or raises *)
type wctx = {
  wmeta : Class_meta.t;
  wmetrics : Metrics.t;
  mutable type_bytes : int;  (* tallies *)
  mutable ser_invocations : int;
  wcycle : Handle_table.t;  (* object identity -> handle *)
  sent_descs : int array;  (* class id -> descriptor index, -1 = unsent *)
  mutable nsent : int;
}

type rctx = {
  rmeta : Class_meta.t;
  rmetrics : Metrics.t;
  mutable lookups : int;  (* tallies *)
  mutable allocs : int;
  mutable new_bytes : int;
  mutable handles : Value.t list;  (* reversed *)
  mutable nhandles : int;
  mutable descs : Class_meta.cls list;  (* reversed *)
  mutable ndescs : int;
}

let make_wctx wmeta wmetrics =
  {
    wmeta;
    wmetrics;
    type_bytes = 0;
    ser_invocations = 0;
    wcycle = Handle_table.create ~metrics:wmetrics ();
    sent_descs = Array.make (Class_meta.num_classes wmeta) (-1);
    nsent = 0;
  }

let make_rctx rmeta rmetrics =
  {
    rmeta;
    rmetrics;
    lookups = 0;
    allocs = 0;
    new_bytes = 0;
    handles = [];
    nhandles = 0;
    descs = [];
    ndescs = 0;
  }

let count_lookup rctx = rctx.lookups <- rctx.lookups + 1

let add_handle rctx v =
  rctx.handles <- v :: rctx.handles;
  rctx.nhandles <- rctx.nhandles + 1;
  count_lookup rctx

let handle rctx idx =
  count_lookup rctx;
  if idx < 0 || idx >= rctx.nhandles then
    raise (Msgbuf.Underflow (Printf.sprintf "bad handle %d" idx));
  List.nth rctx.handles (rctx.nhandles - 1 - idx)

let charge_type_bytes wctx n = wctx.type_bytes <- wctx.type_bytes + n

(* writes the full java-ish class descriptor: name plus field names —
   this verbosity is exactly what KaRMI/Manta removed *)
let write_class_info wctx w cls =
  let before = Msgbuf.length w in
  let c = Class_meta.cls wctx.wmeta cls in
  let idx = wctx.sent_descs.(cls) in
  if idx >= 0 then begin
    Msgbuf.write_u8 w k_object_ref;
    Msgbuf.write_uvarint w idx
  end
  else begin
    wctx.sent_descs.(cls) <- wctx.nsent;
    wctx.nsent <- wctx.nsent + 1;
    Msgbuf.write_u8 w k_object_desc;
    Msgbuf.write_string w c.Class_meta.cname;
    Msgbuf.write_uvarint w (Array.length c.Class_meta.fields);
    Array.iter
      (fun (f : Class_meta.field) -> Msgbuf.write_string w f.Class_meta.fname)
      c.Class_meta.fields
  end;
  charge_type_bytes wctx (Msgbuf.length w - before)

(* the handle if already sent, -1 otherwise (a first visit registers
   the node) *)
let check_seen wctx (v : Value.t) =
  match v with
  | Value.Obj o -> Handle_table.find_or_add_tallied wctx.wcycle o.oid
  | Value.Darr a -> Handle_table.find_or_add_tallied wctx.wcycle a.did
  | Value.Iarr a -> Handle_table.find_or_add_tallied wctx.wcycle a.iid
  | Value.Rarr a -> Handle_table.find_or_add_tallied wctx.wcycle a.rid
  | Value.Str _ | Value.Null | Value.Bool _ | Value.Int _ | Value.Double _ -> -1

let rec write_in wctx w (v : Value.t) =
  let seen_or body =
    let h = check_seen wctx v in
    if h >= 0 then begin
      Msgbuf.write_u8 w k_handle;
      Msgbuf.write_uvarint w h
    end
    else begin
      wctx.ser_invocations <- wctx.ser_invocations + 1;
      body ()
    end
  in
  match v with
  | Value.Null -> Msgbuf.write_u8 w k_null
  | Value.Bool b ->
      Msgbuf.write_u8 w k_bool;
      Msgbuf.write_bool w b
  | Value.Int i ->
      Msgbuf.write_u8 w k_int;
      Msgbuf.write_varint w i
  | Value.Double f ->
      Msgbuf.write_u8 w k_double;
      Msgbuf.write_double w f
  | Value.Str s ->
      Msgbuf.write_u8 w k_string;
      Msgbuf.write_string w s
  | Value.Obj o ->
      seen_or (fun () ->
          (* introspection: locate the class, walk its field table *)
          write_class_info wctx w o.cls;
          Array.iter (write_in wctx w) o.fields)
  | Value.Darr a ->
      seen_or (fun () ->
          Msgbuf.write_u8 w k_darr;
          Msgbuf.write_uvarint w (Array.length a.d);
          Msgbuf.write_double_slice w a.d 0 (Array.length a.d))
  | Value.Iarr a ->
      seen_or (fun () ->
          Msgbuf.write_u8 w k_iarr;
          Msgbuf.write_uvarint w (Array.length a.ia);
          Msgbuf.write_int_slice w a.ia 0 (Array.length a.ia))
  | Value.Rarr a ->
      seen_or (fun () ->
          Msgbuf.write_u8 w k_rarr;
          let before = Msgbuf.length w in
          Class_meta.write_ty wctx.wmeta w a.relem;
          charge_type_bytes wctx (Msgbuf.length w - before);
          Msgbuf.write_uvarint w (Array.length a.ra);
          Array.iter (write_in wctx w) a.ra)

(* shallow per-node accounting: children are charged when visited *)
let charge_alloc rctx (v : Value.t) =
  rctx.allocs <- rctx.allocs + 1;
  rctx.new_bytes <-
    rctx.new_bytes
    +
    match v with
    | Value.Str s -> 16 + String.length s
    | Value.Obj o -> 16 + (8 * Array.length o.fields)
    | Value.Darr a -> 16 + (8 * Array.length a.d)
    | Value.Iarr a -> 16 + (8 * Array.length a.ia)
    | Value.Rarr a -> 16 + (8 * Array.length a.ra)
    | Value.Null | Value.Bool _ | Value.Int _ | Value.Double _ -> 0

let checked_len r n ~unit what =
  (* division avoids overflow for hostile 63-bit lengths *)
  if n < 0 || n > Msgbuf.remaining r / unit then
    raise (Msgbuf.Underflow (Printf.sprintf "%s: bad length %d" what n));
  n

let rec read_in rctx r : Value.t =
  match Msgbuf.read_u8 r with
  | c when c = k_null -> Value.Null
  | c when c = k_bool -> Value.Bool (Msgbuf.read_bool r)
  | c when c = k_int -> Value.Int (Msgbuf.read_varint r)
  | c when c = k_double -> Value.Double (Msgbuf.read_double r)
  | c when c = k_string ->
      let v = Value.Str (Msgbuf.read_string r) in
      charge_alloc rctx v;
      v
  | c when c = k_handle -> handle rctx (Msgbuf.read_uvarint r)
  | c when c = k_object_desc || c = k_object_ref ->
      (* put the code back conceptually: re-dispatch into read_class *)
      let saved = c in
      let cls =
        if saved = k_object_ref then begin
          let idx = Msgbuf.read_uvarint r in
          if idx < 0 || idx >= rctx.ndescs then
            raise (Msgbuf.Underflow "bad class descriptor ref");
          List.nth rctx.descs (rctx.ndescs - 1 - idx)
        end
        else begin
          let name = Msgbuf.read_string r in
          let nfields = Msgbuf.read_uvarint r in
          for _ = 1 to nfields do
            ignore (Msgbuf.read_string r)
          done;
          match Class_meta.find rctx.rmeta name with
          | Some cmeta ->
              rctx.descs <- cmeta :: rctx.descs;
              rctx.ndescs <- rctx.ndescs + 1;
              cmeta
          | None -> raise (Msgbuf.Underflow "unknown class")
        end
      in
      let o =
        Value.new_obj ~cls:cls.Class_meta.cid
          ~nfields:(Array.length cls.Class_meta.fields)
      in
      charge_alloc rctx (Value.Obj o);
      add_handle rctx (Value.Obj o);
      for i = 0 to Array.length o.fields - 1 do
        o.fields.(i) <- read_in rctx r
      done;
      Value.Obj o
  | c when c = k_darr ->
      let n = checked_len r (Msgbuf.read_uvarint r) ~unit:8 "double[]" in
      let a = Value.new_darr n in
      charge_alloc rctx (Value.Darr a);
      add_handle rctx (Value.Darr a);
      Msgbuf.read_double_slice r a.d 0 n;
      Value.Darr a
  | c when c = k_iarr ->
      let n = checked_len r (Msgbuf.read_uvarint r) ~unit:1 "int[]" in
      let a = Value.new_iarr n in
      charge_alloc rctx (Value.Iarr a);
      add_handle rctx (Value.Iarr a);
      Msgbuf.read_int_slice r a.ia 0 n;
      Value.Iarr a
  | c when c = k_rarr ->
      let relem = Class_meta.read_ty rctx.rmeta r in
      let n = checked_len r (Msgbuf.read_uvarint r) ~unit:1 "object[]" in
      let a = Value.new_rarr relem n in
      charge_alloc rctx (Value.Rarr a);
      add_handle rctx (Value.Rarr a);
      for i = 0 to n - 1 do
        a.ra.(i) <- read_in rctx r
      done;
      Value.Rarr a
  | c -> raise (Msgbuf.Underflow (Printf.sprintf "bad introspect code %d" c))

let publish_w wctx =
  Metrics.add wctx.wmetrics Type_bytes wctx.type_bytes;
  Metrics.add wctx.wmetrics Ser_invocations wctx.ser_invocations;
  wctx.type_bytes <- 0;
  wctx.ser_invocations <- 0;
  Handle_table.publish wctx.wcycle

let publish_r rctx =
  let m = rctx.rmetrics in
  Metrics.add m Cycle_lookups rctx.lookups;
  Metrics.add m Allocs rctx.allocs;
  Metrics.add m New_bytes rctx.new_bytes;
  rctx.lookups <- 0;
  rctx.allocs <- 0;
  rctx.new_bytes <- 0

let write wctx w v =
  match write_in wctx w v with
  | () -> publish_w wctx
  | exception e ->
      publish_w wctx;
      raise e

let read rctx r =
  match read_in rctx r with
  | v ->
      publish_r rctx;
      v
  | exception e ->
      publish_r rctx;
      raise e
