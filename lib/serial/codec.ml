open Rmi_wire
module Metrics = Rmi_stats.Metrics
module Plan = Rmi_core.Plan

exception Type_confusion of string

(* Each context tallies its paper counters in plain ints (as do its
   cycle table and arena) and publishes them to the shared metrics when
   the outermost public call returns or raises: the closures
   [compile_write]/[compile_read] return, and [write_dyn], [read_dyn],
   [write_step] and [read_step].  Inside, only the [_in] functions and
   the inner compiled closures run, and they never publish. *)
type wctx = {
  wmeta : Class_meta.t;
  wmetrics : Metrics.t;
  mutable type_bytes : int;  (* tallies *)
  mutable ser_invocations : int;
  wcycle : Handle_table.t option;  (* object identity -> wire handle *)
  wdefs : Plan.step array;  (* S_ref definitions *)
}

type rctx = {
  rmeta : Class_meta.t;
  rmetrics : Metrics.t;
  mutable lookups : int;  (* tallies *)
  mutable allocs : int;
  mutable new_bytes : int;
  mutable reused : int;
  rcycle : bool;
  rdefs : Plan.step array;
  mutable arena : Arena.t option;
      (* backing store for decoded nodes; [None] = GC heap *)
  mutable handles : Value.t array;
  mutable nhandles : int;
}

let make_wctx ?(defs = [||]) wmeta wmetrics ~cycle =
  {
    wmeta;
    wmetrics;
    type_bytes = 0;
    ser_invocations = 0;
    wcycle = (if cycle then Some (Handle_table.create ~metrics:wmetrics ()) else None);
    wdefs = defs;
  }

(* An aborted write (Type_confusion mid-serialization) leaves objects
   registered in the cycle table that never reached the wire; a reused
   context would then emit dangling handles.  Resetting makes a writer
   context safe to reuse after the exception. *)
let reset_wctx wctx =
  match wctx.wcycle with
  | Some table -> Handle_table.reset table
  | None -> ()

let reset_rctx rctx = rctx.nhandles <- 0
let set_arena rctx arena = rctx.arena <- arena

let make_rctx ?(defs = [||]) ?arena rmeta rmetrics ~cycle =
  {
    rmeta;
    rmetrics;
    lookups = 0;
    allocs = 0;
    new_bytes = 0;
    reused = 0;
    rcycle = cycle;
    rdefs = defs;
    arena;
    handles = Array.make 16 Value.Null;
    nhandles = 0;
  }

let count_lookup rctx = rctx.lookups <- rctx.lookups + 1

let register_handle rctx v =
  if rctx.rcycle then begin
    if rctx.nhandles >= Array.length rctx.handles then begin
      let fresh = Array.make (2 * Array.length rctx.handles) Value.Null in
      Array.blit rctx.handles 0 fresh 0 rctx.nhandles;
      rctx.handles <- fresh
    end;
    rctx.handles.(rctx.nhandles) <- v;
    rctx.nhandles <- rctx.nhandles + 1;
    (* the deserializer pays hash/handle maintenance too *)
    count_lookup rctx
  end

let handle_value rctx idx =
  if idx < 0 || idx >= rctx.nhandles then
    raise (Msgbuf.Underflow (Printf.sprintf "bad handle %d" idx));
  count_lookup rctx;
  rctx.handles.(idx)

(* the bytes an allocated array or object of [n] slots is counted as *)
let slots_bytes n = 16 + (8 * n)

(* account a fresh allocation made by deserialization *)
let charge_alloc rctx v =
  rctx.allocs <- rctx.allocs + 1;
  rctx.new_bytes <-
    rctx.new_bytes
    +
    match v with
    | Value.Str s -> 16 + String.length s
    | Value.Obj o -> slots_bytes (Array.length o.fields)
    | Value.Darr a -> slots_bytes (Array.length a.d)
    | Value.Iarr a -> slots_bytes (Array.length a.ia)
    | Value.Rarr a -> slots_bytes (Array.length a.ra)
    | Value.Null | Value.Bool _ | Value.Int _ | Value.Double _ -> 0

(* Charge a node one of the allocators below just returned.  A node a
   reuse arena recycled is a reused object; any other — from the GC
   heap, from an arena standing in for it, or a reuse arena's miss — is
   an allocation.  An arena standing in for the heap substitutes the
   allocator, not the paper's accounting, so its effect is told only by
   the arena_* counters and by real [Gc.minor_words] in the [alloc]
   experiment. *)
let charge rctx v =
  match rctx.arena with
  | Some a when Arena.reuses a && Arena.hit a -> rctx.reused <- rctx.reused + 1
  | _ -> charge_alloc rctx v

(* an inline node enters the decoded graph in its one box: charged, and
   registered under the next handle *)
let enter rctx v =
  charge rctx v;
  register_handle rctx v

(* Node constructors for the decode path, each returning the node in
   its box: drawn (box and all) from the arena's recycling pools when
   one is attached, from the GC heap otherwise. *)
let alloc_obj rctx ~cls ~nfields =
  match rctx.arena with
  | Some a -> Arena.obj_box a ~cls ~nfields
  | None -> Value.Obj (Value.new_obj ~cls ~nfields)

let alloc_darr rctx n =
  match rctx.arena with
  | Some a -> Arena.darr_box a n
  | None -> Value.Darr (Value.new_darr n)

let alloc_iarr rctx n =
  match rctx.arena with
  | Some a -> Arena.iarr_box a n
  | None -> Value.Iarr (Value.new_iarr n)

let alloc_rarr rctx relem n =
  match rctx.arena with
  | Some a -> Arena.rarr_box a relem n
  | None -> Value.Rarr (Value.new_rarr relem n)

(* the record in a box one of the allocators above returned *)
let obj_in = function Value.Obj o -> o | _ -> assert false
let darr_in = function Value.Darr a -> a | _ -> assert false
let iarr_in = function Value.Iarr a -> a | _ -> assert false
let rarr_in = function Value.Rarr a -> a | _ -> assert false

(* Reject corrupt/hostile lengths before allocating: every element
   needs at least [unit] bytes of payload still in the buffer.  Plans
   can legitimately encode elements in zero bytes (statically-null
   element steps), in which case only an absolute cap applies. *)
let max_zero_width_len = 1 lsl 24

let checked_len r n ~unit what =
  let bad =
    n < 0
    ||
    if unit = 0 then n > max_zero_width_len
    else n > Msgbuf.remaining r / unit (* division avoids overflow *)
  in
  if bad then raise (Msgbuf.Underflow (Printf.sprintf "%s: bad length %d" what n));
  n

(* minimum wire bytes one element of this step occupies *)
let step_min_width : Plan.step -> int = function
  | Plan.S_null -> 0
  | Plan.S_ref _ -> 1 (* a marker byte at least *)
  | Plan.S_bool | Plan.S_string | Plan.S_obj _ | Plan.S_double_array
  | Plan.S_int_array | Plan.S_obj_array _ | Plan.S_flat_array | Plan.S_dyn
  | Plan.S_int ->
      1
  | Plan.S_double -> 8

(* The body of an inline double[] or int[] (after its tag or marker) —
   one body for the dynamic, interpreted and compiled readers. *)
let read_darr_body rctx r =
  let n = checked_len r (Msgbuf.read_uvarint r) ~unit:8 "double[]" in
  let v = alloc_darr rctx n in
  enter rctx v;
  Msgbuf.read_double_slice r (darr_in v).d 0 n;
  v

let read_iarr_body rctx r =
  let n = checked_len r (Msgbuf.read_uvarint r) ~unit:1 "int[]" in
  let v = alloc_iarr rctx n in
  enter rctx v;
  Msgbuf.read_int_slice r (iarr_in v).ia 0 n;
  v

let charge_tag wctx n = wctx.type_bytes <- wctx.type_bytes + n
let count_invocation wctx = wctx.ser_invocations <- wctx.ser_invocations + 1

(* serializer-side cycle check: the handle if already sent, -1 otherwise
   (a first visit registers the node) *)
let check_seen wctx (v : Value.t) =
  match wctx.wcycle with
  | None -> -1
  | Some table -> (
      match v with
      | Value.Obj o -> Handle_table.find_or_add_tallied table o.oid
      | Value.Darr a -> Handle_table.find_or_add_tallied table a.did
      | Value.Iarr a -> Handle_table.find_or_add_tallied table a.iid
      | Value.Rarr a -> Handle_table.find_or_add_tallied table a.rid
      | Value.Str _ | Value.Null | Value.Bool _ | Value.Int _ | Value.Double _ -> -1)

(* ------------------------------------------------------------------ *)
(* dynamic (class-specific) serializer                                 *)
(* ------------------------------------------------------------------ *)

(* a handle tag for an already-sent node; true when [v] was sent before *)
let write_dyn_handle wctx w v =
  let h = check_seen wctx v in
  if h >= 0 then begin
    charge_tag wctx (Typedesc.write_tag w Typedesc.Tag_handle);
    Msgbuf.write_uvarint w h
  end;
  h >= 0

let rec write_dyn_in wctx w (v : Value.t) =
  match v with
  | Value.Null -> charge_tag wctx (Typedesc.write_tag w Typedesc.Tag_null)
  | Value.Bool b ->
      charge_tag wctx (Typedesc.write_tag w Typedesc.Tag_bool);
      Msgbuf.write_bool w b
  | Value.Int i ->
      charge_tag wctx (Typedesc.write_tag w Typedesc.Tag_int);
      Msgbuf.write_varint w i
  | Value.Double f ->
      charge_tag wctx (Typedesc.write_tag w Typedesc.Tag_double);
      Msgbuf.write_double w f
  | Value.Str s ->
      charge_tag wctx (Typedesc.write_tag w Typedesc.Tag_string);
      Msgbuf.write_string w s
  | Value.Obj o ->
      if not (write_dyn_handle wctx w v) then begin
        (* one dynamic call into the per-class serializer *)
        count_invocation wctx;
        charge_tag wctx
          (Typedesc.write_tag w
             (Typedesc.Tag_object (Class_meta.wire_id wctx.wmeta o.cls)));
        for i = 0 to Array.length o.fields - 1 do
          write_dyn_in wctx w o.fields.(i)
        done
      end
  | Value.Darr a ->
      if not (write_dyn_handle wctx w v) then begin
        count_invocation wctx;
        charge_tag wctx (Typedesc.write_tag w Typedesc.Tag_double_array);
        Msgbuf.write_uvarint w (Array.length a.d);
        Msgbuf.write_double_slice w a.d 0 (Array.length a.d)
      end
  | Value.Iarr a ->
      if not (write_dyn_handle wctx w v) then begin
        count_invocation wctx;
        charge_tag wctx (Typedesc.write_tag w Typedesc.Tag_int_array);
        Msgbuf.write_uvarint w (Array.length a.ia);
        Msgbuf.write_int_slice w a.ia 0 (Array.length a.ia)
      end
  | Value.Rarr a ->
      if not (write_dyn_handle wctx w v) then begin
        count_invocation wctx;
        let before = Msgbuf.length w in
        ignore (Typedesc.write_tag w (Typedesc.Tag_obj_array 0));
        Class_meta.write_ty wctx.wmeta w a.relem;
        charge_tag wctx (Msgbuf.length w - before);
        Msgbuf.write_uvarint w (Array.length a.ra);
        for i = 0 to Array.length a.ra - 1 do
          write_dyn_in wctx w a.ra.(i)
        done
      end

let rec read_dyn_in rctx r : Value.t =
  match Typedesc.read_tag r with
  | Typedesc.Tag_null -> Value.Null
  | Typedesc.Tag_bool -> Value.Bool (Msgbuf.read_bool r)
  | Typedesc.Tag_int -> Value.Int (Msgbuf.read_varint r)
  | Typedesc.Tag_double -> Value.Double (Msgbuf.read_double r)
  | Typedesc.Tag_string ->
      let v = Value.Str (Msgbuf.read_string r) in
      charge_alloc rctx v;
      v
  | Typedesc.Tag_handle -> handle_value rctx (Msgbuf.read_uvarint r)
  | Typedesc.Tag_object wire_id ->
      let cls = (Class_meta.of_wire_id rctx.rmeta wire_id).Class_meta.cid in
      let nfields =
        Array.length (Class_meta.cls rctx.rmeta cls).Class_meta.fields
      in
      let v = alloc_obj rctx ~cls ~nfields in
      let o = obj_in v in
      enter rctx v;
      for i = 0 to nfields - 1 do
        o.fields.(i) <- read_dyn_in rctx r
      done;
      v
  | Typedesc.Tag_double_array -> read_darr_body rctx r
  | Typedesc.Tag_int_array -> read_iarr_body rctx r
  | Typedesc.Tag_obj_array _ ->
      let relem = Class_meta.read_ty rctx.rmeta r in
      let n = checked_len r (Msgbuf.read_uvarint r) ~unit:1 "object[]" in
      let v = alloc_rarr rctx relem n in
      let a = rarr_in v in
      enter rctx v;
      for i = 0 to n - 1 do
        a.ra.(i) <- read_dyn_in rctx r
      done;
      v

(* ------------------------------------------------------------------ *)
(* plan-driven (call-site specific) serializer                         *)
(* ------------------------------------------------------------------ *)

(* reference markers for inlined steps: no type information, just
   presence — and a handle when the cycle table is active *)
let m_null = 0
let m_inline = 1
let m_handle = 2

let confusion what v =
  raise
    (Type_confusion
       (Printf.sprintf "%s: got %s" what
          (match v with
          | Value.Null -> "null"
          | Value.Bool _ -> "bool"
          | Value.Int _ -> "int"
          | Value.Double _ -> "double"
          | Value.Str _ -> "string"
          | Value.Obj o -> Printf.sprintf "object(cls %d)" o.cls
          | Value.Darr _ -> "double[]"
          | Value.Iarr _ -> "int[]"
          | Value.Rarr _ -> "object[]")))

(* write the 0/1/2 marker; returns true when the body must follow *)
let write_ref_marker wctx w v =
  match v with
  | Value.Null ->
      Msgbuf.write_u8 w m_null;
      false
  | _ ->
      let h = check_seen wctx v in
      if h >= 0 then begin
        Msgbuf.write_u8 w m_handle;
        Msgbuf.write_uvarint w h;
        false
      end
      else begin
        Msgbuf.write_u8 w m_inline;
        true
      end

(* Struct-of-arrays encoding for a rectangular array of scalar arrays:
   rows, cols, then one contiguous row-major payload — no per-row
   marker, length or handle.  The static promise is strict (every row a
   non-null scalar array of the same length); any violation raises
   [Type_confusion] so the plan deoptimizes through the widen
   machinery, exactly like a class-shape violation on [S_obj]. *)
let write_flat w (a : Value.rarr) =
  let rows = Array.length a.Value.ra in
  Msgbuf.write_uvarint w rows;
  let cols =
    if rows = 0 then 0
    else
      match a.Value.ra.(0) with
      | Value.Darr r -> Array.length r.Value.d
      | v -> confusion "S_flat_array row" v
  in
  Msgbuf.write_uvarint w cols;
  for i = 0 to rows - 1 do
    match a.Value.ra.(i) with
    | Value.Darr r when Array.length r.Value.d = cols ->
        Msgbuf.write_double_slice w r.Value.d 0 cols
    | v -> confusion "S_flat_array row" v
  done

let rec write_step_in wctx w (step : Plan.step) (v : Value.t) =
  match (step, v) with
  | Plan.S_bool, Value.Bool b -> Msgbuf.write_bool w b
  | Plan.S_int, Value.Int i -> Msgbuf.write_varint w i
  | Plan.S_double, Value.Double f -> Msgbuf.write_double w f
  | Plan.S_string, Value.Null -> Msgbuf.write_u8 w m_null
  | Plan.S_string, Value.Str s ->
      Msgbuf.write_u8 w m_inline;
      Msgbuf.write_string w s
  | Plan.S_null, Value.Null -> ()
  | Plan.S_dyn, v -> write_dyn_in wctx w v
  | Plan.S_ref d, v -> write_step_in wctx w wctx.wdefs.(d) v
  | Plan.S_obj { cls; fields }, v ->
      if write_ref_marker wctx w v then begin
        match v with
        | Value.Obj o when o.cls = cls ->
            for i = 0 to Array.length fields - 1 do
              write_step_in wctx w fields.(i) o.fields.(i)
            done
        | _ -> confusion (Printf.sprintf "S_obj(cls %d)" cls) v
      end
  | Plan.S_double_array, v ->
      if write_ref_marker wctx w v then begin
        match v with
        | Value.Darr a ->
            Msgbuf.write_uvarint w (Array.length a.d);
            Msgbuf.write_double_slice w a.d 0 (Array.length a.d)
        | _ -> confusion "S_double_array" v
      end
  | Plan.S_int_array, v ->
      if write_ref_marker wctx w v then begin
        match v with
        | Value.Iarr a ->
            Msgbuf.write_uvarint w (Array.length a.ia);
            Msgbuf.write_int_slice w a.ia 0 (Array.length a.ia)
        | _ -> confusion "S_int_array" v
      end
  | Plan.S_obj_array { elem }, v ->
      if write_ref_marker wctx w v then begin
        match v with
        | Value.Rarr a ->
            Msgbuf.write_uvarint w (Array.length a.ra);
            for i = 0 to Array.length a.ra - 1 do
              write_step_in wctx w elem a.ra.(i)
            done
        | _ -> confusion "S_obj_array" v
      end
  | Plan.S_flat_array, v ->
      if write_ref_marker wctx w v then begin
        match v with
        | Value.Rarr a -> write_flat w a
        | _ -> confusion "S_flat_array" v
      end
  | (Plan.S_bool | Plan.S_int | Plan.S_double | Plan.S_null | Plan.S_string), v
    ->
      confusion "primitive step" v

(* best-effort static element type of a step, for fresh array allocation *)
let rec ty_of_step : Plan.step -> Jir.Types.ty = function
  | Plan.S_bool -> Jir.Types.Tbool
  | Plan.S_int -> Jir.Types.Tint
  | Plan.S_double -> Jir.Types.Tdouble
  | Plan.S_string -> Jir.Types.Tstring
  | Plan.S_obj { cls; _ } -> Jir.Types.Tobject cls
  | Plan.S_double_array -> Jir.Types.Tarray Jir.Types.Tdouble
  | Plan.S_int_array -> Jir.Types.Tarray Jir.Types.Tint
  | Plan.S_obj_array { elem } -> Jir.Types.Tarray (ty_of_step elem)
  | Plan.S_flat_array -> Jir.Types.Tarray (Jir.Types.Tarray Jir.Types.Tdouble)
  | Plan.S_null | Plan.S_dyn | Plan.S_ref _ -> Jir.Types.Tvoid

(* Decode a flat-encoded matrix: two varints, one shape check, then raw
   row-major slices — no per-row marker, tag or handle bookkeeping. *)
let read_flat rctx r : Value.t =
  let rows = checked_len r (Msgbuf.read_uvarint r) ~unit:0 "flat[][] rows" in
  let cols = checked_len r (Msgbuf.read_uvarint r) ~unit:0 "flat[][] cols" in
  (* one bounds check for the whole matrix *)
  if cols > 0 && rows > Msgbuf.remaining r / (cols * 8) then
    raise
      (Msgbuf.Underflow (Printf.sprintf "flat[][]: bad shape %dx%d" rows cols));
  let v = alloc_rarr rctx (Jir.Types.Tarray Jir.Types.Tdouble) rows in
  let a = rarr_in v in
  enter rctx v;
  (* the rows, drawn together and charged as [charge] charges each *)
  let reused =
    match rctx.arena with
    | Some ar ->
        let hits = Arena.darrs_into ar a.Value.ra cols in
        if Arena.reuses ar then hits else 0
    | None ->
        for i = 0 to rows - 1 do
          a.Value.ra.(i) <- Value.Darr (Value.new_darr cols)
        done;
        0
  in
  rctx.reused <- rctx.reused + reused;
  rctx.allocs <- rctx.allocs + (rows - reused);
  rctx.new_bytes <- rctx.new_bytes + ((rows - reused) * slots_bytes cols);
  for i = 0 to rows - 1 do
    Msgbuf.read_double_slice r (darr_in a.Value.ra.(i)).Value.d 0 cols
  done;
  v

(* a reference marker other than [m_inline]: null, or a back-reference
   to a node already decoded *)
let read_no_body rctx r m =
  if m = m_null then Value.Null
  else if m = m_handle then handle_value rctx (Msgbuf.read_uvarint r)
  else raise (Msgbuf.Underflow (Printf.sprintf "bad ref marker %d" m))

let rec read_step_in rctx r (step : Plan.step) : Value.t =
  match step with
  | Plan.S_bool -> Value.Bool (Msgbuf.read_bool r)
  | Plan.S_int -> Value.Int (Msgbuf.read_varint r)
  | Plan.S_double -> Value.Double (Msgbuf.read_double r)
  | Plan.S_string -> (
      match Msgbuf.read_u8 r with
      | 0 -> Value.Null
      | 1 ->
          let v = Value.Str (Msgbuf.read_string r) in
          charge_alloc rctx v;
          v
      | n -> raise (Msgbuf.Underflow (Printf.sprintf "bad string marker %d" n)))
  | Plan.S_null -> Value.Null
  | Plan.S_dyn -> read_dyn_in rctx r
  | Plan.S_ref d -> read_step_in rctx r rctx.rdefs.(d)
  | Plan.S_obj { cls; fields } ->
      let m = Msgbuf.read_u8 r in
      if m <> m_inline then read_no_body rctx r m
      else
        let nfields = Array.length fields in
        let v = alloc_obj rctx ~cls ~nfields in
        let o = obj_in v in
        enter rctx v;
        for i = 0 to nfields - 1 do
          o.fields.(i) <- read_step_in rctx r fields.(i)
        done;
        v
  | Plan.S_double_array ->
      let m = Msgbuf.read_u8 r in
      if m <> m_inline then read_no_body rctx r m else read_darr_body rctx r
  | Plan.S_int_array ->
      let m = Msgbuf.read_u8 r in
      if m <> m_inline then read_no_body rctx r m else read_iarr_body rctx r
  | Plan.S_obj_array { elem } ->
      let m = Msgbuf.read_u8 r in
      if m <> m_inline then read_no_body rctx r m
      else
        let n =
          checked_len r (Msgbuf.read_uvarint r) ~unit:(step_min_width elem)
            "object[]"
        in
        let v = alloc_rarr rctx (ty_of_step elem) n in
        let a = rarr_in v in
        enter rctx v;
        for i = 0 to n - 1 do
          a.ra.(i) <- read_step_in rctx r elem
        done;
        v
  | Plan.S_flat_array ->
      let m = Msgbuf.read_u8 r in
      if m <> m_inline then read_no_body rctx r m else read_flat rctx r

(* ------------------------------------------------------------------ *)
(* compiled plans: partial evaluation of the step tree into closures   *)
(* ------------------------------------------------------------------ *)

(* Each [compile_write]/[compile_read] call compiles a recursive
   definition once, into one named recursive function.  While its body
   is being compiled the definition is [Compiling cell]: an [S_ref] met
   then (the definition nested deeper inside its own body, or a mutual
   recursion) calls through [cell], which is set once the function
   exists.  Afterwards it is [Done f], and every [S_ref] to it is [f]
   itself.  The functions keep nothing of their own between or during
   calls, so a tree's non-tail self-reference can re-enter them. *)
type 'f def_state = Compiling of 'f ref | Done of 'f

let is_ref d : Plan.step -> bool = function
  | Plan.S_ref e -> e = d
  | _ -> false

(* An [S_obj] definition [d]'s fields: the head, each decoded by its
   own closure, and the spine, present when the last field is [d]
   itself.  [(spine, nhead)]. *)
let split_spine d fields =
  let nfields = Array.length fields in
  let spine = nfields > 0 && is_ref d fields.(nfields - 1) in
  (spine, if spine then nfields - 1 else nfields)

let rec compile_write_in cache ~defs (step : Plan.step) :
    wctx -> Msgbuf.writer -> Value.t -> unit =
  match step with
  | Plan.S_bool -> (
      fun _ w v ->
        match v with
        | Value.Bool b -> Msgbuf.write_bool w b
        | v -> confusion "S_bool" v)
  | Plan.S_int -> (
      fun _ w v ->
        match v with
        | Value.Int i -> Msgbuf.write_varint w i
        | v -> confusion "S_int" v)
  | Plan.S_double -> (
      fun _ w v ->
        match v with
        | Value.Double f -> Msgbuf.write_double w f
        | v -> confusion "S_double" v)
  | Plan.S_string -> (
      fun _ w v ->
        match v with
        | Value.Null -> Msgbuf.write_u8 w m_null
        | Value.Str s ->
            Msgbuf.write_u8 w m_inline;
            Msgbuf.write_string w s
        | v -> confusion "S_string" v)
  | Plan.S_null -> (
      fun _ _ v -> match v with Value.Null -> () | v -> confusion "S_null" v)
  | Plan.S_dyn -> fun wctx w v -> write_dyn_in wctx w v
  | Plan.S_ref d -> (
      match Hashtbl.find_opt cache d with
      | Some (Done f) -> f
      | Some (Compiling cell) -> fun wctx w v -> !cell wctx w v
      | None ->
          let cell = ref (fun _ _ _ -> assert false) in
          Hashtbl.replace cache d (Compiling cell);
          let f =
            match defs.(d) with
            | Plan.S_obj { cls; fields } ->
                compile_write_obj cache ~defs ~self:d cls fields
            | body -> compile_write_in cache ~defs body
          in
          cell := f;
          Hashtbl.replace cache d (Done f);
          f)
  | Plan.S_obj { cls; fields } ->
      compile_write_obj cache ~defs ~self:(-1) cls fields
  | Plan.S_double_array -> (
      fun wctx w v ->
        if write_ref_marker wctx w v then
          match v with
          | Value.Darr a ->
              Msgbuf.write_uvarint w (Array.length a.d);
              Msgbuf.write_double_slice w a.d 0 (Array.length a.d)
          | v -> confusion "S_double_array" v)
  | Plan.S_int_array -> (
      fun wctx w v ->
        if write_ref_marker wctx w v then
          match v with
          | Value.Iarr a ->
              Msgbuf.write_uvarint w (Array.length a.ia);
              Msgbuf.write_int_slice w a.ia 0 (Array.length a.ia)
          | v -> confusion "S_int_array" v)
  | Plan.S_obj_array { elem } ->
      let compiled_elem = compile_write_in cache ~defs elem in
      fun wctx w v ->
        if write_ref_marker wctx w v then begin
          match v with
          | Value.Rarr a ->
              Msgbuf.write_uvarint w (Array.length a.ra);
              for i = 0 to Array.length a.ra - 1 do
                compiled_elem wctx w a.ra.(i)
              done
          | v -> confusion "S_obj_array" v
        end
  | Plan.S_flat_array -> (
      fun wctx w v ->
        if write_ref_marker wctx w v then
          match v with
          | Value.Rarr a -> write_flat w a
          | v -> confusion "S_flat_array" v)

(* An object of class [cls], inside the body of definition [self] (-1
   outside any).  A head field that is [self] itself is [write], patched
   in once it exists; the spine is a self tail call, so a list is
   written in one frame. *)
and compile_write_obj cache ~defs ~self cls fields =
  let nfields = Array.length fields in
  let spine, nhead = split_spine self fields in
  let head =
    Array.init nhead (fun i ->
        if is_ref self fields.(i) then fun _ _ _ -> assert false
        else compile_write_in cache ~defs fields.(i))
  in
  let rec write wctx w v =
    if write_ref_marker wctx w v then
      match v with
      | Value.Obj o when o.cls = cls && Array.length o.fields = nfields ->
          for i = 0 to nhead - 1 do
            head.(i) wctx w o.fields.(i)
          done;
          if spine then write wctx w o.fields.(nhead)
      | v -> confusion (Printf.sprintf "S_obj(cls %d)" cls) v
  in
  for i = 0 to nhead - 1 do
    if is_ref self fields.(i) then head.(i) <- write
  done;
  write

(* publication: the tallies reach the metrics once the outermost call
   is over, however it ends *)
let publish_w wctx =
  Metrics.add wctx.wmetrics Type_bytes wctx.type_bytes;
  Metrics.add wctx.wmetrics Ser_invocations wctx.ser_invocations;
  wctx.type_bytes <- 0;
  wctx.ser_invocations <- 0;
  match wctx.wcycle with Some table -> Handle_table.publish table | None -> ()

let compile_write ~defs step =
  let write = compile_write_in (Hashtbl.create 4) ~defs step in
  fun wctx w v ->
    match write wctx w v with
    | () -> publish_w wctx
    | exception e ->
        publish_w wctx;
        raise e

let rec compile_read_in cache ~defs (step : Plan.step) :
    rctx -> Msgbuf.reader -> Value.t =
  match step with
  | Plan.S_bool -> fun _ r -> Value.Bool (Msgbuf.read_bool r)
  | Plan.S_int -> fun _ r -> Value.Int (Msgbuf.read_varint r)
  | Plan.S_double -> fun _ r -> Value.Double (Msgbuf.read_double r)
  | Plan.S_string -> (
      fun rctx r ->
        match Msgbuf.read_u8 r with
        | 0 -> Value.Null
        | 1 ->
            let v = Value.Str (Msgbuf.read_string r) in
            charge_alloc rctx v;
            v
        | n -> raise (Msgbuf.Underflow (Printf.sprintf "bad string marker %d" n)))
  | Plan.S_null -> fun _ _ -> Value.Null
  | Plan.S_dyn -> read_dyn_in
  | Plan.S_ref d -> (
      match Hashtbl.find_opt cache d with
      | Some (Done f) -> f
      | Some (Compiling cell) -> fun rctx r -> !cell rctx r
      | None ->
          let cell = ref (fun _ _ -> assert false) in
          Hashtbl.replace cache d (Compiling cell);
          let f =
            match defs.(d) with
            | Plan.S_obj { cls; fields } ->
                compile_read_obj cache ~defs ~self:d cls fields
            | body -> compile_read_in cache ~defs body
          in
          cell := f;
          Hashtbl.replace cache d (Done f);
          f)
  | Plan.S_obj { cls; fields } ->
      compile_read_obj cache ~defs ~self:(-1) cls fields
  | Plan.S_double_array ->
      fun rctx r ->
        let m = Msgbuf.read_u8 r in
        if m <> m_inline then read_no_body rctx r m else read_darr_body rctx r
  | Plan.S_int_array ->
      fun rctx r ->
        let m = Msgbuf.read_u8 r in
        if m <> m_inline then read_no_body rctx r m else read_iarr_body rctx r
  | Plan.S_obj_array { elem } ->
      let compiled_elem = compile_read_in cache ~defs elem in
      let elem_ty = ty_of_step elem in
      fun rctx r ->
        let m = Msgbuf.read_u8 r in
        if m <> m_inline then read_no_body rctx r m
        else
          let n =
            checked_len r (Msgbuf.read_uvarint r) ~unit:(step_min_width elem)
              "object[]"
          in
          let v = alloc_rarr rctx elem_ty n in
          let a = rarr_in v in
          enter rctx v;
          for i = 0 to n - 1 do
            a.ra.(i) <- compiled_elem rctx r
          done;
          v
  | Plan.S_flat_array ->
      fun rctx r ->
        let m = Msgbuf.read_u8 r in
        if m <> m_inline then read_no_body rctx r m else read_flat rctx r

(* An object of class [cls], inside the body of definition [self] (-1
   outside any).  [go] decodes an inline node as [read_step] does,
   registered before its head fields.  [link] stores the node into its
   parent's spine field, or makes it the root when it has no parent.
   With a spine, [go] then goes on by a self tail call to the node that
   field refers to, so a list is decoded in one frame.  The root and
   the parent are arguments, never kept in the closure. *)
and compile_read_obj cache ~defs ~self cls fields =
  let nfields = Array.length fields in
  let spine, nhead = split_spine self fields in
  let head =
    Array.init nhead (fun i ->
        if is_ref self fields.(i) then fun _ _ -> assert false
        else compile_read_in cache ~defs fields.(i))
  in
  let link parent root v =
    match parent with
    | Value.Obj p ->
        p.fields.(nhead) <- v;
        root
    | _ -> v
  in
  let rec go rctx r parent root =
    let m = Msgbuf.read_u8 r in
    if m <> m_inline then link parent root (read_no_body rctx r m)
    else
      let v = alloc_obj rctx ~cls ~nfields in
      let o = obj_in v in
      enter rctx v;
      for i = 0 to nhead - 1 do
        o.fields.(i) <- head.(i) rctx r
      done;
      let root = link parent root v in
      if spine then go rctx r v root else root
  in
  let read rctx r = go rctx r Value.Null Value.Null in
  for i = 0 to nhead - 1 do
    if is_ref self fields.(i) then head.(i) <- read
  done;
  read

let publish_r rctx =
  let m = rctx.rmetrics in
  Metrics.add m Cycle_lookups rctx.lookups;
  Metrics.add m Allocs rctx.allocs;
  Metrics.add m New_bytes rctx.new_bytes;
  Metrics.add m Reused_objs rctx.reused;
  rctx.lookups <- 0;
  rctx.allocs <- 0;
  rctx.new_bytes <- 0;
  rctx.reused <- 0;
  match rctx.arena with Some a -> Arena.publish a | None -> ()

let compile_read ~defs step =
  let read = compile_read_in (Hashtbl.create 4) ~defs step in
  fun rctx r ~cand:_ ->
    match read rctx r with
    | v ->
        publish_r rctx;
        v
    | exception e ->
        publish_r rctx;
        raise e

let write_dyn wctx w v =
  match write_dyn_in wctx w v with
  | () -> publish_w wctx
  | exception e ->
      publish_w wctx;
      raise e

let read_dyn rctx r =
  match read_dyn_in rctx r with
  | v ->
      publish_r rctx;
      v
  | exception e ->
      publish_r rctx;
      raise e

let write_step wctx w step v =
  match write_step_in wctx w step v with
  | () -> publish_w wctx
  | exception e ->
      publish_w wctx;
      raise e

let read_step rctx r step =
  match read_step_in rctx r step with
  | v ->
      publish_r rctx;
      v
  | exception e ->
      publish_r rctx;
      raise e
