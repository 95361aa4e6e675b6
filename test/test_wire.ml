(* Unit and property tests for the wire substrate: buffers, varints,
   type descriptors, handle tables, message framing. *)

open Rmi_wire

let roundtrip_ints () =
  let w = Msgbuf.create_writer () in
  let values = [ 0; 1; -1; 63; 64; -64; 127; 128; 300; -300; max_int; min_int ] in
  List.iter (Msgbuf.write_varint w) values;
  let r = Msgbuf.reader_of_writer w in
  List.iter
    (fun v -> Alcotest.(check int) (Printf.sprintf "varint %d" v) v (Msgbuf.read_varint r))
    values;
  Alcotest.(check int) "drained" 0 (Msgbuf.remaining r)

let roundtrip_mixed () =
  let w = Msgbuf.create_writer ~initial_capacity:4 () in
  Msgbuf.write_u8 w 200;
  Msgbuf.write_bool w true;
  Msgbuf.write_bool w false;
  Msgbuf.write_double w 3.14159;
  Msgbuf.write_string w "hello RMI";
  Msgbuf.write_string w "";
  Msgbuf.write_uvarint w 123456;
  let r = Msgbuf.reader_of_writer w in
  Alcotest.(check int) "u8" 200 (Msgbuf.read_u8 r);
  Alcotest.(check bool) "true" true (Msgbuf.read_bool r);
  Alcotest.(check bool) "false" false (Msgbuf.read_bool r);
  Alcotest.(check (float 1e-12)) "double" 3.14159 (Msgbuf.read_double r);
  Alcotest.(check string) "string" "hello RMI" (Msgbuf.read_string r);
  Alcotest.(check string) "empty string" "" (Msgbuf.read_string r);
  Alcotest.(check int) "uvarint" 123456 (Msgbuf.read_uvarint r)

let double_slices () =
  let w = Msgbuf.create_writer () in
  let a = Array.init 37 (fun i -> float_of_int i *. 0.5) in
  Msgbuf.write_double_slice w a 0 37;
  Msgbuf.write_double_slice w a 10 5;
  let r = Msgbuf.reader_of_writer w in
  let b = Array.make 37 0.0 in
  Msgbuf.read_double_slice r b 0 37;
  Alcotest.(check bool) "full slice" true (a = b);
  let c = Array.make 5 0.0 in
  Msgbuf.read_double_slice r c 0 5;
  Alcotest.(check bool) "partial slice" true (Array.sub a 10 5 = c)

let underflow_raises () =
  let w = Msgbuf.create_writer () in
  Msgbuf.write_u8 w 7;
  let r = Msgbuf.reader_of_writer w in
  ignore (Msgbuf.read_u8 r);
  Alcotest.check_raises "underflow"
    (Msgbuf.Underflow "u8")
    (fun () -> ignore (Msgbuf.read_u8 r))

let bad_bool_raises () =
  let w = Msgbuf.create_writer () in
  Msgbuf.write_u8 w 9;
  let r = Msgbuf.reader_of_writer w in
  Alcotest.check_raises "bad bool"
    (Msgbuf.Underflow "bool: invalid byte 9")
    (fun () -> ignore (Msgbuf.read_bool r))

let clear_resets () =
  let w = Msgbuf.create_writer () in
  Msgbuf.write_string w "abc";
  Msgbuf.clear w;
  Alcotest.(check int) "cleared" 0 (Msgbuf.length w);
  Msgbuf.write_u8 w 1;
  Alcotest.(check int) "one byte" 1 (Msgbuf.length w)

let negative_uvarint_rejected () =
  let w = Msgbuf.create_writer () in
  Alcotest.check_raises "negative"
    (Invalid_argument "Msgbuf.write_uvarint: negative")
    (fun () -> Msgbuf.write_uvarint w (-1))

(* --- type descriptors --- *)

let typedesc_registry () =
  let reg = Typedesc.create () in
  let a = Typedesc.register reg "Foo" in
  let b = Typedesc.register reg "Bar" in
  let a' = Typedesc.register reg "Foo" in
  Alcotest.(check int) "idempotent" a a';
  Alcotest.(check bool) "distinct" true (a <> b);
  Alcotest.(check (option string)) "name back" (Some "Bar") (Typedesc.name_of_id reg b);
  Alcotest.(check (option int)) "id back" (Some a) (Typedesc.id_of_name reg "Foo");
  Alcotest.(check int) "cardinal" 2 (Typedesc.cardinal reg);
  Alcotest.(check (option string)) "unknown id" None (Typedesc.name_of_id reg 99)

let tag_roundtrip () =
  let tags =
    Typedesc.
      [
        Tag_null; Tag_bool; Tag_int; Tag_double; Tag_string; Tag_object 0;
        Tag_object 12345; Tag_obj_array 3; Tag_double_array; Tag_int_array;
        Tag_handle;
      ]
  in
  let w = Msgbuf.create_writer () in
  let sizes = List.map (Typedesc.write_tag w) tags in
  List.iter (fun s -> Alcotest.(check bool) "tag has bytes" true (s >= 1)) sizes;
  let r = Msgbuf.reader_of_writer w in
  List.iter
    (fun expect ->
      let got = Typedesc.read_tag r in
      Alcotest.(check string) "tag"
        (Format.asprintf "%a" Typedesc.pp_tag expect)
        (Format.asprintf "%a" Typedesc.pp_tag got))
    tags

(* --- handle tables --- *)

let handle_table_counts () =
  let m = Rmi_stats.Metrics.create () in
  let t = Handle_table.create ~metrics:m () in
  Alcotest.(check int) "miss registers" (-1) (Handle_table.find_or_add t 5);
  Alcotest.(check int) "hit" 0 (Handle_table.find_or_add t 5);
  Alcotest.(check int) "handles dense" 1 (Handle_table.next_handle t);
  let s = Rmi_stats.Metrics.snapshot m in
  Alcotest.(check int) "3 probes charged" 3 s.Rmi_stats.Metrics.cycle_lookups;
  Handle_table.reset t;
  Alcotest.(check int) "reset" (-1) (Handle_table.find_or_add t 5)

(* past many resizes: every key keeps the handle it was registered
   under, probes are charged 1 per hit and 2 per miss, and a reset of
   the grown table leaves it empty *)
let handle_table_growth () =
  let n = 10_000 in
  let m = Rmi_stats.Metrics.create () in
  let t = Handle_table.create ~metrics:m () in
  (* spaced, colliding-prone keys *)
  let key i = (i * 4096) + 7 in
  for i = 0 to n - 1 do
    if Handle_table.find_or_add t (key i) <> -1 then
      Alcotest.failf "key %d seen before insertion" i;
    Alcotest.(check int) "dense" (i + 1) (Handle_table.next_handle t)
  done;
  let lookups () = (Rmi_stats.Metrics.snapshot m).Rmi_stats.Metrics.cycle_lookups in
  Alcotest.(check int) "2 probes per miss" (2 * n) (lookups ());
  for i = 0 to n - 1 do
    let h = Handle_table.find_or_add t (key i) in
    if h <> i then Alcotest.failf "key %d: handle %d after growth" i h
  done;
  Alcotest.(check int) "1 probe per hit" (3 * n) (lookups ());
  Alcotest.(check int) "size" n (Handle_table.size t);
  Handle_table.reset t;
  Alcotest.(check int) "empty after reset" 0 (Handle_table.size t);
  for i = 0 to n - 1 do
    if Handle_table.find_or_add t (key i) <> -1 then
      Alcotest.failf "key %d survived the reset" i
  done;
  Alcotest.(check int) "renumbered from 0" n (Handle_table.next_handle t)

(* --- protocol framing --- *)

let header_roundtrip () =
  let open Protocol in
  let cases =
    [
      { kind = Request; src = 0; epoch = 0; seq = 0; target_obj = 0; method_id = 0; callsite = -1; nargs = 0; plan_ver = 0 };
      { kind = Reply; src = 1; epoch = 0; seq = 42; target_obj = 7; method_id = 3; callsite = 12; nargs = 2; plan_ver = 0 };
      { kind = Ack; src = 3; epoch = 2; seq = 1000000; target_obj = -1; method_id = 255; callsite = 0; nargs = 7; plan_ver = 1 };
      { kind = Exn_reply; src = 2; epoch = 9; seq = 1; target_obj = 2; method_id = 3; callsite = 4; nargs = 1; plan_ver = 130 };
      { kind = Reject; src = 300; epoch = 1; seq = 77; target_obj = 5; method_id = -2; callsite = 9; nargs = 3; plan_ver = 2 };
    ]
  in
  (* the piecewise reads: kind, seq and plan version, or [None] where
     the bytes run out *)
  let piecewise r =
    match
      let kind = read_kind r in
      let seq = read_seq r in
      (kind, seq, read_plan_ver r)
    with
    | v -> Some v
    | exception Msgbuf.Underflow _ -> None
  in
  List.iter
    (fun h ->
      let w = Msgbuf.create_writer () in
      write_header w h;
      let r = Msgbuf.reader_of_writer w in
      let h' = read_header r in
      Alcotest.(check string) "header"
        (Format.asprintf "%a" pp_header h)
        (Format.asprintf "%a" pp_header h');
      Alcotest.(check int) "size" (Msgbuf.length w) (header_size h);
      let w' = Msgbuf.create_writer () in
      write_fields w' ~kind:h.kind ~src:h.src ~epoch:h.epoch ~seq:h.seq
        ~target_obj:h.target_obj ~method_id:h.method_id ~callsite:h.callsite
        ~nargs:h.nargs ~plan_ver:h.plan_ver;
      Alcotest.(check bool) "write_fields = write_header" true
        (Msgbuf.contents w' = Msgbuf.contents w);
      let r = Msgbuf.reader_of_writer w in
      Alcotest.(check bool) "piecewise reads" true
        (piecewise r = Some (h.kind, h.seq, h.plan_ver));
      Alcotest.(check int) "piecewise reads consume the header" 0
        (Msgbuf.remaining r);
      (* every truncation fails both ways *)
      let bytes = Msgbuf.contents w in
      for len = 0 to Bytes.length bytes - 1 do
        let cut () = Msgbuf.reader_of_bytes ~len bytes in
        Alcotest.(check bool) "truncated header" true
          ((match read_header (cut ()) with
           | _ -> false
           | exception Msgbuf.Underflow _ -> true)
          && piecewise (cut ()) = None)
      done)
    cases

(* --- properties --- *)

let prop_varint_roundtrip =
  QCheck.Test.make ~name:"varint roundtrips any int" ~count:1000
    QCheck.int
    (fun v ->
      let w = Msgbuf.create_writer () in
      Msgbuf.write_varint w v;
      Msgbuf.read_varint (Msgbuf.reader_of_writer w) = v)

let prop_uvarint_roundtrip =
  QCheck.Test.make ~name:"uvarint roundtrips non-negative ints" ~count:1000
    QCheck.(map abs int)
    (fun v ->
      let w = Msgbuf.create_writer () in
      Msgbuf.write_uvarint w v;
      Msgbuf.read_uvarint (Msgbuf.reader_of_writer w) = v)

let prop_string_roundtrip =
  QCheck.Test.make ~name:"string roundtrips" ~count:500 QCheck.string
    (fun s ->
      let w = Msgbuf.create_writer () in
      Msgbuf.write_string w s;
      String.equal (Msgbuf.read_string (Msgbuf.reader_of_writer w)) s)

let prop_sequence_roundtrip =
  QCheck.Test.make ~name:"heterogeneous sequences roundtrip" ~count:300
    QCheck.(list (pair int (option string)))
    (fun items ->
      let w = Msgbuf.create_writer () in
      List.iter
        (fun (i, so) ->
          Msgbuf.write_varint w i;
          match so with
          | Some s ->
              Msgbuf.write_bool w true;
              Msgbuf.write_string w s
          | None -> Msgbuf.write_bool w false)
        items;
      let r = Msgbuf.reader_of_writer w in
      List.for_all
        (fun (i, so) ->
          let i' = Msgbuf.read_varint r in
          let so' =
            if Msgbuf.read_bool r then Some (Msgbuf.read_string r) else None
          in
          i = i' && so = so')
        items)

let prop_double_roundtrip =
  QCheck.Test.make ~name:"doubles roundtrip bit-exactly" ~count:500
    QCheck.float
    (fun f ->
      let w = Msgbuf.create_writer () in
      Msgbuf.write_double w f;
      let f' = Msgbuf.read_double (Msgbuf.reader_of_writer w) in
      Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float f'))

(* --- zigzag extremes and truncation --- *)

let zigzag_extremes () =
  (* zigzag must cover the full int range without overflow artifacts:
     min_int maps to the largest unsigned code point *)
  List.iter
    (fun v ->
      let w = Msgbuf.create_writer () in
      Msgbuf.write_varint w v;
      Alcotest.(check int)
        (Printf.sprintf "varint %d" v)
        v
        (Msgbuf.read_varint (Msgbuf.reader_of_writer w)))
    [ max_int; min_int; max_int - 1; min_int + 1; max_int / 2; min_int / 2 ];
  let w = Msgbuf.create_writer () in
  Msgbuf.write_uvarint w max_int;
  Alcotest.(check int) "uvarint max_int" max_int
    (Msgbuf.read_uvarint (Msgbuf.reader_of_writer w))

let truncated_varint_underflows () =
  let w = Msgbuf.create_writer () in
  Msgbuf.write_varint w min_int;
  (* a 10-byte encoding *)
  let full = Msgbuf.contents w in
  for len = 0 to Bytes.length full - 1 do
    let r = Msgbuf.reader_of_bytes ~len full in
    Alcotest.(check bool)
      (Printf.sprintf "truncated at %d" len)
      true
      (try
         ignore (Msgbuf.read_varint r : int);
         false
       with Msgbuf.Underflow _ -> true)
  done

(* --- golden wire bytes ---

   The varint encodings are the wire format: every frame header, length
   prefix and int field rides them, so a change in any byte breaks
   interoperability with deployed peers and every recorded frame digest.
   These tables pin the exact bytes (lowercase hex) and the exact
   outcome of decoding malformed input. *)

let hex b =
  String.concat ""
    (List.init (Bytes.length b) (fun i ->
         Printf.sprintf "%02x" (Char.code (Bytes.get b i))))

let of_hex s =
  Bytes.init (String.length s / 2) (fun i ->
      Char.chr (int_of_string ("0x" ^ String.sub s (2 * i) 2)))

let encoded write v =
  let w = Msgbuf.create_writer () in
  write w v;
  hex (Msgbuf.contents w)

let golden_varints =
  [
    (0, "00"); (1, "02"); (-1, "01"); (63, "7e"); (64, "8001"); (-64, "7f");
    (-65, "8101"); (127, "fe01"); (128, "8002");
    (max_int, "feffffffffffffff7f"); (min_int, "ffffffffffffffff7f");
  ]

let golden_uvarints =
  [
    (0, "00"); (1, "01"); (63, "3f"); (64, "40"); (127, "7f"); (128, "8001");
    (max_int, "ffffffffffffffff3f");
  ]

(* (k, varint 2^k-1, varint 2^k+1, uvarint 2^k-1, uvarint 2^k+1); at
   k = 62, 2^k+1 wraps to min_int + 1, which has no uvarint *)
let golden_powers =
  [
    (1, "02", "06", "01", "03"); (2, "06", "0a", "03", "05");
    (3, "0e", "12", "07", "09"); (4, "1e", "22", "0f", "11");
    (5, "3e", "42", "1f", "21"); (6, "7e", "8201", "3f", "41");
    (7, "fe01", "8202", "7f", "8101"); (8, "fe03", "8204", "ff01", "8102");
    (9, "fe07", "8208", "ff03", "8104"); (10, "fe0f", "8210", "ff07", "8108");
    (11, "fe1f", "8220", "ff0f", "8110"); (12, "fe3f", "8240", "ff1f", "8120");
    (13, "fe7f", "828001", "ff3f", "8140");
    (14, "feff01", "828002", "ff7f", "818001");
    (15, "feff03", "828004", "ffff01", "818002");
    (16, "feff07", "828008", "ffff03", "818004");
    (17, "feff0f", "828010", "ffff07", "818008");
    (18, "feff1f", "828020", "ffff0f", "818010");
    (19, "feff3f", "828040", "ffff1f", "818020");
    (20, "feff7f", "82808001", "ffff3f", "818040");
    (21, "feffff01", "82808002", "ffff7f", "81808001");
    (22, "feffff03", "82808004", "ffffff01", "81808002");
    (23, "feffff07", "82808008", "ffffff03", "81808004");
    (24, "feffff0f", "82808010", "ffffff07", "81808008");
    (25, "feffff1f", "82808020", "ffffff0f", "81808010");
    (26, "feffff3f", "82808040", "ffffff1f", "81808020");
    (27, "feffff7f", "8280808001", "ffffff3f", "81808040");
    (28, "feffffff01", "8280808002", "ffffff7f", "8180808001");
    (29, "feffffff03", "8280808004", "ffffffff01", "8180808002");
    (30, "feffffff07", "8280808008", "ffffffff03", "8180808004");
    (31, "feffffff0f", "8280808010", "ffffffff07", "8180808008");
    (32, "feffffff1f", "8280808020", "ffffffff0f", "8180808010");
    (33, "feffffff3f", "8280808040", "ffffffff1f", "8180808020");
    (34, "feffffff7f", "828080808001", "ffffffff3f", "8180808040");
    (35, "feffffffff01", "828080808002", "ffffffff7f", "818080808001");
    (36, "feffffffff03", "828080808004", "ffffffffff01", "818080808002");
    (37, "feffffffff07", "828080808008", "ffffffffff03", "818080808004");
    (38, "feffffffff0f", "828080808010", "ffffffffff07", "818080808008");
    (39, "feffffffff1f", "828080808020", "ffffffffff0f", "818080808010");
    (40, "feffffffff3f", "828080808040", "ffffffffff1f", "818080808020");
    (41, "feffffffff7f", "82808080808001", "ffffffffff3f", "818080808040");
    (42, "feffffffffff01", "82808080808002", "ffffffffff7f", "81808080808001");
    (43, "feffffffffff03", "82808080808004", "ffffffffffff01", "81808080808002");
    (44, "feffffffffff07", "82808080808008", "ffffffffffff03", "81808080808004");
    (45, "feffffffffff0f", "82808080808010", "ffffffffffff07", "81808080808008");
    (46, "feffffffffff1f", "82808080808020", "ffffffffffff0f", "81808080808010");
    (47, "feffffffffff3f", "82808080808040", "ffffffffffff1f", "81808080808020");
    (48, "feffffffffff7f", "8280808080808001", "ffffffffffff3f", "81808080808040");
    (49, "feffffffffffff01", "8280808080808002", "ffffffffffff7f",
     "8180808080808001");
    (50, "feffffffffffff03", "8280808080808004", "ffffffffffffff01",
     "8180808080808002");
    (51, "feffffffffffff07", "8280808080808008", "ffffffffffffff03",
     "8180808080808004");
    (52, "feffffffffffff0f", "8280808080808010", "ffffffffffffff07",
     "8180808080808008");
    (53, "feffffffffffff1f", "8280808080808020", "ffffffffffffff0f",
     "8180808080808010");
    (54, "feffffffffffff3f", "8280808080808040", "ffffffffffffff1f",
     "8180808080808020");
    (55, "feffffffffffff7f", "828080808080808001", "ffffffffffffff3f",
     "8180808080808040");
    (56, "feffffffffffffff01", "828080808080808002", "ffffffffffffff7f",
     "818080808080808001");
    (57, "feffffffffffffff03", "828080808080808004", "ffffffffffffffff01",
     "818080808080808002");
    (58, "feffffffffffffff07", "828080808080808008", "ffffffffffffffff03",
     "818080808080808004");
    (59, "feffffffffffffff0f", "828080808080808010", "ffffffffffffffff07",
     "818080808080808008");
    (60, "feffffffffffffff1f", "828080808080808020", "ffffffffffffffff0f",
     "818080808080808010");
    (61, "feffffffffffffff3f", "828080808080808040", "ffffffffffffffff1f",
     "818080808080808020");
    (62, "feffffffffffffff7f", "fdffffffffffffff7f", "ffffffffffffffff3f", "");
  ]

let golden_varint_bytes () =
  let check_enc label write (v, want) =
    Alcotest.(check string) (Printf.sprintf "%s %d" label v) want
      (encoded write v)
  in
  List.iter (check_enc "varint" Msgbuf.write_varint) golden_varints;
  List.iter (check_enc "uvarint" Msgbuf.write_uvarint) golden_uvarints;
  List.iter
    (fun (k, v_lo, v_hi, u_lo, u_hi) ->
      let p = 1 lsl k in
      check_enc "varint" Msgbuf.write_varint (p - 1, v_lo);
      check_enc "varint" Msgbuf.write_varint (p + 1, v_hi);
      check_enc "uvarint" Msgbuf.write_uvarint (p - 1, u_lo);
      if p + 1 > 0 then check_enc "uvarint" Msgbuf.write_uvarint (p + 1, u_hi);
      (* the slice codec writes the same bytes as per-element varints *)
      let w = Msgbuf.create_writer () in
      Msgbuf.write_int_slice w [| p - 1; p + 1; -(p - 1); -(p + 1) |] 0 4;
      Alcotest.(check string)
        (Printf.sprintf "int slice 2^%d" k)
        (v_lo ^ v_hi
        ^ encoded Msgbuf.write_varint (-(p - 1))
        ^ encoded Msgbuf.write_varint (-(p + 1)))
        (hex (Msgbuf.contents w)))
    golden_powers;
  (* patched varints are byte-identical to written ones *)
  List.iter
    (fun (v, want) ->
      let w = Msgbuf.create_writer () in
      let at = Msgbuf.reserve w 9 in
      let n = Msgbuf.patch_uvarint w ~at v in
      Alcotest.(check string) (Printf.sprintf "patched %d" v) want
        (hex (Msgbuf.sub w ~off:at ~len:n));
      Alcotest.(check int) (Printf.sprintf "size %d" v) n
        (Msgbuf.uvarint_size v))
    golden_uvarints

(* (input hex, read_varint outcome, read_uvarint outcome): overlong
   10-byte encodings decode, keeping only the bits that fit an [int];
   an 11th byte is "too long"; truncation underflows on the missing
   byte *)
let golden_malformed =
  [
    ("", Error "u8", Error "u8");
    ("80", Error "u8", Error "u8");
    ("ffff", Error "u8", Error "u8");
    ("808080808080808080", Error "u8", Error "u8");
    ("80808080808080808000", Ok 0, Ok 0);
    ("ffffffffffffffffff7f", Ok 0, Ok (-1));
    ("ffffffffffffffffff01", Ok 0, Ok (-1));
    ("ffffffffffffffffff00", Ok min_int, Ok (-1));
    ("ffffffffffffffffff3f", Ok 0, Ok (-1));
    ("ffffffffffffffffff40", Ok min_int, Ok (-1));
    ("ffffffffffffffffff7e", Ok min_int, Ok (-1));
    ("81808080808080808002", Ok (-1), Ok 1);
    ("fefffffffffffffffffe7f", Error "uvarint64: too long",
     Error "uvarint: too long");
    ("8080808080808080808000", Error "uvarint64: too long",
     Error "uvarint: too long");
    ("ffffffffffffffffffff01", Error "uvarint64: too long",
     Error "uvarint: too long");
  ]

let outcome read data =
  let r = Msgbuf.reader_of_bytes data in
  match read r with
  | v -> Ok (v, Msgbuf.remaining r)
  | exception Msgbuf.Underflow m -> Error m

let golden_malformed_parity () =
  let outcome_t = Alcotest.(result (pair int int) string) in
  List.iter
    (fun (input, want_v, want_u) ->
      let data = of_hex input in
      (* with trailing bytes after it, a decoded value still consumes
         exactly the input and an overlong one is rejected the same
         way *)
      let padded = Bytes.cat data (Bytes.make 16 '\x00') in
      List.iter
        (fun (label, read, want) ->
          let want_at pad = Result.map (fun v -> (v, pad)) want in
          Alcotest.(check outcome_t) (label ^ " " ^ input) (want_at 0)
            (outcome read data);
          if want <> Error "u8" then
            Alcotest.(check outcome_t)
              (label ^ " padded " ^ input)
              (want_at 16) (outcome read padded))
        [
          ("varint", Msgbuf.read_varint, want_v);
          ("uvarint", Msgbuf.read_uvarint, want_u);
          ( "int slice",
            (fun r ->
              let a = [| 7 |] in
              Msgbuf.read_int_slice r a 0 1;
              a.(0)),
            want_v );
        ])
    golden_malformed

(* --- double slices: bit-exact bytes --- *)

(* The bulk copy must put the same bytes on the wire as the element
   loop it replaces: each double as the little-endian bytes of
   [Int64.bits_of_float], whatever the value. *)
let expected_double_bytes xs =
  let b = Bytes.create (8 * Array.length xs) in
  Array.iteri (fun i x -> Bytes.set_int64_le b (8 * i) (Int64.bits_of_float x)) xs;
  b

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

let special_doubles =
  [|
    Float.nan;
    Int64.float_of_bits 0x7ff8_0000_dead_beefL (* quiet NaN, payload *);
    Int64.float_of_bits 0x7ff0_0000_0000_0001L (* signalling NaN *);
    Int64.float_of_bits 0xfff4_0000_0000_0000L (* negative signalling NaN *);
    -0.0;
    0.0;
    Float.infinity;
    Float.neg_infinity;
    Int64.float_of_bits 1L (* smallest subnormal *);
    Float.max_float;
    -1.5;
  |]

let double_slice_bytes () =
  let xs = special_doubles and n = Array.length special_doubles in
  let w = Msgbuf.create_writer () in
  Msgbuf.write_double_slice w xs 0 n;
  Alcotest.(check string) "whole slice" (hex (expected_double_bytes xs))
    (hex (Msgbuf.contents w));
  let back = Array.make n 7.0 in
  Msgbuf.read_double_slice (Msgbuf.reader_of_writer w) back 0 n;
  Alcotest.(check bool) "whole slice bits" true (same_bits xs back);
  (* a slice from [pos > 0], written and read at an odd offset: after a
     1-byte varint *)
  let w = Msgbuf.create_writer () in
  Msgbuf.write_varint w 3;
  Msgbuf.write_double_slice w xs 2 5;
  Alcotest.(check string) "offset slice"
    ("06" ^ hex (expected_double_bytes (Array.sub xs 2 5)))
    (hex (Msgbuf.contents w));
  let r = Msgbuf.reader_of_writer w in
  Alcotest.(check int) "varint before slice" 3 (Msgbuf.read_varint r);
  let back = Array.make 9 7.0 in
  Msgbuf.read_double_slice r back 3 5;
  Alcotest.(check bool) "offset slice bits" true
    (same_bits (Array.sub xs 2 5) (Array.sub back 3 5));
  Alcotest.(check bool) "outside the slice untouched" true
    (Array.for_all (( = ) 7.0) (Array.append (Array.sub back 0 3) (Array.sub back 8 1)));
  Alcotest.(check int) "drained" 0 (Msgbuf.remaining r)

let double_slice_truncated () =
  let xs = special_doubles and n = Array.length special_doubles in
  let w = Msgbuf.create_writer () in
  Msgbuf.write_double_slice w xs 0 n;
  let data = Msgbuf.contents w in
  List.iter
    (fun len ->
      let r = Msgbuf.reader_of_bytes ~len data in
      let back = Array.make n 7.0 in
      Alcotest.check_raises
        (Printf.sprintf "truncated at %d" len)
        (Msgbuf.Underflow "double slice")
        (fun () -> Msgbuf.read_double_slice r back 0 n);
      Alcotest.(check bool)
        (Printf.sprintf "target unchanged at %d" len)
        true
        (Array.for_all (( = ) 7.0) back);
      Alcotest.(check int)
        (Printf.sprintf "reader unmoved at %d" len)
        len (Msgbuf.remaining r))
    [ 0; 1; 8; 8 * n - 1 ]

let prop_double_slice_bits =
  QCheck.Test.make ~name:"double slices carry any 64-bit pattern" ~count:300
    QCheck.(pair (list int64) small_nat)
    (fun (bits, skip) ->
      let xs = Array.of_list (List.map Int64.float_of_bits bits) in
      let n = Array.length xs in
      let pos = if n = 0 then 0 else skip mod (n + 1) in
      let w = Msgbuf.create_writer () in
      Msgbuf.write_varint w skip;
      Msgbuf.write_double_slice w xs pos (n - pos);
      let r = Msgbuf.reader_of_writer w in
      let skip' = Msgbuf.read_varint r in
      let payload = Msgbuf.sub w ~off:(Msgbuf.length w - (8 * (n - pos)))
          ~len:(8 * (n - pos)) in
      let back = Array.make (n - pos) 0.0 in
      Msgbuf.read_double_slice r back 0 (n - pos);
      skip = skip'
      && Bytes.equal payload (expected_double_bytes (Array.sub xs pos (n - pos)))
      && same_bits (Array.sub xs pos (n - pos)) back)

(* A multi-value int slice takes the unchecked path for a value with at
   least 10 bytes left and [read_varint] within the last 9.  Valid
   values, then each malformed golden input: whole and followed by
   padding (an overlong value, read unchecked), and cut at every length
   so that the buffer ends inside it (a truncated value, read checked).
   Either way the slice raises what [read_varint] raises at that offset,
   and the values before it have been stored. *)
let int_slice_malformed_parity () =
  let valid = [| 5; -300; max_int; min_int; 0 |] in
  let n = Array.length valid in
  let w = Msgbuf.create_writer () in
  Msgbuf.write_int_slice w valid 0 n;
  let prefix = Msgbuf.contents w in
  let at = Bytes.length prefix in
  let unchecked = ref 0 and checked = ref 0 in
  let parity label tail =
    let data = Bytes.cat prefix tail in
    let want =
      match Msgbuf.read_varint (Msgbuf.reader_of_bytes ~off:at data) with
      | v -> Alcotest.failf "%s: decodes to %d" label v
      | exception Msgbuf.Underflow m -> m
    in
    if Bytes.length tail >= 10 then incr unchecked else incr checked;
    let a = Array.make (n + 1) 7 in
    let got =
      match Msgbuf.read_int_slice (Msgbuf.reader_of_bytes data) a 0 (n + 1) with
      | () -> None
      | exception Msgbuf.Underflow m -> Some m
    in
    Alcotest.(check (option string)) (label ^ " message") (Some want) got;
    Alcotest.(check (array int)) (label ^ " values before")
      (Array.append valid [| 7 |]) a
  in
  List.iter
    (fun (input, want_v, _) ->
      let m = of_hex input in
      if want_v = Error "uvarint64: too long" then begin
        parity ("overlong " ^ input) m;
        parity ("overlong padded " ^ input) (Bytes.cat m (Bytes.make 16 '\x00'))
      end;
      for cut = 0 to min 9 (Bytes.length m) do
        let tail = Bytes.sub m 0 cut in
        if Bytes.for_all (fun c -> Char.code c land 0x80 <> 0) tail then
          parity (Printf.sprintf "truncated %s at %d" input cut) tail
      done)
    golden_malformed;
  Alcotest.(check bool) "unchecked path raised" true (!unchecked > 0);
  Alcotest.(check bool) "checked path raised" true (!checked > 0)

(* --- allocation guard: the primitives allocate nothing --- *)

let minor_words_of f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let primitives_allocation_free () =
  let n = 10_000 in
  let rng = Random.State.make [| 42 |] in
  let ints =
    Array.init 256 (fun _ -> Random.State.bits rng - Random.State.bits rng)
  in
  let w = Msgbuf.create_writer ~initial_capacity:(1 lsl 20) () in
  let sink = ref 0 in
  let baseline = minor_words_of (fun () -> ()) in
  let check label f =
    Alcotest.(check (float 0.)) (label ^ " minor words") 0.
      (minor_words_of f -. baseline)
  in
  check "write_varint" (fun () ->
      Msgbuf.clear w;
      for i = 1 to n do
        Msgbuf.write_varint w (ints.(i land 255) * i)
      done);
  let r = Msgbuf.reader_of_writer w in
  check "read_varint" (fun () ->
      for _ = 1 to n do
        sink := !sink + Msgbuf.read_varint r
      done);
  check "write_uvarint" (fun () ->
      Msgbuf.clear w;
      for i = 1 to n do
        Msgbuf.write_uvarint w (abs (ints.(i land 255) * i))
      done);
  let r = Msgbuf.reader_of_writer w in
  check "read_uvarint" (fun () ->
      for _ = 1 to n do
        sink := !sink + Msgbuf.read_uvarint r
      done);
  Msgbuf.clear w;
  let at = Msgbuf.reserve w 9 in
  check "patch_uvarint" (fun () ->
      for i = 1 to n do
        sink := !sink + Msgbuf.patch_uvarint w ~at (abs (ints.(i land 255) * i))
      done);
  check "write_int_slice" (fun () ->
      Msgbuf.clear w;
      for _ = 1 to n do
        Msgbuf.write_int_slice w ints 0 256
      done);
  let back = Array.make 256 0 in
  let r = Msgbuf.reader_of_writer w in
  check "read_int_slice" (fun () ->
      for _ = 1 to n do
        Msgbuf.read_int_slice r back 0 256
      done);
  Alcotest.(check bool) "slices roundtrip" true (back = ints);
  let doubles = Array.map float_of_int ints in
  check "write_double_slice" (fun () ->
      Msgbuf.clear w;
      for _ = 1 to n do
        Msgbuf.write_double_slice w doubles 0 256
      done);
  let back = Array.make 256 0.0 in
  let r = Msgbuf.reader_of_writer w in
  check "read_double_slice" (fun () ->
      for _ = 1 to n do
        Msgbuf.read_double_slice r back 0 256
      done);
  Alcotest.(check bool) "double slices roundtrip" true (back = doubles);
  ignore (Sys.opaque_identity !sink)

(* --- offset readers and skip --- *)

let reader_slices () =
  let w = Msgbuf.create_writer () in
  Msgbuf.write_u8 w 1;
  Msgbuf.write_u8 w 2;
  Msgbuf.write_u8 w 3;
  Msgbuf.write_u8 w 4;
  let data = Msgbuf.contents w in
  let r = Msgbuf.reader_of_bytes ~off:1 ~len:2 data in
  Alcotest.(check int) "slice remaining" 2 (Msgbuf.remaining r);
  Alcotest.(check int) "first in slice" 2 (Msgbuf.read_u8 r);
  Alcotest.(check int) "second in slice" 3 (Msgbuf.read_u8 r);
  Alcotest.check_raises "slice end enforced" (Msgbuf.Underflow "u8") (fun () ->
      ignore (Msgbuf.read_u8 r));
  let r = Msgbuf.reader_of_bytes data in
  let off = Msgbuf.skip r 3 "prefix" in
  Alcotest.(check int) "skip returns start offset" 0 off;
  Alcotest.(check int) "skip advances" 4 (Msgbuf.read_u8 r);
  Alcotest.check_raises "skip past end" (Msgbuf.Underflow "tail") (fun () ->
      ignore (Msgbuf.skip r 1 "tail"))

(* --- reserve / patch --- *)

let reserve_and_patch () =
  let w = Msgbuf.create_writer () in
  Msgbuf.write_u8 w 0xAA;
  let at = Msgbuf.reserve w 3 in
  Alcotest.(check int) "reserve offset" 1 at;
  Msgbuf.write_u8 w 0xBB;
  Msgbuf.patch_u8 w ~at 7;
  let width = Msgbuf.patch_uvarint w ~at:(at + 1) 300 in
  Alcotest.(check int) "patched varint minimal" (Msgbuf.uvarint_size 300) width;
  let r = Msgbuf.reader_of_writer w in
  Alcotest.(check int) "prefix intact" 0xAA (Msgbuf.read_u8 r);
  Alcotest.(check int) "patched u8" 7 (Msgbuf.read_u8 r);
  Alcotest.(check int) "patched uvarint" 300 (Msgbuf.read_uvarint r);
  Alcotest.(check int) "suffix intact" 0xBB (Msgbuf.read_u8 r)

let uvarint_size_matches_encoding () =
  List.iter
    (fun v ->
      let w = Msgbuf.create_writer () in
      Msgbuf.write_uvarint w v;
      Alcotest.(check int)
        (Printf.sprintf "size of %d" v)
        (Msgbuf.length w) (Msgbuf.uvarint_size v))
    [ 0; 1; 127; 128; 16383; 16384; 300; 123456; max_int ]

(* --- buffer pool --- *)

let pool_reuses_writers () =
  let m = Rmi_stats.Metrics.create () in
  let p = Msgbuf.Pool.create ~metrics:m in
  let w1 = Msgbuf.Pool.acquire_writer p in
  Msgbuf.write_string w1 "prime the storage";
  Msgbuf.Pool.release_writer p w1;
  let w2 = Msgbuf.Pool.acquire_writer p in
  Alcotest.(check bool) "same writer object" true (w1 == w2);
  Alcotest.(check int) "recycled writer is cleared" 0 (Msgbuf.length w2);
  let s = Rmi_stats.Metrics.snapshot m in
  Alcotest.(check int) "one miss (first acquire)" 1 s.Rmi_stats.Metrics.pool_misses;
  Alcotest.(check int) "one hit (recycled)" 1 s.Rmi_stats.Metrics.pool_hits

let pool_with_writer_releases_on_raise () =
  let m = Rmi_stats.Metrics.create () in
  let p = Msgbuf.Pool.create ~metrics:m in
  let leaked = ref None in
  (try
     Msgbuf.Pool.with_writer p (fun w ->
         leaked := Some w;
         failwith "boom")
   with Failure _ -> ());
  let w = Msgbuf.Pool.acquire_writer p in
  match !leaked with
  | Some lw ->
      Alcotest.(check bool) "writer back in pool after raise" true (w == lw)
  | None -> Alcotest.fail "with_writer never ran"

let pool_readers () =
  let m = Rmi_stats.Metrics.create () in
  let p = Msgbuf.Pool.create ~metrics:m in
  let data = Bytes.of_string "\x05\x06\x07" in
  let r1 = Msgbuf.Pool.acquire_reader p data ~off:1 ~len:2 in
  Alcotest.(check int) "aimed at slice" 6 (Msgbuf.read_u8 r1);
  Msgbuf.Pool.release_reader p r1;
  let r2 =
    Msgbuf.Pool.acquire_reader p data ~off:0 ~len:(Bytes.length data)
  in
  Alcotest.(check bool) "reader recycled" true (r1 == r2);
  Alcotest.(check int) "re-aimed at start" 5 (Msgbuf.read_u8 r2)

(* --- zero-copy framing == copy framing, property-style --- *)

module Envelope = Rmi_net.Envelope

let envelope_kind_gen =
  QCheck.Gen.oneofl [ Envelope.Data; Envelope.Ack; Envelope.Hb ]

(* the headline substitution property: an envelope built in place
   around a reserved gap is byte-for-byte the frame the copying encoder
   produces, for any payload and any header values *)
let prop_encode_around_equals_encode =
  QCheck.Test.make ~name:"Envelope.encode_around == Envelope.encode" ~count:500
    QCheck.(
      make
        Gen.(
          quad envelope_kind_gen (int_bound 15) (int_bound 5)
            (pair (int_bound 1_000_000) string)))
    (fun (kind, src, epoch, (lseq, payload_s)) ->
      let payload = Bytes.of_string payload_s in
      let reference = Envelope.encode ~kind ~src ~epoch ~lseq ~payload () in
      let w = Msgbuf.create_writer () in
      ignore (Msgbuf.reserve w Envelope.gap : int);
      Msgbuf.write_bytes w payload 0 (Bytes.length payload);
      let start =
        Envelope.encode_around w ~kind ~src ~epoch ~lseq
          ~payload_off:Envelope.gap ()
      in
      let in_place = Msgbuf.sub w ~off:start ~len:(Msgbuf.length w - start) in
      Bytes.equal reference in_place)

let prop_encode_around_decodes =
  QCheck.Test.make ~name:"encode_around frames decode to their payload"
    ~count:200
    QCheck.(pair (int_bound 1_000_000) string)
    (fun (lseq, payload_s) ->
      let payload = Bytes.of_string payload_s in
      let w = Msgbuf.create_writer () in
      ignore (Msgbuf.reserve w Envelope.gap : int);
      Msgbuf.write_bytes w payload 0 (Bytes.length payload);
      let start =
        Envelope.encode_around w ~kind:Envelope.Data ~src:1 ~lseq
          ~payload_off:Envelope.gap ()
      in
      let frame = Msgbuf.sub w ~off:start ~len:(Msgbuf.length w - start) in
      match Envelope.decode frame with
      | Some (h, p) ->
          h.Envelope.kind = Envelope.Data
          && h.Envelope.lseq = lseq
          && Bytes.equal p payload
      | None -> false)

let encode_around_rejects_small_gap () =
  let w = Msgbuf.create_writer () in
  ignore (Msgbuf.reserve w 2 : int);
  Msgbuf.write_u8 w 9;
  Alcotest.(check bool) "raises Invalid_argument" true
    (try
       ignore
         (Envelope.encode_around w ~kind:Envelope.Data ~src:0 ~lseq:0
            ~payload_off:2 ()
           : int);
       false
     with Invalid_argument _ -> true)

let prop_batch_into_equals_batch =
  QCheck.Test.make ~name:"Protocol.encode_batch_into == encode_batch"
    ~count:300
    QCheck.(list_of_size Gen.(int_range 1 8) string)
    (fun msgs_s ->
      let msgs = List.map Bytes.of_string msgs_s in
      let reference = Protocol.encode_batch msgs in
      let w = Msgbuf.create_writer () in
      (* an unrelated prefix proves the append is position-independent *)
      Msgbuf.write_u8 w 0xEE;
      Protocol.encode_batch_into w msgs;
      let in_place = Msgbuf.sub w ~off:1 ~len:(Msgbuf.length w - 1) in
      Bytes.equal reference in_place)

let suite =
  [
    ( "wire.msgbuf",
      [
        Alcotest.test_case "varint corner cases" `Quick roundtrip_ints;
        Alcotest.test_case "mixed primitives" `Quick roundtrip_mixed;
        Alcotest.test_case "double slices" `Quick double_slices;
        Alcotest.test_case "underflow raises" `Quick underflow_raises;
        Alcotest.test_case "bad bool raises" `Quick bad_bool_raises;
        Alcotest.test_case "clear resets" `Quick clear_resets;
        Alcotest.test_case "negative uvarint rejected" `Quick negative_uvarint_rejected;
        Alcotest.test_case "zigzag extremes" `Quick zigzag_extremes;
        Alcotest.test_case "truncated varint underflows" `Quick
          truncated_varint_underflows;
        Alcotest.test_case "offset readers and skip" `Quick reader_slices;
        Alcotest.test_case "reserve and patch" `Quick reserve_and_patch;
        Alcotest.test_case "uvarint_size matches encoding" `Quick
          uvarint_size_matches_encoding;
        Alcotest.test_case "golden varint bytes" `Quick golden_varint_bytes;
        Alcotest.test_case "malformed varint parity" `Quick
          golden_malformed_parity;
        Alcotest.test_case "malformed value in an int slice" `Quick
          int_slice_malformed_parity;
        Alcotest.test_case "double slice bytes" `Quick double_slice_bytes;
        Alcotest.test_case "truncated double slice" `Quick
          double_slice_truncated;
        Fixtures.qcheck_case prop_double_slice_bits;
        Alcotest.test_case "primitives allocation-free" `Quick
          primitives_allocation_free;
        Fixtures.qcheck_case prop_varint_roundtrip;
        Fixtures.qcheck_case prop_uvarint_roundtrip;
        Fixtures.qcheck_case prop_string_roundtrip;
        Fixtures.qcheck_case prop_sequence_roundtrip;
        Fixtures.qcheck_case prop_double_roundtrip;
      ] );
    ( "wire.typedesc",
      [
        Alcotest.test_case "registry" `Quick typedesc_registry;
        Alcotest.test_case "tag roundtrip" `Quick tag_roundtrip;
      ] );
    ( "wire.pool",
      [
        Alcotest.test_case "writers recycled and counted" `Quick
          pool_reuses_writers;
        Alcotest.test_case "with_writer releases on raise" `Quick
          pool_with_writer_releases_on_raise;
        Alcotest.test_case "readers recycled and re-aimed" `Quick pool_readers;
      ] );
    ( "wire.zero_copy",
      [
        Fixtures.qcheck_case prop_encode_around_equals_encode;
        Fixtures.qcheck_case prop_encode_around_decodes;
        Alcotest.test_case "encode_around rejects small gap" `Quick
          encode_around_rejects_small_gap;
        Fixtures.qcheck_case prop_batch_into_equals_batch;
      ] );
    ( "wire.handle_table",
      [
        Alcotest.test_case "lookups counted" `Quick handle_table_counts;
        Alcotest.test_case "past 10 000 keys" `Quick handle_table_growth;
      ] );
    ( "wire.protocol",
      [ Alcotest.test_case "header roundtrip" `Quick header_roundtrip ] );
  ]
