(* Gate: the one report record every harness gate builds.  A golden
   render and JSON of a hand-built gate, the check bookkeeping, the
   JSON key schema of fresh small gate runs against the checked-in
   BENCH_*.json artifacts — the CI `sed` column diffs depend on those
   keys and their order — and pins of the deterministic columns of the
   transport, wirecost and alloc gates (wirecost's frame-stream
   digests among them), which a refactor of the transport layers or
   the codec must reproduce exactly. *)

module Gate = Rmi_harness.Gate
module E = Rmi_harness.Experiment

let sample =
  Gate.
    {
      title = "sample: two rows";
      fields =
        [
          Value ("calls", Int 8);
          check "digest_ok" true;
          Check ("perf", Float (2, 0.5), Unenforced "one core");
        ];
      table =
        {
          columns = [ "workload"; "rate"; "ok" ];
          rows =
            [
              [ Str "a"; Float (1, 2.5); Bool true ];
              [ Str "bb"; Float (1, 10.0); Bool false ];
            ];
        };
      extra =
        [
          ( "curve",
            { columns = [ "window"; "bytes" ]; rows = [ [ Int 1; Ints [ 3; 4 ] ] ] }
          );
        ];
      notes = [ "a note" ];
    }

let golden_render () =
  Alcotest.(check string) "render"
    "sample: two rows\n\
     +----------+------+-------+\n\
     | workload | rate |    ok |\n\
     +----------+------+-------+\n\
     | a        |  2.5 |  true |\n\
     | bb       | 10.0 | false |\n\
     +----------+------+-------+\n\
     curve:\n\
     +--------+--------+\n\
     | window |  bytes |\n\
     +--------+--------+\n\
     |      1 | [3, 4] |\n\
     +--------+--------+\n\
     calls:     8\n\
     digest_ok: true  [pass]\n\
     perf:      0.50  [not enforced: one core]\n\
     a note\n\
     gate: PASS"
    (Gate.render sample)

let golden_json () =
  Alcotest.(check string) "to_json"
    "{\n\
    \  \"title\": \"sample: two rows\",\n\
    \  \"calls\": 8,\n\
    \  \"digest_ok\": true,\n\
    \  \"perf\": 0.50,\n\
    \  \"rows\": [\n\
    \    {\"workload\": \"a\", \"rate\": 2.5, \"ok\": true},\n\
    \    {\"workload\": \"bb\", \"rate\": 10.0, \"ok\": false}\n\
    \  ],\n\
    \  \"curve\": [\n\
    \    {\"window\": 1, \"bytes\": [3, 4]}\n\
    \  ]\n\
     }\n"
    (Gate.to_json sample)

let failed_check_named () =
  Alcotest.(check bool) "sample passes" true (Gate.ok sample);
  Alcotest.(check (list string)) "unenforced is not a failure" [] (Gate.failed sample);
  let g =
    {
      sample with
      fields = Gate.check "frames_ok" true :: Gate.check "gate_ok" false :: sample.fields;
    }
  in
  Alcotest.(check bool) "not ok" false (Gate.ok g);
  Alcotest.(check (list string)) "names the check" [ "gate_ok" ] (Gate.failed g);
  Alcotest.(check bool) "verdict" true (Gate.verdict g "gate_ok" = Gate.Fail);
  Alcotest.(check bool) "value" true (Gate.value g "calls" = Gate.Int 8);
  Alcotest.(check bool) "column" true
    (Gate.column g "workload" = [ Gate.Str "a"; Gate.Str "bb" ]);
  let r = Gate.render g in
  Alcotest.(check string) "closing line" "gate: FAIL (gate_ok)"
    (String.sub r (String.length r - 20) 20)

(* the keys of one line, in order: `grep -o '"[a-z_0-9]*":'` *)
let json_keys line =
  let n = String.length line in
  let key_char = function 'a' .. 'z' | '0' .. '9' | '_' -> true | _ -> false in
  let rec go i acc =
    if i >= n then List.rev acc
    else if line.[i] <> '"' then go (i + 1) acc
    else
      let j = ref (i + 1) in
      while !j < n && key_char line.[!j] do
        incr j
      done;
      if !j + 1 < n && line.[!j] = '"' && line.[!j + 1] = ':' then
        go (!j + 2) (String.sub line (i + 1) (!j - i - 1) :: acc)
      else go (i + 1) acc
  in
  go 0 []

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* top-level keys in order, and the distinct key sequences of the row
   lines that [row] selects *)
let schema ?(row = fun _ -> true) text =
  let lines = String.split_on_char '\n' text in
  let is_row l = contains l "\"workload\"" in
  ( List.concat_map json_keys (List.filter (fun l -> not (is_row l)) lines),
    List.sort_uniq compare
      (List.map json_keys (List.filter (fun l -> is_row l && row l) lines)) )

let check_schema ?row file gate =
  let checked_in = In_channel.with_open_text ("../" ^ file) In_channel.input_all in
  let top, rows = schema ?row checked_in and top', rows' = schema (Gate.to_json gate) in
  Alcotest.(check (list string)) (file ^ " top-level keys") top top';
  Alcotest.(check (list (list string))) (file ^ " row keys") rows rows';
  Alcotest.(check int) "one key sequence for every row" 1 (List.length rows')

let alloc_schema () =
  check_schema "BENCH_alloc.json" (E.alloc_compare ~calls:16 ~window:4 ())

let transport_schema () =
  check_schema "BENCH_transport.json" (E.transport_compare ~calls:8 ~window:4 ())

let small_load () = E.load_compare ~domains:1 ~calls:32 ~window:8 ~servers:2 ~spin:1 ()

let load_schema () =
  let g = small_load () in
  check_schema ~row:(fun l -> contains l "\"domains\": 1,") "BENCH_load.json" g;
  (* golden: the issue-order reply digest of each workload, on every
     variant *)
  let chain = Gate.Str "dc00264a28fa04b5b87ba055d4a4b1af"
  and matrix = Gate.Str "d19986d9cd76cd3a5ee28bf9060db60a" in
  Alcotest.(check (list Fixtures.gate_cell))
    "digest column"
    [ chain; chain; chain; matrix; matrix; matrix ]
    (Gate.column g "digest")

(* [line] without its ["key": value] pair *)
let drop_key key line =
  let tag = "\"" ^ key ^ "\": " in
  let nl = String.length line and nt = String.length tag in
  let rec find i =
    if i + nt > nl then None
    else if String.sub line i nt = tag then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> line
  | Some i ->
      let j = ref (i + nt) in
      while !j < nl && line.[!j] <> ',' && line.[!j] <> '}' do
        incr j
      done;
      (* the pair and the separator after it *)
      let j = if !j + 1 < nl && line.[!j] = ',' then !j + 2 else !j in
      String.sub line 0 i ^ String.sub line j (nl - j)

let json_rows text =
  List.filter
    (fun l -> contains l "\"workload\"")
    (String.split_on_char '\n' text)

(* the full 64-call seed-42 run reproduces every row of the checked-in
   BENCH_transport.json but the wall-clock column: message and byte
   counts, modeled seconds and reply digests, on the raw Sim and raw
   Sock backends alike (the only check of batched raw-Sock accounting) *)
let transport_pin () =
  let checked_in =
    In_channel.with_open_text "../BENCH_transport.json" In_channel.input_all
  in
  let fresh = Gate.to_json (E.transport_compare ~seed:42 ()) in
  Alcotest.(check int) "12 rows" 12 (List.length (json_rows checked_in));
  Alcotest.(check (list string))
    "msgs/bytes/modeled_s/digest per row"
    (List.map (drop_key "wall_s") (json_rows checked_in))
    (List.map (drop_key "wall_s") (json_rows fresh))

(* the wirecost report at CI's short parameters (24 calls, window 8),
   row by row against the checked-in BENCH_wire.json: copied bytes per
   call, pool traffic and the frame-stream digest; the minor-words and
   microsecond columns are measurements and move.  The digests were
   recorded while the copy-based framing still ran beside the zero-copy
   one and produced the same frames, so they carry that cross-check
   forward.  The seed-1234 lossy rows (CI's second wirecost run, whose
   retransmissions follow another schedule) are pinned as literals. *)
let wirecost_pin () =
  let checked_in =
    In_channel.with_open_text "../BENCH_wire.json" In_channel.input_all
  in
  let rows text =
    List.map
      (fun line -> drop_key "us" (drop_key "minor" line))
      (json_rows text)
  in
  let g = E.wirecost_compare ~calls:24 ~window:8 () in
  check_schema "BENCH_wire.json" g;
  Alcotest.(check int) "8 rows" 8 (List.length (json_rows checked_in));
  Alcotest.(check (list string))
    "copied/pool/digest per row" (rows checked_in) (rows (Gate.to_json g));
  let lossy =
    List.filter
      (fun l -> contains l "\"reliable+faults\"")
      (rows
         (Gate.to_json (E.wirecost_compare ~calls:24 ~window:8 ~seed:1234 ())))
  in
  Alcotest.(check (list string))
    "seed 1234 reliable+faults rows"
    [
      "    {\"workload\": \"chain100\", \"variant\": \"reliable+faults\", \
       \"copied\": 493.7, \"pool_hits\": 155, \"pool_misses\": 3, \
       \"digest\": \"63b15324c00a4e302d3af82b2bed7081\"},";
      "    {\"workload\": \"matrix16x16\", \"variant\": \"reliable+faults\", \
       \"copied\": 2152.4, \"pool_hits\": 155, \"pool_misses\": 3, \
       \"digest\": \"4c4b0a3ae25c41760f1924b9a2aacd3f\"}";
    ]
    lossy

(* the alloc gate's deterministic columns at its CLI defaults (192
   calls, window 16, seed 42), row by row against the checked-in
   BENCH_alloc.json — the arena's engagement counts, the reused objects,
   the gated flag and the reply digests; the minor-words columns are
   measurements and move *)
let alloc_pin () =
  let checked_in =
    In_channel.with_open_text "../BENCH_alloc.json" In_channel.input_all
  in
  let g = E.alloc_compare ~calls:192 ~window:16 ~seed:42 () in
  let rows text =
    List.map
      (fun line ->
        drop_key "minor_words_per_call_heap"
          (drop_key "minor_words_per_call_arena" line))
      (json_rows text)
  in
  Alcotest.(check int) "8 rows" 8 (List.length (json_rows checked_in));
  Alcotest.(check (list string))
    "arena_allocs/arena_resets/arena_fallbacks/reused_objs/gated/digest per row"
    (rows checked_in) (rows (Gate.to_json g))

let single_domain_perf_unenforced () =
  (* a 1-domain run cannot measure speedup: the JSON must say the perf
     check was not enforced, as the text does, and the gate rests on
     the digests alone *)
  let g = small_load () in
  Alcotest.(check bool) "perf check not enforced" true
    (match Gate.verdict g "perf_enforced" with Gate.Unenforced _ -> true | _ -> false);
  Alcotest.(check bool) "json perf_enforced false" true
    (contains (Gate.to_json g) "\n  \"perf_enforced\": false,\n");
  Alcotest.(check bool) "gate_ok" true (Gate.value g "gate_ok" = Gate.Bool true);
  Alcotest.(check (list string)) "no failed checks" [] (Gate.failed g)

let suite =
  [
    ( "gate",
      [
        Alcotest.test_case "golden render" `Quick golden_render;
        Alcotest.test_case "golden json" `Quick golden_json;
        Alcotest.test_case "failed check is named" `Quick failed_check_named;
        Alcotest.test_case "alloc json schema" `Quick alloc_schema;
        Alcotest.test_case "transport json schema" `Quick transport_schema;
        Alcotest.test_case "load json schema (1 domain)" `Quick load_schema;
        Alcotest.test_case "1-domain perf not enforced" `Quick
          single_domain_perf_unenforced;
        Alcotest.test_case "transport columns pinned" `Quick transport_pin;
        Alcotest.test_case "wirecost columns pinned" `Quick wirecost_pin;
        Alcotest.test_case "alloc columns pinned" `Quick alloc_pin;
      ] );
  ]
