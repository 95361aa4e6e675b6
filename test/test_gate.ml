(* Gate: the one report record every harness gate builds.  A golden
   render and JSON of a hand-built gate, the check bookkeeping, and the
   JSON key schema of fresh small gate runs against the checked-in
   BENCH_*.json artifacts — the CI `sed` column diffs depend on those
   keys and their order. *)

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
    (Gate.to_json sample);
  (* an untitled gate (the bench wire report) has no "title" key *)
  let untitled = Gate.to_json { sample with title = "" } in
  Alcotest.(check string) "untitled opens with the first field" "{\n  \"calls\": 8,"
    (String.sub untitled 0 15)

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
  check_schema
    ~row:(fun l -> contains l "\"domains\": 1,")
    "BENCH_load.json" (small_load ())

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
      ] );
  ]
