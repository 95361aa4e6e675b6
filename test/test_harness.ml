(* Harness tests: paper data integrity, gain computation, rendering,
   and the microbenchmark tables end to end (small sizes). *)

module E = Rmi_harness.Experiment
module Gate = Rmi_harness.Gate
module P = Rmi_harness.Paper_data
module Config = Rmi_runtime.Config

let paper_data_integrity () =
  (* every timing table has the five rows, class first at 0% gain *)
  List.iter
    (fun table ->
      Alcotest.(check int) "five rows" 5 (List.length table);
      List.iter
        (fun (c : Config.t) ->
          Alcotest.(check bool)
            (Printf.sprintf "row %s present" c.Config.name)
            true
            (P.seconds_for table c.Config.name <> None))
        Config.all;
      match P.gain_over_class table "class" with
      | Some g -> Alcotest.(check (float 1e-9)) "class gain 0" 0.0 g
      | None -> Alcotest.fail "no class row")
    [ P.table1_seconds; P.table2_seconds; P.table3_seconds; P.table5_seconds;
      P.table7_us_per_page ]

let paper_gains_match_printed () =
  (* the paper prints 43.3% for the reuse rows of Table 1 *)
  (match P.gain_over_class P.table1_seconds "site + reuse" with
  | Some g -> Alcotest.(check bool) "43.3%" true (Float.abs (g -. 43.3) < 0.1)
  | None -> Alcotest.fail "missing row");
  (* and 18.7% for all optimizations in Table 3 *)
  match P.gain_over_class P.table3_seconds "site + reuse + cycle" with
  | Some g -> Alcotest.(check bool) "18.7%" true (Float.abs (g -. 18.7) < 0.1)
  | None -> Alcotest.fail "missing row"

let stats_tables_have_five_rows () =
  List.iter
    (fun t -> Alcotest.(check int) "rows" 5 (List.length t))
    [ P.table4_stats; P.table6_stats; P.table8_stats ]

let table1_end_to_end () =
  let t = E.table1 () in
  Alcotest.(check int) "five rows" 5 (List.length t.E.rows);
  (* gains relative to class; class itself is 0 *)
  let class_row = List.hd t.E.rows in
  Alcotest.(check string) "class first" "class"
    class_row.E.config.Config.name;
  Alcotest.(check (float 1e-9)) "class gain" 0.0 (E.modeled_gain t class_row);
  (* the reuse rows must dominate: the paper's Table 1 story *)
  let gain name =
    E.modeled_gain t
      (List.find (fun r -> r.E.config.Config.name = name) t.E.rows)
  in
  Alcotest.(check bool) "reuse > site" true
    (gain "site + reuse" > gain "site");
  Alcotest.(check bool) "cycle ~ site (false positive)" true
    (Float.abs (gain "site + cycle" -. gain "site") < 2.0);
  (* rendering mentions every config and the shape summary is all ok *)
  let rendered = E.render_timing t in
  List.iter
    (fun (c : Config.t) ->
      let name = c.Config.name in
      Alcotest.(check bool)
        (Printf.sprintf "mentions %s" name)
        true
        (let n = String.length name in
         let rec has i =
           i + n <= String.length rendered
           && (String.sub rendered i n = name || has (i + 1))
         in
         has 0))
    Config.all;
  let summary = E.shape_summary t in
  Alcotest.(check bool) "no mismatch" true
    (let rec has i =
       i + 8 <= String.length summary
       && (String.sub summary i 8 = "MISMATCH" || has (i + 1))
     in
     not (has 0))

let table2_end_to_end () =
  let t = E.table2 () in
  let gain name =
    E.modeled_gain t
      (List.find (fun r -> r.E.config.Config.name = name) t.E.rows)
  in
  (* Table 2's ordering: everything helps, full opt wins *)
  Alcotest.(check bool) "site > 0" true (gain "site" > 0.0);
  Alcotest.(check bool) "cycle > site" true (gain "site + cycle" > gain "site");
  Alcotest.(check bool) "full is best" true
    (List.for_all
       (fun r -> E.modeled_gain t r <= gain "site + reuse + cycle" +. 1e-9)
       t.E.rows)

let stats_rendering () =
  let t = E.table1 () in
  let s = E.stats_table ~title:"T" t P.table4_stats in
  Alcotest.(check bool) "has content" true (String.length s > 200)

(* golden: every counter cell of the paper's statistics tables (4, 6
   and 8), and of the same statistics behind Tables 1 and 2, for all
   five configs.  The runs are seeded and synchronous, so each cell is
   exact; new_bytes is pinned in bytes, not the rendered MBytes. *)
let stats_tables_pinned () =
  let cells (t : E.timing_table) =
    List.map
      (fun (r : E.row) ->
        let s = r.E.stats in
        ( r.E.config.Config.name,
          Rmi_stats.Metrics.
            [
              s.reused_objs; s.local_rpcs; s.remote_rpcs; s.new_bytes;
              s.cycle_lookups; s.ser_invocations;
            ] ))
      t.E.rows
  in
  let check title t expected =
    Alcotest.(check (list (pair string (list int))))
      title expected (cells t)
  in
  check "Table 1 (linked list)" (E.table1 ())
    [
      ("class", [ 0; 0; 200; 480000; 60000; 20000 ]);
      ("site", [ 0; 0; 200; 480000; 60000; 0 ]);
      ("site + cycle", [ 0; 0; 200; 480000; 60000; 0 ]);
      ("site + reuse", [ 19900; 0; 200; 2400; 60000; 0 ]);
      ("site + reuse + cycle", [ 19900; 0; 200; 2400; 60000; 0 ]);
    ];
  check "Table 2 (array)" (E.table2 ())
    [
      ("class", [ 0; 0; 200; 489600; 10200; 3400 ]);
      ("site", [ 0; 0; 200; 489600; 600; 0 ]);
      ("site + cycle", [ 0; 0; 200; 489600; 0; 0 ]);
      ("site + reuse", [ 3383; 0; 200; 2448; 600; 0 ]);
      ("site + reuse + cycle", [ 3383; 0; 200; 2448; 0; 0 ]);
    ];
  check "Table 4 (LU)" (E.table3 ())
    [
      ("class", [ 0; 588; 652; 12142080; 252960; 84320 ]);
      ("site", [ 0; 588; 652; 12142080; 14880; 0 ]);
      ("site + cycle", [ 0; 588; 652; 12142080; 0; 0 ]);
      ("site + reuse", [ 63138; 588; 652; 3050208; 14880; 0 ]);
      ("site + reuse + cycle", [ 63138; 588; 652; 3050208; 0; 0 ]);
    ];
  check "Table 6 (superoptimizer)" (E.table5 ())
    [
      ("class", [ 0; 10001; 10001; 6051192; 597054; 199018 ]);
      ("site", [ 0; 10001; 10001; 6051192; 597054; 0 ]);
      ("site + cycle", [ 0; 10001; 10001; 6051192; 0; 0 ]);
      ("site + reuse", [ 0; 10001; 10001; 6051192; 597054; 0 ]);
      ("site + reuse + cycle", [ 0; 10001; 10001; 6051192; 0; 0 ]);
    ];
  check "Table 8 (webserver)" (E.table7 ())
    [
      ("class", [ 0; 2500; 2500; 11920000; 60000; 20000 ]);
      ("site", [ 0; 2500; 2500; 11920000; 60000; 0 ]);
      ("site + cycle", [ 0; 2500; 2500; 11920000; 0; 0 ]);
      ("site + reuse", [ 19994; 2500; 2500; 2680; 60000; 0 ]);
      ("site + reuse + cycle", [ 19994; 2500; 2500; 2680; 0; 0 ]);
    ]

let shape_summary_detects_mismatch () =
  (* hand-build a table whose measured winner contradicts the paper *)
  let mk name modeled =
    {
      E.config =
        (match Config.find name with Some c -> c | None -> assert false);
      wall_seconds = modeled;
      modeled_seconds = modeled;
      stats = Rmi_stats.Metrics.zero;
    }
  in
  let t =
    {
      E.id = "fake";
      title = "fake";
      unit_label = "s";
      rows =
        [ mk "class" 1.0; mk "site" 2.0 (* slower than class: wrong *) ;
          mk "site + cycle" 2.0; mk "site + reuse" 2.0;
          mk "site + reuse + cycle" 2.0 ];
      paper = P.table2_seconds;
      per_unit = Fun.id;
    }
  in
  let summary = E.shape_summary t in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "mismatch reported" true (contains summary "MISMATCH")

let faults_compose_with_pipeline () =
  (* --faults alongside --pipeline: every issue discipline rides the
     same seeded lossy schedule and the checksums must agree across
     variants — the gate the CLI enforces with a nonzero exit *)
  let g =
    E.pipeline_compare ~scale:E.Small ~window:4
      ~faults:(42, Rmi_net.Fault_sim.default_lossy)
      ()
  in
  Alcotest.(check int) "two workloads x three variants" 6
    (List.length g.Gate.table.rows);
  Alcotest.(check bool) "checksums agree under faults" true
    (Gate.verdict g "checksums_equal" = Gate.Pass);
  (* the lossy schedule actually fired: the reliable layer had to
     recover at least once in every workload *)
  let recovered w =
    List.exists2
      (fun wl (retries, dups) ->
        wl = Gate.Str w && (retries <> Gate.Int 0 || dups <> Gate.Int 0))
      (Gate.column g "workload")
      (List.combine (Gate.column g "retries") (Gate.column g "dup_drops"))
  in
  Alcotest.(check bool) "faults were injected" true
    (recovered "array16x16" && recovered "list100");
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "title records the seed" true
    (contains g.Gate.title "faults seed=42")

let crash_compare_end_to_end () =
  let g = E.crash_compare ~seed:42 ~calls:40 ~window:8 () in
  Alcotest.(check int) "three variants" 3 (List.length g.Gate.table.rows);
  Alcotest.(check bool) "durable row ok" true
    (Gate.verdict g "durable_ok" = Gate.Pass);
  Alcotest.(check bool) "seeded replay byte-identical" true
    (Gate.verdict g "replay_equal" = Gate.Pass);
  (* the durable schedule logged fault decisions *)
  Alcotest.(check bool) "fault log non-empty" true
    (Gate.value g "digest" <> Gate.Str (Digest.to_hex (Digest.string "")));
  (* golden: the fault-decision digest and every row of the table *)
  Alcotest.check Fixtures.gate_cell "digest"
    (Gate.Str "621740e1b06b0ae93c841b44de8bcdef") (Gate.value g "digest");
  let row variant crashes =
    Gate.
      [
        Str variant; Int 860; Int 0; Int 40; Int crashes; Int crashes; Int 0;
        Int 0; Int 0; Bool true;
      ]
  in
  Alcotest.(check (list (list Fixtures.gate_cell)))
    "rows"
    [ row "fault-free" 0; row "durable crash" 1; row "amnesia crash" 1 ]
    g.Gate.table.rows;
  Alcotest.(check (list string)) "no failed checks" [] (Gate.failed g);
  let rendered = Gate.render g in
  Alcotest.(check bool) "renders" true (String.length rendered > 100)

(* a gate given no calls or an empty window refuses to run instead of
   spinning forever on an empty burst *)
let non_positive_rejected () =
  let rejects what f =
    match f () with
    | (_ : Gate.t) -> Alcotest.failf "%s: ran" what
    | exception Invalid_argument _ -> ()
  in
  rejects "window 0" (fun () -> E.crash_compare ~calls:8 ~window:0 ());
  rejects "calls 0" (fun () -> E.crash_compare ~calls:0 ~window:8 ());
  rejects "tiers window 0" (fun () -> E.tiers_compare ~window:0 ())

let suite =
  [
    ( "harness.paper_data",
      [
        Alcotest.test_case "integrity" `Quick paper_data_integrity;
        Alcotest.test_case "printed gains" `Quick paper_gains_match_printed;
        Alcotest.test_case "stats tables" `Quick stats_tables_have_five_rows;
      ] );
    ( "harness.tables",
      [
        Alcotest.test_case "table1 end to end" `Quick table1_end_to_end;
        Alcotest.test_case "table2 end to end" `Quick table2_end_to_end;
        Alcotest.test_case "stats rendering" `Quick stats_rendering;
        Alcotest.test_case "statistics tables pinned" `Quick
          stats_tables_pinned;
        Alcotest.test_case "shape mismatch detected" `Quick
          shape_summary_detects_mismatch;
        Alcotest.test_case "--faults composes with --pipeline" `Quick
          faults_compose_with_pipeline;
        Alcotest.test_case "crash compare end to end" `Quick
          crash_compare_end_to_end;
        Alcotest.test_case "non-positive calls or window rejected" `Quick
          non_positive_rejected;
      ] );
  ]
