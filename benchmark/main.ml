(* The RMI benchmark: four paper-shaped workloads, measured end to end
   over interleaved closed-loop trials, plus a traced run that splits
   each call by layer.

     main.exe run [--seed N] [--json PATH] [--trace-out PATH]
     main.exe compare A.json B.json [--bench BENCHMARK.json]
     main.exe smoke [--bench BENCHMARK.json]
     main.exe --workload NAME --seed N --seconds S --trace 0|1

   [run] is the full protocol (16 interleaved 1.5 s trials per
   workload, then one traced 1.5 s trial each, ~2 minutes); [compare] applies
   BENCHMARK.json's bounds to two [run] results; [smoke] is the short
   self-check [dune runtest] runs; the last form measures one workload
   for S seconds and prints one JSON line of end-to-end ([--trace 0])
   or per-layer ([--trace 1]) metrics. *)

module W = Workloads
module R = Runner

let default_seed = 42
let holdout_seed = 1234

type plan = {
  trials : int;
  warm : float;
  measure : float;
  traced : (float * float) option;  (* warm-up and measured seconds *)
  reps : int;  (* replay repetitions *)
}

(* Many short trials rather than a few long ones: on a shared host part
   of a trial's noise is fixed for the whole trial (web-lossy-pool's
   per-trial rates spread 0.12 in log terms at 6 s trials and 0.18 at
   1.5 s, not half as much), so more trials in the same time average
   more of it out. *)
let full_plan =
  { trials = 16; warm = 0.25; measure = 1.5; traced = Some (0.25, 1.5); reps = 10_000 }

let smoke_plan = { trials = 1; warm = 0.2; measure = 0.3; traced = Some (0.2, 0.3); reps = 1_000 }

(* one workload in [seconds] of measurement, cut into n >= 5 trials of
   about 1.5 s with [full_plan]'s warm-up; when per-layer metrics are
   asked, the last of them is the traced trial *)
let single_plan ~seconds ~trace =
  let n = max 5 (int_of_float (Float.round (seconds /. full_plan.measure))) in
  let slice = seconds /. float n in
  let warm = full_plan.warm in
  if trace then
    { trials = n - 1; warm; measure = slice; traced = Some (warm, slice); reps = full_plan.reps }
  else { trials = n; warm; measure = slice; traced = None; reps = 0 }

(* trials interleave round-robin across workloads, so a slow phase of
   the host hits every workload alike *)
let execute plan states =
  for _ = 1 to plan.trials do
    List.iter (fun st -> R.add_trial st ~warm:plan.warm ~measure:plan.measure) states
  done;
  match plan.traced with
  | Some (warm, measure) ->
      List.iter (fun st -> R.add_traced st ~warm ~measure ~reps:plan.reps) states
  | None -> ()

(* a workload's metrics, computed once: the pooled quantiles select
   over millions of samples *)
type report = { st : R.state; e2e : R.metric list; extra : R.metric list; layer : R.metric list }

let report st =
  { st; e2e = R.end_to_end st; extra = R.end_to_end_extra st; layer = R.per_layer st }

let all r = r.e2e @ r.extra @ r.layer
let find r name = List.find_opt (fun (x : R.metric) -> x.name = name) (all r)
let wl_name r = r.st.R.w.W.name
let correct reports = List.for_all (fun r -> R.failed r.st = 0) reports

let print_table reports =
  let rows =
    match reports with
    | [] -> []
    | first :: _ ->
        List.map
          (fun (mt : R.metric) ->
            mt.name :: mt.unit_
            :: List.map
                 (fun r ->
                   match find r mt.name with
                   | Some x -> Printf.sprintf "%.6g" x.value
                   | None -> "-")
                 reports)
          (all first)
  in
  print_endline
    (Rmi.Ascii_table.render ~headers:("metric" :: "unit" :: List.map wl_name reports) rows)

let metric_json ?(trials = false) (mt : R.metric) =
  ( mt.name,
    Json.Obj
      ([ ("value", Json.Num mt.value); ("unit", Json.Str mt.unit_) ]
      @
      if trials && mt.per_trial <> [] then
        [ ("trials", Json.Arr (List.map (fun v -> Json.Num v) mt.per_trial)) ]
      else []) )

let nproc () =
  match Unix.open_process_args_in "nproc" [| "nproc" |] with
  | exception Unix.Unix_error _ -> 0
  | ic ->
      let n = try int_of_string (String.trim (input_line ic)) with _ -> 0 in
      ignore (Unix.close_process_in ic : Unix.process_status);
      n

(* ------------------------------------------------------------------ *)
(* subcommands                                                         *)
(* ------------------------------------------------------------------ *)

let run_cmd ~seed ~json ~trace_out =
  let plan = full_plan in
  let cores = nproc () and domains = Domain.recommended_domain_count () in
  let low_cores = min cores domains < 2 in
  if low_cores then
    prerr_endline
      "warning: fewer than 2 cores available; the pool and Sock workloads \
       will contend with the client thread, and this run is marked";
  let t0 = Stats.now_ns () in
  let states = List.map (fun w -> R.prepare w ~seed) W.all in
  execute plan states;
  let wall = Stats.seconds_between t0 (Stats.now_ns ()) in
  let reports = List.map report states in
  print_table reports;
  Printf.printf "seed %d, %d trials x (%g s warm-up + %g s), wall %.1f s\n" seed
    plan.trials plan.warm plan.measure wall;
  let ok = correct reports in
  let result =
    Json.Obj
      [
        ( "meta",
          Json.Obj
            [
              ("seed", Json.Num (float seed));
              ("holdout_seed", Json.Num (float holdout_seed));
              ("trials", Json.Num (float plan.trials));
              ("warm_s", Json.Num plan.warm);
              ("measure_s", Json.Num plan.measure);
              ("traced_measure_s", Json.Num (match plan.traced with Some (_, m) -> m | None -> 0.));
              ("replay_reps", Json.Num (float plan.reps));
              ("nproc", Json.Num (float cores));
              ("recommended_domain_count", Json.Num (float domains));
              ("ocaml_version", Json.Str Sys.ocaml_version);
              ("low_cores", Json.Bool low_cores);
              ("wall_s", Json.Num wall);
            ] );
        ("correct", Json.Bool ok);
        ( "workloads",
          Json.Obj
            (List.map
               (fun r ->
                 ( wl_name r,
                   Json.Obj
                     [
                       ("attempted", Json.Num (float (R.attempted r.st)));
                       ("failed", Json.Num (float (R.failed r.st)));
                       ( "unscaled_rates",
                         Json.Arr
                           (List.map
                              (fun (t : R.trial) -> Json.Num (t.rate *. t.host_speed))
                              (R.trials r.st)) );
                       ("end_to_end", Json.Obj (List.map (metric_json ~trials:true) (r.e2e @ r.extra)));
                       ("per_layer", Json.Obj (List.map metric_json r.layer));
                     ] ))
               reports) );
      ]
  in
  Option.iter (fun path -> Json.write_file path result) json;
  Option.iter
    (fun path ->
      Json.write_file path
        (Json.Obj
           [
             ( "traceEvents",
               Json.Arr (List.concat (List.mapi (fun i st -> R.chrome_events ~pid:i st) states)) );
           ]))
    trace_out;
  if not ok then begin
    prerr_endline "verification FAILED: see error_rate";
    exit 1
  end

let single_cmd ~workload ~seed ~seconds ~trace =
  let w =
    match W.find workload with
    | Some w -> w
    | None ->
        prerr_endline ("unknown workload " ^ workload);
        exit 2
  in
  let st = R.prepare w ~seed in
  execute (single_plan ~seconds ~trace) [ st ];
  let r = report st in
  print_table [ r ];
  List.iter
    (fun (mt : R.metric) ->
      if mt.per_trial <> [] then
        Printf.printf "%s per trial: %s\n" mt.name
          (String.concat " " (List.map (Printf.sprintf "%.6g") mt.per_trial)))
    (r.e2e @ r.extra);
  let ms = if trace then r.layer else r.e2e in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (correct [ r ]));
            ("attempted", Json.Num (float (R.attempted st)));
            ("failed", Json.Num (float (R.failed st)));
            ("metrics", Json.Obj (List.map metric_json ms));
          ]));
  if not (correct [ r ]) then exit 1

(* ------------------------------------------------------------------ *)
(* compare                                                             *)
(* ------------------------------------------------------------------ *)

type verdict = Better | Same | Worse | Unresolved

let verdict_name = function
  | Better -> "better"
  | Same -> "same"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

let compare_cmd ~bench a_path b_path =
  let spec = Json.of_file bench and a = Json.of_file a_path and b = Json.of_file b_path in
  let bounds =
    List.map
      (fun m ->
        ( Json.to_str (Json.member "name" m),
          Json.to_str (Json.member "better" m),
          Json.to_float (Json.member "bound" m) ))
      (Json.to_list (Json.member "end_to_end" spec))
  in
  let wls =
    match Json.member "workloads" a with Json.Obj l -> List.map fst l | _ -> []
  in
  let any_worse = ref false in
  let rows =
    List.concat_map
      (fun wl ->
        let side j = Json.member wl (Json.member "workloads" j) in
        let e2e j name = Json.member name (Json.member "end_to_end" (side j)) in
        let value j name = Json.to_float (Json.member "value" (e2e j name)) in
        let trials j name =
          List.map Json.to_float (Json.to_list (Json.member "trials" (e2e j name)))
        in
        let metric_rows =
          List.map
            (fun (name, better, bound) ->
              let va = value a name and vb = value b name in
              let sa = Stats.spread (trials a name) and sb = Stats.spread (trials b name) in
              let change = (vb -. va) /. Float.abs va in
              let gain = if better = "lower" then -.change else change in
              let v =
                if not (sa <= bound && sb <= bound) then Unresolved
                else if gain < -.bound then Worse
                else if gain > bound then Better
                else Same
              in
              if v = Worse then any_worse := true;
              [
                wl; name; Printf.sprintf "%.6g" va; Printf.sprintf "%.6g" vb;
                Printf.sprintf "%+.1f%%" (100. *. change);
                Printf.sprintf "%.1f%%" (100. *. bound);
                Printf.sprintf "%.1f%%" (100. *. sa);
                Printf.sprintf "%.1f%%" (100. *. sb);
                verdict_name v;
              ])
            bounds
        in
        let ea = value a "error_rate" and eb = value b "error_rate" in
        if eb > ea then any_worse := true;
        metric_rows
        @ [
            [
              wl; "error_rate"; Printf.sprintf "%g" ea; Printf.sprintf "%g" eb; "";
              "+0"; ""; "";
              (if eb > ea then "worse" else if eb < ea then "better" else "same");
            ];
          ])
      wls
  in
  print_endline
    (Rmi.Ascii_table.render
       ~headers:
         [ "workload"; "metric"; "A"; "B"; "B vs A"; "bound"; "IQR A"; "IQR B"; "verdict" ]
       rows);
  Printf.printf
    "IQR = interquartile range of the per-trial values as a share of their \
     median; a side whose IQR exceeds the bound is unresolved.\n";
  if !any_worse then exit 1

(* ------------------------------------------------------------------ *)
(* smoke                                                               *)
(* ------------------------------------------------------------------ *)

let smoke_cmd ~bench =
  let spec = Json.of_file bench in
  let states = List.map (fun w -> R.prepare w ~seed:default_seed) W.all in
  execute smoke_plan states;
  let reports = List.map report states in
  print_table reports;
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  List.iter
    (fun section ->
      List.iter
        (fun entry ->
          let name = Json.to_str (Json.member "name" entry) in
          let unit_ = Json.to_str (Json.member "unit" entry) in
          List.iter
            (fun r ->
              match find r name with
              | None -> problem "%s: %s not reported" (wl_name r) name
              | Some x ->
                  if x.unit_ <> unit_ then
                    problem "%s: %s reported in %s, BENCHMARK.json says %s" (wl_name r) name
                      x.unit_ unit_;
                  if not (Float.is_finite x.value) then
                    problem "%s: %s is not a finite number" (wl_name r) name)
            reports)
        (Json.to_list (Json.member section spec)))
    [ "end_to_end"; "per_layer" ];
  List.iter
    (fun r ->
      let get name = match find r name with Some x -> x.value | None -> Float.nan in
      if get "error_rate" <> 0. then problem "%s: error_rate %g" (wl_name r) (get "error_rate");
      if not (get "trace.coverage" >= 0.99) then
        problem "%s: trace.coverage %g < 0.99" (wl_name r) (get "trace.coverage"))
    reports;
  match !problems with
  | [] -> print_endline "smoke: ok"
  | ps ->
      List.iter (fun p -> prerr_endline ("smoke: " ^ p)) (List.rev ps);
      exit 1

(* ------------------------------------------------------------------ *)
(* argument parsing                                                    *)
(* ------------------------------------------------------------------ *)

let usage =
  "usage: main.exe run [--seed N] [--json PATH] [--trace-out PATH]\n\
  \       main.exe compare A.json B.json [--bench BENCHMARK.json]\n\
  \       main.exe smoke [--bench BENCHMARK.json]\n\
  \       main.exe --workload NAME --seed N --seconds S --trace 0|1"

let () =
  let seed = ref default_seed in
  let json = ref None and trace_out = ref None and bench = ref "BENCHMARK.json" in
  let workload = ref None and seconds = ref 10. and trace = ref 0 in
  let positional = ref [] in
  let specs =
    [
      ("--seed", Arg.Set_int seed, "N workload seed (default 42; 1234 is the hold-out)");
      ("--json", Arg.String (fun s -> json := Some s), "PATH write the run's result");
      ("--trace-out", Arg.String (fun s -> trace_out := Some s), "PATH Chrome trace of the traced run");
      ("--bench", Arg.Set_string bench, "PATH the BENCHMARK.json holding names and bounds");
      ("--workload", Arg.String (fun s -> workload := Some s), "NAME measure one workload");
      ("--seconds", Arg.Set_float seconds, "S measured seconds (with --workload)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics (with --workload)");
    ]
  in
  (try Arg.parse_argv Sys.argv specs (fun a -> positional := a :: !positional) usage with
  | Arg.Bad msg ->
      prerr_string msg;
      exit 2
  | Arg.Help msg ->
      print_string msg;
      exit 0);
  if !seconds <= 0. || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  match (!workload, List.rev !positional) with
  | Some workload, [] ->
      single_cmd ~workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
  | None, [ "run" ] -> run_cmd ~seed:!seed ~json:!json ~trace_out:!trace_out
  | None, [ "compare"; a; b ] -> compare_cmd ~bench:!bench a b
  | None, [ "smoke" ] -> smoke_cmd ~bench:!bench
  | _ ->
      prerr_endline usage;
      exit 2
