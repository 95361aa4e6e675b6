module Config = Rmi_runtime.Config
module Fabric = Rmi_runtime.Fabric
module Metrics = Rmi_stats.Metrics
module Costmodel = Rmi_net.Costmodel
module Fault_sim = Rmi_net.Fault_sim
module Chaos = Rmi_net.Chaos
module Value = Rmi_serial.Value
module Plan = Rmi_core.Plan

type scale = Small | Paper

type row = {
  config : Config.t;
  wall_seconds : float;
  modeled_seconds : float;
  stats : Metrics.snapshot;
}

type timing_table = {
  id : string;
  title : string;
  unit_label : string;
  rows : row list;
  paper : (string * float) list;
  per_unit : float -> float;
}

let model = Costmodel.myrinet_2003

let run_all_configs run_one =
  List.map
    (fun config ->
      let wall, stats = run_one config in
      {
        config;
        wall_seconds = wall;
        modeled_seconds = Costmodel.modeled_seconds model stats;
        stats;
      })
    Config.all

let find_class_row t =
  match List.find_opt (fun r -> r.config.Config.name = "class") t.rows with
  | Some r -> r
  | None -> invalid_arg "timing table without a class row"

let modeled_gain t row =
  let base = (find_class_row t).modeled_seconds in
  if base = 0.0 then 0.0 else 100.0 *. (base -. row.modeled_seconds) /. base

let wall_gain t row =
  let base = (find_class_row t).wall_seconds in
  if base = 0.0 then 0.0 else 100.0 *. (base -. row.wall_seconds) /. base

(* ------------------------------------------------------------------ *)
(* the five timing tables                                              *)
(* ------------------------------------------------------------------ *)

let table1 ?(scale = Small) ?(mode = Fabric.Sync) ?backend () =
  let params =
    match scale with
    | Small -> { Rmi_apps.Linked_list.elements = 100; repetitions = 200 }
    | Paper -> { Rmi_apps.Linked_list.elements = 100; repetitions = 2000 }
  in
  let rows =
    run_all_configs (fun config ->
        let r = Rmi_apps.Linked_list.run ?backend ~config ~mode params in
        (r.Rmi_apps.Linked_list.wall_seconds, r.Rmi_apps.Linked_list.stats))
  in
  {
    id = "table1";
    title =
      Printf.sprintf "Table 1: LinkedList, %d elements, %d repetitions, 2 CPUs"
        params.elements params.repetitions;
    unit_label = "s";
    rows;
    paper = Paper_data.table1_seconds;
    per_unit = Fun.id;
  }

let table2 ?(scale = Small) ?(mode = Fabric.Sync) ?backend () =
  let params =
    match scale with
    | Small -> { Rmi_apps.Array_bench.n = 16; repetitions = 200 }
    | Paper -> { Rmi_apps.Array_bench.n = 16; repetitions = 2000 }
  in
  let rows =
    run_all_configs (fun config ->
        let r = Rmi_apps.Array_bench.run ?backend ~config ~mode params in
        (r.Rmi_apps.Array_bench.wall_seconds, r.Rmi_apps.Array_bench.stats))
  in
  {
    id = "table2";
    title =
      Printf.sprintf "Table 2: 2D array transmission, %dx%d, %d repetitions, 2 CPUs"
        params.n params.n params.repetitions;
    unit_label = "s";
    rows;
    paper = Paper_data.table2_seconds;
    per_unit = Fun.id;
  }

let table3 ?(scale = Small) ?(mode = Fabric.Sync) ?backend () =
  let params =
    match scale with
    | Small -> { Rmi_apps.Lu.n = 256; block_size = 16 }
    | Paper -> { Rmi_apps.Lu.n = 1024; block_size = 16 }
  in
  let rows =
    run_all_configs (fun config ->
        let r = Rmi_apps.Lu.run ?backend ~config ~mode params in
        if r.Rmi_apps.Lu.residual > 1e-6 then
          failwith
            (Printf.sprintf "LU diverged under %s: residual %g"
               config.Config.name r.Rmi_apps.Lu.residual);
        (r.Rmi_apps.Lu.wall_seconds, r.Rmi_apps.Lu.stats))
  in
  {
    id = "table3";
    title =
      Printf.sprintf "Table 3: LU runtime, %dx%d matrix (block %d), 2 CPUs"
        params.n params.n params.block_size;
    unit_label = "s";
    rows;
    paper = Paper_data.table3_seconds;
    per_unit = Fun.id;
  }

let table5 ?(scale = Small) ?(mode = Fabric.Sync) ?backend () =
  let params =
    match scale with
    | Small ->
        { Rmi_apps.Superopt.default_params with max_len = 2; max_candidates = 20_000 }
    | Paper ->
        (* the paper tests 10.5M sequences of up to three instructions *)
        { Rmi_apps.Superopt.default_params with max_len = 3;
          max_candidates = 10_500_000 }
  in
  let rows =
    run_all_configs (fun config ->
        let r = Rmi_apps.Superopt.run ?backend ~config ~mode params in
        (r.Rmi_apps.Superopt.wall_seconds, r.Rmi_apps.Superopt.stats))
  in
  {
    id = "table5";
    title = "Table 5: Superoptimizer exhaustive search, 2 CPUs";
    unit_label = "s";
    rows;
    paper = Paper_data.table5_seconds;
    per_unit = Fun.id;
  }

let table7 ?(scale = Small) ?(mode = Fabric.Sync) ?backend () =
  let params =
    match scale with
    | Small -> { Rmi_apps.Webserver.pages = 64; page_bytes = 2048; requests = 5000 }
    | Paper -> { Rmi_apps.Webserver.pages = 64; page_bytes = 2048; requests = 100_000 }
  in
  let requests = params.requests in
  let rows =
    run_all_configs (fun config ->
        let r = Rmi_apps.Webserver.run ?backend ~config ~mode params in
        (r.Rmi_apps.Webserver.wall_seconds, r.Rmi_apps.Webserver.stats))
  in
  {
    id = "table7";
    title =
      Printf.sprintf "Table 7: Webserver, us per webpage retrieval (%d requests), 2 CPUs"
        requests;
    unit_label = "us/page";
    rows;
    paper = Paper_data.table7_us_per_page;
    per_unit = (fun wall -> wall *. 1e6 /. float_of_int requests);
  }

(* ------------------------------------------------------------------ *)
(* shared workload plumbing                                            *)
(* ------------------------------------------------------------------ *)

(* the one result of a one-workload spec on a local fabric *)
let run_one spec =
  match Driver.run spec with
  | [ r ] -> r
  | _ -> invalid_arg "Experiment.run_one: not a one-workload spec"

(* a fresh [n]-machine schedule for [(seed, profile)] *)
let schedule ~n = function
  | None -> Driver.No_faults
  | Some (seed, profile) -> Driver.Schedule (Fault_sim.create ~seed ~n profile)

(* every workload x every variant, run every way in order: one row
   [(workload, variant, results)] per pair *)
let cross workloads variants ways run =
  List.concat_map
    (fun (w : Driver.workload) ->
      List.map (fun v -> (w.name, v, List.map (run w v) ways)) variants)
    workloads

(* no call failed and every run agrees with the first on [same] *)
let agree same = function
  | [] -> true
  | first :: _ as runs ->
      List.for_all (fun (r : Driver.result) -> r.failed = 0 && same first r) runs

let all_agree same rows = List.for_all (fun (_, _, runs) -> agree same runs) rows

(* the two runs of a row run two ways *)
let two : Driver.result list -> Driver.result * Driver.result = function
  | [ a; b ] -> (a, b)
  | _ -> invalid_arg "Experiment.two: not a two-way row"

let same_digest (a : Driver.result) (b : Driver.result) = String.equal a.digest b.digest
let same_sum (a : Driver.result) (b : Driver.result) = Float.equal a.sum b.sum

(* the ahead-of-time plan of a workload's callsite (1): one argument
   and the return of statically known shapes, no cycles; [reuse] is
   the escape verdict that the argument outlives no call *)
let aot_plan ?(defs = [||]) ~reuse arg ret =
  {
    Plan.callsite = 1;
    defs;
    args = [| arg |];
    ret = Some ret;
    cycle_args = false;
    cycle_ret = false;
    reuse_args = [| reuse |];
    reuse_ret = false;
    non_escaping = reuse;
    version = 1;
    polluted = false;
  }

(* ------------------------------------------------------------------ *)
(* pipelining / batching comparison                                    *)
(* ------------------------------------------------------------------ *)

(* the same N-RMI workload three ways: synchronous, pipelined futures,
   pipelined futures over coalescing envelopes.  The checksum column
   proves all three computed the same thing; msgs_sent x the cost
   model's per-message latency is where batching pays.

   [faults] composes the comparison with a seeded lossy network: every
   variant switches to the reliable transport and gets a {e fresh}
   simulator from the same seed (the schedules diverge with the
   traffic, the checksums must not). *)
let pipeline_compare ?(scale = Small) ?(mode = Fabric.Sync) ?(window = 16)
    ?faults () =
  let config =
    match faults with
    | None -> Config.site_reuse_cycle
    | Some _ -> Config.with_reliable Config.site_reuse_cycle
  in
  let sim () =
    Option.map (fun (seed, profile) -> Fault_sim.create ~seed ~n:2 profile) faults
  in
  let repetitions = match scale with Small -> 200 | Paper -> 2000 in
  let array_params = { Rmi_apps.Array_bench.n = 16; repetitions } in
  let list_params = { Rmi_apps.Linked_list.elements = 100; repetitions } in
  let workloads =
    [
      ( "array16x16",
        fun ~pipelined config ->
          let r =
            if pipelined then
              Rmi_apps.Array_bench.run_pipelined ~window ?faults:(sim ())
                ~config ~mode array_params
            else
              Rmi_apps.Array_bench.run ?faults:(sim ()) ~config ~mode array_params
          in
          (r.wall_seconds, r.stats, r.sum_received) );
      ( "list100",
        fun ~pipelined config ->
          let r =
            if pipelined then
              Rmi_apps.Linked_list.run_pipelined ~window ?faults:(sim ())
                ~config ~mode list_params
            else
              Rmi_apps.Linked_list.run ?faults:(sim ()) ~config ~mode list_params
          in
          (r.wall_seconds, r.stats, float_of_int r.cells_received) );
    ]
  in
  let variants =
    [
      ("sequential", false, config);
      ("pipelined", true, config);
      ("pipelined + batch", true, Config.with_batching config);
    ]
  in
  let runs =
    List.concat_map
      (fun (w, run) ->
        List.map
          (fun (v, pipelined, config) -> (w, v, run ~pipelined config))
          variants)
      workloads
  in
  let first_sum w =
    match List.find (fun (w', _, _) -> w' = w) runs with _, _, (_, _, c) -> c
  in
  Gate.{
    title =
      Printf.sprintf
        "pipeline: 2D array %dx%d and LinkedList of %d, %d repetitions, \
         window %d%s"
        array_params.n array_params.n list_params.elements repetitions window
        (match faults with
        | None -> ""
        | Some (seed, _) -> Printf.sprintf ", faults seed=%d" seed);
    fields =
      [
        check "checksums_equal"
          (List.for_all (fun (w, _, (_, _, c)) -> Float.equal c (first_sum w)) runs);
      ];
    table =
      {
        columns =
          [
            "workload"; "variant"; "msgs"; "batches"; "max_inflight"; "bytes";
            "retries"; "dup_drops"; "modeled_s"; "wall_s"; "checksum";
          ];
        rows =
          List.map
            (fun (w, v, (wall, (s : Metrics.snapshot), c)) ->
              Gate.
                [
                  Str w; Str v; Int s.msgs_sent; Int s.batches_sent;
                  Int s.outstanding_hwm; Int s.bytes_sent; Int s.retries;
                  Int s.dup_drops; Float (4, Costmodel.modeled_seconds model s);
                  Float (4, wall); Float (0, c);
                ])
            runs;
      };
    extra = [];
    notes = [];
  }

(* ------------------------------------------------------------------ *)
(* crash / restart / failover comparison                               *)
(* ------------------------------------------------------------------ *)

let crash_meta = Rmi_serial.Class_meta.make [ ("Box", [ ("v", Jir.Types.Tint) ]) ]

let crash_box v =
  let b = Value.new_obj ~cls:0 ~nfields:1 in
  b.Value.fields.(0) <- Value.Int v;
  Value.Obj b

(* [calls] pipelined echo RMIs from machine 0 to machine 1 over the
   reliable transport, under [faults] (a crash schedule on the
   simulated backend, a chaos injector over real sockets): the result
   and how often the handler actually ran (exactly-once evidence).
   [?record] sees the boxed value of every handler execution (per-value
   evidence — the checksum alone cannot distinguish a re-execution of
   an idempotent echo). *)
let run_echo ?(record = ignore) ?(backend = Fabric.Sim) ~faults ~calls ~window
    () =
  let execs = ref 0 in
  let echo =
    Driver.
      {
        name = "echo";
        meta = crash_meta;
        plan = None;
        handler =
          (function
          | [| Value.Obj { fields = [| Value.Int v |]; _ } |] ->
              incr execs;
              record v;
              Some (Value.Int (v + 1))
          | _ -> failwith "bad box");
        args = (fun i -> [| crash_box (i + 1) |]);
        fold = (function Some (Value.Int v) -> float_of_int v | _ -> nan);
      }
  in
  let config =
    (* a restart outage can outlast one transport budget; give the RPC
       layer enough resends to ride through it *)
    Config.with_failover
      { Config.default_failover with Config.max_call_retries = 4 }
      (Config.with_reliable Config.class_)
  in
  let r =
    run_one
      {
        fabric = Local { mode = Fabric.Sync; backend; servers = 1; faults };
        config; workloads = [ echo ]; warmup = 0; window; calls;
        digest_of = Numbered; timed = Calls; snapshot_every = None;
      }
  in
  (r, !execs)

(* one row per crash variant: its checksum must match the fault-free
   baseline's and no call may have failed ([ok]); [counters] picks the
   per-gate recovery columns *)
let crash_rows ~counters runs =
  let base_sum = match runs with (_, (r, _)) :: _ -> r.Driver.sum | [] -> 0.0 in
  List.map
    (fun (variant, ((r : Driver.result), execs)) ->
      let s = r.counters in
      Gate.(
        [
          Str variant; Int (int_of_float r.sum); Int r.failed; Int execs;
          Int s.crashes; Int s.restarts;
        ]
        @ List.map (fun c -> Int c) (counters s)
        @ [ Int s.stale_drops; Bool (r.sum = base_sum && r.failed = 0) ]))
    runs

(* the same workload three ways: fault-free, under a seeded durable
   crash/restart schedule (results and execution counts must match the
   baseline exactly — the reply cache survives), and under the same
   schedule with an amnesiac victim (retried calls may re-execute).
   The durable run is replayed from its seed to pin determinism. *)
let crash_compare ?(seed = 42) ?(crashes = 1) ?(calls = 80) ?(window = 8) () =
  let sim durability =
    let s = Fault_sim.create ~seed ~n:2 Fault_sim.lossless in
    Fault_sim.set_crash_plan s
      (Fault_sim.seeded_crash_plan ~seed ~n:2 ~crashes ~durability ());
    s
  in
  let run faults = run_echo ~faults ~calls ~window () in
  let ((base, _) as fault_free) = run No_faults in
  let dsim = sim Fault_sim.Durable in
  let ((durable, _) as durable_run) = run (Schedule dsim) in
  let dsim2 = sim Fault_sim.Durable in
  let replay, _ = run (Schedule dsim2) in
  let amnesia = run (Schedule (sim Fault_sim.Amnesia)) in
  Gate.{
    title =
      Printf.sprintf
        "crash/restart: %d echo calls, window %d, seed %d, %d crash(es)" calls
        window seed crashes;
    fields =
      [
        Value
          ("digest", Str (Digest.to_hex (Digest.string (Fault_sim.digest dsim))));
        check "durable_ok" (durable.sum = base.sum && durable.failed = 0);
        check "replay_equal"
          (String.equal (Fault_sim.digest dsim) (Fault_sim.digest dsim2)
          && durable.sum = replay.sum);
      ];
    table =
      {
        columns =
          [
            "variant"; "checksum"; "failed"; "executions"; "crashes"; "restarts";
            "rpc_retries"; "cache_hits"; "stale_drops"; "ok";
          ];
        rows =
          crash_rows
            ~counters:(fun s -> [ s.call_retries; s.reply_cache_hits ])
            [
              ("fault-free", fault_free); ("durable crash", durable_run);
              ("amnesia crash", amnesia);
            ];
      };
    extra = [];
    notes = [ "digest: MD5 of the durable run's fault-decision log" ];
  }

(* ------------------------------------------------------------------ *)
(* chaos: the crash workloads over real TCP (PR 8)                     *)
(* ------------------------------------------------------------------ *)

(* the full injector one seed buys: a moderately lossy link schedule, a
   seeded durable (or amnesiac) kill/restart and a seeded connection
   plan of TCP severs and endpoint stalls, all on one frame clock *)
let chaos_injector ~seed durability =
  let n = 2 in
  let fs = Fault_sim.create ~seed ~n Fault_sim.default_lossy in
  Fault_sim.set_crash_plan fs
    (Fault_sim.seeded_crash_plan ~seed ~n ~crashes:1 ~durability ());
  Chaos.of_fault_sim ~n ~plan:(Chaos.seeded_plan ~seed ~n ()) fs

(* the durable exactly-once property over real sockets, one seed: no
   call failed, the reply checksum is the closed form
   [calls * (calls + 3) / 2], the handler ran exactly [calls] times
   and no boxed value executed twice.  The chaos gate sweeps this over
   a seed range; test/test_chaos.ml drives it as a QCheck property. *)
let chaos_exactly_once ?(calls = 24) ?(window = 6) ~seed () =
  let counts = Hashtbl.create 64 in
  let record v =
    Hashtbl.replace counts v
      (1 + Option.value ~default:0 (Hashtbl.find_opt counts v))
  in
  let r, execs =
    run_echo ~backend:Fabric.Sock
      ~faults:(Injector (chaos_injector ~seed Fault_sim.Durable))
      ~record ~calls ~window ()
  in
  r.failed = 0
  && r.sum = float_of_int (calls * (calls + 3) / 2)
  && execs = calls
  && Hashtbl.length counts = calls
  && Hashtbl.fold (fun _ c ok -> ok && c = 1) counts true

(* the PR 3 crash comparison lifted onto the socket transport: the
   echo workload fault-free over loopback TCP, under a seeded chaos
   injector with a durable victim (exactly-once must survive injected
   loss, severed connections, stalls and the kill/restart), under the
   same schedule with an amnesiac victim (checksum must still match —
   the echo is idempotent), plus the determinism gates: the durable
   run replayed from its seed must produce the identical issue-order
   reply stream, the chaos frame schedule must be byte-identical to
   the bare [Fault_sim] schedule on a synthetic parity run, and every
   seed of [sweep] must pass {!chaos_exactly_once}. *)
let chaos_compare ?(seed = 42) ?(calls = 80) ?(window = 8) ?(sweep = 300) () =
  let run durability =
    run_echo ~backend:Fabric.Sock
      ~faults:(Injector (chaos_injector ~seed durability))
      ~calls ~window ()
  in
  let ((_, base_execs) as fault_free) =
    run_echo ~backend:Fabric.Sock ~faults:No_faults ~calls ~window ()
  in
  let ((durable, d_execs) as durable_run) = run Fault_sim.Durable in
  let replay, _ = run Fault_sim.Durable in
  let amnesia = run Fault_sim.Amnesia in
  let parity_equal =
    let chaos_digest, bare_digest = Chaos.sim_parity ~seed ~n:2 ~frames:400 () in
    String.equal chaos_digest bare_digest
  in
  let sweep_failed =
    List.filter
      (fun s -> not (chaos_exactly_once ~seed:s ()))
      (List.init sweep (fun i -> (seed * 1000) + i))
  in
  let runs = [ fault_free; durable_run; amnesia ] in
  (* exactly-once under the durable injector: every row ok and the
     handler ran precisely as often as in the fault-free baseline *)
  let exactly_once = agree same_sum (List.map fst runs) && d_execs = base_execs in
  let replay_equal =
    String.equal durable.digest replay.digest && durable.sum = replay.sum
  in
  Gate.{
    title =
      Printf.sprintf
        "chaos over loopback TCP: %d echo calls, window %d, seed %d, %d-seed \
         sweep"
        calls window seed sweep;
    fields =
      [
        (* the artifact's [ok] is the whole verdict, which CI greps; as a
           check it stands for exactly-once, the rest being checks of
           their own *)
        Check
          ( "ok",
            Bool (exactly_once && replay_equal && parity_equal && sweep_failed = []),
            if exactly_once then Pass else Fail );
        check "replay_equal" replay_equal;
        check "parity_equal" parity_equal;
        Value ("digest", Str durable.digest);
        Value ("sweep_seeds", Int sweep);
        Check
          ( "sweep_failed",
            Ints sweep_failed,
            if sweep_failed = [] then Pass else Fail );
      ];
    table =
      {
        columns =
          [
            "variant"; "checksum"; "failed"; "executions"; "crashes"; "restarts";
            "arq_retries"; "dup_drops"; "stale_drops"; "ok";
          ];
        rows =
          crash_rows
            ~counters:(fun s -> [ s.retries; s.dup_drops ])
            (List.combine [ "fault-free"; "durable chaos"; "amnesia chaos" ] runs);
      };
    extra = [];
    notes = [];
  }

(* ------------------------------------------------------------------ *)
(* tier comparison: generic vs AOT vs adaptive                         *)
(* ------------------------------------------------------------------ *)

let tier_meta =
  Rmi_serial.Class_meta.make
    [ ("Pair", [ ("a", Jir.Types.Tint); ("b", Jir.Types.Tint) ]) ]

(* the compiled plan an AOT run would install for the swap site: both
   the argument and the return are a statically-known Pair *)
let tier_plan =
  let pair = Plan.S_obj { cls = 0; fields = [| Plan.S_int; Plan.S_int |] } in
  aot_plan ~reuse:false pair pair

let tier_pair a b =
  let p = Value.new_obj ~cls:0 ~nfields:2 in
  p.Value.fields.(0) <- Value.Int a;
  p.Value.fields.(1) <- Value.Int b;
  Value.Obj p

(* call [i] swaps the pair [(i + 1, 3 (i + 1))] *)
let swap =
  Driver.
    {
      name = "swap";
      meta = tier_meta;
      plan = Some tier_plan;
      handler =
        (function
        | [| Value.Obj { fields = [| a; b |]; _ } |] ->
            let r = Value.new_obj ~cls:0 ~nfields:2 in
            r.Value.fields.(0) <- b;
            r.Value.fields.(1) <- a;
            Some (Value.Obj r)
        | _ -> failwith "bad pair");
      args = (fun i -> [| tier_pair (i + 1) ((i + 1) * 3) |]);
      fold = (fun _ -> 0.0);
    }

(* [calls] swap RMIs from machine 0 to machine 1, one in flight, the
   wire counters snapshotted every [window] calls: the per-window
   [(calls, bytes, msgs)] deltas are the warmup curve.  The reply
   digest lets the three variants be compared byte for byte. *)
let tiers_compare ?(calls = 64) ?(window = 8) ?hot_threshold () =
  let hot = Option.value hot_threshold ~default:Config.default_hot_threshold in
  let variants =
    [
      ("generic", Config.class_);
      ("aot", Config.site_reuse_cycle);
      ("adaptive", Config.with_adaptive ~hot_threshold:hot Config.site_reuse_cycle);
    ]
  in
  let results =
    List.map
      (fun (name, config) ->
        run_one
          {
            fabric =
              Local
                { mode = Fabric.Sync; backend = Fabric.Sim; servers = 1; faults = No_faults };
            config = { config with Config.name }; workloads = [ swap ]; warmup = 0;
            window = 1; calls; digest_of = Replies ';'; timed = Calls;
            snapshot_every = Some window;
          })
      variants
  in
  (* per window: its calls and the bytes and messages they sent *)
  let curves =
    List.map
      (fun (r : Driver.result) ->
        snd
          (List.fold_left_map
             (fun (j, (last : Metrics.snapshot)) (s : Metrics.snapshot) ->
               ( (j + 1, s),
                 ( min window (calls - (j * window)),
                   s.bytes_sent - last.bytes_sent,
                   s.msgs_sent - last.msgs_sent ) ))
             (0, Metrics.zero) r.snapshots))
      results
  in
  let last l = List.nth l (List.length l - 1) in
  (* post-warmup the adaptive tier must spend exactly the AOT bytes and
     messages per window (same plan, same wire encoding) *)
  let converged =
    match (results, curves) with
    | [ _; _; (adaptive : Driver.result) ], [ _; aot; ad ] ->
        last aot = last ad && adaptive.counters.tier_promotions > 0
    | _ -> false
  in
  let per_call ws i =
    let n, bytes, _ = List.nth ws i in
    Gate.Float (1, float_of_int bytes /. float_of_int n)
  in
  Gate.{
    title =
      Printf.sprintf "tiers: %d swap calls, warmup window %d, hot threshold %d"
        calls window hot;
    fields =
      [ check "replies_equal" (agree same_digest results); check "converged" converged ];
    table =
      {
        columns =
          [
            "variant"; "bytes"; "msgs"; "promoted"; "deopts"; "cache_hits";
            "cache_misses"; "digest";
          ];
        rows =
          List.map2
            (fun (name, _) (r : Driver.result) ->
              let s = r.counters in
              [
                Str name; Int s.bytes_sent; Int s.msgs_sent; Int s.tier_promotions;
                Int s.tier_deopts; Int s.plan_cache_hits; Int s.plan_cache_misses;
                Str r.digest;
              ])
            variants results;
      };
    extra =
      [
        ( "warmup",
          {
            columns =
              "window"
              :: List.map (fun (name, _) -> name ^ "_bytes_per_call") variants;
            rows =
              List.init
                (List.length (List.nth curves 2))
                (fun i -> Int (i + 1) :: List.map (fun ws -> per_call ws i) curves);
          } );
      ];
    notes = [];
  }

(* ------------------------------------------------------------------ *)
(* wirecost: the copies of the zero-copy wire path                     *)
(* ------------------------------------------------------------------ *)

(* the paper-table message shapes: Table 1's linked chain and Table 2's
   2D double matrix, sent through the generic serializer so the
   comparison isolates the wire path from plan specialization *)
let wire_meta =
  Rmi_serial.Class_meta.make
    [ ("Cell", [ ("v", Jir.Types.Tint); ("next", Jir.Types.Tobject 0) ]) ]

let wire_chain n =
  let rec go acc k =
    if k = 0 then acc
    else begin
      let c = Value.new_obj ~cls:0 ~nfields:2 in
      c.Value.fields.(0) <- Value.Int k;
      c.Value.fields.(1) <- acc;
      go (Value.Obj c) (k - 1)
    end
  in
  go Value.Null n

let rec wire_chain_sum = function
  | Value.Null -> 0
  | Value.Obj o ->
      (match o.Value.fields.(0) with Value.Int v -> v | _ -> 0)
      + wire_chain_sum o.Value.fields.(1)
  | _ -> 0

let wire_matrix n =
  let outer = Value.new_rarr (Jir.Types.Tarray Jir.Types.Tdouble) n in
  for i = 0 to n - 1 do
    let inner = Value.new_darr n in
    for j = 0 to n - 1 do
      inner.Value.d.(j) <- float_of_int ((i * n) + j)
    done;
    outer.Value.ra.(i) <- Value.Darr inner
  done;
  Value.Rarr outer

let wire_matrix_sum = function
  | Value.Rarr outer ->
      Array.fold_left
        (fun acc row ->
          match row with
          | Value.Darr inner -> acc +. Array.fold_left ( +. ) 0.0 inner.Value.d
          | _ -> acc)
        0.0 outer.Value.ra
  | _ -> 0.0

(* chain100 and matrix16x16, every call sending the same argument *)
let wire_workloads () =
  let chain = wire_chain 100 and matrix = wire_matrix 16 in
  Driver.
    [
      {
        name = "chain100";
        meta = wire_meta;
        plan = None;
        handler = (fun args -> Some (Value.Int (wire_chain_sum args.(0))));
        args = (fun _ -> [| chain |]);
        fold = (function Some (Value.Int v) -> float_of_int v | _ -> nan);
      };
      {
        name = "matrix16x16";
        meta = wire_meta;
        plan = None;
        handler = (fun args -> Some (Value.Double (wire_matrix_sum args.(0))));
        args = (fun _ -> [| matrix |]);
        fold = (function Some (Value.Double v) -> v | _ -> nan);
      };
    ]

(* one variant on the simulated interconnect: [warmup] then [calls]
   RMIs, digesting every physical frame before the fault simulator;
   minor words and wall time cover the calls after the warmup *)
let framed_spec ~config ~faults ~warmup ~window ~calls w =
  Driver.
    {
      fabric =
        Local
          { mode = Fabric.Sync; backend = Fabric.Sim; servers = 1;
            faults = schedule ~n:2 faults };
      config; workloads = [ w ]; warmup; window; calls; digest_of = Frames;
      timed = Calls; snapshot_every = None;
    }

(* every paper-table message shape x every transport variant: the
   copies the zero-copy wire path makes per call, its pool traffic and
   the digest of its frame stream.  The [wirecost] gate checks that the
   variants of a workload compute the same result; the digests and the
   copied bytes are pinned against BENCH_wire.json by the tier-1 tests
   and CI *)
let wirecost_compare ?(calls = 48) ?(window = 8) ?(seed = 42) () =
  let base = Config.class_ in
  let variants =
    [
      ("raw", base, None, 1);
      ("reliable", Config.with_reliable base, None, 1);
      ( "reliable+batch",
        Config.with_batching (Config.with_reliable base),
        None, window );
      ( "reliable+faults",
        Config.with_reliable base,
        Some (seed, Fault_sim.default_lossy),
        1 );
    ]
  in
  (* one row per workload, its runs one per variant *)
  let rows =
    cross (wire_workloads ()) [ () ] variants
      (fun w () (_, config, faults, window) ->
        run_one (framed_spec ~config ~faults ~warmup:0 ~window ~calls w))
  in
  Gate.{
    title =
      Printf.sprintf
        "wirecost: zero-copy wire framing, %d calls, batch window %d, fault \
         seed %d"
        calls window seed;
    fields = [ check "results_ok" (all_agree same_sum rows) ];
    table =
      {
        columns =
          [
            "workload"; "variant"; "copied"; "minor"; "pool_hits";
            "pool_misses"; "us"; "digest";
          ];
        rows =
          List.concat_map
            (fun (w, (), runs) ->
              List.map2
                (fun (v, _, _, _) (r : Driver.result) ->
                  [
                    Str w; Str v;
                    Float
                      ( 1,
                        float_of_int r.counters.bytes_copied
                        /. float_of_int calls );
                    Float (0, r.minor); Int r.counters.pool_hits;
                    Int r.counters.pool_misses;
                    Float (1, r.wall *. 1e6 /. float_of_int calls);
                    Str r.digest;
                  ])
                variants runs)
            rows;
      };
    extra = [];
    notes =
      [
        "copied: payload bytes copied per call; minor: GC minor words per \
         call; us: wall microseconds per call; digest: every physical \
         frame, in order";
        "results_ok: every variant of a workload returns the same sum";
      ];
  }

(* ------------------------------------------------------------------ *)
(* alloc: GC-heap decoding vs arena decoding (PR 10)                   *)
(* ------------------------------------------------------------------ *)

(* The baseline for the gated row — minor words per call of
   matrix16x16 over the reliable transport under site+reuse+cycle,
   measured before the arena and flat-array work by the Bechamel wire
   bench's 1024-call BENCH_wire.json.  The checked-in BENCH_wire.json
   is now the wirecost gate's report, so this constant is the only
   record of it.  The [alloc] gate requires at least a 50% cut
   against it. *)
let alloc_baseline_minor = 14_457.4

(* Site-specialized plans for the two paper-table message shapes.  Both
   carry the escape analysis verdict ([reuse_args] all true, hence
   [non_escaping]): the handlers fold their argument and return a
   scalar, so nothing outlives the dispatch. *)
let alloc_chain_plan =
  aot_plan ~reuse:true
    ~defs:[| Plan.S_obj { cls = 0; fields = [| Plan.S_int; Plan.S_ref 0 |] } |]
    (Plan.S_ref 0) Plan.S_int

let alloc_matrix_plan =
  aot_plan ~reuse:true Plan.S_flat_array Plan.S_double

(* Every paper-table message shape x three transport/optimization
   variants, each run under both allocator modes after a warmup
   quarter; minor words are measured over the post-warmup phase only,
   so one-time plan/context setup is excluded.  The checks are the
   [alloc] gate: byte-identical frame streams and results between the
   GC-heap and arena runs; at least a 50% cut in minor words per call
   on the gated row against [alloc_baseline_minor]; and, on the
   no-reuse rows where the arena is licensed to engage, the arena
   actually recycling (allocs counted, wholesale resets happening,
   steady state off the GC heap). *)
let alloc_compare ?(calls = 192) ?(window = 8) ?(seed = 42) () =
  let site = Config.site in
  let variants =
    [
      ("raw site", site, None, false, true);
      ("reliable site", Config.with_reliable site, None, false, true);
      ( "reliable site+faults",
        Config.with_reliable site,
        Some (seed, Fault_sim.default_lossy),
        false, true );
      ( "reliable site+reuse+cycle",
        Config.with_reliable Config.site_reuse_cycle,
        None, true, false );
    ]
  in
  let workloads =
    List.map2
      (fun (w : Driver.workload) plan -> { w with plan = Some plan })
      (wire_workloads ()) [ alloc_chain_plan; alloc_matrix_plan ]
  in
  let rows =
    cross workloads variants
      [ Config.legacy_heap; Config.with_arena true ]
      (fun w (_, config, faults, _, _) mode ->
        run_one
          (framed_spec ~config:(mode config) ~faults
             ~warmup:(max window (calls / 4)) ~window ~calls w))
  in
  let gated w (_, _, _, gated, _) = gated && String.equal w "matrix16x16" in
  let within_baseline (w, v, runs) =
    let _, arena = two runs in
    (not (gated w v)) || arena.minor <= 0.5 *. alloc_baseline_minor
  in
  let arena_engaged (_, (_, _, _, _, active), runs) =
    let heap, arena = two runs in
    let s = arena.counters in
    (not active)
    || s.arena_allocs > 0 && s.arena_resets > 0
       && s.arena_fallbacks * 10 <= s.arena_allocs
       && arena.minor < heap.minor
  in
  Gate.{
    title =
      Printf.sprintf
        "alloc: GC-heap decoding vs arena decoding, %d calls per row, window \
         %d, fault seed %d (baseline %.1f minor w/call)"
        calls window seed alloc_baseline_minor;
    fields =
      [
        Value ("baseline_minor_words_per_call", Float (1, alloc_baseline_minor));
        check "frames_ok" (all_agree same_digest rows);
        check "results_ok" (all_agree same_sum rows);
        check "gate_ok" (List.for_all within_baseline rows);
        check "arena_ok" (List.for_all arena_engaged rows);
      ];
    table =
      {
        columns =
          [
            "workload"; "variant"; "minor_words_per_call_heap";
            "minor_words_per_call_arena"; "arena_allocs"; "arena_resets";
            "arena_fallbacks"; "reused_objs"; "gated"; "digest";
          ];
        rows =
          List.map
            (fun (w, ((v, _, _, _, _) as variant), runs) ->
              let heap, arena = two runs in
              let s = arena.counters in
              [
                Str w; Str v; Float (1, heap.minor); Float (1, arena.minor);
                Int s.arena_allocs; Int s.arena_resets; Int s.arena_fallbacks;
                Int s.reused_objs; Bool (gated w variant); Str arena.digest;
              ])
            rows;
      };
    extra = [];
    notes =
      [
        "gate_ok: the gated row's arena run spends <= 50% of the baseline \
         minor words per call";
        "arena_ok: on no-reuse rows the arena allocates, resets, falls back \
         <= 10% and beats the heap run's minor words";
      ];
  }

(* ------------------------------------------------------------------ *)
(* rendering                                                           *)
(* ------------------------------------------------------------------ *)

let f2 v = Printf.sprintf "%.2f" v
let f1pct v = Printf.sprintf "%.1f%%" v

let render_timing t =
  let headers =
    [
      "Compiler Optimization"; "paper " ^ t.unit_label; "paper gain";
      "model s"; "model gain"; "wall " ^ t.unit_label; "wall gain";
    ]
  in
  let rows =
    List.map
      (fun r ->
        let name = r.config.Config.name in
        let paper_v =
          match Paper_data.seconds_for t.paper name with
          | Some v -> f2 v
          | None -> "-"
        in
        let paper_g =
          match Paper_data.gain_over_class t.paper name with
          | Some g -> f1pct g
          | None -> "-"
        in
        [
          name; paper_v; paper_g;
          Printf.sprintf "%.4f" r.modeled_seconds;
          f1pct (modeled_gain t r);
          Printf.sprintf "%.4f" (t.per_unit r.wall_seconds);
          f1pct (wall_gain t r);
        ])
      t.rows
  in
  t.title ^ "\n" ^ Rmi_stats.Ascii_table.render ~headers rows

let stats_table ~title (t : timing_table) (paper : Paper_data.stats_row list) =
  let headers =
    [
      "Optimization"; "reused objs"; "(paper)"; "local rpcs"; "(paper)";
      "remote rpcs"; "(paper)"; "new MBytes"; "(paper)"; "cycle lookups";
      "(paper)"; "ser calls";
    ]
  in
  let rows =
    List.map
      (fun r ->
        let name = r.config.Config.name in
        let p =
          List.find_opt (fun (pr : Paper_data.stats_row) -> pr.cfg = name) paper
        in
        let pi f = match p with Some p -> string_of_int (f p) | None -> "-" in
        let pf f = match p with Some p -> f2 (f p) | None -> "-" in
        [
          name;
          string_of_int r.stats.Metrics.reused_objs;
          pi (fun p -> p.Paper_data.reused_objs);
          string_of_int r.stats.Metrics.local_rpcs;
          pi (fun p -> p.Paper_data.local_rpcs);
          string_of_int r.stats.Metrics.remote_rpcs;
          pi (fun p -> p.Paper_data.remote_rpcs);
          f2 (float_of_int r.stats.Metrics.new_bytes /. 1048576.0);
          pf (fun p -> p.Paper_data.new_mbytes);
          string_of_int r.stats.Metrics.cycle_lookups;
          pi (fun p -> p.Paper_data.cycle_lookups);
          (* the paper reports the serializer-invocation reduction in
             prose ("a notable reduction ... due to method inlining") *)
          string_of_int r.stats.Metrics.ser_invocations;
        ])
      t.rows
  in
  title ^ "\n" ^ Rmi_stats.Ascii_table.render ~headers rows

let shape_summary t =
  let checks = ref [] in
  let note ok what =
    checks := (Printf.sprintf "  [%s] %s" (if ok then "ok" else "MISMATCH") what) :: !checks
  in
  let by name = List.find_opt (fun r -> r.config.Config.name = name) t.rows in
  (match (by "class", by "site") with
  | Some c, Some s ->
      note (s.modeled_seconds < c.modeled_seconds) "site beats class (modeled)"
  | _ -> ());
  (match (by "site", by "site + reuse + cycle") with
  | Some s, Some f ->
      note
        (f.modeled_seconds <= s.modeled_seconds)
        "all optimizations beat site alone (modeled)"
  | _ -> ());
  (* does the measured winner match the paper's winner? *)
  let winner rows value =
    List.fold_left
      (fun acc r -> match acc with
        | None -> Some r
        | Some best -> if value r < value best then Some r else acc)
      None rows
  in
  (match
     ( winner t.rows (fun r -> r.modeled_seconds),
       List.fold_left
         (fun acc (name, v) ->
           match acc with
           | None -> Some (name, v)
           | Some (_, best) -> if v < best then Some (name, v) else acc)
         None t.paper )
   with
  | Some r, Some (pname, _) ->
      note
        (String.equal r.config.Config.name pname
        ||
        (* ties in the paper: reuse rows equal within noise *)
        match Paper_data.seconds_for t.paper r.config.Config.name with
        | Some v ->
            Float.abs
              (v -. (match Paper_data.seconds_for t.paper pname with Some b -> b | None -> v))
            /. v
            < 0.02
        | None -> false)
        (Printf.sprintf "winner matches paper (%s)" pname)
  | _ -> ());
  String.concat "\n" (List.rev !checks)

(* ------------------------------------------------------------------ *)
(* load: multi-domain dispatch throughput and tail latency (PR 6)      *)
(* ------------------------------------------------------------------ *)

(* chain100/matrix16x16 x reliable/batched/faulty, each at one domain
   and at [domains] domains: one client (machine 0) drives [calls]
   pipelined RMIs round-robin across [servers] served machines, every
   reply folded into the structural digest in ISSUE order — so the
   digest is independent of how the dispatch pool interleaved execution
   and comparable across domain counts.  The handler re-folds its
   argument [spin] times to give the servers a CPU-bound body: without
   it the single client domain is the bottleneck and no worker count
   could change throughput.  Checks:
   - digest_ok: digests byte-identical across domain counts on every
     row (always enforced — this is the correctness substitution
     argument);
   - perf_enforced: on matrix16x16/reliable, hi-domain throughput >=
     [speedup_floor] x single-domain and p999 within [tail_tol] x —
     enforced only when [domains > 1] and the host has cores for
     client + [domains] workers ([Domain.recommended_domain_count]); on
     smaller hosts the numbers are reported only, since no scheduler
     can extract parallel speedup from one core. *)
let load_compare ?(calls = 600) ?(window = 32) ?(servers = 8)
    ?(domains = 4) ?queue_depth ?(spin = 24) ?(seed = 42)
    ?(speedup_floor = 2.0) ?(tail_tol = 8.0) () =
  if servers < 1 then invalid_arg "load_compare: servers < 1";
  if domains < 1 then invalid_arg "load_compare: domains < 1";
  (* overload is expected under a bounded queue: a breaker tripping on
     rejects mid-run would divert calls and fork the digest, so the
     load runs raise the threshold out of reach *)
  let failover =
    { Config.default_failover with Config.breaker_threshold = max_int / 2 }
  in
  let base = Config.with_failover failover Config.class_ in
  let variants =
    [
      ("reliable", Config.with_reliable base, None);
      ("reliable+batch", Config.with_batching (Config.with_reliable base), None);
      ( "reliable+faults",
        Config.with_reliable base,
        Some (seed, Fault_sim.default_lossy) );
    ]
  in
  let spun (w : Driver.workload) =
    let handler args =
      for _ = 2 to spin do
        ignore (w.handler args)
      done;
      w.handler args
    in
    { w with handler }
  in
  let domain_counts = if domains = 1 then [ 1 ] else [ 1; domains ] in
  (* one (workload, variant) row: its runs in ascending domain count *)
  let rows =
    cross (List.map spun (wire_workloads ())) variants domain_counts
      (fun w (_, config, faults) d ->
        run_one
          {
            fabric =
              Local
                { mode = Fabric.Parallel; backend = Fabric.Sim; servers;
                  faults = schedule ~n:(servers + 1) faults };
            config = Config.with_domains ?queue_depth d config; workloads = [ w ];
            warmup = 0; window; calls; digest_of = Replies ';'; timed = Calls;
            snapshot_every = None;
          })
  in
  let digest_ok = all_agree same_digest rows in
  let rps (r : Driver.result) =
    if r.wall > 0.0 then float_of_int calls /. r.wall else 0.0
  in
  let p999 (r : Driver.result) =
    Metrics.lat_quantile r.counters.lat_hist 0.999 /. 1e3
  in
  let ratio hi lo = if lo > 0.0 then hi /. lo else 0.0 in
  let speedup, tail_ratio =
    match
      List.find_opt (fun (w, (v, _, _), _) -> w = "matrix16x16" && v = "reliable") rows
    with
    | Some (_, _, [ one; hi ]) -> (ratio (rps hi) (rps one), ratio (p999 hi) (p999 one))
    | _ -> (0.0, 0.0)
  in
  let perf_ok = speedup >= speedup_floor && tail_ratio <= tail_tol in
  let perf =
    if domains = 1 then Gate.Unenforced "skipped, single-domain run"
    else if Domain.recommended_domain_count () < domains + 1 then
      Unenforced
        (Printf.sprintf "reported only, host recommends %d domains, run needs %d"
           (Domain.recommended_domain_count ()) (domains + 1))
    else if perf_ok then Pass
    else Fail
  in
  let enforced = match perf with Gate.Unenforced _ -> false | _ -> true in
  Gate.{
    title =
      Printf.sprintf
        "load: %d calls, window %d, %d servers, domains 1 vs %d, spin %d, \
         fault seed %d"
        calls window servers domains spin seed;
    fields =
      [
        Value ("servers", Int servers);
        Value ("calls", Int calls);
        check "digest_ok" digest_ok;
        Value ("speedup", Float (3, speedup));
        Value ("speedup_floor", Float (1, speedup_floor));
        Value ("tail_ratio", Float (3, tail_ratio));
        Value ("tail_tol", Float (1, tail_tol));
        Check ("perf_enforced", Bool enforced, perf);
        Value ("gate_ok", Bool (digest_ok && ((not enforced) || perf_ok)));
      ];
    table =
      {
        columns =
          [
            "workload"; "variant"; "domains"; "throughput_rps"; "p50_us";
            "p99_us"; "p999_us"; "dispatches"; "steals"; "rejects";
            "queue_depth_hwm"; "digest";
          ];
        rows =
          List.concat_map
            (fun (w, (v, _, _), runs) ->
              List.map2
                (fun d (r : Driver.result) ->
                  let s = r.counters in
                  let q p = Float (1, Metrics.lat_quantile s.lat_hist p /. 1e3) in
                  [
                    Str w; Str v; Int d; Float (1, rps r); q 0.5; q 0.99; q 0.999;
                    Int s.dispatches; Int s.steals; Int s.queue_rejects;
                    Int s.queue_depth_hwm; Str r.digest;
                  ])
                domain_counts runs)
            rows;
      };
    extra = [];
    notes =
      [
        "perf_enforced: matrix16x16/reliable reaches speedup_floor x the \
         1-domain throughput with p999 within tail_tol x";
      ];
  }

(* ------------------------------------------------------------------ *)
(* transport_compare (PR 7): the Transport.S substitution gate          *)
(* ------------------------------------------------------------------ *)

(* chain100/matrix16x16 x sequential/pipelined/batched under the
   parallel fabric, over the simulated interconnect and over loopback
   TCP.  Each run's digest is over the structurally rendered replies in
   issue order, so it is deterministic whatever the kernel's TCP
   scheduling or the serve loop's interleaving did — the same trick the
   load gate uses across domain counts; its wall time spans the worker
   pool's start and stop.  Checks: digest_ok — every row's issue-order
   reply digests and checksums identical between Sim and Sock;
   model_ok — every row's msgs_sent/bytes_sent, and therefore modeled
   seconds, identical: the cost accounting survives the transport
   substitution. *)
let transport_compare ?(calls = 64) ?(window = 8) ?(seed = 42) () =
  let base = Config.class_ in
  let variants =
    [
      ("sequential", base, 1);
      ("pipelined", base, window);
      ("pipelined+batch", Config.with_batching base, window);
    ]
  in
  let rows =
    cross (wire_workloads ()) variants [ Fabric.Sim; Fabric.Sock ]
      (fun w (_, config, window) backend ->
        run_one
          {
            fabric =
              Local { mode = Fabric.Parallel; backend; servers = 1; faults = No_faults };
            config; workloads = [ w ]; warmup = 0; window; calls;
            digest_of = Replies '|'; timed = Whole_run; snapshot_every = None;
          })
  in
  let modeled (r : Driver.result) = Costmodel.modeled_seconds model r.counters in
  let same_cost (a : Driver.result) (b : Driver.result) =
    a.counters.msgs_sent = b.counters.msgs_sent
    && a.counters.bytes_sent = b.counters.bytes_sent
    && Float.equal (modeled a) (modeled b)
  in
  Gate.{
    title =
      Printf.sprintf
        "transport: sim vs sock loopback, %d calls, window %d, seed %d" calls
        window seed;
    fields =
      [
        check "digest_ok" (all_agree (fun a b -> same_digest a b && same_sum a b) rows);
        check "model_ok" (all_agree same_cost rows);
      ];
    table =
      {
        columns =
          [
            "workload"; "variant"; "backend"; "msgs"; "bytes"; "modeled_s";
            "wall_s"; "digest";
          ];
        rows =
          List.concat_map
            (fun (w, (v, _, _), runs) ->
              List.map2
                (fun backend (r : Driver.result) ->
                  [
                    Str w; Str v; Str backend; Int r.counters.msgs_sent;
                    Int r.counters.bytes_sent; Float (6, modeled r);
                    Float (6, r.wall); Str r.digest;
                  ])
                [ "sim"; "sock" ] runs)
            rows;
      };
    extra = [];
    notes = [];
  }

(* ------------------------------------------------------------------ *)
(* multi-process mode: the same workloads over real OS processes        *)
(* ------------------------------------------------------------------ *)

(* machine [self] of a TCP cluster described by [addrs].  Servers
   (self > 0) export the wire workloads and serve until the client
   shuts them down; the client (machine 0) drives [calls] pipelined
   RMIs per workload round-robin across the servers and reports the
   issue-order digests with each workload's median call latency
   ([call_async] to the return of [await], failed calls included), its
   recovery counters (ARQ retransmits, abandoned frames, RPC resends)
   and failed calls. *)
let transport_proc ?(calls = 64) ?(window = 8) ?(reliable = false) ?epoch
    ?listen ~self ~addrs () =
  let n = Array.length addrs in
  if n < 2 then invalid_arg "Experiment.transport_proc: need >= 2 machines";
  if self < 0 || self >= n then
    invalid_arg "Experiment.transport_proc: self out of range";
  let config =
    if reliable then
      (* ride through a server kill/restart: the ARQ retransmits
         across the outage and the RPC layer retries across give-ups *)
      Config.with_failover
        { Config.default_failover with Config.max_call_retries = 6 }
        (Config.with_reliable Config.class_)
    else Config.class_
  in
  let workloads = wire_workloads () in
  (* one snapshot when each workload's calls end: its counter deltas *)
  let results =
    Driver.run
      {
        fabric = Process { self; addrs; epoch; listen }; config; workloads;
        warmup = 0; window; calls; digest_of = Replies '|'; timed = Calls;
        snapshot_every = Some calls;
      }
  in
  if self > 0 then None
  else
    let _, rows =
      List.fold_left_map
        (fun (s0 : Metrics.snapshot) ((w : Driver.workload), (r : Driver.result)) ->
          let s = List.hd r.snapshots in
          ( s,
            Gate.
              [
                Str w.name; Int calls; Float (4, r.wall);
                Float (1, float_of_int r.latencies.(calls / 2));
                Float (1, r.sum);
                Int (s.retries - s0.retries); Int (s.timeouts - s0.timeouts);
                Int (s.call_retries - s0.call_retries); Int r.failed;
                Str r.digest;
              ] ))
        Metrics.zero
        (List.combine workloads results)
    in
    Some
      Gate.{
        title =
          Printf.sprintf "proc: %d calls per workload, window %d, %d servers%s"
            calls window (n - 1)
            (if reliable then ", reliable" else "");
        fields =
          [
            check "no_failed_calls"
              (List.for_all (fun (r : Driver.result) -> r.failed = 0) results);
          ];
        table =
          {
            columns =
              [
                "workload"; "calls"; "wall_s"; "p50_us"; "checksum"; "arq_retries";
                "timeouts"; "call_retries"; "failed_calls"; "digest";
              ];
            rows;
          };
        extra = [];
        notes = [];
      }
