module Config = Rmi_runtime.Config
module Fabric = Rmi_runtime.Fabric
module Node = Rmi_runtime.Node
module Remote_ref = Rmi_runtime.Remote_ref
module Metrics = Rmi_stats.Metrics
module Costmodel = Rmi_net.Costmodel
module Fault_sim = Rmi_net.Fault_sim
module Chaos = Rmi_net.Chaos
module Clock = Rmi_net.Clock
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

(* seconds since [t0], a {!Clock.now_us} reading *)
let elapsed_s t0 = float_of_int (Clock.now_us () - t0) *. 1e-6

(* issue [calls] RMIs in bursts of [window]: [issue i] starts call [i]
   (0-based), [settle i future] consumes each one in issue order *)
let drive ~calls ~window issue settle =
  let i = ref 0 in
  while !i < calls do
    let k = min window (calls - !i) in
    let futures = List.init k (fun j -> issue (!i + j)) in
    List.iteri (fun j f -> settle (!i + j) f) futures;
    i := !i + k
  done

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

let crash_meta =
  lazy (Rmi_serial.Class_meta.make [ ("Box", [ ("v", Jir.Types.Tint) ]) ])

let crash_box v =
  let b = Value.new_obj ~cls:0 ~nfields:1 in
  b.Value.fields.(0) <- Value.Int v;
  Value.Obj b

let m_echo = 1

(* [calls] pipelined echo RMIs from machine 0 to machine 1 over the
   reliable transport, optionally under a crash schedule ([?sim] on
   the simulated backend, [?chaos] over real sockets).  Returns the
   reply checksum, how often the handler actually ran (exactly-once
   evidence) and how many calls failed despite retries.  [?record] is
   called with the boxed value on every handler execution (per-value
   exactly-once evidence — the checksum alone cannot distinguish a
   re-execution of an idempotent echo); [?replies] accumulates the
   issue-order reply stream for byte-identical replay comparison. *)
let run_crash_variant ?sim ?chaos ?(backend = Fabric.Sim)
    ?(record = fun _ -> ()) ?replies ~calls ~window () =
  let metrics = Metrics.create () in
  let config =
    (* a restart outage can outlast one transport budget; give the RPC
       layer enough resends to ride through it *)
    Config.with_failover
      { Config.default_failover with Config.max_call_retries = 4 }
      (Config.with_reliable Config.class_)
  in
  let fabric =
    Fabric.create ~mode:Fabric.Sync ~backend ?faults:sim ?chaos ~n:2
      ~meta:(Lazy.force crash_meta) ~config ~plans:(Hashtbl.create 4) ~metrics
      ()
  in
  let execs = ref 0 in
  Node.export (Fabric.node fabric 1) ~obj:0 ~meth:m_echo ~has_ret:true
    (fun args ->
      incr execs;
      match args.(0) with
      | Value.Obj o -> (
          match o.Value.fields.(0) with
          | Value.Int v ->
              record v;
              Some (Value.Int (v + 1))
          | _ -> failwith "bad box")
      | _ -> failwith "bad arg");
  let caller = Fabric.node fabric 0 in
  let dest = Remote_ref.make ~machine:1 ~obj:0 in
  let sum = ref 0 and failed = ref 0 in
  Fabric.run fabric (fun _ ->
      drive ~calls ~window
        (fun i ->
          Node.call_async caller ~dest ~meth:m_echo ~callsite:1 ~has_ret:true
            [| crash_box (i + 1) |])
        (fun i f ->
          let note s =
            Option.iter
              (fun b -> Buffer.add_string b (Printf.sprintf "%d:%s;" (i + 1) s))
              replies
          in
          match Node.Future.await f with
          | Some (Value.Int v) ->
              sum := !sum + v;
              note (string_of_int v)
          | Some _ | None ->
              incr failed;
              note "fail"
          | exception (Node.Rpc_timeout _ | Node.Peer_down _) ->
              incr failed;
              note "fail"));
  Fabric.shutdown_net fabric;
  (Metrics.snapshot metrics, !sum, !execs, !failed)

(* one row per crash variant: its checksum must match the fault-free
   baseline's and no call may have failed ([ok]); [counters] picks the
   per-gate recovery columns *)
let crash_rows ~counters runs =
  let base_sum = match runs with (_, (_, sum, _, _)) :: _ -> sum | [] -> 0 in
  List.map
    (fun (variant, ((s : Metrics.snapshot), sum, execs, fails)) ->
      let row_ok = sum = base_sum && fails = 0 in
      Gate.(
        [ Str variant; Int sum; Int fails; Int execs; Int s.crashes; Int s.restarts ]
        @ List.map (fun c -> Int c) (counters s)
        @ [ Int s.stale_drops; Bool row_ok ]))
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
  let ((_, base_sum, _, _) as base) = run_crash_variant ~calls ~window () in
  let dsim = sim Fault_sim.Durable in
  let ((_, d_sum, _, d_failed) as durable) =
    run_crash_variant ~sim:dsim ~calls ~window ()
  in
  let dsim2 = sim Fault_sim.Durable in
  let _, d_sum2, _, _ = run_crash_variant ~sim:dsim2 ~calls ~window () in
  let amnesia =
    run_crash_variant ~sim:(sim Fault_sim.Amnesia) ~calls ~window ()
  in
  Gate.{
    title =
      Printf.sprintf
        "crash/restart: %d echo calls, window %d, seed %d, %d crash(es)" calls
        window seed crashes;
    fields =
      [
        Value
          ("digest", Str (Digest.to_hex (Digest.string (Fault_sim.digest dsim))));
        check "durable_ok" (d_sum = base_sum && d_failed = 0);
        check "replay_equal"
          (String.equal (Fault_sim.digest dsim) (Fault_sim.digest dsim2)
          && d_sum = d_sum2);
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
              ("fault-free", base); ("durable crash", durable);
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
  let _, sum, execs, failed =
    run_crash_variant ~backend:Fabric.Sock
      ~chaos:(chaos_injector ~seed Fault_sim.Durable)
      ~record ~calls ~window ()
  in
  failed = 0
  && sum = calls * (calls + 3) / 2
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
  let run ?replies durability =
    run_crash_variant ~backend:Fabric.Sock
      ?chaos:(Option.map (chaos_injector ~seed) durability)
      ?replies ~calls ~window ()
  in
  let ((_, base_sum, base_execs, _) as base) = run None in
  let rep1 = Buffer.create 1024 and rep2 = Buffer.create 1024 in
  let ((_, d_sum, d_execs, _) as durable) =
    run ~replies:rep1 (Some Fault_sim.Durable)
  in
  let _, d_sum2, _, _ = run ~replies:rep2 (Some Fault_sim.Durable) in
  let amnesia = run (Some Fault_sim.Amnesia) in
  let parity_equal =
    let chaos_digest, bare_digest = Chaos.sim_parity ~seed ~n:2 ~frames:400 () in
    String.equal chaos_digest bare_digest
  in
  let sweep_failed =
    List.filter
      (fun s -> not (chaos_exactly_once ~seed:s ()))
      (List.init sweep (fun i -> (seed * 1000) + i))
  in
  let rows =
    crash_rows
      ~counters:(fun s -> [ s.retries; s.dup_drops ])
      [
        ("fault-free", base); ("durable chaos", durable);
        ("amnesia chaos", amnesia);
      ]
  in
  (* exactly-once under the durable injector: every row ok and the
     handler ran precisely as often as in the fault-free baseline *)
  let exactly_once =
    List.for_all
      (fun (_, sum, _, fails) -> sum = base_sum && fails = 0)
      [ base; durable; amnesia ]
    && d_execs = base_execs
  in
  let replay_equal =
    String.equal (Buffer.contents rep1) (Buffer.contents rep2) && d_sum = d_sum2
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
        Value ("digest", Str (Digest.to_hex (Digest.string (Buffer.contents rep1))));
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
        rows;
      };
    extra = [];
    notes = [];
  }

(* ------------------------------------------------------------------ *)
(* tier comparison: generic vs AOT vs adaptive                         *)
(* ------------------------------------------------------------------ *)

let tier_meta =
  lazy
    (Rmi_serial.Class_meta.make
       [ ("Pair", [ ("a", Jir.Types.Tint); ("b", Jir.Types.Tint) ]) ])

let m_swap = 1
let tier_site = 1

(* the compiled plan an AOT run would install for the swap site: both
   the argument and the return are a statically-known Pair *)
let tier_plan =
  let pair = Plan.S_obj { cls = 0; fields = [| Plan.S_int; Plan.S_int |] } in
  {
    Plan.callsite = tier_site;
    defs = [||];
    args = [| pair |];
    ret = Some pair;
    cycle_args = false;
    cycle_ret = false;
    reuse_args = [| false |];
    reuse_ret = false;
    non_escaping = false;
    version = 1;
    polluted = false;
  }

let tier_pair a b =
  let p = Value.new_obj ~cls:0 ~nfields:2 in
  p.Value.fields.(0) <- Value.Int a;
  p.Value.fields.(1) <- Value.Int b;
  Value.Obj p

(* structural rendering for the reply digest: [Value.pp] prints global
   allocation ids, which differ between variants even for equal values *)
let rec tier_render buf v =
  match v with
  | Value.Null -> Buffer.add_string buf "null"
  | Value.Bool b -> Buffer.add_string buf (string_of_bool b)
  | Value.Int i -> Buffer.add_string buf (string_of_int i)
  | Value.Double f -> Buffer.add_string buf (string_of_float f)
  | Value.Str s -> Buffer.add_string buf s
  | Value.Obj o ->
      Buffer.add_string buf (Printf.sprintf "obj(%d){" o.Value.cls);
      Array.iter
        (fun f ->
          tier_render buf f;
          Buffer.add_char buf ';')
        o.Value.fields;
      Buffer.add_char buf '}'
  | Value.Darr a ->
      Buffer.add_string buf "d[";
      Array.iter (fun x -> Buffer.add_string buf (string_of_float x ^ ";")) a.Value.d;
      Buffer.add_char buf ']'
  | Value.Iarr a ->
      Buffer.add_string buf "i[";
      Array.iter (fun x -> Buffer.add_string buf (string_of_int x ^ ";")) a.Value.ia;
      Buffer.add_char buf ']'
  | Value.Rarr a ->
      Buffer.add_string buf "r[";
      Array.iter
        (fun x ->
          tier_render buf x;
          Buffer.add_char buf ';')
        a.Value.ra;
      Buffer.add_char buf ']'


(* [calls] swap RMIs from machine 0 to machine 1, snapshotting the wire
   counters every [window] calls: the per-window [(calls, bytes)]
   deltas are the warmup curve.  Replies are folded into an
   order-sensitive digest so the three variants can be compared byte
   for byte. *)
let run_tier_variant ~config ~calls ~window =
  let metrics = Metrics.create () in
  let plans = Hashtbl.create 4 in
  Hashtbl.replace plans tier_site tier_plan;
  let fabric =
    Fabric.create ~mode:Fabric.Sync ~n:2 ~meta:(Lazy.force tier_meta) ~config
      ~plans ~metrics ()
  in
  Node.export (Fabric.node fabric 1) ~obj:0 ~meth:m_swap ~has_ret:true
    (fun args ->
      match args.(0) with
      | Value.Obj o ->
          let a = o.Value.fields.(0) and b = o.Value.fields.(1) in
          let r = Value.new_obj ~cls:0 ~nfields:2 in
          r.Value.fields.(0) <- b;
          r.Value.fields.(1) <- a;
          Some (Value.Obj r)
      | _ -> failwith "bad pair");
  let caller = Fabric.node fabric 0 in
  let dest = Remote_ref.make ~machine:1 ~obj:0 in
  let buf = Buffer.create 256 in
  let windows = ref [] in
  let last_bytes = ref 0 and last_msgs = ref 0 in
  Fabric.run fabric (fun _ ->
      for i = 1 to calls do
        (match
           Node.call caller ~dest ~meth:m_swap ~callsite:tier_site
             ~has_ret:true
             [| tier_pair i (i * 3) |]
         with
        | Some v ->
            tier_render buf v;
            Buffer.add_char buf ';'
        | None -> Buffer.add_string buf "none;");
        if i mod window = 0 || i = calls then begin
          let s = Metrics.snapshot metrics in
          windows :=
            ( (if i mod window = 0 then window else i mod window),
              s.Metrics.bytes_sent - !last_bytes,
              s.Metrics.msgs_sent - !last_msgs )
            :: !windows;
          last_bytes := s.Metrics.bytes_sent;
          last_msgs := s.Metrics.msgs_sent
        end
      done);
  ( Metrics.snapshot metrics,
    Digest.to_hex (Digest.string (Buffer.contents buf)),
    List.rev !windows )

let tiers_compare ?(calls = 64) ?(window = 8) ?hot_threshold () =
  let hot = Option.value hot_threshold ~default:Config.default_hot_threshold in
  let variants =
    [
      ("generic", Config.class_);
      ("aot", Config.site_reuse_cycle);
      ("adaptive", Config.with_adaptive ~hot_threshold:hot Config.site_reuse_cycle);
    ]
  in
  let runs =
    List.map
      (fun (name, config) ->
        (name, run_tier_variant ~config:{ config with Config.name } ~calls ~window))
      variants
  in
  let digests = List.map (fun (_, (_, d, _)) -> d) runs in
  (* post-warmup the adaptive tier must spend exactly the AOT bytes and
     messages per window (same plan, same wire encoding) *)
  let converged =
    match runs with
    | [ _; (_, (_, _, aot)); (_, ((ad_stats : Metrics.snapshot), _, adaptive)) ] -> (
        match (List.rev aot, List.rev adaptive) with
        | last_aot :: _, last_ad :: _ ->
            last_aot = last_ad && ad_stats.tier_promotions > 0
        | _ -> false)
    | _ -> false
  in
  let per_call ws i =
    match List.nth_opt ws i with
    | Some (n, bytes, _) when n > 0 ->
        Gate.Float (1, float_of_int bytes /. float_of_int n)
    | _ -> Gate.Str "-"
  in
  let windows = List.map (fun (_, (_, _, ws)) -> ws) runs in
  Gate.{
    title =
      Printf.sprintf "tiers: %d swap calls, warmup window %d, hot threshold %d"
        calls window hot;
    fields =
      [
        check "replies_equal" (List.for_all (String.equal (List.hd digests)) digests);
        check "converged" converged;
      ];
    table =
      {
        columns =
          [
            "variant"; "bytes"; "msgs"; "promoted"; "deopts"; "cache_hits";
            "cache_misses"; "digest";
          ];
        rows =
          List.map
            (fun (name, ((s : Metrics.snapshot), digest, _)) ->
              [
                Str name; Int s.bytes_sent; Int s.msgs_sent; Int s.tier_promotions;
                Int s.tier_deopts; Int s.plan_cache_hits; Int s.plan_cache_misses;
                Str digest;
              ])
            runs;
      };
    extra =
      [
        ( "warmup",
          {
            columns =
              "window" :: List.map (fun (name, _) -> name ^ "_bytes_per_call") runs;
            rows =
              List.init
                (List.length (List.nth windows 2))
                (fun i -> Int (i + 1) :: List.map (fun ws -> per_call ws i) windows);
          } );
      ];
    notes = [];
  }

(* ------------------------------------------------------------------ *)
(* wirecost: legacy copy-based framing vs the zero-copy wire path      *)
(* ------------------------------------------------------------------ *)

(* the paper-table message shapes: Table 1's linked chain and Table 2's
   2D double matrix, sent through the generic serializer so the
   comparison isolates the wire path from plan specialization *)
let wire_meta =
  lazy
    (Rmi_serial.Class_meta.make
       [ ("Cell", [ ("v", Jir.Types.Tint); ("next", Jir.Types.Tobject 0) ]) ])

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

type wire_workload = {
  ww_name : string;
  ww_arg : Value.t lazy_t;
  ww_fold : Value.t option -> float;
  ww_handler : Value.t array -> Value.t option;
}

let wire_workloads =
  [
    {
      ww_name = "chain100";
      ww_arg = lazy (wire_chain 100);
      ww_fold = (function Some (Value.Int v) -> float_of_int v | _ -> nan);
      ww_handler =
        (fun args -> Some (Value.Int (wire_chain_sum args.(0))));
    };
    {
      ww_name = "matrix16x16";
      ww_arg = lazy (wire_matrix 16);
      ww_fold = (function Some (Value.Double v) -> v | _ -> nan);
      ww_handler = (fun args -> Some (Value.Double (wire_matrix_sum args.(0))));
    };
  ]

let m_wire = 1
let wire_site = 1

(* what one run of one (workload, variant, mode) measured *)
type measured = {
  digest : string;
      (* wirecost/alloc: chained MD5 over every pre-fault frame, or "-";
         transport: MD5 of the issue-order replies *)
  sum : float;  (* fold of the measured replies *)
  minor : float;  (* GC minor words per measured call *)
  wall : float;  (* measured seconds *)
  counters : Metrics.snapshot;  (* the whole run's *)
}

(* one framing or allocator mode of one variant: [warmup] then [calls]
   RMIs, digesting every physical frame leaving the transmit path (the
   hook runs before the fault-simulator stage, so both modes see the
   same deterministic pre-fault frame stream) *)
let run_framed ~config ?faults ?plan ~warmup ~window ~calls
    (ww : wire_workload) =
  let metrics = Metrics.create () in
  let plans = Hashtbl.create 4 in
  Option.iter (Hashtbl.replace plans wire_site) plan;
  let sim =
    Option.map
      (fun (seed, profile) -> Fault_sim.create ~seed ~n:2 profile)
      faults
  in
  let fabric =
    Fabric.create ~mode:Fabric.Sync ?faults:sim ~n:2
      ~meta:(Lazy.force wire_meta) ~config ~plans ~metrics ()
  in
  let digest = ref "" in
  Rmi_net.Transport.set_fault_hook (Fabric.net fabric)
    (fun ~src:_ ~dest:_ frame ->
      digest := Digest.string (!digest ^ Digest.bytes frame);
      [ frame ]);
  Node.export (Fabric.node fabric 1) ~obj:0 ~meth:m_wire ~has_ret:true
    ww.ww_handler;
  let caller = Fabric.node fabric 0 in
  let dest = Remote_ref.make ~machine:1 ~obj:0 in
  let arg = Lazy.force ww.ww_arg in
  let checksum = ref 0.0 and minor = ref 0.0 and wall = ref 0.0 in
  Fabric.run fabric (fun _ ->
      let run calls =
        drive ~calls ~window
          (fun _ ->
            Node.call_async caller ~dest ~meth:m_wire ~callsite:wire_site
              ~has_ret:true [| arg |])
          (fun _ f ->
            checksum := !checksum +. ww.ww_fold (Node.Future.await f))
      in
      run warmup;
      checksum := 0.0;
      let minor0 = Gc.minor_words () and t0 = Clock.now_us () in
      run calls;
      minor := (Gc.minor_words () -. minor0) /. float_of_int calls;
      wall := elapsed_s t0);
  {
    digest = (if String.length !digest = 0 then "-" else Digest.to_hex !digest);
    sum = !checksum;
    minor = !minor;
    wall = !wall;
    counters = Metrics.snapshot metrics;
  }

(* both modes of every row put the same frames on the wire and
   computed the same replies *)
let same_digests pairs =
  List.for_all (fun (a, b) -> String.equal a.digest b.digest) pairs

let same_sums pairs = List.for_all (fun (a, b) -> Float.equal a.sum b.sum) pairs

(* percent cut from [before] to [after] *)
let cut before after =
  if before <= 0.0 then 0.0 else 100.0 *. (before -. after) /. before

(* every paper-table message shape x every transport variant, each run
   under both framing modes.  The three checks are the [wirecost]
   gate: byte-identical frame streams, byte-identical results, and — on
   the enveloped variants, where the legacy path snapshots the payload
   several times per frame — at least a 50% cut in copied bytes per
   call *)
let wirecost_compare ?(calls = 48) ?(window = 8) ?(seed = 42) () =
  let base = Config.class_ in
  let variants =
    [
      ("raw", base, None, 1, false);
      ("reliable", Config.with_reliable base, None, 1, true);
      ( "reliable+batch",
        Config.with_batching (Config.with_reliable base),
        None, window, true );
      ( "reliable+faults",
        Config.with_reliable base,
        Some (seed, Fault_sim.default_lossy),
        1, true );
    ]
  in
  let runs =
    List.concat_map
      (fun ww ->
        List.map
          (fun (vname, config, faults, window, gated) ->
            let run config =
              run_framed ~config ?faults ~warmup:0 ~window ~calls ww
            in
            ( ww.ww_name, vname, gated,
              run (Config.legacy_copy config),
              run (Config.with_zero_copy true config) ))
          variants)
      wire_workloads
  in
  let pairs = List.map (fun (_, _, _, legacy, zc) -> (legacy, zc)) runs in
  let copied r = float_of_int r.counters.bytes_copied /. float_of_int calls in
  let meets_gate (_, _, gated, legacy, zc) =
    (not gated) || cut (copied legacy) (copied zc) >= 50.0
  in
  Gate.{
    title =
      Printf.sprintf
        "wirecost: legacy copy framing vs zero-copy, %d calls, batch window \
         %d, fault seed %d"
        calls window seed;
    fields =
      [
        check "frames_ok" (same_digests pairs);
        check "results_ok" (same_sums pairs);
        check "gate_ok" (List.for_all meets_gate runs);
      ];
    table =
      {
        columns =
          [
            "workload"; "variant"; "gated"; "copied_legacy"; "copied_zc";
            "cut_pct"; "minor_legacy"; "minor_zc"; "zc_pool_hits";
            "zc_pool_misses"; "us_legacy"; "us_zc"; "frames_equal";
          ];
        rows =
          List.map
            (fun (w, v, gated, legacy, zc) ->
              let us r = Float (1, r.wall *. 1e6 /. float_of_int calls) in
              [
                Str w; Str v; Bool gated; Float (1, copied legacy);
                Float (1, copied zc); Float (1, cut (copied legacy) (copied zc));
                Float (0, legacy.minor); Float (0, zc.minor);
                Int zc.counters.pool_hits; Int zc.counters.pool_misses;
                us legacy; us zc; Bool (String.equal legacy.digest zc.digest);
              ])
            runs;
      };
    extra = [];
    notes =
      [
        "copied_*: payload bytes copied per call; minor_*: GC minor words \
         per call; us_*: wall microseconds per call";
        "gate_ok: every gated (enveloped) variant cuts copied bytes per call \
         by >= 50%";
      ];
  }

(* ------------------------------------------------------------------ *)
(* alloc: GC-heap decoding vs arena decoding (PR 10)                   *)
(* ------------------------------------------------------------------ *)

(* The checked-in BENCH_wire.json baseline for the gated row — minor
   words per call of matrix16x16 over the reliable transport under
   site+reuse+cycle, measured before this PR's allocation work.  The
   [alloc] gate requires at least a 50% cut against it. *)
let alloc_baseline_minor = 14_457.4

(* Site-specialized plans for the two paper-table message shapes.  Both
   carry the escape analysis verdict ([reuse_args] all true, hence
   [non_escaping]): the handlers fold their argument and return a
   scalar, so nothing outlives the dispatch. *)
let alloc_chain_plan =
  {
    Plan.callsite = wire_site;
    defs = [| Plan.S_obj { cls = 0; fields = [| Plan.S_int; Plan.S_ref 0 |] } |];
    args = [| Plan.S_ref 0 |];
    ret = Some Plan.S_int;
    cycle_args = false;
    cycle_ret = false;
    reuse_args = [| true |];
    reuse_ret = false;
    non_escaping = true;
    version = 1;
    polluted = false;
  }

let alloc_matrix_plan =
  {
    Plan.callsite = wire_site;
    defs = [||];
    args = [| Plan.S_flat_array { felem = Plan.F_darr } |];
    ret = Some Plan.S_double;
    cycle_args = false;
    cycle_ret = false;
    reuse_args = [| true |];
    reuse_ret = false;
    non_escaping = true;
    version = 1;
    polluted = false;
  }

let alloc_workloads =
  match wire_workloads with
  | [ chain; matrix ] -> [ (chain, alloc_chain_plan); (matrix, alloc_matrix_plan) ]
  | _ -> assert false


(* Every paper-table message shape x three transport/optimization
   variants, each run under both allocator modes after a warmup
   quarter; minor words are measured over the post-warmup phase only,
   so one-time plan/context setup is excluded — the same discipline as
   the bench harness.  The checks are the [alloc] gate: byte-identical
   frame streams and results between the GC-heap and arena runs; at
   least a 50% cut in minor words per call on the gated row against the
   checked-in pre-PR baseline; and, on the no-reuse rows where the
   arena is licensed to engage, the arena actually recycling (allocs
   counted, wholesale resets happening, steady state off the GC
   heap). *)
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
  let runs =
    List.concat_map
      (fun (ww, plan) ->
        List.map
          (fun (vname, config, faults, gated, arena_active) ->
            let run config =
              run_framed ~config ?faults ~plan ~warmup:(max window (calls / 4))
                ~window ~calls ww
            in
            ( ww.ww_name, vname,
              gated && String.equal ww.ww_name "matrix16x16",
              arena_active,
              run (Config.legacy_heap config),
              run (Config.with_arena true config) ))
          variants)
      alloc_workloads
  in
  let pairs = List.map (fun (_, _, _, _, heap, arena) -> (heap, arena)) runs in
  let within_baseline (_, _, gated, _, _, arena) =
    (not gated) || arena.minor <= 0.5 *. alloc_baseline_minor
  in
  let arena_engaged (_, _, _, active, heap, arena) =
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
        check "frames_ok" (same_digests pairs);
        check "results_ok" (same_sums pairs);
        check "gate_ok" (List.for_all within_baseline runs);
        check "arena_ok" (List.for_all arena_engaged runs);
      ];
    table =
      {
        columns =
          [
            "workload"; "variant"; "minor_words_per_call_heap";
            "minor_words_per_call_arena"; "arena_allocs"; "arena_resets";
            "arena_fallbacks"; "gated"; "digest";
          ];
        rows =
          List.map
            (fun (w, v, gated, _, heap, arena) ->
              let s = arena.counters in
              [
                Str w; Str v; Float (1, heap.minor); Float (1, arena.minor);
                Int s.arena_allocs; Int s.arena_resets; Int s.arena_fallbacks;
                Bool gated; Str arena.digest;
              ])
            runs;
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

let stats_table ~id ~title (t : timing_table) (paper : Paper_data.stats_row list) =
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
  ignore id;
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

(* One cluster under load: one client (machine 0) drives [calls]
   pipelined RMIs round-robin across [servers] served machines, every
   reply folded into the structural digest in ISSUE order — so the
   digest is independent of how the dispatch pool interleaved execution
   and comparable across domain counts.  The handler re-folds its
   argument [spin] times to give the servers a CPU-bound body: without
   it the single client domain is the bottleneck and no worker count
   could change throughput.  Returns throughput (calls/s), the issue-
   order digest and the run's counters. *)
let run_load_run ~config ?faults ~servers ~calls ~window ~spin
    (ww : wire_workload) =
  let metrics = Metrics.create () in
  let n = servers + 1 in
  let sim =
    Option.map
      (fun (seed, profile) -> Fault_sim.create ~seed ~n profile)
      faults
  in
  let fabric =
    Fabric.create ~mode:Fabric.Parallel ?faults:sim ~n
      ~meta:(Lazy.force wire_meta) ~config ~plans:(Hashtbl.create 4) ~metrics
      ()
  in
  for s = 1 to servers do
    Node.export (Fabric.node fabric s) ~obj:0 ~meth:m_wire ~has_ret:true
      (fun args ->
        let r = ref (ww.ww_handler args) in
        for _ = 2 to spin do
          r := ww.ww_handler args
        done;
        !r)
  done;
  let caller = Fabric.node fabric 0 in
  let arg = Lazy.force ww.ww_arg in
  let buf = Buffer.create 4096 in
  let wall = ref 0.0 in
  Fabric.run fabric (fun _ ->
      let t0 = Clock.now_us () in
      drive ~calls ~window
        (fun i ->
          Node.call_async caller
            ~dest:(Remote_ref.make ~machine:(1 + (i mod servers)) ~obj:0)
            ~meth:m_wire ~callsite:wire_site ~has_ret:true [| arg |])
        (fun _ f ->
          match Node.Future.await f with
          | Some v ->
              tier_render buf v;
              Buffer.add_char buf ';'
          | None -> Buffer.add_string buf "none;");
      wall := elapsed_s t0);
  ( (if !wall > 0.0 then float_of_int calls /. !wall else 0.0),
    Digest.to_hex (Digest.string (Buffer.contents buf)),
    Metrics.snapshot metrics )

(* chain100/matrix16x16 x reliable/batched/faulty, each at one domain
   and at [domains] domains.  Checks:
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
  let domain_counts = if domains = 1 then [ 1 ] else [ 1; domains ] in
  (* one (workload, variant) row: its runs in ascending domain count *)
  let rows =
    List.concat_map
      (fun ww ->
        List.map
          (fun (vname, config, faults) ->
            ( ww.ww_name, vname,
              List.map
                (fun d ->
                  ( d,
                    run_load_run
                      ~config:(Config.with_domains ?queue_depth d config)
                      ?faults ~servers ~calls ~window ~spin ww ))
                domain_counts ))
          variants)
      wire_workloads
  in
  let digest_ok =
    List.for_all
      (fun (_, _, runs) ->
        match List.map (fun (_, (_, digest, _)) -> digest) runs with
        | first :: rest -> List.for_all (String.equal first) rest
        | [] -> true)
      rows
  in
  let p999 (s : Metrics.snapshot) = Metrics.lat_quantile s.lat_hist 0.999 /. 1e3 in
  let ratio hi lo = if lo > 0.0 then hi /. lo else 0.0 in
  let speedup, tail_ratio =
    match
      List.find_opt (fun (w, v, _) -> w = "matrix16x16" && v = "reliable") rows
    with
    | Some (_, _, [ (_, (rps1, _, s1)); (_, (rps, _, s)) ]) ->
        (ratio rps rps1, ratio (p999 s) (p999 s1))
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
            (fun (w, v, runs) ->
              List.map
                (fun (d, (rps, digest, (s : Metrics.snapshot))) ->
                  let q p = Float (1, Metrics.lat_quantile s.lat_hist p /. 1e3) in
                  [
                    Str w; Str v; Int d; Float (1, rps); q 0.5; q 0.99; q 0.999;
                    Int s.dispatches; Int s.steals; Int s.queue_rejects;
                    Int s.queue_depth_hwm; Str digest;
                  ])
                runs)
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

(* one backend of one (workload, variant) pair: [calls] pipelined RMIs
   from machine 0 to machine 1 under the parallel fabric, replies
   awaited in issue order.  The digest is over the structurally
   rendered replies in that order, so it is deterministic whatever the
   kernel's TCP scheduling or the serve domain's interleaving did —
   the same trick the load gate uses across domain counts. *)
let run_transport_run ~backend ~config ~window ~calls (ww : wire_workload) =
  let metrics = Metrics.create () in
  let fabric =
    Fabric.create ~mode:Fabric.Parallel ~backend ~n:2
      ~meta:(Lazy.force wire_meta) ~config ~plans:(Hashtbl.create 4) ~metrics
      ()
  in
  Node.export (Fabric.node fabric 1) ~obj:0 ~meth:m_wire ~has_ret:true
    ww.ww_handler;
  let caller = Fabric.node fabric 0 in
  let dest = Remote_ref.make ~machine:1 ~obj:0 in
  let arg = Lazy.force ww.ww_arg in
  let buf = Buffer.create 1024 in
  let checksum = ref 0.0 in
  let minor0 = Gc.minor_words () and t0 = Clock.now_us () in
  Fabric.run fabric (fun _ ->
      drive ~calls ~window
        (fun _ ->
          Node.call_async caller ~dest ~meth:m_wire ~callsite:wire_site
            ~has_ret:true [| arg |])
        (fun _ f ->
          let r = Node.Future.await f in
          (match r with
          | Some v -> tier_render buf v
          | None -> Buffer.add_string buf "none");
          Buffer.add_char buf '|';
          checksum := !checksum +. ww.ww_fold r));
  let wall = elapsed_s t0 in
  let minor = (Gc.minor_words () -. minor0) /. float_of_int calls in
  Fabric.shutdown_net fabric;
  {
    digest = Digest.to_hex (Digest.string (Buffer.contents buf));
    sum = !checksum;
    minor;
    wall;
    counters = Metrics.snapshot metrics;
  }

(* chain100/matrix16x16 x sequential/pipelined/batched over the
   simulated interconnect and over loopback TCP.  Checks: digest_ok —
   every row's issue-order reply digests and checksums identical
   between Sim and Sock; model_ok — every row's msgs_sent/bytes_sent,
   and therefore modeled seconds, identical: the cost accounting
   survives the transport substitution. *)
let transport_compare ?(calls = 64) ?(window = 8) ?(seed = 42) () =
  let base = Config.class_ in
  let variants =
    [
      ("sequential", base, 1);
      ("pipelined", base, window);
      ("pipelined+batch", Config.with_batching base, window);
    ]
  in
  let pairs =
    List.concat_map
      (fun ww ->
        List.map
          (fun (vname, config, window) ->
            let run backend =
              run_transport_run ~backend ~config ~window ~calls ww
            in
            (ww.ww_name, vname, run Fabric.Sim, run Fabric.Sock))
          variants)
      wire_workloads
  in
  let backends = List.map (fun (_, _, sim, sock) -> (sim, sock)) pairs in
  let modeled r = Costmodel.modeled_seconds model r.counters in
  let same_cost (a, b) =
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
        check "digest_ok" (same_digests backends && same_sums backends);
        check "model_ok" (List.for_all same_cost backends);
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
            (fun (w, v, sim, sock) ->
              List.map
                (fun (backend, r) ->
                  [
                    Str w; Str v; Str backend; Int r.counters.msgs_sent;
                    Int r.counters.bytes_sent; Float (6, modeled r);
                    Float (6, r.wall); Str r.digest;
                  ])
                [ ("sim", sim); ("sock", sock) ])
            pairs;
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
   issue-order digests with each workload's recovery counters (ARQ
   retransmits, abandoned frames, RPC resends) and failed calls.
   Method/callsite ids are 1 + workload index so both workloads
   coexist on one mesh. *)
let transport_proc ?(calls = 64) ?(window = 8) ?(reliable = false) ?epoch
    ?listen ~self ~addrs () =
  let n = Array.length addrs in
  if n < 2 then invalid_arg "Experiment.transport_proc: need >= 2 machines";
  if self < 0 || self >= n then
    invalid_arg "Experiment.transport_proc: self out of range";
  let metrics = Metrics.create () in
  let config =
    if reliable then
      (* ride through a server kill/restart: the ARQ retransmits
         across the outage and the RPC layer retries across give-ups *)
      Config.with_failover
        { Config.default_failover with Config.max_call_retries = 6 }
        (Config.with_reliable Config.class_)
    else Config.class_
  in
  let fabric =
    Fabric.create_process ?epoch ?listen ~self ~addrs
      ~meta:(Lazy.force wire_meta) ~config ~plans:(Hashtbl.create 4) ~metrics
      ()
  in
  let result =
    if self > 0 then begin
      let me = Fabric.node fabric self in
      List.iteri
        (fun k ww ->
          Node.export me ~obj:0 ~meth:(m_wire + k) ~has_ret:true ww.ww_handler)
        wire_workloads;
      Node.serve_loop me;
      None
    end
    else begin
      let caller = Fabric.node fabric 0 in
      let runs =
        List.mapi
          (fun k ww ->
            let arg = Lazy.force ww.ww_arg in
            let buf = Buffer.create 1024 in
            let checksum = ref 0.0 and fails = ref 0 in
            let s0 = Metrics.snapshot metrics and t0 = Clock.now_us () in
            drive ~calls ~window
              (fun i ->
                Node.call_async caller
                  ~dest:(Remote_ref.make ~machine:(1 + (i mod (n - 1))) ~obj:0)
                  ~meth:(m_wire + k) ~callsite:(wire_site + k) ~has_ret:true
                  [| arg |])
              (fun _ f ->
                match Node.Future.await f with
                | exception (Node.Rpc_timeout _ | Node.Peer_down _) ->
                    incr fails;
                    Buffer.add_string buf "fail|"
                | r ->
                    (match r with
                    | Some v -> tier_render buf v
                    | None -> Buffer.add_string buf "none");
                    Buffer.add_char buf '|';
                    checksum := !checksum +. ww.ww_fold r);
            let wall = elapsed_s t0 and s = Metrics.snapshot metrics in
            ( Gate.
                [
                  Str ww.ww_name; Int calls; Float (4, wall); Float (1, !checksum);
                  Int (s.retries - s0.retries); Int (s.timeouts - s0.timeouts);
                  Int (s.call_retries - s0.call_retries); Int !fails;
                  Str (Digest.to_hex (Digest.string (Buffer.contents buf)));
                ],
              !fails ))
          wire_workloads
      in
      for dest = 1 to n - 1 do
        Node.send_shutdown caller ~dest
      done;
      let failed_calls = List.fold_left (fun acc (_, k) -> acc + k) 0 runs in
      Some
        Gate.{
          title =
            Printf.sprintf "proc: %d calls per workload, window %d, %d servers%s"
              calls window (n - 1)
              (if reliable then ", reliable" else "");
          fields = [ check "no_failed_calls" (failed_calls = 0) ];
          table =
            {
              columns =
                [
                  "workload"; "calls"; "wall_s"; "checksum"; "arq_retries";
                  "timeouts"; "call_retries"; "failed_calls"; "digest";
                ];
              rows = List.map fst runs;
            };
          extra = [];
          notes = [];
        }
    end
  in
  Fabric.shutdown_net fabric;
  result
