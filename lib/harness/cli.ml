open Cmdliner
module Config = Rmi_runtime.Config
module Fabric = Rmi_runtime.Fabric
module Fault_sim = Rmi_net.Fault_sim

let scale_conv = Arg.enum [ ("small", Experiment.Small); ("paper", Experiment.Paper) ]
let mode_conv = Arg.enum [ ("sync", Fabric.Sync); ("parallel", Fabric.Parallel) ]

let config_conv =
  Arg.enum (List.map (fun (c : Config.t) -> (c.Config.name, c)) Config.all)

let scale_arg =
  Arg.(
    value
    & opt scale_conv Experiment.Small
    & info [ "scale" ] ~docv:"SCALE"
        ~doc:
          "Workload size: $(b,small) finishes in seconds, $(b,paper) uses the \
           paper's sizes (1024 LU matrix, full search space, 100k requests).")

let mode_arg =
  Arg.(
    value
    & opt mode_conv Fabric.Sync
    & info [ "mode" ] ~docv:"MODE"
        ~doc:
          "Cluster execution: $(b,sync) single-threaded deterministic, \
           $(b,parallel) one OCaml domain per machine (the paper's 2 CPUs).")

let config_arg =
  Arg.(
    value
    & opt config_conv Config.site_reuse_cycle
    & info [ "config" ] ~docv:"CONFIG"
        ~doc:"Optimization configuration (the paper's table rows).")

let window_arg =
  Arg.(
    value
    & opt int 16
    & info [ "window" ] ~docv:"N"
        ~doc:
          "Pipelining depth: how many asynchronous calls are issued \
           back-to-back before the window is awaited.")

let pipeline_arg =
  Arg.(
    value & flag
    & info [ "pipeline" ]
        ~doc:
          "Issue the workload's RMIs through $(b,call_async) futures \
           (windows of $(b,--window) calls) instead of one synchronous \
           call at a time.")

let batch_arg =
  Arg.(
    value & flag
    & info [ "batch" ]
        ~doc:
          "Coalesce small same-destination requests/replies into single \
           wire envelopes (one modeled per-message latency per batch).")

(* "--faults seed=N[,drop=F,dup=F,reorder=F,corrupt=F,delay=K]":
   reliable transport over a seeded lossy network *)
let faults_conv =
  let parse s =
    let profile = ref Fault_sim.default_lossy in
    let seed = ref None in
    try
      String.split_on_char ',' s
      |> List.iter (fun kv ->
             match String.index_opt kv '=' with
             | None -> failwith kv
             | Some i ->
                 let k = String.sub kv 0 i in
                 let v = String.sub kv (i + 1) (String.length kv - i - 1) in
                 let f () = float_of_string v in
                 let p = !profile in
                 (match k with
                 | "seed" -> seed := Some (int_of_string v)
                 | "drop" -> profile := { p with Fault_sim.drop = f () }
                 | "dup" -> profile := { p with Fault_sim.duplicate = f () }
                 | "reorder" -> profile := { p with Fault_sim.reorder = f () }
                 | "corrupt" -> profile := { p with Fault_sim.corrupt = f () }
                 | "delay" ->
                     profile := { p with Fault_sim.max_delay = int_of_string v }
                 | _ -> failwith k));
      match !seed with
      | Some seed -> Ok (seed, !profile)
      | None -> Error (`Msg "--faults needs seed=N")
    with _ ->
      Error
        (`Msg (Printf.sprintf "bad --faults spec %S (want e.g. seed=42,drop=0.2)" s))
  in
  let print ppf ((seed, p) : int * Fault_sim.profile) =
    Format.fprintf ppf "seed=%d,drop=%g,dup=%g,reorder=%g,corrupt=%g,delay=%d"
      seed p.Fault_sim.drop p.Fault_sim.duplicate p.Fault_sim.reorder
      p.Fault_sim.corrupt p.Fault_sim.max_delay
  in
  Arg.conv (parse, print)

let faults_arg =
  Arg.(
    value
    & opt (some faults_conv) None
    & info [ "faults" ] ~docv:"SPEC"
        ~doc:
          "Run over the reliable transport with a seeded fault schedule on \
           every link, e.g. $(b,seed=42) or \
           $(b,seed=7,drop=0.2,dup=0.1,reorder=0.1,corrupt=0.05,delay=3). \
           The same seed replays the exact same schedule.  Omitted \
           probabilities default to a moderate lossy profile.")

let apply_faults ~machines config = function
  | None -> (config, None)
  | Some (seed, profile) ->
      ( Config.with_reliable config,
        Some (Fault_sim.create ~seed ~n:machines profile) )

let tier_conv = Arg.enum [ ("aot", Config.Aot); ("adaptive", Config.Adaptive) ]

let tier_arg =
  Arg.(
    value
    & opt tier_conv Config.Aot
    & info [ "tier" ] ~docv:"TIER"
        ~doc:
          "Plan acquisition: $(b,aot) gives every call site its compiled \
           plan from call one (the paper's static model), $(b,adaptive) \
           starts sites on the generic plan and promotes them to the \
           specialized plan once hot.")

let hot_threshold_arg =
  Arg.(
    value
    & opt int Config.default_hot_threshold
    & info [ "hot-threshold" ] ~docv:"N"
        ~doc:
          "Invocations of one call site before the adaptive tier promotes \
           it to the specialized plan.")

let apply_tier ~tier ~hot_threshold config =
  match tier with
  | Config.Aot -> Config.with_tier Config.Aot config
  | Config.Adaptive -> Config.with_adaptive ~hot_threshold config

let file_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"FILE" ~doc:"Source file in the Java-like surface syntax.")

let entry_arg =
  Arg.(
    value
    & opt string "Driver.main"
    & info [ "entry" ] ~docv:"METHOD"
        ~doc:
          "Qualified method to execute on machine 0 (must take no \
           parameters).")

let machines_arg =
  Arg.(value & opt int 2 & info [ "machines" ] ~docv:"N" ~doc:"Cluster size.")

let domains_arg =
  Arg.(
    value
    & opt int 4
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "Worker domains for the work-stealing dispatch pool.  $(b,1) \
           keeps the paper's serial per-node serve loops; higher counts \
           share every server's traffic across $(docv) OCaml domains.")

let queue_depth_arg =
  Arg.(
    value
    & opt int Config.default_queue_depth
    & info [ "queue-depth" ] ~docv:"N"
        ~doc:
          "Admission bound: requests beyond $(docv) queued per server \
           node are refused with a typed reject the client retries.")

let servers_arg =
  Arg.(
    value
    & opt int 8
    & info [ "servers" ] ~docv:"N"
        ~doc:"Server machines the load client round-robins across.")

let json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:
          "Also write the gate report (fields, checks and rows) as JSON to \
           $(docv); the checked-in BENCH_*.json files are these reports.")

let seed_arg =
  Arg.(
    value
    & opt int 42
    & info [ "seed" ] ~docv:"N"
        ~doc:
          "Seed for the crash/restart schedule.  The same seed replays the \
           exact same schedule; CI sweeps a seed matrix with it.")

let crashes_arg =
  Arg.(
    value
    & opt int 1
    & info [ "crashes" ] ~docv:"K"
        ~doc:"How many crash/restart pairs the seeded schedule contains.")

let calls_arg =
  Arg.(
    value
    & opt int 80
    & info [ "calls" ] ~docv:"N"
        ~doc:"How many echo RMIs the crash workload issues.")

(* ------------------------------------------------------------------ *)
(* transport selection and process mode (PR 7)                         *)
(* ------------------------------------------------------------------ *)

let backend_conv = Arg.enum [ ("sim", Fabric.Sim); ("sock", Fabric.Sock) ]

let transport_arg =
  Arg.(
    value
    & opt backend_conv Fabric.Sim
    & info [ "transport" ] ~docv:"BACKEND"
        ~doc:
          "Interconnect backend: $(b,sim) is the in-process simulated \
           cluster with its Myrinet-era cost accounting, $(b,sock) a real \
           TCP loopback mesh (one socket pair per machine pair, real \
           syscalls).  $(b,--faults) composes with both: over $(b,sock) \
           the seeded schedule drives the chaos injector on real frames \
           and the reliable ARQ layer is stacked over the sockets.")

(* "host:port"; the port is mandatory, the host may be a name *)
let addr_conv =
  let parse s =
    match String.rindex_opt s ':' with
    | None -> Error (`Msg (Printf.sprintf "bad address %S (want HOST:PORT)" s))
    | Some i -> (
        let host = String.sub s 0 i in
        let port = String.sub s (i + 1) (String.length s - i - 1) in
        match int_of_string_opt port with
        | Some p when p > 0 && p < 65536 && String.length host > 0 ->
            Ok (host, p)
        | _ ->
            Error (`Msg (Printf.sprintf "bad address %S (want HOST:PORT)" s)))
  in
  let print ppf (h, p) = Format.fprintf ppf "%s:%d" h p in
  Arg.conv (parse, print)

let listen_arg =
  Arg.(
    value
    & opt (some addr_conv) None
    & info [ "listen" ] ~docv:"HOST:PORT"
        ~doc:
          "Bind address for this process's endpoint in $(b,sock) process \
           mode (defaults to this machine's entry in $(b,--peers); set it \
           to e.g. $(b,0.0.0.0:9000) to accept on all interfaces).")

let peers_arg =
  Arg.(
    value
    & opt (list addr_conv) []
    & info [ "peers" ] ~docv:"HOST:PORT,..."
        ~doc:
          "The full cluster address list for $(b,sock) process mode, in \
           machine-id order: entry $(i,i) is machine $(i,i)'s address.  \
           Every process of the cluster must be started with the same \
           list.")

let self_arg =
  Arg.(
    value
    & opt int 0
    & info [ "self" ] ~docv:"ID"
        ~doc:
          "This process's machine id (an index into $(b,--peers)).  \
           Machine 0 drives the workload; higher ids serve.")

let check_transport ~backend ~mode faults =
  match (backend, mode, faults) with
  | Fabric.Sock, Fabric.Parallel, Some _ ->
      Error
        "--faults with --transport sock needs --mode sync: the chaos \
         injector drains its seeded connection plan on the driving \
         thread, which parallel worker domains would race"
  | _ -> Ok ()
