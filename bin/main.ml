(* rmi-experiments: reproduce the paper's Tables 1-8 from the command
   line.  `rmi-experiments all` prints every table paper-vs-measured;
   `rmi-experiments report` prints the compiler's per-call-site
   analysis decisions for every application model;
   `rmi-experiments pipeline` compares synchronous, pipelined and
   batched issue of the transmission microbenchmarks. *)

open Cmdliner
module E = Rmi.Experiment
module Cli = Rmi.Cli

let scale_arg = Cli.scale_arg
let mode_arg = Cli.mode_arg

(* print a gate, write it as JSON to [json] when given, and exit 1
   naming every failed check *)
let run_gate ?json name gate =
  print_endline (Rmi.Gate.render gate);
  Option.iter
    (fun file ->
      Out_channel.with_open_text file (fun oc ->
          output_string oc (Rmi.Gate.to_json gate));
      Printf.printf "wrote %s\n" file)
    json;
  match Rmi.Gate.failed gate with
  | [] -> ()
  | names ->
      Printf.eprintf "%s: failed checks: %s\n" name (String.concat ", " names);
      exit 1

let print_timing_and_shape t =
  print_endline (E.render_timing t);
  print_endline "shape vs paper:";
  print_endline (E.shape_summary t);
  print_newline ()

let run_table1 scale mode backend =
  print_timing_and_shape (E.table1 ~scale ~mode ~backend ())

let run_table2 scale mode backend =
  print_timing_and_shape (E.table2 ~scale ~mode ~backend ())

let run_table3_4 scale mode backend ~want3 ~want4 =
  let t = E.table3 ~scale ~mode ~backend () in
  if want3 then print_timing_and_shape t;
  if want4 then
    print_endline
      (E.stats_table ~id:"table4" ~title:"Table 4: LU runtime statistics" t
         Rmi.Paper_data.table4_stats)

let run_table5_6 scale mode backend ~want5 ~want6 =
  let t = E.table5 ~scale ~mode ~backend () in
  if want5 then print_timing_and_shape t;
  if want6 then
    print_endline
      (E.stats_table ~id:"table6" ~title:"Table 6: Superoptimizer runtime statistics" t
         Rmi.Paper_data.table6_stats)

let run_table7_8 scale mode backend ~want7 ~want8 =
  let t = E.table7 ~scale ~mode ~backend () in
  if want7 then print_timing_and_shape t;
  if want8 then
    print_endline
      (E.stats_table ~id:"table8" ~title:"Table 8: Webserver runtime statistics" t
         Rmi.Paper_data.table8_stats)

let table_cmd name doc f =
  Cmd.v (Cmd.info name ~doc)
    Term.(const f $ scale_arg $ mode_arg $ Cli.transport_arg)

let all_cmd =
  let run scale mode backend =
    run_table1 scale mode backend;
    run_table2 scale mode backend;
    run_table3_4 scale mode backend ~want3:true ~want4:true;
    run_table5_6 scale mode backend ~want5:true ~want6:true;
    run_table7_8 scale mode backend ~want7:true ~want8:true
  in
  Cmd.v
    (Cmd.info "all" ~doc:"Reproduce every table of the evaluation (1-8).")
    Term.(const run $ scale_arg $ mode_arg $ Cli.transport_arg)

let pipeline_cmd =
  let run scale mode window faults =
    run_gate "pipeline" (E.pipeline_compare ~scale ~mode ~window ?faults ())
  in
  Cmd.v
    (Cmd.info "pipeline"
       ~doc:
         "Run the transmission microbenchmarks three ways — synchronous \
          calls, pipelined futures, pipelined futures + request batching — \
          and compare wire messages, modeled seconds and checksums.  \
          Composes with $(b,--faults): the same comparison over a seeded \
          lossy reliable transport, exiting nonzero if any checksum \
          diverges.")
    Term.(const run $ scale_arg $ mode_arg $ Cli.window_arg $ Cli.faults_arg)

let crash_cmd =
  let run seed crashes calls window =
    run_gate "crash" (E.crash_compare ~seed ~crashes ~calls ~window ())
  in
  Cmd.v
    (Cmd.info "crash"
       ~doc:
         "Run the crash/restart/failover comparison: a pipelined echo \
          workload fault-free, under a seeded durable server crash \
          (exactly-once across the restart), and under the same schedule \
          with an amnesiac server.  Exits nonzero when the durable run \
          diverges from the baseline or fails to replay byte-identically \
          — the CI crash-seed matrix gates on this.")
    Term.(
      const run $ Cli.seed_arg $ Cli.crashes_arg $ Cli.calls_arg
      $ Cli.window_arg)

let tiers_cmd =
  let tier_calls_arg =
    Arg.(
      value
      & opt int 64
      & info [ "calls" ] ~docv:"N"
          ~doc:"How many swap RMIs each tier variant issues.")
  in
  let run calls window hot_threshold =
    run_gate "tiers" (E.tiers_compare ~calls ~window ~hot_threshold ())
  in
  Cmd.v
    (Cmd.info "tiers"
       ~doc:
         "Run the same workload under all-generic marshaling, \
          ahead-of-time specialized plans, and the adaptive tier \
          (generic until hot, specialized after), printing the per-window \
          warmup curve.  Exits nonzero unless all replies are \
          byte-identical and the adaptive run converges to the AOT \
          per-call wire cost — the CI tiers gate runs this.")
    Term.(
      const run $ tier_calls_arg $ Cli.window_arg $ Cli.hot_threshold_arg)

let wirecost_cmd =
  let wire_calls_arg =
    Arg.(
      value
      & opt int 48
      & info [ "calls" ] ~docv:"N"
          ~doc:"How many RMIs each (workload, variant, framing) run issues.")
  in
  let wire_seed_arg =
    Arg.(
      value
      & opt int 42
      & info [ "seed" ] ~docv:"N"
          ~doc:
            "Seed for the lossy fault schedule of the reliable+faults \
             variant; both framings replay it deterministically.")
  in
  let run calls window seed =
    run_gate "wirecost" (E.wirecost_compare ~calls ~window ~seed ())
  in
  Cmd.v
    (Cmd.info "wirecost"
       ~doc:
         "Compare the legacy copy-based wire framing against the zero-copy \
          pooled framing on the paper-table message shapes, over raw, \
          reliable, batched and seeded-lossy links.  Digests every physical \
          frame to prove both framings byte-identical on the wire, and \
          exits nonzero on any frame or result drift — or if the enveloped \
          variants cut fewer than 50% of the copied bytes per call.  The \
          CI bench-smoke job gates on this.")
    Term.(const run $ wire_calls_arg $ Cli.window_arg $ wire_seed_arg)

let alloc_cmd =
  let alloc_calls_arg =
    Arg.(
      value
      & opt int 192
      & info [ "calls" ] ~docv:"N"
          ~doc:
            "How many measured RMIs each (workload, variant, allocator) run \
             issues (after a warmup quarter).")
  in
  let alloc_seed_arg =
    Arg.(
      value
      & opt int 42
      & info [ "seed" ] ~docv:"N"
          ~doc:
            "Seed for the lossy fault schedule of the reliable+faults \
             variant; both allocator modes replay it deterministically.")
  in
  let run calls window seed json =
    run_gate ?json "alloc" (E.alloc_compare ~calls ~window ~seed ())
  in
  Cmd.v
    (Cmd.info "alloc"
       ~doc:
         "Compare GC-heap decoding against arena decoding on the \
          paper-table message shapes, each through its site-specialized \
          plan (the matrix through the flat struct-of-arrays step), over \
          raw, reliable, seeded-lossy and reliable-with-reuse links.  \
          Digests every physical frame to prove both allocators \
          byte-identical on the wire, and exits nonzero on any frame or \
          result drift — or if the gated row misses the 50% \
          minor-words-per-call cut against the checked-in baseline, or the \
          arena fails to engage where the escape analysis licenses it.  \
          The CI alloc-gate job runs this.")
    Term.(
      const run $ alloc_calls_arg $ Cli.window_arg $ alloc_seed_arg $ Cli.json_arg)

let load_cmd =
  let load_calls_arg =
    Arg.(
      value
      & opt int 600
      & info [ "calls" ] ~docv:"N"
          ~doc:"How many RMIs each (workload, variant, domains) run issues.")
  in
  let load_window_arg =
    Arg.(
      value
      & opt int 32
      & info [ "window" ] ~docv:"N"
          ~doc:"Pipelining depth of the load client.")
  in
  let load_seed_arg =
    Arg.(
      value
      & opt int 42
      & info [ "seed" ] ~docv:"N"
          ~doc:
            "Seed for the lossy fault schedule of the reliable+faults \
             variant; every domain count replays it deterministically.")
  in
  let spin_arg =
    Arg.(
      value
      & opt int 24
      & info [ "spin" ] ~docv:"K"
          ~doc:
            "Handler spin factor: the server re-folds each argument \
             $(docv) times so dispatch is CPU-bound and worker count \
             governs throughput.")
  in
  let speedup_floor_arg =
    Arg.(
      value
      & opt float 2.0
      & info [ "speedup-floor" ] ~docv:"X"
          ~doc:
            "Minimum matrix16x16/reliable throughput ratio, hi-domain \
             over 1-domain, enforced when the host has the cores.")
  in
  let tail_tol_arg =
    Arg.(
      value
      & opt float 8.0
      & info [ "tail-tol" ] ~docv:"X"
          ~doc:
            "Maximum p999 latency ratio, hi-domain over 1-domain, \
             enforced when the host has the cores.")
  in
  let run calls window servers domains queue_depth spin seed speedup_floor
      tail_tol json =
    run_gate ?json "load"
      (E.load_compare ~calls ~window ~servers ~domains ~queue_depth ~spin ~seed
         ~speedup_floor ~tail_tol ())
  in
  Cmd.v
    (Cmd.info "load"
       ~doc:
         "Drive the paper-table message shapes (chain100, matrix16x16) \
          from a pipelined client round-robin across $(b,--servers) \
          machines, over reliable, batched and seeded-lossy links — once \
          on the serial runtime and once on the work-stealing pool of \
          $(b,--domains) worker domains with $(b,--queue-depth)-bounded \
          admission.  Prints throughput and p50/p99/p999 client RTT per \
          domain count and exits nonzero when any reply digest differs \
          across domain counts, or (on hosts with the cores) when the \
          pool misses the $(b,--speedup-floor) throughput gate or the \
          $(b,--tail-tol) p999 bound.  The CI load-smoke job gates on \
          this.")
    Term.(
      const run $ load_calls_arg $ load_window_arg $ Cli.servers_arg
      $ Cli.domains_arg $ Cli.queue_depth_arg $ spin_arg $ load_seed_arg
      $ speedup_floor_arg $ tail_tol_arg $ Cli.json_arg)

let transport_cmd =
  let t_calls_arg =
    Arg.(
      value
      & opt int 64
      & info [ "calls" ] ~docv:"N"
          ~doc:"How many RMIs each (workload, variant, backend) run issues.")
  in
  let t_window_arg =
    Arg.(
      value
      & opt int 8
      & info [ "window" ] ~docv:"N"
          ~doc:"Pipelining depth of the pipelined variants.")
  in
  let t_seed_arg =
    Arg.(
      value
      & opt int 42
      & info [ "seed" ] ~docv:"N"
          ~doc:"Workload seed (both backends replay the same calls).")
  in
  let run calls window seed json =
    run_gate ?json "transport" (E.transport_compare ~calls ~window ~seed ())
  in
  Cmd.v
    (Cmd.info "transport"
       ~doc:
         "Run identical workloads (chain100, matrix16x16; sequential, \
          pipelined and pipelined+batch) over the simulated interconnect \
          and over real loopback TCP sockets, and compare issue-order \
          reply digests, wire counters, modeled seconds and wall clock.  \
          Exits nonzero unless the digests are byte-identical and the \
          modeled cost survives the transport substitution — the CI \
          socket-smoke job gates on this.")
    Term.(const run $ t_calls_arg $ t_window_arg $ t_seed_arg $ Cli.json_arg)

let chaos_cmd =
  let sweep_arg =
    Arg.(
      value
      & opt int 300
      & info [ "sweep" ] ~docv:"N"
          ~doc:
            "How many seeds the durable exactly-once sweep covers (each is \
             one full chaos run over a fresh loopback mesh).")
  in
  let run seed calls window sweep json =
    run_gate ?json "chaos" (E.chaos_compare ~seed ~calls ~window ~sweep ())
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run the crash workload over real loopback TCP under a seeded \
          chaos injector (frame drops/duplicates/holds/corruption, \
          connection severs, endpoint stalls and a durable kill/restart) \
          with the reliable envelope layer stacked over the sockets.  \
          Exits nonzero unless the durable run is exactly-once, the \
          same-seed rerun replays the identical reply stream, the chaos \
          schedule matches the bare fault-simulator schedule \
          byte-for-byte, and every seed of the $(b,--sweep) matrix \
          upholds exactly-once — the CI socket-chaos job gates on this.")
    Term.(
      const run $ Cli.seed_arg $ Cli.calls_arg $ Cli.window_arg $ sweep_arg
      $ Cli.json_arg)

let proc_cmd =
  let p_calls_arg =
    Arg.(
      value
      & opt int 64
      & info [ "calls" ] ~docv:"N"
          ~doc:"How many RMIs the client issues per workload.")
  in
  let p_window_arg =
    Arg.(
      value
      & opt int 8
      & info [ "window" ] ~docv:"N"
          ~doc:"Pipelining depth of the client.")
  in
  let p_reliable_arg =
    Arg.(
      value & flag
      & info [ "reliable" ]
          ~doc:
            "Stack the reliable envelope layer (acks, retransmission, \
             epoch fencing) over the TCP links and arm the RPC retry \
             budget.  Every process of the cluster must agree.  With it \
             the cluster rides through a server kill: restart the victim \
             with a bumped $(b,--epoch) and the client completes.")
  in
  let p_epoch_arg =
    Arg.(
      value
      & opt int 0
      & info [ "epoch" ] ~docv:"K"
          ~doc:
            "Incarnation number this process stamps on its frames \
             (default 0).  Restart a killed server with a higher value \
             so peers fence its previous life's frames.")
  in
  let run self listen peers calls window reliable epoch =
    if peers = [] then begin
      prerr_endline "proc: --peers HOST:PORT,... is required";
      exit 1
    end;
    let addrs = Array.of_list peers in
    Option.iter (run_gate "proc")
      (E.transport_proc ~calls ~window ~reliable ~epoch ?listen ~self ~addrs ())
  in
  Cmd.v
    (Cmd.info "proc"
       ~doc:
         "Run one machine of a TCP cluster spread over real OS processes.  \
          Start every machine with the same $(b,--peers) list (machine-id \
          order); $(b,--self) picks this process's entry.  Machines 1..n-1 \
          export the wire workloads and serve until shut down; machine 0 \
          drives pipelined RMIs round-robin across them, prints the \
          per-workload reply digests, then shuts the servers down.  See \
          README.md for a three-process quickstart.")
    Term.(
      const run $ Cli.self_arg $ Cli.listen_arg $ Cli.peers_arg $ p_calls_arg
      $ p_window_arg $ p_reliable_arg $ p_epoch_arg)

let report_cmd =
  let run () =
    let apps =
      [
        ("linked list (Fig. 14)", (Rmi_apps.Linked_list.compiled ()).Rmi_apps.App_common.opt);
        ("2D array (Fig. 12)", (Rmi_apps.Array_bench.compiled ()).Rmi_apps.App_common.opt);
        ("LU", (Rmi_apps.Lu.compiled ()).Rmi_apps.App_common.opt);
        ("superoptimizer", (Rmi_apps.Superopt.compiled ()).Rmi_apps.App_common.opt);
        ("webserver", (Rmi_apps.Webserver.compiled ()).Rmi_apps.App_common.opt);
      ]
    in
    List.iter
      (fun (name, opt) ->
        Printf.printf "=== %s ===\n%s\n" name (Rmi_core.Optimizer.report opt))
      apps
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Print the compiler's heap/cycle/escape analysis decisions and the \
          generated serialization plan for every application's call sites.")
    Term.(const run $ const ())

let compile_cmd =
  let show_jir =
    Arg.(value & flag & info [ "jir" ] ~doc:"Also print the lowered JIR.")
  in
  let show_dot =
    Arg.(
      value & flag
      & info [ "dot" ]
          ~doc:"Print the heap approximation as Graphviz (the paper's Figure 2).")
  in
  let optimize =
    Arg.(
      value & flag
      & info [ "optimize"; "O" ]
          ~doc:"Run the scalar SSA cleanups (constant folding, copy                 propagation, dead-code elimination) before the analyses.")
  in
  let run file show_jir show_dot optimize =
    let ic = open_in_bin file in
    let src = really_input_string ic (in_channel_length ic) in
    close_in ic;
    match Jfront.Lower.compile_result src with
    | Error msg ->
        Printf.eprintf "%s: %s\n" file msg;
        exit 1
    | Ok prog ->
        if show_jir then
          Format.printf "%a@." Jir.Pretty.pp_program prog;
        let opt = Rmi_core.Optimizer.run ~simplify:optimize prog in
        if show_jir && optimize then
          Format.printf "-- after scalar cleanups --@.%a@." Jir.Pretty.pp_program
            prog;
        if show_dot then begin
          let heap = opt.Rmi_core.Optimizer.heap in
          print_string
            (Rmi_core.Heap_graph.to_dot
               ~names:(Jir.Program.class_name prog)
               (Rmi_core.Heap_analysis.graph heap))
        end
        else print_string (Rmi_core.Optimizer.report opt)
  in
  Cmd.v
    (Cmd.info "compile"
       ~doc:
         "Compile a source file (Java-like syntax, see examples/*.jav) and           print the optimizer's per-call-site decisions.")
    Term.(const run $ Cli.file_arg $ show_jir $ show_dot $ optimize)

let breakdown_cmd =
  let run scale mode backend =
    (* cost-model component breakdown for the fully optimized run of
       each application *)
    let model = Rmi.Costmodel.myrinet_2003 in
    let show name (stats : Rmi.Metrics.snapshot) =
      Printf.printf "\n%s (site + reuse + cycle):\n" name;
      List.iter
        (fun (label, seconds) ->
          if seconds > 0.0 then
            Printf.printf "  %-18s %10.6f s\n" label seconds)
        (Rmi.Costmodel.breakdown model stats)
    in
    let t1 = E.table1 ~scale ~mode ~backend () in
    let t2 = E.table2 ~scale ~mode ~backend () in
    let full t =
      (List.find
         (fun r -> r.E.config.Rmi.Config.name = "site + reuse + cycle")
         t.E.rows)
        .E.stats
    in
    show "LinkedList" (full t1);
    show "2D array" (full t2)
  in
  Cmd.v
    (Cmd.info "breakdown"
       ~doc:
         "Show where the modeled time goes, per cost-model component, for           the microbenchmarks under full optimization.")
    Term.(const run $ scale_arg $ mode_arg $ Cli.transport_arg)

let trace_cmd =
  let run () =
    (* a small traced webserver run: 64 retrievals over 2 machines *)
    let compiled = Rmi_apps.Webserver.compiled () in
    let metrics = Rmi.Metrics.create () in
    let fabric =
      Rmi.Fabric.create ~mode:Rmi.Fabric.Sync ~n:2
        ~meta:compiled.Rmi_apps.App_common.meta
        ~config:Rmi.Config.site_reuse_cycle
        ~plans:compiled.Rmi_apps.App_common.plans ~metrics ()
    in
    let tr = Rmi.Trace.create () in
    for m = 0 to 1 do
      Rmi.Node.set_trace (Rmi.Fabric.node fabric m) tr
    done;
    (* reuse the library workload through its public entry is simplest:
       run a few manual calls against exported pages *)
    let module Value = Rmi.Value in
    let meth =
      Jfront.Lower.method_named compiled.Rmi_apps.App_common.prog
        "Slave.get_page"
    in
    let site =
      match Jir.Program.remote_callsites compiled.Rmi_apps.App_common.prog with
      | [ (_, s, _, _, _) ] -> s
      | _ -> failwith "unexpected callsites"
    in
    for m = 0 to 1 do
      Rmi.Node.export
        (Rmi.Fabric.node fabric m)
        ~obj:0 ~meth ~has_ret:true
        (fun _ ->
          let p = Value.new_obj ~cls:1 ~nfields:1 in
          p.Value.fields.(0) <- Value.Iarr (Value.new_iarr 64);
          Some (Value.Obj p))
    done;
    let caller = Rmi.Fabric.node fabric 0 in
    for r = 0 to 63 do
      let u = Value.new_obj ~cls:0 ~nfields:1 in
      u.Value.fields.(0) <- Value.Iarr (Value.new_iarr 8);
      ignore
        (Rmi.Node.call caller
           ~dest:(Rmi.Remote_ref.make ~machine:(r mod 2) ~obj:0)
           ~meth ~callsite:site ~has_ret:true [| Value.Obj u |])
    done;
    print_endline "first events:";
    print_string (Rmi.Trace.render ~limit:12 tr);
    print_endline "";
    print_endline "per-callsite latency summary:";
    print_endline (Rmi.Trace.summary tr)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Run a small traced workload and print the RMI event timeline and              per-call-site latency summary.")
    Term.(const run $ const ())

let run_cmd =
  let run file entry machines config mode backend faults batch tier
      hot_threshold =
    (match Cli.check_transport ~backend ~mode faults with
    | Ok () -> ()
    | Error msg ->
        prerr_endline msg;
        exit 1);
    let ic = open_in_bin file in
    let src = really_input_string ic (in_channel_length ic) in
    close_in ic;
    match Jfront.Lower.compile_result src with
    | Error msg ->
        Printf.eprintf "%s: %s\n" file msg;
        exit 1
    | Ok prog -> (
        match Jir.Program.find_method prog entry with
        | None ->
            Printf.eprintf "%s: no method %s\n" file entry;
            exit 1
        | Some m when Array.length m.Jir.Program.params > 0 ->
            Printf.eprintf "%s: entry %s takes parameters\n" file entry;
            exit 1
        | Some m ->
            let config, faults = Cli.apply_faults ~machines config faults in
            let config = if batch then Rmi.Config.with_batching config else config in
            let config = Cli.apply_tier ~tier ~hot_threshold config in
            let r =
              Rmi.Distributed.run ~config ~mode ~backend ~machines ?faults prog
                ~entry:m.Jir.Program.mid []
            in
            Format.printf "%s = %a@." entry Jir.Interp.pp_value
              r.Rmi.Distributed.value;
            let s = r.Rmi.Distributed.stats in
            Format.printf "machines=%d  config=%s  remote objects=%d@." machines
              config.Rmi.Config.name
              r.Rmi.Distributed.remote_objects;
            Format.printf
              "rpcs: %d remote + %d local; reused objs=%d; allocs=%d; cycle \
               lookups=%d; wire bytes=%d@."
              s.Rmi.Metrics.remote_rpcs s.Rmi.Metrics.local_rpcs
              s.Rmi.Metrics.reused_objs s.Rmi.Metrics.allocs
              s.Rmi.Metrics.cycle_lookups s.Rmi.Metrics.bytes_sent;
            Format.printf "wall: %.4fs  modeled: %.4fs@."
              r.Rmi.Distributed.wall_seconds
              (Rmi.Costmodel.modeled_seconds Rmi.Costmodel.myrinet_2003 s);
            if faults <> None then
              Format.printf
                "reliability: retries=%d timeouts=%d dup_drops=%d acks=%d@."
                s.Rmi.Metrics.retries s.Rmi.Metrics.timeouts
                s.Rmi.Metrics.dup_drops s.Rmi.Metrics.acks_sent;
            if tier = Rmi.Config.Adaptive then
              Format.printf
                "tiers: promotions=%d deopts=%d plan cache hits=%d misses=%d@."
                s.Rmi.Metrics.tier_promotions s.Rmi.Metrics.tier_deopts
                s.Rmi.Metrics.plan_cache_hits s.Rmi.Metrics.plan_cache_misses)
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Compile a source file and execute it as a distributed program:           machine 0 runs the entry method, remote objects are placed           round-robin, and every RMI crosses the simulated cluster through           the selected optimization configuration.")
    Term.(
      const run $ Cli.file_arg $ Cli.entry_arg $ Cli.machines_arg
      $ Cli.config_arg $ mode_arg $ Cli.transport_arg $ Cli.faults_arg
      $ Cli.batch_arg $ Cli.tier_arg $ Cli.hot_threshold_arg)

let cmds =
  [
    table_cmd "table1" "LinkedList transmission (Table 1)." run_table1;
    table_cmd "table2" "16x16 double[][] transmission (Table 2)." run_table2;
    table_cmd "table3" "LU runtime (Table 3)." (fun s m b ->
        run_table3_4 s m b ~want3:true ~want4:false);
    table_cmd "table4" "LU runtime statistics (Table 4)." (fun s m b ->
        run_table3_4 s m b ~want3:false ~want4:true);
    table_cmd "table5" "Superoptimizer runtime (Table 5)." (fun s m b ->
        run_table5_6 s m b ~want5:true ~want6:false);
    table_cmd "table6" "Superoptimizer statistics (Table 6)." (fun s m b ->
        run_table5_6 s m b ~want5:false ~want6:true);
    table_cmd "table7" "Webserver us/page (Table 7)." (fun s m b ->
        run_table7_8 s m b ~want7:true ~want8:false);
    table_cmd "table8" "Webserver statistics (Table 8)." (fun s m b ->
        run_table7_8 s m b ~want7:false ~want8:true);
    all_cmd;
    pipeline_cmd;
    crash_cmd;
    chaos_cmd;
    tiers_cmd;
    wirecost_cmd;
    alloc_cmd;
    load_cmd;
    transport_cmd;
    proc_cmd;
    report_cmd;
    compile_cmd;
    breakdown_cmd;
    trace_cmd;
    run_cmd;
  ]

let () =
  let info =
    Cmd.info "rmi-experiments" ~version:"1.0.0"
      ~doc:
        "Reproduction harness for 'Compiler Optimized Remote Method \
         Invocation' (Veldema & Philippsen, 2003)."
  in
  exit (Cmd.eval (Cmd.group info cmds))
