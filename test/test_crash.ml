(* Crash/restart robustness: the PR-3 stack end to end.  A seeded
   crash schedule kills and revives machines mid-workload; the durable
   reply cache must keep retried calls exactly-once, an amnesiac victim
   must demonstrably lose that guarantee, never-restarting peers must
   surface as Peer_down / Rpc_timeout instead of hangs, replicated
   objects must fail over, and stale-incarnation frames must be
   fenced. *)

open Rmi_runtime
module Value = Rmi_serial.Value
module Metrics = Rmi_stats.Metrics
module Fault_sim = Rmi_net.Fault_sim
module Cluster = Rmi_net.Cluster
module Transport = Rmi_net.Transport

let meta = Rmi_serial.Class_meta.make [ ("Box", [ ("v", Jir.Types.Tint) ]) ]

let m_echo = 1

let box v =
  let b = Value.new_obj ~cls:0 ~nfields:1 in
  b.Value.fields.(0) <- Value.Int v;
  Value.Obj b

(* a config whose RPC layer can ride through a restart outage *)
let patient =
  Config.with_failover
    { Config.default_failover with Config.max_call_retries = 4 }
    (Config.with_reliable Config.class_)

(* [calls] windowed echo RMIs 0 -> 1 under an optional crash schedule.
   Returns (metrics snapshot, reply checksum, per-request execution
   counts, failed calls). *)
let run_workload ?sim ?(config = patient) ?(n = 2) ?(calls = 24) ?(window = 4)
    () =
  let metrics = Metrics.create () in
  let fabric =
    Fabric.create ~mode:Fabric.Sync ?faults:sim ~n ~meta ~config
      ~plans:(Hashtbl.create 4) ~metrics ()
  in
  let execs : (int, int) Hashtbl.t = Hashtbl.create 64 in
  Node.export (Fabric.node fabric 1) ~obj:0 ~meth:m_echo ~has_ret:true
    (fun args ->
      match args.(0) with
      | Value.Obj o -> (
          match o.Value.fields.(0) with
          | Value.Int v ->
              Hashtbl.replace execs v
                (1 + Option.value ~default:0 (Hashtbl.find_opt execs v));
              Some (Value.Int (v + 1))
          | _ -> failwith "bad box")
      | _ -> failwith "bad arg");
  let caller = Fabric.node fabric 0 in
  let dest = Remote_ref.make ~machine:1 ~obj:0 in
  let sum = ref 0 and failed = ref 0 in
  Fabric.run fabric (fun _ ->
      let i = ref 1 in
      while !i <= calls do
        let k = min window (calls - !i + 1) in
        let futures =
          List.init k (fun j ->
              Node.call_async caller ~dest ~meth:m_echo ~callsite:1
                ~has_ret:true [| box (!i + j) |])
        in
        List.iter
          (fun f ->
            match Node.Future.await f with
            | Some (Value.Int v) -> sum := !sum + v
            | Some _ | None -> incr failed
            | exception (Node.Rpc_timeout _ | Node.Peer_down _) -> incr failed)
          futures;
        i := !i + k
      done);
  (Metrics.snapshot metrics, !sum, execs, !failed)

let expected_sum calls =
  (* replies are v+1 for v in 1..calls *)
  (calls * (calls + 3)) / 2

let total_execs execs = Hashtbl.fold (fun _ c acc -> acc + c) execs 0

let crash_sim ~seed plan =
  let s = Fault_sim.create ~seed ~n:2 Fault_sim.lossless in
  Fault_sim.set_crash_plan s plan;
  s

(* --- durable crash/restart rides through, exactly-once --- *)

let durable_crash_restart_is_exactly_once () =
  let calls = 40 in
  let sim =
    crash_sim ~seed:3
      [
        {
          Fault_sim.victim = 1;
          crash_at = 12;
          restart_after = Some 10;
          durability = Fault_sim.Durable;
        };
      ]
  in
  let stats, sum, execs, failed = run_workload ~sim ~calls () in
  Alcotest.(check int) "crash fired" 1 stats.Metrics.crashes;
  Alcotest.(check int) "restart fired" 1 stats.Metrics.restarts;
  Alcotest.(check int) "no failed calls" 0 failed;
  Alcotest.(check int) "checksum matches fault-free arithmetic"
    (expected_sum calls) sum;
  Alcotest.(check int) "every request executed exactly once" calls
    (total_execs execs);
  Hashtbl.iter
    (fun v c ->
      if c <> 1 then
        Alcotest.failf "request %d executed %d times under a durable crash" v c)
    execs

(* --- amnesia demonstrably violates exactly-once; durable at the same
   crash point does not --- *)

let amnesia_overexecutes_where_durable_does_not () =
  let calls = 30 in
  (* scan the crash point until the amnesiac victim provably
     re-executes a retried request: the crash must land between the
     handler running and the reply surviving, so a fixed point is not
     guaranteed — but some point in the first few dozen frames is *)
  let found = ref None in
  let at = ref 1 in
  while !found = None && !at <= 80 do
    let sim =
      crash_sim ~seed:3
        [
          {
            Fault_sim.victim = 1;
            crash_at = !at;
            restart_after = Some 6;
            durability = Fault_sim.Amnesia;
          };
        ]
    in
    let stats, _, execs, failed = run_workload ~sim ~calls () in
    if stats.Metrics.crashes = 1 && failed = 0 && total_execs execs > calls
    then found := Some !at;
    incr at
  done;
  match !found with
  | None ->
      Alcotest.fail
        "no crash point made the amnesiac victim re-execute a request"
  | Some crash_at ->
      (* same crash point, durable victim: exactly-once holds *)
      let sim =
        crash_sim ~seed:3
          [
            {
              Fault_sim.victim = 1;
              crash_at;
              restart_after = Some 6;
              durability = Fault_sim.Durable;
            };
          ]
      in
      let stats, sum, execs, failed = run_workload ~sim ~calls () in
      Alcotest.(check int) "durable: crash fired" 1 stats.Metrics.crashes;
      Alcotest.(check int) "durable: no failures" 0 failed;
      Alcotest.(check int) "durable: checksum" (expected_sum calls) sum;
      Alcotest.(check int) "durable: exactly-once" calls (total_execs execs);
      Alcotest.(check bool) "durable: reply cache was exercised" true
        (stats.Metrics.reply_cache_hits >= 1)

(* --- a peer that never restarts surfaces Peer_down, not a hang --- *)

let never_restarting_peer_is_peer_down () =
  let sim =
    crash_sim ~seed:3
      [
        {
          Fault_sim.victim = 1;
          crash_at = 6;
          restart_after = None;
          durability = Fault_sim.Durable;
        };
      ]
  in
  let stats, _, _, failed = run_workload ~sim ~calls:12 ~window:1 () in
  Alcotest.(check int) "crash fired" 1 stats.Metrics.crashes;
  Alcotest.(check int) "no restart" 0 stats.Metrics.restarts;
  Alcotest.(check bool) "calls after the crash failed" true (failed >= 1);
  Alcotest.(check bool) "rpc retries were spent first" true
    (stats.Metrics.call_retries >= 1)

(* --- a tiny per-call deadline fails fast with Rpc_timeout --- *)

let tiny_deadline_times_out_promptly () =
  let metrics = Metrics.create () in
  let sim =
    crash_sim ~seed:3
      [
        {
          Fault_sim.victim = 1;
          crash_at = 1;
          restart_after = None;
          durability = Fault_sim.Durable;
        };
      ]
  in
  (* effectively unlimited RPC retries: only the deadline can fire *)
  let config =
    Config.with_failover
      { Config.default_failover with Config.max_call_retries = 1000 }
      (Config.with_reliable Config.class_)
  in
  let fabric =
    Fabric.create ~mode:Fabric.Sync ~faults:sim ~n:2 ~meta ~config
      ~plans:(Hashtbl.create 4) ~metrics ()
  in
  Node.export (Fabric.node fabric 1) ~obj:0 ~meth:m_echo ~has_ret:true
    (fun args -> Some args.(0));
  let caller = Fabric.node fabric 0 in
  let t0 = Unix.gettimeofday () in
  Fabric.run fabric (fun _ ->
      Alcotest.(check bool) "Rpc_timeout raised" true
        (try
           ignore
             (Node.call ~deadline:0.05 caller
                ~dest:(Remote_ref.make ~machine:1 ~obj:0)
                ~meth:m_echo ~callsite:1 ~has_ret:true [| box 1 |]);
           false
         with Node.Rpc_timeout _ -> true));
  Alcotest.(check bool) "future settled promptly, no hang" true
    (Unix.gettimeofday () -. t0 < 5.0)

(* --- replicated objects fail over when the primary dies --- *)

let replicated_object_fails_over () =
  let metrics = Metrics.create () in
  let sim =
    let s = Fault_sim.create ~seed:3 ~n:3 Fault_sim.lossless in
    Fault_sim.set_crash_plan s
      [
        {
          Fault_sim.victim = 1;
          crash_at = 1;
          restart_after = None;
          durability = Fault_sim.Durable;
        };
      ];
    s
  in
  let fabric =
    Fabric.create ~mode:Fabric.Sync ~faults:sim ~n:3 ~meta
      ~config:(Config.with_reliable Config.class_) ~plans:(Hashtbl.create 4)
      ~metrics ()
  in
  let registry = Registry.create fabric in
  let spec =
    {
      Registry.meth = m_echo;
      has_ret = true;
      handler =
        (fun args ->
          match args.(0) with
          | Value.Obj o -> (
              match o.Value.fields.(0) with
              | Value.Int v -> Some (Value.Int (v + 1))
              | _ -> failwith "bad box")
          | _ -> failwith "bad arg");
    }
  in
  let dest = Registry.new_replicated registry ~primary:1 ~replica:2 [ spec ] in
  let caller = Fabric.node fabric 0 in
  Fabric.run fabric (fun _ ->
      match
        Node.call caller ~dest ~meth:m_echo ~callsite:1 ~has_ret:true
          [| box 41 |]
      with
      | Some (Value.Int v) -> Alcotest.(check int) "served by replica" 42 v
      | _ -> Alcotest.fail "no reply despite replica");
  let s = Metrics.snapshot metrics in
  Alcotest.(check bool) "failover counted" true (s.Metrics.failovers >= 1);
  Alcotest.(check int) "primary crash observed" 1 s.Metrics.crashes

(* --- frames from a dead incarnation are fenced --- *)

let stale_epoch_frames_are_fenced () =
  let calls = 24 in
  let metrics = Metrics.create () in
  let sim =
    crash_sim ~seed:3
      [
        {
          Fault_sim.victim = 1;
          crash_at = 8;
          restart_after = Some 6;
          durability = Fault_sim.Durable;
        };
      ]
  in
  let fabric =
    Fabric.create ~mode:Fabric.Sync ~faults:sim ~n:2 ~meta ~config:patient
      ~plans:(Hashtbl.create 4) ~metrics ()
  in
  Node.export (Fabric.node fabric 1) ~obj:0 ~meth:m_echo ~has_ret:true
    (fun args ->
      match args.(0) with
      | Value.Obj o -> (
          match o.Value.fields.(0) with
          | Value.Int v -> Some (Value.Int (v + 1))
          | _ -> failwith "bad box")
      | _ -> failwith "bad arg");
  let caller = Fabric.node fabric 0 in
  let dest = Remote_ref.make ~machine:1 ~obj:0 in
  let net = Fabric.net fabric in
  Fabric.run fabric (fun _ ->
      let sum = ref 0 in
      for i = 1 to calls do
        match
          Node.call caller ~dest ~meth:m_echo ~callsite:1 ~has_ret:true
            [| box i |]
        with
        | Some (Value.Int v) -> sum := !sum + v
        | _ -> Alcotest.fail "call failed"
      done;
      Alcotest.(check int) "workload checksum" (expected_sum calls) !sum;
      Alcotest.(check int) "machine 1 restarted into epoch 1" 1
        (Transport.self_epoch net 1);
      (* forge a data frame from machine 1's dead incarnation (epoch 0)
         and deliver it straight into machine 0's mailbox, below the
         reliable layer *)
      Cluster.inject_frame (Fabric.cluster fabric) ~dest:0
        (Rmi_net.Envelope.encode ~kind:Rmi_net.Envelope.Data ~src:1 ~epoch:0
           ~lseq:0
           ~payload:(Bytes.of_string "ghost of incarnation 0")
           ());
      let before = (Metrics.snapshot metrics).Metrics.stale_drops in
      (* read through the reliable layer, where the fence lives *)
      (match Transport.try_recv_slice net ~self:0 with
      | None -> ()
      | Some m ->
          Alcotest.failf "stale frame leaked through the fence: %S"
            (Bytes.to_string (Fixtures.message m)));
      Alcotest.(check bool) "stale frame counted" true
        ((Metrics.snapshot metrics).Metrics.stale_drops > before);
      (* the live path is unaffected *)
      match
        Node.call caller ~dest ~meth:m_echo ~callsite:1 ~has_ret:true
          [| box 100 |]
      with
      | Some (Value.Int v) -> Alcotest.(check int) "live path intact" 101 v
      | _ -> Alcotest.fail "live call failed after fencing")

(* --- heartbeat failure detector: conviction and recovery --- *)

let detector_convicts_silent_peer_then_recovers () =
  let metrics = Metrics.create () in
  let net =
    Rmi_net.Reliable.wrap
      ~params:
        { Rmi_net.Reliable.default_params with
          Rmi_net.Reliable.ping_every = 2; suspect_after = 3; down_after = 6 }
      (Rmi_net.Sim.create ~n:2 metrics)
  in
  let events = ref [] in
  Transport.on_peer_event net (fun ~self ~peer e ->
      events := (self, peer, e) :: !events);
  (* machine 1 exists but never drains its mailbox: from machine 0's
     side it is silent and must be demoted Suspect then Down *)
  for _ = 1 to 16 do
    ignore (Transport.idle net ~self:0)
  done;
  Alcotest.(check bool) "suspected" true
    (List.mem (0, 1, Transport.Peer_suspected) !events);
  Alcotest.(check bool) "confirmed down" true
    (List.mem (0, 1, Transport.Peer_confirmed_down) !events);
  (match Transport.peer_health net ~self:0 ~peer:1 with
  | Transport.Down -> ()
  | _ -> Alcotest.fail "peer 1 should be Down");
  let s = Metrics.snapshot metrics in
  Alcotest.(check bool) "pings were sent" true (s.Metrics.heartbeats_sent >= 1);
  Alcotest.(check bool) "suspicion counted" true (s.Metrics.suspects >= 1);
  Alcotest.(check bool) "conviction counted" true (s.Metrics.peer_downs >= 1);
  (* machine 1 wakes up: draining its mailbox answers the pings with
     pongs; receiving a pong rehabilitates the peer *)
  while Transport.try_recv_slice net ~self:1 <> None do
    ()
  done;
  for _ = 1 to 4 do
    ignore (Transport.try_recv_slice net ~self:0)
  done;
  Alcotest.(check bool) "recovered event" true
    (List.mem (0, 1, Transport.Peer_recovered) !events);
  match Transport.peer_health net ~self:0 ~peer:1 with
  | Transport.Alive -> ()
  | _ -> Alcotest.fail "peer 1 should be Alive again"

(* --- property: durable crash/restart schedules preserve fault-free
   results and exactly-once over hundreds of seeds --- *)

let prop_durable_crash_equals_fault_free =
  QCheck.Test.make ~name:"300 seeds: durable crash/restart = fault-free"
    ~count:300
    QCheck.(small_nat)
    (fun salt ->
      let seed = (salt * 7919) + 13 in
      let calls = 24 in
      let sim = Fault_sim.create ~seed ~n:2 Fault_sim.lossless in
      Fault_sim.set_crash_plan sim
        (Fault_sim.seeded_crash_plan ~seed ~n:2 ~crashes:1
           ~durability:Fault_sim.Durable ());
      let stats, sum, execs, failed = run_workload ~sim ~calls () in
      failed = 0
      && sum = expected_sum calls
      && total_execs execs = calls
      && Hashtbl.fold (fun _ c ok -> ok && c = 1) execs true
      && stats.Metrics.crashes = 1)

let suite =
  [
    ( "crash",
      [
        Alcotest.test_case "durable crash/restart is exactly-once" `Quick
          durable_crash_restart_is_exactly_once;
        Alcotest.test_case "amnesia over-executes, durable does not" `Quick
          amnesia_overexecutes_where_durable_does_not;
        Alcotest.test_case "never-restarting peer -> Peer_down" `Quick
          never_restarting_peer_is_peer_down;
        Alcotest.test_case "tiny deadline -> prompt Rpc_timeout" `Quick
          tiny_deadline_times_out_promptly;
        Alcotest.test_case "replicated object fails over" `Quick
          replicated_object_fails_over;
        Alcotest.test_case "stale-epoch frames fenced" `Quick
          stale_epoch_frames_are_fenced;
        Alcotest.test_case "detector convicts silent peer, then recovers"
          `Quick detector_convicts_silent_peer_then_recovers;
        Fixtures.qcheck_case prop_durable_crash_equals_fault_free;
      ] );
  ]
