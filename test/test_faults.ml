(* Failure injection: the runtime must degrade cleanly when the network
   corrupts, truncates or drops messages. *)

open Rmi_runtime
module Value = Rmi_serial.Value
module Metrics = Rmi_stats.Metrics
module Msgbuf = Rmi_wire.Msgbuf
module Protocol = Rmi_wire.Protocol

let meta = Rmi_serial.Class_meta.make [ ("Box", [ ("v", Jir.Types.Tint) ]) ]

let m_incr = 1

let make_fabric ?(mode = Fabric.Sync) () =
  let metrics = Metrics.create () in
  let fabric =
    Fabric.create ~mode ~n:2 ~meta ~config:Config.class_
      ~plans:(Hashtbl.create 4) ~metrics ()
  in
  for i = 0 to 1 do
    Node.export (Fabric.node fabric i) ~obj:0 ~meth:m_incr ~has_ret:true
      (fun args ->
        match args.(0) with
        | Value.Obj o -> (
            match o.fields.(0) with
            | Value.Int v ->
                let b = Value.new_obj ~cls:0 ~nfields:1 in
                b.fields.(0) <- Value.Int (v + 1);
                Some (Value.Obj b)
            | _ -> failwith "bad box")
        | _ -> failwith "bad arg")
  done;
  fabric

let box v =
  let b = Value.new_obj ~cls:0 ~nfields:1 in
  b.fields.(0) <- Value.Int v;
  Value.Obj b

let call fabric =
  Node.call (Fabric.node fabric 0)
    ~dest:(Remote_ref.make ~machine:1 ~obj:0)
    ~meth:m_incr ~callsite:1 ~has_ret:true [| box 1 |]

(* reach into the fabric's cluster through a fresh one: the fabric owns
   its cluster privately, so fault hooks are installed via the node's
   cluster — exposed through Fabric for tests *)

let truncated_payload_is_clean_error () =
  let metrics = Metrics.create () in
  let cluster = Rmi_net.Cluster.create ~n:2 metrics in
  (* build nodes directly so the cluster handle stays in reach *)
  let plans = Rmi_core.Plan_store.empty () in
  let n0 = Node.create (Rmi_net.Sim.pack cluster) ~id:0 ~meta ~config:Config.class_ ~plans in
  let n1 = Node.create (Rmi_net.Sim.pack cluster) ~id:1 ~meta ~config:Config.class_ ~plans in
  Node.set_pump n0 (fun () -> Node.serve_pending n1);
  Node.set_pump n1 (fun () -> Node.serve_pending n0);
  Node.export n1 ~obj:0 ~meth:m_incr ~has_ret:true (fun args -> Some args.(0));
  (* truncate request payloads (keep the 9-byte header intact) *)
  Rmi_net.Cluster.set_fault_hook cluster (fun ~src:_ ~dest msg ->
      if dest = 1 && Bytes.length msg > 9 then [ Bytes.sub msg 0 9 ]
      else [ msg ]);
  Alcotest.(check bool) "clean remote error" true
    (try
       ignore
         (Node.call n0
            ~dest:(Remote_ref.make ~machine:1 ~obj:0)
            ~meth:m_incr ~callsite:1 ~has_ret:true [| box 1 |]);
       false
     with Node.Remote_exception msg ->
       String.length msg > 0);
  (* remove the fault: the same machines keep working *)
  Rmi_net.Cluster.clear_fault_hook cluster;
  match
    Node.call n0
      ~dest:(Remote_ref.make ~machine:1 ~obj:0)
      ~meth:m_incr ~callsite:1 ~has_ret:true [| box 7 |]
  with
  | Some v -> Alcotest.(check bool) "recovered" true (Rmi_serial.Equality.equal v (box 7))
  | None -> Alcotest.fail "no reply after recovery"

let dropped_message_detected_as_deadlock () =
  let metrics = Metrics.create () in
  let cluster = Rmi_net.Cluster.create ~n:2 metrics in
  let plans = Rmi_core.Plan_store.empty () in
  let n0 = Node.create (Rmi_net.Sim.pack cluster) ~id:0 ~meta ~config:Config.class_ ~plans in
  let n1 = Node.create (Rmi_net.Sim.pack cluster) ~id:1 ~meta ~config:Config.class_ ~plans in
  Node.set_pump n0 (fun () -> Node.serve_pending n1);
  Node.set_pump n1 (fun () -> Node.serve_pending n0);
  Node.export n1 ~obj:0 ~meth:m_incr ~has_ret:true (fun args -> Some args.(0));
  (* drop every request to machine 1 *)
  Rmi_net.Cluster.set_fault_hook cluster (fun ~src:_ ~dest _ ->
      if dest = 1 then [] else assert false);
  Alcotest.(check bool) "deadlock detected" true
    (try
       ignore
         (Node.call n0
            ~dest:(Remote_ref.make ~machine:1 ~obj:0)
            ~meth:m_incr ~callsite:1 ~has_ret:true [| box 1 |]);
       false
     with Node.Deadlock _ -> true);
  (* the raw transport never retransmits or times out — those counters
     belong to the reliable layer alone *)
  let s = Metrics.snapshot metrics in
  Alcotest.(check int) "raw path: no retries" 0 s.Metrics.retries;
  Alcotest.(check int) "raw path: no timeouts" 0 s.Metrics.timeouts

(* a 2-machine pair over the reliable transport, for the recovery
   cases below *)
let reliable_pair () =
  let metrics = Metrics.create () in
  let net = Rmi_net.Reliable.wrap (Rmi_net.Sim.create ~n:2 metrics) in
  let plans = Rmi_core.Plan_store.empty () in
  let n0 = Node.create net ~id:0 ~meta ~config:Config.class_ ~plans in
  let n1 = Node.create net ~id:1 ~meta ~config:Config.class_ ~plans in
  Node.set_pump n0 (fun () -> Node.serve_pending n1);
  Node.set_pump n1 (fun () -> Node.serve_pending n0);
  Node.export n1 ~obj:0 ~meth:m_incr ~has_ret:true (fun args ->
      match args.(0) with
      | Value.Obj o -> (
          match o.Value.fields.(0) with
          | Value.Int v ->
              let b = Value.new_obj ~cls:0 ~nfields:1 in
              b.Value.fields.(0) <- Value.Int (v + 1);
              Some (Value.Obj b)
          | _ -> failwith "bad box")
      | _ -> failwith "bad arg");
  (metrics, net, n0)

let transient_drops_recovered_and_counted () =
  let metrics, net, n0 = reliable_pair () in
  (* drop the first three frames toward machine 1, then heal the link *)
  let dropped = ref 0 in
  Rmi_net.Transport.set_fault_hook net (fun ~src:_ ~dest msg ->
      if dest = 1 && !dropped < 3 then begin
        incr dropped;
        []
      end
      else [ msg ]);
  (match
     Node.call n0
       ~dest:(Remote_ref.make ~machine:1 ~obj:0)
       ~meth:m_incr ~callsite:1 ~has_ret:true [| box 41 |]
   with
  | Some v ->
      Alcotest.(check bool) "recovered result" true
        (Rmi_serial.Equality.equal v (box 42))
  | None -> Alcotest.fail "no reply despite retransmission");
  let s = Metrics.snapshot metrics in
  Alcotest.(check bool) "retries counted" true (s.Metrics.retries >= 1);
  Alcotest.(check int) "no timeouts on a healed link" 0 s.Metrics.timeouts

let permanent_partition_times_out_cleanly () =
  let metrics, net, n0 = reliable_pair () in
  (* machine 1 is unreachable forever; recv_blocking_slice must not hang —
     after the RPC-level retries are spent the call has to surface a
     clean Peer_down *)
  Rmi_net.Transport.set_fault_hook net (fun ~src:_ ~dest msg ->
      if dest = 1 then [] else [ msg ]);
  Alcotest.(check bool) "clean peer-down" true
    (try
       ignore
         (Node.call n0
            ~dest:(Remote_ref.make ~machine:1 ~obj:0)
            ~meth:m_incr ~callsite:1 ~has_ret:true [| box 1 |]);
       false
     with Node.Peer_down msg -> String.length msg > 0);
  let s = Metrics.snapshot metrics in
  Alcotest.(check bool) "retransmit budget spent" true
    (s.Metrics.retries >= Rmi_net.Reliable.default_params.Rmi_net.Reliable.max_attempts - 1);
  Alcotest.(check bool) "abandoned frame counted" true (s.Metrics.timeouts >= 1);
  (* the repeated transport failures opened machine 1's circuit
     breaker: a call issued inside the cooldown fast-fails without
     touching the wire *)
  (try
     ignore
       (Node.call n0
          ~dest:(Remote_ref.make ~machine:1 ~obj:0)
          ~meth:m_incr ~callsite:1 ~has_ret:true [| box 2 |]);
     Alcotest.fail "expected a breaker fast-fail"
   with Node.Peer_down _ -> ());
  Alcotest.(check bool) "fast-fail counted" true
    ((Metrics.snapshot metrics).Metrics.breaker_fastfails >= 1);
  (* the partition heals and the cooldown passes: the half-open probe
     goes through and the same pair keeps working *)
  Rmi_net.Transport.clear_fault_hook net;
  Unix.sleepf 0.3;
  match
    Node.call n0
      ~dest:(Remote_ref.make ~machine:1 ~obj:0)
      ~meth:m_incr ~callsite:1 ~has_ret:true [| box 7 |]
  with
  | Some v ->
      Alcotest.(check bool) "recovered after heal" true
        (Rmi_serial.Equality.equal v (box 8))
  | None -> Alcotest.fail "no reply after heal"

let garbage_header_is_ignored () =
  let metrics = Metrics.create () in
  let cluster = Rmi_net.Cluster.create ~n:2 metrics in
  let plans = Rmi_core.Plan_store.empty () in
  let n0 = Node.create (Rmi_net.Sim.pack cluster) ~id:0 ~meta ~config:Config.class_ ~plans in
  let n1 = Node.create (Rmi_net.Sim.pack cluster) ~id:1 ~meta ~config:Config.class_ ~plans in
  Node.set_pump n0 (fun () -> Node.serve_pending n1);
  Node.set_pump n1 (fun () -> Node.serve_pending n0);
  Node.export n1 ~obj:0 ~meth:m_incr ~has_ret:true (fun args -> Some args.(0));
  (* inject pure garbage ahead of a real exchange *)
  Rmi_net.Cluster.send cluster ~src:0 ~dest:1 (Bytes.of_string "\xff\xfe");
  match
    Node.call n0
      ~dest:(Remote_ref.make ~machine:1 ~obj:0)
      ~meth:m_incr ~callsite:1 ~has_ret:true [| box 3 |]
  with
  | Some v ->
      Alcotest.(check bool) "garbage skipped, call served" true
        (Rmi_serial.Equality.equal v (box 3))
  | None -> Alcotest.fail "no reply"

let handler_exception_does_not_kill_worker () =
  (* repeated remote failures in parallel mode; the worker must survive
     them all *)
  let fabric = make_fabric ~mode:Fabric.Parallel () in
  Node.export (Fabric.node fabric 1) ~obj:0 ~meth:9 ~has_ret:true (fun _ ->
      failwith "boom");
  Fabric.run fabric (fun fabric ->
      let caller = Fabric.node fabric 0 in
      for _ = 1 to 10 do
        (try
           ignore
             (Node.call caller
                ~dest:(Remote_ref.make ~machine:1 ~obj:0)
                ~meth:9 ~callsite:1 ~has_ret:true [||])
         with Node.Remote_exception _ -> ())
      done;
      match call fabric with
      | Some v -> Alcotest.(check bool) "alive" true (Rmi_serial.Equality.equal v (box 2))
      | None -> Alcotest.fail "worker died")

let contains hay needle =
  let n = String.length needle in
  let rec at i =
    i + n <= String.length hay && (String.sub hay i n = needle || at (i + 1))
  in
  at 0

(* over raw TCP on a synchronous fabric, a request still in the
   sender's cork when a sever kills the link is gone, and so is its
   in-flight charge: the caller sees a quiescent cluster (Deadlock)
   instead of spinning on a frame that will never arrive *)
let severed_cork_is_deadlock () =
  let metrics = Metrics.create () in
  let chaos =
    Rmi_net.Chaos.(
      create ~seed:1 ~n:2
        ~plan:[ { at = 1; action = Sever { a = 0; b = 1 } } ]
        Rmi_net.Fault_sim.lossless)
  in
  let fabric =
    Fabric.create ~backend:Fabric.Sock ~chaos ~n:2 ~meta ~config:Config.class_
      ~plans:(Hashtbl.create 4) ~metrics ()
  in
  Fun.protect ~finally:(fun () -> Fabric.shutdown_net fabric) @@ fun () ->
  Node.export (Fabric.node fabric 1) ~obj:0 ~meth:m_incr ~has_ret:true
    (fun args -> Some args.(0));
  Alcotest.(check bool) "deadlock detected" true
    (try
       ignore (call fabric);
       false
     with Node.Deadlock _ -> true)

(* the Deadlock message of a quiescent raw cluster, and the retransmit
   give-up detail a Peer_down carries, read as single-spaced prose *)
let failure_messages_single_spaced () =
  let no_double_space what msg =
    let rec scan i =
      i + 1 >= String.length msg
      || ((msg.[i] <> ' ' || msg.[i + 1] <> ' ') && scan (i + 1))
    in
    Alcotest.(check bool) (Printf.sprintf "%s: %S" what msg) true (scan 0)
  in
  let metrics = Metrics.create () in
  let cluster = Rmi_net.Cluster.create ~n:2 metrics in
  let plans = Rmi_core.Plan_store.empty () in
  let n0 = Node.create (Rmi_net.Sim.pack cluster) ~id:0 ~meta ~config:Config.class_ ~plans in
  let n1 = Node.create (Rmi_net.Sim.pack cluster) ~id:1 ~meta ~config:Config.class_ ~plans in
  Node.set_pump n0 (fun () -> Node.serve_pending n1);
  Node.set_pump n1 (fun () -> Node.serve_pending n0);
  Node.export n1 ~obj:0 ~meth:m_incr ~has_ret:true (fun args -> Some args.(0));
  Rmi_net.Cluster.set_fault_hook cluster (fun ~src:_ ~dest:_ _ -> []);
  (match
     Node.call n0 ~dest:(Remote_ref.make ~machine:1 ~obj:0) ~meth:m_incr
       ~callsite:1 ~has_ret:true [| box 1 |]
   with
  | _ -> Alcotest.fail "expected Deadlock"
  | exception Node.Deadlock msg -> no_double_space "deadlock" msg);
  let _, net, n0 = reliable_pair () in
  Rmi_net.Transport.set_fault_hook net (fun ~src:_ ~dest msg ->
      if dest = 1 then [] else [ msg ]);
  match
    Node.call n0 ~dest:(Remote_ref.make ~machine:1 ~obj:0) ~meth:m_incr
      ~callsite:1 ~has_ret:true [| box 1 |]
  with
  | _ -> Alcotest.fail "expected Peer_down"
  | exception Node.Peer_down msg ->
      Alcotest.(check bool) "the give-up detail" true
        (contains msg "exhausted their retransmit budget");
      no_double_space "retransmit give-up" msg

(* ------------------------------------------------------------------ *)
(* request writers: every settle path gives the call's writer back     *)
(* ------------------------------------------------------------------ *)

(* A call keeps its pooled request writer for retries until it
   settles.  Run a scenario twice on one pool: the second, identical
   run finds every writer the first gave back, so it takes no pool
   miss; a writer kept past its call's settlement would be missing and
   taken fresh. *)
let no_leaked_writers what metrics run =
  let misses () = (Metrics.snapshot metrics).Metrics.pool_misses in
  run ();
  let m = misses () in
  run ();
  Alcotest.(check int) (what ^ ": pool misses of the second run") 0
    (misses () - m)

let to_machine m = Remote_ref.make ~machine:m ~obj:0

let incr_handler args =
  match args.(0) with
  | Value.Obj o -> (
      match o.Value.fields.(0) with
      | Value.Int v -> Some (box (v + 1))
      | _ -> failwith "bad box")
  | _ -> failwith "bad arg"

(* [n] machines over [net], each serving [m_incr]; machine 0 pumps the
   others *)
let nodes ?(config = Config.class_) net n =
  let plans = Rmi_core.Plan_store.empty () in
  let ns = Array.init n (fun id -> Node.create net ~id ~meta ~config ~plans) in
  Array.iter
    (fun nd -> Node.export nd ~obj:0 ~meth:m_incr ~has_ret:true incr_handler)
    ns;
  Array.iteri
    (fun i nd ->
      Node.set_pump nd (fun () ->
          let served = ref false in
          Array.iteri
            (fun j other ->
              if j <> i && Node.serve_pending other then served := true)
            ns;
          !served))
    ns;
  ns

let expect_value what v = function
  | Some r ->
      Alcotest.(check bool) what true (Rmi_serial.Equality.equal r (box v))
  | None -> Alcotest.fail (what ^ ": no value")

(* no breaker opens, so a repeated scenario takes the same path *)
let patient =
  Config.with_failover
    { Config.default_failover with Config.breaker_threshold = max_int / 2 }
    Config.class_

let sim_net ?(reliable = false) n =
  let metrics = Metrics.create () in
  let net = Rmi_net.Sim.create ~n metrics in
  (metrics, if reliable then Rmi_net.Reliable.wrap net else net)

let writers_replies () =
  List.iter
    (fun reliable ->
      let metrics, net = sim_net ~reliable 2 in
      let n = nodes net 2 in
      no_leaked_writers
        (if reliable then "reliable replies" else "raw replies")
        metrics
        (fun () ->
          let fs =
            List.init 3 (fun i ->
                Node.call_async n.(0) ~dest:(to_machine 1) ~meth:m_incr
                  ~callsite:1 ~has_ret:true [| box i |])
          in
          List.iteri
            (fun i f -> expect_value "reply" (i + 1) (Node.Future.await f))
            fs))
    [ false; true ]

(* machine 1 answers its first two requests of a run with [Reject] *)
let writers_reject_resend () =
  let metrics, net = sim_net 2 in
  let n = nodes net 2 in
  let rejects = ref 0 in
  let rx = Rmi_net.Transport.slice () in
  Node.set_pump n.(0) (fun () ->
      Rmi_net.Transport.try_recv_into net ~self:1 rx
      && begin
           let hdr =
             Protocol.read_header
               (Msgbuf.reader_of_bytes ~off:rx.off ~len:rx.len rx.buf)
           in
           if hdr.Protocol.kind = Protocol.Request && !rejects < 2 then begin
             incr rejects;
             Node.send_reject n.(1) hdr;
             Rmi_net.Transport.release net ~self:1 rx.buf
           end
           else Node.serve_slice n.(1) rx;
           true
         end);
  no_leaked_writers "reject resend" metrics (fun () ->
      rejects := 0;
      expect_value "served after two rejects" 2
        (Node.call n.(0) ~dest:(to_machine 1) ~meth:m_incr ~callsite:1
           ~has_ret:true [| box 1 |]);
      Alcotest.(check int) "both rejects sent" 2 !rejects)

(* every frame toward machine 1 is lost until the client's first RPC
   retry: the transport gives up once, and the retry succeeds *)
let writers_give_up_retry () =
  let metrics, net = sim_net ~reliable:true 2 in
  let n = nodes ~config:patient net 2 in
  let retries () = (Metrics.snapshot metrics).Metrics.call_retries in
  no_leaked_writers "give-up retry" metrics (fun () ->
      let r0 = retries () in
      Rmi_net.Transport.set_fault_hook net (fun ~src:_ ~dest msg ->
          if dest = 1 && retries () = r0 then [] else [ msg ]);
      expect_value "served by the retry" 2
        (Node.call n.(0) ~dest:(to_machine 1) ~meth:m_incr ~callsite:1
           ~has_ret:true [| box 1 |]);
      Rmi_net.Transport.clear_fault_hook net;
      Alcotest.(check int) "one RPC retry" (r0 + 1) (retries ()))

(* machine 1 is partitioned: the call's retries run out (Peer_down), or
   it fails over to replica 2, or its deadline passes first *)
let writers_partitioned () =
  let partition net =
    Rmi_net.Transport.set_fault_hook net (fun ~src:_ ~dest msg ->
        if dest = 1 then [] else [ msg ])
  in
  (let metrics, net = sim_net ~reliable:true 2 in
   let n = nodes ~config:patient net 2 in
   partition net;
   no_leaked_writers "retries exhausted" metrics (fun () ->
       match
         Node.call n.(0) ~dest:(to_machine 1) ~meth:m_incr ~callsite:1
           ~has_ret:true [| box 1 |]
       with
       | _ -> Alcotest.fail "expected Peer_down"
       | exception Node.Peer_down _ -> ()));
  (let metrics, net = sim_net ~reliable:true 3 in
   let n = nodes ~config:patient net 3 in
   Node.set_replica n.(0) ~primary:1 ~replica:2;
   partition net;
   no_leaked_writers "failover" metrics (fun () ->
       let f0 = (Metrics.snapshot metrics).Metrics.failovers in
       expect_value "served by the replica" 2
         (Node.call n.(0) ~dest:(to_machine 1) ~meth:m_incr ~callsite:1
            ~has_ret:true [| box 1 |]);
       Alcotest.(check int) "one failover" (f0 + 1)
         (Metrics.snapshot metrics).Metrics.failovers));
  let metrics, net = sim_net ~reliable:true 2 in
  let n = nodes net 2 in
  partition net;
  no_leaked_writers "deadline" metrics (fun () ->
      match
        Node.call ~deadline:0.0 n.(0) ~dest:(to_machine 1) ~meth:m_incr
          ~callsite:1 ~has_ret:true [| box 1 |]
      with
      | _ -> Alcotest.fail "expected Rpc_timeout"
      | exception Node.Rpc_timeout _ -> ())

(* an open breaker fails a call before it has a writer; a quiescent raw
   cluster fails every outstanding call at once *)
let writers_fast_fail_and_deadlock () =
  (let metrics, net = sim_net ~reliable:true 2 in
   let n = nodes net 2 in
   Rmi_net.Transport.set_fault_hook net (fun ~src:_ ~dest msg ->
       if dest = 1 then [] else [ msg ]);
   (* three transport failures open machine 1's breaker *)
   (try
      ignore
        (Node.call n.(0) ~dest:(to_machine 1) ~meth:m_incr ~callsite:1
           ~has_ret:true [| box 1 |])
    with Node.Peer_down _ -> ());
   no_leaked_writers "breaker fast-fail" metrics (fun () ->
       let ff = (Metrics.snapshot metrics).Metrics.breaker_fastfails in
       (try
          ignore
            (Node.call n.(0) ~dest:(to_machine 1) ~meth:m_incr ~callsite:1
               ~has_ret:true [| box 1 |]);
          Alcotest.fail "expected a fast-fail"
        with Node.Peer_down _ -> ());
       Alcotest.(check int) "fast-failed" (ff + 1)
         (Metrics.snapshot metrics).Metrics.breaker_fastfails));
  let metrics, net = sim_net 2 in
  let n = nodes net 2 in
  Rmi_net.Transport.set_fault_hook net (fun ~src:_ ~dest msg ->
      if dest = 1 then [] else [ msg ]);
  no_leaked_writers "deadlock sweep" metrics (fun () ->
      let fs =
        List.init 3 (fun i ->
            Node.call_async n.(0) ~dest:(to_machine 1) ~meth:m_incr
              ~callsite:1 ~has_ret:true [| box i |])
      in
      List.iter
        (fun f ->
          match Node.Future.await f with
          | _ -> Alcotest.fail "expected Deadlock"
          | exception Node.Deadlock _ -> ())
        fs)

let suite =
  [
    ( "faults",
      [
        Alcotest.test_case "truncated payload -> clean error + recovery" `Quick
          truncated_payload_is_clean_error;
        Alcotest.test_case "dropped message -> deadlock detection" `Quick
          dropped_message_detected_as_deadlock;
        Alcotest.test_case "sock: severed cork -> deadlock detection" `Quick
          severed_cork_is_deadlock;
        Alcotest.test_case "reliable: transient drops recovered + counted"
          `Quick transient_drops_recovered_and_counted;
        Alcotest.test_case "reliable: permanent partition -> clean timeout"
          `Quick permanent_partition_times_out_cleanly;
        Alcotest.test_case "failure messages are single-spaced" `Quick
          failure_messages_single_spaced;
        Alcotest.test_case "garbage header ignored" `Quick garbage_header_is_ignored;
        Alcotest.test_case "handler exceptions don't kill workers" `Quick
          handler_exception_does_not_kill_worker;
        Alcotest.test_case "request writers: replies" `Quick writers_replies;
        Alcotest.test_case "request writers: reject resend" `Quick
          writers_reject_resend;
        Alcotest.test_case "request writers: give-up retry" `Quick
          writers_give_up_retry;
        Alcotest.test_case
          "request writers: retries exhausted, failover, deadline" `Quick
          writers_partitioned;
        Alcotest.test_case "request writers: breaker fast-fail, deadlock" `Quick
          writers_fast_fail_and_deadlock;
      ] );
  ]
