(* PR 6: the work-stealing multi-domain dispatch runtime.

   The paper's server model is serial — one loop per machine, one
   request at a time.  These tests prove the pooled runtime is a pure
   scheduling substitution: the same pipelined, batched, seeded-lossy
   traffic produces byte-identical replies and exactly-once handler
   execution whether one worker domain serves the cluster or several
   steal from each other, and a request refused by a full admission
   queue is retried to completion, never lost and never re-executed.

   Alongside the end-to-end parity property, the shared mutable state
   the pool leans on is raced directly: the wire buffer pool
   ([Msgbuf.Pool]) and the plan store's compile-outside-the-lock
   protocol ([Plan_store.get]). *)

open Rmi_runtime
module Value = Rmi_serial.Value
module Metrics = Rmi_stats.Metrics
module Fault_sim = Rmi_net.Fault_sim
module Msgbuf = Rmi_wire.Msgbuf
module Plan = Rmi_core.Plan
module Plan_store = Rmi_core.Plan_store

let meta = Rmi_serial.Class_meta.make [ ("Box", [ ("v", Jir.Types.Tint) ]) ]
let m_double = 1

let box v =
  let b = Value.new_obj ~cls:0 ~nfields:1 in
  b.fields.(0) <- Value.Int v;
  Value.Obj b

(* rejects must not trip breakers mid-run and divert calls (same
   setting the load gate uses) *)
let failover =
  { Config.default_failover with Config.breaker_threshold = max_int / 2 }

let base = Config.with_reliable (Config.with_failover failover Config.class_)

(* [calls] pipelined doubling RMIs from machine 0, round-robin across
   [servers] machines, under [domains] pool workers.  Returns the
   reply digest (issue order), the per-call handler execution counts,
   the metrics snapshot and the [msgs_sent] the fabric's stop added. *)
let run_load ~domains ~queue_depth ?faults ~servers ~calls ~window ~config ()
    =
  let metrics = Metrics.create () in
  let n = servers + 1 in
  let sim =
    Option.map
      (fun seed -> Fault_sim.create ~seed ~n Fault_sim.default_lossy)
      faults
  in
  let fabric =
    Fabric.create ~mode:Fabric.Parallel ?faults:sim ~n ~meta
      ~config:(Config.with_domains ~queue_depth domains config)
      ~plans:(Hashtbl.create 4) ~metrics ()
  in
  let execs = Array.init calls (fun _ -> Atomic.make 0) in
  for s = 1 to servers do
    Node.export (Fabric.node fabric s) ~obj:0 ~meth:m_double ~has_ret:true
      (fun args ->
        match args.(0) with
        | Value.Obj o -> (
            match o.Value.fields.(0) with
            | Value.Int id ->
                Atomic.incr execs.(id);
                Some (box ((2 * id) + 1))
            | _ -> failwith "bad box")
        | _ -> failwith "bad arg")
  done;
  let caller = Fabric.node fabric 0 in
  let buf = Buffer.create 256 in
  let sent_before_stop = ref 0 in
  Fabric.run fabric (fun _ ->
      let i = ref 0 in
      while !i < calls do
        let k = min window (calls - !i) in
        let futures =
          List.init k (fun j ->
              let id = !i + j in
              let dest =
                Remote_ref.make ~machine:(1 + (id mod servers)) ~obj:0
              in
              Node.call_async caller ~dest ~meth:m_double ~callsite:1
                ~has_ret:true [| box id |])
        in
        List.iter
          (fun f ->
            (match Node.Future.await f with
            | Some (Value.Obj o) -> (
                match o.Value.fields.(0) with
                | Value.Int v -> Buffer.add_string buf (string_of_int v)
                | _ -> Buffer.add_char buf '?')
            | _ -> Buffer.add_string buf "none");
            Buffer.add_char buf ';')
          futures;
        i := !i + k
      done;
      sent_before_stop := (Metrics.snapshot metrics).Metrics.msgs_sent);
  let s = Metrics.snapshot metrics in
  ( Digest.to_hex (Digest.string (Buffer.contents buf)),
    execs,
    s,
    s.Metrics.msgs_sent - !sent_before_stop )

let exactly_once execs = Array.for_all (fun a -> Atomic.get a = 1) execs

(* the headline property: faulty + batched + pipelined traffic across
   two worker domains answers byte-for-byte what one domain answers,
   and every handler body still runs exactly once per logical call —
   over 300 random fault schedules, each replayable from its seed *)
let check_parity seed =
  let calls = 12 in
  let config = Config.with_batching base in
  let run domains =
    run_load ~domains ~queue_depth:2 ~faults:seed ~servers:2 ~calls
      ~window:6 ~config ()
  in
  let d1, e1, s1, _ = run 1 in
  let d2, e2, s2, _ = run 2 in
  String.equal d1 d2
  && exactly_once e1 && exactly_once e2
  (* one RTT sample per settled call, under either scheduler *)
  && Metrics.lat_count s1.Metrics.lat_hist = calls
  && Metrics.lat_count s2.Metrics.lat_hist = calls

(* over 2 servers, domains 1 vs 2 compares the two worker kinds: one
   domain polls both servers' queues, two domains each run one
   server's serve loop *)
let prop_domain_parity =
  QCheck.Test.make
    ~name:
      "300 fault seeds: 2-domain pool == 1-domain, exactly-once, \
       batched + pipelined"
    ~count:300
    QCheck.(int_bound 1_000_000)
    check_parity

(* pin one seed forever so a pool regression fails deterministically *)
let fixed_seed_parity () =
  Alcotest.(check bool) "seed 1337" true (check_parity 1337)

(* admission control: a depth-1 queue under a window of 16 calls must
   refuse requests — and every refused call must still complete via
   the client's retry, exactly once *)
let admission_rejects () =
  let calls = 48 in
  let digest, execs, s, _ =
    run_load ~domains:2 ~queue_depth:1 ~servers:4 ~calls ~window:16
      ~config:base ()
  in
  let expect =
    let buf = Buffer.create 256 in
    for id = 0 to calls - 1 do
      Buffer.add_string buf (string_of_int ((2 * id) + 1));
      Buffer.add_char buf ';'
    done;
    Digest.to_hex (Digest.string (Buffer.contents buf))
  in
  Alcotest.(check string) "all replies correct, in issue order" expect digest;
  Alcotest.(check bool) "every handler ran exactly once" true
    (exactly_once execs);
  Alcotest.(check bool) "admission control engaged" true
    (s.Metrics.queue_rejects > 0);
  Alcotest.(check bool) "admitted depth never exceeded the bound" true
    (s.Metrics.queue_depth_hwm <= 1);
  Alcotest.(check int) "one dispatch per call" calls s.Metrics.dispatches

(* a Request-kind frame whose header is cut off after its seq, found
   by intake while the queue is full, is queued like a reply (not
   rejected) and dropped at dispatch; a well-formed request arriving
   at the same full queue is rejected and retried to completion.  One
   worker drains both mailboxes in a fixed order: per round it takes
   one frame from machine 1, then one from machine 2, then executes
   one task, own queues first.  Everything is sent before it starts:
   round 1 admits [a] and [b] and runs [a]; round 2 queues the
   malformed frame behind [b] (the queue is full) and runs [b]; round
   3 rejects [c] (the malformed frame still fills the queue) and drops
   the malformed frame. *)
let malformed_request_under_full_queue () =
  let metrics = Metrics.create () in
  let fabric =
    Fabric.create ~mode:Fabric.Parallel ~n:3 ~meta
      ~config:
        (Config.with_domains ~queue_depth:1 1
           (Config.with_failover failover Config.class_))
      ~plans:(Hashtbl.create 4) ~metrics ()
  in
  for s = 1 to 2 do
    Node.export (Fabric.node fabric s) ~obj:0 ~meth:m_double ~has_ret:true
      (fun args ->
        match args.(0) with
        | Value.Obj { fields = [| Value.Int v |]; _ } -> Some (box (2 * v))
        | _ -> None)
  done;
  let call machine v =
    Node.call_async (Fabric.node fabric 0)
      ~dest:(Remote_ref.make ~machine ~obj:0)
      ~meth:m_double ~callsite:(-1) ~has_ret:true [| box v |]
  in
  let a = call 1 1 in
  let b = call 2 2 in
  let cut = Msgbuf.create_writer () in
  Msgbuf.write_u8 cut 0 (* Request *);
  Msgbuf.write_uvarint cut 0 (* src *);
  Msgbuf.write_uvarint cut 0 (* epoch *);
  Msgbuf.write_uvarint cut 999 (* seq; the header ends here *);
  Rmi_net.Cluster.inject_frame (Fabric.cluster fabric) ~dest:2
    (Msgbuf.contents cut);
  let c = call 2 3 in
  (* peek with a time bound: a worker killed by the frame must fail
     the test, not hang it *)
  let rec settle fut tries =
    match Node.Future.peek fut with
    | Some (Some (Value.Obj { fields = [| Value.Int v |]; _ })) -> v
    | Some _ -> Alcotest.fail "unexpected reply"
    | None ->
        if tries = 0 then Alcotest.fail "call never settled";
        Unix.sleepf 0.001;
        settle fut (tries - 1)
  in
  let replies =
    Fabric.run fabric (fun _ -> List.map (fun f -> settle f 10_000) [ a; b; c ])
  in
  let s = Metrics.snapshot metrics in
  Alcotest.(check (list int)) "every call answered" [ 2; 4; 6 ] replies;
  Alcotest.(check int) "only the well-formed request was rejected" 1
    s.Metrics.queue_rejects;
  Alcotest.(check int) "the malformed frame was dispatched" 4
    s.Metrics.dispatches

(* the pool's scheduling telemetry on an unconstrained run, with one
   worker per server (each a serve loop), with three workers (one
   polling two servers beside two serve loops) and with two (each
   polling two servers).  Stop sends every server one shutdown
   request, which no worker counts as a dispatch. *)
let steals_are_counted () =
  let calls = 60 and servers = 4 in
  List.iter
    (fun domains ->
      let at = Printf.sprintf " (%d domains)" domains in
      let _, execs, s, stop_msgs =
        run_load ~domains ~queue_depth:64 ~servers ~calls ~window:12
          ~config:base ()
      in
      Alcotest.(check bool) ("exactly once" ^ at) true (exactly_once execs);
      Alcotest.(check int) ("one dispatch per call" ^ at) calls
        s.Metrics.dispatches;
      Alcotest.(check bool) ("no rejects at depth 64" ^ at) true
        (s.Metrics.queue_rejects = 0);
      Alcotest.(check int) ("stop sends one message per server" ^ at) servers
        stop_msgs)
    [ servers; 3; 2 ]

(* ---- Msgbuf.Pool under contention ------------------------------- *)

(* four domains hammer one shared buffer pool; every writer acquired
   must come back cleared, private to its holder, and readable back
   verbatim — and the pool must account every acquisition *)
let pool_race () =
  let metrics = Metrics.create () in
  let pool = Msgbuf.Pool.create ~metrics in
  let iters = 2000 in
  let n_domains = 4 in
  let bad = Atomic.make 0 in
  let work d () =
    for i = 1 to iters do
      Msgbuf.Pool.with_writer pool (fun w ->
          if Msgbuf.length w <> 0 then Atomic.incr bad;
          let v = (d * 10_000_000) + i in
          Msgbuf.write_uvarint w v;
          Msgbuf.write_double w (float_of_int v);
          let b = Msgbuf.contents w in
          let r =
            Msgbuf.Pool.acquire_reader pool b ~off:0 ~len:(Bytes.length b)
          in
          if
            Msgbuf.read_uvarint r <> v
            || Msgbuf.read_double r <> float_of_int v
          then Atomic.incr bad;
          Msgbuf.Pool.release_reader pool r)
    done
  in
  let ds = List.init n_domains (fun d -> Domain.spawn (work d)) in
  List.iter Domain.join ds;
  Alcotest.(check int) "no torn or shared buffer observed" 0
    (Atomic.get bad);
  let s = Metrics.snapshot metrics in
  Alcotest.(check int) "every acquisition accounted"
    (2 * n_domains * iters)
    (s.Metrics.pool_hits + s.Metrics.pool_misses);
  Alcotest.(check bool) "free list actually recycled" true
    (s.Metrics.pool_hits > 0)

(* ---- Plan_store under contention -------------------------------- *)

let mk_source ~hash ~compiles ~version =
  {
    Plan_store.src_hash = (fun _ -> Some (Atomic.get hash));
    Plan_store.src_compile =
      (fun site ->
        Atomic.incr compiles;
        (* widen the race window: several domains should be in here at
           once on the first round *)
        Unix.sleepf 0.001;
        Some
          {
            (Plan.generic ~callsite:site ~nargs:1 ~has_ret:true) with
            Plan.version = Atomic.get version;
          });
  }

(* four domains race [get] on one site: the racing compiles must
   collapse to a single install (first wins, losers adopt it as a
   hit), and flipping the source hash must invalidate exactly once
   while every domain keeps receiving a plan for the site *)
let plan_store_race () =
  let site = 7 in
  let hash = Atomic.make "h1" in
  let compiles = Atomic.make 0 in
  let version = Atomic.make 1 in
  let store = Plan_store.create (mk_source ~hash ~compiles ~version) in
  let iters = 200 in
  let bad = Atomic.make 0 in
  let sweep () =
    let worker () =
      for _ = 1 to iters do
        match Plan_store.get store ~site with
        | Some (p, _) when p.Plan.callsite = site -> ()
        | Some _ | None -> Atomic.incr bad
      done
    in
    let ds = List.init 4 (fun _ -> Domain.spawn worker) in
    List.iter Domain.join ds
  in
  sweep ();
  Alcotest.(check int) "no lookup failed" 0 (Atomic.get bad);
  Alcotest.(check int) "racing compiles collapsed to one install" 1
    (Plan_store.misses store);
  Alcotest.(check int) "no invalidation yet" 0
    (Plan_store.invalidations store);
  Alcotest.(check bool) "compile race actually happened (or at least ran)"
    true
    (Atomic.get compiles >= 1);
  (match Plan_store.get store ~site with
  | Some (p, Plan_store.Hit) ->
      Alcotest.(check int) "installed plan is v1" 1 p.Plan.version
  | _ -> Alcotest.fail "expected a cached hit");
  (* the source slice changes: every domain must converge on the
     recompiled plan through exactly one invalidation *)
  Atomic.set hash "h2";
  Atomic.set version 2;
  sweep ();
  Alcotest.(check int) "still no lookup failed" 0 (Atomic.get bad);
  Alcotest.(check int) "stale hash invalidated exactly once" 1
    (Plan_store.invalidations store);
  Alcotest.(check int) "second install, no clobbering re-installs" 2
    (Plan_store.misses store);
  match Plan_store.get store ~site with
  | Some (p, Plan_store.Hit) ->
      Alcotest.(check int) "recompiled plan is v2" 2 p.Plan.version
  | _ -> Alcotest.fail "expected a cached hit after invalidation"

let suite =
  [
    ( "load",
      [
        Fixtures.qcheck_case prop_domain_parity;
        Alcotest.test_case "fixed seed 1337: 2-domain parity" `Quick
          fixed_seed_parity;
        Alcotest.test_case "depth-1 queue rejects, retries complete" `Quick
          admission_rejects;
        Alcotest.test_case "pool telemetry: dispatches exact, no spurious \
                            rejects" `Quick steals_are_counted;
        Alcotest.test_case "malformed request under a full queue is queued"
          `Quick malformed_request_under_full_queue;
        Alcotest.test_case "Msgbuf.Pool: 4-domain acquire/release race"
          `Quick pool_race;
        Alcotest.test_case "Plan_store: concurrent compile + invalidate"
          `Quick plan_store_race;
      ] );
  ]
