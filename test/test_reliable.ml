(* The reliable transport over the deterministic fault simulator.

   The paper's runtime assumes Myrinet/GM delivery; these tests prove
   the new ack/retransmit layer gives the same RPC semantics over lossy
   links, property-style over hundreds of random fault schedules, each
   replayable from its seed. *)

open Rmi_runtime
module Value = Rmi_serial.Value
module Metrics = Rmi_stats.Metrics
module Fault_sim = Rmi_net.Fault_sim

let meta = Rmi_serial.Class_meta.make [ ("Box", [ ("v", Jir.Types.Tint) ]) ]
let m_double = 1

let box v =
  let b = Value.new_obj ~cls:0 ~nfields:1 in
  b.fields.(0) <- Value.Int v;
  Value.Obj b

let unbox = function
  | Some (Value.Obj o) -> (
      match o.Value.fields.(0) with
      | Value.Int v -> v
      | _ -> Alcotest.fail "bad box field")
  | _ -> Alcotest.fail "no boxed reply"

(* the two Sim stacks: the raw interconnect, and the Reliable adapter
   over it *)
let raw metrics = Rmi_net.Sim.create ~n:2 metrics
let reliable metrics = Rmi_net.Reliable.wrap (raw metrics)

(* a synchronous 2-machine pair; machine 1 exports "double the box and
   add one" and logs how many times each logical call id executed *)
let run_batch ~transport ?sim ids =
  let metrics = Metrics.create () in
  let net = transport metrics in
  Option.iter (Rmi_net.Transport.set_faults net) sim;
  let plans = Rmi_core.Plan_store.empty () in
  let n0 = Node.create net ~id:0 ~meta ~config:Config.class_ ~plans in
  let n1 = Node.create net ~id:1 ~meta ~config:Config.class_ ~plans in
  Node.set_pump n0 (fun () -> Node.serve_pending n1);
  Node.set_pump n1 (fun () -> Node.serve_pending n0);
  let execs : (int, int) Hashtbl.t = Hashtbl.create 16 in
  Node.export n1 ~obj:0 ~meth:m_double ~has_ret:true (fun args ->
      match args.(0) with
      | Value.Obj o -> (
          match o.Value.fields.(0) with
          | Value.Int v ->
              Hashtbl.replace execs v
                (1 + Option.value ~default:0 (Hashtbl.find_opt execs v));
              Some (box ((2 * v) + 1))
          | _ -> failwith "bad box")
      | _ -> failwith "bad arg");
  let results =
    List.map
      (fun id ->
        unbox
          (Node.call n0
             ~dest:(Remote_ref.make ~machine:1 ~obj:0)
             ~meth:m_double ~callsite:1 ~has_ret:true [| box id |]))
      ids
  in
  (results, execs, Metrics.snapshot metrics)

let ids = List.init 8 (fun i -> i + 1)
let expected = List.map (fun v -> (2 * v) + 1) ids

let check_seed seed =
  let sim = Fault_sim.create ~seed ~n:2 Fault_sim.default_lossy in
  let results, execs, _ = run_batch ~transport:reliable ~sim ids in
  results = expected
  && List.for_all (fun id -> Hashtbl.find_opt execs id = Some 1) ids

(* the headline property: over 500 random fault schedules every batch
   completes with the lossless results and every remote body ran
   exactly once per logical call.  QCheck prints the failing seed. *)
let prop_fault_schedules =
  QCheck.Test.make
    ~name:"500 fault seeds: lossless results, at-most-once execution"
    ~count:500
    QCheck.(int_bound 1_000_000)
    check_seed

(* pin one seed forever so a regression in the recovery path fails
   deterministically, without waiting for the random sweep to find it *)
let fixed_seed_regression () =
  Alcotest.(check bool) "seed 1337 recovers" true (check_seed 1337)

let replay_is_deterministic () =
  let once () =
    let sim = Fault_sim.create ~seed:4242 ~n:2 Fault_sim.default_lossy in
    let results, _, snap = run_batch ~transport:reliable ~sim ids in
    (results, Fault_sim.digest sim, snap)
  in
  let r1, d1, s1 = once () in
  let r2, d2, s2 = once () in
  Alcotest.(check (list int)) "same results" r1 r2;
  Alcotest.(check string) "byte-identical fault schedule" d1 d2;
  (* the latency histogram is wall-clock data: bucket placement may
     differ between identical replays, but the sample count (one per
     settled call) may not *)
  Alcotest.(check bool) "identical metrics snapshot" true
    (Metrics.strip_timing s1 = Metrics.strip_timing s2);
  Alcotest.(check int) "same latency sample count"
    (Metrics.lat_count s1.Metrics.lat_hist)
    (Metrics.lat_count s2.Metrics.lat_hist);
  Alcotest.(check bool) "schedule actually contains faults" true
    (String.length d1 > 0)

(* differential: reliable transport, empty fault schedule — the wire
   bytes per logical call and every pre-existing counter must match the
   raw transport exactly; the reliability machinery may only show up in
   its own counters *)
let lossless_reliable_matches_raw () =
  let raw_results, _, raw = run_batch ~transport:raw ids in
  let rel_results, _, rel = run_batch ~transport:reliable ids in
  Alcotest.(check (list int)) "same results" raw_results rel_results;
  Alcotest.(check int) "same messages" raw.Metrics.msgs_sent rel.Metrics.msgs_sent;
  Alcotest.(check int) "same wire bytes" raw.Metrics.bytes_sent rel.Metrics.bytes_sent;
  (* the wire-path telemetry (bytes_copied, pool traffic) is also
     transport-specific: enveloping physically copies frames the raw
     path never makes *)
  Alcotest.(check bool) "all pre-existing counters identical" true
    (Metrics.strip_timing
       { rel with Metrics.retries = 0; timeouts = 0; dup_drops = 0;
                  acks_sent = 0;
                  bytes_copied = raw.Metrics.bytes_copied;
                  pool_hits = raw.Metrics.pool_hits;
                  pool_misses = raw.Metrics.pool_misses }
    = Metrics.strip_timing raw);
  Alcotest.(check int) "no spurious retransmits" 0 rel.Metrics.retries;
  Alcotest.(check int) "no spurious timeouts" 0 rel.Metrics.timeouts;
  Alcotest.(check int) "no spurious dup drops" 0 rel.Metrics.dup_drops;
  (* one ack per data frame: request + reply per call *)
  Alcotest.(check int) "one ack per data frame" rel.Metrics.msgs_sent
    rel.Metrics.acks_sent

let faulty_run_counts_recovery_work () =
  let sim = Fault_sim.create ~seed:7 ~n:2 Fault_sim.default_lossy in
  let results, _, snap = run_batch ~transport:reliable ~sim ids in
  Alcotest.(check (list int)) "recovered results" expected results;
  Alcotest.(check bool) "recovery happened and was counted" true
    (snap.Metrics.retries > 0 || snap.Metrics.dup_drops > 0);
  (* logical accounting unchanged by loss: one request + one reply per
     call, payload bytes only *)
  Alcotest.(check int) "logical messages unaffected by loss"
    (2 * List.length ids) snap.Metrics.msgs_sent

(* the reliable transport must also work when machines are real OCaml
   domains: blocked receivers wait in slices and keep their retransmit
   timers alive instead of parking on a condition variable forever *)
let parallel_mode_over_reliable () =
  let metrics = Metrics.create () in
  let fabric =
    Fabric.create ~mode:Fabric.Parallel ~n:2 ~meta
      ~config:(Config.with_reliable Config.class_)
      ~plans:(Hashtbl.create 4) ~metrics ()
  in
  for i = 0 to 1 do
    Node.export (Fabric.node fabric i) ~obj:0 ~meth:m_double ~has_ret:true
      (fun args ->
        match args.(0) with
        | Value.Obj o -> (
            match o.Value.fields.(0) with
            | Value.Int v -> Some (box ((2 * v) + 1))
            | _ -> failwith "bad box")
        | _ -> failwith "bad arg")
  done;
  Fabric.run fabric (fun fabric ->
      let caller = Fabric.node fabric 0 in
      for v = 1 to 20 do
        Alcotest.(check int)
          (Printf.sprintf "call %d" v)
          ((2 * v) + 1)
          (unbox
             (Node.call caller
                ~dest:(Remote_ref.make ~machine:1 ~obj:0)
                ~meth:m_double ~callsite:1 ~has_ret:true [| box v |]))
      done)

(* --- pinned Sim + Reliable frame streams ---

   Like the wirecost report's digests (pinned against BENCH_wire.json),
   these runs pin absolute streams: every physical frame leaving the
   transmit path is folded into a digest exactly as the wirecost report
   folds it, and the recovery counters are pinned beside it. *)

let cell_meta =
  Rmi_serial.Class_meta.make
    [ ("Cell", [ ("v", Jir.Types.Tint); ("next", Jir.Types.Tobject 0) ]) ]

let chain n =
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

let rec chain_sum = function
  | Value.Obj o ->
      (match o.Value.fields.(0) with Value.Int v -> v | _ -> 0)
      + chain_sum o.Value.fields.(1)
  | _ -> 0

(* [calls] windowed RMIs 0 -> 1 over a Sim fabric with the reliable
   config and [sim] installed; returns the frame digest (hex), the sum
   of the integer replies and the metrics snapshot *)
let frame_stream ~config ~meta ~sim ~arg ~handler ~calls ~window =
  let metrics = Metrics.create () in
  let fabric =
    Fabric.create ~mode:Fabric.Sync ~faults:sim ~n:2 ~meta ~config
      ~plans:(Hashtbl.create 4) ~metrics ()
  in
  let digest = ref "" in
  Rmi_net.Transport.set_fault_hook (Fabric.net fabric)
    (fun ~src:_ ~dest:_ frame ->
      digest := Digest.string (!digest ^ Digest.bytes frame);
      [ frame ]);
  Node.export (Fabric.node fabric 1) ~obj:0 ~meth:m_double ~has_ret:true
    handler;
  let caller = Fabric.node fabric 0 in
  let dest = Remote_ref.make ~machine:1 ~obj:0 in
  let sum = ref 0 in
  Fabric.run fabric (fun _ ->
      let i = ref 1 in
      while !i <= calls do
        let k = min window (calls - !i + 1) in
        let futures =
          List.init k (fun j ->
              Node.call_async caller ~dest ~meth:m_double ~callsite:1
                ~has_ret:true [| arg (!i + j) |])
        in
        List.iter
          (fun f ->
            match Node.Future.await f with
            | Some (Value.Int v) -> sum := !sum + v
            | _ -> Alcotest.fail "call failed")
          futures;
        i := !i + k
      done);
  (Digest.to_hex !digest, !sum, Metrics.snapshot metrics)

let check_stream name ~digest ~sum ~retries ~dup_drops ~acks
    (d, s, (snap : Metrics.snapshot)) =
  Alcotest.(check string) (name ^ " frame digest") digest d;
  Alcotest.(check int) (name ^ " reply sum") sum s;
  Alcotest.(check int) (name ^ " retries") retries snap.Metrics.retries;
  Alcotest.(check int) (name ^ " dup_drops") dup_drops snap.Metrics.dup_drops;
  Alcotest.(check int) (name ^ " acks") acks snap.Metrics.acks_sent

let pinned_lossy_chain_stream () =
  check_stream "chain100 lossy seed 42"
    ~digest:"550ef48f579fa0e735ba083c0018fe89" ~sum:121200 ~retries:11
    ~dup_drops:5 ~acks:53
    (frame_stream ~config:(Config.with_reliable Config.class_) ~meta:cell_meta
       ~sim:(Fault_sim.create ~seed:42 ~n:2 Fault_sim.default_lossy)
       ~arg:(fun _ -> chain 100)
       ~handler:(fun args -> Some (Value.Int (chain_sum args.(0))))
       ~calls:24 ~window:8)

let pinned_durable_crash_stream () =
  let sim = Fault_sim.create ~seed:42 ~n:2 Fault_sim.lossless in
  Fault_sim.set_crash_plan sim
    (Fault_sim.seeded_crash_plan ~seed:42 ~n:2 ~crashes:1
       ~durability:Fault_sim.Durable ());
  check_stream "durable crash seed 42"
    ~digest:"b771f7f872f3063710aa825102253fcf" ~sum:6560 ~retries:26
    ~dup_drops:0 ~acks:160
    (frame_stream
       ~config:
         (Config.with_failover
            { Config.default_failover with Config.max_call_retries = 4 }
            (Config.with_reliable Config.class_))
       ~meta ~sim ~arg:box
       ~handler:(fun args ->
         match args.(0) with
         | Value.Obj { Value.fields = [| Value.Int v |]; _ } ->
             Some (Value.Int ((2 * v) + 1))
         | _ -> failwith "bad arg")
       ~calls:80 ~window:8)

(* a frame the fault simulator still holds for reordering is in
   flight: the adapter must answer [Waiting], not [Dead] — a [Dead]
   makes Node resend every outstanding call for nothing *)
let held_frame_is_not_dead () =
  let lower = Rmi_net.Sim.create ~n:2 (Metrics.create ()) in
  let net = Rmi_net.Reliable.wrap lower in
  let sim =
    Fault_sim.create ~seed:1 ~n:2
      { Fault_sim.lossless with Fault_sim.reorder = 1.0; max_delay = 4 }
  in
  Rmi_net.Transport.set_faults net sim;
  Rmi_net.Transport.send_raw lower ~src:0 ~dest:1 (Bytes.of_string "held");
  Alcotest.(check bool) "frame held by the simulator" true
    (Fault_sim.held_frames sim > 0);
  match Rmi_net.Transport.idle net ~self:0 with
  | Rmi_net.Transport.Waiting -> ()
  | Rmi_net.Transport.Dead -> Alcotest.fail "Dead while a frame is held"
  | _ -> Alcotest.fail "expected Waiting"

(* --- the idle sweep's steady state ---

   A sweep in which no timer is due reads each link's summaries and the
   detector cells and allocates nothing, whether the links are empty
   (the fabric is Dead) or hold a frame whose rto is far off (Waiting).
   The rto and the detector thresholds are set beyond the test's reach,
   so nothing fires while it spins. *)
let idle_words ~n ~unacked =
  let lower = Rmi_net.Sim.create ~n (Metrics.create ()) in
  let far = 1 lsl 40 in
  let net =
    Rmi_net.Reliable.wrap
      ~params:
        { Rmi_net.Reliable.default_params with
          Rmi_net.Reliable.rto = far;
          backoff_cap = far;
          ping_every = far;
          suspect_after = far;
          down_after = far;
        }
      lower
  in
  if unacked then
    Rmi_net.Transport.send net ~src:0 ~dest:(n - 1) (Bytes.of_string "pending");
  let outcome = ref Rmi_net.Transport.Raw_transport in
  let spin k =
    for _ = 1 to k do
      outcome := Rmi_net.Transport.idle net ~self:0
    done
  in
  spin 10;
  let w0 = Gc.minor_words () in
  let w1 = Gc.minor_words () in
  spin 1000;
  let w2 = Gc.minor_words () in
  (!outcome, w2 -. w1 -. (w1 -. w0))

let idle_allocates_nothing () =
  List.iter
    (fun n ->
      List.iter
        (fun (unacked, expect) ->
          let outcome, words = idle_words ~n ~unacked in
          let what = Printf.sprintf "n=%d, %d unacked" n (Bool.to_int unacked) in
          Alcotest.(check bool) (what ^ ": outcome") true (outcome = expect);
          Alcotest.(check (float 0.)) (what ^ ": minor words over 1000 idles") 0.
            words)
        [ (false, Rmi_net.Transport.Dead); (true, Rmi_net.Transport.Waiting) ])
    [ 2; 8 ]

(* --- the receive path's allocation ---

   One round trip over a Sync Sim Reliable pair, each side sending from
   a writer as the runtime does and receiving into one slice, which it
   releases as the runtime does: a 120-byte request and a 9-byte reply,
   each acked, so four frames cross.  The mailbox ring, the envelope
   parse, the filter narrowing the slice and the acks allocate nothing
   of their own; each frame is copied into a pooled frame that its last
   holder gives back, and its retransmit record comes from its link's
   spares.  What remains is the [unacked] table's bucket per data
   frame.  Per step, on OCaml 5.1.1:
   - 4: the request's unacked-table bucket;
   - 0: machine 1 takes the request and acks it;
   - 4: the reply's bucket;
   - 0: machine 0 takes the ack, then the reply, and acks it;
   - 0: machine 1 takes that ack.
   8 in all, and 8.05 over the span measured: a data frame's envelope
   grows a byte when its lseq's varint does (lseq 64 and 128 fall in the
   span), and a frame of a new length takes fresh bytes for its pool
   slot once.  It was 36 (22/3/8/3/0) while each frame was snapshotted
   into fresh bytes (18 words for the request, 4 for the reply, 3 per
   ack); 102 (30/20/16/28/8) while each frame crossed a [Queue] cell,
   [take_opt]'s [Some] and Sim's [Some (frame, off, len)], each data
   frame the adapter's [Some] too, and each frame sent a fresh 5-word
   retransmit record; 110 while the envelope's epoch was an optional
   argument.  CI runs OCaml 5.2, where the count has not been measured;
   a 5.2 run that reads more resets the bound as ROADMAP item 8 says. *)
let round_trip_bound = 9

let round_trip_words () =
  let module Msgbuf = Rmi_wire.Msgbuf in
  let module Transport = Rmi_net.Transport in
  let net =
    Rmi_net.Reliable.wrap (Rmi_net.Sim.create ~n:2 (Metrics.create ()))
  in
  let w = Msgbuf.create_writer () in
  let send ~src ~dest n =
    Msgbuf.clear w;
    ignore (Msgbuf.reserve w (Rmi_net.Envelope.gap + n) : int);
    Transport.send_writer net ~src ~dest w ~payload_off:Rmi_net.Envelope.gap
  in
  let s = Transport.slice () in
  let recv self =
    if Transport.try_recv_into net ~self s then begin
      Transport.release net ~self s.buf;
      s.len
    end
    else -1
  in
  let round () =
    send ~src:0 ~dest:1 120;
    (* the request; its ack goes back to machine 0 *)
    let req = recv 1 in
    send ~src:1 ~dest:0 9;
    (* machine 0 takes the ack, then the reply, and acks it *)
    let rep = recv 0 in
    (* machine 1 takes the reply's ack: nothing to hand up *)
    let none = recv 1 in
    if req <> 120 || rep <> 9 || none <> -1 then
      Alcotest.failf "round trip read %d, %d, %d" req rep none
  in
  for _ = 1 to 10 do
    round ()
  done;
  let reps = 1000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to reps do
    round ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int reps

let round_trip_allocation_bounded () =
  let words = round_trip_words () in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words per acked round trip <= %d" words
       round_trip_bound)
    true
    (words <= float_of_int round_trip_bound)

(* --- the microsecond clock ---

   A threaded fabric's timers read a monotonic clock instead of counting
   idle polls.  Here the clock is a ref the test moves by hand, so every
   threshold is checked to the microsecond. *)

module Reliable = Rmi_net.Reliable
module Transport = Rmi_net.Transport

let clock_start = 1_000

(* a raw 2-machine Sim under a fake-clocked adapter whose fault hook
   drops every frame (data, retransmits and heartbeats alike) and
   counts them.  [busy] parks a frame in machine 0's mailbox, which no
   test reads: the fabric never looks quiet, so only the timers fire. *)
let fake_clocked ?(busy = true) () =
  let clock = ref clock_start and frames = ref 0 in
  let lower = Rmi_net.Sim.create ~n:2 (Metrics.create ()) in
  let net = Reliable.wrap ~now:(fun () -> !clock) lower in
  if busy then Transport.send_raw lower ~src:1 ~dest:0 (Bytes.of_string "parked");
  Transport.set_fault_hook net (fun ~src:_ ~dest:_ _ ->
      incr frames;
      []);
  (net, clock, frames)

let outcome_name = function
  | Transport.Raw_transport -> "Raw_transport"
  | Transport.Dead -> "Dead"
  | Transport.Waiting -> "Waiting"
  | Transport.Retransmitted n -> Printf.sprintf "Retransmitted %d" n
  | Transport.Gave_up dests ->
      Printf.sprintf "Gave_up [%s]"
        (String.concat ";" (List.map string_of_int dests))

let expect_idle net clock at want =
  clock := at;
  Alcotest.(check string)
    (Printf.sprintf "idle at +%d us" (at - clock_start))
    want
    (outcome_name (Transport.idle net ~self:0))

(* a dropped data frame is resent exactly rto after it left, then after
   intervals doubling up to the cap, and abandoned after max_attempts
   sends; idle polls in between fire nothing *)
let clock_retransmit_schedule () =
  let net, clock, frames = fake_clocked () in
  let p = Reliable.clock_params in
  Transport.send net ~src:0 ~dest:1 (Bytes.of_string "dropped");
  Alcotest.(check int) "first send" 1 !frames;
  let sent_at = ref clock_start and interval = ref p.Reliable.rto in
  for _ = 2 to p.Reliable.max_attempts do
    (* many polls before the deadline change nothing *)
    for _ = 1 to 3 do
      expect_idle net clock (!sent_at + !interval - 1) "Waiting"
    done;
    expect_idle net clock (!sent_at + !interval) "Retransmitted 1";
    sent_at := !clock;
    interval := min (2 * !interval) p.Reliable.backoff_cap
  done;
  Alcotest.(check int) "the interval reached the cap" p.Reliable.backoff_cap
    !interval;
  expect_idle net clock (!sent_at + !interval - 1) "Waiting";
  expect_idle net clock (!sent_at + !interval) "Gave_up [1]";
  let budget = !clock - clock_start in
  Alcotest.(check bool)
    (Printf.sprintf "give-up budget %d us is ~147 ms" budget)
    true
    (budget > 140_000 && budget < 150_000);
  (* every send and retransmit reached the wire, plus heartbeats to the
     silent peer *)
  Alcotest.(check bool) "retransmits reached the hook" true
    (!frames >= p.Reliable.max_attempts)

(* on a quiet fabric nothing can be in flight, so the lost frame is
   resent at the next idle without waiting out the rto — once: the
   second retransmission waits for the doubled interval *)
let clock_quiet_resend () =
  let net, clock, frames = fake_clocked ~busy:false () in
  let p = Reliable.clock_params in
  Transport.send net ~src:0 ~dest:1 (Bytes.of_string "dropped");
  expect_idle net clock (clock_start + 1) "Retransmitted 1";
  Alcotest.(check int) "sent twice" 2 !frames;
  expect_idle net clock (clock_start + 2) "Waiting";
  expect_idle net clock (clock_start + 1 + (2 * p.Reliable.rto) - 1) "Waiting";
  expect_idle net clock (clock_start + 1 + (2 * p.Reliable.rto))
    "Retransmitted 1"

(* a frame the fault schedule holds back is not in flight: only later
   sends on its link release it, so the quiet resend goes out at once *)
let clock_held_frame_resend () =
  let clock = ref clock_start in
  let lower = Rmi_net.Sim.create ~n:2 (Metrics.create ()) in
  let net = Reliable.wrap ~now:(fun () -> !clock) lower in
  let holds =
    Fault_sim.create ~seed:1 ~n:2
      { Fault_sim.lossless with Fault_sim.reorder = 1.0; max_delay = 4 }
  in
  Transport.set_faults net holds;
  Transport.send net ~src:0 ~dest:1 (Bytes.of_string "held");
  Alcotest.(check int) "the schedule holds the frame" 1
    (Fault_sim.held_frames holds);
  expect_idle net clock (clock_start + 1) "Retransmitted 1"

(* the failure detector reads the same clock: a silent peer is pinged,
   suspected and confirmed down at the microsecond thresholds *)
let clock_failure_detector () =
  let net, clock, frames = fake_clocked () in
  let p = Reliable.clock_params in
  let idle_at at =
    clock := clock_start + at;
    ignore (Transport.idle net ~self:0 : Transport.idle_outcome)
  in
  let health_at at want =
    idle_at at;
    Alcotest.(check string)
      (Printf.sprintf "peer health at +%d us" at)
      want
      (match Transport.peer_health net ~self:0 ~peer:1 with
      | Transport.Alive -> "Alive"
      | Transport.Suspect -> "Suspect"
      | Transport.Down -> "Down")
  in
  (* no data was sent, so every frame the hook sees is a ping *)
  idle_at (p.Reliable.ping_every - 1);
  Alcotest.(check int) "no ping before ping_every" 0 !frames;
  idle_at p.Reliable.ping_every;
  Alcotest.(check int) "each machine pings the other at ping_every" 2 !frames;
  health_at (p.Reliable.suspect_after - 1) "Alive";
  health_at p.Reliable.suspect_after "Suspect";
  health_at (p.Reliable.down_after - 1) "Suspect";
  health_at p.Reliable.down_after "Down"

(* a threaded fabric under seeded loss: one pool worker domain serves
   batched, windowed calls over the wall-clock ARQ.  Results are exact,
   every handler body runs once, and retransmits stay within twice the
   logical messages (an idle-count clock fires them after a few polls,
   long before a late ack could arrive).  The give-up budget is raised
   from ~147 ms to ~3 s, so a runner that starves the worker domain
   can only fail the retry bound, never abandon a frame *)
let threaded_lossy_fabric () =
  let calls = 400 and window = 8 in
  let metrics = Metrics.create () in
  let fabric =
    Fabric.create ~mode:Fabric.Parallel
      ~faults:(Fault_sim.create ~seed:7 ~n:2 Fault_sim.default_lossy)
      ~arq_params:{ Reliable.clock_params with Reliable.max_attempts = 100 }
      ~n:2 ~meta
      ~config:
        (Config.with_domains 1
           (Config.with_batching (Config.with_reliable Config.class_)))
      ~plans:(Hashtbl.create 4) ~metrics ()
  in
  let execs = Array.init calls (fun _ -> Atomic.make 0) in
  Node.export (Fabric.node fabric 1) ~obj:0 ~meth:m_double ~has_ret:true
    (fun args ->
      match args.(0) with
      | Value.Obj { Value.fields = [| Value.Int v |]; _ } ->
          Atomic.incr execs.(v);
          Some (box ((2 * v) + 1))
      | _ -> failwith "bad arg");
  let caller = Fabric.node fabric 0 in
  let dest = Remote_ref.make ~machine:1 ~obj:0 in
  let wrong = ref [] in
  Fabric.run fabric (fun _ ->
      let i = ref 0 in
      while !i < calls do
        let k = min window (calls - !i) in
        let futures =
          List.init k (fun j ->
              let v = !i + j in
              (v, Node.call_async caller ~dest ~meth:m_double ~callsite:1
                    ~has_ret:true [| box v |]))
        in
        List.iter
          (fun (v, f) ->
            if unbox (Node.Future.await f) <> (2 * v) + 1 then
              wrong := v :: !wrong)
          futures;
        i := !i + k
      done);
  Fabric.shutdown_net fabric;
  Alcotest.(check (list int)) "calls answered wrongly" [] !wrong;
  Alcotest.(check (list int)) "calls not executed exactly once" []
    (List.filter (fun v -> Atomic.get execs.(v) <> 1) (List.init calls Fun.id));
  let snap = Metrics.snapshot metrics in
  Alcotest.(check bool) "loss actually hit the run" true
    (snap.Metrics.retries > 0 || snap.Metrics.dup_drops > 0);
  (* measured on a 2-vCPU VM: 0.71-0.98 x, idle or beside six CPU-bound
     processes, and 1.44 x at worst over earlier contended runs; the
     idle-count clock ran 3.1-3.3 x *)
  Alcotest.(check bool)
    (Printf.sprintf "retries %d <= 2 x msgs_sent %d" snap.Metrics.retries
       snap.Metrics.msgs_sent)
    true
    (snap.Metrics.retries <= 2 * snap.Metrics.msgs_sent)

(* the receiver's duplicate memory: in-order frames keep nothing above
   the watermark, a lossy windowed stream whose gaps are all filled
   stays within the window and answers exactly like a set of every lseq
   ever delivered, and a gap that is never filled (the sender gave up
   on that frame) holds every later frame until a reset *)
module Dedup = Rmi_net.Reliable.Dedup

let window = 8

let dedup_in_order_stays_empty () =
  let d = Dedup.create () in
  for lseq = 0 to 9_999 do
    if not (Dedup.fresh d lseq) then Alcotest.failf "lseq %d not fresh" lseq;
    if Dedup.pending d > window then
      Alcotest.failf "%d pending after lseq %d" (Dedup.pending d) lseq
  done;
  Alcotest.(check int) "nothing above the watermark" 0 (Dedup.pending d);
  Alcotest.(check bool) "old frame is a duplicate" false (Dedup.fresh d 4_321);
  Dedup.reset d;
  Alcotest.(check bool) "fresh again after reset" true (Dedup.fresh d 4_321)

let dedup_holds_frames_past_abandoned_gap () =
  let d = Dedup.create () in
  Alcotest.(check bool) "lseq 0 delivered" true (Dedup.fresh d 0);
  (* lseq 1 is abandoned: the receiver never sees it *)
  for lseq = 2 to 1_001 do
    if not (Dedup.fresh d lseq) then Alcotest.failf "lseq %d not fresh" lseq
  done;
  Alcotest.(check int) "every frame past the gap is held" 1_000
    (Dedup.pending d);
  Alcotest.(check bool) "held frame is a duplicate" false (Dedup.fresh d 500);
  Alcotest.(check bool) "frame below the gap is a duplicate" false
    (Dedup.fresh d 0);
  Alcotest.(check bool) "a late copy of the gap is still fresh" true
    (Dedup.fresh d 1);
  Alcotest.(check int) "filling the gap drains the set" 0 (Dedup.pending d);
  Alcotest.(check bool) "drained frame is a duplicate" false
    (Dedup.fresh d 1_001)

let dedup_matches_delivered_set () =
  let rng = Random.State.make [| 2024 |] in
  let d = Dedup.create () and seen = Hashtbl.create 64 in
  let rec lowest_missing l =
    if Hashtbl.mem seen l then lowest_missing (l + 1) else l
  in
  for step = 1 to 20_000 do
    if Random.State.int rng 2_000 = 0 then begin
      Dedup.reset d;
      Hashtbl.reset seen
    end;
    let base = lowest_missing 0 in
    let lseq =
      match Random.State.int rng 10 with
      | 0 -> Random.State.int rng (base + 1)  (* retransmit of an old frame *)
      | 1 -> -1 - Random.State.int rng 3  (* forged, never below the mark *)
      | _ -> base + Random.State.int rng window
    in
    let want = not (Hashtbl.mem seen lseq) in
    Hashtbl.replace seen lseq ();
    if Dedup.fresh d lseq <> want then
      Alcotest.failf "step %d: lseq %d fresh should be %b" step lseq want;
    (* the window's out-of-order frames plus the three forged lseqs *)
    if Dedup.pending d > window + 3 then
      Alcotest.failf "step %d: %d pending" step (Dedup.pending d)
  done

(* a receiver blocked on the microsecond clock while no link holds an
   unacked frame sweeps once, then once per 1 ms idle slice, not once
   per 100 us rto.  Each sweep reads the clock once, and a slice ends
   no sooner than its deadline.  So a wait of [ms] whole milliseconds
   reads it at most [ms + ms / 8 + 6] times: [wrap]'s start, the first
   sweep, one sweep per slice begun, the late frame's send and its
   receipt, one rto slice begun between those two, and the receipt of
   each of machine 0's pings, one per 8 ms ([clock_params]). *)
let idle_receiver_sweeps_per_ms () =
  let reads = Atomic.make 0 in
  let now () =
    Atomic.incr reads;
    Rmi_stats.Clock.now_us ()
  in
  let net = Reliable.wrap ~now (Rmi_net.Sim.create ~n:2 (Metrics.create ())) in
  let sender =
    Thread.create
      (fun () ->
        Thread.delay 0.05;
        Transport.send net ~src:0 ~dest:1 (Bytes.of_string "late"))
      ()
  in
  let t0 = Rmi_stats.Clock.now_us () in
  let buf, off, len = Transport.recv_blocking_slice net ~self:1 in
  let ms = (Rmi_stats.Clock.now_us () - t0) / 1000 in
  Thread.join sender;
  Alcotest.(check string) "the late frame" "late" (Bytes.sub_string buf off len);
  let n = Atomic.get reads in
  Alcotest.(check bool)
    (Printf.sprintf "%d clock reads over %d ms" n ms)
    true
    (n <= ms + (ms / 8) + 6)

let suite =
  [
    ( "reliable",
      [
        Fixtures.qcheck_case prop_fault_schedules;
        Alcotest.test_case "fixed-seed regression (1337)" `Quick
          fixed_seed_regression;
        Alcotest.test_case "same seed => identical schedule and metrics" `Quick
          replay_is_deterministic;
        Alcotest.test_case "lossless reliable == raw (bytes and counters)"
          `Quick lossless_reliable_matches_raw;
        Alcotest.test_case "faulty run counts retries/dups" `Quick
          faulty_run_counts_recovery_work;
        Alcotest.test_case "parallel mode (domains) over reliable" `Quick
          parallel_mode_over_reliable;
        Alcotest.test_case "pinned frame stream: chain100 under loss" `Quick
          pinned_lossy_chain_stream;
        Alcotest.test_case "pinned frame stream: durable crash" `Quick
          pinned_durable_crash_stream;
        Alcotest.test_case "idle allocates nothing when nothing is due" `Quick
          idle_allocates_nothing;
        Alcotest.test_case "acked round trip allocation bounded" `Quick
          round_trip_allocation_bounded;
        Alcotest.test_case "held frame keeps idle Waiting, not Dead" `Quick
          held_frame_is_not_dead;
        Alcotest.test_case "clock: retransmit at rto, doubling, give-up"
          `Quick clock_retransmit_schedule;
        Alcotest.test_case "clock: quiet fabric resends a lost frame at once"
          `Quick clock_quiet_resend;
        Alcotest.test_case "clock: a held frame does not delay the resend"
          `Quick clock_held_frame_resend;
        Alcotest.test_case "clock: ping, suspect and down at us thresholds"
          `Quick clock_failure_detector;
        Alcotest.test_case "threaded lossy fabric: bounded retransmits"
          `Quick threaded_lossy_fabric;
        Alcotest.test_case "dedup memory bounded by the window" `Quick
          dedup_in_order_stays_empty;
        Alcotest.test_case "dedup holds frames past an abandoned gap" `Quick
          dedup_holds_frames_past_abandoned_gap;
        Alcotest.test_case "dedup answers like the delivered set" `Quick
          dedup_matches_delivered_set;
        Alcotest.test_case "clock: an idle blocked receiver sweeps per ms"
          `Quick idle_receiver_sweeps_per_ms;
      ] );
  ]
