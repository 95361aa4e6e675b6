(* Network substrate tests: mailboxes (including cross-domain blocking
   delivery), the cluster, and the cost model. *)

open Rmi_net
module Metrics = Rmi_stats.Metrics

(* a mailbox take as a string, [None] when it found nothing *)
let taken take =
  let s = Transport.slice () in
  if take s then Some (Bytes.sub_string s.buf s.off s.len) else None

let take_blocking box =
  let s = Transport.slice () in
  Mailbox.recv_blocking box s;
  s.buf

let mailbox_fifo () =
  let box = Mailbox.create () in
  Alcotest.(check bool) "empty" true (Mailbox.is_empty box);
  Mailbox.send box (Bytes.of_string "a");
  Mailbox.send box (Bytes.of_string "b");
  Alcotest.(check int) "two queued" 2 (Mailbox.length box);
  Alcotest.(check (option string)) "a first" (Some "a")
    (taken (Mailbox.try_recv box));
  Alcotest.(check string) "b second (blocking)" "b"
    (Bytes.to_string (take_blocking box));
  Alcotest.(check (option string)) "drained" None
    (taken (Mailbox.try_recv box))

let mailbox_cross_domain () =
  (* a receiver blocked in recv_blocking must wake when another domain
     sends *)
  let box = Mailbox.create () in
  let receiver = Domain.spawn (fun () -> Bytes.to_string (take_blocking box)) in
  (* give the receiver a moment to block *)
  Unix.sleepf 0.01;
  Mailbox.send box (Bytes.of_string "wake up");
  Alcotest.(check string) "delivered" "wake up" (Domain.join receiver)

let mailbox_many_messages_cross_domain () =
  let box = Mailbox.create () in
  let n = 1000 in
  let receiver =
    Domain.spawn (fun () ->
        let total = ref 0 in
        for _ = 1 to n do
          total := !total + Bytes.length (take_blocking box)
        done;
        !total)
  in
  let sent = ref 0 in
  for i = 1 to n do
    let len = 1 + (i mod 7) in
    sent := !sent + len;
    Mailbox.send box (Bytes.create len)
  done;
  Alcotest.(check int) "all bytes delivered" !sent (Domain.join receiver)

let mailbox_recv_deadline () =
  let box = Mailbox.create () in
  Alcotest.(check (option string)) "times out empty" None
    (taken (Mailbox.recv_deadline box ~seconds:0.005));
  Mailbox.send box (Bytes.of_string "x");
  Alcotest.(check (option string)) "immediate when queued" (Some "x")
    (taken (Mailbox.recv_deadline box ~seconds:0.005))

let envelope_roundtrip () =
  let payload = Bytes.of_string "hello rmi" in
  let frame =
    Envelope.encode ~kind:Envelope.Data ~src:3 ~epoch:2 ~lseq:77 ~payload ()
  in
  (match Envelope.decode frame with
  | Some ({ Envelope.kind = Data; src = 3; epoch = 2; lseq = 77 }, p) ->
      Alcotest.(check string) "payload intact" "hello rmi" (Bytes.to_string p)
  | _ -> Alcotest.fail "roundtrip failed");
  (* an ack frame has no payload *)
  (match
     Envelope.decode
       (Envelope.encode ~kind:Envelope.Ack ~src:0 ~epoch:0 ~lseq:5
          ~payload:Bytes.empty ())
   with
  | Some ({ Envelope.kind = Ack; src = 0; epoch = 0; lseq = 5 }, p) ->
      Alcotest.(check int) "empty payload" 0 (Bytes.length p)
  | _ -> Alcotest.fail "ack roundtrip failed");
  (* any single flipped bit must be caught by the checksum *)
  for pos = 0 to Bytes.length frame - 1 do
    for bit = 0 to 7 do
      let bad = Bytes.copy frame in
      Bytes.set bad pos
        (Char.chr (Char.code (Bytes.get bad pos) lxor (1 lsl bit)));
      match Envelope.decode bad with
      | None -> ()
      | Some _ ->
          Alcotest.fail
            (Printf.sprintf "flip at %d.%d went undetected" pos bit)
    done
  done

let fault_sim_deterministic () =
  let feed sim =
    List.concat_map
      (fun i -> Fault_sim.on_send sim ~src:0 ~dest:1 (Bytes.make 8 (Char.chr i)))
      (List.init 64 (fun i -> i))
  in
  let a = Fault_sim.create ~seed:99 ~n:2 Fault_sim.default_lossy in
  let b = Fault_sim.create ~seed:99 ~n:2 Fault_sim.default_lossy in
  let da = feed a and db = feed b in
  Alcotest.(check bool) "same seed, same deliveries" true (da = db);
  Alcotest.(check string) "same seed, same digest" (Fault_sim.digest a)
    (Fault_sim.digest b);
  let c = Fault_sim.create ~seed:100 ~n:2 Fault_sim.default_lossy in
  Alcotest.(check bool) "different seed, different schedule" true
    (feed c <> da || Fault_sim.digest c <> Fault_sim.digest a)

let fault_sim_lossless_is_passthrough () =
  let sim = Fault_sim.create ~seed:1 ~n:2 Fault_sim.lossless in
  let frame = Bytes.of_string "frame" in
  for _ = 1 to 100 do
    Alcotest.(check bool) "delivered unchanged" true
      (Fault_sim.on_send sim ~src:1 ~dest:0 frame = [ frame ])
  done;
  Alcotest.(check string) "no fault decisions logged" "" (Fault_sim.digest sim);
  Alcotest.(check int) "nothing held" 0 (Fault_sim.held_frames sim)

(* the decision log for one known seed, pinned byte-for-byte: any
   change to the sampling order, the log format or the crash machinery
   that silently reshuffles schedules fails here first *)
let fault_sim_digest_pinned () =
  let sim = Fault_sim.create ~seed:7 ~n:2 Fault_sim.default_lossy in
  Fault_sim.set_crash_plan sim
    [
      { Fault_sim.victim = 1; crash_at = 6; restart_after = Some 4;
        durability = Fault_sim.Amnesia };
    ];
  for i = 1 to 12 do
    ignore (Fault_sim.on_send sim ~src:0 ~dest:1 (Bytes.make 8 (Char.chr i)))
  done;
  Alcotest.(check string) "digest pinned for seed 7"
    "0->1 #3 drop\n\
     0->1 #5 drop\n\
     crash m1 @6 amnesia outage=4\n\
     0->1 dead-dest drop @6\n\
     0->1 dead-dest drop @7\n\
     0->1 dead-dest drop @8\n\
     0->1 dead-dest drop @9\n\
     restart m1 @10 epoch=1\n\
     0->1 #7 hold 1\n\
     0->1 release\n"
    (Fault_sim.digest sim)

(* the cluster's receives into a fresh slice, as tuples *)
let cluster_deadline c ~self ~seconds =
  let s = Transport.slice () in
  if Cluster.recv_deadline_into c ~self ~seconds s then
    Some (s.buf, s.off, s.len)
  else None

let cluster_try c ~self =
  let s = Transport.slice () in
  if Cluster.try_recv_into c ~self s then Some (s.buf, s.off, s.len) else None

let recv_deadline_edge_cases () =
  let m = Metrics.create () in
  let c = Cluster.create ~n:2 m in
  (* zero and negative deadlines still drain an already-deliverable
     frame (poll semantics), and return None — not hang — when empty *)
  Cluster.send c ~src:0 ~dest:1 (Bytes.of_string "queued");
  Alcotest.(check (option string)) "zero deadline drains" (Some "queued")
    (Option.map Fixtures.message (cluster_deadline c ~self:1 ~seconds:0.0)
     |> Option.map Bytes.to_string);
  Alcotest.(check (option string)) "zero deadline empty" None
    (Option.map Fixtures.message (cluster_deadline c ~self:1 ~seconds:0.0)
     |> Option.map Bytes.to_string);
  Cluster.send c ~src:0 ~dest:1 (Bytes.of_string "again");
  Alcotest.(check (option string)) "negative deadline drains" (Some "again")
    (Option.map Fixtures.message
       (cluster_deadline c ~self:1 ~seconds:(-1.0))
     |> Option.map Bytes.to_string);
  Alcotest.(check (option string)) "negative deadline empty" None
    (Option.map Fixtures.message
       (cluster_deadline c ~self:1 ~seconds:(-1.0))
     |> Option.map Bytes.to_string)

let recv_deadline_expires_while_frames_held () =
  (* every frame is held back one send by the reorder stage: a deadline
     must expire cleanly while the only frame in the system is in the
     simulator's hold queue, then the next send releases it *)
  let m = Metrics.create () in
  let c = Cluster.create ~n:2 m in
  (* max_delay 2 and a seed whose first delay sample is 2: the frame
     stays in the hold queue until the next send on the link *)
  let seed =
    let ok s =
      let probe =
        Fault_sim.create ~seed:s ~n:2
          { Fault_sim.drop = 0.0; duplicate = 0.0; reorder = 1.0;
            corrupt = 0.0; max_delay = 2 }
      in
      ignore (Fault_sim.on_send probe ~src:0 ~dest:1 (Bytes.of_string "x"));
      Fault_sim.held_frames probe = 1
    in
    let rec find s = if ok s then s else find (s + 1) in
    find 1
  in
  let sim =
    Fault_sim.create ~seed ~n:2
      { Fault_sim.drop = 0.0; duplicate = 0.0; reorder = 1.0; corrupt = 0.0;
        max_delay = 2 }
  in
  Cluster.set_faults c sim;
  Cluster.send c ~src:0 ~dest:1 (Bytes.of_string "held");
  Alcotest.(check int) "frame held" 1 (Fault_sim.held_frames sim);
  let t0 = Unix.gettimeofday () in
  Alcotest.(check (option string)) "deadline expires, frame still held" None
    (Option.map Fixtures.message
       (cluster_deadline c ~self:1 ~seconds:0.02)
     |> Option.map Bytes.to_string);
  Alcotest.(check bool) "expired promptly" true
    (Unix.gettimeofday () -. t0 < 5.0);
  (* subsequent sends on the link age the hold queue and release the
     frame; those sends may themselves be held, so flush until both the
     held frame and the releasing frame have surfaced *)
  Cluster.send c ~src:0 ~dest:1 (Bytes.of_string "release");
  let seen = Hashtbl.create 4 in
  let flushes = ref 0 in
  while not (Hashtbl.mem seen "held" && Hashtbl.mem seen "release") do
    (match cluster_deadline c ~self:1 ~seconds:0.05 with
    | Some m -> Hashtbl.replace seen (Bytes.to_string (Fixtures.message m)) ()
    | None ->
        incr flushes;
        if !flushes > 8 then Alcotest.fail "held frame never released";
        Cluster.send c ~src:0 ~dest:1
          (Bytes.of_string (Printf.sprintf "flush%d" !flushes)))
  done;
  Alcotest.(check bool) "held frame surfaced" true (Hashtbl.mem seen "held");
  Alcotest.(check bool) "releasing frame surfaced" true
    (Hashtbl.mem seen "release")

let cluster_counts_traffic () =
  let m = Metrics.create () in
  let c = Cluster.create ~n:3 m in
  Alcotest.(check int) "size" 3 (Cluster.size c);
  Cluster.send c ~src:0 ~dest:2 (Bytes.create 10);
  Cluster.send c ~src:2 ~dest:0 (Bytes.create 32);
  let s = Metrics.snapshot m in
  Alcotest.(check int) "messages" 2 s.Metrics.msgs_sent;
  Alcotest.(check int) "bytes" 42 s.Metrics.bytes_sent;
  Alcotest.(check bool) "pending" true (Cluster.pending_anywhere c);
  Alcotest.(check bool) "machine 2 has one" true
    (cluster_try c ~self:2 <> None);
  Alcotest.(check bool) "machine 1 has none" true
    (cluster_try c ~self:1 = None)

let cluster_rejects_bad_ids () =
  let m = Metrics.create () in
  let c = Cluster.create ~n:2 m in
  Alcotest.(check bool) "bad dest" true
    (try
       Cluster.send c ~src:0 ~dest:5 Bytes.empty;
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "zero machines" true
    (try
       ignore (Cluster.create ~n:0 m);
       false
     with Invalid_argument _ -> true)

let costmodel_components () =
  let model = Costmodel.myrinet_2003 in
  Alcotest.(check (float 1e-12)) "zero counters" 0.0
    (Costmodel.modeled_seconds model Metrics.zero);
  (* per the paper: one optimized RMI is ~40 us = 2 messages + dispatch *)
  let one_rmi =
    { Metrics.zero with Metrics.msgs_sent = 2; remote_rpcs = 1; bytes_sent = 64 }
  in
  let t = Costmodel.modeled_seconds model one_rmi *. 1e6 in
  Alcotest.(check bool)
    (Printf.sprintf "one rmi ~ 40us (%.1f)" t)
    true
    (t > 20.0 && t < 60.0);
  (* allocation cost: the paper's 0.1 us per object *)
  let allocs =
    { Metrics.zero with Metrics.allocs = 100 }
  in
  Alcotest.(check (float 1e-9)) "100 allocs = 10us" 1e-5
    (Costmodel.modeled_seconds model allocs)

let costmodel_breakdown_sorted () =
  let model = Costmodel.myrinet_2003 in
  let s =
    { Metrics.zero with Metrics.msgs_sent = 100; cycle_lookups = 10; allocs = 1 }
  in
  match Costmodel.breakdown model s with
  | (label, top) :: rest ->
      Alcotest.(check string) "messages dominate" "messages" label;
      List.iter
        (fun (_, v) -> Alcotest.(check bool) "descending" true (v <= top))
        rest
  | [] -> Alcotest.fail "empty breakdown"

let costmodel_monotone_in_counters () =
  let model = Costmodel.myrinet_2003 in
  let base =
    { Metrics.zero with Metrics.msgs_sent = 10; bytes_sent = 1000; allocs = 5 }
  in
  let more = { base with Metrics.cycle_lookups = 1000 } in
  Alcotest.(check bool) "more lookups cost more" true
    (Costmodel.modeled_seconds model more > Costmodel.modeled_seconds model base)

let suite =
  [
    ( "net.mailbox",
      [
        Alcotest.test_case "fifo order" `Quick mailbox_fifo;
        Alcotest.test_case "cross-domain wakeup" `Quick mailbox_cross_domain;
        Alcotest.test_case "1000 messages across domains" `Quick
          mailbox_many_messages_cross_domain;
        Alcotest.test_case "timed receive" `Quick mailbox_recv_deadline;
      ] );
    ( "net.envelope",
      [
        Alcotest.test_case "roundtrip + every bit flip detected" `Quick
          envelope_roundtrip;
      ] );
    ( "net.fault_sim",
      [
        Alcotest.test_case "seeded determinism" `Quick fault_sim_deterministic;
        Alcotest.test_case "lossless profile is a pass-through" `Quick
          fault_sim_lossless_is_passthrough;
        Alcotest.test_case "digest pinned byte-for-byte" `Quick
          fault_sim_digest_pinned;
      ] );
    ( "net.cluster",
      [
        Alcotest.test_case "traffic counted" `Quick cluster_counts_traffic;
        Alcotest.test_case "bad ids rejected" `Quick cluster_rejects_bad_ids;
        Alcotest.test_case "recv_deadline zero/negative" `Quick
          recv_deadline_edge_cases;
        Alcotest.test_case "recv_deadline vs held frames" `Quick
          recv_deadline_expires_while_frames_held;
      ] );
    ( "net.costmodel",
      [
        Alcotest.test_case "paper constants" `Quick costmodel_components;
        Alcotest.test_case "breakdown sorted" `Quick costmodel_breakdown_sorted;
        Alcotest.test_case "monotone" `Quick costmodel_monotone_in_counters;
      ] );
  ]
