(* Transport conformance: the same assertions run against the simulated
   interconnect (Sim) and the real TCP loopback mesh (Sock) through the
   backend-erased Transport.t, so the two implementations cannot drift
   on the contract the runtime layer depends on — FIFO delivery per
   pair, self-send loopback, the send accounting, the Envelope.gap
   reservation of send_writer, the batching layer stacked on top and
   the deadline-receive semantics.  A QCheck property then drives both
   backends with the same random frame schedule and requires the
   per-destination receive streams to be equal. *)

open Rmi_net
module Metrics = Rmi_stats.Metrics
module Msgbuf = Rmi_wire.Msgbuf

module type BACKEND = sig
  val label : string
  val make : n:int -> Metrics.t -> Transport.t

  (* [make], plus a way to put a data payload from [src] straight into
     [dest]'s mailbox below every layer — the Sim stacks only *)
  val injectable :
    (n:int -> Metrics.t -> Transport.t * (src:int -> dest:int -> bytes -> unit))
    option
end

let sim_injectable ~wrap ~frame ~n metrics =
  let cluster = Cluster.create ~n metrics in
  ( wrap (Sim.pack cluster),
    fun ~src ~dest payload ->
      Cluster.inject_frame cluster ~dest (frame ~src payload) )

module Sim_backend : BACKEND = struct
  let label = "sim"
  let make ~n metrics = Sim.create ~n metrics

  let injectable =
    Some (sim_injectable ~wrap:Fun.id ~frame:(fun ~src:_ payload -> payload))
end

module Sock_backend : BACKEND = struct
  let label = "sock"
  let make ~n metrics = Sock.create_loopback ~n metrics
  let injectable = None
end

(* the Reliable ARQ adapter stacked over either backend must satisfy
   the same contract — enveloping, acks and dedup must be invisible to
   the runtime layer, including the accounting *)
module Reliable_sim_backend : BACKEND = struct
  let label = "reliable/sim"
  let make ~n metrics = Reliable.wrap (Sim.create ~n metrics)

  (* the first data frame [src] ever sent, so the ARQ delivers it *)
  let injectable =
    Some
      (sim_injectable ~wrap:(fun lower -> Reliable.wrap lower)
         ~frame:(fun ~src payload ->
           Envelope.encode ~kind:Envelope.Data ~src ~epoch:0 ~lseq:0 ~payload ()))
end

module Reliable_sock_backend : BACKEND = struct
  let label = "reliable/sock"
  let make ~n metrics = Reliable.wrap (Sock.create_loopback ~n metrics)
  let injectable = None
end

(* drive a fresh transport, always releasing its OS resources *)
let with_net net metrics f =
  Fun.protect ~finally:(fun () -> Transport.shutdown net) (fun () -> f net metrics)

let with_backend (module B : BACKEND) n f =
  let metrics = Metrics.create () in
  with_net (B.make ~n metrics) metrics f

(* what happens to the batching layer between buffering and flushing *)
type batch_input =
  | Flush  (** nothing: the group ships *)
  | Garbled_batch  (** a garbled batch frame arrives first *)
  | Sender_crash  (** the sender crashes with its group unflushed *)

(* sock delivery crosses the kernel and the event-loop thread, so every
   conformance receive waits rather than polls once *)
let recv_str net ~self =
  match Transport.recv_deadline net ~self ~seconds:5.0 with
  | Some m -> Bytes.to_string m
  | None -> Alcotest.fail "no message within the 5 s conformance deadline"

let drain_empty net ~self =
  Alcotest.(check bool)
    "inbox drained" true
    (Transport.recv_deadline net ~self ~seconds:0.02 = None)

module Conformance (B : BACKEND) = struct
  let fifo_ordering () =
    with_backend (module B) 2 @@ fun net _ ->
    for i = 0 to 15 do
      Transport.send net ~src:0 ~dest:1
        (Bytes.of_string (Printf.sprintf "msg-%02d" i))
    done;
    for i = 0 to 15 do
      Alcotest.(check string)
        "per-pair FIFO"
        (Printf.sprintf "msg-%02d" i)
        (recv_str net ~self:1)
    done;
    drain_empty net ~self:1

  let self_send () =
    with_backend (module B) 2 @@ fun net _ ->
    Transport.send net ~src:1 ~dest:1 (Bytes.of_string "loop");
    Alcotest.(check string) "self-send delivered" "loop" (recv_str net ~self:1);
    drain_empty net ~self:1

  let send_accounting () =
    with_backend (module B) 2 @@ fun net metrics ->
    Transport.send net ~src:0 ~dest:1 (Bytes.of_string "hello");
    Transport.send net ~src:0 ~dest:1 (Bytes.of_string "world!!");
    let s = Metrics.snapshot metrics in
    Alcotest.(check int) "msgs_sent" 2 s.Metrics.msgs_sent;
    Alcotest.(check int) "bytes_sent" 12 s.Metrics.bytes_sent;
    ignore (recv_str net ~self:1);
    ignore (recv_str net ~self:1)

  let writer_gap_contract () =
    with_backend (module B) 2 @@ fun net _ ->
    let payload = Bytes.of_string "framed in place" in
    Msgbuf.Pool.with_writer (Transport.pool net) (fun w ->
        ignore (Msgbuf.reserve w Envelope.gap : int);
        Msgbuf.write_bytes w payload 0 (Bytes.length payload);
        (* offsets inside the reserved gap, or past the end of the
           writer, violate the signature-level contract *)
        (try
           Transport.send_writer net ~src:0 ~dest:1 w
             ~payload_off:(Envelope.gap - 1);
           Alcotest.fail "payload_off inside the gap was accepted"
         with Invalid_argument _ -> ());
        (try
           Transport.send_writer net ~src:0 ~dest:1 w
             ~payload_off:(Msgbuf.length w + 1);
           Alcotest.fail "payload_off past the writer was accepted"
         with Invalid_argument _ -> ());
        Transport.send_writer net ~src:0 ~dest:1 w ~payload_off:Envelope.gap);
    Alcotest.(check string)
      "writer payload delivered" "framed in place" (recv_str net ~self:1);
    drain_empty net ~self:1

  (* the batching layer over this stack: one flushed group is one
     physical frame charged with the sum of its logical payloads, and
     the receiver sees the members in order *)
  let batching input () =
    let metrics = Metrics.create () in
    let lower, inject =
      match B.injectable with
      | Some make -> make ~n:3 metrics
      | None ->
          ( B.make ~n:3 metrics,
            fun ~src:_ ~dest:_ _ -> invalid_arg "no injection below this stack" )
    in
    with_net (Batching.wrap lower) metrics @@ fun net metrics ->
    let buffer msg =
      Alcotest.(check (list (triple int int int)))
        "buffered, no flush" []
        (Transport.send_buffered net ~src:0 ~dest:1 (Bytes.of_string msg))
    in
    buffer "aaaa";
    buffer "bbbbbb";
    Alcotest.(check bool)
      "a buffered group is worth waiting for" true
      (Transport.idle net ~self:0 <> Transport.Dead);
    match input with
    | Flush | Garbled_batch ->
        (* a batch tag announcing five members, then nothing: the
           decoder underflows and the frame is dropped whole *)
        if input = Garbled_batch then
          inject ~src:2 ~dest:1 (Bytes.of_string "\004\005");
        Alcotest.(check (list (triple int int int)))
          "one group: dest 1, 2 msgs, 10 logical bytes"
          [ (1, 2, 10) ]
          (Transport.flush net ~src:0);
        let s = Metrics.snapshot metrics in
        Alcotest.(check int) "one physical frame" 1 s.Metrics.msgs_sent;
        Alcotest.(check int) "sum of logical payloads" 10 s.Metrics.bytes_sent;
        Alcotest.(check string) "first logical" "aaaa" (recv_str net ~self:1);
        Alcotest.(check string) "second logical" "bbbbbb" (recv_str net ~self:1);
        drain_empty net ~self:1
    | Sender_crash ->
        (* machine 0 dies on the first physical frame: machine 2's
           unbuffered send to 1 *)
        let sim = Fault_sim.create ~seed:1 ~n:3 Fault_sim.lossless in
        Fault_sim.set_crash_plan sim
          [
            {
              Fault_sim.victim = 0;
              crash_at = 1;
              restart_after = None;
              durability = Fault_sim.Amnesia;
            };
          ];
        Transport.set_faults net sim;
        Transport.send net ~src:2 ~dest:1 (Bytes.of_string "tick");
        Alcotest.(check bool) "sender down" true (Fault_sim.is_down sim 0);
        Alcotest.(check (list (triple int int int)))
          "the group died with its sender" [] (Transport.flush net ~src:0);
        Alcotest.(check int) "only the tick was sent" 1
          (Metrics.snapshot metrics).Metrics.msgs_sent;
        Alcotest.(check string) "the tick arrives" "tick" (recv_str net ~self:1);
        drain_empty net ~self:1

  let deadline_recv () =
    with_backend (module B) 2 @@ fun net _ ->
    let t0 = Unix.gettimeofday () in
    Alcotest.(check bool)
      "empty inbox times out" true
      (Transport.recv_deadline net ~self:1 ~seconds:0.05 = None);
    Alcotest.(check bool)
      "waited for the deadline" true
      (Unix.gettimeofday () -. t0 >= 0.04);
    Transport.send net ~src:0 ~dest:1 (Bytes.of_string "late");
    Alcotest.(check string) "arrival ends the wait" "late" (recv_str net ~self:1)

  (* regression: a message landing between recv_deadline's internal
     polls must be returned, never dequeued into a discarded comparison.
     The stagger sweeps the send across the receiver's poll cycle so
     some iterations hit every window. *)
  let deadline_recv_race () =
    with_backend (module B) 2 @@ fun net _ ->
    for i = 0 to 199 do
      let expected = Printf.sprintf "race-%03d" i in
      let sender =
        Thread.create
          (fun () ->
            Unix.sleepf (float_of_int (i mod 20) *. 1e-5);
            Transport.send net ~src:0 ~dest:1 (Bytes.of_string expected))
          ()
      in
      (match Transport.recv_deadline net ~self:1 ~seconds:5.0 with
      | Some m ->
          Alcotest.(check string)
            "raced arrival returned" expected (Bytes.to_string m)
      | None -> Alcotest.fail ("raced arrival dropped: " ^ expected));
      Thread.join sender
    done;
    drain_empty net ~self:1

  let suite =
    List.map
      (fun (name, f) -> Alcotest.test_case (B.label ^ ": " ^ name) `Quick f)
      ([
         ("fifo ordering", fifo_ordering);
         ("self-send", self_send);
         ("send accounting", send_accounting);
         ("send_writer gap contract", writer_gap_contract);
         ("batching flush accounting", batching Flush);
         ("batching crash drops the sender's group", batching Sender_crash);
       ]
      @ (if Option.is_none B.injectable then []
         else [ ("batching drops a garbled batch", batching Garbled_batch) ])
      @ [
          ("deadline recv", deadline_recv);
          ("deadline recv races arrival", deadline_recv_race);
        ])
end

module Sim_conformance = Conformance (Sim_backend)
module Sock_conformance = Conformance (Sock_backend)
module Reliable_sim_conformance = Conformance (Reliable_sim_backend)
module Reliable_sock_conformance = Conformance (Reliable_sock_backend)

(* ------------------------------------------------------------------ *)
(* cross-backend stream equality                                       *)
(* ------------------------------------------------------------------ *)

(* a random schedule of frames from machine 0 to machines 1 and 2 must
   produce identical per-destination receive streams on both backends.
   Payloads carry a leading marker byte so none is accidentally tagged
   as a batch envelope — a frame whose first byte is the batch code is
   a garbled batch, which both backends rightly drop. *)
let schedule_gen =
  QCheck.list_of_size (QCheck.Gen.int_range 1 40)
    (QCheck.pair (QCheck.int_range 1 2)
       (QCheck.map
          (fun s -> "m" ^ s)
          (QCheck.string_of_size (QCheck.Gen.int_range 0 63))))

let streams_of (module B : BACKEND) schedule =
  with_backend (module B) 3 @@ fun net _ ->
  List.iter
    (fun (dest, payload) ->
      Transport.send net ~src:0 ~dest (Bytes.of_string payload))
    schedule;
  List.map
    (fun dest ->
      let expect =
        List.length (List.filter (fun (d, _) -> d = dest) schedule)
      in
      List.init expect (fun _ -> recv_str net ~self:dest))
    [ 1; 2 ]

let stream_equality =
  QCheck.Test.make ~count:25 ~name:"sim and sock deliver equal streams"
    schedule_gen (fun schedule ->
      streams_of (module Sim_backend) schedule
      = streams_of (module Sock_backend) schedule)

let suite =
  [
    ( "transport conformance",
      Sim_conformance.suite @ Sock_conformance.suite
      @ Reliable_sim_conformance.suite @ Reliable_sock_conformance.suite
      @ [ QCheck_alcotest.to_alcotest stream_equality ] );
  ]
