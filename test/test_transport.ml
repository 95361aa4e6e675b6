(* Transport conformance: the same assertions run against the simulated
   interconnect (Sim) and the real TCP loopback mesh (Sock) through the
   backend-erased Transport.t, so the two implementations cannot drift
   on the contract the runtime layer depends on — FIFO delivery per
   pair, self-send loopback, the send accounting, the Envelope.gap
   reservation of send_writer, the batching layer stacked on top and
   the deadline-receive semantics.  The socket stacks add the cases of
   a receiver that reads its own sockets: concurrent receivers, wake-ups
   of a blocked receive, reassembly, shutdown and reconnection.  A
   QCheck property then drives both backends with the same random
   frame schedule and requires the per-destination receive streams to
   be equal. *)

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

  (* the socket stacks: [make] with the bare Sock handle below it, and
     the wire frame this stack delivers as [payload] from [src] *)
  val sock :
    ((n:int -> Metrics.t -> Transport.t * Sock.t) * (src:int -> bytes -> bytes))
    option

  (* the stack's top is a Batching layer *)
  val batched : bool
end

let sim_injectable ~wrap ~frame ~n metrics =
  let cluster = Cluster.create ~n metrics in
  ( wrap (Sim.pack cluster),
    fun ~src ~dest payload ->
      Cluster.inject_frame cluster ~dest (frame ~src payload) )

(* the first data frame [src] ever sent, so a fresh ARQ delivers it *)
let first_data ~src payload =
  Envelope.encode ~kind:Envelope.Data ~src ~epoch:0 ~lseq:0 ~payload ()

let sock_stack ~wrap ~n metrics =
  let s = Sock.create_loopback_t ~n metrics in
  (wrap (Sock.pack s), s)

module Sim_backend : BACKEND = struct
  let label = "sim"
  let make ~n metrics = Sim.create ~n metrics

  let injectable =
    Some (sim_injectable ~wrap:Fun.id ~frame:(fun ~src:_ payload -> payload))

  let sock = None
  let batched = false
end

module Sock_backend : BACKEND = struct
  let label = "sock"
  let make ~n metrics = Sock.create_loopback ~n metrics
  let injectable = None
  let sock = Some (sock_stack ~wrap:Fun.id, fun ~src:_ payload -> payload)
  let batched = false
end

(* the Reliable ARQ adapter stacked over either backend must satisfy
   the same contract — enveloping, acks and dedup must be invisible to
   the runtime layer, including the accounting *)
module Reliable_sim_backend : BACKEND = struct
  let label = "reliable/sim"
  let make ~n metrics = Reliable.wrap (Sim.create ~n metrics)

  let injectable =
    Some
      (sim_injectable ~wrap:(fun lower -> Reliable.wrap lower) ~frame:first_data)

  let sock = None
  let batched = false
end

module Reliable_sock_backend : BACKEND = struct
  let label = "reliable/sock"
  let make ~n metrics = Reliable.wrap (Sock.create_loopback ~n metrics)
  let injectable = None
  let sock = Some (sock_stack ~wrap:(fun lower -> Reliable.wrap lower), first_data)
  let batched = false
end

(* the Batching layer on top, as [Rmi_runtime.Fabric] stacks it: the
   generic contract then runs through its pass-through members *)
module Batching_sim_backend : BACKEND = struct
  let label = "batching/sim"
  let make ~n metrics = Batching.wrap (Sim.create ~n metrics)
  let injectable = None
  let sock = None
  let batched = true
end

module Batching_reliable_sock_backend : BACKEND = struct
  let label = "batching/reliable/sock"

  let make ~n metrics =
    Batching.wrap (Reliable.wrap (Sock.create_loopback ~n metrics))

  let injectable = None

  let sock =
    Some
      ( sock_stack ~wrap:(fun lower -> Batching.wrap (Reliable.wrap lower)),
        first_data )

  let batched = true
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

(* sock delivery crosses the kernel — the frame is in the receiver's
   socket, not yet its inbox, when the send returns — so every
   conformance receive waits rather than polls once *)
let recv_str net ~self =
  match Transport.recv_deadline_slice net ~self ~seconds:5.0 with
  | Some m -> Bytes.to_string (Fixtures.message m)
  | None -> Alcotest.fail "no message within the 5 s conformance deadline"

let drain_empty net ~self =
  Alcotest.(check bool)
    "inbox drained" true
    (Transport.recv_deadline_slice net ~self ~seconds:0.02 = None)

(* poll [pred] until it holds or [seconds] pass, then assert it *)
let wait_until ?(seconds = 10.0) what pred =
  let deadline = Unix.gettimeofday () +. seconds in
  while (not (pred ())) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.001
  done;
  Alcotest.(check bool) what true (pred ())

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
      (Transport.recv_deadline_slice net ~self:1 ~seconds:0.05 = None);
    Alcotest.(check bool)
      "waited for the deadline" true
      (Unix.gettimeofday () -. t0 >= 0.04);
    Transport.send net ~src:0 ~dest:1 (Bytes.of_string "late");
    Alcotest.(check string) "arrival ends the wait" "late" (recv_str net ~self:1)

  (* regression: a message landing between recv_deadline_slice's internal
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
      (match Transport.recv_deadline_slice net ~self:1 ~seconds:5.0 with
      | Some m ->
          Alcotest.(check string)
            "raced arrival returned" expected
            (Bytes.to_string (Fixtures.message m))
      | None -> Alcotest.fail ("raced arrival dropped: " ^ expected));
      Thread.join sender
    done;
    drain_empty net ~self:1

  (* every slice a receive hands up is released once, a batch's members
     one each.  After one release per slice the frame's count below is
     back to 0: on a socket stack one release more raises, and the next
     frame is read into the same storage.  The simulated stacks' frames
     are the receiver's own, and releasing them does nothing. *)
  let release_counts () =
    with_backend (module B) 2 @@ fun net _ ->
    let msgs = [ "rel-a"; "rel-bb"; "rel-ccc" ] in
    if B.batched then begin
      List.iter
        (fun m ->
          ignore
            (Transport.send_buffered net ~src:0 ~dest:1 (Bytes.of_string m)
              : (int * int * int) list))
        msgs;
      ignore (Transport.flush net ~src:0 : (int * int * int) list)
    end
    else
      List.iter
        (fun m -> Transport.send net ~src:0 ~dest:1 (Bytes.of_string m))
        msgs;
    let recv_slice expected =
      match Transport.recv_deadline_slice net ~self:1 ~seconds:5.0 with
      | Some s ->
          Alcotest.(check string) "received" expected
            (Bytes.to_string (Fixtures.message s));
          s
      | None -> Alcotest.fail "no message within the 5 s conformance deadline"
    in
    let bufs = List.map (fun m -> let b, _, _ = recv_slice m in b) msgs in
    let socket = Option.is_some B.sock in
    if socket && B.batched then
      Alcotest.(check bool) "the members share one frame" true
        (List.for_all (fun b -> b == List.hd bufs) bufs);
    List.iter (fun b -> Transport.release net ~self:1 b) bufs;
    let last = List.nth bufs 2 in
    (match Transport.release net ~self:1 last with
    | () -> if socket then Alcotest.fail "a release past the count was accepted"
    | exception Invalid_argument _ ->
        if not socket then Alcotest.fail "a simulated frame's release raised");
    Transport.send net ~src:0 ~dest:1 (Bytes.of_string "again");
    let b, _, _ = recv_slice "again" in
    if socket then
      Alcotest.(check bool) "read into the same storage" true (b == last);
    Transport.release net ~self:1 b

  (* ---------------------------------------------------------------- *)
  (* the socket stacks: the receiving thread reads its own sockets     *)
  (* ---------------------------------------------------------------- *)

  let with_sock n f =
    match B.sock with
    | None -> invalid_arg "not a socket stack"
    | Some (make, wire) ->
        let metrics = Metrics.create () in
        let net, s = make ~n metrics in
        with_net net metrics (fun net _ -> f net s wire)

  (* [f ()] in a thread; the result, once it has one *)
  let in_thread f =
    let result = Atomic.make None in
    let th =
      Thread.create
        (fun () ->
          Atomic.set result
            (Some (match f () with v -> Ok v | exception e -> Error e)))
        ()
    in
    (th, result)

  let await_result ?(seconds = 5.0) what result =
    let deadline = Unix.gettimeofday () +. seconds in
    let rec go () =
      match Atomic.get result with
      | Some r -> r
      | None when Unix.gettimeofday () >= deadline ->
          Alcotest.failf "%s: no result within %.0f s" what seconds
      | None ->
          Unix.sleepf 0.001;
          go ()
    in
    go ()

  let recv_string net ~self () =
    Bytes.to_string (Fixtures.message (Transport.recv_blocking_slice net ~self))

  let still_blocked what result =
    Alcotest.(check bool) (what ^ ": still blocked") true (Atomic.get result = None)

  (* two threads blocked on one endpoint while two links feed it: every
     frame reaches exactly one of them, and each sees every link's
     frames in send order *)
  let concurrent_receivers () =
    with_sock 3 @@ fun net _ _ ->
    let per_link = 150 in
    let got = Atomic.make 0 in
    let receiver () =
      let rec go acc =
        match recv_string net ~self:1 () with
        | "stop" -> List.rev acc
        | m ->
            Atomic.incr got;
            go (m :: acc)
      in
      go []
    in
    let a = in_thread receiver and b = in_thread receiver in
    for i = 0 to per_link - 1 do
      List.iter
        (fun src ->
          Transport.send net ~src ~dest:1
            (Bytes.of_string (Printf.sprintf "%d:%03d" src i)))
        [ 0; 2 ]
    done;
    wait_until "every frame received" (fun () -> Atomic.get got = 2 * per_link);
    (* one stop each: a receiver leaves on its first *)
    Transport.send net ~src:1 ~dest:1 (Bytes.of_string "stop");
    Transport.send net ~src:1 ~dest:1 (Bytes.of_string "stop");
    let streams =
      List.map
        (fun (th, r) ->
          let s =
            match await_result "receiver" r with
            | Ok s -> s
            | Error e -> raise e
          in
          Thread.join th;
          s)
        [ a; b ]
    in
    List.iter
      (fun stream ->
        List.iter
          (fun src ->
            let mine =
              List.filter
                (fun m -> String.starts_with ~prefix:(string_of_int src) m)
                stream
            in
            Alcotest.(check (list string))
              "FIFO per link within one receiver" (List.sort compare mine) mine)
          [ 0; 2 ])
      streams;
    let expected =
      List.concat_map
        (fun src -> List.init per_link (Printf.sprintf "%d:%03d" src))
        [ 0; 2 ]
    in
    Alcotest.(check (list string))
      "every frame exactly once" (List.sort compare expected)
      (List.sort compare (List.concat streams))

  (* a receive blocked in poll wakes for a frame its own machine sends *)
  let blocked_recv_self_send () =
    with_sock 2 @@ fun net _ _ ->
    let th, r = in_thread (recv_string net ~self:1) in
    Unix.sleepf 0.03;
    still_blocked "before the self-send" r;
    Transport.send net ~src:1 ~dest:1 (Bytes.of_string "self");
    (match await_result "self-send" r with
    | Ok m -> Alcotest.(check string) "self-send received" "self" m
    | Error e -> raise e);
    Thread.join th

  (* a raw peer claiming to be machine 0 replaces machine 1's
     connection to it and writes one frame in two halves: the blocked
     receiver polls the new connection and returns the frame only once
     it is whole *)
  let blocked_recv_split_frame () =
    with_sock 2 @@ fun net s wire ->
    let th, r = in_thread (recv_string net ~self:1) in
    let g = Sock.link_generation s ~owner:1 ~peer:0 in
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
    Unix.connect fd
      (Unix.ADDR_INET (Unix.inet_addr_loopback, Sock.listen_port s 1));
    let hello = Bytes.create 4 in
    Bytes.set_int32_be hello 0 0l;
    ignore (Unix.write fd hello 0 4 : int);
    wait_until "the raw peer's connection registered" (fun () ->
        Sock.link_generation s ~owner:1 ~peer:0 > g);
    let frame = wire ~src:0 (Bytes.of_string "written in two halves") in
    let len = Bytes.length frame in
    let stream = Bytes.create (4 + len) in
    Bytes.set_int32_be stream 0 (Int32.of_int len);
    Bytes.blit frame 0 stream 4 len;
    let half = (4 + len) / 2 in
    ignore (Unix.write fd stream 0 half : int);
    Unix.sleepf 0.03;
    still_blocked "after the first half" r;
    ignore (Unix.write fd stream half (4 + len - half) : int);
    (match await_result "split frame" r with
    | Ok m -> Alcotest.(check string) "reassembled" "written in two halves" m
    | Error e -> raise e);
    Thread.join th

  let blocked_recv_shutdown () =
    with_sock 2 @@ fun net _ _ ->
    let th, r = in_thread (recv_string net ~self:1) in
    Unix.sleepf 0.03;
    still_blocked "before shutdown" r;
    Transport.shutdown net;
    (match await_result "shutdown" r with
    | Error (Failure _) -> ()
    | Error e -> raise e
    | Ok m -> Alcotest.failf "received %S from a shut-down transport" m);
    Thread.join th

  (* once a severed link re-forms, frames sent over it arrive both ways *)
  let sever_then_send () =
    with_sock 2 @@ fun net s _ ->
    Transport.send net ~src:0 ~dest:1 (Bytes.of_string "before");
    Alcotest.(check string) "before the sever" "before" (recv_str net ~self:1);
    let g01 = Sock.link_generation s ~owner:0 ~peer:1
    and g10 = Sock.link_generation s ~owner:1 ~peer:0 in
    Sock.sever s ~a:0 ~b:1;
    wait_until "both ends re-registered" (fun () ->
        Sock.link_generation s ~owner:0 ~peer:1 > g01
        && Sock.link_generation s ~owner:1 ~peer:0 > g10);
    Transport.send net ~src:0 ~dest:1 (Bytes.of_string "after");
    Transport.send net ~src:1 ~dest:0 (Bytes.of_string "after-rev");
    Alcotest.(check string) "0 -> 1 after reconnect" "after" (recv_str net ~self:1);
    Alcotest.(check string) "1 -> 0 after reconnect" "after-rev"
      (recv_str net ~self:0)

  (* a frame larger than the kernel's socket buffers, written by the
     thread that later receives it: with nobody else reading, the
     writer must drain the receiving end itself *)
  let oversized_frame_one_thread () =
    with_sock 2 @@ fun net _ _ ->
    let big = Bytes.init (4 lsl 20) (fun i -> Char.chr (i land 0xff)) in
    Transport.send net ~src:0 ~dest:1 big;
    match Transport.recv_deadline_slice net ~self:1 ~seconds:10.0 with
    | Some m ->
        Alcotest.(check bool) "oversized frame intact" true
          (Bytes.equal (Fixtures.message m) big)
    | None -> Alcotest.fail "oversized frame never arrived"

  (* once warm, taking an unbatched frame into a caller's slice costs
     no word on any stack: a mailbox or inbox ring slot is read into
     the record, and each layer narrows it in place.  The reliable
     stacks send an ack for it, whose snapshot is the one allocation
     left, and is counted here as the send it is.  A self-send puts the
     frame straight in [self]'s inbox on every backend, so the receive
     measured is the take, not the socket read that would queue it
     (whose poll builds a list of the ready conns). *)
  let receive_allocates_nothing () =
    with_backend (module B) 2 @@ fun net _ ->
    let s = Transport.slice () in
    let frame = Bytes.of_string "no words" in
    let ack_words =
      if not (Transport.is_reliable net) then 0.0
      else
        float_of_int
          (Obj.reachable_words
             (Obj.repr
                (Envelope.encode ~kind:Envelope.Ack ~src:1 ~epoch:0 ~lseq:0
                   ~payload:Bytes.empty ())))
    in
    let take () =
      if not (Transport.try_recv_into net ~self:1 s) then
        Alcotest.fail "the self-sent frame is not there"
    in
    let round () =
      Transport.send net ~src:1 ~dest:1 frame;
      let w0 = Gc.minor_words () in
      let w1 = Gc.minor_words () in
      take ();
      let w2 = Gc.minor_words () in
      Alcotest.(check string) "taken" "no words"
        (Bytes.sub_string s.buf s.off s.len);
      Transport.release net ~self:1 s.buf;
      (* the ack, consumed below the top *)
      Alcotest.(check bool) "nothing else" false
        (Transport.try_recv_into net ~self:1 s);
      w2 -. w1 -. (w1 -. w0)
    in
    for _ = 1 to 20 do
      ignore (round () : float)
    done;
    for _ = 1 to 50 do
      Alcotest.(check (float 0.0)) "minor words of one receive" ack_words
        (round ())
    done

  let suite =
    List.map
      (fun (name, f) -> Alcotest.test_case (B.label ^ ": " ^ name) `Quick f)
      ([
         ("fifo ordering", fifo_ordering);
         ("self-send", self_send);
         ("send accounting", send_accounting);
         ("send_writer gap contract", writer_gap_contract);
       ]
      (* the batching cases stack a Batching layer of their own; over a
         stack that already ends in one they would test two, which no
         fabric builds *)
      @ (if B.batched then []
         else
           [
             ("batching flush accounting", batching Flush);
             ("batching crash drops the sender's group", batching Sender_crash);
           ])
      (* a garbled batch needs a frame injected below every layer *)
      @ (if Option.is_none B.injectable then []
         else [ ("batching drops a garbled batch", batching Garbled_batch) ])
      @ [
          ("deadline recv", deadline_recv);
          ("deadline recv races arrival", deadline_recv_race);
          ("release counts every slice", release_counts);
          ("a receive allocates nothing", receive_allocates_nothing);
        ]
      @
      if Option.is_none B.sock then []
      else
        [
          ("two receivers share an endpoint", concurrent_receivers);
          ("blocked recv wakes for a self-send", blocked_recv_self_send);
          ("blocked recv reassembles a split frame", blocked_recv_split_frame);
          ("blocked recv raises on shutdown", blocked_recv_shutdown);
          ("frames flow after a sever re-forms the link", sever_then_send);
          ("one thread sends and receives an oversized frame",
            oversized_frame_one_thread);
        ])
end

module Sim_conformance = Conformance (Sim_backend)
module Sock_conformance = Conformance (Sock_backend)
module Reliable_sim_conformance = Conformance (Reliable_sim_backend)
module Reliable_sock_conformance = Conformance (Reliable_sock_backend)
module Batching_sim_conformance = Conformance (Batching_sim_backend)

module Batching_reliable_sock_conformance =
  Conformance (Batching_reliable_sock_backend)

(* Sock reports a dying link as [Peer_confirmed_down] and its re-formed
   connection as [Peer_recovered].  Reliable over it judges peers by its
   own heartbeats alone: a link that dies and re-forms between two
   sweeps raises no event above it and leaves the peer [Alive], while
   frames keep flowing both ways. *)
let reliable_masks_sock_link_events () =
  let metrics = Metrics.create () in
  let s = Sock.create_loopback_t ~n:2 metrics in
  let lower = Sock.pack s in
  let downs = Atomic.make 0 and recoveries = Atomic.make 0 in
  Transport.on_peer_event lower (fun ~self:_ ~peer:_ -> function
    | Transport.Peer_confirmed_down -> Atomic.incr downs
    | Transport.Peer_recovered -> Atomic.incr recoveries
    | Transport.Peer_suspected -> ());
  with_net (Reliable.wrap lower) metrics @@ fun net _ ->
  let heard = Atomic.make 0 in
  Transport.on_peer_event net (fun ~self:_ ~peer:_ _ -> Atomic.incr heard);
  let g01 = Sock.link_generation s ~owner:0 ~peer:1
  and g10 = Sock.link_generation s ~owner:1 ~peer:0 in
  Sock.sever s ~a:0 ~b:1;
  wait_until "both ends re-registered" (fun () ->
      Sock.link_generation s ~owner:0 ~peer:1 > g01
      && Sock.link_generation s ~owner:1 ~peer:0 > g10);
  wait_until "Sock reported both ends down and recovered" (fun () ->
      Atomic.get downs = 2 && Atomic.get recoveries = 2);
  Transport.send net ~src:0 ~dest:1 (Bytes.of_string "after");
  Transport.send net ~src:1 ~dest:0 (Bytes.of_string "after-rev");
  Alcotest.(check string) "0 -> 1 after reconnect" "after" (recv_str net ~self:1);
  Alcotest.(check string) "1 -> 0 after reconnect" "after-rev"
    (recv_str net ~self:0);
  Alcotest.(check int) "no peer event above Reliable" 0 (Atomic.get heard);
  List.iter
    (fun (self, peer) ->
      Alcotest.(check bool)
        (Printf.sprintf "%d still sees %d Alive" self peer)
        true
        (Transport.peer_health net ~self ~peer = Transport.Alive))
    [ (0, 1); (1, 0) ]

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

(* ------------------------------------------------------------------ *)
(* the non-blocking receive on an idle socket endpoint                 *)
(* ------------------------------------------------------------------ *)

(* an empty [try_recv_into] is one zero-timeout poll over a cached fd
   array: it allocates nothing, however often a polling caller spins *)
let idle_poll_allocates_nothing () =
  let metrics = Metrics.create () in
  let net = Sock.pack (Sock.create_loopback_t ~n:2 metrics) in
  with_net net metrics @@ fun net _ ->
  let s = Transport.slice () in
  let spin k =
    for _ = 1 to k do
      ignore (Transport.try_recv_into net ~self:1 s : bool)
    done
  in
  spin 10;
  let w0 = Gc.minor_words () in
  let w1 = Gc.minor_words () in
  spin 1000;
  let w2 = Gc.minor_words () in
  Alcotest.(check (float 0.0))
    "minor words over 1000 idle polls" (w1 -. w0) (w2 -. w1)

(* a positive wait shorter than a millisecond is not rounded up to one:
   a blocked receiver on the microsecond clock wakes every rto *)
let sub_ms_poll_wait () =
  let r, w = Unix.pipe () in
  Fun.protect ~finally:(fun () ->
      Unix.close r;
      Unix.close w)
  @@ fun () ->
  let fds = [| r |] in
  let waits =
    List.init 21 (fun _ ->
        let t0 = Rmi_stats.Clock.now_us () in
        let ready = Poll.readable fds ~timeout:200e-6 in
        let waited = Rmi_stats.Clock.now_us () - t0 in
        Alcotest.(check (list int)) "an idle pipe is not readable" [] ready;
        waited)
  in
  let median = List.nth (List.sort compare waits) 10 in
  Alcotest.(check bool)
    (Printf.sprintf "median of 21 200us waits: %d us < 1 ms" median)
    true (median < 1000)

(* ------------------------------------------------------------------ *)
(* the send cork: frames for a hosted endpoint leave on the next poll  *)
(* ------------------------------------------------------------------ *)

let with_sock_t ~n f =
  let metrics = Metrics.create () in
  let s = Sock.create_loopback_t ~n metrics in
  with_net (Sock.pack s) metrics @@ fun net _ -> f s net

(* a writer holding [payload] behind the reserved gap *)
let gapped payload =
  let w = Msgbuf.create_writer () in
  ignore (Msgbuf.reserve w Envelope.gap : int);
  Msgbuf.write_bytes w payload 0 (Bytes.length payload);
  w

(* K frames sent from one thread between two polls — materialized and
   gapped alike — cross the kernel in one write(2), made by the
   receiver's poll; nothing is written at send time *)
let corked_frames_share_one_write () =
  with_sock_t ~n:2 @@ fun s net ->
  let k = 8 in
  let w0 = Sock.writes s in
  for i = 0 to k - 1 do
    let m = Bytes.of_string (Printf.sprintf "cork-%d" i) in
    if i mod 2 = 0 then Transport.send net ~src:0 ~dest:1 m
    else
      Transport.send_writer net ~src:0 ~dest:1 (gapped m)
        ~payload_off:Envelope.gap
  done;
  Alcotest.(check int) "nothing written at send time" w0 (Sock.writes s);
  Alcotest.(check bool) "buffered frames are pending" true
    (Transport.pending_anywhere net);
  for i = 0 to k - 1 do
    Alcotest.(check string) "in order" (Printf.sprintf "cork-%d" i)
      (recv_str net ~self:1)
  done;
  Alcotest.(check int) "one write for all of them" (w0 + 1) (Sock.writes s);
  Alcotest.(check bool)
    "quiet once received" false
    (Transport.pending_anywhere net)

(* steady state: buffering a frame and flushing the cork allocate
   nothing — the flush here is machine 0's own receive, which polls an
   idle endpoint *)
let corked_sends_allocate_nothing () =
  with_sock_t ~n:2 @@ fun _ net ->
  let frame = Bytes.make 48 'c' in
  let rounds = ref 0 in
  let s = Transport.slice () in
  let round () =
    incr rounds;
    for _ = 1 to 4 do
      Transport.send net ~src:0 ~dest:1 frame
    done;
    ignore (Transport.try_recv_into net ~self:0 s : bool)
  in
  (* the first round allocates the cork itself *)
  round ();
  let w0 = Gc.minor_words () in
  let w1 = Gc.minor_words () in
  for _ = 1 to 50 do
    round ()
  done;
  let w2 = Gc.minor_words () in
  Alcotest.(check (float 0.0))
    "minor words over 50 rounds of 4 sends and a flush" (w1 -. w0) (w2 -. w1);
  for _ = 1 to 4 * !rounds do
    Alcotest.(check string)
      "delivered" (Bytes.to_string frame) (recv_str net ~self:1)
  done

(* a conn killed with frames in its cork drops them unwritten and takes
   back their in-flight charges.  Replacing machine 1's conn to 0 by a
   fresh connect kills the sending record alone — the receiving record
   at machine 0, which the charge went to, lives on — so only the
   cork's own reclaim can clear [pending_anywhere]; a sever kills both. *)
let killed_cork_charges_reclaimed () =
  (with_sock_t ~n:2 @@ fun s net ->
   let w0 = Sock.writes s in
   Transport.send net ~src:1 ~dest:0 (Bytes.of_string "stranded");
   Alcotest.(check bool) "a buffered frame is pending" true
     (Transport.pending_anywhere net);
   let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
   Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
   Unix.connect fd
     (Unix.ADDR_INET (Unix.inet_addr_loopback, Sock.listen_port s 1));
   let hello = Bytes.create 4 in
   Bytes.set_int32_be hello 0 0l;
   ignore (Unix.write fd hello 0 4 : int);
   wait_until "the replaced conn's charge taken back" (fun () ->
       not (Transport.pending_anywhere net));
   Alcotest.(check int) "the cork was dropped unwritten" w0 (Sock.writes s));
  with_sock_t ~n:2 @@ fun s net ->
  let w0 = Sock.writes s in
  let g = Sock.link_generation s ~owner:0 ~peer:1 in
  Transport.send net ~src:0 ~dest:1 (Bytes.of_string "lost");
  Sock.sever s ~a:0 ~b:1;
  Alcotest.(check bool) "nothing pending after the sever" false
    (Transport.pending_anywhere net);
  Alcotest.(check int) "the cork was dropped unwritten" w0 (Sock.writes s);
  wait_until "the link re-formed" (fun () ->
      Sock.link_generation s ~owner:0 ~peer:1 > g);
  Transport.send net ~src:0 ~dest:1 (Bytes.of_string "after");
  Alcotest.(check string) "the dropped frame never arrives" "after"
    (recv_str net ~self:1)

(* two sender threads feed one endpoint with small frames (corked) and
   frames of 64 KiB and more (written through, behind the cork) while
   the main thread receives: every frame arrives exactly once, intact
   and in order per link *)
let frame_sizes =
  QCheck.(
    list_of_size Gen.(1 -- 10)
      (make ~print:string_of_int
         Gen.(frequency [ (3, int_range 8 300); (1, int_range 65536 140_000) ])))

let sized ~src ~seq size =
  Bytes.init size (fun i ->
      if i = 0 then Char.chr src
      else if i = 1 then Char.chr seq
      else Char.chr ((i + (7 * seq) + src) land 0xff))

let two_senders_exactly_once =
  QCheck.Test.make ~count:15
    ~name:"sock: two senders' corked and large frames arrive once, in order"
    (QCheck.pair frame_sizes frame_sizes) (fun (sizes0, sizes1) ->
      with_sock_t ~n:3 @@ fun _ net ->
      let sender src sizes =
        Thread.create
          (fun () ->
            List.iteri
              (fun seq size ->
                let m = sized ~src ~seq size in
                if seq mod 2 = 0 then Transport.send net ~src ~dest:2 m
                else
                  Transport.send_writer net ~src ~dest:2 (gapped m)
                    ~payload_off:Envelope.gap)
              sizes)
          ()
      in
      let threads = [ sender 0 sizes0; sender 1 sizes1 ] in
      let total = List.length sizes0 + List.length sizes1 in
      let got = Array.make 2 [] in
      for _ = 1 to total do
        match Transport.recv_deadline_slice net ~self:2 ~seconds:10.0 with
        | Some m ->
            let m = Fixtures.message m in
            let src = Char.code (Bytes.get m 0) in
            got.(src) <- m :: got.(src)
        | None -> QCheck.Test.fail_report "a frame never arrived"
      done;
      List.iter Thread.join threads;
      let expect src sizes =
        List.mapi (fun seq size -> sized ~src ~seq size) sizes
      in
      List.rev got.(0) = expect 0 sizes0
      && List.rev got.(1) = expect 1 sizes1
      && Transport.recv_deadline_slice net ~self:2 ~seconds:0.02 = None)

(* ------------------------------------------------------------------ *)
(* the receive buffers: slices stay put until released                 *)
(* ------------------------------------------------------------------ *)

let request_len = 2060

let numbered i =
  Bytes.init request_len (fun j -> Char.chr (((i * 31) + j) land 0xff))

let recv_within net ~self =
  match Transport.recv_deadline_slice net ~self ~seconds:5.0 with
  | Some s -> s
  | None -> Alcotest.fail "no frame within 5 s"

(* major-heap words from now on: a minor collection first, so live
   young data of earlier tests is not promoted inside the span *)
let major_words_from () =
  Gc.minor ();
  let w0 = (Gc.quick_stat ()).Gc.major_words in
  fun () -> (Gc.quick_stat ()).Gc.major_words -. w0

(* I1: the bytes of a frame handed up are not written again while its
   release is outstanding.  Two rounds of more than three read buffers
   of 2060-byte frames, sent in bursts so reads end mid-frame: in the
   first no frame is released, in the second every frame but each
   eighth is released as it arrives.  Every held frame is intact at
   the end. *)
let held_frames_stay_intact () =
  with_sock_t ~n:2 @@ fun _ net ->
  let per_round = (3 * 65536 / request_len) + 8 in
  let held = ref [] in
  let round ~keep first =
    let i = ref first in
    while !i < first + per_round do
      let burst = min 5 (first + per_round - !i) in
      for k = 0 to burst - 1 do
        Transport.send net ~src:0 ~dest:1 (numbered (!i + k))
      done;
      for k = 0 to burst - 1 do
        let ((buf, _, _) as s) = recv_within net ~self:1 in
        if keep (!i + k) then held := (!i + k, s) :: !held
        else begin
          Alcotest.(check bool) "in order" true
            (Bytes.equal (Fixtures.message s) (numbered (!i + k)));
          Transport.release net ~self:1 buf
        end
      done;
      i := !i + burst
    done
  in
  round ~keep:(fun _ -> true) 0;
  round ~keep:(fun i -> i mod 8 = 0) per_round;
  List.iter
    (fun (i, s) ->
      Alcotest.(check bool)
        (Printf.sprintf "held frame %d intact" i)
        true
        (Bytes.equal (Fixtures.message s) (numbered i)))
    !held

(* I2: with every slice released, a conn reads into the same storage.
   Over raw Sock, 1000 round trips of 2060-byte frames allocate at most
   one major-heap word per frame; receiving by copying took ~260 per
   frame.  Over the ARQ, whose acks share the replies' buffer, every
   frame still lands in the one buffer (its sends snapshot each data
   frame for retransmission, so its words are not bounded here). *)
let released_frames_reuse_storage () =
  List.iter
    (fun (what, wrap, bounded) ->
      let metrics = Metrics.create () in
      with_net (wrap (Sock.create_loopback ~n:2 metrics)) metrics
      @@ fun net _ ->
      let req = numbered 1 and rep = numbered 2 in
      let first = Array.make 2 Bytes.empty and moved = ref false in
      let recv self =
        let buf, _, _ = recv_within net ~self in
        if first.(self) == Bytes.empty then first.(self) <- buf;
        if buf != first.(self) then moved := true;
        Transport.release net ~self buf
      in
      let round () =
        Transport.send net ~src:0 ~dest:1 req;
        recv 1;
        Transport.send net ~src:1 ~dest:0 rep;
        recv 0
      in
      for _ = 1 to 50 do
        round ()
      done;
      let words = major_words_from () in
      for _ = 1 to 1000 do
        round ()
      done;
      let words = words () in
      Alcotest.(check bool) (what ^ ": every frame in one buffer") false !moved;
      if bounded then
        Alcotest.(check bool)
          (Printf.sprintf "%s: %.0f major words over 2000 frames" what words)
          true (words <= 2000.0))
    [
      ("sock", Fun.id, true);
      ("reliable/sock", (fun lower -> Reliable.wrap lower), false);
    ]

(* I3: a receiver that never releases keeps every frame, and pays
   about one frame's bytes per frame in fresh read buffers (a 64 KiB
   buffer per ~31 such frames: 259 words a frame, against the 260 a
   copy took), never a buffer per read *)
let unreleased_frames_cost_their_bytes () =
  with_sock_t ~n:2 @@ fun _ net ->
  let req = numbered 3 in
  let exchange () =
    Transport.send net ~src:0 ~dest:1 req;
    ignore (recv_within net ~self:1 : bytes * int * int)
  in
  for _ = 1 to 64 do
    exchange ()
  done;
  let frames = 3100 in
  let words = major_words_from () in
  for _ = 1 to frames do
    exchange ()
  done;
  let per_frame = words () /. float_of_int frames in
  let own = float_of_int (4 + request_len) /. 8.0 in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f major words per frame, the frame is %.1f" per_frame
       own)
    true
    (per_frame <= 1.05 *. own)

(* a release beyond the slices handed up raises; bytes the backend did
   not hand up from a conn (a self-send's frame, anything else) are
   ignored *)
let over_release_raises () =
  with_sock_t ~n:2 @@ fun _ net ->
  Transport.send net ~src:0 ~dest:1 (Bytes.of_string "once");
  let buf, _, _ = recv_within net ~self:1 in
  Transport.release net ~self:1 buf;
  Alcotest.check_raises "over-release"
    (Invalid_argument "Sock.release: no slice of this buffer is outstanding")
    (fun () -> Transport.release net ~self:1 buf);
  Transport.send net ~src:1 ~dest:1 (Bytes.of_string "self");
  let own, _, _ = recv_within net ~self:1 in
  Transport.release net ~self:1 own;
  Transport.release net ~self:1 own;
  Transport.release net ~self:0 (Bytes.create 16)

(* ------------------------------------------------------------------ *)
(* the envelope checksum                                               *)
(* ------------------------------------------------------------------ *)

(* The 64-bit FNV-1a the frames carried before the checksum moved to
   native 63-bit wrapping ints: the accumulator as two 32-bit halves,
   the multiply by 2^40 + 0x1b3 split into shifts and small products.
   Kept here as the oracle the fast fold must match bit for bit. *)
let oracle_checksum ~kc ~src ~epoch ~lseq buf off len =
  let mask32 = 0xFFFFFFFF in
  let lo = ref 0x84222325 and hi = ref 0xcbf29ce4 in
  let mix b =
    let l = !lo lxor (b land 0xff) in
    let t = l * 0x1b3 in
    lo := t land mask32;
    hi := ((!hi * 0x1b3) + (t lsr 32) + ((l lsl 8) land mask32)) land mask32
  in
  mix kc;
  List.iter
    (fun x ->
      for i = 0 to 7 do
        mix (x asr (i * 8))
      done)
    [ src; epoch; lseq ];
  for i = off to off + len - 1 do
    mix (Char.code (Bytes.get buf i))
  done;
  !lo land 0x3FFFFFFF

(* [Envelope.encode]'s layout, written out with the oracle checksum *)
let oracle_frame ~kc ~src ~epoch ~lseq payload =
  let w = Msgbuf.create_writer () in
  Msgbuf.write_u8 w 0xC7;
  Msgbuf.write_u8 w kc;
  Msgbuf.write_uvarint w src;
  Msgbuf.write_uvarint w epoch;
  Msgbuf.write_uvarint w lseq;
  Msgbuf.write_uvarint w
    (oracle_checksum ~kc ~src ~epoch ~lseq payload 0 (Bytes.length payload));
  Msgbuf.write_uvarint w (Bytes.length payload);
  Msgbuf.write_bytes w payload 0 (Bytes.length payload);
  Msgbuf.contents w

let golden_payload n = Bytes.init n (fun i -> Char.chr (((i * 37) + 11) land 0xff))

let hex_prefix b =
  String.concat ""
    (List.init (min 12 (Bytes.length b)) (fun i ->
         Printf.sprintf "%02x" (Char.code (Bytes.get b i))))

(* length, first 12 bytes (the header and checksum) and MD5 of frames
   recorded from the two-halves implementation *)
let check_golden name b (len, prefix, md5) =
  Alcotest.(check int) (name ^ ": length") len (Bytes.length b);
  Alcotest.(check string) (name ^ ": header") prefix (hex_prefix b);
  Alcotest.(check string) (name ^ ": digest") md5 (Digest.to_hex (Digest.bytes b))

let checksum_goldens () =
  List.iter
    (fun (n, golden) ->
      check_golden
        (Printf.sprintf "payload %d" n)
        (Envelope.encode ~kind:Envelope.Data ~src:3 ~epoch:2 ~lseq:17
           ~payload:(golden_payload n) ())
        golden)
    [
      (0, (11, "c700030211efb5da800300", "1206c11b8305bb85653a396bf0592079"));
      (1, (12, "c700030211ece2a4b303010b", "9053accad764c51d03a222683e170507"));
      (164, (176, "c700030211aba89aa201a401", "e1764b19d645250d1d68642b46dacb05"));
      (1300, (1312, "c700030211fbd0d9cc03940a", "c7b216b979b0c08a0307a4187f09194c"));
    ];
  check_golden "lseq = max_int"
    (Envelope.encode ~kind:Envelope.Hb ~src:1 ~epoch:4 ~lseq:max_int
       ~payload:(golden_payload 5) ())
    (24, "c7020104ffffffffffffffff", "c08de81fd03bd0044ffd0cdb4504957d");
  (* a frame built around a payload that sits at an offset in a writer *)
  let w = Msgbuf.create_writer () in
  Msgbuf.write_bytes w (golden_payload 13) 0 13;
  let start =
    Envelope.encode_into w ~kind:Envelope.Data ~src:2 ~epoch:1 ~lseq:5
      ~payload:(golden_payload 30) ()
  in
  Alcotest.(check int) "offset frame start" 51 start;
  let s = Msgbuf.contents w in
  check_golden "offset frame"
    (Bytes.sub s start (Bytes.length s - start))
    (40, "c700020105e6d481191e0b30", "ccd3f9f713bc64ffaab777e29f8559b0");
  (* negative header fields never reach [encode] (uvarints reject them)
     but a garbled frame can decode to them *)
  Alcotest.(check (list int)) "negative src and epoch" [ 71897621; 215252710; 1025014157 ]
    [
      Envelope.checksum_slice ~kc:1 ~src:(-5) ~epoch:(-1) ~lseq:9 (golden_payload 7) 0 7;
      Envelope.checksum_slice ~kc:0 ~src:min_int ~epoch:(-123456789) ~lseq:max_int
        (golden_payload 40) 3 20;
      Envelope.checksum_slice ~kc:2 ~src:(-1) ~epoch:(-1) ~lseq:(-1) Bytes.empty 0 0;
    ]

let checksum_matches_oracle =
  QCheck.Test.make ~name:"envelope checksum == two-halves FNV-1a" ~count:500
    QCheck.(
      quad (int_bound 2) (pair int int) int
        (pair (string_of_size Gen.(0 -- 300)) (pair small_nat small_nat)))
    (fun (kc, (src, epoch), lseq, (payload, (a, b))) ->
      let buf = Bytes.of_string payload in
      let n = Bytes.length buf in
      let off = if n = 0 then 0 else a mod (n + 1) in
      let len = if n - off = 0 then 0 else b mod (n - off + 1) in
      let slice_ok =
        Envelope.checksum_slice ~kc ~src ~epoch ~lseq buf off len
        = oracle_checksum ~kc ~src ~epoch ~lseq buf off len
      in
      (* whole frames, where the header fields are non-negative *)
      let src = src land max_int
      and epoch = epoch land max_int
      and lseq = lseq land max_int in
      let kind = [| Envelope.Data; Envelope.Ack; Envelope.Hb |].(kc) in
      slice_ok
      && Envelope.encode ~kind ~src ~epoch ~lseq ~payload:buf ()
         = oracle_frame ~kc ~src ~epoch ~lseq buf)

(* [Envelope.decode_slice] as a [Msgbuf] reader decodes the header:
   the reference for the allocation-free parse *)
let reference_decode frame ~off ~len =
  match
    let r = Msgbuf.reader_of_bytes ~off ~len frame in
    if Msgbuf.read_u8 r <> 0xC7 then None
    else
      let kc = Msgbuf.read_u8 r in
      if kc > 2 then None
      else
        let src = Msgbuf.read_uvarint r in
        let epoch = Msgbuf.read_uvarint r in
        let lseq = Msgbuf.read_uvarint r in
        let csum = Msgbuf.read_uvarint r in
        let plen = Msgbuf.read_uvarint r in
        let poff = Msgbuf.skip r plen "payload" in
        if csum <> Envelope.checksum_slice ~kc ~src ~epoch ~lseq frame poff plen
        then None
        else
          let kind = [| Envelope.Data; Envelope.Ack; Envelope.Hb |].(kc) in
          Some ({ Envelope.kind; src; epoch; lseq }, (poff, plen))
  with
  | exception Msgbuf.Underflow _ -> None
  | v -> v

(* whole frames, then one byte changed, a cut, or bytes in front and
   behind; an overlong varint is spliced in now and then *)
let parse_matches_reference =
  QCheck.Test.make ~name:"envelope parse == Msgbuf reader decode" ~count:1000
    QCheck.(
      quad (int_bound 2) (triple small_nat int small_nat)
        (string_of_size Gen.(0 -- 40))
        (quad (int_bound 4) small_nat (int_bound 255) small_nat))
    (fun (kc, (src, epoch, lseq), payload, (how, at, byte, cut)) ->
      let epoch = epoch land max_int in
      let frame =
        oracle_frame ~kc ~src ~epoch ~lseq (Bytes.of_string payload)
      in
      let n = Bytes.length frame in
      let frame =
        match how with
        | 0 -> frame
        | 1 ->
            let f = Bytes.copy frame in
            Bytes.set f (at mod n) (Char.chr byte);
            f
        | 2 -> Bytes.sub frame 0 (cut mod (n + 1))
        | 3 ->
            (* an 11-byte src varint *)
            Bytes.cat (Bytes.sub frame 0 2)
              (Bytes.cat (Bytes.make 10 '\xff') (Bytes.sub frame 2 (n - 2)))
        | _ -> Bytes.cat (Bytes.make 3 'x') (Bytes.cat frame (Bytes.make 2 'y'))
      in
      let off = if how = 4 then 3 else 0 in
      let len = Bytes.length frame - off - (if how = 4 then 2 else 0) in
      Envelope.decode_slice frame ~off ~len = reference_decode frame ~off ~len)

let suite =
  [
    ( "transport conformance",
      Sim_conformance.suite @ Sock_conformance.suite
      @ Reliable_sim_conformance.suite @ Reliable_sock_conformance.suite
      @ Batching_sim_conformance.suite
      @ Batching_reliable_sock_conformance.suite
      @ [
          QCheck_alcotest.to_alcotest stream_equality;
          Alcotest.test_case "reliable/sock: a re-formed link raises no peer event"
            `Quick reliable_masks_sock_link_events;
          Alcotest.test_case "sock: idle try_recv allocates nothing" `Quick
            idle_poll_allocates_nothing;
          Alcotest.test_case "sock: frames between two polls share one write"
            `Quick corked_frames_share_one_write;
          Alcotest.test_case "sock: corked sends and a flush allocate nothing"
            `Quick corked_sends_allocate_nothing;
          Alcotest.test_case "sock: a killed conn's cork charges are reclaimed"
            `Quick killed_cork_charges_reclaimed;
          Alcotest.test_case "sock: held frames stay intact" `Quick
            held_frames_stay_intact;
          Alcotest.test_case "sock: released frames reuse their storage" `Quick
            released_frames_reuse_storage;
          Alcotest.test_case "sock: unreleased frames cost their bytes" `Quick
            unreleased_frames_cost_their_bytes;
          Alcotest.test_case "sock: an over-release raises" `Quick
            over_release_raises;
          QCheck_alcotest.to_alcotest two_senders_exactly_once;
          Alcotest.test_case "envelope checksum goldens" `Quick
            checksum_goldens;
          QCheck_alcotest.to_alcotest checksum_matches_oracle;
          QCheck_alcotest.to_alcotest parse_matches_reference;
          Alcotest.test_case "poll: sub-millisecond waits" `Quick
            sub_ms_poll_wait;
        ] );
  ]
