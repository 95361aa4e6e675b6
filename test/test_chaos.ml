(* PR 8: the chaos-hardened socket transport.  Determinism of the
   seeded injector (chaos adds no randomness of its own), the Sock
   handshake failure paths (none may kill the event loop), reconnection
   after a mid-stream sever, the RLIMIT_NOFILE-derived loopback
   ceiling, and the durable exactly-once property over real TCP as a
   QCheck property across seeds. *)

module Transport = Rmi_net.Transport
module Sock = Rmi_net.Sock
module Chaos = Rmi_net.Chaos
module Fault_sim = Rmi_net.Fault_sim
module Metrics = Rmi_stats.Metrics
module E = Rmi_harness.Experiment

let with_loopback ?chaos ~n f =
  let metrics = Metrics.create () in
  let t = Sock.create_loopback_t ?chaos ~n metrics in
  let net = Sock.pack t in
  Fun.protect ~finally:(fun () -> Transport.shutdown net) (fun () -> f t net)

(* deadline-poll an assertion that needs background threads (event
   loop, reconnectors) to make progress *)
let eventually ?(seconds = 10.0) msg pred =
  let deadline = Unix.gettimeofday () +. seconds in
  let rec go () =
    if pred () then ()
    else if Unix.gettimeofday () >= deadline then
      Alcotest.failf "timed out waiting for %s" msg
    else begin
      Unix.sleepf 0.005;
      go ()
    end
  in
  go ()

let roundtrip ?(seconds = 10.0) net ~src ~dest tag =
  Transport.send net ~src ~dest (Bytes.of_string tag);
  let deadline = Unix.gettimeofday () +. seconds in
  let rec go () =
    match Transport.recv_deadline_slice net ~self:dest ~seconds:0.2 with
    | Some m when Bytes.to_string (Fixtures.message m) = tag -> ()
    | Some _ -> go ()  (* stale frame from an earlier phase *)
    | None ->
        if Unix.gettimeofday () >= deadline then
          Alcotest.failf "frame %S never arrived at %d" tag dest
        else begin
          Transport.send net ~src ~dest (Bytes.of_string tag);
          go ()
        end
  in
  go ()

(* ------------------------------------------------------------------ *)
(* determinism                                                         *)
(* ------------------------------------------------------------------ *)

(* the chaos engine's frame schedule is byte-identical to the bare
   simulator's: wrapping consumes no extra randomness *)
let test_sim_parity () =
  List.iter
    (fun seed ->
      let c, bare = Chaos.sim_parity ~seed ~n:3 ~frames:250 () in
      Alcotest.(check string)
        (Printf.sprintf "seed %d: chaos digest = bare Fault_sim digest" seed)
        bare c)
    [ 42; 1234; 90210 ]

(* each digest is a pure function of the seed: replays collide, seeds
   separate *)
let test_replay_identical () =
  let run seed = fst (Chaos.sim_parity ~seed ~n:2 ~frames:200 ()) in
  Alcotest.(check string) "same seed, same digest" (run 7) (run 7);
  Alcotest.(check bool) "different seeds diverge" false
    (String.equal (run 7) (run 8))

(* the seeded connection plan is deterministic, ordered, and in range *)
let test_seeded_plan () =
  let p1 = Chaos.seeded_plan ~seed:42 ~n:4 () in
  let p2 = Chaos.seeded_plan ~seed:42 ~n:4 () in
  Alcotest.(check bool) "same seed, same plan" true (p1 = p2);
  Alcotest.(check bool) "plan is non-empty" true (p1 <> []);
  List.iter
    (fun { Chaos.at; action } ->
      Alcotest.(check bool) "fire frame is non-negative" true (at >= 0);
      match action with
      | Chaos.Sever { a; b } ->
          Alcotest.(check bool) "sever endpoints in range and distinct" true
            (a >= 0 && a < 4 && b >= 0 && b < 4 && a <> b)
      | Chaos.Stall { machine; frames } ->
          Alcotest.(check bool) "stall machine in range, length positive" true
            (machine >= 1 && machine < 4 && frames > 0))
    p1

(* ------------------------------------------------------------------ *)
(* handshake failure paths: none may kill the event loop               *)
(* ------------------------------------------------------------------ *)

let put32 b off v =
  Bytes.set b off (Char.chr ((v lsr 24) land 0xff));
  Bytes.set b (off + 1) (Char.chr ((v lsr 16) land 0xff));
  Bytes.set b (off + 2) (Char.chr ((v lsr 8) land 0xff));
  Bytes.set b (off + 3) (Char.chr (v land 0xff))

let dial_raw port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", port));
  fd

(* a hello naming a machine id outside the mesh: the accepter closes
   the socket and keeps serving the real peers *)
let test_malformed_hello () =
  with_loopback ~n:2 (fun t net ->
      let port = Sock.listen_port t 0 in
      let fd = dial_raw port in
      let hello = Bytes.create 4 in
      put32 hello 0 99;
      ignore (Unix.write fd hello 0 4 : int);
      (* the loop answers a bad hello by closing: observe the EOF *)
      eventually "bad-hello socket closed by the event loop" (fun () ->
          match Unix.select [ fd ] [] [] 0.05 with
          | [ _ ], _, _ -> (
              match Unix.read fd (Bytes.create 1) 0 1 with
              | 0 -> true
              | _ -> false
              | exception Unix.Unix_error _ -> true)
          | _ -> false);
      (try Unix.close fd with Unix.Unix_error _ -> ());
      roundtrip net ~src:0 ~dest:1 "after-bad-hello";
      roundtrip net ~src:1 ~dest:0 "after-bad-hello-rev")

(* connect, then die without ever sending the hello: the pending
   accept is reaped, the mesh keeps working *)
let test_die_before_hello () =
  with_loopback ~n:2 (fun t net ->
      let port = Sock.listen_port t 0 in
      let fd = dial_raw port in
      (* give the accept loop a chance to see the connection first *)
      Unix.sleepf 0.02;
      Unix.close fd;
      roundtrip net ~src:0 ~dest:1 "after-silent-death";
      roundtrip net ~src:1 ~dest:0 "after-silent-death-rev")

(* a duplicate connect claiming an already-connected peer id: the
   newest conn wins (the link generation bumps), and the mesh heals
   back to a working state through reconnection *)
let test_duplicate_connect () =
  with_loopback ~n:2 (fun t net ->
      let g0 = Sock.link_generation t ~owner:0 ~peer:1 in
      let port = Sock.listen_port t 0 in
      let fd = dial_raw port in
      let hello = Bytes.create 4 in
      put32 hello 0 1;
      ignore (Unix.write fd hello 0 4 : int);
      eventually "duplicate connect replaces the live conn" (fun () ->
          Sock.link_generation t ~owner:0 ~peer:1 > g0);
      (* drop our impostor socket; the real machine 1 redials and the
         link must settle back to carrying traffic *)
      Unix.close fd;
      roundtrip net ~src:0 ~dest:1 "after-duplicate-connect";
      roundtrip net ~src:1 ~dest:0 "after-duplicate-connect-rev")

(* ------------------------------------------------------------------ *)
(* sever / reconnect                                                   *)
(* ------------------------------------------------------------------ *)

let test_sever_reconnects () =
  with_loopback ~n:2 (fun t net ->
      roundtrip net ~src:0 ~dest:1 "before-sever";
      let g10 = Sock.link_generation t ~owner:1 ~peer:0 in
      Sock.sever t ~a:0 ~b:1;
      Alcotest.(check bool) "sever downs the link" true
        (Transport.peer_health net ~self:1 ~peer:0 = Transport.Down
        || Sock.link_generation t ~owner:1 ~peer:0 > g10);
      eventually "higher id redials after a sever" (fun () ->
          Sock.link_generation t ~owner:1 ~peer:0 > g10);
      roundtrip net ~src:0 ~dest:1 "after-sever";
      roundtrip net ~src:1 ~dest:0 "after-sever-rev")

(* ------------------------------------------------------------------ *)
(* the RLIMIT_NOFILE-derived loopback ceiling                          *)
(* ------------------------------------------------------------------ *)

let test_loopback_ceiling () =
  let cap = Sock.max_loopback_machines () in
  Alcotest.(check bool) "the budget admits at least a pair" true (cap >= 2);
  Alcotest.(check bool) "the ceiling is capped at 512" true (cap <= 512);
  Alcotest.check_raises "n beyond the ceiling is rejected up front"
    (Invalid_argument
       (Printf.sprintf
          "Sock.create_loopback: a %d-machine mesh needs more descriptors \
           than this process's RLIMIT_NOFILE budget allows (max %d machines)"
          100_000 cap))
    (fun () ->
      ignore
        (Sock.create_loopback ~n:100_000 (Metrics.create ()) : Transport.t))

(* ------------------------------------------------------------------ *)
(* exactly-once over real TCP, property-tested across seeds            *)
(* ------------------------------------------------------------------ *)

let prop_exactly_once =
  QCheck.Test.make ~count:8 ~name:"durable chaos is exactly-once over TCP"
    QCheck.(make Gen.(int_bound 1_000_000))
    (fun seed -> E.chaos_exactly_once ~calls:10 ~window:4 ~seed ())

let suite =
  [
    ( "chaos transport",
      [
        Alcotest.test_case "chaos/sim schedule parity" `Quick test_sim_parity;
        Alcotest.test_case "seeded replay identical" `Quick
          test_replay_identical;
        Alcotest.test_case "seeded connection plan" `Quick test_seeded_plan;
        Alcotest.test_case "malformed hello survives" `Quick
          test_malformed_hello;
        Alcotest.test_case "die before hello survives" `Quick
          test_die_before_hello;
        Alcotest.test_case "duplicate connect replaces" `Quick
          test_duplicate_connect;
        Alcotest.test_case "sever then reconnect" `Quick test_sever_reconnects;
        Alcotest.test_case "loopback machine ceiling" `Quick
          test_loopback_ceiling;
        QCheck_alcotest.to_alcotest prop_exactly_once;
      ] );
  ]
