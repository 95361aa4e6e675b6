type t = {
  n : int;
  boxes : Mailbox.t array;
  metrics : Rmi_stats.Metrics.t;
  pool : Rmi_wire.Msgbuf.Pool.buffers;
  mutable fault : (src:int -> dest:int -> bytes -> bytes list) option;
  mutable sim : Fault_sim.t option;
  mutable process_hooks : (Transport.process_event -> unit) list;
}

let create ~n metrics =
  if n < 1 then invalid_arg "Cluster.create: need at least one machine";
  {
    n;
    boxes = Array.init n (fun _ -> Mailbox.create ());
    metrics;
    pool = Rmi_wire.Msgbuf.Pool.create ~metrics;
    fault = None;
    sim = None;
    process_hooks = [];
  }

let size t = t.n
let metrics t = t.metrics
let pool t = t.pool

(* every physical payload copy on the wire path is charged here — the
   quantity the wirecost experiment reports *)
let charge t n = Rmi_stats.Metrics.add t.metrics Bytes_copied n

(* no retransmit machinery: reliability is the [Reliable] adapter's *)
let is_reliable _ = false

(* the simulated cluster lives in one address space *)
let is_hosted _ _ = true

let check t who =
  if who < 0 || who >= t.n then
    invalid_arg (Printf.sprintf "Cluster: bad machine id %d" who)

let on_process_event t f = t.process_hooks <- t.process_hooks @ [ f ]
let fire_process t ev = List.iter (fun f -> f ev) t.process_hooks

(* the raw interconnect has no failure detector: like raw Sock, every
   peer is [Alive] and peer events never fire *)
let on_peer_event _ _ = ()

let peer_health t ~self ~peer =
  check t self;
  check t peer;
  Transport.Alive

(* the epoch stamped on frames machine [m] emits *)
let self_epoch t m =
  match t.sim with None -> 0 | Some sim -> Fault_sim.epoch_of sim m

(* ------------------------------------------------------------------ *)
(* the physical layer: fault hook, then fault schedule, then mailbox   *)
(* ------------------------------------------------------------------ *)

(* drain crash/restart events from the simulator and apply them; called
   after every physical transmission (the only place the frame clock
   advances) and at the top of [idle] *)
let poll_crashes t =
  match t.sim with
  | None -> ()
  | Some sim -> (
      match Fault_sim.take_transitions sim with
      | [] -> ()
      | transitions ->
          List.iter
            (fun tr ->
              match tr with
              | Fault_sim.Crashed { machine; durability } ->
                  Rmi_stats.Metrics.add t.metrics Crashes 1;
                  (* its mailbox dies with it; a layer stacked above
                     wipes its own state from its process hook *)
                  Mailbox.clear t.boxes.(machine);
                  fire_process t (Transport.Proc_crashed { machine; durability })
              | Fault_sim.Restarted { machine; epoch; durability } ->
                  Rmi_stats.Metrics.add t.metrics Restarts 1;
                  fire_process t
                    (Transport.Proc_restarted { machine; epoch; durability }))
            transitions)

let transmit t ~src ~dest frame =
  match (t.fault, t.sim) with
  | None, None ->
      (* no hook and no simulator: straight to the mailbox, with no
         one-frame list to build *)
      Mailbox.send t.boxes.(dest) frame
  | fault, sim ->
      let frames =
        match fault with None -> [ frame ] | Some hook -> hook ~src ~dest frame
      in
      let frames =
        match sim with
        | None -> frames
        | Some sim ->
            List.concat_map (fun f -> Fault_sim.on_send sim ~src ~dest f) frames
      in
      List.iter (Mailbox.send t.boxes.(dest)) frames;
      (* a send may have pushed the frame clock over a scheduled crash *)
      poll_crashes t

(* test/diagnostic backdoor: deliver a raw frame to [dest]'s mailbox,
   bypassing hook and simulator *)
let inject_frame t ~dest frame =
  check t dest;
  Mailbox.send t.boxes.(dest) frame

let send t ~src ~dest msg =
  check t src;
  check t dest;
  Transport.account_send t.metrics (Bytes.length msg);
  transmit t ~src ~dest msg

(* physical transmit: the frame rides through the fault hook and the
   simulator but is never charged to the logical counters — the hook a
   layer stacked above uses for its own frames (envelopes, acks,
   retransmits, heartbeats, batch groups) *)
let send_raw t ~src ~dest frame =
  check t src;
  check t dest;
  transmit t ~src ~dest frame

(* the message sitting in [w.(payload_off..)] is snapshotted once into
   the immutable frame the mailbox holds *)
let ship_writer t ~src ~dest w ~payload_off =
  let payload_len = Rmi_wire.Msgbuf.length w - payload_off in
  let frame = Rmi_wire.Msgbuf.sub w ~off:payload_off ~len:payload_len in
  charge t payload_len;
  transmit t ~src ~dest frame

let send_writer t ~src ~dest w ~payload_off =
  check t src;
  check t dest;
  Transport.account_send t.metrics (Rmi_wire.Msgbuf.length w - payload_off);
  ship_writer t ~src ~dest w ~payload_off

let send_raw_writer t ~src ~dest w ~payload_off =
  check t src;
  check t dest;
  ship_writer t ~src ~dest w ~payload_off

include Transport.Unbuffered (struct
  type nonrec t = t

  let send = send
end)

(* ------------------------------------------------------------------ *)
(* receive path: whole frames, straight from the mailbox               *)
(* ------------------------------------------------------------------ *)

let try_recv_into t ~self s =
  check t self;
  Mailbox.try_recv t.boxes.(self) s

(* one non-blocking pass first, so a poll that finds a frame does not
   set up the timed wait *)
let recv_deadline_into t ~self ~seconds s =
  try_recv_into t ~self s || Mailbox.recv_deadline t.boxes.(self) ~seconds s

let recv_blocking_into t ~self s =
  check t self;
  Mailbox.recv_blocking t.boxes.(self) s

(* a mailbox frame is the receiver's own: nothing below reuses it *)
let release _ ~self:_ _ = ()

(* a top-level loop: [Array.exists] builds a closure per call, and an
   idle Reliable sweep asks this on every poll *)
let rec any_pending boxes i =
  i < Array.length boxes
  && ((not (Mailbox.is_empty boxes.(i))) || any_pending boxes (i + 1))

let pending_anywhere t = any_pending t.boxes 0

(* the clock tick of a raw interconnect only applies due crash/restart
   transitions; there is nothing to retransmit *)
let idle t ~self =
  check t self;
  poll_crashes t;
  Transport.Raw_transport

(* ------------------------------------------------------------------ *)
(* fault injection                                                     *)
(* ------------------------------------------------------------------ *)

let set_faults t sim = t.sim <- Some sim
let faults t = t.sim
let set_fault_hook t hook = t.fault <- Some hook
let clear_fault_hook t = t.fault <- None

(* everything lives in this process; nothing to release *)
let shutdown _ = ()
