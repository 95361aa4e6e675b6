type t = {
  n : int;
  boxes : Mailbox.t array;
  metrics : Rmi_stats.Metrics.t;
  (* zero-copy wire path: batch frames are built in place in pooled
     writers and payloads handed up as slices.  Off = the copy-based
     framing, kept for the wirecost comparison. *)
  zero_copy : bool;
  pool : Rmi_wire.Msgbuf.Pool.buffers;
  mutable fault : (src:int -> dest:int -> bytes -> bytes list) option;
  mutable sim : Fault_sim.t option;
  (* per-(src,dest) coalescing buffers; one flush = one wire frame *)
  mutable batcher : Batcher.t option;
  (* messages unpacked from an already-received batch frame, served
     ahead of the mailbox; [(frame, off, len)] slices sharing the frame
     bytes so splitting a batch copies nothing *)
  inbox : (bytes * int * int) Queue.t array;
  imutex : Mutex.t array;
  mutable process_hooks : (Transport.process_event -> unit) list;
}

let create ?(zero_copy = true) ~n metrics =
  if n < 1 then invalid_arg "Cluster.create: need at least one machine";
  {
    n;
    boxes = Array.init n (fun _ -> Mailbox.create ());
    metrics;
    zero_copy;
    pool = Rmi_wire.Msgbuf.Pool.create ~metrics;
    fault = None;
    sim = None;
    batcher = None;
    inbox = Array.init n (fun _ -> Queue.create ());
    imutex = Array.init n (fun _ -> Mutex.create ());
    process_hooks = [];
  }

let size t = t.n
let metrics t = t.metrics
let zero_copy t = t.zero_copy
let pool t = t.pool

(* every physical payload copy on the wire path is charged here, under
   both modes — the quantity the wirecost experiment compares *)
let charge t n = Rmi_stats.Metrics.add_bytes_copied t.metrics n

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
let set_detector _ _ = ()

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

(* a machine just crashed: everything it held in flight dies with it —
   mailbox, unpacked-batch inbox and unflushed batch buffers.  A layer
   stacked above wipes its own state from its process hook. *)
let wipe_machine t m =
  Mailbox.clear t.boxes.(m);
  Mutex.lock t.imutex.(m);
  Queue.clear t.inbox.(m);
  Mutex.unlock t.imutex.(m);
  Option.iter (fun b -> Batcher.drop_source b ~src:m) t.batcher

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
                  Rmi_stats.Metrics.incr_crashes t.metrics;
                  wipe_machine t machine;
                  fire_process t (Transport.Proc_crashed { machine; durability })
              | Fault_sim.Restarted { machine; epoch; durability } ->
                  Rmi_stats.Metrics.incr_restarts t.metrics;
                  fire_process t
                    (Transport.Proc_restarted { machine; epoch; durability }))
            transitions)

let transmit t ~src ~dest frame =
  let frames =
    match t.fault with None -> [ frame ] | Some hook -> hook ~src ~dest frame
  in
  let frames =
    match t.sim with
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

(* logical-traffic accounting, identical under both framing modes:
   payload bytes, counted once *)
let account_send t len =
  Rmi_stats.Metrics.incr_msgs_sent t.metrics;
  Rmi_stats.Metrics.add_bytes_sent t.metrics len;
  Rmi_stats.Metrics.incr_unbatched t.metrics

let send t ~src ~dest msg =
  check t src;
  check t dest;
  account_send t (Bytes.length msg);
  transmit t ~src ~dest msg

(* physical transmit: the frame rides through the fault hook and the
   simulator but is never charged to the logical counters — the hook a
   layer stacked above uses for its own frames (envelopes, acks,
   retransmits, heartbeats) *)
let send_raw t ~src ~dest frame =
  check t src;
  check t dest;
  transmit t ~src ~dest frame

(* the message sitting in [w.(payload_off..)] is snapshotted once into
   the immutable frame the mailbox holds *)
let send_frame_writer t ~src ~dest w ~payload_off =
  let payload_len = Rmi_wire.Msgbuf.length w - payload_off in
  let frame = Rmi_wire.Msgbuf.sub w ~off:payload_off ~len:payload_len in
  charge t payload_len;
  transmit t ~src ~dest frame

let send_writer t ~src ~dest w ~payload_off =
  check t src;
  check t dest;
  account_send t (Rmi_wire.Msgbuf.length w - payload_off);
  send_frame_writer t ~src ~dest w ~payload_off

(* ------------------------------------------------------------------ *)
(* batching: coalesce small messages per destination link              *)
(* ------------------------------------------------------------------ *)

let enable_batching ?(max_bytes = Batcher.default_batch_bytes) t =
  if max_bytes < 1 then invalid_arg "Cluster.enable_batching: max_bytes < 1";
  t.batcher <- Some (Batcher.create ~max_bytes)

let batching_enabled t = t.batcher <> None

(* one buffered group becomes one wire frame: a batch of [k] messages
   pays a single per-message latency in the cost model (msgs_sent + 1)
   while bytes_sent still counts every logical payload byte.  The
   zero-copy mode assembles the batch directly in a pooled writer (one
   blit per member); the legacy mode batches with [encode_batch]
   (three copies of the group). *)
let flush_group t ~src ~dest msgs bytes =
  let k = List.length msgs in
  Rmi_stats.Metrics.incr_msgs_sent t.metrics;
  Rmi_stats.Metrics.add_bytes_sent t.metrics bytes;
  Rmi_stats.Metrics.record_batch t.metrics ~msgs:k;
  (match msgs with
  | [ m ] -> transmit t ~src ~dest m
  | _ when t.zero_copy ->
      Rmi_wire.Msgbuf.Pool.with_writer t.pool (fun w ->
          let payload_off = Envelope.gap in
          ignore (Rmi_wire.Msgbuf.reserve w Envelope.gap : int);
          Rmi_wire.Protocol.encode_batch_into w msgs;
          charge t bytes;
          send_frame_writer t ~src ~dest w ~payload_off)
  | _ ->
      let f = Rmi_wire.Protocol.encode_batch msgs in
      charge t (3 * bytes);
      transmit t ~src ~dest f);
  (dest, k, bytes)

let flush t ~src =
  check t src;
  match t.batcher with
  | None -> []
  | Some b ->
      List.map
        (fun (dest, msgs, bytes) -> flush_group t ~src ~dest msgs bytes)
        (Batcher.take b ~src)

let disable_batching t =
  (match t.batcher with
  | None -> ()
  | Some _ ->
      for src = 0 to t.n - 1 do
        ignore (flush t ~src)
      done);
  t.batcher <- None

let send_buffered t ~src ~dest msg =
  check t src;
  check t dest;
  match t.batcher with
  | None ->
      send t ~src ~dest msg;
      []
  | Some b -> (
      match Batcher.add b ~src ~dest msg with
      | None -> []
      | Some (msgs, bytes) -> [ flush_group t ~src ~dest msgs bytes ])

let buffered_anywhere t =
  match t.batcher with None -> false | Some b -> Batcher.any b

(* ------------------------------------------------------------------ *)
(* receive path: split batch frames                                    *)
(* ------------------------------------------------------------------ *)

let pop_inbox t ~self =
  Mutex.lock t.imutex.(self);
  let m =
    if Queue.is_empty t.inbox.(self) then None
    else Some (Queue.pop t.inbox.(self))
  in
  Mutex.unlock t.imutex.(self);
  m

(* [raw] just came off the wire for [self]: either a single message,
   handed straight up, or a batch frame whose first message is returned
   and whose rest queue up ahead of the mailbox.  The zero-copy mode
   splits the batch into slices sharing the frame bytes; the legacy
   mode copies each sub-message out, as it always did. *)
let admit t ~self raw =
  let len = Bytes.length raw in
  if not (Rmi_wire.Protocol.is_batch_at raw ~off:0 ~len) then Some (raw, 0, len)
  else if t.zero_copy then
    match Rmi_wire.Protocol.decode_batch_slice raw ~off:0 ~len with
    | None | Some [] ->
        (* garbled batch: drop it whole, like any other corrupt frame *)
        None
    | Some ((o, l) :: rest) ->
        if rest <> [] then begin
          Mutex.lock t.imutex.(self);
          List.iter (fun (o, l) -> Queue.push (raw, o, l) t.inbox.(self)) rest;
          Mutex.unlock t.imutex.(self)
        end;
        Some (raw, o, l)
  else
    match Rmi_wire.Protocol.decode_batch raw with
    | None | Some [] -> None
    | Some (first :: rest) ->
        charge t
          (List.fold_left
             (fun acc m -> acc + Bytes.length m)
             (Bytes.length first) rest);
        if rest <> [] then begin
          Mutex.lock t.imutex.(self);
          List.iter
            (fun m -> Queue.push (m, 0, Bytes.length m) t.inbox.(self))
            rest;
          Mutex.unlock t.imutex.(self)
        end;
        Some (first, 0, Bytes.length first)

(* the receive loops are top-level functions, not local closures, so
   an empty poll allocates nothing *)
let rec drain t ~self =
  match Mailbox.try_recv t.boxes.(self) with
  | None -> None
  | Some raw -> (
      match admit t ~self raw with None -> drain t ~self | m -> m)

let try_recv_slice t ~self =
  check t self;
  match pop_inbox t ~self with Some _ as m -> m | None -> drain t ~self

let rec wait t ~self deadline =
  let remain = Clock.remaining deadline in
  if remain <= 0.0 then None
  else
    match Mailbox.recv_deadline t.boxes.(self) ~seconds:remain with
    | None -> None
    | Some raw -> (
        match admit t ~self raw with None -> wait t ~self deadline | m -> m)

let recv_deadline_slice t ~self ~seconds =
  check t self;
  (* one non-blocking pass first, so a zero or negative deadline still
     drains anything already deliverable instead of returning None with
     messages sitting in the mailbox *)
  match try_recv_slice t ~self with
  | Some _ as m -> m
  | None -> wait t ~self (Clock.deadline_after seconds)

let rec recv_blocking_slice t ~self =
  check t self;
  match pop_inbox t ~self with
  | Some m -> m
  | None -> (
      match admit t ~self (Mailbox.recv_blocking t.boxes.(self)) with
      | Some m -> m
      | None -> recv_blocking_slice t ~self)

let pending_anywhere t =
  Array.exists (fun b -> not (Mailbox.is_empty b)) t.boxes
  || Array.exists (fun q -> not (Queue.is_empty q)) t.inbox
  || buffered_anywhere t

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
let clear_faults t = t.sim <- None
let faults t = t.sim
let set_fault_hook t hook = t.fault <- Some hook
let clear_fault_hook t = t.fault <- None

(* ------------------------------------------------------------------ *)
(* Transport.S completion                                              *)
(* ------------------------------------------------------------------ *)

let name = "sim"

(* everything lives in this process; nothing to release *)
let shutdown _ = ()

(* the bytes-returning receive wrappers are the shared defaults derived
   from the slice family — backends implement only slices *)
include Transport.Recv_defaults (struct
  type nonrec t = t

  let metrics = metrics
  let try_recv_slice = try_recv_slice
  let recv_blocking_slice = recv_blocking_slice
  let recv_deadline_slice = recv_deadline_slice
end)
