(* The batching layer: request coalescing stacked over any transport —
   a raw backend ([Cluster], [Sock]) or the [Reliable] ARQ above one.
   The only code that coalesces, encodes or splits batches; see the
   interface for the accounting. *)

module Msgbuf = Rmi_wire.Msgbuf
module Protocol = Rmi_wire.Protocol
module Metrics = Rmi_stats.Metrics

(* a link auto-flushes once it buffers this many payload bytes *)
let max_bytes = 4096

(* one (src, dest) link's buffered group, newest member first *)
type link = { mutable msgs : bytes list; mutable bytes : int }

(* one machine's split batches with members not yet released: the
   frame in slot [i] owes [owed.(i)] more releases that stop here
   before the last one goes down to [lower]; a slot owing 0 is free *)
type owing = { mutable frames : bytes array; mutable owed : int array }

module M = struct
  type t = {
    lower : Transport.t;
    n : int;
    metrics : Metrics.t;  (* the backend's *)
    pool : Msgbuf.Pool.buffers;  (* the backend's *)
    links : link array array;  (* links.(src).(dest) *)
    lock : Mutex.t;  (* guards [links] *)
    (* members of an already-received batch, served ahead of [lower];
       one lock per machine, so receivers on different domains do not
       contend *)
    inbox : Slice_ring.t array;
    owing : owing array;  (* per machine, under its [imutex] *)
    imutex : Mutex.t array;
  }

  let charge t n = Metrics.add t.metrics Bytes_copied n

  let check t who =
    if who < 0 || who >= t.n then
      invalid_arg (Printf.sprintf "Batching: bad machine id %d" who)

  (* ---------------------------------------------------------------- *)
  (* send path: the unbuffered sends pass through                      *)
  (* ---------------------------------------------------------------- *)

  let is_reliable t = Transport.is_reliable t.lower
  let send t ~src ~dest msg = Transport.send t.lower ~src ~dest msg
  let send_raw t ~src ~dest frame = Transport.send_raw t.lower ~src ~dest frame

  let send_writer t ~src ~dest w ~payload_off =
    Transport.send_writer t.lower ~src ~dest w ~payload_off

  let send_raw_writer t ~src ~dest w ~payload_off =
    Transport.send_raw_writer t.lower ~src ~dest w ~payload_off

  (* one group (oldest member first) becomes one wire frame; a lone
     member ships as itself.  A batch is assembled in a gap-reserved
     pooled writer (one blit per member) for [lower] to frame in
     place. *)
  let ship t ~src (dest, msgs, bytes) =
    let k = List.length msgs in
    Metrics.add t.metrics Msgs_sent 1;
    Metrics.add t.metrics Bytes_sent bytes;
    Metrics.record_batch t.metrics ~msgs:k;
    (match msgs with
    | [ m ] -> Transport.send_raw t.lower ~src ~dest m
    | _ ->
        Msgbuf.Pool.with_writer t.pool (fun w ->
            ignore (Msgbuf.reserve w Envelope.gap : int);
            Protocol.encode_batch_into w msgs;
            charge t bytes;
            Transport.send_raw_writer t.lower ~src ~dest w
              ~payload_off:Envelope.gap));
    (dest, k, bytes)

  (* with [t.lock] held: empty the link, returning its group *)
  let take t ~src ~dest =
    let l = t.links.(src).(dest) in
    let group = (dest, List.rev l.msgs, l.bytes) in
    l.msgs <- [];
    l.bytes <- 0;
    group

  let send_buffered t ~src ~dest msg =
    check t src;
    check t dest;
    Mutex.lock t.lock;
    let l = t.links.(src).(dest) in
    l.msgs <- msg :: l.msgs;
    l.bytes <- l.bytes + Bytes.length msg;
    let full = if l.bytes >= max_bytes then Some (take t ~src ~dest) else None in
    Mutex.unlock t.lock;
    match full with None -> [] | Some group -> [ ship t ~src group ]

  (* every group is taken before any ships, in ascending [dest] order:
     a crash the shipping triggers cannot lose a group already taken *)
  let flush t ~src =
    check t src;
    Mutex.lock t.lock;
    let groups = ref [] in
    for dest = t.n - 1 downto 0 do
      if t.links.(src).(dest).msgs <> [] then
        groups := take t ~src ~dest :: !groups
    done;
    Mutex.unlock t.lock;
    List.map (ship t ~src) !groups

  (* ---------------------------------------------------------------- *)
  (* receive path: split batch frames                                  *)
  (* ---------------------------------------------------------------- *)

  let pop_inbox t ~self s =
    Mutex.lock t.imutex.(self);
    let got = Slice_ring.pop_into t.inbox.(self) s in
    Mutex.unlock t.imutex.(self);
    got

  (* ---------------------------------------------------------------- *)
  (* releases: [lower] handed up one frame per batch, the receiver     *)
  (* releases once per member                                          *)
  (* ---------------------------------------------------------------- *)

  (* top-level loops, so a release builds no closure *)
  let rec slot_of frames owed buf i =
    if i = Array.length frames then -1
    else if owed.(i) > 0 && frames.(i) == buf then i
    else slot_of frames owed buf (i + 1)

  let rec free_slot owed i =
    if i = Array.length owed || owed.(i) = 0 then i else free_slot owed (i + 1)

  (* [imutex] held: [k] more releases of [buf] stop here *)
  let owe o buf k =
    match slot_of o.frames o.owed buf 0 with
    | -1 ->
        let i = free_slot o.owed 0 in
        if i = Array.length o.owed then begin
          let n = max 4 (2 * i) in
          let frames = Array.make n Bytes.empty and owed = Array.make n 0 in
          Array.blit o.frames 0 frames 0 i;
          Array.blit o.owed 0 owed 0 i;
          o.frames <- frames;
          o.owed <- owed
        end;
        o.frames.(i) <- buf;
        o.owed.(i) <- k
    | i -> o.owed.(i) <- o.owed.(i) + k

  (* [imutex] held: whether a release of [buf] stops here *)
  let swallow o buf =
    match slot_of o.frames o.owed buf 0 with
    | -1 -> false
    | i ->
        o.owed.(i) <- o.owed.(i) - 1;
        if o.owed.(i) = 0 then o.frames.(i) <- Bytes.empty;
        true

  (* counts are per frame, so which member is released does not matter:
     a split k-member batch passes its k-th release down *)
  let release t ~self frame =
    check t self;
    Mutex.lock t.imutex.(self);
    let swallowed = swallow t.owing.(self) frame in
    Mutex.unlock t.imutex.(self);
    if not swallowed then Transport.release t.lower ~self frame

  (* the batch frame in [s] arrived for [self]: [s] is narrowed to its
     first member and the rest queue in the inbox, all as slices of the
     frame.  A garbled batch is dropped whole, like any other corrupt
     frame, and released to [lower]. *)
  let split t ~self (s : Transport.slice) =
    let buf = s.buf in
    match Protocol.decode_batch_slice buf ~off:s.off ~len:s.len with
    | None | Some [] ->
        Transport.release t.lower ~self buf;
        false
    | Some ((o, l) :: rest) ->
        Mutex.lock t.imutex.(self);
        (match rest with
        | [] -> ()
        | _ -> owe t.owing.(self) buf (List.length rest));
        let q = t.inbox.(self) in
        List.iter (fun (o, l) -> Slice_ring.push q buf o l) rest;
        Mutex.unlock t.imutex.(self);
        s.off <- o;
        s.len <- l;
        true

  (* the frame [lower] put in [s] goes up: as it is, or its first
     member when it is a batch; false when a garbled batch was dropped *)
  let admit t ~self (s : Transport.slice) =
    (not (Protocol.is_batch_at s.buf ~off:s.off ~len:s.len)) || split t ~self s

  (* the receive loops are top-level functions, not local closures, so
     a frame that is not a batch is received with no allocation here *)
  let rec drain t ~self s =
    Transport.try_recv_into t.lower ~self s
    && (admit t ~self s || drain t ~self s)

  let try_recv_into t ~self s =
    check t self;
    pop_inbox t ~self s || drain t ~self s

  (* [lower] makes its own non-blocking pass first, so a zero or
     negative deadline still drains what is deliverable *)
  let rec wait t ~self deadline s =
    Transport.recv_deadline_into t.lower ~self
      ~seconds:(Clock.remaining deadline) s
    && (admit t ~self s || wait t ~self deadline s)

  let recv_deadline_into t ~self ~seconds s =
    check t self;
    pop_inbox t ~self s || wait t ~self (Clock.deadline_after seconds) s

  let rec recv_blocking_into t ~self s =
    check t self;
    if not (pop_inbox t ~self s) then begin
      Transport.recv_blocking_into t.lower ~self s;
      if not (admit t ~self s) then recv_blocking_into t ~self s
    end

  let buffered_anywhere t =
    Mutex.lock t.lock;
    let any = Array.exists (Array.exists (fun l -> l.msgs <> [])) t.links in
    Mutex.unlock t.lock;
    any

  let holds_anything t =
    Array.exists (fun q -> not (Slice_ring.is_empty q)) t.inbox
    || buffered_anywhere t

  let pending_anywhere t = Transport.pending_anywhere t.lower || holds_anything t

  (* [lower] answers [Dead] when nothing is in flight below it; a member
     still queued here or a group still buffered means waiting can
     succeed *)
  let idle t ~self =
    match Transport.idle t.lower ~self with
    | Transport.Dead when holds_anything t -> Transport.Waiting
    | o -> o

  (* a machine just crashed: its unflushed groups and the members it
     had not received yet die with it, released as if received *)
  let wipe_machine t m =
    Mutex.lock t.lock;
    for dest = 0 to t.n - 1 do
      ignore (take t ~src:m ~dest)
    done;
    Mutex.unlock t.lock;
    Mutex.lock t.imutex.(m);
    let dropped = Slice_ring.take_all t.inbox.(m) in
    Mutex.unlock t.imutex.(m);
    List.iter (fun buf -> release t ~self:m buf) dropped

  (* peer health is [lower]'s: the layer keeps no view of its own *)
  let peer_health t ~self ~peer = Transport.peer_health t.lower ~self ~peer
  let on_peer_event t f = Transport.on_peer_event t.lower f
end

let wrap lower =
  let n = Transport.size lower in
  let t =
    {
      M.lower;
      n;
      metrics = Transport.metrics lower;
      pool = Transport.pool lower;
      links =
        Array.init n (fun _ -> Array.init n (fun _ -> { msgs = []; bytes = 0 }));
      lock = Mutex.create ();
      inbox = Array.init n (fun _ -> Slice_ring.create ());
      owing = Array.init n (fun _ -> { frames = [||]; owed = [||] });
      imutex = Array.init n (fun _ -> Mutex.create ());
    }
  in
  (* registered after any layer below, before any runtime hook *)
  Transport.on_process_event lower (function
    | Transport.Proc_crashed { machine; _ } -> M.wipe_machine t machine
    | Transport.Proc_restarted _ -> ());
  Transport.stack lower (module M) t
