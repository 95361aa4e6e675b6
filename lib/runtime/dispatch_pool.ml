(* The parallel runtime: worker domains serving a fabric's nodes.

   Each served node is owned by exactly one worker ([node index mod
   workers]), and only its owner receives on it, so the receive path
   stays single-consumer per machine, as in the paper.  A worker that
   owns one node runs its serve loop ([Node.serve_loop]): its queue
   would never hold more than the one task its owner is executing, so
   it stays empty, and the worker exits on the fabric's shutdown
   request.  A worker that owns several nodes runs a polling round:

   - intake: arriving requests land in a bounded per-node queue; a
     request that finds its queue full is answered with a
     [Protocol.Reject] frame before its payload is ever decoded —
     admission control, not silent drop.  Shutdown requests are
     dropped: a polling worker exits on the stop flag.
   - execution: workers prefer their own nodes' queues and steal from
     the others when empty.  A per-node serve mutex keeps each node's
     dispatches serialized (the node's plan caches, reuse tables and
     reply cache are single-threaded state); parallelism comes from
     serving different nodes simultaneously.
   - idle: a worker that made no progress drives the retransmit clock
     for its owned nodes, then backs off — spin briefly, then sleep —
     so a saturated client domain is never starved on small hosts. *)

module Metrics = Rmi_stats.Metrics
module Protocol = Rmi_wire.Protocol
module Msgbuf = Rmi_wire.Msgbuf
module Transport = Rmi_net.Transport
module Slice_ring = Rmi_net.Slice_ring

type node_q = {
  node : Node.t;
  q : Slice_ring.t;  (* received frames awaiting execution *)
  q_mutex : Mutex.t;
  mutable depth : int;  (* the ring's length, maintained under [q_mutex] *)
  serve_mutex : Mutex.t;  (* one dispatch at a time per node *)
  probe : Msgbuf.reader;
      (* the owner worker's admission reader, re-aimed at each frame *)
  intake : Transport.slice;  (* where the owner worker receives *)
}

type t = {
  net : Rmi_net.Transport.t;
  queues : node_q array;
  n_workers : int;
  queue_depth : int;
  metrics : Metrics.t;
  stopping : bool Atomic.t;
  mutable workers : unit Domain.t list;
}

(* [q_mutex] held: queue the frame in [s] *)
let push nq (s : Transport.slice) =
  Slice_ring.push nq.q s.buf s.off s.len;
  nq.depth <- nq.depth + 1

(* try to queue the frame in [s] for [nq]; [false] when the queue is
   full *)
let try_enqueue t nq s =
  Mutex.lock nq.q_mutex;
  let ok = nq.depth < t.queue_depth in
  if ok then push nq s;
  let depth = nq.depth in
  Mutex.unlock nq.q_mutex;
  if ok then Metrics.raise_max t.metrics Queue_depth_hwm depth;
  ok

(* move [nq]'s oldest queued frame into [s] *)
let try_dequeue nq s =
  Mutex.lock nq.q_mutex;
  let got = Slice_ring.pop_into nq.q s in
  if got then nq.depth <- nq.depth - 1;
  Mutex.unlock nq.q_mutex;
  got

(* pull at most one message from [nq]'s mailbox: enqueue it, or reject
   it when it is a client request and the queue is full.  Only [nq]'s
   owner worker calls this, so the mailbox and [nq.probe] stay
   single-consumer.  A malformed header is queued like a reply, and
   [Node] drops it when it is dispatched.  A queued frame is released
   when it is served; one dropped here is released at once. *)
let intake_one t nq =
  let self = Node.id nq.node in
  let s = nq.intake in
  Transport.try_recv_into t.net ~self s
  && begin
       let r = nq.probe in
       Msgbuf.reset_slice r s.buf ~off:s.off ~len:s.len;
       (match Server.admission r with
       | Server.Client_request ->
           if not (try_enqueue t nq s) then begin
             (* only a reject needs the whole header as a record *)
             Msgbuf.reset_slice r s.buf ~off:s.off ~len:s.len;
             Node.send_reject nq.node (Protocol.read_header r);
             Transport.release t.net ~self s.buf
           end
       | Server.Control ->
           (* a polling worker stops on its flag *)
           Transport.release t.net ~self s.buf
       | Server.Other ->
           (* replies, acks and rejects bypass admission control:
              refusing them could wedge the protocol.  The queue is
              unbounded for them, but their volume is bounded by the
              node's own outstanding calls. *)
           Mutex.lock nq.q_mutex;
           push nq s;
           Mutex.unlock nq.q_mutex);
       (* pin no frame between intakes *)
       Msgbuf.reset_slice r Bytes.empty ~off:0 ~len:0;
       s.buf <- Bytes.empty;
       true
     end

(* the frame in [s], dequeued from [nq], runs on [nq]'s node *)
let execute nq s =
  Mutex.lock nq.serve_mutex;
  match Node.serve_slice nq.node s with
  | () -> Mutex.unlock nq.serve_mutex
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      Mutex.unlock nq.serve_mutex;
      Printexc.raise_with_backtrace e bt

(* one task into worker [w]'s slice [s], own queues first, then steal;
   top-level loops, so a round builds no closure *)
let rec own t w s i =
  if i >= Array.length t.queues then false
  else if i mod t.n_workers = w && try_dequeue t.queues.(i) s then begin
    execute t.queues.(i) s;
    true
  end
  else own t w s (i + 1)

let rec steal t w s i =
  if i >= Array.length t.queues then false
  else if i mod t.n_workers <> w && try_dequeue t.queues.(i) s then begin
    Metrics.add t.metrics Steals 1;
    execute t.queues.(i) s;
    true
  end
  else steal t w s (i + 1)

let run_one t w s = own t w s 0 || steal t w s 0

let poll t w =
  let n = Array.length t.queues in
  let s = Transport.slice () in
  let idle_rounds = ref 0 and dispatches = ref 0 in
  let stop = ref false in
  while not !stop do
    let progress = ref false in
    for i = 0 to n - 1 do
      if i mod t.n_workers = w && intake_one t t.queues.(i) then
        progress := true
    done;
    if run_one t w s then begin
      progress := true;
      incr dispatches
    end;
    if !progress then idle_rounds := 0
    else begin
      incr idle_rounds;
      (* drive retransmission for the owned nodes, as the blocking
         serve loop would have *)
      for i = 0 to n - 1 do
        if i mod t.n_workers = w then
          ignore
            (Transport.idle t.net ~self:(Node.id t.queues.(i).node))
      done;
      if Atomic.get t.stopping then stop := true
      else if !idle_rounds < 50 then Domain.cpu_relax ()
      else
        (* a polling worker must yield the processor on small hosts or
           it starves the client domain driving the workload *)
        Unix.sleepf 0.0001
    end
  done;
  Metrics.add t.metrics Dispatches !dispatches

(* worker [w] owns nodes [w], [w + n_workers], ...; it owns exactly one
   when [w + n_workers] is past the last node *)
let worker t w () =
  if w + t.n_workers >= Array.length t.queues then
    Node.serve_loop t.queues.(w).node
  else poll t w

let create ~net ~nodes ~domains ~queue_depth () =
  if domains < 1 then invalid_arg "Dispatch_pool.create: domains < 1";
  if domains > Array.length nodes then
    invalid_arg "Dispatch_pool.create: more domains than nodes";
  if queue_depth < 1 then invalid_arg "Dispatch_pool.create: queue_depth < 1";
  let queues =
    Array.map
      (fun node ->
        {
          node;
          q = Slice_ring.create ();
          q_mutex = Mutex.create ();
          depth = 0;
          serve_mutex = Mutex.create ();
          probe = Msgbuf.reader_of_bytes Bytes.empty;
          intake = Transport.slice ();
        })
      nodes
  in
  let t =
    {
      net;
      queues;
      n_workers = domains;
      queue_depth;
      metrics = Rmi_net.Transport.metrics net;
      stopping = Atomic.make false;
      workers = [];
    }
  in
  t.workers <- List.init domains (fun w -> Domain.spawn (worker t w));
  t

let stop t =
  Atomic.set t.stopping true;
  List.iter Domain.join t.workers;
  t.workers <- [];
  (* anything still queued after the workers exited (a request that
     arrived between quiescence and the join) is served inline so no
     frame is silently dropped *)
  let s = Transport.slice () in
  Array.iter
    (fun nq ->
      while try_dequeue nq s do
        Node.serve_slice nq.node s
      done)
    t.queues
